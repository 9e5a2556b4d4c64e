"""The tracing layer: spans, the ring buffer, the flight recorder, logs.

Two contracts dominate: the *disabled* path must be inert (NULL_SPAN
everywhere, zero recorder objects, bit-identical anneal trajectories)
and the *enabled* path must assemble faithful span trees across
explicit-parent, contextvar, and remote-traceparent boundaries.
"""

import io
import json
import logging

import numpy as np
import pytest

from annealing_oracle import anneal_mapping_reference
from repro.core.annealing import SAOptions, anneal_mapping
from repro.obs import (
    NULL_SPAN,
    TRACER,
    FlightRecorder,
    Tracer,
    configure_logging,
    format_traceparent,
    get_logger,
    parse_traceparent,
)
from repro.parallel import WorkerGrid, sequential_mapping


@pytest.fixture
def tracer():
    """A fresh, enabled, private tracer (never the global singleton)."""
    t = Tracer()
    t.enable()
    yield t
    t.disable()
    t.reset()


@pytest.fixture
def global_tracer():
    """The shared TRACER, enabled for one test and restored after."""
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


@pytest.fixture
def mapping(tiny_cluster):
    return sequential_mapping(WorkerGrid(pp=4, tp=4, dp=1), tiny_cluster)


def _weights_objective(n_blocks: int):
    weights = np.linspace(-1.0, 1.0, n_blocks)

    def objective(m):
        return float(weights @ m.block_to_slot)

    return objective


class TestDisabledPath:
    def test_start_span_returns_null_span(self):
        t = Tracer()
        assert t.start_span("x") is NULL_SPAN
        assert t.record_span("x", 0.5) is NULL_SPAN

    def test_null_span_is_inert(self):
        assert not NULL_SPAN.recording
        assert NULL_SPAN.set_attribute("k", "v") is NULL_SPAN
        NULL_SPAN.end()  # no-op, no error
        assert NULL_SPAN.attributes == {}

    def test_span_contextmanager_yields_null_span(self):
        t = Tracer()
        with t.span("x") as span:
            assert span is NULL_SPAN
        assert t.traces() == []

    def test_anneal_trajectory_identical_with_and_without_recorder(
            self, mapping):
        # The recorder must draw nothing from the RNG stream: same
        # seed, same trajectory, bit for bit.
        objective = _weights_objective(mapping.grid.n_blocks)
        options = SAOptions(max_iterations=400, seed=11)
        bare = anneal_mapping(mapping, objective, options)
        recorded = anneal_mapping(mapping, objective, options,
                                  recorder=FlightRecorder())
        assert bare.value == recorded.value
        assert np.array_equal(bare.mapping.block_to_slot,
                              recorded.mapping.block_to_slot)
        assert bare.history == recorded.history
        assert bare.iterations == recorded.iterations
        assert bare.evaluations == recorded.evaluations


class TestTraceparent:
    def test_round_trip(self, tracer):
        span = tracer.start_span("root")
        header = format_traceparent(span)
        assert parse_traceparent(header) == (span.trace_id, span.span_id)
        span.end()

    @pytest.mark.parametrize("header", [
        "",
        "00-abc-def-01",
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
        "00-" + "1" * 32 + "-" + "1" * 16,          # missing flags
    ])
    def test_malformed_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_valid_header_with_whitespace(self):
        header = "  00-" + "ab" * 16 + "-" + "cd" * 8 + "-01  "
        assert parse_traceparent(header) == ("ab" * 16, "cd" * 8)


class TestSpanTrees:
    def test_contextvar_nesting(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        tree = tracer.trace(root.trace_id)
        assert tree["root"]["name"] == "root"
        child = tree["root"]["children"][0]
        assert child["name"] == "child"
        assert child["children"][0]["name"] == "grandchild"
        assert tree["n_spans"] == 3

    def test_explicit_parent_beats_contextvar(self, tracer):
        with tracer.span("root") as root:
            other = tracer.start_span("other")  # contextvar-parented
            explicit = tracer.start_span("explicit", parent=root)
            assert explicit.parent_id == root.span_id
            assert other.parent_id == root.span_id
            explicit.end()
            other.end()

    def test_remote_parent_starts_adopted_trace(self, tracer):
        span = tracer.start_span("server", remote=("ab" * 16, "cd" * 8))
        assert span.trace_id == "ab" * 16
        assert span.parent_id == "cd" * 8
        span.end()
        # A remote-parented local root still finishes its trace.
        index = tracer.traces()
        assert [t["trace_id"] for t in index] == ["ab" * 16]
        assert index[0]["root"] == "server"

    def test_record_span_backdates_start(self, tracer):
        with tracer.span("root") as root:
            child = tracer.record_span("measured", 1.5, parent=root, k="v")
            assert child.duration_s == pytest.approx(1.5, rel=0.1)
            assert child.start_ts <= root.start_ts + 0.5
        tree = tracer.trace(root.trace_id)
        measured = tree["root"]["children"][0]
        assert measured["name"] == "measured"
        assert measured["attributes"] == {"k": "v"}
        assert measured["duration_ms"] == pytest.approx(1500.0, rel=0.1)

    def test_open_trace_assembles_partial_tree(self, tracer):
        root = tracer.start_span("root")
        with tracer.span("done", parent=root):
            pass
        tree = tracer.trace(root.trace_id)
        assert tree["partial"] is True
        # The unfinished root is absent; its finished child surfaces.
        names = {tree["root"]["name"]} if tree["root"] else set()
        for orphan in tree.get("orphans", []):
            names.add(orphan["name"])
        assert "done" in names
        root.end()
        finished = tracer.trace(root.trace_id)
        assert not finished.get("partial")
        assert finished["root"]["name"] == "root"

    def test_end_is_idempotent(self, tracer):
        with tracer.span("root") as root:
            child = tracer.start_span("child")
            child.end()
            first = child.duration_s
            child.end()
            assert child.duration_s == first
        assert tracer.trace(root.trace_id)["n_spans"] == 2

    def test_ring_buffer_bound(self):
        t = Tracer(max_traces=3)
        t.enable()
        try:
            ids = []
            for index in range(5):
                with t.span(f"root-{index}") as span:
                    ids.append(span.trace_id)
            kept = [entry["trace_id"] for entry in t.traces()]
            assert kept == ids[-3:]
            assert t.trace(ids[0]) is None
        finally:
            t.disable()

    def test_spans_per_trace_bound(self):
        t = Tracer(max_spans_per_trace=4)
        t.enable()
        try:
            with t.span("root") as root:
                for index in range(10):
                    t.start_span(f"c{index}").end()
            assert t.trace(root.trace_id)["n_spans"] == 4
        finally:
            t.disable()

    def test_attributes_survive_to_payload(self, tracer):
        with tracer.span("root", cluster="a") as root:
            root.set_attribute("outcome", "hit")
        payload = tracer.trace(root.trace_id)["root"]
        assert payload["attributes"] == {"cluster": "a", "outcome": "hit"}


class TestTraceFile:
    def test_spans_mirrored_as_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer()
        t.enable(trace_file=str(path))
        try:
            with t.span("root") as root:
                with t.span("child"):
                    pass
        finally:
            t.disable()
        rows = [json.loads(line)
                for line in path.read_text().splitlines() if line]
        assert [r["name"] for r in rows] == ["child", "root"]
        assert all(r["trace_id"] == root.trace_id for r in rows)
        assert t.trace_path is None  # disable closed the file

    def test_disable_then_reenable_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer()
        for _ in range(2):
            t.enable(trace_file=str(path))
            with t.span("root"):
                pass
            t.disable()
        assert len(path.read_text().splitlines()) == 2


class TestMetricsExport:
    def test_phase_and_anneal_histograms(self, tracer):
        from repro.service.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        tracer.attach_metrics(metrics)
        with tracer.span("plan.search"):
            pass
        tracer.record_span("search.candidate", 0.01,
                           anneal_iterations=120, anneal_evaluations=123)
        tracer.record_span("not.a.phase", 0.01)
        text = metrics.render()
        assert 'pipette_phase_latency_seconds_count{phase="plan.search"} 1' \
            in text
        assert "pipette_anneal_iterations_count 1" in text
        assert "pipette_anneal_evaluations_count 1" in text
        assert "not.a.phase" not in text


class TestFlightRecorder:
    def test_payload_shape(self):
        recorder = FlightRecorder(provenance="warm-start", stride=1)
        recorder.start(10.0, evaluations=3)
        best = 10.0
        for iteration in range(20):  # 0-based, as the annealer calls it
            best = min(best, 10.0 - (iteration + 1) * 0.1)
            recorder.sample(iteration, 5.0 / (iteration + 1), best,
                            accepted_move=iteration % 2 == 0)
        recorder.finish("iteration_budget", best)
        payload = recorder.to_payload()
        assert payload["provenance"] == "warm-start"
        assert payload["exit_reason"] == "iteration_budget"
        assert payload["iterations"] == 20
        assert payload["evaluations"] == 3 + 20
        assert payload["initial_value"] == 10.0
        assert payload["final_value"] == pytest.approx(8.0)
        series = payload["series"]
        assert set(series) == {"iteration", "temperature", "best_so_far",
                               "acceptance_rate"}
        assert series["iteration"] == sorted(series["iteration"])
        assert all(len(v) == len(series["iteration"])
                   for v in series.values())
        # best-so-far is non-increasing by construction.
        assert series["best_so_far"] == \
            sorted(series["best_so_far"], reverse=True)
        assert all(0.0 <= rate <= 1.0
                   for rate in series["acceptance_rate"])

    def test_sampling_stays_bounded(self):
        recorder = FlightRecorder(max_samples=16, stride=1)
        recorder.start(1.0)
        for iteration in range(100_000):
            recorder.sample(iteration, 0.5, 1.0, accepted_move=False)
        recorder.finish("iteration_budget", 1.0)
        series = recorder.to_payload()["series"]
        assert 1 <= len(series["iteration"]) <= 16

    def test_picklable_payload(self):
        import pickle
        recorder = FlightRecorder()
        recorder.start(1.0)
        recorder.sample(16, 0.5, 0.9, accepted_move=True)
        recorder.finish("time_limit", 0.9)
        payload = recorder.to_payload()
        assert pickle.loads(pickle.dumps(payload)) == payload
        json.dumps(payload)  # JSON-serializable for span attributes


class TestAnnealTelemetry:
    def test_exit_reason_iteration_budget(self, mapping):
        recorder = FlightRecorder()
        result = anneal_mapping(mapping, lambda m: 1.0,
                                SAOptions(max_iterations=64, seed=0),
                                recorder=recorder)
        assert result.exit_reason == "iteration_budget"
        assert recorder.to_payload()["exit_reason"] == "iteration_budget"

    def test_exit_reason_time_limit(self, mapping):
        result = anneal_mapping(
            mapping, lambda m: 1.0,
            SAOptions(time_limit_s=0.02, max_iterations=None, seed=0))
        assert result.exit_reason == "time_limit"

    def test_evaluation_accounting(self, mapping):
        objective = _weights_objective(mapping.grid.n_blocks)
        # Explicit temperature: 1 initial evaluation + 1 per iteration.
        pinned = anneal_mapping(
            mapping, objective,
            SAOptions(max_iterations=50, seed=0, initial_temperature=1.0))
        assert pinned.evaluations == 1 + 50
        # Derived temperature adds the probe evaluations.
        derived = anneal_mapping(
            mapping, objective, SAOptions(max_iterations=50, seed=0))
        assert derived.evaluations > pinned.evaluations

    def test_reference_impl_agrees(self, mapping):
        objective = _weights_objective(mapping.grid.n_blocks)
        options = SAOptions(max_iterations=200, seed=4)
        fast = anneal_mapping(mapping, objective, options,
                              recorder=FlightRecorder())
        slow = anneal_mapping_reference(mapping, objective, options,
                                        recorder=FlightRecorder())
        assert fast.evaluations == slow.evaluations
        assert fast.exit_reason == slow.exit_reason
        assert fast.value == slow.value


class TestLogging:
    def _configure(self, level="info"):
        stream = io.StringIO()
        configure_logging(level, stream=stream)
        return stream

    def teardown_method(self):
        # Detach the test buffer so later tests never write into it.
        logging.getLogger("repro").handlers.clear()

    def test_json_lines_with_extras(self):
        stream = self._configure()
        get_logger("service.test").info("hello", extra={"count": 3})
        row = json.loads(stream.getvalue().strip())
        assert row["message"] == "hello"
        assert row["level"] == "info"
        assert row["logger"] == "repro.service.test"
        assert row["count"] == 3
        assert "trace_id" not in row

    def test_active_span_ids_ride_along(self, global_tracer):
        stream = self._configure()
        with global_tracer.span("root") as span:
            get_logger("x").warning("inside")
        row = json.loads(stream.getvalue().strip())
        assert row["trace_id"] == span.trace_id
        assert row["span_id"] == span.span_id

    def test_level_threshold(self):
        stream = self._configure("warning")
        log = get_logger("y")
        log.info("dropped")
        log.error("kept")
        rows = [json.loads(line)
                for line in stream.getvalue().splitlines()]
        assert [r["message"] for r in rows] == ["kept"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def test_reconfigure_does_not_stack_handlers(self):
        stream = self._configure()
        self._configure()
        get_logger("z").info("once")
        assert len(stream.getvalue().splitlines()) <= 1  # not duplicated
        assert len(logging.getLogger("repro").handlers) == 1

    def test_non_json_extra_is_reprd(self):
        stream = self._configure()
        get_logger("w").info("obj", extra={"thing": {1, 2}})
        row = json.loads(stream.getvalue().strip())
        assert isinstance(row["thing"], str)
