"""End-to-end tracing through the service stack.

The acceptance story of the tracing layer: with the global TRACER on,
one HTTP plan request must yield a span tree covering queue wait →
cache lookup → candidate eval → anneal (with the flight recorder's
convergence series and exit reason), visible both in the ``detail``
response's ``timing`` block and under ``/v1/debug/traces/<id>`` — and
with it off, responses must not change shape.
"""

import asyncio
import json
import logging

import pytest
from test_service_http import _Server, _json, _registry, _request

from repro.core import PipetteOptions, SAOptions
from repro.obs import TRACER
from repro.service import (
    HttpPlanServer,
    MetricsRegistry,
    PlanGateway,
    PlanningService,
)
from repro.service.__main__ import main as cli_main
from repro.service.replan import ClusterEvent

FAST = PipetteOptions(use_worker_dedication=False)

#: Worker dedication ON (the refine/anneal phase must appear in the
#: trace) with a small SA budget so each candidate anneals in ms.
TRACED = PipetteOptions(sa=SAOptions(max_iterations=80, seed=0), sa_top_k=2)


class _TracedServer(_Server):
    """The HTTP harness, but planning with the TRACED options."""

    async def __aenter__(self) -> "_TracedServer":
        self.gateway = PlanGateway(self.registry, metrics=self.metrics)
        await self.gateway.__aenter__()
        front = HttpPlanServer(self.gateway, TRACED, metrics=self.metrics)
        self.server = await asyncio.start_server(
            front.handle, host="127.0.0.1", port=0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self


@pytest.fixture
def tracing():
    """Global tracing on for one test, fully reset after."""
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


def _span_names(node, acc=None):
    acc = set() if acc is None else acc
    if node is None:
        return acc
    acc.add(node["name"])
    for child in node.get("children", ()):
        _span_names(child, acc)
    return acc


def _tree_names(tree):
    names = _span_names(tree.get("root"))
    for orphan in tree.get("orphans", ()):
        _span_names(orphan, names)
    return names


def _find(node, name):
    if node is None:
        return None
    if node["name"] == name:
        return node
    for child in node.get("children", ()):
        hit = _find(child, name)
        if hit is not None:
            return hit
    return None


REQUIRED_SPANS = {"http.request", "gateway.plan", "queue.wait",
                  "plan.cache_lookup", "plan.search", "search.refine",
                  "search.candidate"}


class TestHttpTracing:
    def _plan(self, payload, path="/v1/plan", headers=None):
        async def main():
            async with _TracedServer(_registry()) as server:
                extra = "".join(f"{k}: {v}\r\n"
                                for k, v in (headers or {}).items())
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                data = json.dumps(payload).encode()
                writer.write((f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                              f"Content-Length: {len(data)}\r\n{extra}"
                              "Connection: close\r\n\r\n").encode() + data)
                await writer.drain()
                from test_service_http import _read_response
                try:
                    return await _read_response(reader)
                finally:
                    writer.close()

        return asyncio.run(main())

    def test_detail_response_carries_trace_and_timing(self, tracing):
        status, _, body = self._plan({"model": "gpt-toy", "cluster": "alpha",
                                      "global_batch": 8, "detail": True})
        assert status == 200
        out = _json(body)
        assert out["trace_id"]
        timing = out["timing"]
        names = _tree_names(timing)
        assert REQUIRED_SPANS - {"http.request"} <= names
        # The ring buffer has the finished tree under the same id.
        tree = TRACER.trace(out["trace_id"])
        assert REQUIRED_SPANS <= _tree_names(tree)
        candidate = None
        for root in [tree["root"]] + tree.get("orphans", []):
            candidate = candidate or _find(root, "search.candidate")
        flight = candidate["attributes"]["flight"]
        assert flight["exit_reason"] in ("iteration_budget", "time_limit")
        series = flight["series"]
        assert series["best_so_far"] and series["acceptance_rate"]
        assert candidate["attributes"]["anneal_iterations"] > 0
        # queue.wait sits under gateway.plan, per the span model.
        gateway_span = _find(tree["root"], "gateway.plan")
        assert _find(gateway_span, "queue.wait") is not None
        lookup = _find(gateway_span, "plan.cache_lookup")
        assert lookup["attributes"]["outcome"] == "miss"

    def test_response_emits_traceparent_and_honors_incoming(self, tracing):
        remote_trace = "ab" * 16
        header = f"00-{remote_trace}-{'cd' * 8}-01"
        status, headers, body = self._plan(
            {"model": "gpt-toy", "cluster": "alpha", "global_batch": 8},
            headers={"traceparent": header})
        assert status == 200
        out = _json(body)
        assert out["trace_id"] == remote_trace
        echoed = headers["traceparent"]
        assert echoed.startswith(f"00-{remote_trace}-")
        assert echoed != header  # names our span, not the caller's
        # The adopted trace still lands in the finished index.
        assert remote_trace in [t["trace_id"] for t in TRACER.traces()]

    def test_request_logs_carry_trace_ids(self, tracing):
        import io
        import logging

        from repro.obs import configure_logging
        stream = io.StringIO()
        configure_logging("debug", stream=stream)
        try:
            status, _, body = self._plan({"model": "gpt-toy",
                                          "cluster": "alpha",
                                          "global_batch": 8})
        finally:
            rows = [json.loads(line)
                    for line in stream.getvalue().splitlines()]
            logging.getLogger("repro").handlers.clear()
        assert status == 200
        trace_id = _json(body)["trace_id"]
        by_logger = {row["logger"]: row for row in rows
                     if row.get("trace_id") == trace_id}
        # Every hop logged under this request's trace id.
        assert "repro.service.http" in by_logger
        assert "repro.service.gateway" in by_logger
        assert "repro.service.planner" in by_logger
        assert by_logger["repro.service.gateway"]["outcome"] == "miss"
        assert by_logger["repro.service.http"]["code"] == 200

    def test_disabled_tracing_leaves_responses_untouched(self):
        assert not TRACER.enabled
        status, headers, body = self._plan(
            {"model": "gpt-toy", "cluster": "alpha",
             "global_batch": 8, "detail": True})
        assert status == 200
        out = _json(body)
        assert "trace_id" not in out
        assert "timing" not in out
        assert "traceparent" not in headers
        assert TRACER.traces() == []

    def test_debug_endpoints(self, tracing):
        async def main():
            async with _TracedServer(_registry()) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "cluster": "alpha",
                                "global_batch": 8})
                index = await _request(server.port, "GET",
                                       "/v1/debug/traces")
                trace_id = _json(index[2])["traces"][-1]["trace_id"]
                detail = await _request(server.port, "GET",
                                        f"/v1/debug/traces/{trace_id}")
                missing = await _request(server.port, "GET",
                                         "/v1/debug/traces/nope")
                wrong = await _request(server.port, "DELETE",
                                       f"/v1/debug/traces/{trace_id}")
                return index, detail, missing, wrong

        index, detail, missing, wrong = asyncio.run(main())
        assert index[0] == 200
        summary = _json(index[2])
        assert summary["enabled"] is True
        assert summary["traces"][-1]["root"] == "http.request"
        assert detail[0] == 200
        assert REQUIRED_SPANS <= _tree_names(_json(detail[2]))
        assert missing[0] == 404
        assert wrong[0] == 405
        assert wrong[1]["allow"] == "GET"

    def test_debug_index_reports_disabled(self):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "GET",
                                      "/v1/debug/traces")

        status, _, body = asyncio.run(main())
        assert status == 200
        assert _json(body) == {"enabled": False, "traces": []}

    def test_healthz_fields(self, tracing):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "GET", "/healthz")

        status, _, body = asyncio.run(main())
        assert status == 200
        out = _json(body)
        assert out["status"] == "ok"
        assert out["clusters"] == ["alpha", "beta"]
        assert out["uptime_s"] >= 0.0
        assert out["version"]
        assert out["tracing"] is True
        assert out["stores"] == {"alpha": None, "beta": None}

    def test_coalesced_followers_record_leader_trace(self, tracing):
        async def main():
            registry = _registry()
            async with PlanGateway(registry) as gateway:
                service = registry.service("alpha")
                from repro.model import get_model
                request = service.request(get_model("gpt-toy"), 8,
                                          options=FAST)
                return await asyncio.gather(
                    *(gateway.plan(request, cluster="alpha")
                      for _ in range(3)))

        answers = asyncio.run(main())
        trace_ids = {a.trace_id for a in answers}
        assert len(trace_ids) == 3  # every caller has its own trace
        statuses = sorted(a.status for a in answers)
        assert statuses.count("coalesced") == 2
        for answer in answers:
            if answer.status != "coalesced":
                continue
            tree = TRACER.trace(answer.trace_id)
            roots = [tree["root"]] + tree.get("orphans", [])
            span = next(s for r in roots
                        for s in [_find(r, "gateway.plan")] if s)
            assert span["attributes"]["coalesced"] is True
            leader = span["attributes"]["leader_trace_id"]
            assert leader in trace_ids and leader != answer.trace_id


class TestAnswerLogs:
    """The three per-answer DEBUG records, and their cost at INFO."""

    #: ``(logger, message)`` -> the ``extra`` fields of its record.
    RECORDS = {
        ("repro.service.http", "request"):
            {"method", "route", "code", "duration_ms"},
        ("repro.service.gateway", "plan answered"):
            {"cluster", "outcome", "elapsed_ms"},
        ("repro.service.planner", "request answered"):
            {"cluster", "status", "elapsed_ms"},
    }

    @staticmethod
    def _miss_then_hit() -> "list[int]":
        async def main():
            async with _Server(_registry()) as server:
                return [(await _request(
                    server.port, "POST", "/v1/plan",
                    {"model": "gpt-toy", "cluster": "alpha",
                     "global_batch": 8}))[0] for _ in range(2)]

        return asyncio.run(main())

    @pytest.fixture
    def repro_records(self, caplog, monkeypatch):
        # ``configure_logging`` stops the ``repro`` tree propagating to
        # the root logger, where caplog listens.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        return caplog

    def test_debug_records_and_fields(self, repro_records):
        repro_records.set_level(logging.DEBUG, logger="repro")
        assert self._miss_then_hit() == [200, 200]
        base = set(vars(logging.makeLogRecord({})))
        seen: dict = {}
        for record in repro_records.records:
            key = (record.name, record.getMessage())
            if key in self.RECORDS:
                assert record.levelno == logging.DEBUG
                seen.setdefault(key, []).append(
                    {name: value for name, value in vars(record).items()
                     if name not in base and name != "message"})
        assert set(seen) == set(self.RECORDS)
        for key, rows in seen.items():
            assert len(rows) == 2, key  # one per answer
            for row in rows:
                assert set(row) == self.RECORDS[key], key
        http, gateway, planner = (seen[key] for key in self.RECORDS)
        assert [(r["method"], r["route"], r["code"]) for r in http] == \
            [("POST", "/v1/plan", 200)] * 2
        assert [r["outcome"] for r in gateway] == ["miss", "hit"]
        assert [r["status"] for r in planner] == ["miss", "hit"]
        for row in gateway + planner:
            assert row["cluster"] == "alpha"
            assert isinstance(row["elapsed_ms"], float)
        assert all(isinstance(r["duration_ms"], float) for r in http)

    def test_info_level_builds_no_debug_record(self, repro_records,
                                               monkeypatch):
        from repro.service import gateway, http, planner

        repro_records.set_level(logging.INFO, logger="repro")
        for module in (http, gateway, planner):
            monkeypatch.setattr(module._log, "debug", lambda *a, **k:
                                pytest.fail("DEBUG record built at INFO"))
        assert self._miss_then_hit() == [200, 200]


class TestReplanTracing:
    def test_replan_spans_and_warm_provenance(self, tracing, tiny_cluster,
                                              tiny_network):
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        from repro.model import get_model
        request = service.request(get_model("gpt-toy"), 8, options=FAST)
        service.replan(request, ClusterEvent.node_failure(1))
        trees = [TRACER.trace(t["trace_id"]) for t in TRACER.traces()]
        replan_tree = next(t for t in trees
                           if t["root"] and t["root"]["name"] == "replan")
        root = replan_tree["root"]
        assert root["attributes"]["event_kind"] == "node_failure"
        assert root["attributes"]["failed_nodes"] == [1]
        names = _tree_names(replan_tree)
        assert {"replan.rerank", "replan.warm_anneal",
                "replan.cold_search"} <= names
        warm = _find(root, "replan.warm_anneal")
        assert warm["attributes"]["flight"]["provenance"] == "warm-start"

    def test_template_answer_carries_flight_recorder(self, tracing,
                                                     tiny_cluster,
                                                     tiny_network):
        from repro.model import get_model
        model = get_model("gpt-toy")
        options = PipetteOptions(
            sa=SAOptions(max_iterations=60, portfolio_k=2), sa_top_k=2,
            seed=5)
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        service.warm_templates(model, 16, options=options)
        service.apply_failure(3)
        TRACER.reset()
        service.plan(service.request(model, 16, options=options))
        trees = [TRACER.trace(t["trace_id"]) for t in TRACER.traces()]
        span = next(hit for hit in (_find(t["root"], "search.template")
                                    for t in trees) if hit is not None)
        attributes = span["attributes"]
        flight = attributes["flight"]
        assert flight["provenance"] == "warm-start"
        assert flight["iterations"] > 0
        assert attributes["exit_reason"] == flight["exit_reason"] \
            == "iteration_budget"


class TestTraceCli:
    def test_trace_subcommand_pretty_prints(self, tracing, tmp_path,
                                            capsys):
        path = tmp_path / "dump.jsonl"
        TRACER.disable()
        TRACER.enable(trace_file=str(path))
        with TRACER.span("http.request", status=200):
            with TRACER.span("gateway.plan", cluster="alpha"):
                TRACER.record_span(
                    "search.candidate", 0.01,
                    flight={"iterations": 64, "provenance": "cold",
                            "exit_reason": "iteration_budget"})
        TRACER.disable()
        assert cli_main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "http.request" in out
        assert "    gateway.plan" in out  # indented under the root
        assert "cluster=alpha" in out
        assert "anneal=64 iters [cold, iteration_budget]" in out

    def test_trace_subcommand_unknown_id(self, tracing, tmp_path):
        path = tmp_path / "dump.jsonl"
        TRACER.disable()
        TRACER.enable(trace_file=str(path))
        with TRACER.span("root"):
            pass
        TRACER.disable()
        assert cli_main(["trace", str(path), "--trace-id", "nope"]) == 2

    def test_serve_parser_accepts_observability_flags(self):
        from repro.service.__main__ import build_parser
        args = build_parser().parse_args(
            ["serve", "--log-level", "debug", "--trace",
             "--trace-dir", "/tmp/traces"])
        assert args.log_level == "debug"
        assert args.trace is True
        assert args.trace_dir == "/tmp/traces"
