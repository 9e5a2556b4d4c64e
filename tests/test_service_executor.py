"""Parallel candidate evaluation must equal the serial search exactly."""

import multiprocessing

import numpy as np
import pytest

from repro.core import PipetteConfigurator, PipetteOptions, SAOptions
from repro.core.configurator import run_units, score_unit
from repro.obs import TRACER
from repro.service.executor import CandidateExecutor, available_workers


class PickleOracleEstimator:
    """Ground-truth-backed estimator that survives process boundaries."""

    soft_margin = 0.92

    def __init__(self, cluster, seed=5):
        self.cluster = cluster
        self.seed = seed

    def predict_bytes(self, model, config, n_gpus=None):
        from repro.sim.memory_sim import simulated_max_memory_bytes
        return simulated_max_memory_bytes(model, config, self.cluster,
                                          seed=self.seed)


def _configurator(tiny_cluster, toy_model, tiny_network, toy_profile,
                  with_estimator=True, sa_iterations=150):
    estimator = PickleOracleEstimator(tiny_cluster) if with_estimator else None
    return PipetteConfigurator(
        tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
        estimator,
        options=PipetteOptions(
            use_worker_dedication=True,
            sa=SAOptions(max_iterations=sa_iterations), sa_top_k=3, seed=17))


def _ranking_signature(result):
    return [(r.config, r.estimated_latency_s, r.estimated_memory_bytes,
             r.memory_ok, r.mapping.block_to_slot.tolist())
            for r in result.ranked]


def _double_unit(ctx, item):
    return ctx.factor * item


class _CountingContext:
    """A context that counts how often it is pickled in this process."""

    pickles = 0

    def __init__(self, factor):
        self.factor = factor

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


class TestRunUnits:
    def test_empty_items_short_circuit(self, tiny_cluster, toy_model,
                                       tiny_network, toy_profile):
        conf = _configurator(tiny_cluster, toy_model, tiny_network,
                             toy_profile)
        assert run_units(score_unit, conf.context(), [], None) == []
        with CandidateExecutor(max_workers=2) as executor:
            assert run_units(score_unit, conf.context(), [], executor) == []
        assert executor.stats.batches == 0

    def test_pool_sends_the_context_once_per_worker(self):
        _CountingContext.pickles = 0
        ctx = _CountingContext(3)
        items = list(range(7))
        with CandidateExecutor(max_workers=2) as executor:
            out = run_units(_double_unit, ctx, items, executor)
        assert out == run_units(_double_unit, ctx, items) \
            == [3 * i for i in items]
        # ceil(7 / 2) = 4 items per chunk: two chunks, two pickles.
        assert _CountingContext.pickles == 2
        assert executor.stats.batches == 1
        assert executor.stats.tasks == len(items)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_pool_identical(self, tiny_cluster, toy_model,
                                    tiny_network, toy_profile, workers):
        serial = _configurator(tiny_cluster, toy_model, tiny_network,
                               toy_profile).search(32)
        with CandidateExecutor(max_workers=workers) as ex:
            parallel = _configurator(tiny_cluster, toy_model, tiny_network,
                                     toy_profile).search(32, executor=ex)
        assert _ranking_signature(parallel) == _ranking_signature(serial)
        assert parallel.rejected_oom == serial.rejected_oom
        assert parallel.best.config == serial.best.config

    def test_no_estimator_path(self, tiny_cluster, toy_model, tiny_network,
                               toy_profile):
        serial = _configurator(tiny_cluster, toy_model, tiny_network,
                               toy_profile, with_estimator=False).search(32)
        with CandidateExecutor(max_workers=2) as ex:
            parallel = _configurator(
                tiny_cluster, toy_model, tiny_network, toy_profile,
                with_estimator=False).search(32, executor=ex)
        assert _ranking_signature(parallel) == _ranking_signature(serial)

    def test_traced_search_records_the_same_candidate_spans(
            self, tiny_cluster, toy_model, tiny_network, toy_profile):
        def candidate_spans(executor):
            TRACER.enable()
            try:
                with TRACER.span("test.search") as root:
                    _configurator(tiny_cluster, toy_model, tiny_network,
                                  toy_profile, sa_iterations=60).search(
                                      32, executor=executor)
                tree = TRACER.trace(root.trace_id)
            finally:
                TRACER.disable()
                TRACER.reset()
            spans = []

            def walk(node):
                if node["name"] == "search.candidate":
                    spans.append({key: node["attributes"][key] for key in
                                  ("config", "anneal_iterations",
                                   "exit_reason", "flight")})
                for child in node["children"]:
                    walk(child)

            walk(tree["root"])
            # Siblings are ordered by back-dated start time, which
            # follows each anneal's wall-clock; compare by config.
            return sorted(spans, key=lambda span: span["config"])

        serial = candidate_spans(None)
        with CandidateExecutor(max_workers=2) as ex:
            pooled = candidate_spans(ex)
        assert len(serial) == 3
        assert all(span["flight"] is not None for span in serial)
        assert pooled == serial


class TestRankingDeterminism:
    def test_tie_break_orders_equal_latencies(self, tiny_cluster, toy_model,
                                              tiny_network, toy_profile):
        conf = _configurator(tiny_cluster, toy_model, tiny_network,
                             toy_profile, with_estimator=False)
        result = conf.search(32)
        keys = [r.sort_key for r in result.ranked]
        assert keys == sorted(keys)
        # Keys are strictly increasing: no two entries compare equal,
        # so the ranking admits exactly one order.
        assert len(set(keys)) == len(keys)


class TestExecutorConstruction:
    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            CandidateExecutor(max_workers=0)

    def test_default_width_is_the_usable_cpu_count(self):
        with CandidateExecutor() as ex:
            assert ex.n_workers == available_workers() >= 1

    def test_close_idempotent(self):
        before = set(multiprocessing.active_children())
        ex = CandidateExecutor(max_workers=1)
        # Building the executor starts no worker; the first map does.
        assert set(multiprocessing.active_children()) == before
        assert ex.map(len, [(1, 2)]) == [2]
        ex.close()
        ex.close()
