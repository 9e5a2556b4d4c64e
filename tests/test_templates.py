"""Elastic template library: generation, identity, lookup, persistence.

The load-bearing contract is *cold-search identity*: per node count,
template generation runs the same enumeration, ranking key, and
per-rank annealing seeds as
:meth:`repro.core.configurator.PipetteConfigurator.search`, so the
library's best template reproduces the cold search's best bit for bit.
Everything elastic (the >= 10x failover speedup at equal-or-better
latency) rests on that identity, so it is asserted exactly — float
equality, permutation equality — not approximately.
"""

import json
import threading

import pytest

import repro.core.configurator as configurator_module
from repro.core import (
    MemoryEstimator,
    PipetteConfigurator,
    PipetteOptions,
    SAOptions,
    build_memory_dataset,
)
from repro.core.templates import (
    DEFAULT_TEMPLATES_PER_COUNT,
    TEMPLATE_LIBRARY_VERSION,
    PipelineTemplate,
    PipelineTemplateGenerator,
    TemplateLibrary,
    stage_layer_split,
)
from repro.model.memory import stage_layer_count
from repro.parallel import ParallelConfig
from repro.service import CandidateExecutor, ClusterEvent, PlanningService
from repro.service.replan import template_fits
from repro.service.store import PlanStoreError, TemplateStore
from repro.service.warmer import TemplateWarmer
from repro.units import GIB

FAST = PipetteOptions(sa=SAOptions(max_iterations=60, portfolio_k=2),
                      sa_top_k=2, seed=5)
GLOBAL_BATCH = 16


@pytest.fixture
def generator(toy_model, tiny_cluster, tiny_network, toy_profile):
    return PipelineTemplateGenerator(toy_model, tiny_cluster,
                                     tiny_network.bandwidth, toy_profile,
                                     options=FAST)


@pytest.fixture
def library(generator):
    return generator.generate(GLOBAL_BATCH)


def _template(n_nodes=2, pp=2, tp=2, dp=2, micro_batch=2, schedule="1f1b",
              latency=1.0, memory=None) -> PipelineTemplate:
    """A hand-built template for lookup/serialization tests."""
    config = ParallelConfig(pp=pp, tp=tp, dp=dp, micro_batch=micro_batch,
                            global_batch=GLOBAL_BATCH, schedule=schedule)
    n_blocks = pp * dp
    return PipelineTemplate(
        n_nodes=n_nodes, config=config,
        stage_layers=stage_layer_split(4, pp),
        block_to_slot=tuple(range(n_blocks)),
        estimated_latency_s=latency, estimated_memory_bytes=memory,
        memory_ok=True,
        portfolio=(tuple(reversed(range(n_blocks))),))


def _library_with(templates, n_nodes=2) -> TemplateLibrary:
    return TemplateLibrary(model_name="gpt-toy", cluster_name="tiny",
                           gpus_per_node=4, global_batch=GLOBAL_BATCH,
                           min_nodes=n_nodes, max_nodes=n_nodes,
                           templates={n_nodes: tuple(templates)})


class TestStageLayerSplit:
    def test_sums_to_layer_count(self):
        for n_layers, pp in ((4, 1), (4, 2), (4, 4), (7, 3), (13, 5)):
            split = stage_layer_split(n_layers, pp)
            assert len(split) == pp
            assert sum(split) == n_layers

    def test_matches_per_stage_helper(self):
        split = stage_layer_split(7, 3)
        assert split == tuple(stage_layer_count(7, 3, s) for s in range(3))
        # First n_layers % pp stages carry the extra layer.
        assert split == (3, 2, 2)


class TestGeneration:
    def test_covers_or_explains_every_count(self, library, tiny_cluster):
        for n_nodes in range(library.min_nodes, library.max_nodes + 1):
            covered = n_nodes in library.covered_counts
            explained = library.infeasible_reason(n_nodes) is not None
            assert covered != explained, \
                f"n={n_nodes} must be covered XOR explained"
        assert library.max_nodes == tiny_cluster.n_nodes

    def test_templates_are_ranked_and_well_formed(self, library,
                                                  tiny_cluster, toy_model):
        assert library.size > 0
        for n_nodes in library.covered_counts:
            entries = library.templates_for(n_nodes)
            assert len(entries) <= DEFAULT_TEMPLATES_PER_COUNT
            latencies = [t.estimated_latency_s for t in entries]
            assert latencies == sorted(latencies)
            assert len({t.key for t in entries}) == len(entries)
            for template in entries:
                config = template.config
                assert config.pp * config.tp * config.dp \
                    == n_nodes * tiny_cluster.gpus_per_node
                assert sum(template.stage_layers) == toy_model.n_layers
                assert len(template.stage_layers) == config.pp
                assert sorted(template.block_to_slot) \
                    == list(range(config.pp * config.dp))
                assert template.memory_ok

    def test_process_pool_generates_the_serial_library(self, generator,
                                                       library):
        with CandidateExecutor(max_workers=2) as executor:
            pooled = generator.generate(GLOBAL_BATCH, executor=executor)
        assert executor.stats.batches >= 1
        assert pooled.to_json() == library.to_json()

    def test_full_size_template_matches_cold_search(
            self, generator, library, tiny_cluster, toy_model,
            tiny_network, toy_profile):
        """The identity contract at the cluster's own node count."""
        cold = PipetteConfigurator(
            tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
            None, options=FAST).search(GLOBAL_BATCH)
        best = library.templates_for(tiny_cluster.n_nodes)[0]
        assert best.config == cold.best.config
        assert best.estimated_latency_s == cold.best.estimated_latency_s
        assert best.block_to_slot == tuple(cold.best.mapping.block_to_slot)

    def test_scaled_count_template_matches_cold_search(
            self, generator, library, tiny_cluster, toy_model,
            tiny_network, toy_profile):
        """Identity also holds for scaled-down counts (prefix restrict)."""
        sub = tiny_cluster.scaled_to(3)
        sub_bw = tiny_network.bandwidth.restrict(range(sub.n_gpus))
        cold = PipetteConfigurator(sub, toy_model, sub_bw, toy_profile,
                                   None, options=FAST).search(GLOBAL_BATCH)
        best = library.templates_for(3)[0]
        assert best.config == cold.best.config
        assert best.estimated_latency_s == cold.best.estimated_latency_s
        assert best.block_to_slot == tuple(cold.best.mapping.block_to_slot)

    def test_instantiate_requires_matching_node_count(self, library,
                                                      tiny_cluster):
        template = library.templates_for(2)[0]
        with pytest.raises(ValueError, match="2 nodes"):
            template.instantiate(tiny_cluster)  # 4-node cluster
        ranked = template.instantiate(tiny_cluster.scaled_to(2))
        assert ranked.config == template.config
        assert tuple(ranked.mapping.block_to_slot) == template.block_to_slot
        assert len(ranked.portfolio) == len(template.portfolio)

    def test_rejects_mismatched_bandwidth(self, toy_model, tiny_cluster,
                                          tiny_network, toy_profile):
        sub_bw = tiny_network.bandwidth.restrict(range(4))
        with pytest.raises(ValueError, match="bandwidth matrix"):
            PipelineTemplateGenerator(toy_model, tiny_cluster, sub_bw,
                                      toy_profile)

    def test_rejects_bad_node_range(self, generator):
        with pytest.raises(ValueError, match="node range"):
            generator.generate(GLOBAL_BATCH, min_nodes=2, max_nodes=9)
        with pytest.raises(ValueError, match="node range"):
            generator.generate(GLOBAL_BATCH, min_nodes=0)
        with pytest.raises(ValueError, match="templates_per_count"):
            generator.generate(GLOBAL_BATCH, templates_per_count=0)


class TestMemoryFeasibility:
    @pytest.fixture(scope="class")
    def estimator(self):
        from repro.cluster.topology import (
            ClusterSpec,
            GpuSpec,
            LinkSpec,
            NodeSpec,
        )
        from repro.model import get_model
        gpu = GpuSpec(name="TestGPU", memory_bytes=4 * GIB,
                      peak_flops=10e12, achievable_fraction=0.5,
                      hbm_gb_s=500.0)
        node = NodeSpec(gpus_per_node=4, gpu=gpu,
                        intra_link=LinkSpec("TestNVLink", 100.0,
                                            alpha_s=1e-6))
        cluster = ClusterSpec(name="tiny", n_nodes=4, node=node,
                              inter_link=LinkSpec("TestIB", 10.0,
                                                  alpha_s=1e-5))
        dataset = build_memory_dataset(
            cluster, [get_model("gpt-toy")], global_batches=[8, 16],
            node_counts=[1, 2], seed=0)
        est = MemoryEstimator(hidden_size=32, n_hidden_layers=2, seed=0)
        est.fit(dataset, iterations=1500)
        return est

    def test_templates_respect_memory_limit(self, toy_model, tiny_cluster,
                                            tiny_network, toy_profile,
                                            estimator):
        gen = PipelineTemplateGenerator(toy_model, tiny_cluster,
                                        tiny_network.bandwidth, toy_profile,
                                        memory_estimator=estimator,
                                        options=FAST)
        library = gen.generate(GLOBAL_BATCH)
        assert library.size > 0
        for n_nodes in library.covered_counts:
            limit = tiny_cluster.gpu_memory_bytes
            for template in library.templates_for(n_nodes):
                assert template.estimated_memory_bytes is not None
                assert template.estimated_memory_bytes <= limit

    def test_impossible_limit_records_reason_not_plans(
            self, toy_model, tiny_cluster, tiny_network, toy_profile,
            estimator):
        """No best-effort fallback: failover must never pick an OOM."""
        gen = PipelineTemplateGenerator(toy_model, tiny_cluster,
                                        tiny_network.bandwidth, toy_profile,
                                        memory_estimator=estimator,
                                        options=FAST)
        library = gen.generate(GLOBAL_BATCH, memory_limit_bytes=1.0)
        assert library.size == 0
        for n_nodes in range(library.min_nodes, library.max_nodes + 1):
            reason = library.infeasible_reason(n_nodes)
            assert reason is not None and "memory limit" in reason


    def test_impossible_limit_runs_no_anneal(
            self, toy_model, tiny_cluster, tiny_network, toy_profile,
            estimator, monkeypatch):
        """An infeasible node count anneals nothing, not even best-effort."""
        anneals = []
        real = configurator_module.anneal_mapping

        def counted(*args, **kwargs):
            anneals.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(configurator_module, "anneal_mapping", counted)
        gen = PipelineTemplateGenerator(toy_model, tiny_cluster,
                                        tiny_network.bandwidth, toy_profile,
                                        memory_estimator=estimator,
                                        options=FAST)
        assert gen.generate(GLOBAL_BATCH, memory_limit_bytes=1.0).size == 0
        assert anneals == []
        # The counter does see the generator's anneals when a count is
        # feasible: FAST refines sa_top_k=2 leaders.
        gen.generate(GLOBAL_BATCH, min_nodes=4)
        assert len(anneals) == FAST.sa_top_k


class TestLookup:
    def test_honors_restrictions(self):
        cheap = _template(micro_batch=2, schedule="1f1b", latency=1.0,
                          memory=2.0 * GIB)
        other = _template(micro_batch=4, schedule="gpipe", latency=2.0,
                          memory=1.0 * GIB)
        library = _library_with([cheap, other])
        assert library.lookup(2) is cheap
        assert library.lookup(2, micro_batches=[4]) is other
        assert library.lookup(2, schedules=("gpipe",)) is other
        assert library.lookup(2, memory_limit_bytes=1.5 * GIB) is other
        assert library.lookup(2, micro_batches=[8]) is None
        assert library.lookup(3) is None

    def test_matches_binds_model_and_batch(self):
        library = _library_with([_template()])
        assert library.matches("gpt-toy", GLOBAL_BATCH)
        assert not library.matches("gpt-toy", GLOBAL_BATCH * 2)
        assert not library.matches("gpt-1.1b", GLOBAL_BATCH)


class TestSerialization:
    def test_payload_round_trip_is_lossless(self, library):
        clone = TemplateLibrary.from_payload(library.to_payload())
        assert clone == library

    def test_json_round_trip_is_byte_identical(self, library):
        text = library.to_json()
        assert TemplateLibrary.from_json(text).to_json() == text
        # Canonical form: serialization is a pure function of content.
        assert json.loads(text)["version"] == TEMPLATE_LIBRARY_VERSION

    def test_refuses_unknown_versions(self, library):
        payload = library.to_payload()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            TemplateLibrary.from_payload(payload)
        payload.pop("version")
        with pytest.raises(ValueError, match="version None"):
            TemplateLibrary.from_payload(payload)


class TestStore:
    def test_save_load_round_trip(self, library, tmp_path):
        store = TemplateStore(tmp_path / "lib.templates.json")
        assert not store.exists()
        assert store.load() is None
        store.save(library)
        assert store.exists()
        assert store.load() == library
        # Atomic save leaves no temp droppings.
        assert [p.name for p in tmp_path.iterdir()] \
            == ["lib.templates.json"]

    def test_corrupt_file_raises_store_error(self, tmp_path):
        path = tmp_path / "lib.templates.json"
        path.write_text("{not json")
        with pytest.raises(PlanStoreError, match="unreadable"):
            TemplateStore(path).load()

    def test_wrong_version_raises_store_error(self, library, tmp_path):
        path = tmp_path / "lib.templates.json"
        payload = library.to_payload()
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(PlanStoreError, match="unreadable"):
            TemplateStore(path).load()


class TestWarmer:
    def test_warm_installs_and_persists(self, toy_model, tiny_cluster,
                                        tiny_network, tmp_path):
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        store = TemplateStore(tmp_path / "tiny.templates.json")
        warmer = TemplateWarmer(service, store=store)
        library = warmer.warm(toy_model, GLOBAL_BATCH, options=FAST,
                              max_nodes=2)
        assert service.template_library is library
        assert store.load() == library

    def test_rehydrate_restores_persisted_library(
            self, toy_model, tiny_cluster, tiny_network, tmp_path):
        store = TemplateStore(tmp_path / "tiny.templates.json")
        first = PlanningService(tiny_cluster, tiny_network.bandwidth)
        TemplateWarmer(first, store=store).warm(toy_model, GLOBAL_BATCH,
                                                options=FAST, max_nodes=2)
        reborn = PlanningService(tiny_cluster, tiny_network.bandwidth)
        warmer = TemplateWarmer(reborn, store=store)
        assert reborn.template_library is None
        library = warmer.rehydrate()
        assert library is not None
        assert reborn.template_library == library

    def test_background_start_and_wait(self, toy_model, tiny_cluster,
                                       tiny_network):
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        warmer = TemplateWarmer(service)
        warmer.start(toy_model, GLOBAL_BATCH, options=FAST, max_nodes=2)
        library = warmer.wait(timeout=60.0)
        assert library is not None and library.size > 0
        assert not warmer.running
        assert service.template_library is library

    def test_refuses_concurrent_generations(self):
        release = threading.Event()
        started = threading.Event()

        class SlowService:
            def warm_templates(self, model, global_batch, **kwargs):
                started.set()
                release.wait(10.0)
                return _library_with([_template()])

            def set_template_library(self, library):
                pass

        warmer = TemplateWarmer(SlowService())
        warmer.start(None, GLOBAL_BATCH)
        try:
            assert started.wait(5.0)
            assert warmer.running
            with pytest.raises(RuntimeError, match="already running"):
                warmer.start(None, GLOBAL_BATCH)
        finally:
            release.set()
        assert warmer.wait(timeout=10.0) is not None

    def test_wait_reraises_background_failure(self):
        class FailingService:
            def warm_templates(self, model, global_batch, **kwargs):
                raise ValueError("boom")

            def set_template_library(self, library):
                pass

        warmer = TemplateWarmer(FailingService())
        warmer.start(None, GLOBAL_BATCH)
        with pytest.raises(ValueError, match="boom"):
            warmer.wait(timeout=10.0)


class TestServicePath:
    def test_template_fits_gates_shape(self, library, tiny_cluster):
        template = library.templates_for(2)[0]
        survivors = tiny_cluster.scaled_to(2)
        assert template_fits(template, survivors, GLOBAL_BATCH)
        assert not template_fits(template, survivors, GLOBAL_BATCH * 2)
        assert not template_fits(template, tiny_cluster.scaled_to(3),
                                 GLOBAL_BATCH)

    def test_set_library_rejects_wrong_node_family(self, library,
                                                   tiny_cluster,
                                                   tiny_network):
        from dataclasses import replace
        wrong = replace(library, gpus_per_node=library.gpus_per_node * 2)
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        with pytest.raises(ValueError, match="GPUs/node"):
            service.set_template_library(wrong)

    def test_plan_answers_from_template_library(self, toy_model,
                                                tiny_cluster, tiny_network):
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        service.warm_templates(toy_model, GLOBAL_BATCH, options=FAST)
        request = service.request(toy_model, GLOBAL_BATCH, options=FAST)
        response = service.plan(request)
        assert response.status == "miss"
        stats = service.stats
        assert stats["template_lookups"]["hit"] == 1
        assert stats["template_library_size"] == service.template_library.size
        # The answer is the library's leader for the full node count
        # (possibly polished to an even better placement).
        leader = service.template_library.lookup(tiny_cluster.n_nodes)
        assert response.best.config == leader.config
        assert response.best.estimated_latency_s \
            <= leader.estimated_latency_s

    def test_pptl_requests_skip_the_library(self, toy_model, tiny_cluster,
                                            tiny_network):
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        service.warm_templates(toy_model, GLOBAL_BATCH, options=FAST)
        pptl = PipetteOptions(use_worker_dedication=False, seed=5)
        service.plan(service.request(toy_model, GLOBAL_BATCH, options=pptl))
        assert service.stats["template_lookups"] == {"hit": 0, "miss": 0}

    def test_replan_recovers_from_template(self, toy_model, tiny_cluster,
                                           tiny_network):
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        service.warm_templates(toy_model, GLOBAL_BATCH, options=FAST)
        request = service.request(toy_model, GLOBAL_BATCH, options=FAST)
        report = service.replan(request, ClusterEvent.node_failure(3),
                                run_cold=True)
        assert report.warm_source == "template"
        assert report.cluster.n_nodes == tiny_cluster.n_nodes - 1
        # Identity contract + best-so-far polish: never worse than cold.
        assert report.warm.estimated_latency_s \
            <= report.cold.estimated_latency_s
        assert service.stats["replan_warm_sources"]["template"] == 1

    def test_rejected_failure_counts_nothing(self, toy_model, tiny_cluster,
                                             tiny_network):
        """An out-of-range node is refused before the library is asked."""
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        service.warm_templates(toy_model, GLOBAL_BATCH, options=FAST)
        request = service.request(toy_model, GLOBAL_BATCH, options=FAST)
        service.plan(request)
        before = service.stats
        epoch = service.bandwidth_fp
        with pytest.raises(ValueError, match="outside the cluster"):
            service.replan(request, ClusterEvent.node_failure(7),
                           run_cold=False)
        after = service.stats
        assert after["template_lookups"] == before["template_lookups"] \
            == {"hit": 1, "miss": 0}
        assert after["cache_entries"] == before["cache_entries"] == 1
        assert after["requests_submitted"] == before["requests_submitted"]
        assert service.bandwidth_fp == epoch
        assert service.cluster == tiny_cluster

    def test_replan_without_library_stays_warm(self, toy_model,
                                               tiny_cluster, tiny_network):
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        request = service.request(toy_model, GLOBAL_BATCH, options=FAST)
        report = service.replan(request, ClusterEvent.node_failure(3),
                                run_cold=False)
        assert report.warm_source in ("best", "portfolio", "cold")
        assert service.stats["template_lookups"] == {"hit": 0, "miss": 0}
