"""Fault injection: scripted churn traces through the elastic path.

Each test drives a scripted failure trace — single failure, cascading
failures, a failure landing while requests are in flight, and a
failure below the template library's covered range — through
:class:`~repro.service.gateway.PlanGateway` and the service replanner,
asserting three invariants end to end:

* **fencing** — every answer handed out was searched against the
  epoch that was current when its search ran: post-event requests are
  never answered by pre-event searches (the coalescing key carries the
  bandwidth fingerprint), and requests built for the pre-event cluster
  either answered before the event or are rejected, never answered
  with stale plans;
* **attribution** — ``warm_source`` names the recovery path actually
  taken (``"template"`` on a library hit, mapping surgery otherwise),
  consistently across the report, the ``replan`` trace span, and the
  ``pipette_replans_warm_source`` Prometheus counter;
* **no silent degradation** — template recoveries are equal-or-better
  than the cold search (the generation/cold-search identity contract
  plus best-so-far polish).
"""

import asyncio

import pytest
from conftest import metric_value, parse_prometheus

from repro.core import PipetteOptions, SAOptions
from repro.model import get_model
from repro.obs import TRACER
from repro.service import (
    ClusterEvent,
    ClusterRegistry,
    MetricsRegistry,
    PlanGateway,
    PlanningService,
)

FAST = PipetteOptions(sa=SAOptions(max_iterations=60, portfolio_k=2),
                      sa_top_k=2, seed=5)
GLOBAL_BATCH = 16
NAME = "tiny"


@pytest.fixture
def tracer():
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


@pytest.fixture
def world(tiny_cluster, tiny_network, toy_model):
    """A metrics-attached single-cluster registry plus its service."""
    metrics = MetricsRegistry()
    registry = ClusterRegistry()
    registry.add_cluster(NAME, tiny_cluster, tiny_network.bandwidth)
    registry.attach_metrics(metrics)
    return registry, registry.service(NAME), toy_model, metrics


def _warm(service, model, min_nodes=2):
    return service.warm_templates(model, GLOBAL_BATCH, min_nodes=min_nodes,
                                  options=FAST)


def _span_named(tree: dict, name: str) -> "dict | None":
    """Depth-first search for a span by name in one trace tree."""
    if tree.get("name") == name:
        return tree
    for child in tree.get("children", ()):
        found = _span_named(child, name)
        if found is not None:
            return found
    return None


def _replan_span(warm_source: str) -> dict:
    """The most recent ``replan`` span carrying ``warm_source``."""
    for summary in reversed(TRACER.traces()):
        tree = TRACER.trace(summary["trace_id"])
        root = (tree or {}).get("root")
        if root is None:
            continue
        span = _span_named(root, "replan")
        if span is not None \
                and span["attributes"].get("warm_source") == warm_source:
            return span
    raise AssertionError(f"no replan span with warm_source={warm_source!r}")


def run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    """Poll a condition instead of sleeping a guessed duration."""
    for _ in range(int(timeout_s / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached in time")


class TestSingleFailure:
    def test_template_recovery_reported_end_to_end(self, world, tracer):
        """warm_source="template" on the report, span, and counter."""
        registry, service, model, metrics = world
        _warm(service, model)
        request = service.request(model, GLOBAL_BATCH, options=FAST)
        report = service.replan(request, ClusterEvent.node_failure(3),
                                run_cold=True)

        # Report.
        assert report.warm_source == "template"
        assert report.cluster.n_nodes == 3
        assert report.warm.estimated_latency_s \
            <= report.cold.estimated_latency_s

        # Trace span.
        span = _replan_span("template")
        assert _span_named(span, "replan.template") is not None
        # The template path skips the re-rank search entirely.
        assert _span_named(span, "replan.rerank") is None

        # Prometheus counter.
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "pipette_replans_warm_source",
                            cluster=NAME, source="template") == 1
        assert metric_value(samples, "pipette_template_lookups_total",
                            cluster=NAME, outcome="hit") >= 1
        assert metric_value(samples, "pipette_template_library_size",
                            cluster=NAME) == service.template_library.size

    def test_gateway_post_event_answers_from_survivor_epoch(self, world,
                                                            toy_model):
        """A post-failure plan is a fresh search on the survivors."""
        registry, service, model, metrics = world
        _warm(service, model)

        async def scenario():
            async with PlanGateway(registry) as gateway:
                pre = await gateway.plan(
                    service.request(model, GLOBAL_BATCH, options=FAST))
                epoch_before = service.bandwidth_fp
                await gateway.fail_nodes(NAME, 3)
                assert service.bandwidth_fp != epoch_before
                post = await gateway.plan(
                    service.request(model, GLOBAL_BATCH, options=FAST))
                return pre, post

        pre, post = run(scenario())
        assert pre.status == "miss" and post.status == "miss"
        assert post.result is not pre.result
        n_gpus = post.best.config
        assert n_gpus.pp * n_gpus.tp * n_gpus.dp == 3 * 4
        # The survivor answer came straight from the warmed library.
        assert service.stats["template_lookups"]["hit"] >= 1


class TestCascadingFailures:
    def test_each_stage_recovers_from_its_template(self, world, tracer):
        """4 -> 3 -> 2 nodes, every stage a library hit."""
        registry, service, model, metrics = world
        _warm(service, model)
        for fail_node, survivors in ((3, 3), (2, 2)):
            request = service.request(model, GLOBAL_BATCH, options=FAST)
            report = service.replan(request,
                                    ClusterEvent.node_failure(fail_node),
                                    run_cold=False)
            assert report.warm_source == "template"
            assert report.cluster.n_nodes == survivors
            assert service.cluster.n_nodes == survivors
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "pipette_replans_warm_source",
                            cluster=NAME, source="template") == 2
        assert service.stats["replan_warm_sources"]["template"] == 2

    def test_fingerprint_rolls_at_every_stage(self, world):
        registry, service, model, metrics = world
        _warm(service, model)
        epochs = [service.bandwidth_fp]
        for fail_node in (3, 2, 1):
            request = service.request(model, GLOBAL_BATCH, options=FAST)
            service.replan(request, ClusterEvent.node_failure(fail_node),
                           run_cold=False)
            epochs.append(service.bandwidth_fp)
        assert len(set(epochs)) == len(epochs), \
            "every failure must roll the bandwidth epoch"


class TestFailureDuringReplan:
    def test_event_is_fenced_between_drains(self, world):
        """A failure landing mid-traffic never tears an answer.

        The in-flight request either answered before the event (a
        pre-event plan from the pre-event epoch) or was rejected after
        it (its cluster no longer exists); it is never
        answered with a post-event search presented as pre-event, and
        never with a stale plan after the event.
        """
        registry, service, model, metrics = world
        _warm(service, model)

        async def scenario():
            async with PlanGateway(registry) as gateway:
                pre_request = service.request(model, GLOBAL_BATCH,
                                              options=FAST)
                plan_task = asyncio.ensure_future(gateway.plan(pre_request))
                # Condition wait, not a guessed sleep: the request must
                # actually be enqueued before the event races it.
                await _wait_for(
                    lambda: gateway.stats.read("submitted") == 1)
                retired = await gateway.fail_nodes(NAME, 3)
                try:
                    answer = await plan_task
                except (ValueError, RuntimeError) as exc:
                    answer = exc
                post = await gateway.plan(
                    service.request(model, GLOBAL_BATCH, options=FAST))
                return answer, retired, post

        answer, retired, post = run(scenario())
        if isinstance(answer, Exception):
            # Answered behind the fence: a pre-event request in the
            # post-event world is rejected, never given a stale plan.
            assert "node" in str(answer) or "GPU" in str(answer).lower()
        else:
            # Answered ahead of the fence: a pre-event plan for the
            # pre-event (16-GPU) cluster.
            config = answer.best.config
            assert answer.status == "miss"
            assert config.pp * config.tp * config.dp == 16
        # The post-event request always answers for the survivors.
        config = post.best.config
        assert config.pp * config.tp * config.dp == 12

    def test_second_failure_during_first_recovery_serializes(self, world):
        """Replans hold the service lock: cascades serialize, not race."""
        registry, service, model, metrics = world
        _warm(service, model)
        import threading
        reports = []

        def replan(node):
            request = service.request(model, GLOBAL_BATCH, options=FAST)
            reports.append(service.replan(
                request, ClusterEvent.node_failure(node), run_cold=False))

        first = threading.Thread(target=replan, args=(3,))
        first.start()
        first.join(30.0)
        assert not first.is_alive()
        replan(2)
        assert [r.cluster.n_nodes for r in reports] == [3, 2]
        assert all(r.warm_source == "template" for r in reports)
        assert service.cluster.n_nodes == 2


class TestBelowLibraryRange:
    def test_failure_below_min_nodes_falls_back_warm(self, world, tracer):
        """Below the covered range the replanner degrades gracefully."""
        registry, service, model, metrics = world
        library = _warm(service, model, min_nodes=3)
        assert library.covered_counts == (3, 4)

        # 4 -> 3: covered, recovers from the library.
        request = service.request(model, GLOBAL_BATCH, options=FAST)
        hit = service.replan(request, ClusterEvent.node_failure(3),
                             run_cold=False)
        assert hit.warm_source == "template"

        # 3 -> 2: below min_nodes — a lookup miss, then the mapping
        # surgery path; the answer is still a valid survivor plan.
        request = service.request(model, GLOBAL_BATCH, options=FAST)
        miss = service.replan(request, ClusterEvent.node_failure(2),
                              run_cold=False)
        assert miss.warm_source in ("best", "portfolio", "cold")
        assert miss.cluster.n_nodes == 2
        config = miss.warm.config
        assert config.pp * config.tp * config.dp == 8

        stats = service.stats
        assert stats["template_lookups"]["hit"] >= 1
        assert stats["template_lookups"]["miss"] >= 1
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "pipette_template_lookups_total",
                            cluster=NAME, outcome="miss") >= 1
        span = _replan_span(miss.warm_source)
        assert span["attributes"]["warm_source"] != "template"

    def test_mismatched_batch_misses_the_library(self, world):
        """A library bound to another batch must not answer for this one."""
        registry, service, model, metrics = world
        _warm(service, model)
        request = service.request(model, GLOBAL_BATCH * 2, options=FAST)
        report = service.replan(request, ClusterEvent.node_failure(3),
                                run_cold=False)
        assert report.warm_source != "template"
        assert service.stats["template_lookups"]["miss"] >= 1
