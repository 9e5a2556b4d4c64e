"""The metrics module and its stats-agreement contract.

Two layers under test: the Prometheus primitives themselves (names,
labels, escaping, histogram buckets, exposition format), and the
regression contract of satellite issue 4 — after a mixed
hit/miss/coalesce/reject workload, ``GET /metrics`` and the
in-process ``GatewayStats``/``CacheStats`` objects must report the
same numbers.
"""

import asyncio
import threading

import pytest
from conftest import metric_value, parse_prometheus

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions
from repro.service import (
    ClusterRegistry,
    ClusterEvent,
    GatewayOverloadedError,
    MetricsError,
    MetricsRegistry,
    PlanGateway,
)
from repro.units import GIB

FAST = PipetteOptions(use_worker_dedication=False)


class TestCounter:
    def test_inc_and_render(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("jobs_total", "Jobs processed.")
        counter.inc()
        counter.inc(2)
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "jobs_total") == 3

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total", "c")
        with pytest.raises(MetricsError, match="only go up"):
            counter.inc(-1)

    def test_labels_make_distinct_series(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("reqs_total", "r", ("cluster",))
        counter.labels(cluster="a").inc()
        counter.labels(cluster="b").inc(5)
        counter.labels(cluster="a").inc()
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "reqs_total", cluster="a") == 2
        assert metric_value(samples, "reqs_total", cluster="b") == 5

    def test_wrong_label_set_rejected(self):
        counter = MetricsRegistry().counter("r_total", "r", ("cluster",))
        with pytest.raises(MetricsError, match="takes labels"):
            counter.labels(nope="x")
        with pytest.raises(MetricsError, match="select a series"):
            counter.inc()

    def test_label_names_checked_on_every_call(self):
        """A repeat call finds its series fast, but never skips the
        label-name check."""
        counter = MetricsRegistry().counter("r_total", "r",
                                            ("cluster", "code"))
        child = counter.labels(cluster="a", code="200")
        assert counter.labels(cluster="a", code="200") is child
        assert counter.labels(code="200", cluster="a") is child
        for bad in ({"cluster": "a"}, {"nope": "a", "code": "200"},
                    {"cluster": "a", "code": "200", "extra": "x"}, {}):
            for _ in range(3):
                with pytest.raises(MetricsError, match="takes labels"):
                    counter.labels(**bad)

    def test_label_values_key_by_their_text(self):
        """Values are series by ``str()``: ``1`` and ``"1"`` share one,
        ``True`` (equal to ``1`` as a key) keeps its own."""
        metrics = MetricsRegistry()
        counter = metrics.counter("c_total", "c", ("code",))
        for value in ("1", 1, True, 1, "1", True, ["x"], ["x"]):
            counter.labels(code=value).inc()
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "c_total", code="1") == 4
        assert metric_value(samples, "c_total", code="True") == 2
        assert metric_value(samples, "c_total", code="['x']") == 2

    def test_pull_bound_counter_reads_source_at_scrape(self):
        metrics = MetricsRegistry()
        source = {"n": 0}
        metrics.counter("live_total", "l").bind(lambda: source["n"])
        source["n"] = 7
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "live_total") == 7
        source["n"] = 9
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "live_total") == 9

    def test_double_bind_rejected(self):
        counter = MetricsRegistry().counter("b_total", "b")
        counter.bind(lambda: 1)
        with pytest.raises(MetricsError, match="already bound"):
            counter.bind(lambda: 2)


class TestGauge:
    def test_set_inc_dec(self):
        metrics = MetricsRegistry()
        gauge = metrics.gauge("depth", "d")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "depth") == 3

    def test_set_function_is_live(self):
        metrics = MetricsRegistry()
        box = []
        metrics.gauge("len", "l").set_function(lambda: len(box))
        box.extend([1, 2])
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "len") == 2


class TestHistogram:
    def test_buckets_are_cumulative_with_inf(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("lat_seconds", "l", buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 2.0):
            hist.observe(value)
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "lat_seconds_bucket", le="0.1") == 2
        assert metric_value(samples, "lat_seconds_bucket", le="1") == 3
        assert metric_value(samples, "lat_seconds_bucket", le="+Inf") == 4
        assert metric_value(samples, "lat_seconds_count") == 4
        assert metric_value(samples, "lat_seconds_sum") == \
            pytest.approx(2.6)

    def test_boundary_lands_in_its_bucket(self):
        # Prometheus buckets are `le` (less-or-equal): an observation
        # exactly on a bound belongs to that bound's bucket.
        metrics = MetricsRegistry()
        hist = metrics.histogram("h_seconds", "h", buckets=(1.0, 2.0))
        hist.observe(1.0)
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "h_seconds_bucket", le="1") == 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricsError, match="ascending"):
            MetricsRegistry().histogram("h", "h", buckets=(2.0, 1.0))

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(MetricsError, match="ascending"):
            MetricsRegistry().histogram("h", "h", buckets=(1.0, 1.0, 2.0))

    def test_rendered_buckets_are_monotone(self):
        # The exposition contract: per series, _bucket counts are
        # nondecreasing in `le` and the +Inf bucket equals _count.
        metrics = MetricsRegistry()
        hist = metrics.histogram("m_seconds", "m", ("cluster",),
                                 buckets=(0.01, 0.1, 1.0, 10.0))
        for cluster, values in (("a", (0.005, 0.05, 0.05, 5.0, 50.0)),
                                ("b", (0.5,))):
            child = hist.labels(cluster=cluster)
            for value in values:
                child.observe(value)
        samples = parse_prometheus(metrics.render())
        for cluster, n in (("a", 5), ("b", 1)):
            counts = [metric_value(samples, "m_seconds_bucket",
                                   cluster=cluster, le=le)
                      for le in ("0.01", "0.1", "1", "10", "+Inf")]
            assert counts == sorted(counts), counts
            assert counts[-1] == n
            assert metric_value(samples, "m_seconds_count",
                                cluster=cluster) == n


class TestLabelEscaping:
    def test_quotes_backslashes_newlines_in_label_values(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("esc_total", "e", ("path",))
        counter.labels(path='say "hi"\\twice\nplease').inc(3)
        text = metrics.render()
        line = next(l for l in text.splitlines()
                    if l.startswith("esc_total{"))
        # Exposition rules: backslash first, then quote, then newline —
        # and the raw control characters must never reach the wire.
        assert '\\"hi\\"' in line
        assert "\\\\twice" in line
        assert "\\nplease" in line
        assert "\n" not in line
        assert line.endswith(" 3")

    def test_escaped_values_stay_distinct_series(self):
        # "a\"b" and the literal three characters a"b collide only if
        # escaping is applied at render time, not at key time.
        metrics = MetricsRegistry()
        counter = metrics.counter("dis_total", "d", ("k",))
        counter.labels(k='a"b').inc()
        counter.labels(k="a\\\"b").inc(2)
        lines = [l for l in metrics.render().splitlines()
                 if l.startswith("dis_total{")]
        assert len(lines) == 2
        assert sorted(int(l.rsplit(" ", 1)[1]) for l in lines) == [1, 2]

    def test_help_text_newlines_escaped(self):
        metrics = MetricsRegistry()
        metrics.counter("doc_total", "line one\nline two \\ done")
        help_line = next(l for l in metrics.render().splitlines()
                         if l.startswith("# HELP doc_total"))
        assert help_line == \
            "# HELP doc_total line one\\nline two \\\\ done"


class TestRegistry:
    def test_same_name_same_shape_returns_existing_family(self):
        metrics = MetricsRegistry()
        first = metrics.counter("shared_total", "s", ("cluster",))
        second = metrics.counter("shared_total", "s", ("cluster",))
        assert first is second

    def test_conflicting_registration_rejected(self):
        metrics = MetricsRegistry()
        metrics.counter("thing", "t", ("a",))
        with pytest.raises(MetricsError, match="already registered"):
            metrics.gauge("thing", "t", ("a",))
        with pytest.raises(MetricsError, match="already registered"):
            metrics.counter("thing", "t", ("b",))

    def test_invalid_names_rejected(self):
        metrics = MetricsRegistry()
        with pytest.raises(MetricsError, match="invalid metric name"):
            metrics.counter("2bad", "b")
        with pytest.raises(MetricsError, match="invalid label name"):
            metrics.counter("ok_total", "b", ("bad-label",))

    def test_label_values_escaped_in_render(self):
        metrics = MetricsRegistry()
        metrics.counter("esc_total", "e", ("path",)).labels(
            path='a"b\\c\nd').inc()
        text = metrics.render()
        assert 'path="a\\"b\\\\c\\nd"' in text
        samples = parse_prometheus(text)
        assert metric_value(samples, "esc_total", path='a"b\\c\nd') == 1

    def test_help_lines_precede_samples(self):
        metrics = MetricsRegistry()
        metrics.counter("one_total", "first metric").inc()
        metrics.gauge("two", "second metric").set(1)
        lines = metrics.render().splitlines()
        assert lines[0] == "# HELP one_total first metric"
        assert lines[1] == "# TYPE one_total counter"
        assert lines[2] == "one_total 1"
        assert "# TYPE two gauge" in lines

    def test_concurrent_increments_do_not_lose_counts(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("race_total", "r", ("who",))

        def hammer(who):
            child = counter.labels(who=who)
            for _ in range(2000):
                child.inc()

        threads = [threading.Thread(target=hammer, args=(who,))
                   for who in ("a", "b", "a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "race_total", who="a") == 4000
        assert metric_value(samples, "race_total", who="b") == 4000


# ---------------------------------------------------------------- gateway


def _cluster(name: str, n_nodes: int = 2) -> ClusterSpec:
    gpu = GpuSpec(name=f"{name}-GPU", memory_bytes=4 * GIB,
                  peak_flops=10e12, achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("NVL", 100.0, alpha_s=1e-6))
    return ClusterSpec(name=name, n_nodes=n_nodes, node=node,
                       inter_link=LinkSpec("IB", 10.0, alpha_s=1e-5))


def _registry() -> ClusterRegistry:
    registry = ClusterRegistry()
    for name, seed in (("alpha", 1), ("beta", 2)):
        cluster = _cluster(name)
        fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(),
                        seed=seed)
        bandwidth = NetworkProfiler(n_rounds=2).profile(
            fabric, seed=seed).bandwidth
        registry.add_cluster(name, cluster, bandwidth)
    return registry


class TestStatsAgreement:
    """Satellite 4: /metrics and the stats objects must agree."""

    def test_mixed_workload_consistency(self, monkeypatch, toy_model):
        registry = _registry()
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        service = registry.service("alpha")

        started = threading.Event()
        release = threading.Event()
        real_search = service._search

        def gated_search(request):
            started.set()
            assert release.wait(timeout=10), "test forgot to release"
            return real_search(request)

        first = service.request(toy_model, 16, options=FAST)
        blocked = service.request(toy_model, 48, options=FAST)
        shared = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry, metrics=metrics,
                                   max_queue_depth=1,
                                   overflow="reject") as gateway:
                # miss, then hit.
                await gateway.plan(first)
                await gateway.plan(first)
                # one miss + two coalesced followers.
                await asyncio.gather(*(gateway.plan(shared)
                                       for _ in range(3)))
                # a reject: gate the search so the lane slot stays
                # held while a second distinct request arrives.
                monkeypatch.setattr(service, "_search", gated_search)
                leader = asyncio.ensure_future(gateway.plan(blocked))
                while not started.is_set():
                    await asyncio.sleep(0.01)
                with pytest.raises(GatewayOverloadedError):
                    await gateway.plan(
                        service.request(toy_model, 64, options=FAST))
                release.set()
                await leader
                return gateway.stats

        stats = asyncio.run(main())
        samples = parse_prometheus(metrics.render())

        def req(outcome, cluster="alpha"):
            return metric_value(samples, "pipette_requests_total",
                                cluster=cluster, outcome=outcome)

        # Pull-bound gateway counters ARE the stats fields.
        for field in ("submitted", "coalesced", "rejected", "batches",
                      "answered"):
            assert metric_value(
                samples, f"pipette_gateway_{field}_total") == \
                getattr(stats, field), field
        # Event-driven outcome counters partition the same totals.
        assert req("miss") + req("hit") + req("error") == stats.submitted
        assert req("coalesced") == stats.coalesced == 2
        assert req("rejected") == stats.rejected == 1
        assert req("miss") == 3
        assert req("hit") == 1
        # Cache counters mirror the service's CacheStats exactly.
        cache = service.cache.stats
        assert metric_value(samples, "pipette_cache_hits_total",
                            cluster="alpha") == cache.hits
        assert metric_value(samples, "pipette_cache_misses_total",
                            cluster="alpha") == cache.misses
        # Latency histogram observed every answered/coalesced return,
        # split by the same outcome as the request counter.
        def latency(outcome):
            return metric_value(samples, "pipette_plan_latency_seconds_count",
                                cluster="alpha", outcome=outcome)

        outcomes = ("hit", "miss", "coalesced", "error")
        assert [latency(o) for o in outcomes] == [req(o) for o in outcomes]
        assert sum(latency(o) for o in outcomes) == \
            stats.submitted + stats.coalesced

    def test_events_counted_and_depth_gauge_live(self, toy_model):
        registry = _registry()
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        service = registry.service("alpha")
        request = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry, metrics=metrics) as gateway:
                await gateway.plan(request)
                return await gateway.fail_nodes("alpha", 1)

        retired = asyncio.run(main())
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "pipette_events_total",
                            cluster="alpha", kind="failure") == 1
        assert metric_value(samples, "pipette_plans_retired_total",
                            cluster="alpha") == retired == 1
        assert metric_value(samples, "pipette_lane_queue_depth",
                            cluster="alpha") == 0
        assert metric_value(samples, "pipette_cluster_gpus",
                            cluster="alpha") == \
            registry.service("alpha").cluster.n_gpus

    def test_replan_warm_sources_counted_per_source(self, toy_model):
        registry = _registry()
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        service = registry.service("alpha")
        request = service.request(toy_model, 32, options=FAST)

        service.replan(request, ClusterEvent.node_failure(1),
                       run_cold=False)
        samples = parse_prometheus(metrics.render())
        per_source = {source: metric_value(samples,
                                           "pipette_replans_warm_source",
                                           cluster="alpha", source=source)
                      for source in ("template", "best", "portfolio",
                                     "cold")}
        # One replan happened; exactly one source claims it, and the
        # pull-bound series mirror the planner's own stats.
        assert sum(per_source.values()) == 1
        assert per_source == service.stats["replan_warm_sources"]

    def test_attach_twice_rejected(self):
        registry = _registry()
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        with pytest.raises(MetricsError, match="already bound"):
            registry.attach_metrics(metrics)

    def test_failed_reregistration_leaves_registry_unchanged(self):
        # Regression: the metrics auto-attach runs *before* the
        # membership mutation, so registering a name whose series are
        # already bound by another service raises without leaving a
        # half-registered service behind.
        registry = _registry()
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        owner = _registry().service("alpha")
        owner.attach_metrics(metrics, "gamma")
        with pytest.raises(MetricsError, match="already bound"):
            registry.register("gamma", _registry().service("beta"))
        assert registry.names == ["alpha", "beta"]
        # The series stay with the service that bound them first.
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "pipette_cluster_gpus",
                            cluster="gamma") == owner.cluster.n_gpus

    def test_late_registration_attaches_automatically(self, toy_model):
        registry = _registry()
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        cluster = _cluster("gamma")
        fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=9)
        bandwidth = NetworkProfiler(n_rounds=2).profile(
            fabric, seed=9).bandwidth
        registry.add_cluster("gamma", cluster, bandwidth)
        service = registry.service("gamma")
        service.plan(service.request(toy_model, 16, options=FAST))
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "pipette_cache_misses_total",
                            cluster="gamma") == 1
