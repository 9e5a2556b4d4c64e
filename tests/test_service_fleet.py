"""The fleet layer: hash ring, routing key, admission, router, merge.

The load-bearing contracts:

* consistent hashing is deterministic across processes (content
  hashes, never the salted builtin ``hash``) and membership changes
  remap only ~K/N of K keys;
* the routing key sees exactly the plan-determining request content —
  two payloads the worker would answer identically hash identically,
  so the fleet's per-shard caches and coalescing keep working;
* one plan question is searched exactly once across the whole fleet:
  same-key requests all land on one worker and coalesce there,
  sibling workers never even see them;
* the merged ``/metrics`` page stays strictly-parseable Prometheus
  text with every worker sample relabeled, and ``429`` admission is
  enforced per ``client_id`` at the front door.
"""

import asyncio
import json
from collections import Counter

import pytest
from conftest import parse_prometheus
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions
from repro.service import (
    AdmissionController,
    ClusterRegistry,
    FleetRouter,
    HashRing,
    HttpPlanServer,
    MetricsRegistry,
    PlanGateway,
    TokenBucket,
    WorkerClient,
    routing_key,
    shard_segment_path,
)
from repro.service.http import _read_request, _write_response
from repro.service.metrics import MetricsError, merge_expositions
from repro.units import GIB

FAST = PipetteOptions(use_worker_dedication=False)


# ---------------------------------------------------------- ring


class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing(range(4))
        keys = [f"key-{i}" for i in range(50)]
        first = [ring.lookup(k) for k in keys]
        again = HashRing(range(4))
        assert [again.lookup(k) for k in keys] == first

    def test_lookup_spreads_across_members(self):
        ring = HashRing(range(4))
        owners = Counter(ring.lookup(f"key-{i}") for i in range(256))
        assert set(owners) == {0, 1, 2, 3}
        # 128 virtual nodes per member keep the imbalance moderate.
        assert max(owners.values()) <= 3 * min(owners.values())

    def test_empty_ring_refuses_lookup(self):
        with pytest.raises(ValueError, match="empty"):
            HashRing().lookup("anything")

    def test_duplicate_member_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError, match="already"):
            ring.add("a")

    def test_remove_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["a"]).remove("b")

    def test_members_roundtrip(self):
        ring = HashRing(["a", "b"])
        ring.add("c")
        ring.remove("b")
        assert sorted(ring.members) == ["a", "c"]
        assert len(ring) == 2

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=999))
    def test_adding_a_member_remaps_about_one_nth(self, n, seed):
        """The consistent-hashing promise: growth moves ~K/N keys."""
        keys = [f"{seed}-key-{i}" for i in range(400)]
        before = HashRing(range(n))
        owners = {k: before.lookup(k) for k in keys}
        before.add(n)  # grow to n + 1 members
        moved = sum(1 for k in keys if before.lookup(k) != owners[k])
        expected = len(keys) / (n + 1)
        # Virtual nodes make the share noisy but nowhere near a full
        # reshuffle (a modulo-hash router would remap ~n/(n+1) of
        # them, e.g. ~267 of 400 keys at n=2).
        assert moved <= 2.5 * expected
        # ...and growth must only ever move keys TO the new member.
        for key in keys:
            owner = before.lookup(key)
            assert owner == owners[key] or owner == n

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=999))
    def test_removing_a_member_strands_no_other_key(self, n, seed):
        keys = [f"{seed}-rm-{i}" for i in range(400)]
        ring = HashRing(range(n))
        owners = {k: ring.lookup(k) for k in keys}
        ring.remove(n - 1)
        for key in keys:
            if owners[key] != n - 1:
                assert ring.lookup(key) == owners[key]


# ---------------------------------------------------- routing key


class TestRoutingKey:
    BASE = {"model": "gpt-toy", "global_batch": 32, "cluster": "alpha"}

    def test_transport_fields_are_ignored(self):
        noisy = dict(self.BASE, client_id="tenant-a", detail=True,
                     id="job-77")
        assert routing_key(noisy) == routing_key(self.BASE)

    def test_micro_batches_order_and_dupes_collapse(self):
        a = dict(self.BASE, micro_batches=[8, 2, 4, 2])
        b = dict(self.BASE, micro_batches=[2, 4, 8])
        assert routing_key(a) == routing_key(b)

    def test_schedule_string_equals_singleton_list(self):
        a = dict(self.BASE, schedule="1f1b")
        b = dict(self.BASE, schedule=["1f1b"])
        assert routing_key(a) == routing_key(b)

    def test_plan_determining_fields_change_the_key(self):
        base = routing_key(self.BASE)
        assert routing_key(dict(self.BASE, global_batch=64)) != base
        assert routing_key(dict(self.BASE, cluster="beta")) != base
        assert routing_key(dict(self.BASE, model="gpt-1.1b")) != base
        assert routing_key(dict(self.BASE,
                                memory_limit_gib=12.0)) != base

    def test_unpinned_cluster_has_its_own_key(self):
        unpinned = {k: v for k, v in self.BASE.items()
                    if k != "cluster"}
        assert routing_key(unpinned) != routing_key(self.BASE)
        assert routing_key(unpinned) == routing_key(
            dict(unpinned, cluster=None))

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError):
            routing_key(["not", "a", "dict"])

    # Keys pin shard placement and durable shard segments, so a change
    # to the payload parser must leave every well-typed key where it is.
    PINNED = [
        (BASE, "f40f66886c908df862de4c4f"),
        ({"model": "gpt-toy", "global_batch": 32},
         "39bdca9fcdaab22b0debf5b6"),
        ({"model": "gpt-1.1b", "cluster": "mid-range-0"},
         "02fec13f51c5a4c1f1e20476"),
        (dict(BASE, micro_batches=[8, 2, 4, 2]), "ac6f9e50253d4c125151bf03"),
        (dict(BASE, schedule="interleaved"), "1515a32afa8768ff5217bbba"),
        (dict(BASE, schedule=["gpipe", "1f1b", "gpipe"]),
         "e1e4c3126e4bdea45a9e2a6c"),
        (dict(BASE, memory_limit_gib=12), "ee33bf42ac7b9a5783c8ebe9"),
        (dict(BASE, portfolio_k=3), "81d544f34ff27e613115425a"),
        ({"model": "gpt-1.1b", "global_batch": 256, "cluster": "high-end-1",
          "micro_batches": [4, 1, 2], "schedule": ["1f1b", "interleaved"],
          "memory_limit_gib": 38.5, "portfolio_k": 2, "client_id": "t",
          "detail": True, "id": 7}, "7ad800b75cf81363b8ed8b6f"),
    ]

    @pytest.mark.parametrize("payload, key", PINNED)
    def test_pinned_keys(self, payload, key):
        assert routing_key(payload) == key

    def test_detail_never_moves_a_key(self):
        for detail in (True, False, None):
            assert routing_key(dict(self.BASE, detail=detail)) == \
                "f40f66886c908df862de4c4f"

    @pytest.mark.parametrize("field, value", [
        ("micro_batches", "16"), ("global_batch", True),
        ("global_batch", 32.9), ("detail", "false")])
    def test_mistyped_payload_has_no_key(self, field, value):
        # "16" used to hash like [1, 6], and true like global batch 1.
        with pytest.raises(ValueError, match=field):
            routing_key(dict(self.BASE, **{field: value}))


class TestShardSegmentPath:
    def test_unsharded_keeps_plain_name(self, tmp_path):
        assert shard_segment_path(str(tmp_path), "alpha", None) == \
            str(tmp_path / "alpha.jsonl")

    def test_sharded_segments_are_per_index(self, tmp_path):
        assert shard_segment_path(str(tmp_path), "alpha", 0) == \
            str(tmp_path / "alpha.shard-0.jsonl")
        assert shard_segment_path(str(tmp_path), "alpha", 3) == \
            str(tmp_path / "alpha.shard-3.jsonl")

    def test_negative_index_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            shard_segment_path(str(tmp_path), "alpha", -1)


# ------------------------------------------------------ admission


class TestAdmission:
    def test_bucket_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert [bucket.admit(0.0) for _ in range(4)] == \
            [True, True, True, False]
        assert bucket.admit(1.0)  # 2 tokens refilled over 1 s
        assert bucket.admit(1.0)
        assert not bucket.admit(1.0)

    def test_controller_is_per_client(self):
        clock = [0.0]
        quota = AdmissionController(rate=1.0, burst=1.0,
                                    clock=lambda: clock[0])
        assert quota.admit("a")
        assert not quota.admit("a")
        assert quota.admit("b")  # a's exhaustion never touches b

    def test_lru_eviction_resets_forgotten_clients(self):
        clock = [0.0]
        quota = AdmissionController(rate=1.0, burst=1.0, max_clients=2,
                                    clock=lambda: clock[0])
        assert quota.admit("a")
        assert quota.admit("b")
        assert quota.admit("c")  # evicts a (least recently seen)
        assert quota.admit("a")  # back with a fresh, full bucket

    def test_retry_after_is_one_over_rate(self):
        assert AdmissionController(rate=4.0).retry_after_s == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(rate=0.0)
        with pytest.raises(ValueError):
            AdmissionController(rate=1.0, burst=0.5)
        with pytest.raises(ValueError):
            AdmissionController(rate=1.0, max_clients=0)


# -------------------------------------------------- metrics merge


class TestMergeExpositions:
    PAGE_A = ("# HELP pipette_x_total Things.\n"
              "# TYPE pipette_x_total counter\n"
              'pipette_x_total{cluster="a"} 3\n'
              "# HELP pipette_y Level.\n"
              "# TYPE pipette_y gauge\n"
              "pipette_y 1\n")
    PAGE_B = ("# HELP pipette_x_total Things.\n"
              "# TYPE pipette_x_total counter\n"
              'pipette_x_total{cluster="a"} 5\n')

    def test_merge_relabels_and_stays_strictly_parseable(self):
        merged = merge_expositions([("0", self.PAGE_A),
                                    ("1", self.PAGE_B)])
        samples = parse_prometheus(merged)
        key = frozenset({("worker", "0"), ("cluster", "a")})
        assert samples[("pipette_x_total", key)] == 3.0
        key1 = frozenset({("worker", "1"), ("cluster", "a")})
        assert samples[("pipette_x_total", key1)] == 5.0
        assert samples[("pipette_y", frozenset({("worker", "0")}))] == 1.0

    def test_histogram_children_resolve_to_their_family(self):
        page = ("# HELP pipette_h_seconds Latency.\n"
                "# TYPE pipette_h_seconds histogram\n"
                'pipette_h_seconds_bucket{le="1.0"} 2\n'
                'pipette_h_seconds_bucket{le="+Inf"} 2\n'
                "pipette_h_seconds_sum 0.4\n"
                "pipette_h_seconds_count 2\n")
        merged = merge_expositions([("3", page)])
        samples = parse_prometheus(merged)
        key = frozenset({("worker", "3"), ("le", "+Inf")})
        assert samples[("pipette_h_seconds_bucket", key)] == 2.0
        assert samples[("pipette_h_seconds_count",
                        frozenset({("worker", "3")}))] == 2.0

    def test_empty_input_merges_to_empty_page(self):
        assert merge_expositions([]) == ""

    def test_sample_without_type_is_an_error(self):
        with pytest.raises(MetricsError):
            merge_expositions([("0", "pipette_orphan 1\n")])

    def test_bad_label_name_rejected(self):
        with pytest.raises(MetricsError):
            merge_expositions([("0", self.PAGE_A)], label="0bad")


# -------------------------------------------------------- router


def _cluster(name: str, n_nodes: int = 2) -> ClusterSpec:
    gpu = GpuSpec(name=f"{name}-GPU", memory_bytes=4 * GIB,
                  peak_flops=10e12, achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("NVL", 100.0, alpha_s=1e-6))
    return ClusterSpec(name=name, n_nodes=n_nodes, node=node,
                       inter_link=LinkSpec("IB", 10.0, alpha_s=1e-5))


def _registry() -> ClusterRegistry:
    """Every fleet worker must model identical clusters — same seeds."""
    registry = ClusterRegistry()
    for name, seed in (("alpha", 1), ("beta", 2)):
        cluster = _cluster(name)
        fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(),
                        seed=seed)
        bandwidth = NetworkProfiler(n_rounds=2).profile(
            fabric, seed=seed).bandwidth
        registry.add_cluster(name, cluster, bandwidth)
    return registry


class _Fleet:
    """N in-process workers (full HTTP stacks) behind one router."""

    def __init__(self, n_workers: int = 2, *, quota=None) -> None:
        self.n_workers = n_workers
        self.quota = quota
        self.registries: "list[ClusterRegistry]" = []
        self.gateways: "list[PlanGateway]" = []
        self.servers = []
        self.clients: "list[WorkerClient]" = []

    async def __aenter__(self) -> "_Fleet":
        for index in range(self.n_workers):
            registry = _registry()
            metrics = MetricsRegistry()
            registry.attach_metrics(metrics)
            gateway = PlanGateway(registry, metrics=metrics)
            await gateway.__aenter__()
            front = HttpPlanServer(gateway, FAST, metrics=metrics)
            server = await asyncio.start_server(
                front.handle, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            self.registries.append(registry)
            self.gateways.append(gateway)
            self.servers.append(server)
            self.clients.append(WorkerClient("127.0.0.1", port, index))
        self.router = FleetRouter(self.clients, quota=self.quota)
        self.router_server = await asyncio.start_server(
            self.router.handle, host="127.0.0.1", port=0)
        self.port = self.router_server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc) -> None:
        self.router_server.close()
        await self.router_server.wait_closed()
        for client in self.clients:
            client.close()
        for server in self.servers:
            server.close()
            await server.wait_closed()
        for gateway in self.gateways:
            await gateway.__aexit__(*exc)

    def misses(self) -> int:
        """Cache misses (searches actually run) across the fleet."""
        return sum(stats["cache_misses"]
                   for registry in self.registries
                   for stats in registry.stats.values())

    def submitted(self) -> "list[int]":
        return [gateway.stats.submitted for gateway in self.gateways]


async def _read_response(reader) -> "tuple[int, dict, bytes]":
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def _request(port: int, method: str, path: str, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                  f"Content-Length: {len(data)}\r\n"
                  "Connection: close\r\n\r\n").encode() + data)
    await writer.drain()
    try:
        return await _read_response(reader)
    finally:
        writer.close()


def _json(body: bytes) -> dict:
    return json.loads(body.decode("utf-8"))


class TestFleetRouter:
    def test_same_key_searches_once_across_the_fleet(self, toy_model):
        """The headline invariant: same question -> one worker, one
        search — concurrent duplicates coalesce or hit on that worker
        and its siblings never see them."""
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "alpha"}

        async def main():
            async with _Fleet(3) as fleet:
                answers = await asyncio.gather(
                    *(_request(fleet.port, "POST", "/v1/plan", payload)
                      for _ in range(6)))
                owner = fleet.router.ring.lookup(routing_key(payload))
                return fleet, answers, owner

        fleet, answers, owner = asyncio.run(main())
        for status, _, body in answers:
            assert status == 200
            assert _json(body)["status"] in ("miss", "coalesced", "hit")
        assert fleet.misses() == 1
        submitted = fleet.submitted()
        assert submitted[owner] >= 1
        assert all(count == 0 for index, count in enumerate(submitted)
                   if index != owner)

    def test_distinct_keys_route_where_the_ring_says(self, toy_model):
        payloads = [{"model": "gpt-toy", "global_batch": 32,
                     "cluster": "alpha", "portfolio_k": k}
                    for k in range(1, 7)]

        async def main():
            async with _Fleet(3) as fleet:
                for payload in payloads:
                    status, _, _ = await _request(
                        fleet.port, "POST", "/v1/plan", payload)
                    assert status == 200
                predicted = Counter(
                    fleet.router.ring.lookup(routing_key(p))
                    for p in payloads)
                return predicted, fleet.submitted()

        predicted, submitted = asyncio.run(main())
        assert submitted == [predicted.get(k, 0) for k in range(3)]

    def test_plans_match_single_process_answers(self, toy_model):
        """Routing must never change an answer: every payload planned
        through the fleet is byte-identical (net of stopwatch fields)
        to a fresh single-process service."""
        payloads = [{"model": "gpt-toy", "global_batch": 32,
                     "cluster": "alpha", "detail": True},
                    {"model": "gpt-toy", "global_batch": 64,
                     "cluster": "beta", "detail": True}]

        async def main():
            async with _Fleet(2) as fleet:
                return [await _request(fleet.port, "POST", "/v1/plan", p)
                        for p in payloads]

        answers = asyncio.run(main())
        stopwatch = ("memory_check_s", "annealing_s", "total_s")
        for payload, (status, _, body) in zip(payloads, answers):
            assert status == 200
            out = _json(body)
            registry = _registry()
            service = registry.service(payload["cluster"])
            request = service.request(toy_model, payload["global_batch"],
                                      options=FAST)
            expected = service.plan(request).result.to_payload()
            got = out["result"]
            for field in stopwatch:
                expected.pop(field, None)
                got.pop(field, None)
            assert json.dumps(got, sort_keys=True) == \
                json.dumps(expected, sort_keys=True)

    def test_quota_answers_429_per_client(self, toy_model):
        clock = [0.0]
        quota = AdmissionController(rate=1.0, burst=2.0,
                                    clock=lambda: clock[0])
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "alpha", "client_id": "greedy"}

        async def main():
            async with _Fleet(2, quota=quota) as fleet:
                statuses = [
                    (await _request(fleet.port, "POST", "/v1/plan",
                                    payload))[0]
                    for _ in range(3)]
                # A different client is untouched by greedy's 429s.
                other = dict(payload, client_id="patient")
                ok, _, _ = await _request(fleet.port, "POST", "/v1/plan",
                                          other)
                _, _, page = await _request(fleet.port, "GET", "/metrics")
                return statuses, ok, page.decode()

        statuses, ok, page = asyncio.run(main())
        assert statuses == [200, 200, 429]
        assert ok == 200
        samples = parse_prometheus(page)
        assert samples[("pipette_admission_rejects_total",
                        frozenset({("client_id", "greedy")}))] == 1.0

    def test_event_fans_to_all_workers_and_sums_retired(self, toy_model):
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "alpha"}
        event = {"cluster": "alpha", "scale": 0.5}

        async def main():
            async with _Fleet(2) as fleet:
                first = _json((await _request(
                    fleet.port, "POST", "/v1/plan", payload))[2])
                ev_status, _, ev_body = await _request(
                    fleet.port, "POST", "/v1/events/bandwidth", event)
                again = _json((await _request(
                    fleet.port, "POST", "/v1/plan", payload))[2])
                return first, ev_status, _json(ev_body), again, \
                    fleet.misses()

        first, ev_status, ev, again, misses = asyncio.run(main())
        assert first["status"] == "miss"
        assert ev_status == 200
        assert ev["workers"] == 2
        assert ev["adopted"] is True
        assert ev["retired"] == 1  # the one cached alpha plan, fleet-wide
        assert "epochs" not in ev  # deterministic epochs never diverge
        assert again["status"] == "miss"  # the epoch fence held
        assert misses == 2

    def test_empty_failure_event_is_400_on_every_worker(self):
        async def main():
            async with _Fleet(2) as fleet:
                epochs = [r.service("alpha").bandwidth_fp
                          for r in fleet.registries]
                status, _, body = await _request(
                    fleet.port, "POST", "/v1/events/failure",
                    {"cluster": "alpha", "nodes": []})
                after = [r.service("alpha").bandwidth_fp
                         for r in fleet.registries]
                return status, _json(body), epochs, after

        status, out, epochs, after = asyncio.run(main())
        assert status == 400
        assert "'nodes'" in out["error"]
        assert after == epochs

    def test_healthz_aggregates_and_degrades(self, toy_model):
        async def main():
            async with _Fleet(2) as fleet:
                _, _, body = await _request(fleet.port, "GET", "/healthz")
                ok = _json(body)
                # Take worker 1's listener down: the fleet degrades
                # but the router keeps answering.
                fleet.servers[1].close()
                await fleet.servers[1].wait_closed()
                fleet.clients[1].close()  # drop pooled connections too
                _, _, body = await _request(fleet.port, "GET", "/healthz")
                return ok, _json(body)

        ok, degraded = asyncio.run(main())
        assert ok["status"] == "ok"
        assert ok["fleet_workers"] == 2
        assert ok["clusters"] == ["alpha", "beta"]
        assert ok["workers"]["1"]["status"] == "ok"
        assert degraded["status"] == "degraded"
        assert degraded["healthy_workers"] == 1
        assert degraded["workers"]["1"] is None

    def test_metrics_page_merges_all_workers_strictly(self, toy_model):
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "alpha"}

        async def main():
            async with _Fleet(2) as fleet:
                await _request(fleet.port, "POST", "/v1/plan", payload)
                _, headers, body = await _request(fleet.port, "GET",
                                                  "/metrics")
                owner = fleet.router.ring.lookup(routing_key(payload))
                return headers, body.decode(), owner

        headers, page, owner = asyncio.run(main())
        assert headers["content-type"].startswith("text/plain")
        samples = parse_prometheus(page)  # strict: TYPEd, no dupes
        assert samples[("pipette_fleet_workers", frozenset())] == 2.0
        workers = {dict(labels).get("worker")
                   for (name, labels) in samples
                   if name == "pipette_http_requests_total"}
        assert str(owner) in workers

    def test_unknown_route_404_wrong_method_405(self):
        async def main():
            async with _Fleet(1) as fleet:
                missing = await _request(fleet.port, "GET", "/nope")
                wrong = await _request(fleet.port, "GET", "/v1/plan")
                return missing, wrong

        (s404, _, b404), (s405, h405, _) = asyncio.run(main())
        assert s404 == 404
        assert "unknown route" in _json(b404)["error"]
        assert s405 == 405
        assert h405["allow"] == "POST"  # RFC 9110 §15.5.6

    def test_unreachable_worker_without_supervisor_is_502(self, toy_model):
        async def main():
            # A listener that closes immediately tells us the port is
            # unused, then the router points at the corpse.
            probe = await asyncio.start_server(lambda r, w: w.close(),
                                               host="127.0.0.1", port=0)
            dead_port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            router = FleetRouter([WorkerClient("127.0.0.1", dead_port, 0)])
            server = await asyncio.start_server(router.handle,
                                                host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _request(port, "POST", "/v1/plan",
                                      {"model": "gpt-toy",
                                       "global_batch": 32})
            finally:
                server.close()
                await server.wait_closed()

        status, _, body = asyncio.run(main())
        assert status == 502
        assert "unreachable" in _json(body)["error"]


class TestRouterRefusesMalformedPlans:
    @pytest.mark.parametrize("field, value", [
        ("micro_batches", "16"), ("global_batch", True),
        ("global_batch", 32.9), ("detail", "yes"), ("detail", 1)])
    def test_400_before_forwarding(self, field, value):
        # The only worker is unreachable, so any forwarded request would
        # answer 502: a 400 proves the router refused it on its own.
        async def main():
            probe = await asyncio.start_server(lambda r, w: w.close(),
                                               host="127.0.0.1", port=0)
            dead_port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            router = FleetRouter([WorkerClient("127.0.0.1", dead_port, 0)])
            server = await asyncio.start_server(router.handle,
                                                host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _request(port, "POST", "/v1/plan",
                                      {"model": "gpt-toy",
                                       "global_batch": 32, field: value})
            finally:
                server.close()
                await server.wait_closed()

        status, _, body = asyncio.run(main())
        assert status == 400
        assert field in _json(body)["error"]


class TestRouterDrain:
    def test_drain_finishes_inflight_and_closes_idle(self):
        """The drain contract at the router: a request already
        being proxied completes; idle keep-alives close."""

        async def slow_worker(reader, writer):
            try:
                while True:
                    parsed = await _read_request(reader, 1 << 20)
                    if parsed is None:
                        break
                    await asyncio.sleep(0.2)
                    _write_response(writer, 200, b'{"status": "ok"}',
                                    "application/json; charset=utf-8",
                                    keep_alive=True)
                    await writer.drain()
            finally:
                writer.close()

        async def main():
            worker = await asyncio.start_server(slow_worker,
                                                host="127.0.0.1", port=0)
            wport = worker.sockets[0].getsockname()[1]
            router = FleetRouter([WorkerClient("127.0.0.1", wport, 0)])
            server = await asyncio.start_server(router.handle,
                                                host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]

            # One busy connection (request in flight on the slow
            # worker) and one idle keep-alive connection.
            busy = asyncio.ensure_future(
                _request(port, "GET", "/healthz"))
            idle_reader, idle_writer = await asyncio.open_connection(
                "127.0.0.1", port)
            await asyncio.sleep(0.05)

            server.close()
            await asyncio.wait_for(router.drain(), timeout=5.0)
            status, _, body = await busy
            idle_eof = await idle_reader.read(1)
            idle_writer.close()
            worker.close()
            await worker.wait_closed()
            await server.wait_closed()
            return status, body, idle_eof

        status, body, idle_eof = asyncio.run(main())
        assert status == 200
        assert _json(body)["status"] in ("ok", "degraded")
        assert idle_eof == b""  # idle connection was closed, not served
