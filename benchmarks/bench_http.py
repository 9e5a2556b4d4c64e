"""HTTP front end: bounded transport overhead, fairness-bounded tails.

Two claims, one per test:

* **HTTP is a transport, not a tax.**  The same cached request is
  answered directly through :meth:`PlanGateway.plan` and over
  ``POST /v1/plan`` on a keep-alive connection.  The plans are
  byte-identical (``to_payload``, net of stopwatch fields — the HTTP
  body carries the full result under ``"detail": true``), and the
  median HTTP round trip adds only a bounded constant over the direct
  call (request parsing + JSON framing; no search, both sides hit the
  plan cache).
* **Weighted-fair lanes bound a starved client's tail.**  A hostile
  client floods one cluster's lane with 40 distinct requests at 10:1
  against a victim client's 4.  When the victim shares the hostile
  client's ``client_id`` the lane is one FIFO, and the victim's worst
  answer waits for (nearly) the whole hostile backlog; under its own
  ``client_id`` the lane's weighted round-robin drains the victim
  within a search or two and its p99 drops by multiples.  Search cost
  is pinned to a constant per request (a stubbed search of known
  duration) so the measured difference is pure queueing policy.
"""

import asyncio
import json
import statistics
import time

from conftest import run_once

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.model import get_model
from repro.service import (
    ClusterRegistry,
    HttpPlanServer,
    MetricsRegistry,
    PlanGateway,
)

SEED = 2
OPTIONS = PipetteOptions(use_worker_dedication=False,
                         sa=SAOptions(max_iterations=300), seed=SEED)

#: Stubbed per-search duration for the fairness experiment: long
#: enough that queueing dominates scheduling noise, short enough that
#: 44 searches stay a CI-sized benchmark.
SEARCH_S = 0.05

#: ``to_payload`` fields that time the search instead of describing
#: the plan; equal plans time differently run to run.
_STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")


def _plan_bytes(payload: dict) -> str:
    payload = dict(payload)
    for field in _STOPWATCH_FIELDS:
        payload.pop(field, None)
    return json.dumps(payload, sort_keys=True)


def _one_cluster_registry():
    cluster = mid_range_cluster(n_nodes=1)
    network = NetworkProfiler().profile(make_fabric(cluster, seed=SEED),
                                        seed=SEED)
    registry = ClusterRegistry()
    registry.add_cluster("mid", cluster, network.bandwidth,
                         profile_seed=SEED)
    return registry


async def _http_round_trip(reader, writer, body: bytes):
    writer.write((f"POST /v1/plan HTTP/1.1\r\nHost: bench\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    assert status_line.split()[1] == b"200", status_line
    return json.loads(payload.decode("utf-8"))


def test_http_overhead_is_bounded(benchmark):
    """Cache-hit round trips: HTTP adds a bounded constant, same bytes."""
    registry = _one_cluster_registry()
    model = get_model("gpt-toy")
    rounds = 40

    def collect():
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        service = registry.service("mid")
        request = service.request(model, 32, options=OPTIONS)

        async def scenario():
            async with PlanGateway(registry, metrics=metrics) as gateway:
                front = HttpPlanServer(gateway, OPTIONS, metrics=metrics)
                server = await asyncio.start_server(front.handle,
                                                    "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                warm = await gateway.plan(request)  # miss: pays the search

                direct = []
                for _ in range(rounds):
                    t0 = time.perf_counter()
                    answer = await gateway.plan(request)
                    direct.append(time.perf_counter() - t0)
                    assert answer.status == "hit"

                body = json.dumps({"model": "gpt-toy", "global_batch": 32,
                                   "cluster": "mid",
                                   "detail": True}).encode()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                http = []
                last = None
                for _ in range(rounds):
                    t0 = time.perf_counter()
                    last = await _http_round_trip(reader, writer, body)
                    http.append(time.perf_counter() - t0)
                    assert last["status"] == "hit"
                writer.close()
                server.close()
                await server.wait_closed()
                return warm, direct, http, last

        warm, direct, http, last = asyncio.run(scenario())
        return (_plan_bytes(warm.result.to_payload()),
                _plan_bytes(last["result"]), direct, http)

    warm_bytes, http_bytes, direct, http = run_once(benchmark, collect)
    direct_ms = statistics.median(direct) * 1e3
    http_ms = statistics.median(http) * 1e3
    print(f"\ndirect gateway hit:  {direct_ms:7.3f} ms median "
          f"({len(direct)} rounds)")
    print(f"HTTP /v1/plan hit:   {http_ms:7.3f} ms median "
          f"(keep-alive, full result body)")
    print(f"transport overhead:  {http_ms - direct_ms:7.3f} ms")

    # The transport must not change answers...
    assert http_bytes == warm_bytes, \
        "HTTP plan diverged from the direct gateway answer"
    # ...and its cost is parsing + framing, not another search: a
    # generous 50 ms bound that still catches an accidental re-search
    # (or an accidental per-request connection) by an order of
    # magnitude.
    assert http_ms <= direct_ms + 50.0, \
        f"HTTP overhead {http_ms - direct_ms:.1f} ms is not bounded"


def test_fair_lanes_bound_hostile_client_tail(benchmark):
    """10:1 hostile flood: weighted-fair victim p99 beats FIFO by >= 2x."""
    registry_template = _one_cluster_registry()
    model = get_model("gpt-toy")
    source = registry_template.service("mid")
    seed_result = source.plan(source.request(model, 8,
                                             options=OPTIONS)).result

    def run_policy(victim_id):
        cluster = source.cluster
        registry = ClusterRegistry()
        registry.add_cluster("mid", cluster, source.bandwidth,
                             profile_seed=SEED)
        service = registry.service("mid")

        def stub_search(request):
            time.sleep(SEARCH_S)
            return seed_result

        service._search = stub_search
        hostile_requests = [service.request(model, 16 + 8 * i,
                                            options=OPTIONS)
                            for i in range(40)]
        victim_requests = [service.request(model, 4096 + 8 * i,
                                           options=OPTIONS)
                           for i in range(4)]

        async def scenario():
            async with PlanGateway(registry,
                                   max_queue_depth=256) as gateway:
                flood = [asyncio.ensure_future(
                    gateway.plan(request, client_id="hostile"))
                    for request in hostile_requests]

                await asyncio.sleep(2 * SEARCH_S)  # flood is in flight
                waits = []
                for request in victim_requests:
                    t0 = time.perf_counter()
                    answer = await gateway.plan(request,
                                                client_id=victim_id)
                    waits.append(time.perf_counter() - t0)
                    assert answer.best is not None
                await asyncio.gather(*flood)
                return waits

        return asyncio.run(scenario())

    def collect():
        # Sharing the hostile id puts the victim in the same FIFO
        # sub-queue: the strict-arrival-order baseline.
        return run_policy("hostile"), run_policy("victim")

    fifo, fair = run_once(benchmark, collect)
    fifo_p99 = max(fifo)
    fair_p99 = max(fair)
    print(f"\nhostile flood: 40 requests vs 4 victim requests, "
          f"{SEARCH_S * 1e3:.0f} ms/search, one request per drain")
    print(f"FIFO  victim waits: " +
          " ".join(f"{w * 1e3:6.0f}" for w in fifo) + " ms")
    print(f"fair  victim waits: " +
          " ".join(f"{w * 1e3:6.0f}" for w in fair) + " ms")
    print(f"victim p99: fifo {fifo_p99 * 1e3:.0f} ms, "
          f"fair {fair_p99 * 1e3:.0f} ms "
          f"({fifo_p99 / fair_p99:.1f}x better)")

    # FIFO parks the victim behind (most of) the hostile backlog;
    # weighted round-robin answers it within a couple of search times.
    # 2x is far under the typical gap (>= 4x) but robust to a noisy
    # CI host.
    assert fifo_p99 >= 2 * fair_p99, \
        (f"fair lanes should bound the starved client's tail: "
         f"fifo {fifo_p99:.3f}s vs fair {fair_p99:.3f}s")
