"""serve-hot: the HTTP front end answering a warm working set.

``HttpPlanServer`` -> ``PlanGateway`` -> ``ClusterRegistry`` with two
4-node clusters (one per Table-1 preset, like ``serve``'s defaults),
driven in a closed loop by two keep-alive connections — one per core
of the 2-core reference host.  Sixteen cache keys (two small models at
four global batches, on each cluster) fit the 128-entry LRU and are
prefilled during set-up with a cheap server SA budget, so every timed
answer is a cache hit: HTTP parsing, JSON rendering, gateway lanes and
the cache lookup are the whole cost and the core does nothing.

The mix is fixed: each (model, batch) pair is asked pinned to either
cluster and unpinned (cheapest-feasible fan-out over both), and one
ask in four carries ``"detail": true`` (16-22 KB of JSON instead of
about 125 B).  The two connections own disjoint (model, batch) pairs,
so the gateway never coalesces and every run counts the same hits.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import high_end_cluster, mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.model import get_model
from repro.service import ClusterRegistry
from repro.sim import ClusterRunner

from common import (
    PlanStack,
    check_plan,
    latency_summary,
    plan_identity,
    read_result,
    request_body,
    strip_elapsed,
)

FABRIC_SEED = 2

#: (model, global batch) pairs; every one fits both 4-node presets
#: without a memory estimator (``serve`` runs without one).
PAIRS = tuple((model, batch) for model in ("gpt-toy", "gpt-small")
              for batch in (64, 128, 256, 512))

#: Routes each pair is asked on: pinned to a cluster, or unpinned.
ROUTES = ("mid-range", "high-end", None)

#: Keep-alive connections driving the closed loop.
CLIENTS = 2

#: Nominal answers per second on a 2-core x86 host; ``--seconds`` is
#: turned into a fixed cycle count with it.
NOMINAL_RATE = 1000.0

#: Requests per harvest in the traced loop (the tracer keeps 256 traces).
HARVEST_EVERY = 100


def _sizes(smoke: bool) -> dict:
    return {"nodes": 1 if smoke else 4,
            "options": PipetteOptions(sa=SAOptions(
                max_iterations=50 if smoke else 200), sa_top_k=4)}


def variants(client: int) -> "list[tuple[str, int, str | None, bool]]":
    """One connection's asks: ``(model, batch, route, detail)`` tuples."""
    out = []
    for index, (model, batch) in enumerate(PAIRS):
        if index % CLIENTS != client:
            continue
        out.extend((model, batch, route, False) for route in ROUTES)
        out.append((model, batch, ROUTES[index % len(ROUTES)], True))
    return out


def body_of(variant) -> bytes:
    model, batch, route, detail = variant
    fields = {"model": model, "global_batch": batch}
    if route is not None:
        fields["cluster"] = route
    if detail:
        fields["detail"] = True
    return request_body(**fields)


async def setup(sizes: dict, seed: int, failures):
    """Profile, start the stack, prefill every key, record references."""
    timings = {}
    t0 = time.perf_counter()
    registry = ClusterRegistry()
    fabrics = {}
    for name, preset in (("mid-range", mid_range_cluster),
                         ("high-end", high_end_cluster)):
        cluster = preset(sizes["nodes"])
        fabrics[name] = make_fabric(cluster, seed=FABRIC_SEED)
        network = NetworkProfiler().profile(fabrics[name], seed=FABRIC_SEED)
        service = registry.add_cluster(name, cluster, network.bandwidth,
                                       profile_seed=FABRIC_SEED)
        for model, _ in PAIRS:
            service.profile_for(get_model(model))
    options = PipetteOptions(sa=sizes["options"].sa,
                             sa_top_k=sizes["options"].sa_top_k, seed=seed)
    stack = await PlanStack.start(registry, options, CLIENTS)
    t1 = time.perf_counter()
    timings["profile_s"] = t1 - t0
    first = {}
    client = stack.clients[0]
    for model, batch in PAIRS:
        for name in ROUTES[:2]:
            status, body = await client.post(
                "/v1/plan", request_body(model=model, global_batch=batch,
                                         cluster=name, detail=True))
            payload = json.loads(body)
            failures.check(status == 200 and payload.get("status") == "miss",
                           f"serve-hot prefill {model}/{batch} on {name}: "
                           f"{status} {payload.get('status')}")
            first[(model, batch, name)] = payload
    reference = {}
    for k in range(CLIENTS):
        for variant in variants(k):
            status, body = await client.post("/v1/plan", body_of(variant))
            payload = json.loads(body)
            model, batch, _, detail = variant
            origin = first.get((model, batch, payload.get("cluster")), {})
            if not detail:
                origin = {key: value for key, value in origin.items()
                          if key not in ("result", "templates")}
            failures.check(
                status == 200 and payload.get("status") == "hit"
                and plan_identity(payload) == plan_identity(origin),
                f"serve-hot {variant}: hit differs from the key's first "
                f"answer")
            reference[variant] = (strip_elapsed(body), plan_identity(payload),
                                  payload)
    timings["prefill_s"] = time.perf_counter() - t1
    state = {"stack": stack, "fabrics": fabrics, "first": first,
             "reference": reference}
    return state, timings


def sequences(rng: random.Random, cycles: int) -> "list[list]":
    """Each connection's variants, ``cycles`` times, shuffled per cycle."""
    out = []
    for k in range(CLIENTS):
        own = variants(k)
        seq = []
        for _ in range(cycles):
            cycle = list(own)
            rng.shuffle(cycle)
            seq.extend(cycle)
        out.append(seq)
    return out


async def _drive(client, asks, reference, failures, traced, plan_s, sizes):
    for variant in asks:
        body = body_of(variant)
        t0 = time.perf_counter()
        status, answer = await client.post("/v1/plan", body)
        plan_s.append(time.perf_counter() - t0)
        sizes.append(len(answer))
        expected_bytes, expected_identity, _ = reference[variant]
        if traced:
            # Traced answers carry a per-request trace id (and detail
            # answers their span tree), so compare net of those.
            payload = json.loads(answer)
            ok = payload.get("status") == "hit" \
                and plan_identity(payload) == expected_identity
        else:
            ok = strip_elapsed(answer) == expected_bytes
        failures.check(status == 200 and ok,
                       f"serve-hot {variant}: {status}, hit not identical "
                       f"to the key's first answer")


async def timed_loop(state, seqs, failures, probe=None):
    """Both connections in a closed loop; returns the latency summary."""
    plan_s, sizes = [], []
    clients = state["stack"].clients
    step = HARVEST_EVERY if probe is not None else max(map(len, seqs))
    t_start = time.perf_counter()
    for lo in range(0, max(map(len, seqs)), step):
        await asyncio.gather(*(
            _drive(client, seq[lo:lo + step], state["reference"], failures,
                   probe is not None, plan_s, sizes)
            for client, seq in zip(clients, seqs)))
        if probe is not None:
            probe.harvest()
    summary = latency_summary(plan_s, time.perf_counter() - t_start)
    summary["roundtrip_s"], summary["response_bytes"] = plan_s, sizes
    return summary


def quality(state, failures) -> "tuple[list, list]":
    """Gate every key's plan; geomeans run over every distinct ask."""
    registry = state["stack"].registry
    by_key = {}
    for (model_name, batch, name), payload in state["first"].items():
        service = registry.service(name)
        model = get_model(model_name)
        label = f"serve-hot {model_name}/{batch} on {name}"
        result = read_result(failures, label, payload)
        if result is None:
            continue
        by_key[(model_name, batch, name)] = check_plan(
            failures, label, result,
            model, service.bandwidth, service.profile_for(model),
            ClusterRunner(state["fabrics"][name], model))
    predicted, simulated = [], []
    for (model, batch, route, detail), (_, _, payload) \
            in state["reference"].items():
        if detail:
            continue
        p, s = by_key.get((model, batch, payload.get("cluster")),
                          (None, None))
        predicted.extend([] if p is None else [p])
        simulated.extend([] if s is None else [s])
    return predicted, simulated


def run(ctx) -> dict:
    """The serve-hot workload under ``ctx`` (see ``run.py``)."""
    sizes = _sizes(ctx.smoke)
    per_cycle = sum(len(variants(k)) for k in range(CLIENTS))
    cycles = 2 if ctx.smoke else max(
        1, round(ctx.seconds * NOMINAL_RATE / per_cycle))

    async def main() -> dict:
        state, setup_s, timings = await ctx.repeat_setup_async(
            lambda: setup(sizes, ctx.seed, ctx.failures),
            lambda old: old["stack"].close())
        try:
            rng = random.Random(ctx.seed)
            out = {"setup_s": setup_s, "setup": timings,
                   "untraced": await timed_loop(
                       state, sequences(rng, cycles), ctx.failures)}
            if ctx.trace:
                out["traced"] = await ctx.traced_async(
                    lambda probe: timed_loop(
                        state, sequences(rng, ctx.traced_size(cycles)),
                        ctx.failures, probe))
        finally:
            await state["stack"].close()
        out["predicted"], out["simulated"] = quality(state, ctx.failures)
        return out

    return asyncio.run(main())
