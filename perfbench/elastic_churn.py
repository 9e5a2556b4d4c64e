"""elastic-churn: epoch rolls answered from the template library.

The HTTP stack of serve-hot on one 16-node high-end cluster, driven by
a single keep-alive connection through a fixed script.  Set-up warms
the cluster's template library for the one question the script asks
(gpt-1.1b at global batch 256) over 14..16 nodes.  Each cycle then
sends a bandwidth-drift event that halves every link (beyond the 10%
threshold, so the epoch rolls and the cached plan retires), asks the
question again — a miss answered by a template lookup plus a
quarter-budget polish anneal, never the full search — asks it once
with ``"detail": true`` and :data:`HITS` more times (hits), then sends
the doubling event back and repeats.  After the cycles, two node
failures (nodes 15, then 14) shrink the cluster to template-covered
sizes, each followed by the same asks.  This is the write side of the
cache that serve-hot only reads; every count is asserted.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import high_end_cluster
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
)

FABRIC_SEED = 2
CLUSTER = "elastic"
MODEL = "gpt-1.1b"
GLOBAL_BATCH = 256

#: Compact hits asked after each epoch's miss and detail hit.
HITS = 20

#: Nominal wall time of one drift cycle on a 2-core x86 host;
#: ``--seconds`` is turned into a fixed cycle count with it.
CYCLE_S = 0.15

#: Node failures after the drift cycles; each fails the highest-numbered
#: node left, so the survivors are the prefix the library was warmed on.
FAILURES = 2


def _sizes(smoke: bool) -> dict:
    if smoke:
        return {"nodes": 3, "min_nodes": 1,
                "options": PipetteOptions(sa=SAOptions(max_iterations=100),
                                          sa_top_k=2)}
    # Default SA budget (so the polish is the default quarter budget,
    # 750 iterations); two leaders per node count keep the warm-up near
    # 2 s, where the default eight take about 10 s.
    return {"nodes": 16, "min_nodes": 14,
            "options": PipetteOptions(sa_top_k=2)}


async def setup(sizes: dict, seed: int, failures):
    """Profile the cluster, start the stack, warm the template library."""
    timings = {}
    t0 = time.perf_counter()
    model = get_model(MODEL)
    cluster = high_end_cluster(sizes["nodes"])
    fabric = make_fabric(cluster, seed=FABRIC_SEED)
    network = NetworkProfiler().profile(fabric, seed=FABRIC_SEED)
    registry = ClusterRegistry()
    service = registry.add_cluster(CLUSTER, cluster, network.bandwidth,
                                   profile_seed=FABRIC_SEED)
    service.profile_for(model)
    options = PipetteOptions(sa=sizes["options"].sa,
                             sa_top_k=sizes["options"].sa_top_k, seed=seed)
    stack = await PlanStack.start(registry, options, 1)
    t1 = time.perf_counter()
    library = service.warm_templates(
        model, GLOBAL_BATCH, min_nodes=sizes["min_nodes"],
        max_nodes=sizes["nodes"], options=options)
    failures.check(set(library.covered_counts)
                   == set(range(sizes["min_nodes"], sizes["nodes"] + 1)),
                   f"elastic-churn: library covers {library.covered_counts}")
    t2 = time.perf_counter()
    timings["profile_s"] = t1 - t0
    timings["template_warm_s"] = t2 - t1
    state = {"stack": stack, "service": service, "model": model,
             "runner": ClusterRunner(fabric, model), "nodes": sizes["nodes"],
             "reference": {}, "epochs": {}}
    # The epoch's first answer: a miss served from the library.
    await _epoch(state, failures, None, None, [])
    return state, timings


async def _epoch(state, failures, path, event, log) -> None:
    """Optionally send ``event``, then ask the epoch's questions.

    Appends one ``(status, round trip s, answer bytes, event-to-answer
    s)`` row per plan answer to ``log``: the epoch's miss (the only row
    with an event-to-answer time), then its hits.  Answers
    are checked against the first answers seen for the same epoch.
    """
    client = state["stack"].clients[0]
    compact = request_body(model=MODEL, global_batch=GLOBAL_BATCH,
                           cluster=CLUSTER)
    detail = request_body(model=MODEL, global_batch=GLOBAL_BATCH,
                          cluster=CLUSTER, detail=True)
    t_event = time.perf_counter()
    if event is not None:
        status, body = await client.post(path, event)
        answer = json.loads(body)
        failures.check(status == 200 and answer.get("retired") == 1
                       and answer.get("adopted", True),
                       f"elastic-churn {path}: {status} {answer}")
    t0 = time.perf_counter()
    status, body = await client.post("/v1/plan", compact)
    t1 = time.perf_counter()
    log.append(("miss", t1 - t0, len(body), t1 - t_event))
    service = state["service"]
    epoch = service.bandwidth_fp
    reference = state["reference"].setdefault(epoch, {})
    _same(failures, reference, "miss", status, body)
    t0 = time.perf_counter()
    status, body = await client.post("/v1/plan", detail)
    log.append(("hit", time.perf_counter() - t0, len(body), None))
    _same(failures, reference, "hit", status, body)
    if epoch not in state["epochs"]:
        state["epochs"][epoch] = (json.loads(body), service.bandwidth,
                                  service.profile_for(state["model"]),
                                  service.cluster.n_nodes)
    for _ in range(HITS):
        t0 = time.perf_counter()
        status, body = await client.post("/v1/plan", compact)
        log.append(("hit", time.perf_counter() - t0, len(body), None))
        _same(failures, reference, "hit", status, body)


def _same(failures, reference, kind, status, body) -> None:
    """A ``kind`` answer identical to the epoch's first of its shape.

    Compact and detail answers are compared with their own first
    instance, net of delivery and stopwatch fields: a repeated epoch
    re-polishes its plan, which must come out the same.
    """
    payload = json.loads(body)
    key = (kind, "result" in payload)
    identity = plan_identity(payload)
    expected = reference.setdefault(key, identity)
    failures.check(status == 200 and payload.get("status") == kind
                   and identity == expected,
                   f"elastic-churn: {kind} answer {body[:200]!r} differs "
                   f"from the epoch's first")


async def script(state, failures, cycles: int, probe=None) -> dict:
    """Run the fixed event script; returns the latency summary."""
    log = []
    stats_before = state["service"].stats
    scale = request_body(cluster=CLUSTER, scale=0.5)
    unscale = request_body(cluster=CLUSTER, scale=2.0)
    t_start = time.perf_counter()
    for _ in range(cycles):
        for event in (scale, unscale):
            await _epoch(state, failures, "/v1/events/bandwidth", event, log)
            if probe is not None:
                probe.harvest()
    for k in range(FAILURES):
        node = state["nodes"] - 1 - k
        await _epoch(state, failures, "/v1/events/failure",
                     request_body(cluster=CLUSTER, nodes=[node]), log)
        if probe is not None:
            probe.harvest()
    wall = time.perf_counter() - t_start
    stats = state["service"].stats
    epochs = 2 * cycles + FAILURES
    expected = {"cache_hits": epochs * (1 + HITS), "cache_misses": epochs,
                "template_hits": epochs, "template_misses": 0}
    observed = {
        "cache_hits": stats["cache_hits"] - stats_before["cache_hits"],
        "cache_misses": stats["cache_misses"] - stats_before["cache_misses"],
        "template_hits": stats["template_lookups"]["hit"]
        - stats_before["template_lookups"]["hit"],
        "template_misses": stats["template_lookups"]["miss"]
        - stats_before["template_lookups"]["miss"]}
    failures.check(observed == expected,
                   f"elastic-churn counts {observed} != scripted {expected}")
    # Replan answers are timed from their event and kept out of
    # plan_s, so hits and misses never share one percentile.
    summary = latency_summary([rt for kind, rt, _, _ in log if kind == "hit"],
                              wall)
    summary["plans_per_s"] = len(log) / wall
    summary["replan_s"] = [since for kind, _, _, since in log
                           if kind == "miss"]
    summary["roundtrip_s"] = [rt for _, rt, _, _ in log]
    summary["response_bytes"] = [n for _, _, n, _ in log]
    return summary


def quality(state, failures) -> "tuple[list, list]":
    """Gate each epoch's plan; only full-size epochs have a fabric."""
    predicted, simulated = [], []
    for epoch, (payload, bandwidth, profile, n_nodes) \
            in state["epochs"].items():
        label = f"elastic-churn epoch {epoch}"
        result = read_result(failures, label, payload)
        if result is None:
            continue
        # The fabric is drawn for the full cluster, so only full-size
        # epochs can run on it.
        runner = state["runner"] if n_nodes == state["nodes"] else None
        p, s = check_plan(failures, label, result,
                          state["model"], bandwidth, profile, runner)
        predicted.extend([] if p is None else [p])
        simulated.extend([] if s is None else [s])
    return predicted, simulated


def run(ctx) -> dict:
    """The elastic-churn workload under ``ctx`` (see ``run.py``)."""
    sizes = _sizes(ctx.smoke)
    cycles = 2 if ctx.smoke else max(1, round(ctx.seconds / CYCLE_S))
    # Same inputs for the same seed; the seed reaches the program as
    # the server's SA seed, so plans differ between seeds.
    seed = random.Random(ctx.seed).randrange(1 << 30)

    async def main() -> dict:
        state, setup_s, timings = await ctx.repeat_setup_async(
            lambda: setup(sizes, seed, ctx.failures),
            lambda old: old["stack"].close())
        try:
            untraced = await script(state, ctx.failures, cycles)
        finally:
            await state["stack"].close()
        out = {"setup_s": setup_s, "setup": timings, "untraced": untraced}
        out["predicted"], out["simulated"] = quality(state, ctx.failures)
        if ctx.trace:
            # The failures shrank the cluster for good: trace a fresh one.
            fresh, _ = await setup(sizes, seed, ctx.failures)
            try:
                out["traced"] = await ctx.traced_async(
                    lambda probe: script(fresh, ctx.failures,
                                         ctx.traced_size(cycles), probe))
            finally:
                await fresh["stack"].close()
        return out

    return asyncio.run(main())
