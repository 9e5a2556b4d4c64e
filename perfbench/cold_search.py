"""cold-search: one caller, distinct requests, every answer a full search.

A closed loop of one caller on :meth:`PlanningService.plan` with the
serial executor and default :class:`PipetteOptions` (3,000 SA
iterations, ``sa_top_k=8``, ``portfolio_k=4``).  Each round asks five
distinct questions on the 16-node Table-1 presets — gpt-1.1b at global
batch 256 and 512 on both, plus a sweep of every registered schedule
at 256 on mid-range — under its own SA seed, so every request misses
the cache.  About 90% of a search is the annealer, which is why this
workload is where annealer work shows and the HTTP and gateway layers
do not appear at all.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import high_end_cluster, mid_range_cluster
from repro.core import (
    MemoryEstimator,
    PipetteOptions,
    SAOptions,
    build_memory_dataset,
)
from repro.model import get_model
from repro.obs.trace import TRACER
from repro.service import PlanningService
from repro.sim import ClusterRunner
from repro.sim.schedule import registered_schedules

from common import check_plan, latency_summary

#: One fabric draw per preset: the benchmark plans for one physical
#: cluster, like the paper; ``--seed`` varies the questions asked.
FABRIC_SEED = 2

#: Nominal wall time of one round on a 2-core x86 host; ``--seconds``
#: is turned into a fixed round count with it, never into a time box.
ROUND_S = 10.0


def _sizes(smoke: bool) -> dict:
    if smoke:
        return {"nodes": 2, "options": PipetteOptions(
            sa=SAOptions(max_iterations=100), sa_top_k=2),
            "estimator_iterations": 30, "node_counts": [1]}
    return {"nodes": 16, "options": PipetteOptions(),
            "estimator_iterations": 300, "node_counts": [1, 2]}


def setup(sizes: dict):
    """Profile both presets, fit the memory estimator, build the services."""
    timings = {}
    t0 = time.perf_counter()
    model = get_model("gpt-1.1b")
    clusters = {"mid-range": mid_range_cluster(sizes["nodes"]),
                "high-end": high_end_cluster(sizes["nodes"])}
    fabrics = {name: make_fabric(cluster, seed=FABRIC_SEED)
               for name, cluster in clusters.items()}
    bandwidths = {name: NetworkProfiler().profile(
        fabric, seed=FABRIC_SEED).bandwidth
        for name, fabric in fabrics.items()}
    t1 = time.perf_counter()
    # One estimator serves both presets: per-GPU memory of a
    # configuration does not depend on the interconnect, and the
    # ClusterRunner check catches any plan that would not fit.
    dataset = build_memory_dataset(
        clusters["mid-range"], [model, get_model("gpt-small")],
        global_batches=[256, 512], node_counts=sizes["node_counts"], seed=1)
    estimator = MemoryEstimator(seed=1)
    estimator.fit(dataset, iterations=sizes["estimator_iterations"])
    t2 = time.perf_counter()
    services = {name: PlanningService(clusters[name], bandwidths[name],
                                      memory_estimator=estimator,
                                      profile_seed=FABRIC_SEED)
                for name in clusters}
    for service in services.values():
        service.profile_for(model)
    t3 = time.perf_counter()
    timings["profile_s"] = (t1 - t0) + (t3 - t2)
    timings["estimator_fit_s"] = t2 - t1
    state = {"model": model, "services": services,
             "runners": {name: ClusterRunner(fabric, model)
                         for name, fabric in fabrics.items()}}
    return state, timings


def requests(state: dict, rng: random.Random, rounds: int,
             options: PipetteOptions) -> list:
    """``rounds`` rounds of the five questions, each under a fresh SA seed."""
    model = state["model"]
    out = []
    for _ in range(rounds):
        seeded = replace(options, seed=rng.randrange(1 << 30))
        batch = []
        for name, service in state["services"].items():
            for global_batch in (256, 512):
                batch.append((name, service.request(
                    model, global_batch, options=seeded)))
        mid = state["services"]["mid-range"]
        batch.append(("mid-range", mid.request(
            model, 256, options=seeded,
            schedules=tuple(registered_schedules()))))
        rng.shuffle(batch)
        out.extend(batch)
    return out


def timed_loop(state, work, failures, probe=None):
    """Answer every request once; returns ``(latency summary, answers)``."""
    plan_s, answers = [], []
    t_start = time.perf_counter()
    for name, request in work:
        service = state["services"][name]
        t0 = time.perf_counter()
        if probe is None:
            response = service.plan(request)
        else:
            with TRACER.span("perfbench.plan", cluster=name):
                response = service.plan(request)
        plan_s.append(time.perf_counter() - t0)
        failures.check(response.status == "miss",
                       f"cold-search: expected a miss, got {response.status}")
        answers.append((name, response.result))
        if probe is not None:
            probe.harvest()
    return latency_summary(plan_s, time.perf_counter() - t_start), answers


def quality(state, answers, failures) -> "tuple[list, list]":
    """Gate every answer; returns predicted and simulated iteration times."""
    predicted, simulated = [], []
    for index, (name, result) in enumerate(answers):
        service = state["services"][name]
        p, s = check_plan(failures, f"cold-search #{index} on {name}",
                          result, state["model"], service.bandwidth,
                          service.profile_for(state["model"]),
                          state["runners"][name])
        predicted.extend([] if p is None else [p])
        simulated.extend([] if s is None else [s])
    return predicted, simulated


def run(ctx) -> dict:
    """The cold-search workload under ``ctx`` (see ``run.py``)."""
    sizes = _sizes(ctx.smoke)
    state, setup_s, timings = ctx.repeat_setup(lambda: setup(sizes))
    rng = random.Random(ctx.seed)
    rounds = 1 if ctx.smoke else max(1, round(ctx.seconds / ROUND_S))
    untraced, answers = timed_loop(
        state, requests(state, rng, rounds, sizes["options"]), ctx.failures)
    predicted, simulated = quality(state, answers, ctx.failures)
    out = {"setup_s": setup_s, "setup": timings, "untraced": untraced,
           "predicted": predicted, "simulated": simulated}
    if ctx.trace:
        # Fresh SA seeds, so the traced round misses the cache too.
        traced_work = requests(state, rng, ctx.traced_size(rounds),
                               sizes["options"])
        out["traced"], traced_answers = ctx.traced(
            lambda probe: timed_loop(state, traced_work, ctx.failures,
                                     probe))
        quality(state, traced_answers, ctx.failures)
        out["rejected"] = sum(result.rejected_oom
                              for _, result in traced_answers)
    return out
