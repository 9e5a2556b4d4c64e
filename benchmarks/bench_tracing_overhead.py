"""Tracing overhead: an end-to-end plan must stay within 5%.

The observability layer's contract (``docs/OBSERVABILITY.md``): with
the global tracer *enabled* — spans through the planner, per-candidate
``search.candidate`` synthesis, and the flight recorder riding every
anneal — an end-to-end plan through :class:`PlanningService` costs at
most 5% more wall-clock than with tracing disabled.  Disabled tracing
is near-free by construction (one attribute read per call site), so
the interesting bound is the enabled one.

Identity rides along: the traced and untraced searches must return the
same ranked configurations — telemetry must never perturb the answer.
"""

import time

import pytest

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions, SAOptions
from repro.model import get_model
from repro.obs import TRACER
from repro.service import PlanningService
from repro.units import GIB

SEED = 7

#: Repeats per mode; the *minimum* is compared (robust to scheduler
#: noise in a way means are not).
RUNS = 5


def _service() -> PlanningService:
    gpu = GpuSpec(name="BenchGPU", memory_bytes=16 * GIB, peak_flops=100e12,
                  achievable_fraction=0.5, hbm_gb_s=1500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("NVL", 300.0, alpha_s=1e-6))
    cluster = ClusterSpec(name="bench", n_nodes=4, node=node,
                          inter_link=LinkSpec("IB", 25.0, alpha_s=1e-5))
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=SEED)
    bandwidth = NetworkProfiler(n_rounds=2).profile(
        fabric, seed=SEED).bandwidth
    return PlanningService(cluster, bandwidth)


def _time_plan(service: PlanningService, request) -> float:
    """One uncached end-to-end plan; returns its wall-clock seconds."""
    service.cache.clear()
    t0 = time.perf_counter()
    response = service.plan(request)
    elapsed = time.perf_counter() - t0
    assert response.best is not None
    return elapsed


def test_tracing_overhead_under_5_percent():
    service = _service()
    options = PipetteOptions(sa=SAOptions(max_iterations=1500, seed=SEED),
                             seed=SEED)
    request = service.request(get_model("gpt-1.1b"), 64, options=options)

    TRACER.disable()
    baseline_best = service.plan(request).result  # warmup + identity ref
    service.cache.clear()
    untraced = min(_time_plan(service, request) for _ in range(RUNS))

    TRACER.enable()
    try:
        traced_result = service.plan(request).result
        service.cache.clear()
        traced = min(_time_plan(service, request) for _ in range(RUNS))
    finally:
        TRACER.disable()
        TRACER.reset()

    overhead = traced / untraced - 1.0
    print(f"\nuntraced plan: {untraced * 1e3:8.2f} ms")
    print(f"traced plan:   {traced * 1e3:8.2f} ms")
    print(f"overhead:      {overhead * 100:+7.2f}%  (bound: +5%)")

    # Identity: telemetry never changes the answer.
    ranked = [(e.config, e.estimated_latency_s) for e in baseline_best.ranked]
    ranked_traced = [(e.config, e.estimated_latency_s)
                     for e in traced_result.ranked]
    assert ranked == ranked_traced

    assert overhead < 0.05, (
        f"tracing overhead {overhead * 100:.2f}% exceeds the 5% bound "
        f"(traced {traced * 1e3:.2f} ms vs untraced {untraced * 1e3:.2f} ms)")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
