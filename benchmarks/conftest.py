"""Shared benchmark fixtures: trained estimators, reused per session.

The memory-estimator MLP takes about two minutes to train at the
session's 16,000-iteration budget (130-150 s for the mid-range ladder
on a 2-vCPU x86-64 VM); the paper trains it "for each cluster only
once", so the session does too.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import cluster_by_name, fit_memory_estimator

#: Seed used by all macro-benchmarks (one concrete fabric draw, like
#: the paper's one physical cluster).
BENCH_SEED = 2

#: Estimator training budget for the benchmark session.
ESTIMATOR_ITERATIONS = 16_000


@pytest.fixture(scope="session")
def mid_estimator():
    """Memory estimator trained on the mid-range cluster's profiles."""
    return fit_memory_estimator(cluster_by_name("mid-range"),
                                seed=BENCH_SEED,
                                iterations=ESTIMATOR_ITERATIONS)


@pytest.fixture(scope="session")
def high_estimator():
    """Memory estimator trained on the high-end cluster's profiles."""
    return fit_memory_estimator(cluster_by_name("high-end"),
                                seed=BENCH_SEED,
                                iterations=ESTIMATOR_ITERATIONS)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a macro-experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
