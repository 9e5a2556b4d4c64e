"""Ablation benches for the design choices DESIGN.md §5 calls out.

* SA move sets (the paper motivates the *reverse* move).
* The hidden-critical-path term of the latency model (Eq. 3 vs Eq. 1).
* Profiled vs nominal bandwidth in the latency model.
* The memory-estimator soft margin vs the OOM rate of recommendations.
"""

import pytest
from conftest import BENCH_SEED, run_once

from repro.core import SAOptions, anneal_mapping
from repro.core.latency_model import LatencyModelOptions, latency_with_options
from repro.experiments import format_table
from repro.experiments.common import ExperimentContext
from repro.parallel import ParallelConfig, WorkerGrid, sequential_mapping
from repro.units import mape


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.create("high-end", seed=BENCH_SEED)


@pytest.fixture(scope="module")
def sa_setup(ctx):
    config = ParallelConfig(pp=4, tp=8, dp=4, micro_batch=4,
                            global_batch=512)
    mapping = sequential_mapping(WorkerGrid(4, 8, 4), ctx.cluster)

    def objective(m):
        from repro.core.latency_model import pipette_latency
        return pipette_latency(ctx.model, config, m, ctx.network.bandwidth,
                               ctx.profile)

    return config, mapping, objective


def test_ablation_sa_move_sets(benchmark, sa_setup):
    config, mapping, objective = sa_setup

    def sweep():
        results = {}
        for moves in (("swap",), ("migrate",), ("reverse",),
                      ("migrate", "swap"), ("migrate", "swap", "reverse")):
            r = anneal_mapping(mapping, objective,
                               SAOptions(max_iterations=4000, moves=moves,
                                         seed=BENCH_SEED))
            results["+".join(moves)] = r
        return results

    results = run_once(benchmark, sweep)
    rows = [{
        "moves": k,
        "final_estimate_s": r.value,
        "improvement_%": r.improvement * 100,
        "accepted": r.accepted,
    } for k, r in results.items()]
    print("\n" + format_table(rows, title="SA move-set ablation "
                                          f"({config.describe()})"))
    full = results["migrate+swap+reverse"]
    # The full move set must not lose to any single-move subset.
    for k, r in results.items():
        assert full.value <= r.value * 1.01, k
    # Every move set must at least not regress from the naive mapping.
    assert all(r.value <= r.initial_value for r in results.values())


def test_ablation_hidden_critical_path(benchmark, ctx):
    """Eq. (3)'s hidden-path term vs Eq. (1), scored against the engine.

    The hidden term charges inter-stage communication once per 1F1B
    round instead of once per iteration.  Its effect is a *bias*
    correction: without it the model can only underestimate.  The
    assertion therefore checks signed bias, and on the deep-pipeline
    configurations where the term matters most it must close the gap.
    """

    def run():
        ranked = ctx.pipette(None, worker_dedication=False).search(512).ranked
        est_with, est_without, actual, deep = [], [], [], []
        for entry in ranked:
            config = entry.config
            run_ = ctx.measure(config)
            if run_.oom:
                continue
            mapping = sequential_mapping(
                WorkerGrid(config.pp, config.tp, config.dp), ctx.cluster)
            base = dict(hidden_critical_path=True,
                        collective_efficiency=0.88, dp_exposure_aware=True)
            est_with.append(latency_with_options(
                ctx.model, config, mapping, ctx.network.bandwidth,
                ctx.profile, LatencyModelOptions(**base)))
            est_without.append(latency_with_options(
                ctx.model, config, mapping, ctx.network.bandwidth,
                ctx.profile,
                LatencyModelOptions(**{**base,
                                       "hidden_critical_path": False})))
            actual.append(run_.time_per_iter_s)
            deep.append(config.pp >= 8 and config.n_microbatches >= 2 * config.pp)
            if len(actual) >= 12:
                break
        return est_with, est_without, actual, deep

    est_with, est_without, actual, deep = run_once(benchmark, run)
    bias_with = sum((e - a) / a for e, a in zip(est_with, actual)) / len(actual)
    bias_without = sum((e - a) / a
                       for e, a in zip(est_without, actual)) / len(actual)
    print(f"\nhidden-path ablation over {len(actual)} runnable configs: "
          f"signed bias with={bias_with * 100:+.2f}%  "
          f"without={bias_without * 100:+.2f}%")
    # Dropping the term can only lower estimates: strictly more
    # negative bias, i.e. systematic underestimation.
    assert bias_without < bias_with
    assert all(w >= wo for w, wo in zip(est_with, est_without))


def test_ablation_profiled_vs_nominal_bandwidth(benchmark, ctx):
    def run():
        sample = [r.config for r in
                  ctx.pipette(None, worker_dedication=False)
                  .search(512).ranked[:18]]
        est_prof, est_nom, actual = [], [], []
        nominal = ctx.fabric.nominal_bandwidth()
        for config in sample:
            run_ = ctx.measure(config)
            if run_.oom:
                continue
            mapping = sequential_mapping(
                WorkerGrid(config.pp, config.tp, config.dp), ctx.cluster)
            opts = LatencyModelOptions(collective_efficiency=0.88,
                                       dp_exposure_aware=True)
            est_prof.append(latency_with_options(
                ctx.model, config, mapping, ctx.network.bandwidth,
                ctx.profile, opts))
            est_nom.append(latency_with_options(
                ctx.model, config, mapping, nominal, ctx.profile, opts))
            actual.append(run_.time_per_iter_s)
        return est_prof, est_nom, actual

    est_prof, est_nom, actual = run_once(benchmark, run)
    prof_mape = mape(est_prof, actual)
    nom_mape = mape(est_nom, actual)
    print(f"\nbandwidth ablation over {len(actual)} configs: "
          f"MAPE profiled={prof_mape:.2f}%  nominal={nom_mape:.2f}%")
    assert prof_mape < nom_mape


def test_ablation_soft_margin(benchmark, ctx, high_estimator):
    """Margin sweep: OOM rate and quality of the top recommendation."""

    def sweep():
        rows = []
        for margin in (0.85, 0.90, 0.95, 1.0):
            high_estimator.soft_margin = margin
            try:
                result = ctx.pipette(high_estimator,
                                     worker_dedication=False).search(512)
            finally:
                high_estimator.soft_margin = 0.95
            top = result.ranked[:10]
            ooms = sum(1 for r in top if not ctx.is_runnable(r.config))
            best_time = None
            for r in result.ranked:
                run_ = ctx.measure(r.config)
                if not run_.oom:
                    best_time = run_.time_per_iter_s
                    break
            rows.append({"margin": margin, "top10_oom": ooms,
                         "best_runnable_s": best_time,
                         "feasible": len(result.ranked)})
        return rows

    rows = run_once(benchmark, sweep)
    print("\n" + format_table(rows, title="soft-margin ablation (high-end)"))
    by_margin = {r["margin"]: r for r in rows}
    # Tighter margins admit fewer configurations and surface fewer OOMs.
    assert by_margin[0.85]["feasible"] <= by_margin[1.0]["feasible"]
    assert by_margin[0.85]["top10_oom"] <= by_margin[1.0]["top10_oom"]
