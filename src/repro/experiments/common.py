"""Shared experiment plumbing: contexts, caching, and table printing."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import AmpConfigurator, VarunaConfigurator
from repro.cluster import (
    Fabric,
    NetworkProfiler,
    ProfiledNetwork,
    high_end_cluster,
    make_fabric,
    mid_range_cluster,
)
from repro.cluster.topology import ClusterSpec
from repro.core import (
    MemoryEstimator,
    PipetteConfigurator,
    PipetteOptions,
    SAOptions,
    build_memory_dataset,
)
from repro.model import TransformerConfig, get_model, model_for_gpus
from repro.profiling import ComputeProfile, profile_compute
from repro.sim import ClusterRunner
from repro.utils.rng import derive_seed


def cluster_by_name(name: str, n_nodes: int = 16) -> ClusterSpec:
    """Look up a Table I preset by name."""
    if name == "mid-range":
        return mid_range_cluster(n_nodes)
    if name == "high-end":
        return high_end_cluster(n_nodes)
    raise ValueError(f"unknown cluster {name!r}; use 'mid-range' or 'high-end'")


#: Module-level cache of fitted memory estimators, keyed by
#: (cluster name, node count, seed, iterations).  A fit at the default
#: 16,000-iteration budget takes about two minutes (130-150 s for the
#: mid-range ladder on a 2-vCPU x86-64 VM), and several experiments
#: share one estimator per cluster — exactly like the paper, which
#: trains the MLP "for each cluster only once".
_ESTIMATOR_CACHE: dict = {}


def fit_memory_estimator(cluster: ClusterSpec, seed: int = 0,
                         iterations: int = 16_000,
                         extra_models: "list[TransformerConfig] | None" = None,
                         ) -> MemoryEstimator:
    """Train (or fetch the cached) memory estimator for a cluster.

    Profiles all configurations on up-to-4-node sub-clusters across
    the cluster's model ladder plus small models, then trains the
    Eq. (7) MLP.
    """
    key = (cluster.name, cluster.n_nodes, seed, iterations)
    if key in _ESTIMATOR_CACHE:
        return _ESTIMATOR_CACHE[key]
    ladder_sizes = (32, 64, 128)
    models: dict[str, TransformerConfig] = {}
    for n_gpus in ladder_sizes:
        try:
            m = model_for_gpus(cluster.name, n_gpus)
            models[m.name] = m
        except KeyError:
            pass
    models.setdefault("gpt-small", get_model("gpt-small"))
    for m in extra_models or []:
        models[m.name] = m
    dataset = build_memory_dataset(
        cluster, list(models.values()), global_batches=[128, 256, 512],
        node_counts=[n for n in (1, 2, 3, 4) if n <= cluster.n_nodes],
        seed=derive_seed(seed, "memory-dataset"),
    )
    estimator = MemoryEstimator(seed=derive_seed(seed, "memory-estimator"))
    estimator.fit(dataset, iterations=iterations)
    _ESTIMATOR_CACHE[key] = estimator
    return estimator


@dataclass
class ExperimentContext:
    """Everything one evaluation scenario needs, built once.

    Bundles the cluster, one fabric draw, the model, the profiled
    network and compute times, the cluster runner (ground truth), and
    lazily-built configurators.
    """

    cluster: ClusterSpec
    fabric: Fabric
    model: TransformerConfig
    network: ProfiledNetwork
    profile: ComputeProfile
    runner: ClusterRunner
    seed: int
    _run_cache: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def create(cluster_name: str, model_name: str | None = None,
               n_nodes: int = 16, seed: int = 0) -> "ExperimentContext":
        """Build a context for a preset cluster and (ladder) model.

        Cluster sizes off the published weak-scaling ladder fall back
        to the nearest smaller ladder model (or the smallest one).
        """
        cluster = cluster_by_name(cluster_name, n_nodes)
        fabric = make_fabric(cluster, seed=derive_seed(seed, "fabric"))
        if model_name:
            model = get_model(model_name)
        else:
            try:
                model = model_for_gpus(cluster_name, cluster.n_gpus)
            except KeyError:
                fitting = [n for n in (32, 64, 128) if n <= cluster.n_gpus]
                pick = max(fitting) if fitting else 32
                model = model_for_gpus(cluster_name, pick)
        network = NetworkProfiler().profile(
            fabric, seed=derive_seed(seed, "profiler"))
        profile = profile_compute(model, cluster,
                                  seed=derive_seed(seed, "compute"))
        runner = ClusterRunner(fabric, model, seed=derive_seed(seed, "runner"))
        return ExperimentContext(cluster=cluster, fabric=fabric, model=model,
                                 network=network, profile=profile,
                                 runner=runner, seed=seed)

    # ------------------------------------------------------------- builders

    def amp(self) -> AmpConfigurator:
        """AMP baseline bound to this context."""
        return AmpConfigurator(self.cluster, self.model,
                               self.fabric.nominal_bandwidth(), self.profile)

    def varuna(self) -> VarunaConfigurator:
        """Varuna baseline bound to this context."""
        return VarunaConfigurator(self.cluster, self.model,
                                  self.fabric.nominal_bandwidth(), self.profile)

    def pipette(self, memory_estimator: MemoryEstimator | None,
                worker_dedication: bool = True,
                sa_iterations: int = 4000,
                sa_time_limit_s: float | None = None,
                sa_top_k: int = 4) -> PipetteConfigurator:
        """Pipette (PPT-LF by default, PPT-L with dedication off)."""
        options = PipetteOptions(
            use_worker_dedication=worker_dedication,
            sa=SAOptions(max_iterations=sa_iterations,
                         time_limit_s=sa_time_limit_s,
                         seed=derive_seed(self.seed, "sa")),
            sa_top_k=sa_top_k,
            seed=derive_seed(self.seed, "pipette"),
        )
        return PipetteConfigurator(self.cluster, self.model,
                                   self.network.bandwidth, self.profile,
                                   memory_estimator, options)

    # ------------------------------------------------------------ measuring

    def measure(self, config, mapping=None):
        """Launch a configuration on the ground-truth cluster (cached
        for the default mapping)."""
        if mapping is None:
            if config not in self._run_cache:
                self._run_cache[config] = self.runner.run(config)
            return self._run_cache[config]
        return self.runner.run(config, mapping)

    def is_runnable(self, config) -> bool:
        """Whether a launch of ``config`` fits in memory."""
        return not self.measure(config).oom


def format_table(rows: list[dict], title: str = "") -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    cells = [[_fmt(r.get(c)) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0.0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
