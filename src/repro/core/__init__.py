"""Pipette core: the paper's three contributions plus Algorithm 1.

* :mod:`repro.core.latency_model` — the refined critical-path latency
  model (Eqs. 3-6) and the prior-art model (Eq. 1) it improves on;
* :mod:`repro.core.latency_kernel` — the vectorized, bit-identical
  compilation of that model the annealer's hot loop evaluates;
* :mod:`repro.core.annealing` — simulated-annealing worker dedication
  with the paper's migration/swap/reverse move set (§IV);
* :mod:`repro.core.memory_estimator` — the MLP-based memory estimator
  with its soft margin (§VI, Eq. 7);
* :mod:`repro.core.configurator` — the end-to-end search procedure
  (Algorithm 1) and its PPT-L / PPT-LF ablation variants;
* :mod:`repro.core.templates` — precomputed pipeline templates across
  node counts for elastic failover (Oobleck-style).
"""

from repro.core.latency_model import (
    LatencyModelOptions,
    pipette_latency,
    prior_art_latency,
    latency_with_options,
)
from repro.core.latency_kernel import LatencyKernel, pipette_kernel
from repro.core.annealing import (
    SAOptions,
    SAResult,
    anneal_mapping,
)
from repro.core.memory_dataset import MemoryDataset, build_memory_dataset
from repro.core.memory_estimator import MemoryEstimator, memory_features
from repro.core.configurator import (
    PipetteOptions,
    PipetteResult,
    RankedConfig,
    PipetteConfigurator,
    pipette_l,
    pipette_lf,
)
from repro.core.templates import (
    TEMPLATE_LIBRARY_VERSION,
    PipelineTemplate,
    PipelineTemplateGenerator,
    TemplateLibrary,
    stage_layer_split,
)

__all__ = [
    "LatencyModelOptions",
    "pipette_latency",
    "prior_art_latency",
    "latency_with_options",
    "LatencyKernel",
    "pipette_kernel",
    "SAOptions",
    "SAResult",
    "anneal_mapping",
    "MemoryDataset",
    "build_memory_dataset",
    "MemoryEstimator",
    "memory_features",
    "PipetteOptions",
    "PipetteResult",
    "RankedConfig",
    "PipetteConfigurator",
    "pipette_l",
    "pipette_lf",
    "TEMPLATE_LIBRARY_VERSION",
    "PipelineTemplate",
    "PipelineTemplateGenerator",
    "TemplateLibrary",
    "stage_layer_split",
]
