"""3D-parallelism core: configurations, mappings, and communication costs."""

from repro.parallel.config import ParallelConfig, enumerate_parallel_configs
from repro.parallel.mapping import (
    WorkerGrid,
    Mapping,
    sequential_mapping,
    random_block_mapping,
    compact_mapping_after_failure,
    check_slot_geometry,
)
from repro.parallel.collectives import (
    p2p_time,
    ring_allreduce_time,
    hierarchical_allreduce_time,
)
from repro.parallel.messages import (
    pp_message_bytes,
    dp_message_bytes,
    tp_allreduce_bytes,
    TP_ALLREDUCES_PER_LAYER,
    tp_comm_time,
)

__all__ = [
    "ParallelConfig",
    "enumerate_parallel_configs",
    "WorkerGrid",
    "Mapping",
    "sequential_mapping",
    "random_block_mapping",
    "compact_mapping_after_failure",
    "check_slot_geometry",
    "p2p_time",
    "ring_allreduce_time",
    "hierarchical_allreduce_time",
    "pp_message_bytes",
    "dp_message_bytes",
    "tp_allreduce_bytes",
    "TP_ALLREDUCES_PER_LAYER",
    "tp_comm_time",
]
