"""The paper's contribution: UML → Simulink CAAM synthesis.

- :mod:`.mapping` — the §4.1 mapping rules (deployment/sequence diagrams →
  CPU-SS / Thread-SS / blocks / ports / data links);
- :mod:`.channels` — §4.2.1 communication-channel inference (SWFIFO/GFIFO);
- :mod:`.barriers` — §4.2.2 cyclic-path detection + UnitDelay insertion;
- :mod:`.taskgraph`, :mod:`.clustering`, :mod:`.allocation` — §4.2.3
  automatic thread allocation by linear clustering;
- :mod:`.optimize` — the optimization pipeline (step 3 of Fig. 2);
- :mod:`.flow` — the end-to-end :func:`synthesize` driver (Figs. 1–2).
"""

from .allocation import (
    AllocationResult,
    allocate_from_interactions,
    allocate_from_model,
    allocate_threads,
    critical_path_cpu,
    plan_from_clusters,
)
from .barriers import (
    BarrierError,
    BarrierReport,
    InsertedBarrier,
    insert_temporal_barriers,
)
from .channels import ChannelReport, infer_channels
from .clustering import (
    ClusteringResult,
    critical_path,
    inter_cluster_communication,
    linear_clustering,
    random_clusters,
    round_robin_clusters,
)
from .flow import (
    FlowError,
    SynthesisResult,
    resolve_plan,
    synthesize,
    synthesize_to_mdl,
    synthesize_xmi,
)
from .mapping import (
    ChannelRequest,
    IoRequest,
    MappingError,
    MappingResult,
    ThreadScope,
    build_transformation,
    map_model,
)
from .optimize import OptimizationPipeline, OptimizationReport
from .taskgraph import (
    TaskGraph,
    TaskGraphError,
    build_task_graph,
    producer_consumer,
    task_graph_from_model,
)

__all__ = [
    "AllocationResult",
    "BarrierError",
    "BarrierReport",
    "ChannelReport",
    "ChannelRequest",
    "ClusteringResult",
    "FlowError",
    "InsertedBarrier",
    "IoRequest",
    "MappingError",
    "MappingResult",
    "OptimizationPipeline",
    "OptimizationReport",
    "SynthesisResult",
    "TaskGraph",
    "TaskGraphError",
    "ThreadScope",
    "allocate_from_interactions",
    "allocate_from_model",
    "allocate_threads",
    "build_task_graph",
    "build_transformation",
    "critical_path",
    "critical_path_cpu",
    "infer_channels",
    "insert_temporal_barriers",
    "inter_cluster_communication",
    "linear_clustering",
    "map_model",
    "plan_from_clusters",
    "producer_consumer",
    "random_clusters",
    "resolve_plan",
    "round_robin_clusters",
    "synthesize",
    "synthesize_to_mdl",
    "synthesize_xmi",
    "task_graph_from_model",
]
