"""NN-Baton's primary contribution: the hierarchical analytical framework.

* :mod:`repro.core.primitives` -- spatial / temporal / rotating primitives of
  the output-centric dataflow description (Section IV-A).
* :mod:`repro.core.partition` -- planar partition patterns and halo analysis
  (Section IV-C, Figures 7-8).
* :mod:`repro.core.loopnest` -- per-core temporal loop nests built from a
  mapping.
* :mod:`repro.core.c3p` -- the Critical-Capacity Critical-Position memory
  access methodology (Section IV-B, Equations 1-2).
* :mod:`repro.core.traffic` -- hierarchical traffic assembly (DRAM, die-to-die
  ring, L2, L1, register file) including the rotating transfer.
* :mod:`repro.core.cost` -- energy / runtime / area / EDP evaluation.
* :mod:`repro.core.mapping`, :mod:`repro.core.space`,
  :mod:`repro.core.mapper` -- the post-design flow (per-layer exhaustive
  mapping search).
* :mod:`repro.core.dse` -- the pre-design flow (chiplet granularity and
  resource allocation exploration).
* :mod:`repro.core.baton` -- the NN-Baton facade tying both flows together.
"""

from repro.core.baton import NNBaton, PostDesignResult, PreDesignResult
from repro.core.cache import MappingCache
from repro.core.checkpoint import SweepCheckpoint, sweep_digest
from repro.core.cost import CostReport, EnergyBreakdown, evaluate_mapping
from repro.core.parallel import (
    SweepStats,
    TaskError,
    TaskFailure,
    TaskPolicy,
    TransientTaskError,
    resolve_jobs,
    run_tasks,
)
from repro.core.heuristics import heuristic_map_model, heuristic_mapping
from repro.core.c3p import C3PAnalysis, CriticalPoint
from repro.core.loopnest import Loop, LoopNest
from repro.core.mapper import LayerMappingResult, Mapper
from repro.core.mapping import Mapping
from repro.core.partition import PlanarGrid, factor_grids, halo_redundancy_ratio
from repro.core.primitives import (
    LoopOrder,
    PartitionDim,
    RotationKind,
    SpatialPrimitive,
    TemporalPrimitive,
)
from repro.core.space import MappingSpace
from repro.core.dse import (
    DesignPoint,
    DesignSpace,
    explore,
    granularity_study,
    pareto_front,
    refine_with_simulator,
)

__all__ = [
    "C3PAnalysis",
    "CostReport",
    "CriticalPoint",
    "DesignPoint",
    "DesignSpace",
    "EnergyBreakdown",
    "LayerMappingResult",
    "Loop",
    "LoopNest",
    "LoopOrder",
    "Mapper",
    "Mapping",
    "MappingCache",
    "MappingSpace",
    "NNBaton",
    "SweepCheckpoint",
    "SweepStats",
    "TaskError",
    "TaskFailure",
    "TaskPolicy",
    "TransientTaskError",
    "PartitionDim",
    "PlanarGrid",
    "PostDesignResult",
    "PreDesignResult",
    "RotationKind",
    "SpatialPrimitive",
    "TemporalPrimitive",
    "evaluate_mapping",
    "explore",
    "factor_grids",
    "granularity_study",
    "heuristic_map_model",
    "heuristic_mapping",
    "pareto_front",
    "refine_with_simulator",
    "resolve_jobs",
    "run_tasks",
    "sweep_digest",
    "halo_redundancy_ratio",
]
