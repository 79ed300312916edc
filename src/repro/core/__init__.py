"""Core mapping model: Mapping, evaluation, DAG-partitions, problem."""

from repro.core.errors import (
    ReproError,
    MappingError,
    HeuristicFailure,
    BudgetExceeded,
    UnsupportedPlatform,
)
from repro.core.delta import DeltaState, MoveStage, PowerOff, SwapClusters
from repro.core.mapping import Mapping
from repro.core.evaluate import (
    EnergyBreakdown,
    cycle_times,
    max_cycle_time,
    is_period_feasible,
    energy,
    latency,
    validate,
)
from repro.core.visualize import (
    render_label_grid,
    render_link_utilisation,
    render_mapping,
)
from repro.core.kernels import (
    EnumerationKernel,
    KERNELS,
    get_kernel,
    kernel_names,
    register_kernel,
    set_default_kernel,
    use_kernel,
)
from repro.core.partition import (
    quotient_edges,
    is_acyclic_quotient,
    is_dag_partition,
    IdealLattice,
)
from repro.core.problem import ProblemInstance

__all__ = [
    "ReproError",
    "MappingError",
    "HeuristicFailure",
    "BudgetExceeded",
    "UnsupportedPlatform",
    "DeltaState",
    "MoveStage",
    "SwapClusters",
    "PowerOff",
    "Mapping",
    "EnergyBreakdown",
    "cycle_times",
    "max_cycle_time",
    "is_period_feasible",
    "energy",
    "latency",
    "validate",
    "render_label_grid",
    "render_link_utilisation",
    "render_mapping",
    "EnumerationKernel",
    "KERNELS",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "set_default_kernel",
    "use_kernel",
    "quotient_edges",
    "is_acyclic_quotient",
    "is_dag_partition",
    "IdealLattice",
    "ProblemInstance",
]
