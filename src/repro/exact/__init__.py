"""Exact solvers for tiny instances: brute force and the Section-4.4 ILP."""

from repro.exact.brute_force import brute_force_optimal, enumerate_dag_partitions
from repro.exact.ilp_model import (
    IlpModel,
    build_ilp,
    ilp_optimal,
    require_ilp_platform,
)

__all__ = [
    "brute_force_optimal",
    "enumerate_dag_partitions",
    "IlpModel",
    "build_ilp",
    "ilp_optimal",
    "require_ilp_platform",
]
