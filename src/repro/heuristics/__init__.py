"""The five mapping heuristics of Section 5, plus the common registry."""

from repro.heuristics.base import (
    HeuristicResult,
    REGISTRY,
    PAPER_ORDER,
    register,
    run,
)
from repro.heuristics.random_heuristic import random_mapping
from repro.heuristics.greedy import greedy_mapping
from repro.heuristics.dpa1d import dpa1d_mapping, solve_uniline
from repro.heuristics.dpa2d import dpa2d_mapping, dpa2d1d_mapping, solve_dpa2d
from repro.heuristics.refine import SCHEDULES, refine_mapping

__all__ = [
    "HeuristicResult",
    "REGISTRY",
    "PAPER_ORDER",
    "register",
    "run",
    "random_mapping",
    "greedy_mapping",
    "dpa1d_mapping",
    "dpa2d_mapping",
    "dpa2d1d_mapping",
    "solve_uniline",
    "solve_dpa2d",
    "SCHEDULES",
    "refine_mapping",
]
