"""Unified solver registry and composable pipeline layer.

One abstraction for every mapping strategy — the Section-5 heuristics,
the exact Section-4 solvers, local-search refinement as a pipeline
stage, and portfolios over all of them — run through one entry point,
:func:`run`.  See ``repro.solvers.base`` for the protocol, registry and
``run``, and ``repro.solvers.composite`` for composition; ``repro
solvers list`` surfaces the registry on the CLI.
"""

from repro.solvers.base import (
    SOLVERS,
    Solver,
    SolverResult,
    SolverSpec,
    get_solver,
    lookup_solver,
    parse_solver_spec,
    register_solver,
    run,
    solver_names,
)
from repro.solvers.adapters import ExactSolver, HeuristicSolver, RefineStage
from repro.solvers.composite import (
    PipelineSolver,
    PortfolioSolver,
    portfolio_member_task,
)

__all__ = [
    "SOLVERS",
    "Solver",
    "SolverResult",
    "SolverSpec",
    "get_solver",
    "lookup_solver",
    "parse_solver_spec",
    "register_solver",
    "run",
    "solver_names",
    "ExactSolver",
    "HeuristicSolver",
    "RefineStage",
    "PipelineSolver",
    "PortfolioSolver",
    "portfolio_member_task",
]
