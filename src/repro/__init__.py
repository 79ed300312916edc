"""repro: energy-aware mapping of series-parallel workflows onto CMPs.

Reproduction of Benoit, Melhem, Renaud-Goud and Robert, *Energy-aware
mappings of series-parallel workflows onto chip multiprocessors*
(ICPP 2011 / INRIA RR-7521).

Quickstart::

    from repro import (
        streamit_workflow, CMPGrid, ProblemInstance, run, choose_period,
    )

    app = streamit_workflow("FMRadio")
    grid = CMPGrid(4, 4)
    choice = choose_period(app, grid)          # Section 6.1.3 procedure
    result = run("Greedy", ProblemInstance(app, grid, choice.period))
    print(result.energy.total, "J per period")

Any solver spec from the unified registry works in place of "Greedy" —
``run("dpa2d1d+refine", ...)``, ``run("portfolio", ...)``.  Every solver
returns a :class:`~repro.solvers.SolverResult` (mapping, re-validated
energy, failure, and stats: timings, pipeline stages, portfolio
members).  ``repro solvers list`` on the CLI shows the registry.
"""

from repro.core import (
    BudgetExceeded,
    EnergyBreakdown,
    HeuristicFailure,
    IdealLattice,
    Mapping,
    MappingError,
    ProblemInstance,
    ReproError,
    UnsupportedPlatform,
    cycle_times,
    energy,
    get_kernel,
    is_period_feasible,
    kernel_names,
    max_cycle_time,
    set_default_kernel,
    use_kernel,
    validate,
)
from repro.experiments import (
    CCR_SETTINGS,
    DEFAULT_ELEVATIONS,
    choose_period,
    run_all,
    run_random_experiment,
    run_streamit_experiment,
)
from repro.heuristics import (
    PAPER_ORDER,
    dpa1d_mapping,
    dpa2d1d_mapping,
    dpa2d_mapping,
    greedy_mapping,
    random_mapping,
)
from repro.platform import XSCALE, CMPGrid, PowerModel, xscale_model
from repro.solvers import (
    SolverResult,
    get_solver,
    parse_solver_spec,
    run,
    solver_names,
)
from repro.store import (
    open_store,
    serve_batch,
)
from repro.spg import (
    SPG,
    STREAMIT_TABLE1,
    chain,
    diamond,
    fork_join,
    parallel,
    pipeline_of,
    random_spg,
    random_spg_with_elevation,
    series,
    sp_edge,
    split_join,
    streamit_suite,
    streamit_workflow,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Mapping",
    "ProblemInstance",
    "EnergyBreakdown",
    "IdealLattice",
    "ReproError",
    "MappingError",
    "HeuristicFailure",
    "BudgetExceeded",
    "UnsupportedPlatform",
    "cycle_times",
    "max_cycle_time",
    "is_period_feasible",
    "energy",
    "validate",
    "get_kernel",
    "kernel_names",
    "set_default_kernel",
    "use_kernel",
    # spg
    "SPG",
    "series",
    "parallel",
    "sp_edge",
    "chain",
    "split_join",
    "fork_join",
    "diamond",
    "pipeline_of",
    "random_spg",
    "random_spg_with_elevation",
    "streamit_workflow",
    "streamit_suite",
    "STREAMIT_TABLE1",
    # platform
    "CMPGrid",
    "PowerModel",
    "XSCALE",
    "xscale_model",
    # heuristics
    "PAPER_ORDER",
    "random_mapping",
    "greedy_mapping",
    "dpa1d_mapping",
    "dpa2d_mapping",
    "dpa2d1d_mapping",
    # solvers
    "SolverResult",
    "run",
    "get_solver",
    "parse_solver_spec",
    "solver_names",
    # experiments
    "choose_period",
    "run_all",
    "run_streamit_experiment",
    "run_random_experiment",
    "CCR_SETTINGS",
    "DEFAULT_ELEVATIONS",
    # store
    "open_store",
    "serve_batch",
]
