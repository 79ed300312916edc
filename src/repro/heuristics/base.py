"""Common interface and registry for the five heuristics of Section 5.

Each heuristic is a callable ``(problem, rng=None, **options) -> Mapping``
raising :class:`repro.core.errors.HeuristicFailure` when it cannot produce a
valid mapping (a normal outcome counted by Tables 2 and 3 of the paper).
:func:`run` wraps a heuristic call with independent re-validation and energy
accounting so results never depend on heuristic-internal bookkeeping.

``run`` is a thin front on the unified solver layer (``repro.solvers``):
the name may be a Section-5 heuristic or any solver spec
(``"dpa2d1d+refine"``, ``"portfolio"``) — the registry-routed path is
pinned bit-identical to the historical direct calls by the golden
fixtures and ``tests/test_solvers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.evaluate import EnergyBreakdown
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance

__all__ = ["HeuristicResult", "REGISTRY", "PAPER_ORDER", "register", "run"]


@dataclass(frozen=True)
class HeuristicResult:
    """Outcome of one solver run on one problem instance.

    The legacy-stable view of :class:`repro.solvers.SolverResult` that
    the experiment records are built from (kept a separate frozen type
    so its positional field order and equality semantics never move).
    ``stats`` carries the solver layer's metadata — wall-clock timings,
    pipeline stages, portfolio members/winner — and is excluded from
    equality (timings differ run to run; results must not).
    """

    name: str
    mapping: Mapping | None
    energy: EnergyBreakdown | None
    failure: str | None = None
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return self.mapping is not None

    @property
    def total_energy(self) -> float:
        """Total energy, or +inf for failures (for min/normalisation)."""
        return self.energy.total if self.energy is not None else float("inf")


#: name -> heuristic callable
REGISTRY: dict[str, Callable[..., Mapping]] = {}

#: Heuristic names in the order the paper's plots list them.
PAPER_ORDER = ("Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D")


def register(name: str):
    """Class/function decorator adding a heuristic to :data:`REGISTRY`."""

    def deco(fn: Callable[..., Mapping]) -> Callable[..., Mapping]:
        REGISTRY[name] = fn
        return fn

    return deco


def run(
    name: str,
    problem: ProblemInstance,
    rng=None,
    **options,
) -> HeuristicResult:
    """Run solver ``name`` and re-validate its output independently.

    ``name`` is a Section-5 heuristic registry name (``"Random"``, ...)
    or any solver spec accepted by
    :func:`repro.solvers.parse_solver_spec` (``"dpa2d1d+refine"``,
    ``"bruteforce"``, ``"portfolio"``, ``"greedy|dpa1d"``); unknown
    names raise ``KeyError`` and structurally invalid specs (a bare
    transform like ``"refine"``, a producer after ``+``) raise
    ``ValueError``.  A mapping that fails independent
    validation is treated as a failure (and flagged in the failure
    message, since it would indicate a solver bug rather than an
    infeasible instance).

    Refinement is a pipeline stage of the spec: ``run("dpa2d1d+refine",
    p)`` refines DPA2D1D's mapping with the delta-evaluated local search
    (``+refine-best``, ``+refine-anneal`` pick other schedules),
    continuing the solver's RNG stream, and re-validates the result the
    same way.  ``options`` go to the producer.
    """
    from time import perf_counter

    from repro.obs.session import inc, observe, trace_span
    from repro.solvers import solver_for_run

    solver = solver_for_run(name, options)
    t0 = perf_counter()
    with trace_span("solver.run", solver=name):
        res = solver.solve(problem, rng=rng)
    inc("solver.runs")
    if res.mapping is None:
        inc("solver.failures")
    observe("solver.duration_s", perf_counter() - t0)
    return HeuristicResult(
        name, res.mapping, res.energy, res.failure, stats=res.stats
    )
