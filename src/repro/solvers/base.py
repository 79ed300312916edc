"""The unified solver abstraction: protocol, result type, registry and
the one entry point.

The paper compares many mapping *strategies* — the five Section-5
heuristics, the exact Section-4 solvers, and local-search refinement —
and runs every one the same way: map, re-validate, total the energy.
This module is that one way, mirroring the platform subsystem's
registry (``repro/platform/topology.py``):

* a :class:`Solver` produces (or transforms) a mapping for one
  :class:`~repro.core.problem.ProblemInstance` and returns a
  :class:`SolverResult` — mapping, independently re-validated energy
  breakdown, failure reason and a ``stats`` dict with wall-clock timings;
* every concrete solver registers under a string key
  (:func:`register_solver`); ``get_solver(name, **options)`` builds one;
* :func:`parse_solver_spec` turns a *spec string* into a composite
  solver: ``+`` chains a producer with transform stages into a
  :class:`~repro.solvers.composite.PipelineSolver`
  (``"dpa2d1d+refine"``), ``|`` joins alternatives into a
  :class:`~repro.solvers.composite.PortfolioSolver`
  (``"greedy|dpa2d1d+refine"``) that returns the best feasible result
  with deterministic, jobs-invariant tie-breaking;
* :func:`run` parses a spec, solves, and records the ``solver.run``
  span and metrics — every caller (experiments, CLI, batch service,
  benchmarks) goes through it.

Every solver's ``solve`` is deterministic given its RNG input.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.evaluate import EnergyBreakdown
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.obs.session import inc, observe, trace_span

__all__ = [
    "SolverResult",
    "Solver",
    "SolverSpec",
    "SOLVERS",
    "register_solver",
    "lookup_solver",
    "get_solver",
    "solver_names",
    "parse_solver_spec",
    "admits_general",
    "run",
]


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run on one problem instance.

    ``energy`` is always the *independently re-validated* breakdown (the
    solver's own bookkeeping is never trusted), so two solvers reporting
    the same mapping report bit-identical energies.  ``stats`` carries
    solver-specific metadata — at least ``{"seconds": wall_clock}``;
    composites add per-stage / per-member sub-records and the portfolio
    winner.  Stats never influence the mapping or its score, and they
    are excluded from equality (timings differ run to run; results must
    not).
    """

    solver: str
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


class Solver(ABC):
    """One mapping strategy (see the module docstring).

    Concrete solvers set ``spec`` (the canonical spec string that
    rebuilds them, used for display and for shipping portfolio members
    to worker processes) and ``kind``:

    ``producer``
        Builds a mapping from the problem alone (heuristics, exact
        solvers).
    ``transform``
        Post-processes an upstream result (refinement); only valid as a
        non-first pipeline stage.
    ``composite``
        Combines other solvers (pipeline, portfolio).
    """

    #: Canonical spec string (set per instance).
    spec: str = "abstract"
    #: One of "producer", "transform", "composite".
    kind: str = "producer"
    #: True when the solver may return a *general* mapping (cyclic
    #: quotient, the paper's Section-7 future work), so report paths
    #: re-check its output with ``require_dag_partition=False``.
    allow_general: bool = False

    @abstractmethod
    def solve(
        self,
        problem: ProblemInstance,
        rng=None,
        upstream: SolverResult | None = None,
    ) -> SolverResult:
        """Solve ``problem``; deterministic given ``rng``.

        ``rng`` is forwarded verbatim (integer seed or Generator) so a
        pipeline's stages share one continuing stream.  ``upstream``
        carries the previous stage's result into transform stages;
        producers ignore it.
        """

    def set_jobs(self, jobs: int | None) -> None:
        """Set worker-process counts on any nested portfolio (no-op here)."""

    def describe(self) -> str:
        """One-line structural description (``repro solvers describe``)."""
        return f"{self.kind} solver {self.spec!r}"


def timed(t0: float) -> dict:
    """A fresh stats dict holding the wall-clock since ``t0``."""
    return {"seconds": time.perf_counter() - t0}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolverSpec:
    """A registered solver: key, one-line summary, kind and a factory.

    The factory signature is ``factory(**options) -> Solver``; options
    are solver-specific (e.g. ``trials`` for ``random``, ``sweeps`` /
    ``schedule`` for the refine stages, ``members`` / ``jobs`` for the
    portfolio).
    """

    name: str
    summary: str
    kind: str
    factory: Callable[..., "Solver"]


#: name -> spec, populated by :func:`register_solver`.
SOLVERS: dict[str, SolverSpec] = {}


def register_solver(name: str, summary: str, kind: str = "producer"):
    """Decorator adding a factory to :data:`SOLVERS` under ``name``."""

    def deco(fn: Callable[..., "Solver"]) -> Callable[..., "Solver"]:
        SOLVERS[name] = SolverSpec(name, summary, kind, fn)
        return fn

    return deco


def solver_names() -> list[str]:
    """All registered solver keys, sorted."""
    return sorted(SOLVERS)


def lookup_solver(name: str) -> SolverSpec | None:
    """The registration behind ``name`` (exact key, else lowercased)."""
    return SOLVERS.get(name) or SOLVERS.get(name.lower())


def get_solver(name: str, **options) -> Solver:
    """Build registered solver ``name`` (case-insensitive key).

    Raises ``KeyError`` with the available names when ``name`` is
    unknown, mirroring :func:`repro.platform.topology.get_topology`.
    """
    spec = lookup_solver(name)
    if spec is None:
        raise KeyError(
            f"unknown solver {name!r}; available: "
            f"{', '.join(solver_names())} (specs compose with '+' and '|')"
        )
    return spec.factory(**options)


def parse_solver_spec(
    spec: "str | Solver", options: dict | None = None
) -> Solver:
    """Turn a spec string into a (possibly composite) solver.

    Grammar: ``spec := member ("|" member)*``, ``member := name ("+"
    name)*``.  A ``+`` chain is a pipeline — the first name must be a
    producer (or composite), the rest transform stages; ``|``
    alternatives form a portfolio.  ``options`` apply to the producer of
    a single pipeline (portfolio specs reject them — configure members
    programmatically instead).

    Raises ``KeyError`` for unknown names and ``ValueError`` for
    structurally invalid specs (e.g. ``"refine"`` with nothing to
    refine).
    """
    from repro.solvers.composite import PipelineSolver, PortfolioSolver

    if isinstance(spec, Solver):
        return spec
    s = spec.strip()
    if not s:
        raise ValueError("empty solver spec")
    if "|" in s:
        if options:
            raise ValueError(
                "producer options cannot be attached to a portfolio spec; "
                "build the members programmatically instead"
            )
        members = [m.strip() for m in s.split("|")]
        return PortfolioSolver(members, spec=s)  # parses each member
    parts = [p.strip() for p in s.split("+")]
    stages = [
        get_solver(part, **(options if i == 0 and options else {}))
        for i, part in enumerate(parts)
    ]
    if len(stages) == 1:
        if stages[0].kind == "transform":
            raise ValueError(
                f"{parts[0]!r} is a transform stage and needs an "
                f"upstream producer (e.g. 'dpa2d1d+{parts[0]}')"
            )
        return stages[0]
    # The stage-kind grammar (a transform cannot start a pipeline, only
    # transforms may follow '+') is enforced once, by PipelineSolver.
    return PipelineSolver(stages, spec=s)


def admits_general(spec: str) -> bool:
    """Whether solver ``spec`` may return a general mapping.

    True when any stage or portfolio member sets ``allow_general``
    (``"greedy+refine-general"``): report paths that re-check a result
    read this to relax only the DAG-partition rule, for only that spec.
    """
    return parse_solver_spec(spec).allow_general


def run(
    spec: "str | Solver", problem: ProblemInstance, rng=None, **options
) -> SolverResult:
    """Run solver ``spec`` on ``problem`` and return its result.

    ``spec`` is anything :func:`parse_solver_spec` accepts: a registered
    name in any case (``"Greedy"``, ``"dpa1d"``), a pipeline
    (``"dpa2d1d+refine"``), a portfolio (``"portfolio"``,
    ``"greedy|dpa1d"``) or a built :class:`Solver`.  Unknown names raise
    ``KeyError`` and structurally invalid specs (a bare transform like
    ``"refine"``, a producer after ``+``) raise ``ValueError``;
    ``options`` go to the producer.

    The result's energy is independently re-validated: a mapping that
    fails validation is an ``INVALID OUTPUT`` failure (a solver bug
    rather than an infeasible instance).  The result carries the name it
    was asked for, so ``run("Greedy", p).solver == "Greedy"`` while the
    registry key is ``"greedy"``.
    """
    solver = parse_solver_spec(spec, options or None)
    name = spec if isinstance(spec, str) else solver.spec
    t0 = time.perf_counter()
    with trace_span("solver.run", solver=name):
        res = solver.solve(problem, rng=rng)
    inc("solver.runs")
    if res.mapping is None:
        inc("solver.failures")
    observe("solver.duration_s", time.perf_counter() - t0)
    return res if res.solver == name else replace(res, solver=name)
