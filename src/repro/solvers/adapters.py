"""Adapters wrapping the existing producers into the solver registry.

Three families:

* :class:`HeuristicSolver` wraps one of the five Section-5 heuristics
  (``repro.heuristics.base.REGISTRY``, registered here under
  ``name.lower()``): run the heuristic, then *independently* re-validate
  its output so results never depend on heuristic-internal bookkeeping
  (the golden mesh fixtures pin this).
* :class:`RefineStage` turns the Section-7 local-search refiner into a
  *transform* stage: ``"dpa2d1d+refine"`` refines DPA2D1D's output,
  continuing the producer's RNG stream; ``"+refine-general"`` admits
  general (non-DAG-partition) mappings.
* :class:`ExactSolver` wraps the ``exact/`` solvers (brute force and the
  Section-4.4 ILP, solved by HiGHS through ``scipy.optimize.milp``).
  Exact solvers are deterministic and ignore the RNG; unsupported
  platforms fail loudly (:class:`~repro.core.errors.UnsupportedPlatform`)
  instead of silently assuming the mesh.
"""

from __future__ import annotations

import time

from repro.core.errors import (
    HeuristicFailure,
    MappingError,
    UnsupportedPlatform,
)
from repro.core.evaluate import validate
from repro.heuristics.base import PAPER_ORDER
from repro.solvers.base import Solver, SolverResult, register_solver, timed

__all__ = ["HeuristicSolver", "RefineStage", "ExactSolver"]


def _validated_result(
    spec: str,
    mapping,
    problem,
    t0: float,
    require_dag_partition: bool = True,
    extra_stats: dict | None = None,
) -> SolverResult:
    """Independently re-validate ``mapping`` and wrap it as a result.

    The shared tail of every adapter: a mapping that fails validation
    becomes an ``INVALID OUTPUT`` failure (a solver bug, not an
    infeasible instance), success carries the re-validated breakdown
    plus the wall-clock since ``t0``.
    """
    try:
        breakdown = validate(
            mapping, problem.period,
            require_dag_partition=require_dag_partition,
        )
    except MappingError as exc:
        return SolverResult(
            spec, None, None,
            failure=f"INVALID OUTPUT: {exc}", stats=timed(t0),
        )
    stats = timed(t0)
    if extra_stats:
        stats.update(extra_stats)
    return SolverResult(spec, mapping, breakdown, stats=stats)


class HeuristicSolver(Solver):
    """A producer wrapping one registered Section-5 heuristic.

    ``heuristic`` is the *heuristic* registry name (``"Random"``,
    ``"Greedy"``, ...) and its lowercase form the solver spec;
    ``options`` are forwarded to the heuristic callable.  The callable is looked up in ``REGISTRY`` at solve time,
    not at construction, because the per-layer benchmark trace
    (``perfbench/layers.py``) wraps the registry entries in place after
    import.
    """

    kind = "producer"

    def __init__(self, heuristic: str, options: dict | None = None) -> None:
        self.heuristic = heuristic
        self.options = dict(options or {})
        self.spec = heuristic.lower()

    def solve(self, problem, rng=None, upstream=None) -> SolverResult:
        from repro.heuristics.base import REGISTRY

        fn = REGISTRY[self.heuristic]
        t0 = time.perf_counter()
        try:
            mapping = fn(problem, rng=rng, **self.options)
        except HeuristicFailure as exc:
            return SolverResult(
                self.spec, None, None,
                failure=str(exc) or "failed", stats=timed(t0),
            )
        return _validated_result(self.spec, mapping, problem, t0)

    def describe(self) -> str:
        return f"producer wrapping the {self.heuristic} heuristic"


class RefineStage(Solver):
    """Transform stage: delta-evaluated local-search refinement.

    Refines the upstream mapping through
    :func:`repro.heuristics.refine.refine_mapping`, forwarding the
    shared RNG verbatim (the refiner continues the producer's stream)
    and re-validating the result with ``require_dag_partition`` relaxed only
    when ``allow_general`` admits general mappings.
    """

    kind = "transform"

    def __init__(
        self,
        sweeps: int = 4,
        schedule: str = "first",
        allow_general: bool = False,
        spec: str = "refine",
    ) -> None:
        self.sweeps = sweeps
        self.schedule = schedule
        self.allow_general = allow_general
        self.spec = spec

    def solve(self, problem, rng=None, upstream=None) -> SolverResult:
        from repro.heuristics.refine import refine_mapping

        if upstream is None or not upstream.ok:
            raise ValueError(
                f"{self.spec!r} is a transform stage: it needs a successful "
                "upstream mapping (use it after a producer, e.g. "
                f"'dpa2d1d+{self.spec}')"
            )
        t0 = time.perf_counter()
        mapping = refine_mapping(
            problem, upstream.mapping, rng=rng, sweeps=self.sweeps,
            allow_general=self.allow_general, schedule=self.schedule,
        )
        return _validated_result(
            self.spec, mapping, problem, t0,
            require_dag_partition=not self.allow_general,
        )

    def describe(self) -> str:
        gen = ", general mappings" if self.allow_general else ""
        return (
            f"transform: local-search refinement "
            f"(schedule={self.schedule}, sweeps={self.sweeps}{gen})"
        )


class ExactSolver(Solver):
    """A producer wrapping one exact solver from ``repro.exact``.

    ``which`` selects ``"bruteforce"`` or ``"ilp"``; ``options`` are
    forwarded (the ILP accepts ``max_nodes``).  The optimiser's own
    objective is discarded in favour of independent re-validation, so
    exact and heuristic results are compared on identical footing.

    An :class:`UnsupportedPlatform` error is recorded as this solver's
    *failure* (message intact, prefixed with the error class) rather
    than propagated: the direct ``exact/`` entry points still raise
    loudly, but inside the run/sweep/portfolio harness an unsupported
    column must count as a failure like any other, not abort the whole
    sweep and discard its completed results.
    """

    kind = "producer"

    def __init__(self, which: str, options: dict | None = None) -> None:
        self.which = which
        self.options = dict(options or {})
        self.spec = which

    def solve(self, problem, rng=None, upstream=None) -> SolverResult:
        t0 = time.perf_counter()
        if self.which == "bruteforce":
            from repro.exact.brute_force import brute_force_optimal as fn
        else:
            from repro.exact.ilp_model import ilp_optimal as fn
        try:
            mapping, objective = fn(problem, **self.options)
        except HeuristicFailure as exc:
            return SolverResult(
                self.spec, None, None,
                failure=str(exc) or "failed", stats=timed(t0),
            )
        except UnsupportedPlatform as exc:
            return SolverResult(
                self.spec, None, None,
                failure=f"UnsupportedPlatform: {exc}", stats=timed(t0),
            )
        return _validated_result(
            self.spec, mapping, problem, t0,
            extra_stats={"objective": objective},
        )

    def describe(self) -> str:
        return f"producer wrapping the exact {self.which} solver"


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
def _register_heuristics() -> None:
    summaries = {
        "Random": "random valid DAG-partition mappings, best of N trials "
                  "(Section 5.1)",
        "Greedy": "speed-level sweep of the forwarding greedy placement "
                  "(Section 5.2)",
        "DPA2D": "2D double dynamic program on the real grid (Section 5.3)",
        "DPA1D": "optimal uni-line DP mapped along the line embedding "
                 "(Section 5.4)",
        "DPA2D1D": "DPA2D on a virtual 1 x pq line, snake-embedded "
                   "(Section 5.4)",
    }
    for name in PAPER_ORDER:

        def factory(_name=name, **options) -> Solver:
            return HeuristicSolver(_name, options)

        register_solver(name.lower(), summaries[name])(factory)


def _register_transforms() -> None:
    for key, schedule, general, summary in (
        ("refine", "first", False,
         "delta-evaluated refinement, first-improvement (Section 7)"),
        ("refine-best", "best", False,
         "delta-evaluated refinement, best-improvement per neighbourhood"),
        ("refine-anneal", "anneal", False,
         "delta-evaluated refinement, simulated annealing"),
        ("refine-general", "first", True,
         "first-improvement refinement admitting general (non-DAG-"
         "partition) mappings (Section-7 future work)"),
    ):

        def factory(_key=key, _schedule=schedule, _general=general,
                    **options) -> Solver:
            options.setdefault("schedule", _schedule)
            options.setdefault("allow_general", _general)
            return RefineStage(spec=_key, **options)

        register_solver(key, summary, kind="transform")(factory)


def _register_exact() -> None:
    register_solver(
        "bruteforce",
        "exhaustive optimal DAG-partition search (tiny instances only)",
        kind="producer",
    )(lambda **options: ExactSolver("bruteforce", options))
    register_solver(
        "ilp",
        "Section-4.4 ILP solved to a proven optimum by HiGHS "
        "(homogeneous mesh only)",
        kind="producer",
    )(lambda **options: ExactSolver("ilp", options))


_register_heuristics()
_register_transforms()
_register_exact()
