"""Composite solvers: pipelines and portfolios.

:class:`PipelineSolver` chains a producer with transform stages
(``"dpa2d1d+refine"``): every stage receives the *same* RNG value, so a
heuristic followed by refinement consumes one continuing stream —
pinned bit-identical to the pre-registry heuristic-then-refine call
sequence by ``tests/test_solvers.py``.

:class:`PortfolioSolver` runs N registered solvers on the same instance
(``"greedy|dpa2d1d+refine"``) and returns the best feasible mapping.
Member seeds are pre-drawn serially from the portfolio RNG and members
are dispatched through the PR-1 parallel engine
(:func:`repro.experiments.parallel.run_tasks`), so the winner — ties
broken deterministically toward the earliest member — is bit-identical
for any ``jobs`` value.  Members are resolved to solver objects once at
construction (spec strings are parsed, configured solvers keep their
options) and those objects are shipped to the workers, so serial and
pooled execution run literally the same solvers.
"""

from __future__ import annotations

import time

from repro.core.errors import ReproError
from repro.obs.session import trace_span
from repro.solvers.base import (
    Solver,
    SolverResult,
    parse_solver_spec,
    register_solver,
    timed,
)
from repro.util.rng import as_rng

__all__ = ["PipelineSolver", "PortfolioSolver", "portfolio_member_task"]


class PipelineSolver(Solver):
    """A producer followed by transform stages, run left to right.

    A stage failure short-circuits the pipeline (matching the legacy
    behaviour of never refining a failed heuristic); the failure is
    reported under the pipeline's own spec with the failing stage named
    in ``stats``.
    """

    kind = "composite"

    def __init__(self, stages: list[Solver], spec: str | None = None) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        if stages[0].kind == "transform":
            raise ValueError(
                f"pipeline stage {stages[0].spec!r} is a transform and "
                "cannot come first"
            )
        for st in stages[1:]:
            if st.kind != "transform":
                raise ValueError(
                    f"pipeline stage {st.spec!r} must be a transform "
                    "(only the first stage produces a mapping)"
                )
        self.stages = list(stages)
        self.allow_general = any(st.allow_general for st in stages)
        self.spec = spec if spec is not None else "+".join(
            st.spec for st in stages
        )

    def solve(self, problem, rng=None, upstream=None) -> SolverResult:
        t0 = time.perf_counter()
        res = upstream
        stage_stats: list[dict] = []
        for stage in self.stages:
            with trace_span(
                "solver.stage", stage=stage.spec, pipeline=self.spec
            ):
                res = stage.solve(problem, rng=rng, upstream=res)
            stage_stats.append({
                "solver": stage.spec,
                "ok": res.ok,
                "energy": None if not res.ok else res.total_energy,
                "seconds": res.stats.get("seconds"),
            })
            if not res.ok:
                break
        stats = timed(t0)
        stats["stages"] = stage_stats
        return SolverResult(
            self.spec, res.mapping, res.energy, res.failure, stats=stats
        )

    def set_jobs(self, jobs: int | None) -> None:
        for stage in self.stages:
            stage.set_jobs(jobs)

    def describe(self) -> str:
        return "pipeline: " + " -> ".join(
            f"{st.spec} ({st.describe()})" for st in self.stages
        )


def portfolio_member_task(task) -> SolverResult:
    """Worker for one portfolio member: ``(solver, problem, seed)``.

    The member solver is solved with its pre-drawn seed, so the result
    is a pure function of the task tuple — identical whether it runs
    in-process or in a pool worker.  Library errors a member raises
    *loudly* on its own (e.g. :class:`UnsupportedPlatform` from the ILP
    off the mesh) are recorded as that member's failure here, keeping
    the portfolio's best-feasible-member contract; non-library
    exceptions still propagate as genuine bugs.
    """
    solver, problem, seed = task
    with trace_span("solver.member", solver=solver.spec):
        try:
            return solver.solve(problem, rng=as_rng(seed))
        except ReproError as exc:
            return SolverResult(
                solver.spec, None, None,
                failure=f"{type(exc).__name__}: {exc}",
            )


class PortfolioSolver(Solver):
    """Run every member on the instance; keep the best feasible mapping.

    ``members`` are solver specs (strings, parsed once here) or
    configured :class:`Solver` objects, which are used as given — their
    options survive pool dispatch because the objects themselves are
    shipped to the workers.  One seed per member is pre-drawn from the
    portfolio RNG in member order; the winner is the lowest
    re-validated total energy, ties broken toward the earliest member —
    both independent of ``jobs``.
    """

    kind = "composite"

    def __init__(
        self,
        members: "list[str | Solver]",
        jobs: int | None = 1,
        spec: str | None = None,
    ) -> None:
        if not members:
            raise ValueError("a portfolio needs at least one member")
        self._solvers = [parse_solver_spec(m) for m in members]
        self.members = [s.spec for s in self._solvers]
        self.allow_general = any(s.allow_general for s in self._solvers)
        self.jobs = jobs
        self.spec = spec if spec is not None else "|".join(self.members)

    def solve(self, problem, rng=None, upstream=None) -> SolverResult:
        from repro.experiments.parallel import run_tasks
        from repro.resilience import TaskFailure

        t0 = time.perf_counter()
        rng = as_rng(rng)
        seeds = [int(rng.integers(0, 2**63 - 1)) for _ in self._solvers]
        tasks = [
            (solver, problem, seed)
            for solver, seed in zip(self._solvers, seeds)
        ]
        # Degrade, don't abort: a member lost to a crashed/hung worker
        # (after retries) becomes that member's failure, and the
        # portfolio still returns the best *surviving* mapping.
        with trace_span("solver.portfolio", members=len(self._solvers)):
            results = run_tasks(
                portfolio_member_task, tasks, jobs=self.jobs,
                failures="record", tokens=seeds,
            )
        results = [
            SolverResult(
                self._solvers[i].spec, None, None, failure=r.describe()
            ) if isinstance(r, TaskFailure) else r
            for i, r in enumerate(results)
        ]
        best_i: int | None = None
        for i, r in enumerate(results):
            if r.ok and (
                best_i is None
                or r.total_energy < results[best_i].total_energy
            ):
                best_i = i
        stats = timed(t0)
        stats.update({
            "members": [
                {
                    "solver": spec,
                    "ok": r.ok,
                    "energy": r.total_energy if r.ok else None,
                    "failure": r.failure,
                    "seconds": r.stats.get("seconds"),
                }
                for spec, r in zip(self.members, results)
            ],
            "winner": None if best_i is None else self.members[best_i],
        })
        if best_i is None:
            return SolverResult(
                self.spec, None, None,
                failure="portfolio: every member failed", stats=stats,
            )
        win = results[best_i]
        return SolverResult(
            self.spec, win.mapping, win.energy, stats=stats
        )

    def set_jobs(self, jobs: int | None) -> None:
        self.jobs = jobs

    def describe(self) -> str:
        return (
            "portfolio (best feasible member, deterministic tie-break): "
            + ", ".join(self.members)
        )


@register_solver(
    "portfolio",
    "run all five Section-5 heuristics, keep the best feasible mapping "
    "(jobs-invariant)",
    kind="composite",
)
def _portfolio_factory(members=None, jobs: int | None = 1):
    if members is None:
        members = ["random", "greedy", "dpa2d", "dpa1d", "dpa2d1d"]
    return PortfolioSolver(list(members), jobs=jobs, spec="portfolio")
