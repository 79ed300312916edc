"""Period-bound selection (Section 6.1.3).

For each workflow the paper starts from ``T = 1 s`` (where at least one
heuristic succeeds), iteratively divides the period by 10 and re-runs all
heuristics until *all* of them fail; the retained period is the penultimate
value — the last one before total failure.  This gives the mapping problem
"some tightness": at least one heuristic succeeds at ``T`` but none does at
``T / 10``.

Our stage weights are synthesised, so as a safety net the search also walks
*up* by the same factor if every heuristic already fails at the starting
period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluate import period_out_of_reach
from repro.core.problem import ProblemInstance
from repro.heuristics.base import PAPER_ORDER, HeuristicResult, run
from repro.platform.topology import Topology
from repro.spg.graph import SPG
from repro.util.rng import as_rng

__all__ = ["PeriodChoice", "choose_period", "run_all"]


@dataclass(frozen=True)
class PeriodChoice:
    """The selected period and the heuristic results obtained at it."""

    period: float
    results: dict[str, HeuristicResult]

    @property
    def successes(self) -> int:
        return sum(1 for r in self.results.values() if r.ok)


def run_all(
    problem: ProblemInstance,
    heuristics=PAPER_ORDER,
    rng=None,
    options: dict | None = None,
) -> dict[str, HeuristicResult]:
    """Run every solver on ``problem`` with per-solver RNG streams.

    ``heuristics`` entries are Section-5 heuristic names or any solver
    spec from the unified registry (``"dpa2d1d+refine"``,
    ``"portfolio"``, ...); each gets an independent child stream drawn
    from the shared ``rng`` in column order.
    """
    rng = as_rng(rng)
    options = options or {}
    out: dict[str, HeuristicResult] = {}
    for name in heuristics:
        child = as_rng(int(rng.integers(0, 2**63 - 1)))
        out[name] = run(name, problem, rng=child, **options.get(name, {}))
    return out


def choose_period(
    spg: SPG,
    grid: Topology,
    heuristics=PAPER_ORDER,
    start: float = 1.0,
    factor: float = 10.0,
    max_steps: int = 8,
    rng=None,
    options: dict | None = None,
    seed: int | None = None,
) -> PeriodChoice:
    """Select the period by the paper's divide-by-10 procedure.

    Returns the penultimate period (the tightest one where at least one
    heuristic succeeds) together with the results obtained there.  Raises
    ``RuntimeError`` if no period in the searched range admits any valid
    mapping (which would mean the instance is broken).

    ``seed`` is the heuristic seed normally drawn from ``rng`` as the first
    step; the parallel experiment engine pre-draws it in the parent process
    (preserving the shared stream's consumption order exactly) and passes
    it here so workers reproduce the serial results bit for bit.

    A probe that no mapping can pass is skipped: when some stage alone
    misses ``T`` on the platform's fastest core
    (:func:`~repro.core.evaluate.period_out_of_reach`), every solver's
    output would fail the same period test in
    :func:`~repro.core.evaluate.validate`, so the probe counts as "all
    fail" without running any solver.  Each probe draws its solver
    streams afresh from ``seed`` and only a probe with a success is ever
    returned, so skipping leaves the choice identical.
    """
    if seed is None:
        rng = as_rng(rng)
        seed = int(rng.integers(0, 2**63 - 1))

    def attempt(T: float) -> dict[str, HeuristicResult]:
        if period_out_of_reach(spg, grid, T):
            return {}
        return run_all(
            ProblemInstance(spg, grid, T), heuristics, as_rng(seed), options
        )

    T = start
    results = attempt(T)
    steps = 0
    while not any(r.ok for r in results.values()):
        # Safety net: walk up until something succeeds.
        T *= factor
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"no heuristic succeeds for any period up to {T:g}"
            )
        results = attempt(T)
    # Walk down while at least one heuristic still succeeds.
    for _ in range(max_steps):
        tighter = attempt(T / factor)
        if not any(r.ok for r in tighter.values()):
            break
        T /= factor
        results = tighter
    return PeriodChoice(T, results)
