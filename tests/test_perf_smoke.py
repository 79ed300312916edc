"""Performance regression guard for the fast evaluation core.

The budgets are *generous* (an order of magnitude above the measured
times on the reference container) so the guard only trips on genuine
regressions — e.g. a cache accidentally dropped from the hot path — and
not on machine noise.  Set ``REPRO_SKIP_PERF_SMOKE=1`` to skip, e.g. on
heavily loaded or exotic CI hardware.
"""

from __future__ import annotations

import os
import time

import pytest

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="REPRO_SKIP_PERF_SMOKE=1",
)

#: Wall-time budgets (seconds).  Reference container measurements:
#: eval core ~0.2 s, DPA1D instance ~0.5 s.
EVAL_CORE_BUDGET = 5.0
DPA1D_BUDGET = 10.0


def test_evaluation_core_stays_fast():
    from repro.core.evaluate import cycle_times, energy, validate
    from repro.core.problem import ProblemInstance
    from repro.solvers import run
    from repro.platform.cmp import CMPGrid
    from repro.spg.random_gen import random_spg

    spg = random_spg(50, rng=42, ccr=1.0)
    grid = CMPGrid(4, 4)
    prob = ProblemInstance(spg, grid, 1.0)
    res = run("Greedy", prob, rng=42)
    assert res.ok
    mapping = res.mapping
    t0 = time.perf_counter()
    for _ in range(2000):
        cycle_times(mapping)
        energy(mapping, prob.period)
        validate(mapping, prob.period)
    elapsed = time.perf_counter() - t0
    assert elapsed < EVAL_CORE_BUDGET, (
        f"evaluation core took {elapsed:.2f}s for 2000 reps "
        f"(budget {EVAL_CORE_BUDGET}s) — a hot-path cache regressed"
    )


def test_dpa1d_solver_stays_fast():
    from repro.experiments import choose_period
    from repro.platform.cmp import CMPGrid
    from repro.spg.random_gen import random_spg_with_elevation
    from repro.util.rng import as_rng

    rng = as_rng(2011)
    spg = random_spg_with_elevation(50, 4, rng=rng, ccr=10.0)
    t0 = time.perf_counter()
    choice = choose_period(spg, CMPGrid(4, 4), heuristics=("DPA1D",), rng=rng)
    elapsed = time.perf_counter() - t0
    assert choice.results  # it ran
    assert elapsed < DPA1D_BUDGET, (
        f"DPA1D choose_period took {elapsed:.2f}s "
        f"(budget {DPA1D_BUDGET}s) — the DP fast path regressed"
    )
