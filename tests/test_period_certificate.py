"""The period search's infeasibility certificate.

``choose_period`` skips a probe when some stage alone misses the period
on the platform's fastest core (``period_out_of_reach``).  These tests
pin the two halves of that claim: the certificate is sound (every
solver really fails at such a period, heuristics and brute force alike)
and skipping is invisible (the search returns exactly what a loop that
runs every probe returns, failure strings included).
"""

from __future__ import annotations

import pytest

from repro.core.evaluate import period_out_of_reach
from repro.core.problem import ProblemInstance
from repro.experiments import period
from repro.experiments.period import PeriodChoice, choose_period, run_all
from repro.heuristics.base import PAPER_ORDER
from repro.platform.cmp import CMPGrid
from repro.platform.speeds import xscale_model
from repro.platform.topology import get_topology
from repro.spg.random_gen import random_spg
from repro.util.rng import as_rng

XSCALE = xscale_model()


def _platforms():
    return {
        "mesh": get_topology("mesh", 2, 2, XSCALE),
        "torus": get_topology("torus", 2, 3, XSCALE),
        "ring": get_topology("ring", 2, 2, XSCALE),
        "hetmesh": get_topology("hetmesh", 2, 2, XSCALE),
        # One core clocked above the base model: s_fast is that core's.
        "bigcore": CMPGrid(2, 2, XSCALE, speed_scales=(((1, 1), 2.0),)),
    }


def _s_fast(grid) -> float:
    return max(grid.core_model(c).s_max for c in grid.cores())


def reference_choose_period(spg, grid, heuristics=PAPER_ORDER, start=1.0,
                            factor=10.0, max_steps=8, rng=None,
                            options=None):
    """The period search as it was before the certificate: every probe
    runs every solver."""
    seed = int(as_rng(rng).integers(0, 2**63 - 1))

    def attempt(T):
        return run_all(
            ProblemInstance(spg, grid, T), heuristics, as_rng(seed), options
        )

    T = start
    results = attempt(T)
    steps = 0
    while not any(r.ok for r in results.values()):
        T *= factor
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"no heuristic succeeds for any period up to {T:g}"
            )
        results = attempt(T)
    for _ in range(max_steps):
        tighter = attempt(T / factor)
        if not any(r.ok for r in tighter.values()):
            break
        T /= factor
        results = tighter
    return PeriodChoice(T, results)


def _assert_same_choice(got: PeriodChoice, want: PeriodChoice) -> None:
    assert got.period == want.period
    assert list(got.results) == list(want.results)
    for name, res in want.results.items():
        # SolverResult equality covers the name, the mapping, the energy
        # and the failure string.
        assert got.results[name] == res, name


class TestCertificate:
    @pytest.mark.parametrize("name", sorted(_platforms()))
    def test_bound_is_max_weight_over_fastest_core(self, name):
        grid = _platforms()[name]
        g = random_spg(6, rng=3)
        bound = max(g.weights) / _s_fast(grid)
        assert not period_out_of_reach(g, grid, bound)
        assert period_out_of_reach(g, grid, bound * (1 - 1e-6))
        # The shared tolerance: a period a hair under the bound, inside
        # is_period_feasible's 1e-9 slack, is still within reach.
        assert not period_out_of_reach(g, grid, bound * (1 - 1e-12))

    @pytest.mark.parametrize("name", sorted(_platforms()))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_solver_fails_when_it_fires(self, name, seed):
        grid = _platforms()[name]
        g = random_spg(5 + seed % 2, rng=seed, ccr=10.0)
        T = max(g.weights) / _s_fast(grid) * (1 - 1e-6)
        assert period_out_of_reach(g, grid, T)
        results = run_all(
            ProblemInstance(g, grid, T), PAPER_ORDER + ("bruteforce",),
            rng=seed,
        )
        assert results and not any(r.ok for r in results.values())


class TestChoosePeriodEquivalence:
    GRAPHS = [(6, 0), (8, 1), (12, 2), (20, 3)]

    @pytest.mark.parametrize("name", ["mesh", "torus", "ring", "hetmesh"])
    @pytest.mark.parametrize("n,seed", GRAPHS)
    def test_matches_reference_loop(self, name, n, seed):
        grid = _platforms()[name]
        g = random_spg(n, rng=seed, ccr=10.0)
        _assert_same_choice(
            choose_period(g, grid, rng=seed),
            reference_choose_period(g, grid, rng=seed),
        )

    @pytest.mark.parametrize("start,factor", [
        (1.0, 10.0), (0.5, 2.0), (0.3, 3.0), (4.0, 1.5),
    ])
    def test_start_and_factor_variants(self, start, factor):
        grid = _platforms()["mesh"]
        g = random_spg(10, rng=7, ccr=1.0)
        kwargs = dict(start=start, factor=factor, rng=11)
        _assert_same_choice(
            choose_period(g, grid, **kwargs),
            reference_choose_period(g, grid, **kwargs),
        )

    def test_walk_up_from_a_certified_start(self):
        """Every start probe below the bound is skipped, not run."""
        grid = _platforms()["mesh"]
        g = random_spg(8, rng=4, ccr=10.0)
        start = max(g.weights) / _s_fast(grid) / 50.0
        assert period_out_of_reach(g, grid, start)
        got = choose_period(g, grid, start=start, rng=2)
        _assert_same_choice(
            got, reference_choose_period(g, grid, start=start, rng=2)
        )
        assert got.period > start

    def test_runtime_error_path(self):
        grid = _platforms()["mesh"]
        g = random_spg(8, rng=4, ccr=10.0)
        with pytest.raises(RuntimeError) as want:
            reference_choose_period(g, grid, start=1e-9, max_steps=2, rng=0)
        with pytest.raises(RuntimeError) as got:
            choose_period(g, grid, start=1e-9, max_steps=2, rng=0)
        assert str(got.value) == str(want.value)

    def test_options_and_subset(self):
        grid = _platforms()["torus"]
        g = random_spg(12, rng=9, ccr=10.0)
        kwargs = dict(heuristics=("Greedy", "DPA1D"), rng=3,
                      options={"DPA1D": {"ideal_budget": 50}})
        _assert_same_choice(
            choose_period(g, grid, **kwargs),
            reference_choose_period(g, grid, **kwargs),
        )

    def test_skipped_probes_never_reach_run_all(self, monkeypatch):
        """``run_all`` stays the per-probe entry point: it is called once
        per probe the certificate cannot rule out, and never otherwise."""
        grid = _platforms()["mesh"]
        g = random_spg(10, rng=1, ccr=10.0)
        seen: list[float] = []
        real = period.run_all

        def counting(problem, *args, **kwargs):
            seen.append(problem.period)
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(period, "run_all", counting)
        choice = choose_period(g, grid, rng=0)
        tighter = choice.period / 10.0
        assert period_out_of_reach(g, grid, tighter)
        assert seen == [choice.period]
