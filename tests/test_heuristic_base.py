"""Tests for the heuristic registry and the run() contract on heuristics."""

import pytest

from repro.core.errors import HeuristicFailure
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.heuristics.base import PAPER_ORDER, REGISTRY, register
from repro.platform.speeds import GHZ
from repro.solvers import run
from repro.spg.build import chain


class TestRegistry:
    def test_paper_heuristics_registered(self):
        for name in PAPER_ORDER:
            assert name in REGISTRY

    def test_paper_order(self):
        assert PAPER_ORDER == ("Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D")

    def test_register_decorator(self, grid_2x2):
        @register("_test_dummy")
        def dummy(problem, rng=None):
            raise HeuristicFailure("dummy")

        problem = ProblemInstance(chain(2, [1e8] * 2, [1e5]), grid_2x2, 1.0)
        try:
            assert REGISTRY["_test_dummy"] is dummy
            # run() resolves names through the solver registry only: an
            # ad-hoc heuristic registration is not runnable by name.
            with pytest.raises(KeyError):
                run("_test_dummy", problem)
        finally:
            del REGISTRY["_test_dummy"]


class TestRunWrapper:
    @pytest.fixture
    def problem(self, grid_2x2):
        g = chain(3, [1e8] * 3, [1e5] * 2)
        return ProblemInstance(g, grid_2x2, 1.0)

    def test_success_result(self, problem):
        res = run("Greedy", problem, rng=0)
        assert res.ok
        assert res.solver == "Greedy"
        assert res.energy is not None
        assert res.failure is None
        assert res.total_energy == res.energy.total

    def test_failure_result(self, problem):
        tight = problem.scaled(1e-6)
        res = run("Greedy", tight, rng=0)
        assert not res.ok
        assert res.mapping is None
        assert res.total_energy == float("inf")
        assert res.failure

    def test_invalid_output_guard(self, problem, monkeypatch):
        """A buggy heuristic returning a broken mapping is flagged, not
        silently accepted.  The broken callable replaces a registry entry
        in place, the way the per-layer benchmark trace wraps them, so
        the solver looks it up at solve time."""

        def broken(prob, rng=None):
            # Mapping that misses the period: one core at minimum speed.
            alloc = {i: (0, 0) for i in range(prob.spg.n)}
            return Mapping(
                prob.spg, prob.grid, alloc, {(0, 0): 0.15 * GHZ}
            )

        monkeypatch.setitem(REGISTRY, "Greedy", broken)
        res = run("Greedy", problem.scaled(0.2), rng=0)
        assert not res.ok
        assert res.failure.startswith("INVALID OUTPUT")

    def test_options_forwarded(self, problem):
        res = run("Random", problem, rng=0, trials=1)
        assert res.ok or res.failure

    def test_unknown_heuristic(self, problem):
        with pytest.raises(KeyError):
            run("NoSuchHeuristic", problem)
