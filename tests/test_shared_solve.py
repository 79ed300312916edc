"""The DP heuristics' solves are memoised on the graph.

DPA1D, DPA2D and DPA2D1D read the graph, the period, the base power
model and a virtual grid; the topology only matters when the plan is
laid onto cores.  :func:`repro.heuristics.base.shared_solve` memoises
each solve in ``SPG.cached`` under a key holding everything else the
solve reads, so a sweep's topologies share it.  Every input in the key
must make a miss, a memoised failure must be raised again as it was,
a caller must not be able to change a later hit, and a grouped sweep
must count one miss per distinct key and still equal each cell run
alone.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments.scenarios as scenarios_mod
from repro.core.errors import BudgetExceeded, HeuristicFailure
from repro.core.problem import ProblemInstance
from repro.experiments import report_json, run_scenario_sweep
from repro.heuristics import base, dpa1d, dpa2d
from repro.heuristics.dpa1d import dpa1d_mapping, solve_uniline
from repro.heuristics.dpa2d import dpa2d1d_mapping, dpa2d_mapping, solve_dpa2d
from repro.obs.session import observability
from repro.platform.cmp import CMPGrid
from repro.platform.topology import get_topology
from repro.spg.build import chain
from repro.spg.random_gen import random_spg_with_elevation
from tests.test_sweep_groups import cells_alone


def _graph():
    return random_spg_with_elevation(
        24, 3, np.random.default_rng(7), ccr=10.0
    )


def _period(g, parallelism=1.5):
    return g.total_work / 1e9 / parallelism


def _counted(fn):
    """``fn()``'s outcome (its value, or its failure's type and
    message) and the ``(hits, misses)`` it counted."""
    with observability() as session:
        try:
            out = fn()
        except HeuristicFailure as exc:
            out = (type(exc), str(exc))
    counters = session.metrics.counters
    return out, (counters.get("dp.solve_hits", 0),
                 counters.get("dp.solve_misses", 0))


def _uniline(g, period, grid=None, **kw):
    prob = ProblemInstance(g, grid or CMPGrid(4, 4), period)
    return lambda: solve_uniline(prob, prob.grid.n_cores, **kw)


def _dpa2d(g, period, p, q, grid=None):
    prob = ProblemInstance(g, grid or CMPGrid(4, 4), period)
    return lambda: solve_dpa2d(prob, p, q)


class TestKeyMisses:
    """A solve differing from a memoised one in any keyed input
    misses, and returns what a fresh solve returns."""

    @pytest.mark.parametrize("change", [
        "period", "model", "ideal_budget", "transition_budget", "kernel",
    ])
    def test_uniline(self, change):
        g = _graph()
        T = _period(g)
        _counted(_uniline(g, T, kernel="vector"))
        args, kw = [T], {"kernel": "vector"}
        if change == "period":
            args = [T * 0.8]
        elif change == "model":
            kw["grid"] = CMPGrid(4, 4, CMPGrid(4, 4).model.scaled(0.5))
        elif change == "kernel":
            kw["kernel"] = "python"
        else:
            kw[change] = 50
        out, counts = _counted(_uniline(g, *args, **kw))
        assert counts == (0, 1)
        # A volume-only copy starts an empty memo.
        assert out == _counted(_uniline(g.with_weights(), *args, **kw))[0]

    @pytest.mark.parametrize("change", ["period", "p", "q", "model"])
    def test_dpa2d(self, change):
        g = _graph()
        T = _period(g)
        _counted(_dpa2d(g, T, 4, 4))
        args = {"period": [T * 0.8, 4, 4], "p": [T, 2, 4],
                "q": [T, 4, 2], "model": [T, 4, 4]}[change]
        kw = {}
        if change == "model":
            kw["grid"] = CMPGrid(4, 4, CMPGrid(4, 4).model.scaled(0.5))
        out, counts = _counted(_dpa2d(g, *args, **kw))
        assert counts == (0, 1)
        assert out == _counted(_dpa2d(g.with_weights(), *args, **kw))[0]

    def test_same_inputs_on_another_fabric_hit(self):
        # The key holds the base model, never the grid: every 16-core
        # fabric shares DPA1D's and DPA2D1D's line solves, hetmesh too.
        g = _graph()
        T = _period(g)
        outs = []
        for name in ("mesh", "torus", "ring", "hetmesh"):
            grid = get_topology(name, 4, 4)
            outs.append(_counted(_uniline(g, T, grid=grid)))
            outs.append(_counted(_dpa2d(g, T, 1, 16, grid=grid)))
        assert [c for _o, c in outs] == [(0, 1)] * 2 + [(1, 0)] * 6
        assert all(o == outs[i % 2][0] for i, (o, _c) in enumerate(outs))


class TestReplay:
    def test_budget_failure_keeps_type_and_message(self):
        g = _graph()
        solve = _uniline(g, _period(g), ideal_budget=5)
        first, counts = _counted(solve)
        assert first[0] is BudgetExceeded
        assert counts == (0, 1)
        with pytest.raises(BudgetExceeded) as exc:
            solve()
        assert str(exc.value) == first[1]
        assert _counted(solve) == (first, (1, 0))

    def test_dpa2d_failure_keeps_type_and_message(self):
        # Eight 4e8 stages at T = 0.5 s need eight columns.
        g = chain(8, [4e8] * 8, [1e3] * 7)
        first, _ = _counted(_dpa2d(g, 0.5, 4, 4))
        assert first == (HeuristicFailure,
                         "DPA2D: no feasible column decomposition")
        assert _counted(_dpa2d(g, 0.5, 4, 4)) == (first, (1, 0))
        prob = ProblemInstance(g, CMPGrid(4, 4), 0.5)
        with pytest.raises(HeuristicFailure) as exc:
            dpa2d_mapping(prob)
        assert type(exc.value) is HeuristicFailure
        assert str(exc.value) == first[1]


class TestCopies:
    def test_mutating_a_uniline_result_leaves_the_hit(self):
        g = _graph()
        solve = _uniline(g, _period(g))
        e, clusters, speeds = solve()
        want = (e, [list(c) for c in clusters], list(speeds))
        clusters[0].append(-1)
        clusters.append([-2])
        speeds.append(-3.0)
        assert solve() == want

    def test_mutating_dpa2d_plans_leaves_the_hit(self):
        g = _graph()
        solve = _dpa2d(g, _period(g), 4, 4)
        e, plans = solve()
        want = (e, list(plans))
        plans.clear()
        assert solve() == want

    @pytest.mark.parametrize("heuristic", [dpa1d_mapping, dpa2d_mapping,
                                           dpa2d1d_mapping])
    def test_mappings_equal_a_fresh_graph(self, heuristic):
        g = _graph()
        T = _period(g)
        for name in ("mesh", "hetmesh", "ring"):
            grid = get_topology(name, 4, 4)
            got = heuristic(ProblemInstance(g, grid, T))
            want = heuristic(ProblemInstance(g.with_weights(), grid, T))
            assert (got.alloc, got.speeds) == (want.alloc, want.speeds)


class TestSweep:
    GRID = dict(topologies=("mesh", "torus", "ring", "hetmesh"),
                sizes=("2x2",), ccrs=(10.0,), apps=("DCT",),
                replicates=1, seed=5)

    def test_one_miss_per_distinct_key(self, monkeypatch):
        keys: list = []
        real = base.shared_solve

        def recording(spg, key, solve):
            keys.append((id(spg), key))
            return real(spg, key, solve)

        monkeypatch.setattr(dpa1d, "shared_solve", recording)
        monkeypatch.setattr(dpa2d, "shared_solve", recording)
        with observability() as session:
            report = run_scenario_sweep(**self.GRID, jobs=1)
        counters = session.metrics.counters
        assert len({spg for spg, _key in keys}) == 1  # one graph
        assert counters["dp.solve_misses"] == len(set(keys))
        assert counters["dp.solve_hits"] == len(keys) - len(set(keys))
        assert counters["dp.solve_hits"] > counters["dp.solve_misses"]
        monkeypatch.undo()
        monkeypatch.setattr(scenarios_mod, "sweep_group_task", cells_alone)
        alone = run_scenario_sweep(**self.GRID, jobs=1)
        assert report_json(report) == report_json(alone)
