"""Tests for the experiment harness: period chooser, runners, aggregation."""

import pytest

from repro.core.problem import ProblemInstance
from repro.experiments.period import choose_period, run_all
from repro.experiments.random_experiments import run_random_experiment
from repro.experiments.runner import (
    FailureCounter,
    InstanceRecord,
    normalized_energy,
    normalized_inverse_energy,
)
from repro.experiments.scenarios import run_scenario_sweep
from repro.experiments.streamit_experiments import run_streamit_experiment
from repro.heuristics.base import PAPER_ORDER
from repro.platform.cmp import CMPGrid
from repro.solvers import SolverResult
from repro.spg.build import chain
from repro.spg.streamit import streamit_workflow


class TestRunAll:
    def test_all_heuristics_reported(self, grid_4x4):
        g = chain(6, [2e8] * 6, [1e5] * 5)
        res = run_all(ProblemInstance(g, grid_4x4, 0.9), rng=0)
        assert set(res) == set(PAPER_ORDER)

    def test_subset(self, grid_4x4):
        g = chain(6, [2e8] * 6, [1e5] * 5)
        res = run_all(
            ProblemInstance(g, grid_4x4, 0.9), heuristics=("Greedy",), rng=0
        )
        assert set(res) == {"Greedy"}

    def test_results_validated(self, grid_4x4):
        g = chain(6, [2e8] * 6, [1e5] * 5)
        res = run_all(ProblemInstance(g, grid_4x4, 0.9), rng=0)
        for r in res.values():
            if r.ok:
                assert r.energy.total > 0
            else:
                assert r.failure


class TestChoosePeriod:
    def test_penultimate_rule(self, grid_4x4):
        """T is feasible for someone; T/10 fails for everyone."""
        g = chain(6, [2e8] * 6, [1e5] * 5)
        choice = choose_period(g, grid_4x4, rng=0)
        assert choice.successes >= 1
        tighter = run_all(
            ProblemInstance(g, grid_4x4, choice.period / 10.0), rng=0
        )
        assert not any(r.ok for r in tighter.values())

    def test_wmax_bound(self, grid_4x4):
        """The chosen T can never be below w_max / s_max (nothing fits)."""
        g = chain(6, [2e8] * 6, [1e5] * 5)
        choice = choose_period(g, grid_4x4, rng=0)
        assert choice.period >= max(g.weights) / 1e9

    def test_walks_up_when_needed(self, grid_4x4):
        # Stage weights so heavy that T=1 fails: chooser must walk up.
        g = chain(3, [5e9, 5e9, 5e9], [1e5] * 2)
        choice = choose_period(g, grid_4x4, start=1.0, rng=0)
        assert choice.period >= 5.0
        assert choice.successes >= 1

    def test_deterministic(self, grid_4x4):
        g = chain(6, [2e8] * 6, [1e5] * 5)
        a = choose_period(g, grid_4x4, rng=3)
        b = choose_period(g, grid_4x4, rng=3)
        assert a.period == b.period

    def test_raises_when_hopeless(self, grid_2x2):
        g = chain(2, [1e30, 1e30], [1e35])  # even huge periods fail on comm
        with pytest.raises(RuntimeError):
            choose_period(g, grid_2x2, max_steps=3, rng=0)


def _fake_record(energies: dict[str, float | None]) -> InstanceRecord:
    results = {}
    for name, e in energies.items():
        if e is None:
            results[name] = SolverResult(name, None, None, "failed")
        else:
            from repro.core.evaluate import EnergyBreakdown

            results[name] = SolverResult(
                name, "dummy", EnergyBreakdown(e, 0.0, 0.0, 0.0)
            )
    return InstanceRecord("test", 1.0, results)


class TestAggregation:
    def test_normalized_energy(self):
        rec = _fake_record({"A": 2.0, "B": 4.0, "C": None})
        norm = normalized_energy(rec)
        assert norm["A"] == pytest.approx(1.0)
        assert norm["B"] == pytest.approx(2.0)
        assert norm["C"] == float("inf")

    def test_normalized_inverse_energy(self):
        rec = _fake_record({"A": 2.0, "B": 4.0, "C": None})
        inv = normalized_inverse_energy(rec)
        assert inv["A"] == pytest.approx(1.0)
        assert inv["B"] == pytest.approx(0.5)
        assert inv["C"] == 0.0

    def test_failure_counter(self):
        counter = FailureCounter(("A", "B"))
        counter.add(_fake_record({"A": 1.0, "B": None}))
        counter.add(_fake_record({"A": None, "B": None}))
        assert counter.total == 2
        assert counter.row() == [1, 2]


class TestStreamItExperiment:
    @pytest.fixture(scope="class")
    def small_experiment(self):
        return run_streamit_experiment(
            CMPGrid(4, 4), ccrs=(None, 1.0), workflows=(7, 12), seed=0
        )

    def test_record_keys(self, small_experiment):
        assert set(small_experiment.records) == {
            (7, None), (7, 1.0), (12, None), (12, 1.0),
        }

    def test_every_instance_has_a_winner(self, small_experiment):
        for rec in small_experiment.records.values():
            assert rec.best_energy() < float("inf")

    def test_normalized_table_shape(self, small_experiment):
        rows = small_experiment.normalized_table(None)
        assert len(rows) == 2
        assert len(rows[0]) == 2 + len(PAPER_ORDER)

    def test_render_contains_workflows(self, small_experiment):
        text = small_experiment.render()
        assert "DCT" in text and "TDE" in text
        assert "Failures" in text

    def test_failure_table_total(self, small_experiment):
        assert small_experiment.failure_table().total == 4


class TestRandomExperiment:
    @pytest.fixture(scope="class")
    def small_experiment(self):
        return run_random_experiment(
            n=12,
            grid=CMPGrid(4, 4),
            ccr=10.0,
            elevations=(1, 2),
            replicates=2,
            seed=0,
        )

    def test_bins_present(self, small_experiment):
        assert set(small_experiment.records) == {1, 2}

    def test_replicate_count(self, small_experiment):
        assert all(len(v) == 2 for v in small_experiment.records.values())

    def test_mean_inverse_energy_in_unit_interval(self, small_experiment):
        series = small_experiment.mean_inverse_energy()
        for per_h in series.values():
            for v in per_h.values():
                assert 0.0 <= v <= 1.0 + 1e-9

    def test_best_heuristic_is_one_somewhere(self, small_experiment):
        series = small_experiment.mean_inverse_energy()
        best = max(
            v for per_h in series.values() for v in per_h.values()
        )
        assert best > 0.5

    def test_render(self, small_experiment):
        text = small_experiment.render()
        assert "elevation" in text
        assert "CCR=10" in text

    def test_unreachable_elevations_skipped(self):
        exp = run_random_experiment(
            n=6, grid=CMPGrid(2, 2), ccr=10.0,
            elevations=(1, 5), replicates=1, seed=0,
        )
        assert set(exp.records) == {1}


@pytest.mark.parametrize("runner, args", [
    (run_random_experiment, (6, CMPGrid(2, 2), 10.0)),
    (run_streamit_experiment, (CMPGrid(2, 2),)),
    (run_scenario_sweep, ()),
], ids=["random", "streamit", "sweep"])
@pytest.mark.parametrize("column_kw", [
    {"heuristics": ("Greedy",)},
    {"options": {"Greedy": {}}},
], ids=["heuristics", "options"])
def test_solvers_is_the_only_column_axis(runner, args, column_kw):
    with pytest.raises(TypeError):
        runner(*args, **column_kw)
