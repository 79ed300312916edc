"""Tests for the extensions: local-search refinement, latency, visualisation,
and report exporters."""

import pytest

from tests.helpers import loose_period

from repro.core.evaluate import energy, latency, validate
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.core.visualize import (
    render_label_grid,
    render_link_utilisation,
    render_mapping,
    summarize,
)
from repro.experiments.report import (
    random_csv,
    random_markdown,
    streamit_csv,
    streamit_markdown,
)
from repro.heuristics.greedy import greedy_mapping
from repro.heuristics.random_heuristic import random_mapping
from repro.heuristics.refine import refine_mapping
from repro.platform.cmp import CMPGrid
from repro.platform.speeds import GHZ
from repro.solvers import run
from repro.spg.build import chain, diamond
from repro.spg.random_gen import random_spg


@pytest.fixture
def problem(grid_4x4):
    g = random_spg(18, rng=3, ccr=5.0)
    return ProblemInstance(g, grid_4x4, loose_period(g))


class TestRefine:
    def test_never_worse(self, problem):
        base = random_mapping(problem, rng=0)
        out = refine_mapping(problem, base, rng=0)
        assert (
            energy(out, problem.period).total
            <= energy(base, problem.period).total * (1 + 1e-12)
        )

    def test_output_valid(self, problem):
        base = random_mapping(problem, rng=1)
        out = refine_mapping(problem, base, rng=1)
        validate(out, problem.period)

    def test_improves_a_bad_mapping(self, problem):
        """A deliberately scattered mapping should be consolidated."""
        base = random_mapping(problem, rng=2)
        out = refine_mapping(problem, base, rng=2, sweeps=6)
        assert (
            energy(out, problem.period).total
            < energy(base, problem.period).total
        )

    def test_general_mode_never_worse_than_restricted(self, problem):
        base = greedy_mapping(problem)
        dag = refine_mapping(problem, base, rng=0)
        general = refine_mapping(problem, base, rng=0, allow_general=True)
        assert (
            energy(general, problem.period).total
            <= energy(dag, problem.period).total * (1 + 1e-12)
        )

    def test_general_output_structurally_sound(self, problem):
        base = greedy_mapping(problem)
        out = refine_mapping(problem, base, rng=0, allow_general=True)
        # May violate the DAG-partition rule, but nothing else.
        validate(out, problem.period, require_dag_partition=False)

    def test_refine_general_spec(self, problem):
        """``+refine-general`` is the spec route to general mappings."""
        res = run("greedy+refine-general", problem, rng=0)
        assert res.ok
        validate(res.mapping, problem.period, require_dag_partition=False)
        dag = run("greedy+refine", problem, rng=0)
        assert res.energy.total <= dag.energy.total * (1 + 1e-12)

    def test_refined_wrapper(self, problem):
        res = run("greedy+refine", problem, rng=0)
        assert res.ok
        validate(res.mapping, problem.period)

    def test_deterministic(self, problem):
        base = greedy_mapping(problem)
        a = refine_mapping(problem, base, rng=7)
        b = refine_mapping(problem, base, rng=7)
        assert a.alloc == b.alloc


class TestLatency:
    def test_single_core_chain(self, grid_2x2):
        g = chain(3, [1e8, 2e8, 1e8], [1e6, 1e6])
        m = Mapping(g, grid_2x2, {0: (0, 0), 1: (0, 0), 2: (0, 0)},
                    {(0, 0): 1.0 * GHZ})
        assert latency(m) == pytest.approx(0.4)

    def test_comm_adds_hop_time(self, grid_2x2):
        g = chain(2, [1e8, 1e8], [19.2e9])  # one full second on a link
        m = Mapping(g, grid_2x2, {0: (0, 0), 1: (0, 1)},
                    {(0, 0): 1.0 * GHZ, (0, 1): 1.0 * GHZ})
        assert latency(m) == pytest.approx(0.1 + 1.0 + 0.1)

    def test_two_hops_double_transfer(self, grid_2x2):
        g = chain(2, [0.0, 0.0], [19.2e9])
        m = Mapping(g, grid_2x2, {0: (0, 0), 1: (1, 1)},
                    {(0, 0): 1.0 * GHZ, (1, 1): 1.0 * GHZ})
        assert latency(m) == pytest.approx(2.0)

    def test_parallel_branches_take_max(self, grid_2x2):
        g = diamond((0.0, 3e8, 1e8, 0.0), (0.0, 0.0, 0.0, 0.0))
        m = Mapping(g, grid_2x2, {i: (0, 0) for i in range(4)},
                    {(0, 0): 1.0 * GHZ})
        # Branches run per data set on the critical path: max(0.3, 0.1).
        assert latency(m) == pytest.approx(0.3)

    def test_latency_at_least_period_lower_bound(self, problem):
        m = greedy_mapping(problem)
        # One data set cannot finish faster than its heaviest stage.
        assert latency(m) >= max(problem.spg.weights) / 1e9


class TestVisualize:
    def test_label_grid(self):
        g = diamond()
        text = render_label_grid(g)
        lines = text.splitlines()
        assert len(lines) == g.ymax
        assert "0" in text and "3" in text

    def test_render_mapping(self, problem):
        m = greedy_mapping(problem)
        text = render_mapping(m, problem.period)
        assert "stages per core" in text
        assert "GHz" in text
        assert "%" in text

    def test_link_utilisation(self, problem):
        m = random_mapping(problem, rng=0)
        text = render_link_utilisation(m, problem.period)
        if m.remote_edges():
            assert "link" in text
        else:
            assert "no inter-core" in text

    def test_link_utilisation_empty(self, grid_2x2):
        g = chain(2, [1e8, 1e8], [1e3])
        m = Mapping(g, grid_2x2, {0: (0, 0), 1: (0, 0)}, {(0, 0): 1.0 * GHZ})
        assert render_link_utilisation(m, 1.0) == "no inter-core communication"

    def test_summarize(self, problem):
        m = greedy_mapping(problem)
        text = summarize(m, problem.period)
        assert "active cores" in text
        assert "max cycle-time" in text


class TestReports:
    @pytest.fixture(scope="class")
    def streamit_exp(self):
        from repro.experiments import run_streamit_experiment

        return run_streamit_experiment(
            CMPGrid(4, 4), ccrs=(None,), workflows=(7,), seed=0
        )

    @pytest.fixture(scope="class")
    def random_exp(self):
        from repro.experiments import run_random_experiment

        return run_random_experiment(
            n=10, grid=CMPGrid(2, 2), ccr=10.0,
            elevations=(1,), replicates=1, seed=0,
        )

    def test_streamit_csv(self, streamit_exp):
        text = streamit_csv(streamit_exp)
        lines = text.strip().splitlines()
        assert lines[0].startswith("workflow,ccr")
        assert len(lines) == 1 + 5  # header + 5 heuristics x 1 instance
        assert "DCT" in text

    def test_random_csv(self, random_exp):
        text = random_csv(random_exp)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 5
        assert lines[1].startswith("10,10")

    def test_streamit_markdown(self, streamit_exp):
        md = streamit_markdown(streamit_exp)
        assert md.startswith("###")
        assert "| idx |" in md or "| idx " in md

    def test_random_markdown(self, random_exp):
        md = random_markdown(random_exp)
        assert "elevation" in md
        assert "|---" in md
