"""Ablation benchmarks: each isolates one design choice of the heuristics,
the paper's or this reproduction's, and measures what it is worth.

1. *Speed downgrade in Greedy* — the paper downgrades each core to the
   cheapest feasible speed after the greedy pass; how much energy does
   that step actually save?
2. *Energy-optimal vs slowest-feasible speed selection* — the XScale
   table's non-monotone energy-per-cycle makes the paper's
   slowest-feasible rule suboptimal at the bottom; quantify the gap on
   DPA1D's per-cluster choices.
3. *DPA1D ideal budget* — sensitivity of the failure rate to the
   admissible-subgraph budget (the knob that reproduces the paper's
   "too many splits to explore" failures).
"""

from _common import SEED, write_result

from repro.core.evaluate import energy
from repro.core.errors import HeuristicFailure
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.experiments import choose_period
from repro.heuristics.dpa1d import dpa1d_mapping
from repro.heuristics.greedy import greedy_mapping
from repro.platform.cmp import CMPGrid
from repro.spg.random_gen import random_spg_with_elevation
from repro.spg.streamit import streamit_workflow
from repro.util.fmt import format_table


def _no_downgrade_energy(problem: ProblemInstance, mapping: Mapping) -> float:
    """Energy if every active core ran at the greedy trial speed (s_max
    upper bound: we reconstruct the un-downgraded cost by pushing each core
    back to the fastest speed any core uses)."""
    s = max(mapping.speeds.values())
    speeds = {c: s for c in mapping.active_cores()}
    undg = Mapping(
        mapping.spg, mapping.grid, dict(mapping.alloc), speeds,
        dict(mapping.paths),
    )
    return energy(undg, problem.period).total


def test_ablation_greedy_downgrade(benchmark):
    def run():
        rows = []
        savings = []
        for idx in (6, 7, 9, 10, 12):
            app = streamit_workflow(idx, seed=SEED)
            grid = CMPGrid(4, 4)
            T = choose_period(app, grid, heuristics=("Greedy",), rng=0).period
            prob = ProblemInstance(app, grid, T)
            try:
                m = greedy_mapping(prob)
            except HeuristicFailure:
                continue
            with_dg = energy(m, T).total
            without = _no_downgrade_energy(prob, m)
            savings.append(1 - with_dg / without)
            rows.append([idx, f"{without:.3f}", f"{with_dg:.3f}",
                         f"{100 * (1 - with_dg / without):.1f}%"])
        return rows, savings

    rows, savings = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["app", "E no downgrade [J]", "E downgraded [J]", "saving"],
        rows,
        title="Ablation: per-core speed downgrade in Greedy",
    )
    print("\n" + text)
    write_result("ablation_greedy_downgrade", text)
    assert savings and max(savings) > 0.0
    benchmark.extra_info["mean_saving"] = round(
        sum(savings) / len(savings), 4
    )


def test_ablation_speed_rule(benchmark):
    """Energy-optimal vs slowest-feasible cluster speeds (same clustering)."""

    def run():
        rows = []
        for idx in (7, 9, 12):
            app = streamit_workflow(idx, seed=SEED)
            grid = CMPGrid(4, 4)
            T = choose_period(app, grid, heuristics=("DPA1D",), rng=0).period
            prob = ProblemInstance(app, grid, T)
            m = dpa1d_mapping(prob)
            e_best = energy(m, T).total
            model = grid.model
            slow_speeds = {
                c: model.slowest_feasible(w, T)
                for c, w in m.core_work().items()
            }
            m_slow = Mapping(
                m.spg, m.grid, dict(m.alloc), slow_speeds, dict(m.paths)
            )
            e_slow = energy(m_slow, T).total
            rows.append([idx, f"{e_slow:.3f}", f"{e_best:.3f}",
                         f"{100 * (1 - e_best / e_slow):.2f}%"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["app", "E slowest-feasible [J]", "E energy-optimal [J]", "saving"],
        rows,
        title="Ablation: paper's slowest-feasible rule vs energy-optimal "
              "speeds (XScale is non-monotone in energy/cycle)",
    )
    print("\n" + text)
    write_result("ablation_speed_rule", text)
    benchmark.extra_info["rows"] = len(rows)


def test_ablation_dpa1d_budget(benchmark):
    """DPA1D failure rate as a function of the admissible-subgraph budget."""

    def run():
        instances = [
            random_spg_with_elevation(40, e, rng=s, ccr=10.0)
            for e in (2, 4, 6, 8)
            for s in (0, 1)
        ]
        rows = []
        for budget in (1_000, 10_000, 120_000):
            ok = 0
            for g in instances:
                grid = CMPGrid(4, 4)
                T = max(
                    1.3 * max(g.weights) / 1e9, g.total_work / 1e9 / 10
                )
                try:
                    dpa1d_mapping(
                        ProblemInstance(g, grid, T), ideal_budget=budget
                    )
                    ok += 1
                except HeuristicFailure:
                    pass
            rows.append([budget, ok, len(instances)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["ideal budget", "successes", "instances"],
        rows,
        title="Ablation: DPA1D success count vs admissible-subgraph budget",
    )
    print("\n" + text)
    write_result("ablation_dpa1d_budget", text)
    # More budget can only help.
    succ = [r[1] for r in rows]
    assert succ == sorted(succ)
