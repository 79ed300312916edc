"""Extra experiment: absolute optimality gaps on tiny instances.

The paper's Section 4.4 formulates an ILP "to find the optimal solution of
the problem (in exponential time) for small problem instances" but could
not run it beyond a 2x2 CMP and leaves the absolute quality measurement as
future work.  This benchmark provides it at that same scale: brute-force
optimum, ILP optimum (they must agree on every seed) and per-heuristic
gaps.  HiGHS can print from C code during a solve (it did on seed 1
before the ILP's period rows were scaled), and the benchmark checks that
none of it reaches stdout.
"""

from _common import write_result

from repro.core.problem import ProblemInstance
from repro.exact import brute_force_optimal, ilp_optimal
from repro.experiments import run_all
from repro.heuristics.base import PAPER_ORDER
from repro.platform.cmp import CMPGrid
from repro.platform.speeds import GHZ, PowerModel
from repro.spg.random_gen import random_spg
from repro.util.fmt import format_table

TWO_SPEED = PowerModel(
    speeds=(0.5 * GHZ, 1.0 * GHZ),
    dyn_power=(0.2, 1.6),
    comp_leak=0.08,
    comm_leak=0.0,
    e_bit=6e-12,
    bandwidth=16 * 1.2 * GHZ,
)

SEEDS = range(3)
ILP_NODE_CAP = 4000


def _run():
    grid = CMPGrid(2, 2, TWO_SPEED)
    rows = []
    gaps = {h: [] for h in PAPER_ORDER}
    for seed in SEEDS:
        g = random_spg(6, rng=seed, ccr=1.0)
        T = max(1.3 * max(g.weights) / GHZ, g.total_work / GHZ / 3)
        prob = ProblemInstance(g, grid, T)
        _bm, bf = brute_force_optimal(prob)
        # A stop at the node cap raises instead of returning.
        _im, ilp = ilp_optimal(prob, max_nodes=ILP_NODE_CAP)
        assert abs(ilp - bf) <= 1e-6 * bf, (seed, ilp, bf)
        row = [seed, f"{bf:.4f}", f"{ilp:.4f}"]
        results = run_all(prob, rng=seed)
        for h in PAPER_ORDER:
            res = results[h]
            if res.ok:
                gap = res.total_energy / bf
                gaps[h].append(gap)
                row.append(f"{gap:.3f}")
            else:
                row.append("FAIL")
        rows.append(row)
    return rows, gaps


def test_exact_gap(benchmark, capfd):
    rows, gaps = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert "Highs" not in capfd.readouterr().out
    text = format_table(
        ["seed", "optimal [J]", "ILP [J]", *PAPER_ORDER],
        rows,
        title="Optimality gap (heuristic / optimum), 6-stage SPGs on 2x2",
    )
    print("\n" + text)
    write_result("exact_gap", text)
    for h, values in gaps.items():
        if values:
            benchmark.extra_info[f"mean_gap_{h}"] = round(
                sum(values) / len(values), 4
            )
            # No heuristic may ever beat the optimum.
            assert min(values) >= 1.0 - 1e-9
