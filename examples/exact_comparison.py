#!/usr/bin/env python3
"""Heuristics versus the exact optimum on tiny instances (Section 4.4).

The paper formulates an ILP but could not run it beyond 2x2 CMPs with
CPLEX; it leaves "an absolute measure of the quality of the heuristics" as
future work.  This example provides that measure at small scale: for a set
of tiny SPGs on a 2x2 CMP it computes

* the exhaustive optimal DAG-partition mapping (brute force, XY routing),
* the ILP optimum (HiGHS via ``scipy.optimize.milp``), and
* every heuristic's energy,

and prints the optimality gaps.

Run:  python examples/exact_comparison.py
"""

from repro import CMPGrid, ProblemInstance, random_spg
from repro.exact import brute_force_optimal, ilp_optimal
from repro.experiments import run_all
from repro.heuristics.base import PAPER_ORDER
from repro.platform.speeds import GHZ, PowerModel
from repro.util.fmt import format_table

# Two speeds keep the ILP small (the paper's CPLEX runs hit the same wall).
TWO_SPEED = PowerModel(
    speeds=(0.5 * GHZ, 1.0 * GHZ),
    dyn_power=(0.2, 1.6),
    comp_leak=0.08,
    comm_leak=0.0,
    e_bit=6e-12,
    bandwidth=16 * 1.2 * GHZ,
)


def main() -> None:
    grid = CMPGrid(2, 2, TWO_SPEED)
    rows = []
    for seed in range(4):
        g = random_spg(6, rng=seed, ccr=1.0)
        T = max(1.3 * max(g.weights) / GHZ, g.total_work / GHZ / 3)
        prob = ProblemInstance(g, grid, T)
        _bm, bf = brute_force_optimal(prob)
        _im, ilp = ilp_optimal(prob)
        row = [seed, f"{T:.3f}", f"{bf:.4f}", f"{ilp:.4f}"]
        for name in PAPER_ORDER:
            res = run_all(prob, heuristics=(name,), rng=seed)[name]
            row.append(f"{res.total_energy / bf:.3f}" if res.ok else "FAIL")
        rows.append(row)
    print(format_table(
        ["seed", "T [s]", "optimal [J]", "ILP [J]", *PAPER_ORDER],
        rows,
        title="Optimality gaps on 6-stage SPGs, 2x2 CMP "
              "(heuristic energy / optimal energy)",
    ))
    print("\nThe ILP matches the brute-force optimum; heuristic columns are")
    print("multiples of the optimum (1.000 = optimal mapping found).")


if __name__ == "__main__":
    main()
