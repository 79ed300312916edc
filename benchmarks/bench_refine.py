"""Benchmark of the delta-evaluated refinement engine vs the retained
full-rebuild reference.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_refine.py [--repeats N]

Each workload refines one starting mapping through

* ``refine_mapping_rebuild`` — the full-rebuild reference path, kept in
  ``tests/refine_reference.py``, and
* ``refine_mapping`` — the incremental :class:`DeltaState` engine, which
  screens each candidate by its energy change before the exact path,

verifies the two are **bit-identical** (same accepted-move sequence,
same final allocation/speeds, byte-equal final energy) and reports the
speedup, the candidates graded and how many of them the screen skipped
(the ``refine.candidates`` and ``refine.screened`` counters).

The workloads are the headline n=150 stage graph on a 6x6 mesh and an
n=50 / 4x4 trend point, both refining a Random start (many accepted
moves), and the Figure-10 shape (n=50, 4x4, CCR 10) at the period the
paper's search picks, refining a DPA2D1D start for 4 sweeps as a
``dpa2d1d+refine`` column does.  Results are merged
into ``BENCH_perf_core.json`` at the repository root under the
``"refine"`` key so future PRs can track the trajectory; the delta
engine is expected to stay at or above 5x on the headline workload.
Exits 1 when any workload's outputs differ from the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import merge_bench_sections

# The full-rebuild reference refiner lives in the test suite
# (``tests/refine_reference.py``), importable from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: (label, n stages, grid p, grid q, sweeps, starting heuristic, period):
#: the period is ``"loose"`` (:func:`_loose_period`) or ``"search"``, the
#: one the paper's divide-by-10 search picks for the instance.
WORKLOADS = (
    ("n150_6x6", 150, 6, 6, 2, "Random", "loose"),
    ("n50_4x4", 50, 4, 4, 2, "Random", "loose"),
    ("n50_4x4_dpa2d1d", 50, 4, 4, 4, "DPA2D1D", "search"),
)

#: The acceptance floor for the headline workload.
TARGET_SPEEDUP = 5.0
HEADLINE = "n150_6x6"


def _loose_period(spg, parallelism: float = 12.0) -> float:
    s_max = 1e9
    return max(
        2.0 * spg.total_work / s_max / parallelism,
        1.2 * max(spg.weights) / s_max,
    )


def bench_workload(
    label, n, p, q, sweeps, start, period_rule, repeats: int
) -> dict:
    from repro.core.evaluate import energy
    from repro.core.problem import ProblemInstance
    from repro.experiments.period import choose_period
    from repro.heuristics.refine import refine_mapping
    from repro.obs.session import observability
    from tests.refine_reference import refine_mapping_rebuild
    from repro.platform.cmp import CMPGrid
    from repro.solvers import run
    from repro.spg.random_gen import random_spg

    spg = random_spg(n, rng=2011, ccr=10.0)
    grid = CMPGrid(p, q)
    if period_rule == "search":
        period = choose_period(spg, grid, rng=0).period
    else:
        period = _loose_period(spg, parallelism=12.0)
    problem = ProblemInstance(spg, grid, period)
    res = run(start, problem, rng=0)
    if not res.ok:
        raise RuntimeError(f"{start} failed on {label}: {res.failure}")
    base = res.mapping

    def timed(fn):
        best, out, log = None, None, None
        for _ in range(repeats):
            run_log: list = []
            t0 = time.perf_counter()
            mapping = fn(run_log)
            seconds = time.perf_counter() - t0
            if best is None or seconds < best:
                best, out, log = seconds, mapping, run_log
        return best, out, log

    delta_s, delta_m, delta_log = timed(
        lambda run_log: refine_mapping(
            problem, base, rng=0, sweeps=sweeps, log=run_log
        )
    )
    rebuild_s, rebuild_m, rebuild_log = timed(
        lambda run_log: refine_mapping_rebuild(
            problem, base, rng=0, sweeps=sweeps, log=run_log
        )
    )
    with observability(metrics=True) as session:
        refine_mapping(problem, base, rng=0, sweeps=sweeps)
    counters = session.metrics.counters
    equal = (
        delta_log == rebuild_log
        and delta_m.alloc == rebuild_m.alloc
        and delta_m.speeds == rebuild_m.speeds
        and delta_m.paths == rebuild_m.paths
        and repr(energy(delta_m, problem.period).total)
        == repr(energy(rebuild_m, problem.period).total)
    )
    base_e = energy(base, problem.period).total
    refined_e = energy(delta_m, problem.period).total
    return {
        "settings": {
            "n": n, "grid": f"{p}x{q}", "ccr": 10.0, "seed": 2011,
            "sweeps": sweeps, "base": start, "period": period_rule,
        },
        "delta_seconds": delta_s,
        "rebuild_seconds": rebuild_s,
        "speedup": rebuild_s / delta_s,
        "accepted_moves": len(delta_log),
        "candidates": counters["refine.candidates"],
        "screened": counters["refine.screened"],
        "base_energy": repr(base_e),
        "refined_energy": repr(refined_e),
        "energy_saved_pct": 100.0 * (1.0 - refined_e / base_e),
        "outputs_identical": equal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timed repetitions per engine; best-of is reported "
             "(default 2)",
    )
    args = parser.parse_args(argv)

    results: dict = {"target_speedup": TARGET_SPEEDUP, "workloads": {}}
    for label, n, p, q, sweeps, start, period_rule in WORKLOADS:
        print(f"benchmarking {label} (sweeps={sweeps}) ...")
        results["workloads"][label] = bench_workload(
            label, n, p, q, sweeps, start, period_rule, args.repeats
        )
    headline = results["workloads"][HEADLINE]
    results["headline"] = HEADLINE
    results["speedup"] = headline["speedup"]
    results["speedup_ok"] = headline["speedup"] >= TARGET_SPEEDUP
    ok = all(
        w["outputs_identical"] for w in results["workloads"].values()
    )
    results["all_outputs_identical"] = ok

    out_path = merge_bench_sections({"refine": results})

    print(json.dumps(results, indent=1, sort_keys=True))
    print(f"\nmerged into {out_path} under 'refine'")
    if not ok:
        print("ERROR: delta engine diverged from the rebuild reference",
              file=sys.stderr)
        return 1
    if not results["speedup_ok"]:
        print(
            f"WARNING: headline speedup {headline['speedup']:.1f}x below "
            f"the {TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
