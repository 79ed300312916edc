"""Micro-benchmark of the fast evaluation core, the DPA2D solver and the
Figure-10 panel, against the recorded seed-implementation baseline.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_perf_core.py [--jobs N]

It times

* the evaluation core (``cycle_times`` + ``energy`` + ``validate`` on a
  fixed Greedy mapping, 2000 repetitions),
* the DPA2D solver on three fixed random 50-stage instances, alternately
  with the reference solver of ``tests/dp_reference.py`` (see
  :func:`bench_dpa2d`),
* the full Figure-10 random 50-stage 4x4 panel (CCR = 10, benchmark
  replicate settings, seed 2011), serially and through the parallel
  experiment engine for each requested ``--jobs`` value,

verifies that every output (periods, per-heuristic energies, failure
counts) is byte-identical to the seed implementation's recorded outputs in
``benchmarks/baseline_perf_core.json``, and writes the speedup trajectory
to ``BENCH_perf_core.json`` at the repository root so future PRs can track
it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import merge_bench_sections

# The reference DPA2D solver lives in the test suite
# (``tests/dp_reference.py``), importable from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_perf_core.json"


def bench_eval_core(baseline: dict) -> dict:
    """Time repeated evaluation of one fixed mapping.

    This is deliberately the harness's access pattern: ``run`` and the
    period search call ``validate``/``energy``/``is_period_feasible``
    several times on the *same* mapping, which is exactly what the
    Mapping/cycle-time memoisation added by this PR accelerates.  The
    seed baseline ran the identical loop without memoisation, so the
    ratio reported here is the cache win on warm mappings; cold-path
    (fresh-mapping) performance is covered by the fig10 panel below,
    which constructs every mapping anew.
    """
    from repro.core.evaluate import cycle_times, energy, validate
    from repro.core.problem import ProblemInstance
    from repro.experiments import choose_period
    from repro.platform.cmp import CMPGrid
    from repro.solvers import run
    from repro.spg.random_gen import random_spg

    spg = random_spg(50, rng=42, ccr=1.0)
    grid = CMPGrid(4, 4)
    choice = choose_period(spg, grid, heuristics=("Greedy",), rng=42)
    prob = ProblemInstance(spg, grid, choice.period)
    res = run("Greedy", prob, rng=42)
    assert res.ok, "Greedy must succeed on the fixed instance"
    mapping = res.mapping
    reps = baseline["reps"]
    t0 = time.perf_counter()
    for _ in range(reps):
        cycle_times(mapping)
        energy(mapping, prob.period)
        validate(mapping, prob.period)
    seconds = time.perf_counter() - t0
    got = repr(energy(mapping, prob.period).total)
    return {
        "reps": reps,
        "seconds": seconds,
        "baseline_seconds": baseline["seconds"],
        "speedup": baseline["seconds"] / seconds,
        "outputs_equal": got == baseline["energy_total"],
    }


def bench_dpa2d(baseline: dict, repeats: int = 3) -> dict:
    """Time the DPA2D solver against the reference solver of the test
    suite (``tests/dp_reference.py``), on the same host in the same run.

    Both solve the seed's three random 50-stage instances on a 4x4 grid,
    alternately, ``repeats`` times each; the best of each is reported.
    Every run solves freshly generated graphs, so no block the solver
    caches on a graph carries over from an earlier run.  The outputs
    must equal the reference's (plans and energy bits) and the seed's
    recorded energies.  ``columns`` and ``reference_columns`` count the
    inner DPs each solver ran over the three instances.  The seed-ratio
    fields (``baseline_seconds``, ``speedup``) divide a time recorded on
    another host and stay only so the section compares with old records.
    """
    from repro.core.problem import ProblemInstance
    from repro.heuristics.dpa2d import _Dpa2dSolver
    from repro.platform.cmp import CMPGrid
    from repro.spg.random_gen import random_spg
    from tests.dp_reference import ReferenceDpa2dSolver

    grid = CMPGrid(4, 4)

    def solve_all(solver_cls):
        problems = [
            (seed_str, ProblemInstance(
                random_spg(50, rng=int(seed_str), ccr=1.0), grid, period))
            for seed_str, period in baseline["periods"].items()
        ]
        outputs, columns = {}, 0
        t0 = time.perf_counter()
        for seed_str, prob in problems:
            solver = solver_cls(prob, 4, 4)
            e, plans = solver.solve()
            outputs[seed_str] = (repr(e), plans)
            columns += len(solver._columns)
        return time.perf_counter() - t0, outputs, columns

    samples: dict[str, list[float]] = {"solver": [], "reference": []}
    for _ in range(repeats):
        seconds, outputs, columns = solve_all(_Dpa2dSolver)
        samples["solver"].append(seconds)
        ref_seconds, ref_outputs, ref_columns = solve_all(ReferenceDpa2dSolver)
        samples["reference"].append(ref_seconds)
    seconds, ref_seconds = min(samples["solver"]), min(samples["reference"])
    energies = {k: e for k, (e, _plans) in outputs.items()}
    return {
        "instances": "random_spg(50, seed, ccr=1.0) on 4x4, seeds "
                     + ", ".join(baseline["periods"]),
        "repeats": repeats,
        "seconds": seconds,
        "reference_seconds": ref_seconds,
        "speedup_vs_reference": ref_seconds / seconds,
        "samples": samples,
        "columns": columns,
        "reference_columns": ref_columns,
        "baseline_seconds": baseline["seconds"],
        "speedup": baseline["seconds"] / seconds,
        "outputs_equal": (outputs == ref_outputs
                          and energies == baseline["energies"]),
    }


def run_fig10_panel(jobs: int):
    from repro.experiments import run_random_experiment
    from repro.platform.cmp import CMPGrid

    t0 = time.perf_counter()
    exp = run_random_experiment(
        n=50,
        grid=CMPGrid(4, 4),
        ccr=10.0,
        elevations=(1, 2, 4, 8, 12, 16),
        replicates=3,
        seed=2011,
        jobs=jobs,
    )
    return time.perf_counter() - t0, exp


def check_fig10_outputs(exp, baseline: dict) -> bool:
    counter = exp.failure_table()
    if dict(zip(counter.heuristics, counter.row())) != baseline["failures"]:
        return False
    for recs in exp.records.values():
        for rec in recs:
            if rec.period != baseline["periods"][rec.label]:
                return False
            want = baseline["energies"][rec.label]
            for name, r in rec.results.items():
                got = repr(r.total_energy) if r.ok else None
                if got != want[name]:
                    return False
    return True


def bench_fig10(
    baseline: dict, jobs_values: list[int], repeats: int = 3
) -> dict:
    """Time the panel per jobs value, best of ``repeats``.

    Best-of is the standard way to factor out scheduler noise on shared
    hosts: every run computes identical work, so the minimum is the
    cleanest estimate of the code's cost.  All samples are recorded.
    """
    out: dict = {"settings": baseline["settings"],
                 "baseline_seconds": baseline["seconds"],
                 "repeats": repeats, "runs": {}}
    for jobs in jobs_values:
        samples = []
        equal = True
        for _ in range(repeats):
            seconds, exp = run_fig10_panel(jobs)
            samples.append(seconds)
            equal = equal and check_fig10_outputs(exp, baseline)
        best = min(samples)
        out["runs"][str(jobs)] = {
            "seconds": best,
            "samples": samples,
            "speedup_vs_seed": baseline["seconds"] / best,
            "outputs_equal": equal,
        }
    serial = out["runs"][str(jobs_values[0])]
    out["seconds"] = serial["seconds"]
    out["speedup_vs_seed"] = serial["speedup_vs_seed"]
    out["outputs_equal"] = all(r["outputs_equal"] for r in out["runs"].values())
    return out


def bench_obs_overhead(repeats: int = 3) -> dict:
    """Tracing + metrics overhead on the instrumented hot path.

    Runs the Figure-10 panel (the workload that fires ``solver.run``
    spans and counters thousands of times) serially, best of
    ``repeats``, once without observability and once under a full
    in-memory trace + metrics session.  The acceptance budget is < 5%
    overhead over the untraced floor; the disabled path must stay a
    single attribute check.
    """
    from repro.obs import observability

    floor_samples, traced_samples = [], []
    traced_equal = True
    for _ in range(repeats):
        seconds, _exp = run_fig10_panel(jobs=1)
        floor_samples.append(seconds)
        with observability(trace=True, metrics=True) as session:
            seconds, exp = run_fig10_panel(jobs=1)
        traced_samples.append(seconds)
        with open(BASELINE_PATH) as fh:
            base = json.load(fh)["fig10_panel"]
        traced_equal = traced_equal and check_fig10_outputs(exp, base)
    floor = min(floor_samples)
    traced = min(traced_samples)
    overhead = traced / floor - 1.0
    return {
        "workload": "fig10 panel, jobs=1, best of %d" % repeats,
        "untraced_floor_seconds": floor,
        "traced_seconds": traced,
        "overhead_fraction": overhead,
        "budget_fraction": 0.05,
        "within_budget": overhead < 0.05,
        "spans_recorded": len(session.tracer.export()),
        "outputs_equal": traced_equal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, nargs="*", default=[1, 2],
        help="jobs values to run the panel with (first one is the "
             "headline serial measurement; default: 1 2)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="panel repetitions per jobs value; best-of is reported "
             "(default 3 — raise on noisy shared hosts)",
    )
    args = parser.parse_args(argv)
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)

    import os

    results = {
        "baseline_commit": "seed (see benchmarks/baseline_perf_core.json)",
        "cpu_count": os.cpu_count(),
        "note": (
            "jobs > 1 only helps with more than one CPU; on a single-CPU "
            "host the pool adds pickling overhead and the serial run is "
            "the headline number"
        ),
        "eval_core": bench_eval_core(baseline["eval_core"]),
        "dpa2d": bench_dpa2d(baseline["dpa2d"], repeats=args.repeats),
        "fig10_panel": bench_fig10(
            baseline["fig10_panel"], args.jobs, repeats=args.repeats
        ),
        "obs_overhead": bench_obs_overhead(repeats=args.repeats),
    }
    ok = (
        results["eval_core"]["outputs_equal"]
        and results["dpa2d"]["outputs_equal"]
        and results["fig10_panel"]["outputs_equal"]
        and results["obs_overhead"]["outputs_equal"]
    )
    if not results["obs_overhead"]["within_budget"]:
        print(
            "WARNING: observability overhead "
            f"{results['obs_overhead']['overhead_fraction']:.1%} exceeds "
            "the 5% budget (noisy host? outputs still verified)",
            file=sys.stderr,
        )
    results["all_outputs_equal_to_seed"] = ok
    # Merge over the existing report so sibling benchmarks' sections
    # (e.g. bench_refine.py's "refine" key) survive a re-run.
    out_path = merge_bench_sections(results)
    print(json.dumps(results, indent=1, sort_keys=True))
    print(f"\nwritten to {out_path}")
    if not ok:
        print("ERROR: outputs diverged from the seed implementation",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
