"""Micro-benchmark of the fast evaluation core, the DPA2D solver and the
Figure-10 panel, against the recorded seed-implementation baseline.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_perf_core.py [--jobs N]

It times

* the evaluation core (``cycle_times`` + ``energy`` + ``validate`` on a
  fixed Greedy mapping, 2000 repetitions),
* the DPA2D solver on three fixed random 50-stage instances and on the
  four CCR variants of DES, alternately with the reference solver of
  ``tests/dp_reference.py`` (see :func:`bench_dpa2d`),
* DPA1D's streamed solve on the Figure-12 panel's widest enumerable
  lattice, with its step table (see :func:`bench_wide_dpa1d`),
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

    ``des_variants`` times both solvers the same way on the four CCR
    variants of the DES workflow, which differ only in their volumes:
    DPA2D (4x4) and DPA2D1D (1x16) at two periods each.  The variants
    share the solver's level blocks, while the reference builds its own
    per solver; ``blocks`` and ``reference_blocks`` count the blocks
    each built, and the outputs must equal the reference's.
    """
    from repro.core.errors import HeuristicFailure
    from repro.core.problem import ProblemInstance
    from repro.heuristics.dpa2d import _Dpa2dSolver
    from repro.platform.cmp import CMPGrid
    from repro.spg.random_gen import random_spg
    from repro.spg.streamit import streamit_variants
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

    def solve_des(solver_cls):
        variants = streamit_variants("DES", (None, 10.0, 1.0, 0.1), seed=2011)
        outputs, solvers = [], []
        t0 = time.perf_counter()
        for g in variants:
            for parallelism in (2.0, 6.0):
                prob = ProblemInstance(g, grid, g.total_work / 1e9 / parallelism)
                for p, q in ((4, 4), (1, 16)):
                    solvers.append(solver_cls(prob, p, q))
                    try:
                        e, plans = solvers[-1].solve()
                        outputs.append((repr(e), plans))
                    except HeuristicFailure as exc:
                        outputs.append(str(exc))
        return time.perf_counter() - t0, outputs, variants, solvers

    samples: dict[str, list[float]] = {"solver": [], "reference": []}
    des_samples: dict[str, list[float]] = {"solver": [], "reference": []}
    for _ in range(repeats):
        seconds, outputs, columns = solve_all(_Dpa2dSolver)
        samples["solver"].append(seconds)
        ref_seconds, ref_outputs, ref_columns = solve_all(ReferenceDpa2dSolver)
        samples["reference"].append(ref_seconds)
        seconds, des_outputs, variants, _ = solve_des(_Dpa2dSolver)
        des_samples["solver"].append(seconds)
        # The variants share one shape cache, which holds the blocks.
        des_blocks = sum(isinstance(key, tuple) and key[0] == "dpa2d.block"
                         for key in variants[0]._shape)
        seconds, des_ref_outputs, _, solvers = solve_des(ReferenceDpa2dSolver)
        des_samples["reference"].append(seconds)
        des_ref_blocks = sum(len(solver._blocks) for solver in solvers)
    seconds, ref_seconds = min(samples["solver"]), min(samples["reference"])
    des_seconds = min(des_samples["solver"])
    des_ref_seconds = min(des_samples["reference"])
    des_equal = des_outputs == des_ref_outputs
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
        "des_variants": {
            "instances": "streamit_variants('DES', (None, 10, 1, 0.1), "
                         "seed=2011) on 4x4, DPA2D and DPA2D1D at "
                         "T = total_work / 1e9 / {2, 6}",
            "seconds": des_seconds,
            "reference_seconds": des_ref_seconds,
            "speedup_vs_reference": des_ref_seconds / des_seconds,
            "samples": des_samples,
            "blocks": des_blocks,
            "reference_blocks": des_ref_blocks,
            "outputs_equal": des_equal,
        },
        "baseline_seconds": baseline["seconds"],
        "speedup": baseline["seconds"] / seconds,
        "outputs_equal": (outputs == ref_outputs and des_equal
                          and energies == baseline["energies"]),
    }


def bench_wide_dpa1d(repeats: int = 3) -> dict:
    """Time DPA1D's streamed solve on the Figure-12 panel's widest
    enumerable lattice.

    The panel's random 150-stage SPGs (seed 2011, elevations 2, 8, 16
    and 24, two replicates each, drawn as ``run_random_experiment``
    draws them) include one graph, ``n150_elev8_rep0``, whose 4,948
    ideals fit DPA1D's budget and whose 885,630 transitions at T = 1 s
    are streamed through the suffix forest.  Its DPA1D solve at T = 1 s
    on the 1 x 16 snake is timed best of ``repeats``, each on a fresh
    lattice, so the time includes the ideals and the step table.  The
    step table's build (best of ``repeats``, fresh lattices with their
    ideals enumerated) and bytes are reported on their own.
    ``stream_dp_rows_calls`` counts the ``IdealLattice.dp_rows`` lookups
    one pass of the stream makes once the table exists, and
    ``prefix_rows_equal`` checks every streamed prefix row against
    ``dp_rows`` of the prefix mask from the mask forest.
    """
    import numpy as np

    from repro.core.kernels import suffix_forest
    from repro.core.partition import IdealLattice
    from repro.core.problem import ProblemInstance
    from repro.heuristics.dpa1d import _UnilineDP
    from repro.platform.cmp import CMPGrid
    from repro.spg.random_gen import random_spg_with_elevation
    from repro.util.rng import as_rng

    rng = as_rng(2011)
    graphs = {}
    for elev in (2, 8, 16, 24):
        for rep in range(2):
            graphs[f"n150_elev{elev}_rep{rep}"] = random_spg_with_elevation(
                150, elev, rng=rng, ccr=10.0
            )
            rng.integers(0, 2**63 - 1)  # the instance's heuristic seed
    spg = graphs["n150_elev8_rep0"]
    prob = ProblemInstance(spg, CMPGrid(4, 4), 1.0)
    solve_samples, build_samples = [], []
    for _ in range(repeats):
        dp = _UnilineDP(prob, 16, 120_000)
        dp.lat = IdealLattice(spg, 120_000)
        t0 = time.perf_counter()
        energy, k_best = dp.solve(1_000_000)
        solve_samples.append(time.perf_counter() - t0)
        lat = IdealLattice(spg, 120_000)
        lat.ideal_words()
        t0 = time.perf_counter()
        step = lat.step_table()
        build_samples.append(time.perf_counter() - t0)

    calls = 0
    dp_rows = lat.dp_rows

    def counted(masks):
        nonlocal calls
        calls += 1
        return dp_rows(masks)

    lat.dp_rows = counted
    transitions = sum(int(counts.sum()) for _lo, _hi, counts, _p, _w
                      in lat.suffix_stream(dp.cap_work, 1_000_000))
    lat.dp_rows = dp_rows
    words = lat.ideal_words()
    equal = True
    for lo, hi, counts, pidx, _w in lat.suffix_stream(dp.cap_work,
                                                       1_000_000):
        M, _W, _c = suffix_forest(lat, words[:, lo:hi], dp.cap_work)
        want = lat.dp_rows(np.repeat(words[:, lo:hi], counts, axis=1) ^ M)
        equal = equal and np.array_equal(pidx, want)
    return {
        "instance": "fig12 panel n150_elev8_rep0 (random_spg_with_elevation"
                    ", seed 2011), DPA1D at T = 1 s on the 1 x 16 snake",
        "ideals": int(words.shape[1]),
        "transitions": transitions,
        "repeats": repeats,
        "seconds": min(solve_samples),
        "samples": solve_samples,
        "energy": repr(energy),
        "clusters": k_best,
        "step_table_seconds": min(build_samples),
        "step_table_bytes": int(step.nbytes),
        "stream_dp_rows_calls": calls,
        "prefix_rows_equal": bool(equal),
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
        "wide_dpa1d": bench_wide_dpa1d(repeats=args.repeats),
        "fig10_panel": bench_fig10(
            baseline["fig10_panel"], args.jobs, repeats=args.repeats
        ),
        "obs_overhead": bench_obs_overhead(repeats=args.repeats),
    }
    ok = (
        results["eval_core"]["outputs_equal"]
        and results["dpa2d"]["outputs_equal"]
        and results["wide_dpa1d"]["prefix_rows_equal"]
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
