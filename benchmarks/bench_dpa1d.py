"""Benchmark of the suffix-cluster enumeration kernels and table reuse.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_dpa1d.py [--repeats N]

It times, on an enumeration-bound panel of dense random SPGs (the
Theorem-1 suffix-cluster enumeration dominating, DP array work small):

* the full lattice enumeration + flat DP table build (``ideals()`` then
  ``suffix_table(cap)``) under the ``python`` reference kernel and the
  ``vector`` frontier-batched kernel, on fresh lattices, best of
  ``--repeats``;
* the cross-period reuse ``choose_period`` probes get from the kept
  suffix table: six solve caps walked loosest-first on one lattice
  versus a fresh lattice per cap;
* the probe pattern that ``choose_period`` actually produces: a loose
  cap whose table would exceed DPA1D's 1M transition budget, then the
  10x tighter cap on the same lattice, against the tighter cap on a
  fresh lattice.  The loose request is also timed alone on a fresh
  lattice, and the section records whether the SP-tree transition
  bound rejected it before any enumeration (``bound_rejected``);
* ``budget_rejection``: ``IdealLattice(spg, 120_000).ideals()`` on the
  StreamIt apps 1-5 (original CCR) and the Figure-12 n=150 panel graphs,
  where the exact series-parallel ideal count rejects most lattices
  before any enumeration;
* ``wide``: on the Figure-12 n=150 panel graphs within DPA1D's ideal
  budget (three words per mask), the enumeration a wide DPA1D solve
  makes at ``WIDE_CAP_FRACTIONS`` of the total weight: every nonzero
  ideal through the per-ideal ``reference_dfs`` plus a dict lookup of
  each prefix row (the path before the forest), against the bulk
  ``IdealLattice.suffix_stream``, best of ``--repeats`` each.

Every kernel, and every reused or probed lattice, must produce a
byte-identical suffix table (masks, works, counts, prefix indices),
every ``budget_rejection`` graph with at most 500k ideals must enumerate
exactly as many ideals as it counts, and the ``wide`` stream must yield
the reference's counts, works and prefix rows byte for byte; the script
exits nonzero on any divergence.
The vector kernel's panel-geomean speedup is gated by ``FLOOR`` (3x);
a miss on a noisy host is reported as a warning in ``floor_met`` so
timing jitter cannot mask a real output divergence.  Results land in
``BENCH_perf_core.json["dpa1d"]`` next to the other perf sections.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time

from _common import merge_bench_sections

#: Minimum acceptable panel-geomean speedup of vector over python.
FLOOR = 3.0

#: (n, elevation, seed): dense SPGs whose table-build cost is dominated
#: by the enumeration (0.5M-3.5M DP transitions each at CAP_FRACTION).
PANELS = ((40, 8, 2011), (36, 7, 2014), (40, 8, 2013))

#: Solve cap as a fraction of total graph weight — deep enough DFS trees
#: to matter, tight enough that weight pruning stays on the hot path.
CAP_FRACTION = 0.35

IDEAL_BUDGET = 1 << 22

#: DPA1D's default transition budget (``solve_uniline``).
TRANSITION_BUDGET = 1_000_000

#: (panel index, loose cap fraction): the loose probe's table has ~3.5M
#: transitions, so it blows the budget; the 10x tighter one has ~48k.
PROBE = (2, 0.35)

#: DPA1D's default ideal budget (``solve_uniline``).
DPA1D_IDEAL_BUDGET = 120_000

#: Graphs whose ideal count is at most this are also enumerated in full.
RECHECK_MAX = 500_000

#: The Figure-12 panel as ``perfbench``'s ``fig12_n150`` workload draws
#: it: (n, elevations, replicates, ccr, seed).
FIG12_PANEL = (150, (2, 8, 16, 24), 2, 10.0, 2011)

#: Solve caps of the ``wide`` section, as fractions of total weight.
WIDE_CAP_FRACTIONS = (0.05, 0.1)


def _panel(n: int, elevation: int, seed: int):
    import numpy as np

    from repro.spg.random_gen import random_spg_with_elevation

    spg = random_spg_with_elevation(n, elevation, np.random.default_rng(seed))
    return spg, sum(spg.weights) * CAP_FRACTION


def _table_fingerprint(tbl):
    M, W, counts, offsets, pidx, total = tbl
    return (
        M.tobytes(), W.tobytes(), counts.tobytes(), offsets.tobytes(),
        pidx.tobytes(), total,
    )


def _warm(lat, cap: float):
    """Enumerate the ideals, then return the suffix table at ``cap``."""
    lat.ideals()
    return lat.suffix_table(cap)


def _time_warm(spg, cap: float, kernel: str, repeats: int):
    """Best-of-``repeats`` fresh-lattice build time + table fingerprint."""
    from repro.core.partition import IdealLattice

    samples = []
    fp = None
    stats = None
    for _ in range(repeats):
        gc.collect()
        lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel=kernel)
        t0 = time.perf_counter()
        tbl = _warm(lat, cap)
        samples.append(time.perf_counter() - t0)
        stats = {"ideals": len(lat.ideals()), "transitions": tbl[5]}
        fp = _table_fingerprint(tbl)
        del lat, tbl
    gc.collect()
    return min(samples), samples, fp, stats


def bench_kernels(repeats: int) -> dict:
    out: dict = {"panels": {}, "floor": FLOOR}
    speedups = []
    equal = True
    for n, elevation, seed in PANELS:
        spg, cap = _panel(n, elevation, seed)
        tv, sv, fv, stats = _time_warm(spg, cap, "vector", repeats)
        tp, sp, fp, _ = _time_warm(spg, cap, "python", repeats)
        eq = fv == fp
        equal = equal and eq
        speedup = tp / tv
        speedups.append(speedup)
        out["panels"][f"n{n}_e{elevation}_s{seed}"] = {
            "ideals": stats["ideals"],
            "transitions": stats["transitions"],
            "python_seconds": tp,
            "python_samples": sp,
            "vector_seconds": tv,
            "vector_samples": sv,
            "speedup": speedup,
            "outputs_equal": eq,
        }
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    out["speedup_geomean"] = geomean
    out["floor_met"] = geomean >= FLOOR
    out["outputs_equal"] = equal
    return out


def bench_reuse(repeats: int) -> dict:
    """Cross-period reuse: the ``choose_period`` walk on one lattice.

    Six caps, loosest first (the period search's own order), on a single
    lattice — every cap after the first is a filtered copy of the
    loosest-cap table — against a fresh lattice per cap.  Both sides run
    the vector kernel, so the ratio isolates the reuse itself.
    """
    from repro.core.partition import IdealLattice

    n, elevation, seed = PANELS[0]
    spg, cap = _panel(n, elevation, seed)
    total_w = sum(spg.weights)
    caps = [total_w * f for f in (0.45, 0.4, 0.35, 0.3, 0.25, 0.2)]

    cold_samples, reused_samples = [], []
    equal = True
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        cold_fps = []
        for c in caps:
            lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel="vector")
            cold_fps.append(_table_fingerprint(_warm(lat, c)))
            del lat
        cold_samples.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel="vector")
        reused_fps = []
        for c in caps:
            reused_fps.append(_table_fingerprint(_warm(lat, c)))
        reused_samples.append(time.perf_counter() - t0)
        del lat
        equal = equal and cold_fps == reused_fps
    cold = min(cold_samples)
    reused = min(reused_samples)
    return {
        "caps": len(caps),
        "cold_seconds": cold,
        "cold_samples": cold_samples,
        "reused_seconds": reused,
        "reused_samples": reused_samples,
        "reuse_speedup": cold / reused,
        "outputs_equal": equal,
    }


def bench_probe(repeats: int) -> dict:
    """A budget-blowing loose probe, then the 10x tighter cap.

    ``rejection`` times the loose request alone on a fresh lattice whose
    ideals are not enumerated yet, as a solve's first probe meets it;
    ``bound_rejected`` says whether the SP-tree transition bound decided
    it (``partition.transition_bound_rejects``), with no ideal or
    cluster enumerated, rather than the enumeration crossing the
    budget.  ``probed`` times both requests on one lattice whose ideals
    are enumerated (the failed request included), ``fresh`` the tighter
    cap alone on a fresh lattice; the two tighter tables must be
    byte-identical.  Vector kernel.
    """
    from repro.core.errors import BudgetExceeded
    from repro.core.partition import IdealLattice
    from repro.obs.session import observability

    panel, frac = PROBE
    spg, _cap = _panel(*PANELS[panel])
    loose = sum(spg.weights) * frac
    tight = loose / 10
    probed_samples, fresh_samples, rejection_samples = [], [], []
    equal = True
    raised = True
    bound_rejected = True
    transitions = 0
    for _ in range(repeats):
        gc.collect()
        lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel="vector")
        with observability() as session:
            t0 = time.perf_counter()
            try:
                lat.suffix_table(loose, TRANSITION_BUDGET)
                raised = False
            except BudgetExceeded:
                pass
            rejection_samples.append(time.perf_counter() - t0)
        bound_rejected = bound_rejected and session.metrics.counters.get(
            "partition.transition_bound_rejects", 0) == 1
        del lat
        gc.collect()
        lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel="vector")
        lat.ideals()
        t0 = time.perf_counter()
        try:
            lat.suffix_table(loose, TRANSITION_BUDGET)
            raised = False
        except BudgetExceeded:
            pass
        tbl = lat.suffix_table(tight, TRANSITION_BUDGET)
        probed_samples.append(time.perf_counter() - t0)
        transitions = tbl[5]
        probed_fp = _table_fingerprint(tbl)
        del lat, tbl
        gc.collect()
        lat = IdealLattice(spg, budget=IDEAL_BUDGET, kernel="vector")
        lat.ideals()
        t0 = time.perf_counter()
        tbl = lat.suffix_table(tight, TRANSITION_BUDGET)
        fresh_samples.append(time.perf_counter() - t0)
        equal = equal and _table_fingerprint(tbl) == probed_fp
        del lat, tbl
    return {
        "panel": "n{}_e{}_s{}".format(*PANELS[panel]),
        "loose_cap_fraction": frac,
        "transition_budget": TRANSITION_BUDGET,
        "loose_raised": raised,
        "bound_rejected": bound_rejected,
        "rejection_seconds": min(rejection_samples),
        "rejection_samples": rejection_samples,
        "tight_transitions": transitions,
        "probed_seconds": min(probed_samples),
        "probed_samples": probed_samples,
        "fresh_seconds": min(fresh_samples),
        "fresh_samples": fresh_samples,
        "outputs_equal": equal,
    }


def _rejection_graphs():
    """StreamIt apps 1-5 at their own CCR, then the Figure-12 panel, drawn
    from one stream in ``run_random_experiment``'s order."""
    from repro.spg.random_gen import random_spg_with_elevation
    from repro.spg.streamit import streamit_workflow
    from repro.util.rng import as_rng

    graphs = [(f"streamit{a}", streamit_workflow(a)) for a in range(1, 6)]
    n, elevations, replicates, ccr, seed = FIG12_PANEL
    rng = as_rng(seed)
    for elev in elevations:
        for rep in range(replicates):
            spg = random_spg_with_elevation(n, elev, rng=rng, ccr=ccr)
            rng.integers(0, 2**63 - 1)  # the panel's heuristic seed
            graphs.append((f"n{n}_elev{elev}_rep{rep}", spg))
    return graphs


def bench_budget_rejection(repeats: int) -> dict:
    """DPA1D's ideal-budget decision on the graphs where it mostly fails.

    Times ``ideals()`` on a fresh lattice at DPA1D's budget (best of
    ``repeats``); every graph with at most ``RECHECK_MAX`` ideals is then
    enumerated at a budget equal to its count, and the enumeration must
    find exactly that many.
    """
    from repro.core.errors import BudgetExceeded
    from repro.core.partition import IdealLattice
    from repro.spg.decompose import ideal_count

    graphs = {}
    equal = True
    for name, spg in _rejection_graphs():
        count = ideal_count(spg)
        samples = []
        for _ in range(repeats):
            gc.collect()
            lat = IdealLattice(spg, DPA1D_IDEAL_BUDGET)
            t0 = time.perf_counter()
            try:
                lat.ideals()
                rejected = False
            except BudgetExceeded:
                rejected = True
            samples.append(time.perf_counter() - t0)
            del lat
        enumerated = None
        if count <= RECHECK_MAX:
            enumerated = len(IdealLattice(spg, count).ideals())
            equal = equal and enumerated == count
        graphs[name] = {
            "n": spg.n,
            "ymax": spg.ymax,
            "ideals": count,
            "rejected": rejected,
            "seconds": min(samples),
            "enumerated": enumerated,
        }
    return {
        "budget": DPA1D_IDEAL_BUDGET,
        "graphs": graphs,
        "rejected": sum(g["rejected"] for g in graphs.values()),
        "seconds": sum(g["seconds"] for g in graphs.values()),
        "outputs_equal": equal,
    }


def _reference_wide(lat, cap: float):
    """The pre-forest wide path: ``reference_dfs`` per nonzero ideal and
    a dict from ideal to DP row for every prefix."""
    import numpy as np

    from repro.core.kernels import reference_dfs

    ideals = lat.ideals()
    index = {ideal: k for k, ideal in enumerate(ideals)}
    counts, prows, works = [], [], []
    for ideal in ideals[1:]:
        masks, ws = reference_dfs(lat, ideal, cap)
        counts.append(len(masks))
        prows += [index[ideal ^ m] for m in masks]
        works += ws
    return (np.array(counts, np.intp), np.array(prows, np.intp),
            np.array(works, np.float64))


def _stream_wide(lat, cap: float):
    """The same enumeration through ``IdealLattice.suffix_stream``."""
    import numpy as np

    parts = list(lat.suffix_stream(cap, 1 << 62))
    return tuple(
        np.concatenate([p[i] for p in parts]).astype(dtype)
        for i, dtype in ((2, np.intp), (3, np.intp), (4, np.float64))
    )


def bench_wide(repeats: int) -> dict:
    """Per-ideal reference DFS against the bulk forest on n=150 graphs.

    Both sides start from a lattice whose ideals (and, for the forest,
    whose ideal words and sorted keys) are already built, as they are
    once a solve's first probe has run.
    """
    from repro.core.partition import IdealLattice
    from repro.spg.decompose import ideal_count

    graphs = {}
    equal = True
    speedups = []
    for name, spg in _rejection_graphs():
        if spg.n <= 62 or ideal_count(spg) > DPA1D_IDEAL_BUDGET:
            continue
        lat = IdealLattice(spg, DPA1D_IDEAL_BUDGET)
        lat.ideals()
        lat.dp_rows(lat.ideal_words()[:, :1])
        for frac in WIDE_CAP_FRACTIONS:
            cap = sum(spg.weights) * frac
            ref_samples, forest_samples = [], []
            for _ in range(repeats):
                gc.collect()
                t0 = time.perf_counter()
                want = _reference_wide(lat, cap)
                ref_samples.append(time.perf_counter() - t0)
                gc.collect()
                t0 = time.perf_counter()
                got = _stream_wide(lat, cap)
                forest_samples.append(time.perf_counter() - t0)
                eq = all(a.tobytes() == b.tobytes()
                         for a, b in zip(want, got))
                equal = equal and eq
            speedup = min(ref_samples) / min(forest_samples)
            speedups.append(speedup)
            graphs[f"{name}_cap{frac}"] = {
                "n": spg.n,
                "ideals": len(lat.ideals()),
                "transitions": int(want[1].size),
                "reference_seconds": min(ref_samples),
                "reference_samples": ref_samples,
                "forest_seconds": min(forest_samples),
                "forest_samples": forest_samples,
                "speedup": speedup,
                "outputs_equal": eq,
            }
    return {
        "workload": (
            f"fig12 n=150 panel lattices within the {DPA1D_IDEAL_BUDGET} "
            f"ideal budget, caps {WIDE_CAP_FRACTIONS} x total weight: "
            "per-ideal reference_dfs + dict prefix rows vs "
            f"IdealLattice.suffix_stream, best of {repeats}"
        ),
        "graphs": graphs,
        "speedup_geomean": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        ),
        "outputs_equal": equal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="repetitions per measurement; best-of is reported "
             "(default 3 — raise on noisy shared hosts)",
    )
    args = parser.parse_args(argv)

    kernels = bench_kernels(args.repeats)
    reuse = bench_reuse(args.repeats)
    probe = bench_probe(args.repeats)
    rejection = bench_budget_rejection(args.repeats)
    wide = bench_wide(args.repeats)
    section = {
        "workload": (
            f"IdealLattice ideals + suffix_table (full enumeration + DP "
            f"table) on {len(PANELS)} dense panels, cap {CAP_FRACTION} x "
            f"total weight, best of {args.repeats}"
        ),
        **kernels,
        "cross_period_reuse": reuse,
        "probe_after_budget_failure": probe,
        "budget_rejection": rejection,
        "wide": wide,
        "outputs_equal": (
            kernels["outputs_equal"] and reuse["outputs_equal"]
            and probe["outputs_equal"] and rejection["outputs_equal"]
            and wide["outputs_equal"]
        ),
    }
    if not section["floor_met"]:
        print(
            f"WARNING: vector-kernel geomean speedup "
            f"{section['speedup_geomean']:.2f}x is below the {FLOOR}x "
            "floor (noisy host? outputs still verified)",
            file=sys.stderr,
        )
    out_path = merge_bench_sections({"dpa1d": section})
    print(json.dumps({"dpa1d": section}, indent=1, sort_keys=True))
    print(f"\nwritten to {out_path}")
    if not section["outputs_equal"]:
        print("ERROR: suffix tables diverged (kernels, reuse or probe), "
              "an ideal count differs from its enumeration, or the wide "
              "stream differs from the reference DFS", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
