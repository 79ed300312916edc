"""Benchmark of the content-addressed result store: warm vs cold sweeps.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_store.py [--repeats N]

The workload is the repeated-sweep pattern the store exists for: the
same scenario sweep (3 topologies x 2 replicates x CCR 10, seed 2011)
run twice — once **cold** into an empty SQLite store (every cell
computed and filed) and once **warm** with ``resume=True`` (every cell
answered from the store).  The two consolidated reports must serialise
**byte-identically** (the cache-correctness contract), and the warm run
is expected to beat the cold one by at least 5x (it only pays for
fingerprinting, deserialisation and the report-path re-validation).

A second, **eviction** subsection replays a deterministic skewed
access trace (an 80%-hot Zipf-ish mix) against a bounded in-memory
:class:`~repro.store.ResultStore` (row cap well under the key
universe) once per eviction policy (``lru``, ``fifo``, ``rrip``) and
records the resulting hit-rates — the store-level analogue of a
cache-replacement sweep.  Every replay must hold the row cap.

The section is merged into ``BENCH_perf_core.json`` under ``"store"``
via :func:`_common.merge_bench_sections`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from _common import merge_bench_sections

#: The repeated-sweep workload (benchmark scale, not paper scale).
SWEEP = dict(
    topologies=("mesh", "torus", "benes"),
    sizes=("2x2",),
    ccrs=(10.0,),
    apps=("random-16",),
    replicates=2,
    seed=2011,
)

#: The acceptance floor for the warm-over-cold speedup.
TARGET_SPEEDUP = 5.0

#: The bounded-store replay: 400 sha256 keys, a 40-key hot set taking
#: 80% of 4000 accesses, row cap 60 (hot set fits, universe does not).
EVICTION = dict(
    keys=400,
    hot=40,
    hot_frac=0.8,
    accesses=4000,
    max_rows=60,
    policies=("lru", "fifo", "rrip"),
)


def eviction_hit_rates(cfg: dict = EVICTION) -> dict:
    """Replay the skewed trace once per policy; returns the subsection.

    Every policy sees the *identical* deterministic trace (numpy
    ``default_rng`` on the benchmark seed; keys are sha256 digests, as
    in the real store).  A miss computes nothing — the payload is synthetic
    — so hit-rate differences are pure replacement-policy signal.
    """
    import numpy as np

    from repro.store import LogicalClock, ResultStore

    universe = [
        hashlib.sha256(f"bench-eviction-{i}".encode()).hexdigest()
        for i in range(cfg["keys"])
    ]
    hot, cold = universe[: cfg["hot"]], universe[cfg["hot"]:]
    rng = np.random.default_rng(SWEEP["seed"])
    is_hot = rng.random(cfg["accesses"]) < cfg["hot_frac"]
    hot_pick = rng.integers(0, len(hot), cfg["accesses"])
    cold_pick = rng.integers(0, len(cold), cfg["accesses"])
    trace = [
        hot[h] if p else cold[c]
        for p, h, c in zip(is_hot, hot_pick, cold_pick)
    ]

    hit_rates: dict[str, float] = {}
    evictions: dict[str, int] = {}
    for name in cfg["policies"]:
        store = ResultStore(clock=LogicalClock())
        store.configure_eviction(name, max_rows=cfg["max_rows"])
        for key in trace:
            if store.get(key) is None:
                store.put(key, {"key": key, "pad": "x" * 64},
                          kind="bench")
        acc = store.access_stats()
        hit_rates[name] = acc["hits"] / (acc["hits"] + acc["misses"])
        evictions[name] = store.eviction_stats()["total"]
        assert len(store) <= cfg["max_rows"], "cap enforcement failed"
        store.close()
    return {
        "settings": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in cfg.items()},
        "hit_rates": hit_rates,
        "evictions": evictions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of repeats for the warm run (default 3; the cold "
             "run is timed once, it dominates wall-time)",
    )
    args = parser.parse_args(argv)

    from repro.experiments import report_json, run_scenario_sweep
    from repro.store import open_store

    with tempfile.TemporaryDirectory() as tmp:
        db = str(Path(tmp) / "bench_store.sqlite")

        t0 = time.perf_counter()
        cold_report = run_scenario_sweep(**SWEEP, store=db)
        cold_seconds = time.perf_counter() - t0

        store = open_store(db)
        cells = len(store)
        store.close()

        warm_seconds = float("inf")
        warm_report = None
        for _ in range(max(1, args.repeats)):
            t0 = time.perf_counter()
            warm_report = run_scenario_sweep(**SWEEP, store=db, resume=True)
            warm_seconds = min(warm_seconds, time.perf_counter() - t0)

    outputs_equal = report_json(cold_report) == report_json(warm_report)
    speedup = cold_seconds / warm_seconds
    eviction = eviction_hit_rates()
    section = {
        "settings": {
            **{k: list(v) if isinstance(v, tuple) else v
               for k, v in SWEEP.items()},
            "warm_repeats": args.repeats,
        },
        "cells": cells,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "speedup_ok": speedup >= TARGET_SPEEDUP,
        "outputs_equal": outputs_equal,
        "eviction": eviction,
    }

    out_path = merge_bench_sections({"store": section})
    print(json.dumps(section, indent=1, sort_keys=True))
    print(f"\nmerged into {out_path} under 'store'")
    if not outputs_equal:
        print("ERROR: warm sweep report diverged from the cold run",
              file=sys.stderr)
        return 1
    if not section["speedup_ok"]:
        print(
            f"WARNING: warm-over-cold speedup {speedup:.1f}x below the "
            f"{TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
