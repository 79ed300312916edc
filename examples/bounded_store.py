#!/usr/bin/env python3
"""Bounded result stores: eviction without losing correctness.

Walks the whole bounded-store story on a small scenario grid:

1. a **cold** unbounded sweep (the reference report);
2. the same sweep into a store capped at a handful of rows
   (``eviction={"policy": "rrip", "max_rows": ...}`` — every ``put``
   over the cap evicts in policy order) — the report is *already*
   byte-identical, because eviction only forgets, never corrupts;
3. an explicit ``evict`` pass draining the store to zero rows, then a
   **resume** that recomputes the evicted cells and again reproduces
   the cold report byte for byte (the cache-correctness contract);
4. a policy **shoot-out**: the same skewed access trace replayed under
   ``lru``, ``fifo`` and ``rrip`` on a row-capped in-memory store —
   ``rrip`` keeps the re-referenced hot set that one-off cold keys
   push out of ``lru`` and ``fifo``.

Run:  PYTHONPATH=src python examples/bounded_store.py
"""

import hashlib
import tempfile
from pathlib import Path

from repro.experiments import report_json, run_scenario_sweep
from repro.store import (
    LogicalClock,
    ResultStore,
    eviction_policy_names,
    open_store,
)

#: A small grid: 2 topologies x 2 replicates = 4 cells.
GRID = dict(
    topologies=("mesh", "torus"),
    sizes=("2x2",),
    ccrs=(10.0,),
    apps=("random-12",),
    replicates=2,
    seed=2011,
)


def bounded_sweep_story(db: Path) -> None:
    cold = report_json(run_scenario_sweep(**GRID))

    bounded = run_scenario_sweep(
        **GRID, store=str(db),
        eviction={"policy": "rrip", "max_rows": 2},
    )
    assert report_json(bounded) == cold
    store = open_store(str(db))
    print(f"bounded sweep: {len(store)} rows in store (cap 2), "
          f"evictions: {store.eviction_stats()}")

    # Drain it completely, then resume: evicted cells read as misses
    # and are recomputed — the consolidated report never changes.
    out = store.evict(policy="lru", max_rows=0)
    print(f"drained: evicted {out['evicted']} rows, "
          f"freed {out['freed_bytes']} bytes")
    store.close()

    resumed = run_scenario_sweep(**GRID, store=str(db), resume=True)
    assert report_json(resumed) == cold
    print("evict-then-resume report is byte-identical to the cold run")


def policy_shootout() -> None:
    """Replay one skewed trace (hot set fits the cap, universe does
    not) under every policy; hit-rate differences are pure replacement
    signal."""
    import numpy as np

    universe = [
        hashlib.sha256(f"demo-{i}".encode()).hexdigest()
        for i in range(200)
    ]
    hot, cold = universe[:20], universe[20:]
    rng = np.random.default_rng(GRID["seed"])
    trace = [
        hot[h] if p else cold[c]
        for p, h, c in zip(
            rng.random(1500) < 0.8,
            rng.integers(0, len(hot), 1500),
            rng.integers(0, len(cold), 1500),
        )
    ]

    print("\npolicy shoot-out (row cap 30, 1500 accesses, 20 hot keys):")
    for name in eviction_policy_names():
        store = ResultStore(clock=LogicalClock())
        store.configure_eviction(name, max_rows=30)
        for key in trace:
            if store.get(key) is None:
                store.put(key, {"key": key}, kind="demo")
        acc = store.access_stats()
        rate = acc["hits"] / (acc["hits"] + acc["misses"])
        print(f"  {name:6s} hit-rate {rate:.3f} "
              f"({store.eviction_stats()['total']} evictions)")
        store.close()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bounded_sweep_story(Path(tmp) / "bounded.sqlite")
    policy_shootout()


if __name__ == "__main__":
    main()
