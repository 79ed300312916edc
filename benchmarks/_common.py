"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and

* runs the corresponding experiment (cached per pytest session, so the
  failure-count tables can reuse the figure sweeps without re-running),
* writes the rendered rows/series to ``benchmarks/results/<name>.txt``,
* attaches summary statistics to ``benchmark.extra_info``.

Replication counts are scaled down from the paper (100 graphs per elevation
point) to keep wall-time in minutes; the counts are recorded here, and the
paper-scale report is planned in ROADMAP.md (item 4).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

from repro.experiments import (
    run_random_experiment,
    run_streamit_experiment,
)
from repro.experiments.random_experiments import RandomExperiment
from repro.experiments.streamit_experiments import StreamItExperiment
from repro.platform.cmp import CMPGrid

RESULTS_DIR = Path(__file__).parent / "results"

#: The shared cross-benchmark report at the repository root.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf_core.json"

#: Append-only run log next to it (one JSONL line per bench run) — the
#: input to the ``repro bench check`` regression sentinel.
BENCH_HISTORY = BENCH_JSON.parent / "BENCH_history.jsonl"

#: Benchmark-scale replication settings (paper values in parentheses).
RANDOM_REPLICATES_50 = 3  # paper: 100 graphs per elevation point
RANDOM_REPLICATES_150 = 2  # paper: 100
ELEVATIONS_50 = (1, 2, 4, 8, 12, 16)  # paper: 1..20
ELEVATIONS_150 = (2, 8, 16, 24)  # paper: 1..30
CCRS_RANDOM = (10.0, 1.0, 0.1)
SEED = 2011  # publication year, for determinism

#: Worker processes for the experiment sweeps (results are identical for
#: any value; see repro.experiments.parallel).  0 = all CPUs.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

_cache: dict[tuple, object] = {}


def streamit_experiment(grid_size: int) -> StreamItExperiment:
    """Figures 8/9 sweep (all 12 workflows x 4 CCR settings), cached."""
    key = ("streamit", grid_size)
    if key not in _cache:
        _cache[key] = run_streamit_experiment(
            CMPGrid(grid_size, grid_size), seed=SEED, jobs=JOBS
        )
    return _cache[key]  # type: ignore[return-value]


def random_experiment(n: int, grid_size: int, ccr: float) -> RandomExperiment:
    """One Figures 10-13 panel, cached."""
    key = ("random", n, grid_size, ccr)
    if key not in _cache:
        _cache[key] = run_random_experiment(
            n=n,
            grid=CMPGrid(grid_size, grid_size),
            ccr=ccr,
            elevations=ELEVATIONS_50 if n <= 50 else ELEVATIONS_150,
            replicates=(
                RANDOM_REPLICATES_50 if n <= 50 else RANDOM_REPLICATES_150
            ),
            seed=SEED,
            jobs=JOBS,
        )
    return _cache[key]  # type: ignore[return-value]


def write_result(name: str, text: str) -> Path:
    """Persist a rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def merge_bench_sections(sections: dict, path: Path = BENCH_JSON) -> Path:
    """Merge top-level ``sections`` into the shared benchmark report.

    Every standalone benchmark script owns one (or a few) top-level keys
    of ``BENCH_perf_core.json`` — ``bench_perf_core.py`` the perf-core
    trio, ``bench_refine.py`` ``"refine"``, ``bench_portfolio.py``
    ``"portfolio"``, ``bench_store.py`` ``"store"`` — and must preserve
    the sibling sections when re-run.  This helper is that read-update-
    write cycle, deduplicated out of the individual scripts.
    """
    merged = {}
    if path.exists():
        merged = json.loads(path.read_text())
    merged.update(sections)
    path.write_text(json.dumps(merged, indent=1, sort_keys=True))
    # Every merge also appends one line to the run log so the speedup
    # trajectory is machine-checkable (``repro bench check``).  Only the
    # sections this run produced are recorded — the history captures
    # what each run measured, not the merged file's state.
    record_history(sections, history=path.parent / BENCH_HISTORY.name)
    return path


def _git_commit() -> str | None:
    """Best-effort short commit id of the repo being benchmarked."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_JSON.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def record_history(sections: dict, history: Path = BENCH_HISTORY) -> Path:
    """Append one bench-history line for ``sections``.

    The commit id and wall-clock timestamp are gathered *here* — bench
    scripts are the one place allowed to ask git and the clock —
    and injected into the clock-free ``repro.obs.history`` writer.
    """
    from repro.obs.history import append_history

    return append_history(
        sections, history, commit=_git_commit(), timestamp=time.time()
    )
