"""The paper's published evaluation numbers, as data.

Only the numeric tables are transcribed (figures are published as plots);
benchmarks compare our regenerated counts against these; the paper-scale
comparison report is planned in ROADMAP.md (item 4).  Keys follow :data:`repro.heuristics.PAPER_ORDER`.
"""

from __future__ import annotations

from repro.heuristics.base import PAPER_ORDER

__all__ = [
    "PAPER_TABLE2_FAILURES",
    "PAPER_TABLE3_FAILURES",
    "PAPER_TABLE3_INSTANCES",
    "table2_row",
    "table3_row",
]

#: Table 2 — failures out of 48 StreamIt instances per grid size.
PAPER_TABLE2_FAILURES: dict[str, dict[str, int]] = {
    "4x4": dict(zip(PAPER_ORDER, (5, 4, 16, 20, 16))),
    "6x6": dict(zip(PAPER_ORDER, (0, 0, 17, 20, 8))),
}

#: Table 3 — failures out of 2000 random 50-stage instances per CCR
#: (4x4 grid).
PAPER_TABLE3_FAILURES: dict[float, dict[str, int]] = {
    10.0: dict(zip(PAPER_ORDER, (58, 56, 156, 1516, 2))),
    1.0: dict(zip(PAPER_ORDER, (58, 56, 156, 1520, 4))),
    0.1: dict(zip(PAPER_ORDER, (300, 287, 348, 1340, 916))),
}

#: Instances behind each Table 3 row.
PAPER_TABLE3_INSTANCES = 2000


def table2_row(grid: str) -> list[int]:
    """Table-2 failures for grid "4x4" or "6x6", in PAPER_ORDER."""
    return [PAPER_TABLE2_FAILURES[grid][h] for h in PAPER_ORDER]


def table3_row(ccr: float) -> list[int]:
    """Table-3 failures for one CCR, in PAPER_ORDER."""
    return [PAPER_TABLE3_FAILURES[ccr][h] for h in PAPER_ORDER]
