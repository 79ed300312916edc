"""StreamIt experiments: Figures 8-9 and Table 2 of the paper.

For each of the 12 workflows and each CCR setting (original, 10, 1, 0.1)
the period bound is selected with the divide-by-10 procedure and all five
heuristics are run; the plots report the energy of each heuristic
normalised by the best heuristic's energy on that instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.parallel import run_tasks, streamit_task
from repro.experiments.runner import (
    FailureCounter,
    InstanceRecord,
    normalized_energy,
)
from repro.heuristics.base import PAPER_ORDER
from repro.platform.topology import Topology
from repro.spg.streamit import STREAMIT_TABLE1
from repro.util.fmt import format_table
from repro.util.rng import as_rng

__all__ = ["StreamItExperiment", "run_streamit_experiment", "CCR_SETTINGS"]

#: The four CCR settings of Figures 8 and 9 (None = original CCR).
CCR_SETTINGS: tuple[float | None, ...] = (None, 10.0, 1.0, 0.1)


@dataclass
class StreamItExperiment:
    """Results of one grid size's sweep over workflows and CCRs."""

    grid: Topology
    records: dict[tuple[int, float | None], InstanceRecord]
    heuristics: tuple[str, ...]

    def normalized_table(self, ccr: float | None) -> list[list[object]]:
        """Rows: [app index, name, normalised energy per heuristic or FAIL]."""
        rows: list[list[object]] = []
        for spec in STREAMIT_TABLE1:
            rec = self.records.get((spec.index, ccr))
            if rec is None:
                continue
            norm = normalized_energy(rec)
            row: list[object] = [spec.index, spec.name]
            for h in self.heuristics:
                v = norm.get(h, float("inf"))
                row.append("FAIL" if v == float("inf") else round(v, 3))
            rows.append(row)
        return rows

    def failure_table(self) -> FailureCounter:
        """Failure counts over all (workflow, CCR) instances (Table 2 row)."""
        counter = FailureCounter(self.heuristics)
        for rec in self.records.values():
            counter.add(rec)
        return counter

    def render(self) -> str:
        """Human-readable report for every CCR setting."""
        blocks = []
        for ccr in sorted({c for (_i, c) in self.records}, key=lambda c: (c is None, c)):
            label = "original CCR" if ccr is None else f"CCR = {ccr:g}"
            blocks.append(
                format_table(
                    ["idx", "workflow", *self.heuristics],
                    self.normalized_table(ccr),
                    title=f"Normalised energy ({label}, "
                    f"{self.grid.p}x{self.grid.q} grid)",
                )
            )
        counter = self.failure_table()
        blocks.append(
            format_table(
                [*self.heuristics],
                [counter.row()],
                title=f"Failures out of {counter.total} instances (Table 2)",
            )
        )
        return "\n\n".join(blocks)


def run_streamit_experiment(
    grid: Topology,
    ccrs=CCR_SETTINGS,
    workflows: tuple[int, ...] | None = None,
    seed: int = 0,
    jobs: int | None = 1,
    solvers=None,
) -> StreamItExperiment:
    """Run the Figure-8/9 sweep on ``grid``.

    ``workflows`` restricts to a subset of Table-1 indices (all by default);
    benchmarks use subsets to bound wall-time.

    ``jobs`` fans the workflows out over a process pool (``None``/``0``
    = all CPUs), one task running ``choose_period`` at each of the
    workflow's CCRs; solver seeds are pre-drawn serially per instance so
    results match a serial run bit for bit.

    ``solvers`` names the comparison columns: the five paper heuristics
    by default, or any solver specs from the unified registry
    (``"dpa2d1d+refine"``, ``"portfolio"``, ...); a refined Figure-8
    run is ``solvers=tuple(f"{h}+refine" for h in PAPER_ORDER)``.
    """
    rng = as_rng(seed)
    heuristics = tuple(solvers or PAPER_ORDER)
    indices = workflows or tuple(s.index for s in STREAMIT_TABLE1)
    ccrs = tuple(ccrs)
    keys: list[tuple[int, float | None]] = []
    tasks = []
    # One task per workflow, so its CCR variants share one ideal lattice;
    # the heuristic seeds are still drawn per (workflow, CCR) instance in
    # the serial order.
    for idx in indices:
        hseeds = tuple(int(rng.integers(0, 2**63 - 1)) for _ in ccrs)
        keys.extend((idx, ccr) for ccr in ccrs)
        tasks.append((idx, ccrs, seed, grid, heuristics, hseeds))
    choices = [
        choice
        for per_ccr in run_tasks(streamit_task, tasks, jobs=jobs)
        for choice in per_ccr
    ]
    records: dict[tuple[int, float | None], InstanceRecord] = {}
    for (idx, ccr), choice in zip(keys, choices):
        label = f"app{idx}/ccr={'orig' if ccr is None else ccr}"
        records[(idx, ccr)] = InstanceRecord.from_choice(label, choice)
    return StreamItExperiment(grid, records, heuristics)
