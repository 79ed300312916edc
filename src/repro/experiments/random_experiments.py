"""Random-SPG experiments: Figures 10-13 and Table 3 of the paper.

For a given application size ``n`` and square grid, random SPGs are binned
by elevation; for each instance the period is chosen by the divide-by-10
procedure and all heuristics run.  The plots show, per elevation bin, the
average of ``E_min / E`` (inverse energy normalised to the best heuristic,
failures counting 0); Table 3 counts failures per heuristic and CCR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.parallel import random_panel_task, run_tasks
from repro.experiments.runner import (
    FailureCounter,
    InstanceRecord,
    normalized_inverse_energy,
)
from repro.heuristics.base import PAPER_ORDER
from repro.platform.topology import Topology
from repro.spg.random_gen import random_spg_with_elevation
from repro.util.fmt import format_table
from repro.util.rng import as_rng

__all__ = ["RandomExperiment", "run_random_experiment", "DEFAULT_ELEVATIONS"]

#: Elevation bins: the paper sweeps 1..~20 (50 nodes) / 1..~30 (150 nodes).
DEFAULT_ELEVATIONS: tuple[int, ...] = (1, 2, 4, 6, 8, 12, 16, 20)


@dataclass
class RandomExperiment:
    """Results of one (n, grid, CCR) sweep over elevation bins."""

    n: int
    grid: Topology
    ccr: float
    records: dict[int, list[InstanceRecord]]  # elevation -> replicates
    heuristics: tuple[str, ...]

    def mean_inverse_energy(self) -> dict[int, dict[str, float]]:
        """Per elevation bin, the mean normalised inverse energy (Figs 10-13)."""
        out: dict[int, dict[str, float]] = {}
        for elev, recs in sorted(self.records.items()):
            sums = {h: 0.0 for h in self.heuristics}
            for rec in recs:
                inv = normalized_inverse_energy(rec)
                for h in self.heuristics:
                    sums[h] += inv.get(h, 0.0)
            out[elev] = {h: sums[h] / len(recs) for h in self.heuristics}
        return out

    def failure_table(self) -> FailureCounter:
        """Failure counts over every instance of the sweep (Table 3 row)."""
        counter = FailureCounter(self.heuristics)
        for recs in self.records.values():
            for rec in recs:
                counter.add(rec)
        return counter

    def render(self) -> str:
        series = self.mean_inverse_energy()
        rows = [
            [elev, *(round(series[elev][h], 3) for h in self.heuristics)]
            for elev in sorted(series)
        ]
        table = format_table(
            ["elevation", *self.heuristics],
            rows,
            title=(
                f"Mean normalised 1/E (n={self.n}, "
                f"{self.grid.p}x{self.grid.q} grid, CCR={self.ccr:g})"
            ),
        )
        counter = self.failure_table()
        fails = format_table(
            [*self.heuristics],
            [counter.row()],
            title=f"Failures out of {counter.total} instances",
        )
        return table + "\n\n" + fails


def run_random_experiment(
    n: int,
    grid: Topology,
    ccr: float,
    elevations=DEFAULT_ELEVATIONS,
    replicates: int = 10,
    seed: int = 0,
    jobs: int | None = 1,
    solvers=None,
) -> RandomExperiment:
    """Run one Figure-10..13 panel.

    The paper averages 100 random graphs per elevation value; benchmarks use
    a smaller ``replicates`` to bound wall-time (the paper-scale run is
    ROADMAP.md item 4).

    ``jobs`` fans the per-replicate ``choose_period`` runs out over a
    process pool (``None``/``0`` = all CPUs).  The instances and solver
    seeds are generated serially in the parent first, so the results are
    bit-identical for every ``jobs`` value.

    ``solvers`` names the comparison columns: the five paper heuristics
    by default, or any solver specs from the unified registry
    (``"dpa2d1d+refine"``, ``"portfolio"``, ...).  A refined column is
    a pipeline spec: ``"<H>+refine"`` post-refines every successful
    ``H`` mapping with the delta-evaluated local search
    (``+refine-best``/``+refine-anneal``/``+refine-general`` pick other
    acceptance rules or admit general mappings).
    """
    rng = as_rng(seed)
    heuristics = tuple(solvers or PAPER_ORDER)
    labels: list[tuple[int, str]] = []
    tasks = []
    for elev in elevations:
        if elev > n // 2:
            continue  # unreachable elevation for this size
        for rep in range(replicates):
            # Consume the shared stream exactly as the serial loop did:
            # instance generation first, then the heuristic seed that
            # choose_period would have drawn.
            spg = random_spg_with_elevation(n, elev, rng=rng, ccr=ccr)
            hseed = int(rng.integers(0, 2**63 - 1))
            labels.append((elev, f"n{n}/elev{elev}/rep{rep}"))
            tasks.append((spg, grid, heuristics, hseed))
    choices = run_tasks(random_panel_task, tasks, jobs=jobs)
    records: dict[int, list[InstanceRecord]] = {}
    for (elev, label), choice in zip(labels, choices):
        records.setdefault(elev, []).append(
            InstanceRecord.from_choice(label, choice)
        )
    return RandomExperiment(n, grid, ccr, records, heuristics)
