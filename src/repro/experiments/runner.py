"""Aggregation helpers shared by the StreamIt and random-SPG experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.period import PeriodChoice
from repro.heuristics.base import PAPER_ORDER
from repro.solvers.base import SolverResult

__all__ = ["InstanceRecord", "FailureCounter", "normalized_energy",
           "normalized_inverse_energy"]


@dataclass(frozen=True)
class InstanceRecord:
    """One instance's outcome: chosen period plus per-heuristic results."""

    label: str
    period: float
    results: dict[str, SolverResult]

    @staticmethod
    def from_choice(label: str, choice: PeriodChoice) -> "InstanceRecord":
        return InstanceRecord(label, choice.period, choice.results)

    def best_energy(self) -> float:
        """Minimum total energy over successful heuristics (inf if none)."""
        return min(
            (r.total_energy for r in self.results.values()), default=float("inf")
        )


def normalized_energy(record: InstanceRecord) -> dict[str, float]:
    """``E / E_min`` per heuristic (Figures 8-9; inf for failures).

    The best heuristic returns 1.0 and the others return larger values.
    """
    best = record.best_energy()
    return {
        name: (r.total_energy / best) if r.ok else float("inf")
        for name, r in record.results.items()
    }


def normalized_inverse_energy(record: InstanceRecord) -> dict[str, float]:
    """``E_min / E`` per heuristic (Figures 10-13; 0.0 for failures).

    The best heuristic returns 1.0 and the others return smaller values;
    failures contribute 0, matching the paper's averaging over 100 graphs.
    """
    best = record.best_energy()
    return {
        name: (best / r.total_energy) if r.ok else 0.0
        for name, r in record.results.items()
    }


@dataclass
class FailureCounter:
    """Counts heuristic failures across instances (Tables 2 and 3)."""

    heuristics: tuple[str, ...] = PAPER_ORDER
    total: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def add(self, record: InstanceRecord) -> None:
        self.total += 1
        for name in self.heuristics:
            r = record.results.get(name)
            if r is None or not r.ok:
                self.failures[name] = self.failures.get(name, 0) + 1

    def row(self) -> list[int]:
        return [self.failures.get(name, 0) for name in self.heuristics]
