"""Fault tolerance for the parallel engine, sweeps, store and service.

The experimental campaign is hours of independent solver runs fanned
over process pools, and the ROADMAP's north star is an always-on mapping
service — neither can afford one crashed worker discarding every
in-flight result, or one corrupt SQLite row aborting a resumed sweep.
This package makes faults *first-class, deterministic inputs*:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (attempt caps,
  exponential backoff with deterministic jitter, per-task deadlines)
  and the typed :class:`TaskFailure` record that replaces a raw
  ``BrokenProcessPool`` when a task exhausts its retries;
* :mod:`repro.resilience.faults` — :class:`FaultPlan`, a compact spec
  (``"crash@task:3;hang@task:5*2:0.5;corrupt@key:ab"``, also read from
  the ``REPRO_FAULT_PLAN`` environment variable) injecting worker
  crashes, hangs and store-row corruption at index- or key-addressed
  points, so every recovery path is testable and every chaos run
  reproducible.

The engine (:func:`repro.experiments.parallel.run_tasks`) re-runs lost
work with the *same pre-drawn seeds*, so results that survive a fault
are bit-identical to a fault-free run — the chaos battery
(``tests/test_resilience.py``) and the chaos steps of the CI store-smoke
job ``cmp`` the consolidated reports byte for byte.
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultSite,
    WorkerCrash,
    WorkerHang,
    resolve_fault_plan,
)
from repro.resilience.policy import (
    ExecutionStats,
    RetryPolicy,
    TaskError,
    TaskFailure,
)

__all__ = [
    "RetryPolicy",
    "TaskFailure",
    "TaskError",
    "ExecutionStats",
    "FaultPlan",
    "FaultSite",
    "WorkerCrash",
    "WorkerHang",
    "resolve_fault_plan",
]
