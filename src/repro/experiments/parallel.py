"""Process-parallel experiment engine with fault-tolerant execution.

The paper's figures sweep thousands of independent ``choose_period``
runs (12 StreamIt workflows x 4 CCRs, random-SPG panels with
per-elevation replicates).  Each run is CPU-bound pure Python, so the
engine fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`:

* **Seed stability.**  The serial harness threads one RNG through SPG
  generation and period selection.  The parent process keeps doing exactly
  that — it generates every instance and pre-draws every heuristic seed in
  the original order — and ships ``(instance, seed)`` tasks to workers.
  Results are therefore bit-identical to a serial run for any ``jobs``.
* **Tracked per-chunk futures.**  Tasks are submitted in deterministic
  chunks through per-chunk futures (not bare ``Executor.map``), so the
  engine knows exactly which task indices are in flight and can re-run
  only the lost work when something goes wrong.
* **Fault tolerance.**  A crashed worker (``BrokenProcessPool``) or a
  chunk that blows its :class:`~repro.resilience.RetryPolicy` deadline
  kills and respawns the pool and re-runs only the affected tasks with
  the *same pre-drawn seeds*, so every surviving result is still
  bit-identical to a serial fault-free run.  A crash is charged only to
  the task that crashed: the chunks it took down are re-run one task
  at a time, and only a task that crashes there uses up an attempt.
  A task that exhausts its attempts becomes a typed
  :class:`~repro.resilience.TaskFailure` record (``failures="record"``)
  or a :class:`~repro.resilience.TaskError` (``failures="raise"``, the
  default) instead of a raw pool exception discarding every in-flight
  result.
* **Deterministic chaos.**  A :class:`~repro.resilience.FaultPlan`
  (``faults=`` or the ``REPRO_FAULT_PLAN`` environment variable)
  injects crashes and hangs at index- and attempt-addressed points, so
  every recovery path above is testable and reproducible
  (``tests/test_resilience.py``).
* **Ordered merge.**  Results are keyed by task index and assembled in
  submission order, exactly as the serial loops would.

``jobs=1`` (the default everywhere) bypasses the pool entirely and runs
in-process — retries and fault injection still apply (injected crashes
and hangs surface as typed exceptions there), which keeps the recovery
logic testable without a pool.

The engine is strategy-agnostic: the ``heuristics`` tuples inside task
payloads may name Section-5 heuristics or any solver spec from the
unified registry (``"dpa2d1d+refine"``, ``"portfolio"`` — see
``repro.solvers``), and :func:`portfolio_member_task` (re-exported from
``repro.solvers.composite``) fans portfolio members over the same pool
with pre-drawn seeds, keeping portfolio winners jobs-invariant too.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.experiments.period import PeriodChoice, choose_period
from repro.obs.profile import maybe_profile
from repro.obs.session import absorb, capture, capture_config, event, inc
from repro.resilience import (
    ExecutionStats,
    FaultPlan,
    RetryPolicy,
    TaskError,
    TaskFailure,
    WorkerCrash,
    WorkerHang,
    resolve_fault_plan,
)
from repro.resilience.faults import trigger_in_worker, trigger_serial
from repro.solvers.composite import portfolio_member_task

__all__ = [
    "resolve_jobs",
    "run_tasks",
    "random_panel_task",
    "streamit_task",
    "portfolio_member_task",
    "pool_available",
]


#: Memoised result of the one-shot pool probe (None = not probed yet).
_POOL_OK: bool | None = None


def pool_available() -> bool:
    """Best-effort check that process pools work in this environment.

    Catches only the failure modes a sandboxed or restricted platform
    actually produces — missing semaphores/pipes (``OSError``), a pool
    that breaks on spawn (``BrokenProcessPool`` is a ``RuntimeError``),
    or an unsupported start method (``NotImplementedError``) — so a
    genuine bug (e.g. a ``TypeError`` in the probe) still surfaces.
    """
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return list(pool.map(_identity_probe, [1])) == [1]
    except (OSError, RuntimeError, NotImplementedError):
        return False


def _pool_ok() -> bool:
    global _POOL_OK
    if _POOL_OK is None:
        _POOL_OK = pool_available()
    return _POOL_OK


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs.

    When more than one worker is requested but process pools do not
    work in this environment (sandboxes without semaphores, restricted
    platforms), falls back to ``1`` with a visible warning instead of
    failing later with a mid-sweep ``BrokenProcessPool``.
    """
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    if jobs > 1 and not _pool_ok():
        # The degradation must be diagnosable after the fact, not only
        # from a scrolled-away warning: count it and stamp a structured
        # event into any active trace (both no-ops when obs is off).
        inc("engine.jobs_fallback")
        event("warning.jobs_fallback", requested=jobs)
        warnings.warn(
            f"process pools are unavailable in this environment; "
            f"falling back to jobs=1 (requested {jobs})",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return jobs


@dataclass(frozen=True)
class _ChunkTaskError:
    """A task function's own exception, shipped back from a worker so
    one bad task cannot poison its chunk-mates' results."""

    index: int
    message: str


@dataclass(frozen=True)
class _ObsWrapped:
    """A task outcome bundled with the worker's telemetry buffer (only
    produced when the parent had an observability session active)."""

    value: object
    blob: dict


def _run_chunk(payload):
    """Worker entry: run one chunk of ``(index, attempt, task)`` entries.

    Fault sites armed for ``(index, attempt)`` fire *before* the task
    runs — a crash takes the worker process down (the parent sees
    ``BrokenProcessPool``), a hang sleeps through the deadline.  Task
    exceptions are captured per entry so the rest of the chunk still
    returns.

    When the parent traced/metered (``obs_cfg``), each task runs under a
    local buffering session whose spans and counters ship back with the
    result — the parent absorbs them in task-index order, which keeps
    metric aggregates identical to a serial run.  ``REPRO_PROFILE``
    additionally dumps one ``cProfile`` file per executed chunk.
    """
    fn, entries, faults, obs_cfg = payload
    out = []
    with maybe_profile("worker"):
        for index, attempt, task in entries:
            if faults is not None:
                site = faults.task_fault(index, attempt)
                if site is not None:
                    trigger_in_worker(site)
            blob = None
            try:
                if obs_cfg is not None:
                    with capture(obs_cfg) as cap:
                        result = fn(task)
                    blob = cap.export()
                else:
                    result = fn(task)
            except Exception as exc:
                result = _ChunkTaskError(
                    index, f"{type(exc).__name__}: {exc}"
                )
                if obs_cfg is not None:
                    blob = cap.export()
            out.append(
                result if blob is None else _ObsWrapped(result, blob)
            )
    return out


def _token(tokens, index: int):
    return index if tokens is None else tokens[index]


def run_tasks(
    fn: Callable,
    tasks: Sequence,
    jobs: int | None = 1,
    chunksize: int | None = None,
    policy: RetryPolicy | None = None,
    failures: str = "raise",
    faults: "FaultPlan | str | None" = None,
    tokens: Sequence | None = None,
    deadlines: "Sequence[float | None] | None" = None,
    stats: ExecutionStats | None = None,
    progress: Callable | None = None,
) -> list:
    """Apply ``fn`` to every task, preserving order, surviving faults.

    ``jobs <= 1`` runs serially in-process; otherwise a process pool
    with ``jobs`` workers executes the tasks in chunks and the results
    are merged back in submission order.  Either way, work lost to a
    crashed or hung worker is retried under ``policy`` (default:
    :class:`~repro.resilience.RetryPolicy` — 3 attempts, exponential
    backoff with deterministic jitter, no deadline) with the exact same
    task tuples, so retried successes are bit-identical to a fault-free
    run.

    ``failures``
        ``"raise"`` (default): a terminally failed task raises a typed
        :class:`~repro.resilience.TaskError`; on the serial path a task
        function's own exception propagates unchanged.  ``"record"``:
        terminally failed tasks yield :class:`~repro.resilience.TaskFailure`
        entries *in place* in the result list, and the sweep goes on.
    ``faults``
        A :class:`~repro.resilience.FaultPlan` (or its spec string);
        ``None`` reads ``REPRO_FAULT_PLAN`` from the environment.
    ``tokens``
        Per-task backoff-jitter tokens (the pre-drawn task seeds, where
        the caller has them); defaults to the task index.
    ``deadlines``
        Per-task overrides of ``policy.deadline_s`` (e.g. the batch
        service's per-request deadlines).  A chunk's wall-clock budget
        is the sum of its members' deadlines, measured from submission;
        chunks holding any unbounded task are never timed out.
    ``stats``
        An :class:`~repro.resilience.ExecutionStats` to fill with
        retry/respawn/failure counters (never part of canonical
        reports).
    ``progress``
        An optional ``callback(index, result)`` invoked once per task
        as its *terminal* outcome lands (success or
        :class:`~repro.resilience.TaskFailure`; retried attempts do not
        fire it).  On the pool path it fires as futures complete, i.e.
        in completion order, not submission order — strictly a liveness
        channel (e.g. ``repro sweep --progress``), never part of any
        canonical output.
    """
    tasks = list(tasks)
    policy = RetryPolicy() if policy is None else policy
    plan = resolve_fault_plan(faults)
    if stats is None:
        stats = ExecutionStats()
    if failures not in ("raise", "record"):
        raise ValueError(f"failures must be 'raise' or 'record', got "
                         f"{failures!r}")
    if deadlines is not None and len(deadlines) != len(tasks):
        raise ValueError("deadlines must align with tasks")
    if len(tasks) <= 1:
        jobs = 1
    else:
        jobs = resolve_jobs(jobs)
    # Mirror resilience activity into the metrics registry (satellite
    # of the telemetry-analytics PR): deltas only, and only when
    # nonzero, so a clean run's counter set stays jobs-invariant (pool
    # respawns differ from serial only under faults).
    before = (stats.retries, stats.crashes, stats.timeouts, stats.respawns)
    try:
        if jobs <= 1:
            results = _run_serial(
                fn, tasks, policy, plan, tokens, failures, stats, progress
            )
        else:
            results = _run_pool(
                fn, tasks, jobs, chunksize, policy, plan, tokens,
                deadlines, stats, capture_config(), progress,
            )
            if failures == "raise":
                for r in results:
                    if isinstance(r, TaskFailure):
                        raise TaskError(r)
    finally:
        after = (stats.retries, stats.crashes, stats.timeouts,
                 stats.respawns)
        for name, b, a in zip(
            ("retries", "crashes", "timeouts", "respawns"), before, after
        ):
            if a > b:
                inc(f"engine.{name}", a - b)
    return results


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------
def _run_serial(fn, tasks, policy, plan, tokens, failures, stats,
                progress=None):
    """In-process execution with the same retry contract as the pool.

    Injected crashes and hangs surface as :class:`WorkerCrash` /
    :class:`WorkerHang` (there is no process to kill or preempt
    in-process), mapped to the pool path's "crash"/"timeout" outcomes;
    real deadlines cannot be enforced without a separate process.
    """
    results = []
    for i, task in enumerate(tasks):
        attempt = 1
        while True:
            reason = message = None
            try:
                if plan is not None:
                    site = plan.task_fault(i, attempt)
                    if site is not None:
                        trigger_serial(site)
                results.append(fn(task))
                if progress is not None:
                    progress(i, results[-1])
                break
            except WorkerCrash as exc:
                reason, message = "crash", str(exc)
                stats.crashes += 1
            except WorkerHang as exc:
                reason, message = "timeout", str(exc)
                stats.timeouts += 1
            except Exception as exc:
                if failures == "raise":
                    raise
                tf = TaskFailure(
                    i, "error", f"{type(exc).__name__}: {exc}", attempt
                )
                stats.failures.append(tf)
                results.append(tf)
                if progress is not None:
                    progress(i, tf)
                break
            if attempt >= policy.max_attempts:
                tf = TaskFailure(i, reason, message, attempt)
                stats.failures.append(tf)
                if failures == "raise":
                    raise TaskError(tf)
                results.append(tf)
                if progress is not None:
                    progress(i, tf)
                break
            time.sleep(policy.delay(attempt, _token(tokens, i)))
            stats.retries += 1
            attempt += 1
    return results


# ----------------------------------------------------------------------
# Pool path
# ----------------------------------------------------------------------
def _chunk_budget(policy, deadlines, indices) -> float | None:
    """A chunk's wall-clock budget: the sum of its members' effective
    deadlines, or ``None`` (never time out) if any member is unbounded."""
    total = 0.0
    for i in indices:
        d = None if deadlines is None else deadlines[i]
        if d is None:
            d = policy.deadline_s
        if d is None:
            return None
        total += d
    return total


def _kill_pool(pool) -> None:
    """Forcibly stop a pool that may hold hung workers.

    ``shutdown`` alone would join workers that are asleep in an
    injected (or real) hang; terminating the processes first is the
    only way the parent can reclaim them.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    pool.shutdown(wait=True, cancel_futures=True)


def _run_pool(
    fn, tasks, jobs, chunksize, policy, plan, tokens, deadlines, stats,
    obs_cfg=None, progress=None,
):
    """Tracked per-chunk futures with kill-and-respawn recovery.

    Two queues of ``(indices, attempt)`` work items drive the loop; each
    pool generation drains one of them.  A normal generation keeps at
    most ``2 * jobs`` chunks in flight: enough that no worker waits for
    the parent to submit, and few enough that a crash takes down only
    chunks that were running or about to run.  A worker crash breaks
    the pool for every chunk in flight without saying whose task
    crashed, so the unfinished in-flight chunks are requeued
    *uncharged* as singleton suspects, while chunks not yet submitted
    stay in the normal queue.  Suspects run in an isolation generation,
    one task in flight on a one-worker pool: a crash there can only be
    the running task's, so it alone is charged an attempt and retried
    in isolation (or failed terminally), and an innocent task is never
    charged for a neighbour's crash.  The rest of the queue then runs
    on a ``jobs``-wide pool again.  On a blown deadline only the
    earliest-expired chunk is charged and the rest are requeued with a
    fresh budget.
    Tasks are pure functions of their tuples, so however many times a
    chunk is re-run, surviving results are identical.
    """
    n = len(tasks)
    if chunksize is None:
        chunksize = max(1, n // (4 * jobs))
    results: dict[int, object] = {}
    # Telemetry blobs by task index; dict overwrite keeps only the final
    # attempt's buffer, matching what a serial fault-free run records.
    obs_by_idx: dict[int, dict] = {}
    queue: list[tuple[tuple[int, ...], int]] = [
        (tuple(range(lo, min(lo + chunksize, n))), 1)
        for lo in range(0, n, chunksize)
    ]
    suspects: list[tuple[tuple[int, ...], int]] = []
    spawns = 0
    backoff = 0.0

    def charge(indices, attempt, reason, retry_queue):
        """One failed attempt for every task in ``indices``: requeue as
        singletons at ``attempt + 1``, or fail terminally."""
        nonlocal backoff
        for i in indices:
            if attempt >= policy.max_attempts:
                tf = TaskFailure(
                    i, reason,
                    f"worker {reason} (attempt {attempt})", attempt,
                )
                stats.failures.append(tf)
                results[i] = tf
                if progress is not None:
                    progress(i, tf)
            else:
                stats.retries += 1
                retry_queue.append(((i,), attempt + 1))
                backoff = max(
                    backoff, policy.delay(attempt, _token(tokens, i))
                )

    while queue or suspects:
        isolate = bool(suspects)
        if isolate:
            waiting, suspects = suspects, []
        else:
            waiting, queue = queue, []
        window = 1 if isolate else 2 * jobs
        pool = ProcessPoolExecutor(max_workers=1 if isolate else jobs)
        spawns += 1
        info: dict = {}
        pending: set = set()
        broke = False
        try:
            while waiting or pending:
                while waiting and len(pending) < window and not broke:
                    indices, attempt = waiting.pop(0)
                    entries = [(i, attempt, tasks[i]) for i in indices]
                    fut = pool.submit(
                        _run_chunk, (fn, entries, plan, obs_cfg)
                    )
                    budget = _chunk_budget(policy, deadlines, indices)
                    info[fut] = (
                        indices, attempt,
                        None if budget is None
                        else time.monotonic() + budget,
                    )
                    pending.add(fut)
                if broke and not pending:
                    # Never submitted, so not suspects: they go back to
                    # the queue they came from, uncharged.
                    (suspects if isolate else queue).extend(waiting)
                    break
                cutoffs = [
                    info[f][2] for f in pending if info[f][2] is not None
                ]
                timeout = None
                if cutoffs:
                    timeout = max(0.0, min(cutoffs) - time.monotonic())
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    indices, attempt, _cutoff = info[fut]
                    try:
                        chunk_out = fut.result()
                    except BrokenProcessPool:
                        # The pool is broken for everyone; the rest of
                        # the in-flight chunks drain through `done` on
                        # the next wait() rounds (a broken pool
                        # completes them all immediately).
                        if not broke:
                            stats.crashes += 1
                        broke = True
                        if isolate:
                            charge(indices, attempt, "crash", suspects)
                        else:
                            suspects.extend(((i,), attempt) for i in indices)
                        continue
                    for i, r in zip(indices, chunk_out):
                        if isinstance(r, _ObsWrapped):
                            obs_by_idx[i] = r.blob
                            r = r.value
                        if isinstance(r, _ChunkTaskError):
                            tf = TaskFailure(i, "error", r.message, attempt)
                            stats.failures.append(tf)
                            results[i] = tf
                        else:
                            results[i] = r
                        if progress is not None:
                            progress(i, results[i])
                if broke:
                    continue
                if not done and pending:
                    # A deadline expired.  Charge only the
                    # earliest-expired chunk (with a hung worker pinning
                    # one slot, that is the chunk actually stuck);
                    # everything else is requeued uncharged with a
                    # fresh budget on the respawned pool.
                    now = time.monotonic()
                    expired = [
                        f for f in pending
                        if info[f][2] is not None and info[f][2] <= now
                    ]
                    if not expired:
                        continue  # pragma: no cover - wait() raced a result
                    victim = min(expired, key=lambda f: info[f][2])
                    stats.timeouts += 1
                    indices, attempt, _cutoff = info[victim]
                    charge(indices, attempt, "timeout", queue)
                    pending.discard(victim)
                    requeue = suspects if isolate else queue
                    for fut in pending:
                        indices, attempt, _cutoff = info[fut]
                        requeue.append((indices, attempt))
                    requeue.extend(waiting)
                    waiting, pending = [], set()
                    broke = True
        finally:
            if broke:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)
        if backoff > 0:
            # Deterministic backoff: one sleep per respawn round, the
            # longest of the retried tasks' delays.
            time.sleep(backoff)
            backoff = 0.0
        queue.sort(key=lambda item: item[0])
        suspects.sort(key=lambda item: item[0])
    stats.respawns += spawns - 1
    # Fold worker telemetry into the parent session in task-index order
    # — the ordering (not worker scheduling) is what makes the merged
    # aggregates identical to a serial run's.
    for i in sorted(obs_by_idx):
        absorb(obs_by_idx[i])
    return [results[i] for i in range(n)]


# ----------------------------------------------------------------------
# Task functions
# ----------------------------------------------------------------------
def random_panel_task(task) -> PeriodChoice:
    """Worker for one random-SPG replicate: ``(spg, grid, heuristics,
    seed, options)`` — the SPG was generated (and the seed pre-drawn) by
    the parent so the shared RNG stream is consumed in serial order."""
    spg, grid, heuristics, seed, options = task
    try:
        return choose_period(
            spg, grid, heuristics, seed=seed, options=options
        )
    finally:
        # Experiment records keep the SPG alive for the whole sweep; drop
        # the instance's DP scratch state (ideal lattice, suffix table)
        # so serial runs don't accumulate it.  (Pool workers shed it
        # implicitly: SPG.__reduce__ excludes the cache from the pickle.)
        spg._derived.clear()


def streamit_task(task) -> PeriodChoice:
    """Worker for one (workflow, CCR) instance: ``(idx, ccr, wf_seed,
    grid, heuristics, seed, options)`` — the workflow is synthesised in the
    worker (it only depends on the integer ``wf_seed``)."""
    from repro.spg.streamit import streamit_workflow

    idx, ccr, wf_seed, grid, heuristics, seed, options = task
    spg = streamit_workflow(idx, ccr=ccr, seed=wf_seed)
    try:
        return choose_period(
            spg, grid, heuristics, seed=seed, options=options
        )
    finally:
        spg._derived.clear()


def _identity_probe(x):  # pragma: no cover - used by engine self-tests
    return x
