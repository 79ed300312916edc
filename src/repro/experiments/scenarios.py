"""Scenario sweep engine: cross-products over the platform registry.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
this module fans a cross-product of **{topology, platform size, CCR,
application class}** over the PR-1 parallel experiment engine and emits
one consolidated, JSON-serialisable report.  The strategy axis is the
unified solver registry: ``solvers=`` (CLI ``--solvers``) replaces the
default heuristic columns with arbitrary solver specs, so the
cross-product also fans over strategies (``dpa2d1d+refine``,
``portfolio``, ``greedy|dpa1d``, ...).

Each scenario instance runs the full divide-by-10 period selection plus
every requested solver (independently re-validated by
:func:`repro.solvers.run`, so every route in the report passed
``Topology.validate_path``).  Instances and solver seeds are generated
serially in the parent in a fixed order, then executed through
:func:`repro.experiments.parallel.run_tasks` — results are bit-identical
for any ``jobs`` value, exactly as in the figure sweeps.

A StreamIt (app, CCR) graph is built once per call, and the selected
cells sharing it run as one pool task (:func:`sweep_group_task`), so a
worker builds its ideal lattice and DPA2D blocks once for every
topology.  The cells also share the DP solves memoised on the graph
(:func:`repro.heuristics.base.shared_solve`): DPA1D, DPA2D and DPA2D1D
are keyed by period, base power model and virtual grid, never by the
topology, and hetmesh keeps the base model as ``grid.model``.  Records,
fingerprints, failures and progress stay per cell.

Sweeps are **resumable and shardable** through the content-addressed
result store (``repro/store/``): ``store=`` files every completed cell
under its fingerprint, ``resume=True`` skips cells already present, and
``shard="i/N"`` deterministically partitions the cell grid so
independent invocations (or machines) fill one shared store; a final
``resume`` pass over the full grid emits a consolidated report
bit-identical to a cold single-process run.

CLI: ``repro sweep --topologies mesh torus benes --sizes 3x3 4x4
--ccr 1 10 --apps random-20 FMRadio --solvers Greedy dpa2d1d+refine
--replicates 2 --jobs 0 --out r.json`` plus ``--store sweep.sqlite
--resume --shard 0/4 --limit K --checkpoint N``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.parallel import resolve_jobs, run_tasks
from repro.experiments.period import PeriodChoice, choose_period
from repro.experiments.report import REPORT_SCHEMA_VERSION
from repro.obs.session import inc, trace_span
from repro.resilience import (
    ExecutionStats,
    RetryPolicy,
    TaskFailure,
    resolve_fault_plan,
)
from repro.heuristics.base import PAPER_ORDER
from repro.platform.topology import Topology, get_topology
from repro.solvers.base import admits_general
from repro.spg.random_gen import random_spg
from repro.util.fmt import format_table
from repro.util.rng import as_rng
from repro.util.version import repro_version

__all__ = [
    "ScenarioSpec",
    "build_scenarios",
    "run_scenario_sweep",
    "sweep_summary",
    "parse_size",
    "parse_shard",
]

#: Default axes for a small but representative sweep.
DEFAULT_TOPOLOGIES = ("mesh", "torus", "ring", "benes", "hetmesh")
DEFAULT_SIZES = ("3x3",)
DEFAULT_CCRS = (10.0, 1.0)
DEFAULT_APPS = ("random-20",)


def parse_size(spec: "str | tuple[int, int]") -> tuple[int, int]:
    """Parse a platform size like ``'4x4'`` (tuples pass through)."""
    if isinstance(spec, tuple):
        p, q = spec
        return int(p), int(q)
    try:
        p, q = spec.lower().split("x")
        return int(p), int(q)
    except Exception:
        raise ValueError(f"size must look like '4x4', got {spec!r}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """One point of the sweep cross-product."""

    topology: str
    p: int
    q: int
    ccr: float | None  # None = the application's original CCR
    app: str  # "random-N" or a StreamIt name/index

    @property
    def size(self) -> str:
        return f"{self.p}x{self.q}"

    def label(self) -> str:
        ccr = "orig" if self.ccr is None else f"{self.ccr:g}"
        return f"{self.topology}/{self.size}/ccr={ccr}/{self.app}"

    def build_platform(self, model=None) -> Topology:
        return get_topology(self.topology, self.p, self.q, model)

    def build_app(self, rng, seed: int):
        """Synthesise the application SPG for one replicate.

        Random apps consume the shared ``rng`` stream (one draw per
        replicate, in sweep order); StreamIt workflows are deterministic
        functions of the sweep ``seed``.
        """
        if self.app.startswith("random-"):
            n = int(self.app.split("-", 1)[1])
            return random_spg(n, rng=rng, ccr=self.ccr)
        from repro.spg.streamit import streamit_workflow

        which: "int | str" = self.app
        if isinstance(which, str) and which.isdigit():
            which = int(which)
        return streamit_workflow(which, ccr=self.ccr, seed=seed)


def build_scenarios(
    topologies=DEFAULT_TOPOLOGIES,
    sizes=DEFAULT_SIZES,
    ccrs=DEFAULT_CCRS,
    apps=DEFAULT_APPS,
) -> list[ScenarioSpec]:
    """The cross-product, in deterministic sweep order."""
    out: list[ScenarioSpec] = []
    for topo in topologies:
        for size in sizes:
            p, q = parse_size(size)
            for ccr in ccrs:
                for app in apps:
                    out.append(ScenarioSpec(topo, p, q, ccr, app))
    return out


def parse_shard(spec: "str | tuple[int, int] | None") -> tuple[int, int] | None:
    """Parse a shard spec ``"i/N"`` (0-based) into ``(i, N)``.

    Tuples pass through (validated); ``None`` means no sharding.
    """
    if spec is None:
        return None
    if isinstance(spec, tuple):
        i, n = spec
    else:
        try:
            i, n = str(spec).split("/")
        except ValueError:
            raise ValueError(
                f"shard must look like 'i/N' (0-based), got {spec!r}"
            ) from None
    i, n = int(i), int(n)
    if n < 1 or not 0 <= i < n:
        raise ValueError(f"shard needs 0 <= i < N, got {i}/{n}")
    return i, n


def sweep_group_task(cells) -> list:
    """Worker for the sweep cells (``(spg, platform, heuristics, seed)``
    tuples, each run under a ``sweep.cell`` span) that share one SPG
    object, so its ideal lattice, DPA1D cut tables and DPA2D blocks are
    built once for all of them.  A cell that raises yields an
    ``"error"`` :class:`TaskFailure` in its slot; its siblings survive.
    """
    out: list = []
    for spg, platform, heuristics, seed in cells:
        with trace_span("sweep.cell"):
            try:
                out.append(choose_period(spg, platform, heuristics, seed=seed))
            except Exception as exc:
                msg = f"{type(exc).__name__}: {exc}"
                out.append(TaskFailure(len(out), "error", msg, 1))
    cells[0][0].drop_caches()
    return out


def _snap_choice(
    choice: PeriodChoice, heuristics: tuple[str, ...]
) -> tuple[dict, dict[str, bool]]:
    """One record's JSON snapshot plus its per-heuristic success flags.

    Every successful mapping is structurally re-checked here (routes
    through ``validate_path``, speeds in the per-core DVFS sets, acyclic
    quotient unless the column admits general mappings) so the report's
    ``routes_validated`` counts are asserted on the report path itself,
    not only inside the worker.
    """
    results: dict[str, dict] = {}
    ok_flags: dict[str, bool] = {}
    routes = 0
    for name in heuristics:
        r = choice.results[name]
        ok_flags[name] = r.ok
        if r.ok:
            r.mapping.check_structure(not admits_general(name))
            routes += len(r.mapping.remote_edges())
            results[name] = {
                "ok": True,
                "energy": r.energy.total,
                "active_cores": len(r.mapping.active_cores()),
            }
        else:
            results[name] = {"ok": False, "failure": r.failure}
    best = min(
        (r.total_energy for r in choice.results.values()),
        default=float("inf"),
    )
    record = {
        "period": choice.period,
        "best_energy": None if best == float("inf") else best,
        "routes_validated": routes,
        "results": results,
    }
    return record, ok_flags


def run_scenario_sweep(
    topologies=DEFAULT_TOPOLOGIES,
    sizes=DEFAULT_SIZES,
    ccrs=DEFAULT_CCRS,
    apps=DEFAULT_APPS,
    replicates: int = 1,
    seed: int = 0,
    jobs: int | None = 1,
    solvers=None,
    store=None,
    eviction=None,
    resume: bool = False,
    shard: "str | tuple[int, int] | None" = None,
    limit: int | None = None,
    checkpoint: int | None = None,
    policy: RetryPolicy | None = None,
    faults=None,
    stats: ExecutionStats | None = None,
    progress=None,
) -> dict:
    """Run the sweep and return the consolidated JSON-serialisable report.

    ``jobs`` fans the per-instance ``choose_period`` runs over the PR-1
    process pool (``None``/``0`` = all CPUs); instances and solver
    seeds are pre-drawn serially so results match a serial run bit for
    bit.

    ``solvers`` names the columns: the five paper heuristics by
    default, or any solver specs from the unified registry (CLI:
    ``repro sweep --solvers Greedy dpa2d1d+refine portfolio``), adding
    a strategy axis to the scenario cross-product.  A ``"<H>+refine"``
    column post-refines every successful ``H`` mapping with the
    delta-evaluated local search; refined mappings pass the same
    structural re-checks as raw solver outputs.

    Result-store integration (``repro/store/``):

    ``store``
        A :class:`~repro.store.ResultStore`, a SQLite path, or ``None``
        (compute everything, keep nothing).  With a store, every
        computed cell is filed under its content fingerprint.
    ``eviction``
        An :class:`~repro.store.EvictionConfig` (or its dict of fields)
        bounding the store: once a ``put`` leaves it over ``max_rows``/
        ``max_bytes``, rows are evicted in policy order (CLI:
        ``--store-policy/--store-max-rows/--store-max-bytes``).  Evicted
        cells read as misses on resume and are recomputed, so the
        consolidated report stays byte-identical to an unbounded run.
        Ignored without a store.
    ``resume``
        Skip cells whose fingerprint is already in the store and rebuild
        their results from the stored payloads.  A resumed sweep's
        report is **bit-identical** to a cold single-process run.
    ``shard``
        ``"i/N"`` (0-based): process only cells whose grid index is
        ``i mod N``.  The partition is over the deterministic cell order,
        so N invocations with shards ``0/N .. N-1/N`` cover the grid
        exactly once; a final ``resume`` pass (no shard) merges the
        shared store into the consolidated report.
    ``limit``
        Stop after this many cells (of the shard selection) — an
        interruption at a deterministic cell boundary, used to test and
        demonstrate resumption.
    ``checkpoint``
        Compute cache misses in batches of this many cells, filing each
        batch before starting the next (bounds how much work a killed
        sweep can lose).  ``None`` = one batch.  Cells are grouped by
        graph within a batch, so a group never spans two batches.

    Instance generation and seed pre-draws always cover the *full* grid
    in sweep order regardless of shard/resume/limit, so every cell's
    inputs — and therefore its fingerprint and its results — are
    independent of how the grid was partitioned across invocations.

    Resilience (``repro/resilience/``):

    ``policy``
        The :class:`~repro.resilience.RetryPolicy` governing worker
        crashes and hangs (CLI ``--retries`` / ``--deadline-s``).  A
        cell whose retries are exhausted is *degraded, not fatal*: the
        sweep completes without it, records it in ``meta["failures"]``
        (always present, ``[]`` on a clean run, so recovered runs stay
        byte-identical to fault-free ones), and the CLI exits nonzero
        only under ``--strict``.
    ``faults``
        A :class:`~repro.resilience.FaultPlan` or spec string (CLI
        ``--fault-plan``; default: the ``REPRO_FAULT_PLAN`` environment
        variable) injecting deterministic worker crashes/hangs and store
        row corruption.  A ``task:IDX`` site names the IDX-th group of
        an executed batch (its cells sharing a graph, split further when
        graphs are fewer than workers); a group that fails permanently is
        recorded as one failure per member cell, under its own label.
        Corrupt rows are detected by checksum on the next resumed read,
        quarantined, and recomputed.
    ``stats``
        An :class:`~repro.resilience.ExecutionStats` filled with
        retry/crash/timeout/respawn counters per task and permanent
        failures per cell, as ``meta["failures"]`` lists them (operator
        telemetry; the counters enter the report only as
        ``meta["fault_stats"]`` when permanent failures exist — a clean
        recovered run's report carries no trace of the recovery).
    ``progress``
        ``True`` (CLI ``--progress``) emits a live stderr heartbeat —
        cells done/total, rolling-mean ETA, store hit-rate, retry/crash
        counts — plus a stall warning when no cell completes within the
        :class:`~repro.obs.progress.SweepProgress` stall window; pass a
        configured ``SweepProgress`` for custom stream/thresholds.
        Strictly out of band: the consolidated report is byte-identical
        with progress on or off.
    """
    from repro.store.backend import open_store
    from repro.store.fingerprint import cell_fingerprint
    from repro.store.serialize import choice_from_payload, choice_to_payload

    rng = as_rng(seed)
    plan = resolve_fault_plan(faults)
    policy = RetryPolicy() if policy is None else policy
    stats = ExecutionStats() if stats is None else stats
    heuristics = tuple(solvers or PAPER_ORDER)
    scenarios = build_scenarios(topologies, sizes, ccrs, apps)
    tasks = []
    task_meta: list[tuple[int, str]] = []  # (scenario index, label)
    platforms: list[Topology] = []
    graphs: dict = {}  # (app, ccr) -> the one SPG of a StreamIt app
    for s_idx, spec in enumerate(scenarios):
        platform = spec.build_platform()
        platforms.append(platform)
        for rep in range(replicates):
            if spec.app.startswith("random-"):
                spg = spec.build_app(rng, seed)
            elif (spg := graphs.get((spec.app, spec.ccr))) is None:
                spg = graphs[spec.app, spec.ccr] = spec.build_app(rng, seed)
            hseed = int(rng.integers(0, 2**63 - 1))
            tasks.append((spg, platform, heuristics, hseed))
            task_meta.append((s_idx, f"{spec.label()}/rep{rep}"))

    shard_part = parse_shard(shard)
    selected = list(range(len(tasks)))
    if shard_part is not None:
        i, n_shards = shard_part
        selected = [idx for idx in selected if idx % n_shards == i]
    if limit is not None:
        if limit < 0:
            raise ValueError("limit must be non-negative")
        selected = selected[:limit]

    if resume and store is None:
        raise ValueError("resume=True requires a store")
    from repro.store.backend import ResultStore

    # Close only connections this call opened; a live ResultStore passed
    # in stays under the caller's lifecycle.
    own_store = store is not None and not isinstance(store, ResultStore)
    store = open_store(store, faults=plan) if store is not None else None
    if store is not None and eviction is not None:
        from repro.store.eviction import EvictionConfig

        store.configure_eviction(EvictionConfig.from_spec(eviction))

    from repro.obs.progress import as_progress

    tracker = as_progress(progress, stats=stats)

    def execute(indices: list[int]) -> list:
        """Run a batch of cells, one task per group of cells sharing an
        SPG, dealt into sub-groups when there are fewer graphs than
        workers; returns one outcome per cell in ``indices`` order."""
        groups: dict[int, list[int]] = {}
        for i in indices:
            groups.setdefault(id(tasks[i][0]), []).append(i)
        workers = resolve_jobs(jobs) if len(indices) > 1 else 1
        k = -(-workers // max(1, len(groups)))
        members = [
            m[j::k] for m in groups.values() for j in range(min(k, len(m)))
        ]

        def cells_of(g: int, out) -> list:
            failed = isinstance(out, TaskFailure)
            return [out] * len(members[g]) if failed else out

        def on_group(g: int, out) -> None:
            for r in cells_of(g, out):
                tracker.cell_done(failed=isinstance(r, TaskFailure))

        outs = run_tasks(
            sweep_group_task,
            [tuple(tasks[i] for i in m) for m in members],
            jobs=workers,
            policy=policy,
            failures="record",
            faults=plan,
            tokens=[tasks[m[0]][3] for m in members],
            # The deadline stays per cell: a group gets one per member.
            deadlines=None if policy.deadline_s is None
            else [policy.deadline_s * len(m) for m in members],
            stats=stats,
            progress=None if tracker is None else on_group,
        )
        # Stats file failures per cell, as the report does, indexed by
        # batch position: a failed group's record is re-filed per member.
        by_idx: dict[int, object] = {}
        for g, out in enumerate(outs):
            if isinstance(out, TaskFailure):
                stats.failures.remove(out)
            for i, res in zip(members[g], cells_of(g, out)):
                if isinstance(res, TaskFailure):
                    res = replace(res, index=indices.index(i))
                    stats.failures.append(res)
                by_idx[i] = res
        return [by_idx[i] for i in indices]

    choices_by_idx: dict[int, PeriodChoice] = {}
    failed_by_idx: dict[int, TaskFailure] = {}
    if tracker is not None:
        tracker.start(len(selected))
    try:
        with trace_span(
            "sweep.run", cells=len(selected), solvers=len(heuristics)
        ):
            if store is None:
                for idx, res in zip(selected, execute(selected)):
                    if isinstance(res, TaskFailure):
                        inc("sweep.cells_failed")
                        failed_by_idx[idx] = res
                    else:
                        inc("sweep.cells_computed")
                        choices_by_idx[idx] = res
            else:
                keys: dict[int, str] = {}
                misses: list[int] = []
                for idx in selected:
                    spg, platform, _h, hseed = tasks[idx]
                    keys[idx] = cell_fingerprint(
                        spg, platform, heuristics, hseed
                    )
                    # A corrupt stored row is quarantined inside get() and
                    # reads as a miss, so the cell is recomputed here.
                    payload = store.get(keys[idx]) if resume else None
                    if payload is not None:
                        inc("sweep.cells_resumed")
                        choices_by_idx[idx] = choice_from_payload(
                            payload, spg, platform, order=heuristics
                        )
                        if tracker is not None:
                            tracker.cell_done(resumed=True)
                    else:
                        misses.append(idx)
                batch = len(misses) if not checkpoint else max(1, checkpoint)
                for lo in range(0, len(misses), max(1, batch)):
                    chunk = misses[lo : lo + max(1, batch)]
                    for idx, res in zip(chunk, execute(chunk)):
                        if isinstance(res, TaskFailure):
                            inc("sweep.cells_failed")
                            failed_by_idx[idx] = res
                            continue
                        store.put(
                            keys[idx], choice_to_payload(res),
                            kind="sweep-cell",
                        )
                        inc("sweep.cells_computed")
                        choices_by_idx[idx] = res
    finally:
        if tracker is not None:
            tracker.finish()
        if own_store:
            store.close()

    per_scenario: list[dict] = []
    for s_idx, spec in enumerate(scenarios):
        platform = platforms[s_idx]
        per_scenario.append({
            "topology": spec.topology,
            "size": spec.size,
            "cores": platform.n_cores,
            "heterogeneous": platform.heterogeneous,
            "ccr": spec.ccr,
            "app": spec.app,
            "records": [],
            "failures": {h: 0 for h in heuristics},
            "instances": 0,
        })
    cell_failures: list[dict] = []
    for idx in selected:
        s_idx, label = task_meta[idx]
        if idx in failed_by_idx:
            tf = failed_by_idx[idx]
            cell_failures.append({
                "label": label,
                "reason": tf.reason,
                "message": tf.message,
                "attempts": tf.attempts,
            })
            continue
        record, ok_flags = _snap_choice(choices_by_idx[idx], heuristics)
        record["label"] = label
        entry = per_scenario[s_idx]
        entry["records"].append(record)
        entry["instances"] += 1
        for h, ok in ok_flags.items():
            if not ok:
                entry["failures"][h] += 1
    meta = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "repro_version": repro_version(),
        "seed": seed,
        "replicates": replicates,
        # "solvers" names the actual sweep columns; "heuristics" is
        # retained for pre-solver-axis report consumers and holds
        # the same list.  "solver_axis" records whether the columns
        # came from an explicit solvers= request (specs) or the
        # default heuristic set.
        "heuristics": list(heuristics),
        "solvers": list(heuristics),
        "solver_axis": solvers is not None,
        "scenario_count": len(scenarios),
        "instance_count": len(tasks),
        "processed_instances": len(selected),
        # Always false/None: refinement is a "+refine" solver column.
        # Kept so schema-version-1 reports stay byte-identical.
        "refine": False,
        "refine_schedule": None,
        # Always present: [] on a clean run, so a run whose faults were
        # all *recovered* (retries succeeded, corrupt rows recomputed)
        # serialises byte-identically to a fault-free run.
        "failures": cell_failures,
    }
    # Shard/limit are stamped only when they actually restricted the
    # grid: a full resumed (merge) pass must serialise byte-identically
    # to a cold single-process run, so its meta cannot mention the
    # store-side mechanics that produced it.
    if shard_part is not None:
        meta["shard"] = f"{shard_part[0]}/{shard_part[1]}"
    if limit is not None:
        meta["limit"] = limit
    # Retry/respawn counters enter the report only alongside permanent
    # failures (the report differs from the clean run anyway then);
    # recovered-run telemetry lives in the caller's `stats` object.
    if cell_failures:
        meta["fault_stats"] = {
            "retries": stats.retries,
            "crashes": stats.crashes,
            "timeouts": stats.timeouts,
            "respawns": stats.respawns,
        }
    return {"meta": meta, "scenarios": per_scenario}


def sweep_summary(report: dict) -> str:
    """Render one ASCII table summarising a sweep report."""
    meta = report["meta"]
    heuristics = meta.get("solvers", meta["heuristics"])
    rows = []
    for sc in report["scenarios"]:
        n = sc["instances"]
        ccr = "orig" if sc["ccr"] is None else f"{sc['ccr']:g}"
        cells = [
            f"{n - sc['failures'][h]}/{n}" for h in heuristics
        ]
        routes = sum(r["routes_validated"] for r in sc["records"])
        rows.append([
            sc["topology"] + ("*" if sc["heterogeneous"] else ""),
            sc["size"],
            sc["cores"],
            ccr,
            sc["app"],
            *cells,
            routes,
        ])
    total = meta["instance_count"]
    processed = meta.get("processed_instances", total)
    count = (
        f"{total} instances" if processed == total
        else f"{processed}/{total} instances"
    )
    shard = f" [shard {meta['shard']}]" if meta.get("shard") else ""
    table = format_table(
        ["topology", "size", "cores", "ccr", "app", *heuristics, "routes"],
        rows,
        title=(
            f"Scenario sweep{shard}: "
            f"{report['meta']['scenario_count']} scenarios, "
            f"{count} "
            f"(successes per heuristic; * = heterogeneous speeds)"
        ),
    )
    failures = meta.get("failures") or []
    if failures:
        lines = [
            f"WARNING: {len(failures)} cell(s) failed permanently "
            f"(degraded report):"
        ]
        lines += [
            f"  {f['label']}: {f['reason']} after {f['attempts']} "
            f"attempt(s) — {f['message']}"
            for f in failures
        ]
        table += "\n" + "\n".join(lines)
    return table
