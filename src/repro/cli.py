"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------

``workflows``
    List the synthesised StreamIt suite with its Table-1 characteristics.
``platform``
    List the registered platform topologies, or describe one.
``solvers``
    List the unified solver registry, or describe one solver / spec
    (``repro solvers describe dpa2d1d+refine``).
``solve``
    Map one workflow (or a random SPG) onto a CMP with any registered
    solver or composite spec and print the mapping, energy breakdown,
    latency and link utilisation: ``repro solve --solver
    dpa2d1d+refine``, ``--solver greedy+refine-general`` (general
    mappings, Section-7 future work), ``--solver portfolio``,
    ``--solver 'greedy|dpa1d'`` (quote ``|`` from the shell).  Several
    specs (``--solver Random Greedy DPA2D DPA1D DPA2D1D``) run at one
    period, chosen over all of them, and print the normalised energy
    comparison instead.
``experiment``
    Re-run one of the paper's StreamIt experiments (fig8/fig9) and
    print/export the tables.
``sweep``
    Fan a {topology, size, CCR, app} cross-product over the parallel
    engine and emit a consolidated JSON report; ``--solvers`` adds the
    strategy axis.  ``--store``/``--resume``/``--shard i/N`` make the
    sweep incremental through the content-addressed result store:
    completed cells are skipped, shards deterministically partition the
    cell grid, and a final ``--resume`` pass merges one shared store
    into a report bit-identical to a cold single-process run.
    ``--retries``/``--deadline-s`` govern worker-crash/hang recovery,
    ``--fault-plan`` injects deterministic chaos, and ``--strict``
    turns permanently failed cells into a nonzero exit (the default is
    graceful degradation with failures listed in ``meta.failures``).
``store``
    Inspect or maintain a result store: ``stats`` (entry counts),
    ``gc`` (purge stale-schema entries, one kind, or everything),
    ``export`` (deterministic JSON snapshot), ``verify`` (audit every
    row's sha256 checksum; ``--quarantine`` moves corrupt rows aside so
    resumed sweeps recompute them), ``evict`` (bound the store:
    ``--policy lru|fifo|rrip`` with ``--max-rows``/
    ``--max-bytes``; evicted keys read as misses and are recomputed).
    Sweeps and the service bound their own store with
    ``--store-policy``/``--store-max-rows``/``--store-max-bytes``.
``serve``
    Batch mapping service: answer a JSON file of solver requests
    through the store — cache hit -> stored result, miss -> compute
    over the parallel engine and store.
``trace``
    Work with recorded JSONL traces: ``summarize`` prints per-span-kind
    count/total/p50/p99 aggregates; ``critical-path`` prints the
    self-time hotspot table and the slowest root-to-leaf chain;
    ``export --format chrome|collapsed`` converts a trace for
    ``ui.perfetto.dev`` / flamegraph tools; ``diff A B [--budget-pct
    X]`` compares two recordings per span kind and exits 1 when any
    kind's total grew past the budget.
``bench``
    The perf-regression sentinel: ``check`` gates the current
    ``BENCH_perf_core.json`` against the recorded floors and the last
    ``BENCH_history.jsonl`` entry (exit 1 on regression); ``history``
    prints the recorded speedup trajectory.

``solve``, ``experiment``, ``sweep`` and ``serve`` accept the
observability flags (``repro/obs/``): ``--trace PATH`` records a
hierarchical span trace to a JSONL file (also armed by the
``REPRO_TRACE`` environment variable) and ``--metrics`` prints the
session metric aggregates after the command.  Telemetry is strictly
out-of-band: reports and stored results are byte-identical with or
without it.  For a function-level profile, run the command serially
(``--jobs 1``) under ``python -m cProfile -m repro``.

``solve`` and ``experiment`` accept ``--topology`` (default ``mesh``,
the paper's platform; ``sweep`` takes ``--topologies``); ``repro
platform list`` shows the alternatives.
``solve``, ``experiment``, ``sweep`` and ``serve`` accept
``--kernel`` selecting the suffix-cluster enumeration kernel
(``repro/core/kernels.py``; also via ``REPRO_KERNEL``) — a pure speed
knob, byte-identical outputs under every kernel.  ``repro --version``
prints the package version recorded in sweep/store/service metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core.evaluate import latency
from repro.core.kernels import kernel_names
from repro.core.problem import ProblemInstance
from repro.core.visualize import (
    render_link_utilisation,
    render_mapping,
    summarize,
)
from repro.experiments import (
    choose_period,
    run_all,
    run_scenario_sweep,
    run_streamit_experiment,
    streamit_csv,
    sweep_summary,
    write_report,
)
from repro.platform.topology import TOPOLOGIES, get_topology, topology_names
from repro.solvers import (
    SOLVERS,
    get_solver,
    lookup_solver,
    parse_solver_spec,
    run,
    solver_names,
)
from repro.spg.random_gen import random_spg
from repro.spg.streamit import STREAMIT_TABLE1, streamit_workflow
from repro.util.fmt import format_table
from repro.util.io import atomic_write_text
from repro.util.version import repro_version

__all__ = ["main", "build_parser"]


def _grid(spec: str) -> tuple[int, int]:
    try:
        p, q = spec.lower().split("x")
        return int(p), int(q)
    except Exception:
        raise argparse.ArgumentTypeError(
            f"grid must look like '4x4', got {spec!r}"
        )


def _parse_spec_or_report(spec: str, out):
    """Parse a solver spec, printing the error and returning ``None`` on
    invalid input (shared by the solve/solvers/sweep commands)."""
    try:
        return parse_solver_spec(spec)
    except (KeyError, ValueError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=out)
        return None


def _load_app(args) -> tuple[str, object]:
    if args.random is not None:
        app = random_spg(args.random, rng=args.seed, ccr=args.ccr or 10.0)
        return f"random-{args.random}", app
    app = streamit_workflow(args.workflow, ccr=args.ccr, seed=args.seed)
    return str(args.workflow), app


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware SPG-onto-CMP mapping (ICPP 2011 repro)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workflows", help="list the StreamIt suite (Table 1)")

    p_plat = sub.add_parser(
        "platform", help="list or describe the registered topologies"
    )
    p_plat.add_argument("action", choices=["list", "describe"])
    p_plat.add_argument("name", nargs="?", default=None,
                        help="topology to describe")
    p_plat.add_argument("--grid", type=_grid, default=(4, 4),
                        help="platform size for describe (default 4x4)")

    def add_topology_arg(p):
        p.add_argument(
            "--topology", default="mesh", choices=topology_names(),
            help="platform topology (default mesh; see 'repro platform "
                 "list')",
        )

    def add_kernel_arg(p):
        p.add_argument(
            "--kernel", default=None, choices=kernel_names(),
            help="suffix-cluster enumeration kernel (default: "
                 "REPRO_KERNEL or the built-in vector kernel; all "
                 "kernels give byte-identical results)",
        )

    def add_instance_args(p):
        add_kernel_arg(p)
        p.add_argument(
            "--workflow", "-w", default="FMRadio",
            help="StreamIt name or index (default FMRadio)",
        )
        p.add_argument(
            "--random", type=int, metavar="N", default=None,
            help="use a random SPG with N stages instead of a workflow",
        )
        p.add_argument("--grid", type=_grid, default=(4, 4),
                       help="CMP size, e.g. 4x4 (default)")
        add_topology_arg(p)
        p.add_argument("--ccr", type=float, default=None,
                       help="rescale the CCR (default: original)")
        p.add_argument("--period", "-T", type=float, default=None,
                       help="period bound in seconds (default: Section "
                            "6.1.3 procedure)")
        p.add_argument("--seed", type=int, default=0)

    p_sv = sub.add_parser(
        "solvers", help="list or describe the registered solvers"
    )
    p_sv.add_argument("action", choices=["list", "describe"])
    p_sv.add_argument("name", nargs="?", default=None,
                      help="solver name or composite spec to describe")

    p_solve = sub.add_parser(
        "solve", help="map one application with a solver, pipeline or "
                      "portfolio spec"
    )
    add_instance_args(p_solve)
    p_solve.add_argument(
        "--solver", "-s", nargs="+", default=["greedy"], metavar="SPEC",
        help="registered solver or spec: NAME, NAME+refine, A|B|C "
             "(default greedy; see 'repro solvers list'); several specs "
             "print their normalised energy comparison",
    )
    p_solve.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the portfolio members of a single "
             "spec (0 = all CPUs; the winner is identical for any "
             "value; default 1)",
    )

    p_exp = sub.add_parser("experiment", help="re-run a paper experiment")
    p_exp.add_argument("which", choices=["fig8", "fig9"])
    p_exp.add_argument("--workflows", type=int, nargs="*", default=None,
                       help="Table-1 indices (default: all 12)")
    p_exp.add_argument("--ccr", type=float, nargs="*", default=None,
                       help="CCR settings (default: orig 10 1 0.1)")
    add_topology_arg(p_exp)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--csv", metavar="PATH", default=None,
                       help="also export the records as CSV")
    p_exp.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for the sweep (0 = all "
                            "CPUs; results are identical for any value; "
                            "default 1 = serial)")
    add_kernel_arg(p_exp)

    def add_obs_args(p):
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="record a span trace to this JSONL file (see 'repro "
                 "trace summarize'; also armed by REPRO_TRACE)",
        )
        p.add_argument(
            "--metrics", action="store_true",
            help="print session metric aggregates (counters/histograms) "
                 "after the command",
        )

    def add_bounded_store_args(p):
        p.add_argument(
            "--store-policy", metavar="POLICY", default="lru",
            help="eviction policy bounding --store (lru, fifo, rrip; "
                 "default lru — only active with a cap)",
        )
        p.add_argument(
            "--store-max-rows", type=int, default=None, metavar="N",
            help="bound --store to N rows: every put over the cap "
                 "evicts in --store-policy order (evicted cells read "
                 "as misses and are recomputed — reports stay "
                 "byte-identical to unbounded runs)",
        )
        p.add_argument(
            "--store-max-bytes", type=int, default=None, metavar="B",
            help="bound --store to B payload bytes (see "
                 "--store-max-rows)",
        )

    def add_resilience_args(p):
        p.add_argument(
            "--retries", type=int, default=3, metavar="N",
            help="attempts per task before it fails permanently "
                 "(crashed/hung workers are respawned and the lost "
                 "tasks re-run with the same pre-drawn seeds; "
                 "default 3)",
        )
        p.add_argument(
            "--deadline-s", type=float, default=None, metavar="S",
            help="per-task wall-clock deadline; a blown deadline kills "
                 "the worker and retries the task (default: none)",
        )
        p.add_argument(
            "--fault-plan", metavar="SPEC", default=None,
            help="deterministic fault injection, e.g. "
                 "'crash@task:0;hang@task:2:0.2;corrupt@key:*' "
                 "(default: the REPRO_FAULT_PLAN environment variable); "
                 "a sweep's task:IDX names a group of cells sharing a graph",
        )

    for p in (p_solve, p_exp):
        add_obs_args(p)

    p_sw = sub.add_parser(
        "sweep",
        help="scenario sweep: {topology, size, CCR, app} cross-product",
    )
    p_sw.add_argument("--topologies", nargs="+", default=["mesh", "torus"],
                      choices=topology_names(), metavar="NAME",
                      help="topologies to sweep (default: mesh torus)")
    p_sw.add_argument("--sizes", type=_grid, nargs="+", default=[(3, 3)],
                      metavar="PxQ",
                      help="platform sizes (default: 3x3)")
    p_sw.add_argument("--ccr", type=float, nargs="+", default=[10.0],
                      help="CCR settings (default: 10)")
    p_sw.add_argument("--apps", nargs="+", default=["random-20"],
                      metavar="APP",
                      help="application classes: random-N or a StreamIt "
                           "name/index (default: random-20)")
    p_sw.add_argument("--solvers", nargs="+", default=None, metavar="SPEC",
                      help="solver specs replacing the heuristic columns "
                           "(e.g. Greedy dpa2d1d+refine portfolio); "
                           "default: the five paper heuristics")
    p_sw.add_argument("--replicates", type=int, default=1)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--jobs", "-j", type=int, default=1,
                      help="worker processes (0 = all CPUs; results are "
                           "identical for any value)")
    p_sw.add_argument("--out", metavar="PATH", default=None,
                      help="write the consolidated JSON report here")
    p_sw.add_argument("--store", metavar="PATH", default=None,
                      help="result store (SQLite path, or ':memory:'); "
                           "every completed cell is filed under its "
                           "content fingerprint")
    p_sw.add_argument("--resume", action="store_true",
                      help="skip cells already present in --store and "
                           "rebuild their results from stored payloads")
    p_sw.add_argument("--shard", metavar="i/N", default=None,
                      help="process only cells with grid index i mod N "
                           "(0-based); shards 0/N..N-1/N cover the grid "
                           "exactly once into one shared store")
    p_sw.add_argument("--limit", type=int, default=None, metavar="K",
                      help="stop after K cells (a deterministic mid-grid "
                           "interruption, for testing resumption)")
    p_sw.add_argument("--checkpoint", type=int, default=None, metavar="N",
                      help="file computed cells into --store every N "
                           "cells (default: once at the end)")
    add_kernel_arg(p_sw)
    add_bounded_store_args(p_sw)
    add_resilience_args(p_sw)
    add_obs_args(p_sw)
    p_sw.add_argument("--stats-json", metavar="PATH", default=None,
                      help="dump execution statistics (retries, crashes, "
                           "timeouts, respawns) plus the session metrics "
                           "snapshot to this JSON file")
    p_sw.add_argument("--strict", action="store_true",
                      help="exit nonzero if any cell failed permanently "
                           "(default: degrade — report the surviving "
                           "cells and list failures in meta.failures)")
    p_sw.add_argument("--progress", action="store_true",
                      help="live stderr heartbeat: cells done/total, "
                           "rolling-mean ETA, store hit-rate, "
                           "retry/crash counts, and a stall warning "
                           "when no cell completes within 4x the p99 "
                           "inter-completion interval (out of band — "
                           "the report is byte-identical either way)")

    p_st = sub.add_parser(
        "store", help="inspect or maintain a result store"
    )
    p_st.add_argument("action", choices=["stats", "gc", "export", "verify",
                                         "evict"])
    p_st.add_argument("--store", metavar="PATH", required=True,
                      help="the store to operate on (SQLite path)")
    p_st.add_argument("--policy", default="lru",
                      help="evict: the eviction policy ranking victims "
                           "(lru, fifo, rrip; default lru)")
    p_st.add_argument("--max-rows", type=int, default=None, metavar="N",
                      help="evict: row-count cap to evict down to")
    p_st.add_argument("--max-bytes", type=int, default=None, metavar="B",
                      help="evict: payload-byte cap to evict down to")
    p_st.add_argument("--kind", default=None,
                      help="gc: purge every entry of this kind (e.g. "
                           "sweep-cell, solve), current schema included")
    p_st.add_argument("--all", action="store_true", dest="drop_all",
                      help="gc: purge everything")
    p_st.add_argument("--out", metavar="PATH", default=None,
                      help="export: write the JSON snapshot here "
                           "(default: stdout)")
    p_st.add_argument("--quarantine", action="store_true",
                      help="verify: move corrupt rows into the "
                           "quarantine table (their keys then read as "
                           "misses and resumed sweeps recompute them)")

    p_srv = sub.add_parser(
        "serve", help="batch mapping service over the result store"
    )
    p_srv.add_argument("--batch", metavar="PATH", required=True,
                       help="JSON requests file (a list, or "
                            "{requests: [...]})")
    p_srv.add_argument("--store", metavar="PATH", default=None,
                       help="result store backing the service (default: "
                            "in-memory, nothing persists)")
    p_srv.add_argument("--out", metavar="PATH", default=None,
                       help="write the JSON response document here")
    p_srv.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for cache misses (0 = all "
                            "CPUs; responses are identical for any value)")
    add_kernel_arg(p_srv)
    add_bounded_store_args(p_srv)
    add_resilience_args(p_srv)
    add_obs_args(p_srv)

    p_tr = sub.add_parser(
        "trace", help="work with recorded JSONL span traces"
    )
    p_tr.add_argument(
        "action", choices=["summarize", "export", "diff", "critical-path"]
    )
    p_tr.add_argument("path", help="the JSONL trace file to read")
    p_tr.add_argument("path_b", nargs="?", default=None,
                      help="diff: the second trace (B); deltas are B "
                           "relative to A")
    p_tr.add_argument("--format", choices=["chrome", "collapsed"],
                      default="chrome", dest="fmt",
                      help="export format: 'chrome' trace-event JSON "
                           "(ui.perfetto.dev / chrome://tracing) or "
                           "'collapsed' flamegraph stacks (default "
                           "chrome)")
    p_tr.add_argument("--out", metavar="PATH", default=None,
                      help="export: write the converted trace here "
                           "(default: stdout)")
    p_tr.add_argument("--budget-pct", type=float, default=None,
                      metavar="PCT",
                      help="diff: exit 1 when any span kind's total "
                           "duration grew more than PCT%% over trace A "
                           "(new kinds count as infinite growth)")
    p_tr.add_argument("--top", type=int, default=15, metavar="N",
                      help="critical-path: hotspot-table rows to print "
                           "(default 15)")

    p_bm = sub.add_parser(
        "bench", help="benchmark history and the regression sentinel"
    )
    p_bm.add_argument("action", choices=["check", "history"])
    p_bm.add_argument("--bench", metavar="PATH",
                      default="BENCH_perf_core.json",
                      help="check: the bench report to gate (default: "
                           "BENCH_perf_core.json in the current "
                           "directory)")
    p_bm.add_argument("--history", metavar="PATH",
                      default="BENCH_history.jsonl",
                      help="the recorded run log (default: "
                           "BENCH_history.jsonl in the current "
                           "directory; benchmark runs append to it)")
    p_bm.add_argument("--tolerance-pct", type=float, default=20.0,
                      metavar="PCT",
                      help="check: allowed drop below the last recorded "
                           "run before the band gate trips (default 20)")
    p_bm.add_argument("--last", type=int, default=None, metavar="N",
                      help="history: show only the newest N runs")
    return parser


def cmd_workflows(_args, out) -> int:
    rows = [
        [s.index, s.name, s.n, s.ymax, s.xmax, round(s.ccr)]
        for s in STREAMIT_TABLE1
    ]
    print(format_table(
        ["Index", "Name", "n", "ymax", "xmax", "CCR"], rows,
        title="StreamIt suite (paper Table 1)",
    ), file=out)
    return 0


def cmd_platform(args, out) -> int:
    if args.action == "list":
        rows = [
            [name, TOPOLOGIES[name].summary] for name in topology_names()
        ]
        print(format_table(
            ["name", "description"], rows,
            title="Registered platform topologies",
        ), file=out)
        return 0
    if args.name is None:
        print("platform describe needs a topology name", file=out)
        return 2
    try:
        topo = get_topology(args.name, *args.grid)
    except KeyError as exc:
        print(str(exc.args[0]), file=out)
        return 2
    print(topo.describe(), file=out)
    order = topo.line_order()
    if len(order) > 1:
        print(
            f"line embedding: {order[0]} -> {order[1]} -> ... -> "
            f"{order[-1]}",
            file=out,
        )
        sample = topo.route(order[0], order[-1])
        print(f"sample route {order[0]} -> {order[-1]}: {sample}", file=out)
    return 0


def cmd_solvers(args, out) -> int:
    if args.action == "list":
        rows = [
            [name, SOLVERS[name].kind, SOLVERS[name].summary]
            for name in solver_names()
        ]
        print(format_table(
            ["name", "kind", "description"], rows,
            title="Registered solvers (compose specs with '+' and '|', "
                  "e.g. dpa2d1d+refine, greedy|dpa1d)",
        ), file=out)
        return 0
    if args.name is None:
        print("solvers describe needs a solver name or spec", file=out)
        return 2
    spec = lookup_solver(args.name)
    if spec is not None:
        # Registered name: describe the built solver directly (transform
        # stages are valid names here even though they cannot *start* a
        # composite spec).
        print(f"{spec.name} [{spec.kind}]: {spec.summary}", file=out)
        print(get_solver(spec.name).describe(), file=out)
        return 0
    solver = _parse_spec_or_report(args.name, out)
    if solver is None:
        return 2
    print(solver.describe(), file=out)
    return 0


def cmd_solve(args, out) -> int:
    label, app = _load_app(args)
    grid = get_topology(args.topology, *args.grid)
    solvers = [_parse_spec_or_report(spec, out) for spec in args.solver]
    if any(solver is None for solver in solvers):
        return 2
    if len(solvers) > 1:
        return _solve_table(args, label, app, grid, out)
    solver = solvers[0]
    solver.set_jobs(args.jobs)
    T = args.period
    if T is None:
        T = choose_period(app, grid, rng=args.seed).period
        print(f"period (Section 6.1.3): T = {T:g} s", file=out)
    prob = ProblemInstance(app, grid, T)
    res = run(solver, prob, rng=args.seed)
    members = res.stats.get("members")
    if members:
        rows = [
            [
                m["solver"],
                "ok" if m["ok"] else "FAIL",
                "-" if m["energy"] is None else f"{m['energy']:.4f}",
                "-" if m["seconds"] is None else f"{m['seconds']:.3f}",
            ]
            for m in members
        ]
        print(format_table(
            ["member", "status", "energy [J]", "seconds"], rows,
            title=f"Portfolio over {len(members)} members "
                  f"(winner: {res.stats.get('winner')})",
        ), file=out)
    for st in res.stats.get("stages", []):
        e = "-" if st["energy"] is None else f"{st['energy']:.4f}"
        print(
            f"stage {st['solver']}: "
            f"{'ok' if st['ok'] else 'FAIL'}, energy {e} J, "
            f"{st['seconds']:.3f} s",
            file=out,
        )
    if not res.ok:
        print(f"{res.solver} FAILED on {label}: {res.failure}", file=out)
        return 1
    b = res.energy
    print(summarize(res.mapping, T), file=out)
    print(
        f"solver {res.solver}: energy {b.total:.4f} J/period "
        f"(comp {b.comp:.4f} + comm {b.comm:.4g}); "
        f"latency {latency(res.mapping):.4g} s; "
        f"{res.stats['seconds']:.3f} s wall-clock",
        file=out,
    )
    print(render_mapping(res.mapping, T), file=out)
    print(render_link_utilisation(res.mapping, T), file=out)
    return 0


def _solve_table(args, label, app, grid, out) -> int:
    """``solve`` with several specs: run each at one period (``-T``, or
    the Section-6.1.3 choice over all of them) and print their energies
    normalised to the best."""
    specs = args.solver
    if len(set(specs)) < len(specs):
        print(f"duplicate solver spec in {' '.join(specs)}", file=out)
        return 2
    if args.period is not None:
        T = args.period
        results = run_all(ProblemInstance(app, grid, T), specs, rng=args.seed)
    else:
        choice = choose_period(app, grid, specs, rng=args.seed)
        results, T = choice.results, choice.period
    print(f"{label} on {grid.p}x{grid.q}, T = {T:g} s", file=out)
    best = min(
        (r.total_energy for r in results.values()), default=float("inf")
    )
    rows = []
    for name in specs:
        r = results[name]
        if r.ok:
            rows.append([
                name, f"{r.energy.total:.4f}",
                f"{r.energy.total / best:.3f}",
                len(r.mapping.active_cores()),
            ])
        else:
            rows.append([name, "FAIL", "-", "-"])
    print(format_table(
        ["heuristic", "energy [J]", "normalised", "cores"], rows,
    ), file=out)
    return 0


def cmd_experiment(args, out) -> int:
    size = 4 if args.which == "fig8" else 6
    grid = get_topology(args.topology, size, size)
    ccrs = tuple(args.ccr) if args.ccr else (None, 10.0, 1.0, 0.1)
    workflows = tuple(args.workflows) if args.workflows else None
    exp = run_streamit_experiment(
        grid, ccrs=ccrs, workflows=workflows, seed=args.seed,
        jobs=args.jobs,
    )
    print(exp.render(), file=out)
    if args.csv:
        atomic_write_text(args.csv, streamit_csv(exp))
        print(f"CSV written to {args.csv}", file=out)
    return 0


def _eviction_from_args(args):
    """The EvictionConfig dict behind ``--store-policy/--store-max-*``
    (``None`` when no cap was given — an unbounded store)."""
    if args.store_max_rows is None and args.store_max_bytes is None:
        return None
    return {
        "policy": args.store_policy,
        "max_rows": args.store_max_rows,
        "max_bytes": args.store_max_bytes,
    }


def _policy_from_args(args):
    """Build the RetryPolicy behind ``--retries`` / ``--deadline-s``."""
    from repro.resilience import RetryPolicy

    try:
        return RetryPolicy(
            max_attempts=args.retries, deadline_s=args.deadline_s
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_sweep(args, out) -> int:
    # Validate --solvers specs up front so a typo exits cleanly instead
    # of surfacing as a raw KeyError from inside a (possibly pooled)
    # worker task.
    for spec in args.solvers or ():
        if _parse_spec_or_report(spec, out) is None:
            return 2
    if args.resume and args.store is None:
        print("--resume requires --store", file=out)
        return 2
    from repro.resilience import ExecutionStats

    stats = ExecutionStats()
    try:
        report = run_scenario_sweep(
            topologies=args.topologies,
            sizes=args.sizes,
            ccrs=args.ccr,
            apps=args.apps,
            replicates=args.replicates,
            seed=args.seed,
            jobs=args.jobs,
            solvers=args.solvers,
            store=args.store,
            eviction=_eviction_from_args(args),
            resume=args.resume,
            shard=args.shard,
            limit=args.limit,
            checkpoint=args.checkpoint,
            policy=_policy_from_args(args),
            faults=args.fault_plan,
            stats=stats,
            progress=args.progress,
        )
    except (ValueError, KeyError, argparse.ArgumentTypeError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=out)
        return 2
    print(sweep_summary(report), file=out)
    if args.out:
        write_report(args.out, report)
        print(f"JSON report written to {args.out}", file=out)
    if args.stats_json:
        from repro.obs.session import active_metrics

        metrics = active_metrics()
        doc = {
            "execution": {
                "retries": stats.retries,
                "crashes": stats.crashes,
                "timeouts": stats.timeouts,
                "respawns": stats.respawns,
                "permanent_failures": len(stats.failures),
            },
            "metrics": (
                metrics.snapshot() if metrics is not None else None
            ),
        }
        atomic_write_text(
            args.stats_json,
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
        )
        print(f"execution stats written to {args.stats_json}", file=out)
    if args.strict and report["meta"]["failures"]:
        print(
            f"strict mode: {len(report['meta']['failures'])} cell(s) "
            f"failed permanently",
            file=out,
        )
        return 1
    return 0


def cmd_store(args, out) -> int:
    from repro.store import open_store

    store = open_store(args.store)
    try:
        if args.action == "stats":
            print(json.dumps(store.stats(), indent=1, sort_keys=True),
                  file=out)
            return 0
        if args.action == "verify":
            result = store.verify(quarantine=args.quarantine)
            print(json.dumps(result, indent=1, sort_keys=True), file=out)
            return 0 if not result["corrupt"] else 1
        if args.action == "evict":
            if args.max_rows is None and args.max_bytes is None:
                print("evict requires --max-rows and/or --max-bytes",
                      file=out)
                return 2
            try:
                result = store.evict(
                    policy=args.policy,
                    max_rows=args.max_rows,
                    max_bytes=args.max_bytes,
                )
            except KeyError as exc:
                print(str(exc.args[0]), file=out)
                return 2
            print(json.dumps(result, indent=1, sort_keys=True), file=out)
            return 0
        if args.action == "gc":
            removed = store.gc(kind=args.kind, drop_all=args.drop_all)
            what = (
                "all entries" if args.drop_all
                else f"kind {args.kind!r}" if args.kind
                else "stale-schema entries"
            )
            print(f"gc removed {removed} entries ({what}); "
                  f"{len(store)} remain", file=out)
            return 0
        snapshot = json.dumps(store.export(), indent=1, sort_keys=True)
        if args.out:
            atomic_write_text(args.out, snapshot + "\n")
            print(f"store exported to {args.out}", file=out)
        else:
            print(snapshot, file=out)
        return 0
    finally:
        store.close()


def cmd_serve(args, out) -> int:
    from repro.store import load_requests, serve_batch
    from repro.store.service import serve_summary

    try:
        requests = load_requests(args.batch)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"bad requests file: {exc}", file=out)
        return 2
    # serve_batch opens (and closes) the store itself so the fault plan
    # reaches the corruption-injection hook inside `put`.
    report = serve_batch(
        requests, store=args.store, jobs=args.jobs,
        policy=_policy_from_args(args), faults=args.fault_plan,
        eviction=_eviction_from_args(args),
    )
    print(serve_summary(report), file=out)
    if args.out:
        write_report(args.out, report)
        print(f"responses written to {args.out}", file=out)
    return 0


def cmd_trace(args, out) -> int:
    try:
        if args.action == "summarize":
            from repro.obs.summarize import render_trace_summary

            print(render_trace_summary(args.path), file=out)
            return 0
        if args.action == "critical-path":
            from repro.obs.analyze import render_hotspots

            print(render_hotspots(args.path, top=args.top), file=out)
            return 0
        if args.action == "export":
            from repro.obs.export import export_trace

            result = export_trace(args.path, args.fmt, target=args.out)
            if args.out:
                print(f"{args.fmt} export written to {args.out}",
                      file=out)
            else:
                out.write(result)
            return 0
        # diff
        if args.path_b is None:
            print("trace diff needs two trace files (A B)", file=out)
            return 2
        from repro.obs.analyze import (
            diff_regressions,
            diff_traces,
            render_diff,
        )

        diff = diff_traces(args.path, args.path_b)
        regressions = None
        if args.budget_pct is not None:
            regressions = diff_regressions(diff, args.budget_pct)
        print(render_diff(diff, regressions), file=out)
        return 1 if regressions else 0
    except (OSError, ValueError) as exc:
        print(f"bad trace file: {exc}", file=out)
        return 2


def cmd_bench(args, out) -> int:
    from repro.obs.history import (
        check_bench,
        load_history,
        render_check,
        render_history,
    )

    try:
        history = load_history(args.history)
    except ValueError as exc:
        print(f"bad history file: {exc}", file=out)
        return 2
    if args.action == "history":
        print(render_history(history, last=args.last), file=out)
        return 0
    bench_path = Path(args.bench)
    if not bench_path.exists():
        print(f"{bench_path}: no bench report (run the benchmarks "
              f"first, or pass --bench)", file=out)
        return 2
    try:
        bench = json.loads(bench_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"bad bench report {bench_path}: {exc}", file=out)
        return 2
    try:
        result = check_bench(
            bench, history, tolerance=args.tolerance_pct / 100.0
        )
    except ValueError as exc:
        print(str(exc), file=out)
        return 2
    print(render_check(result), file=out)
    return 0 if result["ok"] else 1


def main(argv=None, out=sys.stdout) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv), out)
    except BrokenPipeError:
        # A downstream consumer (``| head``, ``| grep -q``) closed the
        # pipe early; that is their prerogative, not an error.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again,
        # and exit with the conventional SIGPIPE status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


#: Commands that accept --trace/--metrics (and --kernel).
_OBS_COMMANDS = frozenset({"solve", "experiment", "sweep", "serve"})


def _dispatch(args, out) -> int:
    """Route to the command, under an observability session if asked.

    ``--trace`` (or the ``REPRO_TRACE`` environment variable) records a
    span trace; ``--metrics`` (or ``--stats-json``, which needs the
    aggregates) installs the metrics registry.  With neither the command
    runs exactly as before — no session is installed and every hook is a
    no-op.

    ``--kernel`` (on the same four commands) scopes the process-default
    enumeration kernel around the whole command — pool workers inherit
    it through ``REPRO_KERNEL`` — without touching outputs, which are
    byte-identical under every kernel.
    """
    kernel = getattr(args, "kernel", None)
    if kernel is not None:
        from repro.core.kernels import use_kernel

        args.kernel = None
        with use_kernel(kernel):
            return _dispatch(args, out)
    if args.command not in _OBS_COMMANDS:
        return _run_command(args, out)
    trace = args.trace or os.environ.get("REPRO_TRACE") or None
    metrics = args.metrics or getattr(args, "stats_json", None) is not None
    if not trace and not metrics:
        return _run_command(args, out)
    from repro.obs import observability, render_metrics

    with observability(trace=trace, metrics=metrics) as session:
        code = _run_command(args, out)
        if args.metrics and session.metrics is not None:
            print(render_metrics(session.metrics), file=out)
    if trace:
        print(f"trace written to {trace}", file=out)
    return code


def _run_command(args, out) -> int:
    if args.command == "workflows":
        return cmd_workflows(args, out)
    if args.command == "platform":
        return cmd_platform(args, out)
    if args.command == "solvers":
        return cmd_solvers(args, out)
    if args.command == "solve":
        return cmd_solve(args, out)
    if args.command == "experiment":
        return cmd_experiment(args, out)
    if args.command == "sweep":
        return cmd_sweep(args, out)
    if args.command == "store":
        return cmd_store(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "trace":
        return cmd_trace(args, out)
    if args.command == "bench":
        return cmd_bench(args, out)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
