"""Per-layer numbers for the traced run, measured from outside ``src/``.

:func:`install` wraps public calls of each layer in
``repro.obs.session.trace_span``, patching each one where its caller
looks it up.  Pool workers forked afterwards inherit the wrappers and
ship their spans back through the engine's capture/absorb path.
:func:`layer_metrics` turns the recorded spans and the library's own
``kernel.*``/``store.*``/``engine.*`` counters into the per-layer
metrics of ``BENCHMARK.json``.  Times are self times (a span's duration
minus its children's), summed per layer and divided by the number of
passes; counts are per pass as well.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from repro.core.errors import BudgetExceeded
from repro.obs.analyze import self_times
from repro.obs.session import inc, trace_span
from repro.obs.summarize import percentile

HEURISTICS = ("random", "greedy", "dpa2d", "dpa1d", "dpa2d1d", "refine")

#: Timed layer -> the span kinds whose self time it owns.  ``refine.run``
#: and the ``store.*`` spans are the library's own; the rest are the
#: wrappers below.
TIMED_LAYERS = {
    "spg.generate_s": ("spg.generate",),
    **{
        f"heuristics.{h}.s": (f"heuristic.{h}",) for h in HEURISTICS
        if h != "refine"
    },
    "heuristics.refine.s": ("heuristic.refine", "refine.run"),
    "partition.suffix_s": ("partition.suffix",),
    "partition.ideals_s": ("partition.ideals",),
    "dpa1d.dp_s": ("dpa1d.solve_uniline",),
    "evaluate.validate_s": ("evaluate.validate",),
    "store.put_s": ("store.put",),
    "store.get_s": ("store.get",),
}

#: Per-instance spans: the benchmark's own for the serial panels, the
#: sweep engine's ``sweep.cell`` for the sweep.
INSTANCE_KINDS = ("bench.instance", "sweep.cell")

#: Metric name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "spg.generate_s": "s",
    "spg.graphs": "count",
    "period.probes": "count",
    "period.instance_p50_s": "s",
    "period.instance_p90_s": "s",
    **{
        name: unit
        for h in HEURISTICS
        for name, unit in (
            (f"heuristics.{h}.s", "s"),
            (f"heuristics.{h}.calls", "count"),
            (f"heuristics.{h}.fail_rate", "fraction"),
        )
    },
    "partition.suffix_s": "s",
    "partition.suffix_calls": "count",
    "partition.ideals_s": "s",
    "partition.budget_exceeded": "count",
    "dpa1d.dp_s": "s",
    "kernels.lattice_hit_rate": "fraction",
    "kernels.lattice_evictions": "count",
    "evaluate.validate_s": "s",
    "evaluate.validate_calls": "count",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.resume_s": "s",
    "store.resume_hit_rate": "fraction",
    "engine.parallel_efficiency": "fraction",
    "engine.retries": "count",
    "trace.overhead": "fraction",
    "trace.gap_s": "s",
}

_BUDGET_COUNTER = "perfbench.budget_exceeded"


def _spanned(fn, kind: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace_span(kind):
            return fn(*args, **kwargs)
    return wrapper


def _lattice_method(fn, kind: str):
    """A spanned ``IdealLattice`` method that also counts budget
    failures, once per failure however deeply the methods nest."""
    spanned = _spanned(fn, kind)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return spanned(*args, **kwargs)
        except BudgetExceeded as exc:
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                inc(_BUDGET_COUNTER)
            raise
    return wrapper


def install() -> None:
    """Wrap every timed layer's public calls (once per process)."""
    from repro.core.partition import IdealLattice
    from repro.experiments import (
        period,
        random_experiments,
        streamit_experiments,
    )
    from repro.heuristics import base, dpa1d, refine
    from repro.solvers import adapters
    from repro.spg import streamit

    # The panels' per-instance tasks (the sweep has its own sweep.cell).
    random_experiments.random_panel_task = _spanned(
        random_experiments.random_panel_task, "bench.instance"
    )
    streamit_experiments.streamit_task = _spanned(
        streamit_experiments.streamit_task, "bench.instance"
    )
    # HeuristicSolver looks the heuristic up in REGISTRY at solve time.
    for name, fn in list(base.REGISTRY.items()):
        base.REGISTRY[name] = _spanned(fn, f"heuristic.{name.lower()}")
    period.run_all = _spanned(period.run_all, "period.probe")
    dpa1d.solve_uniline = _spanned(dpa1d.solve_uniline,
                                   "dpa1d.solve_uniline")
    # RefineStage imports refine_mapping from its module at call time;
    # streamit_task and ScenarioSpec.build_app do the same for
    # streamit_workflow.
    refine.refine_mapping = _spanned(refine.refine_mapping,
                                     "heuristic.refine")
    adapters.validate = _spanned(adapters.validate, "evaluate.validate")
    random_experiments.random_spg_with_elevation = _spanned(
        random_experiments.random_spg_with_elevation, "spg.generate"
    )
    streamit.streamit_workflow = _spanned(streamit.streamit_workflow,
                                          "spg.generate")
    for method, kind in (
        ("ideals", "partition.ideals"),
        ("suffix_table", "partition.suffix"),
        ("suffix_arrays", "partition.suffix"),
        ("suffix_clusters_weighted", "partition.suffix"),
        ("suffix_clusters", "partition.suffix"),
    ):
        setattr(IdealLattice, method,
                _lattice_method(getattr(IdealLattice, method), kind))


def layer_metrics(spans, counters: dict, passes: int, traced_wall: float,
                  untraced_wall: float, jobs: int) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``traced_wall``/``untraced_wall`` are the summed pass times of the
    traced passes and of the same number of untraced ones.  The self
    times of the timed layers plus ``trace.gap_s`` add up to the traced
    wall-clock of a serial workload, so time no wrapper covers shows as
    a gap.  On the pool workload the layer times are summed over
    workers and can exceed the wall-clock, making the gap negative.
    """
    selfs = self_times(spans)
    by_kind = defaultdict(list)
    for s in spans:
        by_kind[s.kind].append(s)

    def count(*kinds):
        return sum(len(by_kind[k]) for k in kinds)

    out: dict[str, float] = {}
    for name, kinds in TIMED_LAYERS.items():
        out[name] = sum(selfs[s.span_id] for k in kinds
                        for s in by_kind[k]) / passes
    out["spg.graphs"] = count("spg.generate") / passes
    out["period.probes"] = count("period.probe") / passes
    instance_s = sorted(s.duration_s for k in INSTANCE_KINDS
                        for s in by_kind[k])
    out["period.instance_p50_s"] = percentile(instance_s, 0.5)
    out["period.instance_p90_s"] = percentile(instance_s, 0.9)
    for h in HEURISTICS:
        calls = by_kind[f"heuristic.{h}"]
        failed = sum(s.status == "error" for s in calls)
        out[f"heuristics.{h}.calls"] = len(calls) / passes
        out[f"heuristics.{h}.fail_rate"] = failed / len(calls) if calls else 0.0
    out["partition.suffix_calls"] = count("partition.suffix") / passes
    out["partition.budget_exceeded"] = (
        counters.get(_BUDGET_COUNTER, 0) / passes
    )
    hits = counters.get("kernel.lattice_hits", 0)
    lookups = hits + counters.get("kernel.lattice_misses", 0)
    out["kernels.lattice_hit_rate"] = hits / lookups if lookups else 0.0
    out["kernels.lattice_evictions"] = (
        counters.get("kernel.lattice_evicted", 0) / passes
    )
    out["evaluate.validate_calls"] = count("evaluate.validate") / passes
    out["store.resume_s"] = sum(
        s.duration_s for s in by_kind["bench.resume"]
    ) / passes
    gets = by_kind["store.get"]
    out["store.resume_hit_rate"] = (
        sum(bool(s.attrs.get("hit")) for s in gets) / len(gets)
        if gets else 0.0
    )
    out["engine.parallel_efficiency"] = sum(instance_s) / (
        jobs * traced_wall
    )
    out["engine.retries"] = counters.get("engine.retries", 0) / passes
    out["trace.overhead"] = traced_wall / untraced_wall - 1.0
    out["trace.gap_s"] = traced_wall / passes - sum(
        out[name] for name in TIMED_LAYERS
    )
    return {name: out[name] for name in UNITS}
