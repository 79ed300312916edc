"""The observability battery: tracing, metrics, invariance.

The hard contract under test is that telemetry is strictly out of band:
canonical sweep reports are byte-identical whether observability is on
or off, and the deterministic metric view (counter totals + histogram
observation counts) is identical for any ``jobs`` value and for any
shard/resume decomposition of the same grid.
"""

from __future__ import annotations

import json
import sqlite3
import warnings

import pytest

from repro.experiments.parallel import (
    pool_available,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.report import report_json
from repro.experiments.scenarios import run_scenario_sweep
from repro.experiments.streamit_experiments import (
    CCR_SETTINGS,
    run_streamit_experiment,
)
from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    load_trace,
    observability,
    render_metrics,
    render_trace_summary,
    summarize_spans,
)
from repro.obs.session import (
    absorb,
    active,
    capture,
    capture_config,
    event,
    inc,
    observe,
    trace_span,
)
from repro.platform.cmp import CMPGrid
from repro.store.backend import ResultStore


SWEEP_KW = dict(
    topologies=["mesh"], sizes=["3x3"], ccrs=[10.0], apps=["random-8"],
    replicates=2, seed=1,
)


def needs_pool():
    if not pool_available():  # pragma: no cover - sandboxed CI
        pytest.skip("process pools unavailable in this environment")


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.set_gauge("g", 1.5)
        reg.set_gauge("g", 2.5)
        assert reg.counters["a"] == 3
        assert reg.gauges["g"] == 2.5

    def test_histogram_bucketing(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]  # <=1, <=10, +inf
        assert h.count == 4
        assert h.min == 0.5 and h.max == 100.0

    def test_histogram_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_histogram_merge_requires_same_buckets(self):
        a = Histogram(buckets=(1.0,))
        b = Histogram(buckets=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_observe_fixes_buckets(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5, buckets=(1.0,))
        reg.observe("h", 2.0)  # omitting buckets is fine
        with pytest.raises(ValueError):
            reg.observe("h", 3.0, buckets=(5.0,))

    def test_merge_payload_roundtrip(self):
        a = MetricsRegistry()
        a.inc("c", 2)
        a.observe("h", 0.25)
        b = MetricsRegistry()
        b.inc("c", 3)
        b.observe("h", 4.0)
        a.merge_payload(b.to_payload())
        assert a.counters["c"] == 5
        assert a.histograms["h"].count == 2
        again = MetricsRegistry.from_payload(a.to_payload())
        assert again.counts() == a.counts()

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_render_metrics(self):
        reg = MetricsRegistry()
        assert "no events" in render_metrics(reg)
        reg.inc("store.hits", 7)
        reg.set_gauge("pool.workers", 4)
        reg.observe("solver.duration_s", 0.5)
        table = render_metrics(reg)
        for needle in ("store.hits", "pool.workers", "solver.duration_s",
                       "counter", "gauge", "histogram"):
            assert needle in table


# ----------------------------------------------------------------------
# Trace primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_status(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
                raise RuntimeError("boom")
        inner, outer = tr.spans
        assert inner.kind == "inner" and outer.kind == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.status == "ok" and outer.status == "error"

    def test_event_is_instantaneous(self):
        tr = Tracer()
        with tr.span("work"):
            ev = tr.event("warning.jobs_fallback", {"requested": 4})
        assert ev.status == "event"
        assert ev.duration_s == 0.0
        assert ev.parent_id == tr.spans[-1].span_id or ev.parent_id == 1

    def test_jsonl_roundtrip(self, tmp_path):
        tr = Tracer()
        with tr.span("a", {"x": 1}):
            with tr.span("b"):
                pass
            tr.event("e")
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(path)
        meta, spans = load_trace(path)
        assert meta["trace_schema"] == 1
        assert meta["spans"] == 3
        assert [s.kind for s in spans] == ["b", "e", "a"]
        assert spans[0].parent_id == spans[2].span_id
        assert spans[2].attrs == {"x": 1}

    def test_load_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace(bad)
        bad.write_text('{"span": 1}\n')
        with pytest.raises(ValueError, match="not a span record"):
            load_trace(bad)

    def test_absorb_reparents_under_open_span(self):
        worker = Tracer()
        with worker.span("sweep.cell"):
            with worker.span("solver.run"):
                pass
        parent = Tracer()
        with parent.span("sweep.run"):
            parent.absorb(worker.export())
        by_kind = {s.kind: s for s in parent.spans}
        root = by_kind["sweep.run"]
        cell = by_kind["sweep.cell"]
        solver = by_kind["solver.run"]
        assert cell.parent_id == root.span_id
        # solver.run's parent was a forward reference within the batch
        # (children are buffered before parents) — it must resolve to
        # the remapped cell id, not leak a negative placeholder.
        assert solver.parent_id == cell.span_id
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Sessions and the worker capture path
# ----------------------------------------------------------------------
class TestSession:
    def test_front_doors_are_noops_when_disabled(self):
        assert active() is None
        # None of these may raise or record anything.
        with trace_span("x", y=1):
            pass
        event("e")
        inc("c")
        observe("h", 1.0)
        assert capture_config() is None

    def test_sessions_nest_and_restore(self):
        with observability(metrics=True) as outer:
            inc("n", 1)
            with observability(metrics=True) as nested:
                inc("n", 5)
            assert active() is outer
            inc("n", 1)
        assert active() is None
        assert outer.metrics.counters["n"] == 2
        assert nested.metrics.counters["n"] == 5

    def test_trace_written_even_on_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with observability(trace=path):
                with trace_span("doomed"):
                    raise RuntimeError("boom")
        meta, spans = load_trace(path)
        assert [s.status for s in spans] == ["error"]

    def test_capture_and_absorb_match_direct_recording(self):
        with observability(trace=True, metrics=True) as direct:
            with trace_span("task"):
                inc("c")
                observe("h", 0.5)
        cfg_session = observability(trace=True, metrics=True)
        with cfg_session as routed:
            cfg = capture_config()
            with capture(cfg) as cap:
                with trace_span("task"):
                    inc("c")
                    observe("h", 0.5)
            blob = cap.export()
            # The buffering session must not have touched the parent.
            assert not routed.metrics.counters
            absorb(blob)
        assert routed.metrics.counts() == direct.metrics.counts()
        assert (
            [s.kind for s in routed.tracer.spans]
            == [s.kind for s in direct.tracer.spans]
        )

    def test_absorb_without_session_is_noop(self):
        absorb({"spans": [], "metrics": None})
        absorb(None)


# ----------------------------------------------------------------------
# Engine integration: jobs invariance, retry overwrite, fallback
# ----------------------------------------------------------------------
def _counting_task(x):
    inc("task.calls")
    observe("task.value", float(x))
    return x * x


class TestEngineTelemetry:
    def test_pool_results_unchanged_with_session(self):
        needs_pool()
        with observability(metrics=True):
            out = run_tasks(_counting_task, list(range(12)), jobs=2)
        assert out == [x * x for x in range(12)]

    def test_counts_invariant_across_jobs(self):
        needs_pool()
        views = []
        for jobs in (1, 2, 4):
            with observability(metrics=True) as s:
                run_tasks(_counting_task, list(range(12)), jobs=jobs)
            views.append(s.metrics.counts())
        assert views[0] == views[1] == views[2]
        assert views[0]["counters"]["task.calls"] == 12

    def test_resolve_jobs_fallback_counted(self, monkeypatch):
        import repro.experiments.parallel as par

        monkeypatch.setattr(par, "_POOL_OK", False)
        with observability(trace=True, metrics=True) as s:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert resolve_jobs(4) == 1
        assert s.metrics.counters["engine.jobs_fallback"] == 1
        ev = [sp for sp in s.tracer.spans
              if sp.kind == "warning.jobs_fallback"]
        assert len(ev) == 1 and ev[0].status == "event"
        assert ev[0].attrs == {"requested": 4}
        assert any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )


# ----------------------------------------------------------------------
# Sweep-level invariance and byte-identity
# ----------------------------------------------------------------------
def _sweep_counts(**kw) -> dict:
    with observability(metrics=True) as s:
        run_scenario_sweep(**SWEEP_KW, **kw)
    return s.metrics.counts()


class TestSweepInvariance:
    def test_report_bytes_identical_with_tracing(self, tmp_path):
        plain = report_json(run_scenario_sweep(**SWEEP_KW))
        with observability(trace=tmp_path / "t.jsonl", metrics=True):
            traced = report_json(run_scenario_sweep(**SWEEP_KW))
        assert plain == traced

    def test_counts_invariant_across_jobs(self):
        needs_pool()
        serial = _sweep_counts(jobs=1)
        assert serial["counters"]["sweep.cells_computed"] == 2
        assert serial["counters"]["solver.runs"] > 0
        assert _sweep_counts(jobs=2) == serial
        assert _sweep_counts(jobs=4) == serial

    def test_streamit_counts_invariant_across_jobs(self):
        # One task per workflow: its CCR variants share one ideal lattice
        # inside the task, so lattice and table counts cannot depend on
        # which worker ran which workflow.
        needs_pool()

        def run(jobs):
            with observability(metrics=True) as s:
                exp = run_streamit_experiment(
                    CMPGrid(4, 4), workflows=(7, 9), seed=3, jobs=jobs
                )
            records = {
                key: (rec.period, {h: repr(r.total_energy) if r.ok else None
                                   for h, r in rec.results.items()})
                for key, rec in exp.records.items()
            }
            return records, s.metrics.counts()

        serial_records, serial = run(1)
        assert len(serial_records) == 2 * len(CCR_SETTINGS)
        counters = serial["counters"]
        assert counters["kernel.lattice_misses"] == 2
        assert counters["kernel.lattice_hits"] > 0
        assert counters["kernel.table_builds"] > 0
        assert run(2) == (serial_records, serial)

    def test_counts_invariant_across_shard_resume(self, tmp_path):
        db = tmp_path / "cells.sqlite"
        cold = _sweep_counts(store=db)
        # Recompute into two fresh shards of a second store, then merge.
        db2 = tmp_path / "cells2.sqlite"
        shard0 = _sweep_counts(store=db2, shard="0/2")
        shard1 = _sweep_counts(store=db2, shard="1/2")
        merged_counters: dict = {}
        for view in (shard0, shard1):
            for name, val in view["counters"].items():
                merged_counters[name] = merged_counters.get(name, 0) + val
        assert merged_counters == cold["counters"]
        # The final resume pass answers everything from the store.
        resumed = _sweep_counts(store=db2, resume=True)
        assert resumed["counters"]["sweep.cells_resumed"] == 2
        assert resumed["counters"]["store.hits"] == 2
        assert "sweep.cells_computed" not in resumed["counters"]

    def test_summarize_sweep_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with observability(trace=path):
            run_scenario_sweep(**SWEEP_KW)
        rendered = render_trace_summary(path)
        for kind in ("sweep.run", "sweep.cell", "solver.run"):
            assert kind in rendered


# ----------------------------------------------------------------------
# Trace summaries
# ----------------------------------------------------------------------
class TestSummaries:
    def test_percentiles_and_sorting(self):
        spans = [
            Span(i, None, "slow", 0.0, d)
            for i, d in enumerate((0.1, 0.2, 0.3, 0.4), start=1)
        ] + [Span(9, None, "fast", 0.0, 0.01)]
        rows = summarize_spans(spans)
        assert [r["kind"] for r in rows] == ["slow", "fast"]
        slow = rows[0]
        assert slow["count"] == 4
        assert slow["p50_s"] == 0.2
        assert slow["p99_s"] == 0.4
        assert slow["max_s"] == 0.4

    def test_empty_trace_notice(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with observability(trace=path):
            pass
        assert "empty trace" in render_trace_summary(path)


# ----------------------------------------------------------------------
# Store access accounting
# ----------------------------------------------------------------------
class TestStoreAccounting:
    def test_memory_store_counts_hits_and_misses(self):
        st = ResultStore()
        st.put("k", {"v": 1})
        assert st.get("k") == {"v": 1}
        assert st.get("k") == {"v": 1}
        assert st.get("absent") is None
        acc = st.access_stats()
        assert acc["hits"] == 2 and acc["misses"] == 1
        assert acc["rows_never_hit"] == 0
        assert acc["last_hit_at"] is not None
        assert st.stats()["access"] == acc

    def test_sqlite_accounting_persists(self, tmp_path):
        db = tmp_path / "s.sqlite"
        st = ResultStore(db)
        st.put("k", {"v": 1})
        st.get("k")
        st.get("gone")
        st.close()
        st2 = ResultStore(db)
        acc = st2.access_stats()
        assert acc["hits"] == 1 and acc["misses"] == 1
        assert acc["rows_never_hit"] == 0
        st2.close()

    def test_legacy_store_migrates_in_place(self, tmp_path):
        db = tmp_path / "old.sqlite"
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, kind TEXT "
                "NOT NULL, schema INTEGER NOT NULL, version TEXT NOT "
                "NULL, created_at REAL NOT NULL, payload TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT INTO results VALUES ('k', 'result', 1, '0', "
                "0.0, ?)", (json.dumps({"v": 1}, sort_keys=True),)
            )
        conn.close()
        st = ResultStore(db)
        assert st.get("k") == {"v": 1}
        acc = st.access_stats()
        assert acc["hits"] == 1 and acc["misses"] == 0
        st.close()

    def test_export_excludes_accounting(self, tmp_path):
        a = ResultStore(tmp_path / "a.sqlite")
        b = ResultStore(tmp_path / "b.sqlite")
        for st in (a, b):
            st.put("k", {"v": 1})
        a.get("k")  # only a records a hit
        assert json.dumps(a.export(), sort_keys=True) == json.dumps(
            b.export(), sort_keys=True
        )
        a.close()
        b.close()

    def test_store_metrics_counters(self):
        with observability(metrics=True) as s:
            st = ResultStore()
            st.put("k", {"v": 1})
            st.get("k")
            st.get("nope")
        assert s.metrics.counters["store.puts"] == 1
        assert s.metrics.counters["store.hits"] == 1
        assert s.metrics.counters["store.misses"] == 1
