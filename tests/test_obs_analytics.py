"""Telemetry analytics, export, bench sentinel and live progress.

Covers the post-processing layers above the recorders: percentile
exactness, self-time/critical-path attribution, trace diff and its
budget gate, Chrome/collapsed export (including absorbed multi-worker
traces), the ``BENCH_history.jsonl`` sentinel, the
sweep progress heartbeat, and the CLI entry points for all of them —
plus the out-of-band contract: reports stay byte-identical with
progress/tracing on.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.experiments.parallel import run_tasks
from repro.experiments.report import report_json
from repro.experiments.scenarios import run_scenario_sweep
from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    load_trace,
    observability,
    render_metrics,
)
from repro.obs.analyze import (
    critical_path,
    diff_regressions,
    diff_traces,
    hotspots,
    render_critical_path,
    render_diff,
    render_hotspots,
    self_times,
    span_tree,
)
from repro.obs.export import (
    export_trace,
    to_chrome_trace,
    to_collapsed_stacks,
    write_chrome_trace,
)
from repro.obs.history import (
    METRICS,
    append_history,
    check_bench,
    extract_metrics,
    load_history,
    render_check,
    render_history,
)
from repro.obs.progress import SweepProgress, as_progress
from repro.obs.summarize import percentile
from repro.resilience import ExecutionStats, RetryPolicy


SWEEP_KW = dict(
    topologies=["mesh"], sizes=["3x3"], ccrs=[10.0], apps=["random-8"],
    replicates=2, seed=1,
)


def _span(sid, parent, kind, dur, status="ok", **attrs):
    return Span(span_id=sid, parent_id=parent, kind=kind, ts=0.0,
                duration_s=dur, status=status, attrs=attrs)


def _tree():
    """root(10) -> [stage.a(6) -> leaf(2), stage.b(3)] — self times:
    root 1, stage.a 4, leaf 2, stage.b 3."""
    return [
        _span(1, None, "root", 10.0),
        _span(2, 1, "stage.a", 6.0),
        _span(3, 2, "leaf", 2.0),
        _span(4, 1, "stage.b", 3.0),
    ]


# ----------------------------------------------------------------------
# Shared percentile helper (the p99.9 truncation fix)
# ----------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank_basics(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 0.0) == 1.0
        assert percentile(vals, 1.0) == 4.0
        assert percentile(vals, 0.5) == 2.0
        assert percentile([], 0.5) == 0.0

    def test_p999_does_not_collapse_to_p99(self):
        # 2000 samples: rank(p99) = 1980, rank(p99.9) = 1998.  The old
        # int(q*100) truncation computed both from the integer 99.
        vals = [float(i) for i in range(1, 2001)]
        assert percentile(vals, 0.99) == 1980.0
        assert percentile(vals, 0.999) == 1998.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="q must be in"):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError, match="q must be in"):
            percentile([1.0], -0.1)


# ----------------------------------------------------------------------
# Analytics: tree, self time, hotspots, critical path
# ----------------------------------------------------------------------
class TestAnalytics:
    def test_span_tree_and_self_times(self):
        spans = _tree()
        by_id, children = span_tree(spans)
        assert [s.kind for s in children[None]] == ["root"]
        assert [s.kind for s in children[1]] == ["stage.a", "stage.b"]
        selfs = self_times(spans)
        assert selfs == {1: 1.0, 2: 4.0, 3: 2.0, 4: 3.0}

    def test_self_time_clamped_at_zero(self):
        spans = [
            _span(1, None, "root", 1.0),
            _span(2, 1, "child", 1.5),  # clock noise: child > parent
        ]
        assert self_times(spans)[1] == 0.0

    def test_dangling_parent_becomes_root(self):
        spans = [_span(7, 99, "orphan", 2.0)]
        _, children = span_tree(spans)
        assert [s.kind for s in children[None]] == ["orphan"]
        assert critical_path(spans)[0]["kind"] == "orphan"

    def test_hotspots_sorted_by_self_time(self):
        rows = hotspots(_tree())
        assert [r["kind"] for r in rows] == [
            "stage.a", "stage.b", "leaf", "root"
        ]
        a = rows[0]
        assert a["total_s"] == 6.0 and a["self_s"] == 4.0
        assert a["child_s"] == 2.0
        assert a["self_share"] == pytest.approx(0.4)

    def test_critical_path_descends_slowest_child(self):
        path = critical_path(_tree())
        assert [p["kind"] for p in path] == ["root", "stage.a", "leaf"]
        assert [p["depth"] for p in path] == [0, 1, 2]
        assert path[0]["share_of_root"] == 1.0
        assert path[2]["share_of_root"] == pytest.approx(0.2)
        assert critical_path([]) == []

    def test_renderers(self, tmp_path):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        p = tmp_path / "t.jsonl"
        tr.write_jsonl(p)
        text = render_hotspots(p)
        assert "Hotspots" in text and "Critical path" in text
        assert "outer" in text and "inner" in text
        assert "no spans" in render_critical_path([])


# ----------------------------------------------------------------------
# Trace diff + budget gate
# ----------------------------------------------------------------------
class TestTraceDiff:
    def test_self_diff_is_all_zero(self, tmp_path):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        p = tmp_path / "t.jsonl"
        tr.write_jsonl(p)
        diff = diff_traces(p, p)
        assert diff["new"] == [] and diff["vanished"] == []
        for row in diff["kinds"]:
            assert row["total_delta_s"] == 0.0
            assert row["total_delta_frac"] == 0.0
            assert row["count_delta"] == 0
        assert diff_regressions(diff, 0.0) == []

    def test_regression_and_budget_gate(self):
        a = [_span(1, None, "work", 1.0)]
        b = [_span(1, None, "work", 1.3)]
        diff = diff_traces(a, b)
        row = diff["kinds"][0]
        assert row["total_delta_s"] == pytest.approx(0.3)
        assert row["total_delta_frac"] == pytest.approx(0.3)
        assert diff_regressions(diff, 40.0) == []
        assert [r["kind"] for r in diff_regressions(diff, 20.0)] == [
            "work"
        ]

    def test_new_and_vanished_kinds(self):
        a = [_span(1, None, "old", 1.0)]
        b = [_span(1, None, "new", 1.0)]
        diff = diff_traces(a, b)
        assert diff["new"] == ["new"] and diff["vanished"] == ["old"]
        new_row = next(r for r in diff["kinds"] if r["kind"] == "new")
        assert new_row["total_delta_frac"] == float("inf")
        # A brand-new kind blows any finite budget.
        assert diff_regressions(diff, 1e9) == [new_row]

    def test_tiny_deltas_below_absolute_floor_ignored(self):
        a = [_span(1, None, "work", 0.0001)]
        b = [_span(1, None, "work", 0.0008)]
        # 700% growth but < 1ms absolute: clock noise, not a regression.
        assert diff_regressions(diff_traces(a, b), 10.0) == []

    def test_budget_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            diff_regressions(diff_traces([], []), -1.0)

    def test_render_diff_mentions_verdict(self):
        a = [_span(1, None, "work", 1.0)]
        b = [_span(1, None, "work", 2.0)]
        diff = diff_traces(a, b)
        text = render_diff(diff, diff_regressions(diff, 10.0))
        assert "REGRESSION" in text
        ok = render_diff(diff_traces(a, a), [])
        assert "within budget" in ok


# ----------------------------------------------------------------------
# Export: Chrome trace events + collapsed stacks
# ----------------------------------------------------------------------
class TestChromeExport:
    def _absorbed_trace(self):
        """A parent trace with two absorbed worker blobs (the
        multi-worker shape: unrelated wall clocks, negative-parent
        remapping exercised)."""
        parent = Tracer()
        with parent.span("sweep.run"):
            for _ in range(2):
                worker = Tracer()
                with worker.span("sweep.cell"):
                    with worker.span("solver.run"):
                        pass
                    worker.event("cache.hit", {"key": "k"})
                parent.absorb(worker.export())
        return parent

    def test_event_document_shape(self):
        tr = self._absorbed_trace()
        doc = to_chrome_trace({"trace_schema": 1}, tr.spans)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        assert set(xs) == {"sweep.run", "sweep.cell", "solver.run"}
        assert doc["otherData"]["spans"] == len(tr.spans)

    def test_children_nest_inside_parents(self):
        tr = self._absorbed_trace()
        doc = to_chrome_trace({}, tr.spans)
        by_span = {
            e["args"]["span"]: e
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        for e in by_span.values():
            pid = e["args"]["parent"]
            if pid is None:
                continue
            parent = by_span[pid]
            assert e["ts"] >= parent["ts"]
            assert e["ts"] + e["dur"] <= (
                parent["ts"] + parent["dur"] + 1e-6
            )

    def test_durations_preserved_exactly(self):
        spans = _tree()
        doc = to_chrome_trace({}, spans)
        durs = {
            e["name"]: e["dur"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert durs == {
            "root": 10e6, "stage.a": 6e6, "leaf": 2e6, "stage.b": 3e6
        }

    def test_error_status_marked(self):
        spans = [_span(1, None, "boom", 1.0, status="error")]
        doc = to_chrome_trace({}, spans)
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert x["args"]["error"] is True

    def test_file_roundtrip(self, tmp_path):
        tr = self._absorbed_trace()
        src = tmp_path / "t.jsonl"
        tr.write_jsonl(src)
        dst = tmp_path / "t.chrome.json"
        write_chrome_trace(src, dst)
        doc = json.loads(dst.read_text())
        meta, spans = load_trace(src)
        assert doc["otherData"]["spans"] == len(spans)
        assert doc["otherData"]["trace_schema"] == meta["trace_schema"]

    def test_export_trace_dispatcher(self, tmp_path):
        tr = self._absorbed_trace()
        src = tmp_path / "t.jsonl"
        tr.write_jsonl(src)
        chrome = export_trace(src, "chrome")
        assert json.loads(chrome)["traceEvents"]
        collapsed = export_trace(src, "collapsed")
        assert "sweep.run;sweep.cell" in collapsed
        out = tmp_path / "c.txt"
        export_trace(src, "collapsed", target=out)
        assert out.read_text() == collapsed
        with pytest.raises(ValueError, match="unknown export format"):
            export_trace(src, "svg")


class TestCollapsedStacks:
    def test_span_stacks_aggregate_self_time(self):
        lines = to_collapsed_stacks(_tree()).splitlines()
        got = dict(ln.rsplit(" ", 1) for ln in lines)
        assert got == {
            "root": "1000000",
            "root;stage.a": "4000000",
            "root;stage.a;leaf": "2000000",
            "root;stage.b": "3000000",
        }
        assert to_collapsed_stacks([]) == ""


# ----------------------------------------------------------------------
# Bench history + regression sentinel
# ----------------------------------------------------------------------
def _sections(fig10=3.8, refine=8.0, store=40.0, dpa1d=3.9):
    return {
        "fig10_panel": {"speedup_vs_seed": fig10},
        "refine": {"speedup": refine},
        "store": {"speedup": store},
        "dpa1d": {"speedup_geomean": dpa1d},
    }


class TestBenchHistory:
    def test_append_load_roundtrip(self, tmp_path):
        p = tmp_path / "h.jsonl"
        append_history(_sections(), p, commit="abc", timestamp=1.5)
        append_history(_sections(refine=9.0), p, commit="def",
                       timestamp=2.5)
        hist = load_history(p)
        assert len(hist) == 2
        assert hist[0]["commit"] == "abc" and hist[0]["ts"] == 1.5
        assert hist[1]["history_schema"] == 1
        assert extract_metrics(hist[1]["sections"])["refine"] == 9.0

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "none.jsonl") == []

    def test_malformed_lines_raise_with_lineno(self, tmp_path):
        p = tmp_path / "h.jsonl"
        p.write_text("not json\n")
        with pytest.raises(ValueError, match="1: not valid JSON"):
            load_history(p)
        p.write_text('{"ok": true}\n')
        with pytest.raises(ValueError, match="not a bench-history"):
            load_history(p)

    def test_metric_extraction_handles_missing(self):
        got = extract_metrics({"refine": {"speedup": "bogus"}})
        assert got["refine"] is None and got["fig10"] is None
        assert set(got) == {m.name for m in METRICS}


class TestBenchCheck:
    def _hist(self, tmp_path, *sections_list):
        p = tmp_path / "h.jsonl"
        for i, s in enumerate(sections_list):
            append_history(s, p, commit=f"c{i}", timestamp=float(i))
        return load_history(p)

    def test_clean_run_passes(self, tmp_path):
        hist = self._hist(tmp_path, _sections())
        result = check_bench(_sections(), hist)
        assert result["ok"] and result["regressions"] == []
        assert "OK: speedup trajectory holds" in render_check(result)

    def test_ratio_floor_is_absolute(self, tmp_path):
        bench = _sections(refine=4.0)  # floor 5.0
        result = check_bench(bench, [])
        assert not result["ok"]
        assert result["regressions"] == ["refine"]
        row = next(r for r in result["metrics"]
                   if r["metric"] == "refine")
        assert not row["floor_ok"] and "below floor" in row["note"]

    def test_band_gate_vs_last_distinct_run(self, tmp_path):
        # A run appends itself before checking: the newest identical
        # entry must not mask a fall versus the *previous* run.
        current = _sections(store=20.0)
        hist = self._hist(tmp_path, _sections(store=40.0), current)
        result = check_bench(current, hist)
        assert result["regressions"] == ["store"]
        row = next(r for r in result["metrics"]
                   if r["metric"] == "store")
        assert row["last"] == 40.0 and not row["band_ok"]
        # Within the 20% band: fine.
        ok = check_bench(_sections(store=33.0),
                         self._hist(tmp_path / "b", _sections(store=40.0)))
        assert ok["ok"]

    def test_baseline_floor_is_trajectory_gated(self, tmp_path):
        # fig10 below floor, history never met the floor: a slower host,
        # not a regression — band is the binding gate.
        slow_host = _sections(fig10=1.03)
        result = check_bench(slow_host,
                             self._hist(tmp_path, slow_host))
        assert result["ok"]
        row = result["metrics"][0]
        assert row["floor_ok"] and "host slower" in row["note"]
        # History met 3.7x and the current run fell below it: genuine.
        bad = _sections(fig10=3.0)
        result = check_bench(
            bad, self._hist(tmp_path / "b", _sections(fig10=3.8), bad)
        )
        assert result["regressions"] == ["fig10"]
        assert "previously-met floor" in result["metrics"][0]["note"]

    def test_missing_section_fails_outright(self):
        bench = _sections()
        del bench["dpa1d"]
        result = check_bench(bench, [])
        assert "dpa1d" in result["regressions"]
        row = next(r for r in result["metrics"]
                   if r["metric"] == "dpa1d")
        assert "missing" in row["note"]

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            check_bench(_sections(), [], tolerance=1.5)

    def test_render_history(self, tmp_path):
        hist = self._hist(tmp_path, _sections(), _sections(refine=9.0))
        text = render_history(hist)
        assert "2 of 2 recorded run(s)" in text and "c1" in text
        assert "1 of 2" in render_history(hist, last=1)
        assert "no recorded runs" in render_history([])


# ----------------------------------------------------------------------
# Live sweep progress
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSweepProgress:
    def _tracker(self, **kw):
        import io

        clock = FakeClock()
        buf = io.StringIO()
        kw.setdefault("use_thread", False)
        kw.setdefault("interval_s", 1.0)
        tracker = SweepProgress(stream=buf, clock=clock, **kw)
        return tracker, clock, buf

    def test_heartbeat_counts_and_eta(self):
        tracker, clock, buf = self._tracker()
        tracker.start(4)
        for _ in range(2):
            clock.t += 2.0
            tracker.cell_done()
        line = tracker.render_line()
        assert "[sweep 2/4" in line and "eta 4s" in line
        tracker.finish()
        out = buf.getvalue()
        assert "started" in out and "finished" in out

    def test_hit_rate_and_failures_reported(self):
        tracker, clock, _ = self._tracker()
        tracker.start(4)
        clock.t += 1.0
        tracker.cell_done(resumed=True)
        clock.t += 1.0
        tracker.cell_done(failed=True)
        line = tracker.render_line()
        assert "hits 1 (50.0%)" in line and "failed 1" in line

    def test_heartbeat_rate_limited(self):
        tracker, clock, buf = self._tracker(interval_s=10.0)
        tracker.start(100)
        for _ in range(5):
            clock.t += 0.1
            tracker.cell_done()
        # start line only: every beat inside the 10s window suppressed.
        assert len(buf.getvalue().splitlines()) == 1
        clock.t += 20.0
        assert tracker.heartbeat()

    def test_stall_detection_fires_once_per_gap(self):
        tracker, clock, buf = self._tracker(min_samples=3,
                                            stall_factor=4.0)
        tracker.start(10)
        for _ in range(5):
            clock.t += 1.0
            tracker.cell_done()
        clock.t += 2.0
        assert not tracker.check_stall()  # within 4 x p99 (= 4s)
        clock.t += 3.0
        assert tracker.check_stall()  # 5s silent > 4s threshold
        assert tracker.stalls == 1
        assert not tracker.check_stall()  # flagged: no re-fire
        clock.t += 1.0
        tracker.cell_done()  # rearms
        clock.t += 50.0
        assert tracker.check_stall()
        assert "STALL" in buf.getvalue()

    def test_stall_needs_min_samples(self):
        tracker, clock, _ = self._tracker(min_samples=5)
        tracker.start(10)
        clock.t += 1.0
        tracker.cell_done()
        clock.t += 1000.0
        assert not tracker.check_stall()

    def test_engine_stats_in_heartbeat(self):
        stats = ExecutionStats()
        stats.retries = 2
        tracker, clock, _ = self._tracker(stats=stats)
        tracker.start(2)
        clock.t += 1.0
        tracker.cell_done()
        assert "retries 2" in tracker.render_line()

    def test_as_progress_normalisation(self):
        assert as_progress(None) is None
        assert as_progress(False) is None
        stats = ExecutionStats()
        built = as_progress(True, stats=stats)
        assert isinstance(built, SweepProgress)
        assert built.stats is stats
        tracker, _, _ = self._tracker()
        assert as_progress(tracker, stats=stats) is tracker
        assert tracker.stats is stats
        with pytest.raises(TypeError):
            as_progress("yes")

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepProgress(interval_s=0)
        with pytest.raises(ValueError):
            SweepProgress(stall_factor=0)
        # finish before start is a no-op
        SweepProgress(use_thread=False).finish()

    def test_run_tasks_fires_progress_per_terminal_result(self):
        seen = []
        run_tasks(
            lambda x: x * 2, [1, 2, 3],
            progress=lambda i, r: seen.append((i, r)),
        )
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_run_tasks_progress_on_recorded_failure(self):
        from repro.resilience import TaskFailure

        def flaky(x):
            if x == 1:
                raise RuntimeError("boom")
            return x

        seen = []
        run_tasks(
            flaky, [0, 1, 2], failures="record",
            policy=RetryPolicy(max_attempts=1, backoff_s=0.0),
            progress=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]
        assert isinstance(seen[1][1], TaskFailure)

    def test_sweep_report_byte_identical_with_progress(self):
        plain = run_scenario_sweep(**SWEEP_KW)
        tracker, clock, buf = self._tracker()
        with observability(trace=True):
            live = run_scenario_sweep(**SWEEP_KW, progress=tracker)
        assert report_json(live) == report_json(plain)
        out = buf.getvalue()
        assert "started" in out and "finished" in out
        assert "[sweep 2/2" in out

    def test_sweep_progress_counts_store_hits(self, tmp_path):
        store = tmp_path / "s.sqlite"
        run_scenario_sweep(**SWEEP_KW, store=store)
        tracker, _, buf = self._tracker()
        resumed = run_scenario_sweep(
            **SWEEP_KW, store=store, resume=True, progress=tracker
        )
        assert tracker.resumed == 2 and tracker.done == 2
        assert report_json(resumed) == report_json(
            run_scenario_sweep(**SWEEP_KW)
        )
        assert "hits 2 (100.0%)" in buf.getvalue()


# ----------------------------------------------------------------------
# Engine resilience counters in metrics (engine.*)
# ----------------------------------------------------------------------
class TestEngineMetrics:
    def test_clean_run_records_no_engine_counters(self):
        with observability() as session:
            run_tasks(lambda x: x, [1, 2, 3])
        counters = session.metrics.counts()["counters"]
        assert not any(k.startswith("engine.") for k in counters)

    def test_serial_faults_mirrored_into_metrics(self):
        with observability() as session:
            run_tasks(
                lambda x: x, [0, 1, 2],
                policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
                faults="crash@task:1",
            )
        counters = session.metrics.counts()["counters"]
        assert counters["engine.crashes"] == 1
        assert counters["engine.retries"] == 1
        assert "engine.timeouts" not in counters

    def test_terminal_failure_still_counted(self):
        with observability() as session:
            with pytest.raises(Exception):
                run_tasks(
                    lambda x: x, [0, 1],
                    policy=RetryPolicy(max_attempts=1, backoff_s=0.0),
                    faults="crash@task:0",
                )
        counters = session.metrics.counts()["counters"]
        assert counters["engine.crashes"] == 1


# ----------------------------------------------------------------------
# CLI entry points
# ----------------------------------------------------------------------
def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCLI:
    def _trace_file(self, tmp_path, scale=1.0):
        tr = Tracer()
        spans = [
            _span(1, None, "sweep.run", 10.0 * scale),
            _span(2, 1, "solver.run", 6.0 * scale),
        ]
        tr.spans.extend(spans)
        p = tmp_path / f"t{scale}.jsonl"
        tr.write_jsonl(p)
        return p

    def test_trace_critical_path(self, tmp_path):
        p = self._trace_file(tmp_path)
        code, out = run_cli("trace", "critical-path", str(p))
        assert code == 0
        assert "Hotspots" in out and "Critical path" in out

    def test_trace_export_chrome_stdout_and_file(self, tmp_path):
        p = self._trace_file(tmp_path)
        code, out = run_cli("trace", "export", str(p))
        assert code == 0
        assert json.loads(out)["traceEvents"]
        out_file = tmp_path / "o.json"
        code, _ = run_cli("trace", "export", str(p), "--format",
                          "chrome", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["traceEvents"]

    def test_trace_export_collapsed(self, tmp_path):
        p = self._trace_file(tmp_path)
        code, out = run_cli("trace", "export", str(p), "--format",
                            "collapsed")
        assert code == 0
        assert "sweep.run;solver.run" in out

    def test_trace_diff_self_zero_and_budget_exit(self, tmp_path):
        a = self._trace_file(tmp_path, scale=1.0)
        b = self._trace_file(tmp_path, scale=1.5)
        code, out = run_cli("trace", "diff", str(a), str(a),
                            "--budget-pct", "0")
        assert code == 0 and "within budget" in out
        code, out = run_cli("trace", "diff", str(a), str(b),
                            "--budget-pct", "20")
        assert code == 1 and "REGRESSION" in out
        # No budget: informational, exit 0 even on growth.
        assert run_cli("trace", "diff", str(a), str(b))[0] == 0

    def test_trace_diff_needs_two_files(self, tmp_path):
        a = self._trace_file(tmp_path)
        code, out = run_cli("trace", "diff", str(a))
        assert code == 2 and "two trace files" in out

    def test_trace_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        for action in ("summarize", "critical-path"):
            code, out = run_cli("trace", action, str(bad))
            assert code == 2 and "bad trace file" in out

    def test_profile_merge_empty_dir_exits_2(self, tmp_path):
        # The cProfile merger is gone: flamegraphs come from
        # 'trace export --format collapsed', and argparse rejects the
        # old command.
        with pytest.raises(SystemExit) as exc:
            run_cli("profile", "merge", str(tmp_path))
        assert exc.value.code == 2

    def test_bench_check_and_history(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        bench = tmp_path / "b.json"
        append_history(_sections(), hist, commit="abc", timestamp=1.0)
        bench.write_text(json.dumps(_sections()))
        code, out = run_cli("bench", "check", "--bench", str(bench),
                            "--history", str(hist))
        assert code == 0 and "OK: speedup trajectory holds" in out
        code, out = run_cli("bench", "history", "--history", str(hist))
        assert code == 0 and "abc" in out

    def test_bench_check_regression_exits_1(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        bench = tmp_path / "b.json"
        append_history(_sections(), hist, commit="abc", timestamp=1.0)
        bench.write_text(json.dumps(_sections(refine=4.0)))
        code, out = run_cli("bench", "check", "--bench", str(bench),
                            "--history", str(hist))
        assert code == 1 and "REGRESSION: refine" in out

    def test_bench_check_missing_report_exits_2(self, tmp_path):
        code, out = run_cli("bench", "check", "--bench",
                            str(tmp_path / "none.json"), "--history",
                            str(tmp_path / "h.jsonl"))
        assert code == 2 and "no bench report" in out

    def test_sweep_progress_flag(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code, out = run_cli(
            "sweep", "--apps", "random-8", "--sizes", "3x3",
            "--topologies", "mesh", "--replicates", "2", "--seed", "1",
            "--out", str(report), "--progress",
        )
        assert code == 0
        assert "Scenario sweep" in out
        assert "finished in" in capsys.readouterr().err
        assert json.loads(report.read_text())["meta"]["seed"] == 1
