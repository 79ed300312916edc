"""Chaos battery for the fault-tolerant execution layer.

The acceptance contract: a run whose injected faults are all
*recovered* — crashed workers respawned, hung workers timed out and
retried, corrupt store rows quarantined and recomputed — produces a
consolidated report **byte-identical** to a fault-free run, because
every retry re-runs the same pre-drawn task tuples.  Only *permanent*
failures (retries exhausted) may change a report, and then they appear
as typed records in ``meta.failures``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time

import pytest

from repro.core.errors import StoreCorruption
from repro.experiments import report_json, run_scenario_sweep, sweep_summary
from repro.experiments import parallel
from repro.experiments.parallel import pool_available, run_tasks
from repro.resilience import (
    ExecutionStats,
    FaultPlan,
    RetryPolicy,
    TaskError,
    TaskFailure,
    WorkerCrash,
    resolve_fault_plan,
)
from repro.resilience.faults import FAULT_PLAN_ENV, FaultSite
from repro.store import BatchRequest, ResultStore, open_store, serve_batch
from repro.util.io import atomic_write_text

#: Three topologies x 2 replicates = 6 cells, small enough to run the
#: sweep several times per test module.
SWEEP = dict(
    topologies=("mesh", "torus", "ring"),
    sizes=("2x2",),
    ccrs=(10.0,),
    apps=("random-8",),
    replicates=2,
    seed=7,
)

#: A fast policy for tests: real backoff shape, negligible sleeps.
FAST = RetryPolicy(backoff_s=0.001, max_backoff_s=0.002)


@pytest.fixture(scope="module")
def clean_text() -> str:
    return report_json(run_scenario_sweep(**SWEEP))


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.02)
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"boom {x}")


class TestRetryPolicy:
    def test_delay_is_deterministic_and_exponential(self):
        p = RetryPolicy(backoff_s=0.1, backoff_factor=2.0,
                        max_backoff_s=10.0, jitter=0.1)
        d1, d2, d3 = (p.delay(a, token=42) for a in (1, 2, 3))
        assert d1 == p.delay(1, token=42)  # pure function
        assert 0.1 <= d1 <= 0.11
        assert 0.2 <= d2 <= 0.22
        assert 0.4 <= d3 <= 0.44
        assert p.delay(1, token=1) != p.delay(1, token=2)

    def test_delay_caps_at_max_backoff(self):
        p = RetryPolicy(backoff_s=1.0, max_backoff_s=2.0, jitter=0.0)
        assert p.delay(10) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_task_failure_roundtrip(self):
        tf = TaskFailure(3, "crash", "worker died", 2)
        assert TaskFailure.from_payload(tf.to_payload()) == tf
        assert "task 3" in tf.describe() and "crash" in tf.describe()

    def test_task_error_carries_failure(self):
        tf = TaskFailure(0, "timeout", "too slow", 3)
        err = TaskError(tf)
        assert err.failure is tf and "timeout" in str(err)

    def test_stats_merge_and_clean(self):
        a, b = ExecutionStats(), ExecutionStats()
        assert a.clean
        b.retries, b.crashes = 2, 1
        b.failures.append(TaskFailure(0, "crash", "x", 3))
        a.merge(b)
        assert (a.retries, a.crashes, len(a.failures)) == (2, 1, 1)
        assert not a.clean and "2 retries" in a.summary()


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse(
            "crash@task:3; hang@task:5*2:0.5 ;corrupt@key:3fa;"
            "crash@task:*;corrupt@key:**2"
        )
        kinds = [(s.kind, s.target, s.times) for s in plan.sites]
        assert kinds == [
            ("crash", "3", 1), ("hang", "5", 2), ("corrupt", "3fa", 1),
            ("crash", "*", 1), ("corrupt", "*", 2),
        ]
        assert plan.sites[1].seconds == 0.5
        assert FaultPlan.parse(plan.to_spec()) == plan

    @pytest.mark.parametrize("bad", [
        "explode@task:1",         # unknown kind
        "crash@key:abc",          # wrong scope for kind
        "corrupt@task:1",         # wrong scope for kind
        "crash",                  # no @
        "crash@task:",            # empty target
        "crash@task:x",           # non-integer task index
        "crash@task:1*0",         # times < 1
        "crash@task:1:5",         # seconds on a non-hang site
        "hang@task:1:0",          # non-positive seconds
        "hang@task:1:1:2",        # too many suffixes
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_task_sites_are_attempt_addressed(self):
        plan = FaultPlan.parse("crash@task:2*2")
        assert plan.task_fault(2, 1) is not None
        assert plan.task_fault(2, 2) is not None
        assert plan.task_fault(2, 3) is None  # escapes on attempt 3
        assert plan.task_fault(1, 1) is None

    def test_corrupt_sites_consume_counters(self):
        plan = FaultPlan.parse("corrupt@key:ab*2")
        assert plan.corrupt_put("abc")
        assert not plan.corrupt_put("zzz")
        assert plan.corrupt_put("abd")
        assert not plan.corrupt_put("abe")  # disarmed after 2 hits

    def test_resolve_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert resolve_fault_plan(None) is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@task:0")
        plan = resolve_fault_plan(None)
        assert plan is not None and plan.sites[0].kind == "crash"
        explicit = FaultPlan.parse("hang@task:1")
        assert resolve_fault_plan(explicit) is explicit
        assert resolve_fault_plan("") is None

    def test_site_spec_roundtrip_defaults(self):
        site = FaultSite("hang", "task", "4", times=3, seconds=0.25)
        assert FaultPlan.parse(site.to_spec()).sites[0] == site


class TestSerialResilience:
    def test_recoverable_crash_retries_in_place(self):
        stats = ExecutionStats()
        out = run_tasks(
            _square, [1, 2, 3], policy=FAST, faults="crash@task:1",
            stats=stats,
        )
        assert out == [1, 4, 9]
        assert stats.crashes == 1 and stats.retries == 1
        assert not stats.failures

    def test_exhausted_retries_raise_typed_error(self):
        with pytest.raises(TaskError) as exc:
            run_tasks(_square, [1, 2], policy=FAST,
                      faults="crash@task:0*99")
        assert exc.value.failure.reason == "crash"
        assert exc.value.failure.attempts == FAST.max_attempts

    def test_exhausted_retries_recorded_in_place(self):
        stats = ExecutionStats()
        out = run_tasks(
            _square, [1, 2, 3], policy=FAST, faults="crash@task:1*99",
            failures="record", stats=stats,
        )
        assert out[0] == 1 and out[2] == 9
        assert isinstance(out[1], TaskFailure)
        assert out[1].index == 1 and out[1].reason == "crash"
        assert stats.failures == [out[1]]

    def test_injected_hang_maps_to_timeout(self):
        out = run_tasks(
            _square, [5], policy=FAST, faults="hang@task:0*99:0.01",
            failures="record",
        )
        assert isinstance(out[0], TaskFailure)
        assert out[0].reason == "timeout"

    def test_task_errors_never_retried(self):
        stats = ExecutionStats()
        out = run_tasks(
            _boom, [1], policy=FAST, failures="record", stats=stats,
        )
        assert isinstance(out[0], TaskFailure)
        assert out[0].reason == "error" and out[0].attempts == 1
        assert stats.retries == 0
        with pytest.raises(RuntimeError):
            run_tasks(_boom, [1], policy=FAST)

    def test_worker_crash_is_typed(self):
        with pytest.raises(TaskError):
            run_tasks(
                _square, [1], policy=RetryPolicy(max_attempts=1),
                faults="crash@task:*",
            )
        assert issubclass(WorkerCrash, Exception)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_tasks(_square, [1], failures="ignore")
        with pytest.raises(ValueError):
            run_tasks(_square, [1, 2], deadlines=[1.0])


@pytest.mark.skipif(
    not pool_available(), reason="process pools unavailable"
)
class TestPoolResilience:
    def test_crash_recovery_matches_serial(self):
        stats = ExecutionStats()
        out = run_tasks(
            _square, list(range(8)), jobs=2, policy=FAST,
            faults="crash@task:3", stats=stats,
        )
        assert out == [x * x for x in range(8)]
        assert stats.crashes >= 1 and stats.respawns >= 1

    def test_hang_blows_deadline_and_recovers(self):
        policy = RetryPolicy(backoff_s=0.001, deadline_s=1.0)
        stats = ExecutionStats()
        out = run_tasks(
            _square, list(range(6)), jobs=2, chunksize=1, policy=policy,
            faults="hang@task:2:30", stats=stats,
        )
        assert out == [x * x for x in range(6)]
        assert stats.timeouts >= 1 and stats.respawns >= 1

    def test_permanent_pool_failure_recorded(self):
        stats = ExecutionStats()
        out = run_tasks(
            _square, list(range(6)), jobs=2, chunksize=1, policy=FAST,
            faults="crash@task:4*99", failures="record", stats=stats,
        )
        assert isinstance(out[4], TaskFailure)
        assert out[4].reason == "crash"
        ok = [r for i, r in enumerate(out) if i != 4]
        assert ok == [x * x for x in range(6) if x != 4]

    @pytest.mark.parametrize("chunksize", [1, 3])
    def test_innocent_tasks_never_charged_for_a_crash(self, chunksize):
        """Looped under load: a repeat crasher and a one-off crasher
        share pools with slow innocent tasks, yet only the repeat
        crasher ever fails, and only after its own attempts run out."""
        want = [x * x for x in range(10)]
        for _ in range(5):
            stats = ExecutionStats()
            out = run_tasks(
                _slow_square, list(range(10)), jobs=2, chunksize=chunksize,
                policy=FAST, faults="crash@task:4*99;crash@task:7",
                failures="record", stats=stats,
            )
            assert [f.index for f in stats.failures] == [4]
            assert out[4].reason == "crash"
            assert out[4].attempts == FAST.max_attempts
            assert out[:4] + out[5:] == want[:4] + want[5:]

    def test_crash_isolates_only_the_submitted_window(self, monkeypatch):
        """A crash early in a long run sends only the chunks that were
        in flight (at most ``2 * jobs``) through one-task isolation; the
        chunks not yet submitted still run ``jobs``-wide."""
        isolated: list[int] = []

        class CountingPool(parallel.ProcessPoolExecutor):
            def submit(self, fn, payload):
                if fn is parallel._run_chunk and self._max_workers == 1:
                    isolated.extend(i for i, _attempt, _task in payload[1])
                return super().submit(fn, payload)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        jobs, chunksize = 2, 2
        stats = ExecutionStats()
        out = run_tasks(
            _slow_square, list(range(40)), jobs=jobs, chunksize=chunksize,
            policy=FAST, faults="crash@task:0", stats=stats,
        )
        assert out == [x * x for x in range(40)]
        assert not stats.failures
        assert 0 in isolated
        assert len(set(isolated)) <= 2 * jobs * chunksize

    def test_per_task_deadlines(self):
        policy = RetryPolicy(backoff_s=0.001)
        stats = ExecutionStats()
        out = run_tasks(
            _square, list(range(4)), jobs=2, chunksize=1, policy=policy,
            faults="hang@task:1:30",
            deadlines=[None, 0.5, None, None], stats=stats,
        )
        assert out == [0, 1, 4, 9]
        assert stats.timeouts >= 1


class TestSweepChaos:
    """Byte-identity of recovered sweep reports, across 3 topologies."""

    def test_recovered_crash_is_byte_identical(self, clean_text):
        stats = ExecutionStats()
        report = run_scenario_sweep(
            **SWEEP, policy=FAST, faults="crash@task:0;crash@task:4",
            stats=stats,
        )
        assert report_json(report) == clean_text
        assert stats.crashes == 2 and report["meta"]["failures"] == []
        assert "fault_stats" not in report["meta"]

    @pytest.mark.skipif(
        not pool_available(), reason="process pools unavailable"
    )
    def test_pooled_crash_and_hang_recovery_byte_identical(
        self, clean_text
    ):
        # The crash sends the in-flight cells (the first 2 * jobs), the
        # hung one included, into isolation, where the hang fires and
        # must blow the deadline: keep it short but far above a cell's
        # runtime.
        report = run_scenario_sweep(
            **SWEEP, jobs=2,
            policy=RetryPolicy(backoff_s=0.001, deadline_s=5.0),
            faults="crash@task:1;hang@task:3:60",
        )
        assert report_json(report) == clean_text

    def test_permanent_failure_degrades_and_is_recorded(self):
        stats = ExecutionStats()
        report = run_scenario_sweep(
            **SWEEP, policy=FAST, faults="crash@task:2*99", stats=stats,
        )
        failures = report["meta"]["failures"]
        assert len(failures) == 1
        assert failures[0]["reason"] == "crash"
        assert failures[0]["attempts"] == FAST.max_attempts
        assert report["meta"]["fault_stats"]["crashes"] == 3
        # The failed cell's scenario lost one record; the rest survive.
        assert sum(s["instances"] for s in report["scenarios"]) == 5
        assert "failed permanently" in sweep_summary(report)

    def test_corrupt_store_row_recomputed_on_resume(
        self, clean_text, tmp_path
    ):
        db = tmp_path / "chaos.sqlite"
        first = run_scenario_sweep(
            **SWEEP, store=db, faults="corrupt@key:*",
        )
        assert report_json(first) == clean_text  # built from live results
        resumed = run_scenario_sweep(**SWEEP, store=db, resume=True)
        assert report_json(resumed) == clean_text
        store = open_store(db)
        try:
            assert len(store.quarantined()) == 1
            assert len(store) == 6  # recomputed cell refiled
            assert store.verify()["corrupt"] == []
        finally:
            store.close()

    def test_combined_fault_plan_end_to_end(self, clean_text, tmp_path):
        """The ISSUE acceptance scenario: worker crash + hang + one
        corrupt store row in a single plan, report byte-identical."""
        db = tmp_path / "combined.sqlite"
        report = run_scenario_sweep(
            **SWEEP, store=db, policy=FAST,
            faults="crash@task:0;hang@task:2:0.01;corrupt@key:*",
        )
        assert report_json(report) == clean_text
        resumed = run_scenario_sweep(**SWEEP, store=db, resume=True)
        assert report_json(resumed) == clean_text


class TestStoreIntegrity:
    def test_checksum_detects_tampering(self, tmp_path):
        db = tmp_path / "s.db"
        store = ResultStore(db)
        store.put("aaa", {"schema": 1, "v": 1})
        store.put("bbb", {"schema": 1, "v": 2})
        store.close()
        conn = sqlite3.connect(db)
        conn.execute(
            "UPDATE results SET payload = substr(payload, 1, 4) "
            "WHERE key = 'bbb'"
        )
        conn.commit()
        conn.close()
        store = ResultStore(db)
        try:
            with pytest.raises(StoreCorruption) as exc:
                store.get("bbb", on_corrupt="raise")
            assert exc.value.key == "bbb"
            # Default: quarantine and read as a miss.
            assert store.get("bbb") is None
            assert store.get("aaa") == {"schema": 1, "v": 1}
            assert [q["key"] for q in store.quarantined()] == ["bbb"]
            assert store.session_quarantined == ["bbb"]
            assert store.stats()["quarantined"] == 1
        finally:
            store.close()

    def test_verify_reports_and_quarantines(self, tmp_path):
        db = tmp_path / "s.db"
        store = ResultStore(db, faults=FaultPlan.parse("corrupt@key:b"))
        store.put("aaa", {"schema": 1})
        store.put("bbb", {"schema": 1})
        audit = store.verify()
        assert audit["checked"] == 2 and audit["ok"] == 1
        assert audit["corrupt"][0]["key"] == "bbb"
        assert audit["quarantined"] == 0  # report-only by default
        audit = store.verify(quarantine=True)
        assert audit["quarantined"] == 1
        assert store.verify() == {
            "location": str(db), "checked": 1, "ok": 1,
            "unchecksummed": 0, "corrupt": [], "quarantined": 0,
        }
        store.close()

    def test_legacy_rows_verify_as_unchecksummed(self, tmp_path):
        db = tmp_path / "legacy.db"
        conn = sqlite3.connect(db)
        conn.execute(
            "CREATE TABLE results (key TEXT PRIMARY KEY, kind TEXT NOT "
            "NULL, schema INTEGER NOT NULL, version TEXT NOT NULL, "
            "created_at REAL NOT NULL, payload TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO results VALUES ('old', 'result', 1, '0', 0, ?)",
            (json.dumps({"schema": 1, "v": 9}),),
        )
        conn.commit()
        conn.close()
        store = ResultStore(db)  # migrates in place
        try:
            assert store.get("old") == {"schema": 1, "v": 9}
            audit = store.verify()
            assert audit["unchecksummed"] == 1 and audit["ok"] == 1
            store.put("new", {"schema": 1})
            assert store.verify()["unchecksummed"] == 1
        finally:
            store.close()

    def test_close_is_idempotent_and_guards_use(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        store.put("k", {"schema": 1})
        store.close()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.get("k")

    def test_rows_raise_typed_corruption(self):
        store = open_store(None, faults=FaultPlan.parse("corrupt@key:*"))
        store.put("k", {"schema": 1})
        with pytest.raises(StoreCorruption):
            list(store.rows())
        # Metadata-only iteration never touches payloads.
        assert [r["key"] for r in store.rows(with_payload=False)] == ["k"]


class TestServiceResilience:
    REQS = [
        BatchRequest(solver="greedy", app="random-8", size="2x2", seed=1),
        BatchRequest(solver="greedy", app="random-8", size="2x2", seed=2),
    ]

    def test_recovered_batch_matches_clean(self):
        clean = serve_batch(self.REQS, policy=FAST)
        stats = ExecutionStats()
        recovered = serve_batch(
            self.REQS, policy=FAST, faults="crash@task:0", stats=stats,
        )
        assert recovered == clean
        assert stats.crashes == 1
        assert clean["meta"]["errors"] == 0
        assert all(r["error"] is None for r in clean["responses"])

    def test_error_response_degrades_not_aborts(self):
        report = serve_batch(
            self.REQS, policy=FAST, faults="crash@task:1*99",
        )
        assert report["meta"]["errors"] == 1
        ok, bad = report["responses"]
        assert ok["ok"] and ok["error"] is None
        assert not bad["ok"] and bad["error"]["reason"] == "crash"
        assert bad["error"]["attempts"] == FAST.max_attempts
        from repro.store import serve_summary

        assert "ERROR" in serve_summary(report)

    def test_errored_requests_not_cached(self):
        from repro.store import ResultStore

        store = ResultStore()
        serve_batch(
            self.REQS, store=store, policy=FAST,
            faults="crash@task:1*99",
        )
        assert len(store) == 1
        retry = serve_batch(self.REQS, store=store, policy=FAST)
        assert retry["meta"] == {
            **retry["meta"], "hits": 1, "misses": 1, "errors": 0,
        }
        assert retry["responses"][1]["ok"]
        assert len(store) == 2

    def test_deadline_field_roundtrips_but_not_fingerprinted(self):
        base = BatchRequest(seed=5)
        timed = BatchRequest(seed=5, deadline_s=1.0)
        assert BatchRequest.from_payload(timed.to_payload()) == timed
        from repro.store.fingerprint import request_fingerprint

        def key(req):
            return request_fingerprint(
                req.build_app(), req.build_platform(), req.solver,
                req.options or None, req.seed, req.period,
            )

        assert key(base) == key(timed)

    def test_unknown_fields_still_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            BatchRequest.from_payload({"deadline": 3})


class TestCLIResilience:
    """The operator-facing surface: sweep/serve/store verify flags."""

    SWEEP_ARGS = [
        "sweep", "--topologies", "mesh", "--sizes", "2x2", "--ccr", "10",
        "--apps", "random-8", "--replicates", "2", "--seed", "7",
    ]

    def _main(self, argv):
        import io

        from repro.cli import main

        buf = io.StringIO()
        code = main(argv, out=buf)
        return code, buf.getvalue()

    def test_sweep_fault_plan_recovers_to_same_report(self, tmp_path):
        clean, chaos = tmp_path / "clean.json", tmp_path / "chaos.json"
        code, _ = self._main(self.SWEEP_ARGS + ["--out", str(clean)])
        assert code == 0
        code, _ = self._main(
            self.SWEEP_ARGS
            + ["--out", str(chaos), "--fault-plan", "crash@task:0"]
        )
        assert code == 0
        assert clean.read_bytes() == chaos.read_bytes()

    def test_sweep_degrades_by_default_strict_exits_nonzero(self):
        plan = ["--fault-plan", "crash@task:0*99"]
        code, text = self._main(self.SWEEP_ARGS + plan)
        assert code == 0 and "failed permanently" in text
        code, text = self._main(self.SWEEP_ARGS + plan + ["--strict"])
        assert code == 1 and "strict mode" in text

    def test_sweep_rejects_bad_fault_plan_and_retries(self):
        code, text = self._main(
            self.SWEEP_ARGS + ["--fault-plan", "explode@task:1"]
        )
        assert code == 2 and "unknown fault kind" in text
        code, text = self._main(self.SWEEP_ARGS + ["--retries", "0"])
        assert code == 2 and "max_attempts" in text

    def test_store_verify_cli(self, tmp_path):
        db = tmp_path / "v.sqlite"
        code, _ = self._main(
            self.SWEEP_ARGS
            + ["--store", str(db), "--fault-plan", "corrupt@key:*"]
        )
        assert code == 0
        code, text = self._main(["store", "verify", "--store", str(db)])
        assert code == 1  # corruption found, report-only
        assert json.loads(text)["corrupt"]
        code, text = self._main(
            ["store", "verify", "--store", str(db), "--quarantine"]
        )
        assert code == 1 and json.loads(text)["quarantined"] == 1
        code, text = self._main(["store", "verify", "--store", str(db)])
        assert code == 0 and json.loads(text)["corrupt"] == []
        code, text = self._main(["store", "stats", "--store", str(db)])
        assert code == 0 and json.loads(text)["quarantined"] == 1

    def test_serve_error_responses(self, tmp_path):
        reqs = tmp_path / "requests.json"
        reqs.write_text(json.dumps([
            {"solver": "greedy", "app": "random-8", "size": "2x2",
             "seed": 1},
            {"solver": "greedy", "app": "random-8", "size": "2x2",
             "seed": 2, "deadline_s": 60.0},
        ]))
        out = tmp_path / "responses.json"
        code, text = self._main([
            "serve", "--batch", str(reqs), "--out", str(out),
            "--fault-plan", "crash@task:0*99",
        ])
        assert code == 0 and "ERROR" in text and "1 errors" in text
        doc = json.loads(out.read_text())
        assert doc["meta"]["errors"] == 1
        assert doc["responses"][0]["error"]["reason"] == "crash"
        assert doc["responses"][1]["ok"]


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "r.json"
        atomic_write_text(path, "one\n")
        assert path.read_text() == "one\n"
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"
        assert os.listdir(tmp_path) == ["r.json"]  # no temp debris

    def test_failure_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "r.json"
        atomic_write_text(path, "original\n")
        monkeypatch.setattr(
            os, "replace",
            lambda *a, **kw: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            atomic_write_text(path, "halfway\n")
        monkeypatch.undo()
        assert path.read_text() == "original\n"
        assert os.listdir(tmp_path) == ["r.json"]

    def test_write_report_is_atomic_and_canonical(self, tmp_path):
        from repro.experiments import write_report

        path = tmp_path / "report.json"
        report = {"meta": {}, "scenarios": []}
        write_report(path, report)
        assert path.read_text() == report_json(report)
        assert path.read_text().endswith("\n")
        assert os.listdir(tmp_path) == ["report.json"]
