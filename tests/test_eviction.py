"""Tests for the pluggable store-eviction subsystem.

Covers the policy table, per-policy victim ordering (LRU vs FIFO vs
RRIP), row/byte cap enforcement on the put path, the injectable clock,
the store accounting fixes riding along (gc ``drop_all`` quarantine
purge, SQLite aggregate stats), stores whose counters hold state of
policies no longer offered, and the cache-correctness contract: an
evicted (bounded) sweep resumes to a report byte-identical to a cold
unbounded run.
"""

from __future__ import annotations

import pytest

from repro.experiments import report_json, run_scenario_sweep
from repro.resilience import FaultPlan
from repro.store import (
    EVICTION_POLICIES,
    EvictionConfig,
    LogicalClock,
    ResultStore,
    eviction_policy,
    eviction_policy_names,
)
from repro.store.eviction import RRPV_LONG
from repro.store.serialize import PAYLOAD_SCHEMA_VERSION


def payload(i: int, pad: int = 0) -> dict:
    return {
        "schema": PAYLOAD_SCHEMA_VERSION,
        "value": i,
        "pad": "x" * pad,
    }


def open_param(param: str, tmp_path, **kw) -> ResultStore:
    """The ``memory``/``sqlite`` fixture params: one store class, in
    memory or in a file."""
    if param == "memory":
        return ResultStore(**kw)
    return ResultStore(tmp_path / "evict.sqlite", **kw)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    s = open_param(request.param, tmp_path, clock=LogicalClock())
    yield s
    s.close()


class TestRegistry:
    def test_builtin_policies_registered(self):
        assert eviction_policy_names() == ["fifo", "lru", "rrip"]
        assert sorted(EVICTION_POLICIES) == ["fifo", "lru", "rrip"]

    def test_table_holds_insertion_rrpvs(self):
        assert eviction_policy("lru").insert_rrpv == 0
        assert eviction_policy("fifo").insert_rrpv == 0
        assert eviction_policy("rrip").insert_rrpv == RRPV_LONG

    def test_unknown_name_lists_registered(self):
        with pytest.raises(
            KeyError, match="unknown eviction policy 'drrip'; "
                            "registered: fifo, lru, rrip"
        ):
            eviction_policy("drrip")


class TestEvictionConfig:
    def test_requires_a_cap(self):
        with pytest.raises(ValueError, match="max_rows and/or max_bytes"):
            EvictionConfig(policy="lru")

    def test_rejects_negative_caps(self):
        with pytest.raises(ValueError):
            EvictionConfig(max_rows=-1)
        with pytest.raises(ValueError):
            EvictionConfig(max_bytes=-1)

    def test_fails_fast_on_unknown_policy(self):
        with pytest.raises(KeyError):
            EvictionConfig(policy="nope", max_rows=1)

    def test_from_spec_coercions(self):
        cfg = EvictionConfig(max_rows=5)
        assert EvictionConfig.from_spec(None) is None
        assert EvictionConfig.from_spec(cfg) is cfg
        built = EvictionConfig.from_spec(
            {"policy": "fifo", "max_rows": 2, "max_bytes": None}
        )
        assert built == EvictionConfig(policy="fifo", max_rows=2)


class TestOrdering:
    def test_lru_evicts_least_recently_used(self, store):
        for i in range(4):
            store.put(f"k{i}", payload(i))
        store.get("k0")  # k0 becomes most recently used
        store.get("k1")
        out = store.evict(policy="lru", max_rows=2)
        assert out["evicted"] == 2
        assert sorted(store.keys()) == ["k0", "k1"]

    def test_lru_falls_back_to_created_at(self, store):
        for i in range(3):
            store.put(f"k{i}", payload(i))  # never read back
        store.evict(policy="lru", max_rows=1)
        assert store.keys() == ["k2"]

    def test_fifo_ignores_hits(self, store):
        for i in range(3):
            store.put(f"k{i}", payload(i))
        store.get("k0")  # a hit must not save the oldest row
        store.evict(policy="fifo", max_rows=2)
        assert sorted(store.keys()) == ["k1", "k2"]

    def test_rrip_hit_promotion_beats_recency(self, store):
        # Under a configured RRIP, fresh rows insert at a long
        # re-reference prediction; a hit promotes to MRU (rrpv 0).  The
        # promoted row survives even though *younger* rows exist — this
        # is where RRIP and LRU-by-creation disagree.
        store.configure_eviction("rrip", max_rows=10)
        for i in range(4):
            store.put(f"k{i}", payload(i))
        store.get("k0")
        out = store.evict(policy="rrip", max_rows=1)
        assert out["evicted"] == 3
        assert store.keys() == ["k0"]

    def test_rrip_insertion_prediction(self, store):
        store.configure_eviction("rrip", max_rows=10)
        store.put("k", payload(0))
        row = next(store._eviction_rows())
        assert row["rrpv"] == RRPV_LONG
        store.get("k")
        row = next(store._eviction_rows())
        assert row["rrpv"] == 0

    def test_recency_policies_insert_at_mru(self, store):
        for i, name in enumerate(("lru", "fifo")):
            store.configure_eviction(name, max_rows=10)
            store.put(f"k{i}", payload(i))
        store.configure_eviction("rrip", max_rows=10)
        store.put("k2", payload(2))
        rrpvs = [r["rrpv"] for r in store._eviction_rows()]
        assert rrpvs == [0, 0, RRPV_LONG]

    def test_policy_order_is_deterministic_on_ties(self, store):
        for i in range(5):
            store.put(f"k{i}", payload(i))
        rows = list(store._eviction_rows())
        for row in rows:  # force a total tie on recency
            row["created_at"] = 1.0
            row["last_hit_at"] = None
        order = sorted(rows, key=eviction_policy("lru").sort_key)
        assert [r["key"] for r in order] == sorted(
            r["key"] for r in rows
        )


class TestCapsOnPut:
    def test_max_rows_enforced_on_put(self, store):
        store.configure_eviction("lru", max_rows=3)
        for i in range(10):
            store.put(f"k{i}", payload(i))
            assert len(store) <= 3
        assert len(store) == 3

    def test_max_bytes_enforced_on_put(self, store):
        one = len(
            __import__("json").dumps(payload(0, pad=50), sort_keys=True)
        )
        store.configure_eviction("lru", max_bytes=3 * one)
        for i in range(10):
            store.put(f"k{i}", payload(i, pad=50))
            assert store.total_bytes() <= 3 * one
        assert len(store) == 3

    def test_put_protects_the_just_written_row(self, store):
        # Under RRIP the fresh row carries the worst prediction of the
        # live rows once the previous one was hit; cap enforcement must
        # still never evict it.
        store.configure_eviction("rrip", max_rows=1)
        for i in range(1, 6):
            store.put(f"k{i}", payload(i))
            assert store.keys() == [f"k{i}"]
            store.get(f"k{i}")

    def test_under_cap_puts_do_not_evict(self, store):
        store.configure_eviction("lru", max_rows=100)
        for i in range(5):
            store.put(f"k{i}", payload(i))
        assert store.eviction_stats()["total"] == 0

    def test_detach_restores_unbounded(self, store):
        store.configure_eviction("lru", max_rows=2)
        for i in range(5):
            store.put(f"k{i}", payload(i))
        assert len(store) == 2
        store.configure_eviction(None)
        for i in range(5, 10):
            store.put(f"k{i}", payload(i))
        assert len(store) == 7

    def test_eviction_counters_per_policy(self, store):
        store.configure_eviction("fifo", max_rows=1)
        for i in range(4):
            store.put(f"k{i}", payload(i))
        store.evict(policy="lru", max_rows=0)
        ev = store.eviction_stats()
        assert ev == {"evicted": {"fifo": 3, "lru": 1}, "total": 4}
        assert store.stats()["eviction"] == ev

    def test_explicit_evict_requires_a_cap(self, store):
        with pytest.raises(ValueError):
            store.evict(policy="lru")


class TestClockAndAccounting:
    def test_logical_clock_is_monotone(self):
        clk = LogicalClock()
        assert [clk(), clk(), clk()] == [1.0, 2.0, 3.0]
        clk = LogicalClock(start=10.0, step=0.5)
        assert clk() == 10.5

    def test_injected_clock_orders_recency(self, store):
        store.put("a", payload(0))
        store.put("b", payload(1))
        store.get("a")  # hit at a later tick than b's creation
        rows = {r["key"]: r for r in store._eviction_rows()}
        assert rows["a"]["last_hit_at"] > rows["b"]["created_at"]
        assert rows["b"]["last_hit_at"] is None

    @pytest.mark.parametrize("param", ["memory", "sqlite"])
    def test_gc_drop_all_purges_quarantine(self, param, tmp_path):
        # The fault plan tears "bad" below the checksum at put time;
        # reading it back quarantines it.
        store = open_param(
            param, tmp_path, faults=FaultPlan.parse("corrupt@key:bad")
        )
        store.put("good", payload(1))
        store.put("bad", payload(2))
        assert store.get("bad") is None
        assert [q["key"] for q in store.quarantined()] == ["bad"]
        removed = store.gc(drop_all=True)
        assert removed == 2  # 1 live row + 1 quarantined row
        assert len(store) == 0
        assert store.quarantined() == []
        store.close()

    def test_gc_default_leaves_quarantine(self, store):
        store.put("bad", payload(2))
        store.quarantine("bad", "testing")
        assert store.gc() == 0
        assert [q["key"] for q in store.quarantined()] == ["bad"]

    @staticmethod
    def scan_aggregates(store):
        """Oracle for ``_count_aggregates``: ``(total, by_kind,
        by_schema, stale)`` from a walk over the row metadata."""
        by_kind: dict[str, int] = {}
        by_schema: dict[str, int] = {}
        stale = 0
        total = 0
        for row in store.rows(with_payload=False):
            total += 1
            by_kind[row["kind"]] = by_kind.get(row["kind"], 0) + 1
            s = str(row["schema"])
            by_schema[s] = by_schema.get(s, 0) + 1
            if row["schema"] != PAYLOAD_SCHEMA_VERSION:
                stale += 1
        return total, by_kind, by_schema, stale

    def test_sqlite_aggregate_stats_match_generic_scan(self, tmp_path):
        s = ResultStore(tmp_path / "agg.sqlite", clock=LogicalClock())
        s.put("a", payload(1), kind="sweep-cell")
        s.put("b", payload(2), kind="solve")
        s.put("c", {"schema": PAYLOAD_SCHEMA_VERSION - 1, "old": True},
              kind="solve")
        assert s._count_aggregates() == self.scan_aggregates(s)
        st = s.stats()
        assert st["entries"] == 3
        assert st["by_kind"] == {"solve": 2, "sweep-cell": 1}
        assert st["stale"] == 1
        assert st["bytes"] == s.total_bytes() > 0
        s.close()

    def test_memory_len_is_cheap_and_correct(self):
        s = ResultStore()
        for i in range(7):
            s.put(f"k{i}", payload(i))
        assert len(s) == 7

    def test_open_store_threads_the_clock(self, tmp_path):
        from repro.store import open_store

        clk = LogicalClock()
        s = open_store(str(tmp_path / "clk.sqlite"), clock=clk)
        s.put("k", payload(0))
        row = next(s._eviction_rows())
        assert row["created_at"] == 1.0
        s.close()

    def test_legacy_sqlite_store_gains_rrpv_column(self, tmp_path):
        import sqlite3

        db = tmp_path / "legacy.sqlite"
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, kind TEXT "
                "NOT NULL, schema INTEGER NOT NULL, version TEXT NOT "
                "NULL, created_at REAL NOT NULL, payload TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT INTO results VALUES ('old', 'result', ?, "
                "'0.0', 1.0, '{\"schema\": 1}')",
                (PAYLOAD_SCHEMA_VERSION,),
            )
        conn.close()
        s = ResultStore(db)
        row = next(s._eviction_rows())
        assert row["rrpv"] == 0  # legacy rows read as MRU
        out = s.evict(policy="rrip", max_rows=0)
        assert out["evicted"] == 1
        s.close()

    def test_store_with_dropped_policy_counters_opens(self, tmp_path):
        # Stores written while brrip/drrip existed hold their state in
        # access_stats: the set-dueling selector, the bimodal insertion
        # counter and the drrip victim count.  They still open, report
        # the old victims, and evict under a current policy.
        db = tmp_path / "old-policies.sqlite"
        s = ResultStore(db, clock=LogicalClock())
        for i in range(3):
            s.put(f"k{i}", payload(i))
        with s._db() as conn:
            conn.executemany(
                "INSERT INTO access_stats (name, value) VALUES (?, ?)",
                [("psel", 600), ("bip_counter", 7), ("evicted:drrip", 5)],
            )
        s.close()
        s = ResultStore(db, clock=LogicalClock(start=10.0))
        assert s.stats()["eviction"] == {
            "evicted": {"drrip": 5}, "total": 5,
        }
        out = s.evict(policy="rrip", max_rows=1)
        assert out["evicted"] == 2 and len(s) == 1
        assert s.eviction_stats() == {
            "evicted": {"drrip": 5, "rrip": 2}, "total": 7,
        }
        s.close()

    def test_open_store_none_is_private_memory(self):
        from repro.store import open_store

        s = open_store(None)
        assert s.location == ":memory:"
        s.put("k", payload(0))
        s.close()
        s = open_store(None)
        assert len(s) == 0 and s.get("k") is None
        s.close()


class TestBoundedSweepByteIdentity:
    SWEEP = dict(
        topologies=("mesh",),
        sizes=("2x2",),
        ccrs=(10.0,),
        apps=("random-8",),
        replicates=2,
        seed=5,
    )

    def test_evict_then_resume_matches_cold(self, tmp_path):
        cold = report_json(run_scenario_sweep(**self.SWEEP))

        db = str(tmp_path / "bounded.sqlite")
        bounded = run_scenario_sweep(
            **self.SWEEP,
            store=db,
            eviction={"policy": "rrip", "max_rows": 1},
        )
        assert report_json(bounded) == cold

        s = ResultStore(db)
        assert len(s) <= 1  # the cap held
        assert s.eviction_stats()["total"] >= 1
        s.evict(policy="lru", max_rows=0)  # drain it completely
        assert len(s) == 0
        s.close()

        resumed = run_scenario_sweep(**self.SWEEP, store=db, resume=True)
        assert report_json(resumed) == cold

    def test_bounded_service_matches_unbounded(self, tmp_path):
        from repro.store import load_requests, serve_batch

        reqs = load_requests([
            {"app": "random-6", "topology": "mesh", "size": "2x2",
             "solver": "greedy", "seed": 3, "ccr": 10.0},
            {"app": "random-6", "topology": "mesh", "size": "2x2",
             "solver": "dpa2d1d", "seed": 3, "ccr": 10.0},
        ])

        def answers(report):
            # The solver answers must be identical; the cached flags and
            # the meta hit/miss/location bookkeeping legitimately differ
            # between a store-less and a bounded run.
            return [
                {k: v for k, v in entry.items() if k != "cached"}
                for entry in report["responses"]
            ]

        free = serve_batch(reqs, store=None, jobs=1)
        db = str(tmp_path / "svc.sqlite")
        bounded = serve_batch(
            reqs,
            store=db,
            jobs=1,
            eviction={"policy": "lru", "max_rows": 1},
        )
        assert report_json({"responses": answers(bounded)}) == \
            report_json({"responses": answers(free)})
        s = ResultStore(db)
        assert len(s) <= 1
        s.close()
