"""Resumable and sharded sweeps through the result store.

The acceptance contract: a sweep interrupted at any cell boundary and
resumed from the store — or partitioned into shards filling one shared
store — produces a consolidated report **bit-identical** (byte-equal
canonical JSON) to a cold single-process run, for any ``jobs`` value.
"""

from __future__ import annotations

import pytest

import repro.experiments.scenarios as scenarios_mod
from repro.experiments import (
    parse_shard,
    report_json,
    run_scenario_sweep,
)
from repro.store import ResultStore, open_store

#: A small but heterogeneous grid: 3 topologies x 2 replicates = 6 cells.
SWEEP = dict(
    topologies=("mesh", "torus", "hetmesh"),
    sizes=("2x2",),
    ccrs=(1.0,),
    apps=("random-10",),
    replicates=2,
    seed=3,
)


@pytest.fixture(scope="module")
def cold_text() -> str:
    return report_json(run_scenario_sweep(**SWEEP))


class TestParseShard:
    def test_parse(self):
        assert parse_shard(None) is None
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        assert parse_shard((1, 2)) == (1, 2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_shard("2")
        with pytest.raises(ValueError):
            parse_shard("2/2")  # 0-based: i must be < N
        with pytest.raises(ValueError):
            parse_shard("-1/2")
        with pytest.raises(ValueError):
            parse_shard("0/0")


class TestResume:
    def test_resume_requires_store(self):
        with pytest.raises(ValueError):
            run_scenario_sweep(**SWEEP, resume=True)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            run_scenario_sweep(**SWEEP, limit=-1)

    @pytest.mark.parametrize("cut", [1, 3, 5])
    def test_interrupt_any_boundary_then_resume(self, cut, cold_text):
        store = ResultStore()
        partial = run_scenario_sweep(**SWEEP, store=store, limit=cut)
        assert partial["meta"]["processed_instances"] == cut
        assert partial["meta"]["limit"] == cut
        assert len(store) == cut
        full = run_scenario_sweep(**SWEEP, store=store, resume=True)
        assert report_json(full) == cold_text

    def test_resume_with_jobs_bit_identical(self, cold_text):
        store = ResultStore()
        run_scenario_sweep(**SWEEP, store=store, limit=2, checkpoint=1)
        full = run_scenario_sweep(**SWEEP, store=store, resume=True, jobs=2)
        assert report_json(full) == cold_text

    def test_full_resume_computes_nothing(self, monkeypatch, cold_text):
        store = ResultStore()
        run_scenario_sweep(**SWEEP, store=store)
        assert len(store) == 6

        def no_compute(fn, tasks, jobs=1, **kw):
            assert not list(tasks), "resume recomputed stored cells"
            return []

        monkeypatch.setattr(scenarios_mod, "run_tasks", no_compute)
        full = run_scenario_sweep(**SWEEP, store=store, resume=True)
        assert report_json(full) == cold_text

    def test_store_without_resume_recomputes(self, monkeypatch):
        store = ResultStore()
        run_scenario_sweep(**SWEEP, store=store, limit=2)
        calls = []
        real = scenarios_mod.run_tasks

        def counting(fn, tasks, jobs=1, **kw):
            tasks = list(tasks)
            calls.append(len(tasks))
            return real(fn, tasks, jobs=jobs, **kw)

        monkeypatch.setattr(scenarios_mod, "run_tasks", counting)
        run_scenario_sweep(**SWEEP, store=store, limit=2)
        assert sum(calls) == 2  # refresh semantics: hits are not consulted

    def test_cell_payloads_are_kind_tagged(self):
        store = ResultStore()
        run_scenario_sweep(**SWEEP, store=store, limit=1)
        assert store.stats()["by_kind"] == {"sweep-cell": 1}


class TestShards:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_shard_partition_covers_grid_once(self, n_shards, cold_text):
        store = ResultStore()
        seen = 0
        for i in range(n_shards):
            part = run_scenario_sweep(
                **SWEEP, store=store, shard=f"{i}/{n_shards}"
            )
            assert part["meta"]["shard"] == f"{i}/{n_shards}"
            seen += part["meta"]["processed_instances"]
        assert seen == 6
        assert len(store) == 6
        merged = run_scenario_sweep(**SWEEP, store=store, resume=True)
        assert report_json(merged) == cold_text

    def test_shards_into_shared_sqlite_file(self, tmp_path, cold_text):
        # The multi-invocation story: independent runs (as separate
        # store connections) fill one SQLite file, then a resume pass
        # merges it.
        path = tmp_path / "shards.sqlite"
        for i in range(2):
            store = ResultStore(path)
            run_scenario_sweep(**SWEEP, store=store, shard=f"{i}/2", jobs=1)
            store.close()
        merge_store = open_store(path)
        merged = run_scenario_sweep(
            **SWEEP, store=merge_store, resume=True, jobs=2
        )
        merge_store.close()
        assert report_json(merged) == cold_text

    def test_shard_reports_are_disjoint(self):
        a = run_scenario_sweep(**SWEEP, shard="0/2")
        b = run_scenario_sweep(**SWEEP, shard="1/2")
        labels = lambda rep: {
            r["label"] for sc in rep["scenarios"] for r in sc["records"]
        }
        assert labels(a) & labels(b) == set()
        assert len(labels(a) | labels(b)) == 6

    def test_checkpointed_shard(self, cold_text):
        store = ResultStore()
        run_scenario_sweep(**SWEEP, store=store, shard="0/2", checkpoint=1)
        run_scenario_sweep(**SWEEP, store=store, shard="1/2", checkpoint=2)
        merged = run_scenario_sweep(**SWEEP, store=store, resume=True)
        assert report_json(merged) == cold_text
