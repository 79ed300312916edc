"""Sweep cells that share a StreamIt graph run as one task.

``run_scenario_sweep`` builds each StreamIt (app, CCR) graph once per
call, and the selected cells mapping it run as one
:func:`~repro.experiments.scenarios.sweep_group_task`, so a worker
builds the graph's ideal lattice once for every topology.  Everything a
caller sees stays per cell: the report equals an oracle that runs each
cell alone on a fresh copy of its graph, at any ``jobs``, and failures,
progress ticks and resumption keep cell granularity.  When a batch
holds fewer graphs than workers, a graph's cells are dealt into
sub-groups so every worker still gets a task.
"""

from __future__ import annotations

import io
import json
import pickle

import pytest

import repro.experiments.scenarios as scenarios_mod
import repro.spg.streamit as streamit_mod
from repro.cli import main
from repro.experiments import report_json, run_scenario_sweep
from repro.experiments.parallel import pool_available, random_panel_task
from repro.obs.progress import SweepProgress
from repro.obs.session import observability
from repro.platform.topology import get_topology
from repro.resilience import ExecutionStats, RetryPolicy
from repro.store import ResultStore

TOPOLOGIES = ("mesh", "torus", "ring", "hetmesh")
#: 4 topologies x 2 CCRs x 2 apps = 16 cells on 4 distinct graphs.
GRID = dict(
    topologies=TOPOLOGIES,
    sizes=("2x2",),
    ccrs=(10.0, 1.0),
    apps=("DCT", "FMRadio"),
    replicates=1,
    seed=5,
)
CELLS, GRAPHS = 16, 4
real_streamit_workflow = streamit_mod.streamit_workflow
FAST = RetryPolicy(backoff_s=0.001, max_backoff_s=0.002)


def needs_pool():
    if not pool_available():  # pragma: no cover - sandboxed CI
        pytest.skip("process pools unavailable in this environment")


def cells_alone(cells):
    """The oracle: every cell through ``random_panel_task`` on its own
    unpickled copy of the graph, so no cache is shared between cells."""
    return [
        random_panel_task((pickle.loads(pickle.dumps(spg)), *rest))
        for spg, *rest in cells
    ]


def record_groups(monkeypatch) -> list[list[tuple]]:
    """Record the tasks of every ``run_tasks`` call, checking that each
    task's cells share one graph object."""
    calls: list[list[tuple]] = []
    real = scenarios_mod.run_tasks

    def recording(fn, tasks, **kw):
        tasks = list(tasks)
        for group in tasks:
            assert len({id(cell[0]) for cell in group}) == 1
        calls.append(tasks)
        return real(fn, tasks, **kw)

    monkeypatch.setattr(scenarios_mod, "run_tasks", recording)
    return calls


def sizes(calls) -> list[list[int]]:
    return [[len(group) for group in tasks] for tasks in calls]


@pytest.fixture(scope="module")
def cold_text() -> str:
    return report_json(run_scenario_sweep(**GRID))


class TestGroupedSweep:
    def test_equals_each_cell_run_alone(self, cold_text, monkeypatch):
        monkeypatch.setattr(scenarios_mod, "sweep_group_task", cells_alone)
        assert report_json(run_scenario_sweep(**GRID)) == cold_text

    def test_byte_identical_at_jobs_2(self, cold_text):
        needs_pool()
        assert report_json(run_scenario_sweep(**GRID, jobs=2)) == cold_text

    def test_one_task_per_graph(self, monkeypatch):
        calls = record_groups(monkeypatch)
        run_scenario_sweep(**GRID)
        assert sizes(calls) == [[len(TOPOLOGIES)] * GRAPHS]
        # Groups come in order of their first cell: (ccr, app) in turn.
        keys = [(c, a) for c in GRID["ccrs"] for a in GRID["apps"]]
        for group, (ccr, app) in zip(calls[0], keys):
            fresh = real_streamit_workflow(app, ccr=ccr, seed=GRID["seed"])
            spg = group[0][0]
            assert spg.weights == fresh.weights
            assert list(spg.edges.items()) == list(fresh.edges.items())
            assert [cell[1] for cell in group] == [
                get_topology(t, 2, 2) for t in TOPOLOGIES
            ]

    def test_one_build_per_graph(self, monkeypatch, tmp_path):
        # ScenarioSpec.build_app imports streamit_workflow at call time.
        builds = []

        def counting(*args, **kw):
            builds.append(args)
            return real_streamit_workflow(*args, **kw)

        monkeypatch.setattr(streamit_mod, "streamit_workflow", counting)
        db = tmp_path / "cells.sqlite"
        run_scenario_sweep(**GRID, store=db)
        run_scenario_sweep(**GRID, store=db, resume=True)
        assert len(builds) == 2 * GRAPHS

    def test_few_graphs_split_over_workers(self, monkeypatch):
        needs_pool()
        grid = dict(GRID, ccrs=(10.0,), apps=("DCT",))
        cold = report_json(run_scenario_sweep(**grid))
        calls = record_groups(monkeypatch)
        with observability(metrics=True) as session:
            split = run_scenario_sweep(**grid, jobs=2)
        assert sizes(calls) == [[2, 2]]
        assert [[c[1] for c in g] for g in calls[0]] == [
            [get_topology(t, 2, 2) for t in names]
            for names in (("mesh", "ring"), ("torus", "hetmesh"))
        ]
        assert session.metrics.counters["kernel.lattice_misses"] == 2
        assert report_json(split) == cold

    # GRID has as many graphs as workers, so no graph is split.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_lattice_per_graph(self, jobs):
        if jobs > 1:
            needs_pool()
        with observability(metrics=True) as session:
            run_scenario_sweep(**GRID, jobs=jobs)
        counters = session.metrics.counters
        assert counters["kernel.lattice_misses"] == GRAPHS
        assert counters["kernel.lattice_hits"] > 0

    def test_random_apps_keep_one_cell_per_task(self, monkeypatch):
        calls = record_groups(monkeypatch)
        run_scenario_sweep(
            topologies=("mesh", "ring"), sizes=("2x2",), ccrs=(10.0,),
            apps=("random-8",), replicates=2, seed=1,
        )
        assert sizes(calls) == [[1, 1, 1, 1]]


class TestPerCellContracts:
    def test_crashed_group_fails_each_member(self, cold_text):
        stats = ExecutionStats()
        report = run_scenario_sweep(
            **GRID, policy=FAST, faults="crash@task:0*99", stats=stats
        )
        failures = report["meta"]["failures"]
        assert [f["label"] for f in failures] == [
            f"{t}/2x2/ccr=10/DCT/rep0" for t in TOPOLOGIES
        ]
        assert {(f["reason"], f["attempts"]) for f in failures} == {
            ("crash", FAST.max_attempts)
        }
        # The DCT/ccr=10 cells come first in each topology's block of 4.
        assert [tf.index for tf in stats.failures] == [0, 4, 8, 12]
        cold = json.loads(cold_text)
        for got, want in zip(report["scenarios"], cold["scenarios"]):
            if (got["app"], got["ccr"]) == ("DCT", 10.0):
                assert got["instances"] == 0 and got["records"] == []
            else:
                assert got == want

    def test_permanent_failures_count_cells(self, tmp_path):
        stats, out = tmp_path / "stats.json", tmp_path / "r.json"
        code = main([
            "sweep", "--topologies", "mesh", "ring", "--sizes", "2x2",
            "--ccr", "10", "--apps", "DCT", "--replicates", "1",
            "--retries", "1", "--fault-plan", "crash@task:0*99",
            "--out", str(out), "--stats-json", str(stats),
        ], out=io.StringIO())
        assert code == 0
        failures = json.loads(out.read_text())["meta"]["failures"]
        doc = json.loads(stats.read_text())
        assert doc["execution"]["permanent_failures"] == len(failures) == 2

    def test_failing_cell_spares_its_siblings(
        self, cold_text, monkeypatch, tmp_path
    ):
        real = scenarios_mod.choose_period

        def fails_on_hetmesh(spg, platform, *args, **kw):
            if platform.heterogeneous:
                raise RuntimeError("solver bug")
            return real(spg, platform, *args, **kw)

        monkeypatch.setattr(scenarios_mod, "choose_period", fails_on_hetmesh)
        stats = ExecutionStats()
        db = tmp_path / "cells.sqlite"
        report = run_scenario_sweep(**GRID, store=db, stats=stats)
        failures = report["meta"]["failures"]
        assert [f["label"] for f in failures] == [
            f"hetmesh/2x2/ccr={c:g}/{a}/rep0"
            for c in GRID["ccrs"] for a in GRID["apps"]
        ]
        assert {(f["reason"], f["message"], f["attempts"]) for f in failures} \
            == {("error", "RuntimeError: solver bug", 1)}
        assert [tf.index for tf in stats.failures] == [12, 13, 14, 15]
        cold = json.loads(cold_text)
        for got, want in zip(report["scenarios"], cold["scenarios"]):
            if not got["heterogeneous"]:
                assert got == want
        # The siblings were stored: a resume recomputes only hetmesh.
        monkeypatch.setattr(scenarios_mod, "choose_period", real)
        tracker = SweepProgress(stream=io.StringIO(), use_thread=False)
        resumed = run_scenario_sweep(
            **GRID, store=db, resume=True, progress=tracker
        )
        assert tracker.resumed == CELLS - GRAPHS
        assert report_json(resumed) == cold_text

    def test_progress_ticks_once_per_cell(self, tmp_path):
        tracker = SweepProgress(stream=io.StringIO(), use_thread=False)
        db = tmp_path / "cells.sqlite"
        run_scenario_sweep(
            **GRID, store=db, policy=FAST, faults="crash@task:1*99",
            progress=tracker,
        )
        assert (tracker.done, tracker.failed) == (CELLS, len(TOPOLOGIES))
        tracker = SweepProgress(stream=io.StringIO(), use_thread=False)
        run_scenario_sweep(**GRID, store=db, resume=True, progress=tracker)
        assert (tracker.done, tracker.resumed, tracker.failed) == (
            CELLS, CELLS - len(TOPOLOGIES), 0
        )

    def test_deadline_stays_per_cell(self, monkeypatch):
        seen = []
        real = scenarios_mod.run_tasks

        def spy(fn, tasks, **kw):
            seen.append(kw["deadlines"])
            return real(fn, tasks, **kw)

        monkeypatch.setattr(scenarios_mod, "run_tasks", spy)
        run_scenario_sweep(**GRID, policy=RetryPolicy(deadline_s=30.0))
        run_scenario_sweep(**GRID)
        assert seen == [[30.0 * len(TOPOLOGIES)] * GRAPHS, None]

    def test_interrupted_sweep_resumes_to_cold(self, cold_text, tmp_path):
        db = tmp_path / "cells.sqlite"
        part = run_scenario_sweep(**GRID, store=db, limit=3, checkpoint=1)
        assert part["meta"]["processed_instances"] == 3
        jobs = 2 if pool_available() else 1
        resumed = run_scenario_sweep(**GRID, store=db, resume=True, jobs=jobs)
        assert report_json(resumed) == cold_text

    def test_group_never_spans_two_checkpoint_batches(self, monkeypatch):
        grid = dict(GRID, ccrs=(10.0,), apps=("DCT",))
        cold = report_json(run_scenario_sweep(**grid))
        calls = record_groups(monkeypatch)
        with observability(metrics=True) as session:
            batched = run_scenario_sweep(
                **grid, store=ResultStore(), checkpoint=3
            )
        assert sizes(calls) == [[3], [1]]
        assert session.metrics.counters["kernel.lattice_misses"] == 2
        assert report_json(batched) == cold

