"""Tests for the process-parallel experiment engine."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.problem import ProblemInstance
from repro.experiments.parallel import (
    pool_available,
    resolve_jobs,
    run_tasks,
)
from repro.solvers import run
from repro.platform.cmp import CMPGrid
from repro.spg.random_gen import random_spg


def _square(x: int) -> int:
    return x * x


class TestRunTasks:
    def test_serial_path_preserves_order(self):
        assert run_tasks(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_path_preserves_order(self):
        if not pool_available():  # pragma: no cover - sandboxed CI
            pytest.skip("process pools unavailable in this environment")
        assert run_tasks(_square, list(range(20)), jobs=2) == [
            x * x for x in range(20)
        ]

    def test_single_task_stays_in_process(self):
        # len(tasks) <= 1 must not spin up a pool.
        assert run_tasks(_square, [7], jobs=8) == [49]

    def test_empty(self):
        assert run_tasks(_square, [], jobs=4) == []


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestPicklability:
    """Everything a worker ships back must survive pickling."""

    def test_heuristic_result_roundtrip(self):
        spg = random_spg(12, rng=4, ccr=1.0)
        grid = CMPGrid(2, 2)
        prob = ProblemInstance(spg, grid, 1.0)
        res = run("Greedy", prob, rng=0)
        clone = pickle.loads(pickle.dumps(res))
        assert clone.ok == res.ok
        if res.ok:
            assert clone.total_energy == res.total_energy
            assert clone.mapping.alloc == res.mapping.alloc
            assert clone.mapping.spg == res.mapping.spg
