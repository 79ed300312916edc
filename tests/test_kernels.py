"""Tests for the enumeration-kernel layer and the lattice's suffix table.

Covers the kernel registry and ambient selection, the vector kernel's
byte-exact equivalence to the reference DFS (hypothesis battery over
random SPGs x caps x budgets, including ``BudgetExceeded`` parity), the
one keep-loosest suffix table per lattice and the kernel calls it makes,
the reference-DFS path for graphs wider than a machine word, and the
``--kernel`` CLI plumbing.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.errors import BudgetExceeded
from repro.core.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    EnumerationKernel,
    get_kernel,
    kernel_names,
    register_kernel,
    resolve_kernel,
    set_default_kernel,
    use_kernel,
)
from repro.core.partition import IdealLattice
from repro.spg import chain, fork_join
from repro.spg.random_gen import random_spg, random_spg_with_elevation


def lattice(spg, kernel, budget=1 << 20):
    return IdealLattice(spg, budget=budget, kernel=kernel)


# ---------------------------------------------------------------------------
# Registry + ambient selection
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert "python" in kernel_names()
        assert "vector" in kernel_names()
        assert DEFAULT_KERNEL in kernel_names()

    def test_get_kernel_singleton(self):
        assert get_kernel("vector") is get_kernel("vector")
        assert get_kernel("vector").name == "vector"

    def test_unknown_kernel_names_available(self):
        with pytest.raises(KeyError) as exc:
            get_kernel("fortran")
        msg = str(exc.value)
        assert "fortran" in msg and "python" in msg and "vector" in msg

    def test_register_and_unregister(self):
        @register_kernel("test-null", "test-only kernel")
        class NullKernel(EnumerationKernel):
            def enumerate_bulk(self, lat, ideals, max_weight,
                               node_budget=None, budget_msg=None):
                return [], [], [0] * len(ideals)

        try:
            assert get_kernel("test-null").enumerate_bulk(
                None, [3], 1.0
            ) == ([], [], [0])
        finally:
            KERNELS.pop("test-null")

    def test_set_default_kernel_exports_env(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        set_default_kernel("python")
        try:
            assert os.environ[KERNEL_ENV] == "python"
            assert resolve_kernel().name == "python"
        finally:
            set_default_kernel(None)
        assert KERNEL_ENV not in os.environ
        assert resolve_kernel().name == DEFAULT_KERNEL

    def test_set_default_kernel_validates(self):
        with pytest.raises(KeyError):
            set_default_kernel("no-such-kernel")

    def test_use_kernel_scopes_and_restores(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "vector")
        with use_kernel("python"):
            assert resolve_kernel().name == "python"
            assert os.environ[KERNEL_ENV] == "python"
        assert os.environ[KERNEL_ENV] == "vector"
        assert resolve_kernel().name == "vector"

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        assert resolve_kernel().name == "python"  # env beats built-in
        assert resolve_kernel("vector").name == "vector"  # explicit wins
        k = get_kernel("python")
        assert resolve_kernel(k) is k  # instances pass through

    def test_lattice_records_kernel(self):
        lat = lattice(random_spg(6, rng=0), "python")
        assert lat.kernel.name == "python"


# ---------------------------------------------------------------------------
# Hypothesis battery: vector == python, byte for byte
# ---------------------------------------------------------------------------
class TestKernelParity:
    @given(
        n=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        cap_frac=st.floats(min_value=0.1, max_value=1.2),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_per_ideal_arrays_identical(self, n, seed, cap_frac):
        spg = random_spg(n, rng=seed)
        cap = sum(spg.weights) * cap_frac
        lp = lattice(spg, "python")
        lv = lattice(spg, "vector")
        for ideal in lp.ideals():
            if not ideal:
                continue
            mp, wp = lp.suffix_arrays(ideal, cap)
            mv, wv = lv.suffix_arrays(ideal, cap)
            # Same masks, same works, same (DFS preorder) order.
            assert mp.dtype == mv.dtype == np.uint64
            assert np.array_equal(mp, mv)
            assert wp.tobytes() == wv.tobytes()

    @given(
        n=st.integers(min_value=4, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        cap_frac=st.floats(min_value=0.2, max_value=1.1),
    )
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_suffix_table_identical(self, n, seed, cap_frac):
        spg = random_spg(n, rng=seed)
        cap = sum(spg.weights) * cap_frac
        tp = lattice(spg, "python").suffix_table(cap)
        tv = lattice(spg, "vector").suffix_table(cap)
        for a, b in zip(tp, tv):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            else:
                assert a == b

    @given(budget=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_cluster_budget_parity(self, budget):
        # The kernels' own cluster budget (``node_budget``) over one chunk.
        spg = random_spg(10, rng=3)
        cap = sum(spg.weights)
        msg = f"more than {budget} suffix clusters"
        got = []
        for kernel in ("python", "vector"):
            lat = lattice(spg, kernel)
            ideals = [i for i in lat.ideals() if i]
            try:
                M, W, counts = lat.kernel.enumerate_bulk(
                    lat, ideals, cap, node_budget=budget, budget_msg=msg
                )
                got.append((M.tobytes(), W.tobytes(), counts.tolist()))
            except BudgetExceeded as exc:
                got.append(str(exc))
        # Raise at the same cumulative count, same message.
        assert got[0] == got[1]

    @given(budget=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_transition_budget_parity(self, budget):
        spg = random_spg(12, rng=7)
        cap = sum(spg.weights) * 0.8
        rp = rv = None
        try:
            lattice(spg, "python").suffix_table(cap, budget)
        except BudgetExceeded as exc:
            rp = str(exc)
        try:
            lattice(spg, "vector").suffix_table(cap, budget)
        except BudgetExceeded as exc:
            rv = str(exc)
        assert rp == rv
        if rp is not None:
            assert f"{budget} DP transitions" in rp

    def test_multi_chunk_bulk_build(self):
        # > 1024 nonzero ideals exercises the chunked bulk path.
        spg = fork_join(12)
        lp = lattice(spg, "python")
        lv = lattice(spg, "vector")
        assert len(lv.ideals()) > 1024
        cap = sum(spg.weights) * 0.6
        tp = lp.suffix_table(cap)
        tv = lv.suffix_table(cap)
        assert tp[5] == tv[5] > 0
        for a, b in zip(tp[:5], tv[:5]):
            assert np.array_equal(a, b)

    def test_root_candidates_fallback_without_init_mask(self):
        spg = random_spg(9, rng=11)
        lv = lattice(spg, "vector")
        cap = sum(spg.weights)
        want = lv.suffix_table(cap)
        lv2 = lattice(spg, "vector")
        lv2.ideals()
        lv2._init_mask = {}  # force the _init_list fallback
        got = lv2.suffix_table(cap)
        for a, b in zip(want[:5], got[:5]):
            assert np.array_equal(a, b)

    def test_large_graph_falls_back_to_python(self):
        spg = chain(70)
        lv = lattice(spg, "vector")
        lp = lattice(spg, "python")
        cap = sum(spg.weights)
        first = next(i for i in lv.ideals() if i)
        # The full ideal's masks are wider than uint64.
        for ideal in (first, lv.full):
            got = lv.suffix_clusters_weighted(ideal, cap)
            assert got == lp.suffix_clusters_weighted(ideal, cap)
        assert max(m for m, _w in got) >= 1 << 64
        with pytest.raises(ValueError, match="n <= 62"):
            lv.suffix_arrays(lv.full, cap)

    def test_solver_outputs_identical_under_kernels(self):
        from repro.core.problem import ProblemInstance
        from repro.experiments import choose_period
        from repro.heuristics.dpa1d import dpa1d_mapping
        from repro.platform.cmp import CMPGrid

        spg = random_spg(20, rng=4, ccr=10.0)
        grid = CMPGrid(3, 3)
        T = choose_period(spg, grid, heuristics=("Greedy",), rng=4).period
        prob = ProblemInstance(spg, grid, T)
        maps = {}
        for kernel in kernel_names():
            m = dpa1d_mapping(prob, rng=4, kernel=kernel)
            maps[kernel] = (m.alloc, m.speeds)
        assert maps["python"] == maps["vector"]


# ---------------------------------------------------------------------------
# One keep-loosest suffix table per lattice
# ---------------------------------------------------------------------------
def assert_tables_equal(a, b):
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y


class TestSuffixCaches:
    def test_loosest_arrays_survive_tightening(self):
        spg = random_spg(10, rng=1)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        ideal = max(lat.ideals())
        loose_m, loose_w = lat.suffix_arrays(ideal, total)
        tight_m, tight_w = lat.suffix_arrays(ideal, total * 0.3)
        assert tight_m.size <= loose_m.size
        # The loose-cap read after tightening still slices the loose
        # table: a tighter cap never replaces the kept one.
        again_m, again_w = lat.suffix_arrays(ideal, total)
        assert np.array_equal(again_m, loose_m)
        assert again_w.tobytes() == loose_w.tobytes()
        assert lat._table[0] == total

    def test_filtered_view_matches_fresh_enumeration(self):
        spg = random_spg(11, rng=6)
        total = sum(spg.weights)
        warm = lattice(spg, "vector")
        cold = lattice(spg, "vector")
        for ideal in warm.ideals():
            if not ideal:
                continue
            warm.suffix_arrays(ideal, total)  # loosest first
            vm, vw = warm.suffix_arrays(ideal, total * 0.35)
            cm, cw = cold.suffix_arrays(ideal, total * 0.35)
            assert np.array_equal(vm, cm)
            assert vw.tobytes() == cw.tobytes()

    def test_looser_cap_reenumerates_and_replaces(self):
        spg = random_spg(9, rng=2)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        ideal = max(lat.ideals())
        tight_m, _ = lat.suffix_arrays(ideal, total * 0.3)
        assert lat._table[0] == total * 0.3  # a read builds the table
        loose_m, _ = lat.suffix_arrays(ideal, total)
        assert loose_m.size >= tight_m.size
        assert lat._table[0] == total  # the looser cap became the kept one

    def test_suffix_table_cached_and_filtered(self):
        spg = random_spg(12, rng=9)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        t1 = lat.suffix_table(total)
        assert lat.suffix_table(total) is t1  # exact-cap hit
        t2 = lat.suffix_table(total * 0.5)  # filtered copy
        assert_tables_equal(
            t2, lattice(spg, "vector").suffix_table(total * 0.5)
        )

    def test_cached_table_rechecks_budget(self):
        spg = random_spg(12, rng=9)
        lat = lattice(spg, "vector")
        total = sum(spg.weights)
        tbl = lat.suffix_table(total)
        assert tbl[5] > 10
        with pytest.raises(BudgetExceeded, match="10 DP transitions"):
            lat.suffix_table(total, 10)  # same cap, tighter budget
        with pytest.raises(BudgetExceeded, match="10 DP transitions"):
            lat.suffix_table(total * 0.9, 10)  # filtered, re-checked

    def test_non_ideal_read_rejected(self):
        lat = lattice(chain(4), "vector")
        with pytest.raises(ValueError, match="not an order ideal"):
            lat.suffix_arrays(0b0010, 10.0)


class _KernelSpy:
    """Records the names of the kernel methods the lattice calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[str] = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if not callable(attr):
            return attr

        def spied(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        return spied


class TestTableAccessPattern:
    """The choose_period pattern: a loose probe that blows the transition
    budget, then a 10x tighter one, on the same lattice."""

    @pytest.mark.parametrize("kernel", ["python", "vector"])
    def test_tighter_cap_after_failed_build_is_bulk(self, kernel):
        spg = fork_join(12)
        total = sum(spg.weights)
        tight = total * 0.3
        loose = tight * 10
        full_total = lattice(spg, kernel).suffix_table(loose)[5]
        lat = lattice(spg, kernel)
        nonzero = len(lat.ideals()) - 1
        assert nonzero > 1024  # several chunks, so the raise is mid-build
        with pytest.raises(BudgetExceeded):
            lat.suffix_table(loose, full_total - 1)
        spy = lat.kernel = _KernelSpy(lat.kernel)
        got = lat.suffix_table(tight, full_total - 1)
        assert set(spy.calls) == {"enumerate_bulk"}
        assert len(spy.calls) <= -(-nonzero // 1024)
        fresh = lattice(spg, kernel).suffix_table(tight)
        assert_tables_equal(got, fresh)
        # A later failed looser build leaves the kept table in place.
        spy.calls.clear()
        with pytest.raises(BudgetExceeded):
            lat.suffix_table(loose, full_total - 1)
        assert lat.suffix_table(tight) is got
        masks, works = lat.suffix_arrays(lat.full, tight)
        k = lat.ideals().index(lat.full)
        lo, hi = fresh[3][k], fresh[3][k + 1]
        assert masks.tobytes() == fresh[0][lo:hi].tobytes()
        assert works.tobytes() == fresh[1][lo:hi].tobytes()
        assert set(spy.calls) == {"enumerate_bulk"}


# ---------------------------------------------------------------------------
# CLI / sweep plumbing
# ---------------------------------------------------------------------------
class TestKernelPlumbing:
    def run_cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_cli_kernel_outputs_identical(self):
        base = ("map", "-w", "DCT", "-H", "DPA1D", "--seed", "1")
        _, want = self.run_cli(*base)
        for kernel in kernel_names():
            code, got = self.run_cli(*base, "--kernel", kernel)
            assert code == 0
            assert got == want

    def test_cli_kernel_restores_ambient(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        code, _ = self.run_cli(
            "map", "-w", "DCT", "-H", "DPA1D", "--kernel", "python"
        )
        assert code == 0
        assert KERNEL_ENV not in os.environ
        assert resolve_kernel().name == DEFAULT_KERNEL

    def test_cli_rejects_unknown_kernel(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["map", "-w", "DCT", "--kernel", "numba"],
                 out=io.StringIO())
        assert "invalid choice" in capsys.readouterr().err

    def test_serpent_experiment_default_kernel(self, monkeypatch):
        # Serpent has 120 stages: its suffix clusters do not fit uint64.
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        code, out = self.run_cli(
            "experiment", "fig8", "--workflows", "11", "--ccr", "1.0"
        )
        assert code == 0
        assert "Serpent" in out

    def test_env_var_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        lat = IdealLattice(random_spg(6, rng=0), budget=1 << 16)
        assert lat.kernel.name == "python"

    def test_sweep_kernel_param_identical_report(self):
        from repro.experiments.scenarios import run_scenario_sweep

        kw = dict(
            topologies=["mesh"], sizes=[(2, 2)], ccrs=[10.0],
            apps=["random-8"], replicates=1, seed=1,
        )
        reports = {
            k: run_scenario_sweep(kernel=k, **kw) for k in kernel_names()
        }
        assert reports["python"] == reports["vector"]
