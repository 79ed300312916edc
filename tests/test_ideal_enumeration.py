"""The order ideals enumerated from the SP decomposition tree.

``IdealLattice.ideals()`` emits the ideals of every series-parallel
graph, of any width, from its decomposition tree
(:func:`repro.spg.decompose.enumerate_ideals`).  These tests pin that
walk to two independent enumerations: the popcount-layer oracle of
``tests/ideal_reference.py`` (word-sized graphs) and the Python-int
breadth-first search the lattice keeps as its fallback for graphs that
are not series-parallel.  They also cover the successor-free masks the
reference DFS reads, which the lattice now builds on first use.
"""

from __future__ import annotations

import importlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tests.ideal_reference import brute_force_ideals, ideals_vector, n_graph
from repro.core import partition
from repro.core.kernels import reference_dfs
from repro.core.partition import IdealLattice
from repro.spg.build import chain, split_join
from repro.spg.decompose import enumerate_ideals, ideal_count
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg, random_spg_with_elevation
from repro.spg.streamit import streamit_workflow
from repro.util.bitset import iter_bits, split_words, word_count

# The module, not the function ``repro.spg`` re-exports under its name.
decompose_module = importlib.import_module("repro.spg.decompose")

#: Largest lattice the tests enumerate.
CAP = 200_000

#: Graph widths on either side of one and two ``uint64`` words.
WORD_BOUNDARIES = [62, 63, 64, 65, 127, 128, 129]


def assert_matches_oracles(spg: SPG) -> None:
    """Tree walk == BFS fallback (== popcount-layer oracle when n <= 62),
    and the lattice's words are the packed list."""
    lat = IdealLattice(spg, budget=CAP)
    got = lat.ideals()
    assert len(got) == ideal_count(spg)
    assert got == IdealLattice(spg, budget=CAP)._ideals_bfs()
    if spg.n <= 62:
        assert got == ideals_vector(spg)[0]
    words = word_count(spg.n)
    assert lat.ideal_words().shape == (words, len(got))
    assert np.array_equal(lat.ideal_words(), split_words(got, words))


class TestTreeWalk:
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_property(self, n, elevation, seed):
        rng = np.random.default_rng(seed)
        spg = random_spg_with_elevation(n, elevation, rng)
        if ideal_count(spg) <= CAP:
            assert_matches_oracles(spg)

    @pytest.mark.parametrize("elevation", [1, 3])
    @pytest.mark.parametrize("n", WORD_BOUNDARIES)
    def test_word_boundaries(self, n, elevation):
        rng = np.random.default_rng(100 * n + elevation)
        assert_matches_oracles(random_spg_with_elevation(n, elevation, rng))

    @pytest.mark.parametrize("n", WORD_BOUNDARIES)
    def test_chain_prefixes(self, n):
        # A chain's ideals are its prefixes; the last ones set the top
        # word's high bits.
        assert IdealLattice(chain(n)).ideals() == [
            (1 << k) - 1 for k in range(n + 1)
        ]

    @pytest.mark.parametrize("app", [6, 7, 8, 9, 10, 11, 12])
    def test_streamit(self, app):
        assert_matches_oracles(streamit_workflow(app))

    def test_split_join(self):
        assert_matches_oracles(split_join([4, 1, 3, 2]))

    def test_single_stage(self):
        words = enumerate_ideals(SPG([1.0], [(1, 1)], {}))
        assert words.tolist() == [[0, 1]]

    def test_non_sp_graph_has_no_walk(self):
        assert enumerate_ideals(n_graph()) is None

    def test_wide_sp_graph_skips_the_fallback(self, monkeypatch):
        def no_fallback(self):
            raise AssertionError("ran the BFS on a series-parallel graph")

        monkeypatch.setattr(IdealLattice, "_ideals_bfs", no_fallback)
        spg = random_spg_with_elevation(129, 3, np.random.default_rng(3))
        lat = IdealLattice(spg, budget=CAP)
        assert len(lat.ideals()) == ideal_count(spg)
        assert lat.ideal_words().shape[0] == 3

    def test_non_sp_graph_uses_the_fallback(self, monkeypatch):
        def no_walk(spg):
            raise AssertionError("walked a graph that does not decompose")

        monkeypatch.setattr(partition, "enumerate_ideals", no_walk)
        g = n_graph()
        ideals = IdealLattice(g).ideals()
        assert len(ideals) == brute_force_ideals(g)
        assert ideals == sorted(ideals, key=lambda m: (m.bit_count(), m))

    def test_count_and_walk_decompose_once(self, monkeypatch):
        calls = []
        real = decompose_module.decompose

        def counting(spg):
            calls.append(spg)
            return real(spg)

        monkeypatch.setattr(decompose_module, "decompose", counting)
        spg = random_spg(30, rng=5)
        IdealLattice(spg).ideals()
        assert ideal_count(spg) is not None
        assert calls == [spg]


class TestLazyInitMask:
    def test_ideals_do_not_build_it(self):
        lat = IdealLattice(random_spg(20, rng=1))
        lat.ideals()
        assert lat._init_mask is None

    def test_vector_tables_never_read_it(self):
        spg = random_spg(20, rng=2)
        lat = IdealLattice(spg, kernel="vector")
        lat.suffix_table(sum(spg.weights))
        assert lat._init_mask is None

    def test_reference_dfs_builds_it_once_ideals_exist(self):
        spg = random_spg(20, rng=4)
        lat = IdealLattice(spg, kernel="python")
        full = (1 << spg.n) - 1
        # Before enumeration the DFS scans the ideal and builds nothing.
        early = reference_dfs(lat, full, sum(spg.weights))
        assert lat._init_mask is None
        lat.ideals()
        lat._initc = {0: []}
        assert reference_dfs(lat, full, sum(spg.weights)) == early
        assert lat._init_mask == ideals_vector(spg)[1]

    def test_wide_graph_scans(self):
        spg = random_spg_with_elevation(70, 3, np.random.default_rng(6))
        lat = IdealLattice(spg, kernel="python")
        ideals = lat.ideals()
        assert lat._init_list(ideals[-1]) == [spg.sink]
        assert lat._init_mask == {}

    @pytest.mark.parametrize("seed", range(3))
    def test_ambient_kernel_table_matches_scanning_dfs(self, seed):
        # Under the python kernel the table reads the lazy masks; under
        # the vector kernel it never does.  Either way it equals the
        # reference DFS run with every mask found by scanning.
        spg = random_spg(14, rng=seed)
        cap = 0.5 * sum(spg.weights)
        lat = IdealLattice(spg)
        M, W, counts, _offsets, _pidx, _total = lat.suffix_table(cap)
        scan = IdealLattice(spg)
        scan._init_mask = {}
        want_m, want_w = [], []
        for ideal in lat.ideals():
            if ideal:
                masks, works = reference_dfs(scan, ideal, cap)
                want_m += masks
                want_w += works
        assert M.tolist() == want_m
        assert W.tolist() == want_w
        assert (lat._init_mask is not None) == (lat.kernel.name == "python")
        for ideal in lat.ideals():
            assert lat._init_list(ideal) == [
                i for i in iter_bits(ideal)
                if not lat._succ_mask[i] & ideal
            ]
