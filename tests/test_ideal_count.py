"""Exactness of the series-parallel ideal count and the budget decision.

``IdealLattice.ideals()`` rejects an over-budget series-parallel graph
from :func:`repro.spg.decompose.ideal_count` without enumerating.  These
tests pin the count to a full enumeration by the breadth-first fallback,
and the early rejection to that fallback's own failures: same budgets,
same message.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tests.ideal_reference import brute_force_ideals, n_graph
from repro.core import partition
from repro.core.errors import BudgetExceeded
from repro.core.partition import IdealLattice
from repro.spg.build import chain, diamond, split_join
from repro.spg.decompose import (
    decompose,
    enumerate_ideals,
    ideal_count,
    sp_depth,
)
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg, random_spg_with_elevation
from repro.spg.streamit import streamit_workflow
from repro.util.bitset import join_words, word_count

#: Largest count the random tests enumerate in full.
CAP = 200_000

#: DPA1D's ideal budget (``solve_uniline``).
IDEAL_BUDGET = 120_000


def enumerated(spg: SPG, budget: int) -> "int | str":
    """Ideal count by the breadth-first fallback alone, or its budget
    failure message."""
    with mock.patch.object(partition, "ideal_count", lambda g: None):
        try:
            return len(IdealLattice(spg, budget=budget).ideals())
        except BudgetExceeded as exc:
            return str(exc)


def assert_exact(spg: SPG) -> None:
    """The count equals a full enumeration, or enumeration fails at CAP."""
    count = ideal_count(spg)
    assert count is not None
    if count <= CAP:
        assert enumerated(spg, CAP) == count
    else:
        assert isinstance(enumerated(spg, CAP), str)


class TestCount:
    def test_single_stage(self):
        g = SPG([1.0], [(1, 1)], {})
        assert ideal_count(g) == 2 == enumerated(g, CAP)

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_chain(self, n):
        assert ideal_count(chain(n)) == n + 1 == enumerated(chain(n), CAP)

    def test_diamond(self):
        # Empty, source, either or both middle stages, full.
        assert ideal_count(diamond()) == 6 == enumerated(diamond(), CAP)

    @pytest.mark.parametrize(
        "branches", [[1, 1], [2, 3], [1, 2, 3], [4, 4, 4, 4]]
    )
    def test_split_join(self, branches):
        # The source with any prefix of each branch, plus empty and full.
        g = split_join(branches)
        assert ideal_count(g) == enumerated(g, CAP)
        assert ideal_count(g) == int(np.prod([b + 1 for b in branches])) + 2

    def test_deep_chain_is_not_recursive(self):
        # A 3000-stage chain nests 3000 series nodes, past Python's
        # default recursion limit.
        n = 3000
        g = SPG([1.0] * n, None, {(i, i + 1): 1.0 for i in range(n - 1)})
        assert ideal_count(g) == n + 1

    def test_deep_chain_tree_helpers_are_not_recursive(self):
        # Every walk of the 3000-deep tree, the ideal enumeration
        # included, runs without recursing.
        n = 3000
        g = SPG([1.0] * n, None, {(i, i + 1): 1.0 for i in range(n - 1)})
        tree = decompose(g)
        assert sp_depth(tree) == n - 2
        assert tree.leaves() == [(i, i + 1) for i in range(n - 1)]
        assert tree.count("series") == n - 2
        assert len(tree.render().splitlines()) == 2 * n - 3
        words = enumerate_ideals(g)
        assert words.shape == (word_count(n), n + 1)
        assert join_words(words) == [(1 << k) - 1 for k in range(n + 1)]

    def test_non_sp_is_none(self):
        assert ideal_count(n_graph()) is None

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("elevation", [1, 2, 4, 8, 12])
    @pytest.mark.parametrize("n", [*range(2, 13), 50])
    def test_random_with_elevation(self, n, elevation, seed):
        rng = np.random.default_rng(1000 * n + 10 * elevation + seed)
        assert_exact(random_spg_with_elevation(n, elevation, rng))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [2, 5, 12, 50])
    def test_random(self, n, seed):
        assert_exact(random_spg(n, rng=seed))

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_property(self, n, elevation, seed):
        rng = np.random.default_rng(seed)
        assert_exact(random_spg_with_elevation(n, elevation, rng))

    @pytest.mark.parametrize("app", [6, 7, 8, 9, 10, 11, 12])
    def test_streamit_within_cap(self, app):
        # App 11 (Serpent, 120 stages) needs two words per mask.
        g = streamit_workflow(app)
        count = ideal_count(g)
        assert count <= CAP
        assert enumerated(g, count) == count

    @pytest.mark.parametrize("app", [1, 2, 3, 4, 5])
    def test_streamit_over_budget(self, app):
        # Apps 3 and 5 (85 and 114 stages) need two words per mask.
        g = streamit_workflow(app)
        assert ideal_count(g) > IDEAL_BUDGET
        assert isinstance(enumerated(g, IDEAL_BUDGET), str)


#: One graph of one ``uint64`` word (n <= 62) and one of two.  The keys
#: name the enumeration each width ran before the decomposition tree
#: enumerated both: a popcount-layer vector BFS and a Python-int BFS.
BOUNDARY = {"vector": 6, "bfs": 11}


class TestBudgetBoundary:
    @pytest.fixture(params=sorted(BOUNDARY))
    def graph(self, request):
        g = streamit_workflow(BOUNDARY[request.param])
        assert (g.n <= 62) == (request.param == "vector")
        return g

    def test_budget_equal_to_count_succeeds(self, graph):
        count = ideal_count(graph)
        assert len(IdealLattice(graph, budget=count).ideals()) == count

    def test_budget_below_count_raises_enumeration_message(self, graph):
        budget = ideal_count(graph) - 1
        lat = IdealLattice(graph, budget=budget)
        with pytest.raises(BudgetExceeded) as exc:
            lat.ideals()
        assert str(exc.value) == enumerated(graph, budget)
        assert str(exc.value) == (
            f"more than {budget} admissible subgraphs "
            f"(n={graph.n}, ymax={graph.ymax})"
        )
        # The failure is cached: a second call neither counts nor
        # enumerates.
        with mock.patch.object(partition, "ideal_count", None):
            with pytest.raises(BudgetExceeded, match=str(budget)):
                lat.ideals()

    def test_rejection_does_not_enumerate(self, graph, monkeypatch):
        def no_enumeration(*_args):
            raise AssertionError("enumerated an over-budget lattice")

        monkeypatch.setattr(partition, "enumerate_ideals", no_enumeration)
        monkeypatch.setattr(IdealLattice, "_ideals_bfs", no_enumeration)
        lat = IdealLattice(graph, budget=ideal_count(graph) - 1)
        with pytest.raises(BudgetExceeded):
            lat.ideals()
        assert lat._ideals is None
        assert lat._initc == {0: []}

    def test_non_sp_graph_still_enumerates(self):
        g = n_graph()
        count = brute_force_ideals(g)
        assert len(IdealLattice(g, budget=count).ideals()) == count
        with pytest.raises(BudgetExceeded) as exc:
            IdealLattice(g, budget=count - 1).ideals()
        assert str(exc.value) == (
            f"more than {count - 1} admissible subgraphs "
            f"(n={g.n}, ymax={g.ymax})"
        )
