"""Unit tests for DAG-partitions and order-ideal enumeration."""

from itertools import combinations

import pytest

from repro.core.errors import BudgetExceeded
from repro.core.partition import (
    IdealLattice,
    is_acyclic_quotient,
    is_dag_partition,
    quotient_edges,
)
from repro.spg.build import chain, diamond, split_join
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg
from repro.util.bitset import mask_of


def brute_force_ideals(spg: SPG) -> set[int]:
    """All predecessor-closed subsets, by direct enumeration (n <= ~12)."""
    out = set()
    for r in range(spg.n + 1):
        for combo in combinations(range(spg.n), r):
            s = set(combo)
            if all(set(spg.preds(i)) <= s for i in s):
                out.add(mask_of(combo))
    return out


class TestQuotient:
    def test_quotient_edges(self):
        g = diamond()
        cluster_of = {0: "a", 1: "a", 2: "b", 3: "b"}
        assert quotient_edges(g, cluster_of) == {("a", "b")}

    def test_acyclic_quotient_true(self):
        g = chain(4)
        assert is_acyclic_quotient(g, {0: 0, 1: 0, 2: 1, 3: 1})

    def test_acyclic_quotient_false(self):
        # 0 -> 1 -> 2 -> 3, clusters {0, 2} and {1, 3} form a 2-cycle.
        g = chain(4)
        assert not is_acyclic_quotient(g, {0: "a", 1: "b", 2: "a", 3: "b"})

    def test_diamond_fork_join_same_cluster_needs_branches(self):
        g = diamond()
        # {0, 3} together, branches separate: quotient has a cycle
        # a -> b -> a (0->1, 1->3) so this is not a DAG-partition.
        assert not is_dag_partition(g, {0: "a", 1: "b", 2: "c", 3: "a"})

    def test_diamond_valid_partition(self):
        g = diamond()
        assert is_dag_partition(g, {0: "a", 1: "a", 2: "a", 3: "b"})

    def test_partial_map_rejected(self):
        g = chain(3)
        assert not is_dag_partition(g, {0: "a", 1: "a"})

    def test_singletons_always_valid(self):
        g = split_join([2, 2])
        assert is_dag_partition(g, {i: i for i in range(g.n)})


class TestIdealLattice:
    @pytest.mark.parametrize(
        "g",
        [chain(5), diamond(), split_join([2, 1, 2]), random_spg(10, rng=3)],
        ids=["chain", "diamond", "splitjoin", "random10"],
    )
    def test_matches_brute_force(self, g):
        lat = IdealLattice(g)
        assert set(lat.ideals()) == brute_force_ideals(g)

    def test_chain_count(self):
        # A chain of n has exactly n + 1 ideals (the prefixes).
        lat = IdealLattice(chain(7))
        assert len(lat.ideals()) == 8

    def test_fork_join_count(self):
        # fork-join with k branches: ideals = 2 + 2^k (empty, {src},
        # {src}+any branch subset, full).
        g = split_join([1, 1, 1])
        lat = IdealLattice(g)
        assert len(lat.ideals()) == 2 + 2**3

    def test_budget_exceeded(self):
        g = split_join([1] * 10)  # 2^10 + 2 ideals
        with pytest.raises(BudgetExceeded):
            IdealLattice(g, budget=100).ideals()

    def test_ideals_sorted_by_size(self):
        lat = IdealLattice(diamond())
        sizes = [m.bit_count() for m in lat.ideals()]
        assert sizes == sorted(sizes)

    def test_is_ideal(self):
        lat = IdealLattice(diamond())
        assert lat.is_ideal(mask_of([0, 1]))
        assert not lat.is_ideal(mask_of([1]))

    def test_weight(self):
        g = diamond((1, 2, 3, 4), (0, 0, 0, 0))
        lat = IdealLattice(g)
        assert lat.weight(mask_of([0, 2])) == 4.0

    def test_addable(self):
        lat = IdealLattice(diamond())
        assert list(lat.addable(0)) == [0]
        assert sorted(lat.addable(mask_of([0]))) == [1, 2]


class TestSuffixClusters:
    def brute_suffixes(self, g: SPG, ideal: int, cap: float) -> set[int]:
        lat = IdealLattice(g)
        all_ideals = [m for m in lat.ideals() if m & ~ideal == 0]
        out = set()
        for sub in all_ideals:
            h = ideal & ~sub
            if h and lat.weight(h) <= cap:
                out.add(h)
        return out

    @pytest.mark.parametrize(
        "g",
        [chain(6), diamond(), split_join([2, 2]), random_spg(9, rng=5)],
        ids=["chain", "diamond", "splitjoin", "random9"],
    )
    def test_matches_brute_force_full(self, g):
        lat = IdealLattice(g)
        full = lat.full
        got = set(lat.suffix_clusters(full, float("inf")))
        assert got == self.brute_suffixes(g, full, float("inf"))

    def test_matches_brute_force_partial_ideal(self):
        g = split_join([2, 1])
        lat = IdealLattice(g)
        for ideal in lat.ideals():
            if ideal == 0:
                continue
            got = set(lat.suffix_clusters(ideal, float("inf")))
            assert got == self.brute_suffixes(g, ideal, float("inf"))

    def test_weight_cap_prunes(self):
        g = chain(4, [1, 1, 1, 1], 0.0)
        lat = IdealLattice(g)
        got = set(lat.suffix_clusters(lat.full, 2.0))
        assert got == self.brute_suffixes(g, lat.full, 2.0)

    def test_no_duplicates(self):
        g = split_join([2, 2, 1])
        lat = IdealLattice(g)
        clusters = lat.suffix_clusters(lat.full, float("inf"))
        assert len(clusters) == len(set(clusters))

    def test_cluster_budget(self):
        # The cluster budget is the suffix table's transition budget: a
        # build that exceeds it raises and keeps nothing.
        g = split_join([1] * 8)
        lat = IdealLattice(g, budget=10**6)
        with pytest.raises(BudgetExceeded, match="5 DP transitions"):
            lat.suffix_table(float("inf"), 5)
        assert lat._table is None
