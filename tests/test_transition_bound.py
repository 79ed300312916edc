"""The SP-tree lower bound on DPA1D's transitions.

:func:`repro.spg.decompose.transition_lower_bound` counts, on the SP
decomposition tree, the pairs of order ideals whose difference fits in
64 rounded-up weight buckets of the cap.  DPA1D rejects a lattice
without enumerating it when that count exceeds the transition budget,
so the count must never exceed the transitions the enumeration makes:
on drawn graphs at several caps (one of them a cluster's own
accumulated work), on chains either side of one and two mask words and
of the bucket count, and on the StreamIt suite.  At budgets either side
of the bound and of the exact count, ``solve_uniline`` must fail or
succeed exactly as the scalar reference DP does, with the same message.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.core.errors import BudgetExceeded, HeuristicFailure
from repro.core.kernels import suffix_forest
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics.dpa1d import _UnilineDP, solve_uniline
from repro.obs.session import observability
from repro.platform.cmp import CMPGrid
from repro.spg.build import chain
from repro.spg.decompose import (
    BOUND_BUCKETS,
    ideal_count,
    transition_lower_bound,
)
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg_with_elevation
from repro.spg.streamit import streamit_workflow
from tests.dp_reference import reference_uniline
from tests.ideal_reference import n_graph

#: Transitions the exact counts below enumerate at most.
LIMIT = 300_000

#: Chain lengths either side of one and two ``uint64`` mask words, and of
#: the bound's 64 buckets.
CHAIN_LENGTHS = [62, 63, 64, 65, 129]


def exact_transitions(spg: SPG, cap: float) -> int | None:
    """The transitions at ``cap``, counted by the suffix forest over every
    nonzero ideal (any width); ``None`` past :data:`LIMIT`."""
    lat = IdealLattice(spg, budget=1 << 20)
    try:
        _M, _W, counts = suffix_forest(
            lat, lat.ideal_words()[:, 1:], cap, LIMIT, "over"
        )
    except BudgetExceeded:
        return None
    return int(counts.sum())


def assert_bound_holds(spg: SPG, cap: float) -> int:
    """The bound is at most the exact count (saturated at ``LIMIT + 1``
    when the enumeration passes ``LIMIT``); returns the bound."""
    bound = transition_lower_bound(spg, cap, LIMIT)
    exact = exact_transitions(spg, cap)
    assert 0 <= bound <= (LIMIT + 1 if exact is None else exact)
    return bound


class TestLowerBound:
    @given(
        n=st.integers(2, 40),
        elevation=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        frac=st.sampled_from([0.02, 0.1, 0.3, 1.0]),
        pick=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_the_suffix_table(self, n, elevation, seed, frac,
                                            pick):
        spg = random_spg_with_elevation(
            n, elevation, np.random.default_rng(seed)
        )
        assume(ideal_count(spg) <= 600)
        lat = IdealLattice(spg, budget=1 << 20)
        lat.ideals()
        cap = spg.total_work * frac
        table = lat.suffix_table(cap)
        assert transition_lower_bound(spg, cap, LIMIT) <= table[5]
        # A cap equal to one cluster's accumulated work keeps that
        # cluster: the bound's slack must absorb the exact tie.
        works = table[1]
        if works.size:
            tie = float(works[pick % works.size])
            assert (transition_lower_bound(spg, tie, LIMIT)
                    <= lat.suffix_table(tie)[5])

    @pytest.mark.parametrize("n", CHAIN_LENGTHS)
    def test_unit_chain_counts_every_short_segment(self, n):
        # At cap 2 * BOUND_BUCKETS a unit stage is one bucket, so the
        # bound is exactly the segments of at most 64 stages.
        g = chain(n)
        want = sum(n + 1 - length
                   for length in range(1, min(n, BOUND_BUCKETS) + 1))
        assert transition_lower_bound(g, 2.0 * BOUND_BUCKETS, LIMIT) == want
        assert want <= exact_transitions(g, 2.0 * BOUND_BUCKETS)

    @pytest.mark.parametrize("n", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_chains(self, n, seed):
        rng = np.random.default_rng(seed)
        g = chain(n, weights=rng.uniform(0.5, 2.0, n).tolist())
        for segment in (1, 5, 63, 64, 65, n):
            # A cap equal to a segment's own accumulated work.
            cap = 0.0
            for w in g.weights[:segment]:
                cap += w
            assert_bound_holds(g, cap)

    @pytest.mark.parametrize("app", [6, 7, 8, 9, 10, 11, 12])
    @pytest.mark.parametrize("frac", [0.02, 0.1, 0.4])
    def test_streamit(self, app, frac):
        g = streamit_workflow(app)
        assert_bound_holds(g, g.total_work * frac)

    def test_saturates_past_the_limit(self):
        g = chain(40)
        full = transition_lower_bound(g, 1e9, LIMIT)
        assert full == 40 * 41 // 2
        assert transition_lower_bound(g, 1e9, 99) == 100

    def test_no_bound_without_a_tree_or_with_negative_weights(self):
        assert transition_lower_bound(n_graph(), 10.0, LIMIT) is None
        assert transition_lower_bound(chain(5, weights=[1, 1, -1, 1, 1]),
                                      10.0, LIMIT) is None

    def test_single_stage(self):
        g = SPG([3.0], [(1, 1)], {})
        assert transition_lower_bound(g, 4.0, LIMIT) == 1
        assert transition_lower_bound(g, 2.0, LIMIT) == 0


def _outcome(fn):
    try:
        e, clusters, speeds = fn()
    except HeuristicFailure as exc:
        return type(exc).__name__, str(exc)
    return e, len(clusters), clusters, speeds


def _reference_outcome(prob, budget):
    try:
        return reference_uniline(prob, 16, transition_budget=budget)
    except HeuristicFailure as exc:
        return type(exc).__name__, str(exc)


#: (n, elevation, seed, parallelism): word-sized and wide graphs whose
#: bound is under their exact count, so the four budgets meet a bound
#: rejection, two rejections by the enumeration and a solve.
SOLVES = [
    (30, 3, 0, 4.0), (40, 4, 1, 2.0), (50, 3, 2, 8.0),
    (63, 2, 3, 4.0), (70, 2, 3, 4.0), (80, 3, 5, 2.0),
]


class TestSolveAtBudgetEdges:
    @pytest.mark.parametrize("n,elevation,seed,parallelism", SOLVES)
    def test_same_outcome_as_the_reference(self, n, elevation, seed,
                                           parallelism):
        g = random_spg_with_elevation(
            n, elevation, np.random.default_rng(seed), ccr=10.0
        )
        prob = ProblemInstance(
            g, CMPGrid(4, 4), g.total_work / 1e9 / parallelism
        )
        cap = _UnilineDP(prob, 16, 120_000).cap_work
        bound = transition_lower_bound(g, cap, LIMIT)
        exact = exact_transitions(g, cap)
        assert exact is not None and 0 < bound <= exact
        budgets = sorted({max(b, 0)
                          for b in (bound - 1, bound, exact - 1, exact)})
        # Ascending budgets build fresh tables (or streams) each time,
        # so the bound decides every budget under it; descending ones
        # then meet the kept table of a word-sized lattice, whose exact
        # total decides instead.
        runs = [(b, True) for b in budgets] + [
            (b, g.n > 62) for b in budgets[::-1]
        ]
        for budget, fresh in runs:
            with observability() as session:
                got = _outcome(lambda: solve_uniline(
                    prob, 16, transition_budget=budget))
            assert got == _reference_outcome(prob, budget), budget
            rejects = session.metrics.counters.get(
                "partition.transition_bound_rejects", 0)
            assert rejects == int(fresh and budget < bound), budget
