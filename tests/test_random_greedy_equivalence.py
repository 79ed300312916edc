"""The incremental Random and Greedy frontiers against the rescanning
reference copies in ``tests/random_greedy_reference.py``.

Random keeps its ready frontier with predecessor counters; it must return
the same ``(clusters, speeds)`` (or ``None``) and leave the generator in
the same state.  Greedy tests only cycles through the cluster it grows;
at every speed level it must return the same allocation, speeds and
paths (or ``None``) as the pass that rebuilt the whole quotient for each
tentative absorption.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.errors import HeuristicFailure
from repro.core.problem import ProblemInstance
from repro.heuristics import random_heuristic
from repro.heuristics.greedy import _closes_cycle, _Cluster, _greedy_at_speed
from repro.heuristics.random_heuristic import _random_partition, random_mapping
from repro.platform.topology import get_topology
from repro.spg.build import split_join
from repro.spg.random_gen import random_spg_with_elevation
from repro.spg.streamit import streamit_workflow
from tests.random_greedy_reference import (
    reference_greedy_at_speed,
    reference_quotient_ok,
    reference_random_partition,
)

#: Period = total work at 1 GHz / parallelism: loose (1) .. infeasible (64).
PARALLELISM = [0.7, 1.5, 3.0, 6.0, 12.0, 24.0, 64.0]

random_graphs = st.builds(
    lambda n, elevation, seed: random_spg_with_elevation(
        n, elevation, np.random.default_rng(seed), ccr=10.0
    ),
    n=st.integers(2, 90),
    elevation=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
streamit_graphs = st.builds(
    streamit_workflow,
    st.integers(1, 12),
    ccr=st.sampled_from([None, 10.0, 1.0, 0.1]),
    seed=st.integers(0, 3),
)
problems = st.builds(
    lambda g, topology, p, parallelism: ProblemInstance(
        g, get_topology(topology, p, p), g.total_work / 1e9 / parallelism
    ),
    g=st.one_of(random_graphs, streamit_graphs),
    topology=st.sampled_from(["mesh", "hetmesh"]),
    p=st.sampled_from([2, 4]),
    parallelism=st.sampled_from(PARALLELISM),
)


class TestRandomPartition:
    @settings(max_examples=80, deadline=None)
    @given(prob=problems, seed=st.integers(0, 2**32 - 1))
    def test_same_partitions_and_rng_state(self, prob, seed):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        # Several trials in a row, as random_mapping draws them.
        for _ in range(3):
            want = reference_random_partition(prob, want_rng)
            got = _random_partition(prob, got_rng)
            assert got == want
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)

    def test_wide_graph_includes_failures_and_successes(self):
        g = random_spg_with_elevation(
            120, 6, np.random.default_rng(8), ccr=10.0
        )
        outcomes = set()
        for parallelism in PARALLELISM:
            prob = ProblemInstance(
                g, get_topology("mesh", 4, 4), g.total_work / 1e9 / parallelism
            )
            want_rng, got_rng = (np.random.default_rng(5) for _ in range(2))
            want = reference_random_partition(prob, want_rng)
            assert _random_partition(prob, got_rng) == want
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("topology", ["mesh", "hetmesh"])
    def test_random_mapping_unchanged(self, monkeypatch, topology):
        def outcome(prob):
            try:
                m = random_mapping(prob, rng=3)
            except HeuristicFailure as exc:
                return str(exc)
            return m.alloc, m.speeds, m.paths

        mapped = 0
        for which in (1, 7, 9):
            g = streamit_workflow(which, ccr=10.0)
            for parallelism in (1.5, 6.0):
                prob = ProblemInstance(
                    g, get_topology(topology, 4, 4),
                    g.total_work / 1e9 / parallelism,
                )
                got = outcome(prob)
                with monkeypatch.context() as m:
                    m.setattr(random_heuristic, "_random_partition",
                              reference_random_partition)
                    assert got == outcome(prob)
                mapped += not isinstance(got, str)
        assert mapped > 0


def _same_greedy(prob) -> int:
    """Assert every speed level agrees; return how many levels mapped."""
    mapped = 0
    for k in range(len(prob.grid.model.speeds)):
        want = reference_greedy_at_speed(prob, k)
        got = _greedy_at_speed(prob, k)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert list(got.alloc.items()) == list(want.alloc.items())
        assert (got.speeds, got.paths) == (want.speeds, want.paths)
        mapped += 1
    return mapped


class TestGreedyAtSpeed:
    @settings(max_examples=60, deadline=None)
    @given(prob=problems)
    def test_same_mapping_at_every_speed(self, prob):
        _same_greedy(prob)

    @pytest.mark.parametrize("topology", ["mesh", "hetmesh"])
    def test_wide_and_streamit_graphs(self, topology):
        graphs = [
            random_spg_with_elevation(
                n, elevation, np.random.default_rng(seed), ccr=10.0
            )
            for n, elevation, seed in [(70, 3, 0), (100, 8, 1), (150, 16, 2)]
        ] + [streamit_workflow(i, ccr=1.0) for i in (2, 5, 11)]
        mapped = 0
        for g in graphs:
            for parallelism in (1.5, 6.0, 12.0):
                mapped += _same_greedy(ProblemInstance(
                    g, get_topology(topology, 4, 4),
                    g.total_work / 1e9 / parallelism,
                ))
        assert mapped > 0


def _clusters(spg, assigned, core):
    """Greedy's clusters for ``assigned``, with one (maybe empty) for
    ``core``, the core being grown."""
    clusters = {core: _Cluster()}
    for i, c in assigned.items():
        clusters.setdefault(c, _Cluster()).add(spg, i)
    return clusters


class TestClosesCycle:
    def test_cycle_through_a_third_cluster(self):
        # 0 -> u1 -> u2 -> 5 and 0 -> v1 -> v2 -> 5.
        g = split_join([2, 2])
        u1, u2, v1, v2 = 1, 2, 3, 4
        A, B = (0, 0), (0, 1)
        assigned = {u1: A, u2: B, v1: B}
        # The quotient would be A -> B (u1 -> u2) and B -> A (v1 -> v2),
        # yet u1 does not reach v2 in the SPG.
        assert not g.descendant_masks()[u1] >> v2 & 1
        assert not reference_quotient_ok(g, {**assigned, v2: A})
        assert _closes_cycle(g, _clusters(g, assigned, A), A, v2)
        # Growing B instead keeps the quotient acyclic.
        assert reference_quotient_ok(g, {**assigned, v2: B})
        assert not _closes_cycle(g, _clusters(g, assigned, B), B, v2)

    @settings(max_examples=60, deadline=None)
    @given(
        g=random_graphs,
        n_cores=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_agrees_with_the_whole_quotient(self, g, n_cores, seed):
        """Grow random acyclic partial clusterings; at every step the
        predicate must reject exactly the absorptions the oracle does."""
        rng = np.random.default_rng(seed)
        assigned: dict = {}
        for j in rng.permutation(g.n)[: 3 * g.n // 4]:
            j = int(j)
            core = (0, int(rng.integers(n_cores)))
            ok = reference_quotient_ok(g, {**assigned, j: core})
            clusters = _clusters(g, assigned, core)
            assert _closes_cycle(g, clusters, core, j) == (not ok)
            if ok:
                assigned[j] = core
