"""Graphs that differ only in their edge volumes share one ideal lattice.

A StreamIt workflow's CCR variants rescale the same volumes, so DPA1D's
ideal lattice (ideals, sorted values, suffix table) is the same for all
of them.  :meth:`SPG.with_weights` with ``weights=None`` -- and so
``with_comm_scaled`` and ``with_ccr`` -- shares the shape cache that
holds it, while each DP computes its cut volumes from its own graph.
Every solve through a shared lattice must equal a solve on a fresh
(pickled) copy, and the per-workflow builder must draw exactly the
graphs the one-CCR formula draws.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.errors import HeuristicFailure
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.experiments.streamit_experiments import CCR_SETTINGS
from repro.heuristics.dpa1d import solve_uniline
from repro.obs.session import observability
from repro.platform.cmp import CMPGrid
from repro.spg.random_gen import random_spg_with_elevation, random_weights
from repro.spg.streamit import (
    STREAMIT_TABLE1,
    _build_structure,
    streamit_variants,
    streamit_workflow,
)

GRID = CMPGrid(4, 4)


def _solve(spg, period):
    """DPA1D's ``(repr(energy), clusters, speeds)`` on ``spg`` at
    ``period``, or its failure's type and message."""
    try:
        e, clusters, speeds = solve_uniline(
            ProblemInstance(spg, GRID, period), GRID.n_cores
        )
    except HeuristicFailure as exc:
        return (type(exc).__name__, str(exc))
    return repr(e), clusters, speeds


class TestShapeCache:
    def test_volume_only_copies_share_it(self):
        g = streamit_workflow("FMRadio")
        for copy in (g.with_ccr(1.0), g.with_comm_scaled(3.0),
                     g.with_weights(edges={(0, 1): 5.0}),
                     g.with_weights()):
            assert copy._shape is g._shape

    def test_new_weights_and_unpickling_start_empty(self):
        g = streamit_workflow("FMRadio")
        g.shape_cached("probe", lambda: 1)
        for other in (g.with_weights(weights=list(g.weights)),
                      pickle.loads(pickle.dumps(g))):
            assert other._shape is not g._shape
            assert other._shape == {}

    def test_lattice_lives_in_the_shape_cache(self):
        g = streamit_workflow("DCT")
        lat = IdealLattice.for_spg(g, 120_000)
        assert IdealLattice.for_spg(g.with_ccr(0.1), 120_000) is lat
        assert IdealLattice.for_spg(
            g.with_weights(weights=list(g.weights)), 120_000
        ) is not lat

    def test_lattice_counters(self):
        g = streamit_workflow("DCT")
        with observability(metrics=True) as session:
            for c in (None, 10.0, 1.0):
                IdealLattice.for_spg(
                    g if c is None else g.with_ccr(c), 120_000
                )
        counters = session.metrics.counters
        assert counters["kernel.lattice_misses"] == 1
        assert counters["kernel.lattice_hits"] == 2

    def test_drop_caches_clears_both(self):
        g = streamit_workflow("DCT")
        sibling = g.with_ccr(1.0)
        _ = g.edge_list, IdealLattice.for_spg(g, 120_000)
        g.drop_caches()
        assert g._derived == {} and g._shape == {}
        assert sibling._shape == {}


class TestStreamitVariants:
    @pytest.mark.parametrize("spec", STREAMIT_TABLE1, ids=lambda s: s.name)
    def test_equal_to_one_ccr_formula(self, spec):
        seed = 3
        variants = streamit_variants(spec.index, CCR_SETTINGS, seed=seed)
        for c, got in zip(CCR_SETTINGS, variants):
            target = spec.ccr if c is None else c
            want = random_weights(
                _build_structure(spec),
                np.random.default_rng((seed, spec.index)), ccr=target,
            )
            assert got.weights == want.weights
            assert got.labels == want.labels
            assert list(got.edges) == list(want.edges)
            assert ([repr(d) for d in got.edges.values()]
                    == [repr(d) for d in want.edges.values()])
            assert got._shape is variants[0]._shape


class TestSharedLatticeSolves:
    # Vocoder (5) fails on the ideal budget; Serpent (11) is wider than a
    # machine word and takes the streamed path.  The periods go tight,
    # looser, in between: the shared table is built, rebuilt, then
    # filtered.
    @pytest.mark.parametrize("which", [5, 6, 8, 10, 11])
    def test_each_variant_equals_a_fresh_copy(self, which):
        variants = streamit_variants(which, CCR_SETTINGS, seed=1)
        solved = []
        for period in (0.5, 2.0, 1.0, 0.3):
            for spg in variants:
                fresh = pickle.loads(pickle.dumps(spg))
                shared = _solve(spg, period)
                assert shared == _solve(fresh, period)
                solved.append(shared)
        if which == 5:
            assert {s[0] for s in solved} == {"BudgetExceeded"}
        else:
            assert any(s[0] != "HeuristicFailure" for s in solved)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(4, 40),
        elevation=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        factor=st.sampled_from([1e-3, 0.5, 7.0, 1e3]),
        periods=st.tuples(*[st.sampled_from([2.0, 1.0, 0.3])] * 2),
    )
    def test_scaled_copy_after_solving_equals_fresh(
        self, n, elevation, seed, factor, periods
    ):
        g = random_spg_with_elevation(
            n, min(elevation, n - 2), np.random.default_rng(seed), ccr=1.0
        )
        _solve(g, periods[0])
        scaled = g.with_comm_scaled(factor)
        assert IdealLattice.for_spg(scaled, 120_000) is IdealLattice.for_spg(
            g, 120_000
        )
        fresh = pickle.loads(pickle.dumps(scaled))
        assert _solve(scaled, periods[1]) == _solve(fresh, periods[1])
