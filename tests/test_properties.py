"""Property-based tests (hypothesis) for core invariants.

Strategies build random SPGs by the same recursive composition the paper
uses, then check structural invariants of the labelling, the ideal lattice
and the heuristics' outputs.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.errors import HeuristicFailure
from repro.core.evaluate import max_cycle_time, validate
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.solvers import run
from repro.platform.cmp import CMPGrid
from repro.spg.analysis import is_series_parallel
from repro.spg.graph import SPG, parallel, series, sp_edge
from repro.util.bitset import iter_bits

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

weights = st.floats(min_value=1.0, max_value=100.0)
volumes = st.floats(min_value=0.0, max_value=50.0)


@st.composite
def spgs(draw, max_depth: int = 4) -> SPG:
    """Random SPG by recursive series/parallel composition."""

    def build(depth: int) -> SPG:
        if depth >= max_depth or draw(st.booleans()):
            return sp_edge(draw(weights), draw(weights), draw(volumes))
        left = build(depth + 1)
        right = build(depth + 1)
        if draw(st.booleans()):
            return series(left, right, merge="first")
        if left.n < 3 and right.n < 3 and left.edges.keys() == right.edges.keys():
            # Two bare edges in parallel collapse; that is fine but makes
            # size assertions awkward — compose in series instead.
            return series(left, right, merge="first")
        return parallel(left, right, merge="first")

    return build(0)


# ---------------------------------------------------------------------------
# SPG structural invariants (Section 3.1)
# ---------------------------------------------------------------------------


class TestSpgInvariants:
    @given(spgs())
    @settings(max_examples=60)
    def test_source_label(self, g: SPG):
        assert g.labels[g.source] == (1, 1)

    @given(spgs())
    @settings(max_examples=60)
    def test_sink_row_one(self, g: SPG):
        assert g.labels[g.sink][1] == 1
        assert g.labels[g.sink][0] == g.xmax

    @given(spgs())
    @settings(max_examples=60)
    def test_edges_increase_x(self, g: SPG):
        for (i, j) in g.edges:
            assert g.labels[i][0] < g.labels[j][0]

    @given(spgs())
    @settings(max_examples=60)
    def test_single_source_and_sink(self, g: SPG):
        for i in range(g.n):
            if i != g.source:
                assert g.preds(i)
            if i != g.sink:
                assert g.succs(i)

    @given(spgs())
    @settings(max_examples=60)
    def test_recognised_as_series_parallel(self, g: SPG):
        assert is_series_parallel(g)

    @given(spgs())
    @settings(max_examples=60)
    def test_same_row_same_level_distinct(self, g: SPG):
        """Labels are unique: no two stages share (x, y)."""
        assert len(set(g.labels)) == g.n

    @given(spgs(), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40)
    def test_ccr_rescaling(self, g: SPG, target: float):
        if g.total_comm < 1e-9 * g.total_work:
            return  # degenerate: rescaling would overflow float range
        assert abs(g.with_ccr(target).ccr - target) < 1e-6 * target


# ---------------------------------------------------------------------------
# Ideal lattice invariants (Section 4.1)
# ---------------------------------------------------------------------------


class TestIdealInvariants:
    @given(spgs(max_depth=3))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_ideals_are_predecessor_closed(self, g: SPG):
        lat = IdealLattice(g, budget=50_000)
        for ideal in lat.ideals():
            for i in iter_bits(ideal):
                for p in g.preds(i):
                    assert (ideal >> p) & 1

    @given(spgs(max_depth=3))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_ideal_count_bound(self, g: SPG):
        """The paper's bound: at most n^ymax + ... admissible subgraphs."""
        lat = IdealLattice(g, budget=50_000)
        count = len(lat.ideals())
        bound = (g.n + 1) ** max(g.ymax, 1) + 1
        assert count <= bound

    @given(spgs(max_depth=3))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_suffix_clusters_are_complements_of_ideals(self, g: SPG):
        lat = IdealLattice(g, budget=50_000)
        full = lat.full
        ideals = set(lat.ideals())
        for h in lat.suffix_clusters(full, float("inf")):
            assert full & ~h in ideals


# ---------------------------------------------------------------------------
# Heuristic outputs are always valid mappings (or clean failures)
# ---------------------------------------------------------------------------

heuristic_names = st.sampled_from(
    ["Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D"]
)


class TestHeuristicContracts:
    @given(spgs(max_depth=3), heuristic_names, st.integers(0, 2**31 - 1))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_valid_or_failure(self, g: SPG, name: str, seed: int):
        """Any heuristic either returns a valid mapping or raises cleanly."""
        # Scale weights into the XScale regime.
        scale = 5e8 / max(g.weights)
        g = g.with_weights(
            weights=[w * scale for w in g.weights],
            edges={e: d * 1e6 for e, d in g.edges.items()},
        )
        T = max(
            1.5 * max(g.weights) / 1e9, g.total_work / 1e9 / 4
        )
        prob = ProblemInstance(g, CMPGrid(3, 3), T)
        res = run(name, prob, rng=seed, **(
            {"ideal_budget": 20_000} if name == "DPA1D" else {}
        ))
        if res.ok:
            validate(res.mapping, T)
            assert max_cycle_time(res.mapping) <= T * (1 + 1e-9)
        else:
            assert not (res.failure or "").startswith("INVALID")
