"""Tests for the array-backed evaluation core: SPG derived-data caches,
Mapping memoisation, routing lru-caches, partial-allocation clusters, and
additional ``evaluate.latency`` cases."""

from __future__ import annotations

import pickle

import pytest

from repro.core.evaluate import cycle_times, energy, latency, max_cycle_time
from repro.core.mapping import Mapping
from repro.platform.cmp import CMPGrid
from repro.platform.routing import (
    _snake_order_cached,
    _xy_path_cached,
    snake_order,
    snake_path,
    xy_path,
)
from repro.spg.analysis import ancestor_masks, descendant_masks
from repro.spg.graph import SPG, parallel, series, sp_edge
from repro.spg.random_gen import random_spg

GHZ = 1e9


def diamond() -> SPG:
    """source -> {a, b} -> sink with distinct weights and volumes."""
    def branch(w_mid: float, d1: float, d2: float) -> SPG:
        return series(
            sp_edge(1 * GHZ, w_mid, d1), sp_edge(0.0, 1 * GHZ, d2)
        )

    return parallel(
        branch(2 * GHZ, 100.0, 150.0),
        branch(3 * GHZ, 200.0, 250.0),
        merge="first",
    )


class TestSPGDerivedCaches:
    def test_cached_scalars_match_recomputation(self):
        g = random_spg(24, rng=3, ccr=1.0)
        assert g.xmax == max(x for x, _ in g.labels)
        assert g.ymax == max(y for _, y in g.labels)
        assert g.total_work == sum(g.weights)
        assert g.total_comm == sum(g.edges.values())
        # Second access returns the identical cached object/value.
        assert g.xmax == g.xmax
        assert g.edge_list is g.edge_list

    def test_edge_list_preserves_dict_order(self):
        g = random_spg(16, rng=1, ccr=1.0)
        assert list(g.edge_list) == [
            (i, j, d) for (i, j), d in g.edges.items()
        ]

    def test_in_out_edges_match_adjacency(self):
        g = random_spg(16, rng=2, ccr=1.0)
        for v in range(g.n):
            assert g.in_edges(v) == tuple(
                (u, g.edges[(u, v)]) for u in g.preds(v)
            )

    def test_reachability_masks_cached_and_consistent(self):
        g = random_spg(20, rng=5, ccr=1.0)
        desc = descendant_masks(g)
        anc = ancestor_masks(g)
        assert descendant_masks(g) is desc  # cached on the SPG
        for i in range(g.n):
            for j in g.succs(i):
                assert (desc[i] >> j) & 1
                assert (anc[j] >> i) & 1

    def test_pickle_roundtrip_drops_caches(self):
        g = random_spg(12, rng=7, ccr=1.0)
        _ = g.edge_list, g.xmax, descendant_masks(g)  # populate caches
        h = pickle.loads(pickle.dumps(g))
        assert h == g
        assert h._derived == {}
        assert h.topological_order() == g.topological_order()

    def test_lazy_toposort_still_detects_cycles_on_validate(self):
        with pytest.raises(ValueError, match="cycle"):
            SPG([1, 1], [(1, 1), (2, 1)], {(0, 1): 1, (1, 0): 1})


class TestMappingMemoisation:
    def grid_mapping(self) -> Mapping:
        g = diamond()
        grid = CMPGrid(2, 2)
        alloc = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
        speeds = {c: 1 * GHZ for c in alloc.values()}
        return Mapping(g, grid, alloc, speeds)

    def test_views_are_memoised(self):
        m = self.grid_mapping()
        assert m.remote_edges() is m.remote_edges()
        assert m.core_work() is m.core_work()
        assert m.link_traffic() is m.link_traffic()
        assert m.active_cores() is m.active_cores()

    def test_views_match_direct_computation(self):
        m = self.grid_mapping()
        g = m.spg
        assert sorted(m.remote_edges()) == sorted(g.edges)
        assert m.core_work() == {
            c: g.weights[i] for i, c in m.alloc.items()
        }
        assert max_cycle_time(m) == max(cycle_times(m).values())

    def test_clusters_tolerates_partial_allocation(self):
        """Regression: clusters() used to KeyError on partial allocations
        (remote_edges deliberately tolerates them), breaking ascii()."""
        g = diamond()
        grid = CMPGrid(2, 2)
        m = Mapping(g, grid, {0: (0, 0), 2: (0, 1)}, {(0, 0): GHZ, (0, 1): GHZ})
        assert m.clusters() == {(0, 0): [0], (0, 1): [2]}
        assert isinstance(m.ascii(), str)  # renders without raising

    def test_partial_allocation_still_fails_validation(self):
        g = diamond()
        grid = CMPGrid(2, 2)
        m = Mapping(g, grid, {0: (0, 0)}, {(0, 0): GHZ})
        assert not m.is_valid_structure()


class TestRoutingCaches:
    def test_xy_path_cache_returns_equal_fresh_lists(self):
        a = xy_path((0, 0), (2, 3))
        b = xy_path((0, 0), (2, 3))
        assert a == b and a is not b
        a.append(("corrupted",))  # mutating a copy must not poison the cache
        assert xy_path((0, 0), (2, 3)) == b

    def test_xy_path_cache_hits(self):
        _xy_path_cached.cache_clear()
        xy_path((1, 1), (3, 0))
        before = _xy_path_cached.cache_info().hits
        xy_path((1, 1), (3, 0))
        assert _xy_path_cached.cache_info().hits == before + 1

    def test_xy_path_shape(self):
        assert xy_path((0, 0), (0, 0)) == [(0, 0)]
        assert xy_path((1, 2), (3, 0)) == [
            (1, 2), (1, 1), (1, 0), (2, 0), (3, 0)
        ]

    def test_snake_order_cache_returns_fresh_lists(self):
        a = snake_order(3, 3)
        b = snake_order(3, 3)
        assert a == b and a is not b
        a.reverse()
        assert snake_order(3, 3) == b

    def test_snake_order_cached_values_correct(self):
        _snake_order_cached.cache_clear()
        assert snake_order(2, 3) == [
            (0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)
        ]
        grid = CMPGrid(2, 3)
        # snake_path slices the cached order; neighbours throughout.
        path = snake_path(grid, 1, 4)
        assert path == [(0, 1), (0, 2), (1, 2), (1, 1)]


class TestLatency:
    def test_two_stage_chain_with_hops(self):
        g = sp_edge(1 * GHZ, 2 * GHZ, 1000.0)
        grid = CMPGrid(1, 3)
        bw = grid.model.bandwidth
        m = Mapping(
            g, grid, {0: (0, 0), 1: (0, 2)},
            {(0, 0): GHZ, (0, 2): GHZ},
        )
        # Two hops: the edge pays delta/BW once per hop.
        assert latency(m) == pytest.approx(1.0 + 2 * 1000.0 / bw + 2.0)

    def test_same_core_has_no_comm_latency(self):
        g = sp_edge(1 * GHZ, 2 * GHZ, 1e12)
        grid = CMPGrid(1, 2)
        m = Mapping(g, grid, {0: (0, 0), 1: (0, 0)}, {(0, 0): GHZ})
        assert latency(m) == pytest.approx(3.0)

    def test_parallel_branches_take_critical_path(self):
        g = diamond()
        grid = CMPGrid(1, 4)
        m = Mapping(
            g, grid,
            {g.source: (0, 0), 1: (0, 1), 2: (0, 1), g.sink: (0, 0)},
            {(0, 0): GHZ, (0, 1): GHZ},
        )
        bw = grid.model.bandwidth
        comm = {e: d / bw for e, d in g.edges.items()}
        finish = {}
        for i in g.topological_order():
            start = 0.0
            for p in g.preds(i):
                t = finish[p]
                if m.alloc[p] != m.alloc[i]:
                    t += (len(m.paths[(p, i)]) - 1) * comm[(p, i)]
                start = max(start, t)
            finish[i] = start + g.weights[i] / GHZ
        assert latency(m) == pytest.approx(finish[g.sink])

    def test_latency_lower_bounded_by_critical_compute_path(self):
        g = series(sp_edge(GHZ, GHZ, 10.0), sp_edge(GHZ, GHZ, 10.0))
        grid = CMPGrid(2, 2)
        m = Mapping(
            g, grid,
            {i: (0, 0) for i in range(g.n)},
            {(0, 0): GHZ},
        )
        assert latency(m) >= sum(g.weights) / GHZ - 1e-9
