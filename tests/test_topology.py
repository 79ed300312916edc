"""Tests for the pluggable topology subsystem: fabrics, routing edge
cases, the registry round-trip and heterogeneous speed wiring."""

import pytest

from repro.core.evaluate import validate
from repro.core.problem import ProblemInstance
from repro.heuristics.base import PAPER_ORDER
from repro.platform import (
    CMPGrid,
    BenesTopology,
    RingTopology,
    TorusTopology,
    get_topology,
    snake_order,
    topology_names,
    torus_path,
    xy_path,
)
from repro.platform.speeds import GHZ, xscale_model
from repro.solvers import run
from repro.spg.build import chain
from repro.util.rng import as_rng


class TestGridCaching:
    def test_cores_cached_identity(self):
        g = CMPGrid(3, 3)
        assert g.cores() is g.cores()

    def test_links_cached_identity(self):
        g = CMPGrid(3, 3)
        assert g.links() is g.links()

    def test_cached_values_match_fresh_instance(self):
        a, b = CMPGrid(3, 4), CMPGrid(3, 4)
        assert a.cores() == b.cores()
        assert a.links() == b.links()

    def test_cache_excluded_from_equality(self):
        a, b = CMPGrid(2, 2), CMPGrid(2, 2)
        a.cores(), a.links()  # warm one side only
        assert a == b
        assert hash(a) == hash(b)


class TestDegenerateRouting:
    def test_xy_path_self(self):
        assert xy_path((2, 1), (2, 1)) == [(2, 1)]

    def test_route_self_on_all_fabrics(self):
        for name in topology_names():
            topo = get_topology(name, 3, 3)
            c = topo.cores()[0]
            assert topo.route(c, c) == [c]

    def test_line_path_degenerate(self):
        for name in topology_names():
            topo = get_topology(name, 2, 2)
            assert topo.line_path(1, 1) == [topo.line_order()[1]]


class TestUniDirectionalRejections:
    def test_uni_line_rejects_backward(self):
        g = CMPGrid.uni_line(4, uni_directional=True)
        assert g.is_link((0, 1), (0, 2))
        assert not g.is_link((0, 2), (0, 1))

    def test_uni_grid_rejects_up_and_left(self):
        g = CMPGrid(3, 3, uni_directional=True)
        assert not g.is_link((1, 1), (0, 1))
        assert not g.is_link((1, 1), (1, 0))
        assert g.is_link((1, 1), (2, 1))
        assert g.is_link((1, 1), (1, 2))

    def test_uniring_rejects_backward_wrap(self):
        r = get_topology("uniring", 1, 5)
        assert r.is_link((0, 4), (0, 0))  # forward wrap
        assert not r.is_link((0, 0), (0, 4))  # backward wrap

    def test_validate_path_rejects_backward_on_uniline(self):
        g = CMPGrid.uni_line(4, uni_directional=True)
        with pytest.raises(ValueError):
            g.validate_path([(0, 2), (0, 1)])


class TestSnakeNonSquare:
    def test_snake_embedding_2x5(self):
        g = CMPGrid(2, 5)
        order = g.line_order()
        assert order == snake_order(2, 5)
        assert len(order) == 10
        for a, b in zip(order, order[1:]):
            assert g.is_link(a, b)

    def test_snake_line_path_3x2(self):
        g = CMPGrid(3, 2)
        path = g.line_path(0, 5)
        assert path[0] == (0, 0) and path[-1] == (2, 1)
        assert len(path) == 6
        g.validate_path(path)


class TestTorus:
    def test_wraparound_links(self):
        t = TorusTopology(3, 4)
        assert t.is_link((0, 0), (0, 3))
        assert t.is_link((0, 0), (2, 0))
        assert not t.is_link((0, 0), (2, 3))

    def test_wraparound_path_is_shorter(self):
        t = TorusTopology(4, 4)
        path = t.route((0, 0), (0, 3))
        assert path == [(0, 0), (0, 3)]  # one wrap hop, not three mesh hops
        t.validate_path(path)

    def test_route_ties_go_forward(self):
        # On a 4-ring the distance both ways to v+2 is 2; ties go +1.
        assert torus_path(1, 4, (0, 0), (0, 2)) == [(0, 0), (0, 1), (0, 2)]

    def test_all_pairs_valid(self):
        t = TorusTopology(3, 3)
        for a in t.cores():
            for b in t.cores():
                path = t.route(a, b)
                assert path[0] == a and path[-1] == b
                t.validate_path(path)

    def test_two_wide_dimension_has_no_duplicate_links(self):
        t = TorusTopology(2, 2)
        assert len(t.links()) == len(set(t.links()))

    def test_rejects_uni_directional(self):
        with pytest.raises(ValueError):
            TorusTopology(3, 3, uni_directional=True)


class TestRing:
    def test_shortest_way_routing(self):
        r = RingTopology(6)
        assert r.route((0, 1), (0, 5)) == [(0, 1), (0, 0), (0, 5)]
        assert r.route((0, 0), (0, 2)) == [(0, 0), (0, 1), (0, 2)]

    def test_uni_ring_routes_forward_only(self):
        r = RingTopology(4, uni_directional=True)
        path = r.route((0, 3), (0, 1))
        assert path == [(0, 3), (0, 0), (0, 1)]
        r.validate_path(path)

    def test_line_order_is_linked(self):
        r = RingTopology(5, uni_directional=True)
        order = r.line_order()
        for a, b in zip(order, order[1:]):
            assert r.is_link(a, b)


class TestBenes:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_pairs_route_valid(self, k):
        b = BenesTopology(k)
        for src in b.cores():
            for dst in b.cores():
                path = b.route(src, dst)
                assert path[0] == src and path[-1] == dst
                b.validate_path(path)
                assert len(set(path)) == len(path)  # simple paths

    def test_dimensions(self):
        b = BenesTopology(2)
        assert (b.p, b.q) == (4, 5)
        assert b.n_cores == 20

    def test_cross_links_follow_stage_bits(self):
        b = BenesTopology(2)
        # First half: stage 0 toggles the high bit, stage 1 the low bit.
        assert b.is_link((0, 0), (2, 1))
        assert not b.is_link((0, 0), (1, 1))
        assert b.is_link((0, 1), (1, 2))
        # Second half mirrors: stage 2 toggles the low bit again.
        assert b.is_link((0, 2), (1, 3))
        assert not b.is_link((0, 2), (2, 3))

    def test_no_intra_column_links(self):
        b = BenesTopology(2)
        for (a, c) in b.links():
            assert abs(a[1] - c[1]) == 1


class TestRegistryRoundTrip:
    @pytest.mark.parametrize("name", sorted(topology_names()))
    def test_build_route_and_evaluate(self, name):
        """Every registered topology builds, routes, and evaluates a
        mapping produced by a real heuristic on a small chain."""
        topo = get_topology(name, 2, 2)
        # All routable pairs validate: uni-directional fabrics only route
        # forward along the line embedding (as the paper's uni-line does).
        if getattr(topo, "uni_directional", False):
            order = topo.line_order()
            pairs = [
                (order[i], order[j])
                for i in range(len(order))
                for j in range(len(order))
                if i <= j or topo.name == "ring"  # rings wrap forward
            ]
        else:
            pairs = [(a, c) for a in topo.cores() for c in topo.cores()]
        for a, c in pairs:
            topo.validate_path(topo.route(a, c))
        spg = chain(6, [2e8] * 6, [1e6] * 5)
        prob = ProblemInstance(spg, topo, 1.0)
        ok = 0
        for h in PAPER_ORDER:
            res = run(h, prob, rng=as_rng(0))
            if res.ok:
                ok += 1
                # Independent re-validation (routes, speeds, quotient).
                validate(res.mapping, prob.period)
        assert ok >= 1, f"no heuristic succeeded on {name}"


class TestHeterogeneousSpeeds:
    def test_scaled_model_values(self):
        m = xscale_model().scaled(0.5)
        assert m.speeds[0] == pytest.approx(0.075 * GHZ)
        assert m.dyn_power[-1] == pytest.approx(0.8)
        assert m.comp_leak == xscale_model().comp_leak

    def test_scaled_identity(self):
        m = xscale_model()
        assert m.scaled(1.0) is m

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            xscale_model().scaled(0.0)

    def test_hetmesh_core_models(self):
        h = get_topology("hetmesh", 2, 2)
        assert h.heterogeneous
        assert h.core_model((0, 0)) is h.model
        little = h.core_model((0, 1))
        assert little.s_max == pytest.approx(0.5 * GHZ)
        assert h.speed_set((0, 1)) != h.speed_set((0, 0))

    def test_homogeneous_flag(self):
        assert not CMPGrid(3, 3).heterogeneous

    def test_heuristics_respect_scaled_speed_sets(self):
        """Mappings on a heterogeneous platform pass structural
        validation: every core's speed is in its own scaled DVFS set."""
        h = get_topology("hetmesh", 3, 3)
        spg = chain(8, [2e8] * 8, [1e6] * 7)
        prob = ProblemInstance(spg, h, 1.0)
        ok = 0
        for name in PAPER_ORDER:
            res = run(name, prob, rng=as_rng(1))
            if res.ok:
                ok += 1
                for core, s in res.mapping.speeds.items():
                    assert s in h.speed_set(core)
        assert ok >= 3

    def test_little_core_rejects_big_speed(self):
        from repro.core.errors import MappingError
        from repro.core.mapping import Mapping

        h = get_topology("hetmesh", 2, 2)
        spg = chain(2, [1e8, 1e8], [1e6])
        # (0, 1) is a little core: the base 1 GHz speed is not in its set.
        m = Mapping(spg, h, {0: (0, 1), 1: (0, 1)}, {(0, 1): 1.0 * GHZ})
        with pytest.raises(MappingError):
            m.check_structure()
