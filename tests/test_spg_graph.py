"""Unit tests for the SPG data structure and its composition rules."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.spg.graph import SPG, parallel, series, sp_edge


class TestSpEdge:
    def test_labels(self):
        g = sp_edge(1.0, 2.0, 3.0)
        assert g.labels == ((1, 1), (2, 1))

    def test_weights_and_comm(self):
        g = sp_edge(1.0, 2.0, 3.0)
        assert g.weights == (1.0, 2.0)
        assert g.comm(0, 1) == 3.0
        assert g.comm(1, 0) == 0.0

    def test_source_sink(self):
        g = sp_edge(1.0, 2.0, 3.0)
        assert g.source == 0
        assert g.sink == 1

    def test_dims(self):
        g = sp_edge(1.0, 2.0, 3.0)
        assert g.xmax == 2
        assert g.ymax == 1
        assert g.n == 2


class TestSeriesComposition:
    def test_node_count(self):
        g = series(sp_edge(1, 2, 1), sp_edge(3, 4, 1))
        assert g.n == 3  # 2 + 2 - 1

    def test_merged_weight_sum(self):
        g = series(sp_edge(1, 2, 1), sp_edge(3, 4, 1))
        assert g.weights == (1.0, 5.0, 4.0)

    def test_merge_first(self):
        g = series(sp_edge(1, 2, 1), sp_edge(3, 4, 1), merge="first")
        assert g.weights[1] == 2.0

    def test_merge_second(self):
        g = series(sp_edge(1, 2, 1), sp_edge(3, 4, 1), merge="second")
        assert g.weights[1] == 3.0

    def test_merge_max(self):
        g = series(sp_edge(1, 2, 1), sp_edge(3, 4, 1), merge="max")
        assert g.weights[1] == 3.0

    def test_merge_callable(self):
        g = series(
            sp_edge(1, 2, 1), sp_edge(3, 4, 1), merge=lambda a, b: a * b
        )
        assert g.weights[1] == 6.0

    def test_bad_merge_rule(self):
        with pytest.raises(ValueError):
            series(sp_edge(1, 2, 1), sp_edge(3, 4, 1), merge="bogus")

    def test_labels_shift_x(self):
        g = series(sp_edge(1, 2, 1), sp_edge(3, 4, 1))
        assert g.labels == ((1, 1), (2, 1), (3, 1))

    def test_xmax_additive(self):
        g1 = series(sp_edge(1, 1, 1), sp_edge(1, 1, 1))  # xmax 3
        g2 = series(g1, g1)
        assert g2.xmax == 5  # 3 + 3 - 1

    def test_sink_is_last(self):
        g = series(sp_edge(1, 2, 1), sp_edge(3, 4, 1))
        assert g.labels[g.sink] == (3, 1)

    def test_edge_volumes_kept(self):
        g = series(sp_edge(1, 2, 5.0), sp_edge(3, 4, 7.0))
        assert g.comm(0, 1) == 5.0
        assert g.comm(1, 2) == 7.0

    def test_elevation_is_max(self):
        dia = parallel(
            series(sp_edge(1, 1, 1), sp_edge(1, 1, 1)),
            series(sp_edge(1, 1, 1), sp_edge(1, 1, 1)),
        )
        g = series(dia, sp_edge(1, 1, 1))
        assert g.ymax == dia.ymax == 2


class TestParallelComposition:
    def _branch(self, length=3):
        g = sp_edge(1, 1, 1)
        for _ in range(length - 2):
            g = series(g, sp_edge(1, 1, 1))
        return g

    def test_node_count(self):
        g = parallel(self._branch(), self._branch())
        assert g.n == 4  # 3 + 3 - 2

    def test_elevation_stacks(self):
        g = parallel(self._branch(), self._branch())
        assert g.ymax == 2
        g3 = parallel(g, self._branch())
        assert g3.ymax == 3

    def test_longest_path_first(self):
        short = self._branch(3)
        long = self._branch(5)
        g1 = parallel(short, long)
        g2 = parallel(long, short)
        # Result is order-insensitive up to renumbering: same dims.
        assert g1.xmax == g2.xmax == 5
        assert g1.ymax == g2.ymax == 2
        assert g1.n == g2.n == 6

    def test_source_label_invariant(self):
        g = parallel(self._branch(), self._branch(4))
        assert g.labels[g.source] == (1, 1)

    def test_sink_y_is_one(self):
        g = parallel(self._branch(), self._branch(4))
        assert g.labels[g.sink][1] == 1

    def test_source_weight_merged(self):
        a, b = self._branch(), self._branch()
        g = parallel(a, b)
        assert g.weights[g.source] == 2.0  # 1 + 1 (sum rule)

    def test_direct_edges_accumulate(self):
        # Two bare edges in parallel collapse onto a single (0, 1) edge.
        g = parallel(sp_edge(1, 1, 5.0), sp_edge(1, 1, 7.0))
        assert g.n == 2
        assert g.comm(0, 1) == 12.0

    def test_rejects_single_node(self):
        single = SPG([1.0], [(1, 1)], {})
        with pytest.raises(ValueError):
            parallel(single, sp_edge(1, 1, 1))

    def test_inner_y_shift(self):
        g = parallel(self._branch(), self._branch())
        ys = sorted(y for _x, y in g.labels)
        assert ys == [1, 1, 1, 2]  # source, sink, branch1, branch2


class TestValidation:
    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            SPG([1, 1], [(1, 1), (2, 1)], {(0, 1): 1, (1, 0): 1})

    def test_second_source_rejected(self):
        with pytest.raises(ValueError, match="second source"):
            SPG(
                [1, 1, 1],
                [(1, 1), (1, 2), (2, 1)],
                {(0, 2): 1, (1, 2): 1},
            )

    def test_second_sink_rejected(self):
        with pytest.raises(ValueError, match="second sink"):
            SPG(
                [1, 1, 1],
                [(1, 1), (2, 1), (2, 2)],
                {(0, 1): 1, (0, 2): 1},
            )

    def test_edge_must_increase_x(self):
        with pytest.raises(ValueError, match="does not increase x"):
            SPG([1, 1], [(1, 1), (1, 1)], {(0, 1): 1})

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="unknown stage"):
            SPG([1, 1], [(1, 1), (2, 1)], {(0, 5): 1})

    def test_source_label_enforced(self):
        with pytest.raises(ValueError, match="source label"):
            SPG([1, 1], [(2, 1), (3, 1)], {(0, 1): 1})

    def test_fallback_labels(self):
        g = SPG([1, 1, 1, 1], None, {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1})
        assert g.labels[0] == (1, 1)
        assert g.labels[3][0] == 3
        assert g.ymax == 2


class TestAccessors:
    def test_topological_order(self, small_diamond):
        order = small_diamond.topological_order()
        pos = {node: k for k, node in enumerate(order)}
        for (i, j) in small_diamond.edges:
            assert pos[i] < pos[j]

    def test_preds_succs(self, small_diamond):
        g = small_diamond
        assert set(g.succs(g.source)) == {1, 2}
        assert set(g.preds(g.sink)) == {1, 2}

    def test_levels(self, small_chain):
        lv = small_chain.levels()
        assert list(lv) == [1, 2, 3, 4, 5]
        assert all(len(nodes) == 1 for nodes in lv.values())

    def test_total_work(self, small_chain):
        assert small_chain.total_work == pytest.approx(12e8)

    def test_ccr(self, small_chain):
        assert small_chain.ccr == pytest.approx(12e8 / 4e7)

    def test_ccr_no_comm_is_inf(self):
        g = sp_edge(1, 1, 0.0)
        assert g.ccr == float("inf")

    def test_to_networkx(self, small_diamond):
        nxg = small_diamond.to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 4
        assert nxg.nodes[0]["x"] == 1

    def test_import_does_not_load_networkx(self):
        """Only ``to_networkx`` needs networkx, so a worker that never
        exports a graph never pays for importing it."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        code = "import sys, repro; print('networkx' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    def test_equality_and_hash(self, small_diamond):
        clone = SPG(
            list(small_diamond.weights),
            list(small_diamond.labels),
            dict(small_diamond.edges),
        )
        assert clone == small_diamond
        assert hash(clone) == hash(small_diamond)

    def test_inequality(self, small_diamond, small_chain):
        assert small_diamond != small_chain
        assert small_diamond != "not an SPG"


class TestRescaling:
    def test_with_ccr_exact(self, small_diamond):
        g = small_diamond.with_ccr(10.0)
        assert g.ccr == pytest.approx(10.0)

    def test_with_ccr_preserves_structure(self, small_diamond):
        g = small_diamond.with_ccr(0.1)
        assert g.labels == small_diamond.labels
        assert g.weights == small_diamond.weights
        assert set(g.edges) == set(small_diamond.edges)

    def test_with_ccr_rejects_nonpositive(self, small_diamond):
        with pytest.raises(ValueError):
            small_diamond.with_ccr(0.0)

    def test_with_ccr_rejects_no_comm(self):
        g = sp_edge(1, 1, 0.0)
        with pytest.raises(ValueError):
            g.with_ccr(1.0)

    def test_with_comm_scaled(self, small_diamond):
        g = small_diamond.with_comm_scaled(2.0)
        assert g.total_comm == pytest.approx(2 * small_diamond.total_comm)

    def test_with_weights_replaces(self, small_diamond):
        g = small_diamond.with_weights(weights=[1, 2, 3, 4])
        assert g.weights == (1.0, 2.0, 3.0, 4.0)

    def test_with_weights_unknown_edge(self, small_diamond):
        with pytest.raises(KeyError):
            small_diamond.with_weights(edges={(0, 3): 1.0})
