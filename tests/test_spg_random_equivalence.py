"""The draw/replay random SPG generator against the eager builder.

The generator draws a composition tree (consuming the RNG), predicts
its elevation, and builds an ``SPG`` only for the tree it keeps.  The
eager builder below is the generator as it was before: it built every
sample, rejected ones included.  Both must agree on every graph (weights,
labels, edge order) and leave the RNG at the same point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.spg import random_gen
from repro.spg.graph import SPG, parallel, series, sp_edge
from repro.spg.random_gen import (
    D_RANGE,
    W_RANGE,
    _build_structure,
    _draw_structure,
    random_spg,
    random_spg_with_elevation,
    random_weights,
)
from repro.util.rng import as_rng


def eager_structure(n_target: int, p_parallel: float, rng) -> SPG:
    """Reference: build an SPG with ``n_target`` stages as it is drawn."""
    if n_target < 2:
        raise ValueError("SPGs have at least 2 stages")
    if n_target == 2:
        return sp_edge(1.0, 1.0, 1.0)
    if n_target == 3 or rng.random() >= p_parallel:
        a = int(rng.integers(2, n_target))
        b = n_target + 1 - a
        return series(
            eager_structure(a, p_parallel, rng),
            eager_structure(b, p_parallel, rng),
            merge="first",
        )
    a = int(rng.integers(3, n_target))
    b = n_target + 2 - a
    return parallel(
        eager_structure(a, p_parallel, rng),
        eager_structure(b, p_parallel, rng),
        merge="first",
    )


def eager_random_spg(n, rng, p_parallel=0.6, ccr=None):
    rng = as_rng(rng)
    g = eager_structure(n, p_parallel, rng)
    return random_weights(g, rng, W_RANGE, D_RANGE, ccr)


def eager_random_spg_with_elevation(n, elevation, rng, ccr=None,
                                    max_tries=200):
    rng = as_rng(rng)
    guess = min(0.95, 0.15 + 0.08 * elevation)
    best = None
    best_gap = 10**9
    for _t in range(max_tries):
        p = float(np.clip(guess + 0.2 * rng.standard_normal(), 0.05, 0.97))
        g = eager_structure(n, p, rng)
        gap = abs(g.ymax - elevation)
        if gap < best_gap:
            best, best_gap = g, gap
        if gap == 0:
            break
        if g.ymax < elevation:
            guess = min(0.97, guess + 0.03)
        else:
            guess = max(0.05, guess - 0.03)
    return random_weights(best, rng, W_RANGE, D_RANGE, ccr)


def _assert_identical(got: SPG, want: SPG) -> None:
    assert got.weights == want.weights
    assert got.labels == want.labels
    assert list(got.edges.items()) == list(want.edges.items())


SIZES = list(range(2, 13)) + [50, 150]


def composed(tree) -> SPG:
    """Reference: a drawn tree composed through ``series``/``parallel``."""
    if not tree:
        return sp_edge(1.0, 1.0, 1.0)
    compose, left, right = tree
    return compose(composed(left), composed(right), merge="first")


class TestOneBuild:
    """The kept tree is built as one SPG, equal to its composition."""

    @pytest.mark.parametrize("n", [3, 12, 50, 150])
    @pytest.mark.parametrize("elevation", [2, 4, 8, 16, 24])
    def test_matches_composition(self, n, elevation, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            return SPG(*args, **kwargs)

        monkeypatch.setattr(random_gen, "SPG", spy)
        guess = min(0.95, 0.15 + 0.08 * elevation)
        for seed in range(4):
            rng = as_rng(seed)
            p = float(np.clip(guess + 0.2 * rng.standard_normal(),
                              0.05, 0.97))
            tree, ymax = _draw_structure(n, p, rng)
            got, want = _build_structure(tree), composed(tree)
            _assert_identical(got, want)
            assert list(got.edges) == list(want.edges)
            assert got.ymax == ymax
        assert len(built) == 4


class TestDrawReplay:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.97])
    def test_replay_matches_eager_build(self, n, p):
        for seed in range(3):
            eager_rng, draw_rng = as_rng(seed), as_rng(seed)
            want = eager_structure(n, p, eager_rng)
            tree, ymax = _draw_structure(n, p, draw_rng)
            got = _build_structure(tree)
            _assert_identical(got, want)
            assert ymax == want.ymax
            assert draw_rng.random() == eager_rng.random()

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            _draw_structure(1, 0.5, as_rng(0))


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 7, 2011])
    def test_random_spg(self, n, seed):
        eager_rng, rng = as_rng(seed), as_rng(seed)
        _assert_identical(
            random_spg(n, rng=rng, ccr=10.0),
            eager_random_spg(n, eager_rng, ccr=10.0),
        )
        assert rng.random() == eager_rng.random()

    @pytest.mark.parametrize("n", [6, 12, 50, 150])
    @pytest.mark.parametrize("elevation", [2, 4, 8, 16, 24])
    def test_random_spg_with_elevation(self, n, elevation):
        for seed in (0, 3):
            eager_rng, rng = as_rng(seed), as_rng(seed)
            _assert_identical(
                random_spg_with_elevation(n, elevation, rng=rng, ccr=1.0),
                eager_random_spg_with_elevation(
                    n, elevation, eager_rng, ccr=1.0
                ),
            )
            assert rng.random() == eager_rng.random()

    def test_mt19937_draws_through_numpy(self):
        """A generator on another bit generator than PCG64 draws every
        tree through numpy: the same graphs, the same stream after."""
        def make():
            return np.random.Generator(np.random.MT19937(2011))

        eager_rng, rng = make(), make()
        for n, elevation in ((50, 8), (150, 16)):
            _assert_identical(
                random_spg_with_elevation(n, elevation, rng=rng, ccr=10.0),
                eager_random_spg_with_elevation(
                    n, elevation, eager_rng, ccr=10.0
                ),
            )
        _assert_identical(random_spg(40, rng=rng),
                          eager_random_spg(40, eager_rng))
        assert rng.random() == eager_rng.random()

    @pytest.mark.parametrize("n,elevation,max_tries", [
        (6, 24, 200),   # unreachable: every try fails, closest kept
        (50, 24, 3),    # reachable, but not always within three tries
        (12, 8, 1),
    ])
    def test_closest_sample_fallback(self, n, elevation, max_tries):
        fallbacks = 0
        for seed in range(3):
            eager_rng, rng = as_rng(seed), as_rng(seed)
            got = random_spg_with_elevation(
                n, elevation, rng=rng, max_tries=max_tries
            )
            want = eager_random_spg_with_elevation(
                n, elevation, eager_rng, max_tries=max_tries
            )
            _assert_identical(got, want)
            assert rng.random() == eager_rng.random()
            fallbacks += got.ymax != elevation
        assert fallbacks >= 1
