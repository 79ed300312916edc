"""Random SPG generation by recursive series/parallel composition.

Mirrors Section 6.1.1 of the paper: random applications are built "by
applying recursively series and parallel compositions of SPG applications";
their size ``n``, elevation ``ymax`` and CCR are then extracted.  The
experiment runners bin graphs by achieved elevation, so
:func:`random_spg_with_elevation` provides rejection sampling with a tunable
parallel-composition probability to populate each elevation bin.
"""

from __future__ import annotations

import numpy as np

from repro.spg.graph import SPG, parallel, series, sp_edge
from repro.util.rng import as_rng

__all__ = ["random_spg", "random_spg_with_elevation", "random_weights"]

#: Default stage-weight range, in cycles (0.02 s to 0.2 s at top XScale
#: speed).  A moderate 10x spread keeps several DVFS speeds viable at the
#: periods chosen by the Section-6.1.3 procedure, like the fairly balanced
#: real StreamIt stage weights.  The scale is calibrated so that a 50-stage
#: workflow's total work sits well inside a 4x4 grid's capacity at the
#: retained period: the paper's Greedy forwards work only to right/down
#: neighbours, so on pipeline-like graphs it can reach at most p + q - 1
#: cores, and heavier scales would make it fail deterministically (the
#: paper's own weight scale is unpublished; see EXPERIMENTS.md).
W_RANGE = (2e7, 2e8)
#: Default per-edge communication range, in bytes (rescaled by CCR anyway).
D_RANGE = (1e3, 1e6)


def _draw_structure(
    n_target: int, p_parallel: float, rng: np.random.Generator
) -> tuple[object, int]:
    """Draw a composition tree with exactly ``n_target`` stages.

    Returns ``(tree, ymax)``: ``tree`` is ``()`` for the two-stage edge
    or ``(compose, left, right)`` with ``compose`` one of
    :func:`~repro.spg.graph.series` / :func:`~repro.spg.graph.parallel`,
    and ``ymax`` is the elevation :func:`_build_structure` will give it,
    so rejection sampling never builds a graph it throws away.  A series
    composition of sizes (a, b) yields a + b - 1 stages and elevation
    ``max(y1, y2)``; a parallel composition yields a + b - 2 stages and
    elevation ``y1 + y2`` (whichever side goes first, the other's inner
    stages reach its own elevation on top of the first's).
    """
    if n_target < 2:
        raise ValueError("SPGs have at least 2 stages")
    if n_target == 2:
        return (), 1
    if n_target == 3 or rng.random() >= p_parallel:
        # Series: a + b = n + 1 with a, b >= 2.
        a = int(rng.integers(2, n_target))  # 2 .. n-1
        left, y1 = _draw_structure(a, p_parallel, rng)
        right, y2 = _draw_structure(n_target + 1 - a, p_parallel, rng)
        return (series, left, right), max(y1, y2)
    # Parallel: a + b = n + 2 with a, b >= 3 (so both sides have an inner
    # stage; pairing two bare edges would just collapse into one edge).
    a = int(rng.integers(3, n_target))  # 3 .. n-1
    left, y1 = _draw_structure(a, p_parallel, rng)
    right, y2 = _draw_structure(n_target + 2 - a, p_parallel, rng)
    return (parallel, left, right), y1 + y2


def _build_structure(tree) -> SPG:
    """The SPG of a drawn composition tree (unit weights and volumes; the
    caller randomises them afterwards)."""
    if not tree:
        return sp_edge(1.0, 1.0, 1.0)
    compose, left, right = tree
    return compose(
        _build_structure(left), _build_structure(right), merge="first"
    )


def random_weights(
    spg: SPG,
    rng,
    w_range: tuple[float, float] = W_RANGE,
    d_range: tuple[float, float] = D_RANGE,
    ccr: float | None = None,
) -> SPG:
    """Randomise stage weights and communication volumes of ``spg``.

    Weights are log-uniform in ``w_range`` and volumes log-uniform in
    ``d_range``; if ``ccr`` is given the volumes are then rescaled so that
    ``sum(w) / sum(delta) == ccr`` exactly.
    """
    rng = as_rng(rng)
    lo, hi = np.log(w_range[0]), np.log(w_range[1])
    weights = np.exp(rng.uniform(lo, hi, size=spg.n)).tolist()
    lo, hi = np.log(d_range[0]), np.log(d_range[1])
    vols = np.exp(rng.uniform(lo, hi, size=len(spg.edges)))
    edges = dict(zip(sorted(spg.edges), vols.tolist()))
    out = spg.with_weights(weights=weights, edges=edges)
    if ccr is not None:
        out = out.with_ccr(ccr)
    return out


def random_spg(
    n: int,
    rng=None,
    p_parallel: float = 0.6,
    ccr: float | None = None,
    w_range: tuple[float, float] = W_RANGE,
    d_range: tuple[float, float] = D_RANGE,
) -> SPG:
    """A random SPG with exactly ``n`` stages and randomised weights."""
    rng = as_rng(rng)
    tree, _ymax = _draw_structure(n, p_parallel, rng)
    return random_weights(_build_structure(tree), rng, w_range, d_range, ccr)


def random_spg_with_elevation(
    n: int,
    elevation: int,
    rng=None,
    ccr: float | None = None,
    max_tries: int = 200,
    w_range: tuple[float, float] = W_RANGE,
    d_range: tuple[float, float] = D_RANGE,
) -> SPG:
    """A random SPG with ``n`` stages and elevation exactly ``elevation``.

    Rejection-samples composition trees, sweeping the parallel-composition
    probability from values that favour the requested elevation, and
    builds only the kept one.  Returns the first exact match; if none is
    found within ``max_tries`` the closest-elevation sample is returned
    (its *actual* ymax should then be used for binning).
    """
    rng = as_rng(rng)
    if elevation < 1:
        raise ValueError("elevation must be >= 1")
    if elevation == 1:
        from repro.spg.build import chain

        g = chain(n)
        return random_weights(g, rng, w_range, d_range, ccr)
    # Empirically the achieved elevation grows with p_parallel; sweep around
    # a heuristic initial guess.
    guess = min(0.95, 0.15 + 0.08 * elevation)
    best = None
    best_gap = 10**9
    for t in range(max_tries):
        p = float(np.clip(guess + 0.2 * rng.standard_normal(), 0.05, 0.97))
        tree, ymax = _draw_structure(n, p, rng)
        gap = abs(ymax - elevation)
        if gap < best_gap:
            best, best_gap = tree, gap
        if gap == 0:
            break
        # Steer the guess toward the target.
        if ymax < elevation:
            guess = min(0.97, guess + 0.03)
        else:
            guess = max(0.05, guess - 0.03)
    assert best is not None
    return random_weights(
        _build_structure(best), rng, w_range, d_range, ccr
    )
