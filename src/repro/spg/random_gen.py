"""Random SPG generation by recursive series/parallel composition.

Mirrors Section 6.1.1 of the paper: random applications are built "by
applying recursively series and parallel compositions of SPG applications";
their size ``n``, elevation ``ymax`` and CCR are then extracted.  The
experiment runners bin graphs by achieved elevation, so
:func:`random_spg_with_elevation` provides rejection sampling with a tunable
parallel-composition probability to populate each elevation bin.

A composition tree costs one ``random()`` and one ``integers()`` draw per
node, and rejection sampling draws about 39 trees per kept 150-stage
graph.  Each tree is drawn through :func:`repro.util.rng.raw_draws`, which
serves those draws from PCG64 raw words fetched in bulk and then leaves
the generator where numpy's own draws would, so the graphs and every
later draw (``standard_normal``, :func:`random_weights`) are unchanged.
Only the kept tree is built, as one ``SPG`` whose stages, labels and
edge order are those its compositions would give.
"""

from __future__ import annotations

import numpy as np

from repro.spg.graph import SPG, parallel, series
from repro.util.rng import as_rng, raw_draws

__all__ = ["random_spg", "random_spg_with_elevation", "random_weights"]

#: Default stage-weight range, in cycles (0.02 s to 0.2 s at top XScale
#: speed).  A moderate 10x spread keeps several DVFS speeds viable at the
#: periods chosen by the Section-6.1.3 procedure, like the fairly balanced
#: real StreamIt stage weights.  The scale is calibrated so that a 50-stage
#: workflow's total work sits well inside a 4x4 grid's capacity at the
#: retained period: the paper's Greedy forwards work only to right/down
#: neighbours, so on pipeline-like graphs it can reach at most p + q - 1
#: cores, and heavier scales would make it fail deterministically (the
#: paper's own weight scale is unpublished; ROADMAP.md item 4 plans its
#: calibration).
W_RANGE = (2e7, 2e8)
#: Default per-edge communication range, in bytes (rescaled by CCR anyway).
D_RANGE = (1e3, 1e6)


def _draw_structure(
    n_target: int, p_parallel: float, rng
) -> tuple[object, int]:
    """Draw a composition tree with exactly ``n_target`` stages.

    ``rng`` is a :class:`numpy.random.Generator` or the
    :class:`~repro.util.rng.RawDraws` of one: only its ``random()`` and
    ``integers(low, high)`` are called.

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
    caller randomises them afterwards): the graph
    :func:`~repro.spg.graph.series` and :func:`~repro.spg.graph.parallel`
    compose with ``merge="first"``, built as one ``SPG``."""
    labels, edges, _ymax = _compose(tree)
    return SPG([1.0] * len(labels), labels, edges, validate=False)


def _compose(tree) -> tuple[list, dict, int]:
    """``(labels, edges, ymax)`` of a composition tree, exactly as the
    composition functions number the stages, label them and insert the
    edges: :func:`random_weights` draws the volumes in ``edges`` order,
    and ``edge_list`` order feeds every float fold downstream.  Every
    weight stays 1.0 under ``merge="first"``."""
    if not tree:
        return [(1, 1), (2, 1)], {(0, 1): 1.0}, 1
    compose, left, right = tree
    labels1, edges1, y1 = _compose(left)
    labels2, edges2, y2 = _compose(right)
    if compose is series:
        # The second graph's stage j is stage n1 - 1 + j (its source is
        # the first graph's sink), its levels shifted past the first's.
        n1, shift = len(labels1), labels1[-1][0] - 1
        labels1 += [(x + shift, y) for x, y in labels2[1:]]
        for (i, j), d in edges2.items():
            edges1[(n1 - 1 + i, n1 - 1 + j)] = d
        return labels1, edges1, max(y1, y2)
    # Parallel: the longer graph goes first; the second's inner stages
    # follow the first's, raised above its rows, and the sink goes last.
    if labels1[-1][0] < labels2[-1][0]:
        labels1, edges1, y1, labels2, edges2, y2 = (
            labels2, edges2, y2, labels1, edges1, y1)
    n1, n2 = len(labels1), len(labels2)
    sink = n1 + n2 - 3
    labels = labels1[:-1] + [(x, y + y1) for x, y in labels2[1:-1]]
    labels.append(labels1[-1])
    edges = {(i, sink if j == n1 - 1 else j): d
             for (i, j), d in edges1.items()}
    for (i, j), d in edges2.items():
        e = (0 if i == 0 else n1 - 2 + i,
             sink if j == n2 - 1 else n1 - 2 + j)
        # Two source-to-sink edges add up, as in parallel().
        edges[e] = edges.get(e, 0.0) + d
    return labels, edges, y1 + y2


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
    with raw_draws(rng) as draws:
        tree, _ymax = _draw_structure(n, p_parallel, draws)
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
        with raw_draws(rng) as draws:
            tree, ymax = _draw_structure(n, p, draws)
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
