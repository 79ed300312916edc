"""Reference copy of the popcount-layer ideal enumeration that word-sized
graphs (n <= 62) ran before the SP decomposition tree enumerated every
series-parallel graph.

``ideals_vector`` grows the ideals one popcount layer at a time: each
layer comes from the previous one by one masked shift-and-or per stage,
deduplicated by ``np.unique``, so the concatenated layers are the ideals
in ``(popcount, value)`` order.  It also returns the successor-free
stages of every ideal, which the lattice once built alongside.  The
enumeration tests require the tree walk to match it exactly.

``n_graph`` and ``brute_force_ideals`` serve the tests of the fallback
for graphs that are not series-parallel.
"""

from __future__ import annotations

import numpy as np

from repro.spg.graph import SPG
from repro.util.bitset import mask_of


def ideals_vector(spg) -> tuple[list[int], dict[int, int]]:
    """``(ideals, init_mask)`` of a word-sized graph: every order ideal in
    ``(popcount, value)`` order, and ideal -> mask of its successor-free
    stages."""
    n = spg.n
    assert n <= 62, "one uint64 word per mask"
    pm = [mask_of(spg.preds(i)) for i in range(n)]
    sm = [mask_of(spg.succs(i)) for i in range(n)]
    bits = [np.uint64(1 << i) for i in range(n)]
    pms = [np.uint64(m) for m in pm]
    zero = np.uint64(0)
    layers = [np.zeros(1, dtype=np.uint64)]
    layer = layers[0]
    while True:
        cands = []
        for i in range(n):
            b = bits[i]
            p = pms[i]
            sel = ((layer & b) == zero) & ((layer & p) == p)
            if sel.any():
                cands.append(layer[sel] | b)
        if not cands:
            break
        layer = np.unique(np.concatenate(cands))
        layers.append(layer)
    allv = np.concatenate(layers)
    ideals = allv.tolist()
    im = np.zeros(allv.size, dtype=np.uint64)
    for i in range(n):
        b = bits[i]
        s = np.uint64(sm[i])
        sel = ((allv & b) != zero) & ((allv & s) == zero)
        im[sel] |= b
    return ideals, dict(zip(ideals, im.tolist()))


def n_graph() -> SPG:
    """The N-graph: the smallest DAG that is not series-parallel."""
    return SPG(
        [1.0] * 6,
        None,
        {
            (0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1,
            (2, 4): 1, (3, 5): 1, (4, 5): 1,
        },
    )


def brute_force_ideals(spg: SPG) -> int:
    """Predecessor-closed subsets of a small graph, by checking all 2^n."""
    return sum(
        all(
            (mask >> j) & 1 or not (mask >> i) & 1
            for i in range(spg.n)
            for j in spg.preds(i)
        )
        for mask in range(1 << spg.n)
    )
