"""Suffix-cluster enumeration: the multi-word forest and the kernels.

The Theorem-1 DP peels "last clusters" off an SPG: the non-empty up-sets
``H`` of an order ideal with weight below the period cap.  Enumerating
them is the output-sensitive hot loop feeding DPA1D.  Every path runs
on :func:`suffix_forest`, which expands the DFS trees of many ideals as
one forest, layer by layer, over ``(words, N)`` ``uint64`` mask arrays
with ``words = ceil(n / 64)``, so it serves graphs of any width:

* **n > 62.** :class:`~repro.core.partition.IdealLattice` calls the
  forest directly: DPA1D streams the lattice through it in chunks of
  ideals (:meth:`~repro.core.partition.IdealLattice.suffix_stream`),
  carrying lattice rows down the lattice's step table instead of masks,
  and the DP reconstruction runs it on one ideal at a time.  Wide
  graphs never reach the kernel registry.
* **n <= 62.** The lattice builds one flat suffix table per lattice by
  handing a kernel whole chunks of ideals
  (:meth:`EnumerationKernel.enumerate_bulk`, the only kernel entry
  point); this module makes that bulk enumeration a registry choice
  (mirroring the topology / solver / eviction registries):

  - ``python`` -- the reference implementation: :func:`reference_dfs`,
    a recursive DFS with exclusion-by-list-position and incremental
    removable-frontier tracking, looped over the chunk.  It defines the
    canonical enumeration order (a DFS preorder) that every downstream
    tie-break depends on.
  - ``vector`` -- the chunk as one single-word :func:`suffix_forest`.

The forest reproduces the reference byte for byte: same masks, same
DFS preorder, and works accumulated ``parent_work + w[stage]`` in the
same IEEE order, so golden fixtures do not move; it raises
:class:`BudgetExceeded` at the same cumulative count.

Kernel selection is ambient: an explicit ``kernel=`` argument wins, then
a process default installed by :func:`set_default_kernel` (the CLI's
``--kernel`` flag), then the ``REPRO_KERNEL`` environment variable
(inherited by pool workers), then the built-in default.  Because every
kernel produces identical output, the choice never enters fingerprints
or reports.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.core.errors import BudgetExceeded
from repro.util.bitset import iter_bits, split_words, word_count

__all__ = [
    "EnumerationKernel",
    "KernelSpec",
    "KERNELS",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "resolve_kernel",
    "set_default_kernel",
    "use_kernel",
    "reference_dfs",
    "suffix_forest",
    "KERNEL_ENV",
    "DEFAULT_KERNEL",
]

#: Environment variable consulted when no explicit kernel is given; the
#: CLI's ``--kernel`` writes it so pool workers inherit the choice.
KERNEL_ENV = "REPRO_KERNEL"

#: Built-in default.  The vector kernel is byte-identical to the
#: reference DFS and faster on enumeration-bound table builds, so it is
#: the default.
DEFAULT_KERNEL = "vector"


class EnumerationKernel:
    """One suffix-cluster enumeration strategy for word-sized graphs.

    A kernel produces, for a chunk of order ideals of a lattice, every
    non-empty up-set with weight <= ``max_weight`` — masks and
    cumulative weights, each ideal's clusters in the canonical DFS
    preorder.

    Kernels are stateless: per-lattice scratch (e.g. the forest's numpy
    tables) lives in the lattice's ``_kernel_scratch`` dict.
    """

    name = "abstract"

    def enumerate_bulk(
        self, lat, ideals, max_weight: float,
        node_budget: int | None = None, budget_msg: str | None = None,
    ):
        """Enumerate many ideals in one call: ``(M, W, counts)``.

        ``M`` (``uint64``) / ``W`` (``float64``) are the per-ideal
        clusters concatenated in the given ideal order and ``counts[k]``
        the number of clusters of ``ideals[k]``.  When the cumulative
        cluster count exceeds ``node_budget`` the call raises
        :class:`BudgetExceeded` with ``budget_msg``.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class KernelSpec:
    """Registry entry: identity, one-line summary, zero-arg factory."""

    name: str
    summary: str
    factory: Callable[[], EnumerationKernel]


KERNELS: dict[str, KernelSpec] = {}
_INSTANCES: dict[str, EnumerationKernel] = {}


def register_kernel(name: str, summary: str):
    """Class decorator registering an enumeration kernel under ``name``."""

    def deco(cls):
        cls.name = name
        KERNELS[name] = KernelSpec(name=name, summary=summary, factory=cls)
        _INSTANCES.pop(name, None)
        return cls

    return deco


def kernel_names() -> list[str]:
    """Registered kernel names, sorted."""
    return sorted(KERNELS)


def get_kernel(name: str) -> EnumerationKernel:
    """The (singleton) kernel registered under ``name``.

    Raises ``KeyError`` naming the available kernels, like the topology
    and eviction registries.
    """
    inst = _INSTANCES.get(name)
    if inst is None:
        spec = KERNELS.get(name)
        if spec is None:
            raise KeyError(
                f"unknown enumeration kernel {name!r}; "
                f"available: {', '.join(kernel_names())}"
            )
        inst = _INSTANCES[name] = spec.factory()
    return inst


#: Process-wide default installed by :func:`set_default_kernel` (used by
#: the CLI and sweep plumbing); ``None`` defers to ``REPRO_KERNEL``.
_DEFAULT: str | None = None


def set_default_kernel(name: str | None) -> None:
    """Install ``name`` as the process default kernel (validated).

    Also exports ``REPRO_KERNEL`` so process-pool workers spawned later
    inherit the choice; ``None`` clears both.
    """
    global _DEFAULT
    if name is not None:
        get_kernel(name)  # validate eagerly
        os.environ[KERNEL_ENV] = name
    else:
        os.environ.pop(KERNEL_ENV, None)
    _DEFAULT = name


@contextmanager
def use_kernel(name: str | None):
    """Scoped :func:`set_default_kernel`, restoring the previous state."""
    global _DEFAULT
    prev_default = _DEFAULT
    prev_env = os.environ.get(KERNEL_ENV)
    try:
        if name is not None:
            set_default_kernel(name)
        yield
    finally:
        _DEFAULT = prev_default
        if prev_env is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = prev_env


def resolve_kernel(
    kernel: "str | EnumerationKernel | None" = None,
) -> EnumerationKernel:
    """Resolve an explicit kernel, the process default, or the env var."""
    if isinstance(kernel, EnumerationKernel):
        return kernel
    name = (
        kernel
        or _DEFAULT
        or os.environ.get(KERNEL_ENV)
        or DEFAULT_KERNEL
    )
    return get_kernel(name)


# ----------------------------------------------------------------------
# The reference kernel: recursive DFS (any graph size)
# ----------------------------------------------------------------------
def reference_dfs(
    lat, ideal: int, max_weight: float
) -> tuple[list[int], list[float]]:
    """Suffix clusters of one ideal by the reference DFS (any graph size).

    Returns ``(masks, works)`` as Python lists in the canonical DFS
    preorder.  ``start`` indexes into a shared candidate list so the
    common "no freshly exposed stage" case recurses without copying; the
    enumeration order (and therefore every downstream tie-break) is
    identical to a naive slice-and-concatenate implementation.
    """
    masks_l: list[int] = []
    works_l: list[float] = []
    sm = lat._succ_mask
    pm = lat._pred_mask
    w = lat._weights
    masks_append = masks_l.append
    works_append = works_l.append
    init = lat._init_list(ideal)

    def rec(
        h: int,
        h_weight: float,
        cands: list[int],
        start: int,
        # Hot-loop constants bound as defaults (LOAD_FAST).
        sm=sm,
        pm=pm,
        w=w,
        ideal=ideal,
        max_weight=max_weight,
        masks_append=masks_append,
        works_append=works_append,
    ) -> None:
        end = len(cands)
        for idx in range(start, end):
            i = cands[idx]
            nw = h_weight + w[i]
            if nw > max_weight:
                continue
            nh = h | (1 << i)
            masks_append(nh)
            works_append(nw)
            rem = ideal ^ nh
            m = pm[i] & rem
            if m:
                fresh = []
                while m:
                    low = m & -m
                    p = low.bit_length() - 1
                    m ^= low
                    if sm[p] & rem == 0:
                        fresh.append(p)
                if fresh:
                    rec(nh, nw, cands[idx + 1 : end] + fresh, 0)
                    continue
            if idx + 1 < end:
                rec(nh, nw, cands, idx + 1)

    rec(0, 0.0, init, 0)
    return masks_l, works_l


@register_kernel(
    "python",
    "reference recursive DFS, one ideal at a time; defines the canonical "
    "order",
)
class PythonKernel(EnumerationKernel):
    """:func:`reference_dfs` looped over the chunk."""

    def enumerate_bulk(
        self, lat, ideals, max_weight: float,
        node_budget: int | None = None, budget_msg: str | None = None,
    ):
        import numpy as np

        counts = np.zeros(len(ideals), dtype=np.intp)
        masks_l: list[int] = []
        works_l: list[float] = []
        for k, ideal in enumerate(ideals):
            masks, works = reference_dfs(lat, ideal, max_weight)
            counts[k] = len(masks)
            masks_l += masks
            works_l += works
            if node_budget is not None and len(masks_l) > node_budget:
                raise BudgetExceeded(budget_msg)
        return (
            np.array(masks_l, dtype=np.uint64),
            np.array(works_l, dtype=np.float64),
            counts,
        )


# ----------------------------------------------------------------------
# The suffix forest: frontier-batched bitset enumeration, any width
# ----------------------------------------------------------------------
def _forest_state(lat):
    """Per-lattice numpy tables of the forest, cached in the lattice's
    ``_kernel_scratch``: successor masks and each stage's own bit split
    into words, the stage weights, and each stage's predecessors as an
    ascending CSR list."""
    import numpy as np

    st = lat._kernel_scratch.get("forest")
    if st is None:
        n = len(lat._weights)
        words = word_count(n)
        preds = [list(iter_bits(m)) for m in lat._pred_mask]
        pred_deg = np.array([len(ps) for ps in preds], np.intp)
        st = lat._kernel_scratch["forest"] = (
            words,
            split_words(lat._succ_mask, words),
            split_words([1 << i for i in range(n)], words),
            np.array(lat._weights, dtype=np.float64),
            np.cumsum(pred_deg) - pred_deg,
            pred_deg,
            np.array([p for ps in preds for p in ps], dtype=np.intp),
        )
    return st


def _maximal_stages(lat, ideals):
    """``(R, n)`` bool array: ``[k, i]`` is set when stage ``i`` is
    maximal in ideal ``k`` of the ``(words, R)`` array ``ideals`` (in
    it, with no successor in it)."""
    import numpy as np

    words, sm, stage_bits = _forest_state(lat)[:3]
    inside = np.zeros((ideals.shape[1], stage_bits.shape[1]), bool)
    free = np.ones_like(inside)
    for k in range(words):
        inside |= (ideals[k][:, None] & stage_bits[k]) != 0
        free &= (ideals[k][:, None] & sm[k]) == 0
    return inside & free


def suffix_forest(
    lat, roots, max_weight: float,
    node_budget: int | None = None, budget_msg: str | None = None,
    root_rows=None,
):
    """Suffix clusters of many ideals at once, as one DFS forest.

    ``roots`` is a ``(words, R)`` ``uint64`` array of order ideals
    (:func:`split_words`, ``words = ceil(n / 64)``).  Returns ``(M, W,
    counts)``: ``M`` a ``(words, T)`` ``uint64`` array and ``W`` the
    ``float64`` works of every root's clusters, concatenated in root
    order, each root's in the canonical DFS preorder of
    :func:`reference_dfs`, and ``counts[k]`` the number of clusters of
    root ``k``.  Masks *and* works are byte-identical to the reference:
    works accumulate ``parent_work + w[stage]``, the DFS's own IEEE
    order.  When the cumulative cluster count exceeds ``node_budget``
    the call raises :class:`BudgetExceeded` with ``budget_msg``, exactly
    when the reference loop would.

    ``root_rows``, when given, holds the roots' indices in
    ``lat.ideals()``.  The forest then carries each node's remainder
    row instead of its cluster and remainder masks, and returns in
    place of ``M`` the ``intp`` row of every cluster's prefix (the root
    minus the cluster), in the same order.  A child's row is one read
    of the lattice's step table (:meth:`IdealLattice.step_table`),
    ``step[parent_row, stage]``, and a predecessor of the stage is
    freshly removable exactly when its own entry in the child's row is
    set, so this mode touches no mask word past the roots.

    Every DFS node at depth d is a (mask, work, candidate-list) state;
    the forest keeps one flat batch per depth -- clusters and their
    remainders (ideal minus cluster) as ``(words, N)`` masks, works, and
    the ragged candidate lists as one flat stage array plus per-node
    counts -- and derives depth d+1 with a fixed number of whole-array
    operations per mask word:

    * weight pruning is one ``parent_work + w[cand] <= cap`` compare
      (works are monotone along DFS paths, so pruning a node prunes its
      whole subtree exactly like the DFS ``continue``);
    * the freshly removable stages are a CSR gather: the predecessors of
      the stage just added all lie in the remainder, so the fresh ones
      are exactly its predecessors ``p`` with ``succ_mask[p] & rem ==
      0``, and an ascending predecessor list keeps the DFS's candidate
      order;
    * a child's candidate list is its parent's tail after the chosen
      position followed by its fresh stages, placed by
      ``repeat``/``arange`` index arithmetic.

    The preorder is then reconstructed exactly: subtree sizes bottom-up
    (one ``bincount`` per layer), then preorder positions top-down
    (``pos[child] = pos[parent] + 1 +`` exclusive segmented cumsum of
    elder-sibling subtree sizes), and one scatter per layer.

    Gathers use ``ndarray.take`` (several times faster than fancy
    indexing along the word axis) and selections ``ndarray.compress``;
    the method forms also skip numpy's Python-level wrappers, which
    dominate on the small layers of a one-ideal forest.
    """
    import numpy as np

    words, sm, stage_bits, w_f, pred_start, pdeg, pred_idx = _forest_state(lat)
    cap = float(max_weight)
    n_roots = roots.shape[1]
    # Root candidates: the ideal's successor-free stages, ascending.
    root_of, cand_flat = np.nonzero(_maximal_stages(lat, roots))
    cand_counts = np.bincount(root_of, minlength=n_roots)
    # Each node carries its cluster and its remainder (ideal \ cluster),
    # or only the remainder's lattice row.
    by_row = root_rows is not None
    if by_row:
        n = stage_bits.shape[1]
        step = lat.step_table().ravel()
        rows = np.asarray(root_rows, np.intp)
    else:
        masks = np.zeros((words, n_roots), np.uint64)
        rems = roots
    works = np.zeros(n_roots, np.float64)
    layer_out: list = []
    layer_works: list = []
    layer_par: list = []
    total = 0
    while cand_flat.size:
        n_par = works.size
        offsets = np.zeros(n_par + 1, np.intp)
        cand_counts.cumsum(out=offsets[1:])
        parent = np.arange(n_par, dtype=np.intp).repeat(cand_counts)
        nw = works.take(parent) + w_f.take(cand_flat)
        cpos = (nw <= cap).nonzero()[0]
        n_child = cpos.size
        if n_child == 0:
            break
        if n_child == nw.size:
            # Nothing pruned (common in early layers): skip the gather
            # and keep the parent-order arrays as-is.
            cpar, ci, cwork = parent, cand_flat, nw
        else:
            cpar = parent.take(cpos)
            ci = cand_flat.take(cpos)
            cwork = nw.take(cpos)
        total += n_child
        if node_budget is not None and total > node_budget:
            raise BudgetExceeded(budget_msg)
        if by_row:
            crow = step.take(rows.take(cpar) * n + ci).astype(np.intp)
            layer_out.append(crow)
        else:
            sb = stage_bits.take(ci, axis=1)
            cmask = masks.take(cpar, axis=1) | sb
            crem = rems.take(cpar, axis=1) ^ sb
            layer_out.append(cmask)
        layer_works.append(cwork)
        layer_par.append(cpar)
        # Fresh stages: every (child, predecessor of its stage) pair.
        deg = pdeg.take(ci)
        pstart = deg.cumsum() - deg
        pair_child = np.arange(n_child, dtype=np.intp).repeat(deg)
        p = pred_idx.take((pred_start.take(ci) - pstart).repeat(deg)
                          + np.arange(pair_child.size, dtype=np.intp))
        if by_row:
            fresh = step.take(crow.take(pair_child) * n + p) >= 0
        else:
            fresh = np.ones(pair_child.size, bool)
            for k in range(words):
                fresh &= (sm[k].take(p) & crem[k].take(pair_child)) == 0
        fchild = pair_child.compress(fresh)
        fresh_counts = np.bincount(fchild, minlength=n_child)
        # Parent-tail candidates surviving for each child.
        tail_counts = offsets.take(cpar + 1) - cpos - 1
        new_counts = tail_counts + fresh_counts
        new_start = new_counts.cumsum() - new_counts
        nt = int(new_start[-1] + new_counts[-1])
        if nt == 0:
            break
        new_flat = np.empty(nt, np.intp)
        tail_start = tail_counts.cumsum() - tail_counts
        tt = int(tail_start[-1] + tail_counts[-1])
        if tt:
            k = np.arange(tt, dtype=np.intp)
            new_flat[(new_start - tail_start).repeat(tail_counts) + k] = (
                cand_flat.take((cpos + 1 - tail_start).repeat(tail_counts) + k)
            )
        if nt > tt:
            fstart = fresh_counts.cumsum() - fresh_counts
            k = np.arange(nt - tt, dtype=np.intp)
            new_flat[
                (new_start + tail_counts - fstart).repeat(fresh_counts) + k
            ] = p.compress(fresh)
        if by_row:
            rows = crow
        else:
            masks, rems = cmask, crem
        works = cwork
        cand_flat, cand_counts = new_flat, new_counts

    if total == 0:
        return (
            np.empty(0, np.intp) if by_row
            else np.empty((words, 0), np.uint64),
            np.empty(0, np.float64),
            np.zeros(n_roots, np.intp),
        )
    # Subtree sizes, bottom-up: one weighted bincount per layer.
    depth = len(layer_works)
    sizes: list = [None] * depth
    sizes[depth - 1] = np.ones(layer_works[depth - 1].size, np.intp)
    for d in range(depth - 1, 0, -1):
        acc = np.bincount(
            layer_par[d], weights=sizes[d], minlength=layer_works[d - 1].size
        ).astype(np.intp)
        acc += 1
        sizes[d - 1] = acc
    root_totals = np.bincount(
        layer_par[0], weights=sizes[0], minlength=n_roots
    ).astype(np.intp)
    # Preorder positions, top-down: within each sibling group, a node
    # sits 1 + (elder siblings' subtree sizes) after its parent; the
    # segmented exclusive cumsum is the global cumsum minus each group's
    # starting value.  Virtual roots sit one slot before their tree's
    # output range.
    pos_parent = root_totals.cumsum() - root_totals - 1
    out_m = (np.empty(total, np.intp) if by_row
             else np.empty((words, total), np.uint64))
    out_w = np.empty(total, np.float64)
    n_prev = n_roots
    for d in range(depth):
        par = layer_par[d]
        sz = sizes[d]
        cs = sz.cumsum() - sz
        change = np.empty(par.size, bool)
        change[0] = True
        np.not_equal(par[1:], par[:-1], out=change[1:])
        fidx = change.nonzero()[0]
        group_start = np.zeros(n_prev, np.intp)
        group_start[par.take(fidx)] = cs.take(fidx)
        pos_d = pos_parent.take(par) + 1 + (cs - group_start.take(par))
        if by_row:
            out_m[pos_d] = layer_out[d]
        else:
            for k in range(words):
                out_m[k][pos_d] = layer_out[d][k]
        out_w[pos_d] = layer_works[d]
        pos_parent = pos_d
        n_prev = layer_works[d].size
    return out_m, out_w, root_totals


@register_kernel(
    "vector",
    "frontier-batched uint64 numpy enumeration, exact DFS order",
)
class VectorKernel(EnumerationKernel):
    """The chunk's DFS trees expanded as one :func:`suffix_forest`.

    Batching is what pays: layer batches hold the states of hundreds of
    ideals' trees at once, so the fixed numpy dispatch cost per layer
    amortises away.
    """

    def enumerate_bulk(
        self, lat, ideals, max_weight: float,
        node_budget: int | None = None, budget_msg: str | None = None,
    ):
        M, W, counts = suffix_forest(
            lat, split_words(ideals, 1), max_weight, node_budget, budget_msg
        )
        return M[0], W, counts
