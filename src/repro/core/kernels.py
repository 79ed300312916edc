"""Pluggable suffix-cluster enumeration kernels.

The Theorem-1 DP peels "last clusters" off an SPG: the non-empty up-sets
``H`` of an order ideal with weight below the period cap.  Enumerating
them is the output-sensitive hot loop feeding DPA1D.  For word-sized
graphs (n <= 62) :class:`~repro.core.partition.IdealLattice` builds one
flat suffix table per lattice by handing a kernel whole chunks of
ideals (:meth:`EnumerationKernel.enumerate_bulk`, the only kernel entry
point); this module makes that bulk enumeration a registry choice
(mirroring the topology / solver / eviction registries):

* ``python`` — the reference implementation: :func:`reference_dfs`, a
  recursive DFS with exclusion-by-list-position and incremental
  removable-frontier tracking, looped over the chunk.  It defines the
  canonical enumeration order (a DFS preorder) that every downstream
  tie-break depends on.
* ``vector`` — an explicit-stack, frontier-batched bitset enumeration:
  the chunk's DFS trees expand as one forest, whole layers at a time,
  as ``uint64`` numpy batches (one vectorised weight-pruning pass,
  ``pred_mask & remaining`` freshness tests as bit-twiddling on arrays),
  then the exact DFS preorder is reconstructed from per-layer subtree
  sizes.  Masks *and* works come out byte-identical to the reference
  kernel — works accumulate ``parent_work + w[stage]`` in the same IEEE
  order — so golden fixtures do not move.

Graphs wider than a machine word never reach a kernel: the lattice
reads their suffix clusters one ideal at a time through
:func:`reference_dfs`, whatever kernel is selected.

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

    Kernels are stateless: per-lattice scratch (e.g. numpy views of the
    predecessor masks) lives in the lattice's ``_kernel_scratch`` dict.
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
# The vector kernel: frontier-batched bitset enumeration
# ----------------------------------------------------------------------
@register_kernel(
    "vector",
    "frontier-batched uint64 numpy enumeration, exact DFS order",
)
class VectorKernel(EnumerationKernel):
    """Layer-at-a-time expansion of the suffix-cluster DFS forest.

    Every DFS node at depth d is a (mask, work, candidate-list) state;
    the kernel keeps one flat batch per depth — masks as ``uint64``,
    works as ``float64``, the ragged candidate lists as one flat index
    array plus per-node counts — and derives depth d+1 with whole-array
    operations:

    * weight pruning is one ``parent_work + w[cand] <= cap`` compare
      (works are monotone along DFS paths, so pruning a node prunes its
      whole subtree exactly like the DFS ``continue``);
    * the freshly-removable test (``p`` a predecessor of the added stage
      with no successor left in the remainder) runs as one
      ``(pred & rem) & bit`` / ``rem & succ_mask[p] == 0`` pass over the
      batch per stage *present in the batch's predecessor union*;
    * child candidate lists are the parent tail after the chosen
      position plus the fresh stages in ascending order, materialised
      with ``repeat``/``arange`` index arithmetic (ranks of fresh bits
      via popcount of the bits below).

    Batching is what pays: :meth:`enumerate_bulk` expands the trees of
    *many* ideals as one forest (each node carries its root's ideal),
    so layer batches hold hundreds of thousands of states and the fixed
    numpy dispatch cost amortises away.

    The output order is reconstructed exactly: subtree sizes bottom-up
    (one ``bincount`` per layer), then preorder positions top-down
    (``pos[child] = pos[parent] + 1 +`` exclusive segmented cumsum of
    elder-sibling subtree sizes), and one scatter per layer.  Works
    accumulate ``parent_work + w[stage]`` — the DFS's own IEEE order —
    so masks *and* works are byte-identical to the reference kernel.
    A build raises :class:`BudgetExceeded` exactly when the reference
    kernel's would, with the same message.
    """

    def _state(self, lat):
        import numpy as np

        st = lat._kernel_scratch.get("vector")
        if st is None:
            n = len(lat._weights)
            pm_u = np.array(lat._pred_mask, dtype=np.uint64)
            sm_u = np.array(lat._succ_mask, dtype=np.uint64)
            w_f = np.array(lat._weights, dtype=np.float64)
            bit_u = np.left_shift(
                np.uint64(1), np.arange(n, dtype=np.uint64)
            )
            st = lat._kernel_scratch["vector"] = (pm_u, sm_u, w_f, bit_u)
        return st

    def enumerate_bulk(
        self, lat, ideals, max_weight: float,
        node_budget: int | None = None, budget_msg: str | None = None,
    ):
        import numpy as np

        root_ideals = np.fromiter(
            ideals, dtype=np.uint64, count=len(ideals)
        )
        flat, counts = self._root_candidates(lat, ideals, root_ideals)
        out_m, out_w, root_counts = self._expand(
            self._state(lat),
            root_ideals,
            flat,
            counts,
            float(max_weight),
            node_budget,
            budget_msg,
        )
        return out_m, out_w, root_counts.astype(np.intp)

    def _root_candidates(self, lat, ideals, root_ideals):
        """Initial candidate lists (successor-free stages, ascending)
        for every root, as one flat array + per-root counts."""
        import numpy as np

        im = lat._init_mask
        if im and all(ideal in im for ideal in ideals):
            _pm, _sm, _w, bit_u = self._state(lat)
            init_masks = np.fromiter(
                (im[ideal] for ideal in ideals),
                dtype=np.uint64,
                count=len(ideals),
            )
            counts = np.bitwise_count(init_masks).astype(np.int64)
            offs = np.zeros(len(ideals), np.int64)
            np.cumsum(counts[:-1], out=offs[1:])
            flat = np.empty(int(counts.sum()), np.int64)
            union = int(np.bitwise_or.reduce(init_masks)) if len(
                ideals
            ) else 0
            while union:
                low = union & -union
                p = low.bit_length() - 1
                union ^= low
                bp = bit_u[p]
                has = (init_masks & bp) != 0
                rank = np.bitwise_count(
                    init_masks[has] & (bp - np.uint64(1))
                ).astype(np.int64)
                flat[offs[has] + rank] = p
            return flat, counts
        lists = [lat._init_list(ideal) for ideal in ideals]
        counts = np.array([len(l) for l in lists], np.int64)
        flat = np.array(
            [i for l in lists for i in l], dtype=np.int64
        )
        return flat, counts

    @staticmethod
    def _expand(
        st, root_ideals, cand_flat, cand_counts, cap, node_budget,
        budget_msg,
    ):
        """Expand the DFS forest of ``root_ideals`` layer by layer.

        Returns ``(out_m, out_w, root_totals)`` with the nodes of each
        root's tree contiguous, in exact DFS preorder, roots in input
        order.
        """
        import numpy as np

        pm_u, sm_u, w_f, bit_u = st
        one = np.uint64(1)
        n_roots = root_ideals.size
        masks = np.zeros(n_roots, np.uint64)
        works = np.zeros(n_roots, np.float64)
        ideal_arr = root_ideals
        layer_masks: list = []
        layer_works: list = []
        layer_par: list = []
        total = 0
        while cand_flat.size:
            n_par = masks.size
            offsets = np.zeros(n_par + 1, np.int64)
            np.cumsum(cand_counts, out=offsets[1:])
            parent = np.repeat(
                np.arange(n_par, dtype=np.int64), cand_counts
            )
            nw = works[parent] + w_f[cand_flat]
            cpos = np.nonzero(nw <= cap)[0]
            if cpos.size == 0:
                break
            if cpos.size == nw.size:
                # Nothing pruned (common in early layers): skip the
                # gather and keep the parent-order arrays as-is.
                cpar, ci, cwork = parent, cand_flat, nw
            else:
                cpar = parent[cpos]
                ci = cand_flat[cpos]
                cwork = nw[cpos]
            cmask = masks[cpar] | bit_u[ci]
            cideal = ideal_arr[cpar]
            n_child = cpos.size
            total += n_child
            if node_budget is not None and total > node_budget:
                raise BudgetExceeded(budget_msg)
            layer_masks.append(cmask)
            layer_works.append(cwork)
            layer_par.append(cpar)
            # Parent-tail candidates surviving for each child.
            tail_counts = offsets[cpar + 1] - cpos - 1
            # Freshly removable stages per child, probing only stages
            # that are a missing predecessor of *some* child.
            rem = cideal ^ cmask
            pr = pm_u[ci] & rem
            fresh = np.zeros(n_child, np.uint64)
            union = int(np.bitwise_or.reduce(pr))
            while union:
                low = union & -union
                p = low.bit_length() - 1
                union ^= low
                bp = bit_u[p]
                sel = ((pr & bp) != 0) & ((rem & sm_u[p]) == 0)
                if sel.any():
                    fresh[sel] |= bp
            fresh_counts = np.bitwise_count(fresh).astype(np.int64)
            new_counts = tail_counts + fresh_counts
            new_offsets = np.zeros(n_child + 1, np.int64)
            np.cumsum(new_counts, out=new_offsets[1:])
            nt = int(new_offsets[-1])
            if nt == 0:
                break
            new_flat = np.empty(nt, np.int64)
            tt = int(tail_counts.sum())
            if tt:
                child_id = np.repeat(
                    np.arange(n_child, dtype=np.int64), tail_counts
                )
                tail_off = np.zeros(n_child, np.int64)
                np.cumsum(tail_counts[:-1], out=tail_off[1:])
                within = np.arange(tt, dtype=np.int64) - tail_off[child_id]
                new_flat[new_offsets[:-1][child_id] + within] = cand_flat[
                    cpos[child_id] + 1 + within
                ]
            if nt > tt:
                base = new_offsets[:-1] + tail_counts
                union = int(np.bitwise_or.reduce(fresh))
                while union:
                    low = union & -union
                    p = low.bit_length() - 1
                    union ^= low
                    bp = bit_u[p]
                    has = (fresh & bp) != 0
                    below = fresh[has] & (bp - one)
                    rank = np.bitwise_count(below).astype(np.int64)
                    new_flat[base[has] + rank] = p
            masks, works, ideal_arr = cmask, cwork, cideal
            cand_flat, cand_counts = new_flat, new_counts

        if total == 0:
            return (
                np.empty(0, np.uint64),
                np.empty(0, np.float64),
                np.zeros(n_roots, np.int64),
            )
        # Subtree sizes, bottom-up: one weighted bincount per layer.
        depth = len(layer_masks)
        sizes: list = [None] * depth
        sizes[depth - 1] = np.ones(layer_masks[depth - 1].size, np.int64)
        for d in range(depth - 1, 0, -1):
            acc = np.bincount(
                layer_par[d],
                weights=sizes[d],
                minlength=layer_masks[d - 1].size,
            ).astype(np.int64)
            acc += 1
            sizes[d - 1] = acc
        root_totals = np.bincount(
            layer_par[0], weights=sizes[0], minlength=n_roots
        ).astype(np.int64)
        # Preorder positions, top-down: within each sibling group, a
        # node sits 1 + (elder siblings' subtree sizes) after its
        # parent; the segmented exclusive cumsum is the global cumsum
        # minus each group's starting value.  Virtual roots sit one
        # slot before their tree's output range.
        root_base = np.zeros(n_roots, np.int64)
        np.cumsum(root_totals[:-1], out=root_base[1:])
        pos_parent = root_base - 1
        out_m = np.empty(total, np.uint64)
        out_w = np.empty(total, np.float64)
        n_prev = n_roots
        for d in range(depth):
            par = layer_par[d]
            sz = sizes[d]
            cs = np.cumsum(sz) - sz
            change = np.empty(par.size, bool)
            change[0] = True
            np.not_equal(par[1:], par[:-1], out=change[1:])
            fidx = np.nonzero(change)[0]
            group_start = np.zeros(n_prev, np.int64)
            group_start[par[fidx]] = cs[fidx]
            pos_d = pos_parent[par] + 1 + (cs - group_start[par])
            out_m[pos_d] = layer_masks[d]
            out_w[pos_d] = layer_works[d]
            pos_parent = pos_d
            n_prev = layer_masks[d].size
        return out_m, out_w, root_totals

