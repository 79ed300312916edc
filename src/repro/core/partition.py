"""DAG-partition machinery (Section 3.3) and admissible subgraphs (Section 4.1).

A *DAG-partition mapping* partitions the SPG into clusters such that the
quotient graph (one node per cluster, edges induced by stage dependencies)
is acyclic, then maps clusters one-to-one onto cores.  Quotient acyclicity
is equivalent to the paper's convexity rule ("if S_i and S_j share a cluster,
any S_k with a dependency path S_i -> S_k -> S_j is in the same cluster")
*plus* the absence of cluster cycles.

An *admissible subgraph* (Theorem 1) is obtained from the SPG by repeatedly
deleting nodes without successors; equivalently it is a predecessor-closed
node set — an **order ideal** of the precedence poset.  The DP heuristics
enumerate ideals as bitmasks, with an explicit budget: bounded-elevation
SPGs have at most ``n^ymax`` ideals, and exceeding the budget reproduces the
paper's DPA1D failures on high-elevation graphs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import NoReturn

from repro.core.errors import BudgetExceeded
from repro.core.kernels import (
    EnumerationKernel,
    resolve_kernel,
    suffix_forest,
)
from repro.obs.session import inc, trace_span
from repro.spg.analysis import ancestor_masks, descendant_masks
from repro.spg.decompose import (
    enumerate_ideals,
    ideal_count,
    transition_lower_bound,
)
from repro.spg.graph import SPG
from repro.util.bitset import (
    bit,
    iter_bits,
    join_words,
    mask_of,
    split_words,
    word_count,
)

__all__ = [
    "quotient_edges",
    "is_acyclic_quotient",
    "is_dag_partition",
    "IdealLattice",
]

#: Ideals handed to the kernel per ``enumerate_bulk`` call when building
#: a suffix table, and the most handed to one forest call by
#: ``suffix_stream``.
TABLE_CHUNK = 1024

#: Transitions ``suffix_stream`` aims at per forest call.  The forest
#: holds about 90 bytes of scratch per transition while it runs, so this
#: bounds the stream's transient memory to a few MB.
STREAM_TRANSITIONS = 1 << 15


def quotient_edges(
    spg: SPG, cluster_of: Mapping[int, object]
) -> set[tuple[object, object]]:
    """Edges of the quotient graph induced by ``cluster_of`` (stage -> key)."""
    out: set[tuple[object, object]] = set()
    for (i, j) in spg.edges:
        ci, cj = cluster_of[i], cluster_of[j]
        if ci != cj:
            out.add((ci, cj))
    return out


def is_acyclic_quotient(
    spg: SPG, cluster_of: Mapping[int, object]
) -> bool:
    """True iff the quotient graph of the clustering is acyclic."""
    edges = quotient_edges(spg, cluster_of)
    succ: dict[object, list[object]] = {}
    indeg: dict[object, int] = {}
    nodes = set(cluster_of.values())
    for c in nodes:
        succ[c] = []
        indeg[c] = 0
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    stack = [c for c in nodes if indeg[c] == 0]
    seen = 0
    while stack:
        c = stack.pop()
        seen += 1
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                stack.append(d)
    return seen == len(nodes)


def is_dag_partition(spg: SPG, cluster_of: Mapping[int, object]) -> bool:
    """True iff ``cluster_of`` (total map stage -> cluster key) is a DAG-partition."""
    if set(cluster_of) != set(range(spg.n)):
        return False
    return is_acyclic_quotient(spg, cluster_of)


class IdealLattice:
    """Enumeration of the order ideals (admissible subgraphs) of an SPG.

    The ideals of a series-parallel graph, of any width, come from its
    SP decomposition tree (:func:`repro.spg.decompose.enumerate_ideals`)
    as one ``(words, N)`` ``uint64`` array, which :meth:`ideal_words`
    returns as is.  A hand-built DAG that does not decompose falls back
    to a breadth-first search over Python-int masks.

    Everything the lattice holds -- the ideals, their sorted values,
    the suffix table, the row keys and the forest scratch -- depends on
    the graph's stages, edges and weights only, never on the edge
    volumes: it reads no ``edges``, ``edge_list``, ``comm`` or
    ``total_comm`` from ``spg``.  So one lattice serves every graph that
    differs from ``spg`` in its volumes alone (see :meth:`for_spg`); the
    cut volumes a DP needs come from its own graph instead.

    Parameters
    ----------
    spg:
        The application graph.
    budget:
        Maximum number of ideals (the empty set included) before
        :class:`BudgetExceeded`.  The paper bounds the count by
        ``n^ymax``; real workloads with ymax around 12-17 blow any budget,
        which is exactly when DPA1D is reported to fail.  The budget is
        decided by the exact count on the same tree
        (:func:`repro.spg.decompose.ideal_count`) before anything is
        built, so an over-budget lattice is rejected without being
        enumerated.  A graph that is not series-parallel has no count and
        is checked while the search runs.
    kernel:
        The kernel that builds the suffix table of a word-sized graph
        (n <= 62) — a name from the :mod:`repro.core.kernels` registry,
        a kernel instance, or ``None`` for the ambient default
        (``--kernel`` / the ``REPRO_KERNEL`` environment variable).
        Every kernel produces byte-identical output; the choice is
        purely a speed lever.  Wider graphs never reach a kernel: they
        run the multi-word :func:`~repro.core.kernels.suffix_forest`
        directly (:meth:`suffix_stream`, :meth:`suffix_clusters_weighted`).
    """

    def __init__(
        self,
        spg: SPG,
        budget: int = 200_000,
        kernel: "str | EnumerationKernel | None" = None,
    ) -> None:
        self.spg = spg
        self.budget = budget
        self.kernel = resolve_kernel(kernel)
        n = spg.n
        self.full = (1 << n) - 1
        self._pred_mask = [mask_of(spg.preds(i)) for i in range(n)]
        self._succ_mask = [mask_of(spg.succs(i)) for i in range(n)]
        self._weights = list(spg.weights)
        self.desc = descendant_masks(spg)
        self.anc = ancestor_masks(spg)
        self._ideals: list[int] | None = None
        self._budget_error: str | None = None
        self._ideal_words = None
        # (sorted void keys of the ideal words, DP index of each).
        self._row_keys: tuple | None = None
        self._sorted_values = None
        self._initc: dict[int, list[int]] = {0: []}
        # Successor-free stages of every ideal, built by the first
        # _init_list call once the ideals exist (only reference_dfs reads
        # it).
        self._init_mask: dict[int, int] | None = None
        # (cap, (M, W, counts, offsets, pidx, total)): the one suffix
        # table, built at the loosest cap requested so far (word-sized
        # graphs only; see suffix_table).
        self._table: tuple | None = None
        self._ideal_pos: tuple | None = None
        # Value-sorted ideal index -> DP index (see _dp_slot).
        self._dp_index = None
        # Per-lattice scratch namespace for the forest's numpy tables.
        self._kernel_scratch: dict = {}

    @staticmethod
    def for_spg(
        spg: SPG,
        budget: int = 200_000,
        kernel: "str | EnumerationKernel | None" = None,
    ) -> "IdealLattice":
        """The lattice of ``spg``, kept in the graph's shape cache.

        Heuristics re-run on the same SPG at several candidate periods,
        and the paper's CCR variants of one workflow differ only in their
        edge volumes.  The lattice (its enumeration, suffix table, even a
        cached budget failure) depends on none of that, so one instance
        per ``(budget, kernel)`` pair serves every probe of every graph
        sharing ``spg``'s shape cache (:meth:`SPG.shape_cached`).  Counts
        ``kernel.lattice_hits`` when the cache already holds the lattice
        and ``kernel.lattice_misses`` when it builds one: a streamit_4x4
        pass counts 36 hits to 12 misses, all from the CCR variants.
        """
        k = resolve_kernel(kernel)
        built = False

        def build() -> IdealLattice:
            nonlocal built
            built = True
            return IdealLattice(spg, budget, k)

        lat = spg.shape_cached(("ideal_lattice", budget, k.name), build)
        inc("kernel.lattice_misses" if built else "kernel.lattice_hits")
        return lat

    # ------------------------------------------------------------------
    def weight(self, mask: int) -> float:
        """Total computation weight of the stages in ``mask``."""
        w = self._weights
        return sum(w[i] for i in iter_bits(mask))

    def is_ideal(self, mask: int) -> bool:
        """True iff ``mask`` is predecessor-closed."""
        for i in iter_bits(mask):
            if self._pred_mask[i] & ~mask:
                return False
        return True

    def addable(self, ideal: int) -> Iterator[int]:
        """Stages addable to ``ideal`` while keeping it an ideal."""
        pm = self._pred_mask
        for i in range(self.spg.n):
            if not (ideal >> i) & 1 and pm[i] & ~ideal == 0:
                yield i

    def ideals(self) -> list[int]:
        """All order ideals, sorted by population count and then by value
        (empty set first).

        Raises :class:`BudgetExceeded` if there are more than ``budget``.
        A series-parallel graph is counted first (:func:`ideal_count`):
        an over-budget one raises without enumerating, any other is
        enumerated from its decomposition tree, whatever its width.  A
        graph with no count runs the breadth-first fallback, which checks
        the budget as it grows, so both paths reject exactly the same
        lattices with the same message.  Both the result and a budget
        failure are cached, so repeated solves on the same lattice
        neither re-enumerate nor re-discover the blowup.
        """
        if self._ideals is not None:
            return self._ideals
        if self._checked_count() is None:
            return self._ideals_bfs()
        self._ideal_words = enumerate_ideals(self.spg)
        self._ideals = join_words(self._ideal_words)
        return self._ideals

    def _checked_count(self) -> int | None:
        """The ideal count of a series-parallel graph (``None`` for any
        other), raising the lattice's budget failure when it is over."""
        if self._budget_error is not None:
            raise BudgetExceeded(self._budget_error)
        count = ideal_count(self.spg)
        if count is not None and count > self.budget:
            self._over_budget()
        return count

    def _check_transition_bound(
        self, max_weight: float, transition_budget: int
    ) -> None:
        """Raise the enumeration's own :class:`BudgetExceeded` when the
        SP-tree bound (:func:`~repro.spg.decompose.transition_lower_bound`)
        proves that the suffix clusters at ``max_weight`` exceed
        ``transition_budget``, before any ideal or cluster is enumerated.

        The ideal-budget check runs first, so its failure keeps
        precedence.  A lattice of ``count`` ideals has at most ``count *
        (count - 1) / 2`` transitions, so one that small skips the bound;
        a graph that is not series-parallel has none.  Either way, and
        whenever the bound fits the budget, the enumeration decides.
        """
        count = self._checked_count()
        if count is None or count * (count - 1) // 2 <= transition_budget:
            return
        bound = transition_lower_bound(
            self.spg, max_weight, transition_budget
        )
        if bound is not None and bound > transition_budget:
            inc("partition.transition_bound_rejects")
            raise BudgetExceeded(_transition_msg(transition_budget))

    def _ideals_bfs(self) -> list[int]:
        """Breadth-first ideal enumeration over Python-int masks, the
        fallback for graphs that are not series-parallel."""
        seen: set[int] = {0}
        pm = self._pred_mask
        succs = [list(self.spg.succs(i)) for i in range(self.spg.n)]
        seen_add = seen.add
        # BFS with *incremental* frontier state: each entry carries its
        # ideal's addable stages (predecessor-closed extensions),
        # maintained in O(degree) per step instead of O(n) rescans.
        roots = [i for i in range(self.spg.n) if pm[i] == 0]
        frontier: list[tuple[int, list[int]]] = [(0, roots)]
        while frontier:
            nxt: list[tuple[int, list[int]]] = []
            for ideal, cur_add in frontier:
                for i in cur_add:
                    cand = ideal | bit(i)
                    if cand in seen:
                        continue
                    seen_add(cand)
                    if len(seen) > self.budget:
                        self._over_budget()
                    # Addable stages of ``cand``: everything addable to
                    # ``ideal`` except ``i``, plus successors of ``i``
                    # whose predecessors are now all in.
                    new_add = [a for a in cur_add if a != i]
                    for j in succs[i]:
                        if not (cand >> j) & 1 and pm[j] & ~cand == 0:
                            new_add.append(j)
                    nxt.append((cand, new_add))
            frontier = nxt
        self._ideals = sorted(seen, key=lambda m: (m.bit_count(), m))
        return self._ideals

    def _over_budget(self) -> NoReturn:
        """Record and raise the lattice's budget failure."""
        self._budget_error = (
            f"more than {self.budget} admissible "
            f"subgraphs (n={self.spg.n}, ymax={self.spg.ymax})"
        )
        raise BudgetExceeded(self._budget_error)

    def ideal_words(self):
        """Every ideal in :meth:`ideals` order as a ``(words, N)``
        ``uint64`` array, ``words = ceil(n / 64)`` (see
        :func:`~repro.util.bitset.split_words`)."""
        ideals = self.ideals()
        if self._ideal_words is None:
            self._ideal_words = split_words(ideals, word_count(self.spg.n))
        return self._ideal_words

    def dp_rows(self, masks):
        """Indices in :meth:`ideals` of the ideals in ``masks``, a
        ``(words, K)`` ``uint64`` array; any width.

        The lookup is an exact ``searchsorted`` over the ideals' words
        viewed as one ``np.void`` key each (byte order only has to be
        consistent, not numeric).  The caller guarantees every column is
        an ideal.
        """
        import numpy as np

        if self._row_keys is None:
            keys = _void_keys(self.ideal_words())
            order = np.argsort(keys, kind="stable")
            self._row_keys = (keys[order], order)
        sorted_keys, order = self._row_keys
        return order[np.searchsorted(sorted_keys, _void_keys(masks))]

    def sorted_values(self):
        """Every ideal bitmask as a sorted ``uint64`` array: the DP's
        vectorised row lookups run ``np.searchsorted`` against it.
        ``None`` when the graph exceeds a machine word (n > 62) or the
        ideals have not been enumerated yet.
        """
        if self._sorted_values is None:
            if self.spg.n > 62 or self._ideals is None:
                return None
            import numpy as np

            self._sorted_values = np.sort(self.ideal_words()[0])
        return self._sorted_values

    # ------------------------------------------------------------------
    def suffix_clusters_weighted(
        self, ideal: int, max_weight: float
    ) -> list[tuple[int, float]]:
        """Non-empty up-sets ``H`` of ``ideal`` with weight <= ``max_weight``.

        Returns ``(mask, weight)`` pairs.  ``H = ideal \\ I'`` for a smaller
        ideal ``I'``; these are exactly the candidate "last clusters" when
        peeling the SPG from the sink side in the Theorem-1 DP.

        The pairs come in the canonical DFS preorder of
        :func:`~repro.core.kernels.reference_dfs`, which tracks the
        removable frontier *incrementally*: a stage becomes removable
        exactly when its last missing successor joins the cluster, so
        extending a cluster costs O(in-degree) rather than a scan of the
        whole ideal.  Exclusion by list position guarantees each up-set is
        produced exactly once.  Clusters heavier than ``max_weight`` are
        pruned (they cannot meet the period at any speed), which keeps
        the enumeration tractable for tight periods.  Every path yields
        exactly the reference's masks, works and order.

        For word-sized graphs the pairs are a slice of the lattice's one
        suffix table (see :meth:`suffix_arrays`), so e.g. the DP
        reconstruction rereads exactly what the solve enumerated.  Wider
        graphs run :func:`~repro.core.kernels.suffix_forest` on this one
        ideal (the same enumeration as :meth:`suffix_stream`), whatever
        kernel the lattice uses.
        """
        if self.spg.n > 62:
            masks, works, _counts = suffix_forest(
                self, split_words([ideal], word_count(self.spg.n)),
                max_weight,
            )
            return list(zip(join_words(masks), works.tolist()))
        masks, works = self.suffix_arrays(ideal, max_weight)
        return list(zip(masks.tolist(), works.tolist()))

    def suffix_arrays(self, ideal: int, max_weight: float):
        """Suffix clusters of ``ideal`` as ``(masks, works)`` numpy arrays.

        Same clusters, same order as :meth:`suffix_clusters_weighted`, as
        flat ``uint64``/``float64`` arrays; word-sized graphs (n <= 62)
        only.  The arrays are ``ideal``'s slice of the kept
        :meth:`suffix_table`, filtered down to ``max_weight`` when that
        table was built at a looser cap.  When no kept table covers
        ``max_weight``, the table is built at ``max_weight`` first, with
        no transition budget.
        """
        if self.spg.n > 62:
            raise ValueError(
                f"suffix_arrays needs a word-sized graph (n <= 62), "
                f"got n={self.spg.n}"
            )
        if self._table is None or self._table[0] < max_weight:
            self.suffix_table(max_weight)
        cap, (M, W, _counts, offsets, _pidx, _total) = self._table
        k = self._dp_slot(ideal)
        lo, hi = offsets[k], offsets[k + 1]
        masks, works = M[lo:hi], W[lo:hi]
        if max_weight < cap:
            keep = works <= max_weight
            masks, works = masks[keep], works[keep]
        return masks, works

    def suffix_table(
        self, max_weight: float, transition_budget: int | None = None
    ) -> tuple:
        """The whole lattice's suffix clusters as one flat DP table.

        Returns ``(M, W, counts, offsets, pidx, total)``: every ideal's
        suffix clusters concatenated in DP ideal order (``counts[k]``
        transitions for ``ideals()[k]``, sliced by ``offsets``), with
        ``pidx`` the value-index of each transition's prefix ``ideal ^
        mask`` in :meth:`sorted_values`.  Word-sized graphs
        only.

        The lattice keeps one table, built at the loosest cap requested
        so far.  A request at that cap returns it; a tighter cap gets a
        filtered copy (the DFS's weight pruning removes exactly the
        clusters heavier than the cap, so filtering reproduces a pruned
        enumeration element for element); a looser cap builds a new
        table, which replaces the kept one once the build completes.

        When ``transition_budget`` is given, a build first checks the
        ideal budget and then the SP-tree transition bound
        (:meth:`_check_transition_bound`): a lattice the bound proves
        over budget raises :class:`BudgetExceeded` before its ideals or
        any cluster are enumerated.  Otherwise the build raises as soon
        as the cumulative transition count exceeds the budget, leaving
        the kept table in place.  A kept or filtered table re-checks its
        exact total against the caller's budget (which may differ per
        solve) instead.  Every path raises the same message.
        """
        kept = self._table
        if kept is None or kept[0] < max_weight:
            if transition_budget is not None:
                self._check_transition_bound(max_weight, transition_budget)
            tbl = self._build_table(max_weight, transition_budget)
            self._table = (max_weight, tbl)
            inc("kernel.table_builds")
        elif kept[0] == max_weight:
            tbl = kept[1]
            inc("kernel.table_hits")
        else:
            tbl = _filter_table(kept[1], max_weight)
            inc("kernel.table_filtered")
        if transition_budget is not None and tbl[5] > transition_budget:
            raise BudgetExceeded(_transition_msg(transition_budget))
        return tbl

    def _build_table(
        self, max_weight: float, transition_budget: int | None
    ) -> tuple:
        """Fresh ``suffix_table`` build: the kernel enumerates the nonzero
        ideals in chunks of :data:`TABLE_CHUNK`, counting against the
        budget as it goes so a doomed run raises without enumerating the
        rest."""
        import numpy as np

        ideals = self.ideals()
        vals = self.sorted_values()
        n_ideals = len(ideals)
        nz = [k for k, ideal in enumerate(ideals) if ideal]
        counts = np.zeros(n_ideals, dtype=np.intp)
        masks_parts: list = []
        works_parts: list = []
        transitions = 0
        budget_msg = _transition_msg(transition_budget)
        for s in range(0, len(nz), TABLE_CHUNK):
            chunk = nz[s:s + TABLE_CHUNK]
            remaining = (
                None if transition_budget is None
                else transition_budget - transitions
            )
            M, W, ccounts = self.kernel.enumerate_bulk(
                self, [ideals[k] for k in chunk], max_weight,
                node_budget=remaining, budget_msg=budget_msg,
            )
            counts[chunk] = ccounts
            transitions += int(M.size)
            masks_parts.append(M)
            works_parts.append(W)
        inc("kernel.enumerations", len(nz))
        offsets = np.zeros(n_ideals + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        if transitions == 0:
            return (np.empty(0, np.uint64), np.empty(0), counts, offsets,
                    np.empty(0, np.intp), 0)
        M = np.concatenate(masks_parts)
        W = np.concatenate(works_parts)
        ideal_vals, _epos = self.ideal_positions()
        owners = np.repeat(ideal_vals, counts)
        P = np.bitwise_xor(M, owners)
        pidx = np.searchsorted(vals, P)
        return (M, W, counts, offsets, pidx, transitions)

    def suffix_stream(self, max_weight: float, transition_budget: int):
        """Every nonzero ideal's suffix clusters, streamed in DP order.

        Yields ``(lo, hi, counts, pidx, W)`` for consecutive ranges
        ``[lo, hi)`` of :meth:`ideals` (``lo`` starts at 1, past the
        empty ideal): ``counts[k]`` transitions of ideal ``lo + k``,
        their works ``W`` and the :meth:`ideals` index ``pidx`` of each
        transition's prefix ``ideal ^ mask``, found by an exact key
        lookup (:meth:`dp_rows`).  Each range is one
        :func:`~repro.core.kernels.suffix_forest` run, for a graph of any
        width; the first holds one ideal, and each later one as many as
        the previous range's clusters per ideal predict to make about
        :data:`STREAM_TRANSITIONS` transitions (at most
        :data:`TABLE_CHUNK`).  Nothing of a range is kept once the
        caller moves on, so no whole-lattice table is ever materialised.

        The call itself, before it returns the stream, checks the ideal
        budget and then the SP-tree transition bound
        (:meth:`_check_transition_bound`), so a lattice the bound proves
        over ``transition_budget`` raises :class:`BudgetExceeded` with
        no ideal or cluster enumerated.  Past that, the forest counts
        against the budget as it goes: a doomed run raises before
        enumerating the rest, with the same message.

        Each range's enumeration runs in a ``partition.suffix`` trace
        span, the kind the lattice's table methods are timed under.
        """
        self._check_transition_bound(max_weight, transition_budget)
        return self._stream(max_weight, transition_budget)

    def _stream(self, max_weight: float, transition_budget: int):
        """The generator behind :meth:`suffix_stream`."""
        import numpy as np

        words = self.ideal_words()
        budget_msg = _transition_msg(transition_budget)
        transitions = 0
        lo, size = 1, 1
        while lo < words.shape[1]:
            hi = min(lo + size, words.shape[1])
            with trace_span("partition.suffix"):
                roots = words[:, lo:hi]
                M, W, counts = suffix_forest(
                    self, roots, max_weight,
                    transition_budget - transitions, budget_msg,
                )
                transitions += W.size
                pidx = self.dp_rows(np.repeat(roots, counts, axis=1) ^ M)
            inc("kernel.enumerations", hi - lo)
            yield lo, hi, counts, pidx, W
            # Size the next range from this one's clusters per ideal.
            size = min(TABLE_CHUNK,
                       max(1, (hi - lo) * STREAM_TRANSITIONS
                           // max(W.size, 1)))
            lo = hi

    def ideal_positions(self) -> tuple:
        """``(ideal_vals, epos)``: every ideal as ``uint64`` in DP order
        and its index into :meth:`sorted_values`."""
        if self._ideal_pos is None:
            import numpy as np

            vals = self.sorted_values()
            ideal_vals = self.ideal_words()[0]
            self._ideal_pos = (ideal_vals, np.searchsorted(vals, ideal_vals))
        return self._ideal_pos

    def _dp_slot(self, ideal: int) -> int:
        """Index of ``ideal`` in :meth:`ideals` (DP order)."""
        import numpy as np

        vals = self.sorted_values()
        v = int(np.searchsorted(vals, np.uint64(ideal)))
        if v == len(vals) or int(vals[v]) != ideal:
            raise ValueError(f"{ideal:#x} is not an order ideal of the SPG")
        if self._dp_index is None:
            _ideal_vals, epos = self.ideal_positions()
            self._dp_index = np.empty_like(epos)
            self._dp_index[epos] = np.arange(len(epos))
        return int(self._dp_index[v])

    def _init_list(self, ideal: int) -> list[int]:
        """Successor-free stages of ``ideal``, ascending (cached)."""
        init = self._initc.get(ideal)
        if init is None:
            if self._init_mask is None and self._ideals is not None:
                self._init_mask = self._successor_free_masks()
            m = (self._init_mask or {}).get(ideal)
            if m is not None:
                init = list(iter_bits(m))
            else:
                sm = self._succ_mask
                init = [i for i in iter_bits(ideal) if sm[i] & ideal == 0]
            self._initc[ideal] = init
        return init

    def _successor_free_masks(self) -> dict[int, int]:
        """Ideal -> mask of its successor-free stages, one vector op per
        stage over every ideal; empty for graphs wider than a word, whose
        :meth:`_init_list` scans the ideal instead."""
        if self.spg.n > 62:
            return {}
        import numpy as np

        allv = self.ideal_words()[0]
        zero = np.uint64(0)
        im = np.zeros(allv.size, dtype=np.uint64)
        for i, s in enumerate(self._succ_mask):
            b = np.uint64(1 << i)
            sel = ((allv & b) != zero) & ((allv & np.uint64(s)) == zero)
            im[sel] |= b
        return dict(zip(self._ideals, im.tolist()))

    def suffix_clusters(self, ideal: int, max_weight: float) -> list[int]:
        """Masks-only view of :meth:`suffix_clusters_weighted`."""
        return [
            mask
            for mask, _w in self.suffix_clusters_weighted(ideal, max_weight)
        ]


def _transition_msg(transition_budget: int) -> str:
    """The message of DPA1D's transition-budget failure, the same
    whichever check decides it."""
    return f"DPA1D exceeded {transition_budget} DP transitions"


def _void_keys(masks):
    """One ``np.void`` key per column of a ``(words, K)`` mask array:
    exact equality (no hashing) and a consistent total order."""
    import numpy as np

    rows = np.ascontiguousarray(masks.T)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _filter_table(tbl: tuple, max_weight: float) -> tuple:
    """``tbl`` restricted to the transitions of weight <= ``max_weight``."""
    import numpy as np

    M, W, _counts, offsets, pidx, _total = tbl
    keep = W <= max_weight
    cs = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(keep, out=cs[1:])
    fcounts = (cs[offsets[1:]] - cs[offsets[:-1]]).astype(np.intp)
    foffsets = np.zeros(len(fcounts) + 1, dtype=np.intp)
    np.cumsum(fcounts, out=foffsets[1:])
    return (M[keep], W[keep], fcounts, foffsets, pidx[keep],
            int(foffsets[-1]))
