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

from repro.core.errors import BudgetExceeded
from repro.core.kernels import EnumerationKernel, reference_dfs, resolve_kernel
from repro.obs.session import inc
from repro.spg.analysis import ancestor_masks, cut_volume, descendant_masks
from repro.spg.graph import SPG
from repro.util.bitset import bit, iter_bits, mask_of

__all__ = [
    "quotient_edges",
    "is_acyclic_quotient",
    "is_dag_partition",
    "IdealLattice",
]

#: Ideals handed to the kernel per ``enumerate_bulk`` call when building
#: a suffix table.
TABLE_CHUNK = 1024


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

    Parameters
    ----------
    spg:
        The application graph.
    budget:
        Maximum number of ideals to enumerate before raising
        :class:`BudgetExceeded`.  The paper bounds the count by
        ``n^ymax``; real workloads with ymax around 12-17 blow any budget,
        which is exactly when DPA1D is reported to fail.
    kernel:
        The kernel that builds the suffix table of a word-sized graph
        (n <= 62) — a name from the :mod:`repro.core.kernels` registry,
        a kernel instance, or ``None`` for the ambient default
        (``--kernel`` / the ``REPRO_KERNEL`` environment variable).
        Every kernel produces byte-identical output; the choice is
        purely a speed lever.  Wider graphs always use the reference
        DFS.
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
        self._cut: dict[int, float] = {}
        self._cuts_bulk_done = False
        self._cut_table: tuple | None = None
        self._initc: dict[int, list[int]] = {0: []}
        self._init_mask: dict[int, int] = {}
        # (cap, (M, W, counts, offsets, pidx, total)): the one suffix
        # table, built at the loosest cap requested so far (word-sized
        # graphs only; see suffix_table).
        self._table: tuple | None = None
        self._ideal_pos: tuple | None = None
        # Value-sorted ideal index -> DP index (see _dp_slot).
        self._dp_index = None
        # Per-lattice scratch namespace for kernels (numpy mask tables).
        self._kernel_scratch: dict = {}

    @staticmethod
    def for_spg(
        spg: SPG,
        budget: int = 200_000,
        kernel: "str | EnumerationKernel | None" = None,
    ) -> "IdealLattice":
        """The lattice of ``spg``, cached on the (immutable) graph.

        Heuristics re-run on the same SPG at several candidate periods; the
        lattice (and its enumeration, cut volumes, even a cached budget
        failure) only depends on the graph, so one instance per ``(spg,
        budget, kernel)`` triple serves them all.
        """
        k = resolve_kernel(kernel)
        return spg.cached(
            ("ideal_lattice", budget, k.name),
            lambda: IdealLattice(spg, budget, k),
        )

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
        """All order ideals, sorted by population count (empty set first).

        Raises :class:`BudgetExceeded` if there are more than ``budget``.
        Both the result and a budget failure are cached, so repeated solves
        on the same lattice neither re-enumerate nor re-discover the blowup.
        """
        if self._ideals is not None:
            return self._ideals
        if self._budget_error is not None:
            raise BudgetExceeded(self._budget_error)
        if self.spg.n <= 62:
            return self._ideals_vector()
        seen: set[int] = {0}
        initc = self._initc
        pm = self._pred_mask
        succs = [list(self.spg.succs(i)) for i in range(self.spg.n)]
        seen_add = seen.add
        # BFS with *incremental* frontier state: each entry carries its
        # ideal's addable stages (predecessor-closed extensions) and its
        # successor-free stages, both maintained in O(degree) per step
        # instead of O(n) rescans.
        roots = [i for i in range(self.spg.n) if pm[i] == 0]
        frontier: list[tuple[int, list[int], list[int]]] = [(0, [], roots)]
        while frontier:
            nxt: list[tuple[int, list[int], list[int]]] = []
            for ideal, cur_init, cur_add in frontier:
                for i in cur_add:
                    cand = ideal | bit(i)
                    if cand in seen:
                        continue
                    seen_add(cand)
                    if len(seen) > self.budget:
                        self._budget_error = (
                            f"more than {self.budget} admissible "
                            f"subgraphs (n={self.spg.n}, "
                            f"ymax={self.spg.ymax})"
                        )
                        raise BudgetExceeded(self._budget_error)
                    # Addable stages of ``cand``: everything addable to
                    # ``ideal`` except ``i``, plus successors of ``i``
                    # whose predecessors are now all in.
                    new_add = [a for a in cur_add if a != i]
                    for j in succs[i]:
                        if not (cand >> j) & 1 and pm[j] & ~cand == 0:
                            new_add.append(j)
                    # Successor-free stages of ``cand``: ``i`` joins (its
                    # successors cannot be in an ideal containing it) and
                    # its predecessors leave; kept sorted to match a
                    # low-to-high bit scan.
                    pmi = pm[i]
                    ni: list[int] = []
                    placed = False
                    for p in cur_init:
                        if (pmi >> p) & 1:
                            continue
                        if not placed and i < p:
                            ni.append(i)
                            placed = True
                        ni.append(p)
                    if not placed:
                        ni.append(i)
                    initc[cand] = ni
                    nxt.append((cand, ni, new_add))
            frontier = nxt
        self._ideals = sorted(seen, key=lambda m: (m.bit_count(), m))
        return self._ideals

    def _ideals_vector(self) -> list[int]:
        """Vectorised ideal enumeration for word-sized graphs.

        Growing an ideal by one addable stage raises its popcount by
        exactly one, so the BFS layers *are* the popcount classes: each
        layer is produced from the previous one with one masked
        shift-and-or per stage, deduplicated by ``np.unique`` (which also
        yields the value-sorted order within the class).  The concatenated
        layers therefore match the scalar enumeration's
        ``sorted-by-(popcount, value)`` output exactly.
        """
        import numpy as np

        n = self.spg.n
        pm = self._pred_mask
        sm = self._succ_mask
        bits = [np.uint64(1 << i) for i in range(n)]
        pms = [np.uint64(m) for m in pm]
        zero = np.uint64(0)
        layers = [np.zeros(1, dtype=np.uint64)]
        layer = layers[0]
        count = 1
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
            layer = np.unique(
                np.concatenate(cands) if len(cands) > 1 else cands[0]
            )
            count += layer.size
            if count > self.budget:
                self._budget_error = (
                    f"more than {self.budget} admissible "
                    f"subgraphs (n={self.spg.n}, ymax={self.spg.ymax})"
                )
                raise BudgetExceeded(self._budget_error)
            layers.append(layer)
        allv = np.concatenate(layers) if len(layers) > 1 else layers[0]
        self._ideals = allv.tolist()
        # Successor-free masks of every ideal, also one vector op per stage.
        im = np.zeros(allv.size, dtype=np.uint64)
        for i in range(n):
            b = bits[i]
            s = np.uint64(sm[i])
            sel = ((allv & b) != zero) & ((allv & s) == zero)
            im[sel] |= b
        self._init_mask = dict(zip(self._ideals, im.tolist()))
        return self._ideals

    def cut_volume(self, prefix: int) -> float:
        """Bytes leaving ideal ``prefix`` (cached; shared across periods).

        The summation order matches a scan of ``spg.edges`` so values are
        bit-identical to :func:`repro.spg.analysis.cut_volume`.  For graphs
        that fit a machine word the cuts of *all* ideals are computed in one
        vectorised pass (one numpy masked-add per edge, which accumulates in
        the same edge order as the scalar scan).
        """
        c = self._cut.get(prefix)
        if c is None:
            if not self._cuts_bulk_done and self._ideals is not None:
                self._bulk_cuts()
                self._cuts_bulk_done = True
                c = self._cut.get(prefix)
            if c is None:
                c = self._cut[prefix] = cut_volume(self.spg, prefix)
        return c

    def _bulk_cuts(self) -> None:
        """Vectorised cut volumes for every enumerated ideal (n <= 62)."""
        table = self.cut_table()
        if table is not None:
            vals, cuts = table
            self._cut = dict(zip(vals.tolist(), cuts.tolist()))

    def cut_table(self):
        """``(values, cuts)`` numpy arrays over all ideals, value-sorted.

        ``values`` is a sorted ``uint64`` array of every ideal bitmask and
        ``cuts[k]`` the cut volume of ``values[k]`` — the DP's vectorised
        prefix lookups run ``np.searchsorted`` against it.  ``None`` when
        the graph exceeds a machine word (n > 62) or the ideals have not
        been enumerated yet.
        """
        if self._cut_table is None:
            if self.spg.n > 62 or self._ideals is None:
                return None
            import numpy as np

            ideals = self._ideals
            vals = np.sort(
                np.fromiter(ideals, dtype=np.uint64, count=len(ideals))
            )
            cuts = np.zeros(len(ideals))
            one = np.uint64(1)
            for i, j, d in self.spg.edge_list:
                leaving = ((vals >> np.uint64(i)) & one).astype(bool) & (
                    ((vals >> np.uint64(j)) & one) == 0
                )
                cuts[leaving] += d
            self._cut_table = (vals, cuts)
        return self._cut_table

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
        the enumeration tractable for tight periods.

        For word-sized graphs the pairs are a slice of the lattice's one
        suffix table (see :meth:`suffix_arrays`), so e.g. the DP
        reconstruction rereads exactly what the solve enumerated.  Wider
        graphs run the reference DFS for this one ideal, whatever kernel
        the lattice uses.
        """
        if self.spg.n > 62:
            masks_l, works_l = reference_dfs(self, ideal, max_weight)
            return list(zip(masks_l, works_l))
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
        mask`` in :meth:`cut_table`'s sorted array.  Word-sized graphs
        only.

        The lattice keeps one table, built at the loosest cap requested
        so far.  A request at that cap returns it; a tighter cap gets a
        filtered copy (the DFS's weight pruning removes exactly the
        clusters heavier than the cap, so filtering reproduces a pruned
        enumeration element for element); a looser cap builds a new
        table, which replaces the kept one once the build completes.
        When ``transition_budget`` is given a build raises
        :class:`BudgetExceeded` as soon as the cumulative transition
        count exceeds it, leaving the kept table in place; a kept or
        filtered table re-checks its total against the caller's budget
        (which may differ per solve), with the same message.
        """
        kept = self._table
        if kept is None or kept[0] < max_weight:
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
            raise BudgetExceeded(
                f"DPA1D exceeded {transition_budget} DP transitions"
            )
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
        vals, _cuts = self.cut_table()
        n_ideals = len(ideals)
        nz = [k for k, ideal in enumerate(ideals) if ideal]
        counts = np.zeros(n_ideals, dtype=np.intp)
        masks_parts: list = []
        works_parts: list = []
        transitions = 0
        budget_msg = f"DPA1D exceeded {transition_budget} DP transitions"
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

    def ideal_positions(self) -> tuple:
        """``(ideal_vals, epos)``: every ideal as ``uint64`` in DP order
        and its index into :meth:`cut_table`'s value-sorted array."""
        if self._ideal_pos is None:
            import numpy as np

            ideals = self.ideals()
            vals, _cuts = self.cut_table()
            ideal_vals = np.fromiter(
                ideals, dtype=np.uint64, count=len(ideals)
            )
            self._ideal_pos = (ideal_vals, np.searchsorted(vals, ideal_vals))
        return self._ideal_pos

    def _dp_slot(self, ideal: int) -> int:
        """Index of ``ideal`` in :meth:`ideals` (DP order)."""
        import numpy as np

        vals, _cuts = self.cut_table()
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
            m = self._init_mask.get(ideal)
            if m is not None:
                init = list(iter_bits(m))
            else:
                sm = self._succ_mask
                init = [i for i in iter_bits(ideal) if sm[i] & ideal == 0]
            self._initc[ideal] = init
        return init

    def suffix_clusters(self, ideal: int, max_weight: float) -> list[int]:
        """Masks-only view of :meth:`suffix_clusters_weighted`."""
        return [
            mask
            for mask, _w in self.suffix_clusters_weighted(ideal, max_weight)
        ]


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
