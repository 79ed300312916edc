"""Synthetic reconstruction of the StreamIt workflow suite (Table 1).

The paper evaluates on the 12 benchmarks of the StreamIt suite.  The actual
stream graphs are not redistributable here, so each workflow is *synthesised*
as a pipeline of split-join segments whose structural characteristics match
Table 1 of the paper **exactly**: number of stages ``n``, elevation
``ymax``, length ``xmax`` and computation-to-communication ratio CCR.
Stage weights and communication volumes are drawn from a fixed-seed RNG and
the volumes rescaled so the CCR matches the published value.

The substitution keeps everything the paper's evaluation varies: it reports
results per workflow in terms of (n, ymax, xmax, CCR), and those four are
preserved exactly.  The stage weights and volumes are not the real ones, so
a workflow's energies are comparable with the paper's in trend (which
heuristic wins, which fail), not in absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spg.build import chain, pipeline_of, split_join
from repro.spg.graph import SPG
from repro.spg.random_gen import random_weights

__all__ = [
    "STREAMIT_TABLE1",
    "StreamItSpec",
    "streamit_workflow",
    "streamit_variants",
    "streamit_suite",
    "streamit_names",
]


@dataclass(frozen=True)
class StreamItSpec:
    """Published characteristics of one StreamIt workflow (paper Table 1)."""

    index: int
    name: str
    n: int
    ymax: int
    xmax: int
    ccr: float
    #: Synthesis recipe: pipeline segments, each ("sj", k, total, longest)
    #: for a split-join with k branches whose internal lengths sum to
    #: ``total`` with maximum ``longest``, or ("chain", length).
    segments: tuple[tuple, ...]


def _branch_lengths(k: int, total: int, longest: int) -> list[int]:
    """Distribute ``total`` internal stages over ``k`` branches, max ``longest``.

    The first branch gets exactly ``longest`` (this pins the split-join's
    xmax); the rest are filled greedily.
    """
    rest = total - longest
    if k < 1 or rest < k - 1 or rest > (k - 1) * longest:
        raise ValueError(f"infeasible branch distribution ({k}, {total}, {longest})")
    lengths = [longest]
    remaining_branches = k - 1
    for b in range(k - 1):
        remaining_branches -= 1
        take = min(longest, rest - remaining_branches)
        lengths.append(take)
        rest -= take
    assert rest == 0 and len(lengths) == k and max(lengths) == longest
    return lengths


# Table 1 of the paper, with a synthesis recipe per workflow.  Recipes were
# chosen so that the derived (n, ymax, xmax) match the published values; the
# test suite asserts this for every workflow.
STREAMIT_TABLE1: tuple[StreamItSpec, ...] = (
    StreamItSpec(1, "Beamformer", 57, 12, 12, 537.0, (("sj", 12, 55, 10),)),
    StreamItSpec(2, "ChannelVocoder", 55, 17, 8, 453.0, (("sj", 17, 53, 6),)),
    StreamItSpec(3, "Filterbank", 85, 16, 14, 535.0, (("sj", 16, 83, 12),)),
    StreamItSpec(4, "FMRadio", 43, 12, 12, 330.0, (("sj", 12, 41, 10),)),
    StreamItSpec(
        5, "Vocoder", 114, 17, 32, 38.0, (("sj", 17, 102, 20), ("chain", 11))
    ),
    StreamItSpec(
        6, "BitonicSort", 40, 4, 23, 6.0, (("sj", 4, 23, 6), ("chain", 16))
    ),
    StreamItSpec(7, "DCT", 8, 1, 8, 68.0, (("chain", 8),)),
    StreamItSpec(
        8, "DES", 53, 3, 45, 7.0, (("sj", 3, 12, 4), ("chain", 40))
    ),
    StreamItSpec(9, "FFT", 17, 1, 17, 17.0, (("chain", 17),)),
    StreamItSpec(
        10, "MPEG2-noparser", 23, 5, 18, 9.0, (("sj", 5, 8, 3), ("chain", 14))
    ),
    StreamItSpec(
        11, "Serpent", 120, 2, 111, 9.0, (("sj", 2, 18, 9), ("chain", 101))
    ),
    StreamItSpec(12, "TDE", 29, 1, 29, 12.0, (("chain", 29),)),
)

_BY_NAME = {s.name.lower(): s for s in STREAMIT_TABLE1}
_BY_INDEX = {s.index: s for s in STREAMIT_TABLE1}


def streamit_names() -> list[str]:
    """Workflow names in Table-1 order."""
    return [s.name for s in STREAMIT_TABLE1]


def _build_structure(spec: StreamItSpec) -> SPG:
    segments = []
    for seg in spec.segments:
        if seg[0] == "sj":
            _, k, total, longest = seg
            segments.append(split_join(_branch_lengths(k, total, longest)))
        elif seg[0] == "chain":
            segments.append(chain(seg[1]))
        else:  # pragma: no cover - specs are static
            raise ValueError(f"unknown segment kind {seg[0]!r}")
    return pipeline_of(segments)


def streamit_variants(
    which: "int | str",
    ccrs: "tuple[float | None, ...] | list[float | None]",
    seed: int = 0,
) -> list[SPG]:
    """One StreamIt workflow at each CCR of ``ccrs``, in that order.

    The structure and the weight draw are made once; each variant then
    rescales the same volumes to its CCR (``None`` keeps the published
    one).  The variants differ only in their volumes, so they share one
    shape cache (:meth:`SPG.shape_cached`) and DPA1D builds one ideal
    lattice for all of them.  Each variant is equal to
    :func:`streamit_workflow` at that CCR.
    """
    if isinstance(which, str):
        try:
            spec = _BY_NAME[which.lower()]
        except KeyError:
            raise KeyError(f"unknown StreamIt workflow {which!r}") from None
    else:
        try:
            spec = _BY_INDEX[which]
        except KeyError:
            raise KeyError(f"StreamIt index must be 1..12, got {which}") from None
    rng = np.random.default_rng((seed, spec.index))
    base = random_weights(_build_structure(spec), rng)
    return [base.with_ccr(spec.ccr if c is None else c) for c in ccrs]


def streamit_workflow(
    which: "int | str",
    ccr: float | None = None,
    seed: int = 0,
) -> SPG:
    """Synthesise one StreamIt workflow.

    Parameters
    ----------
    which:
        Table-1 index (1..12) or workflow name (case-insensitive).
    ccr:
        Override the computation-to-communication ratio (the paper rescales
        to 10, 1 and 0.1); ``None`` keeps the published original CCR.
    seed:
        Weight-synthesis seed (combined with the workflow index so that each
        workflow gets a distinct but reproducible weight draw).
    """
    return streamit_variants(which, (ccr,), seed)[0]


def streamit_suite(ccr: float | None = None, seed: int = 0) -> list[SPG]:
    """All 12 workflows in Table-1 order."""
    return [streamit_workflow(s.index, ccr, seed) for s in STREAMIT_TABLE1]
