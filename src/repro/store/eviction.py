"""Cache-replacement policies for the result store.

The north star needs a store that stays *bounded* under sustained
traffic; ``repro store gc`` only drops stale-schema rows, so without a
replacement policy the store grows forever.  This module supplies the
missing half, built on the store's access accounting (per-row
``hits``/``last_hit_at``/``rrpv``): one :data:`EVICTION_POLICIES` table
whose policies rank rows for eviction once a store crosses its
row-count or payload-byte cap.

Policies
--------

``lru``
    Evict the least recently *used* row first: order by ``last_hit_at``,
    falling back to ``created_at`` for rows that were filed but never
    read back.
``fifo``
    Evict the oldest row first (insertion order; access-oblivious).
``rrip``
    Static Re-Reference Interval Prediction (SRRIP, Jaleel et al. /
    ChampSim idiom): every row carries a small saturating re-reference
    prediction value (RRPV, 2 bits).  Insertion predicts a *long*
    re-reference interval (:data:`RRPV_LONG`); a hit promotes the row to
    MRU (``0``).  Victims are the rows with the highest RRPV — aging is
    virtual: incrementing every RRPV until one saturates never changes
    the relative order, so ranking by descending RRPV (LRU-tiebroken)
    selects exactly the rows the classic scan-and-age loop would.

Row-count and payload-byte caps are orthogonal to the policy choice:
:meth:`ResultStore.evict(policy=..., max_rows=..., max_bytes=...)
<repro.store.backend.ResultStore.evict>` evicts in policy order until
both caps hold, and :meth:`configure_eviction
<repro.store.backend.ResultStore.configure_eviction>` enforces them on
every ``put``.  RRPVs live in the store's rows — persistent for stores
on disk, never part of deterministic exports — so an eviction pass in
one process and a resume in another see the same state.

Every order is total and deterministic (ties break on the key).
Evicted keys simply read as misses, so sweeps and the batch service
recompute and re-store them — consolidated reports stay byte-identical
to unbounded runs (the cache-correctness contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "EvictionConfig",
    "EvictionRule",
    "EVICTION_POLICIES",
    "eviction_policy",
    "eviction_policy_names",
    "RRPV_MAX",
    "RRPV_LONG",
]

#: 2-bit saturating re-reference prediction values (ChampSim idiom).
RRPV_MAX = 3
#: "Long re-reference interval" insertion prediction (SRRIP).
RRPV_LONG = RRPV_MAX - 1


def _recency(row: dict) -> float:
    """A row's last-touch time: last hit, else creation."""
    last = row.get("last_hit_at")
    return row["created_at"] if last is None else last


class EvictionRule(NamedTuple):
    """One policy: how it ranks victims and what a fresh row predicts.

    ``sort_key`` maps a row metadata dict (``key``, ``kind``,
    ``created_at``, ``hits``, ``last_hit_at``, ``rrpv``, ``bytes``) to
    its eviction rank — the smallest key is the first victim.
    ``insert_rrpv`` is the re-reference prediction stamped on a row the
    policy's configured store files (``0``, MRU, for recency policies).
    """

    sort_key: Callable[[dict], tuple]
    insert_rrpv: int


EVICTION_POLICIES: dict[str, EvictionRule] = {
    "lru": EvictionRule(lambda r: (_recency(r), r["key"]), 0),
    "fifo": EvictionRule(lambda r: (r["created_at"], r["key"]), 0),
    # Highest RRPV first; virtual aging preserves relative order, so
    # within an RRPV class the LRU row goes first (key tie-break).
    "rrip": EvictionRule(
        lambda r: (-r["rrpv"], _recency(r), r["key"]), RRPV_LONG
    ),
}


def eviction_policy_names() -> list[str]:
    """The policy names, sorted."""
    return sorted(EVICTION_POLICIES)


def eviction_policy(name: str) -> EvictionRule:
    """The rule of policy ``name``; unknown names raise a ``KeyError``
    that lists the known ones."""
    rule = EVICTION_POLICIES.get(name)
    if rule is None:
        raise KeyError(
            f"unknown eviction policy {name!r}; registered: "
            f"{', '.join(eviction_policy_names())}"
        )
    return rule


@dataclass(frozen=True)
class EvictionConfig:
    """A bounded-store configuration: the policy plus its caps.

    ``max_rows``/``max_bytes`` are *caps*, not targets: the store
    evicts (in policy order) only while it exceeds one of them.  At
    least one cap must be set.
    """

    policy: str = "lru"
    max_rows: int | None = None
    max_bytes: int | None = None

    def __post_init__(self):
        if self.max_rows is None and self.max_bytes is None:
            raise ValueError(
                "an eviction config needs max_rows and/or max_bytes"
            )
        if self.max_rows is not None and self.max_rows < 0:
            raise ValueError("max_rows must be non-negative")
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        eviction_policy(self.policy)  # fail fast on unknown names

    @staticmethod
    def from_spec(
        spec: "EvictionConfig | dict | None",
    ) -> "EvictionConfig | None":
        """Coerce an API/CLI eviction argument (``None`` passes through,
        dicts supply :class:`EvictionConfig` fields)."""
        if spec is None or isinstance(spec, EvictionConfig):
            return spec
        return EvictionConfig(**spec)
