"""Persistent, content-addressed result stores with integrity checks.

A :class:`ResultStore` files JSON payloads (see
:mod:`repro.store.serialize`) under content-addressed fingerprints (see
:mod:`repro.store.fingerprint`).  One backend, SQLite, in one of two
places:

* a database file in WAL mode, committing every ``put`` so an
  interrupted sweep loses at most the in-flight batch, and tolerating
  concurrent writers (independent shard invocations filling one store
  file);
* ``":memory:"`` (the default) — a private in-process database for
  tests and the batch service's store-less mode; nothing survives
  :meth:`ResultStore.close`.

**Integrity.**  Every ``put`` records the sha256 checksum of the
serialised payload text; every ``get`` re-verifies it (and that the
text still parses).  A row that fails — torn write, disk fault,
tampering — is a typed :class:`~repro.core.errors.StoreCorruption`, and
the default recovery is to *quarantine* it: the row moves to a side
table (keeping the bytes for forensics) and the key reads as a miss, so
a resumed sweep recomputes the cell instead of crashing on a raw
``json.JSONDecodeError``.  ``repro store verify`` audits a whole store;
rows written before checksums existed verify as ``unchecksummed`` and
are never quarantined automatically.

**Boundedness.**  Stores stay serviceable under sustained traffic
through the eviction policies (:mod:`repro.store.eviction`):
:meth:`ResultStore.evict` removes rows in policy order (``lru``,
``fifo``, ``rrip``) until row-count/payload-byte caps hold, and
:meth:`ResultStore.configure_eviction` enforces the caps on every
``put``.  Evicted keys simply read as misses — resumed sweeps and the
batch service recompute and re-file them, so consolidated reports stay
byte-identical to unbounded runs.  The cap check on the ``put`` path is
O(1) (``COUNT(*)``/``SUM(LENGTH(...))`` aggregates); row metadata is
only fetched once a cap is actually exceeded.

Every row also records the payload schema version and the library
version that wrote it, so ``repro store gc`` can purge entries an older
(or newer) payload layout left behind, and ``stats``/``export`` can
audit a store without deserialising results.  All row timestamps
(``created_at``, ``last_hit_at``, quarantine times) come from one
injectable clock (``clock=``, default wall time) so recency-ordered
eviction is deterministic in tests and under ``REPRO_FAULT_PLAN``
replays — see :class:`LogicalClock`.

For deterministic chaos testing, a :class:`~repro.resilience.FaultPlan`
passed at construction (``faults=``) garbles matching rows *below* the
checksum at ``put`` time — exactly the class of corruption the
verification layer exists to catch.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core.errors import StoreCorruption
from repro.obs.session import inc, trace_span
from repro.resilience.faults import FaultPlan
from repro.store.eviction import EvictionConfig, eviction_policy
from repro.store.serialize import PAYLOAD_SCHEMA_VERSION
from repro.util.version import repro_version

__all__ = [
    "ResultStore",
    "LogicalClock",
    "open_store",
    "payload_checksum",
]


def payload_checksum(text: str) -> str:
    """The sha256 hex digest of a serialised payload."""
    return hashlib.sha256(text.encode()).hexdigest()


class LogicalClock:
    """A deterministic logical clock: each call returns the next tick.

    Inject into a store (``clock=LogicalClock()``) wherever recency
    ordering must be reproducible — LRU eviction tests, fault-plan
    replays — instead of racing wall-clock timestamps.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._t = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        self._t += self._step
        return self._t


def _parse_verified(key: str, text: str, checksum: str | None) -> dict:
    """Parse a stored payload, verifying its checksum when present.

    Raises :class:`StoreCorruption` on a checksum mismatch or
    unparsable text; a ``None`` checksum (pre-checksum rows) skips
    verification — ``repro store verify`` reports those separately.
    """
    if checksum is not None:
        actual = payload_checksum(text)
        if actual != checksum:
            raise StoreCorruption(
                key, f"checksum mismatch (stored {checksum[:12]}..., "
                     f"payload hashes to {actual[:12]}...)"
            )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreCorruption(key, f"payload is not valid JSON: {exc}")


class ResultStore:
    """Keyed payload storage with integrity and schema bookkeeping, in
    one SQLite database (a file path, or ``":memory:"``).

    WAL journalling plus a generous busy timeout let independent shard
    invocations write into the same file; each ``put`` commits, so a
    killed sweep keeps everything stored up to the last completed batch.
    Multi-row operations (``delete``, gc, quarantine moves) run inside
    explicit transactions, so an interruption can never leave them half
    applied.  Stores created before checksums existed are migrated in
    place (the new columns/table are added; old rows verify as
    ``unchecksummed``).
    """

    def __init__(
        self,
        path: "str | Path" = ":memory:",
        faults: FaultPlan | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.path = Path(path)
        #: Human-readable location (``":memory:"`` or a file path).
        self.location = str(self.path)
        self._faults = faults
        self._clock = time.time if clock is None else clock
        #: Keys this instance quarantined during its lifetime (operator
        #: reporting only — never part of canonical reports).
        self.session_quarantined: list[str] = []
        #: Put-path eviction config (see :meth:`configure_eviction`);
        #: ``None`` = unbounded.
        self._eviction: EvictionConfig | None = None
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            with self._conn:
                self._conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS results (
                        key TEXT PRIMARY KEY,
                        kind TEXT NOT NULL,
                        schema INTEGER NOT NULL,
                        version TEXT NOT NULL,
                        created_at REAL NOT NULL,
                        payload TEXT NOT NULL,
                        checksum TEXT,
                        hits INTEGER NOT NULL DEFAULT 0,
                        last_hit_at REAL,
                        rrpv INTEGER NOT NULL DEFAULT 0
                    )
                    """
                )
                cols = {
                    row[1] for row in self._conn.execute(
                        "PRAGMA table_info(results)"
                    )
                }
                if "checksum" not in cols:
                    self._conn.execute(
                        "ALTER TABLE results ADD COLUMN checksum TEXT"
                    )
                # Pre-observability stores gain the read-accounting
                # columns in place; legacy rows start at zero hits.
                if "hits" not in cols:
                    self._conn.execute(
                        "ALTER TABLE results ADD COLUMN "
                        "hits INTEGER NOT NULL DEFAULT 0"
                    )
                if "last_hit_at" not in cols:
                    self._conn.execute(
                        "ALTER TABLE results ADD COLUMN last_hit_at REAL"
                    )
                # Pre-eviction stores gain the re-reference prediction
                # column; legacy rows read as MRU (never-evict-first).
                if "rrpv" not in cols:
                    self._conn.execute(
                        "ALTER TABLE results ADD COLUMN "
                        "rrpv INTEGER NOT NULL DEFAULT 0"
                    )
                self._conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS access_stats (
                        name TEXT PRIMARY KEY,
                        value INTEGER NOT NULL
                    )
                    """
                )
                self._conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS quarantine (
                        key TEXT PRIMARY KEY,
                        kind TEXT NOT NULL,
                        schema INTEGER NOT NULL,
                        version TEXT NOT NULL,
                        created_at REAL NOT NULL,
                        payload TEXT NOT NULL,
                        checksum TEXT,
                        reason TEXT NOT NULL,
                        quarantined_at REAL NOT NULL
                    )
                    """
                )
        except BaseException:
            # Never leak a half-initialised connection (e.g. the path
            # exists but is not a database).
            self._conn.close()
            self._conn = None
            raise

    def _db(self) -> sqlite3.Connection:
        if self._conn is None:
            raise RuntimeError(f"store {self.location} is closed")
        return self._conn

    def close(self) -> None:
        """Release the connection; safe to call twice and from error
        paths.  An in-memory store's rows are gone afterwards."""
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close-time races
                pass

    # -- writes ---------------------------------------------------------
    def put(self, key: str, payload: dict, kind: str = "result") -> None:
        """File ``payload`` under ``key`` (replacing any previous entry).

        The row's schema version is read from ``payload["schema"]``
        (defaulting to the current :data:`PAYLOAD_SCHEMA_VERSION`); the
        row records the sha256 checksum of the serialised text.  With an
        eviction config attached (:meth:`configure_eviction`), the row
        carries the policy's insertion prediction, and a put that leaves
        the store over its caps evicts in policy order — the
        just-written row itself is exempt.
        """
        cfg = self._eviction
        with trace_span("store.put", kind=kind):
            text = json.dumps(payload, sort_keys=True)
            checksum = payload_checksum(text)
            rrpv = (
                0 if cfg is None else eviction_policy(cfg.policy).insert_rrpv
            )
            if self._faults is not None and self._faults.corrupt_put(key):
                text = text[: max(1, len(text) // 2)]  # torn write
            with self._db() as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, kind, schema, version, created_at, payload, "
                    "checksum, rrpv) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        key,
                        kind,
                        int(payload.get("schema", PAYLOAD_SCHEMA_VERSION)),
                        repro_version(),
                        self._clock(),
                        text,
                        checksum,
                        rrpv,
                    ),
                )
        inc("store.puts")
        if cfg is not None:
            self.evict(
                policy=cfg.policy,
                max_rows=cfg.max_rows,
                max_bytes=cfg.max_bytes,
                protect=(key,),
            )

    def delete(self, keys: Iterable[str]) -> int:
        """Remove the given keys; returns how many existed."""
        keys = list(keys)
        n = 0
        with self._db() as conn:
            for key in keys:
                cur = conn.execute(
                    "DELETE FROM results WHERE key = ?", (key,)
                )
                n += cur.rowcount
        return n

    # -- reads ----------------------------------------------------------
    def get(self, key: str, on_corrupt: str = "quarantine") -> dict | None:
        """The payload filed under ``key``, or ``None``.

        Integrity is verified on every read.  ``on_corrupt`` selects
        the failure mode: ``"quarantine"`` (default) moves the bad row
        aside and returns ``None`` — the caller recomputes, exactly as
        for a miss; ``"raise"`` surfaces the typed
        :class:`StoreCorruption` instead.

        Every call is counted: hits bump the row's persistent ``hits``/
        ``last_hit_at`` accounting, promote its re-reference prediction
        to MRU (``rrpv = 0``) and bump the aggregate hit counter; misses
        (including quarantined corrupt rows) bump the aggregate miss
        counter — surfaced by ``repro store stats`` and the
        ``store.hits``/``store.misses`` session metrics.
        """
        with trace_span("store.get") as sp:
            found = self._fetch_text(key)
            if found is None:
                result = None
            else:
                text, checksum = found
                try:
                    result = _parse_verified(key, text, checksum)
                except StoreCorruption as exc:
                    if on_corrupt == "raise":
                        raise
                    self.quarantine(key, exc.reason)
                    result = None
            if sp is not None:
                sp.attrs["hit"] = result is not None
            with self._db() as conn:
                if result is not None:
                    conn.execute(
                        "UPDATE results SET hits = hits + 1, "
                        "last_hit_at = ?, rrpv = 0 WHERE key = ?",
                        (self._clock(), key),
                    )
                self._bump(conn, "hits" if result is not None else "misses")
        inc("store.hits" if result is not None else "store.misses")
        return result

    def _fetch_text(self, key: str) -> tuple[str, str | None] | None:
        """The raw ``(payload_text, checksum)`` for ``key``, if any."""
        cur = self._db().execute(
            "SELECT payload, checksum FROM results WHERE key = ?", (key,)
        )
        row = cur.fetchone()
        return None if row is None else (row[0], row[1])

    def rows(self, with_payload: bool = True) -> Iterator[dict]:
        """All rows as ``{key, kind, schema, version, payload}`` dicts,
        in sorted key order (deterministic for export/diffing).

        ``with_payload=False`` yields ``payload`` as ``None`` without
        deserialising it — sweep-cell payloads are multi-KB, and the
        metadata-only consumers (stats, gc, keys) should not pay to
        parse every stored result just to count or select rows.  With
        payloads, a corrupt row raises a typed :class:`StoreCorruption`
        (run ``repro store verify --quarantine`` to clear it) instead
        of a raw decode error.
        """
        payload_cols = "payload, checksum" if with_payload else "NULL, NULL"
        cur = self._db().execute(
            f"SELECT key, kind, schema, version, {payload_cols} "
            "FROM results ORDER BY key"
        )
        for key, kind, schema, version, payload, checksum in cur:
            yield {
                "key": key,
                "kind": kind,
                "schema": schema,
                "version": version,
                "payload": (
                    _parse_verified(key, payload, checksum)
                    if with_payload else None
                ),
            }

    def keys(self) -> list[str]:
        return [row["key"] for row in self.rows(with_payload=False)]

    def __len__(self) -> int:
        cur = self._db().execute("SELECT COUNT(*) FROM results")
        return int(cur.fetchone()[0])

    def __contains__(self, key: str) -> bool:
        cur = self._db().execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)
        )
        return cur.fetchone() is not None

    def total_bytes(self) -> int:
        """Total serialised payload bytes across all live rows (an
        aggregate query — never deserialises payloads)."""
        total = self._db().execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM results"
        ).fetchone()[0]
        return int(total)

    # -- access accounting (operator telemetry, never canonical) -------
    @staticmethod
    def _bump(conn: sqlite3.Connection, name: str, n: int = 1) -> None:
        conn.execute(
            "INSERT INTO access_stats (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + ?",
            (name, n, n),
        )

    def _add_counter(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named accounting counter (eviction totals)."""
        with self._db() as conn:
            self._bump(conn, name, n)

    def _counters(self) -> dict:
        """All named accounting counters (a snapshot dict).  Rows no
        policy reads any more (``psel``, ``bip_counter``) are kept and
        ignored."""
        return dict(
            self._db().execute("SELECT name, value FROM access_stats")
        )

    def access_stats(self) -> dict:
        """Lifetime read accounting: ``{hits, misses, rows_never_hit,
        last_hit_at}`` (persistent for stores on disk).  Excluded from
        :meth:`export` and :meth:`rows` so snapshots stay
        deterministic."""
        conn = self._db()
        agg = self._counters()
        never = conn.execute(
            "SELECT COUNT(*) FROM results WHERE hits = 0"
        ).fetchone()[0]
        last = conn.execute(
            "SELECT MAX(last_hit_at) FROM results"
        ).fetchone()[0]
        return {
            "hits": int(agg.get("hits", 0)),
            "misses": int(agg.get("misses", 0)),
            "rows_never_hit": int(never),
            "last_hit_at": last,
        }

    # -- integrity ------------------------------------------------------
    def verify(self, quarantine: bool = False) -> dict:
        """Audit every row's checksum; optionally quarantine failures.

        Returns ``{location, checked, ok, unchecksummed, corrupt:
        [{key, kind?, error}], quarantined}``.  ``unchecksummed`` counts
        rows written before checksums existed (verified as far as JSON
        parsing only).
        """
        corrupt: list[dict] = []
        unchecksummed = 0
        checked = 0
        for key, text, checksum in self._db().execute(
            "SELECT key, payload, checksum FROM results ORDER BY key"
        ):
            checked += 1
            if checksum is None:
                unchecksummed += 1
            try:
                _parse_verified(key, text, checksum)
            except StoreCorruption as exc:
                corrupt.append({"key": key, "error": exc.reason})
        if quarantine:
            for entry in corrupt:
                self.quarantine(entry["key"], entry["error"])
        return {
            "location": self.location,
            "checked": checked,
            "ok": checked - len(corrupt),
            "unchecksummed": unchecksummed,
            "corrupt": corrupt,
            "quarantined": len(corrupt) if quarantine else 0,
        }

    def quarantine(self, key: str, reason: str) -> bool:
        """Move ``key`` out of the live table into the quarantine area
        (payload bytes preserved for forensics); the key then reads as
        a miss so resume paths recompute it.  Returns whether the key
        existed."""
        with self._db() as conn:
            cur = conn.execute(
                "INSERT OR REPLACE INTO quarantine "
                "SELECT key, kind, schema, version, created_at, payload, "
                "checksum, ?, ? FROM results WHERE key = ?",
                (reason, self._clock(), key),
            )
            moved = cur.rowcount > 0
            conn.execute("DELETE FROM results WHERE key = ?", (key,))
        if moved:
            self.session_quarantined.append(key)
        return moved

    def quarantined(self) -> list[dict]:
        """Quarantined rows as ``{key, kind, reason}`` in key order."""
        cur = self._db().execute(
            "SELECT key, kind, reason FROM quarantine ORDER BY key"
        )
        return [
            {"key": key, "kind": kind, "reason": reason}
            for key, kind, reason in cur
        ]

    # -- bounded-store eviction ----------------------------------------
    def configure_eviction(
        self,
        policy: "str | EvictionConfig | None" = "lru",
        max_rows: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        """Attach (or detach) put-path cap enforcement.

        ``policy`` is an eviction-policy name or a prebuilt
        :class:`~repro.store.eviction.EvictionConfig`; at least one of
        ``max_rows``/``max_bytes`` must be given.  ``policy=None``
        detaches the config (the store becomes unbounded again).  Every
        subsequent ``put`` stamps the policy's insertion RRPV.
        """
        if policy is None or isinstance(policy, EvictionConfig):
            self._eviction = policy
        else:
            self._eviction = EvictionConfig(
                policy=policy, max_rows=max_rows, max_bytes=max_bytes
            )

    def evict(
        self,
        policy: str = "lru",
        max_rows: int | None = None,
        max_bytes: int | None = None,
        protect: Iterable[str] = (),
    ) -> dict:
        """Evict rows in policy order until both caps hold.

        Returns ``{policy, evicted, freed_bytes, rows, bytes, max_rows,
        max_bytes}`` (``rows``/``bytes`` are the post-eviction store
        size).  The overage check costs two aggregate queries; row
        metadata is fetched only when a cap is actually exceeded.
        ``protect`` exempts keys (the put path protects the row it just
        wrote).  Evictions are counted per policy (``repro store
        stats``) and in the ``store.evictions`` session metric, under a
        ``store.evict`` trace span.
        """
        if max_rows is None and max_bytes is None:
            raise ValueError("evict needs max_rows and/or max_bytes")
        rule = eviction_policy(policy)
        victims: list[str] = []
        freed = 0
        with trace_span("store.evict", policy=policy) as sp:
            n_rows = len(self)
            n_bytes = self.total_bytes()
            need_rows = (
                max(0, n_rows - max_rows) if max_rows is not None else 0
            )
            need_bytes = (
                max(0, n_bytes - max_bytes) if max_bytes is not None else 0
            )
            if need_rows or need_bytes:
                exempt = frozenset(protect)
                for row in sorted(self._eviction_rows(), key=rule.sort_key):
                    if len(victims) >= need_rows and freed >= need_bytes:
                        break
                    if row["key"] in exempt:
                        continue
                    victims.append(row["key"])
                    freed += row["bytes"]
                self.delete(victims)
                self._add_counter(f"evicted:{policy}", len(victims))
            if sp is not None:
                sp.attrs["evicted"] = len(victims)
        if victims:
            inc("store.evictions", len(victims))
        return {
            "policy": policy,
            "evicted": len(victims),
            "freed_bytes": freed,
            "rows": n_rows - len(victims),
            "bytes": n_bytes - freed,
            "max_rows": max_rows,
            "max_bytes": max_bytes,
        }

    def _eviction_rows(self) -> Iterator[dict]:
        """Row metadata for the eviction policies, in key order:
        ``{key, kind, created_at, hits, last_hit_at, rrpv, bytes}``."""
        cur = self._db().execute(
            "SELECT key, kind, created_at, hits, last_hit_at, rrpv, "
            "LENGTH(payload) FROM results ORDER BY key"
        )
        for key, kind, created, hits, last, rrpv, nbytes in cur:
            yield {
                "key": key,
                "kind": kind,
                "created_at": created,
                "hits": hits,
                "last_hit_at": last,
                "rrpv": rrpv,
                "bytes": nbytes,
            }

    def eviction_stats(self) -> dict:
        """Lifetime eviction accounting: per-policy victim counts
        (including policies this version no longer offers)."""
        by_policy = {
            name.split(":", 1)[1]: int(value)
            for name, value in self._counters().items()
            if name.startswith("evicted:")
        }
        return {
            "evicted": dict(sorted(by_policy.items())),
            "total": sum(by_policy.values()),
        }

    # -- maintenance and reporting -------------------------------------
    def _count_aggregates(self) -> tuple[int, dict, dict, int]:
        """``(total, by_kind, by_schema, stale)`` entry counts, from
        ``COUNT(*)``/GROUP-BY aggregates so cap checks and ``repro store
        stats`` stay cheap on large stores."""
        conn = self._db()
        total = len(self)
        by_kind = {
            kind: int(n)
            for kind, n in conn.execute(
                "SELECT kind, COUNT(*) FROM results GROUP BY kind"
            )
        }
        by_schema = {
            str(schema): int(n)
            for schema, n in conn.execute(
                "SELECT schema, COUNT(*) FROM results GROUP BY schema"
            )
        }
        stale = int(
            conn.execute(
                "SELECT COUNT(*) FROM results WHERE schema != ?",
                (PAYLOAD_SCHEMA_VERSION,),
            ).fetchone()[0]
        )
        return total, by_kind, by_schema, stale

    def stats(self) -> dict:
        """Entry counts by kind and schema version, plus staleness,
        payload bytes, access and eviction accounting."""
        total, by_kind, by_schema, stale = self._count_aggregates()
        return {
            "location": self.location,
            "entries": total,
            "bytes": self.total_bytes(),
            "by_kind": by_kind,
            "by_schema": by_schema,
            "stale": stale,
            "quarantined": len(self.quarantined()),
            "current_schema": PAYLOAD_SCHEMA_VERSION,
            "access": self.access_stats(),
            "eviction": self.eviction_stats(),
        }

    def gc(self, kind: str | None = None, drop_all: bool = False) -> int:
        """Purge entries; returns how many were removed.

        Default: entries whose payload schema version is not current
        (left behind by older/newer code).  ``kind`` restricts the purge
        to that kind *and* removes current-schema entries of it too
        (explicitly invalidating a class of results); ``drop_all``
        empties the store — quarantined rows included, so a full purge
        really reclaims every byte (the count covers them too).
        """
        doomed = [
            row["key"]
            for row in self.rows(with_payload=False)
            if drop_all
            or (kind is not None and row["kind"] == kind)
            or (kind is None and row["schema"] != PAYLOAD_SCHEMA_VERSION)
        ]
        removed = self.delete(doomed)
        if drop_all:
            with self._db() as conn:
                removed += conn.execute("DELETE FROM quarantine").rowcount
        return removed

    def export(self) -> dict:
        """A deterministic JSON snapshot of the whole store.

        Write timestamps are excluded so two stores holding the same
        results export byte-identically regardless of fill order (e.g.
        one filled serially vs. one merged from shards).  A corrupt row
        aborts the export with a typed :class:`StoreCorruption` —
        quarantine it first (``repro store verify --quarantine``) to
        snapshot the surviving rows.
        """
        return {
            "meta": {
                "schema_version": PAYLOAD_SCHEMA_VERSION,
                "repro_version": repro_version(),
                "entries": len(self),
            },
            "entries": {
                row["key"]: {
                    "kind": row["kind"],
                    "schema": row["schema"],
                    "version": row["version"],
                    "payload": row["payload"],
                }
                for row in self.rows()
            },
        }


def open_store(
    spec: "str | Path | ResultStore | None",
    faults: FaultPlan | None = None,
    clock: Callable[[], float] | None = None,
) -> ResultStore:
    """Coerce a CLI/API store argument into a :class:`ResultStore`.

    ``None`` and ``":memory:"`` build a fresh in-memory store; an
    existing store instance passes through (``faults``/``clock`` are
    ignored — the instance's own configuration stands); anything else
    is a SQLite file path (created on first use).
    """
    if isinstance(spec, ResultStore):
        return spec
    return ResultStore(
        ":memory:" if spec is None else spec, faults=faults, clock=clock
    )
