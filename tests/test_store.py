"""Tests for the content-addressed result store: fingerprints, backends."""

from __future__ import annotations

import json

import pytest

from repro.platform.topology import get_topology, topology_names
from repro.spg.random_gen import random_spg
from repro.store import (
    ResultStore,
    canonical_json,
    cell_fingerprint,
    fingerprint,
    open_store,
    platform_payload,
    request_fingerprint,
    spg_payload,
)
from repro.store.serialize import PAYLOAD_SCHEMA_VERSION


class TestCanonicalJson:
    def test_key_order_invariance(self):
        a = {"b": 1, "a": [1, 2, {"y": 0.5, "x": 1.5}]}
        b = {"a": [1, 2, {"x": 1.5, "y": 0.5}], "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert fingerprint(a) == fingerprint(b)

    def test_floats_exact(self):
        x = 0.1 + 0.2  # not representable as "0.3"
        assert json.loads(canonical_json({"x": x}))["x"] == x

    def test_tuples_and_numpy_scalars(self):
        import numpy as np

        assert canonical_json((1, 2)) == canonical_json([1, 2])
        assert canonical_json(np.int64(7)) == canonical_json(7)
        assert canonical_json(np.float64(0.5)) == canonical_json(0.5)

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_json({(0, 1): "core-keyed"})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})

    def test_rejects_exotic_types(self):
        with pytest.raises(TypeError):
            canonical_json({"x": {1, 2}})


class TestComponentPayloads:
    def test_spg_fingerprint_reconstruction_stable(self):
        a = random_spg(12, rng=7, ccr=10.0)
        b = random_spg(12, rng=7, ccr=10.0)
        assert a is not b
        assert fingerprint(spg_payload(a)) == fingerprint(spg_payload(b))

    def test_spg_fingerprint_sensitive(self):
        a = random_spg(12, rng=7, ccr=10.0)
        b = random_spg(12, rng=8, ccr=10.0)
        c = random_spg(12, rng=7, ccr=1.0)
        fps = {fingerprint(spg_payload(s)) for s in (a, b, c)}
        assert len(fps) == 3

    def test_platform_payloads_distinguish_fabrics(self):
        # Same nominal size, different fabric/heterogeneity must never
        # collide (mesh vs torus share the field names p/q).
        payloads = [
            canonical_json(platform_payload(get_topology(name, 2, 2)))
            for name in topology_names()
        ]
        assert len(set(payloads)) == len(payloads)

    def test_platform_payload_stable_across_instances(self):
        a = get_topology("hetmesh", 3, 3)
        b = get_topology("hetmesh", 3, 3)
        assert platform_payload(a) == platform_payload(b)

    def test_uni_directional_distinguished(self):
        bi = get_topology("ring", 1, 4)
        uni = get_topology("uniring", 1, 4)
        assert platform_payload(bi) != platform_payload(uni)

    def test_non_dataclass_topology_fallback(self):
        # Third-party fabrics need not be dataclasses; the payload falls
        # back to the bounding box + speed scales + model identity.
        from repro.platform.speeds import XSCALE
        from repro.platform.topology import Topology

        class LineTopology(Topology):
            name = "testline"

            def __init__(self):
                self.p, self.q = 1, 3
                self.model = XSCALE
                self.speed_scales = (((0, 0), 0.5),)
                self._cache = {}

            def cores(self):
                return [(0, v) for v in range(self.q)]

            def neighbors(self, core):
                _u, v = core
                return [
                    (0, w) for w in (v - 1, v + 1) if 0 <= w < self.q
                ]

            def route(self, src, dst):
                step = 1 if dst[1] >= src[1] else -1
                return [
                    (0, v) for v in range(src[1], dst[1] + step, step)
                ]

        payload = platform_payload(LineTopology())
        assert payload["name"] == "testline"
        assert payload["p"] == 1 and payload["q"] == 3
        assert payload["speed_scales"] == [[[0, 0], 0.5]]
        assert canonical_json(payload)  # fully canonicalisable


class TestRequestKeys:
    def setup_method(self):
        self.spg = random_spg(10, rng=3, ccr=10.0)
        self.grid = get_topology("mesh", 2, 2)

    def test_cell_key_deterministic(self):
        k1 = cell_fingerprint(self.spg, self.grid, ("Greedy",), 5)
        k2 = cell_fingerprint(
            random_spg(10, rng=3, ccr=10.0), get_topology("mesh", 2, 2),
            ["Greedy"], 5,
        )
        assert k1 == k2
        assert len(k1) == 64  # sha256 hex

    def test_cell_key_pinned(self):
        # A store filled by an earlier release must still resume, so a
        # cell's key may never change for the same inputs.
        assert cell_fingerprint(self.spg, self.grid, ("Greedy",), 5) == (
            "27fd96a19627145d418d7c60f1f039f980c8b4bf83273749ef2f7d345376c52e"
        )

    def test_cell_key_sensitive_to_every_input(self):
        base = cell_fingerprint(self.spg, self.grid, ("Greedy",), 5)
        assert base != cell_fingerprint(self.spg, self.grid, ("Greedy",), 6)
        assert base != cell_fingerprint(
            self.spg, self.grid, ("Greedy", "DPA1D"), 5
        )
        assert base != cell_fingerprint(
            self.spg, get_topology("torus", 2, 2), ("Greedy",), 5
        )
        other = random_spg(10, rng=4, ccr=10.0)
        assert base != cell_fingerprint(other, self.grid, ("Greedy",), 5)

    def test_request_key_period_modes(self):
        auto = request_fingerprint(
            self.spg, self.grid, "greedy", None, 0, None
        )
        fixed = request_fingerprint(
            self.spg, self.grid, "greedy", None, 0, 1.0
        )
        assert auto != fixed


PAYLOAD = {"schema": PAYLOAD_SCHEMA_VERSION, "period": 1.0, "results": {}}


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        s = ResultStore()
    else:
        s = ResultStore(tmp_path / "test.sqlite")
    yield s
    s.close()


class TestBackends:
    def test_put_get_contains_len(self, store):
        assert store.get("k1") is None
        assert "k1" not in store
        store.put("k1", PAYLOAD, kind="sweep-cell")
        assert store.get("k1") == PAYLOAD
        assert "k1" in store
        assert len(store) == 1
        assert store.keys() == ["k1"]

    def test_replace(self, store):
        store.put("k", PAYLOAD)
        updated = dict(PAYLOAD, period=2.0)
        store.put("k", updated)
        assert store.get("k")["period"] == 2.0
        assert len(store) == 1

    def test_delete(self, store):
        store.put("a", PAYLOAD)
        store.put("b", PAYLOAD)
        assert store.delete(["a", "missing"]) == 1
        assert store.keys() == ["b"]

    def test_rows_without_payload(self, store):
        store.put("k", PAYLOAD, kind="solve")
        (row,) = store.rows(with_payload=False)
        assert row["payload"] is None
        assert row["kind"] == "solve"
        assert row["schema"] == PAYLOAD_SCHEMA_VERSION
        # ... and the metadata-only consumers still work on top of it.
        assert store.keys() == ["k"]
        assert store.stats()["entries"] == 1

    def test_rows_sorted_and_typed(self, store):
        store.put("z", PAYLOAD, kind="solve")
        store.put("a", PAYLOAD, kind="sweep-cell")
        rows = list(store.rows())
        assert [r["key"] for r in rows] == ["a", "z"]
        assert rows[0]["kind"] == "sweep-cell"
        assert rows[0]["schema"] == PAYLOAD_SCHEMA_VERSION
        assert rows[0]["payload"] == PAYLOAD
        assert isinstance(rows[0]["version"], str)

    def test_no_aliasing(self, store):
        store.put("k", PAYLOAD)
        out = store.get("k")
        out["period"] = 99.0
        assert store.get("k")["period"] == 1.0

    def test_stats(self, store):
        store.put("a", PAYLOAD, kind="sweep-cell")
        store.put("b", dict(PAYLOAD, schema=0), kind="solve")
        st = store.stats()
        assert st["entries"] == 2
        assert st["by_kind"] == {"sweep-cell": 1, "solve": 1}
        assert st["by_schema"] == {str(PAYLOAD_SCHEMA_VERSION): 1, "0": 1}
        assert st["stale"] == 1
        assert st["current_schema"] == PAYLOAD_SCHEMA_VERSION

    def test_gc_stale_default(self, store):
        store.put("cur", PAYLOAD)
        store.put("old", dict(PAYLOAD, schema=0))
        assert store.gc() == 1
        assert store.keys() == ["cur"]

    def test_gc_kind(self, store):
        store.put("a", PAYLOAD, kind="solve")
        store.put("b", PAYLOAD, kind="sweep-cell")
        assert store.gc(kind="solve") == 1
        assert store.keys() == ["b"]

    def test_gc_drop_all(self, store):
        store.put("a", PAYLOAD)
        store.put("b", PAYLOAD, kind="solve")
        assert store.gc(drop_all=True) == 2
        assert len(store) == 0

    def test_export_deterministic_across_fill_order(self, tmp_path):
        a, b = ResultStore(), ResultStore(tmp_path / "b.sqlite")
        a.put("x", PAYLOAD, kind="solve")
        a.put("y", dict(PAYLOAD, period=2.0))
        b.put("y", dict(PAYLOAD, period=2.0))
        b.put("x", PAYLOAD, kind="solve")
        assert json.dumps(a.export(), sort_keys=True) == json.dumps(
            b.export(), sort_keys=True
        )
        b.close()


class TestSQLitePersistence:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "persist.sqlite"
        s1 = ResultStore(path)
        s1.put("k", PAYLOAD, kind="sweep-cell")
        s1.close()
        s2 = ResultStore(path)
        assert s2.get("k") == PAYLOAD
        assert s2.stats()["entries"] == 1
        s2.close()

    def test_get_span_covers_the_hit_accounting(self, tmp_path, monkeypatch):
        """``store.get_s`` times the whole read: the hit/miss accounting
        write runs inside the ``store.get`` span."""
        from repro.obs.session import observability

        store = ResultStore(tmp_path / "span.sqlite")
        store.put("k", PAYLOAD)
        bump = ResultStore._bump
        seen = []

        def spying_bump(conn, name, n=1):
            tracer = session.tracer
            sid = tracer.current_id()
            seen.append((name, sid))
            bump(conn, name, n)

        monkeypatch.setattr(ResultStore, "_bump", staticmethod(spying_bump))
        with observability(trace=True) as session:
            assert store.get("k") == PAYLOAD
            assert store.get("missing") is None
        spans = [s.span_id for s in session.tracer.spans
                 if s.kind == "store.get"]
        assert seen == [("hits", spans[0]), ("misses", spans[1])]
        store.close()


class TestOpenStore:
    def test_none_and_memory(self):
        for spec in (None, ":memory:"):
            s = open_store(spec)
            assert s.location == ":memory:"
            s.close()

    def test_passthrough(self):
        s = ResultStore()
        assert open_store(s) is s

    def test_path(self, tmp_path):
        s = open_store(tmp_path / "x.sqlite")
        assert s.location == str(tmp_path / "x.sqlite")
        s.close()
