"""Tests for the batch mapping service (repro serve --batch)."""

from __future__ import annotations

import json

import pytest

from repro.store import (
    BatchRequest,
    ResultStore,
    load_requests,
    serve_batch,
)
from repro.store.service import serve_summary

REQS = [
    {"solver": "greedy", "app": "random-10", "size": "2x2", "seed": 0},
    {"solver": "dpa2d1d+refine", "app": "random-10", "topology": "torus",
     "size": "2x2", "ccr": 10.0, "seed": 1},
    {"solver": "greedy|dpa1d", "app": "DCT", "size": "2x2", "seed": 2},
    # An explicit, hopeless period: a deterministic failure answer.
    {"solver": "greedy", "app": "random-10", "size": "2x2", "seed": 0,
     "period": 1e-9},
]


def strip_cached(report: dict) -> list[dict]:
    return [
        {k: v for k, v in r.items() if k != "cached"}
        for r in report["responses"]
    ]


class TestLoadRequests:
    def test_bare_list_and_wrapped(self, tmp_path):
        p1 = tmp_path / "bare.json"
        p1.write_text(json.dumps(REQS))
        p2 = tmp_path / "wrapped.json"
        p2.write_text(json.dumps({"requests": REQS}))
        assert load_requests(str(p1)) == load_requests(str(p2))
        assert len(load_requests(str(p1))) == 4

    def test_defaults(self):
        (req,) = load_requests([{"solver": "greedy"}])
        assert req == BatchRequest(solver="greedy")
        assert req.app == "FMRadio" and req.size == "4x4"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            load_requests([{"solver": "greedy", "sovler_typo": 1}])

    def test_non_list_rejected(self):
        with pytest.raises(ValueError):
            load_requests({"not_requests": []})


class TestServeBatch:
    def test_cold_then_warm_hits_and_equality(self):
        store = ResultStore()
        reqs = load_requests(REQS)
        cold = serve_batch(reqs, store=store)
        assert cold["meta"]["hits"] == 0
        assert cold["meta"]["misses"] == 4
        assert store.stats()["by_kind"] == {"solve": 4}

        warm = serve_batch(reqs, store=store)
        assert warm["meta"]["hits"] == 4
        assert warm["meta"]["misses"] == 0
        assert all(r["cached"] for r in warm["responses"])
        # Everything except the cached flag is bit-identical.
        assert strip_cached(cold) == strip_cached(warm)

    def test_solver_is_answered_as_spelled(self):
        """Each spelling is its own request and answers under the name
        it was asked for, cold and warm; the mapping is the same."""
        spellings = ("Greedy", "GREEDY", "greedy")
        reqs = load_requests([
            {"solver": name, "app": "random-10", "size": "2x2", "seed": 0}
            for name in spellings
        ])
        store = ResultStore()
        cold = serve_batch(reqs, store=store)
        warm = serve_batch(reqs, store=store)
        assert cold["meta"]["misses"] == 3 and warm["meta"]["hits"] == 3
        for report in (cold, warm):
            responses = report["responses"]
            assert [r["solver"] for r in responses] == list(spellings)
            assert all(r["ok"] for r in responses)
            assert len({r["key"] for r in responses}) == 3
            assert len({json.dumps(r["energy"]) for r in responses}) == 1
        assert strip_cached(cold) == strip_cached(warm)

    def test_general_mapping_is_answered_cold_and_warm(self):
        """A ``+refine-general`` answer whose quotient has a cycle passes
        the response path's re-check, from a fresh solve and from the
        store alike."""
        from repro.core.partition import is_acyclic_quotient
        from repro.store.serialize import solver_result_from_payload

        reqs = load_requests([{
            "solver": "greedy+refine-general", "app": "random-12",
            "size": "4x4", "ccr": 5.0, "seed": 0,
        }])
        store = ResultStore()
        cold = serve_batch(reqs, store=store)
        warm = serve_batch(reqs, store=store)
        assert cold["responses"][0]["ok"] and warm["meta"]["hits"] == 1
        assert strip_cached(cold) == strip_cached(warm)
        res = solver_result_from_payload(
            store.get(cold["responses"][0]["key"])["result"],
            reqs[0].build_app(), reqs[0].build_platform(),
        )
        assert not is_acyclic_quotient(res.mapping.spg, res.mapping.alloc)

    def test_jobs_invariance(self):
        reqs = load_requests(REQS)
        serial = serve_batch(reqs, store=ResultStore(), jobs=1)
        pooled = serve_batch(reqs, store=ResultStore(), jobs=2)
        assert strip_cached(serial) == strip_cached(pooled)

    def test_response_shape(self):
        reqs = load_requests(REQS)
        report = serve_batch(reqs, store=ResultStore())
        ok = report["responses"][0]
        assert ok["ok"] and ok["failure"] is None
        assert ok["total_energy"] == sum(ok["energy"].values())
        assert ok["period"] > 0
        assert len(ok["key"]) == 64
        assert ok["request"]["solver"] == "greedy"
        fail = report["responses"][3]
        assert not fail["ok"]
        assert fail["energy"] is None and fail["total_energy"] is None
        assert "no speed" in fail["failure"] or fail["failure"]

    def test_identical_requests_share_one_key(self):
        # Two identical requests: the second is answered by the first's
        # freshly-stored result within the same batch... or computed in
        # the same miss fan-out; either way the keys and answers match.
        store = ResultStore()
        reqs = load_requests([REQS[0], dict(REQS[0])])
        report = serve_batch(reqs, store=store)
        a, b = report["responses"]
        assert a["key"] == b["key"]
        assert len(store) == 1
        assert {k: v for k, v in a.items() if k not in ("index", "cached")} \
            == {k: v for k, v in b.items() if k not in ("index", "cached")}

    def test_seed_changes_key(self):
        reqs = load_requests([
            dict(REQS[0], seed=0), dict(REQS[0], seed=1),
        ])
        report = serve_batch(reqs, store=ResultStore())
        a, b = report["responses"]
        assert a["key"] != b["key"]

    def test_ccr_none_means_natural_ccr(self):
        # ccr=null passes through to the app builder (the sweep's
        # semantics), so it is a different instance than ccr=10.
        natural, rescaled = load_requests([
            dict(REQS[0], ccr=None), dict(REQS[0], ccr=10.0),
        ])
        assert natural.build_app().ccr != rescaled.build_app().ccr
        report = serve_batch(
            [natural, rescaled], store=ResultStore()
        )
        a, b = report["responses"]
        assert a["key"] != b["key"]
        assert a["total_energy"] != b["total_energy"]

    def test_streamit_index_app(self):
        (req,) = load_requests([
            {"solver": "greedy", "app": "3", "size": "4x4", "seed": 0}
        ])
        report = serve_batch([req], store=ResultStore())
        assert report["responses"][0]["ok"]

    def test_refinement_is_a_spec_stage_not_an_option(self):
        """``options`` reach the producer only: ``refine`` there is an
        error response, ``"greedy+refine"`` is the refined request."""
        spec_req, opt_req = load_requests([
            dict(REQS[0], solver="greedy+refine"),
            dict(REQS[0], options={"refine": True}),
        ])
        refined, rejected = serve_batch(
            [spec_req, opt_req], store=ResultStore()
        )["responses"]
        assert refined["ok"] and refined["error"] is None
        assert not rejected["ok"]
        assert "unexpected keyword argument 'refine'" in (
            rejected["error"]["message"]
        )

    def test_summary_renders(self):
        reqs = load_requests(REQS)
        report = serve_batch(reqs, store=ResultStore())
        text = serve_summary(report)
        assert "4 requests" in text
        assert "miss" in text
        assert "FAILED" in text
