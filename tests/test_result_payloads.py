"""Stored result payloads decode and re-encode byte for byte.

``tests/data/golden_result_payloads.json`` holds payloads written by
the result store's encoders on fixed instances: a ``Greedy`` success, a
``Greedy`` failure, a ``dpa2d1d+refine`` pipeline (per-stage stats), a
``portfolio`` (member stats and winner) and one ``choose_period`` sweep
cell.  Stores written before a change to the result types must still
read back the same, so each payload must survive decode then re-encode
unchanged, and a fresh run of the same request must agree with the
decoded result on everything a report reads: the name, the mapping,
the ``repr`` of every energy term and the failure.  Timings in
``stats`` differ between two runs and are compared only through the
round trip.

Regenerate deliberately with::

    PYTHONPATH=src:. python tests/test_result_payloads.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.problem import ProblemInstance
from repro.experiments.period import choose_period
from repro.heuristics.base import PAPER_ORDER
from repro.platform.topology import get_topology
from repro.solvers import run
from repro.spg.random_gen import random_spg
from repro.store.serialize import (
    choice_from_payload,
    choice_to_payload,
    result_to_payload,
    solver_result_from_payload,
)

PAYLOADS_PATH = Path(__file__).parent / "data" / "golden_result_payloads.json"

#: label -> (n, SPG seed, CCR, topology, p, q, period scale, spec, rng).
#: The period is ``scale`` times the loose period of ``tests/helpers``.
RESULT_CASES = {
    "greedy_ok": (14, 3, 10.0, "mesh", 3, 3, 1.0, "Greedy", 1),
    "greedy_fail": (14, 3, 10.0, "mesh", 3, 3, 1e-9, "Greedy", 1),
    "dpa2d1d_refine": (16, 5, 10.0, "torus", 3, 3, 4.0, "dpa2d1d+refine", 0),
    "portfolio": (12, 7, 1.0, "mesh", 2, 3, 1.0, "portfolio", 5),
}

#: The ``choose_period`` cell: (n, SPG seed, CCR, topology, p, q, rng).
CHOICE_CASE = (12, 11, 10.0, "mesh", 3, 3, 4)


def _problem(n, spg_seed, ccr, topology, p, q, scale) -> ProblemInstance:
    from tests.helpers import loose_period

    spg = random_spg(n, rng=spg_seed, ccr=ccr)
    return ProblemInstance(
        spg, get_topology(topology, p, q), scale * loose_period(spg)
    )


def _fresh_result(label: str):
    *instance, spec, seed = RESULT_CASES[label]
    return run(spec, _problem(*instance), rng=seed)


def _fresh_choice():
    n, spg_seed, ccr, topology, p, q, seed = CHOICE_CASE
    spg = random_spg(n, rng=spg_seed, ccr=ccr)
    return choose_period(spg, get_topology(topology, p, q), rng=seed)


def _choice_context():
    n, spg_seed, ccr, topology, p, q, _seed = CHOICE_CASE
    return random_spg(n, rng=spg_seed, ccr=ccr), get_topology(topology, p, q)


def _snapshots() -> dict:
    return {
        "results": {
            label: result_to_payload(_fresh_result(label))
            for label in RESULT_CASES
        },
        "choice": choice_to_payload(_fresh_choice()),
    }


@pytest.fixture(scope="module")
def payloads() -> dict:
    with open(PAYLOADS_PATH) as fh:
        return json.load(fh)


def _text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _assert_agree(fresh, decoded) -> None:
    """The fields every report reads, compared exactly."""
    assert fresh.solver == decoded.solver
    assert fresh.failure == decoded.failure
    assert fresh.ok == decoded.ok
    if fresh.ok:
        assert fresh.mapping.alloc == decoded.mapping.alloc
        assert fresh.mapping.speeds == decoded.mapping.speeds
        assert fresh.mapping.paths == decoded.mapping.paths
        for term in ("comp_leak", "comp_dyn", "comm_leak", "comm_dyn",
                     "total"):
            assert repr(getattr(fresh.energy, term)) == repr(
                getattr(decoded.energy, term)
            )


def test_fixture_covers_the_cases(payloads):
    results = payloads["results"]
    assert set(results) == set(RESULT_CASES)
    assert results["greedy_ok"]["ok"]
    assert not results["greedy_fail"]["ok"]
    assert [s["solver"] for s in results["dpa2d1d_refine"]["stats"]["stages"]
            ] == ["dpa2d1d", "refine"]
    assert results["portfolio"]["stats"]["members"]
    assert results["portfolio"]["stats"]["winner"]
    assert set(payloads["choice"]["results"]) == set(PAPER_ORDER)


@pytest.mark.parametrize("label", sorted(RESULT_CASES))
def test_result_decode_reencode_is_exact(payloads, label):
    payload = payloads["results"][label]
    *instance, _spec, _seed = RESULT_CASES[label]
    prob = _problem(*instance)
    decoded = solver_result_from_payload(payload, prob.spg, prob.grid)
    again = result_to_payload(decoded)
    assert again == payload
    assert _text(again) == _text(payload)


@pytest.mark.parametrize("label", sorted(RESULT_CASES))
def test_fresh_run_agrees_with_decoded(payloads, label):
    *instance, _spec, _seed = RESULT_CASES[label]
    prob = _problem(*instance)
    decoded = solver_result_from_payload(
        payloads["results"][label], prob.spg, prob.grid
    )
    _assert_agree(_fresh_result(label), decoded)


def test_choice_decode_reencode_is_exact(payloads):
    spg, grid = _choice_context()
    payload = payloads["choice"]
    decoded = choice_from_payload(payload, spg, grid, order=PAPER_ORDER)
    again = choice_to_payload(decoded)
    assert again == payload
    assert _text(again) == _text(payload)


def test_choice_decode_needs_a_column_order(payloads):
    # Stored payloads have sorted keys: only the caller knows the order.
    spg, grid = _choice_context()
    with pytest.raises(TypeError):
        choice_from_payload(payloads["choice"], spg, grid)


def test_fresh_choice_agrees_with_decoded(payloads):
    spg, grid = _choice_context()
    decoded = choice_from_payload(
        payloads["choice"], spg, grid, order=PAPER_ORDER
    )
    fresh = _fresh_choice()
    assert repr(fresh.period) == repr(decoded.period)
    assert list(fresh.results) == list(decoded.results)
    for name, res in fresh.results.items():
        _assert_agree(res, decoded.results[name])


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    with open(PAYLOADS_PATH, "w") as fh:
        json.dump(_snapshots(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"result payloads written to {PAYLOADS_PATH}")
