"""The store's cache-correctness contract.

Two halves:

* **Losslessness** — ``SolverResult -> payload -> JSON text -> payload
  -> SolverResult`` preserves everything (allocation, speeds, every
  routed path, the exact energy floats, failure strings, stats);
* **Hit == cold compute** — a result rebuilt from a stored payload is
  bit-identical (same serialised payload, same energy floats) to a
  fresh compute of the same fingerprinted request, for **every
  registered topology** and a sample of solver specs including a
  refine pipeline and a portfolio.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from helpers import loose_period

from repro.core.problem import ProblemInstance
from repro.platform.topology import get_topology, topology_names
from repro.solvers import SolverResult, run
from repro.spg.random_gen import random_spg
from repro.store import (
    ResultStore,
    mapping_from_payload,
    mapping_to_payload,
    request_fingerprint,
    result_to_payload,
    solver_result_from_payload,
)
from repro.util.rng import as_rng

#: The solver-spec sample of the contract: a plain heuristic, the
#: 1D line-embedding DP (non-default paths), a refine pipeline and a
#: portfolio (nested member stats).
SPECS = ("Greedy", "DPA1D", "dpa2d1d+refine", "greedy|dpa1d")


def tiny_problem(topology: str, seed: int = 3) -> ProblemInstance:
    spg = random_spg(10, rng=seed, ccr=10.0)
    grid = get_topology(topology, 2, 2)
    return ProblemInstance(spg, grid, loose_period(spg))


def json_roundtrip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def assert_bit_identical(a: SolverResult, b: SolverResult) -> None:
    """The equality the store guarantees: everything reports consume.

    Wall-clock ``stats`` legitimately differ between two computes, so
    they are outside the contract.
    """
    assert a.ok == b.ok
    assert a.solver == b.solver
    assert a.failure == b.failure
    if a.ok:
        assert a.mapping.alloc == b.mapping.alloc
        assert a.mapping.speeds == b.mapping.speeds
        assert a.mapping.paths == b.mapping.paths
        assert a.energy == b.energy  # exact float equality, all four terms
        assert repr(a.energy.total) == repr(b.energy.total)


@pytest.mark.parametrize("topology", topology_names())
@pytest.mark.parametrize("spec", SPECS)
def test_hit_equals_cold_compute(topology, spec):
    prob = tiny_problem(topology)
    store = ResultStore()
    key = request_fingerprint(
        prob.spg, prob.grid, spec, None, 3, prob.period
    )

    cold = run(spec, prob, rng=as_rng(3))
    store.put(key, result_to_payload(cold), kind="solve")

    # An independent process would rebuild from the JSON text:
    hit = solver_result_from_payload(
        json_roundtrip(store.get(key)), prob.spg, prob.grid
    )
    fresh = run(spec, prob, rng=as_rng(3))
    assert_bit_identical(hit, fresh)
    assert_bit_identical(hit, cold)
    if hit.ok:
        hit.mapping.check_structure()  # stored routes still validate


@pytest.mark.parametrize("topology", topology_names())
def test_result_payload_lossless(topology):
    prob = tiny_problem(topology)
    res = run("dpa2d1d+refine", prob, rng=as_rng(0))
    payload = result_to_payload(res)
    back = solver_result_from_payload(
        json_roundtrip(payload), prob.spg, prob.grid
    )
    # payload -> result -> payload is the identity (stats included).
    assert result_to_payload(back) == payload
    assert back.stats == res.stats


def test_solver_result_roundtrip_compares_equal():
    """A decoded result equals the one encoded: equality covers the
    name, mapping, energy and failure, never the ``stats`` timings."""
    prob = tiny_problem("mesh")
    res = run("Greedy", prob, rng=as_rng(1))
    back = solver_result_from_payload(
        json_roundtrip(result_to_payload(res)), prob.spg, prob.grid
    )
    assert_bit_identical(back, res)
    assert back == res
    assert back.stats == res.stats


def test_failure_roundtrip():
    spg = random_spg(10, rng=3, ccr=10.0)
    grid = get_topology("mesh", 2, 2)
    prob = ProblemInstance(spg, grid, 1e-9)  # hopeless period
    res = run("Greedy", prob, rng=as_rng(0))
    assert not res.ok
    back = solver_result_from_payload(
        json_roundtrip(result_to_payload(res)), spg, grid
    )
    assert not back.ok
    assert back.failure == res.failure
    assert back.energy is None and back.mapping is None
    assert back.total_energy == float("inf")


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=4, max_value=24),
    topology=st.sampled_from(sorted(topology_names())),
)
def test_mapping_payload_roundtrip_property(seed, n, topology):
    """Any solver-produced mapping survives payload round-trips exactly."""
    spg = random_spg(n, rng=seed, ccr=10.0)
    grid = get_topology(topology, 2, 2)
    prob = ProblemInstance(spg, grid, loose_period(spg))
    res = run("Greedy", prob, rng=as_rng(seed))
    if not res.ok:
        return
    payload = json_roundtrip(mapping_to_payload(res.mapping))
    back = mapping_from_payload(payload, spg, grid)
    assert back.alloc == res.mapping.alloc
    assert back.speeds == res.mapping.speeds
    assert back.paths == res.mapping.paths
    assert mapping_to_payload(back) == payload
    back.check_structure()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_energy_floats_roundtrip_exactly(seed):
    """The four energy terms survive JSON text exactly (repr round-trip)."""
    prob = tiny_problem("mesh", seed=seed % 100)
    res = run("Greedy", prob, rng=as_rng(seed))
    if not res.ok:
        return
    back = solver_result_from_payload(
        json_roundtrip(result_to_payload(res)), prob.spg, prob.grid
    )
    for term in ("comp_leak", "comp_dyn", "comm_leak", "comm_dyn"):
        assert repr(getattr(back.energy, term)) == repr(
            getattr(res.energy, term)
        )
    assert back.energy.total == res.energy.total
