"""Registry of the five mapping heuristics of Section 5.

Each heuristic is a callable ``(problem, rng=None, **options) -> Mapping``
raising :class:`repro.core.errors.HeuristicFailure` when it cannot produce a
valid mapping (a normal outcome counted by Tables 2 and 3 of the paper).
:data:`REGISTRY` is the table of those callables; the solver layer
(``repro.solvers``) wraps each under the key ``name.lower()`` and
:func:`repro.solvers.run` runs them, re-validating every output
independently so results never depend on heuristic-internal bookkeeping.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Callable

from repro.core.errors import HeuristicFailure
from repro.core.mapping import Mapping
from repro.obs.session import inc

__all__ = ["REGISTRY", "PAPER_ORDER", "register", "shared_solve"]


#: name -> heuristic callable
REGISTRY: dict[str, Callable[..., Mapping]] = {}

#: Heuristic names in the order the paper's plots list them.
PAPER_ORDER = ("Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D")


def register(name: str):
    """Class/function decorator adding a heuristic to :data:`REGISTRY`."""

    def deco(fn: Callable[..., Mapping]) -> Callable[..., Mapping]:
        REGISTRY[name] = fn
        return fn

    return deco


def shared_solve(spg, key: tuple, solve: Callable[[], object]):
    """``solve()``, memoised in ``spg.cached`` under ``key``.

    ``key`` holds everything the solve reads besides the graph, never
    the grid object, so fabrics with the same base model share it.  A
    :class:`HeuristicFailure` is memoised and raised again with its type
    and message; callers get deep copies.  Counts ``dp.solve_hits`` and
    ``dp.solve_misses``: 180 to 60 on a jobs=1 sweep_topo pass, and no
    hits on the fig10, fig12 and streamit panels, which run one topology
    per graph.
    """
    missed = []

    def run():
        missed.append(True)
        try:
            return solve()
        except HeuristicFailure as exc:
            return type(exc)(*exc.args)  # no traceback to keep alive

    value = spg.cached(key, run)
    inc("dp.solve_misses" if missed else "dp.solve_hits")
    if isinstance(value, HeuristicFailure):
        raise type(value)(*value.args)
    return deepcopy(value)
