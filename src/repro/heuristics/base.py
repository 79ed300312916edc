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

from typing import Callable

from repro.core.mapping import Mapping

__all__ = ["REGISTRY", "PAPER_ORDER", "register"]


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
