"""Random-number-generator plumbing.

Every stochastic component of the library (random SPG generation, the Random
heuristic, weight synthesis for the StreamIt suite) takes either an integer
seed, ``None`` or a :class:`numpy.random.Generator`.  This module provides the
single conversion point so that experiments are reproducible end to end.

It also provides :func:`raw_draws`, which serves the scalar ``random()`` and
``integers(low, high)`` draws of a recursive sampler from PCG64 raw words
fetched in bulk.  A scalar draw through numpy costs about a microsecond of
call overhead each; the random SPG generator makes a few hundred thousand of
them per Fig-12 panel.  The values, and the generator's state afterwards, are
exactly numpy's.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import length_hint

import numpy as np

RngLike = "int | None | np.random.Generator"

#: PCG64 words :class:`RawDraws` fetches per ``random_raw`` call: enough
#: for one composition tree of a 150-stage random SPG.
RAW_CHUNK = 256

#: ``next_double``'s scale: 53 random bits times 2**-53.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
_U32 = 0xFFFFFFFF


def as_rng(seed) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Used by experiment runners so that each replicate gets its own stream and
    results do not depend on evaluation order.
    """
    return [np.random.default_rng(s) for s in rng.integers(0, 2**63 - 1, size=n)]


class RawDraws:
    """``random()`` and ``integers(low, high)`` of a PCG64 generator,
    computed in Python from raw 64-bit words fetched :data:`RAW_CHUNK`
    at a time.

    ``random()`` is numpy's ``next_double``: one fresh word, its top 53
    bits scaled by 2**-53.  ``integers(low, high)`` is numpy's scalar
    ``int64`` draw for a range ``high - 1 - low`` of 1 to 2**32 - 2:
    Lemire's bounded draw over 32-bit halves, which PCG64 buffers (a
    word's low half is returned first and its high half kept as
    ``uinteger`` with ``has_uint32`` set).  A range of 0 returns ``low``
    and draws nothing, as numpy does.

    Fetching runs the generator ahead of the draws, so :meth:`close`
    puts it back: the saved state, then ``advance`` by the words used,
    then the 32-bit buffer as the draws left it.  Use it through
    :func:`raw_draws`.
    """

    __slots__ = ("_bg", "_saved", "_words", "_next", "_fetched",
                 "_has32", "_u32")

    def __init__(self, rng: np.random.Generator) -> None:
        self._bg = rng.bit_generator
        self._saved = self._bg.state
        self._has32 = self._saved["has_uint32"]
        self._u32 = self._saved["uinteger"]
        self._fetched = 0
        self._words = iter(())
        self._next = self._words.__next__

    def _refill(self) -> int:
        """The first word of a freshly fetched chunk."""
        self._words = iter(self._bg.random_raw(RAW_CHUNK).tolist())
        self._next = self._words.__next__
        self._fetched += RAW_CHUNK
        return self._next()

    def random(self) -> float:
        try:
            w = self._next()
        except StopIteration:
            w = self._refill()
        return (w >> 11) * _DOUBLE_UNIT

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        try:
            w = self._next()
        except StopIteration:
            w = self._refill()
        self._has32 = 1
        self._u32 = w >> 32
        return w & _U32

    def integers(self, low: int, high: int) -> int:
        rng = high - 1 - low
        if rng == 0:
            return low
        if not 0 < rng < _U32:
            raise ValueError(f"range {rng} is outside 1 .. 2**32 - 2")
        excl = rng + 1
        m = self._next32() * excl
        if m & _U32 < excl:
            threshold = (_U32 - rng) % excl
            while m & _U32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def close(self) -> None:
        """Leave the generator exactly where numpy's own draws would."""
        bg = self._bg
        used = self._fetched - length_hint(self._words)
        bg.state = self._saved
        if used:
            bg.advance(used)
        state = bg.state
        state["has_uint32"] = self._has32
        state["uinteger"] = self._u32
        bg.state = state


@contextmanager
def raw_draws(rng: np.random.Generator):
    """``rng``'s scalar ``random()``/``integers(low, high)`` draws as a
    :class:`RawDraws` while the block runs, with the generator restored
    to numpy's own position when it ends.  Any bit generator but PCG64
    yields ``rng`` itself, so the block draws through numpy."""
    if type(rng.bit_generator) is not np.random.PCG64:
        yield rng
        return
    draws = RawDraws(rng)
    try:
        yield draws
    finally:
        draws.close()
