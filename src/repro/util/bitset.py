"""Bitset helpers over plain Python integers.

Node subsets of an SPG (order ideals, clusters) are represented as arbitrary
precision integers: bit ``i`` set means node ``i`` belongs to the set.  Python
ints give O(n/64) set operations and hash for memoisation, which is what the
dynamic programs in :mod:`repro.heuristics` rely on.  Bulk code packs
many such sets into a ``(words, N)`` ``uint64`` numpy array, one column
per set (:func:`split_words` / :func:`join_words`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def bit(i: int) -> int:
    """The singleton bitset ``{i}``."""
    return 1 << i


def mask_of(items: Iterable[int]) -> int:
    """Bitset containing every index in ``items``."""
    m = 0
    for i in items:
        m |= 1 << i
    return m


def popcount(m: int) -> int:
    """Number of elements in the bitset ``m``."""
    return m.bit_count()


def iter_bits(m: int) -> Iterator[int]:
    """Yield the indices present in bitset ``m`` in increasing order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def bits_of(m: int) -> list[int]:
    """The indices present in bitset ``m``, as a list (increasing order)."""
    return list(iter_bits(m))


_LOW64 = (1 << 64) - 1


def word_count(n: int) -> int:
    """``uint64`` words per mask of an ``n``-stage graph."""
    return max(1, -(-n // 64))


def split_words(values, words: int):
    """Python-int bitmasks as a ``(words, len(values))`` ``uint64`` array
    (word ``k`` holds bits ``64k .. 64k+63``)."""
    import numpy as np

    values = list(values)
    out = np.empty((words, len(values)), np.uint64)
    for k in range(words):
        s = 64 * k
        out[k] = np.fromiter(
            ((v >> s) & _LOW64 for v in values), np.uint64, len(values)
        )
    return out


def join_words(arr) -> list[int]:
    """Inverse of :func:`split_words`: the columns as Python ints."""
    rows = [row.tolist() for row in arr]
    out = rows[0]
    for k in range(1, len(rows)):
        s = 64 * k
        out = [v | (hi << s) for v, hi in zip(out, rows[k])]
    return out
