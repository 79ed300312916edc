"""Unit tests for the util helpers (bitsets, formatting, RNG, version)."""

import numpy as np
import pytest

from repro.util.bitset import bit, bits_of, iter_bits, mask_of, popcount
from repro.util.fmt import format_grid, format_table
from repro.util import version
from repro.util.rng import as_rng, spawn_rng


class TestBitset:
    def test_bit(self):
        assert bit(0) == 1
        assert bit(5) == 32

    def test_mask_of(self):
        assert mask_of([0, 2, 3]) == 0b1101
        assert mask_of([]) == 0

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_iter_bits_order(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    def test_bits_roundtrip(self):
        items = [1, 5, 9, 63, 100]
        assert bits_of(mask_of(items)) == items

    def test_large_masks(self):
        m = mask_of(range(0, 200, 7))
        assert popcount(m) == len(range(0, 200, 7))


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="hello")
        assert out.splitlines()[0] == "hello"

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456789]])
        assert "1.235" in out

    def test_empty_rows(self):
        out = format_table(["x", "y"], [])
        assert len(out.splitlines()) == 2


class TestFormatGrid:
    def test_full_grid(self):
        out = format_grid(2, 2, {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"})
        assert out == "a b\nc d"

    def test_missing_cells(self):
        out = format_grid(1, 3, {(0, 1): "x"})
        assert out == ". x ."

    def test_width_padding(self):
        out = format_grid(1, 2, {(0, 0): "long", (0, 1): "s"})
        assert out == "long    s"


class TestRng:
    def test_int_seed(self):
        a = as_rng(42)
        b = as_rng(42)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_independent(self):
        children = spawn_rng(as_rng(0), 3)
        assert len(children) == 3
        vals = [c.integers(0, 2**32) for c in children]
        assert len(set(vals)) == 3

    def test_spawn_deterministic(self):
        a = [g.integers(0, 100) for g in spawn_rng(as_rng(5), 4)]
        b = [g.integers(0, 100) for g in spawn_rng(as_rng(5), 4)]
        assert a == b


class TestVersion:
    def test_metadata_is_read_once(self, monkeypatch):
        calls = []

        def lookup(name):
            calls.append(name)
            return "9.9"

        version.repro_version.cache_clear()
        monkeypatch.setattr(version.metadata, "version", lookup)
        try:
            assert version.repro_version() == "9.9"
            assert version.repro_version() == "9.9"
            assert calls == ["repro"]
        finally:
            version.repro_version.cache_clear()
