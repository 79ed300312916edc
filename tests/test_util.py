"""Unit tests for the util helpers (bitsets, formatting, RNG, version)."""

import importlib.metadata
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.util import rng as rng_mod
from repro.util import version
from repro.util.bitset import bit, bits_of, iter_bits, mask_of, popcount
from repro.util.fmt import format_grid, format_table
from repro.util.rng import RawDraws, as_rng, raw_draws, spawn_rng


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
        monkeypatch.setattr(importlib.metadata, "version", lookup)
        try:
            assert version.repro_version() == "9.9"
            assert version.repro_version() == "9.9"
            assert calls == ["repro"]
        finally:
            version.repro_version.cache_clear()

    def test_import_does_not_load_metadata(self):
        """``importlib.metadata`` is imported by the first version
        lookup, not by ``import repro``."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        code = ("import sys, repro; "
                "print('importlib.metadata' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"


#: One scalar draw: ``None`` for ``random()``, else ``(low, range)`` for
#: ``integers(low, low + range + 1)``.
DRAWS = st.one_of(
    st.none(),
    st.tuples(
        st.integers(-(2**40), 2**40),
        st.one_of(
            st.integers(1, 2**32 - 2),
            st.sampled_from([1, 2, 3, 2**31 - 1, 2**31, 2**32 - 2]),
        ),
    ),
)


def _apply(source, ops):
    out = []
    for op in ops:
        if op is None:
            out.append(float(source.random()))
        else:
            low, span = op
            out.append(int(source.integers(low, low + span + 1)))
    return out


class TestRawDraws:
    @given(
        seed=st.integers(0, 2**64 - 1),
        ops=st.lists(DRAWS, max_size=60),
        buffered=st.booleans(),
        chunk=st.sampled_from([1, 2, 5, 256]),
    )
    @example(seed=7, ops=[(0, 5), None, (3, 2**32 - 2)], buffered=True,
             chunk=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, seed, ops, buffered, chunk):
        """Values and the final ``bit_generator.state`` equal numpy's
        for any interleaving, from either 32-bit buffer state and
        across chunk refills."""
        want_rng, got_rng = as_rng(seed), as_rng(seed)
        if buffered:
            # Leaves a buffered high half: has_uint32 = 1 at entry.
            for g in (want_rng, got_rng):
                g.integers(0, 10)
            assert got_rng.bit_generator.state["has_uint32"] == 1
        want = _apply(want_rng, ops)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng_mod, "RAW_CHUNK", chunk)
            with raw_draws(got_rng) as draws:
                assert isinstance(draws, RawDraws)
                got = _apply(draws, ops)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.standard_normal() == want_rng.standard_normal()

    def test_empty_range_draws_nothing(self):
        want_rng, got_rng = as_rng(3), as_rng(3)
        assert want_rng.integers(3, 4) == 3
        with raw_draws(got_rng) as draws:
            assert draws.integers(3, 4) == 3
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("low,high", [(2, 2), (0, 2**32), (0, 2**40)])
    def test_rejects_ranges_it_does_not_reproduce(self, low, high):
        with raw_draws(as_rng(0)) as draws:
            with pytest.raises(ValueError):
                draws.integers(low, high)

    def test_other_bit_generators_draw_through_numpy(self):
        rng = np.random.Generator(np.random.MT19937(4))
        with raw_draws(rng) as draws:
            assert draws is rng
