"""Exact fp16 <-> fp32 conversion: bitwise equal to numpy's ``astype``.

The exhaustive check over all 2**32 float32 patterns is
``benchmarks/verify_halfcast_exhaustive.py`` (minutes); these tests cover
every fp16 pattern, a structured float32 sweep through every rounding
boundary, random patterns, and the array edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import functional as F
from repro.tensor.halfcast import to_dtype
from repro.tensor.tensor import Tensor


def astype_bits(f32: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):  # overflow to inf is part of the sweep
        return f32.astype(np.float16).view(np.uint16)


def structured_f32_sweep() -> np.ndarray:
    """Every sign x exponent x upper-10-mantissa value, with low 13 bits
    on each side of the rounding point: exact, just above, just below and
    at the tie, tie + 1, and all ones. Covers ties to even, the
    subnormal/normal boundary, the 65520 overflow threshold, +-0, +-inf
    and NaN payloads."""
    sign = np.array([0, 1], np.uint32)[:, None, None, None] << 31
    exponent = np.arange(256, dtype=np.uint32)[None, :, None, None] << 23
    upper = np.arange(1024, dtype=np.uint32)[None, None, :, None] << 13
    low = np.array([0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF], np.uint32)[None, None, None, :]
    return (sign | exponent | upper | low).reshape(-1).view(np.float32)


class TestBitwiseAstype:
    def test_every_fp16_pattern_widens_like_astype(self):
        h = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
        got = to_dtype(h, np.float32)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), h.astype(np.float32).view(np.uint32))

    def test_structured_sweep_narrows_like_astype(self):
        f = structured_f32_sweep()
        got = to_dtype(f, np.float16)
        assert got.dtype == np.float16
        np.testing.assert_array_equal(got.view(np.uint16), astype_bits(f))

    def test_sweep_hits_the_boundaries(self):
        bits = astype_bits(structured_f32_sweep())
        boundaries = {0x0000, 0x8000, 0x0001, 0x03FF, 0x0400, 0x7BFF, 0x7C00, 0xFC00}
        assert boundaries <= set(bits.tolist())
        assert np.count_nonzero((bits & 0x7FFF) > 0x7C00) > 1000  # NaN payloads

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300))
    def test_random_uint32_patterns(self, patterns):
        f = np.array(patterns, dtype=np.uint32).view(np.float32)
        np.testing.assert_array_equal(to_dtype(f, np.float16).view(np.uint16), astype_bits(f))

    def test_subnormal_heavy_values(self):
        rng = np.random.default_rng(0)
        f = (rng.standard_normal((130, 1031)) * 1e-5).astype(np.float32)
        np.testing.assert_array_equal(to_dtype(f, np.float16).view(np.uint16), astype_bits(f))
        h = f.astype(np.float16)
        np.testing.assert_array_equal(to_dtype(h, np.float32), h.astype(np.float32))


class TestArrayEdgeCases:
    @pytest.mark.parametrize("src,dst", [(np.float32, np.float16), (np.float16, np.float32)])
    def test_zero_d_stays_zero_d(self, src, dst):
        x = np.array(1.0e-6, dtype=src)
        got = to_dtype(x, dst)
        assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == dst
        assert got.tobytes() == x.astype(dst).tobytes()

    @pytest.mark.parametrize("src,dst", [(np.float32, np.float16), (np.float16, np.float32)])
    def test_empty(self, src, dst):
        got = to_dtype(np.zeros((0, 3), dtype=src), dst)
        assert got.shape == (0, 3) and got.dtype == dst

    @pytest.mark.parametrize("src,dst", [(np.float32, np.float16), (np.float16, np.float32)])
    def test_non_contiguous_and_read_only(self, src, dst):
        rng = np.random.default_rng(1)
        base = (rng.standard_normal((6, 8, 5)) * 1e-4).astype(src)
        base.flags.writeable = False
        for x in (base.transpose(2, 0, 1), base[:, ::3, 1:], base[..., 2]):
            got = to_dtype(x, dst)
            assert got.shape == x.shape
            assert got.tobytes() == np.ascontiguousarray(x.astype(dst)).tobytes()
        assert not base.flags.writeable

    def test_results_never_alias_the_input(self):
        x = np.ones(4, np.float32)
        for dst in (np.float16, np.float32):
            assert not np.shares_memory(to_dtype(x, dst), x)

    def test_copy_false_with_matching_dtype_returns_the_input(self):
        for dt in (np.float16, np.float32, np.float64):
            x = np.ones(3, dt)
            assert to_dtype(x, dt, copy=False) is x

    def test_other_dtype_pairs_are_astype(self):
        x = np.array([1.5, -2.25, 1e-30], np.float64)
        assert to_dtype(x, np.float16).tobytes() == x.astype(np.float16).tobytes()
        assert to_dtype(x, np.float32).dtype == np.float32
        i = np.arange(4)
        assert to_dtype(i, np.float16).tobytes() == i.astype(np.float16).tobytes()


def _t(a):
    return Tensor.from_numpy(a)


class TestExactHalfArithmetic:
    """fp16 add/mul run in fp32 plus the exact cast, bitwise numpy's fp16."""

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 3e-7, 300.0])
    def test_add_mul_match_numpy_half_loops(self, scale):
        rng = np.random.default_rng(2)
        a = (rng.standard_normal((33, 65)) * scale).astype(np.float16)
        b = (rng.standard_normal((33, 65)) * scale).astype(np.float16)
        with np.errstate(all="ignore"):
            want_add, want_mul = a + b, a * b
        assert F.add(_t(a), _t(b)).data.tobytes() == want_add.tobytes()
        assert F.mul(_t(a), _t(b)).data.tobytes() == want_mul.tobytes()

    def test_broadcasting_and_overflow(self):
        a = np.array([[60000.0, -60000.0, 1e-7, 0.0]], np.float16)
        b = np.array([[30000.0], [-2.0]], np.float16)
        with np.errstate(all="ignore"):
            want_add, want_mul = a + b, a * b
        got_add, got_mul = F.add(_t(a), _t(b)).data, F.mul(_t(a), _t(b)).data
        assert got_add.shape == (2, 4) and got_add.tobytes() == want_add.tobytes()
        assert got_mul.tobytes() == want_mul.tobytes()
        assert np.isinf(got_add[0, 0]) and np.isinf(got_mul[0, 0])

    def test_every_half_pattern_against_two_partners(self):
        every = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        a = every.view(np.float16)
        partners = (every[::-1], np.random.default_rng(3).permutation(every))
        for b in (p.view(np.float16) for p in partners):
            with np.errstate(all="ignore"):
                want_add, want_mul = a + b, a * b
                got_add, got_mul = F.add(_t(a), _t(b)).data, F.mul(_t(a), _t(b)).data
            assert got_add.tobytes() == want_add.tobytes()
            assert got_mul.tobytes() == want_mul.tobytes()
