"""fp16 GELU and its derivative come from 65,536-entry tables built from
``_gelu32``/``_gelu_grad32``; a lookup must be bitwise the expression.

Every fp16 input pattern is pushed through in shuffled batched shapes, at
odd lengths and offsets and as strided views. NaN inputs are compared for
NaN-ness only: the expression's NaN payload depends on the element's
position, the tables store the quieted input NaN.
"""

import numpy as np
import pytest

from repro.tensor import functional as F
from repro.tensor.halfcast import to_dtype
from repro.tensor.tensor import Tensor

ALL_BITS = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)


def f16(bits: np.ndarray) -> Tensor:
    return Tensor.from_numpy(bits.view(np.float16))


def expected_gelu(x16: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return to_dtype(F._gelu32(to_dtype(x16, np.float32)), np.float16)


def expected_gelu_grad(x16: np.ndarray, dy16: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        grad = F._gelu_grad32(to_dtype(x16, np.float32))
        return to_dtype(to_dtype(dy16, np.float32) * grad, np.float16)


def assert_same_bits_or_both_nan(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float16 and got.shape == want.shape
    got_nan, want_nan = np.isnan(got), np.isnan(want)
    np.testing.assert_array_equal(got_nan, want_nan)
    np.testing.assert_array_equal(got.view(np.uint16)[~got_nan], want.view(np.uint16)[~want_nan])


def layouts(seed: int):
    """All fp16 patterns, shuffled: batched 3-D, odd slices at odd offsets,
    and non-contiguous views."""
    perm = np.random.default_rng(seed).permutation(ALL_BITS)
    yield perm.reshape(4, 128, 128)
    yield perm.reshape(2, 64, 512)
    for lo, n in ((1, 65_533), (7, 4_099), (3, 1), (12_345, 33)):
        yield perm[lo : lo + n]
    yield perm.reshape(256, 256)[:, ::3]
    yield perm.reshape(128, 512).T
    yield perm.reshape(2, 128, 256)[:, 1::2, 5:]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fp16_gelu_is_the_expression_on_every_input(seed):
    for bits in layouts(seed):
        got = F.gelu(f16(bits)).numpy()
        assert_same_bits_or_both_nan(got, expected_gelu(bits.view(np.float16)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fp16_gelu_grad_is_the_expression_on_every_input(seed):
    rng = np.random.default_rng(100 + seed)
    for bits in layouts(seed):
        # Mostly ordinary gradients, plus a sprinkle of every other pattern
        # (subnormals, +-inf, NaN payloads).
        dy = rng.standard_normal(bits.shape).astype(np.float16)
        wild = rng.random(bits.shape) < 0.1
        dy[wild] = rng.integers(0, 1 << 16, size=int(wild.sum()), dtype=np.uint16).view(np.float16)
        dy[rng.random(bits.shape) < 0.01] = np.inf
        dy[rng.random(bits.shape) < 0.01] = np.nan
        x16 = bits.view(np.float16)
        with np.errstate(invalid="ignore"):  # inf * 0
            got = F.gelu_grad(Tensor.from_numpy(x16), Tensor.from_numpy(dy)).numpy()
        assert_same_bits_or_both_nan(got, expected_gelu_grad(x16, dy))


def test_nan_input_comes_back_as_the_quieted_input():
    nan_bits = ALL_BITS[np.isnan(ALL_BITS.view(np.float16))]
    quieted = nan_bits | 0x200
    np.testing.assert_array_equal(F.gelu(f16(nan_bits)).numpy().view(np.uint16), quieted)
    dy = np.ones(nan_bits.shape, np.float16)
    got = F.gelu_grad(f16(nan_bits), Tensor.from_numpy(dy)).numpy()
    np.testing.assert_array_equal(got.view(np.uint16), quieted)


def inline_gelu(x: np.ndarray) -> np.ndarray:
    """The expression ``gelu`` carried inline before the tables."""
    x32 = to_dtype(x, F._compute_dtype(x.dtype))
    inner = F.SQRT_2_OVER_PI * (x32 + 0.044715 * x32**3)
    return to_dtype(0.5 * x32 * (1.0 + np.tanh(inner)), x.dtype)


def inline_gelu_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    ct = F._compute_dtype(np.promote_types(x.dtype, dy.dtype))
    x32 = to_dtype(x, ct)
    inner = F.SQRT_2_OVER_PI * (x32 + 0.044715 * x32**3)
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner**2
    dinner = F.SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x32**2)
    grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x32 * sech2 * dinner
    return to_dtype(to_dtype(dy, ct) * grad, dy.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wide_dtypes_keep_the_expression(dtype):
    rng = np.random.default_rng(3)
    x = (rng.standard_normal((3, 5, 1001)) * 4).astype(dtype)
    x.flat[:4] = (-0.0, 1e-30, -7e3, 60.0)
    dy = rng.standard_normal(x.shape).astype(dtype)
    got = F.gelu(Tensor.from_numpy(x)).numpy()
    assert got.tobytes() == inline_gelu(x).tobytes()
    got = F.gelu_grad(Tensor.from_numpy(x), Tensor.from_numpy(dy)).numpy()
    assert got.tobytes() == inline_gelu_grad(x, dy).tobytes()


def test_tables_are_built_only_by_fp16_calls():
    F._gelu_tables.cache_clear()
    try:
        F.gelu(Tensor.meta((4, 8), np.float16))
        F.gelu_grad(Tensor.meta((4, 8), np.float16), Tensor.meta((4, 8), np.float16))
        x32 = Tensor.from_numpy(np.ones((4, 8), np.float32))
        F.gelu_grad(x32, F.gelu(x32))
        assert F._gelu_tables.cache_info().currsize == 0
        F.gelu(Tensor.from_numpy(np.ones((4, 8), np.float16)))
        assert F._gelu_tables.cache_info().currsize == 1
    finally:
        F._gelu_tables.cache_clear()
