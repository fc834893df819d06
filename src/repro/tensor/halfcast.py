"""Exact fp16 <-> fp32 array conversion without denormal slow paths.

numpy's own ``astype`` between float16 and float32 is correct but slow on
the values mixed-precision training produces: gradients at loss scale 1
land in fp16's subnormal range (below 6.1e-5), and the conversion then
takes a per-element slow path. Measured on a 128x1024 array (2-vCPU
Xeon, numpy 2.4): f32->f16 costs 0.34 ms for values ~U(0, 1) but
11-15 ms for values ~1e-5, and f16->f32 0.19 ms against 1.7-2.2 ms.

``to_dtype`` gives bitwise the same result as ``astype``, in time that
does not depend on the values:

- f16 -> f32 gathers from a 65,536-entry float32 table built once with
  ``astype`` itself, so it is exact by construction;
- f32 -> f16 rounds to nearest even on the ``uint32`` bit patterns, with
  one fp32 add for results in the subnormal range. NaN keeps its top ten
  mantissa bits, forced nonzero and not quieted, as numpy's software
  conversion does.

Equality on all 2**32 float32 patterns, NaN payloads included, was
verified with numpy 2.4.6 on an x86-64 Xeon
(``benchmarks/verify_halfcast_exhaustive.py``). A numpy build that
converts with F16C or AVX512-FP16 instructions quiets NaN to
``0x7E00 | payload`` instead; only NaN payload bits would then differ,
and the structured sweep in ``tests/test_halfcast.py`` is the check that
catches such a platform.

Every other pair of dtypes goes to ``astype`` unchanged.
"""

from __future__ import annotations

import numpy as np

_F16 = np.dtype(np.float16)
_F32 = np.dtype(np.float32)

#: f16 bit pattern -> the float32 ``astype`` makes of it (256 KB).
_F16_TO_F32 = (
    np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16).astype(np.float32)
)

_MAGNITUDE = np.uint32(0x7FFFFFFF)
_F32_INF = np.uint32(0xFF << 23)
# Magnitudes are clamped as float32: for non-negative floats the order of
# the values is the order of the bit patterns, and float min/max is faster.
#: 2**-14, the smallest normal fp16; below it results are subnormal.
_MIN_NORMAL = np.float32(2.0**-14)
#: 2**16; every finite magnitude at or above it rounds to fp16 inf (0x7C00).
_OVERFLOW = np.float32(2.0**16)
#: moves the fp32 exponent bias (127) to fp16's (15) and adds 0xFFF, the
#: round-half-down increment; the odd bit added on top makes ties even.
_REBIAS = np.uint32((((15 - 127) << 23) + 0xFFF) & 0xFFFFFFFF)
#: 0.5, bit pattern 126 << 23. Its ulp is 2**-24, fp16's subnormal step,
#: so ``m + 0.5`` rounds m < 2**-14 to an fp16 subnormal in one fp32 add,
#: and the low bits of the sum are that subnormal's bit pattern.
_HALF = np.float32(0.5)
#: 0x400 is the smallest normal fp16, which each path below yields for an
#: operand clamped into the other path's range.
_SUB_OFFSET = np.uint32((126 << 23) + 0x400)

#: elements converted per pass, so the temporaries stay in cache and the
#: extra memory per call stays under 1 MB.
_BLOCK = 1 << 16


def _f16_to_f32(src: np.ndarray, out: np.ndarray) -> None:
    # Every uint16 is in range; "wrap" just skips the bounds checks.
    np.take(_F16_TO_F32, src.view(np.uint16), out=out, mode="wrap")


def _f32_to_f16(src: np.ndarray, out: np.ndarray) -> None:
    u = src.view(np.uint32)
    mag = np.bitwise_and(u, _MAGNITUDE)
    nan = None
    if mag.max(initial=0) > _F32_INF:
        nan = mag > _F32_INF
        mag[nan] = 0  # keeps NaN out of the float arithmetic below
    mag_f = mag.view(np.float32)
    sub = np.minimum(mag_f, _MIN_NORMAL).view(np.uint32)
    # Normal results (and overflow to inf, which 2**16 rounds to exactly),
    # in place in ``mag``.
    np.maximum(mag_f, _MIN_NORMAL, out=mag_f)
    np.minimum(mag_f, _OVERFLOW, out=mag_f)
    h = mag
    tmp = np.right_shift(h, 13)
    tmp &= 1
    h += tmp
    h += _REBIAS
    h >>= 13
    # Subnormal results.
    sub_f = sub.view(np.float32)
    sub_f += _HALF
    sub -= _SUB_OFFSET
    # Each path clamped its operand into the other's range, where it gives
    # exactly 0x400, so the sum of both minus 0x400 (folded into ``sub``,
    # wrapping modulo 2**32) is the result of the path that applies.
    h += sub
    if nan is not None:
        # NaN keeps the top ten mantissa bits, forced nonzero, as numpy does.
        h[nan] = np.maximum((u[nan] >> 13) & 0x3FF, 1) | 0x7C00
    sign = np.right_shift(u, 16, out=tmp)
    sign &= 0x8000
    h |= sign
    np.copyto(out.view(np.uint16), h, casting="unsafe")


def _blockwise(kernel, arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    src = arr.reshape(-1)
    out = np.empty(src.size, dtype)
    for lo in range(0, src.size, _BLOCK):
        kernel(src[lo : lo + _BLOCK], out[lo : lo + _BLOCK])
    return out.reshape(arr.shape)


def to_dtype(arr: np.ndarray, dtype, copy: bool = True) -> np.ndarray:
    """``arr.astype(dtype, copy=copy)``, bitwise, with fast fp16 <-> fp32.

    A conversion between float16 and float32 always returns a new
    C-contiguous array; any other (including same-dtype) request is
    exactly ``astype``.
    """
    dtype = np.dtype(dtype)
    src = arr.dtype
    if src == _F16 and dtype == _F32:
        return _blockwise(_f16_to_f32, arr, dtype)
    if src == _F32 and dtype == _F16:
        return _blockwise(_f32_to_f16, arr, dtype)
    return arr.astype(dtype, copy=copy)
