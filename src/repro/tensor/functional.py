"""Primitive tensor ops with forward and backward, real- and meta-aware.

Every NN module in ``repro.nn`` builds its manual forward/backward out of
these primitives, so meta-mode dispatch (shape propagation without data)
lives in exactly one place. Results inherit the first operand's device.

Precision convention: half-precision matmuls accumulate in float32 and cast
the result back to float16, matching tensor-core semantics (and keeping the
ZeRO == DDP equivalence tests meaningful at fp16). fp16 ``add``/``mul`` also
run in float32; that is bitwise numpy's float16 arithmetic (see ``_binary``).
Every float16 <-> float32 conversion goes through ``halfcast.to_dtype``:
bitwise ``astype``, without the per-element slow path ``astype`` takes on
fp16-subnormal values, which unscaled fp16 gradients are full of.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tensor.halfcast import to_dtype
from repro.tensor.tensor import Tensor

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _result(
    ref: Tensor,
    data: np.ndarray | None,
    shape: tuple[int, ...],
    dtype,
    tag: str,
    alloc: bool = True,
) -> Tensor:
    return Tensor(
        tuple(shape), np.dtype(dtype), data=data, device=ref.device, tag=tag, alloc=alloc
    )


def _any_meta(*tensors: Tensor) -> bool:
    return any(t.is_meta for t in tensors)


def _compute_dtype(dtype: np.dtype) -> np.dtype:
    """Internal accumulation dtype: fp16 math runs in fp32 (tensor-core /
    mixed-precision convention); wider dtypes keep their own precision."""
    return np.promote_types(dtype, np.float32)


# -- shape ops ----------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...], tag: str = "reshape") -> Tensor:
    shape = tuple(int(s) for s in shape)
    if -1 in shape:
        known = 1
        for s in shape:
            if s != -1:
                known *= s
        shape = tuple(x.size // known if s == -1 else s for s in shape)
    size = 1
    for s in shape:
        size *= s
    if size != x.size:
        raise ValueError(f"cannot reshape {x.shape} ({x.size}) to {shape}")
    data = None if x.is_meta else x.data.reshape(shape)
    # Reshape is a metadata op on the device: a view, not an allocation.
    return _result(x, data, shape, x.dtype, tag, alloc=False)


def transpose(x: Tensor, axes: tuple[int, ...], tag: str = "transpose") -> Tensor:
    """Transposed view. Real GEMM kernels take transpose flags, so this is
    accounted as a view (no device allocation)."""
    shape = tuple(x.shape[a] for a in axes)
    data = None if x.is_meta else np.ascontiguousarray(x.data.transpose(axes))
    return _result(x, data, shape, x.dtype, tag, alloc=False)


def cast(x: Tensor, dtype, tag: str = "cast") -> Tensor:
    dtype = np.dtype(dtype)
    data = None if x.is_meta else to_dtype(x.data, dtype)
    return _result(x, data, x.shape, dtype, tag)


def index_axis0(x: Tensor, i: int, tag: str = "index0") -> Tensor:
    """x[i] along the first axis (QKV split helper)."""
    if not 0 <= i < x.shape[0]:
        raise IndexError(f"index {i} out of range for axis-0 size {x.shape[0]}")
    shape = x.shape[1:]
    data = None if x.is_meta else np.ascontiguousarray(x.data[i])
    return _result(x, data, shape, x.dtype, tag)


def stack_axis0(tensors: list[Tensor], tag: str = "stack0") -> Tensor:
    """Inverse of index_axis0: stack equal-shaped tensors on a new axis 0."""
    if not tensors:
        raise ValueError("stack_axis0 needs at least one tensor")
    first = tensors[0]
    if any(t.shape != first.shape or t.dtype != first.dtype for t in tensors):
        raise ValueError("stack_axis0 needs uniform shapes and dtypes")
    shape = (len(tensors),) + first.shape
    if _any_meta(*tensors):
        return _result(first, None, shape, first.dtype, tag)
    return _result(first, np.stack([t.data for t in tensors]), shape, first.dtype, tag)


def slice_last(x: Tensor, lo: int, hi: int, tag: str = "slice") -> Tensor:
    """x[..., lo:hi] (tensor-parallel sharding helper)."""
    if not 0 <= lo <= hi <= x.shape[-1]:
        raise IndexError(f"slice [{lo}:{hi}] out of range for last dim {x.shape[-1]}")
    shape = x.shape[:-1] + (hi - lo,)
    data = None if x.is_meta else np.ascontiguousarray(x.data[..., lo:hi])
    return _result(x, data, shape, x.dtype, tag)


# -- matmul -------------------------------------------------------------------


def _matmul_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < 2 or len(b) < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {a} @ {b}")
    if a[-1] != b[-2]:
        raise ValueError(f"matmul inner dims mismatch: {a} @ {b}")
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return tuple(batch) + (a[-2], b[-1])


def matmul(a: Tensor, b: Tensor, tag: str = "matmul") -> Tensor:
    """Batched matmul; fp16 inputs accumulate in fp32 (tensor-core style)."""
    shape = _matmul_shape(a.shape, b.shape)
    out_dtype = np.result_type(a.dtype, b.dtype)
    if _any_meta(a, b):
        return _result(a, None, shape, out_dtype, tag)
    if a.dtype == np.float16 or b.dtype == np.float16:
        acc = to_dtype(a.data, np.float32) @ to_dtype(b.data, np.float32)
        # fp16 saturates to inf, as hardware does.
        return _result(a, to_dtype(acc, out_dtype), shape, out_dtype, tag)
    return _result(a, a.data @ b.data, shape, out_dtype, tag)


# -- elementwise --------------------------------------------------------------


def _binary(op, a: Tensor, b: Tensor, tag: str) -> Tensor:
    shape = tuple(np.broadcast_shapes(a.shape, b.shape))
    dtype = np.result_type(a.dtype, b.dtype)
    if _any_meta(a, b):
        data = None
    elif a.dtype == b.dtype == np.float16:
        # Bitwise numpy's float16 loop, which also rounds the float32 result:
        # an fp16 product is exact in fp32, and fp32's 24 bits >= 2*11 + 2
        # make the double rounding of a sum harmless (Figueroa). Operands
        # go in swapped, so NaN op NaN keeps the payload numpy's loop keeps.
        data = to_dtype(op(to_dtype(b.data, np.float32), to_dtype(a.data, np.float32)), dtype)
    else:
        data = op(a.data, b.data).astype(dtype, copy=False)
    return _result(a, data, shape, dtype, tag)


def add(a: Tensor, b: Tensor, tag: str = "add") -> Tensor:
    return _binary(np.add, a, b, tag)


def mul(a: Tensor, b: Tensor, tag: str = "mul") -> Tensor:
    return _binary(np.multiply, a, b, tag)


def scale(x: Tensor, factor: float, tag: str = "scale") -> Tensor:
    """Multiply by a scalar in the compute dtype (an fp16 tensor scaled by
    a factor beyond fp16 range saturates only after the multiply, matching
    mixed-precision loss-scaling semantics)."""
    if x.is_meta:
        return _result(x, None, x.shape, x.dtype, tag)
    ct = _compute_dtype(x.dtype)
    with np.errstate(over="ignore"):  # loss-scale overflow saturates to inf
        data = to_dtype(to_dtype(x.data, ct) * ct.type(factor), x.dtype)
    return _result(x, data, x.shape, x.dtype, tag)


def sum_to(x: Tensor, shape: tuple[int, ...], tag: str = "sum_to") -> Tensor:
    """Reduce-sum ``x`` down to a broadcast-compatible ``shape`` (bias grads).

    Accumulates in the compute dtype (fp32 for fp16 inputs, like real
    reduction kernels) and casts back, saturating on overflow.
    """
    shape = tuple(int(s) for s in shape)
    if x.is_meta:
        return _result(x, None, shape, x.dtype, tag)
    data = to_dtype(x.data, _compute_dtype(x.dtype), copy=False)
    # Sum away leading dims, then broadcasted (size-1) dims.
    while data.ndim > len(shape):
        data = data.sum(axis=0)
    for axis, s in enumerate(shape):
        if s == 1 and data.shape[axis] != 1:
            data = data.sum(axis=axis, keepdims=True)
    if data.shape != shape:
        raise ValueError(f"cannot sum {x.shape} to {shape}")
    # fp16 saturates to inf, as hardware does.
    return _result(x, to_dtype(data, x.dtype, copy=False), shape, x.dtype, tag)


# -- GELU (tanh approximation, as in GPT-2) -----------------------------------


def gelu(x: Tensor, tag: str = "gelu") -> Tensor:
    if x.is_meta:
        return _result(x, None, x.shape, x.dtype, tag)
    x32 = to_dtype(x.data, _compute_dtype(x.dtype))
    inner = SQRT_2_OVER_PI * (x32 + 0.044715 * x32**3)
    data = to_dtype(0.5 * x32 * (1.0 + np.tanh(inner)), x.dtype)
    return _result(x, data, x.shape, x.dtype, tag)


def gelu_grad(x: Tensor, dy: Tensor, tag: str = "gelu_grad") -> Tensor:
    if _any_meta(x, dy):
        return _result(x, None, x.shape, dy.dtype, tag)
    ct = _compute_dtype(np.promote_types(x.dtype, dy.dtype))
    x32 = to_dtype(x.data, ct)
    inner = SQRT_2_OVER_PI * (x32 + 0.044715 * x32**3)
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner**2
    dinner = SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x32**2)
    grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x32 * sech2 * dinner
    data = to_dtype(to_dtype(dy.data, ct) * grad, dy.dtype)
    return _result(x, data, x.shape, dy.dtype, tag)


# -- softmax ------------------------------------------------------------------


def softmax(x: Tensor, tag: str = "softmax") -> Tensor:
    """Numerically stable softmax over the last axis, computed in fp32."""
    if x.is_meta:
        return _result(x, None, x.shape, x.dtype, tag)
    x32 = to_dtype(x.data, _compute_dtype(x.dtype))
    x32 = x32 - x32.max(axis=-1, keepdims=True)
    e = np.exp(x32)
    data = to_dtype(e / e.sum(axis=-1, keepdims=True), x.dtype)
    return _result(x, data, x.shape, x.dtype, tag)


def softmax_grad(y: Tensor, dy: Tensor, tag: str = "softmax_grad") -> Tensor:
    """Backward through softmax given its *output* y: dx = y*(dy - sum(dy*y))."""
    if _any_meta(y, dy):
        return _result(y, None, y.shape, dy.dtype, tag)
    ct = _compute_dtype(np.promote_types(y.dtype, dy.dtype))
    y32 = to_dtype(y.data, ct)
    dy32 = to_dtype(dy.data, ct)
    dot = (dy32 * y32).sum(axis=-1, keepdims=True)
    data = to_dtype(y32 * (dy32 - dot), dy.dtype)
    return _result(y, data, y.shape, dy.dtype, tag)


# -- causal mask ---------------------------------------------------------------


def causal_mask_fill(scores: Tensor, value: float = -1e4, tag: str = "mask") -> Tensor:
    """Fill strictly-upper-triangular (future) positions of the last two dims.

    -1e4 (not -inf) keeps fp16 finite, as real mixed-precision kernels do.
    """
    s = scores.shape[-1]
    if scores.shape[-2] != s:
        raise ValueError(f"causal mask needs square last dims, got {scores.shape}")
    if scores.is_meta:
        return _result(scores, None, scores.shape, scores.dtype, tag)
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    data = scores.data.copy()
    data[..., mask] = scores.dtype.type(value)
    return _result(scores, data, scores.shape, scores.dtype, tag)


def causal_mask_zero_grad(dscores: Tensor, tag: str = "mask_grad") -> Tensor:
    """Zero gradients flowing into masked positions."""
    s = dscores.shape[-1]
    if dscores.is_meta:
        return _result(dscores, None, dscores.shape, dscores.dtype, tag)
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    data = dscores.data.copy()
    data[..., mask] = 0
    return _result(dscores, data, dscores.shape, dscores.dtype, tag)


# -- layer norm ----------------------------------------------------------------


def layernorm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5, tag: str = "ln"
) -> tuple[Tensor, Tensor, Tensor]:
    """LayerNorm over the last axis; returns (y, mean, rstd) for backward.

    Statistics are computed in fp32 regardless of input dtype (standard
    mixed-precision practice; LayerNorm in fp16 is numerically fragile).
    """
    stat_shape = x.shape[:-1] + (1,)
    if _any_meta(x, gamma, beta):
        y = _result(x, None, x.shape, x.dtype, tag)
        mean = _result(x, None, stat_shape, _compute_dtype(x.dtype), tag + ".mean")
        rstd = _result(x, None, stat_shape, _compute_dtype(x.dtype), tag + ".rstd")
        return y, mean, rstd
    ct = _compute_dtype(x.dtype)
    x32 = to_dtype(x.data, ct)
    mean32 = x32.mean(axis=-1, keepdims=True)
    var32 = x32.var(axis=-1, keepdims=True)
    rstd32 = 1.0 / np.sqrt(var32 + eps)
    xhat = (x32 - mean32) * rstd32
    y32 = xhat * to_dtype(gamma.data, ct) + to_dtype(beta.data, ct)
    y = _result(x, to_dtype(y32, x.dtype), x.shape, x.dtype, tag)
    mean = _result(x, mean32, stat_shape, ct, tag + ".mean")
    rstd = _result(x, rstd32, stat_shape, ct, tag + ".rstd")
    return y, mean, rstd


def layernorm_grad(
    x: Tensor,
    gamma: Tensor,
    mean: Tensor,
    rstd: Tensor,
    dy: Tensor,
    tag: str = "ln_grad",
) -> tuple[Tensor, Tensor, Tensor]:
    """Returns (dx, dgamma, dbeta)."""
    feat_shape = (x.shape[-1],)
    if _any_meta(x, gamma, mean, rstd, dy):
        dx = _result(x, None, x.shape, dy.dtype, tag + ".dx")
        dgamma = _result(x, None, feat_shape, np.float32, tag + ".dgamma")
        dbeta = _result(x, None, feat_shape, np.float32, tag + ".dbeta")
        return dx, dgamma, dbeta
    n = x.shape[-1]
    ct = _compute_dtype(np.promote_types(x.dtype, dy.dtype))
    x32 = to_dtype(x.data, ct)
    dy32 = to_dtype(dy.data, ct)
    xhat = (x32 - mean.data) * rstd.data
    g32 = to_dtype(gamma.data, ct)
    dgamma32 = (dy32 * xhat).reshape(-1, n).sum(axis=0)
    dbeta32 = dy32.reshape(-1, n).sum(axis=0)
    dxhat = dy32 * g32
    dx32 = rstd.data * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    dx = _result(x, to_dtype(dx32, dy.dtype), x.shape, dy.dtype, tag + ".dx")
    dgamma = _result(x, dgamma32, feat_shape, np.float32, tag + ".dgamma")
    dbeta = _result(x, dbeta32, feat_shape, np.float32, tag + ".dbeta")
    return dx, dgamma, dbeta


# -- embedding -----------------------------------------------------------------


def embedding_lookup(table: Tensor, ids: Tensor, tag: str = "embed") -> Tensor:
    shape = ids.shape + (table.shape[-1],)
    # Device propagation: prefer the table's device, but fall back to the
    # ids' device so ZeRO stage-3 models (whose parameters live off-device
    # until materialized) still produce device-accounted activations.
    ref = table if table.device is not None else ids
    if _any_meta(table, ids):
        return _result(ref, None, shape, table.dtype, tag)
    data = table.data[ids.data]
    return _result(ref, data, shape, table.dtype, tag)


def embedding_grad(table: Tensor, ids: Tensor, dy: Tensor, tag: str = "embed_grad") -> Tensor:
    """Scatter-add dy rows into a table-shaped gradient (fp32 accumulation)."""
    if _any_meta(table, ids, dy):
        return _result(table, None, table.shape, np.float32, tag)
    grad = np.zeros(table.shape, dtype=np.float32)
    np.add.at(grad, ids.data.reshape(-1), to_dtype(dy.data.reshape(-1, dy.shape[-1]), np.float32))
    return _result(table, grad, table.shape, np.float32, tag)


# -- cross entropy ---------------------------------------------------------------


def cross_entropy(logits: Tensor, targets: Tensor, tag: str = "xent") -> tuple[Tensor, Tensor]:
    """Mean token-level cross entropy. Returns (loss_scalar, probs_for_backward).

    ``logits``: (N, V) fp16/fp32; ``targets``: (N,) int. Loss is fp32.
    """
    n, v = logits.shape
    if _any_meta(logits, targets):
        ct = _compute_dtype(logits.dtype)
        loss = _result(logits, None, (), ct, tag)
        probs = _result(logits, None, (n, v), ct, tag + ".probs")
        return loss, probs
    ct = _compute_dtype(logits.dtype)
    x32 = to_dtype(logits.data, ct)
    x32 = x32 - x32.max(axis=-1, keepdims=True)
    e = np.exp(x32)
    probs32 = e / e.sum(axis=-1, keepdims=True)
    picked = probs32[np.arange(n), targets.data]
    loss32 = np.asarray(-np.log(np.maximum(picked, 1e-30)).mean(), dtype=ct)
    loss = _result(logits, loss32, (), ct, tag)
    probs = _result(logits, probs32, (n, v), ct, tag + ".probs")
    return loss, probs


def cross_entropy_grad(probs: Tensor, targets: Tensor, dtype=np.float16, tag: str = "xent_grad") -> Tensor:
    """d(mean CE)/dlogits = (probs - onehot)/N, cast to the model dtype."""
    n, v = probs.shape
    if _any_meta(probs, targets):
        return _result(probs, None, (n, v), np.dtype(dtype), tag)
    grad = probs.data.copy()
    grad[np.arange(n), targets.data] -= 1.0
    grad /= n
    return _result(probs, to_dtype(grad, dtype), (n, v), np.dtype(dtype), tag)


# -- dropout ----------------------------------------------------------------------


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, tag: str = "dropout") -> tuple[Tensor, Tensor | None]:
    """Inverted dropout; returns (y, mask). p=0 is an accounted pass-through."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if p == 0.0:
        y = _result(x, None if x.is_meta else x.data.copy(), x.shape, x.dtype, tag)
        return y, None
    if x.is_meta:
        y = _result(x, None, x.shape, x.dtype, tag)
        mask = _result(x, None, x.shape, np.float32, tag + ".mask")
        return y, mask
    if rng is None:
        raise ValueError("dropout with p > 0 needs an rng in real mode")
    keep = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    y = _result(x, to_dtype(to_dtype(x.data, np.float32) * keep, x.dtype), x.shape, x.dtype, tag)
    mask = _result(x, keep, x.shape, np.float32, tag + ".mask")
    return y, mask


def dropout_grad(dy: Tensor, mask: Tensor | None, tag: str = "dropout_grad") -> Tensor:
    if mask is None:
        return _result(dy, None if dy.is_meta else dy.data.copy(), dy.shape, dy.dtype, tag)
    if _any_meta(dy, mask):
        return _result(dy, None, dy.shape, dy.dtype, tag)
    data = to_dtype(to_dtype(dy.data, np.float32) * mask.data, dy.dtype)
    return _result(dy, data, dy.shape, dy.dtype, tag)
