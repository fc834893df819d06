"""Flat parameter layout: map a model's parameters into one contiguous vector.

DeepSpeed-style flattening underlies everything distributed here: DDP's
fused all-reduce buffer, ZeRO's optimizer-state/gradient/parameter
partitions, and the mixed-precision master copy all address parameters by
(offset, size) into a single flat space, padded so it divides evenly by
the data-parallel degree.

Ordering is the model's deterministic registration order, identical on
every rank, so partition i means the same parameters everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import Parameter
from repro.tensor.halfcast import to_dtype


@dataclass(frozen=True)
class ParamSlot:
    """One parameter's placement in the flat vector."""

    name: str
    offset: int
    size: int
    shape: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.offset + self.size


class FlatLayout:
    """Deterministic packing of parameters into a padded flat vector."""

    def __init__(self, parameters: list[Parameter], pad_multiple: int = 1):
        if pad_multiple <= 0:
            raise ValueError(f"pad_multiple must be positive, got {pad_multiple}")
        self.parameters = list(parameters)
        self.slots: list[ParamSlot] = []
        offset = 0
        seen: set[str] = set()
        for p in self.parameters:
            if p.name in seen:
                raise ValueError(f"duplicate parameter name {p.name!r} in layout")
            seen.add(p.name)
            self.slots.append(ParamSlot(p.name, offset, p.size, p.shape))
            offset += p.size
        self.numel_unpadded = offset
        self.numel = -(-offset // pad_multiple) * pad_multiple  # ceil to multiple
        self.pad_multiple = pad_multiple
        self._by_name = {s.name: s for s in self.slots}

    def slot(self, name: str) -> ParamSlot:
        return self._by_name[name]

    def partition_bounds(self, n_partitions: int, index: int) -> tuple[int, int]:
        """[lo, hi) of equal partition ``index`` of the padded flat space."""
        if self.numel % n_partitions:
            raise ValueError(
                f"flat numel {self.numel} not divisible by {n_partitions}; "
                f"construct the layout with pad_multiple={n_partitions}"
            )
        size = self.numel // n_partitions
        return index * size, (index + 1) * size

    def partition_size(self, n_partitions: int) -> int:
        return self.partition_bounds(n_partitions, 0)[1]

    # -- gather / scatter (real mode; callers skip these in meta mode) -------

    def gather_params(self, dtype=np.float32) -> np.ndarray:
        """Concatenate parameter values into a flat vector (padded with zeros)."""
        flat = np.zeros(self.numel, dtype=dtype)
        for p, s in zip(self.parameters, self.slots):
            flat[s.offset : s.end] = to_dtype(p.data.numpy().reshape(-1), dtype)
        return flat

    def gather_grads(self, dtype=np.float32, *, missing_ok: bool = False) -> np.ndarray:
        """Concatenate gradients (zeros where a parameter has no grad)."""
        flat = np.zeros(self.numel, dtype=dtype)
        for p, s in zip(self.parameters, self.slots):
            if p.grad is None:
                if not missing_ok:
                    raise ValueError(f"parameter {p.name} has no gradient")
                continue
            flat[s.offset : s.end] = to_dtype(p.grad.numpy().reshape(-1), dtype)
        return flat

    def scatter_params(self, flat: np.ndarray) -> None:
        """Write a flat vector back into the parameter tensors (casting)."""
        if flat.shape != (self.numel,):
            raise ValueError(f"flat vector shape {flat.shape} != ({self.numel},)")
        for p, s in zip(self.parameters, self.slots):
            p.data.data = to_dtype(flat[s.offset : s.end], p.data.dtype).reshape(s.shape)

    def scatter_param_range(self, flat_piece: np.ndarray, lo: int, hi: int) -> None:
        """Write values for the flat range [lo, hi) into overlapping params."""
        if flat_piece.shape != (hi - lo,):
            raise ValueError(f"piece shape {flat_piece.shape} != ({hi - lo},)")
        for p, s in zip(self.parameters, self.slots):
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b:
                continue
            target = p.data.numpy().reshape(-1)
            target[a - s.offset : b - s.offset] = to_dtype(
                flat_piece[a - lo : b - lo], p.data.dtype
            )

    def gather_param_range(self, lo: int, hi: int, dtype=np.float32) -> np.ndarray:
        """Read parameter values for the flat range [lo, hi) (pad as zeros)."""
        piece = np.zeros(hi - lo, dtype=dtype)
        for p, s in zip(self.parameters, self.slots):
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b:
                continue
            src = p.data.numpy().reshape(-1)
            piece[a - lo : b - lo] = to_dtype(src[a - s.offset : b - s.offset], dtype)
        return piece

    def gather_grad_range(
        self, lo: int, hi: int, dtype=np.float32, *, missing_ok: bool = False
    ) -> np.ndarray:
        """Read gradient values for the flat range [lo, hi) (pad as zeros)."""
        piece = np.zeros(hi - lo, dtype=dtype)
        for p, s in zip(self.parameters, self.slots):
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b:
                continue
            if p.grad is None:
                if not missing_ok:
                    raise ValueError(f"parameter {p.name} has no gradient")
                continue
            src = p.grad.numpy().reshape(-1)
            piece[a - lo : b - lo] = to_dtype(src[a - s.offset : b - s.offset], dtype)
        return piece

    def scatter_grad_range(self, flat_piece: np.ndarray, lo: int, hi: int) -> None:
        """Write values for the flat range [lo, hi) into overlapping grads."""
        if flat_piece.shape != (hi - lo,):
            raise ValueError(f"piece shape {flat_piece.shape} != ({hi - lo},)")
        for p, s in zip(self.parameters, self.slots):
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b or p.grad is None:
                continue
            target = p.grad.numpy().reshape(-1)
            target[a - s.offset : b - s.offset] = to_dtype(
                flat_piece[a - lo : b - lo], p.grad.dtype
            )

    def slots_in_range(self, lo: int, hi: int) -> list[ParamSlot]:
        """Parameter slots overlapping the flat range [lo, hi)."""
        return [s for s in self.slots if s.offset < hi and s.end > lo]
