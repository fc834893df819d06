"""Check ``to_dtype`` against numpy's ``astype`` on every float32 pattern.

Converts all 2**32 float32 bit patterns to float16 with both, chunk by
chunk, and compares the results bit for bit; then does the same for all
2**16 float16 patterns widened to float32. Prints the mismatches (none
expected) and exits non-zero if there are any. Takes several minutes;
tier-1 runs a structured sweep through the same boundaries instead
(``tests/test_halfcast.py``).

    PYTHONPATH=src python benchmarks/verify_halfcast_exhaustive.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.tensor.halfcast import to_dtype

#: float32 patterns converted per chunk.
CHUNK = 1 << 24


def check_f32_chunk(lo: int, size: int) -> list[int]:
    bits = np.arange(lo, lo + size, dtype=np.uint64).astype(np.uint32)
    f = bits.view(np.float32)
    with np.errstate(all="ignore"):
        want = f.astype(np.float16).view(np.uint16)
    got = to_dtype(f, np.float16).view(np.uint16)
    return bits[got != want].tolist()


def main() -> int:
    chunks = (1 << 32) // CHUNK
    t0 = time.perf_counter()
    bad: list[int] = []
    for i in range(chunks):
        bad += check_f32_chunk(i * CHUNK, CHUNK)
        if (i + 1) % (chunks // 16) == 0:
            print(f"  {i + 1}/{chunks} chunks, {len(bad)} mismatches, "
                  f"{time.perf_counter() - t0:.0f} s", flush=True)
    h = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    widened = to_dtype(h.view(np.float16), np.float32).view(np.uint32)
    bad16 = h[widened != h.view(np.float16).astype(np.float32).view(np.uint32)].tolist()
    print(f"f32->f16: {1 << 32} patterns, {len(bad)} mismatches")
    print(f"f16->f32: {1 << 16} patterns, {len(bad16)} mismatches")
    print(f"numpy {np.__version__}, {time.perf_counter() - t0:.0f} s")
    for b in bad[:20]:
        print(f"  mismatch f32 0x{b:08x}")
    for b in bad16[:20]:
        print(f"  mismatch f16 0x{b:04x}")
    return 1 if bad or bad16 else 0


if __name__ == "__main__":
    sys.exit(main())
