"""Rewrite ``perfbench/reference.json`` from the current library.

Run from the repository root, only when a change to the library is meant
to change its outputs::

    python3 perfbench/record_reference.py

For each workload it runs the default seed's warm-up step and
``REFERENCE_STEPS - 1`` more, and records the losses (as exact hex
floats), the per-step ledger bytes and the peak device bytes. It refuses
to record a workload whose steps disagree on the two byte counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_STEPS = 3


def record() -> dict:
    from perfbench.checks import DEFAULT_SEED
    from perfbench.driver import Session
    from perfbench.workloads import WORKLOADS

    out = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS.values():
        session = Session(w, DEFAULT_SEED)
        try:
            outcomes = [session.start()[1]]
            outcomes += [session.step() for _ in range(REFERENCE_STEPS - 1)]
        finally:
            session.close()
        for o in outcomes:
            if o.error is not None:
                raise RuntimeError(f"{w.name} step {o.step} failed") from o.error
        ledger = {o.ledger_bytes for o in outcomes}
        peak = {o.peak_bytes for o in outcomes}
        if len(ledger) != 1 or len(peak) != 1:
            raise RuntimeError(f"{w.name}: steps disagree: ledger {ledger}, peak {peak}")
        entry = {"step_ledger_bytes": ledger.pop(), "peak_device_bytes": peak.pop()}
        if not w.meta:
            entry["losses"] = [o.losses[0].hex() for o in outcomes]
        out["workloads"][w.name] = entry
        print(f"{w.name}: {entry}")
    return out


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import REFERENCE_PATH

    REFERENCE_PATH.write_text(json.dumps(record(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
