"""Output checks. A step that raises or fails any check counts as failed.

Every workload's per-step ledger bytes and peak device bytes must equal
``reference.json`` exactly (both are independent of the seed). Numeric
workloads must also end each step with a finite loss that is bitwise
equal on every rank, and, for the default seed, equal to the recorded
losses of the first steps. ``meta_100b_c4``'s peak must agree with the
repository's 100B training-step baseline, and ``meta_infinity_10b``'s
modeled step with ``InfinityCostModel`` within 5%.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.infinity.cost_model import InfinityCostModel
from repro.offload.cost_model import relative_error
from repro.utils.units import GB

from perfbench.driver import Session, StepOutcome
from perfbench.workloads import Workload

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0
INFINITY_TOLERANCE = 0.05


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Checker:
    """Judges the steps of one workload run for one seed."""

    def __init__(self, w: Workload, seed: int, root: Path):
        self.workload = w
        self.seed = seed
        self.ref = load_reference()["workloads"][w.name]
        self.baseline_peak_gb = None
        if w.peak_baseline is not None:
            rows = json.loads((root / w.peak_baseline).read_text())
            self.baseline_peak_gb = next(
                r["value"] for r in rows if r["metric"] == "peak_allocated_gb"
            )
        #: ``InfinityCostModel``'s step seconds, set by ``predict``.
        self.predicted_s: float | None = None

    def predict(self, session: Session) -> None:
        """Price the engine's last step profile with ``InfinityCostModel``
        (workloads with an infinity placement only)."""
        w = self.workload
        if w.zero.infinity is None:
            return
        engine = session.engines[0]
        runtime = engine.infinity
        cost = InfinityCostModel(
            w.model, gpu=session.contexts[0].device.spec,
            checkpointing=w.zero.checkpoint_activations, infinity=w.zero.infinity,
        )
        self.predicted_s = cost.predict_step(
            batch=w.batch, seq_len=w.seq, nd=w.dp,
            numel=engine.part_numel,
            grad_chunks=max(len(runtime.last_grad_pieces), 1),
            gathers_forward=runtime.last_gathers["forward"],
            gathers_backward=runtime.last_gathers["backward"],
        ).step_s

    def step_problems(self, outcome: StepOutcome) -> list[str]:
        """Problems with one step's outputs (empty when it passed)."""
        if outcome.error is not None:
            err = outcome.error
            return [f"step {outcome.step} raised {type(err).__name__}: {err}"]
        w, ref = self.workload, self.ref
        where = f"step {outcome.step}"
        problems = []
        if not w.meta:
            losses = outcome.losses
            if not all(loss is not None and math.isfinite(loss) for loss in losses):
                problems.append(f"{where}: non-finite loss {losses}")
            elif len(set(losses)) != 1:
                problems.append(f"{where}: ranks disagree on the loss {losses}")
            elif self.seed == DEFAULT_SEED and outcome.step < len(ref["losses"]):
                expected = float.fromhex(ref["losses"][outcome.step])
                if losses[0] != expected:
                    problems.append(f"{where}: loss {losses[0]!r} != reference {expected!r}")
        if outcome.ledger_bytes != ref["step_ledger_bytes"]:
            problems.append(
                f"{where}: ledger bytes {outcome.ledger_bytes} "
                f"!= reference {ref['step_ledger_bytes']}"
            )
        if outcome.peak_bytes != ref["peak_device_bytes"]:
            problems.append(
                f"{where}: peak device bytes {outcome.peak_bytes} "
                f"!= reference {ref['peak_device_bytes']}"
            )
        if self.baseline_peak_gb is not None and outcome.peak_bytes / GB != self.baseline_peak_gb:
            problems.append(
                f"{where}: peak {outcome.peak_bytes / GB!r} GB != "
                f"{w.peak_baseline} value {self.baseline_peak_gb!r} GB"
            )
        if self.predicted_s is not None:
            err = relative_error(self.predicted_s, outcome.ranks[0].model_step_s)
            if err > INFINITY_TOLERANCE:
                problems.append(
                    f"{where}: modeled step {outcome.ranks[0].model_step_s:.4f} s is "
                    f"{100 * err:.1f}% from InfinityCostModel {self.predicted_s:.4f} s"
                )
        return problems


def warmups_differ(warmups: list[StepOutcome]) -> list[int]:
    """Indexes of set-ups whose warm-up step differs from the first one's
    (every set-up of one seed must produce the same step)."""
    def key(o: StepOutcome):
        return (o.losses, o.ledger_bytes, o.peak_bytes)

    first = warmups[0]
    return [
        i for i, o in enumerate(warmups[1:], start=1)
        if o.error is None and first.error is None and key(o) != key(first)
    ]
