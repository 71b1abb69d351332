"""What happens when the test stream arrives sorted by label?

Batch-normalized models estimate statistics from each incoming batch, so
single-class batches scramble them and the model can collapse to noise.
This demo contrasts an iid stream with a label-sorted one and shows the
agreement-based guard discarding the auxiliary when it stops tracking the
anchor.

    python3 demos/label_shift_stress.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from coca_tta.cli import load_config
from coca_tta.harness import prepare_models, run

demo = load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")


def config(order, collapse_threshold):
    """The 8-class pair of configs/demo.json on a clean stream of ``order``."""
    return replace(demo, corruption=None, stream=replace(demo.stream, order=order),
                   collapse_threshold=collapse_threshold, seed=5)


# stream order and guard leave pretraining as it is, so every run adapts
# its own copy of one pretraining
pretrained = prepare_models(config("iid_shuffled", 0.0))
for order in ("iid_shuffled", "label_sorted"):
    for threshold in (0.0, 0.4):
        report = run(config(order, threshold), [m.clone() for m in pretrained])
        print(f"{order:13s} guard={threshold:.1f}  "
              f"anchor {report.acc_anchor:.3f}  aux {report.acc_aux:.3f}  "
              f"combined {report.acc_combined:.3f}  "
              f"tau final {report.tau_final:.3f}")
    print()

report = run(config("label_sorted", 0.4), [m.clone() for m in pretrained])
accs = np.array([r.acc_aux for r in report.records])
print("auxiliary per-batch accuracy on the sorted stream (guard on):")
print(np.round(accs[::4], 2).tolist())
