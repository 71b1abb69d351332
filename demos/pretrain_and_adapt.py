"""Walkthrough: pretrain two models, stream a corrupted test set, and compare
independent entropy minimization against co-adaptation with a learned
temperature.

Run from the repository root:

    python3 demos/pretrain_and_adapt.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from coca_tta.cli import load_config
from coca_tta.harness import prepare_models, run

# configs/reference.json holds an asymmetric pair: a well-trained anchor and
# a small, undertrained auxiliary that benefits from cross-model
# pseudo-labels at test time
reference = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.json")


def config(strategy):
    return replace(reference, strategy=strategy)


print("pretraining and running three strategies on the same corrupted stream")
# every strategy adapts its own copy of one pretraining
pretrained = prepare_models(config("coca"))
for strategy in ("source_only", "tent", "coca"):
    report = run(config(strategy), [m.clone() for m in pretrained])
    per_model = ", ".join(f"{a:.3f}" for a in report.acc_per_model)
    comb = "-" if report.acc_combined is None else f"{report.acc_combined:.3f}"
    tau = "-" if report.tau_final is None else f"{report.tau_final:.3f}"
    print(f"  {strategy:12s} per-model [{per_model}]  combined {comb}  tau {tau}")

report = run(config("coca"), [m.clone() for m in pretrained])
taus = np.array([r.tau for r in report.records])
print(f"\ntemperature trajectory: start {taus[0]:.3f}, "
      f"median {np.median(taus):.3f}, final {taus[-1]:.3f}")
print("first batches:", np.round(taus[:8], 3).tolist())
