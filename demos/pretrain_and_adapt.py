"""Walkthrough: pretrain two models, stream a corrupted test set, and compare
independent entropy minimization against co-adaptation with a learned
temperature.

Run from the repository root:

    python3 demos/pretrain_and_adapt.py
"""

import numpy as np

from coca_tta.harness import ModelEntry, RunConfig, prepare_models, run
from coca_tta.models import ModelSpec
from coca_tta.shiftgen import CorruptionSpec, SourceTask, StreamSpec

task = SourceTask(kind="gaussian_mixture", num_classes=16, dims=32,
                  center_separation=4.5)
# asymmetric pair: a well-trained anchor and a small, undertrained auxiliary
# that benefits from cross-model pseudo-labels at test time
models = [
    ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(32,),
                              hidden_sizes=[128, 128, 128],
                              norm_kind="layernorm", num_classes=16),
               lr=1e-3, pretrain_epochs=45),
    ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(32,), hidden_sizes=[32],
                              norm_kind="batchnorm", num_classes=16), lr=0.12,
               pretrain_epochs=18),
]


def config(strategy):
    return RunConfig(
        models=models, task=task, strategy=strategy,
        corruption=CorruptionSpec(kind="gaussian_noise", severity=5),
        stream=StreamSpec(order="iid_shuffled", batch_size=64,
                          total_samples=3200),
        seed=3)


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
