"""Sweep the loss-term masks and the inner temperature step count, printing a
small table of combined accuracies.

    python3 demos/ablation_sweep.py
"""

from coca_tta.harness import (MASK_NAMES, ModelEntry, RunConfig, point_config,
                              prepare_models, run, sweep_points)
from coca_tta.models import ModelSpec
from coca_tta.shiftgen import CorruptionSpec, SourceTask, StreamSpec

task = SourceTask(kind="gaussian_mixture", num_classes=8, dims=16,
                  center_separation=5.0)
base = RunConfig(
    models=[
        ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(16,),
                                  hidden_sizes=[64, 64], norm_kind="layernorm",
                                  num_classes=8), lr=1e-3, pretrain_epochs=20),
        ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(16,),
                                  hidden_sizes=[24], norm_kind="batchnorm",
                                  num_classes=8), lr=2e-2, pretrain_epochs=20),
    ],
    task=task, strategy="coca",
    corruption=CorruptionSpec(kind="gaussian_noise", severity=4),
    stream=StreamSpec(order="iid_shuffled", batch_size=64, total_samples=1600),
    n_per_class=200, seed=7)


def sweep(grid):
    """(point, report) per grid point. Every grid pins base's seed, so all
    points read the one pretraining of base; each adapts its own clones."""
    return [(p, run(point_config(base, p, i), [m.clone() for m in pretrained]))
            for i, p in enumerate(sweep_points(grid))]


pretrained = prepare_models(base)
print("loss-term ablation (same seed, same stream):")
results = sweep({"loss_masks": list(MASK_NAMES), "seed": [base.seed]})
for point, report in sorted(results, key=lambda r: -r[1].acc_combined):
    print(f"  {point['loss_masks']:11s} combined {report.acc_combined:.3f}")

print("\ninner temperature steps per batch:")
for point, report in sweep({"tau_steps": [0, 1, 5, 10], "seed": [base.seed]}):
    print(f"  K={point['tau_steps']:2d}  combined {report.acc_combined:.3f}  "
          f"tau final {report.tau_final:.3f}")
