"""Sweep the loss-term masks and the inner temperature step count, printing a
small table of combined accuracies.

    python3 demos/ablation_sweep.py
"""

from pathlib import Path

from coca_tta.cli import load_config
from coca_tta.harness import MASK_NAMES, point_config, prepare_models, run, sweep_points

base = load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")


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
