"""What happens when the test stream arrives sorted by label?

Batch-normalized models estimate statistics from each incoming batch, so
single-class batches scramble them and the model can collapse to noise.
This demo contrasts an iid stream with a label-sorted one and shows the
agreement-based guard discarding the auxiliary when it stops tracking the
anchor.

    python3 demos/label_shift_stress.py
"""

import numpy as np

from coca_tta.harness import ModelEntry, RunConfig, prepare_models, run
from coca_tta.models import ModelSpec
from coca_tta.shiftgen import SourceTask, StreamSpec

task = SourceTask(kind="gaussian_mixture", num_classes=8, dims=16,
                  center_separation=5.0)
models = [
    ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(16,),
                              hidden_sizes=[64, 64], norm_kind="layernorm",
                              num_classes=8), lr=1e-3, pretrain_epochs=20),
    ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(16,), hidden_sizes=[24],
                              norm_kind="batchnorm", num_classes=8), lr=2e-2,
               pretrain_epochs=20),
]


def config(order, collapse_threshold):
    return RunConfig(
        models=models, task=task, strategy="coca",
        stream=StreamSpec(order=order, batch_size=64, total_samples=1600),
        n_per_class=200, collapse_threshold=collapse_threshold, seed=5)


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
