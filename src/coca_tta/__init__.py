"""Cross-model co-learning for test-time adaptation, with a desk-scale benchmark harness."""

from .adaptation import (CascadeOutput, EnsembleOutput, LossBreakdown, LossMasks,
                         TauState, ckd_loss, coca_step, ensemble, learn_tau,
                         marginal_entropy, multi_model_step, self_adapt_loss)
from .autodiff import SGD, Tape, Tensor, backward
from .harness import (ModelEntry, MetricsRecord, RunConfig, RunReport,
                      evaluate_accuracy, mix64, run)
from .models import (ModelHandle, ModelSpec, anchor_select, build_model,
                     forward_logits, load_checkpoint, pretrain, save_checkpoint)
from .shiftgen import (CorruptionSpec, SourceTask, StreamSpec, apply_corruption,
                       gen_source, load_dataset, make_stream, save_dataset)

__version__ = "0.1.0"
