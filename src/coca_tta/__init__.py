"""Cross-model co-learning for test-time adaptation, with a desk-scale benchmark harness."""

from .adaptation import (CascadeOutput, EnsembleOutput, LossBreakdown, LossMasks,
                         ensemble, learn_tau, multi_model_step)
from .autodiff import SGD, Tape, Tensor, backward
from .harness import (ModelEntry, MetricsRecord, RunConfig, RunReport,
                      evaluate_accuracy, mix64, run)
from .models import (ModelHandle, ModelSpec, anchor_select, build_model,
                     forward_logits, load_checkpoint, pretrain, save_checkpoint)
from .shiftgen import (CorruptionSpec, SourceTask, StreamSpec, apply_corruption,
                       gen_source, make_stream)

__version__ = "0.1.0"
