"""Run orchestration: pretraining, streaming adaptation, metrics, sweeps.

Labels never reach the adaptation code; strategy steps receive features
only and accuracies are computed here after each step.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .adaptation import TAU_STEPS, LossBreakdown, LossMasks, multi_model_step
from .autodiff import SGD, Tensor
from .models import (ModelHandle, ModelSpec, anchor_select, build_model,
                     forward_logits, pretrain)
from .record import Record
from .shiftgen import (CorruptionSpec, SourceTask, StreamSpec, apply_corruption,
                       gen_source, make_stream)

STRATEGIES = ("source_only", "tent", "coca", "coca_filtered")

CSV_HEADER = "batch,acc_anchor,acc_aux,acc_combined,tau,L_mar,L_ckd,L_sa,L_total,kept_frac"


def fmt_number(v: Optional[float]) -> str:
    """A number as metrics.csv and summary.csv write it; None is NA."""
    return "NA" if v is None else format(v, ".12g")


def mix64(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed from (seed, index) via splitmix64."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


@dataclass
class ModelEntry(Record):
    spec: ModelSpec
    lr: float
    pretrain_epochs: int = 30

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.pretrain_epochs < 1:
            raise ValueError(f"pretrain_epochs must be >= 1, got {self.pretrain_epochs}")


@dataclass
class RunConfig(Record):
    _tag = {"schema": 1}

    models: list[ModelEntry]
    task: SourceTask
    stream: StreamSpec = field(default_factory=StreamSpec)
    corruption: Optional[CorruptionSpec] = None
    strategy: str = "coca"
    n_per_class: int = 400
    lam_col: float = 1.0
    tau_steps: int = TAU_STEPS
    loss_masks: LossMasks = field(default_factory=LossMasks)
    collapse_threshold: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unsupported strategy: {self.strategy!r}")
        if not self.models:
            raise ValueError("models must hold at least one entry")
        if self.strategy in ("coca", "coca_filtered") and len(self.models) < 2:
            raise ValueError("co-adaptation strategies require >= 2 models")
        if not (self.loss_masks.sa or self.loss_masks.mar or self.loss_masks.ckd):
            raise ValueError("loss_masks: at least one of sa, mar, ckd must be on")
        if not self.lam_col >= 0:
            raise ValueError(f"lam_col must be >= 0, got {self.lam_col}")
        if self.lam_col == 0 and not self.loss_masks.sa:
            raise ValueError("lam_col = 0 with loss_masks.sa off leaves an objective "
                             "that is identically 0")
        if not 0 <= self.collapse_threshold <= 1:
            raise ValueError(f"collapse_threshold must be in [0, 1], got {self.collapse_threshold}")
        if self.n_per_class < 1:
            raise ValueError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if self.tau_steps < 0:
            raise ValueError(f"tau_steps must be >= 0, got {self.tau_steps}")
        for entry in self.models:
            if entry.spec.num_classes != self.task.num_classes:
                raise ValueError(
                    f"model classes {entry.spec.num_classes} incompatible with "
                    f"task classes {self.task.num_classes}")
            if entry.spec.input_shape != self.task.feature_shape:
                raise ValueError(f"model input shape {entry.spec.input_shape} incompatible "
                                 f"with task feature shape {self.task.feature_shape}")
        if (self.corruption is not None and self.corruption.kind == "blur3x3"
                and self.task.kind != "procedural_images"):
            raise ValueError(f"corruption blur3x3 needs an image task, not {self.task.kind}")


class AnchorFirst:
    """``acc_anchor`` and ``acc_aux`` of an anchor-first ``acc_per_model``."""

    @property
    def acc_anchor(self) -> float:
        return self.acc_per_model[0]

    @property
    def acc_aux(self) -> Optional[float]:
        return self.acc_per_model[1] if len(self.acc_per_model) > 1 else None


@dataclass
class MetricsRecord(AnchorFirst):
    """One batch of a run: every model's accuracy and the step's own numbers."""
    batch: int
    n_samples: int
    acc_per_model: list[float]   # anchor-first ordering
    acc_combined: Optional[float]
    tau: Optional[float]
    losses: Optional[LossBreakdown]

    @property
    def l_total(self) -> Optional[float]:
        return None if self.losses is None else self.losses.l_total

    def csv_row(self) -> str:
        bd = self.losses
        losses = ((None,) * 5 if bd is None
                  else (bd.l_mar, bd.l_ckd, bd.l_sa, bd.l_total, bd.kept_frac))
        return ",".join([str(self.batch)] + [fmt_number(v) for v in (
            self.acc_anchor, self.acc_aux, self.acc_combined, self.tau, *losses)])


@dataclass
class RunReport(AnchorFirst):
    """A run's records and the aggregates computed from them."""
    config: RunConfig
    records: list[MetricsRecord]
    acc_per_model: list[float] = field(init=False)   # anchor-first ordering
    acc_combined: Optional[float] = field(init=False)
    tau_final: Optional[float] = field(init=False)
    tau_min_seen: Optional[float] = field(init=False)
    tau_max_seen: Optional[float] = field(init=False)
    n_samples: int = field(init=False)

    def __post_init__(self):
        """Each accuracy is the records' sample-weighted mean."""
        records = self.records
        self.n_samples = sum(r.n_samples for r in records)

        def mean(accs) -> float:
            total = 0.0   # summed in batch order, as a running total would be
            for acc, r in zip(accs, records):
                total += acc * r.n_samples
            return total / self.n_samples

        self.acc_per_model = [mean(accs) for accs in zip(*(r.acc_per_model for r in records))]
        combined = [r.acc_combined for r in records]
        self.acc_combined = None if None in combined else mean(combined)
        taus = [r.tau for r in records if r.tau is not None]
        self.tau_final, self.tau_min_seen, self.tau_max_seen = (
            (taus[-1], min(taus), max(taus)) if taus else (None, None, None))

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "config": self.config.to_dict(),
            "seed": self.config.seed,
            "n_samples": self.n_samples,
            "n_batches": len(self.records),
            "acc_per_model": self.acc_per_model,
            "acc_combined": self.acc_combined,
            "tau_summary": {"final": self.tau_final, "min": self.tau_min_seen,
                            "max": self.tau_max_seen},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def metrics_csv(self) -> str:
        lines = [CSV_HEADER] + [r.csv_row() for r in self.records]
        return "\n".join(lines) + "\n"


def evaluate_accuracy(predictions: np.ndarray, true_labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    if predictions.shape != true_labels.shape:
        raise ValueError("predictions and labels must have equal length")
    return float((predictions == true_labels).mean())


# --- process pool ---------------------------------------------------------------

# Set in the workers of parallel_map's pool, whose own jobs then run serially.
_IN_POOL_WORKER = False


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pool_worker_init() -> None:
    """Pool initializer: one BLAS thread, a kept heap, and no pool of its own.

    Each worker would otherwise start one thread of numpy's bundled OpenBLAS
    per core, so N workers oversubscribe the machine N-fold. Without that
    library the thread count is left alone.

    A fresh worker's glibc also hands the multi-MB arrays of a pretraining
    step back to the kernel when they are freed, and faults them in again on
    the next step. Pinning both its mmap and trim thresholds keeps them on
    the heap; setting either alone turns off glibc's dynamic adjustment of
    the other and faults more than the default. Without mallopt (no glibc)
    the allocator is left alone, and the calling process never changes it.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        set_threads = getattr(ctypes.CDLL(str(lib_path)),
                              "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        # glibc's own ceiling for its dynamic mmap threshold on 64-bit, and
        # twice that to trim; mallopt returns 1 on success, and the trim
        # threshold goes only with the mmap one, since alone it is worse
        if not (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1):
            warnings.warn("mallopt rejected a pool worker's heap threshold", RuntimeWarning)


def parallel_map(fn: Callable, jobs: Sequence[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]`` on a pool of up to ``workers`` processes.

    Results come back in job order, and a job's exception reaches the
    caller. With one worker, or inside a pool worker (whose siblings
    already fill the cores), the jobs run serially in the calling process.
    The pool takes multiprocessing's start method: a forked worker inherits
    the caller's imports, where a spawned one would first import numpy again.
    """
    workers = min(workers, len(jobs))
    if workers <= 1 or _IN_POOL_WORKER:
        return [fn(*job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                initializer=_pool_worker_init) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# --- pretraining ----------------------------------------------------------------

PRETRAIN_LR = 0.05


def _pretrain_job(config: RunConfig, i: int) -> tuple:
    """Everything pretraining model ``i`` reads, as _pretrain_one's arguments.

    Configs with equal job lists pretrain equal models; the entry's
    adaptation lr is not part of the job.
    """
    entry = config.models[i]
    return (entry.spec, i, config.task, config.n_per_class, entry.pretrain_epochs, config.seed)


def _pretrain_one(spec: ModelSpec, index: int, task: SourceTask, n_per_class: int,
                  epochs: int, seed: int) -> tuple[ModelHandle, list[dict]]:
    """Build and pretrain the model at ``index`` of a run with this ``seed``."""
    feats, labels = gen_source(task, n_per_class, mix64(seed, 1))
    model = build_model(spec, mix64(seed, 100 + index))
    log = pretrain(model, feats, labels, epochs=epochs, lr=PRETRAIN_LR,
                   seed=mix64(seed, 200 + index))
    return model, log


def pretrain_models(config: RunConfig) -> tuple[list[ModelHandle], list[list[dict]]]:
    """Build and pretrain the configured models (deterministic in the run seed).

    Returns the models and each model's pretraining log. Models pretrain in
    parallel, one process per model up to the usable CPUs; each depends only
    on its job, so the results equal those of a serial loop. Every call
    pretrains; a caller that adapts the same pretraining twice passes clones.
    """
    jobs = [_pretrain_job(config, i) for i in range(len(config.models))]
    pairs = parallel_map(_pretrain_one, jobs, usable_cpus())
    return [model for model, _ in pairs], [log for _, log in pairs]


def prepare_models(config: RunConfig) -> list[ModelHandle]:
    """The pretrained models of pretrain_models, without their logs."""
    return pretrain_models(config)[0]


def build_test_stream(config: RunConfig):
    """The run's stream of batches over its corrupted test set."""
    total = config.stream.total_samples
    c = config.task.num_classes
    n_per_class = max(1, math.ceil((total or c * 64) / c))
    feats, labels = gen_source(config.task, n_per_class, mix64(config.seed, 3))
    if config.corruption is not None:
        feats = apply_corruption(feats, config.corruption, mix64(config.seed, 4))
    return make_stream(feats, labels, config.stream, mix64(config.seed, 5))


# coca_filtered keeps samples of ensemble entropy below this share of ln C (EATA's)
FILTER_FACTOR = 0.4


def run(config: RunConfig, models: Optional[Sequence[ModelHandle]] = None) -> RunReport:
    """Execute one adaptation run and collect per-batch metrics.

    Without ``models`` the run pretrains its own in one prepare_models call.
    Given models are adapted in place.
    """
    models = list(prepare_models(config) if models is None else models)
    if len(models) != len(config.models):
        raise ValueError(f"got {len(models)} models for {len(config.models)} config entries")
    position: dict[int, int] = {}
    for i, (entry, model) in enumerate(zip(config.models, models)):
        if model.spec != entry.spec:
            raise ValueError(f"model {i} has spec {model.spec}; config entry {i} has {entry.spec}")
        first = position.setdefault(id(model), i)
        if first != i:
            raise ValueError(f"models {first} and {i} are the same object; "
                             "each config entry needs a model of its own")

    ordered = anchor_select(models)
    for m in ordered:
        m.set_trainable(norm_only=True)
    optimizers = [SGD(m.norm_params(), lr=config.models[position[id(m)]].lr, momentum=0.9)
                  for m in ordered]

    filter_factor = FILTER_FACTOR if config.strategy == "coca_filtered" else None
    taus = [1.0] * (len(ordered) - 1)

    records: list[MetricsRecord] = []
    for b, (xb, yb) in enumerate(build_test_stream(config)):
        comb, tau, losses = None, None, None
        if config.strategy == "source_only":
            preds = [forward_logits(m, Tensor(xb)).data.argmax(axis=1) for m in ordered]
        elif config.strategy == "tent":
            preds = [multi_model_step([m], [], xb, [opt]).y_hat
                     for m, opt in zip(ordered, optimizers)]
        else:
            out = multi_model_step(ordered, taus, xb, optimizers,
                                   filter_factor=filter_factor, lam_col=config.lam_col,
                                   masks=config.loss_masks,
                                   collapse_threshold=config.collapse_threshold,
                                   tau_steps=config.tau_steps)
            preds, comb, losses, taus = out.per_model_preds, out.y_hat, out.breakdown, out.taus
            tau = taus[-1]  # topmost pairing
        records.append(MetricsRecord(
            batch=b, n_samples=len(yb), acc_per_model=[evaluate_accuracy(p, yb) for p in preds],
            acc_combined=None if comb is None else evaluate_accuracy(comb, yb),
            tau=tau, losses=losses))
    return RunReport(config, records)


# --- sweeps -------------------------------------------------------------------

MASK_NAMES = {
    "sa": LossMasks(True, False, False),
    "mar": LossMasks(False, True, False),
    "ckd": LossMasks(False, False, True),
    "mar+ckd": LossMasks(False, True, True),
    "sa+ckd": LossMasks(True, False, True),
    "sa+mar": LossMasks(True, True, False),
    "sa+mar+ckd": LossMasks(True, True, True),
}


SWEEP_KEYS = ("severity", "stream_order", "loss_masks", "strategy", "lam_col", "tau_steps",
              "seed", "pretrain_epochs", "n_per_class")


def point_config(base: RunConfig, point: dict, index: int) -> RunConfig:
    """The config of sweep point `index`: base with the point's overrides.

    The point is read as base's document with the overrides put in, so each
    value goes through its field's reader; a loss_masks value may also name
    an entry of MASK_NAMES, and a pretrain_epochs value sets every model
    entry's budget. Unless the point sets the seed, it gets
    mix64(base.seed, 1000 + index). The overrides apply together, so only
    the whole point is validated.
    """
    path = f"<point {index}>"
    doc = base.to_dict()
    for key, value in point.items():
        if key not in SWEEP_KEYS:
            raise ValueError(f"{path}.{key}: unknown sweep key; expected one of {list(SWEEP_KEYS)}")
        if key == "loss_masks" and isinstance(value, str):
            if value not in MASK_NAMES:
                raise ValueError(f"{path}.{key}: unknown mask name {value!r}; "
                                 f"expected one of {list(MASK_NAMES)}")
            value = MASK_NAMES[value].to_dict()
        if key == "severity":
            if doc["corruption"] is None:
                raise ValueError(f"{path}: severity override requires a corruption spec")
            doc["corruption"]["severity"] = value
        elif key == "stream_order":
            doc["stream"]["order"] = value
        elif key == "pretrain_epochs":
            for entry in doc["models"]:
                entry["pretrain_epochs"] = value
        else:
            doc[key] = value
    if "seed" not in point:
        doc["seed"] = mix64(base.seed, 1000 + index)
    return RunConfig._read(doc, path)


def sweep_points(grid: dict[str, list]) -> list[dict]:
    if not isinstance(grid, dict) or not grid:
        raise ValueError(f"sweep grid must be a non-empty object, got {grid!r}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"<grid>.{key}: expected a non-empty list of values, "
                             f"got {values!r}")
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]

