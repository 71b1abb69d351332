"""Synthetic source tasks, corruption operators, and test-stream builders.

All generators are pure functions of their parameters and a seed.
Severity tables are artifact-defined and monotone in corruption strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .record import Record

GAUSSIAN_NOISE_STD = {1: 0.25, 2: 0.5, 3: 0.75, 4: 1.0, 5: 1.5}
UNIFORM_NOISE_HALFWIDTH = {1: 0.25, 2: 0.5, 3: 0.75, 4: 1.0, 5: 1.5}
CONTRAST_SCALE = {1: 0.8, 2: 0.6, 3: 0.45, 4: 0.3, 5: 0.2}
ROTATION_DEGREES = {1: 10.0, 2: 20.0, 3: 30.0, 4: 45.0, 5: 60.0}

CORRUPTION_KINDS = ("gaussian_noise", "uniform_noise", "contrast_scale",
                    "feature_rotation", "blur3x3")


@dataclass
class SourceTask(Record):
    kind: str                     # "gaussian_mixture" | "procedural_images"
    num_classes: int
    dims: int = 32                # gaussian_mixture feature dimension
    image_shape: tuple[int, int, int] = (1, 8, 8)
    center_separation: float = 6.0  # pairwise center distance; the noise std is 1

    def __post_init__(self):
        if self.kind not in ("gaussian_mixture", "procedural_images"):
            raise ValueError(f"unsupported task kind: {self.kind!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not 0 < self.center_separation < math.inf:
            raise ValueError(f"center_separation must be finite and > 0, "
                             f"got {self.center_separation}")
        if self.kind == "gaussian_mixture" and self.num_classes > self.dims:
            raise ValueError("gaussian_mixture requires num_classes <= dims")
        self.image_shape = tuple(int(d) for d in self.image_shape)

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return (self.dims,) if self.kind == "gaussian_mixture" else self.image_shape


@dataclass
class CorruptionSpec(Record):
    kind: str
    severity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unsupported corruption kind: {self.kind!r}")
        if not 1 <= self.severity <= 5:
            raise ValueError(f"severity must be in 1..5, got {self.severity}")


@dataclass
class StreamSpec(Record):
    order: str = "iid_shuffled"   # iid_shuffled | label_sorted | mixed_blocks
    batch_size: int = 64
    total_samples: int = 0        # 0 = use the whole dataset

    def __post_init__(self):
        if self.order not in ("iid_shuffled", "label_sorted", "mixed_blocks"):
            raise ValueError(f"unsupported stream order: {self.order!r}")
        # make_stream drops batches of fewer than 2 samples, whose batch
        # statistics are undefined; a stream of them would yield nothing
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}: "
                             "batches of one sample are dropped")
        if self.total_samples < 0 or self.total_samples == 1:
            raise ValueError(f"total_samples must be 0 (the whole dataset) or >= 2, "
                             f"got {self.total_samples}")


def class_centers(task: SourceTask) -> np.ndarray:
    """Mutually orthogonal class means of shape (C, *task.feature_shape).

    Their pairwise distance is center_separation noise standard deviations.
    """
    rng = np.random.default_rng(0)
    c = task.num_classes
    raw = rng.standard_normal((math.prod(task.feature_shape), c))
    q, _ = np.linalg.qr(raw)
    # orthonormal centers are sqrt(2)*r apart; scale so the distance is sep
    radius = task.center_separation / np.sqrt(2.0)
    return (q[:, :c].T * radius).reshape((c,) + task.feature_shape)


def gen_source(task: SourceTask, n_per_class: int, seed: int):
    """Balanced labeled dataset: (features, labels), deterministic in seed."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(task.num_classes), n_per_class)
    noise = rng.standard_normal((len(labels),) + task.feature_shape)
    return class_centers(task)[labels] + noise, labels


def apply_corruption(features: np.ndarray, spec: CorruptionSpec, seed: int) -> np.ndarray:
    """Corrupt features without changing labels or cardinality."""
    rng = np.random.default_rng(seed)
    s = spec.severity
    x = features
    if spec.kind == "gaussian_noise":
        sigma = GAUSSIAN_NOISE_STD[s] * x.std()
        return x + rng.standard_normal(x.shape) * sigma
    if spec.kind == "uniform_noise":
        a = UNIFORM_NOISE_HALFWIDTH[s] * x.std()
        return x + rng.uniform(-a, a, size=x.shape)
    if spec.kind == "contrast_scale":
        return x * CONTRAST_SCALE[s]
    if spec.kind == "feature_rotation":
        flat = x.reshape(len(x), -1)
        return _rotate_planes(flat, ROTATION_DEGREES[s], rng).reshape(x.shape)
    # blur3x3: severity-many passes of a normalized 3x3 box kernel
    if x.ndim != 4:
        raise ValueError("blur3x3 applies to image features of shape (N, C, H, W)")
    out = x
    for _ in range(s):
        out = _box_blur(out)
    return out


def _rotate_planes(flat: np.ndarray, degrees: float, rng: np.random.Generator) -> np.ndarray:
    d = flat.shape[1]
    theta = np.deg2rad(degrees)
    perm = rng.permutation(d)
    i, j = perm[0:d - d % 2:2], perm[1:d - d % 2:2]   # disjoint planes (i[k], j[k])
    out = flat.copy()
    cos, sin = np.cos(theta), np.sin(theta)
    xi, xj = flat[:, i], flat[:, j]
    out[:, i] = cos * xi - sin * xj
    out[:, j] = sin * xi + cos * xj
    return out


def _box_blur(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros_like(x)
    for i in range(3):
        for j in range(3):
            out += xp[:, :, i:i + h, j:j + w]
    return out / 9.0


def make_stream(features: np.ndarray, labels: np.ndarray, spec: StreamSpec,
                seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (features, hidden-true-labels) batches in the configured order.

    The seed draws the shuffled orders; a run derives it from its own seed.
    Labels are carried only for post-hoc accuracy; a final batch smaller
    than 2 is dropped (batch statistics would be undefined).
    """
    n = len(labels)
    if n == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)
    if spec.order == "iid_shuffled":
        order = rng.permutation(n)
    elif spec.order == "label_sorted":
        order = np.argsort(labels, kind="stable")
    else:  # mixed_blocks: label-sorted blocks emitted in shuffled order
        sorted_idx = np.argsort(labels, kind="stable")
        blocks = [sorted_idx[i:i + spec.batch_size]
                  for i in range(0, n, spec.batch_size)]
        rng.shuffle(blocks)
        order = np.concatenate(blocks)
    total = spec.total_samples if spec.total_samples > 0 else n
    order = order[:total]
    for start in range(0, len(order), spec.batch_size):
        idx = order[start:start + spec.batch_size]
        if len(idx) < 2:
            break
        yield features[idx], labels[idx]

