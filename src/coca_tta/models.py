"""Small model zoo: MLPs and a tiny ConvNet with trainable normalization.

Models expose their normalization affine parameters by name so that
adaptation can update only those tensors. Checkpoints round-trip
bit-exactly through a little-endian binary format.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import SGD, Tape, Tensor
from .record import Record

CHECKPOINT_MAGIC = b"COCK"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or incompatible."""


@dataclass
class ModelSpec(Record):
    kind: str                       # "mlp" | "convnet"
    input_shape: tuple[int, ...]    # (dims,) for mlp, (C, H, W) for convnet
    hidden_sizes: list[int]         # mlp widths, or convnet channel counts (2 entries)
    norm_kind: str                  # "batchnorm" | "layernorm"
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        self.hidden_sizes = [int(h) for h in self.hidden_sizes]
        if self.kind not in ("mlp", "convnet"):
            raise ValueError(f"unsupported model kind: {self.kind!r}")
        if self.norm_kind not in ("batchnorm", "layernorm"):
            raise ValueError(f"unsupported norm kind: {self.norm_kind!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if min(self.input_shape + tuple(self.hidden_sizes), default=1) < 1:
            raise ValueError("input_shape and hidden_sizes must be positive")
        if self.kind == "mlp":
            if len(self.input_shape) != 1:
                raise ValueError("mlp input_shape must be 1-D")
            if not self.hidden_sizes:
                raise ValueError("mlp requires non-empty hidden_sizes")
        else:
            if len(self.input_shape) != 3:
                raise ValueError("convnet input_shape must be (channels, height, width)")
            if len(self.hidden_sizes) != 2:
                raise ValueError("convnet is fixed to 2 conv blocks: hidden_sizes must have 2 entries")
            if self.norm_kind != "batchnorm":
                raise ValueError("convnet supports batchnorm only")


@dataclass
class ModelHandle:
    spec: ModelSpec
    params: dict[str, Tensor]

    @property
    def norm_param_names(self) -> list[str]:
        """Names of the normalization affines, the tensors adaptation updates."""
        return [n for n in self.params if n.rsplit(".", 1)[1].startswith("norm_")]

    @property
    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def norm_params(self) -> list[Tensor]:
        return [self.params[n] for n in self.norm_param_names]

    def all_params(self) -> list[Tensor]:
        return list(self.params.values())

    def set_trainable(self, norm_only: bool) -> None:
        """Restrict gradient tracking to norm affines (adaptation mode) or all params."""
        norm = set(self.norm_param_names)
        for name, p in self.params.items():
            p.requires_grad = (name in norm) if norm_only else True
            p.grad = None

    def clone(self) -> "ModelHandle":
        params = {n: Tensor(p.data.copy(), requires_grad=p.requires_grad)
                  for n, p in self.params.items()}
        return ModelHandle(self.spec, params)


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of ``spec``, in declaration order.

    Allocates nothing, so a checkpoint reader can size a spec before building it.
    """
    conv = spec.kind == "convnet"
    sizes = [spec.input_shape[0], *spec.hidden_sizes]
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (cin, width) in enumerate(zip(sizes, sizes[1:])):
        prefix = f"block{i}" if conv else f"layer{i}"
        shapes[f"{prefix}.weight"] = (width, cin, 3, 3) if conv else (cin, width)
        for part in ("bias", "norm_scale", "norm_shift"):
            shapes[f"{prefix}.{part}"] = (width,)
    head_in = sizes[-1] * math.prod(spec.input_shape[1:])
    shapes["head.weight"] = (head_in, spec.num_classes)
    shapes["head.bias"] = (spec.num_classes,)
    return shapes


def build_model(spec: ModelSpec, seed: int) -> ModelHandle:
    """Initialize a model deterministically from (spec, seed).

    He-uniform weights, zero biases, scale-1/shift-0 norm affines.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(spec).items():
        part = name.rsplit(".", 1)[1]
        if part == "weight":
            # fan-in: rows of a dense weight, Cin * 3 * 3 of a conv kernel
            fan_in = math.prod(shape[1:]) if len(shape) == 4 else shape[0]
            data = _he_uniform(rng, shape, fan_in)
        else:
            data = np.ones(shape) if part == "norm_scale" else np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return ModelHandle(spec, params)


def forward_logits(model: ModelHandle, batch: Tensor) -> Tensor:
    """Forward pass producing (B, C) logits on the active tape."""
    spec = model.spec
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    expected = spec.input_shape
    if x.shape[1:] != expected:
        raise ad.ShapeError(
            f"forward: batch shape {x.shape} does not match input shape {expected}")
    p = model.params

    if spec.kind == "mlp":
        for i in range(len(spec.hidden_sizes)):
            x = ad.linear(x, p[f"layer{i}.weight"], p[f"layer{i}.bias"])
            norm = ad.batchnorm if spec.norm_kind == "batchnorm" else ad.layernorm
            x = norm(x, p[f"layer{i}.norm_scale"], p[f"layer{i}.norm_shift"])
            x = ad.relu(x)
        return ad.linear(x, p["head.weight"], p["head.bias"])

    for i in range(len(spec.hidden_sizes)):
        x = ad.conv2d(x, p[f"block{i}.weight"], p[f"block{i}.bias"])
        x = ad.batchnorm(x, p[f"block{i}.norm_scale"], p[f"block{i}.norm_shift"])
        x = ad.relu(x)
    b = x.shape[0]
    x = ad.reshape(x, (b, -1))
    return ad.linear(x, p["head.weight"], p["head.bias"])


def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels, as one node.

    The forward is ad.logsumexp's softmax pass and picks each row's label
    logit; the backward is analytic, (g / n) * (softmax - onehot). Value
    and logits gradient are bit-identical to composing logsumexp, mul by a
    one-hot matrix, sum, sub and mean on the tape.
    """
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    z = logits.data
    rows = np.arange(n)
    q, lse = ad._softmax_lse(z)

    def bwd(g):
        gn = g / n
        d = gn * q
        d[rows, labels] -= gn
        return (d,)

    return ad._record("cross_entropy", (logits,), (lse - z[rows, labels]).mean(), bwd)


def pretrain(model: ModelHandle, features: np.ndarray, labels: np.ndarray,
             epochs: int, lr: float, seed: int, batch_size: int = 64) -> list[dict]:
    """Full-parameter supervised training with shuffled minibatches.

    Returns a per-epoch log of mean loss and training accuracy.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(labels)
    if n == 0:
        raise ValueError("empty dataset")
    if model.spec.norm_kind == "batchnorm" and min(batch_size, n) < 2:
        raise ValueError(f"no usable batch: a batchnorm model skips batches of one "
                         f"sample, and {n} sample(s) in batches of {batch_size} make "
                         f"only those")
    model.set_trainable(norm_only=False)
    opt = SGD(model.all_params(), lr=lr, momentum=0.9)
    rng = np.random.default_rng(seed)
    log = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses, correct, seen = [], 0, 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if model.spec.norm_kind == "batchnorm" and len(idx) < 2:
                continue
            xb, yb = features[idx], labels[idx]
            with Tape():
                logits = forward_logits(model, Tensor(xb))
                loss = cross_entropy_mean(logits, yb)
                ad.backward(loss)
            opt.step()
            losses.append(loss.item())
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            seen += len(idx)
        log.append({
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "accuracy": correct / seen,
        })
    return log


def anchor_select(models: Sequence[ModelHandle]) -> list[ModelHandle]:
    """Order models anchor-first: descending param count, ties by declaration order."""
    indexed = list(enumerate(models))
    indexed.sort(key=lambda im: (-im[1].param_count, im[0]))
    return [m for _, m in indexed]


# --- checkpoint IO -----------------------------------------------------------
# A checkpoint is the magic, the u32 version and the u32 size of the metadata
# JSON {"spec": ...}, then that JSON, then every parameter as little-endian
# float64 in param_shapes(spec) order: the spec fixes every name and shape.

_HEADER = struct.Struct("<4sII")


def save_checkpoint(model: ModelHandle, path: str) -> None:
    meta = json.dumps({"spec": model.spec.to_dict()}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(meta)))
        f.write(meta)
        for name in param_shapes(model.spec):
            f.write(np.ascontiguousarray(model.params[name].data, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> ModelHandle:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER.size)
        if head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic: {head[:4]!r}")
        if len(head) < _HEADER.size:
            raise CheckpointError("truncated checkpoint header")
        _, version, meta_size = _HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version: {version}")
        if meta_size > size - _HEADER.size:
            raise CheckpointError("truncated checkpoint metadata")
        try:
            spec = ModelSpec.from_dict(json.loads(f.read(meta_size).decode("utf-8"))["spec"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"bad checkpoint metadata: {exc}") from None
        # size the spec against the file before reading, so a forged spec allocates nothing
        shapes = param_shapes(spec)
        count = sum(math.prod(shape) for shape in shapes.values())
        left = size - _HEADER.size - meta_size
        if left != 8 * count:
            raise CheckpointError(f"checkpoint has {left} bytes of parameters; "
                                  f"its spec needs {8 * count}")
        flat = np.fromfile(f, dtype="<f8", count=count)
    params, start = {}, 0
    for name, shape in shapes.items():
        data = flat[start:start + math.prod(shape)].reshape(shape)
        start += data.size
        if not np.isfinite(data).all():
            raise CheckpointError(f"parameter {name!r} is not finite")
        params[name] = Tensor(data, requires_grad=True)
    return ModelHandle(spec, params)
