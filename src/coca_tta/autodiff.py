"""Minimal reverse-mode autodiff over dense float64 tensors.

Operations are recorded on an explicit :class:`Tape`; calling
:func:`backward` on a scalar loss walks the tape in reverse and
accumulates gradients into every ``requires_grad`` leaf. Gradients are
summed across uses and cleared only by :meth:`SGD.step` or
:func:`zero_grads`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "SGD",
    "ShapeError",
    "backward",
    "zero_grads",
    "add",
    "sub",
    "mul",
    "scalar_div",
    "matmul",
    "linear",
    "conv2d",
    "relu",
    "reshape",
    "tensor_sum",
    "tensor_mean",
    "softmax",
    "logsumexp",
    "batchnorm",
    "layernorm",
]

_EPS_NORM = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an operation."""


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Keep the first gradient by reference; sum later ones into a new array.

        Nothing writes into a ``.grad`` or into the upstream gradient a backward
        function is given, so the array it returned is kept as it is. A gradient
        must have the tensor's shape: none is broadcast.
        """
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.data.shape:
            raise ShapeError(f"accumulate_grad: gradient shape {g.shape} does not match "
                             f"tensor shape {self.data.shape}")
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations; usable as a context manager."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("tape stack corrupted: exiting a tape that is not active")
        _TAPE_STACK.pop()
        return False

    def record(self, inputs, output, backward_fn) -> None:
        self._nodes.append(_Node(inputs, output, backward_fn))

    def __len__(self):
        return len(self._nodes)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op_name: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn: Callable) -> Tensor:
    tape = active_tape()
    needs_grad = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs_grad)
    if needs_grad:
        tape.record(tuple(inputs), out, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the active tape.

    The tape is consumed: a second call without re-recording is a no-op.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")
    nodes, tape._nodes = tape._nodes, []
    if not nodes:
        return
    loss.grad = np.array(1.0)
    while nodes:
        # popping frees each node's saved arrays as soon as it has run
        node = nodes.pop()
        out_grad = node.output.grad
        if out_grad is None:
            continue
        in_grads = node.backward_fn(out_grad)
        for t, g in zip(node.inputs, in_grads):
            if g is not None and t.requires_grad:
                t.accumulate_grad(g)
        # intermediate grads are tape-local; free them
        if node.output is not loss:
            node.output.grad = None


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("add", a, b)
    out = a.data + b.data

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record("add", (a, b), out, bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("sub", a, b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), out, bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("mul", a, b)
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), out, bwd)


def scalar_div(a, s: float) -> Tensor:
    """Divide a tensor by a python scalar (no gradient w.r.t. the scalar)."""
    a = _as_tensor(a)
    s = float(s)
    out = a.data / s

    def bwd(g):
        return (g / s,)

    return _record("scalar_div", (a,), out, bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _record("matmul", (a, b), out, bwd)


def linear(x, w, b) -> Tensor:
    """Affine layer ``x @ w + b`` as one node.

    Forward and backward do the numpy operations of ``add(matmul(x, w), b)``,
    so results are bit-identical to that composition. Gradients of inputs
    that do not require one are not computed.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} does not match {w.shape[1]} outputs")
    out = x.data @ w.data + b.data

    def bwd(g):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record("linear", (x, w, b), out, bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    # fmax maps NaN to 0 like the mask does; adding +0.0 turns the -0.0 that
    # fmax may keep into +0.0, so the output equals np.where(mask, a, 0.0)
    out = np.fmax(a.data, 0.0)
    out += 0.0

    def bwd(g):
        return (g * mask,)

    return _record("relu", (a,), out, bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _record("reshape", (a,), out, bwd)


def tensor_sum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _record("sum", (a,), out, bwd)


def tensor_mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = a.data.mean(axis=axis)
    n = a.data.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.shape).copy(),)

    return _record("mean", (a,), out, bwd)


def _softmax_lse(z: np.ndarray):
    """Softmax and logsumexp over the last axis from one max-shifted pass.

    Returns q with the shape of z and lse with the last axis dropped.
    """
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, (m + np.log(s))[..., 0]


def softmax(a) -> Tensor:
    """Softmax over the last axis, stabilised by per-row max subtraction."""
    a = _as_tensor(a)
    q = _softmax_lse(a.data)[0]

    def bwd(g):
        dot = (g * q).sum(axis=-1, keepdims=True)
        return (q * (g - dot),)

    return _record("softmax", (a,), q, bwd)


def logsumexp(a) -> Tensor:
    """Log-sum-exp over the last axis, stabilised by per-row max subtraction."""
    a = _as_tensor(a)
    q, out = _softmax_lse(a.data)

    def bwd(g):
        return (g[..., None] * q,)

    return _record("logsumexp", (a,), out, bwd)


def conv2d(x, w, b=None) -> Tensor:
    """3x3 convolution, stride 1, zero padding preserving spatial size.

    x: (B, Cin, H, W); w: (Cout, Cin, 3, 3); b: optional (Cout,) bias. Runs
    channel-last in :func:`_conv3x3`; the input gradient is the same kernel
    applied to the output gradient with the spatially flipped, channel-swapped
    kernel. Gradients of inputs that do not require one are not computed.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input and kernel, got {x.shape} and {w.shape}")
    if w.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d: only 3x3 kernels supported, got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch between input {x.shape} and kernel {w.shape}")
    cout, cin = w.shape[:2]
    b = None if b is None else _as_tensor(b)
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match {cout} outputs")
    out, cols = _conv3x3(x.data.transpose(0, 2, 3, 1),
                         w.data.transpose(0, 2, 3, 1).reshape(cout, -1),
                         None if b is None else b.data, keep_cols=w.requires_grad)

    def bwd(g):
        gn = g.transpose(0, 2, 3, 1)                          # (B, H, W, Cout)
        gx = gw = None
        if x.requires_grad:
            wflip = w.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(cin, -1)
            gx = _conv3x3(gn, wflip)[0]
        if w.requires_grad:
            gw = np.tensordot(gn, cols, axes=([0, 1, 2], [0, 1, 2]))   # (Cout, 9*Cin)
            gw = gw.reshape(cout, 3, 3, cin).transpose(0, 3, 1, 2)
        gb = g.sum(axis=(0, 2, 3)) if b is not None and b.requires_grad else None
        return gx, gw, gb

    return _record("conv2d", (x, w) if b is None else (x, w, b), out, bwd)


# Bytes of im2col columns built at a time when the caller does not keep them.
# Larger chunks hold more heap; much smaller ones make GEMMs small enough for
# a BLAS to round differently (see _conv3x3).
_CHUNK_BYTES = 1 << 20


def _conv3x3(xn: np.ndarray, wmat: np.ndarray, bias: Optional[np.ndarray] = None,
             keep_cols: bool = False):
    """Channel-last 3x3 same convolution by im2col and matmul, in batch chunks.

    xn: (B, H, W, C), any strides; wmat: (Cout, 9*C) with columns ordered
    (kh, kw, C); bias: optional (Cout,). Returns the C-contiguous
    (B, Cout, H, W) output, the bias added as each chunk is copied into it,
    and the (B, H, W, 9*C) columns if ``keep_cols``, else None.

    Kept columns span the whole batch: the weight gradient sums over all of
    their rows at once. Otherwise the batch is cut into the fewest chunks
    whose columns fit in ``_CHUNK_BYTES``, and one padded buffer and one
    column buffer are reused across them. Each output value comes from one
    GEMM row either way, but a BLAS may round a small GEMM differently from
    a large one (OpenBLAS 0.3.31 does below about 1200 outputs), so chunk
    sizes differ by at most one sample: no chunk is a small remainder.
    Each window row, 3 pixels of C channels, is copied as one run.
    """
    b, h, wd, c = xn.shape
    cout = wmat.shape[0]
    nchunks = 1 if keep_cols else max(1, -(-b * h * wd * 9 * c * 8 // _CHUNK_BYTES))
    step = max(1, -(-b // nchunks))
    # the output outlives the buffers: allocated first, it does not sit above
    # them in the heap and pin their space once they are freed
    out = np.empty((b, cout, h, wd))
    xp = np.zeros((step, h + 2, wd + 2, c))
    sb, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(xp, (step, h, wd, 3, 3 * c),
                                              (sb, sh, sw, sh, sc))
    cols = np.empty(windows.shape)
    prod = np.empty((step * h * wd, cout))
    bounds = [b * j // nchunks for j in range(nchunks + 1)]
    for i, end in zip(bounds, bounds[1:]):
        n = end - i
        xp[:n, 1:-1, 1:-1] = xn[i:end]
        np.copyto(cols[:n], windows[:n])
        res = np.matmul(cols[:n].reshape(-1, 9 * c), wmat.T, out=prod[:n * h * wd])
        nchw = res.reshape(n, h, wd, cout).transpose(0, 3, 1, 2)
        if bias is None:
            out[i:end] = nchw
        else:
            np.add(nchw, bias.reshape(1, -1, 1, 1), out=out[i:end])
    return out, cols[:b].reshape(b, h, wd, 9 * c) if keep_cols else None


def batchnorm(x, scale, shift) -> Tensor:
    """Batch normalization over current-batch statistics with trainable affine.

    Features are axis 1; statistics are taken over all other axes. No
    running statistics are kept. Statistics and affine share the feature
    axis, so with S a sum over the normalized axes, ``xc = x - S(x) / n``
    and ``inv = 1 / sqrt(S(xc * xc) / n + eps)``, the affine folds into one
    factor per feature, ``a = scale * inv``: ``out = xc * a + shift``. The
    backward (Ioffe & Szegedy, 2015) takes ``gb = S(g)``, ``gs = inv * S(g * xc)``
    and ``gx = a * g - (a * inv * gs / n) * xc - a * gb / n``, which holds
    because S(g * scale) = scale * gb and S(g * scale * xhat) = scale * gs.
    """
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    if x.data.ndim not in (2, 4):
        raise ShapeError(f"batchnorm: expected 2-D or 4-D input, got {x.shape}")
    if x.shape[0] < 2:
        raise ShapeError(f"batchnorm: batch size must be >= 2, got {x.shape[0]}")
    n = math.prod(x.shape[:1] + x.shape[2:])
    _check_norm("batchnorm", x, scale, shift, x.shape[1], n)
    axes = (0,) if x.data.ndim == 2 else (0, 2, 3)
    ash = (1, -1) + (1,) * (x.data.ndim - 2)
    dims = "abcd"[:x.data.ndim]
    total, dot = f"{dims}->b", f"{dims},{dims}->b"   # S(.) and S(. * .), per feature
    # add.reduce / n is what ndarray.mean computes
    xc = x.data - np.add.reduce(x.data, axis=axes, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.einsum(dot, xc, xc) / n + _EPS_NORM)
    a = scale.data.reshape(-1) * inv
    out = xc * a.reshape(ash)
    out += shift.data.reshape(ash)

    def bwd(g):
        gb = np.einsum(total, g) if shift.requires_grad or x.requires_grad else None
        gs = inv * np.einsum(dot, g, xc) if scale.requires_grad or x.requires_grad else None
        gx = None
        if x.requires_grad:
            gx = g * a.reshape(ash)
            gx -= xc * (a * inv * gs / n).reshape(ash)
            gx -= (a * gb / n).reshape(ash)
        return (gx, None if gs is None else gs.reshape(scale.shape),
                None if gb is None else gb.reshape(shift.shape))

    return _record("batchnorm", (x, scale, shift), out, bwd)


def layernorm(x, scale, shift) -> Tensor:
    """Per-sample normalization over the last axis with trainable affine.

    It centers its input once (``xc = x - mean``, ``var = mean(xc * xc)``,
    ``xhat = xc * inv``), the operations ``np.var`` performs, so the output
    is byte-equal to the ``mean``/``var`` formula; the temporaries are
    reused with ``out=``.
    """
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    if x.data.ndim < 1:
        raise ShapeError("layernorm: input must have at least one axis")
    n = x.shape[-1]
    _check_norm("layernorm", x, scale, shift, n, n)
    others = tuple(range(x.data.ndim - 1))
    sc = scale.data.reshape(-1)
    # add.reduce / n is what ndarray.mean and np.var compute
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    sq = xc * xc
    inv = 1.0 / np.sqrt(np.add.reduce(sq, axis=-1, keepdims=True) / n + _EPS_NORM)
    xhat = np.multiply(xc, inv, out=sq)
    out = np.multiply(xhat, sc, out=xc)
    out += shift.data.reshape(-1)

    def bwd(g):
        t = g * xhat
        gs = t.sum(axis=others).reshape(scale.shape) if scale.requires_grad else None
        gb = g.sum(axis=others).reshape(shift.shape) if shift.requires_grad else None
        gx = None
        if x.requires_grad:
            # (inv / n) * (n * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat))
            gx = g * sc
            s2 = np.multiply(gx, xhat, out=t).sum(axis=-1, keepdims=True)
            s1 = gx.sum(axis=-1, keepdims=True)
            gx *= n
            gx -= s1
            gx -= np.multiply(xhat, s2, out=t)
            gx *= inv / n
        return gx, gs, gb

    return _record("layernorm", (x, scale, shift), out, bwd)


def _check_norm(op: str, x: Tensor, scale: Tensor, shift: Tensor, nfeat: int, n: int) -> None:
    """An affine of nfeat features, and n > 0 elements per statistic (0 / 0 otherwise)."""
    if scale.data.size != nfeat or shift.data.size != nfeat:
        raise ShapeError(
            f"{op}: affine shapes {scale.shape}/{shift.shape} do not match {nfeat} features")
    if n == 0:
        raise ShapeError(f"{op}: input {x.shape} has no elements to normalize over")


class SGD:
    """SGD with momentum; velocity buffers persist across steps."""

    def __init__(self, params: Sequence[Tensor], lr: float, momentum: float = 0.0):
        if lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise ValueError("sgd step requires a populated grad on every parameter")
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v
            p.grad = None
