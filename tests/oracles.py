"""Composed-graph loss terms of the co-learning objective, as test oracles.

The adaptation step computes these terms in one fused tape node
(``adaptation._combined_loss``); tests check it against these compositions
of ``entropy_rows`` and ``cross_entropy_mean``.
"""

import numpy as np

from coca_tta import autodiff as ad
from coca_tta.adaptation import entropy_rows
from coca_tta.autodiff import Tensor
from coca_tta.models import cross_entropy_mean


def marginal_entropy(p_e) -> Tensor:
    """Batch-mean entropy of the softmaxed ensemble logits."""
    return ad.tensor_mean(entropy_rows(p_e))


def self_adapt_loss(p_a, p_s) -> Tensor:
    """Sum of each model's mean prediction entropy."""
    return ad.add(ad.tensor_mean(entropy_rows(p_a)), ad.tensor_mean(entropy_rows(p_s)))


def ckd_loss(p_a, p_s, y_hat: np.ndarray) -> Tensor:
    """Cross-entropy of both models against the ensemble pseudo-labels."""
    a = p_a if isinstance(p_a, Tensor) else Tensor(p_a)
    s = p_s if isinstance(p_s, Tensor) else Tensor(p_s)
    return ad.add(cross_entropy_mean(a, y_hat), cross_entropy_mean(s, y_hat))


def conv3x3_full_batch(xn: np.ndarray, wmat: np.ndarray):
    """Channel-last 3x3 same convolution as one im2col copy of the whole batch
    and one matmul, as ``autodiff._conv3x3`` computed it before it built its
    columns in batch chunks.

    xn: (B, H, W, C), any strides; wmat: (Cout, 9*C) with columns ordered
    (kh, kw, C). Returns the (B, H, W, Cout) output and the (B, H, W, 9*C)
    columns.
    """
    b, h, wd, c = xn.shape
    xp = np.zeros((b, h + 2, wd + 2, c))
    xp[:, 1:-1, 1:-1] = xn
    sb, sh, sw, sc = xp.strides
    rows = np.lib.stride_tricks.as_strided(xp, (b, h, wd, 3, 3 * c), (sb, sh, sw, sh, sc))
    cols = rows.reshape(b, h, wd, 9 * c)
    out = cols.reshape(-1, 9 * c) @ wmat.T
    return out.reshape(b, h, wd, -1), cols


def conv2d_full_batch(x: np.ndarray, w: np.ndarray, b, g: np.ndarray):
    """``conv2d``'s output and its input, weight and bias gradients for the
    upstream gradient g, from :func:`conv3x3_full_batch`. The bias gradient
    is None without a bias."""
    cout, cin = w.shape[:2]
    out, cols = conv3x3_full_batch(x.transpose(0, 2, 3, 1),
                                   w.transpose(0, 2, 3, 1).reshape(cout, -1))
    nchw = out.transpose(0, 3, 1, 2)
    out = (np.ascontiguousarray(nchw) if b is None else
           np.add(nchw, b.reshape(1, -1, 1, 1), out=np.empty(nchw.shape)))
    gn = g.transpose(0, 2, 3, 1)
    wflip = w[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(cin, -1)
    gx = np.ascontiguousarray(conv3x3_full_batch(gn, wflip)[0].transpose(0, 3, 1, 2))
    gw = np.tensordot(gn, cols, axes=([0, 1, 2], [0, 1, 2]))
    gw = gw.reshape(cout, 3, 3, cin).transpose(0, 3, 1, 2)
    return out, gx, gw, None if b is None else g.sum(axis=(0, 2, 3))
