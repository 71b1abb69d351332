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
