"""Cross-model co-learning for test-time adaptation.

Implements the online learnable temperature, max-preserving logit
ensembling, the combined marginal-entropy / cross-model-distillation /
self-adaptation objective, optional entropy filtering, and one adaptation
step for one or more models: a cascade of pairings, where one model alone
is the entropy-minimization (Tent) baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import SGD, Tape, Tensor
from .models import ModelHandle, forward_logits
from .record import Record


TAU_STEPS = 5          # line-search iterations on tau per batch
TAU_MIN, TAU_MAX = 1e-2, 1e3
LOGIT_CLAMP = 20.0     # the discrepancy clips logits to [-LOGIT_CLAMP, LOGIT_CLAMP]


def _check_tau(tau: float) -> None:
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau}")


def _clamp_tau(tau: float) -> float:
    if math.isnan(tau):
        raise ValueError("tau candidate is NaN")
    return float(min(max(tau, TAU_MIN), TAU_MAX))


@dataclass
class LossMasks(Record):
    sa: bool = True
    mar: bool = True
    ckd: bool = True


@dataclass
class EnsembleOutput:
    p_a: np.ndarray        # anchor logits (B, C)
    tau: float
    T: np.ndarray          # per-sample balance factor (B,)
    p_e: np.ndarray        # (p_a + p_s / tau) * (1 / T)
    y_hat: np.ndarray      # per-sample argmax of p_e
    aux_dropped: bool = False  # collapse guard fired; p_e falls back to p_a


@dataclass
class LossBreakdown:
    l_mar: float
    l_ckd: float
    l_sa: float
    l_total: float
    kept_frac: float = 1.0


def _tau_grad(p_s: np.ndarray, scaled: Optional[np.ndarray], es: np.ndarray,
              d: np.ndarray, tau: float) -> float:
    """d/dtau of the batch-mean discrepancy with clip treated as a hard gate.

    es = exp(clip(p_s / tau)) and d = ea - es are those of the current tau;
    scaled = p_s / tau, or None when no |scaled| reaches the clamp. Clipped
    entries add exact zeros and their product is never formed, so a logit
    whose es * p_s would overflow adds nothing and raises no warning.
    """
    terms = np.sign(d) * es   # |es| <= exp(LOGIT_CLAMP)
    if scaled is None:
        np.multiply(terms, p_s, out=terms)
    else:
        terms = np.multiply(terms, p_s, out=np.zeros_like(terms),
                            where=np.abs(scaled) < LOGIT_CLAMP)
    return float(terms.sum() / (tau * tau * d.shape[0]))


def learn_tau(tau: float, p_a: np.ndarray, p_s: np.ndarray, steps: int = TAU_STEPS) -> float:
    """Run ``steps`` descent steps on tau against detached model outputs.

    The discrepancy gradient sets the move direction; the trial move is a
    trust-region step of the current tau (half of it downward), halved
    until the discrepancy decreases. Exponential-space gradients span many
    orders of magnitude, so a fixed-length gradient step either stalls or
    overshoots; the relative trust region keeps every step productive.
    Returns the new tau, clamped to [TAU_MIN, TAU_MAX].
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_tau(tau)
    p_a = np.asarray(p_a, dtype=np.float64)
    p_s = np.asarray(p_s, dtype=np.float64)
    if p_a.shape != p_s.shape:
        raise ad.ShapeError(f"learn_tau: shapes {p_a.shape} and {p_s.shape} differ")
    clamp = LOGIT_CLAMP
    ea = np.exp(np.clip(p_a, -clamp, clamp))
    # division is monotone, so amax / tau < clamp puts every |p_s / tau| inside
    # the clamp and the clip is the identity; a NaN or infinite amax fails it
    amax = float(np.abs(p_s).max(initial=0.0))

    def evaluate(tau: float):
        """The scaled logits (None when the clip is the identity), their
        clipped exponential, ea minus it and the discrepancy at tau."""
        if amax / tau < clamp:
            scaled = p_s / tau
            es, scaled = np.exp(scaled, out=scaled), None
        else:
            # a +-1e308 logit over a tau below 1 is +-inf, which the clip maps to +-clamp
            with np.errstate(over="ignore"):
                scaled = p_s / tau
            es = np.maximum(scaled, -clamp)  # then minimum: np.clip, NaN included
            np.exp(np.minimum(es, clamp, out=es), out=es)
        d = ea - es
        return scaled, es, d, float(np.abs(d).sum() / p_a.shape[0])

    # the current tau's evaluation is carried across iterations: it changes
    # only when a candidate is accepted, and then it is that candidate's
    cur = evaluate(tau) if steps > 0 else None
    # An iteration depends only on tau, so once one accepts nothing every
    # later one would repeat it exactly, and the search ends.
    for _ in range(steps):
        scaled, es, d, cur_loss = cur
        g = _tau_grad(p_s, scaled, es, d, tau)
        # a zero or non-finite g has no direction; a NaN discrepancy (a NaN
        # logit) is NaN at every tau, so no candidate could beat it
        if g == 0.0 or not math.isfinite(g) or math.isnan(cur_loss):
            break
        direction = -np.sign(g)
        delta = tau if direction > 0 else 0.5 * tau
        before = tau
        while delta > 1e-12 * tau:
            cand = _clamp_tau(tau + direction * delta)
            # tau is the bound the step points past: its loss is cur_loss, and
            # every smaller step clamps to it too
            if cand == tau:
                break
            trial = evaluate(cand)
            if trial[3] < cur_loss:
                tau, cur = cand, trial
                break
            delta *= 0.5
        if tau == before:
            break
    return _clamp_tau(tau)


def ensemble(p_a: np.ndarray, p_s: np.ndarray, tau: float) -> EnsembleOutput:
    """Aggregate anchor and tau-scaled auxiliary logits, preserving the maximum.

    The sum is scaled by 1 / T, with the per-sample balance factor
    T = max p_e' / max p_a, so the maximum logit matches the anchor's;
    samples where either maximum is <= 0 fall back to T = 1. The filter, the
    objective and the next pairing read this p_e.
    """
    _check_tau(tau)
    p_a = np.asarray(p_a, dtype=np.float64)
    p_s = np.asarray(p_s, dtype=np.float64)
    if p_a.shape != p_s.shape:
        raise ad.ShapeError(f"ensemble: shapes {p_a.shape} and {p_s.shape} differ")
    pe_prime = p_a + p_s / tau
    max_a = p_a.max(axis=1)
    max_e = pe_prime.max(axis=1)
    T = np.where((max_a > 0) & (max_e > 0), max_e / np.where(max_a > 0, max_a, 1.0), 1.0)
    p_e = pe_prime * (1.0 / T[:, None])
    y_hat = p_e.argmax(axis=1)
    return EnsembleOutput(p_a=p_a, tau=float(tau), T=T, p_e=p_e, y_hat=y_hat)


def agreement_rate(p_a: np.ndarray, p_s: np.ndarray) -> float:
    """Fraction of samples on which the two models' argmax predictions agree."""
    return float((np.asarray(p_a).argmax(axis=1) == np.asarray(p_s).argmax(axis=1)).mean())


def drop_auxiliary(ens: EnsembleOutput) -> EnsembleOutput:
    """Replace the ensemble with the anchor alone, keeping tau intact.

    Used when the auxiliary's predictions have diverged so far from the
    anchor's (e.g. batch-statistic collapse under a label-sorted stream)
    that its logits carry no usable signal: predictions and the
    collaborative losses fall back to the anchor, while the pseudo-labels
    keep pulling the auxiliary back toward agreement.
    """
    ones = np.ones(ens.p_a.shape[0])
    return EnsembleOutput(p_a=ens.p_a, tau=ens.tau, T=ones, p_e=ens.p_a,
                          y_hat=ens.p_a.argmax(axis=1), aux_dropped=True)


def entropy_rows(logits) -> Tensor:
    """Per-sample Shannon entropy of softmax(logits), differentiable."""
    t = logits if isinstance(logits, Tensor) else Tensor(logits)
    lse = ad.logsumexp(t)
    q = ad.softmax(t)
    qp = ad.tensor_sum(ad.mul(q, t), axis=-1)
    return ad.sub(lse, qp)


def _softmax_stats(z: np.ndarray):
    """Per-row softmax q, logsumexp and sum(q * z) of logits z.

    Uses the softmax pass of ad.softmax and ad.logsumexp and the operations
    of entropy_rows, so the entropy lse - qz is bit-identical to
    entropy_rows(z).
    """
    q, lse = ad._softmax_lse(z)
    return q, lse, (q * z).sum(axis=-1)


def _ensemble_tensor(anchor_t: Tensor, aux_t: Tensor, ens: EnsembleOutput) -> Tensor:
    """ens.p_e, formed from these tensors, as one tape node: the pairing's ensemble.

    The balance factor T is a constant for model gradients.
    """
    scale = 1.0 / ens.T[:, None]

    def bwd(g):
        ga = g * scale
        return ga, ga / ens.tau

    return ad._record("ensemble_logits", (anchor_t, aux_t), ens.p_e, bwd)


def _combined_loss(p_a_t: Tensor, p_s_t: Tensor, p_e_t: Tensor, y_hat: np.ndarray,
                   keep: np.ndarray, lam_col: float, masks: LossMasks
                   ) -> tuple[Tensor, LossBreakdown]:
    """Masked-mean COCA objective over kept samples, as one tape node.

    p_e_t is the pairing's ensemble node, or the anchor itself when the guard
    dropped the auxiliary; y_hat is the ensemble's prediction. Every term is a
    mean over the kept rows of a per-row entropy or cross-entropy, built from
    one softmax per input. The values are bit-identical to composing
    entropy_rows and cross-entropy rows on the tape; the backward is
    analytic: q * (sum(q * z) - z) for an entropy row and q - onehot(y_hat)
    for a cross-entropy row. L_mar's gradient goes to p_e_t, whose node
    carries it on to both models.
    """
    z_a, z_s, z_e = p_a_t.data, p_s_t.data, p_e_t.data
    q_a, lse_a, qz_a = _softmax_stats(z_a)
    q_s, lse_s, qz_s = _softmax_stats(z_s)
    q_e, lse_e, qz_e = _softmax_stats(z_e)
    h_a, h_s = lse_a - qz_a, lse_s - qz_s
    rows = np.arange(len(z_a))

    kept = int(keep.sum())
    keep_w = keep.astype(np.float64)

    def masked_mean(v):
        return (v * keep_w).sum() / kept

    l_mar = float(masked_mean(lse_e - qz_e))
    l_ckd = float(masked_mean((lse_a - z_a[rows, y_hat]) + (lse_s - z_s[rows, y_hat])))
    l_sa = float(masked_mean(h_a) + masked_mean(h_s))
    col = (l_mar if masks.mar else 0.0) + (l_ckd if masks.ckd else 0.0)
    l_total = lam_col * col + (l_sa if masks.sa else 0.0)

    def bwd(g):
        d_a = np.zeros_like(z_a)
        d_s = np.zeros_like(z_s)
        if masks.ckd:
            for d, q in ((d_a, q_a), (d_s, q_s)):
                d += q
                d[rows, y_hat] -= 1.0
        d_a *= lam_col
        d_s *= lam_col
        if masks.sa:
            d_a += q_a * (qz_a[:, None] - z_a)
            d_s += q_s * (qz_s[:, None] - z_s)
        w = (g / kept) * keep_w[:, None]
        d_e = q_e * (qz_e[:, None] - z_e) * (lam_col * w) if masks.mar else None
        return d_a * w, d_s * w, d_e

    total = ad._record("coca_objective", (p_a_t, p_s_t, p_e_t), np.asarray(l_total), bwd)
    breakdown = LossBreakdown(
        l_mar=l_mar, l_ckd=l_ckd, l_sa=l_sa, l_total=l_total, kept_frac=float(keep.mean()))
    return total, breakdown


def coca_step(anchor: ModelHandle, auxiliary: ModelHandle, tau: float,
              batch: np.ndarray, optimizers: Sequence[SGD],
              filter_factor: Optional[float] = None, lam_col: float = 1.0,
              masks: Optional[LossMasks] = None,
              collapse_threshold: float = 0.0, tau_steps: int = TAU_STEPS
              ) -> tuple[EnsembleOutput, LossBreakdown]:
    """Two-model co-adaptation: multi_model_step with a single pairing."""
    out = multi_model_step([anchor, auxiliary], [tau], batch, optimizers,
                           filter_factor=filter_factor, lam_col=lam_col, masks=masks,
                           collapse_threshold=collapse_threshold, tau_steps=tau_steps)
    return out.ensemble, out.breakdown


def _step_if_finite(loss: float, batch: np.ndarray, models: Sequence[ModelHandle],
                    optimizers: Sequence[SGD]) -> bool:
    """Step every optimizer, unless the loss plus one sum over the batch and every
    optimized gradient is non-finite: then clear every gradient and return False,
    since a NaN update would stay in the norm parameters and SGD velocities.
    """
    grads = [p.grad for opt in optimizers for p in opt.params if p.grad is not None]
    if not math.isfinite(loss + np.concatenate([batch, *grads], axis=None).sum()):
        ad.zero_grads([p for m in models for p in m.all_params()])
        return False
    for opt in optimizers:
        opt.step()
    return True


@dataclass
class CascadeOutput:
    per_model_preds: list[np.ndarray]  # aligned with the descending model order
    ensemble: Optional[EnsembleOutput]  # topmost pairing; None for one model
    taus: list[float]                  # per-pairing tau, innermost first
    breakdown: LossBreakdown           # summed over pairing levels
    skipped: bool = False              # non-finite batch, loss or gradient: no update

    @property
    def y_hat(self) -> np.ndarray:
        """Topmost combined prediction; one model's own predictions."""
        return self.per_model_preds[0] if self.ensemble is None else self.ensemble.y_hat


def multi_model_step(models_desc: Sequence[ModelHandle],
                     taus: Sequence[float], batch: np.ndarray,
                     optimizers: Sequence[SGD],
                     filter_factor: Optional[float] = None,
                     lam_col: float = 1.0,
                     masks: Optional[LossMasks] = None,
                     collapse_threshold: float = 0.0,
                     tau_steps: int = TAU_STEPS) -> CascadeOutput:
    """One online adaptation step for >= 1 models ranked descending by size.

    One model has no pairing: its loss is Tent's, the mean entropy of its own
    predictions over the kept rows, and lam_col and masks do not apply. The
    two smallest models form the innermost pair; each pairing's
    ensemble serves as the auxiliary against the next-larger model with
    its own temperature, so two models are a single pairing. All models
    update from the sum of the pairing losses. Reported predictions come
    from the forward pass before the update; the updated parameters first
    affect the next batch. When collapse_threshold > 0 and a pairing's
    anchor and auxiliary agree on fewer than that fraction of the batch,
    the auxiliary is treated as collapsed and that pairing's ensemble
    falls back to its anchor for the batch.

    taus holds one tau per pairing, innermost first; the learned ones are
    returned in CascadeOutput.taus. A step that _step_if_finite skips
    returns the taus it was given and sets skipped; its predictions and
    losses are reported.
    """
    k = len(models_desc)
    if k < 1:
        raise ValueError("multi_model_step requires >= 1 model, got 0")
    if len(taus) != k - 1:
        raise ValueError(f"expected {k - 1} taus, got {len(taus)}")
    if len(optimizers) != k:
        raise ValueError(f"expected {k} optimizers, one per model, got {len(optimizers)}")
    if len(batch) == 0:
        raise ValueError("multi_model_step requires a batch of >= 1 row, got 0")
    masks = masks or LossMasks()

    with Tape():
        logits = [forward_logits(m, Tensor(batch)) for m in models_desc]

        # build pairings bottom-up: innermost is (M_{k-1} anchor, M_k auxiliary)
        aux_t = logits[-1]
        levels = []  # (anchor_t, aux_t, ensemble tensor, EnsembleOutput)
        for tau, anchor_t in zip(taus, logits[-2::-1]):
            tau = learn_tau(tau, anchor_t.data, aux_t.data, tau_steps)
            ens = ensemble(anchor_t.data, aux_t.data, tau)
            if collapse_threshold > 0 and agreement_rate(
                    anchor_t.data, aux_t.data) < collapse_threshold:
                ens = drop_auxiliary(ens)
            p_e_t = anchor_t if ens.aux_dropped else _ensemble_tensor(anchor_t, aux_t, ens)
            levels.append((anchor_t, aux_t, p_e_t, ens))
            aux_t = p_e_t

        top = levels[-1][-1] if levels else None
        learned = [ens.tau for *_, ens in levels]
        if filter_factor is not None:  # EATA-style: keep rows below factor * ln C
            z = logits[0].data if top is None else top.p_e
            _, lse, qz = _softmax_stats(z)
            keep = lse - qz < filter_factor * np.log(z.shape[1])
        else:
            keep = np.ones(len(batch), dtype=bool)

        preds = [lg.data.argmax(axis=1) for lg in logits]
        if not keep.any():
            return CascadeOutput(preds, top, learned,
                                 LossBreakdown(0.0, 0.0, 0.0, 0.0, kept_frac=0.0))

        total = None
        agg = LossBreakdown(0.0, 0.0, 0.0, 0.0, kept_frac=float(keep.mean()))
        if not levels:  # Tent: the kept rows' mean entropy, as L_sa
            rows = ad.mul(entropy_rows(logits[0]), Tensor(keep.astype(np.float64)))
            total = ad.scalar_div(ad.tensor_sum(rows), int(keep.sum()))
            agg.l_sa = agg.l_total = float(total.data)
        for anchor_t, pair_aux_t, p_e_t, ens in levels:
            lvl_total, lvl = _combined_loss(anchor_t, pair_aux_t, p_e_t, ens.y_hat,
                                            keep, lam_col, masks)
            total = lvl_total if total is None else ad.add(total, lvl_total)
            agg.l_mar += lvl.l_mar
            agg.l_ckd += lvl.l_ckd
            agg.l_sa += lvl.l_sa
            agg.l_total += lvl.l_total
        ad.backward(total)
    if not _step_if_finite(agg.l_total, batch, models_desc, optimizers):
        return CascadeOutput(preds, top, list(taus), agg, skipped=True)
    return CascadeOutput(preds, top, learned, agg)
