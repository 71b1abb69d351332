"""Temperature learning, ensembling, losses, and co-adaptation steps."""

import functools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coca_tta import adaptation as co
from coca_tta import autodiff as ad
from coca_tta.adaptation import (LossMasks, agreement_rate, coca_step,
                                 drop_auxiliary, ensemble, entropy_rows, learn_tau,
                                 multi_model_step)
from coca_tta.autodiff import SGD, Tape, Tensor
from coca_tta.models import ModelSpec, build_model, forward_logits, pretrain
from coca_tta.shiftgen import SourceTask, gen_source
from oracles import ckd_loss, marginal_entropy, self_adapt_loss


def softmax_np(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def entropy_np(z):
    p = softmax_np(z)
    return -(p * np.log(p)).sum(axis=-1)


@pytest.fixture
def clamp_calls(monkeypatch):
    """Every tau the line search clamps: each candidate it evaluates, then
    the final value, as seen by a recording wrapper around _clamp_tau."""
    seen, clamp = [], co._clamp_tau

    def recording_clamp(tau):
        seen.append(tau)
        return clamp(tau)

    monkeypatch.setattr(co, "_clamp_tau", recording_clamp)
    return seen


class TestLearnTau:
    def test_identical_logits_keep_tau_one(self):
        z = np.random.default_rng(1).standard_normal((64, 8)) * 3
        assert abs(learn_tau(1.0, z, z, steps=50) - 1.0) < 0.01

    def test_doubled_logits_drive_tau_to_two(self):
        p_a = np.tile([2.0, 0.0], (4, 1))
        p_s = np.tile([4.0, 0.0], (4, 1))
        assert abs(learn_tau(1.0, p_a, p_s, steps=50) - 2.0) < 0.02

    def test_matches_grid_oracle(self):
        # scaled auxiliary logits: the K-step solution should land near the
        # global grid minimizer of the discrepancy
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(25):
            p_a = rng.standard_normal((64, 8)) * 2
            k = rng.uniform(1.0, 4.0)
            p_s = p_a * k + rng.standard_normal((64, 8)) * 0.1
            taus = np.arange(0.1, 20.0, 1e-3)
            best = None
            for chunk in np.array_split(taus, 40):
                es = np.exp(np.clip(p_s[None] / chunk[:, None, None], -20, 20))
                d = np.abs(np.exp(np.clip(p_a, -20, 20))[None] - es).sum(axis=(1, 2)) / 64
                i = int(np.argmin(d))
                if best is None or d[i] < best[1]:
                    best = (chunk[i], d[i])
            tau = learn_tau(1.0, p_a, p_s, steps=5)
            if abs(tau - best[0]) / best[0] < 0.15:
                hits += 1
        assert hits >= 23

    def test_respects_bounds(self):
        # the best taus are 2 * TAU_MAX and TAU_MIN / 2: tau stops on the bound
        p_a = np.tile([2.0, 0.0], (4, 1))
        assert learn_tau(300.0, p_a, p_a * (2 * co.TAU_MAX), steps=50) == co.TAU_MAX
        assert learn_tau(1.0, p_a, p_a * (co.TAU_MIN / 2), steps=50) == co.TAU_MIN

    def test_zero_steps_is_identity(self):
        assert learn_tau(1.0, np.ones((4, 3)), 2 * np.ones((4, 3)), steps=0) == 1.0

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            learn_tau(1.0, np.ones((4, 3)), np.ones((4, 3)), steps=-1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError, match="learn_tau: shapes"):
            learn_tau(1.0, np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 2, 3)], ids=["empty", "1d", "3d"])
    def test_rejects_logits_that_are_not_a_batch(self, shape):
        # an empty batch divided 0 by 0; 1-D logits returned a tau
        with pytest.raises(ad.ShapeError, match=re.escape(
                f"learn_tau: expected 2-D logits with at least one row, got {shape}")):
            learn_tau(1.0, np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"),
                                     0.0, -0.0, -1.0])
    def test_state_rejects_non_finite_tau(self, tau):
        # a start outside [TAU_MIN, TAU_MAX] is allowed, but tau <= 0 would
        # divide by zero or flip the sign of the scaled logits
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            learn_tau(tau, np.ones((4, 3)), np.ones((4, 3)))

    def test_clamped_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            co._clamp_tau(float("nan"))

    @pytest.mark.parametrize("model", ["anchor", "auxiliary"])
    def test_nan_batch_skips_iterations_and_keeps_tau(self, model, clamp_calls):
        # a NaN logit makes the discrepancy NaN at every tau: each iteration
        # is skipped without trying a candidate, as for a zero gradient
        rng = np.random.default_rng(3)
        p_a, p_s = rng.standard_normal((2, 8, 4))
        (p_a if model == "anchor" else p_s)[5, 2] = np.nan
        assert learn_tau(1.7, p_a, p_s, steps=5) == 1.7
        assert clamp_calls == [1.7]   # the final clamp only

    def test_overflowing_logits_leave_tau_free_to_move(self):
        # es * p_s overflows for +-1e308; those entries are clipped and must
        # add nothing to the gradient, not an inf * 0 that freezes tau
        rng = np.random.default_rng(4)
        p_a = rng.standard_normal((16, 6))
        p_s = 2 * p_a
        p_s[3, 1], p_s[9, 4] = 1e308, -1e308
        with np.errstate(over="ignore", invalid="ignore"):
            tau = learn_tau(1.0, p_a, p_s, steps=5)
        assert abs(tau - 2.0) < 0.05

    def test_overflowing_logits_raise_no_warning(self):
        # a clipped entry's es * p_s is never formed, so a 1e308 logit
        # raises no "overflow encountered in multiply"
        rng = np.random.default_rng(4)
        p_a = rng.standard_normal((16, 6))
        p_s = 2 * p_a
        p_s[3, 1], p_s[9, 4] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = learn_tau(1.0, p_a, p_s, steps=5)
        assert abs(tau - 2.0) < 0.05

    @staticmethod
    def reference_learn_tau(tau, p_a, p_s, steps):
        """The line search as first written: every discrepancy recomputed.

        Returns the final tau and every tau it clamped: each candidate it
        evaluated, then the final value.
        """
        clamp, seen = co.LOGIT_CLAMP, []
        ea = np.exp(np.clip(p_a, -clamp, clamp))

        def clamped(t):
            seen.append(t)
            return float(min(max(t, co.TAU_MIN), co.TAU_MAX))

        def loss(tau):
            with np.errstate(over="ignore"):
                scaled = p_s / tau
            return float(np.abs(ea - np.exp(np.clip(scaled, -clamp, clamp))).sum()
                         / p_a.shape[0])

        def grad(tau):
            with np.errstate(over="ignore"):
                scaled = p_s / tau
            es = np.exp(np.clip(scaled, -clamp, clamp))
            terms = np.where(np.abs(scaled) < clamp, np.sign(ea - es) * es * p_s, 0.0)
            return float(terms.sum() / (tau * tau * ea.shape[0]))

        for _ in range(steps):
            g = grad(tau)
            if g == 0.0 or not np.isfinite(g):
                continue
            direction = -np.sign(g)
            delta = tau if direction > 0 else 0.5 * tau
            cur = loss(tau)
            while delta > 1e-12 * tau:
                cand = clamped(tau + direction * delta)
                if loss(cand) < cur:
                    tau = cand
                    break
                delta *= 0.5
        return clamped(tau), seen

    @staticmethod
    def random_case(rng, min_steps):
        """Correlated logits of random shape and scale, a start tau and a step
        count in [min_steps, 10). Half the cases are scaled 7x, so the clip
        at LOGIT_CLAMP often binds."""
        n, c = rng.integers(1, 40), rng.integers(2, 12)
        p_a = rng.standard_normal((n, c)) * rng.uniform(0.1, 8)
        p_s = p_a * rng.uniform(-3, 5) + rng.standard_normal((n, c)) * rng.uniform(0, 4)
        scale = rng.choice([1.0, 7.0])
        return p_a * scale, p_s * scale, float(rng.uniform(0.05, 20)), int(rng.integers(min_steps, 10))

    def test_matches_reference_line_search_exactly(self):
        rng = np.random.default_rng(11)
        clipped = 0
        for i in range(300):
            p_a, p_s, tau, steps = self.random_case(rng, 0)
            if i % 10 == 0:
                p_s = p_a.copy()
            clipped += np.abs(p_s).max() / tau >= co.LOGIT_CLAMP
            for _ in range(2):
                expect, _ = self.reference_learn_tau(tau, p_a, p_s, steps)
                tau = learn_tau(tau, p_a, p_s, steps)
                assert tau == expect
        assert clipped >= 50   # the clip path, not only the clip-free one

    def test_evaluates_the_reference_candidates(self, clamp_calls):
        # the clip-free path is taken only where the clip is the identity, so
        # every gradient sign, and with it every candidate, is the reference's.
        # The search tries the reference's first candidates: it stops where the
        # reference would only repeat a rejected iteration or retry the bound
        # tau sits on. The final clamps match.
        rng = np.random.default_rng(13)
        for _ in range(100):
            p_a, p_s, tau, steps = self.random_case(rng, 1)
            expect, ref_seen = self.reference_learn_tau(tau, p_a, p_s, steps)
            clamp_calls.clear()
            assert learn_tau(tau, p_a, p_s, steps) == expect
            *cands, final = clamp_calls
            assert cands == ref_seen[:len(cands)] and final == ref_seen[-1]

    @pytest.mark.parametrize("bound", ["tau_min", "tau_max"])
    def test_pinned_tau_evaluates_at_most_twice(self, bound, monkeypatch):
        # tau on the bound its gradient points past: the first candidate
        # clamps back to tau, so the search ends after the current tau's
        # evaluation; np.exp runs once for the anchor and once for that
        tau = co.TAU_MAX if bound == "tau_max" else co.TAU_MIN
        p_a = np.tile([2.0, 0.0], (4, 1))
        p_s = p_a * (8 * tau if bound == "tau_max" else tau / 4)   # best tau 8x, 1/4x
        expect, _ = self.reference_learn_tau(tau, p_a, p_s, 5)
        calls, exp = [], np.exp

        def counting_exp(*args, **kwargs):
            calls.append(1)
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        assert learn_tau(tau, p_a, p_s, steps=5) == expect == tau
        assert len(calls) <= 2

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_clamp_boundary_matches_reference(self, ulps, clamp_calls):
        # max|p_s| / tau is the clamp exactly (0) or one ulp either side. At
        # equality the largest entry is clipped: it leaves the gradient, whose
        # sign it would flip, so only the clip path matches the reference
        amax = 40.0 if ulps == 0 else float(np.nextafter(40.0, ulps * np.inf))
        assert np.sign(amax / 2.0 - co.LOGIT_CLAMP) == ulps   # dividing by 2 is exact
        p_a = np.array([[19.5, 2.0]])
        p_s = np.array([[amax, 0.5]])
        expect, ref_seen = self.reference_learn_tau(2.0, p_a, p_s, 3)
        assert learn_tau(2.0, p_a, p_s, steps=3) == expect
        assert clamp_calls == ref_seen

    # -1e308 / tau overflows to -inf for tau < 1, so the line search clips
    # infinite scaled logits, and raises no warning for it. Clipped entries
    # add zeros to the gradient, so +-inf and 1e308 (es * p_s overflows)
    # leave tau free to move; NaN makes the discrepancy NaN at every tau, so
    # tau stays, as in the reference
    SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 1e308, -1e308]

    @pytest.mark.parametrize("special", SPECIALS, ids=str)
    def test_special_logits_match_reference_line_search(self, special):
        rng = np.random.default_rng(12)
        for i in range(60):
            n, c = rng.integers(1, 20), rng.integers(2, 8)
            p_a = rng.standard_normal((n, c)) * rng.uniform(0.1, 8)
            p_s = p_a * rng.uniform(-3, 5) + rng.standard_normal((n, c))
            p_s.reshape(-1)[rng.choice(n * c, size=rng.integers(1, n * c + 1),
                                       replace=False)] = special
            tau, steps = float(rng.uniform(0.05, 3)), int(rng.integers(1, 8))
            # the reference forms es * p_s at clipped entries too, which overflows
            with np.errstate(over="ignore", invalid="ignore"):
                expect, _ = self.reference_learn_tau(tau, p_a, p_s, steps)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert learn_tau(tau, p_a, p_s, steps) == expect

    def test_maximum_then_minimum_is_clip(self):
        # evaluate clips with np.maximum and np.minimum instead of np.clip
        a = np.array(self.SPECIALS + [-np.nan, 5e-324, -5e-324, 3.0, -3.0, 2.5, -25.0])
        for clamp in (20.0, 3.0):
            got = np.minimum(np.maximum(a, -clamp), clamp)
            assert got.tobytes() == np.clip(a, -clamp, clamp).tobytes()


class TestEnsemble:
    def test_hand_example(self):
        out = ensemble(np.array([[3.0, 1.0]]), np.array([[2.0, 4.0]]), tau=2.0)
        assert np.allclose(out.p_e * out.T[:, None], [[4.0, 3.0]])
        assert np.allclose(out.T, [4.0 / 3.0])
        assert np.allclose(out.p_e, [[3.0, 2.25]])
        assert out.y_hat[0] == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError, match=r"ensemble: shapes \(2, 3\) and \(2, 4\) differ"):
            ensemble(np.zeros((2, 3)), np.zeros((2, 4)), tau=1.0)

    def test_t_guard_nonpositive_max(self):
        out = ensemble(np.array([[-1.0, -2.0]]), np.array([[5.0, 1.0]]), tau=1.0)
        assert out.T[0] == 1.0

    def test_max_preserved_equals_anchor_max(self):
        rng = np.random.default_rng(2)
        p_a = np.abs(rng.standard_normal((100, 6))) + 0.1
        p_s = np.abs(rng.standard_normal((100, 6))) + 0.1
        out = ensemble(p_a, p_s, tau=1.7)
        assert np.abs(out.p_e.max(axis=1) - p_a.max(axis=1)).max() < 1e-9

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            ensemble(np.ones((2, 2)), np.ones((2, 2)), tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_rejects_non_finite_tau(self, tau):
        # NaN made every p_e entry NaN; inf dropped the auxiliary's logits
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            ensemble(np.ones((2, 2)), np.ones((2, 2)), tau=tau)

    def test_argmax_tie_takes_lowest_index(self):
        out = ensemble(np.array([[2.0, 2.0]]), np.array([[2.0, 2.0]]), tau=1.0)
        assert out.y_hat[0] == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_sharpness_property(self, seed):
        rng = np.random.default_rng(seed)
        p_a = rng.uniform(0.1, 10, size=(16, 8))
        p_s = rng.uniform(0.1, 10, size=(16, 8))
        tau = rng.uniform(0.2, 5.0)
        out = ensemble(p_a, p_s, tau)
        assert np.abs(out.p_e.max(axis=1) - p_a.max(axis=1)).max() < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_rescaling_keeps_argmax(self, seed):
        rng = np.random.default_rng(seed)
        p_a = rng.uniform(0.1, 10, size=(16, 8))
        p_s = rng.uniform(0.1, 10, size=(16, 8))
        tau = rng.uniform(0.2, 5.0)
        out = ensemble(p_a, p_s, tau)
        assert np.array_equal(out.y_hat, (p_a + p_s / tau).argmax(axis=1))


class TestCollapseGuard:
    def test_agreement_rate_hand_value(self):
        p_a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        p_s = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 2.0], [0.0, 2.0]])
        assert agreement_rate(p_a, p_s) == 0.5

    @pytest.mark.parametrize("shape", [(0, 3), (3,)], ids=["empty", "1d"])
    def test_agreement_rate_rejects_logits_that_are_not_a_batch(self, shape):
        # an empty batch took the mean of an empty slice
        with pytest.raises(ad.ShapeError, match=re.escape(
                f"agreement_rate: expected 2-D logits with at least one row, got {shape}")):
            agreement_rate(np.zeros(shape), np.zeros(shape))

    def test_agreement_rate_rejects_a_shape_mismatch(self):
        with pytest.raises(ad.ShapeError, match=r"agreement_rate: shapes \(2, 3\) and \(2, 4\) differ"):
            agreement_rate(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_drop_auxiliary_falls_back_to_anchor(self):
        p_a = np.array([[3.0, 1.0]])
        ens = ensemble(p_a, np.array([[0.0, 9.0]]), tau=1.0)
        dropped = drop_auxiliary(ens)
        assert dropped.aux_dropped
        assert np.array_equal(dropped.p_e, p_a)
        assert dropped.y_hat[0] == 0
        assert dropped.tau == ens.tau


class TestLossTerms:
    def test_entropy_uniform_is_log_c(self):
        with Tape():
            h = entropy_rows(Tensor(np.zeros((3, 4))))
        assert np.allclose(h.data, np.log(4))

    def test_entropy_matches_direct_formula(self):
        z = np.random.default_rng(3).standard_normal((10, 6)) * 2
        with Tape():
            h = entropy_rows(Tensor(z))
        assert np.abs(h.data - entropy_np(z)).max() < 1e-12

    def test_marginal_entropy_is_batch_mean(self):
        z = np.random.default_rng(4).standard_normal((7, 5))
        with Tape():
            v = marginal_entropy(z)
        assert abs(v.item() - entropy_np(z).mean()) < 1e-12

    def test_self_adapt_is_sum_of_means(self):
        rng = np.random.default_rng(5)
        a, s = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        with Tape():
            v = self_adapt_loss(a, s)
        assert abs(v.item() - (entropy_np(a).mean() + entropy_np(s).mean())) < 1e-12

    def test_ckd_hand_value(self):
        p_a = np.array([[1.0, 0.0]])
        p_s = np.array([[0.0, 1.0]])
        y_hat = np.array([0])
        # CE(p_a, 0) = log(1 + e^-1); CE(p_s, 0) = log(1 + e^1)
        expect = np.log(1 + np.exp(-1.0)) + np.log(1 + np.exp(1.0))
        with Tape():
            v = ckd_loss(p_a, p_s, y_hat)
        assert abs(v.item() - expect) < 1e-12

    def test_filter_threshold_oracle(self):
        # the step keeps the rows whose ensemble entropy is below factor * ln C
        anchor, aux = tiny_pair(seed=6)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        batch = np.random.default_rng(6).standard_normal((64, 6)) * 2
        ens, bd = coca_step(anchor, aux, 1.0, batch, opts, filter_factor=0.8)
        keep = entropy_np(ens.p_e) < 0.8 * np.log(4)
        assert bd.kept_frac == keep.mean()
        assert 0 < keep.sum() < 64


def _masked_mean(rows, keep):
    return ad.scalar_div(ad.tensor_sum(ad.mul(rows, keep.astype(np.float64))),
                         int(keep.sum()))


def _cross_entropy_rows(logits, labels):
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    return ad.sub(ad.logsumexp(logits), ad.tensor_sum(ad.mul(logits, onehot), axis=-1))


def _ensemble_composed(p_a_t, p_s_t, ens):
    return ad.mul(ad.add(p_a_t, ad.scalar_div(p_s_t, ens.tau)), 1.0 / ens.T[:, None])


def composed_objective(p_a_t, p_s_t, p_e_t, y_hat, keep, lam_col, masks):
    """The COCA objective as a graph of elementary tape ops (the reference)."""
    l_mar = _masked_mean(entropy_rows(p_e_t), keep)
    l_ckd = _masked_mean(ad.add(_cross_entropy_rows(p_a_t, y_hat),
                                _cross_entropy_rows(p_s_t, y_hat)), keep)
    l_sa = ad.add(_masked_mean(entropy_rows(p_a_t), keep),
                  _masked_mean(entropy_rows(p_s_t), keep))
    zero = Tensor(0.0)
    col = ad.add(l_mar if masks.mar else zero, l_ckd if masks.ckd else zero)
    total = ad.add(ad.mul(Tensor(lam_col), col), l_sa if masks.sa else zero)
    return total, (l_mar.item(), l_ckd.item(), l_sa.item())


MASK_SETS = [LossMasks(sa, mar, ckd) for sa in (False, True) for mar in (False, True)
             for ckd in (False, True) if sa or mar or ckd]


class TestFusedObjective:
    """The one-node objective against the composed graph of tape ops."""

    def inputs(self, rng, scenario, n=24, c=7):
        """Leaf logits, the inner pairing's ensemble (cascade only), the ensemble, keep."""
        leaves = [rng.standard_normal((n, c)) * 3 for _ in range(3)]
        keep = np.ones(n, dtype=bool)
        if scenario == "partial_keep":
            keep = rng.random(n) < 0.6
            keep[0] = True
        tau = float(rng.uniform(0.3, 3.0))
        if scenario == "cascade":
            # the auxiliary is the inner pairing's ensemble, a non-leaf tensor
            inner = ensemble(leaves[1], leaves[2], float(rng.uniform(0.3, 3.0)))
            p_s = inner.p_e
        else:
            inner, p_s = None, leaves[1]
        ens = ensemble(leaves[0], p_s, tau)
        if scenario == "aux_dropped":
            ens = drop_auxiliary(ens)
        return leaves, inner, ens, keep

    def run(self, leaves, inner, ens, keep, lam_col, masks, fused):
        ts = [Tensor(x.copy(), requires_grad=True) for x in leaves]
        ensemble_t = co._ensemble_tensor if fused else _ensemble_composed
        with Tape():
            p_s_t = ts[1] if inner is None else ensemble_t(ts[1], ts[2], inner)
            # as in the step: the guard's fallback ensemble is the anchor itself
            p_e_t = ts[0] if ens.aux_dropped else ensemble_t(ts[0], p_s_t, ens)
            args = (ts[0], p_s_t, p_e_t, ens.y_hat, keep, lam_col, masks)
            if fused:
                total, bd = co._combined_loss(*args)
                terms = (bd.l_mar, bd.l_ckd, bd.l_sa)
                assert bd.l_total == total.item()
            else:
                total, terms = composed_objective(*args)
            ad.backward(total)
        grads = [np.zeros_like(x) if t.grad is None else t.grad for x, t in zip(leaves, ts)]
        return total.item(), terms, grads

    @pytest.mark.parametrize("masks", MASK_SETS, ids=lambda m: f"sa{m.sa:d}mar{m.mar:d}ckd{m.ckd:d}")
    @pytest.mark.parametrize("lam_col", [0.0, 0.5, 1.0])
    def test_matches_composed_graph(self, masks, lam_col):
        rng = np.random.default_rng(int(lam_col * 10) + 100 * (masks.sa + 2 * masks.mar + 4 * masks.ckd))
        for scenario in ("full_keep", "partial_keep", "aux_dropped", "cascade"):
            for _ in range(5):
                case = self.inputs(rng, scenario)
                f_total, f_terms, f_grads = self.run(*case, lam_col, masks, fused=True)
                r_total, r_terms, r_grads = self.run(*case, lam_col, masks, fused=False)
                assert f_total == r_total, scenario
                assert f_terms == r_terms, scenario
                for got, ref in zip(f_grads, r_grads):
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), scenario

    def test_full_batch_terms_match_public_losses(self):
        rng = np.random.default_rng(3)
        (z_a, z_s, _), _, ens, keep = self.inputs(rng, "full_keep")
        with Tape():
            _, bd = co._combined_loss(Tensor(z_a), Tensor(z_s), Tensor(ens.p_e), ens.y_hat,
                                      keep, 1.0, LossMasks())
            pe = (z_a + z_s / ens.tau) * (1.0 / ens.T[:, None])
            assert bd.l_mar == marginal_entropy(pe).item()
            assert bd.l_sa == self_adapt_loss(z_a, z_s).item()
            assert abs(bd.l_ckd - ckd_loss(z_a, z_s, ens.y_hat).item()) < 1e-12

    def test_step_records_one_loss_node(self, monkeypatch):
        anchor, aux = tiny_pair(seed=14)
        batch = np.random.default_rng(15).standard_normal((16, 6))
        with Tape() as tape:
            forward_logits(anchor, Tensor(batch))
            forward_logits(aux, Tensor(batch))
            forward_nodes = len(tape)
        seen = []
        real_backward = ad.backward

        def counting_backward(loss):
            seen.append(len(ad.active_tape()))
            real_backward(loss)

        monkeypatch.setattr(ad, "backward", counting_backward)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        coca_step(anchor, aux, 1.0, batch, opts)
        assert seen == [forward_nodes + 2]   # the ensemble node, then the loss node


def tiny_pair(seed=0, C=4, dims=6):
    anchor = build_model(ModelSpec(kind="mlp", input_shape=(dims,),
                                   hidden_sizes=[16, 16], norm_kind="layernorm",
                                   num_classes=C), seed=seed)
    aux = build_model(ModelSpec(kind="mlp", input_shape=(dims,), hidden_sizes=[8],
                                norm_kind="batchnorm", num_classes=C), seed=seed + 1)
    for m in (anchor, aux):
        m.set_trainable(norm_only=True)
    return anchor, aux


class TestCocaStep:
    def batch(self, seed=0, n=16, dims=6):
        return np.random.default_rng(seed).standard_normal((n, dims))

    def test_zero_lr_keeps_params(self):
        anchor, aux = tiny_pair()
        before = {n: p.data.copy() for n, p in {**anchor.params, **aux.params}.items()}
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        coca_step(anchor, aux, 1.0, self.batch(), opts)
        after = {**anchor.params, **aux.params}
        for name, arr in before.items():
            assert np.array_equal(after[name].data, arr)

    def test_updates_only_norm_params(self):
        anchor, aux = tiny_pair()
        weights = {n: p.data.copy() for n, p in anchor.params.items()
                   if n not in anchor.norm_param_names}
        norms = {n: p.data.copy() for n, p in anchor.params.items()
                 if n in anchor.norm_param_names}
        opts = [SGD(m.norm_params(), lr=0.1) for m in (anchor, aux)]
        coca_step(anchor, aux, 1.0, self.batch(), opts)
        for name, arr in weights.items():
            assert np.array_equal(anchor.params[name].data, arr)
        assert any(not np.array_equal(anchor.params[n].data, a)
                   for n, a in norms.items())

    def test_lam_zero_reduces_to_sum_of_tent_losses(self):
        # with the collaboration term off, the objective must equal the
        # two entropy-minimization losses computed independently
        batch = self.batch(seed=3)
        anchor, aux = tiny_pair(seed=5)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        _, bd = coca_step(anchor, aux, 1.0, batch, opts, lam_col=0.0)

        tent_total = 0.0
        for m in (anchor, aux):
            with Tape():
                logits = forward_logits(m, Tensor(batch))
                h = entropy_rows(logits).data
            tent_total += h.mean()
        assert abs(bd.l_total - tent_total) < 1e-12

    def test_breakdown_composition(self):
        anchor, aux = tiny_pair(seed=2)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        _, bd = coca_step(anchor, aux, 1.0, self.batch(1), opts, lam_col=2.0)
        assert abs(bd.l_total - (2.0 * (bd.l_mar + bd.l_ckd) + bd.l_sa)) < 1e-12

    def test_masks_zero_out_terms(self):
        anchor, aux = tiny_pair(seed=4)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        masks = LossMasks(sa=False, mar=True, ckd=False)
        _, bd = coca_step(anchor, aux, 1.0, self.batch(2), opts, masks=masks)
        assert abs(bd.l_total - bd.l_mar) < 1e-12

    def test_filter_reports_kept_fraction(self):
        anchor, aux = tiny_pair(seed=6)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        _, bd = coca_step(anchor, aux, 1.0, self.batch(7, n=32), opts,
                          filter_factor=0.4)
        assert 0.0 <= bd.kept_frac <= 1.0

    def test_all_filtered_skips_update(self):
        anchor, aux = tiny_pair(seed=8)
        before = {n: p.data.copy() for n, p in anchor.params.items()}
        opts = [SGD(m.norm_params(), lr=0.5) for m in (anchor, aux)]
        _, bd = coca_step(anchor, aux, 1.0, self.batch(9), opts,
                          filter_factor=1e-9)
        assert bd.kept_frac == 0.0
        for name, arr in before.items():
            assert np.array_equal(anchor.params[name].data, arr)

    def test_collapse_threshold_triggers_anchor_fallback(self):
        anchor, aux = tiny_pair(seed=10)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        ens, _ = coca_step(anchor, aux, 1.0, self.batch(11), opts,
                           collapse_threshold=1.01)
        assert ens.aux_dropped
        assert np.array_equal(ens.y_hat, ens.p_a.argmax(axis=1))

    def test_collapse_threshold_zero_never_triggers(self):
        anchor, aux = tiny_pair(seed=12)
        opts = [SGD(m.norm_params(), lr=0.0) for m in (anchor, aux)]
        ens, _ = coca_step(anchor, aux, 1.0, self.batch(13), opts,
                           collapse_threshold=0.0)
        assert not ens.aux_dropped


def a9_pair():
    """The layernorm/batchnorm pair of acceptance check A9, norm-only."""
    pair = []
    for i, (hidden, norm) in enumerate([([24, 24], "layernorm"), ([10], "batchnorm")]):
        m = build_model(ModelSpec(kind="mlp", input_shape=(12,), hidden_sizes=hidden,
                                  norm_kind=norm, num_classes=6), seed=i)
        m.set_trainable(norm_only=True)
        pair.append(m)
    return pair


class TestNonFiniteGuard:
    """A batch with a NaN feature is skipped instead of poisoning the models."""

    def nan_stream(self):
        batches = np.random.default_rng(0).standard_normal((6, 32, 12))
        batches[2, 5, 3] = np.nan
        return batches

    @pytest.mark.parametrize("k", [1, 2])
    def test_nan_feature_skips_only_its_batch(self, k):
        # before the guard, relu mapped the NaN rows to 0 so every loss stayed
        # finite, but a layernorm scale gradient was NaN: from batch 2 a norm
        # parameter of each model was NaN and from batch 3 the models predicted
        # one class (one model alone, the entropy-minimization baseline, too)
        pair = a9_pair()[:k]
        opts = [SGD(m.norm_params(), lr=0.01, momentum=0.9) for m in pair]
        taus = [1.0] * (k - 1)
        for b, batch in enumerate(self.nan_stream()):
            before = [p.data.copy() for m in pair for p in m.all_params()]
            velocity = [v.copy() for o in opts for v in o.velocity]
            out = multi_model_step(pair, taus, batch, opts)
            assert out.skipped == (b == 2)
            assert np.isfinite(out.breakdown.l_total)
            params = [p for m in pair for p in m.all_params()]
            assert all(np.isfinite(p.data).all() and p.grad is None for p in params)
            if out.skipped:
                assert [p.data.tobytes() for p in params] == [a.tobytes() for a in before]
                assert [v.tobytes() for o in opts for v in o.velocity] == [
                    v.tobytes() for v in velocity]
                assert out.taus == taus
            else:
                assert any(not np.array_equal(p.data, a) for p, a in zip(params, before))
            assert len(np.unique(out.y_hat)) > 1
            taus = out.taus

    @pytest.mark.parametrize("k", [2, 3])
    def test_skipped_step_puts_every_tau_back(self, k, monkeypatch):
        # learn_tau runs before the loss; a skipped step must drop its moves
        def moving_learn_tau(tau, p_a, p_s, steps):
            return co._clamp_tau(tau * 3.0)

        monkeypatch.setattr(co, "learn_tau", moving_learn_tau)
        ms = [m.clone() for m in pretrained_cascade()[:k]]
        opts = [SGD(m.norm_params(), lr=0.05, momentum=0.9) for m in ms]
        batches = step_batches(0, n=2)
        out = multi_model_step(ms, [1.5 + i for i in range(k - 1)], batches[0], opts)
        assert not out.skipped and out.taus == [4.5, 7.5][:k - 1]
        batches[1][3, 0] = np.inf
        with pytest.warns(RuntimeWarning):   # the normalization of the inf row
            out = multi_model_step(ms, out.taus, batches[1], opts)
        assert out.skipped and out.taus == [4.5, 7.5][:k - 1]


class TestTentStep:
    def test_reduces_entropy(self):
        model, _ = tiny_pair(seed=20)
        batch = np.random.default_rng(21).standard_normal((32, 6))
        with Tape():
            before = entropy_rows(forward_logits(model, Tensor(batch))).data.mean()
        opt = SGD(model.norm_params(), lr=0.1)
        for _ in range(5):
            multi_model_step([model], [], batch, [opt])
        with Tape():
            after = entropy_rows(forward_logits(model, Tensor(batch))).data.mean()
        assert after < before

    def test_returns_pre_update_predictions(self):
        model, _ = tiny_pair(seed=22)
        batch = np.random.default_rng(23).standard_normal((16, 6))
        with Tape():
            expect = forward_logits(model, Tensor(batch)).data.argmax(axis=1)
        opt = SGD(model.norm_params(), lr=0.5)
        got = multi_model_step([model], [], batch, [opt]).y_hat
        assert np.array_equal(got, expect)

    @staticmethod
    def tent_oracle(model, batch, optimizer):
        """The entropy-minimization step as its own composed graph, the oracle."""
        with Tape():
            logits = forward_logits(model, Tensor(batch))
            loss = ad.tensor_mean(entropy_rows(logits))
            ad.backward(loss)
        co._step_if_finite(float(loss.data), batch, [model], [optimizer])
        return logits.data.argmax(axis=1), float(loss.data)

    @pytest.mark.parametrize("index", [0, 1], ids=["layernorm", "batchnorm"])
    def test_one_model_step_is_the_composed_tent_oracle_bit_for_bit(self, index):
        model = a9_pair()[index]
        oracle = model.clone()
        opt = SGD(model.norm_params(), lr=0.05, momentum=0.9)
        oracle_opt = SGD(oracle.norm_params(), lr=0.05, momentum=0.9)
        for batch in np.random.default_rng(40).standard_normal((6, 32, 12)):
            out = multi_model_step([model], [], batch, [opt])
            preds, loss = self.tent_oracle(oracle, batch, oracle_opt)
            assert out.ensemble is None and out.taus == [] and not out.skipped
            assert out.y_hat.tobytes() == out.per_model_preds[0].tobytes() == preds.tobytes()
            bd = out.breakdown
            assert (bd.l_total, bd.l_sa, bd.l_mar, bd.l_ckd, bd.kept_frac) == (
                loss, loss, 0.0, 0.0, 1.0)
            assert ([p.data.tobytes() for p in model.all_params()]
                    == [p.data.tobytes() for p in oracle.all_params()])
            assert ([v.tobytes() for v in opt.velocity]
                    == [v.tobytes() for v in oracle_opt.velocity])
            assert any(v.any() for v in opt.velocity)

    def test_filter_takes_the_mean_entropy_of_the_kept_rows(self):
        model = a9_pair()[0]
        batch = np.random.default_rng(41).standard_normal((32, 12)) * 3
        with Tape():
            h = entropy_rows(forward_logits(model, Tensor(batch))).data
        factor = float(np.median(h)) / np.log(6)
        keep = h < factor * np.log(6)
        out = multi_model_step([model], [], batch, [SGD(model.norm_params(), lr=0.1)],
                               filter_factor=factor)
        assert 0 < out.breakdown.kept_frac < 1
        assert out.breakdown.kept_frac == keep.mean()
        assert out.breakdown.l_total == pytest.approx(h[keep].mean(), rel=1e-14, abs=0)

    def test_batch_with_every_row_filtered_updates_nothing(self):
        model = a9_pair()[0]
        opt = SGD(model.norm_params(), lr=0.1, momentum=0.9)
        batches = np.random.default_rng(42).standard_normal((2, 32, 12))
        multi_model_step([model], [], batches[0], [opt])   # a nonzero velocity
        before = [p.data.copy() for p in model.all_params()]
        velocity = [v.copy() for v in opt.velocity]
        out = multi_model_step([model], [], batches[1], [opt], filter_factor=1e-9)
        assert out.breakdown.kept_frac == 0.0 and out.breakdown.l_total == 0.0
        params = model.all_params()
        assert [p.data.tobytes() for p in params] == [a.tobytes() for a in before]
        assert [v.tobytes() for v in opt.velocity] == [v.tobytes() for v in velocity]
        assert all(p.grad is None for p in params)


class TestCascade:
    def models3(self):
        specs = [
            ModelSpec(kind="mlp", input_shape=(6,), hidden_sizes=[32, 32],
                      norm_kind="layernorm", num_classes=4),
            ModelSpec(kind="mlp", input_shape=(6,), hidden_sizes=[16],
                      norm_kind="batchnorm", num_classes=4),
            ModelSpec(kind="mlp", input_shape=(6,), hidden_sizes=[8],
                      norm_kind="layernorm", num_classes=4),
        ]
        out = [build_model(s, seed=i) for i, s in enumerate(specs)]
        for m in out:
            m.set_trainable(norm_only=True)
        return out

    @staticmethod
    def nodes_at_backward(monkeypatch) -> list:
        """Wrap ad.backward; the list gets the tape length at each call."""
        seen, real_backward = [], ad.backward

        def counting_backward(loss):
            seen.append(len(ad.active_tape()))
            real_backward(loss)

        monkeypatch.setattr(ad, "backward", counting_backward)
        return seen

    def test_rejects_zero_models(self):
        with pytest.raises(ValueError, match=">= 1 model"):
            multi_model_step([], [], np.zeros((4, 6)), [])

    def test_two_models_are_one_pairing(self):
        ms = self.models3()[:2]
        batch = np.random.default_rng(32).standard_normal((16, 6))
        opts = [SGD(m.norm_params(), lr=0.0) for m in ms]
        out = multi_model_step(ms, [1.0], batch, opts, tau_steps=0)
        with Tape():
            logits = [forward_logits(m, Tensor(batch)).data for m in ms]
        assert np.array_equal(out.ensemble.p_e, ensemble(logits[0], logits[1], tau=1.0).p_e)
        assert out.taus == [1.0]

    def test_three_models_record_five_objective_nodes(self, monkeypatch):
        # one ensemble node and one objective node per pairing, one add
        ms = self.models3()
        batch = np.random.default_rng(33).standard_normal((16, 6))
        with Tape() as tape:
            for m in ms:
                forward_logits(m, Tensor(batch))
            forward_nodes = len(tape)
        seen = self.nodes_at_backward(monkeypatch)
        opts = [SGD(m.norm_params(), lr=0.0) for m in ms]
        multi_model_step(ms, [1.0, 1.0], batch, opts)
        assert seen == [forward_nodes + 5]

    def test_three_convnets_record_seven_forward_nodes_each(self, monkeypatch):
        # per model: block0's conv2d sees no trainable input, so it records
        # batchnorm and relu; block1 records conv2d with its bias inside,
        # batchnorm and relu; then reshape and linear. Plus the 5 objective nodes
        specs = [ModelSpec(kind="convnet", input_shape=(1, 6, 6), hidden_sizes=ch,
                           norm_kind="batchnorm", num_classes=4)
                 for ch in ([6, 8], [4, 4], [2, 3])]
        ms = [build_model(s, seed=i) for i, s in enumerate(specs)]
        for m in ms:
            m.set_trainable(norm_only=True)
        seen = self.nodes_at_backward(monkeypatch)
        batch = np.random.default_rng(34).standard_normal((16, 1, 6, 6))
        opts = [SGD(m.norm_params(), lr=0.0) for m in ms]
        multi_model_step(ms, [1.0, 1.0], batch, opts)
        assert seen == [3 * 7 + 5]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rejects_an_empty_batch_before_any_forward_pass(self, k, monkeypatch):
        # two models ended in learn_tau's 0 / 0 warnings, one updated nothing silently
        ms = self.models3()[:k]
        opts = [SGD(m.norm_params(), lr=0.01) for m in ms]

        def no_forward(*args):
            raise AssertionError("forward pass on an empty batch")

        monkeypatch.setattr(co, "forward_logits", no_forward)
        with pytest.raises(ValueError, match="batch of >= 1 row, got 0"):
            multi_model_step(ms, [1.0] * (k - 1), np.zeros((0, 6)), opts)

    def test_tau_state_count_checked(self):
        ms = self.models3()
        opts = [SGD(m.norm_params(), lr=0.0) for m in ms]
        with pytest.raises(ValueError, match="expected 2 taus, got 1"):
            multi_model_step(ms, [1.0], np.zeros((4, 6)), opts)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_optimizer_count_checked(self, k):
        # one optimizer for a pair used to run: the auxiliary's norm gradients
        # were never cleared and grew from step to step
        ms = self.models3()[:k]
        opts = [SGD(m.norm_params(), lr=0.0) for m in ms]
        batch = np.random.default_rng(35).standard_normal((16, 6))
        for wrong in (opts[:-1], opts + opts[:1]):
            with pytest.raises(ValueError, match=f"expected {k} optimizers"):
                multi_model_step(ms, [1.0] * (k - 1), batch, wrong)

    def test_runs_and_reports(self):
        ms = self.models3()
        batch = np.random.default_rng(30).standard_normal((16, 6))
        opts = [SGD(m.norm_params(), lr=0.01) for m in ms]
        out = multi_model_step(ms, [1.0, 1.0], batch, opts)
        assert len(out.per_model_preds) == 3
        assert len(out.taus) == 2
        assert out.y_hat.shape == (16,)
        assert np.isfinite(out.breakdown.l_total)

    def test_topmost_prediction_matches_nested_ensembles(self):
        ms = self.models3()
        batch = np.random.default_rng(31).standard_normal((16, 6))
        opts = [SGD(m.norm_params(), lr=0.0) for m in ms]
        out = multi_model_step(ms, [1.0, 1.0], batch, opts, tau_steps=0)
        with Tape():
            logits = [forward_logits(m, Tensor(batch)).data for m in ms]
        inner = ensemble(logits[1], logits[2], tau=1.0)
        top = ensemble(logits[0], inner.p_e, tau=1.0)
        assert np.array_equal(out.y_hat, top.y_hat)


STEP_TASK = SourceTask(kind="gaussian_mixture", num_classes=4, dims=6,
                       center_separation=5.0)


@functools.cache
def pretrained_cascade():
    """TestCascade's three models, pretrained on STEP_TASK (clone before use)."""
    feats, labels = gen_source(STEP_TASK, 40, seed=0)
    ms = TestCascade().models3()
    for i, m in enumerate(ms):
        pretrain(m, feats, labels, epochs=4, lr=0.05, seed=i, batch_size=32)
        m.set_trainable(norm_only=True)
    return ms


def step_batches(seed, n=3):
    """n noisy batches of 16 rows, 4 per class, in label order."""
    feats = gen_source(STEP_TASK, 4 * n, seed=seed)[0]
    noisy = feats + np.random.default_rng(seed).standard_normal(feats.shape)
    return noisy.reshape(4, n, 4, 6).transpose(1, 0, 2, 3).reshape(n, 16, 6)


def adapt_cascade(k, batches, filter_factor=None, collapse_threshold=0.0, classes=None):
    """Adapt clones of the first k pretrained cascade models over batches.

    With a permutation ``classes``, every model's head columns are permuted
    by it first, so class j of the clones is class classes[j] of the
    originals. Returns, per step, the step's output and the norm parameters
    and SGD velocities after it.
    """
    ms = [m.clone() for m in pretrained_cascade()[:k]]
    for m in ms if classes is not None else ():
        for name in ("head.weight", "head.bias"):
            m.params[name].data = m.params[name].data[..., classes].copy()
    taus = [1.0] * (k - 1)
    opts = [SGD(m.norm_params(), lr=0.05, momentum=0.9) for m in ms]
    steps = []
    for batch in batches:
        out = multi_model_step(ms, taus, batch, opts, filter_factor=filter_factor,
                               collapse_threshold=collapse_threshold)
        taus = out.taus
        state = [p.data.copy() for m in ms for p in m.norm_params()]
        steps.append((out, state + [v.copy() for o in opts for v in o.velocity]))
    return steps


def step_arrays(out):
    """Every array and number a cascade step reports, in a fixed order."""
    ens, bd = out.ensemble, out.breakdown
    return [*out.per_model_preds, ens.p_a, ens.T, ens.p_e,
            ens.y_hat, np.array(out.taus + [ens.tau, float(ens.aux_dropped)]),
            np.array([bd.l_mar, bd.l_ckd, bd.l_sa, bd.l_total, bd.kept_frac])]


def oracle_norm_grads(ms, batch):
    """Norm-parameter gradients of one step's objective on ``batch``, from the
    composed graph on clones of ``ms``: one model's mean entropy, else the sum
    of every pairing's composed objective on its composed ensemble, at taus
    of 1 with every row kept."""
    clones = [m.clone() for m in ms]
    keep = np.ones(len(batch), dtype=bool)
    with Tape():
        logits = [forward_logits(m, Tensor(batch)) for m in clones]
        if len(clones) == 1:
            total = ad.tensor_mean(entropy_rows(logits[0]))
        else:
            aux_t, total = logits[-1], Tensor(0.0)
            for anchor_t in logits[-2::-1]:
                ens = ensemble(anchor_t.data, aux_t.data, 1.0)
                p_e_t = _ensemble_composed(anchor_t, aux_t, ens)
                loss, _ = composed_objective(anchor_t, aux_t, p_e_t, ens.y_hat, keep,
                                             1.0, LossMasks())
                total, aux_t = ad.add(total, loss), p_e_t
        ad.backward(total)
    return [p.grad for m in clones for p in m.norm_params()]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_step_moves_norm_params_by_lr_times_oracle_gradient(k):
    # from a fresh optimizer, one step moves every norm parameter by -lr times
    # the objective's gradient, applied here in plain numpy; a co-adaptation
    # step made 1000x smaller passed every other test
    ms = [m.clone() for m in pretrained_cascade()[:k]]
    batch = step_batches(5)[0]
    lr = 0.05
    before = [p.data.copy() for m in ms for p in m.norm_params()]
    expected = [p0 - lr * g for p0, g in zip(before, oracle_norm_grads(ms, batch))]
    opts = [SGD(m.norm_params(), lr=lr, momentum=0.9) for m in ms]
    out = multi_model_step(ms, [1.0] * (k - 1), batch, opts, tau_steps=0)
    assert not out.skipped
    after = [p.data for m in ms for p in m.norm_params()]
    for got, want in zip(after, expected):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


class TestStepMetamorphic:
    """Symmetries of whole co-adaptation steps, over several batches."""

    @pytest.mark.parametrize("k", [2, 3])
    @given(seed=st.integers(0, 2**32 - 1), filtered=st.booleans(),
           collapse_threshold=st.sampled_from([0.0, 0.9]))
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    def test_row_permutation_permutes_predictions(self, k, seed, filtered,
                                                  collapse_threshold):
        batches = step_batches(seed)
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(16) for _ in batches]
        filter_factor = 0.3 if filtered else None
        plain = adapt_cascade(k, batches, filter_factor, collapse_threshold)
        permuted = adapt_cascade(k, [b[p] for b, p in zip(batches, perms)],
                                 filter_factor, collapse_threshold)
        for (out, state), (p_out, p_state), perm in zip(plain, permuted, perms):
            for pred, p_pred in zip(out.per_model_preds + [out.y_hat],
                                    p_out.per_model_preds + [p_out.y_hat]):
                assert np.array_equal(p_pred, pred[perm])
            assert p_out.ensemble.aux_dropped == out.ensemble.aux_dropped
            # taus and losses
            np.testing.assert_allclose(np.concatenate(step_arrays(p_out)[-2:]),
                                       np.concatenate(step_arrays(out)[-2:]),
                                       rtol=0, atol=1e-13)
            for a, b in zip(p_state, state):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("k", [2, 3])
    @given(seed=st.integers(0, 2**32 - 1), collapse_threshold=st.sampled_from([0.0, 0.9]))
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    def test_filter_keeping_every_row_is_the_unfiltered_step(self, k, seed,
                                                             collapse_threshold):
        # an entropy never exceeds ln C, so a factor of 2 keeps every row
        batches = step_batches(seed)
        plain = adapt_cascade(k, batches, None, collapse_threshold)
        kept = adapt_cascade(k, batches, 2.0, collapse_threshold)
        for (out, state), (k_out, k_state) in zip(plain, kept):
            assert k_out.ensemble.aux_dropped == out.ensemble.aux_dropped
            for a, b in zip(step_arrays(k_out) + k_state, step_arrays(out) + state):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("k", [2, 3])
    @given(seed=st.integers(0, 2**32 - 1), filtered=st.booleans(),
           collapse_threshold=st.sampled_from([0.0, 0.9]))
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    def test_class_relabelling_relabels_predictions(self, k, seed, filtered,
                                                    collapse_threshold):
        # permuting every head's columns renames the classes: predictions map
        # through the permutation, and losses, taus and the adapted norm
        # parameters differ only by the order of the sums over classes
        batches = step_batches(seed)
        classes = np.random.default_rng(seed).permutation(STEP_TASK.num_classes)
        filter_factor = 0.3 if filtered else None
        plain = adapt_cascade(k, batches, filter_factor, collapse_threshold)
        relabelled = adapt_cascade(k, batches, filter_factor, collapse_threshold, classes)
        for (out, state), (r_out, r_state) in zip(plain, relabelled):
            for pred, r_pred in zip(out.per_model_preds + [out.y_hat],
                                    r_out.per_model_preds + [r_out.y_hat]):
                assert np.array_equal(classes[r_pred], pred)
            assert r_out.ensemble.aux_dropped == out.ensemble.aux_dropped
            ens, r_ens = out.ensemble, r_out.ensemble
            for a, b in ((r_ens.p_a, ens.p_a), (r_ens.p_e, ens.p_e)):
                np.testing.assert_allclose(a, b[:, classes], rtol=1e-14, atol=1e-14)
            # the balance factor takes row maxima, which no relabelling moves
            np.testing.assert_allclose(r_ens.T, ens.T, rtol=1e-14, atol=1e-14)
            # taus and loss terms
            bd, r_bd = out.breakdown, r_out.breakdown
            terms = [bd.l_mar, bd.l_ckd, bd.l_sa, bd.kept_frac]
            r_terms = [r_bd.l_mar, r_bd.l_ckd, r_bd.l_sa, r_bd.kept_frac]
            np.testing.assert_allclose(step_arrays(r_out)[-2], step_arrays(out)[-2],
                                       rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(r_terms, terms, rtol=1e-15, atol=1e-15)
            # l_total = lam_col * (l_mar + l_ckd) + l_sa, summed per pairing:
            # it moves as far as its terms moved, plus a few ulps of rounding
            moved = abs(r_bd.l_mar - bd.l_mar) + abs(r_bd.l_ckd - bd.l_ckd) \
                + abs(r_bd.l_sa - bd.l_sa)
            assert abs(r_bd.l_total - bd.l_total) <= moved + 8 * np.spacing(abs(bd.l_total))
            for a, b in zip(r_state, state):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


class TestTauMetamorphic:
    """Tau covariance and the self-pairing fixed point, bit for bit."""

    @staticmethod
    def logits(seed, spread, rows=16, classes=6):
        """Anchor logits and correlated auxiliary logits of another scale."""
        rng = np.random.default_rng(seed)
        p_a = rng.standard_normal((rows, classes)) * spread
        scale = rng.uniform(0.2, 5.0)
        p_s = scale * p_a + rng.standard_normal((rows, classes)) * spread
        return p_a, p_s

    @given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.5, 3.0, 15.0]),
           tau0=st.floats(0.05, 20.0), steps=st.integers(1, 8))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_doubled_auxiliary_and_tau_double_the_learned_tau(self, seed, spread, tau0,
                                                              steps):
        p_a, p_s = self.logits(seed, spread)
        one = learn_tau(tau0, p_a, p_s, steps)
        two = learn_tau(2 * tau0, p_a, 2 * p_s, steps)
        assert two == 2 * one
        ens, ens2 = ensemble(p_a, p_s, one), ensemble(p_a, 2 * p_s, two)
        for a, b in ((ens.p_e, ens2.p_e), (ens.T, ens2.T), (ens.y_hat, ens2.y_hat)):
            assert a.tobytes() == b.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.5, 3.0, 30.0]),
           shift=st.sampled_from([0.0, -2.0]), steps=st.integers(1, 10))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_anchor_paired_with_its_clone_keeps_tau_one(self, seed, spread, shift, steps):
        # spread 30 puts logits beyond the clamp of 20; the shift makes rows
        # whose maximum is <= 0, where the balance factor falls back to 1
        p_a = self.logits(seed, spread)[0] + shift * spread
        assert learn_tau(1.0, p_a, p_a.copy(), steps) == 1.0
        ens = ensemble(p_a, p_a.copy(), 1.0)
        positive = p_a.max(axis=1) > 0
        assert ens.p_e[positive].tobytes() == p_a[positive].tobytes()
        assert np.array_equal(ens.y_hat, p_a.argmax(axis=1))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    def test_step_with_a_cloned_auxiliary_keeps_tau_one(self, seed):
        anchor = pretrained_cascade()[0].clone()
        pair = [anchor, anchor.clone()]
        opts = [SGD(m.norm_params(), lr=0.05, momentum=0.9) for m in pair]
        out = multi_model_step(pair, [1.0], step_batches(seed)[0], opts)
        ens = out.ensemble
        assert out.taus == [1.0]
        positive = ens.p_a.max(axis=1) > 0
        assert ens.p_e[positive].tobytes() == ens.p_a[positive].tobytes()
        assert np.array_equal(out.y_hat, out.per_model_preds[0])
