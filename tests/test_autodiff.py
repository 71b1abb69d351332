"""Finite-difference and invariant checks for the reverse-mode engine."""

import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coca_tta import adaptation as co
from coca_tta import autodiff as ad
from coca_tta import models
from coca_tta.autodiff import SGD, ShapeError, Tape, Tensor
from coca_tta.models import ModelSpec, build_model, cross_entropy_mean, pretrain
from oracles import conv2d_full_batch


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of a scalar-valued f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, shapes, n_cases=100, seed=0, rel_tol=1e-4, low=-2.0, high=2.0):
    """Compare tape gradients against central differences on random inputs.

    build(*tensors) must return a Tensor of any shape; the check reduces
    it to a scalar with a fixed random projection so every output element
    influences the loss.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        arrays = [rng.uniform(low, high, size=s) for s in shapes]
        proj = None

        def scalar_loss(*tensors):
            nonlocal proj
            out = build(*tensors)
            if proj is None:
                proj = rng.standard_normal(out.data.shape)
            return ad.tensor_sum(ad.mul(out, Tensor(proj)))

        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Tape():
            loss = scalar_loss(*params)
            ad.backward(loss)

        for k, a in enumerate(arrays):
            def f(x, k=k):
                args = [arrays[j] if j != k else x for j in range(len(arrays))]
                with Tape():
                    val = scalar_loss(*[Tensor(v) for v in args]).item()
                return val

            num = numeric_grad(f, a.copy())
            got = params[k].grad
            denom = max(np.abs(num).max(), 1.0)
            assert got is not None
            assert np.abs(got - num).max() / denom < rel_tol


class TestElementwiseGrads:
    def test_add(self):
        check_op(ad.add, [(4, 5), (4, 5)])

    def test_add_broadcast(self):
        check_op(ad.add, [(4, 5), (5,)])

    def test_sub(self):
        check_op(ad.sub, [(4, 5), (4, 5)])

    def test_mul(self):
        check_op(ad.mul, [(4, 5), (4, 5)])

    def test_mul_broadcast_column(self):
        check_op(ad.mul, [(4, 5), (4, 1)])

    def test_scalar_div(self):
        check_op(lambda a: ad.scalar_div(a, 3.7), [(4, 5)])

    def test_relu(self):
        # shift inputs away from the kink where the derivative is undefined
        rng = np.random.default_rng(7)

        def build(a):
            return ad.relu(a)

        for _ in range(100):
            x = rng.uniform(-2, 2, size=(4, 5))
            x[np.abs(x) < 1e-3] += 0.01
            t = Tensor(x.copy(), requires_grad=True)
            proj = rng.standard_normal((4, 5))
            with Tape():
                ad.backward(ad.tensor_sum(ad.mul(build(t), Tensor(proj))))
            num = numeric_grad(
                lambda v: float((np.maximum(v, 0) * proj).sum()), x.copy())
            assert np.abs(t.grad - num).max() < 1e-4


class TestReductionsAndShapes:
    def test_matmul(self):
        check_op(ad.matmul, [(4, 6), (6, 3)])

    def test_linear(self):
        check_op(ad.linear, [(4, 6), (6, 3), (3,)])

    def test_reshape(self):
        check_op(lambda a: ad.reshape(a, (2, 10)), [(4, 5)])

    def test_sum_all(self):
        check_op(lambda a: ad.tensor_sum(a), [(4, 5)])

    def test_sum_axis(self):
        check_op(lambda a: ad.tensor_sum(a, axis=-1), [(4, 5)])

    def test_mean_all(self):
        check_op(lambda a: ad.tensor_mean(a), [(4, 5)])

    def test_mean_axis(self):
        check_op(lambda a: ad.tensor_mean(a, axis=-1), [(4, 5)])

    def test_softmax(self):
        check_op(ad.softmax, [(4, 5)])

    def test_logsumexp(self):
        check_op(ad.logsumexp, [(4, 5)])

    def test_conv2d(self):
        check_op(ad.conv2d, [(2, 3, 5, 5), (4, 3, 3, 3)], n_cases=20)

    def test_conv2d_with_bias(self):
        check_op(ad.conv2d, [(2, 3, 5, 5), (4, 3, 3, 3), (4,)], n_cases=20)


def conv_reference(x, w, b, g):
    """Direct nested-loop 3x3 same convolution plus bias, with its gradients for output grad g."""
    bsz, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((bsz, w.shape[0], h, wd))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for n in range(bsz):
        for co in range(w.shape[0]):
            for i in range(h):
                for j in range(wd):
                    patch = xp[n, :, i:i + 3, j:j + 3]
                    out[n, co, i, j] = (patch * w[co]).sum() + b[co]
                    gxp[n, :, i:i + 3, j:j + 3] += g[n, co, i, j] * w[co]
                    gw[co] += g[n, co, i, j] * patch
    return out, gxp[:, :, 1:-1, 1:-1], gw, g.sum((0, 2, 3))


def grads_with_frozen(op, arrays, frozen=(), seed=0):
    """Gradients of a fixed projection of op(*arrays); inputs in ``frozen`` need none."""
    tensors = [Tensor(a.copy(), requires_grad=i not in frozen) for i, a in enumerate(arrays)]
    with Tape():
        out = op(*tensors)
        proj = np.random.default_rng(seed).standard_normal(out.shape)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(proj))))
    return [t.grad for t in tensors]


def assert_rel_close(got, ref, rel=1e-12):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


class TestConv2d:
    @pytest.mark.parametrize("b,cin,cout,h,w", [
        (1, 1, 4, 5, 7), (2, 3, 5, 6, 4), (3, 8, 3, 4, 5), (1, 8, 2, 3, 6), (2, 3, 1, 1, 2),
    ])
    def test_matches_nested_loop_reference(self, b, cin, cout, h, w):
        rng = np.random.default_rng(cin * 100 + cout)
        xa = rng.standard_normal((b, cin, h, w))
        wa = rng.standard_normal((cout, cin, 3, 3))
        ba = rng.standard_normal(cout)
        ga = rng.standard_normal((b, cout, h, w))
        x, k, bias = (Tensor(a, requires_grad=True) for a in (xa, wa, ba))
        with Tape():
            out = ad.conv2d(x, k, bias)
            ad.backward(ad.tensor_sum(ad.mul(out, Tensor(ga))))
        ref_out, ref_gx, ref_gw, ref_gb = conv_reference(xa, wa, ba, ga)
        assert_rel_close(out.data, ref_out)
        assert_rel_close(x.grad, ref_gx)
        assert_rel_close(k.grad, ref_gw)
        assert_rel_close(bias.grad, ref_gb)

    @pytest.mark.parametrize("frozen", [0, 1], ids=["x-frozen", "w-frozen"])
    def test_frozen_input_gets_no_grad(self, frozen):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal((2, 3, 5, 4)), rng.standard_normal((6, 3, 3, 3))]
        full = grads_with_frozen(ad.conv2d, arrays)
        part = grads_with_frozen(ad.conv2d, arrays, frozen=(frozen,))
        assert part[frozen] is None
        assert np.array_equal(part[1 - frozen], full[1 - frozen])

    @pytest.mark.parametrize("frozen", [(), (0,), (1,), (2,)],
                             ids=["all-trainable", "x-frozen", "w-frozen", "b-frozen"])
    def test_bias_is_bit_identical_to_add_of_reshaped_bias(self, frozen):
        # the bias is added while the output is copied back to NCHW; its
        # gradient is the reduction that add followed by reshape does
        def composed(x, w, b):
            return ad.add(ad.conv2d(x, w), ad.reshape(b, (1, -1, 1, 1)))

        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal((3, 4, 5, 6)), rng.standard_normal((7, 4, 3, 3)),
                  rng.standard_normal(7)]
        outs = [ad.conv2d(*map(Tensor, arrays)).data, composed(*map(Tensor, arrays)).data]
        assert np.array_equal(outs[0], outs[1])
        assert outs[0].flags.c_contiguous
        fused = grads_with_frozen(ad.conv2d, arrays, frozen=frozen)
        ref = grads_with_frozen(composed, arrays, frozen=frozen)
        for i in range(3):
            if i in frozen:
                assert fused[i] is None
            else:
                assert np.array_equal(fused[i], ref[i]), i

    @pytest.mark.parametrize("shape", [(3,), (1, 4, 1, 1), (4, 1), ()])
    def test_wrong_bias_shape_raises(self, shape):
        x, w = np.zeros((2, 3, 4, 4)), np.zeros((4, 3, 3, 3))
        with pytest.raises(ShapeError, match="bias shape"):
            ad.conv2d(x, w, np.zeros(shape))

    def test_bias_node_has_three_inputs_and_none_without_bias(self):
        x = Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
        w, b = Tensor(np.ones((4, 3, 3, 3))), Tensor(np.ones(4))
        with Tape() as tape:
            ad.conv2d(x, w)
            ad.conv2d(x, w, b)
            assert [node.inputs for node in tape._nodes] == [(x, w), (x, w, b)]


def chunked_conv2d(x, w, b, g, train):
    """conv2d's output and the gradients of x and, if ``train``, of w and b,
    for the upstream gradient g."""
    tensors = [Tensor(a, requires_grad=i == 0 or train)
               for i, a in enumerate((x, w, b)) if a is not None]
    with Tape():
        out = ad.conv2d(*tensors)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
    return [out.data] + [t.grad for t in tensors if t.requires_grad]


class TestChunkedConv:
    """conv2d builds its columns in batch chunks unless the weight gradient
    keeps them. tests/oracles.py keeps the kernel that built them for the
    whole batch at once as the reference."""

    @staticmethod
    def capacity(c, h=8, w=8):
        """Samples of c channels whose columns fit in one chunk."""
        return ad._CHUNK_BYTES // (h * w * 9 * c * 8)

    @staticmethod
    def case(rng, bsz, cin, cout, h=8, w=8, bias=True):
        return (rng.standard_normal((bsz, cin, h, w)), rng.standard_normal((cout, cin, 3, 3)),
                rng.standard_normal(cout) if bias else None,
                rng.standard_normal((bsz, cout, h, w)))

    @pytest.mark.parametrize("train", [False, True], ids=["frozen", "trainable"])
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("cin", [1, 4, 8, 16])
    def test_byte_equal_to_full_batch_kernel(self, cin, bias, train):
        # the models' 8x8 maps at each side of a chunk boundary: the frozen
        # forward's and the input gradient's (16 channels) boundaries
        cout = 16
        rng = np.random.default_rng(cin)
        sizes = {1, 64} | {k + d for k in (self.capacity(cin), self.capacity(cout))
                           for d in (-1, 0, 1)}
        for bsz in sorted(sizes):
            x, w, b, g = self.case(rng, bsz, cin, cout, bias=bias)
            ref = conv2d_full_batch(x, w, b, g)
            got = chunked_conv2d(x, w, b, g, train)
            expect = [ref[0], ref[1]] + ([ref[2]] + ([ref[3]] if bias else []) if train else [])
            assert len(got) == len(expect)
            for i, (a, e) in enumerate(zip(got, expect)):
                assert a is not None and a.shape == e.shape, (bsz, i)
                assert a.tobytes() == e.tobytes(), (bsz, i)

    @pytest.mark.parametrize("bsz,cin,cout,h,w", [
        (64, 24, 2, 8, 8), (15, 16, 2, 8, 8), (486, 2, 1, 5, 3), (61, 2, 16, 5, 3),
        (403, 24, 2, 2, 9), (607, 24, 3, 1, 1), (29, 24, 2, 16, 16),
    ])
    def test_close_to_full_batch_kernel_on_other_shapes(self, bsz, cin, cout, h, w):
        # chunks change which rows share a GEMM call, and a BLAS may round a
        # small GEMM or a row block's tail differently, so on these shapes
        # each value lies within two dot-product error bounds,
        # 2 * K * eps * (|x| conv |w|), of the whole-batch one, K = 9 * cin + 1
        rng = np.random.default_rng(bsz)
        x, w, b, g = self.case(rng, bsz, cin, cout, h, w)
        ref = conv2d_full_batch(x, w, b, g)
        scale = conv2d_full_batch(np.abs(x), np.abs(w), np.abs(b), np.abs(g))
        got = chunked_conv2d(x, w, b, g, train=False)
        eps = np.finfo(np.float64).eps
        for a, e, s, k in zip(got, ref, scale, (9 * cin + 1, 9 * cout)):
            assert np.all(np.abs(a - e) <= 2 * k * eps * s)

    @pytest.mark.parametrize("train", [False, True], ids=["frozen", "trainable"])
    def test_empty_batch(self, train):
        # zero samples make an empty output and gradients, and zero weight gradients
        x, w, b, g = self.case(np.random.default_rng(0), 0, 4, 6)
        got = chunked_conv2d(x, w, b, g, train)
        assert [a.shape for a in got] == [g.shape, x.shape] + ([w.shape, b.shape] if train else [])
        assert all(not a.any() for a in got)

    def test_frozen_forward_and_input_grad_peak_under_4_mib(self):
        # (64, 8, 8, 8) -> 16 channels with frozen weights: one 1 MiB chunk
        # of columns at a time, the 0.5 MiB output and upstream gradient, the
        # 0.25 MiB input gradient and under 0.5 MiB of padded chunk and GEMM
        # product stay under 4 MiB. Whole-batch columns alone take 2.25 MiB
        # forward and 4.5 MiB for the input gradient.
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((64, 8, 8, 8)), requires_grad=True)
        w, b = Tensor(rng.standard_normal((16, 8, 3, 3))), Tensor(rng.standard_normal(16))
        tracemalloc.start()
        try:
            with Tape():
                ad.backward(ad.tensor_sum(ad.conv2d(x, w, b)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape
        assert peak <= 4 * 2**20, peak


class TestFrozenInputsGetNoGrad:
    """Norm and add nodes skip the gradients of inputs that do not require one."""

    @pytest.mark.parametrize("op,shapes", [
        (ad.batchnorm, [(8, 5), (5,), (5,)]),
        (ad.batchnorm, [(4, 3, 4, 5), (3,), (3,)]),
        (ad.layernorm, [(6, 5), (5,), (5,)]),
    ], ids=["batchnorm-2d", "batchnorm-4d", "layernorm"])
    def test_norm_with_frozen_input(self, op, shapes):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal(s) for s in shapes]
        full = grads_with_frozen(op, arrays)
        part = grads_with_frozen(op, arrays, frozen=(0,))
        assert part[0] is None
        assert np.array_equal(part[1], full[1])
        assert np.array_equal(part[2], full[2])

    @pytest.mark.parametrize("frozen", [0, 1])
    def test_add_with_frozen_operand(self, frozen):
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((1, 3, 1, 1))]
        full = grads_with_frozen(ad.add, arrays)
        part = grads_with_frozen(ad.add, arrays, frozen=(frozen,))
        assert part[frozen] is None
        assert np.array_equal(part[1 - frozen], full[1 - frozen])


def var_formula_norm(x, scale, shift, axes, ash):
    """Normalization written with np.mean and np.var, the reference formula."""
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    xhat = (x - mu) * (1.0 / np.sqrt(var + ad._EPS_NORM))
    return xhat * scale.reshape(ash) + shift.reshape(ash)


def out_of_place_norm_grads(x, sc, g, axes):
    """Gradients of the normalization kernel as first written, every temporary fresh."""
    others = tuple(i for i in range(x.ndim) if sc.shape[i] == 1)
    xc = x - x.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=axes, keepdims=True) + ad._EPS_NORM)
    xhat = xc * inv
    n = int(np.prod([x.shape[a] for a in np.atleast_1d(axes)]))
    gs = (g * xhat).sum(axis=others)
    gb = g.sum(axis=others)
    gxhat = g * sc
    gx = (inv / n) * (n * gxhat
                      - gxhat.sum(axis=axes, keepdims=True)
                      - xhat * (gxhat * xhat).sum(axis=axes, keepdims=True))
    return gx, gs, gb


NORM_CASES = [
    (ad.batchnorm, (8, 5), (0,), (1, 5), None),
    (ad.batchnorm, (4, 3, 4, 5), (0, 2, 3), (1, 3, 1, 1), None),
    (ad.batchnorm, (4, 3, 4, 5), (0, 2, 3), (1, 3, 1, 1), (0, 3, 1, 2)),
    (ad.layernorm, (6, 5), (-1,), (1, 5), None),
    (ad.layernorm, (2, 3, 7), (-1,), (1, 1, 7), None),
]
NORM_IDS = ["batchnorm-2d", "batchnorm-4d", "batchnorm-4d-channel-last-memory",
            "layernorm-2d", "layernorm-3d"]


class TestConvBlockKernels:
    """relu, the norms and conv2d keep their values while changing their kernels."""

    SPECIALS = [-0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]

    def test_relu_forward_byte_equal_to_where(self):
        # lengths past numpy's SIMD width reach both the vector loop and the
        # scalar tail; a bare np.fmax keeps -0.0 in the tail
        rng = np.random.default_rng(11)
        for n in range(1, 71):
            base = rng.uniform(-1.0, 1.0, size=2 * n)
            for special in self.SPECIALS:
                for pos in range(n):
                    for a in (base[:n].copy(), base.copy()[::2]):
                        a[pos] = special
                        out = ad.relu(Tensor(a)).data
                        assert out.tobytes() == np.where(a > 0, a, 0.0).tobytes(), (n, special, pos)

    @pytest.mark.parametrize("shape,axes,ash,layout", [
        ((8, 5), (0,), (1, 5), None),
        ((4, 3, 4, 5), (0, 2, 3), (1, 3, 1, 1), None),
        ((4, 3, 4, 5), (0, 2, 3), (1, 3, 1, 1), (0, 3, 1, 2)),
    ], ids=["2d", "4d", "4d-channel-last-memory"])
    def test_batchnorm_forward_byte_equal_to_var_formula(self, shape, axes, ash, layout):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(shape) * 3.0 + 1.5
        if layout is not None:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(layout)
        scale, shift = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        out = ad.batchnorm(Tensor(x), Tensor(scale), Tensor(shift)).data
        assert out.tobytes() == var_formula_norm(x, scale, shift, axes, ash).tobytes()

    @pytest.mark.parametrize("shape", [(6, 5), (2, 3, 7)])
    def test_layernorm_forward_byte_equal_to_var_formula(self, shape):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(shape) * 3.0 + 1.5
        scale, shift = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
        out = ad.layernorm(Tensor(x), Tensor(scale), Tensor(shift)).data
        ash = (1,) * (len(shape) - 1) + (shape[-1],)
        assert out.tobytes() == var_formula_norm(x, scale, shift, -1, ash).tobytes()

    def test_conv2d_output_and_input_grad_are_c_contiguous(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3, 3, 3)))
        with Tape():
            out = ad.conv2d(x, w)
            ad.backward(ad.tensor_sum(out))
        assert out.data.flags.c_contiguous
        assert x.grad.flags.c_contiguous

    @pytest.mark.parametrize("op,shape,axes,ash,layout", NORM_CASES, ids=NORM_IDS)
    def test_norm_grads_byte_equal_to_out_of_place_formula(self, op, shape, axes, ash, layout):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(shape) * 3.0 + 1.5
        if layout is not None:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(layout)
        scale, shift = rng.standard_normal((2, max(ash)))
        g = rng.standard_normal(shape)
        tensors = [Tensor(a, requires_grad=True) for a in (x, scale, shift)]
        with Tape():
            out = op(*tensors)
            ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        ref = out_of_place_norm_grads(x, scale.reshape(ash), g, axes)
        for got, want in zip([t.grad for t in tensors], ref):
            assert got.tobytes() == want.tobytes()


class TestCocaObjectiveGrads:
    """Finite differences of the one-node COCA objective in its logit inputs."""

    def check(self, dropped, keep, lam_col, masks, seed):
        y_hat = np.random.default_rng(seed).integers(0, 5, 6)

        def objective(p_a, p_s, p_e=None):
            # the guard's fallback passes the anchor as the ensemble
            return co._combined_loss(p_a, p_s, p_a if p_e is None else p_e, y_hat,
                                     keep, lam_col, masks)[0]

        # without L_mar the objective does not read its ensemble input
        n_inputs = 3 if masks.mar and not dropped else 2
        check_op(objective, [(6, 5)] * n_inputs, n_cases=30, seed=seed)

    def test_full_objective(self):
        self.check(False, np.ones(6, dtype=bool), 0.5, co.LossMasks(), seed=1)

    def test_partial_keep_single_terms(self):
        keep = np.array([True, False, True, True, False, True])
        for i, masks in enumerate([co.LossMasks(True, False, False),
                                   co.LossMasks(False, True, False),
                                   co.LossMasks(False, False, True)]):
            self.check(False, keep, 1.0, masks, seed=2 + i)

    def test_aux_dropped(self):
        keep = np.array([True, True, False, True, True, True])
        self.check(True, keep, 1.0, co.LossMasks(), seed=5)


class TestNormGrads:
    def test_batchnorm_2d(self):
        check_op(ad.batchnorm, [(8, 5), (5,), (5,)], n_cases=50)

    def test_batchnorm_4d(self):
        check_op(ad.batchnorm, [(4, 3, 4, 4), (3,), (3,)], n_cases=20)

    def test_layernorm(self):
        check_op(ad.layernorm, [(6, 5), (5,), (5,)], n_cases=50)

    def test_batchnorm_is_layernorm_of_the_transpose(self):
        # the shared kernel over axes (0,), features on axis 1, against axes
        # (-1,), features on axis -1; the layernorm affine is the identity and
        # batchnorm's affine is applied to its transposed output on the tape
        rng = np.random.default_rng(2)
        x, w = rng.normal(1.0, 3.0, size=(2, 7, 5))
        scale, shift = rng.standard_normal((2, 5))
        bn = [Tensor(a.copy(), requires_grad=True) for a in (x, scale, shift)]
        ln = [Tensor(a.copy(), requires_grad=True)
              for a in (x.T, scale[:, None], shift[:, None])]
        with Tape():
            out_bn = ad.batchnorm(*bn)
            ad.backward(ad.tensor_sum(ad.mul(out_bn, Tensor(w))))
        with Tape():
            normed = ad.layernorm(ln[0], Tensor(np.ones(7)), Tensor(np.zeros(7)))
            out_ln = ad.add(ad.mul(normed, ln[1]), ln[2])
            ad.backward(ad.tensor_sum(ad.mul(out_ln, Tensor(w.T))))
        pairs = [(out_bn.data, out_ln.data.T), (bn[0].grad, ln[0].grad.T),
                 (bn[1].grad, ln[1].grad[:, 0]), (bn[2].grad, ln[2].grad[:, 0])]
        for got, ref in pairs:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_batchnorm_rejects_single_sample(self):
        with pytest.raises(ValueError):
            with Tape():
                ad.batchnorm(Tensor(np.ones((1, 4))), Tensor(np.ones(4)),
                             Tensor(np.zeros(4)))

    def test_batchnorm_output_standardized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(64, 6))
        with Tape():
            out = ad.batchnorm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert np.abs(out.data.mean(axis=0)).max() < 1e-10
        assert np.abs(out.data.std(axis=0) - 1.0).max() < 1e-3

    def test_layernorm_per_sample(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 3, size=(5, 8))
        with Tape():
            out = ad.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-10


class TestNumericalStability:
    def test_softmax_large_logits(self):
        x = np.array([[1000.0, 999.0, 0.0]])
        with Tape():
            p = ad.softmax(Tensor(x))
        assert np.isfinite(p.data).all()
        assert abs(p.data.sum() - 1.0) < 1e-12

    def test_logsumexp_large_logits(self):
        x = np.array([[1000.0, 999.0]])
        with Tape():
            v = ad.logsumexp(Tensor(x))
        expect = 1000.0 + np.log(1 + np.exp(-1.0))
        assert abs(v.data[0] - expect) < 1e-9


class TestTapeSemantics:
    def test_backward_requires_scalar(self):
        with Tape():
            t = Tensor(np.ones((2, 2)), requires_grad=True)
            out = ad.mul(t, t)
            with pytest.raises(ValueError):
                ad.backward(out)

    def test_grads_accumulate_across_backwards(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        for _ in range(2):
            with Tape():
                ad.backward(ad.tensor_sum(ad.mul(t, t)))
        assert np.allclose(t.grad, 2 * np.array([4.0]))

    def test_zero_grads(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        with Tape():
            ad.backward(ad.tensor_sum(t))
        ad.zero_grads([t])
        assert t.grad is None

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 4))
        grads = []
        for _ in range(2):
            t = Tensor(x.copy(), requires_grad=True)
            with Tape():
                ad.backward(ad.tensor_mean(ad.softmax(ad.matmul(t, t.data.T @ x))))
            grads.append(t.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_shape_mismatch_raises(self):
        with Tape():
            with pytest.raises(ShapeError):
                ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_exiting_a_tape_that_is_not_active_raises(self):
        outer, inner = Tape(), Tape()
        with outer:
            inner.__enter__()
            with pytest.raises(RuntimeError, match="exiting a tape that is not active"):
                outer.__exit__(None, None, None)
            assert ad.active_tape() is inner
            inner.__exit__(None, None, None)
        assert ad.active_tape() is None


class TestSGD:
    def test_single_step(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.0)
        with Tape():
            ad.backward(ad.tensor_sum(ad.mul(p, p)))
        opt.step()
        # gradient of sum(p^2) is 2p
        assert np.allclose(p.data, np.array([1.0, -2.0]) * (1 - 0.2))

    def test_momentum_two_steps(self):
        # with v <- m v + g and p <- p - lr v, the second step applies
        # (1 + m) times the new gradient history: 2.9 * lr * g for m=0.9
        # and a constant gradient field g = 1.
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(2):
            with Tape():
                ad.backward(ad.tensor_sum(p))
            opt.step()
        assert np.allclose(p.data, -0.1 * (1.0 + 1.9))

    @pytest.mark.parametrize("lr,momentum", [(0.1, 0.9), (0.03, 0.0), (1e-3, 0.5)])
    def test_momentum_steps_match_reference_formula_exactly(self, lr, momentum):
        rng = np.random.default_rng(5)
        shapes = [(3, 4), (7,), (2, 1, 3, 3)]
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        ref_p = [p.data.copy() for p in params]
        ref_v = [np.zeros(s) for s in shapes]
        opt = SGD(params, lr=lr, momentum=momentum)
        for _ in range(6):
            grads = [rng.standard_normal(s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            for i, g in enumerate(grads):
                ref_v[i] = momentum * ref_v[i] + g
                ref_p[i] = ref_p[i] - lr * ref_v[i]
            for p, rp, v, rv in zip(params, ref_p, opt.velocity, ref_v):
                assert np.array_equal(p.data, rp)
                assert np.array_equal(v, rv)

    def test_step_clears_grads(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1)
        with Tape():
            ad.backward(ad.tensor_sum(p))
        opt.step()
        assert p.grad is None

    def test_step_without_grad_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.step()


_ENS = co.ensemble(*np.random.default_rng(9).uniform(-2.0, 3.0, (2, 6, 5)), tau=1.3)
_KEEP = np.array([True, False, True, True, True, False])


def node(op, shapes, build, id=None):
    """One node kind the tape records: build(*tensors) records exactly one."""
    return pytest.param(op, shapes, build, id=id or op)


NODE_KINDS = [
    node("add", [(4, 5), (5,)], ad.add),
    node("sub", [(4, 5), (4, 1)], ad.sub),
    node("mul", [(4, 5), (4, 5)], ad.mul),
    node("scalar_div", [(4, 5)], lambda a: ad.scalar_div(a, 3.0)),
    node("matmul", [(4, 3), (3, 5)], ad.matmul),
    node("linear", [(4, 3), (3, 5), (5,)], ad.linear),
    node("conv2d", [(2, 3, 5, 4), (4, 3, 3, 3)], ad.conv2d),
    node("conv2d", [(2, 3, 5, 4), (4, 3, 3, 3), (4,)], ad.conv2d, id="conv2d_bias"),
    node("relu", [(4, 5)], ad.relu),
    node("reshape", [(2, 3, 4)], lambda a: ad.reshape(a, (2, -1))),
    node("sum", [(4, 5)], ad.tensor_sum),
    node("sum", [(4, 5)], lambda a: ad.tensor_sum(a, axis=0), id="sum_axis"),
    node("mean", [(4, 5)], ad.tensor_mean),
    node("mean", [(4, 5)], lambda a: ad.tensor_mean(a, axis=-1), id="mean_axis"),
    node("softmax", [(4, 5)], ad.softmax),
    node("logsumexp", [(4, 5)], ad.logsumexp),
    node("batchnorm", [(4, 3, 2, 2), (3,), (3,)], ad.batchnorm),
    node("layernorm", [(4, 5), (5,), (5,)], ad.layernorm),
    node("cross_entropy", [(6, 5)],
         lambda z: cross_entropy_mean(z, np.array([0, 4, 1, 1, 3, 2]))),
    node("coca_objective", [(6, 5), (6, 5), (6, 5)],
         lambda a, s, e: co._combined_loss(a, s, e, _ENS.y_hat, _KEEP, 0.7,
                                           co.LossMasks())[0]),
    node("ensemble_logits", [(6, 5), (6, 5)], lambda a, s: co._ensemble_tensor(a, s, _ENS)),
]


def copying_accumulate_grad(self, g):
    """Tensor.accumulate_grad with the first gradient copied, as it once was."""
    if self.grad is None:
        self.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        self.grad = self.grad + g


class TestGradientOwnership:
    """accumulate_grad keeps the first gradient by reference. That is exact
    only while no backward function writes into its upstream gradient and
    every gradient has its tensor's shape."""

    def test_node_kinds_cover_every_recorded_op(self):
        text = "".join(inspect.getsource(m) for m in (ad, co, models))
        recorded = set(re.findall(r'(?:_record|_normalize)\("(\w+)"', text))
        assert recorded == {p.values[0] for p in NODE_KINDS}

    @pytest.mark.parametrize("op,shapes,build", NODE_KINDS)
    def test_backward_reads_a_read_only_upstream_gradient(self, op, shapes, build,
                                                          monkeypatch):
        recorded = []
        record = ad._record

        def naming_record(op_name, *args):
            recorded.append(op_name)
            return record(op_name, *args)

        monkeypatch.setattr(ad, "_record", naming_record)
        rng = np.random.default_rng(2)
        tensors = [Tensor(rng.uniform(-2.0, 2.0, s), requires_grad=True) for s in shapes]
        with Tape() as tape:
            out = build(*tensors)
        assert recorded == [op] and len(tape) == 1
        backward_fn = tape._nodes[0].backward_fn
        g = np.array(rng.standard_normal(out.shape))
        frozen = g.copy()
        frozen.flags.writeable = False
        want = backward_fn(g)
        got = backward_fn(frozen)
        assert np.array_equal(g, frozen)   # nor is a writeable one written into
        assert len(got) == len(want)
        for w, r, t in zip(want, got, tensors):
            assert w is not None and r is not None
            assert w.shape == r.shape == t.shape
            assert np.array_equal(w, r)

    @staticmethod
    def add_two_leaves():
        rng = np.random.default_rng(8)
        a, b = (Tensor(rng.standard_normal((4, 3)), requires_grad=True) for _ in range(2))
        w = Tensor(rng.standard_normal((4, 3)))
        opt = SGD([a, b], lr=0.1, momentum=0.9)
        grads = []
        for _ in range(2):
            with Tape():
                ad.backward(ad.tensor_sum(ad.mul(ad.add(a, b), w)))
            grads.append((a.grad is b.grad, a.grad.tobytes(), b.grad.tobytes()))
        opt.step()
        return grads, a.data.tobytes(), b.data.tobytes()

    def test_add_shares_one_gradient_between_leaves_exactly(self, monkeypatch):
        grads, a, b = self.add_two_leaves()
        assert grads[0][0]   # both leaves hold add's one upstream array
        monkeypatch.setattr(Tensor, "accumulate_grad", copying_accumulate_grad)
        ref_grads, ref_a, ref_b = self.add_two_leaves()
        assert [g[1:] for g in grads] == [g[1:] for g in ref_grads]
        assert (a, b) == (ref_a, ref_b)

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="mlp", input_shape=(12,), hidden_sizes=[16, 8],
                  norm_kind="layernorm", num_classes=4),
        ModelSpec(kind="mlp", input_shape=(12,), hidden_sizes=[16],
                  norm_kind="batchnorm", num_classes=4),
        ModelSpec(kind="convnet", input_shape=(2, 6, 6), hidden_sizes=[4, 3],
                  norm_kind="batchnorm", num_classes=4),
    ], ids=["mlp_layernorm", "mlp_batchnorm", "convnet"])
    def test_pretrain_matches_copying_accumulation_exactly(self, spec, monkeypatch):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40,) + spec.input_shape)
        y = rng.integers(0, spec.num_classes, 40)

        def pretrained():
            m = build_model(spec, seed=3)
            pretrain(m, x, y, epochs=2, lr=0.05, seed=1, batch_size=16)
            return {name: p.data.tobytes() for name, p in m.params.items()}

        got = pretrained()
        monkeypatch.setattr(Tensor, "accumulate_grad", copying_accumulate_grad)
        assert got == pretrained()

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_wrongly_shaped_gradient_raises(self, first):
        # a (1, C) gradient for a (B, C) input: stored as the first gradient
        # it would stay wrong, and as a later one it would broadcast
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with Tape():
            def bad():
                return ad._record("bad", (x,), np.asarray(x.data.sum()),
                                  lambda g: (np.ones((1, 3)),))

            # backward runs nodes last-recorded first
            loss = ad.add(ad.tensor_sum(x), bad()) if first else ad.add(bad(), ad.tensor_sum(x))
            with pytest.raises(ShapeError, match="accumulate_grad: gradient shape"):
                ad.backward(loss)


# perfbench/tracer.py wraps these by name; TestBenchmarkContract pins them too
TRACER_OPS = ("matmul", "conv2d", "layernorm", "batchnorm", "logsumexp", "softmax",
              "add", "mul")


def names_taken_from_autodiff(text: str) -> set[str]:
    """Names that ``text`` reads as ``ad.name``/``autodiff.name`` or imports from autodiff."""
    used = set(re.findall(r"\b(?:ad|autodiff)\.(\w+)", text))
    for names in re.findall(r"^from \S*autodiff import (\([^)]*\)|.*)$", text, re.M):
        used.update(re.findall(r"\w+", names))
    return used


def test_every_public_op_has_a_caller():
    # an op that no run, test oracle or tracer calls exists only for its own
    # tests; it is deleted rather than kept up
    src = Path(ad.__file__).parent
    texts = [p.read_text() for p in sorted(src.glob("*.py")) if p.name != "autodiff.py"]
    texts.append((Path(__file__).parent / "oracles.py").read_text())
    used = names_taken_from_autodiff("\n".join(texts)) | set(TRACER_OPS)
    assert [name for name in ad.__all__ if name not in used] == []
