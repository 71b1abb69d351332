"""Model construction, training, ranking, and checkpoint round-trips."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coca_tta import autodiff as ad
from coca_tta.autodiff import SGD, ShapeError, Tape, Tensor
from coca_tta.models import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError,
                             ModelSpec, anchor_select, build_model, cross_entropy_mean,
                             forward_logits, load_checkpoint, param_shapes, pretrain,
                             save_checkpoint)
from coca_tta.shiftgen import SourceTask, gen_source
from test_autodiff import check_op


def small_spec(hidden=(3,), norm="batchnorm", dims=4, classes=2):
    return ModelSpec(kind="mlp", input_shape=(dims,), hidden_sizes=list(hidden),
                     norm_kind=norm, num_classes=classes)


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="rnn", input_shape=(4,), hidden_sizes=[3],
                      norm_kind="batchnorm", num_classes=2)

    def test_rejects_empty_hidden(self):
        with pytest.raises(ValueError):
            small_spec(hidden=())

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            small_spec(classes=1)

    def test_convnet_rejects_layernorm(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="convnet", input_shape=(1, 8, 8), hidden_sizes=[4, 4],
                      norm_kind="layernorm", num_classes=2)

    def test_convnet_requires_two_blocks(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="convnet", input_shape=(1, 8, 8), hidden_sizes=[4],
                      norm_kind="batchnorm", num_classes=2)

    @pytest.mark.parametrize("kind,input_shape,norm_kind,message", [
        ("mlp", (4,), "groupnorm", "unsupported norm kind: 'groupnorm'"),
        ("mlp", (1, 8, 8), "layernorm", "mlp input_shape must be 1-D"),
        ("convnet", (64,), "batchnorm", "convnet input_shape must be (channels, height, width)"),
    ], ids=["norm_kind", "mlp_input_rank", "convnet_input_rank"])
    def test_rejects_malformed_spec(self, kind, input_shape, norm_kind, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelSpec(kind=kind, input_shape=input_shape, hidden_sizes=[4, 4],
                      norm_kind=norm_kind, num_classes=2)


class TestBuildModel:
    def test_param_count_hand_total(self):
        # input 4 -> hidden 3 (W 12, b 3, scale 3, shift 3) -> head (W 6, b 2)
        model = build_model(small_spec(), seed=0)
        assert model.param_count == 12 + 3 + 3 + 3 + 6 + 2

    def test_convnet_param_count_hand_total(self):
        # blocks: (4,1,3,3)+4+4+4 = 48, (4,4,3,3)+4+4+4 = 156; head: 4*8*8*2+2
        spec = ModelSpec(kind="convnet", input_shape=(1, 8, 8), hidden_sizes=[4, 4],
                         norm_kind="batchnorm", num_classes=2)
        model = build_model(spec, seed=0)
        assert model.param_count == 48 + 156 + (4 * 8 * 8 * 2 + 2)

    @pytest.mark.parametrize("spec", [
        small_spec(hidden=(3, 5)),
        ModelSpec(kind="convnet", input_shape=(2, 5, 4), hidden_sizes=[3, 6],
                  norm_kind="batchnorm", num_classes=3),
    ], ids=["mlp", "convnet"])
    def test_param_shapes_are_the_built_shapes(self, spec):
        model = build_model(spec, seed=0)
        assert [(n, p.shape) for n, p in model.params.items()] == list(param_shapes(spec).items())

    def test_deterministic_init(self):
        a = build_model(small_spec(), seed=11)
        b = build_model(small_spec(), seed=11)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_seeds_differ(self):
        a = build_model(small_spec(), seed=1)
        b = build_model(small_spec(), seed=2)
        assert not np.array_equal(a.params["layer0.weight"].data,
                                  b.params["layer0.weight"].data)

    def test_he_uniform_bound(self):
        model = build_model(small_spec(dims=16), seed=0)
        w = model.params["layer0.weight"].data
        assert np.abs(w).max() <= np.sqrt(6.0 / 16)

    def test_norm_params_are_affines_only(self):
        model = build_model(small_spec(hidden=(3, 5)), seed=0)
        names = set(model.norm_param_names)
        assert names == {"layer0.norm_scale", "layer0.norm_shift",
                         "layer1.norm_scale", "layer1.norm_shift"}


class TestForward:
    def test_logit_shape(self):
        model = build_model(small_spec(classes=3), seed=0)
        out = forward_logits(model, Tensor(np.zeros((8, 4))))
        assert out.shape == (8, 3)

    def test_rejects_wrong_input_shape(self):
        model = build_model(small_spec(), seed=0)
        with pytest.raises(ShapeError):
            forward_logits(model, Tensor(np.zeros((8, 5))))

    def test_batchnorm_rejects_batch_of_one(self):
        model = build_model(small_spec(norm="batchnorm"), seed=0)
        with pytest.raises(ShapeError):
            forward_logits(model, Tensor(np.zeros((1, 4))))

    def test_layernorm_allows_batch_of_one(self):
        model = build_model(small_spec(norm="layernorm"), seed=0)
        out = forward_logits(model, Tensor(np.zeros((1, 4))))
        assert out.shape == (1, 2)

    def test_convnet_forward(self):
        spec = ModelSpec(kind="convnet", input_shape=(1, 6, 6), hidden_sizes=[3, 3],
                         norm_kind="batchnorm", num_classes=4)
        model = build_model(spec, seed=0)
        out = forward_logits(model, Tensor(np.random.default_rng(0)
                                           .standard_normal((5, 1, 6, 6))))
        assert out.shape == (5, 4)


def forward_composed(model, x):
    """forward_logits with every affine layer as matmul followed by add."""
    p, spec = model.params, model.spec
    if spec.kind == "mlp":
        norm = ad.batchnorm if spec.norm_kind == "batchnorm" else ad.layernorm
        for i in range(len(spec.hidden_sizes)):
            x = ad.add(ad.matmul(x, p[f"layer{i}.weight"]), p[f"layer{i}.bias"])
            x = ad.relu(norm(x, p[f"layer{i}.norm_scale"], p[f"layer{i}.norm_shift"]))
    else:
        for i in range(len(spec.hidden_sizes)):
            x = ad.conv2d(x, p[f"block{i}.weight"])
            x = ad.add(x, ad.reshape(p[f"block{i}.bias"], (1, -1, 1, 1)))
            x = ad.batchnorm(x, p[f"block{i}.norm_scale"], p[f"block{i}.norm_shift"])
            x = ad.relu(x)
        x = ad.reshape(x, (x.shape[0], -1))
    return ad.add(ad.matmul(x, p["head.weight"]), p["head.bias"])


class TestLinearLayers:
    """ad.linear is bit-identical to matmul followed by add, values and grads."""

    @pytest.mark.parametrize("spec", [
        small_spec(hidden=(16, 8), norm="layernorm", dims=6, classes=5),
        small_spec(hidden=(12,), norm="batchnorm", dims=6, classes=5),
        ModelSpec(kind="convnet", input_shape=(2, 5, 5), hidden_sizes=[3, 4],
                  norm_kind="batchnorm", num_classes=5),
    ], ids=["mlp-layernorm", "mlp-batchnorm", "convnet"])
    @pytest.mark.parametrize("norm_only", [False, True])
    def test_logits_and_grads_match_composition(self, spec, norm_only):
        x = np.random.default_rng(1).standard_normal((10,) + spec.input_shape)
        labels = np.arange(10) % 5
        results = []
        for forward in (forward_logits, forward_composed):
            model = build_model(spec, seed=3)
            model.set_trainable(norm_only=norm_only)
            with Tape():
                logits = forward(model, Tensor(x))
                ad.backward(cross_entropy_mean(logits, labels))
            results.append((logits.data, {n: t.grad for n, t in model.params.items()}))
        (got, got_grads), (ref, ref_grads) = results
        assert np.array_equal(got, ref)
        for name, g in ref_grads.items():
            if g is None:
                assert got_grads[name] is None
            else:
                assert np.array_equal(got_grads[name], g), name


def cross_entropy_composed(logits, labels):
    """cross_entropy_mean as the 5-node tape composition it replaces."""
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    lse = ad.logsumexp(logits)
    picked = ad.tensor_sum(ad.mul(logits, onehot), axis=-1)
    return ad.tensor_mean(ad.sub(lse, picked))


class TestCrossEntropy:
    @pytest.mark.parametrize("scale", [1.0, 300.0], ids=["unit", "large-logits"])
    def test_value_and_grad_match_composition(self, scale):
        z = scale * np.random.default_rng(0).standard_normal((9, 6))
        labels = np.array([0, 5, 2, 2, 1, 3, 4, 5, 0])
        results = []
        for ce in (cross_entropy_mean, cross_entropy_composed):
            logits = Tensor(z.copy(), requires_grad=True)
            with Tape():
                loss = ce(logits, labels)
                ad.backward(loss)
            results.append((loss.data, logits.grad))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    @pytest.mark.parametrize("scale", [1.0, 300.0], ids=["unit", "large-logits"])
    def test_ckd_loss_grads_match_composition(self, monkeypatch, scale):
        # the upstream gradient of each cross-entropy is 0.37 through ckd_loss's add
        import oracles
        rng = np.random.default_rng(1)
        z_a, z_s = scale * rng.standard_normal((2, 12, 5))
        y_hat = rng.integers(0, 5, 12)
        results = []
        for ce in (cross_entropy_mean, cross_entropy_composed):
            monkeypatch.setattr(oracles, "cross_entropy_mean", ce)
            a = Tensor(z_a.copy(), requires_grad=True)
            s = Tensor(z_s.copy(), requires_grad=True)
            with Tape():
                loss = ad.mul(oracles.ckd_loss(a, s, y_hat), 0.37)
                ad.backward(loss)
            results.append((loss.data, a.grad, s.grad))
        for got, ref in zip(*results):
            assert np.array_equal(got, ref)

    def test_matches_finite_differences(self):
        labels = np.array([3, 0, 1, 3, 2])
        check_op(lambda z: cross_entropy_mean(z, labels), [(5, 4)], n_cases=30)

    def test_records_one_node(self):
        logits = Tensor(np.zeros((4, 3)), requires_grad=True)
        with Tape() as tape:
            cross_entropy_mean(logits, np.array([0, 1, 2, 1]))
            assert len(tape) == 1

    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((6, 4)))
        loss = cross_entropy_mean(logits, np.zeros(6, dtype=int))
        assert abs(loss.item() - np.log(4)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_mean(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestPretrain:
    def task_data(self, seed=0):
        task = SourceTask(kind="gaussian_mixture", num_classes=4, dims=8,
                          center_separation=6.0)
        return gen_source(task, n_per_class=50, seed=seed)

    def test_loss_decreases_and_fits(self):
        feats, labels = self.task_data()
        model = build_model(small_spec(hidden=(16,), dims=8, classes=4), seed=0)
        log = pretrain(model, feats, labels, epochs=15, lr=0.05, seed=1)
        assert log[-1]["loss"] < log[0]["loss"]
        assert log[-1]["accuracy"] > 0.9

    def test_deterministic(self):
        feats, labels = self.task_data()
        logs = []
        for _ in range(2):
            model = build_model(small_spec(hidden=(8,), dims=8, classes=4), seed=3)
            logs.append(pretrain(model, feats, labels, epochs=3, lr=0.05, seed=7))
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("kind", ["mlp", "convnet"])
    def test_matches_composed_loss_byte_for_byte(self, monkeypatch, kind):
        from coca_tta import models
        if kind == "mlp":
            spec = small_spec(hidden=(16, 8), norm="layernorm", dims=8, classes=4)
            feats, labels = self.task_data()
        else:
            spec = ModelSpec(kind="convnet", input_shape=(1, 6, 6), hidden_sizes=[3, 4],
                             norm_kind="batchnorm", num_classes=4)
            task = SourceTask(kind="procedural_images", num_classes=4,
                              image_shape=(1, 6, 6), center_separation=9.0)
            feats, labels = gen_source(task, n_per_class=20, seed=0)
        results = []
        for ce in (cross_entropy_mean, cross_entropy_composed):
            monkeypatch.setattr(models, "cross_entropy_mean", ce)
            model = build_model(spec, seed=2)
            # 1 / 24 is inexact, so a reordered product in the backward would show
            log = pretrain(model, feats, labels, epochs=3, lr=0.05, seed=4, batch_size=24)
            results.append((json.dumps(log), [p.data.tobytes() for p in model.all_params()]))
        assert results[0] == results[1]

    def test_convnet_step_records_nine_nodes(self):
        # per block conv2d with its bias inside, batchnorm and relu; then
        # reshape, linear and cross_entropy
        spec = ModelSpec(kind="convnet", input_shape=(1, 6, 6), hidden_sizes=[3, 4],
                         norm_kind="batchnorm", num_classes=4)
        model = build_model(spec, seed=0)
        model.set_trainable(norm_only=False)
        x = np.random.default_rng(0).standard_normal((5, 1, 6, 6))
        with Tape() as tape:
            cross_entropy_mean(forward_logits(model, Tensor(x)), np.arange(5) % 4)
            assert len(tape) == 9

    def test_rejects_empty_dataset(self):
        model = build_model(small_spec(), seed=0)
        with pytest.raises(ValueError):
            pretrain(model, np.zeros((0, 4)), np.zeros(0, dtype=int),
                     epochs=1, lr=0.1, seed=0)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_rejects_batch_size_below_one(self, batch_size):
        feats, labels = self.task_data()
        model = build_model(small_spec(hidden=(8,), dims=8, classes=4), seed=0)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            pretrain(model, feats, labels, epochs=1, lr=0.1, seed=0, batch_size=batch_size)

    @pytest.mark.parametrize("n,batch_size", [(200, 1), (1, 64)])
    def test_batchnorm_without_a_usable_batch_raises(self, n, batch_size):
        # batchnorm skips batches of one sample; an epoch of only those
        # used to end in a ZeroDivisionError
        feats, labels = self.task_data()
        model = build_model(small_spec(hidden=(8,), norm="batchnorm", dims=8, classes=4),
                            seed=0)
        with pytest.raises(ValueError, match="no usable batch"):
            pretrain(model, feats[:n], labels[:n], epochs=1, lr=0.1, seed=0,
                     batch_size=batch_size)

    def test_rejects_zero_epochs(self):
        feats, labels = self.task_data()
        model = build_model(small_spec(hidden=(8,), dims=8, classes=4), seed=0)
        with pytest.raises(ValueError):
            pretrain(model, feats, labels, epochs=0, lr=0.1, seed=0)

    def test_batchnorm_skips_a_one_sample_final_batch(self, monkeypatch):
        # 65 samples in batches of 64 leave one sample over each epoch: a
        # batchnorm model takes no step on it, and it is not in the accuracy
        from coca_tta import models
        feats, labels = self.task_data()
        model = build_model(small_spec(hidden=(8,), norm="batchnorm", dims=8, classes=4),
                            seed=0)
        steps, batches = [], []
        real_step, real_ce = SGD.step, models.cross_entropy_mean

        def counting_step(opt):
            steps.append(len(batches))
            real_step(opt)

        def recording_ce(logits, yb):
            batches.append((logits.data.argmax(axis=1) == yb).sum())
            return real_ce(logits, yb)

        monkeypatch.setattr(SGD, "step", counting_step)
        monkeypatch.setattr(models, "cross_entropy_mean", recording_ce)
        log = pretrain(model, feats[:65], labels[:65], epochs=3, lr=0.05, seed=0)
        assert steps == [1, 2, 3]
        assert [e["accuracy"] for e in log] == [c / 64 for c in batches]


class TestAnchorSelect:
    def test_larger_param_count_first(self):
        small = build_model(small_spec(hidden=(3,)), seed=0)
        large = build_model(small_spec(hidden=(32, 32)), seed=0)
        assert anchor_select([small, large])[0] is large

    def test_tie_breaks_by_declaration_order(self):
        a = build_model(small_spec(), seed=1)
        b = build_model(small_spec(), seed=2)
        assert anchor_select([a, b])[0] is a

    def test_published_profile_ordering(self):
        # 86.6M-parameter model anchors over 25.6M; 11.7M over 10.6M
        counts = {"vit_b": 86.6, "rn50": 25.6, "rn18": 11.7, "mvit": 10.6}

        class Fake:
            def __init__(self, c):
                self.param_count = c

        models = [Fake(counts["rn50"]), Fake(counts["vit_b"])]
        assert anchor_select(models)[0].param_count == counts["vit_b"]
        models = [Fake(counts["mvit"]), Fake(counts["rn18"])]
        assert anchor_select(models)[0].param_count == counts["rn18"]

    def test_one_model_is_its_own_order(self):
        model = build_model(small_spec(), seed=0)
        ordered = anchor_select([model])
        assert len(ordered) == 1 and ordered[0] is model


class TestAdaptationMode:
    def test_norm_only_freezes_weights(self):
        feats = np.random.default_rng(0).standard_normal((32, 4))
        model = build_model(small_spec(hidden=(6,)), seed=0)
        model.set_trainable(norm_only=True)
        frozen = {n: p.data.copy() for n, p in model.params.items()
                  if n not in model.norm_param_names}
        from coca_tta.adaptation import multi_model_step
        from coca_tta.autodiff import SGD
        opt = SGD(model.norm_params(), lr=0.1)
        multi_model_step([model], [], feats, [opt])
        for name, before in frozen.items():
            assert np.array_equal(model.params[name].data, before)


class TestCheckpoint:
    def trained(self, tmp_path):
        task = SourceTask(kind="gaussian_mixture", num_classes=3, dims=4,
                          center_separation=6.0)
        feats, labels = gen_source(task, n_per_class=30, seed=0)
        model = build_model(small_spec(hidden=(6,), classes=3), seed=0)
        pretrain(model, feats, labels, epochs=3, lr=0.05, seed=0)
        return model

    def test_round_trip_bitwise(self, tmp_path):
        model = self.trained(tmp_path)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        for name in model.params:
            assert np.array_equal(loaded.params[name].data,
                                  model.params[name].data)

    def test_convnet_round_trip_bitwise(self, tmp_path):
        spec = ModelSpec(kind="convnet", input_shape=(2, 5, 4), hidden_sizes=[3, 4],
                         norm_kind="batchnorm", num_classes=3)
        model = build_model(spec, seed=5)
        rng = np.random.default_rng(0)
        for p in model.params.values():   # no parameter keeps its 1 / 0 initialization
            p.data = rng.standard_normal(p.data.shape)
        path = str(tmp_path / "conv.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == spec
        assert loaded.params["block0.weight"].data.shape == (3, 2, 3, 3)
        assert list(loaded.params) == list(model.params)
        assert loaded.norm_param_names == model.norm_param_names
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
            assert loaded.params[name].requires_grad

    def test_pinned_layout(self, tmp_path):
        # header, metadata, then the float64 parameters in param_shapes order,
        # with nothing between or after them
        model = self.trained(tmp_path)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        data = path.read_bytes()
        magic, version, meta_size = struct.unpack("<4sII", data[:12])
        assert (magic, version) == (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        assert json.loads(data[12:12 + meta_size]) == {"spec": model.spec.to_dict()}
        assert len(data) == 12 + meta_size + 8 * model.param_count
        assert data[12 + meta_size:] == b"".join(
            model.params[name].data.astype("<f8").tobytes() for name in param_shapes(model.spec))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        # a NaN norm scale used to load, and adaptation ran on at chance accuracy
        model = self.trained(tmp_path)
        model.params["layer0.norm_scale"].data[1] = value
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="'layer0.norm_scale' is not finite"):
            load_checkpoint(path)

    def test_version_one_rejected(self, tmp_path):
        # the version 1 layout repeated each parameter's name and shape
        model = self.trained(tmp_path)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        data = bytearray(path.read_bytes())
        data[4:8] = u32(1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version: 1"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("size", [0, 4, 8, 11])
    def test_shorter_than_header_rejected(self, tmp_path, size):
        path = tmp_path / "short.ckpt"
        path.write_bytes((CHECKPOINT_MAGIC + u32(CHECKPOINT_VERSION, 0))[:size])
        with pytest.raises(CheckpointError, match="magic" if size < 4 else "truncated"):
            load_checkpoint(str(path))

    def test_magic_bytes(self, tmp_path):
        model = self.trained(tmp_path)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        with open(path, "rb") as f:
            assert f.read(4) == CHECKPOINT_MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = self.trained(tmp_path)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        data = open(path, "rb").read()
        cut = str(tmp_path / "cut.ckpt")
        with open(cut, "wb") as f:
            f.write(data[:len(data) - 9])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)

    def test_repeated_parameter_rejected(self, tmp_path):
        # before the check, the last copy of a repeated name won silently
        model = self.trained(tmp_path)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        name = b"head.bias"
        forged = np.full(model.params["head.bias"].data.shape, 7.0)
        path.write_bytes(path.read_bytes() + u32(len(name)) + name
                         + u32(forged.ndim, *forged.shape) + forged.astype("<f8").tobytes())
        with pytest.raises(CheckpointError, match=SIZE_MISMATCH):
            load_checkpoint(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        model = self.trained(tmp_path)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        data = bytearray(open(path, "rb").read())
        data[4:8] = (99).to_bytes(4, "little")
        with open(path, "wb") as f:
            f.write(data)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version: 99"):
            load_checkpoint(path)


SIZE_MISMATCH = "bytes of parameters; its spec needs"


def u32(*values):
    return struct.pack(f"<{len(values)}I", *values)


class TestCheckpointReaderRejectsBadInput:
    """Malformed checkpoints raise CheckpointError without reading past the file."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("ckpt") / "f.ckpt"

    @pytest.fixture(scope="class")
    def prefix(self, path):
        """Magic, version and metadata of a valid checkpoint, without its parameters."""
        save_checkpoint(build_model(small_spec(hidden=(2,), dims=2), seed=0), str(path))
        data = path.read_bytes()
        return data[:12 + struct.unpack("<I", data[8:12])[0]]

    @pytest.fixture(scope="class")
    def tail(self):
        """Zero bytes as many as the prefix's parameters need: any bytes added to
        them make the bytes after the metadata longer than the spec allows."""
        return bytes(8 * build_model(small_spec(hidden=(2,), dims=2), seed=0).param_count)

    @staticmethod
    def load_bytes(path, data, match):
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(str(path))

    # the next three append bytes in the old per-parameter header layout
    # (name length, name, rank, dims) to a whole checkpoint
    def test_non_utf8_name(self, prefix, tail, path):
        self.load_bytes(path, prefix + u32(2) + b"\xff\xfe" + u32(0) + bytes(8) + tail,
                        SIZE_MISMATCH)

    def test_shape_product_beyond_int64(self, prefix, tail, path):
        # 2**21 * 2**21 * 2**22 == 2**64 wraps to 0 in int64 arithmetic
        self.load_bytes(path,
                        prefix + u32(1) + b"w" + u32(3, 2**21, 2**21, 2**22) + tail,
                        SIZE_MISMATCH)

    @pytest.mark.parametrize("meta", [b"\xff{}", b"{not json", b"[1, 2]", b"{}",
                                      json.dumps({"spec": [1], "seed": 0}).encode()])
    def test_bad_metadata(self, meta, path):
        self.load_bytes(path, CHECKPOINT_MAGIC + u32(CHECKPOINT_VERSION, len(meta)) + meta,
                        "bad checkpoint metadata")

    def test_non_integral_num_classes(self, path):
        # int(4.5) == 4 would load the file as the 4-class model it holds
        save_checkpoint(build_model(small_spec(classes=4), seed=0), str(path))
        data = path.read_bytes()
        end = 12 + struct.unpack("<I", data[8:12])[0]
        meta = json.loads(data[12:end])
        meta["spec"]["num_classes"] = 4.5
        raw = json.dumps(meta).encode()
        path.write_bytes(data[:8] + u32(len(raw)) + raw + data[end:])
        with pytest.raises(CheckpointError, match="num_classes: expected an integer"):
            load_checkpoint(str(path))

    @given(name_len=st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)),
           name=st.binary(max_size=40),
           rank=st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)),
           dims=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)), max_size=4),
           payload=st.binary(max_size=128))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_fuzzed_blob_header(self, prefix, tail, path, name_len, name, rank,
                                dims, payload):
        self.load_bytes(path,
                        prefix + u32(name_len) + name + u32(rank, *dims) + payload + tail,
                        SIZE_MISMATCH)

    @given(meta=st.one_of(
               st.binary(max_size=64),
               st.dictionaries(st.sampled_from(["spec", "seed", "param_count"]),
                               st.one_of(st.none(), st.integers(), st.text(max_size=4),
                                         st.lists(st.integers(), max_size=3)))
               .map(lambda d: json.dumps(d).encode())),
           meta_len=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_fuzzed_metadata(self, path, meta, meta_len):
        size = len(meta) if meta_len is None else meta_len
        # a size past the end is truncated metadata; otherwise no spec parses
        self.load_bytes(path, CHECKPOINT_MAGIC + u32(CHECKPOINT_VERSION, size) + meta,
                        "(truncated|bad) checkpoint metadata")

    @staticmethod
    def forged_spec_file(path, param_count):
        """Metadata declaring an MLP 1500 -> 1500 -> 2 and no parameter data.

        The metadata also carries version 1's seed and param_count keys, which
        the loader ignores: the spec alone sizes the parameters.
        """
        spec = ModelSpec(kind="mlp", input_shape=(1500,), hidden_sizes=[1500],
                         norm_kind="batchnorm", num_classes=2)
        meta = json.dumps({"spec": spec.to_dict(), "seed": 0,
                           "param_count": param_count}).encode()
        path.write_bytes(CHECKPOINT_MAGIC + u32(CHECKPOINT_VERSION, len(meta)) + meta)

    @pytest.mark.parametrize("param_count", [1500 * 1500 + 3 * 1500 + 1500 * 2 + 2, 8],
                             ids=["declared-count-matches-spec", "declared-count-differs"])
    def test_forged_spec_rejected_before_allocating(self, path, param_count):
        self.forged_spec_file(path, param_count)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="has 0 " + SIZE_MISMATCH):
                load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("spec", [
        {"kind": "mlp", "input_shape": [0], "hidden_sizes": [4]},
        {"kind": "mlp", "input_shape": [3], "hidden_sizes": [4, -2]},
        {"kind": "convnet", "input_shape": [3, 0, 4], "hidden_sizes": [2, 2]},
    ])
    def test_non_positive_sizes_rejected(self, path, spec):
        spec = dict(spec, norm_kind="batchnorm", num_classes=2)
        meta = json.dumps({"spec": spec}).encode()
        self.load_bytes(path, CHECKPOINT_MAGIC + u32(CHECKPOINT_VERSION, len(meta)) + meta,
                        "bad checkpoint metadata: .*must be positive")
