"""Task generators, corruption operators and stream ordering."""

import numpy as np
import pytest

from coca_tta.shiftgen import (CONTRAST_SCALE, CorruptionSpec, GAUSSIAN_NOISE_STD,
                               SourceTask, StreamSpec, apply_corruption,
                               class_centers, gen_source, make_stream)


def mixture(C=8, dims=32, sep=6.0):
    return SourceTask(kind="gaussian_mixture", num_classes=C, dims=dims,
                      center_separation=sep)


class TestSourceTask:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceTask(kind="text", num_classes=2)

    def test_rejects_a_single_class(self):
        with pytest.raises(ValueError, match="num_classes must be >= 2"):
            SourceTask(kind="gaussian_mixture", num_classes=1)

    def test_rejects_more_classes_than_dims(self):
        with pytest.raises(ValueError):
            SourceTask(kind="gaussian_mixture", num_classes=33, dims=32)
        # the orthogonal class centres of an image task need a pixel each
        with pytest.raises(ValueError, match="num_classes <= feature dimensions"):
            SourceTask(kind="procedural_images", num_classes=10, image_shape=(1, 2, 2))
        SourceTask(kind="procedural_images", num_classes=4, image_shape=(1, 2, 2))

    @pytest.mark.parametrize("field,value", [
        ("center_separation", float("nan")), ("center_separation", 0.0),
        ("center_separation", -6.0), ("center_separation", float("inf"))])
    def test_rejects_degenerate_scales(self, field, value):
        # a NaN or negative scale ran to chance accuracy without an error; at 0
        # the class centers coincide, and an infinite one makes the features infinite
        with pytest.raises(ValueError, match=field):
            SourceTask(kind="gaussian_mixture", num_classes=4, dims=8, **{field: value})

    def test_centers_fixed_by_task_not_draw_seed(self):
        task = mixture()
        a, la = gen_source(task, n_per_class=200, seed=1)
        b, lb = gen_source(task, n_per_class=200, seed=2)
        # different draws, same underlying class means
        mean_a = np.stack([a[la == c].mean(axis=0) for c in range(8)])
        mean_b = np.stack([b[lb == c].mean(axis=0) for c in range(8)])
        assert np.abs(mean_a - mean_b).max() < 0.5

    def test_center_pairwise_distance(self):
        task = mixture(C=4, sep=5.0)
        centers = class_centers(task)
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.linalg.norm(centers[i] - centers[j])
                assert abs(d - 5.0) < 1e-9


class TestGenSource:
    def test_deterministic(self):
        task = mixture()
        a = gen_source(task, n_per_class=10, seed=42)
        b = gen_source(task, n_per_class=10, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_balanced_labels(self):
        _, labels = gen_source(mixture(C=5), n_per_class=7, seed=0)
        assert np.array_equal(np.bincount(labels), np.full(5, 7))

    def test_nearest_center_recovers_labels(self):
        # with separation 6 the Bayes error is negligible: nearest-center
        # classification must agree with the generating labels >= 99%
        task = mixture(sep=6.0)
        feats, labels = gen_source(task, n_per_class=400, seed=3)
        centers = class_centers(task)
        d2 = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert (d2.argmin(axis=1) == labels).mean() >= 0.99

    def test_image_task_shapes(self):
        task = SourceTask(kind="procedural_images", num_classes=3,
                          image_shape=(1, 6, 6))
        feats, labels = gen_source(task, n_per_class=4, seed=0)
        assert feats.shape == (12, 1, 6, 6)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            gen_source(mixture(), n_per_class=0, seed=0)


class TestCorruptions:
    def setup_method(self):
        self.feats, self.labels = gen_source(mixture(), n_per_class=100, seed=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorruptionSpec(kind="fog", severity=1)
        with pytest.raises(ValueError):
            CorruptionSpec(kind="gaussian_noise", severity=6)

    def test_deterministic(self):
        spec = CorruptionSpec(kind="gaussian_noise", severity=3)
        a = apply_corruption(self.feats, spec, seed=9)
        b = apply_corruption(self.feats, spec, seed=9)
        assert np.array_equal(a, b)

    def test_gaussian_noise_std_table(self):
        for s, mult in GAUSSIAN_NOISE_STD.items():
            spec = CorruptionSpec(kind="gaussian_noise", severity=s)
            delta = apply_corruption(self.feats, spec, seed=1) - self.feats
            expect = mult * self.feats.std()
            assert abs(delta.std() - expect) / expect < 0.02

    def test_noise_monotone_in_severity(self):
        for kind in ("gaussian_noise", "uniform_noise"):
            spreads = []
            for s in range(1, 6):
                out = apply_corruption(
                    self.feats, CorruptionSpec(kind=kind, severity=s), seed=2)
                spreads.append((out - self.feats).std())
            assert all(a < b for a, b in zip(spreads, spreads[1:]))

    def test_contrast_is_exact_scaling(self):
        for s, scale in CONTRAST_SCALE.items():
            out = apply_corruption(
                self.feats, CorruptionSpec(kind="contrast_scale", severity=s), seed=0)
            assert np.allclose(out, self.feats * scale)

    def test_rotation_preserves_norms(self):
        out = apply_corruption(
            self.feats, CorruptionSpec(kind="feature_rotation", severity=4), seed=5)
        assert np.allclose(np.linalg.norm(out, axis=1),
                           np.linalg.norm(self.feats, axis=1))

    def test_rotation_angle_matches_table(self):
        # rotating a single plane by theta moves every vector by an angle
        # whose cosine is >= cos(theta); the mean displacement over many
        # planes tracks the configured angle
        out = apply_corruption(
            self.feats, CorruptionSpec(kind="feature_rotation", severity=1), seed=5)
        cosang = (out * self.feats).sum(axis=1) / (
            np.linalg.norm(out, axis=1) * np.linalg.norm(self.feats, axis=1))
        assert cosang.min() >= np.cos(np.deg2rad(10.0)) - 1e-9

    def test_blur_requires_images(self):
        with pytest.raises(ValueError):
            apply_corruption(self.feats, CorruptionSpec(kind="blur3x3", severity=1), 0)

    def test_blur_preserves_constant_images(self):
        # interior of a constant image is unchanged; padding only affects edges
        x = np.ones((2, 1, 8, 8))
        out = apply_corruption(x, CorruptionSpec(kind="blur3x3", severity=2), 0)
        assert np.allclose(out[:, :, 2:6, 2:6], 1.0)

    def test_blur_smooths_noise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 1, 8, 8))
        prev = x.std()
        for s in range(1, 6):
            out = apply_corruption(x, CorruptionSpec(kind="blur3x3", severity=s), 0)
            assert out.std() < prev
            prev = out.std()

    def test_labels_unmodified_semantics(self):
        spec = CorruptionSpec(kind="gaussian_noise", severity=5)
        out = apply_corruption(self.feats, spec, seed=0)
        assert out.shape == self.feats.shape


class TestStreams:
    def setup_method(self):
        self.feats, self.labels = gen_source(mixture(C=4), n_per_class=50, seed=0)

    def test_iid_deterministic_in_seed(self):
        spec = StreamSpec(order="iid_shuffled", batch_size=16)
        a = [y for _, y in make_stream(self.feats, self.labels, spec, 5)]
        b = [y for _, y in make_stream(self.feats, self.labels, spec, 5)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_label_sorted_is_nondecreasing(self):
        spec = StreamSpec(order="label_sorted", batch_size=16)
        seen = np.concatenate([y for _, y in make_stream(self.feats, self.labels, spec, 0)])
        assert np.all(np.diff(seen) >= 0)

    def test_mixed_blocks_are_pure_but_shuffled(self):
        spec = StreamSpec(order="mixed_blocks", batch_size=25)
        batches = [y for _, y in make_stream(self.feats, self.labels, spec, 1)]
        purities = [len(np.unique(y)) for y in batches]
        assert max(purities) <= 2  # blocks follow class boundaries
        firsts = [int(y[0]) for y in batches]
        assert firsts != sorted(firsts)  # block order is shuffled

    def test_total_samples_cap(self):
        spec = StreamSpec(order="iid_shuffled", batch_size=16, total_samples=40)
        n = sum(len(y) for _, y in make_stream(self.feats, self.labels, spec, 0))
        assert n == 40

    def test_drops_final_singleton(self):
        spec = StreamSpec(order="iid_shuffled", batch_size=16, total_samples=33)
        sizes = [len(y) for _, y in make_stream(self.feats, self.labels, spec, 0)]
        assert sizes == [16, 16]

    def test_batch_pairs_features_with_labels(self):
        spec = StreamSpec(order="iid_shuffled", batch_size=16)
        for xb, yb in make_stream(self.feats, self.labels, spec, 2):
            centers = class_centers(mixture(C=4))
            d2 = ((xb[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assert (d2.argmin(axis=1) == yb).mean() > 0.9

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            list(make_stream(np.zeros((0, 4)), np.zeros(0, dtype=int), StreamSpec(), 0))

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            StreamSpec(order="sorted_by_vibes")

    @pytest.mark.parametrize("batch_size", [1, 0, -4])
    def test_rejects_batches_below_two(self, batch_size):
        # make_stream drops every batch of one sample, so such a stream is empty
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            StreamSpec(batch_size=batch_size)

    @pytest.mark.parametrize("total", [1, -1])
    def test_rejects_a_total_that_makes_no_batch(self, total):
        with pytest.raises(ValueError, match="total_samples"):
            StreamSpec(total_samples=total)

