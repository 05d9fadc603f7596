"""Unit tests for noise models and the benchmark workload generator."""

import numpy as np
import pytest

from repro.core.session import session
from repro.synthetic.noise import add_background, add_hot_pixels, apply_poisson
from repro.synthetic.workloads import (
    PAPER_DATASET_SIZES_GB,
    make_benchmark_workload,
    make_grain_sample_stack,
    make_point_source_stack,
)
from repro.utils.validation import ValidationError


class TestNoise:
    def test_poisson_preserves_mean_roughly(self, rng, point_source_stack):
        stack, _ = point_source_stack
        noisy = apply_poisson(stack, rng, scale=10.0)
        assert noisy.images.shape == stack.images.shape
        assert np.isclose(noisy.images.mean(), stack.images.mean(), rtol=0.05)
        assert noisy.metadata["noise"] == "poisson"

    def test_poisson_invalid_scale(self, rng, point_source_stack):
        stack, _ = point_source_stack
        with pytest.raises(ValidationError):
            apply_poisson(stack, rng, scale=0.0)

    def test_background_cancels_in_reconstruction(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        with_background = add_background(stack, 123.0)
        sess = session(grid=depth_grid)
        clean = sess.run(stack).result
        shifted = sess.run(with_background).result
        np.testing.assert_allclose(shifted.data, clean.data, rtol=1e-9, atol=1e-9)

    def test_background_negative_rejected(self, point_source_stack):
        stack, _ = point_source_stack
        with pytest.raises(ValidationError):
            add_background(stack, -1.0)

    def test_hot_pixels_masked(self, rng, point_source_stack):
        stack, _ = point_source_stack
        hot = add_hot_pixels(stack, rng, fraction=0.1, amplitude=1e6)
        assert hot.pixel_mask is not None
        n_hot = int(round(0.1 * stack.n_rows * stack.n_cols))
        assert (~hot.pixel_mask).sum() == n_hot
        assert hot.metadata["hot_pixels"] == n_hot

    def test_hot_pixels_do_not_pollute_masked_reconstruction(self, rng, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        hot = add_hot_pixels(stack, rng, fraction=0.1, amplitude=1e6)
        result = session(grid=depth_grid).run(hot).result
        # masked pixels must receive no depth-resolved intensity at all
        masked = ~hot.pixel_mask
        assert np.abs(result.data[:, masked]).sum() == 0.0

    def test_hot_pixel_fraction_validation(self, rng, point_source_stack):
        stack, _ = point_source_stack
        with pytest.raises(ValidationError):
            add_hot_pixels(stack, rng, fraction=1.5)


class TestWorkloads:
    def test_paper_sizes_table(self):
        assert list(PAPER_DATASET_SIZES_GB) == ["2.1G", "2.7G", "3.6G", "5.2G"]

    def test_workload_size_close_to_target(self):
        workload = make_benchmark_workload("2.1G", scale=1.0 / 16384.0)
        assert 0.5 * workload.target_bytes <= workload.actual_bytes <= 2.0 * workload.target_bytes

    def test_size_ratio_preserved(self):
        small = make_benchmark_workload("2.1G", scale=1.0 / 32768.0)
        large = make_benchmark_workload("5.2G", scale=1.0 / 32768.0)
        ratio = large.actual_bytes / small.actual_bytes
        assert 1.7 <= ratio <= 3.4  # paper ratio is 2.48

    def test_explicit_megabyte_target(self):
        workload = make_benchmark_workload("0.2MB")
        assert workload.actual_bytes < 1.0e6

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            make_benchmark_workload("12T")

    def test_pixel_fraction_mask(self):
        workload = make_benchmark_workload("2.1G", pixel_fraction=0.25, scale=1.0 / 32768.0)
        assert workload.stack.pixel_mask is not None
        assert np.isclose(workload.stack.active_pixel_fraction, 0.25, atol=0.02)

    def test_full_fraction_has_no_mask(self):
        workload = make_benchmark_workload("2.1G", pixel_fraction=1.0, scale=1.0 / 32768.0)
        assert workload.stack.pixel_mask is None

    def test_invalid_fraction(self):
        with pytest.raises(ValidationError):
            make_benchmark_workload("2.1G", pixel_fraction=0.0)

    def test_deterministic_given_seed(self):
        a = make_benchmark_workload("2.1G", scale=1.0 / 32768.0, seed=11)
        b = make_benchmark_workload("2.1G", scale=1.0 / 32768.0, seed=11)
        np.testing.assert_array_equal(a.stack.images, b.stack.images)

    def test_identical_across_hash_seeds(self):
        """str hashes are salted per process; the workload must not depend on them."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        body = (
            "import hashlib\n"
            "from repro.synthetic.workloads import make_benchmark_workload\n"
            "w = make_benchmark_workload('0.2MB', seed=0)\n"
            "print(hashlib.sha256(w.stack.images.tobytes()).hexdigest())\n"
        )
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", body], capture_output=True, text=True,
                timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    def test_different_seeds_differ(self):
        a = make_benchmark_workload("2.1G", scale=1.0 / 32768.0, seed=1)
        b = make_benchmark_workload("2.1G", scale=1.0 / 32768.0, seed=2)
        assert not np.array_equal(a.stack.images, b.stack.images)

    def test_describe_mentions_label(self):
        workload = make_benchmark_workload("2.7G", scale=1.0 / 32768.0)
        assert "2.7G" in workload.describe()

    def test_workload_reconstruction_recovers_truth(self, session_workload):
        workload = session_workload
        result = session(grid=workload.grid, backend="vectorized").run(workload.stack).result
        truth = workload.source.true_centroid_depth()
        recon = result.centroid_depth()
        bright = workload.source.total_image() > 0.1 * workload.source.total_image().max()
        errors = np.abs(recon - truth)[bright]
        errors = errors[np.isfinite(errors)]
        assert errors.size > 0
        assert np.median(errors) < 2.0 * workload.grid.step

    def test_noise_flag(self):
        noisy = make_benchmark_workload("2.1G", scale=1.0 / 32768.0, noise=True)
        clean = make_benchmark_workload("2.1G", scale=1.0 / 32768.0, noise=False)
        assert not np.array_equal(noisy.stack.images, clean.stack.images)


class TestConvenienceStacks:
    def test_point_source_stack(self):
        stack, source = make_point_source_stack(depth=25.0, n_rows=4, n_cols=4, n_positions=41)
        assert stack.shape == (41, 4, 4)
        assert np.isclose(np.nanmean(source.true_centroid_depth()), source.depth_samples[
            np.argmin(np.abs(source.depth_samples - 25.0))])

    def test_grain_sample_stack(self):
        stack, source, sample = make_grain_sample_stack(n_rows=24, n_cols=24, n_grains=2, n_positions=61)
        assert stack.shape == (61, 24, 24)
        assert len(sample.grains) == 2
        assert source.source.shape[1:] == (24, 24)
        assert stack.images.max() > 0
