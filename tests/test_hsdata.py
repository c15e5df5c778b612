"""Synthetic cubes, noise injectors, and quality metrics."""

import numpy as np
import pytest

from resset import (
    ConfigError,
    HSCube,
    NoiseKind,
    NoiseSpec,
    NumericError,
    ShapeError,
    WindowTooLarge,
    add_noise,
    cube_to_feature,
    feature_to_cube,
    metrics_report,
    mpsnr,
    mssim,
    sam,
    synth_cube,
)


def total_variation(band: np.ndarray) -> float:
    return float(np.abs(np.diff(band, axis=0)).sum() + np.abs(np.diff(band, axis=1)).sum())


class TestSynthCube:
    def test_range_and_shape(self):
        cube = synth_cube(3, 16, 24, 24)
        assert cube.data.shape == (16, 24, 24)
        assert cube.data.min() >= 0.0 and cube.data.max() <= 1.0

    def test_deterministic_per_seed(self):
        a = synth_cube(7, 8, 12, 12)
        b = synth_cube(7, 8, 12, 12)
        np.testing.assert_array_equal(a.data, b.data)
        c = synth_cube(8, 8, 12, 12)
        assert np.any(c.data != a.data)

    def test_single_endmember_constant_spectrum_angle(self):
        cube = synth_cube(5, 12, 16, 16, num_endmembers=1)
        assert sam(cube, cube) == 0.0

    def test_smoother_than_white_noise(self, rng):
        cube = synth_cube(11, 16, 24, 24)
        tv_cube = np.mean([total_variation(cube.data[b]) for b in range(16)])
        noise = rng.standard_normal(cube.data.shape) * cube.data.std() + cube.data.mean()
        tv_noise = np.mean([total_variation(noise[b]) for b in range(16)])
        assert tv_cube < tv_noise


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        cube = synth_cube(0, 8, 12, 12)
        out = add_noise(cube, NoiseSpec(kind=NoiseKind.GAUSSIAN, sigma=0.0, seed=1))
        np.testing.assert_array_equal(out.data, cube.data)

    def test_sigma_50_sample_std(self):
        cube = synth_cube(1, 31, 64, 64)
        out = add_noise(cube, NoiseSpec(kind=NoiseKind.GAUSSIAN, sigma=50.0, seed=2))
        measured = (out.data - cube.data).std()
        assert abs(measured - 50.0 / 255.0) / (50.0 / 255.0) < 0.02

    def test_input_never_mutated(self):
        cube = synth_cube(2, 8, 16, 16)
        before = cube.data.copy()
        for kind in NoiseKind:
            add_noise(cube, NoiseSpec(kind=kind, seed=3))
            np.testing.assert_array_equal(cube.data, before)

    def test_gaussian_kinds_mean_preserving(self):
        cube = synth_cube(4, 31, 48, 48)
        n = cube.data.size
        for kind in (NoiseKind.GAUSSIAN, NoiseKind.NON_IID):
            out = add_noise(cube, NoiseSpec(kind=kind, seed=5))
            diff = out.data - cube.data
            stderr = diff.std() / np.sqrt(n)
            assert abs(diff.mean()) < 3 * stderr

    def test_deadline_zeroes_exact_column_count(self):
        cube = synth_cube(6, 9, 20, 20)
        out = add_noise(cube, NoiseSpec(kind=NoiseKind.DEADLINE, fraction=0.1, seed=7))
        affected = 0
        for b in range(9):
            zero_cols = np.where(np.all(out.data[b] == 0.0, axis=0))[0]
            if zero_cols.size:
                affected += 1
                assert zero_cols.size == int(np.floor(0.1 * 20))
        assert affected == max(1, round(9 / 3))

    def test_impulse_sets_saturated_values(self):
        cube = synth_cube(8, 9, 20, 20)
        out = add_noise(cube, NoiseSpec(kind=NoiseKind.IMPULSE, fraction=0.2, seed=9))
        changed = out.data != cube.data
        assert np.all(np.isin(out.data[changed], (0.0, 1.0)))

    def test_stripe_adds_column_offsets(self):
        cube = synth_cube(10, 9, 20, 20)
        out = add_noise(
            cube, NoiseSpec(kind=NoiseKind.STRIPE, fraction=0.15, magnitude=0.25, seed=11)
        )
        diff = out.data - cube.data
        for b in range(9):
            col_spread = diff[b].max(axis=0) - diff[b].min(axis=0)
            np.testing.assert_allclose(col_spread, 0.0, atol=1e-12)  # constant per column
            assert np.all(np.abs(diff[b]) <= 0.25 + 1e-12)

    @pytest.mark.parametrize("magnitude", [-1.0, -1e-12, np.inf, np.nan])
    def test_magnitude_outside_finite_non_negative_rejected(self, magnitude):
        with pytest.raises(ConfigError, match="magnitude"):
            NoiseSpec(kind=NoiseKind.STRIPE, magnitude=magnitude)

    @pytest.mark.parametrize("magnitude", [np.nextafter(1.0, 2.0), 1e308])
    def test_magnitude_above_unit_range_rejected(self, magnitude):
        """1e308 used to pass here and overflow the offset draw in add_noise."""
        with pytest.raises(ConfigError, match=r"magnitude must be in \[0, 1\]"):
            NoiseSpec(kind=NoiseKind.STRIPE, magnitude=magnitude)

    def test_unit_magnitude_stripes_stay_within_bound(self):
        cube = synth_cube(10, 4, 12, 12)
        out = add_noise(cube, NoiseSpec(kind=NoiseKind.STRIPE, magnitude=1.0, seed=11))
        assert 0 < np.max(np.abs(out.data - cube.data)) <= 1.0

    def test_zero_magnitude_stripes_leave_cube_unchanged(self):
        cube = synth_cube(10, 4, 12, 12)
        out = add_noise(cube, NoiseSpec(kind=NoiseKind.STRIPE, magnitude=0.0, seed=11))
        np.testing.assert_array_equal(out.data, cube.data)

    def test_blind_sigma_within_range(self):
        cube = synth_cube(12, 16, 48, 48)
        out = add_noise(
            cube, NoiseSpec(kind=NoiseKind.GAUSSIAN_BLIND, sigma_min=30, sigma_max=70, seed=13)
        )
        measured = (out.data - cube.data).std() * 255.0
        assert 25.0 < measured < 75.0

    def test_mixture_runs(self):
        cube = synth_cube(14, 12, 20, 20)
        out = add_noise(cube, NoiseSpec(kind=NoiseKind.MIXTURE, seed=15))
        assert out.data.shape == cube.data.shape
        assert np.any(out.data != cube.data)


class TestMpsnr:
    def test_identical_inputs_hit_cap(self):
        cube = synth_cube(0, 8, 16, 16)
        assert mpsnr(cube, cube) == 100.0

    def test_uniform_offset_closed_form(self):
        ref = synth_cube(1, 8, 16, 16)
        pred = HSCube(ref.data + 0.1)
        assert mpsnr(pred, ref) == pytest.approx(20.0, abs=1e-9)

    def test_sigma_50_matches_pure_noise_statistics(self):
        clean = synth_cube(2, 31, 64, 64)
        noisy = add_noise(clean, NoiseSpec(kind=NoiseKind.GAUSSIAN, sigma=50.0, seed=3))
        expected = 20.0 * np.log10(255.0 / 50.0)
        assert abs(mpsnr(noisy, clean) - expected) <= 0.2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mpsnr(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))


class TestMssim:
    def test_identical_inputs(self):
        cube = synth_cube(3, 4, 24, 24)
        assert mssim(cube, cube) == pytest.approx(1.0)

    def test_inverted_band_scores_low(self):
        yy, xx = np.indices((32, 32))
        checker = ((yy + xx) % 2).astype(np.float64)  # strong local structure
        ref = HSCube(np.stack([checker, 1.0 - checker]))
        inverted = HSCube(1.0 - ref.data)
        assert mssim(inverted, ref) < 0.1

    def test_equal_constants(self):
        a = HSCube(np.full((2, 16, 16), 0.4))
        assert mssim(a, HSCube(a.data.copy())) == pytest.approx(1.0)

    def test_window_too_large(self):
        small = HSCube(np.zeros((2, 8, 8)))
        with pytest.raises(WindowTooLarge):
            mssim(small, small)


class TestSam:
    def test_identical_inputs(self):
        cube = synth_cube(5, 8, 16, 16)
        assert sam(cube, cube) == pytest.approx(0.0, abs=1e-7)

    def test_scale_invariance(self):
        cube = synth_cube(6, 8, 16, 16)
        doubled = HSCube(2.0 * cube.data)
        assert sam(doubled, cube) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_spectra_give_right_angle(self):
        ref = np.zeros((2, 4, 4))
        ref[0] = 1.0
        pred = np.zeros((2, 4, 4))
        pred[1] = 1.0
        assert sam(pred, ref) == pytest.approx(np.pi / 2)

    def test_zero_pred_spectrum_contributes_right_angle(self):
        ref = np.ones((2, 2, 2))
        pred = np.zeros((2, 2, 2))
        assert sam(pred, ref) == pytest.approx(np.pi / 2)


class TestMetricSymmetry:
    def test_mssim_and_sam_symmetric(self):
        a = synth_cube(20, 4, 16, 16)
        b = synth_cube(21, 4, 16, 16)
        assert mssim(a, b) == pytest.approx(mssim(b, a), rel=1e-12)
        assert sam(a, b) == pytest.approx(sam(b, a), rel=1e-12)

    def test_mpsnr_symmetric_off_cap(self):
        a = synth_cube(22, 4, 16, 16)
        b = HSCube(a.data + 0.05)
        assert mpsnr(a, b) == pytest.approx(mpsnr(b, a), rel=1e-12)


class TestMetricsReport:
    def test_overflowing_error_is_numeric_error(self):
        """A squared error past the float range gives mpsnr=-inf and
        mssim=nan, which no report may carry as a result."""
        ref = synth_cube(23, 2, 12, 12)
        with pytest.raises(NumericError, match="non-finite metrics"):
            metrics_report(HSCube(ref.data + 1e200), ref)


class TestFeatureBridges:
    def test_cube_feature_roundtrip(self):
        cube = synth_cube(7, 6, 12, 12)
        fmap = cube_to_feature(cube)
        assert fmap.data.shape == (1, 6, 12, 12)
        back = feature_to_cube(fmap)
        np.testing.assert_array_equal(back.data, cube.data)
