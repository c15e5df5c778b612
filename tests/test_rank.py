"""Rank bounds, audits over random weight draws, and singular spectra."""

import numpy as np
import pytest

from resset import rank
from resset import (
    ConfigError,
    FeatureMap,
    NumericError,
    audit_kernel_rank,
    build_kernel_matrix,
    numeric_rank,
    parse_scheme_token,
    random_kernel_set,
    rank_upper_bound,
    feature_spectrum,
    tail_mass,
    valid_columns,
    zero_kernel_set,
)
from resset.rank import Spectrum
from resset.schemes import _TOKENS

from conv_oracles import unfold_patches

BOUND_TABLE = {
    "conv3d": 1,
    "seq1d": 1,
    "seq1d2d": 1,
    "par1d2d": 2,
    "res3_2d": 3,
    "res3_1d": 3,
    "res3_1d_l2": 6,
    "res3_1dx3": 9,
}


class TestRankUpperBound:
    def test_bound_table(self):
        for token, multiple in BOUND_TABLE.items():
            scheme = parse_scheme_token(token)
            for m in (4, 8):
                assert rank_upper_bound(scheme, m) == multiple * m

    def test_paper_instances(self):
        assert rank_upper_bound(parse_scheme_token("conv3d"), 8) == 8
        assert rank_upper_bound(parse_scheme_token("res3_1d"), 8) == 24
        assert rank_upper_bound(parse_scheme_token("par1d2d"), 8) == 16


class TestAuditKernelRank:
    def test_conv3d_full_row_rank(self):
        ks = zero_kernel_set(parse_scheme_token("conv3d"), 4, 2)
        audit = audit_kernel_rank(ks, seeds=10)
        assert audit.predicted_bound == 4
        assert audit.measured_rank == 4
        assert audit.achieved
        assert audit.seed_ranks == (4,) * 10

    def test_res3_1d_reaches_three_m(self):
        ks = zero_kernel_set(parse_scheme_token("res3_1d"), 4, 2)
        audit = audit_kernel_rank(ks, seeds=10)
        assert audit.predicted_bound == 12
        assert audit.valid_columns == 14
        assert audit.measured_rank == 12
        assert audit.achieved

    def test_zero_weights_rank_zero(self):
        ks = zero_kernel_set(parse_scheme_token("res3_1d"), 4, 2)
        audit = audit_kernel_rank(ks, seeds=3, zero_weights=True)
        assert audit.measured_rank == 0
        assert not audit.achieved

    def test_rank_capped_by_valid_columns(self):
        # 9M = 36 rows but only 7C = 28 structurally nonzero columns
        ks = zero_kernel_set(parse_scheme_token("res3_1dx3"), 4, 4)
        audit = audit_kernel_rank(ks, seeds=5)
        assert audit.predicted_bound == 36
        assert audit.valid_columns == 28
        assert audit.measured_rank == 28
        assert audit.achieved

    def test_bound_never_exceeded_across_schemes(self):
        for token in ("conv3d", "res3_2d", "res3_1d", "res3_1d_l2", "res3_1dx3", "par1d2d"):
            scheme = parse_scheme_token(token)
            ks = zero_kernel_set(scheme, 4, 4)
            audit = audit_kernel_rank(ks, seeds=20)
            assert max(audit.seed_ranks) <= audit.predicted_bound

    def test_feature_matrix_rank_capped_by_kernel_rank(self, rng):
        scheme = parse_scheme_token("res3_1d")
        ks = random_kernel_set(scheme, 4, 2, rng)
        x = rng.standard_normal((2, 6, 6, 6))
        kernel_matrix = build_kernel_matrix(ks)
        feature = kernel_matrix @ unfold_patches(x, (3, 3, 3))
        assert numeric_rank(feature, rel_tol=1e-6) <= numeric_rank(kernel_matrix, rel_tol=1e-6)

    @pytest.mark.parametrize("token", sorted(_TOKENS))
    @pytest.mark.parametrize("k, m, c", [(1, 3, 5), (3, 4, 4), (3, 8, 8), (3, 5, 2), (5, 2, 3)])
    def test_draw_ranks_equal_full_matrix_ranks(self, token, k, m, c):
        """Dropping the structurally zero columns changes no draw's rank: the
        oracle redraws each seed and ranks the full rows x k^3*C matrix."""
        scheme = parse_scheme_token(token, k=k)
        audit = audit_kernel_rank(zero_kernel_set(scheme, m, c), seeds=20, rng_seed=7)
        full = []
        for s in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((7, s)))
            draw = build_kernel_matrix(random_kernel_set(scheme, m, c, rng))
            full.append(numeric_rank(draw, rel_tol=rank.AUDIT_RANK_TOL))
        assert audit.seed_ranks == tuple(full)

    @pytest.mark.parametrize("token", sorted(_TOKENS))
    @pytest.mark.parametrize("zero_weights", [False, True])
    def test_batched_draws_match_the_per_draw_oracle(self, monkeypatch, token, zero_weights):
        """Each audited matrix is, bit for bit, the one its seed's own
        generator gives through ``random_kernel_set`` and ``build_kernel_matrix``
        masked by ``valid_columns``, across more seeds than one batch holds."""
        scheme = parse_scheme_token(token)
        seeds = 2 * rank.AUDIT_BATCH + 3
        audited = []
        real = rank.numeric_rank

        def recording(mat, rel_tol):
            audited.append(mat.copy())
            return real(mat, rel_tol=rel_tol)

        monkeypatch.setattr(rank, "numeric_rank", recording)
        audit_kernel_rank(zero_kernel_set(scheme, 4, 3), seeds=seeds, rng_seed=5,
                          zero_weights=zero_weights)
        mask = valid_columns(scheme, 3)
        assert len(audited) == seeds
        for s, matrix in enumerate(audited):
            if zero_weights:
                ks = zero_kernel_set(scheme, 4, 3)
            else:
                rng = np.random.default_rng(np.random.SeedSequence((5, s)))
                ks = random_kernel_set(scheme, 4, 3, rng)
            assert matrix.tobytes() == build_kernel_matrix(ks)[:, mask].tobytes()

    @pytest.mark.parametrize("token", ["conv3d", "res3_1dx3", "seq1d2d", "par1d2d"])
    def test_decomposes_only_valid_columns(self, monkeypatch, token):
        """One rank per draw, each of the rows x valid-columns submatrix."""
        scheme = parse_scheme_token(token)
        shapes = []
        real = rank.numeric_rank

        def recording(mat, rel_tol):
            shapes.append(mat.shape)
            return real(mat, rel_tol=rel_tol)

        monkeypatch.setattr(rank, "numeric_rank", recording)
        audit = audit_kernel_rank(zero_kernel_set(scheme, 8, 8), seeds=4)
        columns = int(valid_columns(scheme, 8).sum())
        assert shapes == [(rank_upper_bound(scheme, 8), columns)] * 4
        assert audit.valid_columns == columns

    def test_requires_positive_seeds(self):
        ks = zero_kernel_set(parse_scheme_token("conv3d"), 2, 2)
        with pytest.raises(ConfigError):
            audit_kernel_rank(ks, seeds=0)


class TestFeatureSpectrum:
    def test_single_nonzero_channel_is_rank_one(self, rng):
        data = np.zeros((4, 3, 5, 5))
        data[1] = rng.standard_normal((3, 5, 5))
        spectrum = feature_spectrum(FeatureMap(data))
        assert spectrum.values[0] == 1.0
        np.testing.assert_allclose(spectrum.values[1:], 0.0, atol=1e-12)

    def test_orthogonal_equal_norm_channels_are_flat(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((27, 4)))
        data = q.T.reshape(4, 3, 3, 3)
        spectrum = feature_spectrum(FeatureMap(data))
        np.testing.assert_allclose(spectrum.values, 1.0, atol=1e-10)

    def test_contract_on_random_map(self, rng):
        spectrum = feature_spectrum(FeatureMap(rng.standard_normal((5, 4, 4, 4))))
        assert spectrum.values[0] == 1.0
        assert np.all(spectrum.values[:-1] >= spectrum.values[1:])
        assert np.all((spectrum.values >= 0) & (spectrum.values <= 1))

    @pytest.mark.parametrize("shape", [(3, 2, 4, 5), (50, 1, 2, 3), (6, 1, 2, 3)])
    def test_matches_untransposed_svd(self, rng, shape):
        """Wide, tall and square unfoldings: the values are the untransposed
        SVD's, scaled by its largest, to within 1e-12 relative."""
        data = rng.standard_normal(shape)
        s = np.linalg.svd(data.reshape(shape[0], -1), compute_uv=False)
        np.testing.assert_allclose(feature_spectrum(FeatureMap(data)).values, s / s[0], rtol=1e-12)

    def test_all_zero_map_flagged_empty(self):
        spectrum = feature_spectrum(FeatureMap(np.zeros((3, 2, 2, 2))))
        assert spectrum.is_empty

    @pytest.mark.parametrize("shape", [(8, 2, 8, 8), (50, 1, 2, 3), (512, 1, 2, 256),
                                       (24, 1, 1, 513), (8, 4, 12, 12), (72, 3, 16, 16)])
    def test_matches_float64_svd_within_1e_13(self, rng, shape):
        """Short, tall, square one-block and wide many-block matrices: each
        value is within 1e-13 of the float64 SVD's, scaled by its largest."""
        data = rng.standard_normal(shape)
        s = np.linalg.svd(data.reshape(shape[0], -1), compute_uv=False)
        got = feature_spectrum(FeatureMap(data)).values
        assert got.shape == s.shape
        assert np.max(np.abs(got - s / s[0])) <= 1e-13

    def test_float32_view_gives_its_float64_copy_s_bits(self, rng):
        """A training run's feature, a float32 view cropped from a padded
        grid, has the spectrum of the float64 copy that feature.rst holds."""
        grid = rng.standard_normal((8, 10, 14, 14)).astype(np.float32)
        view = grid[:, 1:9, 1:13, 1:13]
        got = feature_spectrum(view).values
        want = feature_spectrum(FeatureMap(view.astype(np.float64))).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_non_finite_entry_in_a_later_block_is_numeric_error(self):
        data = np.ones((4, 2, 16, 32))
        data[3, 1, 15, 31] = np.nan
        with pytest.raises(NumericError):
            feature_spectrum(data)

    def test_all_zero_wide_map_flagged_empty(self):
        assert feature_spectrum(np.zeros((4, 2, 16, 32), dtype=np.float32)).is_empty


class TestTailMass:
    def test_head_past_rank_one(self):
        assert tail_mass(Spectrum(np.array([1.0, 0.0, 0.0])), 1) == 0.0

    def test_uniform_spectrum(self):
        assert tail_mass(Spectrum(np.ones(4)), 2) == 0.5

    def test_rank_two_map_has_no_mass_past_two(self, rng):
        base = rng.standard_normal((2, 64))
        coeffs = rng.standard_normal((6, 2))
        data = (coeffs @ base).reshape(6, 4, 4, 4)
        spectrum = feature_spectrum(FeatureMap(data))
        assert tail_mass(spectrum, 2) <= 1e-12

    def test_empty_spectrum(self):
        assert tail_mass(Spectrum(np.empty(0)), 3) == 0.0

    def test_head_zero_is_total(self):
        assert tail_mass(Spectrum(np.array([1.0, 0.5])), 0) == 1.0
