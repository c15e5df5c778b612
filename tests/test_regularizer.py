"""Diversity penalty: values, subgradients, and its place in the training loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resset import (
    ConfigError,
    KernelScheme,
    Network,
    NumericError,
    SchemeVariant,
    UnfoldedMatrix,
    da_reg_grad,
    da_reg_value,
)
from resset import autodiff as ad
from resset import regularizer, tensor
from resset.hsdata import NoiseKind, NoiseSpec, add_noise, cube_to_feature, synth_cube
from resset.train import AdamState, TrainConfig, adam_step, training_loss


def gap_separated(rng, rows, cols, min_gap=0.1):
    """Matrix with singular values separated by at least ``min_gap``."""
    r = min(rows, cols)
    s = 0.5 + np.cumsum(rng.uniform(min_gap, 0.5, size=r))[::-1]
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :r]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, :r]
    return (u * s) @ v.T


def with_spectrum(rng, rows, cols, singular_values):
    """Matrix with the given singular values and random singular vectors."""
    s = np.asarray(singular_values, dtype=float)
    u = np.linalg.qr(rng.standard_normal((rows, s.size)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, s.size)))[0]
    return (u * s) @ v.T


def svd_oracle(mat):
    """The thin-SVD value and -U V^T gradient over singular values above the cutoff."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0, np.zeros(mat.shape)
    keep = s > regularizer.SINGULAR_CUTOFF * s[0]
    return -float(np.sum(s)), -(u[:, keep] @ vh[keep, :])


def penalty_with_gradient(mat):
    """``nuclear_penalty`` with its gradient factors multiplied out."""
    value, (left, right), s = regularizer.nuclear_penalty(mat)
    return value, -(left @ right), s


def fd_gradient(mat, step=1e-5):
    out = np.zeros_like(mat)
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            bump = np.zeros_like(mat)
            bump[i, j] = step
            out[i, j] = (
                da_reg_value(UnfoldedMatrix(mat + bump))
                - da_reg_value(UnfoldedMatrix(mat - bump))
            ) / (2 * step)
    return out


class TestValue:
    def test_zero_matrix(self):
        assert da_reg_value(UnfoldedMatrix(np.zeros((3, 4)))) == 0.0

    def test_known_diagonal(self):
        assert da_reg_value(UnfoldedMatrix(np.diag([3.0, 2.0, 1.0]))) == pytest.approx(-6.0)

    def test_matches_eigenvalue_oracle(self, rng):
        mat = rng.standard_normal((5, 9))
        eigs = np.linalg.eigvalsh(mat @ mat.T)
        expected = -float(np.sum(np.sqrt(np.clip(eigs, 0.0, None))))
        assert da_reg_value(UnfoldedMatrix(mat)) == pytest.approx(expected, rel=1e-10)

    def test_value_nonpositive_and_zero_iff_zero(self, rng):
        assert da_reg_value(UnfoldedMatrix(rng.standard_normal((4, 7)))) < 0.0


class TestGradient:
    def test_identity(self):
        grad = da_reg_grad(UnfoldedMatrix(np.eye(3)))
        np.testing.assert_allclose(grad.data, -np.eye(3), atol=1e-12)

    def test_diagonal(self):
        grad = da_reg_grad(UnfoldedMatrix(np.diag([3.0, 2.0, 1.0])))
        np.testing.assert_allclose(grad.data, -np.eye(3), atol=1e-12)

    def test_matches_finite_differences(self, rng):
        mat = gap_separated(rng, 6, 10)
        analytic = da_reg_grad(UnfoldedMatrix(mat)).data
        fd = fd_gradient(mat)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(fd - analytic)) / scale < 1e-5

    def test_gradient_batch_finite_differences(self, rng):
        """Gap-separated draws keep the analytic form within 1e-4 of central
        differences entrywise (relative to the gradient scale)."""
        for _ in range(10):
            rows = int(rng.integers(2, 8))
            cols = int(rng.integers(2, 12))
            mat = gap_separated(rng, rows, cols)
            analytic = da_reg_grad(UnfoldedMatrix(mat)).data
            fd = fd_gradient(mat)
            scale = max(np.max(np.abs(analytic)), 1e-12)
            assert np.max(np.abs(fd - analytic)) / scale < 1e-4

    def test_operator_norm_at_most_one(self, rng):
        grad = da_reg_grad(UnfoldedMatrix(rng.standard_normal((5, 8))))
        top = np.linalg.svd(grad.data, compute_uv=False)[0]
        assert top <= 1.0 + 1e-8

    def test_zero_matrix_gives_zero_subgradient(self):
        grad = da_reg_grad(UnfoldedMatrix(np.zeros((3, 5))))
        np.testing.assert_array_equal(grad.data, np.zeros((3, 5)))


# (case, takes the Gram path, builder, gradient tolerance against the oracle)
PENALTY_CASES = [
    ("wide", True, lambda rng: gap_separated(rng, 6, 20), 1e-12),
    ("square", True, lambda rng: gap_separated(rng, 5, 5), 1e-12),
    ("wide_random", True, lambda rng: rng.standard_normal((24, 500)), 1e-12),
    # lam_min / lam_max = 4e-8, just above GRAM_MIN_RATIO: the derived error
    # bound eps * lam_max / lam_min is about 2e-7 here.
    ("near_ratio", True, lambda rng: with_spectrum(rng, 3, 4000, [1.0, 0.5, 2e-4]), 1e-5),
    ("rank_deficient", False, lambda rng: with_spectrum(rng, 4, 10, [3.0, 1.0]), 1e-12),
    ("ill_conditioned", False, lambda rng: with_spectrum(rng, 3, 40, [1.0, 1e-3, 1e-5]), 1e-12),
    ("zero", False, lambda rng: np.zeros((3, 5)), 0.0),
    ("tall", False, lambda rng: gap_separated(rng, 10, 4), 1e-12),
    ("overflowing_gram", False, lambda rng: 1e160 * gap_separated(rng, 3, 6), 1e-12),
]


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVD fallbacks the penalty takes: its calls to np.linalg.svd."""
    calls = []
    original = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


class TestPenaltyPaths:
    @pytest.mark.parametrize(
        "gram, build, tol", [c[1:] for c in PENALTY_CASES], ids=[c[0] for c in PENALTY_CASES]
    )
    def test_matches_svd_oracle_on_the_expected_path(self, rng, svd_calls, gram, build, tol):
        mat = build(rng)
        value, grad, s = penalty_with_gradient(mat)
        assert svd_calls == ([] if gram else [mat.shape])
        oracle_value, oracle_grad = svd_oracle(mat)
        assert value == pytest.approx(oracle_value, rel=1e-12, abs=0.0)
        assert grad.shape == mat.shape
        assert np.max(np.abs(grad - oracle_grad), initial=0.0) <= tol
        np.testing.assert_allclose(s, np.linalg.svd(mat, compute_uv=False), rtol=1e-6)

    def test_toy_feature_matrix_takes_gram_path(self, svd_calls):
        """The 24 x 31744 last-layer features of the toy run at seed 0."""
        clean = synth_cube(100, 31, 32, 32)
        noisy = add_noise(clean, NoiseSpec(kind=NoiseKind.GAUSSIAN, sigma=50.0, seed=200))
        scheme = KernelScheme(SchemeVariant.RES3_1D, k=3, L=1)
        net = Network(scheme, channels=1, width=8, num_blocks=2, seed=0)
        feature = net.forward_tape(cube_to_feature(noisy).data).feature.data
        mat = feature.reshape(feature.shape[0], -1)
        assert mat.shape == (24, 31744)
        _, grad, _ = penalty_with_gradient(mat)
        assert svd_calls == []
        np.testing.assert_allclose(grad, svd_oracle(mat)[1], rtol=0.0, atol=1e-10)

    def test_non_finite_input_rejected(self):
        mat = np.ones((2, 4))
        mat[0, 1] = np.nan
        with pytest.raises(NumericError):
            regularizer.nuclear_penalty(mat)

    # (case, takes the Gram path, feature volume builder)
    TAPED_CASES = [
        ("gram", True, lambda rng: gap_separated(rng, 6, 60).reshape(6, 3, 4, 5)),
        ("rank_deficient", False,
         lambda rng: with_spectrum(rng, 4, 10, [3.0, 1.0]).reshape(4, 1, 2, 5)),
        ("tall", False, lambda rng: gap_separated(rng, 10, 4).reshape(10, 1, 2, 2)),
    ]

    @pytest.mark.parametrize(
        "gram, build", [c[1:] for c in TAPED_CASES], ids=[c[0] for c in TAPED_CASES]
    )
    def test_taped_gradient_matches_svd_oracle(self, rng, svd_calls, gram, build):
        """The factored gradient, multiplied out in backward and scaled by the
        upstream gradient, is -U V^T of an in-test thin SVD."""
        x = build(rng)
        rows = x.shape[0]
        node = ad.Node(x)
        loss = ad.diversity_penalty(node)
        assert svd_calls == ([] if gram else [(rows, x.size // rows)])
        loss.backward(np.float64(0.25))
        oracle = 0.25 * svd_oracle(x.reshape(rows, -1))[1]
        error = np.max(np.abs(node.grad.reshape(rows, -1) - oracle))
        assert error <= 1e-10 * np.max(np.abs(oracle))

    def test_gram_path_tape_holds_no_unfolded_array(self, rng):
        """On the Gram path the node owns no rows x cols array, and its
        backward holds none but the feature it reads."""
        x = rng.standard_normal((6, 3, 4, 5))
        loss = ad.diversity_penalty(ad.Node(x))
        assert all(a.size < x.size for a in loss._owned)
        held = [c.cell_contents for c in loss._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert any(a.shape == (6, 6) for a in arrays)  # the factor G^(-1/2)
        assert all(a.size < x.size or np.shares_memory(a, x) for a in arrays)

    def test_non_contiguous_feature_unfolds_into_an_owned_workspace_array(self, rng):
        """A cropped view is copied into a workspace array the node owns, and
        gives the same value and gradient, bit for bit, as its contiguous copy;
        a contiguous feature is read in place."""
        base = rng.standard_normal((6, 3, 5, 7))
        view = base[:, :, :4, :5]
        results = []
        for x in (view, np.ascontiguousarray(view)):
            node = ad.Node(x)
            loss = ad.diversity_penalty(node)
            unfolded = [a for a in loss._owned if a.shape == (6, view.size // 6)]
            assert len(unfolded) == (0 if x.flags.c_contiguous else 1)
            loss.backward(np.float64(0.5))
            results.append((loss.data.copy(), node.grad.copy()))
        (value, grad), (value_c, grad_c) = results
        np.testing.assert_array_equal(value, value_c)
        np.testing.assert_array_equal(grad, grad_c)

    def test_autodiff_and_regularizer_share_one_gradient(self, rng):
        x = rng.standard_normal((6, 3, 4, 5))
        node = ad.Node(x)
        loss = ad.diversity_penalty(node)
        loss.backward()
        grad = da_reg_grad(UnfoldedMatrix(x.reshape(6, -1))).data
        np.testing.assert_array_equal(node.grad.reshape(6, -1), grad)
        assert float(loss.data) == da_reg_value(UnfoldedMatrix(x.reshape(6, -1)))


class TestCombined:
    def test_da_reg_bundles_value_grad_spectrum(self, rng):
        """One decomposition gives the value, the gradient and the spectrum."""
        mat = gap_separated(rng, 4, 6)
        value, grad, s = penalty_with_gradient(mat)
        assert value == da_reg_value(UnfoldedMatrix(mat))
        np.testing.assert_array_equal(grad, da_reg_grad(UnfoldedMatrix(mat)).data)
        np.testing.assert_allclose(s, np.linalg.svd(mat, compute_uv=False), rtol=1e-12)
        assert value == pytest.approx(-np.sum(s), rel=1e-12)


class TestBlockedGram:
    """The Gram matrix is float64 and summed over column blocks; a float32
    matrix is cast one block at a time into lent scratch."""

    COLS = 4096  # autodiff.BLOCK_COLUMNS, the block the taped penalty lends

    def test_float32_gram_over_blocks_matches_float64_product(self, rng):
        """A float32 matrix wider than two blocks: the blocked float64 Gram
        matrix matches ``F64 @ F64.T`` within ``eps * lam_max``, the error
        the ``GRAM_MIN_RATIO`` derivation allows (eps = sqrt(N) * 2^-53)."""
        rows, n = 24, 2 * self.COLS + 1000
        f = rng.standard_normal((rows, n)).astype(np.float32)
        f64 = f.astype(np.float64)
        scratch = np.full((rows, self.COLS), np.nan)
        gram = tensor.matmul_nt(f, f, np.empty((rows, rows)), self.COLS, scratch)
        exact = f64 @ f64.T
        eps = np.sqrt(n) * 2.0**-53
        assert gram.dtype == np.float64
        assert np.max(np.abs(gram - exact)) <= eps * np.linalg.eigvalsh(exact)[-1]
        np.testing.assert_array_equal(gram, gram.T)

    def test_one_block_is_one_product(self, rng):
        """A matrix no wider than a block gives the one-call product, bit for
        bit: the float64 regularizer API and grad-check at default sizes do
        not move."""
        f = rng.standard_normal((6, 50))
        gram = tensor.matmul_nt(f, f, np.empty((6, 6)), 50)
        assert np.array_equal(gram.view(np.uint64), (f @ f.T).view(np.uint64))

    def test_float32_penalty_keeps_the_unfolding_as_its_factor(self, rng, svd_calls):
        """On the Gram path a float32 matrix is decomposed without an SVD and
        without a float64 copy: the right factor is the matrix itself, and the
        value is the float64 matrix's within the blocked-sum rounding."""
        rows, n = 24, 2 * self.COLS + 1000
        f = rng.standard_normal((rows, n)).astype(np.float32)
        value, (left, right), s = regularizer.nuclear_penalty(f, np.empty((rows, self.COLS)))
        assert svd_calls == []
        assert right is f and left.dtype == np.float64 and s.dtype == np.float64
        value64, _, s64 = regularizer.nuclear_penalty(f.astype(np.float64))
        assert value == pytest.approx(value64, rel=1e-13)
        np.testing.assert_allclose(s, s64, rtol=1e-12)

    @pytest.mark.parametrize(
        "shape, spectrum", [((6, 40), [3.0, 1.0, 0.5]), ((10, 4), [2.0, 1.0, 0.5, 0.25])],
        ids=["rank_deficient", "tall"],
    )
    def test_svd_fallback_decomposes_float64(self, rng, monkeypatch, shape, spectrum):
        """Off the Gram path a float32 matrix is cast whole to float64 for the
        SVD, and its factors are float64."""
        dtypes = []
        original = np.linalg.svd

        def recorded_svd(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        f = with_spectrum(rng, *shape, spectrum).astype(np.float32)
        scratch = np.empty((shape[0], 16))  # several blocks on the wide matrix
        value, (left, right), _ = regularizer.nuclear_penalty(f, scratch)
        assert dtypes == [np.float64]
        assert left.dtype == right.dtype == np.float64
        oracle_value, oracle_grad = svd_oracle(f.astype(np.float64))
        assert value == pytest.approx(oracle_value, rel=1e-12)
        np.testing.assert_allclose(-(left @ right), oracle_grad, atol=1e-12)


class TestInvariances:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), c=st.floats(0.01, 50.0))
    def test_positive_homogeneity(self, seed, c):
        mat = np.random.default_rng(seed).standard_normal((4, 6))
        v1 = da_reg_value(UnfoldedMatrix(c * mat))
        v0 = da_reg_value(UnfoldedMatrix(mat))
        assert v1 == pytest.approx(c * v0, rel=1e-9)

    def test_orthogonal_invariance(self, rng):
        mat = rng.standard_normal((5, 7))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        v_rot = da_reg_value(UnfoldedMatrix(q @ mat))
        assert v_rot == pytest.approx(da_reg_value(UnfoldedMatrix(mat)), rel=1e-10)

    def test_cauchy_schwarz_lower_bound(self, rng):
        for _ in range(20):
            mat = rng.standard_normal((4, 9))
            value = da_reg_value(UnfoldedMatrix(mat))
            bound = -np.sqrt(4 * np.sum(mat * mat))
            assert value >= bound - 1e-9


class TestAttachLastLayer:
    """Training puts ``lam`` times the penalty on the last block's
    pre-compression features, the ``feature`` node of the network tape."""

    SCHEME = KernelScheme(SchemeVariant.RES3_1D, k=3, L=1)

    def _tape(self, rng):
        net = Network(self.SCHEME, channels=1, width=4, num_blocks=2, seed=0)
        return net.forward_tape(rng.standard_normal((1, 4, 5, 5)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(scheme=self.SCHEME, lam=-1.0)

    def test_paper_denoising_weight_accepted(self, rng):
        lam = TrainConfig(scheme=self.SCHEME, lam=5e-5).lam
        tape = self._tape(rng)
        _, _, reg = training_loss(tape.output, tape.feature, np.zeros((1, 4, 5, 5)), lam)
        feature = tape.feature.data
        assert feature.shape == (12, 4, 5, 5)  # 3 branches x width 4, before compression
        assert reg == 5e-5 * da_reg_value(UnfoldedMatrix(feature.reshape(12, -1)))

    def test_zero_weight_is_inactive(self, rng, monkeypatch):
        def never_built(_):
            raise AssertionError("penalty built at lam=0")

        monkeypatch.setattr(ad, "diversity_penalty", never_built)
        tape = self._tape(rng)
        _, _, reg = training_loss(tape.output, tape.feature, np.zeros((1, 4, 5, 5)), 0.0)
        assert reg == 0.0

    def test_requires_feature_layer(self):
        with pytest.raises(ConfigError):
            TrainConfig(scheme=self.SCHEME, num_blocks=0)


class TestSingleStepEffect:
    def test_one_step_raises_nuclear_norm_when_data_loss_is_flat(self, rng):
        """On a linear one-layer map with the data term held at zero, one
        optimizer step driven by the penalty strictly raises the singular-value
        sum of the feature matrix."""
        w = ad.Node(rng.standard_normal((4, 3)))
        x = rng.standard_normal((3, 4, 4, 4))
        feat = ad.channel_mix(w, ad.Node(x))
        target = feat.data.copy()  # data term is exactly zero at the start
        data_term = ad.mean_abs_error(feat, target)
        loss = ad.add(data_term, ad.scale(ad.diversity_penalty(feat), 5e-5))
        before = np.linalg.svd(feat.data.reshape(4, -1), compute_uv=False).sum()
        loss.backward()  # feat is interior: its value reads NaN after this
        cfg = TrainConfig(
            scheme=KernelScheme(SchemeVariant.RES3_1D), learning_rate=1e-3, epochs=1
        )
        params = {"w": w.data.copy()}
        adam_step(params, {"w": w.grad}, AdamState(), cfg)
        after_feat = np.tensordot(params["w"], x, axes=(1, 0))
        after = np.linalg.svd(after_feat.reshape(4, -1), compute_uv=False).sum()
        assert after > before
