"""Tensor substrate: window extents, the blocked product, singular values, rank,
and file round-trips; and the im2col unfold that the convolution is checked
against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resset import (
    ConfigError,
    DegenerateKernel,
    FeatureMap,
    InvalidKernel,
    NumericError,
    numeric_rank,
    read_tensor,
    write_tensor,
)
from resset import tensor
from resset.regularizer import nuclear_penalty

from conv_oracles import unfold_patches


def gather_oracle(x: np.ndarray, extents):
    """Naive nested-loop patch gather used as the independent reference."""
    c, b, h, w = x.shape
    kb, kh, kw = extents
    pb, ph, pw = (kb - 1) // 2, (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((c * kb * kh * kw, b * h * w))
    for ci in range(c):
        for db in range(kb):
            for dh in range(kh):
                for dw in range(kw):
                    row = ((ci * kb + db) * kh + dh) * kw + dw
                    col = 0
                    for bi in range(b):
                        for hi in range(h):
                            for wi in range(w):
                                sb, sh, sw = bi + db - pb, hi + dh - ph, wi + dw - pw
                                if 0 <= sb < b and 0 <= sh < h and 0 <= sw < w:
                                    out[row, col] = x[ci, sb, sh, sw]
                                col += 1
    return out


def rejects(path, blob):
    path.write_bytes(blob)
    with pytest.raises(ConfigError):
        read_tensor(path)


class TestFeatureMap:
    def test_rejects_nan(self):
        data = np.zeros((1, 2, 2, 2))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            FeatureMap(data)

    def test_data_is_read_only(self):
        fmap = FeatureMap(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError):
            fmap.data[0, 0, 0, 0] = 1.0


class TestUnfoldPatches:
    def test_identity_unfold(self, rng):
        x = rng.standard_normal((3, 2, 4, 5))
        np.testing.assert_array_equal(unfold_patches(x, (1, 1, 1)), x.reshape(3, -1))

    def test_single_impulse_support(self):
        data = np.zeros((1, 3, 3, 3))
        data[0, 1, 1, 1] = 1.0
        mat = unfold_patches(data, (3, 3, 3))
        assert mat.shape == (27, 27)
        # the center voxel lands once in every window that covers it
        assert np.count_nonzero(mat) == 27
        assert np.all(np.count_nonzero(mat, axis=0) == 1)

    def test_matches_gather_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(unfold_patches(x, (3, 3, 3)), gather_oracle(x, (3, 3, 3)))

    def test_mixed_extents_match_oracle(self, rng):
        x = rng.standard_normal((2, 5, 3, 4))
        np.testing.assert_array_equal(unfold_patches(x, (3, 1, 3)), gather_oracle(x, (3, 1, 3)))

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3), seed=st.integers(0, 2**16))
    def test_unfold_linearity(self, alpha, beta, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((2, 3, 3, 3))
        y = gen.standard_normal((2, 3, 3, 3))
        lhs = unfold_patches(alpha * x + beta * y, (3, 3, 1))
        rhs = alpha * unfold_patches(x, (3, 3, 1)) + beta * unfold_patches(y, (3, 3, 1))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCheckExtents:
    def test_even_extent_rejected(self):
        with pytest.raises(InvalidKernel):
            tensor.check_extents((2, 1, 1), (4, 4, 4))

    def test_oversized_extent_rejected(self):
        with pytest.raises(DegenerateKernel):
            tensor.check_extents((7, 1, 1), (2, 4, 4))


class TestMatmulNt:
    """``a @ b.T`` summed over column blocks, as the tape's weight gradients
    form it from two different matrices."""

    def test_blocks_match_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 10))
        b = rng.standard_normal((7, 10))
        expected = np.zeros((4, 7))
        for i in range(4):
            for j in range(7):
                acc = 0.0
                for k in range(10):
                    acc += a[i, k] * b[j, k]
                expected[i, j] = acc
        out = tensor.matmul_nt(a, b, np.full((4, 7), np.nan), 3)  # blocks 3, 3, 3, 1
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_ones_sum_across_blocks(self):
        out = tensor.matmul_nt(np.ones((2, 7)), np.ones((3, 7)), np.empty((2, 3)), 2)
        np.testing.assert_array_equal(out, np.full((2, 3), 7.0))

    def test_one_row_result_is_one_product(self, rng):
        """A one-row result is formed in one call, whatever the block width."""
        a = rng.standard_normal((1, 50))
        b = rng.standard_normal((5, 50))
        out = tensor.matmul_nt(a, b, np.empty((1, 5)), 7)
        assert np.array_equal(out.view(np.uint64), (a @ b.T).view(np.uint64))


def singular_values(mat: np.ndarray) -> np.ndarray:
    """The singular values that the diversity penalty returns; a wide
    well-conditioned matrix takes its Gram path, any other its SVD."""
    return nuclear_penalty(mat)[2]


class TestSvd:
    def test_identity_singular_values(self):
        np.testing.assert_allclose(singular_values(np.eye(4)), np.ones(4))

    def test_embedded_diagonal(self):
        mat = np.zeros((3, 5))
        mat[0, 0], mat[1, 1], mat[2, 2] = 3.0, 2.0, 1.0
        np.testing.assert_allclose(singular_values(mat), [3.0, 2.0, 1.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        """The gradient -U V^T has orthonormal rows on a full-rank wide draw
        and orthonormal columns on a tall one, and <U V^T, F> = ||F||_*."""
        mat = rng.standard_normal((5, 8))
        for draw in (mat, mat.T):
            value, (left, right), s = nuclear_penalty(draw)
            grad = -(left @ right)
            small = grad @ grad.T if draw.shape[0] <= draw.shape[1] else grad.T @ grad
            np.testing.assert_allclose(small, np.eye(5), atol=1e-8)
            assert np.sum(grad * draw) == pytest.approx(value, rel=1e-10)
            assert value == pytest.approx(-np.sum(s), rel=1e-12)

    def test_sorted_non_increasing(self, rng):
        for mat in (rng.standard_normal((6, 6)), rng.standard_normal((4, 9))):
            s = singular_values(mat)
            assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(NumericError):
            nuclear_penalty(bad)
        with pytest.raises(NumericError):
            nuclear_penalty(np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(NumericError):
            numeric_rank(bad)


class TestSvdInvariance:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), scale=st.floats(-4, 4))
    def test_transpose_and_scaling(self, seed, scale):
        gen = np.random.default_rng(seed)
        mat = gen.standard_normal((4, 6))
        s = singular_values(mat)
        s_t = singular_values(mat.T)
        np.testing.assert_allclose(s, s_t, atol=1e-10)
        s_c = singular_values(scale * mat)
        np.testing.assert_allclose(s_c, abs(scale) * s, atol=1e-10)


# Wide, tall and square draws; the widest has the toy feature volume's shape.
SPECTRUM_SHAPES = [(6, 40), (40, 6), (9, 9), (24, 31744)]


class TestTallSideSvd:
    @pytest.mark.parametrize("shape", SPECTRUM_SHAPES)
    def test_matches_untransposed_svd(self, rng, shape):
        """Decomposing a wide matrix's transpose gives its singular values to
        within 1e-12 relative, each one."""
        mat = rng.standard_normal(shape)
        want = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(tensor.singular_values(mat), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", SPECTRUM_SHAPES[:3])
    def test_numeric_rank_unchanged_on_low_rank_draws(self, rng, shape):
        rows, cols = shape
        mat = rng.standard_normal((rows, 3)) @ rng.standard_normal((3, cols))
        s = np.linalg.svd(mat, compute_uv=False)
        assert numeric_rank(mat) == int(np.sum(s > 1e-9 * s[0])) == 3


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((4, 4))) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(4)) == 4

    def test_outer_product_is_rank_one(self, rng):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        assert numeric_rank(np.outer(u, v)) == 1

    def test_never_exceeds_min_dimension(self, rng):
        for _ in range(10):
            rows, cols = rng.integers(1, 8, size=2)
            mat = rng.standard_normal((rows, cols))
            assert numeric_rank(mat) <= min(rows, cols)

    def test_rel_tol_outside_the_open_unit_interval_rejected(self):
        for rel_tol in (0.0, 1.0, -1e-9, 2.0, float("nan")):
            with pytest.raises(ConfigError):
                numeric_rank(np.eye(3), rel_tol=rel_tol)


class TestTensorFile:
    def test_roundtrip(self, tmp_path, rng):
        for arr in (rng.standard_normal((2, 3, 4, 5)), np.array(3.5)):
            path = tmp_path / "cube.rst"
            write_tensor(path, arr)
            raw = path.read_bytes()
            assert raw[:4] == b"RST1"
            back = read_tensor(path)
            assert back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "vec.rst"
        write_tensor(path, np.array([1.0, 2.0]))
        raw = path.read_bytes()
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8:12] == (2).to_bytes(4, "little")
        assert np.frombuffer(raw[12:], dtype="<f8").tolist() == [1.0, 2.0]


class TestTensorFileValidation:
    """Each malformed file is rejected with ConfigError, not trusted."""

    def test_bad_magic(self, tmp_path):
        rejects(tmp_path / "t.rst", b"RST2" + (0).to_bytes(4, "little"))

    def test_header_shorter_than_rank_field(self, tmp_path):
        rejects(tmp_path / "t.rst", b"RST1\x01\x00")

    def test_rank_above_bound(self, tmp_path):
        rejects(tmp_path / "t.rst", b"RST1" + (1000).to_bytes(4, "little") + bytes(4000))

    def test_extents_truncated(self, tmp_path):
        # the 10-byte case: rank 4 announced, half an extent present
        rejects(tmp_path / "t.rst", b"RST1" + (4).to_bytes(4, "little") + b"\x02\x00")

    def test_payload_truncated(self, tmp_path):
        path = tmp_path / "t.rst"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        rejects(path, path.read_bytes()[:-8])

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.rst"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        rejects(path, path.read_bytes() + bytes(8))

    def test_huge_extents_do_not_allocate(self, tmp_path):
        header = b"RST1" + (4).to_bytes(4, "little") + (2**32 - 1).to_bytes(4, "little") * 4
        rejects(tmp_path / "t.rst", header + bytes(8))
