"""Tensor substrate: unfolding, matmul, SVD, rank, and file round-trips."""

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
    Shape4,
    ShapeError,
    UnfoldedMatrix,
    fold_channels,
    matmul,
    numeric_rank,
    read_tensor,
    svd,
    unfold_channels,
    unfold_patches,
    write_tensor,
)


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


class TestShape4:
    def test_volume(self):
        assert Shape4(2, 3, 4, 5).volume == 120

    def test_rejects_zero_extent(self):
        with pytest.raises(ShapeError):
            Shape4(2, 0, 4, 5)


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
        x = FeatureMap(rng.standard_normal((3, 2, 4, 5)))
        mat = unfold_patches(x, (1, 1, 1))
        assert mat.origin == "patches"
        np.testing.assert_array_equal(mat.data, x.data.reshape(3, -1))

    def test_single_impulse_support(self):
        data = np.zeros((1, 3, 3, 3))
        data[0, 1, 1, 1] = 1.0
        mat = unfold_patches(FeatureMap(data), (3, 3, 3))
        assert mat.rows == 27 and mat.cols == 27
        # the center voxel lands once in every window that covers it
        assert np.count_nonzero(mat.data) == 27
        assert np.all(np.count_nonzero(mat.data, axis=0) == 1)

    def test_matches_gather_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        mat = unfold_patches(FeatureMap(x), (3, 3, 3))
        np.testing.assert_array_equal(mat.data, gather_oracle(x, (3, 3, 3)))

    def test_mixed_extents_match_oracle(self, rng):
        x = rng.standard_normal((2, 5, 3, 4))
        mat = unfold_patches(FeatureMap(x), (3, 1, 3))
        np.testing.assert_array_equal(mat.data, gather_oracle(x, (3, 1, 3)))

    def test_even_extent_rejected(self, rng):
        x = FeatureMap(rng.standard_normal((1, 4, 4, 4)))
        with pytest.raises(InvalidKernel):
            unfold_patches(x, (2, 1, 1))

    def test_oversized_extent_rejected(self, rng):
        x = FeatureMap(rng.standard_normal((1, 2, 4, 4)))
        with pytest.raises(DegenerateKernel):
            unfold_patches(x, (7, 1, 1))

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3), seed=st.integers(0, 2**16))
    def test_unfold_linearity(self, alpha, beta, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((2, 3, 3, 3))
        y = gen.standard_normal((2, 3, 3, 3))
        lhs = unfold_patches(FeatureMap(alpha * x + beta * y), (3, 3, 1)).data
        rhs = alpha * unfold_patches(FeatureMap(x), (3, 3, 1)).data
        rhs = rhs + beta * unfold_patches(FeatureMap(y), (3, 3, 1)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMatmul:
    def test_identity(self, rng):
        b = rng.standard_normal((3, 5))
        out = matmul(UnfoldedMatrix(np.eye(3)), UnfoldedMatrix(b))
        np.testing.assert_array_equal(out.data, b)

    def test_ones_row_times_ones_column(self):
        row = UnfoldedMatrix(np.ones((1, 7)))
        col = UnfoldedMatrix(np.ones((7, 1)))
        assert matmul(row, col).data[0, 0] == 7.0

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 7))
        expected = np.zeros((4, 7))
        for i in range(4):
            for j in range(7):
                acc = 0.0
                for k in range(6):
                    acc += a[i, k] * b[k, j]
                expected[i, j] = acc
        out = matmul(UnfoldedMatrix(a), UnfoldedMatrix(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            matmul(UnfoldedMatrix(np.ones((2, 3))), UnfoldedMatrix(np.ones((4, 2))))


class TestSvd:
    def test_identity_singular_values(self):
        result = svd(UnfoldedMatrix(np.eye(4)))
        np.testing.assert_allclose(result.singular_values, np.ones(4))

    def test_embedded_diagonal(self):
        mat = np.zeros((3, 5))
        mat[0, 0], mat[1, 1], mat[2, 2] = 3.0, 2.0, 1.0
        result = svd(UnfoldedMatrix(mat))
        np.testing.assert_allclose(result.singular_values, [3.0, 2.0, 1.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        mat = rng.standard_normal((5, 8))
        result = svd(UnfoldedMatrix(mat))
        rel = np.linalg.norm(result.reconstruct() - mat) / np.linalg.norm(mat)
        assert rel <= 1e-8
        gram_left = result.left_factor.T @ result.left_factor
        gram_right = result.right_factor.T @ result.right_factor
        np.testing.assert_allclose(gram_left, np.eye(5), atol=1e-8)
        np.testing.assert_allclose(gram_right, np.eye(5), atol=1e-8)

    def test_sorted_non_increasing(self, rng):
        result = svd(UnfoldedMatrix(rng.standard_normal((6, 6))))
        s = result.singular_values
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)

    def test_non_finite_rejected(self):
        bad = UnfoldedMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(NumericError):
            svd(bad)
        with pytest.raises(NumericError):
            numeric_rank(bad)


class TestSvdInvariance:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), scale=st.floats(-4, 4))
    def test_transpose_and_scaling(self, seed, scale):
        gen = np.random.default_rng(seed)
        mat = gen.standard_normal((4, 6))
        s = svd(UnfoldedMatrix(mat)).singular_values
        s_t = svd(UnfoldedMatrix(mat.T)).singular_values
        np.testing.assert_allclose(s, s_t, atol=1e-10)
        s_c = svd(UnfoldedMatrix(scale * mat)).singular_values
        np.testing.assert_allclose(s_c, abs(scale) * s, atol=1e-10)


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(UnfoldedMatrix(np.zeros((4, 4)))) == 0

    def test_identity(self):
        assert numeric_rank(UnfoldedMatrix(np.eye(4))) == 4

    def test_outer_product_is_rank_one(self, rng):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        assert numeric_rank(UnfoldedMatrix(np.outer(u, v))) == 1

    def test_never_exceeds_min_dimension(self, rng):
        for _ in range(10):
            rows, cols = rng.integers(1, 8, size=2)
            mat = rng.standard_normal((rows, cols))
            assert numeric_rank(UnfoldedMatrix(mat)) <= min(rows, cols)


class TestChannelFolding:
    def test_roundtrip(self, rng):
        fmap = FeatureMap(rng.standard_normal((3, 2, 4, 5)))
        mat = unfold_channels(fmap)
        back = fold_channels(mat, 2, 4, 5)
        np.testing.assert_array_equal(back.data, fmap.data)


class TestTensorFile:
    def test_roundtrip(self, tmp_path, rng):
        arr = rng.standard_normal((2, 3, 4, 5))
        path = tmp_path / "cube.rst"
        write_tensor(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"RST1"
        np.testing.assert_array_equal(read_tensor(path), arr)

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
