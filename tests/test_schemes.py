"""Kernel layouts: parameter counts, joint matrices, and forward convolutions."""

import numpy as np
import pytest

from resset import (
    ConfigError,
    KernelScheme,
    KernelSet,
    Network,
    SchemeVariant,
    build_kernel_matrix,
    compression_param_count,
    kernel_matrices,
    param_count,
    parse_scheme_token,
    random_kernel_set,
    random_weights,
    valid_column_count,
    valid_columns,
    zero_kernel_set,
)
from resset import autodiff as ad
from resset import rank_upper_bound
from resset.schemes import (
    _LAYOUTS,
    _TOKENS,
    LEAKY_SLOPE,
    branch_extents,
    expected_weight_shapes,
)

from conftest import FreshArrays, taped_set
from conv_oracles import (
    tap_loop_conv,
    tap_loop_set,
    tap_loop_weight_grad,
    tap_placement_matrix,
    unfold_patches,
)

ALL_TOKENS = ["conv3d", "res3_2d", "res3_1d", "res3_1d_l2", "res3_1dx3", "seq1d", "seq1d2d", "par1d2d"]
UNCHAINED_TOKENS = ["conv3d", "res3_2d", "res3_1d", "res3_1d_l2", "res3_1dx3", "par1d2d"]


def conv3d_loop_oracle(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Seven-nested-loop dense 3-D convolution with same zero padding."""
    m, c, kb, kh, kw = w.shape
    _, b, h, wd = x.shape
    pb, ph, pw = kb // 2, kh // 2, kw // 2
    out = np.zeros((m, b, h, wd))
    for mi in range(m):
        for bi in range(b):
            for hi in range(h):
                for wi in range(wd):
                    acc = 0.0
                    for ci in range(c):
                        for db in range(kb):
                            for dh in range(kh):
                                for dw in range(kw):
                                    sb, sh, sw = bi + db - pb, hi + dh - ph, wi + dw - pw
                                    if 0 <= sb < b and 0 <= sh < h and 0 <= sw < wd:
                                        acc += w[mi, ci, db, dh, dw] * x[ci, sb, sh, sw]
                    out[mi, bi, hi, wi] = acc
    return out


def network_block(scheme, weights, compression, aggregation, x: np.ndarray) -> np.ndarray:
    """The network's block forward on ``x``: a one-block network with identity
    lift and projection and no global residual computes exactly its block."""
    m = x.shape[0]
    net = Network(scheme, channels=m, width=m, num_blocks=1, global_residual=False)
    net.params.update({f"b0.w{j}": w for j, w in enumerate(weights)})
    net.params.update(
        {"lift": np.eye(m), "project": np.eye(m), "b0.compress": compression,
         "b0.aggregate": aggregation}
    )
    return net.forward_tape(x).output.data


def res3_block_arrays(draw, m: int):
    """Branch weights, compression and aggregation of one res3_1d block of
    width ``m``, each array made by ``draw(shape)``."""
    scheme = parse_scheme_token("res3_1d")
    weights = [draw(shape) for shape in expected_weight_shapes(scheme, m, m)]
    return scheme, weights, draw((m, 3 * m)), draw((m, m))


class TestKernelScheme:
    def test_even_extent_rejected(self):
        with pytest.raises(ConfigError):
            KernelScheme(SchemeVariant.CONV3D, k=2)

    def test_l_constraints(self):
        with pytest.raises(ConfigError):
            KernelScheme(SchemeVariant.RES3_1D, L=3)
        with pytest.raises(ConfigError):
            KernelScheme(SchemeVariant.RES3_1DX3, L=1)
        with pytest.raises(ConfigError):
            KernelScheme(SchemeVariant.CONV3D, L=2)

    def test_token_roundtrip(self):
        for token in ALL_TOKENS:
            assert parse_scheme_token(token).token == token


class TestSchemeTable:
    def test_every_variant_has_a_row_and_a_token(self):
        assert set(_LAYOUTS) == set(SchemeVariant)
        assert {variant for variant, _ in _TOKENS.values()} == set(SchemeVariant)

    @pytest.mark.parametrize("token", ALL_TOKENS)
    @pytest.mark.parametrize("m", [1, 4])
    def test_rank_bound_is_the_joint_matrix_row_count(self, rng, token, m):
        scheme = parse_scheme_token(token)
        ks = random_kernel_set(scheme, m, 2, rng)
        assert rank_upper_bound(scheme, m) == build_kernel_matrix(ks).shape[0]

    @pytest.mark.parametrize("variant", [v for v, (_, chained) in _LAYOUTS.items() if chained])
    def test_chained_stages_act_on_disjoint_axes(self, variant):
        """A chain composes into its stages' per-axis product only because no
        two stages span the same axis."""
        windows, _ = _LAYOUTS[variant]
        spans = [{axis for axis, tap in enumerate(w) if tap == "k"} for w in windows]
        assert sum(len(span) for span in spans) == len(set().union(*spans))

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_parallel_bound_sums_branch_outputs(self, token):
        scheme = parse_scheme_token(token)
        if scheme.is_parallel:
            shapes = expected_weight_shapes(scheme, 5, 3)
            assert rank_upper_bound(scheme, 5) == sum(shape[0] for shape in shapes)


class TestParamCount:
    def test_conv3d(self):
        assert param_count(parse_scheme_token("conv3d"), 4, 2) == 216  # 4*2*27

    def test_res3_1d(self):
        assert param_count(parse_scheme_token("res3_1d"), 4, 2) == 72  # 3*4*2*3

    def test_res3_1dx3_matches_conv3d_at_k3(self):
        for m, c in [(4, 2), (8, 8), (3, 5)]:
            assert param_count(parse_scheme_token("res3_1dx3"), m, c) == param_count(
                parse_scheme_token("conv3d"), m, c
            )

    def test_res3_1d_is_one_third_of_conv3d(self):
        for m, c in [(4, 4), (8, 8)]:
            assert 3 * param_count(parse_scheme_token("res3_1d"), m, c) == param_count(
                parse_scheme_token("conv3d"), m, c
            )

    def test_remaining_formulas(self):
        m, c, k = 5, 3, 3
        assert param_count(parse_scheme_token("res3_2d"), m, c) == 3 * m * c * k * k
        assert param_count(parse_scheme_token("res3_1d_l2"), m, c) == 6 * m * c * k
        assert param_count(parse_scheme_token("seq1d"), m, c) == m * c * k + 2 * m * m * k
        assert param_count(parse_scheme_token("seq1d2d"), m, c) == m * c * k + m * m * k * k
        assert param_count(parse_scheme_token("par1d2d"), m, c) == m * c * k + m * c * k * k

    def test_compression_counts(self):
        m = 4
        assert compression_param_count(parse_scheme_token("res3_1d"), m) == m * 12
        assert compression_param_count(parse_scheme_token("par1d2d"), m) == m * 8
        assert compression_param_count(parse_scheme_token("conv3d"), m) == 0

    def test_weight_count_matches_param_count(self, rng):
        for token in ALL_TOKENS:
            scheme = parse_scheme_token(token)
            ks = random_kernel_set(scheme, 4, 2, rng)
            assert sum(w.size for w in ks.weights) == param_count(scheme, 4, 2)


class TestBuildKernelMatrix:
    def test_conv3d_dense(self, rng):
        ks = random_kernel_set(parse_scheme_token("conv3d"), 3, 2, rng)
        mat = build_kernel_matrix(ks)
        assert mat.shape == (3, 54)
        assert np.count_nonzero(mat) == mat.size

    def test_res3_1d_row_support_and_column_union(self, rng):
        ks = random_kernel_set(parse_scheme_token("res3_1d"), 4, 1, rng)
        mat = build_kernel_matrix(ks)
        assert mat.shape == (12, 27)
        assert np.all(np.count_nonzero(mat, axis=1) == 3)
        occupied = np.count_nonzero(np.any(mat != 0.0, axis=0))
        assert occupied == 7  # three axes of 3 offsets sharing one center
        assert valid_column_count(ks.scheme, 1) == 7

    def test_par1d2d_is_vertical_stack(self, rng):
        scheme = parse_scheme_token("par1d2d")
        ks = random_kernel_set(scheme, 3, 2, rng)
        mat = build_kernel_matrix(ks)
        assert mat.shape == (6, 54)
        two_d_only = KernelSet(scheme, 3, 2, (ks.weights[0], np.zeros_like(ks.weights[1])))
        one_d_only = KernelSet(scheme, 3, 2, (np.zeros_like(ks.weights[0]), ks.weights[1]))
        top = build_kernel_matrix(two_d_only)[:3]
        bottom = build_kernel_matrix(one_d_only)[3:]
        np.testing.assert_array_equal(mat, np.vstack([top, bottom]))

    @pytest.mark.parametrize("token", UNCHAINED_TOKENS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_unchained_matrices_match_tap_placement(self, rng, token, k):
        ks = random_kernel_set(parse_scheme_token(token, k=k), 3, 2, rng)
        np.testing.assert_array_equal(build_kernel_matrix(ks), tap_placement_matrix(ks))

    @pytest.mark.parametrize("token", sorted(_TOKENS))
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("c", [1, 3])
    def test_valid_columns_are_the_structural_support(self, rng, token, k, c):
        """Columns outside the mask are zero in every draw; each column inside
        it is nonzero in a generic draw."""
        scheme = parse_scheme_token(token, k=k)
        mask = valid_columns(scheme, c)
        assert mask.shape == (k**3 * c,) and mask.dtype == bool
        assert int(mask.sum()) == valid_column_count(scheme, c)
        for _ in range(3):
            mat = build_kernel_matrix(random_kernel_set(scheme, 3, c, rng))
            assert not np.any(mat[:, ~mask])
            assert np.all(np.any(mat[:, mask] != 0.0, axis=0))

    @pytest.mark.parametrize("token", sorted(_TOKENS))
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_batch_rows_match_the_per_set_construction(self, rng, token, k):
        """Row s of a batch is draw s's own matrix, bit for bit, in the full
        layout and, with ``valid_only``, in the valid-column layout."""
        scheme = parse_scheme_token(token, k=k)
        sets = [random_kernel_set(scheme, 3, 2, rng) for _ in range(5)]
        stacked = tuple(np.stack(ws) for ws in zip(*(ks.weights for ks in sets)))
        full = kernel_matrices(scheme, stacked)
        valid = kernel_matrices(scheme, stacked, valid_only=True)
        mask = valid_columns(scheme, 2)
        assert full.shape == (5, rank_upper_bound(scheme, 3), k**3 * 2)
        assert valid.shape == (5, rank_upper_bound(scheme, 3), int(mask.sum()))
        for ks, row, valid_row in zip(sets, full, valid):
            per_set = build_kernel_matrix(ks)
            assert row.tobytes() == per_set.tobytes()
            assert valid_row.tobytes() == per_set[:, mask].tobytes()

    @pytest.mark.parametrize("token", sorted(_TOKENS))
    def test_random_weights_keep_the_per_draw_order(self, token):
        """Draw s of a batch is what its generator yields branch by branch."""
        scheme = parse_scheme_token(token)
        stacks = random_weights(scheme, 4, 3, [np.random.default_rng(s) for s in range(3)])
        for s in range(3):
            rng = np.random.default_rng(s)
            for stack, shape in zip(stacks, expected_weight_shapes(scheme, 4, 3)):
                assert stack[s].tobytes() == rng.standard_normal(shape).tobytes()

    def test_valid_columns_per_scheme(self):
        expected = {"conv3d": 27, "res3_2d": 19, "res3_1d": 7, "res3_1d_l2": 7,
                    "res3_1dx3": 7, "seq1d": 27, "seq1d2d": 27, "par1d2d": 11}
        for token, per_channel in expected.items():
            scheme = parse_scheme_token(token)
            for c in (1, 4):
                assert valid_column_count(scheme, c) == per_channel * c


class TestSetForward:
    """The taped convolution set on float64 nodes, as a network block runs it."""

    def test_zero_weights_zero_output(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        for token in ALL_TOKENS:
            ks = zero_kernel_set(parse_scheme_token(token), 3, 2)
            assert not np.any(taped_set(ks, x))

    def test_conv3d_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        ks = random_kernel_set(parse_scheme_token("conv3d"), 3, 2, rng)
        np.testing.assert_allclose(taped_set(ks, x), conv3d_loop_oracle(x, ks.weights[0]), atol=1e-12)

    def test_conv3d_matches_matmul_path(self, rng):
        x = rng.standard_normal((2, 4, 5, 5))
        ks = random_kernel_set(parse_scheme_token("conv3d"), 3, 2, rng)
        joint = build_kernel_matrix(ks) @ unfold_patches(x, (3, 3, 3))
        np.testing.assert_allclose(taped_set(ks, x), joint.reshape(3, 4, 5, 5), rtol=1e-12, atol=1e-12)

    def test_all_joint_schemes_match_matmul_path(self, rng):
        x = rng.standard_normal((2, 4, 4, 5))
        for token in UNCHAINED_TOKENS:
            scheme = parse_scheme_token(token)
            ks = random_kernel_set(scheme, 3, 2, rng)
            direct = taped_set(ks, x)
            folded = (build_kernel_matrix(ks) @ unfold_patches(x, (3, 3, 3))).reshape(-1, 4, 4, 5)
            rel = np.linalg.norm(direct - folded) / np.linalg.norm(folded)
            assert rel < 1e-10, token

    @pytest.mark.parametrize("token", ["seq1d", "seq1d2d"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_chains_match_matmul_path(self, rng, token, k):
        """A chain's composed kernel matrix times the unfolded patches is the
        chained convolution, at the borders too."""
        x = rng.standard_normal((2, 4, 4, 5))
        ks = random_kernel_set(parse_scheme_token(token, k=k), 3, 2, rng)
        direct = taped_set(ks, x)
        folded = (build_kernel_matrix(ks) @ unfold_patches(x, (k, k, k))).reshape(-1, 4, 4, 5)
        assert np.linalg.norm(direct - folded) <= 1e-10 * np.linalg.norm(folded)

    def test_delta_kernels_reproduce_input(self):
        scheme = parse_scheme_token("res3_1d")
        delta = np.zeros((1, 1, 3))
        delta[0, 0, 1] = 1.0
        ks = KernelSet(scheme, 1, 1, (delta.copy(), delta.copy(), delta.copy()))
        x = np.random.default_rng(7).standard_normal((1, 3, 4, 5))
        out = taped_set(ks, x)
        assert out.shape == (3, 3, 4, 5)
        for branch in range(3):
            np.testing.assert_allclose(out[branch], x[0], atol=1e-14)

    def test_sequential_output_channels(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        for token in ("seq1d", "seq1d2d"):
            ks = random_kernel_set(parse_scheme_token(token), 5, 2, rng)
            assert taped_set(ks, x).shape == (5, 3, 4, 4)

    def test_axis_permutation_symmetry(self, rng):
        """Swapping two axes and the matching branches permutes the output."""
        scheme = parse_scheme_token("res3_1d")
        ks = random_kernel_set(scheme, 3, 2, rng)
        x = rng.standard_normal((2, 4, 5, 6))
        out = taped_set(ks, x)
        # exchange height and width: branches (band, height, width) -> (band, width, height)
        swapped = KernelSet(scheme, 3, 2, (ks.weights[0], ks.weights[2], ks.weights[1]))
        out_swapped = taped_set(swapped, x.transpose(0, 1, 3, 2))
        m = 3
        blocks = [out[0:m], out[m : 2 * m], out[2 * m : 3 * m]]
        expected = np.concatenate([blocks[0], blocks[2], blocks[1]], axis=0).transpose(0, 1, 3, 2)
        np.testing.assert_allclose(out_swapped, expected, atol=1e-12)


class TestTapLoopOracle:
    """The kn2row branch convolution, alone and inside the taped set, against
    the direct tap loop."""

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_set_forward_matches_tap_loop(self, rng, token):
        scheme = parse_scheme_token(token)
        ks = random_kernel_set(scheme, 3, 2, rng)
        x = rng.standard_normal((2, 4, 5, 6))
        out = taped_set(ks, x)
        assert np.max(np.abs(out - tap_loop_set(scheme, ks.weights, x))) <= 1e-12

    # Grids with one band or one row, and extents at the 2*dim+1 bound, are
    # where a tap's flattened offset would wrap into the next row or plane.
    # "several_blocks" and "block_multiple" span several column blocks of the
    # default size: 10498 columns, and 28672 = 7 * 4096, a multiple of every
    # block size below. The three 2-D windows, each padding two axes and not
    # the third, run just past one default block.
    BRANCH_SHAPES = [
        ((3, 3, 3), 4, (3, 5, 6, 7), "extents0"),
        ((3, 1, 1), 4, (3, 5, 6, 7), "extents1"),
        ((1, 3, 1), 4, (3, 5, 6, 7), "extents2"),
        ((1, 1, 3), 4, (3, 5, 6, 7), "extents3"),
        ((5, 5, 5), 4, (3, 5, 6, 7), "k5"),
        ((3, 3, 3), 2, (5, 4, 5, 6), "fewer_out_than_in"),
        ((3, 3, 3), 3, (2, 1, 6, 7), "one_band"),
        ((1, 3, 3), 3, (2, 5, 1, 7), "one_row"),
        ((1, 1, 3), 3, (2, 4, 5, 1), "one_column"),
        ((5, 7, 9), 3, (2, 2, 3, 4), "extents_at_bound"),
        ((3, 3, 3), 2, (3, 1, 1, 1), "single_voxel_at_bound"),
        ((3, 3, 3), 2, (2, 6, 40, 40), "several_blocks"),
        ((3, 1, 1), 2, (2, 28, 32, 32), "block_multiple"),
        ((1, 3, 3), 2, (2, 4, 30, 32), "e133_two_blocks"),
        ((3, 1, 3), 2, (2, 5, 28, 30), "e313_two_blocks"),
        ((3, 3, 1), 2, (2, 5, 30, 28), "e331_two_blocks"),
    ]
    # Each case at the default block size (bare id) and with blocks of one
    # and of seven columns, so every case crosses block edges; each also on
    # a workspace that hands out NaN-filled arrays (``-fresh``), so a read of
    # a scratch or gradient column that nothing wrote shows up.
    BRANCH_CASES = [
        pytest.param(
            extents, out_ch, shape, block, fresh,
            id=name + ("" if block is None else f"-block{block}") + ("-fresh" if fresh else ""),
        )
        for extents, out_ch, shape, name in BRANCH_SHAPES
        for fresh in (False, True)
        for block in (None, 1, 7)
    ]

    def test_block_cases_cross_default_blocks(self):
        def columns(extents, shape):  # the kernel's n on the flattened padded grid
            _, b, h, wd = shape
            hp, wp = h + extents[1] - 1, wd + extents[2] - 1
            return (b - 1) * hp * wp + (h - 1) * wp + wd

        cases = {name: (extents, shape) for extents, _, shape, name in self.BRANCH_SHAPES}
        several = columns(*cases["several_blocks"])
        multiple = columns(*cases["block_multiple"])
        assert several > 2 * ad.BLOCK_COLUMNS and several % ad.BLOCK_COLUMNS
        assert multiple > ad.BLOCK_COLUMNS and multiple % (7 * ad.BLOCK_COLUMNS) == 0
        for name in ("e133_two_blocks", "e313_two_blocks", "e331_two_blocks"):
            assert ad.BLOCK_COLUMNS < columns(*cases[name]) < 2 * ad.BLOCK_COLUMNS, name

    @pytest.mark.parametrize("extents, out_ch, shape, block, fresh", BRANCH_CASES)
    def test_branch_conv_matches_tap_loop(
        self, rng, monkeypatch, extents, out_ch, shape, block, fresh
    ):
        if block is not None:
            monkeypatch.setattr(ad, "BLOCK_COLUMNS", block)
        ws = FreshArrays() if fresh else ad.Workspace()
        w = rng.standard_normal((out_ch, shape[0]) + tuple(e for e in extents if e > 1))
        x = rng.standard_normal(shape)
        out = ad.branch_conv(ad.Node(w, ws=ws), ad.Node(x, ws=ws), extents).data
        assert out.shape == (out_ch,) + shape[1:]
        assert np.max(np.abs(out - tap_loop_conv(x, w, extents))) <= 1e-12

    @pytest.mark.parametrize("extents, out_ch, shape, block, fresh", BRANCH_CASES)
    def test_branch_conv_gradients_match_tap_loop(
        self, rng, monkeypatch, extents, out_ch, shape, block, fresh
    ):
        """Whole gradients: the input gradient satisfies the adjoint identity
        <conv(x), g> == <x, gx>, and the weight gradient equals the tap loop's."""
        if block is not None:
            monkeypatch.setattr(ad, "BLOCK_COLUMNS", block)
        ws = FreshArrays() if fresh else ad.Workspace()
        w = rng.standard_normal((out_ch, shape[0]) + tuple(e for e in extents if e > 1))
        x = rng.standard_normal(shape)
        g = rng.standard_normal((out_ch,) + shape[1:])
        wn, xn = ad.Node(w, ws=ws), ad.Node(x, ws=ws)
        out = ad.branch_conv(wn, xn, extents)
        out.backward(g)
        assert xn.grad.shape == x.shape and wn.grad.shape == w.shape
        lhs, rhs = np.sum(out.data * g), np.sum(x * xn.grad)
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(out.data * g))
        expected = tap_loop_weight_grad(x, g, extents).reshape(w.shape)
        assert np.max(np.abs(wn.grad - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


class TestRes3Block:
    """The network's block: branch concat -> 1x1x1 compression -> leaky
    rectifier -> 1x1x1 aggregation -> residual add with the block input."""

    def test_pure_residual_with_zero_weights(self, rng):
        arrays = res3_block_arrays(np.zeros, 3)
        x = rng.standard_normal((3, 4, 5, 5))
        np.testing.assert_array_equal(network_block(*arrays, x), x)

    def test_shape_preserved(self, rng):
        arrays = res3_block_arrays(rng.standard_normal, 4)
        assert network_block(*arrays, rng.standard_normal((4, 6, 8, 8))).shape == (4, 6, 8, 8)

    def test_matches_manual_composition(self, rng):
        scheme, weights, compression, aggregation = res3_block_arrays(rng.standard_normal, 3)
        x = rng.standard_normal((3, 4, 5, 5))
        pre = tap_loop_set(scheme, weights, x)
        compressed = np.tensordot(compression, pre, axes=(1, 0))
        activated = np.where(compressed >= 0, compressed, LEAKY_SLOPE * compressed)
        expected = np.tensordot(aggregation, activated, axes=(1, 0)) + x
        np.testing.assert_allclose(
            network_block(scheme, weights, compression, aggregation, x), expected, atol=1e-12
        )


def test_branch_extents_cover_distinct_axes():
    for token in ("res3_1d", "res3_1dx3"):
        extents = branch_extents(parse_scheme_token(token))
        assert extents == ((3, 1, 1), (1, 3, 1), (1, 1, 3))
    assert branch_extents(parse_scheme_token("res3_2d")) == ((1, 3, 3), (3, 1, 3), (3, 3, 1))
    assert branch_extents(parse_scheme_token("par1d2d")) == ((1, 3, 3), (3, 1, 1))
