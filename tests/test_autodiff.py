"""Reverse-mode engine: per-op gradient checks and network tape contracts."""

import numpy as np
import pytest

from resset import (
    ConfigError,
    FeatureMap,
    KernelSet,
    Network,
    ShapeError,
    conv_forward,
    parse_scheme_token,
)
from resset import autodiff as ad
from resset.schemes import LEAKY_SLOPE, branch_extents, expected_weight_shapes
from resset.train import training_loss

from conv_oracles import tap_loop_set


def central_difference(f, x, idx, step=1e-6):
    orig = x[idx]
    x[idx] = orig + step
    up = f()
    x[idx] = orig - step
    down = f()
    x[idx] = orig
    return (up - down) / (2 * step)


class TestOpGradients:
    def check_op(self, rng, build, arrays, step=1e-6, tol=1e-7, samples=6):
        """FD-check d(sum of output)/d(array entries) against the op's vjp."""
        nodes = [ad.Node(a) for a in arrays]
        out = build(*nodes)
        out.backward(np.ones_like(out.data))
        for node, arr in zip(nodes, arrays):
            assert node.grad is not None
            for _ in range(samples):
                idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
                fd = central_difference(
                    lambda: float(np.sum(build(*[ad.Node(a) for a in arrays]).data)),
                    arr,
                    idx,
                    step,
                )
                assert abs(fd - node.grad[idx]) <= tol * max(1.0, abs(fd))

    def test_branch_conv(self, rng):
        w = rng.standard_normal((3, 2, 3))
        x = rng.standard_normal((2, 4, 5, 5))
        self.check_op(rng, lambda wn, xn: ad.branch_conv(wn, xn, (3, 1, 1)), [w, x])

    def test_branch_conv_2d(self, rng):
        w = rng.standard_normal((2, 2, 3, 3))
        x = rng.standard_normal((2, 3, 5, 4))
        self.check_op(rng, lambda wn, xn: ad.branch_conv(wn, xn, (1, 3, 3)), [w, x])

    def test_branch_conv_3d(self, rng):
        w = rng.standard_normal((2, 3, 3, 3, 3))
        x = rng.standard_normal((3, 4, 4, 5))
        self.check_op(rng, lambda wn, xn: ad.branch_conv(wn, xn, (3, 3, 3)), [w, x])

    def test_branch_conv_width(self, rng):
        w = rng.standard_normal((3, 2, 3))
        x = rng.standard_normal((2, 3, 4, 5))
        self.check_op(rng, lambda wn, xn: ad.branch_conv(wn, xn, (1, 1, 3)), [w, x])

    def test_channel_mix(self, rng):
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 3, 4, 4))
        self.check_op(rng, ad.channel_mix, [w, x])

    @pytest.mark.parametrize("out_ch, in_ch", [(8, 1), (1, 8), (1, 1)])
    def test_channel_mix_single_channel_matches_matmul_bitwise(self, rng, out_ch, in_ch):
        """One input channel (the lift) or one output channel (the project's
        input gradient) makes a product an outer product; the values and both
        gradients keep matmul's exact bits."""
        w = rng.standard_normal((out_ch, in_ch))
        x = rng.standard_normal((in_ch, 3, 4, 5))
        g = rng.standard_normal((out_ch, 3, 4, 5))
        wn, xn = ad.Node(w), ad.Node(x)
        out = ad.channel_mix(wn, xn)
        out.backward(g)
        x2, g2 = x.reshape(in_ch, -1), g.reshape(out_ch, -1)
        expected = [(out.data, w @ x2), (wn.grad, g2 @ x2.T), (xn.grad, w.T @ g2)]
        for got, want in expected:
            assert np.array_equal(got.reshape(want.shape).view(np.uint64), want.view(np.uint64))

    def test_leaky_relu(self, rng):
        x = rng.standard_normal((2, 3, 3, 3)) + 0.05  # keep clear of the kink
        self.check_op(rng, lambda xn: ad.leaky_relu(xn, LEAKY_SLOPE), [x])

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_relu_backward_matches_masked_copy_bitwise(self, slope):
        """The backward's 0/1 mask, floored at the slope and multiplied by g,
        equals slope*g overwritten by g where x >= 0, bit for bit, at signed
        zeros, infinities, NaN and tiny values of both x and g."""
        x_values = np.array([-np.inf, -1.0, -0.0, 0.0, 1e-300, 1.0, np.inf, np.nan])
        g_values = np.array([-2.5, -0.0, 0.0, 1e-300, 1.0, np.inf, -np.inf, np.nan])
        shape = (1, x_values.size, g_values.size, 1)
        x = np.repeat(x_values, g_values.size).reshape(shape)
        g = np.tile(g_values, x_values.size).reshape(shape)
        node = ad.Node(x)
        with np.errstate(invalid="ignore"):  # inf * 0 in the forward and the reference
            ad.leaky_relu(node, slope).backward(g)
            reference = g * slope
        np.copyto(reference, g, where=x >= 0)
        assert node.grad.view(np.uint64).tolist() == reference.view(np.uint64).tolist()

    @pytest.mark.parametrize("slope", [-0.1, 1.5])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        """The rectifier is max(x, slope*x), which is the leaky rectifier only
        for 0 <= slope <= 1."""
        with pytest.raises(ConfigError):
            ad.leaky_relu(ad.Node(np.ones((1, 1, 1, 2))), slope)

    def test_concat_channels(self, rng):
        a = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal((4, 3, 3, 3))
        self.check_op(rng, lambda an, bn: ad.concat_channels([an, bn]), [a, b])

    def test_add_and_scale(self, rng):
        a = rng.standard_normal((2, 2, 2, 2))
        b = rng.standard_normal((2, 2, 2, 2))
        self.check_op(rng, lambda an, bn: ad.scale(ad.add(an, bn), 2.5), [a, b])

    def test_mean_abs_error(self, rng):
        pred = rng.standard_normal((2, 3, 3, 3))
        target = rng.standard_normal((2, 3, 3, 3))
        node = ad.Node(pred)
        loss = ad.mean_abs_error(node, target)
        loss.backward()
        for _ in range(6):
            idx = tuple(int(rng.integers(0, s)) for s in pred.shape)
            fd = central_difference(
                lambda: float(ad.mean_abs_error(ad.Node(pred), target).data), pred, idx
            )
            assert abs(fd - node.grad[idx]) <= 1e-7

    def test_mean_abs_error_tie_subgradient_is_zero(self, rng):
        data = rng.standard_normal((1, 2, 2, 2))
        node = ad.Node(data)
        loss = ad.mean_abs_error(node, data.copy())
        loss.backward()
        np.testing.assert_array_equal(node.grad, np.zeros_like(data))

    def test_diversity_penalty(self, rng):
        # well-separated singular values keep the penalty differentiable
        base = np.diag([5.0, 3.0, 1.5]) @ rng.standard_normal((3, 27))
        x = base.reshape(3, 3, 3, 3).copy()
        node = ad.Node(x)
        loss = ad.diversity_penalty(node)
        loss.backward()
        for _ in range(8):
            idx = tuple(int(rng.integers(0, s)) for s in x.shape)
            fd = central_difference(
                lambda: float(ad.diversity_penalty(ad.Node(x)).data), x, idx, step=1e-6
            )
            assert abs(fd - node.grad[idx]) <= 1e-5


class TestSingleBlockGradient:
    def test_block_gradients_match_finite_differences_of_untaped_block(self, rng):
        """Taped gradients of the scalar block-output sum vs central
        differences of the no-tape block forward, for every weight."""
        scheme = parse_scheme_token("res3_1d")
        shapes = expected_weight_shapes(scheme, 3, 3)
        arrays = {
            **{f"w{j}": rng.standard_normal(shape) for j, shape in enumerate(shapes)},
            "compress": rng.standard_normal((3, 9)),
            "aggregate": rng.standard_normal((3, 3)),
        }
        x = rng.standard_normal((3, 4, 5, 5))

        def taped_sum():
            nodes = {k: ad.Node(v) for k, v in arrays.items()}
            xin = ad.Node(x)
            parts = [
                ad.branch_conv(nodes[f"w{j}"], xin, e)
                for j, e in enumerate(branch_extents(scheme))
            ]
            y = ad.channel_mix(nodes["compress"], ad.concat_channels(parts))
            y = ad.leaky_relu(y, LEAKY_SLOPE)
            y = ad.channel_mix(nodes["aggregate"], y)
            out = ad.add(y, xin)
            return out, nodes

        def untaped_sum() -> float:
            """Branch concat -> compression -> leaky rectifier -> aggregation
            -> residual add, from the tap-loop convolution set."""
            y = tap_loop_set(scheme, [arrays[f"w{j}"] for j in range(3)], x)
            y = np.tensordot(arrays["compress"], y, axes=(1, 0))
            y = np.where(y >= 0, y, LEAKY_SLOPE * y)
            return float((np.tensordot(arrays["aggregate"], y, axes=(1, 0)) + x).sum())

        out, nodes = taped_sum()
        out.backward(np.ones_like(out.data))
        step = 1e-4
        for name, arr in arrays.items():
            grad = nodes[name].grad
            for flat in range(0, arr.size, max(1, arr.size // 4)):
                idx = np.unravel_index(flat, arr.shape)
                orig = arr[idx]
                arr[idx] = orig + step
                up = untaped_sum()
                arr[idx] = orig - step
                down = untaped_sum()
                arr[idx] = orig
                fd = (up - down) / (2 * step)
                assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8) < 1e-5, name


class TestGraphMechanics:
    def test_shared_node_accumulates(self, rng):
        x = ad.Node(rng.standard_normal((2, 2, 2, 2)))
        out = ad.add(x, x)
        out.backward(np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad, 2 * np.ones_like(x.data))

    def test_first_gradient_is_a_private_copy(self, rng):
        """add hands the same upstream array to both parents; each parent's
        gradient must be its own array, or the second write would alias the
        first."""
        g = rng.standard_normal((2, 2, 2, 2))
        a = ad.Node(rng.standard_normal(g.shape))
        b = ad.Node(rng.standard_normal(g.shape))
        ad.add(a, b).backward(g)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, g) and not np.shares_memory(b.grad, g)
        np.testing.assert_array_equal(a.grad, g)
        np.testing.assert_array_equal(b.grad, g)
        x = ad.Node(rng.standard_normal(g.shape))
        ad.add(x, x).backward(g)
        np.testing.assert_array_equal(x.grad, 2 * g)

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ad.add(ad.Node(np.zeros((1, 2, 2, 2))), ad.Node(np.zeros((2, 2, 2, 2))))

    @pytest.mark.parametrize(
        "seed_shape", [pytest.param((5, 6, 6), id="rank3"), pytest.param((), id="scalar")]
    )
    def test_backward_rejects_seed_of_other_shape(self, rng, seed_shape):
        net = Network(parse_scheme_token("res3_1d"), channels=1, width=4, num_blocks=1, seed=5)
        out = net.forward_tape(rng.standard_normal((1, 5, 6, 6))).output
        with pytest.raises(ShapeError) as info:
            out.backward(np.ones(seed_shape))
        assert str(seed_shape) in str(info.value) and "(1, 5, 6, 6)" in str(info.value)


class FreshArrays(ad.Workspace):
    """A workspace that never recycles: every take is a new array full of NaN,
    so an op that reads a buffer before writing it, or an array given back
    while still in use, shows up against it."""

    def take(self, shape):
        return np.full(shape, np.nan)

    def give(self, *arrays):
        pass


class TestWorkspace:
    def test_take_reuses_what_was_given_back(self):
        ws = ad.Workspace()
        a = ws.take((2, 3))
        b = ws.take((2, 3))
        assert a is not b
        ws.give(a)
        assert ws.take((3, 2)) is not a  # keyed by shape, not by size
        assert ws.take((2, 3)) is a
        ws.reclaim()
        assert {id(ws.take((2, 3))), id(ws.take((2, 3)))} == {id(a), id(b)}

    def test_giving_back_twice_raises(self):
        ws = ad.Workspace()
        a = ws.take((4,))
        ws.give(a)
        with pytest.raises(KeyError):
            ws.give(a)
        with pytest.raises(KeyError):
            ws.give(np.empty(4))

    def test_backward_gives_back_interior_arrays_only(self, rng):
        w = ad.Node(rng.standard_normal((3, 2)))
        x = ad.Node(rng.standard_normal((2, 2, 3, 3)), ws=w.ws)
        mid = ad.leaky_relu(ad.channel_mix(w, x), LEAKY_SLOPE)
        root = ad.mean_abs_error(mid, np.zeros(mid.data.shape))
        root.backward()
        assert mid.grad is None
        assert root.grad is not None and w.grad is not None and x.grad is not None

    @pytest.mark.parametrize("token, lam", [("conv3d", 0.0), ("res3_1d", 5e-5), ("seq1d2d", 5e-5)])
    def test_shared_workspace_matches_fresh_arrays(self, rng, token, lam):
        """Steps through one recycling workspace, as in training, give
        bit-identical parameter gradients to graphs that never reuse an array,
        on the same parameters and inputs."""
        net = Network(parse_scheme_token(token), channels=1, width=4, num_blocks=2, seed=7)
        ws = ad.Workspace()
        for _ in range(3):
            x = rng.standard_normal((1, 5, 6, 7))
            clean = rng.standard_normal(x.shape)
            grads = []
            for workspace in (ws, FreshArrays()):
                tape = net.forward_tape(x, workspace)
                loss = training_loss(tape.output, tape.feature, clean, lam)[0]
                loss.backward()
                grads.append({k: n.grad.copy() for k, n in tape.params.items()})
                del tape, loss
                workspace.reclaim()
            shared, fresh = grads
            for name in net.params:
                np.testing.assert_array_equal(shared[name], fresh[name], err_msg=name)
                net.params[name] -= 1e-2 * fresh[name]  # the next step sees new weights


class TestNetworkTape:
    def _net(self, scheme_token="res3_1d", blocks=2):
        scheme = parse_scheme_token(scheme_token)
        return Network(scheme, channels=1, width=4, num_blocks=blocks, seed=5)

    def test_zero_weight_network_with_residual_is_identity(self, rng):
        net = self._net()
        for name in net.params:
            net.params[name] = np.zeros_like(net.params[name])
        x = rng.standard_normal((1, 5, 6, 6))
        np.testing.assert_array_equal(net.forward_tape(x).output.data, x)

    def test_shapes_preserved(self, rng):
        net = self._net()
        out = net.forward_tape(rng.standard_normal((1, 8, 12, 12))).output
        assert out.data.shape == (1, 8, 12, 12)

    def test_forward_matches_untaped_reference(self, rng):
        """Independently coded forward on the tap-loop convolution set."""
        net = self._net()
        x = rng.standard_normal((1, 6, 7, 7))
        taped = net.forward_tape(x).output.data

        n_branches = len(branch_extents(net.scheme))
        h = np.tensordot(net.params["lift"], x, axes=(1, 0))
        for i in range(net.num_blocks):
            weights = [net.params[f"b{i}.w{j}"] for j in range(n_branches)]
            feat = tap_loop_set(net.scheme, weights, h)
            y = np.tensordot(net.params[f"b{i}.compress"], feat, axes=(1, 0))
            y = np.where(y >= 0, y, LEAKY_SLOPE * y)
            y = np.tensordot(net.params[f"b{i}.aggregate"], y, axes=(1, 0))
            h = y + h
        expected = np.tensordot(net.params["project"], h, axes=(1, 0)) + x
        assert np.max(np.abs(taped - expected)) <= 1e-12

    @pytest.mark.parametrize("token", ["conv3d", "res3_1d", "res3_1d_l2", "seq1d2d", "par1d2d"])
    def test_feature_equals_conv_forward_of_last_block(self, rng, token):
        """The tape's feature is the one set forward that conv_forward runs."""
        net = Network(parse_scheme_token(token), channels=1, width=4, num_blocks=1, seed=3)
        x = rng.standard_normal((1, 5, 6, 6))
        feature = net.forward_tape(x).feature.data
        block_input = np.tensordot(net.params["lift"], x, axes=(1, 0))
        n_branches = len(branch_extents(net.scheme))
        ks = KernelSet(net.scheme, 4, 4, tuple(net.params[f"b0.w{j}"] for j in range(n_branches)))
        np.testing.assert_array_equal(conv_forward(ks, FeatureMap(block_input)).data, feature)

    def test_forward_deterministic(self, rng):
        net = self._net()
        x = rng.standard_normal((1, 5, 6, 6))
        first = net.forward_tape(x).output.data
        second = net.forward_tape(x).output.data
        np.testing.assert_array_equal(first, second)

    def test_zero_upstream_gives_zero_gradients(self, rng):
        net = self._net()
        tape = net.forward_tape(rng.standard_normal((1, 5, 6, 6)))
        tape.output.backward(np.zeros((1, 5, 6, 6)))
        assert set(tape.params) == set(net.params)
        for node in tape.params.values():
            np.testing.assert_array_equal(node.grad, np.zeros_like(node.data))

    def test_every_parameter_registered_once(self):
        net = self._net()
        expected = {"lift", "project"}
        for i in range(2):
            expected |= {f"b{i}.w{j}" for j in range(3)} | {f"b{i}.compress", f"b{i}.aggregate"}
        assert set(net.params) == expected

    def test_network_gradients_match_finite_differences(self, rng):
        """Sampled parameter gradients of the full loss vs central differences."""
        net = self._net()
        x = rng.standard_normal((1, 5, 6, 6)) * 0.5
        target = rng.standard_normal((1, 5, 6, 6)) * 0.5

        def loss_graph():
            tape = net.forward_tape(x)
            data = ad.mean_abs_error(tape.output, target)
            reg = ad.scale(ad.diversity_penalty(tape.feature), 5e-5)
            return ad.add(data, reg), tape

        loss, tape = loss_graph()
        loss.backward()
        analytic = {k: n.grad for k, n in tape.params.items()}
        names = sorted(net.params)
        step = 1e-4
        for _ in range(12):
            name = names[int(rng.integers(0, len(names)))]
            w = net.params[name]
            idx = tuple(int(rng.integers(0, s)) for s in w.shape)
            orig = w[idx]
            w[idx] = orig + step
            up = float(loss_graph()[0].data)
            w[idx] = orig - step
            down = float(loss_graph()[0].data)
            w[idx] = orig
            fd = (up - down) / (2 * step)
            an = analytic[name][idx]
            assert abs(fd - an) / max(abs(an), abs(fd), 1e-8) <= 1e-4

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        net = self._net()
        net.save_checkpoint(tmp_path / "ckpt")
        other = self._net()
        for name in other.params:
            other.params[name] = np.zeros_like(other.params[name])
        other.load_checkpoint(tmp_path / "ckpt")
        x = rng.standard_normal((1, 5, 6, 6))
        np.testing.assert_array_equal(
            net.forward_tape(x).output.data, other.forward_tape(x).output.data
        )

    def test_checkpoint_missing_parameter_rejected(self, tmp_path):
        self._net().save_checkpoint(tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(l for l in lines if not l.startswith("param b1.compress")))
        other = self._net()
        before = {name: value.copy() for name, value in other.params.items()}
        with pytest.raises(ConfigError, match="b1.compress"):
            other.load_checkpoint(tmp_path / "ckpt")
        for name, value in before.items():  # nothing was loaded
            np.testing.assert_array_equal(other.params[name], value)

    @pytest.mark.parametrize(
        "line, other_line",
        [
            ("scheme=res3_1d", "scheme=res3_2d"),
            ("width=4", "width=8"),
            ("num_blocks=2", "num_blocks=1"),
        ],
    )
    def test_checkpoint_header_mismatch_rejected(self, tmp_path, line, other_line):
        self._net().save_checkpoint(tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        text = manifest.read_text()
        assert line + "\n" in text
        manifest.write_text(text.replace(line + "\n", other_line + "\n"))
        with pytest.raises(ConfigError, match=line.split("=")[0]):
            self._net().load_checkpoint(tmp_path / "ckpt")

    def test_conv3d_scheme_network(self, rng):
        net = self._net("conv3d")
        out = net.forward_tape(rng.standard_normal((1, 5, 6, 6))).output
        assert out.data.shape == (1, 5, 6, 6)
