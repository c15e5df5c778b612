"""Reverse-mode engine: per-op gradient checks and network tape contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from resset.schemes import _TOKENS, LEAKY_SLOPE, branch_extents, expected_weight_shapes
from resset.train import training_loss

from conftest import FreshArrays
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

    def test_pool_is_keyed_by_dtype(self):
        ws = ad.Workspace(np.float32)
        a = ws.take((2, 3))
        b = ws.take((2, 3), np.float64)
        assert a.dtype == np.float32 and b.dtype == np.float64
        ws.give(a, b)
        assert ws.take((2, 3), np.float64) is b
        assert ws.take((2, 3)) is a
        assert ad.Workspace().take((1,)).dtype == np.float64

    def test_node_takes_its_workspace_dtype(self, rng):
        w64 = rng.standard_normal((3, 2))
        ws = ad.Workspace(np.float32)
        w, x = ad.Node(w64, ws=ws), ad.Node(rng.standard_normal((2, 2, 3, 3)), ws=ws)
        root = ad.mean_abs_error(ad.channel_mix(w, x), np.zeros((3, 2, 3, 3), np.float32))
        root.backward(np.float64(1.0))
        assert w.data.dtype == x.data.dtype == root.data.dtype == np.float32
        assert w.grad.dtype == x.grad.dtype == root.grad.dtype == np.float32
        np.testing.assert_array_equal(w.data, w64.astype(np.float32))
        assert ad.Node(w64.astype(np.float32)).data.dtype == np.float64  # no workspace: float64

    def test_backward_gives_back_interior_arrays_only(self, rng):
        w = ad.Node(rng.standard_normal((3, 2)))
        x = ad.Node(rng.standard_normal((2, 2, 3, 3)), ws=w.ws)
        mid = ad.leaky_relu(ad.channel_mix(w, x), LEAKY_SLOPE)
        root = ad.mean_abs_error(mid, np.zeros(mid.data.shape))
        root.backward()
        assert mid.grad is None
        assert root.grad is not None and w.grad is not None and x.grad is not None

    # Every distinct scheme with the penalty (res3_1d_l1 is res3_1d), and the
    # plain conv3d run of the benchmark.
    DISTINCT_TOKENS = [t for t in _TOKENS if parse_scheme_token(t).token == t]

    @pytest.mark.parametrize(
        "token, lam", [("conv3d", 0.0)] + [(token, 5e-5) for token in DISTINCT_TOKENS]
    )
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


def spy_backward(node, log):
    """Record, as ``node``'s backward starts, its gradient and the buffer it
    views: ``(grad copy, grad, lender, lender's buffer or None)``."""
    backward = node._backward

    def spied(g):
        lender = node._lender
        log.append((g.copy(), g, lender, None if lender is None else lender.grad))
        backward(g)

    node._backward = spied


class TestGradientLending:
    """add and concat_channels lend their gradient to interior parents as a
    read-only view; the first further contribution makes a private sum."""

    def test_borrowed_gradient_is_a_read_only_view_of_the_lender(self, rng):
        x = ad.Node(rng.standard_normal((2, 2, 3, 3)))
        p, q = ad.scale(x, 2.0), ad.scale(x, 3.0)
        s = ad.add(p, q)
        root = ad.scale(s, 1.0)
        log = []
        spy_backward(p, log)
        root.backward(rng.standard_normal(x.data.shape))
        g, view, lender, buffer = log[0]
        assert lender is s and np.shares_memory(view, buffer)
        assert not view.flags.writeable
        assert p.grad is None and s.grad is None and s._holds == 0
        np.testing.assert_array_equal(x.grad, 2.0 * g + 3.0 * g)

    def test_materializing_leaves_the_lender_untouched(self, rng):
        """p borrows t's gradient twice, directly and through s; its second
        contribution sums into a buffer of its own, and q still reads t's
        gradient unchanged."""
        x = ad.Node(rng.standard_normal((2, 2, 3, 3)))
        p, q = ad.scale(x, 2.0), ad.scale(x, 3.0)
        t = ad.add(ad.add(p, q), p)
        root = ad.scale(t, 1.0)
        p_log, q_log = [], []
        spy_backward(p, p_log)
        spy_backward(q, q_log)
        seed = rng.standard_normal(x.data.shape)
        root.backward(seed)
        (p_sum, p_view, p_lender, _), (q_g, q_view, q_lender, q_buffer) = p_log[0], q_log[0]
        assert p_lender is None and p_view.flags.writeable
        assert not np.shares_memory(p_view, q_buffer)
        np.testing.assert_array_equal(p_sum, seed + seed)
        assert q_lender is t and np.shares_memory(q_view, q_buffer)
        np.testing.assert_array_equal(q_g, seed)
        np.testing.assert_array_equal(x.grad, 2.0 * p_sum + 3.0 * seed)

    def test_lending_through_an_add_chain_lends_the_first_owner(self, rng):
        x = ad.Node(rng.standard_normal((1, 2, 2, 2)))
        parts = [ad.scale(x, f) for f in (1.0, 2.0, 4.0)]
        inner = ad.add(parts[0], parts[1])
        outer = ad.add(inner, parts[2])
        root = ad.scale(outer, 1.0)
        logs = [[] for _ in parts]
        for node, log in zip(parts, logs):
            spy_backward(node, log)
        seed = rng.standard_normal(x.data.shape)
        root.backward(seed)
        for log in logs:
            g, view, lender, buffer = log[0]
            assert lender is outer and np.shares_memory(view, buffer)
            np.testing.assert_array_equal(g, seed)
        assert outer.grad is None and outer._holds == 0 and inner.grad is None
        np.testing.assert_array_equal(x.grad, 7.0 * seed)

    def test_concat_lends_row_blocks(self, rng):
        x = ad.Node(rng.standard_normal((1, 2, 2, 2)))
        a, b = ad.scale(x, 2.0), ad.scale(x, 3.0)
        cat = ad.concat_channels([a, b])
        root = ad.scale(cat, 1.0)
        logs = [[], []]
        spy_backward(a, logs[0])
        spy_backward(b, logs[1])
        seed = rng.standard_normal(cat.data.shape)
        root.backward(seed)
        for i, log in enumerate(logs):
            g, view, lender, buffer = log[0]
            assert lender is cat and np.shares_memory(view, buffer)
            np.testing.assert_array_equal(g, seed[i : i + 1])
        np.testing.assert_array_equal(x.grad, 2.0 * seed[:1] + 3.0 * seed[1:])

    def test_leaves_and_root_never_borrow(self, rng):
        g = rng.standard_normal((2, 2, 2, 2))
        a, b, c = (ad.Node(rng.standard_normal(g.shape)) for _ in range(3))
        s = ad.add(a, b)
        cat = ad.concat_channels([s, c])
        root = ad.scale(cat, 1.0)
        log = []
        spy_backward(s, log)
        root.backward(np.concatenate([g, g]))
        view = log[0][1]
        for leaf in (a, b, c):
            assert leaf._lender is None and leaf.grad.flags.writeable
            assert not np.shares_memory(leaf.grad, view)
            np.testing.assert_array_equal(leaf.grad, g)
        assert root._lender is None and root.grad is not None

    def test_nothing_is_lent_after_backward_but_root_and_leaf_arrays(self, rng):
        """Each interior buffer goes back to the workspace once its last
        borrower has run; what stays lent is the root's and the parameters'.
        The input leaf takes no gradient, so it holds no array."""
        net = Network(parse_scheme_token("res3_1d"), channels=1, width=4, num_blocks=2, seed=7)
        ws = ad.Workspace()
        tape = net.forward_tape(rng.standard_normal((1, 5, 6, 7)), ws)
        loss = training_loss(tape.output, tape.feature, rng.standard_normal((1, 5, 6, 7)), 5e-5)[0]
        loss.backward()
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        leaves = [n for n in nodes.values() if n._backward is None]
        interior = [n for n in nodes.values() if n._backward is not None and n is not loss]
        params = [n for n in leaves if n.requires_grad]
        assert len(params) == len(tape.params) and len(leaves) == len(params) + 1
        assert {id(a) for a in ws._lent.values()} == {
            id(a) for a in (loss.grad, *loss._owned, *(n.grad for n in params))
        }
        for node in interior:
            assert node.grad is None and node._lender is None and node._holds == 0
        ws.reclaim()
        assert not ws._lent

    OPS = ("add", "concat", "scale", "leaky", "mix")

    @staticmethod
    def random_graph(ops, seed, ws):
        """A DAG over two leaves: each op reads the node made just before it
        and, for add and concat, a second node of its shape picked by the
        op's integer, so every op is an ancestor of the root and nodes are
        shared across ops."""
        gen = np.random.default_rng(seed)
        x = ad.Node(gen.standard_normal((2, 2, 3, 3)), ws=ws)
        leaves = [x, ad.Node(gen.standard_normal((2, 2, 3, 3)), ws=ws)]
        nodes = list(leaves)
        for op, j in ops:
            a = nodes[-1]
            same = [n for n in nodes if n.data.shape == a.data.shape]
            b = same[j % len(same)]
            if op == "add":
                node = ad.add(a, b)
            elif op == "concat":
                node = ad.concat_channels([a, b])
            elif op == "scale":
                node = ad.scale(a, 0.5 + j % 3)
            elif op == "leaky":
                node = ad.leaky_relu(a, LEAKY_SLOPE)
            else:
                w = ad.Node(gen.standard_normal((1 + j % 3, a.data.shape[0])), ws=ws)
                leaves.append(w)
                node = ad.channel_mix(w, a)
            nodes.append(node)
        return nodes[-1], leaves, gen.standard_normal(nodes[-1].data.shape)

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 99)),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_random_graphs_match_fresh_arrays_bitwise(self, ops, seed):
        """The same graph twice on one recycling workspace and once on arrays
        that are never reused gives bit-identical leaf gradients."""
        ws = ad.Workspace()
        grads = []
        for workspace in (ws, ws, FreshArrays()):
            root, leaves, g = self.random_graph(ops, seed, workspace)
            root.backward(g)
            grads.append([None if leaf.grad is None else leaf.grad.copy() for leaf in leaves])
            del root, leaves
            workspace.reclaim()
        for run in grads[:2]:
            for got, want in zip(run, grads[2]):
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize("bad", ["param lift", "param lift lift.rst extra"])
    def test_malformed_param_line_names_the_line(self, tmp_path, bad):
        self._net().save_checkpoint(tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        manifest.write_text(manifest.read_text() + bad + "\n")
        with pytest.raises(ConfigError, match="is not 'param <name> <file>'") as err:
            self._net().load_checkpoint(tmp_path / "ckpt")
        assert repr(bad) in str(err.value)

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


class TestPrecisionSplit:
    """The float32 training tape against the float64 one, and the float64
    path against the parent's arithmetic."""

    DISTINCT_TOKENS = TestWorkspace.DISTINCT_TOKENS

    @staticmethod
    def _step(net, x, clean, ws):
        tape = net.forward_tape(x, ws)
        loss = training_loss(tape.output, tape.feature, clean, 5e-5)[0]
        loss.backward(np.float64(1.0))
        feature = tape.feature.data.astype(np.float64).reshape(tape.feature.data.shape[0], -1)
        results = {"output": tape.output.data, "loss": loss.data}
        results.update({name: node.grad for name, node in tape.params.items()})
        return {k: np.asarray(v, np.float64) for k, v in results.items()}, feature

    def test_input_takes_no_gradient(self, rng):
        """The network input is a leaf that asks for no gradient: backward
        neither copies the global residual's gradient into it nor runs the
        lift's input-gradient product."""
        net = Network(parse_scheme_token("res3_1d"), channels=1, width=4, num_blocks=2, seed=7)
        tape = net.forward_tape(rng.standard_normal((1, 5, 6, 7)))
        loss = training_loss(tape.output, tape.feature, rng.standard_normal((1, 5, 6, 7)), 5e-5)[0]
        loss.backward()
        params = set(map(id, tape.params.values()))
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        (xin,) = [n for n in nodes.values() if n._backward is None and id(n) not in params]
        assert not xin.requires_grad and xin.grad is None
        assert all(node.grad is not None for node in tape.params.values())

    @pytest.mark.parametrize("token", DISTINCT_TOKENS)
    def test_float32_tape_matches_float64(self, token):
        """One penalized training step (lam=5e-5) on a float32 workspace
        against the same step in float64: the output, the loss and every
        parameter gradient agree within ``eps * (1 + kappa)`` in norm, with
        ``eps = 1e-5`` and ``kappa = s_1 / s_r`` the condition number of the
        float64 feature matrix over its numeric rank r.

        Derivation. float32 rounds with unit roundoff u = 2^-24 = 6.0e-8.
        The tape has at most D = 50 ops, forward and backward (two blocks of
        at most three branch convolutions, a concat, two channel maps, the
        rectifier and the residual add, plus the lift, projection, loss and
        penalty), and its longest sum has K = 27 * 4 = 108 terms (the 3x3x3
        branch at width 4). A sum of K rounded terms is off by about
        sqrt(K) u (Higham and Mary 2019, probabilistic rounding error
        analysis), and independent errors of D ops add in quadrature:
        sqrt(D K) u = 4.4e-6, under eps. The penalty's gradient is the polar
        factor of the feature matrix F over its rank r; a relative error e of
        F moves it by about e * kappa (Li 1995, perturbation bounds for the
        unitary polar factor), so its part of each gradient is off by at most
        eps * kappa. Here the largest error is 3.2e-6 against a bound of
        3.0e-3 (res3_1d_l2, kappa = 301), and at most 4e-7 elsewhere."""
        net = Network(parse_scheme_token(token), channels=1, width=4, num_blocks=2, seed=7)
        gen = np.random.default_rng(11)
        for _ in range(2):
            x = gen.standard_normal((1, 5, 6, 7)).astype(np.float32)
            clean = gen.standard_normal(x.shape).astype(np.float32)
            want, feature = self._step(net, x, clean, ad.Workspace())
            got, _ = self._step(net, x, clean, ad.Workspace(np.float32))
            s = np.linalg.svd(feature, compute_uv=False)
            kappa = s[0] / s[s > 1e-9 * s[0]][-1]
            bound = 1e-5 * (1.0 + kappa)
            for name in want:
                err = np.linalg.norm(got[name] - want[name]) / np.linalg.norm(want[name])
                assert err <= bound, (name, err, bound)
            for name in net.params:
                net.params[name] -= 1e-2 * want[name]  # the next step sees new weights

    def test_float32_penalty_decomposes_in_float64(self, rng):
        """On a float32 tape the penalty decomposes a float64 copy of the
        feature. So its value is the float64 penalty of the same entries,
        rounded once to float32, and its gradient differs from the float64
        one only by the rounding of the kept factor G^(-1/2) and of the final
        product: about sqrt(rows) * kappa * u in norm (u = 2^-24, kappa =
        s_1 / s_rows), 2.9e-4 here, where about 5e-6 is seen. A Gram matrix
        formed in float32 would be off by about kappa^2 * u = 6e-2 instead."""
        rows, cols = 24, 600
        left, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        right, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
        kappa = 1e3  # lam_min / lam_max = 1e-6 keeps it on the Gram path
        f = ((left * np.logspace(0, -3, rows)) @ right.T).astype(np.float32)
        results = []
        for dtype in (np.float64, np.float32):
            x = ad.Node(f.reshape(rows, 4, 10, 15), ws=ad.Workspace(dtype))
            out = ad.diversity_penalty(x)
            out.backward(np.float64(1.0))
            assert x.grad.dtype == dtype
            results.append((float(out.data), x.grad.astype(np.float64)))
        (value64, grad64), (value32, grad32) = results
        assert value32 == float(np.float32(value64))
        err = np.linalg.norm(grad32 - grad64) / np.linalg.norm(grad64)
        assert err <= np.sqrt(rows) * kappa * 2.0**-24, err

    @pytest.mark.parametrize("token", DISTINCT_TOKENS)
    def test_float64_workspace_matches_private_workspaces_bitwise(self, rng, token):
        """A float64 workspace runs the same arithmetic as nodes made without
        one (each op on a private float64 workspace): every result is
        bit-identical."""
        net = Network(parse_scheme_token(token), channels=1, width=4, num_blocks=2, seed=7)
        x = rng.standard_normal((1, 5, 6, 7))
        clean = rng.standard_normal(x.shape)
        shared, _ = self._step(net, x, clean, ad.Workspace(np.float64))
        private, _ = self._step(net, x, clean, None)
        for name in private:
            assert np.array_equal(shared[name].view(np.uint64), private[name].view(np.uint64)), name
