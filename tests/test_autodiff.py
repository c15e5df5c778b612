"""Reverse-mode engine: per-op gradient checks and network tape contracts."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resset import (
    ConfigError,
    KernelSet,
    Network,
    ShapeError,
    parse_scheme_token,
)
from resset import autodiff as ad
from resset.schemes import _TOKENS, LEAKY_SLOPE, branch_extents, expected_weight_shapes
from resset.train import training_loss
from resset import workspace
from resset.workspace import ALIGN

from conftest import FreshArrays, taped_set
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

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-13), (np.float32, 1e-5)])
    def test_channel_mix_weight_gradient_sums_column_blocks(self, rng, monkeypatch, dtype, tol):
        """Over several column blocks the weight gradient is the sum of one
        product per block: the one-call product's value up to the rounding
        of that sum, in the tape's dtype."""
        monkeypatch.setattr(ad, "BLOCK_COLUMNS", 16)  # 60 positions: blocks of 16, 16, 16, 12
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 3, 4, 5))
        g = rng.standard_normal((3, 3, 4, 5))
        ws = ad.Workspace(dtype)
        wn, xn = ad.Node(w, ws=ws), ad.Node(x, ws=ws)
        ad.channel_mix(wn, xn).backward(g)
        x2, g2 = xn.data.reshape(4, -1), g.astype(dtype).reshape(3, -1)
        blocks = sum(g2[:, lo : lo + 16] @ x2[:, lo : lo + 16].T for lo in range(0, 60, 16))
        assert wn.grad.dtype == dtype
        np.testing.assert_array_equal(wn.grad, blocks)
        np.testing.assert_allclose(wn.grad, g2 @ x2.T, rtol=tol, atol=tol)

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


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("positions", [60, 49])  # last blocks of 12 and 1 columns
    def test_penalty_gradient_summed_into_an_own_buffer_is_bitwise(
        self, rng, monkeypatch, dtype, positions
    ):
        """Added block by block into a gradient buffer the input already
        owns, the penalty's gradient gives the bits of the gradient array it
        makes when the input has no gradient yet, added to that buffer, with
        a last block of one column too."""
        monkeypatch.setattr(ad, "BLOCK_COLUMNS", 16)
        x = rng.standard_normal((24, 1, 1, positions))
        prior = rng.standard_normal(x.shape).astype(dtype)
        grads = []
        for owned in (True, False):
            ws = ad.Workspace(dtype)
            feature = ad.scale(ad.Node(x, ws=ws), 1.0)  # interior, so it may own a buffer
            penalty = ad.diversity_penalty(feature)
            if owned:
                feature.slot.grad = ws.take(x.shape)
                feature.grad[...] = prior
            penalty._backward(np.float64(0.75))
            grads.append(feature.grad if owned else feature.grad + prior)
        assert grads[0].dtype == dtype
        assert np.array_equal(grads[0], grads[1])

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


def address(array):
    return array.__array_interface__["data"][0]


class TestWorkspace:
    def test_take_reuses_what_was_given_back(self):
        """The first step's arrays are fresh. Planned from that step, a take
        made after an array died lands on the bytes it held, in any shape
        that fits them; the next step gets those arrays, and a step that
        repeats it gets the same arrays again."""
        ws = ad.Workspace()

        def step():
            """Take two arrays, let the first die and take a third: the
            address and shape of each, and whether it is a view of the arena."""
            first, second = ws.take((2, 3)), ws.take((2, 3))
            assert not np.may_share_memory(first, second)
            taken = [(address(first), first.shape, first.base is ws._arena)]
            del first
            third = ws.take((3, 2))
            assert not np.may_share_memory(third, second)
            return taken + [(address(a), a.shape, a.base is ws._arena) for a in (second, third)]

        fresh = step()
        ws.reclaim()
        arena = ws._arena
        assert ws.nbytes == 2 * ALIGN and not any(on_arena for *_, on_arena in fresh)
        planned = step()
        assert planned[2][0] == planned[0][0] != planned[1][0]  # the same bytes in another shape
        assert all(on_arena for *_, on_arena in planned)
        ws.reclaim()
        assert step() == planned and ws._arena is arena

    def test_a_lent_array_dies_once_with_its_last_view(self):
        """A view keeps a lent array lent: its death is recorded once, when
        the last reference to it or to a view of it is dropped."""
        ws = ad.Workspace()
        a = ws.take((4,))
        view = a[1:]
        take = ((4,), np.dtype(np.float64))
        del a
        assert ws._events == [take]
        del view
        assert ws._events == [take, 0]

    def test_an_array_alive_at_reclaim_records_nothing_when_it_dies(self):
        """reclaim takes back the arrays still lent: one that dies afterwards
        leaves the next step's events alone, so that step replays the plan."""
        ws = ad.Workspace()
        a = ws.take((4,))
        ws.reclaim()  # plans one take that lives to the end of the step
        arena = ws._arena
        del a
        assert ws._events == []
        b = ws.take((4,))
        assert b.base is arena
        ws.reclaim()
        del b
        assert ws._events == [] and ws._arena is arena

    def test_pool_is_keyed_by_dtype(self):
        """Arrays come in the workspace's dtype unless another is asked for.
        One arena serves every dtype: a take of another dtype is planned on
        the bytes of one that died before it."""
        ws = ad.Workspace(np.float32)
        for _ in range(2):
            a = ws.take((2, 3))
            b = ws.take((2, 3), np.float64)
            assert a.dtype == np.float32 and b.dtype == np.float64
            at = {"a": address(a), "b": address(b)}
            del a, b
            mask = ws.take((2, 3), np.bool_)
            d = ws.take((2, 3), np.float64)
            at.update(mask=address(mask), d=address(d))
            assert mask.dtype == np.bool_ and d.dtype == np.float64
            del mask
            e = ws.take((2, 3))
            assert e.dtype == np.float32
            at["e"] = address(e)
            del d, e
            ws.reclaim()
        assert at["mask"] == at["a"] == at["e"] and at["d"] == at["b"]
        assert ws.nbytes == 2 * ALIGN
        assert ad.Workspace().take((1,)).dtype == np.float64

    def test_replayed_step_makes_no_mapping(self, monkeypatch):
        """The first step maps pages for each take and its reclaim maps the
        arena; a step that repeats it, event for event, gets the same arrays
        and maps nothing, and its reclaim plans nothing."""
        maps = []
        map_pages = workspace._map
        monkeypatch.setattr(workspace, "_map", lambda n: maps.append(n) or map_pages(n))

        def step(ws):
            """Take three arrays, the first dying before the third is taken:
            the address of each, and whether it is a view of the arena."""
            x = ws.take((5, 7))
            y = ws.take((3,), np.float64)
            taken = [(address(x), x.base is ws._arena)]
            del x
            z = ws.take((2, 2), np.bool_)
            return taken + [(address(v), v.base is ws._arena) for v in (y, z)]

        ws = ad.Workspace(np.float32)
        step(ws)
        assert len(maps) == 3
        ws.reclaim()
        assert maps[3:] == [ws.nbytes]  # the arena
        arena = ws._arena
        views = step(ws)
        ws.reclaim()
        assert step(ws) == views and all(on_arena for _, on_arena in views)
        assert len(maps) == 4 and ws._arena is arena

    def test_divergent_step_takes_fresh_arrays_and_replans(self, monkeypatch):
        """From the first event that differs from the plan on, every take
        maps pages of its own; the takes before it get their planned views.
        The step's reclaim plans it, and the step after that replays it."""
        maps = []
        map_pages = workspace._map
        monkeypatch.setattr(workspace, "_map", lambda n: maps.append(n) or map_pages(n))
        ws = ad.Workspace()
        a, b = ws.take((8,)), ws.take((8,))
        del a
        c = ws.take((16,))
        del b, c
        ws.reclaim()
        arena, planned = ws._arena, ws.nbytes
        del maps[:]
        a, b = ws.take((8,)), ws.take((8,))
        on_arena = [a.base is arena, b.base is arena]
        del b  # the plan lets a die here
        c = ws.take((16,))
        assert all(on_arena) and c.base is not arena
        assert maps == [2 * ALIGN]
        del a, c
        ws.reclaim()
        assert ws._arena is not arena and maps[1:] == [ws.nbytes] == [planned]
        a, b = ws.take((8,)), ws.take((8,))
        on_arena = [a.base is ws._arena, b.base is ws._arena]
        del b
        c = ws.take((16,))
        on_arena.append(c.base is ws._arena)
        del a, c
        assert all(on_arena) and len(maps) == 2
        ws.reclaim()
        a = ws.take((8,))  # a step that stops short of the plan is replanned
        del a
        ws.reclaim()
        assert ws.nbytes == ALIGN and len(maps) == 3

    def test_plan_offsets_place_largest_first_at_the_lowest_clear_offset(self):
        """Greedy by size on a known step: each take, largest first, goes to
        the lowest offset clear of the placed takes whose lifetimes overlap
        its own, into a gap between two of them when it fits; sizes are
        rounded up to ``ALIGN`` bytes."""
        f8, b1 = np.dtype(np.float64), np.dtype(np.bool_)
        events = [((32,), f8), ((24,), f8), 0, ((16,), f8), ((1,), b1), 3]
        # lifetimes [0, 2), [1, 6), [3, 5), [4, 6); sizes 256, 192, 128, 64 bytes
        assert ALIGN == 64
        assert workspace.plan_offsets(events) == {0: 0, 1: 256, 3: 0, 4: 128}
        events = [((10,), f8), ((4,), np.dtype(np.float32)), 0, ((16,), f8), 1, ((1,), b1)]
        assert workspace.plan_offsets(events) == {0: 0, 3: 0, 1: 128, 5: 128}

    SHAPES = [(), (3,), (2, 5), (4, 4, 3), (17,), (1, 130), (0, 4)]
    DTYPES = [np.float32, np.float64, np.bool_]

    @staticmethod
    def run_cycle(ws, ops, fills):
        """Run ``ops`` on ``ws``: a take fills its array with the next fill
        value, and a give drops the last reference to a live array. After
        every op the live arrays are disjoint, aligned and hold what was
        written to them, and the workspace has recorded one event per op,
        a take or that array's death. Returns the step's events; per take,
        its event index and whether its array is a view of the arena; and
        the live entries, whose arrays the caller holds until it has
        reclaimed the step, so that none dies unrecorded by the test."""
        live, events, taken = [], [], []
        for op in ops:
            if op[0] == "take":
                shape, dtype = TestWorkspace.SHAPES[op[1]], TestWorkspace.DTYPES[op[2]]
                array = ws.take(shape, dtype)
                assert array.shape == shape and array.dtype == dtype
                assert address(array) % ALIGN == 0 or array.size == 0
                value = next(fills)
                array[...] = (np.arange(array.size) + value).reshape(shape) % 7 > 2 \
                    if dtype == np.bool_ else (np.arange(array.size) + value).reshape(shape)
                assert not any(np.may_share_memory(array, entry[0]) for entry in live)
                live.append((array, array.copy(), len(events)))
                taken.append((len(events), array.base is ws._arena))
                events.append((shape, np.dtype(dtype)))
                del array
            elif live:
                events.append(live.pop(op[1] % len(live))[2])  # the array dies here
            assert all(np.array_equal(entry[0], entry[1]) for entry in live)
            assert ws._events == events
        return events, taken, live

    @staticmethod
    def vary(ops, variant):
        """``ops`` cut short, or with one op replaced by a give of another
        live array or a take of another shape and dtype."""
        kind, at = variant[0], variant[1]
        if kind == "prefix":
            return ops[:at]
        ops = list(ops)
        if at < len(ops):
            ops[at] = ("give", variant[2]) if kind == "give" else ("take", *variant[2:])
        return ops

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("take"), st.integers(0, 6), st.integers(0, 2)),
            st.tuples(st.just("give"), st.integers(0, 99)),
        ),
        max_size=30,
    )
    VARIANTS = st.one_of(
        st.tuples(st.just("prefix"), st.integers(0, 30)),
        st.tuples(st.just("give"), st.integers(0, 30), st.integers(0, 99)),
        st.tuples(st.just("take"), st.integers(0, 30), st.integers(0, 6), st.integers(0, 2)),
    )

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(OPS, VARIANTS), min_size=1, max_size=4))
    def test_random_take_give_reclaim_sequences(self, steps):
        """Random steps of takes and gives of mixed shapes and dtypes,
        reclaimed in between: live arrays never overlap and keep their
        contents, and each give is recorded where it happens. A step repeated
        after its own reclaim gets views of the arena and is not replanned.
        A step that diverges from it partway (cut short, a give of another
        array, a take of another shape) gets planned views up to its first
        differing event and fresh arrays from there on, and is replanned."""
        ws = ad.Workspace(np.float32)
        fills = iter(range(10**9))

        def step(ops):
            events, taken, live = self.run_cycle(ws, ops, fills)
            ws.reclaim()  # takes back the arrays still live
            return events, taken

        for ops, variant in steps:
            planned, _ = step(ops)
            arena = ws._arena
            events, taken = step(ops)
            assert events == planned and all(on_arena for _, on_arena in taken)
            assert ws._arena is arena
            events, taken = step(self.vary(ops, variant))
            first = next((t for t, pair in enumerate(zip(events, planned)) if pair[0] != pair[1]),
                         min(len(events), len(planned)))
            for t, on_arena in taken:
                assert on_arena == (t < first)
            if events == planned:
                assert ws._arena is arena
            elif taken:
                assert ws._arena is not arena and ws._arena is not None

    def test_tape_makes_no_reference_cycle(self, rng, monkeypatch):
        """Three res3_1d training steps on one float32 workspace with the
        cycle collector off. The steps after the first map no pages, so each
        gives its arrays back at the same points as the first. Once the
        caller drops the workspace, the last step's loss and its parameters,
        the workspace, every array it lent and every mapping it made are
        freed by reference count: no cycle (say workspace -> hook -> bound
        method -> workspace) holds them until a collection."""
        maps, lent = [], []
        map_pages, take = workspace._map, ad.Workspace.take

        def mapped(nbytes):
            pages = map_pages(nbytes)
            maps.append(weakref.ref(pages))
            return pages

        def taken(self, shape, dtype=None):
            array = take(self, shape, dtype)
            lent.append(weakref.ref(array))
            return array

        monkeypatch.setattr(workspace, "_map", mapped)
        monkeypatch.setattr(ad.Workspace, "take", taken)
        net = Network(parse_scheme_token("res3_1d"), channels=1, width=4, num_blocks=2, seed=7)
        x = rng.standard_normal((1, 5, 6, 7)).astype(np.float32)
        clean = rng.standard_normal(x.shape).astype(np.float32)
        gc.disable()
        try:
            ws = ad.Workspace(np.float32)
            for step in range(3):
                if step:
                    ws.reclaim()
                mapped_before = len(maps)
                tape = net.forward_tape(x, ws)
                params = tape.params
                loss = training_loss(tape.output, tape.feature, clean, 5e-5)[0]
                del tape
                loss.backward(np.float64(1.0))
                assert all(node.grad is not None for node in params.values())
                if step:
                    assert len(maps) == mapped_before
            assert len(maps) > 1 and len(lent) > len(maps)
            workspace_ref = weakref.ref(ws)
            del ws, loss, params
            assert workspace_ref() is None
            assert all(ref() is None for ref in lent) and all(ref() is None for ref in maps)
        finally:
            gc.enable()

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


def lent_array(node):
    """The workspace array that holds ``node``'s value: the value itself, or
    the array it is a view of (a lent array's own base is its memory map)."""
    return node.data.base if isinstance(node.data.base, np.ndarray) else node.data


def closure_arrays(node):
    """The arrays that ``node``'s backward closure holds."""
    cells = (c.cell_contents for c in node._backward.__closure__)
    return [a for a in cells if isinstance(a, np.ndarray)]


class TestValueLifetimes:
    """A lent array goes back to the workspace when it dies. Graph edges and
    backward closures hold gradient slots and the arrays a backward reads,
    never a parent's value, so a value that no backward reads goes back when
    its handle is dropped, and one that a backward reads once that backward
    has run."""

    def test_value_that_no_backward_reads_goes_back_with_its_handle(self, rng):
        """A convolution's output grid goes back to the workspace as soon as
        its handle is dropped when its only reader is a scale; the
        gradients keep their bits."""
        w64, x64 = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 3, 4, 5))
        g = rng.standard_normal((2, 3, 4, 5))
        grads = []
        for drop in (False, True):
            ws = ad.Workspace()
            w, x = ad.Node(w64, ws=ws), ad.Node(x64, ws=ws)
            out = ad.branch_conv(w, x, (3, 1, 1))
            root = ad.scale(out, 2.0)
            grid = weakref.ref(lent_array(out))
            assert id(grid()) in ws._lent and out.data.base is grid()
            if drop:
                del out
                assert grid() is None  # dead, so back in the workspace
            root.backward(g)
            grads.append((w.grad.copy(), x.grad.copy()))
        for got, want in zip(*grads):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_convolution_backward_keeps_its_input(self, rng):
        """``branch_conv`` keeps no padded copy of its input: its backward
        reads the input's value and pads it again for the weight gradient.
        So the input's array stays lent after its handle is dropped, until
        the convolution's backward has run, and the gradients keep their
        bits."""
        w64, x64 = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 3, 4, 5))
        g = rng.standard_normal((2, 3, 4, 5))
        grads = []
        for drop in (False, True):
            ws = ad.Workspace()
            w, leaf = ad.Node(w64, ws=ws), ad.Node(x64, ws=ws)
            x = ad.scale(leaf, 1.0)
            out = ad.branch_conv(w, x, (3, 1, 1))
            assert not any(a.shape == (2, 5 * 4 * 5) for a in closure_arrays(out))  # no padded input
            root = ad.scale(out, 1.0)
            held = weakref.ref(x.data)
            if drop:
                del x
                assert id(held()) in ws._lent
            root.backward(g)
            assert (held() is None) == drop
            grads.append((w.grad.copy(), leaf.grad.copy()))
        for got, want in zip(*grads):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_backward_drops_interior_closures_and_gradients(self, rng):
        """Once an interior node's backward has run, its closure and its
        gradient are gone, and so is every array that only they held: a
        value read by a backward is back in the workspace once that backward
        has run. The leaves and the root keep their values and gradients."""
        w64, x64 = rng.standard_normal((3, 2)), rng.standard_normal((2, 2, 3, 3))
        ws = ad.Workspace()
        w, x = ad.Node(w64, ws=ws), ad.Node(x64, ws=ws)
        h = ad.scale(x, 1.0)
        mix = ad.channel_mix(w, h)
        mid = ad.leaky_relu(mix, LEAKY_SLOPE)
        root = ad.mean_abs_error(mid, np.zeros(mid.data.shape))
        value = root.data.copy()
        read, unread = weakref.ref(h.data), weakref.ref(mix.data)
        slots = [n.slot for n in (h, mix, mid)]
        del h, mix, mid
        assert id(read()) in ws._lent and unread() is None  # the mix's backward reads h
        root.backward()
        assert read() is None
        for slot in slots:
            assert slot.backward is None and slot.grad is None
        (diff,) = closure_arrays(root)  # the root keeps its closure
        assert set(ws._lent) == {id(a) for a in (root.data, root.grad, diff, w.grad, x.grad)}
        assert root._backward is not None and np.array_equal(root.data, value)
        assert np.array_equal(w.data, w64) and np.array_equal(x.data, x64)

    def test_rectifier_backward_reads_only_its_mask(self, rng):
        """The rectifier keeps a one-byte ``x >= 0`` mask from the workspace,
        so its input goes back when its handle is dropped after the
        rectifier's forward: the gradients are the same bits as when the
        input is kept."""
        x64 = rng.standard_normal((2, 3, 4, 5))
        x64[0, 0, 0, :2] = (0.0, -0.0)
        g = rng.standard_normal(x64.shape)
        grads = []
        for drop in (False, True):
            x = ad.Node(x64, ws=ad.Workspace(np.float32))
            pre = ad.scale(x, 1.0)
            out = ad.leaky_relu(pre, LEAKY_SLOPE)
            (mask,) = closure_arrays(out)
            assert mask.dtype == np.bool_ and id(mask) in x.ws._lent
            np.testing.assert_array_equal(mask, pre.data >= 0)
            if drop:
                held = weakref.ref(pre.data)
                del pre
                assert held() is None
            ad.scale(out, 1.0).backward(g)
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0].view(np.uint32), grads[1].view(np.uint32))

    @pytest.mark.parametrize("token", ["res3_1d", "conv3d", "seq1d"])
    def test_forward_tape_keeps_only_what_a_backward_reads(self, rng, monkeypatch, token):
        """After ``forward_tape`` the values that neither a backward nor the
        tape reads are back in the workspace: every branch output that is
        neither the feature volume nor another convolution's input (a
        parallel set's branches, the set output of the first block), the
        compression and aggregate outputs, and the projection's output,
        which the global residual add reads only forward. The feature, the
        concatenations, the rectifier outputs, every convolution's input (the
        lift's output, the first block's output, a chain's earlier stages),
        the last block's output and the tape's output stay lent."""
        made = []  # (op, slot, weak reference to the array holding the value)
        for name in ("branch_conv", "channel_mix", "concat_channels", "leaky_relu", "add"):
            op = getattr(ad, name)

            def recorded(*args, _op=op, _name=name):
                node = _op(*args)
                made.append((_name, node.slot, weakref.ref(lent_array(node))))
                return node

            monkeypatch.setattr(ad, name, recorded)
        net = Network(parse_scheme_token(token), channels=1, width=4, num_blocks=2, seed=7)
        ws = ad.Workspace()
        tape = net.forward_tape(rng.standard_normal((1, 5, 6, 7)), ws)
        held = {id(slot): ref for _, slot, ref in made}
        by_op = {}
        for name, slot, _ in made:
            by_op.setdefault(name, []).append(slot)
        mixes = {id(s.parents[0]): s for s in by_op["channel_mix"]}
        mix = {name: mixes.get(id(node.slot)) for name, node in tape.params.items()}
        block_outputs = [s for s in by_op["add"] if s.parents[0] in
                         (mix["b0.aggregate"], mix["b1.aggregate"])]
        branches = by_op["branch_conv"]
        concats = by_op.get("concat_channels", [])
        assert len(concats) == (2 if token == "res3_1d" else 0)
        assert len(branches) == (6 if token in ("res3_1d", "seq1d") else 2)
        conv_inputs = {id(b.parents[1]): b.parents[1] for b in branches}
        assert len(conv_inputs) == (6 if token == "seq1d" else 2)
        assert {id(mix["lift"]), id(block_outputs[0])} <= set(conv_inputs)
        feature, output = tape.feature.slot, tape.output.slot
        released = [*(b for b in branches if b is not feature and id(b) not in conv_inputs),
                    mix["b0.aggregate"], mix["b1.aggregate"], mix["project"]]
        if token == "res3_1d":
            released += [mix["b0.compress"], mix["b1.compress"]]
        assert len(released) == {"res3_1d": 11, "conv3d": 4, "seq1d": 4}[token]
        for slot in released:
            assert held[id(slot)]() is None
        assert len(by_op["leaky_relu"]) == 2
        kept = {id(s): s for s in (feature, output, *concats, *by_op["leaky_relu"],
                                   *block_outputs, *conv_inputs.values())}
        assert len(kept) + len(released) == len(made)
        for slot in kept.values():
            array = held[id(slot)]()
            assert id(array) in ws._lent and np.isfinite(array).all()


def spy_backward(node, log):
    """Record, as ``node``'s backward starts, its gradient: ``(copy, array)``."""
    backward = node._backward

    def spied(g):
        log.append((g.copy(), g))
        backward(g)

    node._backward = spied


class TestGradientLending:
    """add and concat_channels lend their gradient to interior parents as a
    read-only view; the first further contribution makes a private sum. A
    lent buffer goes back to the workspace when its last view dies."""

    def test_borrowed_gradient_is_a_read_only_view_of_the_lender(self, rng):
        x = ad.Node(rng.standard_normal((2, 2, 3, 3)))
        p, q = ad.scale(x, 2.0), ad.scale(x, 3.0)
        s = ad.add(p, q)
        root = ad.scale(s, 1.0)
        log, lender_log = [], []
        spy_backward(p, log)
        spy_backward(s, lender_log)
        root.backward(rng.standard_normal(x.data.shape))
        (g, view), (_, buffer) = log[0], lender_log[0]
        assert view.base is buffer and buffer.flags.writeable
        assert not view.flags.writeable
        assert p.grad is None and s.grad is None
        back = weakref.ref(buffer)
        del log, lender_log, view, buffer
        assert back() is None  # only the logs held it
        np.testing.assert_array_equal(x.grad, 2.0 * g + 3.0 * g)

    def test_materializing_leaves_the_lender_untouched(self, rng):
        """p borrows t's gradient twice, directly and through s; its second
        contribution sums into a buffer of its own, and q still reads t's
        gradient unchanged."""
        x = ad.Node(rng.standard_normal((2, 2, 3, 3)))
        p, q = ad.scale(x, 2.0), ad.scale(x, 3.0)
        t = ad.add(ad.add(p, q), p)
        root = ad.scale(t, 1.0)
        p_log, q_log, t_log = [], [], []
        spy_backward(p, p_log)
        spy_backward(q, q_log)
        spy_backward(t, t_log)
        seed = rng.standard_normal(x.data.shape)
        root.backward(seed)
        (p_sum, p_own), (q_g, q_view), (_, t_buffer) = p_log[0], q_log[0], t_log[0]
        assert p_own.flags.writeable and not np.shares_memory(p_own, t_buffer)
        np.testing.assert_array_equal(p_sum, seed + seed)
        assert not q_view.flags.writeable and q_view.base is t_buffer
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
        outer_log = []
        spy_backward(outer, outer_log)
        seed = rng.standard_normal(x.data.shape)
        root.backward(seed)
        buffer = outer_log[0][1]
        for log in logs:
            g, view = log[0]
            assert not view.flags.writeable and view.base is buffer
            np.testing.assert_array_equal(g, seed)
        assert outer.grad is None and inner.grad is None
        np.testing.assert_array_equal(x.grad, 7.0 * seed)

    def test_concat_lends_row_blocks(self, rng):
        x = ad.Node(rng.standard_normal((1, 2, 2, 2)))
        a, b = ad.scale(x, 2.0), ad.scale(x, 3.0)
        cat = ad.concat_channels([a, b])
        root = ad.scale(cat, 1.0)
        logs, cat_log = [[], []], []
        spy_backward(a, logs[0])
        spy_backward(b, logs[1])
        spy_backward(cat, cat_log)
        seed = rng.standard_normal(cat.data.shape)
        root.backward(seed)
        for i, log in enumerate(logs):
            g, view = log[0]
            assert not view.flags.writeable and view.base is cat_log[0][1]
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
            assert leaf.grad.flags.writeable
            assert not np.shares_memory(leaf.grad, view)
            np.testing.assert_array_equal(leaf.grad, g)
        assert root.grad is not None and root.grad.flags.writeable

    def test_nothing_is_lent_after_backward_but_root_and_leaf_arrays(self, rng):
        """Each interior buffer goes back to the workspace once its last
        borrower has run; once the caller holds only the loss and the
        parameters, as a training step does, what stays lent after backward
        is the root's value and gradient and the parameters' gradients. The
        input leaf takes no gradient, so it holds no array."""
        net = Network(parse_scheme_token("res3_1d"), channels=1, width=4, num_blocks=2, seed=7)
        ws = ad.Workspace()
        tape = net.forward_tape(rng.standard_normal((1, 5, 6, 7)), ws)
        params = tape.params
        loss = training_loss(tape.output, tape.feature, rng.standard_normal((1, 5, 6, 7)), 5e-5)[0]
        del tape
        loss.backward()
        slots, stack = {}, [loss.slot]
        while stack:
            slot = stack.pop()
            if id(slot) not in slots:
                slots[id(slot)] = slot
                stack.extend(slot.parents)
        leaves = [s for s in slots.values() if not s.parents]
        interior = [s for s in slots.values() if s.parents and s is not loss.slot]
        assert len(leaves) == len(params) + 1
        assert set(ws._lent) == {id(a) for a in (loss.data, loss.grad, *(n.grad for n in params.values()))}
        for slot in interior:
            assert slot.grad is None and slot.backward is None
        ws.reclaim()
        assert not ws._lent

    OPS = ("add", "concat", "scale", "leaky", "mix", "conv")
    # Every branch window of every scheme at k=3.
    EXTENTS = sorted({e for t in _TOKENS for e in branch_extents(parse_scheme_token(t))})
    ROOTS = ("last", "mean_abs_error", "diversity_penalty")

    @classmethod
    def random_graph(cls, ops, seed, ws, root="last"):
        """A DAG over two leaves: each op reads the node made just before it
        and, for add and concat, a second node of its shape picked by the
        op's integer, so every op is an ancestor of the root and nodes are
        shared across ops. A conv is a branch convolution at the extent the
        integer picks. The root is the last node, or the mean absolute error
        or the diversity penalty of it."""
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
            elif op == "mix":
                w = ad.Node(gen.standard_normal((1 + j % 3, a.data.shape[0])), ws=ws)
                leaves.append(w)
                node = ad.channel_mix(w, a)
            else:
                extents = cls.EXTENTS[j % len(cls.EXTENTS)]
                w = ad.Node(gen.standard_normal((1 + j % 3, a.data.shape[0], *extents)), ws=ws)
                leaves.append(w)
                node = ad.branch_conv(w, a, extents)
            nodes.append(node)
        top = nodes[-1]
        if root == "mean_abs_error":
            top = ad.mean_abs_error(top, gen.standard_normal(top.data.shape).astype(ws.dtype))
        elif root == "diversity_penalty":
            top = ad.diversity_penalty(top)
        return top, leaves, gen.standard_normal(top.data.shape)

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 99)),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
        root=st.sampled_from(ROOTS),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_random_graphs_match_fresh_arrays_bitwise(self, ops, seed, root, dtype):
        """The same graph three times on one recycling workspace, reclaimed
        after each, and once on arrays that are never reused gives
        bit-identical leaf gradients, on a float64 and a float32 tape. The
        steps after the first replay the plan that the first one's reclaim
        made: they give back what they take in the same order."""
        ws = ad.Workspace(dtype)
        grads = []
        arenas = []
        for workspace in (ws, ws, ws, FreshArrays(dtype)):
            top, leaves, g = self.random_graph(ops, seed, workspace, root)
            top.backward(g)
            grads.append([None if leaf.grad is None else leaf.grad.copy() for leaf in leaves])
            del top, leaves
            workspace.reclaim()
            arenas.append(ws._arena)
        assert arenas[1] is arenas[0] and arenas[2] is arenas[0]
        bits = f"u{np.dtype(dtype).itemsize}"
        for run in grads[:3]:
            for got, want in zip(run, grads[3]):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.dtype == dtype
                    assert np.array_equal(got.view(bits), want.view(bits))


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
    def test_feature_is_the_set_forward_of_the_last_block(self, rng, token):
        """The tape's feature is the last block's convolution set, the one
        taped set forward, on that block's input."""
        net = Network(parse_scheme_token(token), channels=1, width=4, num_blocks=1, seed=3)
        x = rng.standard_normal((1, 5, 6, 6))
        feature = net.forward_tape(x).feature.data
        block_input = np.tensordot(net.params["lift"], x, axes=(1, 0))
        n_branches = len(branch_extents(net.scheme))
        ks = KernelSet(net.scheme, 4, 4, tuple(net.params[f"b0.w{j}"] for j in range(n_branches)))
        np.testing.assert_array_equal(taped_set(ks, block_input), feature)

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
        output = tape.output.data.copy()
        feature = tape.feature.data.astype(np.float64).reshape(tape.feature.data.shape[0], -1)
        loss.backward(np.float64(1.0))
        results = {"output": output, "loss": loss.data}
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
        params = {id(node.slot) for node in tape.params.values()}
        slots, stack = {}, [loss.slot]
        while stack:
            slot = stack.pop()
            if id(slot) not in slots:
                slots[id(slot)] = slot
                stack.extend(slot.parents)
        (xin,) = [s for s in slots.values() if not s.parents and id(s) not in params]
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
        """On a float32 tape the penalty forms a float64 Gram matrix of the
        feature's entries, cast block by block, and decomposes it in float64.
        So its value is the float64 penalty of the same entries,
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
