"""Adam updates, the denoising loss, and the training loop contracts."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from math import prod
from pathlib import Path

import numpy as np
import pytest

import resset
from resset import (
    KernelScheme,
    NonFiniteLoss,
    SchemeVariant,
    ShapeError,
    TrainConfig,
    TrainingData,
    adam_step,
    parse_scheme_token,
    synth_cube,
    train_denoiser,
)
from resset.hsdata import NoiseKind, NoiseSpec, add_noise, cube_to_feature
from resset.schemes import rank_upper_bound
from resset import autodiff as ad
from resset.train import TRAIN_DTYPE, AdamState, training_loss

RES3 = KernelScheme(SchemeVariant.RES3_1D, k=3, L=1)


def small_config(**overrides) -> TrainConfig:
    defaults = dict(scheme=RES3, width=8, num_blocks=2, lam=0.0, learning_rate=2e-4,
                    epochs=5, batch_size=1, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def identity_task(bands=8, side=12, seed=0) -> TrainingData:
    clean = synth_cube(seed, bands, side, side)
    noisy = add_noise(clean, NoiseSpec(kind=NoiseKind.GAUSSIAN, sigma=0.0, seed=seed))
    pair = (cube_to_feature(noisy), cube_to_feature(clean))
    return TrainingData(pairs=(pair,), holdout=pair)


def toy_task() -> TrainingData:
    """The benchmark's toy cube: 31 bands of 32x32 pixels (31744 positions)
    under Gaussian noise of level 50."""
    clean = synth_cube(100, 31, 32, 32)
    noisy = add_noise(clean, NoiseSpec(kind=NoiseKind.GAUSSIAN, sigma=50.0, seed=200))
    pair = (cube_to_feature(noisy), cube_to_feature(clean))
    return TrainingData(pairs=(pair,), holdout=pair)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        cfg = small_config()
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        adam_step(params, grads, AdamState(), cfg)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_matches_hand_computation(self):
        cfg = small_config(learning_rate=1e-3)
        params = {"w": np.array([0.0])}
        adam_step(params, {"w": np.array([1.0])}, AdamState(), cfg)
        # bias-corrected moments at t=1 give m_hat = 1, v_hat = 1
        expected = -1e-3 * (1.0 / (1.0 + 1e-8))
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)
        assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        cfg = small_config(learning_rate=1e-3)
        params = {"w": np.array([0.0])}
        state = AdamState()
        prev = params["w"][0]
        for _ in range(200):
            prev = params["w"][0]
            adam_step(params, {"w": np.array([0.5])}, state, cfg)
        # with g constant, m_hat / sqrt(v_hat) -> sign(g)
        assert params["w"][0] - prev == pytest.approx(-1e-3, rel=1e-4)

    def test_state_counts_steps(self):
        cfg = small_config()
        state = AdamState()
        params = {"w": np.zeros(1)}
        for expected_t in (1, 2, 3):
            adam_step(params, {"w": np.ones(1)}, state, cfg)
            assert state.t == expected_t


class TestLossDenoise:
    """The taped training loss: mean absolute error plus lam times the penalty."""

    def test_exact_match_no_penalty(self, rng):
        x = rng.standard_normal((1, 4, 4, 4))
        feature = ad.Node(rng.standard_normal((3, 4, 4, 4)))
        loss, data_term, reg_term = training_loss(ad.Node(x), feature, x.copy(), 0.0)
        assert float(loss.data) == data_term == reg_term == 0.0

    def test_uniform_offset(self, rng):
        target = rng.standard_normal((1, 4, 4, 4))
        feature = ad.Node(rng.standard_normal((2, 4, 4, 4)))
        loss, _, _ = training_loss(ad.Node(target + 0.5), feature, target, 0.0)
        assert float(loss.data) == pytest.approx(0.5)

    def test_penalty_with_known_singular_values(self, rng):
        target = rng.standard_normal((1, 4, 4, 4))
        feature_mat = np.zeros((3, 64))
        feature_mat[0, 0], feature_mat[1, 1], feature_mat[2, 2] = 3.0, 2.0, 1.0
        feature = ad.Node(feature_mat.reshape(3, 4, 4, 4))
        lam = 5e-5
        loss, _, reg_term = training_loss(ad.Node(target + 0.5), feature, target, lam)
        assert reg_term == pytest.approx(-lam * 6.0, rel=1e-12)
        assert float(loss.data) == pytest.approx(0.5 - lam * 6.0, rel=1e-12)

    def test_shape_mismatch(self, rng):
        a = ad.Node(rng.standard_normal((1, 4, 4, 4)))
        with pytest.raises(ShapeError):
            training_loss(a, a, rng.standard_normal((1, 4, 4, 5)), 0.0)


class TestTrainDenoiser:
    def test_identity_task_converges(self):
        cfg = small_config(epochs=200)
        report = train_denoiser(cfg, identity_task())
        assert report.data_terms[-1] < 1e-3
        assert report.epochs == 200
        assert all(np.isfinite(report.data_terms))

    def test_reg_terms_zero_only_without_penalty(self):
        data = identity_task()
        off = train_denoiser(small_config(epochs=3, lam=0.0), data)
        on = train_denoiser(small_config(epochs=3, lam=5e-5), data)
        assert all(term == 0.0 for term in off.reg_terms)
        assert all(term != 0.0 for term in on.reg_terms)

    def test_parameter_count_ratio_between_schemes(self):
        data = identity_task()
        res3 = train_denoiser(small_config(epochs=0), data)
        conv = train_denoiser(small_config(epochs=0, scheme=parse_scheme_token("conv3d")), data)
        # per-block conv weights: 27*M*M vs 9*M*M at k=3
        assert conv.parameter_count > res3.parameter_count
        m = 8
        per_block_res3 = 9 * m * m
        per_block_conv = 27 * m * m
        assert per_block_conv == 3 * per_block_res3
        diff = conv.parameter_count - res3.parameter_count
        # conv3d blocks have no compression layer
        assert diff == 2 * (per_block_conv - per_block_res3 - m * 3 * m)

    def test_epochs_zero_reports_init_metrics(self):
        report = train_denoiser(small_config(epochs=0), identity_task())
        assert report.data_terms == ()
        assert np.isfinite(report.metrics.mpsnr)
        assert not report.spectrum.is_empty

    def test_deterministic_reports(self):
        cfg = small_config(epochs=4, lam=5e-5)
        a = train_denoiser(cfg, identity_task())
        b = train_denoiser(cfg, identity_task())
        assert a.data_terms == b.data_terms
        assert a.reg_terms == b.reg_terms
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.spectrum.values, b.spectrum.values)
        assert a.as_dict() == b.as_dict()

    def test_as_dict_excludes_timing_by_default(self):
        report = train_denoiser(small_config(epochs=1), identity_task())
        payload = report.as_dict()
        assert "wall_seconds" not in payload

    def test_seed_changes_trajectory(self):
        a = train_denoiser(small_config(epochs=3, seed=0), identity_task())
        b = train_denoiser(small_config(epochs=3, seed=1), identity_task())
        assert a.data_terms != b.data_terms

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (1e39, "1.000e+39")])
    def test_parameter_out_of_range_is_named_at_its_step(self, monkeypatch, bad, shown):
        """An optimizer step that leaves a float64 weight NaN or past
        float32's range stops the run as that step returns, before a forward
        pass casts it: ``NonFiniteLoss`` names the epoch, the parameter and
        its largest magnitude."""
        from resset import train as train_module

        step = train_module.adam_step
        steps = []

        def spoiled(params, grads, state, cfg):
            out = step(params, grads, state, cfg)
            steps.append(state.t)
            if state.t == 2:
                params["b1.aggregate"][0, 1] = bad
            return out

        monkeypatch.setattr(train_module, "adam_step", spoiled)
        with pytest.raises(NonFiniteLoss) as info:
            train_denoiser(small_config(epochs=4), identity_task())
        assert info.value.epoch == 1 and steps == [1, 2]
        assert str(info.value) == (
            f"parameter b1.aggregate is not finite in float32 after the step of epoch 1: "
            f"largest magnitude {shown}")

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            TrainConfig(scheme=RES3, beta1=1.5)
        with pytest.raises(Exception):
            TrainConfig(scheme=RES3, learning_rate=0.0)

    def test_zero_weight_penalty_trajectory_matches_unhooked_loop(self):
        """With lam=0 the trained parameters are bit-identical to a loop that
        never builds the penalty at all: a tape on a ``TRAIN_DTYPE``
        workspace, its gradients summed into float64, float64 Adam."""
        from resset import Network

        data = identity_task()
        cfg = small_config(epochs=4, lam=0.0)
        _, trained, _ = train_denoiser(cfg, data, return_network=True)

        reference = Network(RES3, channels=1, width=cfg.width,
                            num_blocks=cfg.num_blocks, seed=cfg.seed)
        shuffle = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5F0F)))
        state = AdamState()
        ws = ad.Workspace(TRAIN_DTYPE)
        noisy, clean = (fmap.data.astype(TRAIN_DTYPE) for fmap in data.pairs[0])
        for _ in range(cfg.epochs):
            shuffle.permutation(1)
            tape = reference.forward_tape(noisy, ws)
            loss = ad.mean_abs_error(tape.output, clean)
            loss.backward(np.float64(1.0))
            grads = {k: n.grad.astype(np.float64) for k, n in tape.params.items()
                     if n.grad is not None}
            del tape, loss
            ws.reclaim()
            adam_step(reference.params, grads, state, cfg)
        for name in trained.params:
            np.testing.assert_array_equal(trained.params[name], reference.params[name])


class TestTrainingWorkspace:
    """One workspace per run: one tape alive at a time, no new arrays after
    the first step."""

    def test_one_tape_alive(self, monkeypatch):
        """Step k's output node is dead when step k+1's forward starts, and
        the last step's when the evaluation starts."""
        from resset import Network

        outputs = []
        forward = Network.forward_tape

        def watched(self, *args):
            assert all(ref() is None for ref in outputs), "an earlier tape is still alive"
            tape = forward(self, *args)
            outputs.append(weakref.ref(tape.output))
            return tape

        monkeypatch.setattr(Network, "forward_tape", watched)
        train_denoiser(small_config(epochs=3, lam=5e-5), identity_task())
        assert len(outputs) == 4  # three steps and the evaluation

    @staticmethod
    def run_workspace(monkeypatch, cfg, data) -> ad.Workspace:
        """Train ``cfg`` on ``data`` and return the run's workspace."""
        made = []
        init = ad.Workspace.__init__

        def recorded_init(self, dtype=np.float64):
            init(self, dtype)
            made.append(self)

        monkeypatch.setattr(ad.Workspace, "__init__", recorded_init)
        train_denoiser(cfg, data)
        (ws,) = [w for w in made if w.dtype == TRAIN_DTYPE]
        return ws

    @pytest.mark.parametrize(
        "token, lam", [("conv3d", 0.0), ("conv3d", 5e-5), ("res3_1d", 5e-5), ("seq1d", 5e-5)]
    )
    def test_no_new_arrays_after_first_step(self, monkeypatch, token, lam):
        """Every page the workspace maps, tagged with the reclaims done by
        then: the first step's arrays and, in the first reclaim, the one
        arena planned from that step. No later step, and not the holdout's
        forward pass, maps a page, and the arena's size stays put at each
        forward pass. Every take of the run is made from that one
        ``TRAIN_DTYPE`` workspace, so no op lends from a private workspace
        whose mappings these tags would not tell apart."""
        from resset import Network
        from resset import workspace as workspace_module

        maps: list[tuple[int, bool]] = []  # (reclaims done, inside a reclaim) per mapping
        reclaims = [0, False]
        arenas: list[int] = []  # the arena's bytes as each forward pass starts
        lenders: dict[int, ad.Workspace] = {}  # keeps every lender alive, so ids stay unique
        take, reclaim, forward = ad.Workspace.take, ad.Workspace.reclaim, Network.forward_tape
        map_pages = workspace_module._map

        def checked_take(self, shape, dtype=None):
            assert self.dtype == TRAIN_DTYPE
            lenders[id(self)] = self
            return take(self, shape, dtype)

        def counted_map(nbytes):
            maps.append(tuple(reclaims))
            return map_pages(nbytes)

        def counted_reclaim(self):
            reclaims[1] = True
            reclaim(self)
            reclaims[:] = [reclaims[0] + 1, False]

        def counted_forward(self, x, ws):
            arenas.append(ws.nbytes)
            return forward(self, x, ws)

        monkeypatch.setattr(ad.Workspace, "take", checked_take)
        monkeypatch.setattr(ad.Workspace, "reclaim", counted_reclaim)
        monkeypatch.setattr(workspace_module, "_map", counted_map)
        monkeypatch.setattr(Network, "forward_tape", counted_forward)
        cfg = small_config(epochs=4, lam=lam, scheme=parse_scheme_token(token))
        ws = self.run_workspace(monkeypatch, cfg, identity_task())
        assert list(lenders.values()) == [ws] and reclaims[0] == 4
        first_step = maps.count((0, False))
        assert first_step > 0 and maps == [(0, False)] * first_step + [(0, True)]
        assert len(arenas) == 5 and arenas[0] == 0 and arenas[1] > 0
        assert arenas[2:] == [arenas[1]] * 3 and ws.nbytes == arenas[1]

    @pytest.mark.parametrize("token", ["conv3d", "seq1d", "seq1d2d", "res3_1d", "par1d2d"])
    def test_penalty_reads_a_workspace_array(self, monkeypatch, token):
        """On the float32 tape every float64 array a penalized step takes is
        taken inside the penalty and holds at most rows x BLOCK_COLUMNS
        values: the one block that the Gram matrix's column blocks are cast
        into, lent by the run's workspace for that call, passed to the
        decomposition, and given back before the op returns. The arrays the
        penalty keeps are lent too: its value, and the unfolding that its
        backward reads, which is the feature's own array or, for a
        convolution's cropped output, a float32 copy of it."""
        monkeypatch.setattr(ad, "BLOCK_COLUMNS", 512)  # the 8x12x12 feature spans three blocks
        # (workspace, id, weak reference, shape) of each float64 take, outside
        # the penalty, then per call; no strong reference, so that a scratch
        # array dies, and goes back, where the op drops it
        float64_takes: list[list[tuple]] = [[]]
        scratches: list[int] = []  # id of each array passed to the decomposition
        take, penalty, taped = ad.Workspace.take, ad.nuclear_penalty, ad.diversity_penalty

        def recorded_take(self, shape, dtype=None):
            array = take(self, shape, dtype)
            if array.dtype == np.float64:
                float64_takes[-1].append((self, id(array), weakref.ref(array), array.shape))
            return array

        def recorded_penalty(mat, scratch=None):
            assert mat.dtype == TRAIN_DTYPE  # no float64 copy of the unfolding
            scratches.append(id(scratch))
            return penalty(mat, scratch)

        def checked_penalty(x):
            float64_takes.append([])
            out = taped(x)
            [(lender, key, scratch, shape)] = float64_takes.pop()
            assert lender is x.ws and key == scratches[-1]  # both alive at the call
            assert shape == (x.data.shape[0], 512)
            assert scratch() is None  # the scratch is back
            assert id(out.data) in x.ws._lent
            cells = (c.cell_contents for c in out._backward.__closure__)
            rows = x.data.shape[0]
            (unfolded,) = [a for a in cells if getattr(a, "shape", None) == (rows, x.data.size // rows)]
            if x.data.flags.c_contiguous:
                assert np.shares_memory(unfolded, x.data)
            else:
                assert id(unfolded) in x.ws._lent
            return out

        monkeypatch.setattr(ad.Workspace, "take", recorded_take)
        monkeypatch.setattr(ad, "nuclear_penalty", recorded_penalty)
        monkeypatch.setattr(ad, "diversity_penalty", checked_penalty)
        train_denoiser(small_config(epochs=3, lam=5e-5, scheme=parse_scheme_token(token)),
                       identity_task())
        assert len(scratches) == 3
        assert float64_takes == [[]]  # nothing else in the run takes a float64 array

    def test_penalty_takes_no_unfolded_feature_array(self, monkeypatch):
        """Penalized res3_1d steps never take an array shaped like the
        unfolded feature (rows, B*H*W), in any dtype: the penalty's gradient
        stays factored until its backward writes it into the feature's
        gradient, and its Gram matrix reads the float32 unfolding through one
        (rows, BLOCK_COLUMNS) float64 block per step."""
        monkeypatch.setattr(ad, "BLOCK_COLUMNS", 512)  # the feature spans three column blocks
        data = identity_task()
        cfg = small_config(epochs=3, lam=5e-5)
        noisy = data.pairs[0][0].data
        rows = rank_upper_bound(RES3, cfg.width)
        unfolded = (rows, prod(noisy.shape[1:]))
        assert unfolded[1] > 2 * 512
        shapes: list[tuple[tuple[int, ...], np.dtype]] = []
        take = ad.Workspace.take

        def recorded_take(self, shape, dtype=None):
            array = take(self, shape, dtype)
            shapes.append((tuple(shape), array.dtype))
            return array

        monkeypatch.setattr(ad.Workspace, "take", recorded_take)
        report = train_denoiser(cfg, data)
        assert all(r < 0.0 for r in report.reg_terms)  # the penalty ran every step
        feature = ((rows, *noisy.shape[1:]), np.dtype(TRAIN_DTYPE))
        assert feature in shapes  # the feature itself is taped
        assert [s for s in shapes if s[0] == unfolded] == []
        float64 = [s for s in shapes if s[1] == np.float64]
        assert float64 == [((rows, 512), np.dtype(np.float64))] * 3

    @pytest.mark.parametrize("token", ["res3_1d", "conv3d"])
    def test_penalty_sums_into_the_feature_gradient(self, monkeypatch, token):
        """When the penalty's backward runs, the feature already holds a
        gradient buffer of its own (from the compression map or the
        rectifier), and the penalty adds its gradient into it through one
        (rows, BLOCK_COLUMNS) array in the tape's dtype: it takes no array
        the size of the feature."""
        monkeypatch.setattr(ad, "BLOCK_COLUMNS", 512)  # the feature spans three column blocks
        calls: list[tuple[bool, list]] = []  # per backward: (feature owned its gradient, takes)
        recording: list[list] = []
        take, taped = ad.Workspace.take, ad.diversity_penalty

        def recorded_take(self, shape, dtype=None):
            array = take(self, shape, dtype)
            if recording:
                recording[-1].append((tuple(shape), array.dtype))
            return array

        def watched_penalty(x):
            out = taped(x)
            backward, slot = out._backward, x.slot

            def watched(g):
                calls.append((slot.grad is not None and slot.grad.flags.writeable, []))
                recording.append(calls[-1][1])
                backward(g)
                recording.pop()

            out._backward = watched
            return out

        monkeypatch.setattr(ad.Workspace, "take", recorded_take)
        monkeypatch.setattr(ad, "diversity_penalty", watched_penalty)
        cfg = small_config(epochs=3, lam=5e-5, scheme=parse_scheme_token(token))
        train_denoiser(cfg, identity_task())
        rows = rank_upper_bound(cfg.scheme, cfg.width) if cfg.scheme.is_parallel else cfg.width
        assert calls == [(True, [((rows, 512), np.dtype(TRAIN_DTYPE))])] * 3

    # Arena bytes of the workspace of a two-epoch run on the 8x12x12
    # identity task (1152 positions, width 8, two blocks, float32 tape). The
    # most bytes lent at once are 659008 (res3_1d), 583232 (conv3d) and
    # 618432 (seq1d); greedy by size leaves 57216 bytes of the res3_1d arena
    # unused at that moment. While values went back by hand-placed releases,
    # and a node kept its value until its own backward had run, the arena
    # held 716224, 633408 and 661440 bytes; with a padded copy of each
    # convolution's input kept on the tape 906688, 685120 and 692160, and
    # the best-fit pool before it 1110784, 769792 and 887104.
    POOL_BYTES = {"res3_1d": 716_224, "conv3d": 620_096, "seq1d": 618_432}

    @pytest.mark.parametrize("token, lam", [("res3_1d", 5e-5), ("conv3d", 0.0), ("seq1d", 5e-5)])
    def test_pool_size(self, monkeypatch, token, lam):
        """The training workspace's arena is as large as the tape needs once
        each dead value is given back; a change that holds one again, or
        plans offsets worse, grows it."""
        cfg = small_config(epochs=2, lam=lam, scheme=parse_scheme_token(token))
        assert self.run_workspace(monkeypatch, cfg, identity_task()).nbytes == self.POOL_BYTES[token]

    # Arena bytes of the toy training run's workspace: the 31x32x32 cube of
    # the benchmark (31744 positions), width 8, two blocks, two steps. These
    # are the MiB figures that README "Peak memory" and ``workspace.py``
    # quote: 14.05 MiB (res3_1d, lam=5e-5) and 8.54 MiB (conv3d, lam=0),
    # where the most bytes lent at once are 14,481,088 (13.81 MiB) and
    # 8,878,272 (8.47 MiB). While a node kept its value until its own
    # backward had run, the arena held 14,734,400 and 10,099,008 bytes (9.63
    # MiB): without the penalty, no backward reads the last block's feature
    # volume, a 1.09 MiB convolution grid that now dies before the backward
    # pass. With a padded copy of each convolution's input kept on the tape
    # the arena held 18.29 and 9.95 MiB, and the best-fit pool before it
    # 21.58 and 12.22 MiB.
    TOY_POOL_BYTES = {"res3_1d": 14_734_272, "conv3d": 8_952_256}

    @pytest.mark.parametrize("token, lam", [("res3_1d", 5e-5), ("conv3d", 0.0), ("seq1d", 5e-5)])
    def test_first_step_stays_inside_its_plan(self, monkeypatch, token, lam):
        """The first step's arrays are fresh mappings, each unmapped when the
        last array on it dies. At no moment of that step do the live
        mappings span more bytes than the arena its reclaim plans: an op
        that still holds an array it gave back (a local that outlives the
        give) keeps pages mapped that the plan counts as free, and makes the
        first step, not the planned ones, the run's peak."""
        from resset import workspace as workspace_module

        map_pages, reclaim = workspace_module._map, ad.Workspace.reclaim
        live = [0, 0]  # bytes of the first step's mappings alive now, and at most
        first_step = [True]

        def unmapped(nbytes):
            live[0] -= nbytes

        def counted_map(nbytes):
            pages = map_pages(nbytes)
            if first_step[0]:
                live[0] += nbytes
                live[1] = max(live)
                weakref.finalize(pages, unmapped, nbytes)
            return pages

        def first_reclaim(self):
            first_step[0] = False  # the arena mapped here is the plan, not a take
            reclaim(self)

        monkeypatch.setattr(workspace_module, "_map", counted_map)
        monkeypatch.setattr(ad.Workspace, "reclaim", first_reclaim)
        cfg = small_config(epochs=2, lam=lam, scheme=parse_scheme_token(token))
        gc.disable()  # an array dies when its last reference does, not at a collection
        try:
            ws = self.run_workspace(monkeypatch, cfg, identity_task())
        finally:
            gc.enable()
        assert 0 < live[1] <= ws.nbytes

    @pytest.mark.parametrize("token, lam", [("res3_1d", 5e-5), ("conv3d", 0.0)])
    def test_toy_run_pool_size(self, monkeypatch, token, lam):
        cfg = small_config(epochs=2, lam=lam, scheme=parse_scheme_token(token))
        ws = self.run_workspace(monkeypatch, cfg, toy_task())
        assert ws.nbytes == self.TOY_POOL_BYTES[token]

    @pytest.mark.parametrize("token, lam", [("res3_1d", 5e-5), ("conv3d", 0.0)])
    def test_steady_step_allocates_almost_nothing_outside_the_workspace(self, token, lam):
        """Every tape-sized array of a steady step on the toy cube is a view
        of the workspace's arena. ``tracemalloc`` sees numpy's data buffers
        but not the arena's anonymous mapping, and over one step after the
        planned one, with its reclaim, it peaks under 512 KiB (132 and 75 KiB
        measured with and without the penalty), where one 8-channel float32
        volume is 1 MiB and the penalty's 24-row feature 3 MiB. The step
        replays the plan, so the arena stays put."""
        from resset import Network
        from resset.train import _step, _tape_inputs

        cfg = small_config(lam=lam, scheme=parse_scheme_token(token))
        (pair,), _ = _tape_inputs(toy_task())
        net = Network(cfg.scheme, 1, cfg.width, cfg.num_blocks, seed=cfg.seed)
        grads = {k: np.zeros_like(v) for k, v in net.params.items()}
        ws = ad.Workspace(TRAIN_DTYPE)
        for _ in range(2):  # the first step is planned, the second replays the plan
            _step(net, *pair, lam, 1.0, grads, ws)
            ws.reclaim()
        arena = ws._arena
        tracemalloc.start()
        try:
            _step(net, *pair, lam, 1.0, grads, ws)
            ws.reclaim()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ws._arena is arena
        assert peak < 512 * 1024, f"{peak / 1024:.0f} KiB traced"

    @pytest.mark.parametrize("lam, epochs", [(0.0, 2), (5e-5, 2), (5e-5, 0)])
    def test_workspace_is_gone_before_the_float64_evaluation(self, monkeypatch, lam, epochs):
        """The spectrum is taken while the run's float32 workspace is alive,
        from the holdout's float32 feature in place: a view of the arena, or
        with no step planned, of the fresh mapping the pass was lent. When
        the holdout's output is converted to float64 and the metrics run,
        the workspace is dead: no node, tape or local variable holds it, and
        it is freed without the cycle collector, so its arena is not alive
        beside the float64 work. Every mapping it made is unmapped too, the
        arena and each fresh array: no array that outlives it, the holdout's
        output included, is a view that pins one."""
        from resset import train as train_module
        from resset import workspace as workspace_module

        workspaces: list[weakref.ref] = []
        mappings: list[weakref.ref] = []
        evaluated: list[str] = []
        init, map_pages = ad.Workspace.__init__, workspace_module._map

        def recorded_init(self, dtype=np.float64):
            init(self, dtype)
            if self.dtype == TRAIN_DTYPE:
                workspaces.append(weakref.ref(self))

        def recorded_map(nbytes):
            pages = map_pages(nbytes)
            mappings.append(weakref.ref(pages))
            return pages

        def dead(name):
            fn = getattr(train_module, name)

            def wrapper(*args, **kwargs):
                assert len(workspaces) == 1 and workspaces[0]() is None, name
                assert mappings and all(ref() is None for ref in mappings), name
                evaluated.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(train_module, name, wrapper)

        def on_the_arena(feature):
            (ws,) = [ref() for ref in workspaces]
            assert ws is not None and feature.dtype == TRAIN_DTYPE
            pages = [ws._arena] if epochs else [ref() for ref in mappings]
            assert any(p is not None and np.shares_memory(feature, np.frombuffer(p, np.uint8))
                       for p in pages)
            evaluated.append("feature_spectrum")
            return spectrum(feature)

        monkeypatch.setattr(ad.Workspace, "__init__", recorded_init)
        monkeypatch.setattr(workspace_module, "_map", recorded_map)
        for name in ("FeatureMap", "metrics_report"):
            dead(name)
        spectrum = train_module.feature_spectrum
        monkeypatch.setattr(train_module, "feature_spectrum", on_the_arena)
        gc.disable()
        try:
            report = train_denoiser(small_config(epochs=epochs, lam=lam), identity_task())
        finally:
            gc.enable()
        assert report.epochs == epochs
        assert evaluated == ["feature_spectrum", "FeatureMap", "metrics_report"]

    def test_spectrum_copies_nothing_the_size_of_the_feature(self, monkeypatch):
        """Inside ``feature_spectrum`` on the toy res3_1d holdout, numpy's
        traced peak stays under 512 KiB (214 KiB measured), where the 24-row
        float32 feature is 3 MiB: the spectrum reads the feature in place,
        one float64 column block at a time. ``tracemalloc`` sees numpy's
        arrays but neither the arena, an anonymous mapping, nor the buffers
        that LAPACK's wrappers allocate themselves: one SVD of the whole
        float64 feature peaks at 745 KiB traced, the ``np.isfinite`` mask of
        its check, beside a 6 MiB copy that LAPACK makes untraced."""
        from resset import train as train_module

        peaks: list[int] = []
        spectrum = train_module.feature_spectrum

        def traced(feature):
            tracemalloc.start()
            try:
                out = spectrum(feature)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(train_module, "feature_spectrum", traced)
        report = train_denoiser(small_config(epochs=1, lam=5e-5), toy_task())
        assert report.spectrum.values.size == 24
        assert len(peaks) == 1 and peaks[0] < 512 * 1024, f"{peaks[0] / 1024:.0f} KiB traced"


# Trains a tiny float32 run of each training workload's scheme and prints one
# SHA-256 over its losses, holdout metrics and spectrum, final weights and
# feature volume. The 16 x 24 x 24 cube spans more than one 4096-column block,
# so the tap GEMMs have the toy run's shapes.
HASH_SCRIPT = """
import hashlib
import numpy as np
from resset import TrainConfig, TrainingData, parse_scheme_token, synth_cube, train_denoiser
from resset.hsdata import NoiseKind, NoiseSpec, add_noise, cube_to_feature

clean = synth_cube(3, 16, 24, 24)
noisy = add_noise(clean, NoiseSpec(kind=NoiseKind.GAUSSIAN, sigma=50.0, seed=3))
pair = (cube_to_feature(noisy), cube_to_feature(clean))
data = TrainingData(pairs=(pair,), holdout=pair)
digest = hashlib.sha256()
for token, lam in (("res3_1d", 5e-5), ("conv3d", 0.0)):
    cfg = TrainConfig(scheme=parse_scheme_token(token), lam=lam, epochs=3, seed=3)
    report, net, feature = train_denoiser(cfg, data, return_network=True)
    digest.update(repr(report.as_dict()).encode())
    for name in sorted(net.params):
        digest.update(net.params[name].tobytes())
    digest.update(feature.tobytes())
print(digest.hexdigest())
"""

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_float32_training_does_not_depend_on_blas_threads():
    """The same float32 training, each run in a fresh process, gives one hash
    at one BLAS thread and at the default threading: a BLAS that split its
    sums by thread count would show here."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(resset.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    hashes = []
    for threads in ("1", None):
        run_env = dict(env, **({"OPENBLAS_NUM_THREADS": threads} if threads else {}))
        proc = subprocess.run([sys.executable, "-c", HASH_SCRIPT], env=run_env,
                              capture_output=True, text=True, timeout=300, check=True)
        hashes.append(proc.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]
