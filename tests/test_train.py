"""Adam updates, the denoising loss, and the training loop contracts."""

import weakref
from math import prod

import numpy as np
import pytest

from resset import (
    KernelScheme,
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
from resset.train import AdamState, training_loss

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

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            TrainConfig(scheme=RES3, beta1=1.5)
        with pytest.raises(Exception):
            TrainConfig(scheme=RES3, learning_rate=0.0)

    def test_zero_weight_penalty_trajectory_matches_unhooked_loop(self):
        """With lam=0 the trained parameters are bit-identical to a loop that
        never builds the penalty at all."""
        from resset import Network

        data = identity_task()
        cfg = small_config(epochs=4, lam=0.0)
        _, trained, _ = train_denoiser(cfg, data, return_network=True)

        reference = Network(RES3, channels=1, width=cfg.width,
                            num_blocks=cfg.num_blocks, seed=cfg.seed)
        shuffle = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5F0F)))
        state = AdamState()
        noisy, clean = data.pairs[0]
        for _ in range(cfg.epochs):
            shuffle.permutation(1)
            tape = reference.forward_tape(noisy.data)
            loss = ad.mean_abs_error(tape.output, clean.data)
            loss.backward(np.float64(1.0))
            grads = {k: n.grad for k, n in tape.params.items() if n.grad is not None}
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

    @pytest.mark.parametrize("token, lam", [("conv3d", 0.0), ("conv3d", 5e-5), ("res3_1d", 5e-5)])
    def test_no_new_arrays_after_first_step(self, monkeypatch, token, lam):
        """Count workspace misses (a take that returns an array never handed
        out before) per forward pass; only the first may have any."""
        from resset import Network

        seen: dict[int, np.ndarray] = {}  # keeps every array alive, so ids stay unique
        misses: list[int] = []
        take, forward = ad.Workspace.take, Network.forward_tape

        def counted_take(self, shape):
            array = take(self, shape)
            if id(array) not in seen:
                seen[id(array)] = array
                misses[-1] += 1
            return array

        def counted_forward(self, *args):
            misses.append(0)
            return forward(self, *args)

        monkeypatch.setattr(ad.Workspace, "take", counted_take)
        monkeypatch.setattr(Network, "forward_tape", counted_forward)
        cfg = small_config(epochs=4, lam=lam, scheme=parse_scheme_token(token))
        train_denoiser(cfg, identity_task())
        assert len(misses) == 5 and misses[0] > 0
        assert misses[1:] == [0, 0, 0, 0]

    @pytest.mark.parametrize("token", ["conv3d", "seq1d", "seq1d2d", "res3_1d", "par1d2d"])
    def test_penalty_reads_a_workspace_array(self, monkeypatch, token):
        """Every matrix the penalty decomposes lies in an array the run's
        workspace lent: the feature itself when it is contiguous, else the
        copy of a convolution's cropped output that the penalty node owns."""
        lent: dict[int, np.ndarray] = {}  # keeps every array alive, so ids stay unique
        unfolded: list[np.ndarray] = []
        take, penalty = ad.Workspace.take, ad.nuclear_penalty

        def recorded_take(self, shape):
            array = take(self, shape)
            lent[id(array)] = array
            return array

        def recorded_penalty(mat):
            unfolded.append(mat)
            return penalty(mat)

        monkeypatch.setattr(ad.Workspace, "take", recorded_take)
        monkeypatch.setattr(ad, "nuclear_penalty", recorded_penalty)
        train_denoiser(small_config(epochs=3, lam=5e-5, scheme=parse_scheme_token(token)),
                       identity_task())
        assert len(unfolded) == 3
        for mat in unfolded:
            owner = mat if mat.base is None else mat.base
            assert id(owner) in lent

    def test_penalty_takes_no_unfolded_feature_array(self, monkeypatch):
        """Penalized res3_1d steps never take an array shaped like the
        unfolded feature (rows, B*H*W): the penalty's gradient stays factored
        until its backward writes it into the feature's gradient."""
        data = identity_task()
        cfg = small_config(epochs=3, lam=5e-5)
        noisy = data.pairs[0][0].data
        unfolded = (rank_upper_bound(RES3, cfg.width), prod(noisy.shape[1:]))
        shapes: list[tuple[int, ...]] = []
        take = ad.Workspace.take

        def recorded_take(self, shape):
            shapes.append(tuple(shape))
            return take(self, shape)

        monkeypatch.setattr(ad.Workspace, "take", recorded_take)
        report = train_denoiser(cfg, data)
        assert all(r < 0.0 for r in report.reg_terms)  # the penalty ran every step
        assert (unfolded[0], *noisy.shape[1:]) in shapes  # the feature itself is taped
        assert unfolded not in shapes
