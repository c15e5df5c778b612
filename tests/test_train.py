"""Adam updates, the denoising loss, and the training loop contracts."""

import os
import subprocess
import sys
import weakref
from math import prod
from pathlib import Path

import numpy as np
import pytest

import resset
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

    @pytest.mark.parametrize("token, lam", [("conv3d", 0.0), ("conv3d", 5e-5), ("res3_1d", 5e-5)])
    def test_no_new_arrays_after_first_step(self, monkeypatch, token, lam):
        """Count workspace misses (a take that returns an array never handed
        out before) per forward pass; only the first may have any."""
        from resset import Network

        seen: dict[int, np.ndarray] = {}  # keeps every array alive, so ids stay unique
        misses: list[int] = []
        take, forward = ad.Workspace.take, Network.forward_tape

        def counted_take(self, shape, dtype=None):
            assert self.dtype == TRAIN_DTYPE
            array = take(self, shape, dtype)
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
        """Every matrix the penalty decomposes on the float32 tape is float64
        scratch that the run's workspace lent for that call, asked for by
        dtype, and given back before the op returns. The arrays the penalty
        node keeps are lent too: its value, and the float32 copy of a
        convolution's cropped output that it unfolds."""
        lent: dict[int, np.ndarray] = {}  # keeps every array alive, so ids stay unique
        float64_takes: set[int] = set()
        unfolded: list[np.ndarray] = []
        take, penalty, taped = ad.Workspace.take, ad.nuclear_penalty, ad.diversity_penalty

        def recorded_take(self, shape, dtype=None):
            array = take(self, shape, dtype)
            lent[id(array)] = array
            if dtype == np.float64:
                float64_takes.add(id(array))
            return array

        def recorded_penalty(mat):
            unfolded.append(mat)
            return penalty(mat)

        def checked_penalty(x):
            out = taped(x)
            assert id(unfolded[-1]) not in x.ws._lent  # the scratch is back
            assert len(out._owned) == (1 if x.data.flags.c_contiguous else 2)
            assert all(id(a) in x.ws._lent for a in out._owned)
            return out

        monkeypatch.setattr(ad.Workspace, "take", recorded_take)
        monkeypatch.setattr(ad, "nuclear_penalty", recorded_penalty)
        monkeypatch.setattr(ad, "diversity_penalty", checked_penalty)
        train_denoiser(small_config(epochs=3, lam=5e-5, scheme=parse_scheme_token(token)),
                       identity_task())
        assert len(unfolded) == 3
        for mat in unfolded:
            assert mat.dtype == np.float64 and mat.flags.c_contiguous
            assert id(mat) in lent and id(mat) in float64_takes

    def test_penalty_takes_no_unfolded_feature_array(self, monkeypatch):
        """Penalized res3_1d steps never take a tape array shaped like the
        unfolded feature (rows, B*H*W): the penalty's gradient stays factored
        until its backward writes it into the feature's gradient. The one
        array of that shape is the float64 copy the penalty decomposes, one
        per step."""
        data = identity_task()
        cfg = small_config(epochs=3, lam=5e-5)
        noisy = data.pairs[0][0].data
        unfolded = (rank_upper_bound(RES3, cfg.width), prod(noisy.shape[1:]))
        shapes: list[tuple[tuple[int, ...], np.dtype]] = []
        take = ad.Workspace.take

        def recorded_take(self, shape, dtype=None):
            array = take(self, shape, dtype)
            shapes.append((tuple(shape), array.dtype))
            return array

        monkeypatch.setattr(ad.Workspace, "take", recorded_take)
        report = train_denoiser(cfg, data)
        assert all(r < 0.0 for r in report.reg_terms)  # the penalty ran every step
        feature = ((unfolded[0], *noisy.shape[1:]), np.dtype(TRAIN_DTYPE))
        assert feature in shapes  # the feature itself is taped
        assert [s for s in shapes if s[0] == unfolded] == [(unfolded, np.dtype(np.float64))] * 3


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
