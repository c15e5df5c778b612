"""Adam, the denoising loss, and the toy training loop.

Training minimizes the mean absolute error between the denoised and the clean
cube plus ``lam`` times the diversity penalty on the last block's
pre-compression feature volume. Runs are deterministic functions of their
configuration (initialization, shuffling, and data generation all derive from
the configured seeds), so repeated runs produce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NonFiniteLoss, NumericError, ShapeError
from .hsdata import MetricsReport, feature_to_cube, metrics_report
from .network import Network
from .options import check_settings, setting
from .rank import Spectrum, feature_spectrum
from .schemes import KernelScheme
from .tensor import FeatureMap

ADAM_EPS = 1e-8

# The training tape's arithmetic (mixed precision, Micikevicius et al. 2018,
# "Mixed Precision Training"): every forward and backward pass of a run, the
# holdout evaluation included, runs on a float32 workspace, so the branch
# convolutions' GEMMs and the tape's copies move half the bytes. The master
# weights, the Adam moments and the summed gradients stay float64, and so do
# the penalty's Gram matrix and eigendecomposition, the spectrum and the
# metrics. On the 31x32x32 toy run (width 8, two blocks; 2-core Xeon VM,
# BENCH_19.json) the 90th-percentile epoch fell from 56.3 to 27.9 ms (conv3d,
# lam=0) and from 49.8 to 28.5 ms (res3_1d, lam=5e-5), and the seed-0 holdout
# MPSNR after 12 epochs moved by 5e-10 and 2.3e-9 dB (the benchmark's
# tolerance is 0.01 dB). The float64 path is kept for everything else because
# it is the reference the tests and the rank audits compare against.
TRAIN_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    scheme: KernelScheme
    width: int = setting(8, "channel width M carried between blocks", low=1)
    num_blocks: int = setting(2, "number of residual blocks", low=1)
    lam: float = setting(5e-5, "diversity penalty weight", low=0, high=float(np.finfo(TRAIN_DTYPE).max))
    learning_rate: float = setting(2e-4, "Adam learning rate", low=0, open_low=True)
    beta1: float = setting(0.9, "Adam first-moment decay", low=0, high=1, open_low=True, open_high=True)
    beta2: float = setting(0.999, "Adam second-moment decay", low=0, high=1, open_low=True, open_high=True)
    epochs: int = setting(300, "training epochs", low=0)
    batch_size: int = setting(1, "pairs per optimizer step", low=1)
    seed: int = setting(0, "master seed for init/shuffling", low=0)

    def __post_init__(self):
        check_settings(self)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; mutates and returns params/state."""
    if not state.m:
        state.m = {k: np.zeros_like(v) for k, v in params.items()}
        state.v = {k: np.zeros_like(v) for k, v in params.items()}
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    for name, g in grads.items():
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1**state.t)
        v_hat = state.v[name] / (1 - b2**state.t)
        params[name] = params[name] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


@dataclass(frozen=True)
class TrainingData:
    """Paired noisy/clean volumes plus one held-out evaluation pair."""

    pairs: tuple[tuple[FeatureMap, FeatureMap], ...]
    holdout: tuple[FeatureMap, FeatureMap]

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise ConfigError("need at least one training pair")
        for noisy, clean in (*self.pairs, self.holdout):
            if noisy.data.shape != clean.data.shape:
                raise ShapeError("noisy/clean shapes differ within a pair")


@dataclass(frozen=True)
class TrainReport:
    scheme_token: str
    parameter_count: int
    epochs: int
    data_terms: tuple[float, ...]
    reg_terms: tuple[float, ...]
    metrics: MetricsReport
    spectrum: Spectrum
    wall_seconds: float

    def as_dict(self) -> dict:
        """Everything but the wall time, which goes to timing.txt."""
        return {
            "scheme": self.scheme_token,
            "parameter_count": self.parameter_count,
            "epochs": self.epochs,
            "data_terms": list(self.data_terms),
            "reg_terms": list(self.reg_terms),
            "metrics": self.metrics.as_dict(),
            "spectrum": self.spectrum.values.tolist(),
        }


def training_loss(
    output: ad.Node, feature: ad.Node, clean: np.ndarray, lam: float
) -> tuple[ad.Node, float, float]:
    """Taped mean absolute error plus ``lam`` times the diversity penalty of
    ``feature``; returns (loss, data term, penalty term). Without a positive
    ``lam`` no penalty is built."""
    data_term = ad.mean_abs_error(output, clean)
    if lam > 0:
        reg_term = ad.scale(ad.diversity_penalty(feature), lam)
        return ad.add(data_term, reg_term), float(data_term.data), float(reg_term.data)
    return data_term, float(data_term.data), 0.0


def _tape_inputs(
    data: TrainingData,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The training pairs and the holdout's noisy cube in ``TRAIN_DTYPE``,
    cast once per run. A value past that dtype's range is a ``NumericError``
    here, before any training time is spent."""

    def cast(fmap: FeatureMap) -> np.ndarray:
        with np.errstate(over="ignore"):
            arr = fmap.data.astype(TRAIN_DTYPE)
        if not np.all(np.isfinite(arr)):
            raise NumericError(
                f"training data is not finite in {arr.dtype}: "
                f"largest magnitude {float(np.max(np.abs(fmap.data))):.3e}"
            )
        return arr

    pairs = [(cast(noisy), cast(clean)) for noisy, clean in data.pairs]
    return pairs, cast(data.holdout[0])


def _step(
    net: Network,
    noisy: np.ndarray,
    clean: np.ndarray,
    lam: float,
    weight: float,
    grads: dict[str, np.ndarray],
    ws: ad.Workspace,
) -> tuple[float, float]:
    """One taped forward and backward pass on ``ws``: adds the parameter
    gradients of ``weight`` times the loss into ``grads`` and returns the
    (data, penalty) terms. Only the loss and the parameters are held through
    the backward pass; the tape dies when this returns."""
    tape = net.forward_tape(noisy, ws)
    params = tape.params
    loss, d_term, r_term = training_loss(tape.output, tape.feature, clean, lam)
    del tape  # the output's value, which no backward reads, dies here
    loss.backward(np.float64(weight))
    for name, node in params.items():
        if node.grad is not None:
            grads[name] += node.grad
    return d_term, r_term


def _check_parameters(params: dict[str, np.ndarray], epoch: int) -> None:
    """Raise ``NonFiniteLoss`` naming the first float64 parameter that is
    NaN or past ``TRAIN_DTYPE``'s range, as the optimizer step that made it
    returns: the next forward pass would cast it to infinity."""
    limit = float(np.finfo(TRAIN_DTYPE).max)
    for name, value in params.items():
        largest = float(np.max(np.abs(value)))
        if not largest <= limit:
            raise NonFiniteLoss(
                epoch,
                f"parameter {name} is not finite in {np.dtype(TRAIN_DTYPE).name} after the "
                f"step of epoch {epoch}: largest magnitude {largest:.3e}",
            )


def _fit(
    cfg: TrainConfig,
    net: Network,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    holdout: np.ndarray,
    keep_feature: bool,
) -> tuple[list[float], list[float], Spectrum, np.ndarray, np.ndarray | None]:
    """Train ``net`` in place; returns the per-epoch (data, penalty) terms,
    and from one more forward pass on the holdout its feature's spectrum,
    its output array and, with ``keep_feature``, its feature array.

    Every pass draws its arrays from one ``TRAIN_DTYPE`` workspace, reclaimed
    after each step, so one tape is alive at a time. The first step's
    arrays are fresh, and its reclaim plans the arena that every later
    step, and the holdout's forward pass, takes the same views of. The
    workspace lives in this call only. The spectrum is taken from the
    holdout's feature while it is still a view of the arena, one column
    block at a time (``feature_spectrum``), so no feature-sized array is
    made for it. The arrays returned are copies, since a view pins the whole
    arena: the output, and the feature only when it is kept.
    """
    ws = ad.Workspace(TRAIN_DTYPE)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5F0F)))
    state = AdamState()
    data_terms: list[float] = []
    reg_terms: list[float] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(pairs))
        epoch_data = 0.0
        epoch_reg = 0.0
        for batch_start in range(0, len(order), cfg.batch_size):
            batch = order[batch_start : batch_start + cfg.batch_size]
            grads: dict[str, np.ndarray] = {k: np.zeros_like(v) for k, v in net.params.items()}
            for idx in batch:
                noisy, clean = pairs[idx]
                try:
                    d_term, r_term = _step(net, noisy, clean, cfg.lam, 1.0 / len(batch), grads, ws)
                except NumericError as err:  # the penalty met a non-finite feature volume
                    raise NonFiniteLoss(epoch) from err
                ws.reclaim()
                epoch_data += d_term
                epoch_reg += r_term
            adam_step(net.params, grads, state, cfg)
            _check_parameters(net.params, epoch)
        epoch_data /= len(order)
        epoch_reg /= len(order)
        if not (np.isfinite(epoch_data) and np.isfinite(epoch_reg)):
            raise NonFiniteLoss(epoch)
        data_terms.append(epoch_data)
        reg_terms.append(epoch_reg)
    tape = net.forward_tape(holdout, ws)
    output, feature = tape.output.data, tape.feature.data
    del tape  # every array of the pass but these two views goes back
    spectrum = feature_spectrum(feature)
    return data_terms, reg_terms, spectrum, output.copy(), feature.copy() if keep_feature else None


def train_denoiser(
    cfg: TrainConfig, data: TrainingData, return_network: bool = False
) -> TrainReport | tuple[TrainReport, Network, np.ndarray]:
    """Minibatch Adam over the paired cubes; reports losses, metrics, spectrum.
    With ``return_network`` it also returns the trained network and the
    last block's pre-compression feature volume on the holdout.

    Every forward pass of the run, the holdout's included, draws its arrays
    from one ``TRAIN_DTYPE`` workspace (see ``_fit``). Each step's parameter
    nodes are ``TRAIN_DTYPE`` copies of the float64 parameters, and their
    gradients are summed into float64. The spectrum is taken inside ``_fit``
    from the float32 feature in the workspace's arena, in float64 column
    blocks. The float64 metrics run after the workspace and every tape are
    gone, on a copy of the holdout's output, so the run's peak memory is
    that of its training tape.
    """
    start = time.perf_counter()
    pairs, holdout = _tape_inputs(data)
    channels = data.pairs[0][0].channels
    net = Network(cfg.scheme, channels, cfg.width, cfg.num_blocks, seed=cfg.seed)
    data_terms, reg_terms, spectrum, output, feature = _fit(cfg, net, pairs, holdout, return_network)
    denoised = feature_to_cube(FeatureMap(output))
    metrics = metrics_report(denoised, feature_to_cube(data.holdout[1]))
    report = TrainReport(
        scheme_token=cfg.scheme.token,
        parameter_count=net.parameter_count(),
        epochs=cfg.epochs,
        data_terms=tuple(data_terms),
        reg_terms=tuple(reg_terms),
        metrics=metrics,
        spectrum=spectrum,
        wall_seconds=time.perf_counter() - start,
    )
    if return_network:
        return report, net, FeatureMap(feature).data
    return report
