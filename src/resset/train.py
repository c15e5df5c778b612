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


@dataclass(frozen=True)
class TrainConfig:
    scheme: KernelScheme
    width: int = setting(8, "channel width M carried between blocks", low=1)
    num_blocks: int = setting(2, "number of residual blocks", low=1)
    lam: float = setting(5e-5, "diversity penalty weight", low=0)
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


def _evaluate(
    net: Network, data: TrainingData, ws: ad.Workspace
) -> tuple[MetricsReport, Spectrum, np.ndarray]:
    """Metrics and feature spectrum on the holdout, plus the feature volume."""
    noisy, clean = data.holdout
    tape = net.forward_tape(noisy.data, ws)
    denoised = feature_to_cube(FeatureMap(tape.output.data))
    reference = feature_to_cube(clean)
    spectrum = feature_spectrum(FeatureMap(tape.feature.data))
    return metrics_report(denoised, reference), spectrum, tape.feature.data


def train_denoiser(
    cfg: TrainConfig, data: TrainingData, return_network: bool = False
) -> TrainReport | tuple[TrainReport, Network, np.ndarray]:
    """Minibatch Adam over the paired cubes; reports losses, metrics, spectrum.
    With ``return_network`` it also returns the trained network and the
    last block's pre-compression feature volume on the holdout.

    Every forward pass of the run, the final evaluation included, draws its
    arrays from one workspace. Each step's tape and loss are dropped and the
    workspace reclaimed before the next forward, so one tape is alive at a
    time and the steps after the first reuse the first step's arrays.
    """
    start = time.perf_counter()
    channels = data.pairs[0][0].channels
    net = Network(cfg.scheme, channels, cfg.width, cfg.num_blocks, seed=cfg.seed)
    ws = ad.Workspace()
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5F0F)))
    state = AdamState()
    data_terms: list[float] = []
    reg_terms: list[float] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(data.pairs))
        epoch_data = 0.0
        epoch_reg = 0.0
        for batch_start in range(0, len(order), cfg.batch_size):
            batch = order[batch_start : batch_start + cfg.batch_size]
            grads: dict[str, np.ndarray] = {k: np.zeros_like(v) for k, v in net.params.items()}
            for idx in batch:
                noisy, clean = data.pairs[idx]
                tape = net.forward_tape(noisy.data, ws)
                try:
                    loss, d_term, r_term = training_loss(
                        tape.output, tape.feature, clean.data, cfg.lam
                    )
                except NumericError as err:  # the penalty met a non-finite feature volume
                    raise NonFiniteLoss(epoch) from err
                loss.backward(np.float64(1.0 / len(batch)))
                for name, node in tape.params.items():
                    if node.grad is not None:
                        grads[name] += node.grad
                del tape, loss
                ws.reclaim()
                epoch_data += d_term
                epoch_reg += r_term
            adam_step(net.params, grads, state, cfg)
        epoch_data /= len(order)
        epoch_reg /= len(order)
        if not (np.isfinite(epoch_data) and np.isfinite(epoch_reg)):
            raise NonFiniteLoss(epoch)
        data_terms.append(epoch_data)
        reg_terms.append(epoch_reg)
    metrics, spectrum, feature = _evaluate(net, data, ws)
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
        return report, net, feature
    return report
