"""Synthetic hyperspectral cubes, noise injectors, and quality metrics.

Cubes are (bands, height, width) volumes in [0, 1]. Noise magnitudes follow
the 0-255 convention: a level of 50 means additive Gaussian noise of standard
deviation 50/255 on the unit scale. Noisy cubes may leave [0, 1] and are not
clipped, so their statistics stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError, ShapeError, WindowTooLarge
from .options import check_settings, setting
from .tensor import FeatureMap

PSNR_CAP_DB = 100.0
_PSNR_MSE_FLOOR = 1e-10

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class HSCube:
    """A (bands, height, width) volume of 64-bit floats."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"cube must be 3-D, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("cube contains non-finite entries")
        if arr is self.data:
            arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def bands(self) -> int:
        return self.data.shape[0]


class NoiseKind(Enum):
    GAUSSIAN = "gaussian"
    GAUSSIAN_BLIND = "gaussian_blind"
    NON_IID = "non_iid"
    STRIPE = "stripe"
    DEADLINE = "deadline"
    IMPULSE = "impulse"
    MIXTURE = "mixture"


@dataclass(frozen=True)
class NoiseSpec:
    """Which corruption to apply and with what parameters."""

    kind: NoiseKind = NoiseKind.GAUSSIAN
    sigma: float = setting(50.0, "noise level on the 0-255 scale", low=0)
    sigma_min: float = setting(30.0, "lower noise level for blind/non-iid/mixture", low=0)
    sigma_max: float = setting(70.0, "upper noise level for blind/non-iid/mixture", low=0)
    fraction: float = setting(0.1, "share of columns (stripe/deadline) or voxels (impulse) per band",
                              low=0, high=1)
    # at most the unit cube's full range; far larger bounds overflow the offset draw
    magnitude: float = setting(0.25, "bound of the per-stripe constant offset", low=0, high=1)
    band_fraction: float = setting(1.0 / 3.0, "share of bands hit by structured noise", low=0, high=1)
    seed: int = 0

    def __post_init__(self):
        check_settings(self)
        if self.sigma_max < self.sigma_min:
            raise ConfigError(f"sigma_min must be <= sigma_max, got {self.sigma_min} > {self.sigma_max}")


@dataclass(frozen=True)
class MetricsReport:
    """Band-averaged PSNR (dB), band-averaged SSIM, and mean spectral angle (rad)."""

    mpsnr: float
    mssim: float
    sam: float

    def as_dict(self) -> dict[str, float]:
        return {"mpsnr": self.mpsnr, "mssim": self.mssim, "sam": self.sam}


def _smooth_profile(rng: np.random.Generator, n: int, bumps: int = 3) -> np.ndarray:
    """Positive smooth 1-D profile: a few random Gaussian bumps plus a floor."""
    x = np.arange(n)
    profile = np.full(n, 0.1)
    for _ in range(bumps):
        center = rng.uniform(0, n)
        width = rng.uniform(n / 10.0, n / 3.0)
        profile += rng.uniform(0.3, 1.0) * np.exp(-((x - center) ** 2) / (2 * width**2))
    return profile


def _smooth_map(rng: np.random.Generator, h: int, w: int, bumps: int = 4) -> np.ndarray:
    """Positive smooth 2-D abundance map built from Gaussian bumps."""
    yy, xx = np.mgrid[0:h, 0:w]
    out = np.full((h, w), 0.05)
    for _ in range(bumps):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        s = rng.uniform(min(h, w) / 8.0, min(h, w) / 2.0)
        out += rng.uniform(0.2, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s**2))
    return out


def synth_cube(seed: int, bands: int, height: int, width: int, num_endmembers: int = 4) -> HSCube:
    """Linear mixture of smooth spectral signatures with smooth abundance maps,
    min-max rescaled to [0, 1]. Deterministic per seed."""
    if num_endmembers < 1:
        raise ConfigError(f"need at least one endmember, got {num_endmembers}")
    if min(bands, height, width) < 1:
        raise ConfigError(f"cube extents must be >= 1, got {bands}x{height}x{width}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0BE)))
    spectra = np.stack([_smooth_profile(rng, bands) for _ in range(num_endmembers)])
    maps = np.stack([_smooth_map(rng, height, width) for _ in range(num_endmembers)])
    maps /= maps.sum(axis=0, keepdims=True)
    cube = np.tensordot(spectra.T, maps, axes=(1, 0))
    lo, hi = cube.min(), cube.max()
    if hi > lo:
        cube = (cube - lo) / (hi - lo)
    else:
        cube = np.zeros_like(cube)
    return HSCube(cube)


def _affected_bands(rng: np.random.Generator, bands: int, band_fraction: float) -> np.ndarray:
    count = max(1, int(round(band_fraction * bands)))
    return np.sort(rng.choice(bands, size=min(count, bands), replace=False))


def _add_stripes(rng, data, band, fraction, magnitude, width):
    ncols = int(np.floor(fraction * width))
    if ncols == 0:
        return
    cols = rng.choice(width, size=ncols, replace=False)
    offsets = rng.uniform(-magnitude, magnitude, size=ncols)
    data[band, :, cols] += offsets[:, None]


def _zero_deadlines(rng, data, band, fraction, width):
    ncols = int(np.floor(fraction * width))
    if ncols == 0:
        return
    cols = rng.choice(width, size=ncols, replace=False)
    data[band, :, cols] = 0.0


def _set_impulses(rng, data, band, fraction):
    _, h, w = data.shape
    nvox = int(np.floor(fraction * h * w))
    if nvox == 0:
        return
    flat = rng.choice(h * w, size=nvox, replace=False)
    values = rng.integers(0, 2, size=nvox).astype(np.float64)
    band_view = data[band].reshape(-1)
    band_view[flat] = values


def add_noise(cube: HSCube, spec: NoiseSpec) -> HSCube:
    """Return a corrupted copy of ``cube``; the input is never mutated."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x901E)))
    data = cube.data.copy()
    b, h, w = data.shape
    kind = spec.kind
    if kind is NoiseKind.GAUSSIAN:
        if spec.sigma > 0:
            data += rng.normal(0.0, spec.sigma / 255.0, size=data.shape)
    elif kind is NoiseKind.GAUSSIAN_BLIND:
        sigma = rng.uniform(spec.sigma_min, spec.sigma_max)
        data += rng.normal(0.0, sigma / 255.0, size=data.shape)
    elif kind is NoiseKind.NON_IID:
        sigmas = rng.uniform(spec.sigma_min, spec.sigma_max, size=b)
        data += rng.normal(0.0, 1.0, size=data.shape) * (sigmas / 255.0)[:, None, None]
    elif kind is NoiseKind.STRIPE:
        for band in _affected_bands(rng, b, spec.band_fraction):
            _add_stripes(rng, data, band, spec.fraction, spec.magnitude, w)
    elif kind is NoiseKind.DEADLINE:
        for band in _affected_bands(rng, b, spec.band_fraction):
            _zero_deadlines(rng, data, band, spec.fraction, w)
    elif kind is NoiseKind.IMPULSE:
        for band in _affected_bands(rng, b, spec.band_fraction):
            _set_impulses(rng, data, band, spec.fraction)
    elif kind is NoiseKind.MIXTURE:
        sigmas = rng.uniform(spec.sigma_min, spec.sigma_max, size=b)
        data += rng.normal(0.0, 1.0, size=data.shape) * (sigmas / 255.0)[:, None, None]
        for band in range(b):
            extra = rng.integers(0, 4)
            if extra == 1:
                _add_stripes(rng, data, band, spec.fraction, spec.magnitude, w)
            elif extra == 2:
                _zero_deadlines(rng, data, band, spec.fraction, w)
            elif extra == 3:
                _set_impulses(rng, data, band, spec.fraction)
    else:
        raise ConfigError(f"unknown noise kind {kind}")
    return HSCube(data)


def _as_cube_array(x) -> np.ndarray:
    if isinstance(x, HSCube):
        return x.data
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected a (bands, height, width) array, got shape {arr.shape}")
    return arr


def mpsnr(pred, ref) -> float:
    """Mean over bands of 10*log10(1 / MSE_band), peak 1.0, capped at 100 dB."""
    p, r = _as_cube_array(pred), _as_cube_array(ref)
    if p.shape != r.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {r.shape}")
    mse = np.mean((p - r) ** 2, axis=(1, 2))
    psnr = np.where(mse < _PSNR_MSE_FLOOR, PSNR_CAP_DB, 10.0 * np.log10(1.0 / np.maximum(mse, _PSNR_MSE_FLOOR)))
    return float(np.mean(psnr))


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    window = np.outer(g, g)
    return window / window.sum()


def _window_mean(img: np.ndarray, window: np.ndarray) -> np.ndarray:
    views = sliding_window_view(img, window.shape)
    return np.tensordot(views, window, axes=((2, 3), (0, 1)))


def _ssim_band(a: np.ndarray, b: np.ndarray, window: np.ndarray) -> float:
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    mu_a = _window_mean(a, window)
    mu_b = _window_mean(b, window)
    var_a = _window_mean(a * a, window) - mu_a**2
    var_b = _window_mean(b * b, window) - mu_b**2
    cov = _window_mean(a * b, window) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def mssim(pred, ref) -> float:
    """Band-averaged structural similarity with an 11x11 Gaussian window."""
    p, r = _as_cube_array(pred), _as_cube_array(ref)
    if p.shape != r.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {r.shape}")
    if p.shape[1] < SSIM_WINDOW or p.shape[2] < SSIM_WINDOW:
        raise WindowTooLarge(
            f"spatial extents {p.shape[1]}x{p.shape[2]} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    window = _gaussian_window()
    return float(np.mean([_ssim_band(p[i], r[i], window) for i in range(p.shape[0])]))


def sam(pred, ref) -> float:
    """Mean per-pixel spectral angle in radians.

    A zero-norm predicted spectrum against a nonzero reference contributes
    pi/2; pixels whose reference spectrum is all-zero are skipped.
    """
    p, r = _as_cube_array(pred), _as_cube_array(ref)
    if p.shape != r.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {r.shape}")
    dot = np.sum(p * r, axis=0)
    norm_p = np.sqrt(np.sum(p * p, axis=0))
    norm_r = np.sqrt(np.sum(r * r, axis=0))
    valid = norm_r > 0
    if not np.any(valid):
        raise NumericError("reference cube has no nonzero spectra")
    angles = np.full(dot.shape, np.pi / 2.0)
    ok = valid & (norm_p > 0)
    cosine = np.clip(dot[ok] / (norm_p[ok] * norm_r[ok]), -1.0, 1.0)
    angles[ok] = np.arccos(cosine)
    return float(np.mean(angles[valid]))


def metrics_report(pred, ref) -> MetricsReport:
    """All three metrics; NumericError if one is not finite (an overflowing error)."""
    report = MetricsReport(mpsnr=mpsnr(pred, ref), mssim=mssim(pred, ref), sam=sam(pred, ref))
    if not np.all(np.isfinite(list(report.as_dict().values()))):
        raise NumericError(f"non-finite metrics {report.as_dict()}")
    return report


def cube_to_feature(cube: HSCube) -> FeatureMap:
    """Lift a cube to a single-channel feature volume."""
    return FeatureMap(cube.data[None, :, :, :])


def feature_to_cube(fmap: FeatureMap) -> HSCube:
    """Collapse a feature volume to a cube, folding channels into bands."""
    c, b, h, w = fmap.data.shape
    return HSCube(fmap.data.reshape(c * b, h, w))
