"""Residual denoiser built from scheme blocks.

The network is a flat stack: a 1x1x1 channel lift, ``num_blocks`` residual
blocks that apply the configured convolution scheme (with 1x1x1 compression
for parallel schemes, a leaky rectifier, a 1x1x1 aggregation, and a residual
add), a 1x1x1 projection back to the input channels, and a global residual.
Block internals stay linear up to the single rectifier so the kernel-rank
reasoning applies to the pre-activation feature volume, which is also the
volume the diversity penalty sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .schemes import (
    LEAKY_SLOPE,
    KernelScheme,
    branch_extents,
    expected_weight_shapes,
    rank_upper_bound,
    set_forward,
)
from .tensor import read_tensor, write_tensor


# Output-side layers start small so the residual trunk begins near the
# identity map; with a constant learning rate and a mean-absolute-error loss,
# Adam's bounce floor is otherwise too high to reach tight data fits.
AGGREGATE_INIT_GAIN = 0.1
PROJECT_INIT_GAIN = 0.02


@dataclass
class ForwardTape:
    """Graph handles kept alive between forward and backward."""

    output: ad.Node
    feature: ad.Node | None
    params: dict[str, ad.Node]


class Network:
    """Shape-preserving denoiser: lift -> scheme blocks -> projection."""

    def __init__(
        self,
        scheme: KernelScheme,
        channels: int,
        width: int,
        num_blocks: int,
        seed: int = 0,
        global_residual: bool = True,
    ):
        if num_blocks < 0:
            raise ConfigError(f"num_blocks must be >= 0, got {num_blocks}")
        if width < 1 or channels < 1:
            raise ConfigError(f"width and channels must be >= 1, got {width} and {channels}")
        self.scheme = scheme
        self.channels = channels
        self.width = width  # channel width M carried between blocks
        self.num_blocks = num_blocks
        self.global_residual = global_residual
        self.params: dict[str, np.ndarray] = {}
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD1F)))
        self._register("lift", self._kaiming(rng, (width, channels)))
        for i in range(num_blocks):
            for j, shape in enumerate(expected_weight_shapes(scheme, width, width)):
                self._register(f"b{i}.w{j}", self._kaiming(rng, shape))
            if scheme.is_parallel:
                pre = rank_upper_bound(scheme, width)
                self._register(f"b{i}.compress", self._kaiming(rng, (width, pre)))
            self._register(
                f"b{i}.aggregate",
                AGGREGATE_INIT_GAIN * self._kaiming(rng, (width, width)),
            )
        self._register("project", PROJECT_INIT_GAIN * self._kaiming(rng, (channels, width)))

    @staticmethod
    def _kaiming(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        fan_in = prod(shape[1:])
        return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

    def _register(self, name: str, value: np.ndarray) -> None:
        if name in self.params:
            raise ConfigError(f"parameter {name!r} registered twice")
        self.params[name] = value

    def parameter_count(self) -> int:
        return sum(v.size for v in self.params.values())

    def _block(self, nodes: dict[str, ad.Node], i: int, x: ad.Node) -> tuple[ad.Node, ad.Node]:
        """Returns (block output, pre-compression feature volume). Values that
        no backward reads go back to the workspace once their last forward
        reader has run. The rectifier's input goes back after the rectifier's
        forward, since its backward reads only its mask: for a parallel
        scheme that is the compression map's output, and otherwise the set
        output of every block but the last, whose set output is the feature
        volume that the penalty and the evaluation read. The aggregate map's
        output goes back after the residual add, which reads no values in its
        backward. The block's input ``x`` stays on the tape: each convolution
        that the set runs on it reads it in its backward, all of them the
        same array."""
        weights = [nodes[f"b{i}.w{j}"] for j in range(len(branch_extents(self.scheme)))]
        feat = set_forward(self.scheme, weights, x)
        y = ad.channel_mix(nodes[f"b{i}.compress"], feat) if self.scheme.is_parallel else feat
        rectified = ad.leaky_relu(y, LEAKY_SLOPE)
        if y is not feat or i < self.num_blocks - 1:
            y.release_value()
        mixed = ad.channel_mix(nodes[f"b{i}.aggregate"], rectified)
        out = ad.add(mixed, x)
        mixed.release_value()  # the add read it last, and its backward reads no value
        return out, feat

    def forward_tape(self, x: np.ndarray, ws: ad.Workspace | None = None) -> ForwardTape:
        """Run the taped forward pass on a raw (C, B, H, W) array. Every array
        of the tape comes from ``ws``, or from a private workspace without one
        (see ``autodiff`` for the lifetime contract). The input and the
        parameter nodes are in the workspace's dtype; the parameter nodes are
        copies unless that is float64. The input takes no gradient. The
        lift's output and every block output stay on the tape: the next
        block's convolutions read it in their backward, and the projection's
        reads the last one (see ``_block``)."""
        if x.ndim != 4 or x.shape[0] != self.channels:
            raise ShapeError(
                f"expected (C={self.channels}, B, H, W) input, got shape {x.shape}"
            )
        xin = ad.Node(x, ws=ws, requires_grad=False)
        nodes = {name: ad.Node(value, ws=xin.ws) for name, value in self.params.items()}
        h = ad.channel_mix(nodes["lift"], xin)
        feature = None
        for i in range(self.num_blocks):
            h, feature = self._block(nodes, i, h)
        out = ad.channel_mix(nodes["project"], h)
        if self.global_residual:
            out = ad.add(out, xin)
        return ForwardTape(output=out, feature=feature, params=nodes)

    def _manifest_header(self) -> dict[str, str]:
        return {
            "scheme": self.scheme.token,
            "k": str(self.scheme.k),
            "channels": str(self.channels),
            "width": str(self.width),
            "num_blocks": str(self.num_blocks),
            "global_residual": "yes" if self.global_residual else "no",
        }

    def save_checkpoint(self, directory: str | Path) -> None:
        """Write every parameter as a portable tensor plus a text manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        lines = [f"{key}={value}" for key, value in self._manifest_header().items()]
        for name in self.params:
            fname = name.replace(".", "_") + ".rst"
            lines.append(f"param {name} {fname}")
            write_tensor(directory / fname, self.params[name])
        (directory / "manifest.txt").write_text("\n".join(lines) + "\n")

    def load_checkpoint(self, directory: str | Path) -> None:
        """Replace every parameter with the checkpoint's. The manifest must
        describe this network and name each of its parameters, else nothing
        is loaded."""
        directory = Path(directory)
        lines = (directory / "manifest.txt").read_text().splitlines()
        header = dict(line.split("=", 1) for line in lines if "=" in line)
        for key, want in self._manifest_header().items():
            if header.get(key) != want:
                raise ConfigError(f"checkpoint has {key}={header.get(key)}, network has {want}")
        loaded: dict[str, np.ndarray] = {}
        for line in lines:
            if line.startswith("param "):
                if len(line.split()) != 3:
                    raise ConfigError(f"checkpoint manifest line {line!r} is not 'param <name> <file>'")
                _, name, fname = line.split()
                if name not in self.params:
                    raise ConfigError(f"checkpoint has unknown parameter {name!r}")
                value = read_tensor(directory / fname)
                if value.shape != self.params[name].shape:
                    raise ShapeError(
                        f"checkpoint {name}: shape {value.shape} != {self.params[name].shape}"
                    )
                loaded[name] = value
        missing = sorted(set(self.params) - set(loaded))
        if missing:
            raise ConfigError(f"checkpoint lacks parameters {', '.join(missing)}")
        self.params.update(loaded)
