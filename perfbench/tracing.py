"""Outside-in tracing of resset: wrappers, spans, self time, per-layer metrics.

Nothing in ``src/`` knows about this module. Each traced function is replaced
in every ``resset`` module namespace that holds it, because that is where its
callers look it up (``train.py`` calls ``adam_step`` through its own globals,
``network.py`` calls ``branch_conv`` through the ``autodiff`` module). The
``_backward`` closure on each node an autodiff op returns is wrapped too, so
backward time is split per op. Everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from math import prod

# Traced targets, named "<module>.<function>" or "<module>.<Class>.<method>"
# relative to the resset package. The span of a target carries its name.
AUTODIFF_OPS = (
    "branch_conv",
    "channel_mix",
    "concat_channels",
    "leaky_relu",
    "add",
    "scale",
    "mean_abs_error",
    "diversity_penalty",
)
TARGETS = (
    *(f"autodiff.{op}" for op in AUTODIFF_OPS),
    "autodiff.Node.backward",
    "network.Network.forward_tape",
    "train.train_denoiser",
    "train.adam_step",
    "rank.audit_kernel_rank",
    "rank.feature_spectrum",
    "hsdata.metrics_report",
    "hsdata.synth_cube",
    "hsdata.add_noise",
    "cli.build_training_data",
    "tensor.numeric_rank",
    "schemes.build_kernel_matrix",
    "schemes.random_kernel_set",
    "regularizer.da_reg_value",
    "regularizer.da_reg_grad",
)

# Spans that per-layer metrics are normalized by: one set-up, one epoch, one
# evaluation, one audit sweep. The epoch spans are cut at the returns of
# train.adam_step, which runs once per epoch at train_pairs=1, batch_size=1.
SETUP = "cli.build_training_data"
WARMUP_EPOCH = "train.warmup_epoch"
EPOCH = "train.epoch"
EVALUATE = "train.evaluate"
SWEEP = "harness.sweep"
PHASES = (SETUP, WARMUP_EPOCH, EPOCH, EVALUATE, SWEEP)

BRANCH_EXTENTS = ("e333", "e311", "e131", "e113")
BYTES_PER_VALUE = 8


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run: int
    counts: dict[str, float] | None = None


def _resset_modules():
    return [m for n, m in list(sys.modules.items()) if n == "resset" or n.startswith("resset.")]


@contextlib.contextmanager
def wrapped(targets, make_wrapper):
    """Replace each target with ``make_wrapper(target, original)`` where callers
    look it up; put every original back on exit, also after an exception."""
    saved = []
    try:
        for target in targets:
            module_name, _, attr = target.partition(".")
            module = importlib.import_module(f"resset.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                saved.append((cls, method, original))
                setattr(cls, method, make_wrapper(target, original))
                continue
            original = getattr(module, attr)
            replacement = make_wrapper(target, original)
            for owner in _resset_modules():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        saved.append((owner, key, original))
                        setattr(owner, key, replacement)
        yield
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


def branch_counts(w_shape, x_shape, extents) -> tuple[str, dict[str, float]]:
    """Extent label and analytic work of one branch_conv forward call.

    MACs are the weight size times B*H*W; the bytes are those of the im2col
    patch matrix, C*taps*B*H*W values of 8 bytes, computed rather than measured.
    """
    c, b, h, w = x_shape
    label = "e" + "".join(str(e) for e in extents)
    grid = b * h * w
    return label, {
        "macs": float(prod(w_shape) * grid),
        "patch_bytes": float(c * prod(extents) * grid * BYTES_PER_VALUE),
    }


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory until the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._runs = 0

    def begin(self, name: str, counts: dict[str, float] | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            run = self._runs
            self._runs += 1
        else:
            run = self.spans[parent].run
        self.spans.append(Span(name, time.perf_counter(), None, parent, run, counts))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, name: str | None = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        if name is not None:
            span.name = name

    def _top_is(self, *names: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].name in names

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def installed(self):
        return wrapped(TARGETS, self._make_wrapper)

    def _make_wrapper(self, target: str, original):
        if target == "autodiff.branch_conv":
            return self._wrap_branch_conv(original)
        if target.startswith("autodiff.") and target != "autodiff.Node.backward":
            return self._wrap_op(target, original)
        if target == "train.train_denoiser":
            return self._wrap_training(original)
        if target == "train.adam_step":
            return self._wrap_step(original)
        return self._wrap_plain(target, original)

    def _call(self, name, fn, args, kwargs, counts=None):
        index = self.begin(name, counts)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def _wrap_plain(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrap_backward(self, name, backward, counts=None):
        def traced_backward(g):
            return self._call(name, backward, (g,), {}, counts)

        return traced_backward

    def _wrap_op(self, name, fn):
        def traced(*args, **kwargs):
            node = self._call(name, fn, args, kwargs)
            if node._backward is not None:
                node._backward = self._wrap_backward(name + ".backward", node._backward)
            return node

        return traced

    def _wrap_branch_conv(self, fn):
        def traced(w, x, extents):
            label, counts = branch_counts(w.data.shape, x.data.shape, extents)
            name = f"autodiff.branch_conv.{label}"
            node = self._call(name, fn, (w, x, extents), {}, counts)
            # The backward pass does the forward's MACs twice: weight and input gradient.
            node._backward = self._wrap_backward(
                name + ".backward", node._backward, {"macs": 2 * counts["macs"]}
            )
            return node

        return traced

    def _wrap_training(self, fn):
        def traced(*args, **kwargs):
            index = self.begin("train.train_denoiser")
            self.begin(WARMUP_EPOCH)
            try:
                return fn(*args, **kwargs)
            finally:
                # Whatever ran after the last optimizer step is the evaluation.
                if self._top_is(WARMUP_EPOCH, EPOCH):
                    self.end(self._stack[-1], name=EVALUATE)
                self.end(index)

        return traced

    def _wrap_step(self, fn):
        def traced(*args, **kwargs):
            out = self._call("train.adam_step", fn, args, kwargs)
            if self._top_is(WARMUP_EPOCH, EPOCH):
                self.end(self._stack[-1])
                self.begin(EPOCH)
            return out

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Inclusive time minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end - s.start - covered)
    return out


@dataclass
class Totals:
    ms: float = 0.0
    self_ms: float = 0.0
    calls: int = 0
    counts: Counter = field(default_factory=Counter)


def aggregate(spans: list[Span]) -> tuple[dict[tuple[str, str], Totals], Counter]:
    """Totals per (phase, span name), and the number of spans of each phase.

    A span's phase is its nearest ancestor (or itself) named in PHASES.
    """
    phase_of: list[int | None] = []
    for i, s in enumerate(spans):
        if s.name in PHASES:
            phase_of.append(i)
        elif s.parent is None:
            phase_of.append(None)
        else:
            phase_of.append(phase_of[s.parent])
    selfs = self_times(spans)
    totals: dict[tuple[str, str], Totals] = defaultdict(Totals)
    for i, s in enumerate(spans):
        if phase_of[i] is None:
            continue
        t = totals[(spans[phase_of[i]].name, s.name)]
        t.ms += (s.end - s.start) * 1e3
        t.self_ms += selfs[i] * 1e3
        t.calls += 1
        if s.counts:
            t.counts.update(s.counts)
    return totals, Counter(s.name for s in spans if s.name in PHASES)


def _layer_units() -> dict[str, str]:
    units = {}
    for ext in BRANCH_EXTENTS:
        base = f"autodiff.branch_conv.{ext}"
        units.update({
            f"{base}.fwd_ms": "ms",
            f"{base}.bwd_ms": "ms",
            f"{base}.calls": "count",
            f"{base}.macs": "count",
            f"{base}.gmacs_per_s": "GMAC/s",
            f"{base}.patch_mb_computed": "MB",
        })
    units.update({
        "autodiff.diversity_penalty.fwd_ms": "ms",
        "autodiff.diversity_penalty.bwd_ms": "ms",
        "autodiff.diversity_penalty.calls": "count",
    })
    for op in ("channel_mix", "leaky_relu", "concat_channels", "add", "mean_abs_error"):
        units[f"autodiff.{op}.fwd_ms"] = "ms"
        units[f"autodiff.{op}.bwd_ms"] = "ms"
    units.update({
        "autodiff.Node.backward.self_ms": "ms",
        "network.forward_tape.self_ms": "ms",
        "train.epoch.self_ms": "ms",
        "train.epoch.ms": "ms",
        "train.adam_step.ms": "ms",
        "train.evaluate.ms": "ms",
        "rank.feature_spectrum.ms": "ms",
        "hsdata.metrics_report.ms": "ms",
        "hsdata.synth_cube.ms": "ms",
        "hsdata.add_noise.ms": "ms",
        "cli.build_training_data.ms": "ms",
        "tensor.numeric_rank.ms": "ms",
        "tensor.numeric_rank.calls": "count",
        "schemes.build_kernel_matrix.ms": "ms",
        "schemes.random_kernel_set.ms": "ms",
        "rank.audit_kernel_rank.ms": "ms",
        "regularizer.da_reg_value.calls": "count",
        "regularizer.da_reg_grad.calls": "count",
        "trace.overhead_ms": "ms",
    })
    return units


# Per-layer metric name -> unit. Times and counts are per pass of the phase
# the metric belongs to: per epoch or audit sweep for the op metrics, per
# evaluation for rank.feature_spectrum, hsdata.metrics_report and
# train.evaluate, per build of the training data for the set-up metrics.
LAYER_UNITS = _layer_units()


def layer_metrics(spans: list[Span], loop_phase: str, overhead_ms: float) -> dict[str, float]:
    """Every metric of LAYER_UNITS from the spans of one traced run."""
    totals, passes = aggregate(spans)

    def per(phase: str, name: str, field: str = "ms") -> float:
        n = passes.get(phase, 0)
        t = totals.get((phase, name))
        if not n or t is None:
            return 0.0
        if field in ("ms", "self_ms", "calls"):
            return getattr(t, field) / n
        return t.counts[field] / n

    out: dict[str, float] = {}
    for ext in BRANCH_EXTENTS:
        base = f"autodiff.branch_conv.{ext}"
        fwd, bwd = per(loop_phase, base), per(loop_phase, base + ".backward")
        macs = per(loop_phase, base, "macs") + per(loop_phase, base + ".backward", "macs")
        out[f"{base}.fwd_ms"] = fwd
        out[f"{base}.bwd_ms"] = bwd
        out[f"{base}.calls"] = per(loop_phase, base, "calls")
        out[f"{base}.macs"] = macs
        out[f"{base}.gmacs_per_s"] = macs / ((fwd + bwd) * 1e6) if fwd + bwd > 0 else 0.0
        out[f"{base}.patch_mb_computed"] = per(loop_phase, base, "patch_bytes") / 1e6
    for op in ("diversity_penalty", "channel_mix", "leaky_relu", "concat_channels", "add", "mean_abs_error"):
        out[f"autodiff.{op}.fwd_ms"] = per(loop_phase, f"autodiff.{op}")
        out[f"autodiff.{op}.bwd_ms"] = per(loop_phase, f"autodiff.{op}.backward")
    out["autodiff.diversity_penalty.calls"] = per(loop_phase, "autodiff.diversity_penalty", "calls")
    out["autodiff.Node.backward.self_ms"] = per(loop_phase, "autodiff.Node.backward", "self_ms")
    out["network.forward_tape.self_ms"] = per(loop_phase, "network.Network.forward_tape", "self_ms")
    out["train.epoch.self_ms"] = per(EPOCH, EPOCH, "self_ms")
    out["train.epoch.ms"] = per(EPOCH, EPOCH)
    out["train.adam_step.ms"] = per(loop_phase, "train.adam_step")
    out["train.evaluate.ms"] = per(EVALUATE, EVALUATE)
    out["rank.feature_spectrum.ms"] = per(EVALUATE, "rank.feature_spectrum")
    out["hsdata.metrics_report.ms"] = per(EVALUATE, "hsdata.metrics_report")
    out["hsdata.synth_cube.ms"] = per(SETUP, "hsdata.synth_cube")
    out["hsdata.add_noise.ms"] = per(SETUP, "hsdata.add_noise")
    out["cli.build_training_data.ms"] = per(SETUP, SETUP)
    out["tensor.numeric_rank.ms"] = per(loop_phase, "tensor.numeric_rank")
    out["tensor.numeric_rank.calls"] = per(loop_phase, "tensor.numeric_rank", "calls")
    out["schemes.build_kernel_matrix.ms"] = per(loop_phase, "schemes.build_kernel_matrix")
    out["schemes.random_kernel_set.ms"] = per(loop_phase, "schemes.random_kernel_set")
    out["rank.audit_kernel_rank.ms"] = per(loop_phase, "rank.audit_kernel_rank")
    out["regularizer.da_reg_value.calls"] = per(loop_phase, "regularizer.da_reg_value", "calls")
    out["regularizer.da_reg_grad.calls"] = per(loop_phase, "regularizer.da_reg_grad", "calls")
    out["trace.overhead_ms"] = overhead_ms
    return out


def top_autodiff_op(spans: list[Span], loop_phase: str) -> tuple[str | None, int]:
    """The autodiff op (branch_conv split by extent) with the most forward plus
    backward time per pass, and the number of autodiff calls in the loop."""
    totals, _ = aggregate(spans)
    per_op: Counter = Counter()
    calls = 0
    for (phase, name), t in totals.items():
        if phase != loop_phase or not name.startswith("autodiff.") or name.startswith("autodiff.Node"):
            continue
        per_op[name.removesuffix(".backward")] += t.ms
        calls += t.calls
    top = per_op.most_common(1)
    return (top[0][0] if top else None), calls


def block_mac_sums(spans: list[Span], convs_per_block: int) -> list[float]:
    """Forward branch_conv MACs summed per block, in call order, for every
    network forward pass; each should equal schemes.mac_count for the block."""
    per_pass: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        if (
            s.parent is not None
            and s.name.startswith("autodiff.branch_conv.")
            and spans[s.parent].name == "network.Network.forward_tape"
        ):
            per_pass[s.parent].append(s.counts["macs"])
    return [
        sum(macs[j : j + convs_per_block])
        for macs in per_pass.values()
        for j in range(0, len(macs), convs_per_block)
    ]
