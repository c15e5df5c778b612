"""Workloads, correctness checks and metrics of the resset benchmark.

Every workload is a closed loop: one process, one training call or audit
sweep at a time, with the machine's default BLAS threading. The workload seed
sets the training seed, the data seed and the noise seed (or the audit draws);
the program only sees the inputs made from it.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from resset import cli, network, rank, schemes, train

import tracing

# --- workloads ---------------------------------------------------------------

# The toy denoising run of the ROADMAP: a 31x32x32 Gaussian sigma=50 cube,
# width 8, two blocks, one training pair, one pair per optimizer step.
TRAINING = {
    # Penalty SVD of a 24 x 31744 matrix and three 1-D branch convolutions.
    "denoise_res3_1d_reg": ("res3_1d", 5e-5),
    # The 3x3x3 im2col convolution and the largest tape; the penalty never runs.
    "denoise_conv3d_plain": ("conv3d", 0.0),
}
# The op each training workload was chosen for; traced runs say whether it
# is still the top one, which a later optimization may well change.
CHOSEN_TOP_OP = {
    "denoise_res3_1d_reg": "autodiff.diversity_penalty",
    "denoise_conv3d_plain": "autodiff.branch_conv.e333",
}
AUDIT = "rank_audit_m8"  # many small spectrum-only decompositions, no autodiff
WORKLOADS = (*TRAINING, AUDIT)

EPOCHS_PER_CALL = 12
WARMUP_EPOCHS = 1  # the first epoch of each call allocates the Adam state
MIN_CALLS = 2  # two calls with one seed must give byte-identical losses

# Holdout MPSNR after one call at seed 0. A change that only reorders
# floating-point sums moves it by far less than the tolerance.
REFERENCE_SEED = 0
REFERENCE_MPSNR_DB = {
    "denoise_res3_1d_reg": 13.602085165987658,
    "denoise_conv3d_plain": 14.126065744131436,
}
MPSNR_TOLERANCE_DB = 0.01

AUDIT_SCHEMES = ("conv3d", "res3_2d", "res3_1d", "res3_1d_l2", "res3_1dx3", "par1d2d")
AUDIT_M = 8
AUDIT_DRAWS = 8  # weight draws per scheme in one sweep
SWEEP_STRIDE = 1_000_000  # rng seed of sweep j is seed * SWEEP_STRIDE + j
WARMUP_SWEEPS = 1
# Documented rank caps at m = c = 8, k = 3: the row count (M, 3M, 3M, 6M, 9M,
# 2M) capped by C times the taps the branches touch (27, 19, 7, 7, 7, 11).
AUDIT_CAPS = {
    "conv3d": 8,
    "res3_2d": 24,
    "res3_1d": 24,
    "res3_1d_l2": 48,
    "res3_1dx3": 56,
    "par1d2d": 16,
}

# Set-up is probed in fresh processes, half before the workload and half after,
# so that the median spans two moments of the machine's load.
SETUP_PROBES = 6

# An "epoch" is one pass over the workload's inputs: a training epoch, or one
# sweep of rank.audit_kernel_rank over the six schemes. The timing is the 90th
# percentile, not the median: this machine's speed flips between two states
# for seconds at a time, which makes a run's median jump between them, while
# the 90th percentile stays put (see NOTES.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "epoch_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RESSET_THREADS")


def training_config(workload: str, seed: int) -> dict:
    """The resolved `train` configuration of a training workload."""
    scheme, lam = TRAINING[workload]
    cfg = {name: option.default for name, option in cli.TRAIN_SCHEMA.items()}
    cfg.update(
        scheme=scheme,
        lam=lam,
        width=8,
        num_blocks=2,
        k=3,
        learning_rate=2e-4,
        beta1=0.9,
        beta2=0.999,
        epochs=EPOCHS_PER_CALL,
        batch_size=1,
        train_pairs=1,
        bands=31,
        height=32,
        width_px=32,
        endmembers=4,
        noise_kind="gaussian",
        sigma=50.0,
        seed=seed,
        data_seed=100 + seed,
        noise_seed=200 + seed,
    )
    return cfg


def audit_kernel_sets() -> list[tuple[str, schemes.KernelSet]]:
    return [
        (token, schemes.zero_kernel_set(schemes.parse_scheme_token(token), AUDIT_M, AUDIT_M))
        for token in AUDIT_SCHEMES
    ]


def setup(workload: str, seed: int):
    """Everything a workload needs before its first timed epoch or audit."""
    if workload == AUDIT:
        return audit_kernel_sets()
    cfg = training_config(workload, seed)
    scheme = schemes.parse_scheme_token(cfg["scheme"], k=cfg["k"])
    data = cli.build_training_data(cfg)
    # Timed as part of set-up only; each training call builds its own network.
    network.Network(scheme, data.pairs[0][0].channels, cfg["width"], cfg["num_blocks"], seed=seed)
    return cfg, scheme, data


# --- correctness ---------------------------------------------------------------


def training_problems(trajectories: list[tuple[tuple[float, ...], tuple[float, ...]]]) -> list[str]:
    """Loss checks over the (data terms, reg terms) of calls with one seed:
    finite, falling from the first epoch to the last, and byte-identical."""
    problems = []
    for i, (data_terms, reg_terms) in enumerate(trajectories):
        total = np.asarray(data_terms) + np.asarray(reg_terms)
        if not np.all(np.isfinite(total)):
            problems.append(f"call {i}: non-finite loss")
        elif not total[-1] < total[0]:
            problems.append(f"call {i}: loss did not fall ({total[0]!r} -> {total[-1]!r})")
    first = [np.asarray(t).tobytes() for t in trajectories[0]] if trajectories else None
    for i, traj in enumerate(trajectories[1:], start=1):
        if [np.asarray(t).tobytes() for t in traj] != first:
            problems.append(f"call {i}: loss trajectory differs from call 0")
    return problems


def audit_rng_seed(seed: int, sweep: int) -> int:
    """The rng_seed of rank.audit_kernel_rank in one sweep of one run."""
    return seed * SWEEP_STRIDE + sweep


def audit_misses(token: str, seed_ranks) -> int:
    """Audit draws whose rank misses the documented cap of the scheme."""
    return sum(1 for r in seed_ranks if r != AUDIT_CAPS[token])


# --- measurement ---------------------------------------------------------------


def quantiles(values) -> str:
    return " ".join(f"p{q}={np.percentile(values, q):.2f}" for q in (10, 25, 50, 75, 90))


class EpochClock:
    """Stamps each return of train.adam_step, the one epoch boundary that can
    be seen from outside at train_pairs=1, batch_size=1."""

    def __init__(self):
        self.stamps: list[float] = []

    def wrapper(self, target, fn):
        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.stamps.append(time.perf_counter())
            return out

        return stamped


@dataclass
class Call:
    """One train_denoiser call as seen from outside."""

    epoch_ms: list[float]  # warm-up epochs excluded
    eval_ms: float | None
    epochs_done: int
    report: object | None
    error: str | None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def timed_call(tcfg, data, clock: EpochClock) -> Call:
    clock.stamps.clear()
    start = time.perf_counter()
    try:
        report = train.train_denoiser(tcfg, data)
    except Exception as err:  # a failed call is counted, not fatal
        return Call([], None, len(clock.stamps), None, f"{type(err).__name__}: {err}")
    end = time.perf_counter()
    stamps = clock.stamps
    if not stamps:
        return Call([], None, 0, report, "no optimizer step was seen")
    epoch_ms = [(b - a) * 1e3 for a, b in zip(stamps[WARMUP_EPOCHS - 1 :], stamps[WARMUP_EPOCHS:])]
    return Call(epoch_ms, (end - stamps[-1]) * 1e3, len(stamps), report, None)


def training_loop(tcfg, data, seconds: float, clock: EpochClock) -> tuple[list[Call], float]:
    calls = []
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        calls.append(timed_call(tcfg, data, clock))
    return calls, time.perf_counter() - start


def account_calls(out: Outcome, calls: list[Call], epochs: int) -> None:
    for call in calls:
        out.attempted += epochs
        if call.error is not None:
            out.failed += max(1, epochs - call.epochs_done)
            out.problems.append(call.error)
        elif call.epochs_done != epochs:
            out.failed += epochs
            out.problems.append(f"saw {call.epochs_done} optimizer steps for {epochs} epochs")
        else:
            out.failed += sum(
                1 for d, r in zip(call.report.data_terms, call.report.reg_terms)
                if not np.isfinite(d + r)
            )


def run_training(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    cfg, scheme, data = setup(workload, seed)
    tcfg = cli.train_config_from(cfg, scheme, seed, cfg["lam"])
    clock = EpochClock()
    with tracing.wrapped(["train.adam_step"], clock.wrapper):
        calls, loop_s = training_loop(tcfg, data, seconds / 2 if trace else seconds, clock)
        all_calls = list(calls)
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_data = cli.build_training_data(cfg)
                traced_calls, _ = training_loop(tcfg, data, seconds / 2, clock)
            all_calls += traced_calls
            out.spans = tracer.spans
        if seed == REFERENCE_SEED:
            reference = all_calls[0]
        else:
            ref_cfg = training_config(workload, REFERENCE_SEED)
            reference = timed_call(
                cli.train_config_from(ref_cfg, scheme, REFERENCE_SEED, ref_cfg["lam"]),
                cli.build_training_data(ref_cfg),
                clock,
            )
            account_calls(out, [reference], cfg["epochs"])
    account_calls(out, all_calls, cfg["epochs"])

    good = [c for c in all_calls if c.report is not None]
    out.problems += training_problems([(c.report.data_terms, c.report.reg_terms) for c in good])
    if reference.report is not None:
        mpsnr = reference.report.metrics.mpsnr
        want = REFERENCE_MPSNR_DB[workload]
        out.notes.append(f"reference mpsnr_db={mpsnr!r} (recorded {want!r})")
        if abs(mpsnr - want) > MPSNR_TOLERANCE_DB:
            out.problems.append(
                f"seed-{REFERENCE_SEED} mpsnr {mpsnr!r} dB is off the recorded {want!r} dB"
                f" by more than {MPSNR_TOLERANCE_DB} dB"
            )
    evals = [c.eval_ms for c in calls if c.report is not None]
    if evals:
        m = good[0].report.metrics
        out.notes.append(
            f"seed {seed}: mpsnr_db={m.mpsnr!r} mssim={m.mssim!r} sam={m.sam!r}"
            f" eval_ms_p50={statistics.median(evals)!r} calls={len(all_calls)}"
        )

    epoch_ms = [d for c in calls for d in c.epoch_ms]
    if not epoch_ms:
        out.problems.append("no epoch was timed")
        return out
    if trace:
        traced_ms = [d for c in traced_calls for d in c.epoch_ms]
        overhead = statistics.median(traced_ms) - statistics.median(epoch_ms) if traced_ms else 0.0
        out.metrics = tracing.layer_metrics(out.spans, tracing.EPOCH, overhead)
        check_traced_training(out, cfg, scheme, data, traced_data, workload)
    else:
        out.metrics = {"epoch_ms_p90": float(np.percentile(epoch_ms, 90))}
        out.notes.append(
            f"{len(epoch_ms)} timed epochs in {len(calls)} calls over {loop_s:.1f} s; ms {quantiles(epoch_ms)}"
        )
    return out


def check_traced_training(out: Outcome, cfg, scheme, data, traced_data, workload) -> None:
    same = all(
        np.array_equal(a.data, b.data)
        for pa, pb in zip((*data.pairs, data.holdout), (*traced_data.pairs, traced_data.holdout))
        for a, b in zip(pa, pb)
    )
    if not same:
        out.problems.append("build_training_data gave other inputs for the same seed")
    grid = cfg["bands"] * cfg["height"] * cfg["width_px"]
    want = schemes.mac_count(scheme, cfg["width"], cfg["width"], grid)
    sums = tracing.block_mac_sums(out.spans, len(schemes.branch_extents(scheme)))
    if not sums or any(s != want for s in sums):
        out.problems.append(f"branch_conv MACs per block {sorted(set(sums))} != mac_count {want}")
    top, _ = tracing.top_autodiff_op(out.spans, tracing.EPOCH)
    expected = CHOSEN_TOP_OP[workload]
    out.notes.append(f"top autodiff op: {top} (chosen for {expected}: {'holds' if top == expected else 'moved'})")


def run_audit(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    kernel_sets = setup(AUDIT, seed)
    tracer = tracing.Tracer()
    sweep = 0

    def one_sweep(traced: bool) -> float:
        nonlocal sweep
        start = time.perf_counter()
        with tracer.span(tracing.SWEEP) if traced else contextlib.nullcontext():
            for token, ks in kernel_sets:
                out.attempted += AUDIT_DRAWS
                try:
                    audit = rank.audit_kernel_rank(
                        ks, seeds=AUDIT_DRAWS, rng_seed=audit_rng_seed(seed, sweep)
                    )
                except Exception as err:  # a failed audit is counted, not fatal
                    out.failed += AUDIT_DRAWS
                    out.problems.append(f"{token}: {type(err).__name__}: {err}")
                    continue
                misses = audit_misses(token, audit.seed_ranks)
                if misses:
                    out.failed += misses
                    out.problems.append(
                        f"{token} sweep {sweep}: ranks {audit.seed_ranks} != cap {AUDIT_CAPS[token]}"
                    )
        sweep += 1
        return (time.perf_counter() - start) * 1e3

    def loop(budget: float, traced: bool) -> tuple[list[float], float]:
        times = []
        start = time.perf_counter()
        while len(times) <= WARMUP_SWEEPS or time.perf_counter() - start < budget:
            times.append(one_sweep(traced))
        return times[WARMUP_SWEEPS:], time.perf_counter() - start

    sweep_ms, loop_s = loop(seconds / 2 if trace else seconds, False)
    if trace:
        with tracer.installed():
            traced_ms, _ = loop(seconds / 2, True)
        out.spans = tracer.spans
        overhead = statistics.median(traced_ms) - statistics.median(sweep_ms)
        out.metrics = tracing.layer_metrics(out.spans, tracing.SWEEP, overhead)
        _, autodiff_calls = tracing.top_autodiff_op(out.spans, tracing.SWEEP)
        out.notes.append(f"autodiff calls in the traced sweeps: {autodiff_calls} (chosen for 0)")
    else:
        out.metrics = {"epoch_ms_p90": float(np.percentile(sweep_ms, 90))}
        out.notes.append(
            f"{len(sweep_ms)} timed sweeps of {len(kernel_sets) * AUDIT_DRAWS} draws"
            f" over {loop_s:.1f} s; ms {quantiles(sweep_ms)}"
        )
    return out


# --- the run -------------------------------------------------------------------


def environment() -> dict:
    """What the timings depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas_text = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text.strip(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }


def measure_setup(script: Path, workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from the start of a fresh process to the end of its set-up."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(elapsed)
    return times


def run(script: Path, workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload and return the result object of the last output line."""
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if not trace:
        setup_times = measure_setup(script, workload, seed, SETUP_PROBES // 2)
    if workload == AUDIT:
        out = run_audit(seed, seconds, trace)
    else:
        out = run_training(workload, seed, seconds, trace)
    if trace:
        units = tracing.LAYER_UNITS
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({
            "env": env,
            "fields": ["name", "start", "end", "parent", "run", "counts"],
            "spans": [[s.name, s.start, s.end, s.parent, s.run, s.counts] for s in out.spans],
        }))
        print(f"trace: {len(out.spans)} spans -> {path}")
    else:
        units = END_TO_END_UNITS
        out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += measure_setup(script, workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
        out.metrics["setup_s"] = statistics.median(setup_times)
    metrics = {}
    for name, unit in units.items():
        if name in out.metrics:
            metrics[name] = {"value": float(out.metrics[name]), "unit": unit}
        else:  # the run failed before it measured this
            out.problems.append(f"metric {name} not measured")
    for note in out.notes:
        print(note)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {
        "correct": not out.problems and out.failed == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": metrics,
    }
