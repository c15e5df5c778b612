"""Experiment driver: rank audits, gradient checks, parameter/MAC tables,
toy denoising runs, scheme comparisons, and spectrum dumps.

Every command reads a plain-text ``key=value`` configuration file, applies
``key=value`` overrides from the command line, rejects unknown keys, and
echoes the fully resolved configuration into its output directory. Output
directories are named by a hash of that canonical configuration, so a rerun
with the same configuration lands in the same place and reproduces the same
bytes. Deterministic results go to .json/.csv files; wall-clock timings go to
a separate timing.txt.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonFiniteLoss, NumericError, RessetError
from .hsdata import SSIM_WINDOW, NoiseKind, NoiseSpec, add_noise, cube_to_feature, synth_cube
from .network import Network
from .options import Option, options
from .rank import Spectrum, audit_kernel_rank, feature_spectrum, rank_upper_bound, tail_mass
from .regularizer import da_reg_grad, da_reg_value
from .schemes import (
    KernelScheme,
    branch_extents,
    compression_mac_count,
    compression_param_count,
    mac_count,
    param_count,
    parse_scheme_token,
    zero_kernel_set,
)
from .tensor import FeatureMap, check_extents, read_tensor, write_tensor
from .train import TrainConfig, TrainingData, train_denoiser, training_loss

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# configuration handling


def _parse_value(raw: str, typ: type):
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if typ is list:
        return [item.strip() for item in raw.split(",") if item.strip()]
    try:
        value = typ(raw)
    except ValueError as err:
        raise ConfigError(f"cannot parse {raw!r} as {typ.__name__}") from err
    return value


def read_config_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def resolve_config(
    schema: dict[str, Option], file_pairs: dict[str, str], overrides: list[str]
) -> dict:
    merged = dict(file_pairs)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    unknown = sorted(set(merged) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for key, opt in schema.items():
        value = _parse_value(merged[key], opt.type) if key in merged else opt.default
        opt.check(key, value)
        resolved[key] = value
    return resolved


def _config_value_text(value) -> str:
    """A resolved value or CSV cell written the way a config file states it."""
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_config_text(command: str, cfg: dict) -> str:
    lines = [f"command={command}"]
    lines += [f"{key}={_config_value_text(cfg[key])}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"


def _schema_help(schema: dict[str, Option]) -> str:
    """The config keys of one command, one line each: key, type, accepted
    range ("-" for any value), default, help."""
    rows = [("key", "type", "range", "default", "help")]
    rows += [(key, opt.type.__name__, opt.range_text(), _config_value_text(opt.default) or '""',
              opt.help)
             for key, opt in schema.items()]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["config keys (key=value, in the --config file or as overrides):"]
    lines += ["  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "  " + row[4]
              for row in rows]
    return "\n".join(lines)


def make_run_dir(command: str, cfg: dict) -> Path:
    text = canonical_config_text(command, cfg)
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    run_dir = Path(cfg["out_dir"]) / f"{command}-{digest}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(text)
    return run_dir


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_config_value_text(cell) for cell in row])
    path.write_text(buf.getvalue())


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# shared experiment plumbing

_COMMON = {
    "out_dir": Option(str, "runs", "directory that receives per-run output folders"),
}

_TASK = {
    **options(TrainConfig),
    "k": Option(int, 3, "kernel extent"),
    "bands": Option(int, 31, "cube bands", low=1),
    "height": Option(int, 32, "cube height, at least the MSSIM window", low=SSIM_WINDOW),
    "width_px": Option(int, 32, "cube width, at least the MSSIM window", low=SSIM_WINDOW),
    "endmembers": Option(int, 4, "synthetic endmember count", low=1),
    "train_pairs": Option(int, 1, "number of training pairs", low=1),
    "data_seed": Option(int, 100, "seed for synthetic cube content", low=0),
    "noise_kind": Option(str, "gaussian", "gaussian|gaussian_blind|non_iid|stripe|deadline|impulse|mixture"),
    **options(NoiseSpec),
    "noise_seed": Option(int, 200, "seed for the noise draws", low=0),
}


def _noise_spec(cfg: dict, seed: int) -> NoiseSpec:
    try:
        kind = NoiseKind(cfg["noise_kind"])
    except ValueError as err:
        valid = ", ".join(k.value for k in NoiseKind)
        raise ConfigError(f"unknown noise_kind {cfg['noise_kind']!r}; valid: {valid}") from err
    return NoiseSpec(kind=kind, seed=seed, **{key: cfg[key] for key in options(NoiseSpec)})


def build_training_data(cfg: dict, seed_shift: int = 0) -> TrainingData:
    """Synthesize matched noisy/clean pairs plus a held-out pair."""
    pairs = []
    for i in range(cfg["train_pairs"] + 1):
        clean = synth_cube(
            cfg["data_seed"] + seed_shift + i,
            cfg["bands"],
            cfg["height"],
            cfg["width_px"],
            cfg["endmembers"],
        )
        noisy = add_noise(clean, _noise_spec(cfg, cfg["noise_seed"] + seed_shift + i))
        pairs.append((cube_to_feature(noisy), cube_to_feature(clean)))
    return TrainingData(pairs=tuple(pairs[:-1]), holdout=pairs[-1])


def _check_grid(cfg: dict, schemes: list[KernelScheme]) -> None:
    """Reject a cube grid that a branch window outgrows, before any training
    time is spent on it."""
    for scheme in schemes:
        for extents in branch_extents(scheme):
            check_extents(extents, (cfg["bands"], cfg["height"], cfg["width_px"]))


def train_config_from(cfg: dict, scheme: KernelScheme, seed: int, lam: float) -> TrainConfig:
    values = {**cfg, "seed": seed, "lam": lam}
    return TrainConfig(scheme=scheme, **{key: values[key] for key in options(TrainConfig)})


def _distinct_schemes(command: str, cfg: dict) -> list[KernelScheme]:
    """Parse the ``schemes`` tokens, refusing an empty list and two tokens
    that name one scheme: it would run twice and both row sets would carry
    its one token."""
    if not cfg["schemes"]:
        raise ConfigError("schemes list is empty")
    schemes = [parse_scheme_token(token, k=cfg["k"]) for token in cfg["schemes"]]
    repeated = sorted({s.token for s in schemes if schemes.count(s) > 1})
    if repeated:
        raise ConfigError(f"{command} names {', '.join(repeated)} more than once")
    return schemes


def _spectrum_rows(spectrum: Spectrum) -> list[list]:
    return [[i, float(v)] for i, v in enumerate(spectrum.values)]


# ---------------------------------------------------------------------------
# subcommands


RANK_AUDIT_SCHEMA = {
    **_COMMON,
    "schemes": Option(list, ["conv3d", "res3_2d", "res3_1d", "res3_1d_l2", "res3_1dx3", "par1d2d"],
                      "comma-separated scheme tokens to audit"),
    "m": Option(int, 4, "output channels M", low=1),
    "c": Option(int, 4, "input channels C", low=1),
    "k": Option(int, 3, "kernel extent"),
    "seeds": Option(int, 10, "independent weight draws per scheme", low=1),
    "seed": Option(int, 0, "base RNG seed", low=0),
    "tol": Option(float, 1e-6, "relative singular-value cutoff"),
    "zero_weights": Option(bool, False, "audit all-zero weights instead of random draws"),
}


def cmd_rank_audit(cfg: dict) -> int:
    rows = []
    violation = False
    for scheme in _distinct_schemes("rank-audit", cfg):
        ks = zero_kernel_set(scheme, cfg["m"], cfg["c"])
        audit = audit_kernel_rank(
            ks,
            seeds=cfg["seeds"],
            rng_seed=cfg["seed"],
            rel_tol=cfg["tol"],
            zero_weights=cfg["zero_weights"],
        )
        cap = min(audit.predicted_bound, audit.valid_columns)
        for s, rank in enumerate(audit.seed_ranks):
            rows.append(
                [
                    scheme.token,
                    s,
                    cfg["m"],
                    cfg["c"],
                    cfg["k"],
                    scheme.L,
                    audit.predicted_bound,
                    audit.valid_columns,
                    rank,
                    rank == cap,
                ]
            )
            if rank > audit.predicted_bound:
                violation = True
    header = [
        "scheme",
        "seed",
        "m",
        "c",
        "k",
        "l",
        "predicted_bound",
        "valid_columns",
        "measured_rank",
        "achieved",
    ]
    run_dir = make_run_dir("rank-audit", cfg)
    write_csv(run_dir / "audit.csv", header, rows)
    print(f"rank-audit: {len(rows)} rows -> {run_dir / 'audit.csv'}")
    return EXIT_CHECK_FAILED if violation else EXIT_OK


GRAD_CHECK_SCHEMA = {
    **_COMMON,
    "seed": Option(int, 0, "RNG seed", low=0),
    "matrices": Option(int, 20, "number of penalty-gradient test matrices", low=1),
    "max_rows": Option(int, 12, "max matrix rows", low=2),
    "max_cols": Option(int, 24, "max matrix cols", low=2),
    "net_scheme": Option(str, "res3_1d", "scheme for the network check"),
    "width": Option(int, 4, "channel width for the network check", low=1),
    "num_blocks": Option(int, 2, "blocks for the network check", low=1),
    "samples": Option(int, 20, "sampled parameters for finite differences", low=1),
    "tol": Option(float, 1e-4, "max allowed relative error", low=0),
    "sabotage": Option(bool, False, "flip analytic gradient signs (self-test hook)"),
}


def _gap_separated_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random matrix whose singular values are separated by gaps >= 0.1."""
    r = min(rows, cols)
    gaps = rng.uniform(0.1, 0.5, size=r)
    s = 0.5 + np.cumsum(gaps)[::-1]
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :r]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, :r]
    return (u * s) @ v.T


def penalty_grad_max_error(
    rng: np.random.Generator,
    matrices: int,
    max_rows: int,
    max_cols: int,
    step: float = 1e-5,
    sabotage: bool = False,
) -> float:
    """Worst relative error of the analytic penalty gradient vs central
    differences over random gap-separated matrices."""
    worst = 0.0
    for _ in range(matrices):
        rows = int(rng.integers(2, max_rows + 1))
        cols = int(rng.integers(2, max_cols + 1))
        mat = _gap_separated_matrix(rng, rows, cols)
        analytic = da_reg_grad(mat)
        if sabotage:
            analytic = -analytic
        fd = np.zeros_like(mat)
        for i in range(rows):
            for j in range(cols):
                bump = np.zeros_like(mat)
                bump[i, j] = step
                fd[i, j] = (da_reg_value(mat + bump) - da_reg_value(mat - bump)) / (2 * step)
        scale = max(np.max(np.abs(analytic)), 1e-12)
        worst = max(worst, float(np.max(np.abs(fd - analytic)) / scale))
    return worst


def network_grad_max_error(
    scheme: KernelScheme,
    width: int,
    num_blocks: int,
    samples: int,
    seed: int,
    lam: float = TrainConfig.lam,
    step: float = 1e-4,
    sabotage: bool = False,
) -> float:
    """Worst relative error of sampled parameter gradients vs central
    differences for the full denoising loss."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9C)))
    net = Network(scheme, channels=1, width=width, num_blocks=num_blocks, seed=seed)
    x = rng.standard_normal((1, 5, 7, 7)) * 0.5
    target = rng.standard_normal((1, 5, 7, 7)) * 0.5

    def loss_graph():
        tape = net.forward_tape(x)
        return training_loss(tape.output, tape.feature, target, lam)[0], tape

    loss, tape = loss_graph()
    loss.backward()
    analytic = {
        name: node.grad if node.grad is not None else np.zeros_like(node.data)
        for name, node in tape.params.items()
    }
    if sabotage:
        analytic = {name: -g for name, g in analytic.items()}
    names = sorted(net.params)
    worst = 0.0
    for _ in range(samples):
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
        an = float(analytic[name][idx])
        worst = max(worst, abs(fd - an) / max(abs(an), abs(fd), 1e-8))
    return worst


def cmd_grad_check(cfg: dict) -> int:
    scheme = parse_scheme_token(cfg["net_scheme"])
    run_dir = make_run_dir("grad-check", cfg)
    rng = np.random.default_rng(np.random.SeedSequence((cfg["seed"], 0xDA)))
    penalty_err = penalty_grad_max_error(
        rng, cfg["matrices"], cfg["max_rows"], cfg["max_cols"], sabotage=cfg["sabotage"]
    )
    network_err = network_grad_max_error(
        scheme,
        cfg["width"],
        cfg["num_blocks"],
        cfg["samples"],
        cfg["seed"],
        sabotage=cfg["sabotage"],
    )
    worst = max(penalty_err, network_err)
    write_json(
        run_dir / "report.json",
        {
            "penalty_max_rel_error": penalty_err,
            "network_max_rel_error": network_err,
            "max_rel_error": worst,
            "tolerance": cfg["tol"],
            "passed": worst <= cfg["tol"],
        },
    )
    print(f"grad-check: penalty={penalty_err:.3e} network={network_err:.3e} tol={cfg['tol']:.1e}")
    return EXIT_OK if worst <= cfg["tol"] else EXIT_CHECK_FAILED


BENCH_SCHEMA = {
    **_COMMON,
    "schemes": Option(list, ["conv3d", "seq1d", "seq1d2d", "par1d2d", "res3_1d"],
                      "comma-separated scheme tokens to tabulate"),
    "m": Option(int, 8, "output channels M", low=1),
    "c": Option(int, 8, "input channels C", low=1),
    "k": Option(int, 3, "kernel extent"),
    "bands": Option(int, 8, "input bands", low=1),
    "height": Option(int, 16, "input height", low=1),
    "width_px": Option(int, 16, "input width", low=1),
}


def cmd_bench(cfg: dict) -> int:
    schemes = _distinct_schemes("bench", cfg)
    run_dir = make_run_dir("bench", cfg)
    grid = cfg["bands"] * cfg["height"] * cfg["width_px"]
    rows = []
    for scheme in schemes:
        rows.append(
            [
                scheme.token,
                rank_upper_bound(scheme, cfg["m"]),
                param_count(scheme, cfg["m"], cfg["c"]),
                compression_param_count(scheme, cfg["m"]),
                mac_count(scheme, cfg["m"], cfg["c"], grid),
                compression_mac_count(scheme, cfg["m"], grid),
            ]
        )
    header = ["scheme", "rank_upper_bound", "params", "compression_params", "macs", "compression_macs"]
    write_csv(run_dir / "bench.csv", header, rows)
    for row in rows:
        print("bench:", dict(zip(header, row)))
    return EXIT_OK


TRAIN_SCHEMA = {
    **_COMMON,
    **_TASK,
    "scheme": Option(str, "res3_1d", "convolution scheme token"),
}


def cmd_train(cfg: dict) -> int:
    scheme = parse_scheme_token(cfg["scheme"], k=cfg["k"])
    _check_grid(cfg, [scheme])
    tcfg = train_config_from(cfg, scheme, cfg["seed"], cfg["lam"])
    data = build_training_data(cfg, seed_shift=cfg["seed"])
    run_dir = make_run_dir("train", cfg)
    try:
        report, net, feature = train_denoiser(tcfg, data, return_network=True)
    except NonFiniteLoss as err:
        write_json(run_dir / "report.json",
                   {"error": "non_finite_loss", "epoch": err.epoch, "message": str(err)})
        print(f"train: {err}")
        return EXIT_NUMERIC
    except NumericError as err:  # non-finite holdout metrics or feature volume
        write_json(run_dir / "report.json", {"error": "numeric", "message": str(err)})
        raise
    write_json(run_dir / "report.json", report.as_dict())
    write_csv(run_dir / "spectrum.csv", ["index", "normalized_value"], _spectrum_rows(report.spectrum))
    net.save_checkpoint(run_dir / "checkpoint")
    write_tensor(run_dir / "feature.rst", feature)
    (run_dir / "timing.txt").write_text(f"wall_seconds={report.wall_seconds:.3f}\n")
    m = report.metrics
    print(
        f"train[{scheme.token}]: mpsnr={m.mpsnr:.2f} dB  mssim={m.mssim:.4f}  sam={m.sam:.4f}"
        f"  params={report.parameter_count}"
    )
    return EXIT_OK


COMPARE_SCHEMA = {
    **_COMMON,
    **{key: opt for key, opt in _TASK.items() if key != "seed"},  # cells use seeds 0..seeds-1
    "schemes": Option(list, ["conv3d", "seq1d", "seq1d2d", "par1d2d", "res3_1d"],
                      "comma-separated scheme tokens to train and compare"),
    "seeds": Option(int, 3, "matched seeds per scheme", low=1),
}


def cmd_compare(cfg: dict) -> int:
    if len(cfg["schemes"]) < 2:
        raise ConfigError("compare needs at least two schemes")
    schemes = _distinct_schemes("compare", cfg)
    _check_grid(cfg, schemes)
    schemes.sort(key=lambda s: (rank_upper_bound(s, cfg["width"]), s.token))
    data = [build_training_data(cfg, seed_shift=seed) for seed in range(cfg["seeds"])]
    run_dir = make_run_dir("compare", cfg)
    cells = [(scheme, seed) for scheme in schemes for seed in range(cfg["seeds"])]
    rows = []
    per_scheme: dict[str, list] = {s.token: [] for s in schemes}
    for scheme, seed in cells:
        try:
            report = train_denoiser(train_config_from(cfg, scheme, seed, cfg["lam"]), data[seed])
        except RessetError as err:
            rows.append(
                [scheme.token, seed, rank_upper_bound(scheme, cfg["width"]), "", "", "", "", "",
                 f"failed:{type(err).__name__}"]
            )
            continue
        tail = tail_mass(report.spectrum, cfg["width"])
        rows.append(
            [
                scheme.token,
                seed,
                rank_upper_bound(scheme, cfg["width"]),
                report.parameter_count,
                report.metrics.mpsnr,
                report.metrics.mssim,
                report.metrics.sam,
                tail,
                "ok",
            ]
        )
        per_scheme[scheme.token].append((report, tail))
    header = ["scheme", "seed", "rank_upper_bound", "params", "mpsnr", "mssim", "sam",
              "tail_mass", "status"]
    write_csv(run_dir / "results.csv", header, rows)

    means = {}
    for scheme in schemes:
        outcomes_ok = per_scheme[scheme.token]
        if outcomes_ok:
            means[scheme.token] = {
                "mpsnr": float(np.mean([r.metrics.mpsnr for r, _ in outcomes_ok])),
                "mssim": float(np.mean([r.metrics.mssim for r, _ in outcomes_ok])),
                "sam": float(np.mean([r.metrics.sam for r, _ in outcomes_ok])),
                "tail_mass": float(np.mean([t for _, t in outcomes_ok])),
                "params": outcomes_ok[0][0].parameter_count,
            }
    res3_tokens = [s.token for s in schemes if s.is_res3 and s.token in means]
    best_token = max(means, key=lambda t: means[t]["mpsnr"]) if means else ""
    res3_best = bool(res3_tokens) and best_token in res3_tokens
    agg_rows = []
    for scheme in schemes:
        if scheme.token not in means:
            continue
        stats = means[scheme.token]
        agg_rows.append(
            [
                scheme.token,
                rank_upper_bound(scheme, cfg["width"]),
                stats["params"],
                stats["mpsnr"],
                stats["mssim"],
                stats["sam"],
                stats["tail_mass"],
                res3_best,
            ]
        )
    agg_header = ["scheme", "rank_upper_bound", "params", "mean_mpsnr", "mean_mssim",
                  "mean_sam", "mean_tail_mass", "res3_best_mpsnr"]
    write_csv(run_dir / "aggregate.csv", agg_header, agg_rows)
    print(f"compare: {len(rows)} result rows, {len(agg_rows)} aggregate rows -> {run_dir}")
    failed = any(row[-1] != "ok" for row in rows)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


SPECTRUM_SCHEMA = {
    **_COMMON,
    "input": Option(str, "", "path to a rank-4 portable tensor file"),
    "head": Option(int, 8, "head index for the tail-mass summary", low=0),
}


def cmd_spectrum(cfg: dict) -> int:
    if not cfg["input"]:
        raise ConfigError("spectrum requires input=<tensor file>")
    array = read_tensor(cfg["input"])
    if array.ndim != 4:
        raise ConfigError(f"expected a rank-4 tensor, got rank {array.ndim}")
    spectrum = feature_spectrum(FeatureMap(array))
    tm = tail_mass(spectrum, cfg["head"])
    run_dir = make_run_dir("spectrum", cfg)
    write_csv(run_dir / "spectrum.csv", ["index", "normalized_value"], _spectrum_rows(spectrum))
    print(f"spectrum: {spectrum.values.size} values, tail_mass(head={cfg['head']})={tm:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_SUBCOMMANDS = {
    "rank-audit": (RANK_AUDIT_SCHEMA, cmd_rank_audit),
    "grad-check": (GRAD_CHECK_SCHEMA, cmd_grad_check),
    "bench": (BENCH_SCHEMA, cmd_bench),
    "train": (TRAIN_SCHEMA, cmd_train),
    "compare": (COMPARE_SCHEMA, cmd_compare),
    "spectrum": (SPECTRUM_SCHEMA, cmd_spectrum),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="resset",
        description="Factorized spatial-spectral convolution experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (schema, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"{name} experiment", epilog=_schema_help(schema),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", type=str, default=None, help="key=value configuration file")
        p.add_argument("overrides", nargs="*", help="key=value overrides")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    schema, runner = _SUBCOMMANDS[args.command]
    try:
        file_pairs = read_config_file(args.config) if args.config else {}
        cfg = resolve_config(schema, file_pairs, args.overrides)
        return runner(cfg)
    except (NumericError, NonFiniteLoss) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RessetError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
