"""Run one workload of the resset benchmark, or all of them.

    python3 perfbench/run.py --workload denoise_res3_1d_reg --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; resset is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Traced runs also
write their spans to ``.perfbench/``. See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("denoise_res3_1d_reg", "denoise_conv3d_plain", "rank_audit_m8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    ok = True
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print("all workloads correct" if ok else "some workload failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resset" / "__init__.py").is_file():
        print(f"error: no resset sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import harness

    if args.setup_probe:
        harness.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = harness.run(SCRIPT, args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
