"""Tests of the benchmark harness itself (not of resset).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
from resset import cli, rank, schemes  # noqa: E402


def tiny_training(seed=0, **overrides):
    """A training workload config shrunk to run in well under a second."""
    cfg = harness.training_config("denoise_res3_1d_reg", seed)
    cfg.update(bands=4, height=12, width_px=12, width=2, epochs=3, **overrides)
    scheme = schemes.parse_scheme_token(cfg["scheme"])
    tcfg = cli.train_config_from(cfg, scheme, seed, cfg["lam"])
    return cfg, scheme, tcfg, cli.build_training_data(cfg)


def resset_bindings():
    """Every function or class attribute reachable from the resset modules."""
    out = {}
    for owner in tracing._resset_modules():
        for key, value in vars(owner).items():
            out[(owner.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("resset"):
                for attr, member in vars(value).items():
                    out[(owner.__name__, key, attr)] = member
    return out


def traced_tiny_run():
    cfg, scheme, tcfg, data = tiny_training()
    tracer = tracing.Tracer()
    clock = harness.EpochClock()
    with tracing.wrapped(["train.adam_step"], clock.wrapper), tracer.installed():
        cli.build_training_data(cfg)
        harness.timed_call(tcfg, data, clock)
        with tracer.span(tracing.SWEEP):
            rank.audit_kernel_rank(schemes.zero_kernel_set(scheme, 2, 2), seeds=2)
    return cfg, scheme, tracer


def test_wrappers_are_restored_after_a_traced_run():
    before = resset_bindings()
    traced_tiny_run()
    after = resset_bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def test_wrappers_are_restored_after_an_exception():
    before = resset_bindings()
    with pytest.raises(KeyError):
        with tracing.Tracer().installed():
            raise KeyError("boom")
    after = resset_bindings()
    assert [k for k in before if before[k] is not after[k]] == []


def test_traced_functions_are_patched_where_callers_look_them_up():
    import resset.autodiff
    import resset.tensor
    import resset.train

    originals = (resset.train.adam_step, resset.autodiff.branch_conv, resset.rank.numeric_rank)
    with tracing.Tracer().installed():
        assert resset.train.adam_step is not originals[0]
        assert resset.autodiff.branch_conv is not originals[1]
        assert resset.rank.numeric_rank is not originals[2]
        assert resset.tensor.numeric_rank is resset.rank.numeric_rank
    restored = (resset.train.adam_step, resset.autodiff.branch_conv, resset.rank.numeric_rank)
    assert all(a is b for a, b in zip(restored, originals))


def span(name, start, end, parent=None, counts=None):
    return tracing.Span(name, start, end, parent, 0, counts)


def test_self_time_subtracts_child_coverage():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.child", 2.0, 3.0, parent=1),
        span("b", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_aggregate_normalizes_by_phase_spans():
    spans = [
        span("train.train_denoiser", 0.0, 1.0),
        span(tracing.EPOCH, 0.0, 0.4, 0),
        span("autodiff.add", 0.1, 0.2, 1),
        span(tracing.EPOCH, 0.4, 0.8, 0),
        span("autodiff.add", 0.5, 0.7, 3),
    ]
    metrics = tracing.layer_metrics(spans, tracing.EPOCH, 0.0)
    assert metrics["autodiff.add.fwd_ms"] == pytest.approx(150.0)
    assert metrics["train.epoch.ms"] == pytest.approx(400.0)
    assert metrics["train.epoch.self_ms"] == pytest.approx(250.0)
    assert metrics["autodiff.diversity_penalty.calls"] == 0.0


def test_traced_run_gives_every_layer_metric_and_consistent_macs():
    cfg, scheme, tracer = traced_tiny_run()
    assert all(s.end is not None for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, tracing.EPOCH, 0.0)
    assert metrics.keys() == tracing.LAYER_UNITS.keys()
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["autodiff.diversity_penalty.calls"] == 1.0
    assert metrics["autodiff.branch_conv.e311.calls"] == cfg["num_blocks"]
    assert metrics["autodiff.branch_conv.e333.calls"] == 0.0
    assert metrics["cli.build_training_data.ms"] > 0.0
    assert metrics["rank.feature_spectrum.ms"] > 0.0
    grid = cfg["bands"] * cfg["height"] * cfg["width_px"]
    want = schemes.mac_count(scheme, cfg["width"], cfg["width"], grid)
    sums = tracing.block_mac_sums(tracer.spans, len(schemes.branch_extents(scheme)))
    assert sums and all(s == want for s in sums)
    sweep = tracing.layer_metrics(tracer.spans, tracing.SWEEP, 0.0)
    assert sweep["tensor.numeric_rank.calls"] == 2.0
    top, calls = tracing.top_autodiff_op(tracer.spans, tracing.SWEEP)
    assert (top, calls) == (None, 0)


def test_workload_inputs_are_a_pure_function_of_the_seed():
    for workload in harness.TRAINING:
        assert harness.training_config(workload, 3) == harness.training_config(workload, 3)
    _, _, _, a = tiny_training(seed=3)
    _, _, _, b = tiny_training(seed=3)
    _, _, _, c = tiny_training(seed=4)
    arrays = lambda d: [m.data for pair in (*d.pairs, d.holdout) for m in pair]  # noqa: E731
    assert all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b)))
    assert not any(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(c)))
    seeds = {harness.audit_rng_seed(s, j) for s in range(3) for j in range(100)}
    assert len(seeds) == 300
    assert harness.audit_rng_seed(2, 7) == harness.audit_rng_seed(2, 7)


def test_checker_flags_a_non_finite_loss():
    assert harness.training_problems([((0.2, 0.1), (0.0, 0.0))]) == []
    problems = harness.training_problems([((0.2, float("nan")), (0.0, 0.0))])
    assert any("non-finite" in p for p in problems)


def test_checker_counts_a_training_call_that_blows_up():
    _, _, tcfg, data = tiny_training(learning_rate=1e300)
    clock = harness.EpochClock()
    with tracing.wrapped(["train.adam_step"], clock.wrapper):
        call = harness.timed_call(tcfg, data, clock)
    out = harness.Outcome()
    harness.account_calls(out, [call], tcfg.epochs)
    assert out.attempted == tcfg.epochs
    assert out.failed >= 1 and out.problems


def test_checker_flags_loss_trajectories_that_differ():
    problems = harness.training_problems([((0.2, 0.1), (0.0, 0.0)), ((0.2, 0.1000001), (0.0, 0.0))])
    assert any("differs" in p for p in problems)


def test_checker_fails_a_sabotaged_audited_rank(monkeypatch):
    assert harness.audit_misses("res3_1d", (24, 24)) == 0
    assert harness.audit_misses("res3_1d", (24, 23, 25)) == 2
    real = rank.numeric_rank
    monkeypatch.setattr(rank, "numeric_rank", lambda m, rel_tol: real(m, rel_tol=rel_tol) - 1)
    out = harness.run_audit(seed=0, seconds=0.01, trace=False)
    assert out.attempted > 0 and out.failed == out.attempted
    assert out.problems


def test_benchmark_json_names_the_metrics_the_harness_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank_audit_m8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
