"""End-to-end command tests: configs, CSV/JSON outputs, and exit codes."""

import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resset import (
    ConfigError,
    Network,
    NoiseSpec,
    TrainConfig,
    cli,
    parse_scheme_token,
    read_tensor,
    synth_cube,
    write_tensor,
)
from resset.cli import main
from resset.options import options


def run_cli(tmp_path, *args):
    return main([*args, f"out_dir={tmp_path}"])


def only_run_dir(tmp_path, command) -> Path:
    dirs = [p for p in Path(tmp_path).iterdir() if p.name.startswith(command)]
    assert len(dirs) == 1
    return dirs[0]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRankAuditCommand:
    def test_bounds_column(self, tmp_path):
        code = run_cli(
            tmp_path, "rank-audit", "schemes=conv3d,res3_1d,par1d2d", "m=4", "c=4", "seeds=10"
        )
        assert code == 0
        rows = read_rows(only_run_dir(tmp_path, "rank-audit") / "audit.csv")
        assert len(rows) == 30
        bounds = {row["scheme"]: row["predicted_bound"] for row in rows}
        assert bounds == {"conv3d": "4", "res3_1d": "12", "par1d2d": "8"}
        assert all(row["achieved"] == "true" for row in rows)

    def test_empty_scheme_list_is_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "rank-audit", "schemes=") == 2

    def test_zero_seeds_leaves_no_run_directory(self, tmp_path):
        assert run_cli(tmp_path, "rank-audit", "seeds=0") == 2
        assert not list(Path(tmp_path).iterdir())

    def test_chains_reach_rank_m(self, tmp_path):
        code = run_cli(tmp_path, "rank-audit", "schemes=seq1d,seq1d2d", "m=4", "c=4", "seeds=5")
        assert code == 0
        rows = read_rows(only_run_dir(tmp_path, "rank-audit") / "audit.csv")
        assert len(rows) == 10
        assert all(row["predicted_bound"] == "4" and row["valid_columns"] == "108" for row in rows)
        assert all(row["measured_rank"] == "4" and row["achieved"] == "true" for row in rows)

    def test_zero_weight_injection(self, tmp_path):
        code = run_cli(tmp_path, "rank-audit", "schemes=conv3d,res3_1d", "seeds=3",
                       "zero_weights=true")
        assert code == 0
        rows = read_rows(only_run_dir(tmp_path, "rank-audit") / "audit.csv")
        assert all(row["measured_rank"] == "0" for row in rows)
        assert all(row["achieved"] == "false" for row in rows)

    @pytest.mark.parametrize("schemes", ["conv3d,conv3d", "res3_1d,res3_1d_l1", "res3_1d,conv3d,RES3_1D"])
    def test_one_scheme_named_twice_is_usage_error(self, tmp_path, capsys, monkeypatch, schemes):
        """Two tokens for one scheme would audit it twice and write both row
        sets under its one token; rank-audit refuses them before any audit or
        run directory."""
        def no_audit(*_args, **_kwargs):
            raise AssertionError("audit run for a duplicated scheme list")

        monkeypatch.setattr(cli, "audit_kernel_rank", no_audit)
        assert run_cli(tmp_path, "rank-audit", f"schemes={schemes}", "seeds=2") == 2
        assert "more than once" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    def test_unknown_key_rejected(self, tmp_path):
        assert run_cli(tmp_path, "rank-audit", "bogus_key=1") == 2

    def test_malformed_value_rejected(self, tmp_path):
        assert run_cli(tmp_path, "rank-audit", "m=four") == 2
        assert run_cli(tmp_path, "rank-audit", "zero_weights=maybe") == 2

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("# audit config\nschemes = conv3d\nseeds = 2\n")
        code = main(["rank-audit", "--config", str(cfg), f"out_dir={tmp_path}", "seeds=3"])
        assert code == 0
        rows = read_rows(only_run_dir(tmp_path, "rank-audit") / "audit.csv")
        assert len(rows) == 3  # override wins

    def test_config_echoed(self, tmp_path):
        run_cli(tmp_path, "rank-audit", "schemes=conv3d", "seeds=2")
        echoed = (only_run_dir(tmp_path, "rank-audit") / "config.txt").read_text()
        assert "command=rank-audit" in echoed
        assert "seeds=2" in echoed


class TestGradCheckCommand:
    def test_passes_by_default(self, tmp_path):
        code = run_cli(tmp_path, "grad-check", "matrices=5", "samples=8")
        assert code == 0
        report = json.loads((only_run_dir(tmp_path, "grad-check") / "report.json").read_text())
        assert report["passed"] is True
        assert report["max_rel_error"] <= 1e-4

    def test_sabotage_detected(self, tmp_path):
        assert run_cli(tmp_path, "grad-check", "matrices=2", "samples=4", "sabotage=true") == 1

    def test_seed_override_keeps_passing(self, tmp_path):
        assert run_cli(tmp_path, "grad-check", "matrices=3", "samples=5", "seed=7") == 0

    def test_negative_tolerance_leaves_no_run_directory(self, tmp_path, capsys):
        """No error can be below a negative tolerance, so it is refused before
        any check runs instead of failing the check."""
        assert run_cli(tmp_path, "grad-check", "matrices=1", "samples=1", "tol=-1") == 2
        assert "usage error: tol must be >= 0" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())


class TestBenchCommand:
    def test_param_ratios(self, tmp_path):
        code = run_cli(tmp_path, "bench", "schemes=conv3d,res3_1d,res3_1dx3", "m=8", "c=8")
        assert code == 0
        rows = {r["scheme"]: r for r in read_rows(only_run_dir(tmp_path, "bench") / "bench.csv")}
        assert int(rows["conv3d"]["params"]) == 3 * int(rows["res3_1d"]["params"])
        assert rows["res3_1dx3"]["params"] == rows["conv3d"]["params"]

    def test_conv3d_mac_closed_form(self, tmp_path):
        run_cli(tmp_path, "bench", "schemes=conv3d", "m=8", "c=8",
                "bands=8", "height=16", "width_px=16")
        rows = read_rows(only_run_dir(tmp_path, "bench") / "bench.csv")
        assert int(rows[0]["macs"]) == 27 * 8 * 8 * 8 * 16 * 16  # 3,538,944

    @pytest.mark.parametrize("schemes", ["conv3d,conv3d", "res3_1d,res3_1d_l1", "res3_1d,conv3d,RES3_1D"])
    def test_one_scheme_named_twice_is_usage_error(self, tmp_path, capsys, schemes):
        """Two tokens for one scheme would write two identical rows under its
        one token; bench refuses them before any run directory."""
        assert run_cli(tmp_path, "bench", f"schemes={schemes}") == 2
        assert "more than once" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    @pytest.mark.parametrize("bad", ["schemes=bogus", "schemes=", "k=0", "k=4", "k=-1"])
    def test_bad_scheme_or_extent_leaves_no_run_directory(self, tmp_path, bad):
        assert run_cli(tmp_path, "bench", bad) == 2
        assert not list(Path(tmp_path).iterdir())


class TestTrainCommand:
    SMALL = ["bands=8", "height=12", "width_px=12", "epochs=2", "width=4", "num_blocks=1"]

    def test_writes_report_and_spectrum(self, tmp_path):
        code = run_cli(tmp_path, "train", *self.SMALL)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "train")
        report = json.loads((run_dir / "report.json").read_text())
        assert report["scheme"] == "res3_1d"
        assert len(report["data_terms"]) == 2
        assert (run_dir / "spectrum.csv").exists()
        assert (run_dir / "checkpoint" / "manifest.txt").exists()
        assert (run_dir / "timing.txt").exists()

    @pytest.mark.parametrize("scheme", ["res3_1d", "conv3d"])
    def test_feature_tensor_feeds_spectrum_command(self, tmp_path, scheme):
        """``spectrum`` on the feature.rst that ``train`` wrote writes the
        spectrum.csv that ``train`` wrote, byte for byte: train reads the
        float32 feature in its workspace (for conv3d a view cropped from the
        branch's padded grid), spectrum its contiguous float64 copy, in the
        same column blocks (1152 columns, three blocks)."""
        assert run_cli(tmp_path, "train", *self.SMALL, f"scheme={scheme}") == 0
        run_dir = only_run_dir(tmp_path, "train")
        feature = run_dir / "feature.rst"
        assert read_tensor(feature).shape[1:] == (8, 12, 12)
        assert run_cli(tmp_path, "spectrum", f"input={feature}", "head=4") == 0
        written = (only_run_dir(tmp_path, "spectrum") / "spectrum.csv").read_bytes()
        assert written == (run_dir / "spectrum.csv").read_bytes()

    def test_epochs_zero(self, tmp_path):
        code = run_cli(tmp_path, "train", *self.SMALL, "epochs=0")
        assert code == 0
        report = json.loads((only_run_dir(tmp_path, "train") / "report.json").read_text())
        assert report["data_terms"] == []
        assert np.isfinite(report["metrics"]["mpsnr"])

    def test_paper_defaults_accepted(self, tmp_path):
        code = run_cli(tmp_path, "train", *self.SMALL, "lam=5e-5", "beta1=0.9", "beta2=0.999")
        assert code == 0

    def test_cubes_synthesized_once(self, tmp_path, monkeypatch):
        """One training pair plus the holdout: two cubes, and the holdout
        that feature.rst is computed on is the one the report scored."""
        calls = []

        def counting_synth(*args):
            calls.append(args)
            return synth_cube(*args)

        monkeypatch.setattr(cli, "synth_cube", counting_synth)
        assert run_cli(tmp_path, "train", *self.SMALL) == 0
        assert len(calls) == 2

    def test_holdout_forward_runs_once(self, tmp_path, monkeypatch):
        """Two training steps and one holdout evaluation, whose feature volume
        is the one feature.rst holds: three taped forward passes."""
        calls = []
        original = Network.forward_tape

        def counting_forward(net, *args, **kwargs):
            calls.append(args[0].shape)
            return original(net, *args, **kwargs)

        monkeypatch.setattr(Network, "forward_tape", counting_forward)
        assert run_cli(tmp_path, "train", *self.SMALL) == 0
        assert len(calls) == 3

    def test_byte_identical_reruns(self, tmp_path):
        run_cli(tmp_path, "train", *self.SMALL)
        run_dir = only_run_dir(tmp_path, "train")
        first = {p.name: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        run_cli(tmp_path, "train", *self.SMALL)
        for name, blob in first.items():
            if name == "timing.txt":  # wall clock is the one non-deterministic output
                continue
            path = next(p for p in run_dir.rglob(name))
            assert path.read_bytes() == blob, name

    def test_non_finite_loss_exits_3(self, tmp_path):
        code = run_cli(tmp_path, "train", *self.SMALL, "learning_rate=1e100", "lam=0")
        assert code == 3
        report = json.loads((only_run_dir(tmp_path, "train") / "report.json").read_text())
        assert report["error"] == "non_finite_loss"
        assert isinstance(report["epoch"], int)

    def test_non_finite_metrics_exit_3(self, tmp_path, capsys):
        """Noise of level 1e308 does not fit the float32 training tape (and
        would overflow the holdout's squared error): the run is a numeric
        failure, not a report of mpsnr=-inf and mssim=nan."""
        code = run_cli(tmp_path, "train", "epochs=1", "width=2", "height=11", "width_px=11",
                       "bands=3", "sigma=1e308")
        assert code == 3
        err = capsys.readouterr().err
        assert "training data is not finite in float32" in err
        report = json.loads((only_run_dir(tmp_path, "train") / "report.json").read_text())
        assert report["error"] == "numeric"
        assert "training data is not finite in float32" in report["message"]
        assert report["message"] in err

    def test_overflowing_noise_exits_3_before_epoch_1(self, tmp_path, monkeypatch):
        """Data that overflows the training dtype is refused before any
        network is built or any forward pass runs."""
        def no_network(*_args, **_kwargs):
            raise AssertionError("training started on data that overflows float32")

        monkeypatch.setattr("resset.train.Network", no_network)
        code = run_cli(tmp_path, "train", "epochs=5", "width=2", "height=11", "width_px=11",
                       "bands=3", "sigma=1e308")
        assert code == 3

    def test_non_finite_penalized_loss_writes_report(self, tmp_path, capsys):
        """A learning rate of 1e300 takes the float64 weights past float32's
        range in the first step. The run stops as that step returns and
        names the parameter, in its report and its stdout line, before a
        forward pass casts it to infinity: no RuntimeWarning is raised."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(tmp_path, "train", *self.SMALL, "epochs=3", "learning_rate=1e300")
        assert code == 3
        report = json.loads((only_run_dir(tmp_path, "train") / "report.json").read_text())
        message = ("parameter lift is not finite in float32 after the step of epoch 0: "
                   "largest magnitude 1.000e+300")
        assert report == {"error": "non_finite_loss", "epoch": 0, "message": message}
        assert capsys.readouterr().out == f"train: {message}\n"


class TestCompareCommand:
    def test_row_accounting_and_schema(self, tmp_path):
        code = run_cli(
            tmp_path,
            "compare",
            "schemes=conv3d,seq1d,seq1d2d,par1d2d,res3_1d",
            "seeds=3",
            "bands=8",
            "height=12",
            "width_px=12",
            "epochs=1",
            "width=4",
            "num_blocks=1",
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "compare")
        rows = read_rows(run_dir / "results.csv")
        assert len(rows) == 15  # five manners times three seeds
        agg = read_rows(run_dir / "aggregate.csv")
        assert len(agg) == 5
        assert all("res3_best_mpsnr" in row for row in agg)
        bounds = [int(row["rank_upper_bound"]) for row in agg]
        assert bounds == sorted(bounds)
        assert bounds == [4, 4, 4, 8, 12]  # M, M, M, 2M, 3M at M=4

    def test_needs_two_schemes(self, tmp_path):
        assert run_cli(tmp_path, "compare", "schemes=conv3d") == 2

    @pytest.mark.parametrize("schemes", ["conv3d,conv3d", "res3_1d,res3_1d_l1", "res3_1d,conv3d,RES3_1D"])
    def test_one_scheme_named_twice_is_usage_error(self, tmp_path, capsys, monkeypatch, schemes):
        """Two tokens for one scheme would train it twice and average both
        copies; compare refuses them before any data or run directory."""
        def no_data(*_args, **_kwargs):
            raise AssertionError("data synthesized for a duplicated scheme list")

        monkeypatch.setattr(cli, "build_training_data", no_data)
        assert run_cli(tmp_path, "compare", f"schemes={schemes}", "seeds=1") == 2
        assert "more than once" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    def test_seed_is_unknown_key(self, tmp_path, capsys):
        """Each cell trains seeds 0..seeds-1, so compare has no seed key."""
        assert run_cli(tmp_path, "compare", "schemes=conv3d,res3_1d", "seeds=1", "seed=3") == 2
        assert "unknown config keys: seed" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    def test_non_finite_metrics_fail_the_cell(self, tmp_path):
        code = run_cli(tmp_path, "compare", "schemes=conv3d,res3_1d", "seeds=1", "epochs=1",
                       "width=2", "height=11", "width_px=11", "bands=3", "sigma=1e308")
        assert code == 1
        rows = read_rows(only_run_dir(tmp_path, "compare") / "results.csv")
        assert [row["status"] for row in rows] == ["failed:NumericError"] * 2
        assert [row["mpsnr"] for row in rows] == ["", ""]

    def test_rerun_reproduces_results_bytes(self, tmp_path):
        args = ["compare", "schemes=conv3d,res3_1d", "seeds=2", "bands=8", "height=12",
                "width_px=12", "epochs=1", "width=4", "num_blocks=1"]
        assert run_cli(tmp_path, *args) == 0
        run_dir = only_run_dir(tmp_path, "compare")
        first = (run_dir / "results.csv").read_bytes()
        assert run_cli(tmp_path, *args) == 0
        assert (run_dir / "results.csv").read_bytes() == first


class TestSpectrumCommand:
    def test_spectrum_csv(self, tmp_path):
        cube = synth_cube(0, 4, 8, 8)
        tensor_path = tmp_path / "feat.rst"
        write_tensor(tensor_path, np.stack([cube.data, 2 * cube.data]))
        code = run_cli(tmp_path, "spectrum", f"input={tensor_path}", "head=1")
        assert code == 0
        rows = read_rows(only_run_dir(tmp_path, "spectrum") / "spectrum.csv")
        assert rows[0]["normalized_value"] == "1.0"
        assert len(rows) == 2

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "spectrum") == 2

    def test_nan_tensor_is_numeric_failure(self, tmp_path):
        tensor_path = tmp_path / "nan.rst"
        write_tensor(tensor_path, np.full((2, 2, 3, 3), np.nan))
        assert run_cli(tmp_path, "spectrum", f"input={tensor_path}") == 3

    def test_truncated_tensor_is_usage_error(self, tmp_path):
        tensor_path = tmp_path / "short.rst"
        tensor_path.write_bytes(b"RST1" + (4).to_bytes(4, "little") + b"\x02\x00")
        assert run_cli(tmp_path, "spectrum", f"input={tensor_path}") == 2

    def test_negative_head_leaves_no_run_directory(self, tmp_path):
        tensor_path = tmp_path / "feature.rst"
        write_tensor(tensor_path, np.random.default_rng(0).standard_normal((2, 2, 3, 3)))
        assert run_cli(tmp_path, "spectrum", f"input={tensor_path}", "head=-1") == 2
        assert not list(Path(tmp_path).glob("spectrum-*"))

    def test_empty_extent_is_usage_error(self, tmp_path):
        tensor_path = tmp_path / "empty.rst"
        write_tensor(tensor_path, np.zeros((2, 0, 3, 3)))
        assert run_cli(tmp_path, "spectrum", f"input={tensor_path}") == 2


class TestExitCodes:
    SMALL = ["bands=8", "width_px=12", "epochs=1", "width=4", "num_blocks=1"]
    # keeps a wrongly accepted value from running a full-size command
    QUICK = {"train": [*SMALL, "height=12"], "compare": [*SMALL, "height=12", "seeds=1"],
             "grad-check": ["matrices=1", "samples=1"]}

    def test_grid_below_similarity_window_is_usage_error(self, tmp_path, monkeypatch):
        def no_training(*_args, **_kwargs):
            raise AssertionError("training started on a grid the metrics cannot score")

        monkeypatch.setattr(cli, "train_denoiser", no_training)
        assert run_cli(tmp_path, "train", *self.SMALL, "height=8") == 2
        assert run_cli(tmp_path, "compare", *self.SMALL, "height=12", "width_px=10",
                       "schemes=conv3d,res3_1d", "seeds=1") == 2
        assert not list(Path(tmp_path).rglob("report.json"))
        assert not list(Path(tmp_path).rglob("results.csv"))

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_window_past_the_grid_is_usage_error(self, tmp_path, monkeypatch, command):
        """k=41 on a 4-band cube: most band taps would read only padding."""
        def no_training(*_args, **_kwargs):
            raise AssertionError("training started with a degenerate kernel window")

        monkeypatch.setattr(cli, "train_denoiser", no_training)
        extra = ["schemes=conv3d,res3_1d", "seeds=1"] if command == "compare" else []
        assert run_cli(tmp_path, command, "k=41", "bands=4", "height=12", "width_px=12",
                       "epochs=1", *extra) == 2
        assert not list(Path(tmp_path).iterdir())

    def test_non_finite_evaluation_is_numeric_failure(self, tmp_path):
        code = run_cli(tmp_path, "train", *self.SMALL, "height=12", "learning_rate=1e300",
                       "lam=0")
        assert code == 3

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("train", "noise_kind=foo"),
            ("train", "width=0"),
            ("train", "bands=0"),
            ("grad-check", "width=0"),
            ("grad-check", "matrices=0"),
            ("grad-check", "samples=0"),
            ("grad-check", "max_rows=1"),
            ("grad-check", "max_cols=1"),
            ("grad-check", "num_blocks=0"),
            ("bench", "m=-1"),
            ("bench", "c=0"),
            ("bench", "bands=0"),
            ("bench", "height=0"),
            ("bench", "width_px=0"),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, command, bad):
        assert run_cli(tmp_path, command, *self.QUICK.get(command, []), bad) == 2
        assert "usage error" in capsys.readouterr().err
        outputs = [p for p in Path(tmp_path).rglob("*") if p.is_file() and p.name != "config.txt"]
        assert not outputs

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("train", "lam=nan"),
            ("train", "sigma=nan"),
            ("train", "learning_rate=inf"),
            ("train", "sigma=1e400"),
            ("rank-audit", "tol=-inf"),
        ],
    )
    def test_non_finite_float_is_usage_error(self, tmp_path, command, bad):
        assert run_cli(tmp_path, command, *self.QUICK.get(command, []), bad) == 2
        assert not list(Path(tmp_path).iterdir())  # rejected before any run directory

    @pytest.mark.parametrize(
        "command, bad",
        [
            pytest.param("train", ["seed=-1"], id="train-seed"),
            pytest.param("train", ["data_seed=-1"], id="train-data_seed"),
            pytest.param("train", ["noise_seed=-5"], id="train-noise_seed"),
            pytest.param("grad-check", ["seed=-1"], id="grad_check-seed"),
            pytest.param("rank-audit", ["seed=-1"], id="rank_audit-seed"),
            pytest.param("train", ["train_pairs=-1"], id="train-train_pairs"),
            pytest.param("compare", ["train_pairs=-1", "schemes=conv3d,res3_1d"],
                         id="compare-train_pairs"),
        ],
    )
    def test_below_schema_bound_is_usage_error(self, tmp_path, capsys, command, bad):
        """Negative seeds and pair counts are refused by the schema's lower
        bound, before any data, run directory or traceback."""
        assert run_cli(tmp_path, command, *self.QUICK.get(command, []), *bad) == 2
        key = bad[0].split("=")[0]
        assert f"usage error: {key} must be >= " in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_negative_stripe_magnitude_is_usage_error(self, tmp_path, capsys, command):
        extra = ["schemes=conv3d,res3_1d"] if command == "compare" else []
        assert run_cli(tmp_path, command, *self.QUICK[command], *extra, "noise_kind=stripe",
                       "magnitude=-1") == 2
        assert "magnitude must be" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("noise_kind", ["stripe", "mixture"])
    def test_stripe_magnitude_above_unit_range_is_usage_error(self, tmp_path, capsys, command,
                                                              noise_kind):
        """A bound of 1e308 used to overflow the stripe offset draw."""
        extra = ["schemes=conv3d,res3_1d"] if command == "compare" else []
        assert run_cli(tmp_path, command, *self.QUICK[command], *extra, f"noise_kind={noise_kind}",
                       "magnitude=1e308") == 2
        assert "magnitude must be in [0, 1], got 1e+308" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    def test_sigma_min_above_sigma_max_is_usage_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, "train", *self.QUICK["train"], "noise_kind=non_iid",
                       "sigma_min=80") == 2
        assert "sigma_min must be <= sigma_max" in capsys.readouterr().err
        assert not list(Path(tmp_path).iterdir())

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "audit.cfg"
        cfg.write_bytes(b"schemes=conv3d\nseeds=\xff\xfe2\n")
        out_dir = tmp_path / "runs"
        assert main(["rank-audit", "--config", str(cfg), f"out_dir={out_dir}"]) == 2
        assert "not UTF-8" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "bad", ["lam=-1", "learning_rate=0", "num_blocks=0", "width=0", "noise_kind=foo"]
    )
    def test_compare_training_settings_are_usage_errors(self, tmp_path, monkeypatch, bad):
        def no_training(*_args, **_kwargs):
            raise AssertionError("training started on settings every cell rejects")

        monkeypatch.setattr(cli, "train_denoiser", no_training)
        assert run_cli(tmp_path, "compare", *self.SMALL, "height=12",
                       "schemes=conv3d,res3_1d", "seeds=1", bad) == 2
        assert not list(Path(tmp_path).iterdir())


def values_outside(option):
    """The first values past each end of ``option``'s range: an open end
    itself, else the next integer or float beyond it."""
    def beyond(bound, direction):
        return bound + direction if option.type is int else math.nextafter(bound, direction * math.inf)

    out = []
    if option.low is not None:
        out.append(option.low if option.open_low else beyond(option.low, -1))
    if option.high is not None:
        out.append(option.high if option.open_high else beyond(option.high, 1))
    return [option.type(value) for value in out]


RES3_1D = parse_scheme_token("res3_1d")
LIBRARY_SETTINGS = {TrainConfig: {"scheme": RES3_1D}, NoiseSpec: {}}


@pytest.mark.parametrize(
    "cls, key, value",
    [pytest.param(cls, key, value, id=f"{key}={value!r}")
     for cls in LIBRARY_SETTINGS for key, option in options(cls).items()
     for value in values_outside(option)]
    + [pytest.param(NoiseSpec, "fraction", 1.0000001, id="fraction=1.0000001"),
       pytest.param(TrainConfig, "lam", -1e-300, id="lam=-1e-300")],
)
def test_setting_outside_its_range_is_rejected_by_cli_and_library(tmp_path, capsys, cls, key,
                                                                  value):
    """Each training and noise setting's one declared range is what the CLI,
    its --help and the library type all use, with the same message."""
    assert cli.TRAIN_SCHEMA[key] is options(cls)[key]
    assert run_cli(tmp_path, "train", *TestExitCodes.QUICK["train"], f"{key}={value!r}") == 2
    assert f"usage error: {key} must be " in capsys.readouterr().err
    assert not list(Path(tmp_path).iterdir())
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        cls(**LIBRARY_SETTINGS[cls], **{key: value})


# Boundary values per rank-audit key. k stays small: the joint matrix holds
# rows x k^3*C floats.
RANK_AUDIT_VALUES = {
    "m": ["-1", "0", "1", "2", "3", "", "x", "1.5", "nan"],
    "c": ["-1", "0", "1", "3", "", "x", "1e3"],
    "k": ["-1", "0", "1", "2", "3", "5", "7"],
    "seeds": ["-1", "0", "1", "2", "", "x"],
    "seed": ["-1", "0", "1", str(2**64), str(10**30), "", "x"],
    "tol": ["-1", "0", "1e-300", "1e-6", "0.5", "1", "2", "nan", "inf", "-inf", "", "x"],
    "schemes": ["", ",", "conv3d", "bogus", "CONV3D,par1d2d", "res3_1d,res3_1d_l1",
                "conv3d,seq1d,seq1d2d", "res3_1dx3,res3_2d,res3_1d_l2"],
    "zero_weights": ["true", "false", "1", "0", "", "maybe"],
}


def is_negative(value: str) -> bool:
    try:
        return float(value) < 0
    except ValueError:
        return False


def non_finite_outputs(out_dir) -> list[str]:
    """Every NaN or infinity written into a .json or .csv file under ``out_dir``."""
    found = []
    for path in Path(out_dir).rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=found.append)
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                found += [cell for row in csv.reader(fh) for cell in row
                          if cell.lower() in ("nan", "inf", "-inf")]
    return found


def check_exit_code_contract(command, values, key, data, base=()):
    """Every boundary value of ``key``, over ``base`` and up to two other
    boundary values, exits 0, 1, 2 or 3 without a traceback, a usage error
    leaves no run directory, and a success writes only finite numbers. No
    key of these commands takes a negative number, so one in the resolved
    settings is a usage error."""
    pairs = [f"{k}={v}" for k, vs in values.items() for v in vs]
    others = data.draw(st.lists(st.sampled_from(pairs), max_size=2))
    probe = data.draw(st.sampled_from(values[key]))
    overrides = [*base, *others, f"{key}={probe}"]
    resolved = dict(pair.split("=", 1) for pair in overrides)  # the last one of a key wins
    with tempfile.TemporaryDirectory() as out_dir:
        code = main([command, *overrides, f"out_dir={out_dir}"])
        assert code in (0, 1, 2, 3)
        if any(is_negative(value) for value in resolved.values()):
            assert code == 2, f"{overrides} exited {code}"
        if code == 2:
            assert not list(Path(out_dir).iterdir())
        if code == 0:
            assert not non_finite_outputs(out_dir), f"{overrides} wrote non-finite numbers"


@pytest.mark.parametrize("key", sorted(RANK_AUDIT_VALUES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rank_audit_exit_code_contract(key, data):
    check_exit_code_contract("rank-audit", RANK_AUDIT_VALUES, key, data)


# Boundary values per bench key. Every count is arithmetic on Python
# integers, so huge values are cheap here.
BENCH_VALUES = {
    "m": ["-1", "0", "1", "2", str(2**64), "", "x", "1.5", "nan"],
    "c": ["-1", "0", "1", "3", str(10**30), "", "x", "1e3"],
    "k": ["-1", "0", "1", "2", "3", "4", "5", "7", str(2**64 + 1), "", "x"],
    "bands": ["-1", "0", "1", "2", str(2**64), "", "x"],
    "height": ["-1", "0", "1", str(10**30), "", "nan"],
    "width_px": ["-1", "0", "1", str(10**30), "", "1.0"],
    "schemes": ["", ",", "conv3d", "bogus", "CONV3D,par1d2d", "res3_1d,res3_1d_l1",
                "conv3d,seq1d,seq1d2d", "res3_1dx3,res3_2d,res3_1d_l2"],
}


@pytest.mark.parametrize("key", sorted(BENCH_VALUES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bench_exit_code_contract(key, data):
    check_exit_code_contract("bench", BENCH_VALUES, key, data)


# Boundary values per grad-check key, over a tiny base configuration.
# matrices, max_rows, max_cols, samples, width and num_blocks scale the work
# (finite differences per matrix entry and per sample), so they come only
# from small values; seed and tol are cheap at any size.
GRAD_CHECK_VALUES = {
    "seed": ["-1", "0", "1", str(2**64), str(10**30), "", "x"],
    "matrices": ["-1", "0", "1", "2", "", "x", "1.5"],
    "max_rows": ["-1", "0", "1", "2", "3", "", "nan"],
    "max_cols": ["-1", "0", "1", "2", "4", "", "x"],
    "net_scheme": ["", "bogus", "conv3d", "CONV3D", "seq1d2d", "par1d2d", "res3_1dx3"],
    "width": ["-1", "0", "1", "2", "", "x"],
    "num_blocks": ["-1", "0", "1", "2", "", "1e3"],
    "samples": ["-1", "0", "1", "3", "", "x"],
    "tol": ["-1", "-1e-300", "0", "1e-300", "1e-4", "1", str(10**30), "1e400", "nan", "-inf",
            "", "x"],
    "sabotage": ["true", "false", "1", "0", "", "maybe"],
}
GRAD_CHECK_TINY = ("matrices=1", "max_rows=3", "max_cols=3", "samples=2", "width=1",
                   "num_blocks=1")


@pytest.mark.parametrize("key", sorted(GRAD_CHECK_VALUES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_grad_check_exit_code_contract(key, data):
    check_exit_code_contract("grad-check", GRAD_CHECK_VALUES, key, data, base=GRAD_CHECK_TINY)


# Boundary values per training and noise key, shared by train and compare.
# Every float key gets its range's ends and the float just past each, plus
# nan, inf and 1e308. epochs, width, num_blocks, k, bands, height, width_px,
# endmembers and train_pairs scale the work, so they come only from small
# values over a tiny base run; batch_size and the seeds are cheap at any size.
FLOAT_EDGES = ["nan", "inf", "-inf", "1e308", ""]
TASK_VALUES = {
    "width": ["-1", "0", "1", "2", "x"],
    "num_blocks": ["-1", "0", "1", "2", "1.5"],
    "k": ["-1", "0", "1", "2", "3", "5", "25"],
    "lam": ["-1e-300", "0", "5e-324", "5e-5", "1", *FLOAT_EDGES],
    "learning_rate": ["-0.0", "0", "5e-324", "2e-4", "1", *FLOAT_EDGES],
    "beta1": ["0", "5e-324", "0.9", "0.9999999999999999", "1", *FLOAT_EDGES],
    "beta2": ["0", "5e-324", "0.999", "0.9999999999999999", "1", *FLOAT_EDGES],
    "epochs": ["-1", "0", "1", "", "x"],
    "batch_size": ["-1", "0", "1", "2", str(2**64)],
    "bands": ["-1", "0", "1", "2", "3"],
    "height": ["-1", "0", "1", "10", "11", "12"],
    "width_px": ["-1", "0", "10", "11", "12", "1.0"],
    "endmembers": ["-1", "0", "1", "2", "x"],
    "train_pairs": ["-1", "0", "1", "2", ""],
    "data_seed": ["-1", "0", str(2**64), "x"],
    "noise_seed": ["-1", "0", str(2**64), ""],
    "noise_kind": ["gaussian", "gaussian_blind", "non_iid", "stripe", "deadline", "impulse",
                   "mixture", "MIXTURE", "", "foo"],
    "sigma": ["-5e-324", "0", "50", *FLOAT_EDGES],
    "sigma_min": ["-5e-324", "0", "30", "80", *FLOAT_EDGES],
    "sigma_max": ["-5e-324", "0", "20", "70", *FLOAT_EDGES],
    "fraction": ["-5e-324", "0", "0.1", "1", "1.0000000000000002", *FLOAT_EDGES],
    "magnitude": ["-5e-324", "0", "0.25", "1", "1.0000000000000002", *FLOAT_EDGES],
    "band_fraction": ["-5e-324", "0", "0.5", "1", "1.0000000000000002", *FLOAT_EDGES],
}
# mixture noise reads sigma_min, sigma_max, fraction and magnitude
TASK_TINY = ("epochs=1", "bands=3", "height=11", "width_px=11", "width=2", "num_blocks=1",
             "noise_kind=mixture")
TRAIN_VALUES = {**TASK_VALUES, "seed": ["-1", "0", str(2**64), "x"],
                "scheme": ["res3_1d", "conv3d", "par1d2d", "seq1d2d", "bogus", ""]}
COMPARE_VALUES = {**TASK_VALUES, "seeds": ["-1", "0", "1", "2", "x"],
                  "schemes": ["", "conv3d", "conv3d,res3_1d", "par1d2d,seq1d", "conv3d,CONV3D",
                              "res3_1d,bogus"]}


@pytest.mark.parametrize("key", sorted(TRAIN_VALUES))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_train_exit_code_contract(key, data):
    check_exit_code_contract("train", TRAIN_VALUES, key, data, base=TASK_TINY)


@pytest.mark.parametrize("key", sorted(COMPARE_VALUES))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_compare_exit_code_contract(key, data):
    check_exit_code_contract("compare", COMPARE_VALUES, key, data,
                             base=(*TASK_TINY, "schemes=conv3d,res3_1d", "seeds=1"))


@pytest.fixture(scope="module")
def spectrum_inputs(tmp_path_factory) -> list[str]:
    """Tensor files, written once: valid, wrong rank, truncated, non-finite,
    zero-extent, a directory and a missing path."""
    root = tmp_path_factory.mktemp("spectrum_inputs")
    write_tensor(root / "rank4.rst", np.random.default_rng(0).standard_normal((2, 2, 3, 3)))
    write_tensor(root / "rank3.rst", np.ones((2, 3, 3)))
    (root / "short.rst").write_bytes(b"RST1" + (4).to_bytes(4, "little") + b"\x02\x00")
    write_tensor(root / "nan.rst", np.full((2, 2, 3, 3), np.nan))
    write_tensor(root / "empty.rst", np.zeros((2, 0, 3, 3)))
    names = ["rank4.rst", "rank3.rst", "short.rst", "nan.rst", "empty.rst", "", "missing.rst"]
    return [str(root / name) for name in names]


@pytest.mark.parametrize("key", ["head", "input"])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_spectrum_exit_code_contract(spectrum_inputs, key, data):
    values = {"input": [*spectrum_inputs, ""], "head": ["-1", "0", "1", "8", str(2**64), "", "x"]}
    check_exit_code_contract("spectrum", values, key, data)


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_help_lists_every_config_key(capsys, command):
    assert main([command, "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    schema = cli._SUBCOMMANDS[command][0]
    for key, option in schema.items():
        row = next(line.split() for line in lines if line.split()[:1] == [key])
        assert row[1] == option.type.__name__
        assert row[2] == option.range_text()
        assert option.help and " ".join(row[4:]) == option.help
