"""End-to-end command tests: configs, CSV/JSON outputs, and exit codes."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resset import Network, cli, synth_cube, write_tensor
from resset.cli import main


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

    def test_feature_tensor_feeds_spectrum_command(self, tmp_path):
        run_cli(tmp_path, "train", *self.SMALL)
        feature = only_run_dir(tmp_path, "train") / "feature.rst"
        assert feature.exists()
        assert run_cli(tmp_path, "spectrum", f"input={feature}", "head=4") == 0

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

    def test_non_finite_penalized_loss_writes_report(self, tmp_path):
        code = run_cli(tmp_path, "train", *self.SMALL, "epochs=3", "learning_rate=1e300")
        assert code == 3
        report = json.loads((only_run_dir(tmp_path, "train") / "report.json").read_text())
        assert report == {"error": "non_finite_loss", "epoch": 1}


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


RANK_AUDIT_PAIRS = [f"{key}={value}" for key, values in RANK_AUDIT_VALUES.items()
                    for value in values]


@pytest.mark.parametrize("key", sorted(RANK_AUDIT_VALUES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rank_audit_exit_code_contract(key, data):
    """Every boundary value of ``key``, over the defaults and up to two other
    boundary values, exits 0, 1, 2 or 3 without a traceback, and a usage
    error leaves no run directory."""
    others = data.draw(st.lists(st.sampled_from(RANK_AUDIT_PAIRS), max_size=2))
    probe = data.draw(st.sampled_from(RANK_AUDIT_VALUES[key]))
    with tempfile.TemporaryDirectory() as out_dir:
        code = main(["rank-audit", *others, f"{key}={probe}", f"out_dir={out_dir}"])
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert not list(Path(out_dir).iterdir())


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_help_lists_every_config_key(capsys, command):
    assert main([command, "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    schema = cli._SUBCOMMANDS[command][0]
    for key, option in schema.items():
        row = next(line.split() for line in lines if line.split()[:1] == [key])
        assert row[1] == option.type.__name__
        assert row[2] == ("-" if option.low is None else str(option.low))
        assert option.help and " ".join(row[4:]) == option.help
