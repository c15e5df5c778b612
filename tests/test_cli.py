"""End-to-end command tests: configs, CSV/JSON outputs, and exit codes."""

import csv
import json
from pathlib import Path

import numpy as np

from resset import synth_cube, write_tensor
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

    def test_zero_weight_injection(self, tmp_path):
        code = run_cli(tmp_path, "rank-audit", "schemes=conv3d,res3_1d", "seeds=3",
                       "zero_weights=true")
        assert code == 0
        rows = read_rows(only_run_dir(tmp_path, "rank-audit") / "audit.csv")
        assert all(row["measured_rank"] == "0" for row in rows)
        assert all(row["achieved"] == "false" for row in rows)

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

    def test_parallel_workers_reproduce_serial_bytes(self, tmp_path, monkeypatch):
        args = ["compare", "schemes=conv3d,res3_1d", "seeds=2", "bands=8", "height=12",
                "width_px=12", "epochs=1", "width=4", "num_blocks=1"]
        assert run_cli(tmp_path, *args) == 0
        run_dir = only_run_dir(tmp_path, "compare")
        serial = (run_dir / "results.csv").read_bytes()
        monkeypatch.setenv("RESSET_THREADS", "4")
        assert run_cli(tmp_path, *args) == 0
        assert (run_dir / "results.csv").read_bytes() == serial


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

    def test_empty_extent_is_usage_error(self, tmp_path):
        tensor_path = tmp_path / "empty.rst"
        write_tensor(tensor_path, np.zeros((2, 0, 3, 3)))
        assert run_cli(tmp_path, "spectrum", f"input={tensor_path}") == 2


class TestExitCodes:
    SMALL = ["bands=8", "width_px=12", "epochs=1", "width=4", "num_blocks=1"]

    def test_grid_below_similarity_window_is_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "train", *self.SMALL, "height=8") == 2

    def test_non_finite_evaluation_is_numeric_failure(self, tmp_path):
        code = run_cli(tmp_path, "train", *self.SMALL, "height=12", "learning_rate=1e300",
                       "lam=0")
        assert code == 3
