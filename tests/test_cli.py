import csv
import json
import os

import numpy as np
import pytest

from novas import Seed, generate
from novas.cli import main
from novas.simulate import ModelSpec


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture()
def returns_csv(tmp_path):
    path = tmp_path / "returns.csv"
    assert run_cli(["simulate", "--model", "M3", "--n", "90", "--seed", "21",
                    "--output", path]) == 0
    return path


class TestSimulate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "m3.csv"
        assert run_cli(["simulate", "--model", "M3", "--n", "500", "--seed", "7",
                        "--output", out]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 500
        assert set(rows[0]) == {"index", "return"}
        sidecar = json.loads((tmp_path / "m3.csv.sidecar.json").read_text())
        assert sidecar["command"] == "simulate"
        assert sidecar["options"]["seed"] == 7
        assert sidecar["options"]["burn_in"] == 500  # defaults are resolved

    def test_matches_library_generate(self, tmp_path):
        out = tmp_path / "m6.csv"
        run_cli(["simulate", "--model", "M6", "--n", "40", "--seed", "3",
                 "--output", out])
        rows = list(csv.DictReader(out.open()))
        expected = generate(ModelSpec(model="M6", n=40, seed=Seed(3)))
        got = np.array([float(r["return"]) for r in rows])
        np.testing.assert_array_equal(got, expected.values)

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOVAS_SEED", "99")
        out = tmp_path / "env.csv"
        run_cli(["simulate", "--model", "M3", "--n", "30", "--output", out])
        sidecar = json.loads((tmp_path / "env.csv.sidecar.json").read_text())
        assert sidecar["options"]["seed"] == 99

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOVAS_SEED", "99")
        out = tmp_path / "flag.csv"
        run_cli(["simulate", "--model", "M3", "--n", "30", "--seed", "5",
                 "--output", out])
        sidecar = json.loads((tmp_path / "flag.csv.sidecar.json").read_text())
        assert sidecar["options"]["seed"] == 5


class TestCalibrateForecast:
    def test_calibrate_output(self, tmp_path, returns_csv):
        out = tmp_path / "fit.json"
        assert run_cli(["calibrate", "--input", returns_csv, "--variant",
                        "GE_NO_A0", "--alpha", "0.5", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["variant"] == "GE_NO_A0"
        assert payload["weights"]["a0"] == 0.0
        assert payload["objective"] >= 0.0
        assert payload["residuals"]["count"] == 90 - payload["weights"]["order"]

    def test_forecast_output_keys(self, tmp_path, returns_csv):
        out = tmp_path / "fc.json"
        assert run_cli(["forecast", "--input", returns_csv, "--variant", "GE",
                        "--alpha", "0.5", "--horizon", "5", "--paths", "300",
                        "--risk", "L1", "--innovations", "boot", "--seed", "2",
                        "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"method", "variant", "alpha", "horizon", "risk",
                                "statistic", "point", "ensemble_mean",
                                "ensemble_median", "M", "seed"}
        assert payload["M"] == 300
        assert payload["risk"] == "L1"
        assert payload["point"] >= 0.0

    def test_price_csv_accepted(self, tmp_path):
        prices = tmp_path / "prices.csv"
        rng = np.random.default_rng(0)
        levels = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=120)))
        prices.write_text(
            "close\n" + "\n".join(repr(float(v)) for v in levels) + "\n"
        )
        out = tmp_path / "fit.json"
        assert run_cli(["calibrate", "--input", prices, "--variant", "GA_NO_A0",
                        "--alpha", "0.3", "--output", out]) == 0
        assert json.loads(out.read_text())["n"] == 119


class TestBacktest:
    def backtest_args(self, returns_csv, out, extra=()):
        return ["backtest", "--input", returns_csv, "--window", "60",
                "--horizons", "1,3", "--alpha-grid", "0.5",
                "--variants", "GE_NO_A0", "--risk", "L2", "--innovations", "mc",
                "--paths", "150", "--seed", "4", "--threads", "1",
                "--output", out, *extra]

    def test_report_files(self, tmp_path, returns_csv, capsys):
        out = tmp_path / "report.json"
        assert run_cli(self.backtest_args(returns_csv, out, ["--table"])) == 0
        assert "GARCH_DIRECT" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["counts"] == {"1": 30, "3": 28}
        csv_rows = list(csv.DictReader((tmp_path / "report.csv").open()))
        assert set(csv_rows[0]) == {"method", "variant", "alpha", "risk",
                                    "innovation-kind", "horizon", "score",
                                    "ratio", "n_predictions"}
        direct = [r for r in csv_rows if r["method"] == "GARCH_DIRECT"]
        assert all(float(r["ratio"]) == 1.0 for r in direct)

    def test_report_subcommand(self, tmp_path, returns_csv, capsys):
        src = tmp_path / "report.json"
        run_cli(self.backtest_args(returns_csv, src))
        out = tmp_path / "rendered"
        assert run_cli(["report", "--input", src, "--output", out,
                        "--table"]) == 0
        table = list(csv.DictReader((tmp_path / "rendered.table.csv").open()))
        assert [r["horizon"] for r in table] == ["1", "3"]
        pairs = list(csv.DictReader((tmp_path / "rendered.pairs.csv").open()))
        methods = {r["method"] for r in pairs}
        assert "GARCH_DIRECT" in methods
        by_h = [r for r in pairs if r["method"] == "GARCH_DIRECT" and r["horizon"] == "1"]
        assert len(by_h) == 30

    def test_sidecar_replay_is_byte_identical(self, tmp_path, returns_csv):
        out = tmp_path / "report.json"
        run_cli(self.backtest_args(returns_csv, out))
        first = out.read_bytes()
        first_csv = (tmp_path / "report.csv").read_bytes()
        out.unlink()
        assert run_cli(["--from-sidecar", str(out) + ".sidecar.json"]) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "report.csv").read_bytes() == first_csv
        assert list(tmp_path.glob("*.grid.json")) == []

    def test_zero_workers_single_error_line(self, tmp_path, returns_csv, capsys):
        args = self.backtest_args(returns_csv, tmp_path / "r.json")
        args[args.index("--threads") + 1] = "0"
        assert run_cli(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error:input: threads must be at least 1, got 0"]
        assert not (tmp_path / "r.json").exists()


class TestErrors:
    def test_unknown_flag_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--bogus", "1"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_input_single_error_line(self, tmp_path, capsys):
        code = run_cli(["calibrate", "--input", tmp_path / "nope.csv",
                        "--variant", "GE", "--alpha", "0.5",
                        "--output", tmp_path / "x.json"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:input")

    def test_infeasible_grid_reported(self, tmp_path, returns_csv, capsys):
        code = run_cli(["calibrate", "--input", returns_csv, "--variant", "GA",
                        "--alpha", "0.1", "--ga-grid-step", "0.05",
                        "--output", tmp_path / "x.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:infeasible")

    def test_no_command_prints_usage(self, capsys):
        assert run_cli([]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "not json", '{"options": {}}'],
                             ids=["missing", "not-json", "no-command"])
    def test_bad_sidecar_single_error_line(self, tmp_path, capsys, content):
        sidecar = tmp_path / "nope.sidecar.json"
        if content is not None:
            sidecar.write_text(content)
        assert run_cli(["--from-sidecar", sidecar]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:input:")


class TestSimulateReplay:
    def test_simulate_replay(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli(["simulate", "--model", "M7", "--n", "60", "--seed", "11",
                 "--output", out])
        original = out.read_bytes()
        out.unlink()
        assert run_cli(["--from-sidecar", str(out) + ".sidecar.json"]) == 0
        assert out.read_bytes() == original
