import csv
import json
import os

import numpy as np
import pytest

from novas import Seed, generate
from novas.cli import _options, build_parser, main
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

    def test_malformed_env_seed_single_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NOVAS_SEED", "abc")
        out = tmp_path / "env.csv"
        assert run_cli(["simulate", "--model", "M3", "--n", "30", "--output", out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error:input: NOVAS_SEED='abc' is not an integer"]
        assert not out.exists()


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

    @pytest.mark.parametrize("column", ["return", "close"])
    def test_quoted_header_accepted(self, tmp_path, column):
        # R's write.csv quotes its column names
        returns = np.random.default_rng(0).normal(0, 1, size=120)
        values = returns if column == "return" else 100 * np.exp(np.cumsum(returns / 100))
        path = tmp_path / "quoted.csv"
        path.write_text(f'"index","{column}"\n' + "".join(
            f'"{i}",{v!r}\n' for i, v in enumerate(values.tolist())))
        out = tmp_path / "fit.json"
        assert run_cli(["calibrate", "--input", path, "--variant", "GA_NO_A0",
                        "--alpha", "0.3", "--output", out]) == 0
        assert json.loads(out.read_text())["n"] == (120 if column == "return" else 119)


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

    def test_unknown_variant_single_error_line(self, tmp_path, returns_csv, capsys):
        args = self.backtest_args(returns_csv, tmp_path / "r.json")
        args[args.index("--variants") + 1] = "GE,GX"
        assert run_cli(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:input:")
        assert "'GX'" in err[0]
        assert not (tmp_path / "r.json").exists()

    def test_repeated_alpha_single_error_line(self, tmp_path, returns_csv, capsys):
        args = self.backtest_args(returns_csv, tmp_path / "r.json")
        args[args.index("--alpha-grid") + 1] = "0.5,0.5"
        assert run_cli(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error:input: alpha_grid repeats an entry: [0.5, 0.5]"]
        assert list(tmp_path.glob("r.*")) == []


class TestErrors:
    def test_unknown_flag_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--bogus", "1"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_custom_model_not_offered(self, tmp_path, capsys):
        # the data models are M1..M8; CUSTOM is not one of them
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--model", "CUSTOM", "--n", "30",
                     "--output", tmp_path / "c.csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'CUSTOM'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "content",
        [None, "not json", '{"options": {}}', '{"command": "simulate", "options": []}'],
        ids=["missing", "not-json", "no-command", "options-not-object"],
    )
    def test_bad_sidecar_single_error_line(self, tmp_path, capsys, content):
        sidecar = tmp_path / "nope.sidecar.json"
        if content is not None:
            sidecar.write_text(content)
        assert run_cli(["--from-sidecar", sidecar]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:input:")

    @pytest.mark.parametrize(
        "recorded",
        [{"alpha": [0.5], "horizon": [1, 3]}, {"grid": "not json"}],
        ids=["alpha-horizon", "grid-string"],
    )
    def test_sidecar_key_not_read_as_abbreviation(self, tmp_path, returns_csv, capsys,
                                                  recorded):
        # each key is a prefix of one flag (--alpha-grid, --horizons, --grid-config)
        out = tmp_path / "bt.json"
        options = {"input": str(returns_csv), "window": 60, "variants": ["GE_NO_A0"],
                   "risk": "L2", "innovations": "mc", "paths": 150, "seed": 4,
                   "threads": 1, "output": str(out), **recorded}
        sidecar = tmp_path / "bt.json.sidecar.json"
        sidecar.write_text(json.dumps({"command": "backtest", "options": options}))
        with pytest.raises(SystemExit) as exc:
            run_cli(["--from-sidecar", sidecar])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, grid",
        [("grid-config", '{"ga_stp": 0.05}'), ("grid-config", "not json"),
         ("sidecar", '{"ga_stp": 0.05}')],
        ids=["unknown-key", "not-json", "sidecar-unknown-key"],
    )
    def test_bad_grid_single_error_line(self, tmp_path, returns_csv, capsys, source, grid):
        path = tmp_path / "grid.json"
        if source == "grid-config":
            path.write_text(grid)
            args = ["calibrate", "--input", returns_csv, "--variant", "GE",
                    "--alpha", "0.5", "--grid-config", path,
                    "--output", tmp_path / "x.json"]
        else:  # the inline grid of a hand-edited sidecar
            options = {"input": str(returns_csv), "variant": "GE", "alpha": 0.5,
                       "output": str(tmp_path / "x.json"), "grid": json.loads(grid)}
            path.write_text(json.dumps({"command": "calibrate", "options": options}))
            args = ["--from-sidecar", path]
        assert run_cli(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:input:")
        assert str(path) in err[0]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "args, message",
        [(["--grid-config", "GRID"], "holds no valid calibration grid: ga_step 0 outside"),
         (["--ga-grid-step", "0"], "ga_step 0.0 outside (0, 1)"),
         (["--ga-grid-step", "-0.5"], "ga_step -0.5 outside (0, 1)")],
        ids=["grid-config-zero", "flag-zero", "flag-negative"],
    )
    def test_unusable_ga_step_single_error_line(self, tmp_path, returns_csv, capsys,
                                                args, message):
        # a flag of 0 is a value, not an absent flag, and is refused as the
        # file's 0 is
        grid = tmp_path / "grid.json"
        grid.write_text('{"ga_step": 0}')
        code = run_cli(["calibrate", "--input", returns_csv, "--variant", "GA",
                        "--alpha", "0.5", *[grid if a == "GRID" else a for a in args],
                        "--output", tmp_path / "x.json"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:input:")
        assert message in err[0]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "content", ["not json", '{"table": []}', '{"table": [{"horizon": 1}]}'],
        ids=["not-json", "empty-table", "missing-keys"],
    )
    def test_bad_report_input_single_error_line(self, tmp_path, capsys, content):
        src = tmp_path / "report.json"
        src.write_text(content)
        assert run_cli(["report", "--input", src, "--output", tmp_path / "rendered"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:input:")
        assert str(src) in err[0]
        assert list(tmp_path.iterdir()) == [src]

    def test_empty_variants_means_all(self):
        args = build_parser().parse_args(
            ["backtest", "--input", "r.csv", "--window", "60", "--variants", "",
             "--output", "r.json"]
        )
        assert _options(args)["variants"] == ["GE", "GE_NO_A0", "GA", "GA_NO_A0"]


class TestSimulateReplay:
    def test_simulate_replay(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli(["simulate", "--model", "M7", "--n", "60", "--seed", "11",
                 "--output", out])
        original = out.read_bytes()
        out.unlink()
        assert run_cli(["--from-sidecar", str(out) + ".sidecar.json"]) == 0
        assert out.read_bytes() == original


# Each case: the command lines to run (the last one is replayed) and the
# options its sidecar records. The literals pin the sidecar format, so that
# sidecars written by earlier builds keep replaying.
GRID = {"eps_guard": 1e-12, "ga_step": 0.02, "ge_c_count": 40, "ge_c_max": 5.0,
        "ge_c_min": 0.005, "min_window": 50, "order_cap": 30, "order_cap_divisor": 5,
        "order_max": 60, "tail_mass": 0.01}
BACKTEST = ["backtest", "--input", "returns.csv", "--window", "60", "--horizons", "1,3",
            "--alpha-grid", "0.5", "--variants", "GE_NO_A0", "--risk", "L2",
            "--innovations", "mc", "--paths", "150", "--seed", "4", "--threads", "1",
            "--table", "--output", "bt.json"]
REPLAY_CASES = {
    "simulate": (
        [["simulate", "--model", "M7", "--n", "60", "--seed", "11", "--scale-t-errors",
          "--output", "sim.csv"]],
        {"burn_in": 500, "model": "M7", "n": 60, "output": "sim.csv",
         "scale_t_errors": True, "seed": 11},
    ),
    "calibrate": (
        [["calibrate", "--input", "returns.csv", "--variant", "GE", "--alpha", "0.5",
          "--grid-config", "grid.json", "--output", "fit.json"]],
        {"alpha": 0.5, "grid": {**GRID, "ga_step": 0.05, "ge_c_count": 10},
         "input": "returns.csv", "output": "fit.json", "price_column": "close",
         "returns_column": "return", "variant": "GE"},
    ),
    "forecast": (
        [["forecast", "--input", "returns.csv", "--variant", "GA_NO_A0", "--alpha", "0.4",
          "--horizon", "3", "--paths", "200", "--ga-grid-step", "0.05",
          "--statistic", "step", "--seed", "2", "--output", "fc.json"]],
        {"alpha": 0.4, "grid": {**GRID, "ga_step": 0.05}, "horizon": 3,
         "innovations": "mc", "input": "returns.csv", "output": "fc.json", "paths": 200,
         "price_column": "close", "returns_column": "return", "risk": "L2", "seed": 2,
         "statistic": "step", "variant": "GA_NO_A0"},
    ),
    "backtest": (
        [BACKTEST],
        {"alpha_grid": [0.5], "grid": GRID, "horizons": [1, 3], "innovations": "mc",
         "input": "returns.csv", "metric": "squared", "output": "bt.json", "paths": 150,
         "price_column": "close", "returns_column": "return", "risk": "L2", "seed": 4,
         "table": True, "threads": 1, "variants": ["GE_NO_A0"], "window": 60},
    ),
    "report": (
        [BACKTEST, ["report", "--input", "bt.json", "--output", "rendered", "--table"]],
        {"input": "bt.json", "output": "rendered", "table": True},
    ),
}

# A calibrate sidecar recorded by an earlier build of the CLI, kept verbatim:
# replaying it must rewrite it byte for byte.
RECORDED_SIDECAR = """{
  "command": "calibrate",
  "options": {
    "alpha": 0.5,
    "grid": {
      "eps_guard": 1e-12,
      "ga_step": 0.05,
      "ge_c_count": 10,
      "ge_c_max": 5.0,
      "ge_c_min": 0.005,
      "min_window": 50,
      "order_cap": 30,
      "order_cap_divisor": 5,
      "order_max": 60,
      "tail_mass": 0.01
    },
    "input": "returns.csv",
    "output": "fit.json",
    "price_column": "close",
    "returns_column": "return",
    "variant": "GE"
  },
  "outputs": [
    "fit.json"
  ],
  "tool": {
    "name": "novas",
    "version": "0.1.0"
  }
}
"""


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    """A working directory holding a returns CSV and a grid config."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(["simulate", "--model", "M3", "--n", "90", "--seed", "21",
                    "--output", "returns.csv"]) == 0
    (tmp_path / "grid.json").write_text('{"ga_step": 0.05, "ge_c_count": 10}')
    return tmp_path


class TestReplay:
    @pytest.mark.parametrize("command", sorted(REPLAY_CASES))
    def test_replay_is_byte_identical(self, in_tmp, capsys, command):
        commands, recorded = REPLAY_CASES[command]
        for argv in commands[:-1]:
            assert run_cli(argv) == 0
        capsys.readouterr()
        assert run_cli(commands[-1]) == 0
        stdout = capsys.readouterr().out
        sidecar_path = in_tmp / (recorded["output"] + ".sidecar.json")
        sidecar_text = sidecar_path.read_text()
        sidecar = json.loads(sidecar_text)
        assert sidecar["command"] == command
        assert sidecar["options"] == recorded
        first = {name: (in_tmp / name).read_bytes() for name in sidecar["outputs"]}
        for name in first:
            (in_tmp / name).unlink()
        assert run_cli(["--from-sidecar", sidecar_path]) == 0
        assert capsys.readouterr().out == stdout
        assert {name: (in_tmp / name).read_bytes() for name in first} == first
        assert sidecar_path.read_text() == sidecar_text

    def test_recorded_sidecar_replays(self, in_tmp):
        assert run_cli(REPLAY_CASES["calibrate"][0][0]) == 0
        direct = (in_tmp / "fit.json").read_bytes()
        (in_tmp / "fit.json").unlink()
        (in_tmp / "fit.json.sidecar.json").write_text(RECORDED_SIDECAR)
        assert run_cli(["--from-sidecar", "fit.json.sidecar.json"]) == 0
        assert (in_tmp / "fit.json").read_bytes() == direct
        assert (in_tmp / "fit.json.sidecar.json").read_text() == RECORDED_SIDECAR
