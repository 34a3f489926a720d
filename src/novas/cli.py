"""Command-line front end: simulate data, calibrate transforms, forecast,
backtest, and render reports.

A run's options are resolved once from the parser (defaults, seed, comma
lists and calibration grid included). Every run writes its outputs atomically
and drops a JSON sidecar holding those options; ``novas --from-sidecar
run.sidecar.json`` re-parses the recorded options as a command line and
replays the run byte-identically. Errors exit nonzero with a single
machine-parseable ``error:<category>: <message>`` line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    KIND_TO_SOURCE,
    KINDS,
    BacktestConfig,
    BacktestReport,
    format_table,
    relative_report,
    run_rolling_poos,
)
from .errors import DataError, NovasError
from .innovations import Seed
from .predictor import ForecastRequest, Risk, Statistic, forecast_json, innovation_source, predict
from .returns import read_returns_csv, sample_kurtosis
from .simulate import MODELS, ModelSpec, generate
from .transform import CalibratedTransform, calibrate
from .weights import CalibrationGrid, NovasVariant


def _write_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(command: str, options: dict, files: dict[str, str], message: str) -> int:
    """Write each output atomically, then the sidecar recording the run and
    its outputs, then print ``message``."""
    for path, text in files.items():
        _write_atomic(path, text)
    sidecar = {
        "command": command,
        "options": options,
        "outputs": list(files),
        "tool": {"name": "novas", "version": __version__},
    }
    _write_atomic(options["output"] + ".sidecar.json", _json_text(sidecar))
    print(message)
    return 0


def _default_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("NOVAS_SEED") or "0"
    try:
        return int(env)
    except ValueError:
        raise DataError(f"NOVAS_SEED={env!r} is not an integer") from None


def _parse_list(text: str, convert, name: str) -> list:
    try:
        return [convert(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise DataError(f"cannot parse {name} {text!r}: {exc}") from None


_LIST_OPTIONS = {"horizons": int, "alpha_grid": float,
                 "variants": lambda v: NovasVariant(v).value}
# parsed names that select or feed the run but are not recorded as options
_NOT_OPTIONS = {"command", "func", "from_sidecar", "grid", "grid_config", "ga_grid_step"}


def _options(args) -> dict:
    """The run's fully resolved options: what the sidecar records and the
    command reads. The seed falls back to ``NOVAS_SEED``, comma lists become
    lists, and the calibration grid is recorded whole."""
    options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    for key, convert in _LIST_OPTIONS.items():
        if key in options:
            options[key] = _parse_list(options[key] or "", convert, key)
    if options.get("variants") == []:
        options["variants"] = [v.value for v in NovasVariant]
    if "seed" in options:
        options["seed"] = _default_seed(options["seed"])
    if "grid_config" in vars(args):
        options["grid"] = _grid_from_args(args).to_dict()
    return options


def _grid_from_args(args) -> CalibrationGrid:
    data, source = args.grid, args.from_sidecar  # inline from a replayed sidecar
    try:
        if data is None and args.grid_config:
            source = args.grid_config
            with open(source) as fh:
                data = json.load(fh)
        grid = CalibrationGrid() if data is None else CalibrationGrid.from_dict(data)
    except (ValueError, TypeError, DataError) as exc:
        raise DataError(f"{source!r} holds no valid calibration grid: {exc}") from None
    if args.ga_grid_step is not None:
        grid = CalibrationGrid(**{**grid.to_dict(), "ga_step": args.ga_grid_step})
    return grid


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(options: dict) -> int:
    spec = ModelSpec(**{k: v for k, v in options.items() if k != "output"})
    rows = [[i, repr(float(v))] for i, v in enumerate(generate(spec).values)]
    return _emit(
        "simulate", options,
        {options["output"]: _csv_text(["index", "return"], rows)},
        f"wrote {len(rows)} returns to {options['output']}",
    )


def _calibrated(options: dict) -> CalibratedTransform:
    """The transform that ``calibrate`` and ``forecast`` fit to their input."""
    return calibrate(
        NovasVariant(options["variant"]),
        options["alpha"],
        read_returns_csv(options["input"], options["returns_column"], options["price_column"]),
        CalibrationGrid.from_dict(options["grid"]),
    )


def _cmd_calibrate(options: dict) -> int:
    ct = _calibrated(options)
    payload = {
        "variant": ct.variant.value,
        "alpha": ct.weights.alpha,
        "weights": ct.weights.to_dict(),
        "objective": ct.objective,
        "trim_bound": None if ct.weights.trim_bound == float("inf") else ct.weights.trim_bound,
        "s2_n": ct.s2_n,
        "n": len(ct.history),
        "residuals": {
            "count": int(ct.residuals.size),
            "kurtosis": float(sample_kurtosis(ct.residuals)),
            "max_abs": float(np.abs(ct.residuals).max()),
        },
    }
    return _emit(
        "calibrate", options, {options["output"]: _json_text(payload)},
        f"calibrated {ct.variant.value} alpha={ct.weights.alpha:g} "
        f"objective={ct.objective:.6f} -> {options['output']}",
    )


def _cmd_forecast(options: dict) -> int:
    ct = _calibrated(options)
    req = ForecastRequest(
        horizon=options["horizon"],
        source=innovation_source(ct, KIND_TO_SOURCE[options["innovations"]]),
        paths=options["paths"],
        risk=Risk(options["risk"]),
        statistic={"aggregated": Statistic.AGGREGATED_SQUARED,
                   "step": Statistic.SQUARED_STEP}[options["statistic"]],
        seed=Seed(options["seed"]),
    )
    result = predict(ct, req)
    payload = forecast_json(
        result,
        method=f"{ct.variant.value}/{options['innovations']}",
        variant=ct.variant.value,
        alpha=ct.weights.alpha,
    )
    return _emit(
        "forecast", options, {options["output"]: _json_text(payload)},
        f"h={options['horizon']} {options['risk']} point={result.point!r} "
        f"-> {options['output']}",
    )


def _report_payload(report: BacktestReport, options: dict) -> dict:
    scores = [
        {
            "method": s.method.label(),
            "family": s.method.family,
            "variant": s.method.family if s.method.family in [v.value for v in NovasVariant] else None,
            "alpha": s.method.alpha,
            "risk": s.method.risk,
            "kind": s.method.kind,
            "horizon": s.horizon,
            "score": s.score,
            "ratio": s.ratio,
            "n_predictions": s.n_predictions,
        }
        for s in report.scores
    ]
    return {
        "options": options,
        "horizons": list(report.horizons),
        "counts": {str(h): c for h, c in report.counts.items()},
        "benchmark_scores": {str(h): v for h, v in report.benchmark_scores.items()},
        "scores": scores,
        "table": relative_report(report),
        "truths": {str(h): [float(v) for v in t] for h, t in report.truths.items()},
        "predictions": {
            m.label(): {str(h): [None if not np.isfinite(v) else float(v) for v in arr]
                        for h, arr in by_h.items()}
            for m, by_h in report.predictions.items()
        },
        "infeasible": report.infeasible,
        "failed_windows": {str(h): v for h, v in report.failed_windows.items()},
    }


def _score_rows(payload: dict) -> list[list]:
    return [
        [
            s["method"],
            s["variant"] or "",
            "" if s["alpha"] is None else repr(s["alpha"]),
            s["risk"] or "",
            s["kind"] or "",
            s["horizon"],
            repr(s["score"]),
            repr(s["ratio"]),
            s["n_predictions"],
        ]
        for s in payload["scores"]
    ]


_SCORE_HEADER = [
    "method", "variant", "alpha", "risk", "innovation-kind",
    "horizon", "score", "ratio", "n_predictions",
]


def _cmd_backtest(options: dict) -> int:
    y = read_returns_csv(options["input"], options["returns_column"], options["price_column"])
    cfg = BacktestConfig(
        window=options["window"],
        horizons=tuple(options["horizons"]),
        alpha_grid=tuple(options["alpha_grid"]),
        variants=tuple(options["variants"]),
        risks=("L1", "L2") if options["risk"] == "both" else (options["risk"],),
        kinds=KINDS if options["innovations"] == "both" else (options["innovations"],),
        paths=options["paths"],
        seed=Seed(options["seed"]),
        grid=CalibrationGrid.from_dict(options["grid"]),
        metric=options["metric"],
        threads=options["threads"],
    )
    payload = _report_payload(run_rolling_poos(y, cfg), options)
    out_json = Path(options["output"])
    out_csv = out_json.with_suffix(".csv")
    table = format_table(payload["table"]) + "\n" if options["table"] else ""
    return _emit(
        "backtest", options,
        {
            str(out_json): _json_text(payload),
            str(out_csv): _csv_text(_SCORE_HEADER, _score_rows(payload)),
        },
        f"{table}wrote {out_json} and {out_csv}",
    )


def _cmd_report(options: dict) -> int:
    path = options["input"]
    out = Path(options["output"])
    with open(path) as fh:
        try:
            payload = json.load(fh)
            rows = payload["table"]
            families = [k for k in rows[0] if k != "horizon"]
            table_csv = _csv_text(
                ["horizon"] + families,
                [[row["horizon"]] + [repr(row[f]) if row[f] is not None else "" for f in families]
                 for row in rows],
            )
            pairs_csv = _csv_text(
                ["method", "horizon", "window", "prediction", "truth"],
                [[method, h, i, "" if p is None else repr(p), repr(t)]
                 for method, by_h in payload["predictions"].items()
                 for h, preds in by_h.items()
                 for i, (p, t) in enumerate(zip(preds, payload["truths"][h]))],
            )
            table = format_table(rows) + "\n" if options["table"] else ""
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise DataError(f"{path!r} is not a backtest report: {exc!r}") from None
    out_table, out_pairs = out.with_suffix(".table.csv"), out.with_suffix(".pairs.csv")
    return _emit(
        "report", options,
        {str(out_table): table_csv, str(out_pairs): pairs_csv},
        f"{table}wrote {out_table} and {out_pairs}",
    )


# ---------------------------------------------------------------------------
# argument wiring


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    """The returns CSV of a command that calibrates on it, and its grid."""
    p.add_argument("--input", required=True, help="CSV of returns or prices")
    p.add_argument("--returns-column", default="return")
    p.add_argument("--price-column", default="close")
    p.add_argument("--grid-config", default=None,
                   help="JSON file of calibration-grid settings")
    p.add_argument("--ga-grid-step", type=float, default=None,
                   help="override the (a1, b1) grid step")
    p.set_defaults(grid=None)  # a replayed sidecar hands its grid over inline


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a replayed sidecar key must name its flag exactly
    parser = argparse.ArgumentParser(
        prog="novas",
        description="Model-free volatility forecasting and backtesting",
        allow_abbrev=False,
    )
    parser.add_argument("--from-sidecar", default=None,
                        help="replay a previous run from its sidecar JSON")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", allow_abbrev=False, help="generate synthetic returns")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale-t-errors", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", allow_abbrev=False, help="fit one transform variant")
    _add_input_flags(p)
    p.add_argument("--variant", required=True, choices=[v.value for v in NovasVariant])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("forecast", allow_abbrev=False, help="h-step ensemble forecast")
    _add_input_flags(p)
    p.add_argument("--variant", required=True, choices=[v.value for v in NovasVariant])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--paths", type=int, default=5000, help="ensemble size M")
    p.add_argument("--risk", choices=["L1", "L2"], default="L2")
    p.add_argument("--innovations", choices=KINDS, default="mc")
    p.add_argument("--statistic", choices=["aggregated", "step"], default="aggregated")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("backtest", allow_abbrev=False,
                       help="rolling pseudo-out-of-sample comparison")
    _add_input_flags(p)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--horizons", default="1,5,30")
    p.add_argument("--alpha-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--variants", default=None,
                   help="comma list of transform variants (default: all four)")
    p.add_argument("--risk", choices=["L1", "L2", "both"], default="both")
    p.add_argument("--innovations", choices=[*KINDS, "both"], default="both")
    p.add_argument("--paths", type=int, default=5000, help="ensemble size M")
    p.add_argument("--metric", choices=["squared", "literal"], default="squared")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes; default: usable CPUs; "
                        "results do not depend on it")
    p.add_argument("--table", action="store_true",
                   help="print the family-best relative table")
    p.add_argument("--output", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("report", allow_abbrev=False,
                       help="render tables and prediction/truth pairs")
    p.add_argument("--input", required=True, help="backtest report JSON")
    p.add_argument("--output", required=True, help="output path stem")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def _argv_from_sidecar(path: str) -> tuple[list[str], dict | None]:
    """The command line a sidecar records, each option turned into arguments
    by its value's type, and its resolved calibration grid (``None`` for
    commands without one), which is handed over inline."""
    with open(path) as fh:
        try:
            sidecar = json.load(fh)
            command = sidecar["command"]
            options = sidecar["options"]
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path!r} is not a novas sidecar: {exc!r}") from None
    if not isinstance(options, dict):
        raise DataError(f"{path!r} is not a novas sidecar: its options are not an object")
    argv, grid = [command], None
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, dict):
            grid = value
        elif value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        elif value is not False and value is not None:
            argv += [flag, str(value)]
    return argv, grid


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.from_sidecar:
            sidecar = args.from_sidecar
            replay, grid = _argv_from_sidecar(sidecar)
            args = parser.parse_args(replay)
            args.grid, args.from_sidecar = grid, sidecar
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 2
        return args.func(_options(args))
    except NovasError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
