"""Command-line front end: simulate data, calibrate transforms, forecast,
backtest, and render reports.

Every run writes its outputs atomically and drops a JSON sidecar holding the
fully resolved configuration (defaults and seed included); ``novas
--from-sidecar run.sidecar.json`` replays a run byte-identically. Errors exit
nonzero with a single machine-parseable ``error:<category>: <message>`` line.
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
from .returns import (
    ReturnSeries,
    load_price_csv,
    load_returns_csv,
    sample_kurtosis,
    to_log_returns,
)
from .simulate import MODELS, ModelSpec, generate
from .transform import calibrate
from .weights import CalibrationGrid, NovasVariant


def _write_atomic(path: Path, text: str) -> None:
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


def _sidecar(command: str, options: dict, outputs: list[str]) -> dict:
    return {
        "command": command,
        "options": options,
        "outputs": outputs,
        "tool": {"name": "novas", "version": __version__},
    }


def _write_sidecar(output: str, command: str, options: dict, outputs: list[str]):
    _write_atomic(Path(str(output) + ".sidecar.json"),
                  _json_text(_sidecar(command, options, outputs)))


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("NOVAS_SEED")
    return int(env) if env else 0


def _load_returns(args) -> ReturnSeries:
    path = args.input
    with open(path, newline="") as fh:
        header = fh.readline()
    columns = [c.strip() for c in header.strip().split(",")]
    if args.returns_column in columns:
        return load_returns_csv(path, args.returns_column)
    if args.price_column in columns:
        return to_log_returns(load_price_csv(path, args.price_column))
    raise DataError(
        f"{path!r} has neither a {args.returns_column!r} nor a "
        f"{args.price_column!r} column (found {columns})"
    )


def _grid_from_args(args) -> CalibrationGrid:
    if getattr(args, "grid", None) is not None:  # inline from a replayed sidecar
        grid = CalibrationGrid.from_dict(args.grid)
    elif getattr(args, "grid_config", None):
        with open(args.grid_config) as fh:
            grid = CalibrationGrid.from_dict(json.load(fh))
    else:
        grid = CalibrationGrid()
    if getattr(args, "ga_grid_step", None):
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


def _cmd_simulate(args) -> int:
    options = {
        "model": args.model,
        "n": args.n,
        "burn_in": args.burn_in,
        "seed": _default_seed(args.seed),
        "scale_t_errors": bool(args.scale_t_errors),
        "output": str(args.output),
    }
    spec = ModelSpec(
        model=options["model"],
        n=options["n"],
        burn_in=options["burn_in"],
        seed=Seed(options["seed"]),
        scale_t_errors=options["scale_t_errors"],
    )
    series = generate(spec)
    rows = [[i, repr(float(v))] for i, v in enumerate(series.values)]
    _write_atomic(Path(args.output), _csv_text(["index", "return"], rows))
    _write_sidecar(args.output, "simulate", options, [str(args.output)])
    print(f"wrote {len(series)} returns to {args.output}")
    return 0


def _calibration_options(args) -> dict:
    return {
        "input": str(args.input),
        "returns_column": args.returns_column,
        "price_column": args.price_column,
        "variant": args.variant,
        "alpha": args.alpha,
        "grid": _grid_from_args(args).to_dict(),
    }


def _cmd_calibrate(args) -> int:
    options = _calibration_options(args)
    options["output"] = str(args.output)
    y = _load_returns(args)
    grid = CalibrationGrid.from_dict(options["grid"])
    ct = calibrate(NovasVariant(args.variant), args.alpha, y, grid)
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
    _write_atomic(Path(args.output), _json_text(payload))
    _write_sidecar(args.output, "calibrate", options, [str(args.output)])
    print(f"calibrated {ct.variant.value} alpha={ct.weights.alpha:g} "
          f"objective={ct.objective:.6f} -> {args.output}")
    return 0


def _cmd_forecast(args) -> int:
    options = _calibration_options(args)
    options.update(
        horizon=args.horizon,
        paths=args.paths,
        risk=args.risk,
        innovations=args.innovations,
        statistic=args.statistic,
        seed=_default_seed(args.seed),
        output=str(args.output),
    )
    y = _load_returns(args)
    grid = CalibrationGrid.from_dict(options["grid"])
    ct = calibrate(NovasVariant(args.variant), args.alpha, y, grid)
    statistic = (
        Statistic.AGGREGATED_SQUARED
        if args.statistic == "aggregated"
        else Statistic.SQUARED_STEP
    )
    req = ForecastRequest(
        horizon=args.horizon,
        source=innovation_source(ct, KIND_TO_SOURCE[args.innovations]),
        paths=args.paths,
        risk=Risk(args.risk),
        statistic=statistic,
        seed=Seed(options["seed"]),
    )
    result = predict(ct, req)
    payload = forecast_json(
        result,
        method=f"{ct.variant.value}/{args.innovations}",
        variant=ct.variant.value,
        alpha=ct.weights.alpha,
    )
    _write_atomic(Path(args.output), _json_text(payload))
    _write_sidecar(args.output, "forecast", options, [str(args.output)])
    print(f"h={args.horizon} {args.risk} point={result.point!r} -> {args.output}")
    return 0


def _parse_horizons(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise DataError(f"cannot parse horizons {text!r}") from None


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise DataError(f"cannot parse alpha grid {text!r}") from None


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


def _cmd_backtest(args) -> int:
    options = {
        "input": str(args.input),
        "returns_column": args.returns_column,
        "price_column": args.price_column,
        "window": args.window,
        "horizons": list(_parse_horizons(args.horizons)),
        "alpha_grid": list(_parse_alpha_grid(args.alpha_grid)),
        "variants": args.variants.split(",") if args.variants else [v.value for v in NovasVariant],
        "risk": args.risk,
        "innovations": args.innovations,
        "paths": args.paths,
        "metric": args.metric,
        "seed": _default_seed(args.seed),
        "threads": args.threads,
        "grid": _grid_from_args(args).to_dict(),
        "output": str(args.output),
        "table": bool(args.table),
    }
    y = _load_returns(args)
    cfg = BacktestConfig(
        window=options["window"],
        horizons=tuple(options["horizons"]),
        alpha_grid=tuple(options["alpha_grid"]),
        variants=tuple(NovasVariant(v) for v in options["variants"]),
        risks=("L1", "L2") if args.risk == "both" else (args.risk,),
        kinds=KINDS if args.innovations == "both" else (args.innovations,),
        paths=options["paths"],
        seed=Seed(options["seed"]),
        grid=CalibrationGrid.from_dict(options["grid"]),
        metric=options["metric"],
        threads=options["threads"],
    )
    report = run_rolling_poos(y, cfg)
    payload = _report_payload(report, options)

    out_json = Path(args.output)
    _write_atomic(out_json, _json_text(payload))
    out_csv = out_json.with_suffix(".csv")
    _write_atomic(out_csv, _csv_text(_SCORE_HEADER, _score_rows(payload)))
    _write_sidecar(args.output, "backtest", options, [str(out_json), str(out_csv)])
    if args.table:
        print(format_table(payload["table"]))
    print(f"wrote {out_json} and {out_csv}")
    return 0


def _cmd_report(args) -> int:
    options = {"input": str(args.input), "output": str(args.output), "table": bool(args.table)}
    with open(args.input) as fh:
        payload = json.load(fh)
    out = Path(args.output)

    table_rows = payload["table"]
    families = [k for k in table_rows[0] if k != "horizon"]
    table_csv = _csv_text(
        ["horizon"] + families,
        [[row["horizon"]] + [repr(row[f]) if row[f] is not None else "" for f in families]
         for row in table_rows],
    )
    _write_atomic(out.with_suffix(".table.csv"), table_csv)

    pair_rows = []
    for method, by_h in payload["predictions"].items():
        for h, preds in by_h.items():
            truths = payload["truths"][h]
            for i, (p, t) in enumerate(zip(preds, truths)):
                pair_rows.append(
                    [method, h, i, "" if p is None else repr(p), repr(t)]
                )
    pairs_csv = _csv_text(
        ["method", "horizon", "window", "prediction", "truth"], pair_rows
    )
    _write_atomic(out.with_suffix(".pairs.csv"), pairs_csv)

    _write_sidecar(
        args.output, "report", options,
        [str(out.with_suffix(".table.csv")), str(out.with_suffix(".pairs.csv"))],
    )
    if args.table:
        print(format_table(table_rows))
    print(f"wrote {out.with_suffix('.table.csv')} and {out.with_suffix('.pairs.csv')}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV of returns or prices")
    p.add_argument("--returns-column", default="return")
    p.add_argument("--price-column", default="close")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-config", default=None,
                   help="JSON file of calibration-grid settings")
    p.add_argument("--ga-grid-step", type=float, default=None,
                   help="override the (a1, b1) grid step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novas",
        description="Model-free volatility forecasting and backtesting",
    )
    parser.add_argument("--from-sidecar", default=None,
                        help="replay a previous run from its sidecar JSON")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="generate synthetic returns")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale-t-errors", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="fit one transform variant")
    _add_input_flags(p)
    _add_grid_flags(p)
    p.add_argument("--variant", required=True, choices=[v.value for v in NovasVariant])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("forecast", help="h-step ensemble forecast")
    _add_input_flags(p)
    _add_grid_flags(p)
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

    p = sub.add_parser("backtest", help="rolling pseudo-out-of-sample comparison")
    _add_input_flags(p)
    _add_grid_flags(p)
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

    p = sub.add_parser("report", help="render tables and prediction/truth pairs")
    p.add_argument("--input", required=True, help="backtest report JSON")
    p.add_argument("--output", required=True, help="output path stem")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def _argv_from_sidecar(path: str) -> tuple[list[str], dict | None]:
    """The command line a sidecar records, and its resolved calibration grid
    (``None`` for commands without one), which is handed over inline."""
    with open(path) as fh:
        try:
            sidecar = json.load(fh)
            command = sidecar["command"]
            options = sidecar["options"]
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path!r} is not a novas sidecar: {exc!r}") from None
    argv = [command]
    skip = {"grid"}
    flags_true = {"table", "scale_t_errors"}
    for key, value in options.items():
        if key in skip or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key in flags_true:
            if value:
                argv.append(flag)
            continue
        if isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    return argv, options.get("grid")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.from_sidecar:
            replay, grid = _argv_from_sidecar(args.from_sidecar)
            args = parser.parse_args(replay)
            args.grid = grid
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 2
        return args.func(args)
    except NovasError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
