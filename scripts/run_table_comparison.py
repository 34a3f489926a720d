#!/usr/bin/env python3
"""Desk-scale reproduction of the simulated-data comparison tables.

For each requested data model, simulates a series, runs the full rolling
comparison (four transform variants x alpha grid x {L1,L2} x {MC,bootstrap}
plus the GARCH baselines), and prints the family-best benchmark-relative
table. With default settings one model takes a few minutes on a laptop;
``--fast`` trades grid resolution and ensemble size for speed.

Examples:
    python scripts/run_table_comparison.py --models M1 --seed 3 --fast
    python scripts/run_table_comparison.py --models M1,M3,M7 --n 500
"""

import argparse
import sys
import time

from novas import (
    BacktestConfig,
    Seed,
    format_table,
    generate,
    relative_report,
    run_rolling_poos,
)
from novas.simulate import MODELS, ModelSpec
from novas.weights import CalibrationGrid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", default="M1",
                        help="comma list out of M1..M8")
    parser.add_argument("--n", type=int, default=500, choices=(250, 500))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--paths", type=int, default=5000)
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes; default: usable CPUs; "
                             "results do not depend on it")
    parser.add_argument("--fast", action="store_true",
                        help="coarse GA grid and M=1000")
    args = parser.parse_args(argv)

    window = 250 if args.n == 500 else 100
    paths = 1000 if args.fast else args.paths
    grid = CalibrationGrid(ga_step=0.05) if args.fast else CalibrationGrid()

    for model in args.models.split(","):
        model = model.strip()
        if model not in MODELS:
            print(f"skipping unknown model {model!r}", file=sys.stderr)
            continue
        series = generate(ModelSpec(model=model, n=args.n, seed=Seed(args.seed)))
        cfg = BacktestConfig(
            window=window,
            horizons=(1, 5, 30),
            paths=paths,
            seed=Seed(args.seed),
            grid=grid,
            threads=args.threads,
        )
        started = time.perf_counter()
        report = run_rolling_poos(series, cfg)
        elapsed = time.perf_counter() - started
        label = (
            f"{model}: n={args.n}, window={window}, M={paths}, "
            f"seed={args.seed}  ({elapsed:.0f}s)"
        )
        print(format_table(relative_report(report), label=label))
        if report.infeasible:
            print(f"  infeasible alphas: {report.infeasible}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
