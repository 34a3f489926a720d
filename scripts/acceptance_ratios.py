#!/usr/bin/env python3
"""Print the numbers that acceptance criteria 07 and 08 judge, on their own
config: Model-1 series of 500 returns at seeds 3, 4 and 5, a window of 250,
horizons 1, 5 and 30, the alpha grid 0.1-0.8, M=1000 paths and a GA grid
step of 0.05.

For each seed and NoVaS family it prints the family's best L2 ratio to
GARCH_DIRECT at h=1 (criterion 07's band: below 1.1) and at h=30 (below
0.2), and criterion 08's spike ratio: the worst max/median of any of the
family's per-window 30-step L2 predictions. Criterion 08 asks each a0-free
family to spike less than its a0 family on at least two of the three seeds.
A change that alters the random streams records these numbers before and
after it, the same way.

    python scripts/acceptance_ratios.py
"""

import argparse
import sys

import numpy as np

from novas import BacktestConfig, CalibrationGrid, ModelSpec, Seed, generate, run_rolling_poos

SEEDS = (3, 4, 5)
FAMILIES = ("GE", "GE_NO_A0", "GA", "GA_NO_A0")


def best_l2_ratio(report, family, horizon):
    return min(
        s.ratio for s in report.scores
        if s.method.family == family and s.horizon == horizon
        and s.method.risk in (None, "L2")
    )


def spike_ratio(report, family):
    worst = 0.0
    for method, by_h in report.predictions.items():
        if method.family == family and method.risk == "L2":
            preds = by_h[30][np.isfinite(by_h[30])]
            worst = max(worst, float(preds.max() / np.median(preds)))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes; default: usable CPUs; "
                             "results do not depend on it")
    args = parser.parse_args(argv)

    print(f"{'seed':<6}{'family':<10}{'h=1 L2':>10}{'h=30 L2':>10}{'spike':>10}")
    for seed in SEEDS:
        y = generate(ModelSpec(model="M1", n=500, seed=Seed(seed)))
        cfg = BacktestConfig(
            window=250,
            horizons=(1, 5, 30),
            alpha_grid=tuple(k / 10 for k in range(1, 9)),
            paths=1000,
            seed=Seed(seed),
            grid=CalibrationGrid(ga_step=0.05),
            threads=args.threads,
        )
        report = run_rolling_poos(y, cfg)
        for family in FAMILIES:
            print(
                f"{seed:<6}{family:<10}{best_l2_ratio(report, family, 1):>10.4f}"
                f"{best_l2_ratio(report, family, 30):>10.4f}"
                f"{spike_ratio(report, family):>10.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
