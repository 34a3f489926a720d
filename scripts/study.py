#!/usr/bin/env python3
"""Rolling comparisons of the NoVaS families with the GARCH baselines, on
simulated series, for the abstract's claims: a gain at a longer horizon
(the h=30 ratios against h=1) and at a shorter sample size (n=250 with a
window of 100 against n=500 with a window of 250).

A preset fixes the sample sizes and the ensemble; every preset uses
horizons 1, 5 and 30 and the alpha grid 0.1-0.8:

    acceptance  n=500, window 250, M=1000, GA grid step 0.05: the config of
                acceptance criteria 07 and 08
    pairs       that config, then n=250 with a window of 100
    paper       both sample sizes at M=5000 and the default grid

For every model, (n, window) pair and seed it prints the family-best table
of ratios to GARCH_DIRECT over both risks, the alphas infeasible at the
window length, and one row per NoVaS family: its best L2 ratio at h=1
(criterion 07's band: below 1.1) and at h=30 (below 0.2), and its spike
ratio, the worst max/median of any of its per-window 30-step L2
predictions. Criterion 08 asks each a0-free family to spike less than its
a0 family on at least two of seeds 3-5. A change that alters the random
streams records the ``acceptance`` rows before and after it.

    python scripts/study.py acceptance
    python scripts/study.py pairs --models M1,M3 --seeds 3
    python scripts/study.py paper --threads 2
"""

import argparse
import sys
import time

from novas import (
    BacktestConfig,
    CalibrationGrid,
    ModelSpec,
    Seed,
    format_table,
    generate,
    relative_report,
    run_rolling_poos,
)
from novas.backtest import family_best, spike_ratio
from novas.simulate import MODELS

FAMILIES = ("GE", "GE_NO_A0", "GA", "GA_NO_A0")
# preset: ((n, window) pairs, paths, grid)
PRESETS = {
    "acceptance": (((500, 250),), 1000, CalibrationGrid(ga_step=0.05)),
    "pairs": (((500, 250), (250, 100)), 1000, CalibrationGrid(ga_step=0.05)),
    "paper": (((500, 250), (250, 100)), 5000, CalibrationGrid()),
}


def family_rows(report) -> dict[str, tuple[float, float, float]]:
    """Each NoVaS family's best L2 ratio at h=1 and h=30 and its spike ratio."""
    best = family_best([s for s in report.scores if s.method.risk != "L1"])
    return {f: (best[f, 1], best[f, 30], spike_ratio(report, f, 30)) for f in FAMILIES}


def models(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",")]
    unknown = [name for name in names if name not in MODELS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown models {unknown}; MODELS are {', '.join(MODELS)}")
    return names


def seeds(text: str) -> list[int]:
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("preset", choices=PRESETS)
    parser.add_argument("--models", type=models, default=["M1"],
                        help="comma list out of M1..M8 (default M1)")
    parser.add_argument("--seeds", type=seeds, default=[3, 4, 5],
                        help="comma list of seeds (default 3,4,5)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes; default: usable CPUs; "
                             "results do not depend on it")
    args = parser.parse_args(argv)
    pairs, paths, grid = PRESETS[args.preset]

    for name in args.models:
        for n, window in pairs:
            for seed in args.seeds:
                series = generate(ModelSpec(model=name, n=n, seed=Seed(seed)))
                cfg = BacktestConfig(window=window, horizons=(1, 5, 30), paths=paths,
                                     seed=Seed(seed), grid=grid, threads=args.threads)
                started = time.perf_counter()
                report = run_rolling_poos(series, cfg)
                elapsed = time.perf_counter() - started
                label = (f"{name}: n={n}, window={window}, M={paths}, "
                         f"seed={seed}  ({elapsed:.0f}s)")
                print(format_table(relative_report(report), label=label))
                if report.infeasible:
                    print(f"  infeasible alphas: {report.infeasible}")
                print(f"{'seed':<6}{'family':<10}{'h=1 L2':>10}{'h=30 L2':>10}"
                      f"{'spike':>10}")
                for family, (r1, r30, spike) in family_rows(report).items():
                    print(f"{seed:<6}{family:<10}{r1:>10.4f}{r30:>10.4f}{spike:>10.1f}")
                print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
