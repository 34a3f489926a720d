"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time (run with ``pytest tests/test_acceptance.py -v -s``).

The three Model-1 comparison runs are shared by the directional-reproduction,
stability, and table criteria, and by the check of ``scripts/study.py``'s
per-family rows, through a session fixture.
"""

import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from novas import (
    BacktestConfig,
    InnovationSource,
    NovasVariant,
    ReturnSeries,
    Seed,
    SourceKind,
    build_weights,
    calibrate,
    fit_garch11_mle,
    forward_transform,
    generate,
    inverse_step,
    relative_report,
    run_rolling_poos,
    substream,
)
from novas.backtest import family_best, format_table, spike_ratio
from novas.innovations import _rejection_normal, resample_indices
from novas.predictor import ForecastRequest, Risk, innovation_source, predict
from novas.returns import variance_path
from novas.simulate import ModelSpec
from novas.weights import A0_MAX, CalibrationGrid

from oracles import oracle_calibrate

ALPHAS = tuple(k / 10 for k in range(1, 9))


def report_line(number, title, elapsed, budget, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {title:<38s} {status}  "
          f"({elapsed:6.1f}s / budget {budget:.0f}s)")


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def sample_feasible(variant, rng):
    """One uniformly random feasible grid point for the given variant."""
    alpha = float(rng.uniform(0.05, 0.9))
    if variant is NovasVariant.GE_NO_A0:
        return alpha, float(rng.uniform(0.0, 5.0)), int(rng.integers(1, 40))
    if variant is NovasVariant.GA_NO_A0:
        return alpha, (1.0, float(rng.uniform(0.02, 0.98))), int(rng.integers(1, 40))
    if variant is NovasVariant.GE:
        while True:
            c = float(np.exp(rng.uniform(np.log(0.005), np.log(5.0))))
            order = int(rng.integers(1, 61))
            profile = np.exp(-c * np.arange(order + 1))
            if (1.0 - alpha) / profile.sum() <= A0_MAX:
                return alpha, c, order
            alpha = float(rng.uniform(0.05, 0.9))
    while True:  # GA: solve the feasible a1 interval given (alpha, b1, q)
        alpha = float(rng.uniform(0.05, 0.9))
        b1 = float(rng.uniform(0.02, 0.98))
        q = int(rng.integers(1, 41))
        G = (1.0 - b1**q) / (1.0 - b1)
        lo = max((1.0 - alpha - A0_MAX) / G, 1e-6)
        hi = min((1.0 - alpha) / G, (1.0 - alpha) / (1.0 + G))
        if lo < hi:
            return alpha, (float(rng.uniform(lo, hi)), b1), q


def test_criterion_01_constraint_suite():
    with timer() as t:
        rng = np.random.default_rng(2024)
        for variant in NovasVariant:
            for _ in range(1000):
                alpha, shape, order = sample_feasible(variant, rng)
                w = build_weights(variant, alpha, shape, order)
                mass = w.y2_self_coef + w.alpha + float(w.lags.sum())
                assert abs(mass - 1.0) < 1e-12
                if w.a0 > 0:
                    assert w.a0 <= A0_MAX
    report_line(1, "weight-sum constraints, a0 bound", t.elapsed, 10)
    assert t.elapsed < 10


def test_criterion_02_round_trip_suite():
    with timer() as t:
        rng = np.random.default_rng(7)
        fixed = {
            NovasVariant.GE: build_weights(NovasVariant.GE, 0.3, 0.1, 12),
            NovasVariant.GE_NO_A0: build_weights(NovasVariant.GE_NO_A0, 0.5, 0.5, 8),
            NovasVariant.GA: build_weights(NovasVariant.GA, 0.5, (0.02, 0.98), 30),
            NovasVariant.GA_NO_A0: build_weights(NovasVariant.GA_NO_A0, 0.4, (1.0, 0.9), 10),
        }
        for i in range(100):
            values = rng.normal(size=80) * rng.uniform(0.05, 20)
            vp = variance_path(values)
            for variant, w in fixed.items():
                res = forward_transform(ReturnSeries(values), w)
                for j in range(0, res.size, 7):
                    t0 = w.order + j
                    lagged = values[t0 - w.order : t0][::-1] ** 2
                    back = inverse_step(res[j], lagged, vp[t0], w)
                    assert abs(back - abs(values[t0])) <= 1e-10 * max(
                        abs(values[t0]), 1e-30
                    )
    report_line(2, "forward/inverse round trip", t.elapsed, 30)
    assert t.elapsed < 30


def test_criterion_03_calibration_efficacy():
    with timer() as t:
        grid = CalibrationGrid()
        objectives = {v: [] for v in NovasVariant}
        for seed in range(20):
            y = generate(ModelSpec(model="M3", n=500, seed=Seed(seed)))
            for variant in NovasVariant:
                ct = calibrate(variant, 0.5, y, grid)
                objectives[variant].append(ct.objective)
                params, order, best = oracle_calibrate(variant, 0.5, y.values, grid)
                assert tuple(ct.weights.shape) == pytest.approx(params, rel=1e-12)
                assert ct.weights.order == order
                assert ct.objective == pytest.approx(best, rel=1e-9)
                assert ct.objective <= best * (1.0 + 1e-9)
        for variant, vals in objectives.items():
            assert float(np.median(vals)) <= 0.5, variant
    report_line(3, "calibration efficacy vs oracle", t.elapsed, 300)
    assert t.elapsed < 300


def test_criterion_04_sampler_suite():
    def trimmed_normal(bound, count, seed):
        source = InnovationSource(SourceKind.TRIMMED_NORMAL, bound=bound)
        return source.draw(substream(seed), (count,))

    with timer() as t:
        draws = trimmed_normal(3.0, 10**5, Seed(0))
        assert np.abs(draws).max() <= 3.0
        free = trimmed_normal(math.inf, 10**6, Seed(1))
        assert abs(free.mean()) < 0.005
        assert abs(free.var() - 1.0) < 0.01
        _, attempts = _rejection_normal(substream(Seed(7)), 3.0, 10**6)
        rate = 10**6 / attempts
        assert abs(rate - (norm.cdf(3.0) - norm.cdf(-3.0))) < 0.002
        # the bootstrap's resampler: a gather at an index block
        coin = np.array([-1.0, 1.0])
        boot = coin[resample_indices(substream(Seed(11)), 10**6, 1, coin.size)]
        assert boot.size == 10**6
        assert abs(np.mean(boot == 1.0) - 0.5) < 0.005
        np.testing.assert_array_equal(
            trimmed_normal(3.0, 1000, Seed(5)),
            trimmed_normal(3.0, 1000, Seed(5)),
        )
    report_line(4, "innovation samplers", t.elapsed, 60)
    assert t.elapsed < 60


def test_criterion_05_garch_recovery():
    with timer() as t:
        hits = 0
        for seed in range(10):
            y = generate(ModelSpec(model="M3", n=5000, seed=Seed(seed)))
            p = fit_garch11_mle(y).params
            if abs(p.alpha1 - 0.1) <= 0.05 and abs(p.beta1 - 0.73) <= 0.05:
                hits += 1
        assert hits >= 9, f"only {hits}/10 recoveries inside the band"
    report_line(5, f"GARCH MLE recovery ({hits}/10)", t.elapsed, 120)
    assert t.elapsed < 120


def test_criterion_06_monte_carlo_stability():
    with timer() as t:
        y = generate(ModelSpec(model="M3", n=500, seed=Seed(100)))
        values = y.values
        for w0 in range(0, 100, 10):
            window = ReturnSeries(values[w0 : w0 + 250])
            ct = calibrate(NovasVariant.GE, 0.5, window)
            source = innovation_source(ct, "TRIMMED_NORMAL")
            points = [
                predict(
                    ct,
                    ForecastRequest(
                        horizon=1, source=source, paths=5000,
                        risk=Risk.L2, seed=Seed(s),
                    ),
                ).point
                for s in (1, 2)
            ]
            assert abs(points[0] - points[1]) / points[0] < 0.05
    report_line(6, "Monte-Carlo stability (h=1, M=5000)", t.elapsed, 300)


MODEL1_SEEDS = (3, 4, 5)


@pytest.fixture(scope="session")
def model1_reports():
    reports = {}
    cfg = None
    for seed in MODEL1_SEEDS:
        y = generate(ModelSpec(model="M1", n=500, seed=Seed(seed)))
        cfg = BacktestConfig(
            window=250,
            horizons=(1, 5, 30),
            alpha_grid=ALPHAS,
            paths=1000,
            seed=Seed(seed),
            grid=CalibrationGrid(ga_step=0.05),
            threads=2,
        )
        reports[seed] = run_rolling_poos(y, cfg)
    return reports


def test_criterion_07_directional_reproduction(model1_reports):
    with timer() as t:
        families = ("GE", "GE_NO_A0", "GA", "GA_NO_A0")
        misses = []  # every (seed, family, horizon, ratio) outside its band
        for seed, report in model1_reports.items():
            best = family_best([s for s in report.scores if s.method.risk != "L1"])
            for family in families:
                r30 = best[family, 30]
                r1 = best[family, 1]
                if not r30 < 0.2:
                    misses.append((seed, family, 30, r30))
                if not r1 < 1.1:
                    misses.append((seed, family, 1, r1))
        assert not misses, f"{len(misses)} misses (seed, family, horizon, ratio): {misses}"
    report_line(7, "Model-1 relative-performance bands", t.elapsed, 1800)


def test_criterion_08_a0_removal_stability(model1_reports):
    with timer() as t:
        wins = {"GE": 0, "GA": 0}
        spikes = {}  # seed -> {family: spike ratio}
        for seed, report in model1_reports.items():
            # hard assertion: the runs completed without any trim-guard
            # failure, and every a0-free prediction is finite
            for method, by_h in report.predictions.items():
                if method.family in ("GE_NO_A0", "GA_NO_A0"):
                    for h, arr in by_h.items():
                        assert np.all(np.isfinite(arr)), (seed, method, h)
            spikes[seed] = {
                f: spike_ratio(report, f, 30) for f in ("GE", "GE_NO_A0", "GA", "GA_NO_A0")
            }
            if spikes[seed]["GE_NO_A0"] < spikes[seed]["GE"]:
                wins["GE"] += 1
            if spikes[seed]["GA_NO_A0"] < spikes[seed]["GA"]:
                wins["GA"] += 1
        assert wins["GE"] >= 2, f"wins {wins}, spike ratios per seed {spikes}"
        assert wins["GA"] >= 2, f"wins {wins}, spike ratios per seed {spikes}"
    report_line(8, f"a0-removal stability {dict(wins)}", t.elapsed, 600)


def l2_family_best_ratio(report, family, horizon):
    """Reference for ``family_best``: the minimum ratio over the family's
    scores whose risk is None or L2."""
    ratios = [
        s.ratio
        for s in report.scores
        if s.method.family == family
        and s.horizon == horizon
        and (s.method.risk in (None, "L2"))
    ]
    return min(ratios)


def np_spike_ratio(report, family):
    """Reference for ``spike_ratio``: the worst max/``np.median`` of the
    family's per-window 30-step L2 predictions."""
    worst = 0.0
    for method, by_h in report.predictions.items():
        if method.family != family or method.risk != "L2" or 30 not in by_h:
            continue
        arr = by_h[30]
        arr = arr[np.isfinite(arr)]
        worst = max(worst, float(arr.max() / np.median(arr)))
    return worst


def test_study_family_rows_match_the_reference(model1_reports):
    # the rows that scripts/study.py prints for criteria 07 and 08, read
    # from the criteria's own reports
    path = Path(__file__).resolve().parents[1] / "scripts" / "study.py"
    spec = importlib.util.spec_from_file_location("study", path)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    for report in model1_reports.values():
        assert study.family_rows(report) == {
            f: (l2_family_best_ratio(report, f, 1), l2_family_best_ratio(report, f, 30),
                np_spike_ratio(report, f))
            for f in ("GE", "GE_NO_A0", "GA", "GA_NO_A0")
        }


def test_criterion_09_prediction_counts():
    with timer() as t:
        y = generate(ModelSpec(model="M3", n=499, seed=Seed(0)))
        cfg = BacktestConfig(
            window=250,
            horizons=(1, 5, 30),
            variants=(),
            paths=100,
            seed=Seed(0),
            threads=2,
        )
        report = run_rolling_poos(y, cfg)
        assert report.counts == {1: 249, 5: 245, 30: 220}
        for s in report.scores:
            assert s.n_predictions == report.counts[s.horizon]
    report_line(9, "prediction-count arithmetic 249/245/220", t.elapsed, 300)


def test_criterion_10_benchmark_self_ratio(model1_reports):
    with timer() as t:
        for report in model1_reports.values():
            rows = relative_report(report)
            for row in rows:
                assert row["GARCH_DIRECT"] == 1.0
            text = format_table(rows)
            assert "1.00000" in text
            for s in report.scores:
                if s.method.family == "GARCH_DIRECT":
                    assert s.ratio == 1.0
    report_line(10, "benchmark self-ratio exactly 1", t.elapsed, 60)
