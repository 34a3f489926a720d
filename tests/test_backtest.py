import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novas import (
    BacktestConfig,
    DataError,
    MethodKey,
    NovasVariant,
    ReturnSeries,
    Seed,
    TrimBoundError,
    format_table,
    generate,
    relative_report,
    run_rolling_poos,
    score_performance,
)
import novas.backtest
from novas.simulate import ModelSpec
from novas.weights import CalibrationGrid

FAST_GRID = CalibrationGrid(ge_c_count=6, ga_step=0.2)


def small_config(**overrides):
    base = dict(
        window=60,
        horizons=(1, 3),
        alpha_grid=(0.3, 0.6),
        variants=(NovasVariant.GE, NovasVariant.GA_NO_A0),
        risks=("L1", "L2"),
        kinds=("mc", "boot"),
        paths=150,
        seed=Seed(7),
        grid=FAST_GRID,
        threads=1,
    )
    base.update(overrides)
    return BacktestConfig(**base)


@pytest.fixture(scope="module")
def short_series():
    return generate(ModelSpec(model="M3", n=90, seed=Seed(21)))


@pytest.fixture(scope="module")
def small_report(short_series):
    return run_rolling_poos(short_series, small_config())


class TestScorePerformance:
    def test_zero_for_perfect(self):
        assert score_performance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        assert score_performance([1.0, 2.0], [0.0, 0.0]) == 5.0
        assert score_performance([1.0, 2.0], [0.0, 0.0], metric="literal") == 3.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            score_performance([1.0], [1.0, 2.0])

    @settings(max_examples=40)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=50),
    )
    def test_squared_homogeneity(self, values, c):
        preds = np.array(values)
        truths = preds[::-1].copy()
        base = score_performance(preds, truths)
        scaled = score_performance(c * preds, c * truths)
        assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)


class TestPreconditions:
    def test_window_must_be_smaller(self, short_series):
        with pytest.raises(DataError, match="smaller"):
            run_rolling_poos(short_series, small_config(window=len(short_series)))

    def test_insufficient_data(self, short_series):
        with pytest.raises(DataError, match="at least"):
            run_rolling_poos(short_series, small_config(window=89, horizons=(5,)))


class TestCounts:
    def test_prediction_count_arithmetic(self):
        y = generate(ModelSpec(model="M3", n=130, seed=Seed(2)))
        cfg = small_config(window=100, horizons=(1, 5, 30), alpha_grid=(0.5,),
                           variants=(NovasVariant.GE_NO_A0,), risks=("L2",),
                           kinds=("mc",))
        report = run_rolling_poos(y, cfg)
        assert report.counts == {1: 30, 5: 26, 30: 1}
        for s in report.scores:
            assert s.n_predictions == report.counts[s.horizon]

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=66, max_value=80),
        window=st.integers(min_value=60, max_value=63),
        h=st.integers(min_value=1, max_value=5),
    )
    def test_count_formula_property(self, n, window, h):
        # count = len - window - h + 1 whenever the run is admissible
        if n < window + h:
            return
        y = ReturnSeries(np.random.default_rng(n).normal(size=n))
        cfg = small_config(window=window, horizons=(h,), alpha_grid=(0.5,),
                           variants=(), risks=("L2",), kinds=("mc",),
                           include_garch_bootstrap=False)
        report = run_rolling_poos(y, cfg)
        assert report.counts[h] == n - window - h + 1


class TestReportInvariants:
    def test_benchmark_self_ratio_exactly_one(self, small_report):
        for h in small_report.horizons:
            s = small_report.score_for(MethodKey("GARCH_DIRECT"), h)
            assert s.ratio == 1.0

    def test_truths_match_hand_aggregates(self, short_series, small_report):
        values = short_series.values
        for h in small_report.horizons:
            for w0 in (0, 5, len(small_report.truths[h]) - 1):
                expected = float(np.mean(values[w0 + 60 : w0 + 60 + h] ** 2))
                assert small_report.truths[h][w0] == pytest.approx(expected, rel=1e-15)

    def test_family_best_bounds_members(self, small_report):
        for (family, h), best in small_report.best_per_family.items():
            members = [
                s for s in small_report.scores
                if s.method.family == family and s.horizon == h
            ]
            assert best.ratio <= min(m.ratio for m in members)
            assert best in members

    def test_all_method_scores_present(self, small_report):
        families = {s.method.family for s in small_report.scores}
        assert families == {"GE", "GA_NO_A0", "GARCH_BOOT", "GARCH_DIRECT"}
        novas_scores = [s for s in small_report.scores if s.method.family == "GE"]
        # 2 alphas x 2 risks x 2 kinds x 2 horizons
        assert len(novas_scores) == 16

    def test_predictions_nonnegative(self, small_report):
        for by_h in small_report.predictions.values():
            for arr in by_h.values():
                finite = arr[np.isfinite(arr)]
                assert np.all(finite >= 0.0)


class TestDeterminism:
    def test_same_seed_same_report(self, short_series):
        a = run_rolling_poos(short_series, small_config())
        b = run_rolling_poos(short_series, small_config())
        assert [s.score for s in a.scores] == [s.score for s in b.scores]
        for m in a.predictions:
            for h in a.predictions[m]:
                np.testing.assert_array_equal(a.predictions[m][h], b.predictions[m][h])

    def test_thread_schedule_independence(self, short_series, small_report):
        for workers in (2, 3):
            pooled = run_rolling_poos(short_series, small_config(threads=workers))
            assert [s.score for s in pooled.scores] == [
                s.score for s in small_report.scores
            ]
            assert pooled.predictions.keys() == small_report.predictions.keys()
            for m, by_h in small_report.predictions.items():
                for h, arr in by_h.items():
                    assert pooled.predictions[m][h].tobytes() == arr.tobytes(), (
                        workers, m.label(), h)

    def test_worker_error_reaches_caller(self, short_series, monkeypatch):
        def broken(*args, **kwargs):
            raise TrimBoundError("denominator below the guard")

        monkeypatch.setattr(novas.backtest, "simulate_paths", broken)
        with pytest.raises(TrimBoundError, match="denominator below the guard"):
            run_rolling_poos(short_series, small_config(threads=2))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(DataError, match="threads must be at least 1"):
            small_config(threads=workers)

    def test_default_worker_count_is_usable_cpus(self):
        assert small_config(threads=None).threads == len(os.sched_getaffinity(0))

    def test_seed_changes_predictions(self, short_series, small_report):
        other = run_rolling_poos(short_series, small_config(seed=Seed(8)))
        some_key = next(
            m for m in other.predictions if m.family == "GE" and m.kind == "mc"
        )
        assert not np.array_equal(
            other.predictions[some_key][1], small_report.predictions[some_key][1]
        )


class TestDegenerateWindows:
    def test_common_window_masking(self):
        rng = np.random.default_rng(3)
        values = rng.normal(scale=0.01, size=90)
        values[5:70] = 0.004  # constant stretch kills fully covered windows
        y = ReturnSeries(values)
        cfg = small_config(window=60, horizons=(1,), alpha_grid=(0.5,),
                           variants=(NovasVariant.GE_NO_A0,), risks=("L2",),
                           kinds=("mc",))
        report = run_rolling_poos(y, cfg)
        assert report.failed_windows[1] > 0
        counts = {s.n_predictions for s in report.scores if s.horizon == 1}
        assert len(counts) == 1  # every method scored on the same windows
        assert counts.pop() == report.counts[1] - report.failed_windows[1]


class TestRelativeReport:
    def test_rows_and_columns(self, small_report):
        rows = relative_report(small_report)
        assert [r["horizon"] for r in rows] == list(small_report.horizons)
        for row in rows:
            assert set(row) == {"horizon", "GE", "GA_NO_A0", "GARCH_BOOT",
                                "GARCH_DIRECT"}
            assert row["GARCH_DIRECT"] == 1.0

    def test_format_table_prints_benchmark_column(self, small_report):
        text = format_table(relative_report(small_report), label="demo")
        assert "demo" in text
        assert "1.00000" in text
        assert "GARCH_DIRECT" in text

    def test_infeasible_alphas_reported(self):
        y = generate(ModelSpec(model="M3", n=90, seed=Seed(21)))
        cfg = small_config(variants=(NovasVariant.GA,), alpha_grid=(0.1, 0.6),
                           grid=CalibrationGrid(ga_step=0.05, ge_c_count=6))
        report = run_rolling_poos(y, cfg)
        assert 0.1 in report.infeasible.get("GA", ())
