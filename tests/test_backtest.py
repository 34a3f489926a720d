import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novas import (
    BacktestConfig,
    CalibrationError,
    DataError,
    FitError,
    ForecastRequest,
    MethodKey,
    NovasVariant,
    ReturnSeries,
    Risk,
    Seed,
    TrimBoundError,
    calibrate,
    fit_garch11_mle,
    format_table,
    generate,
    innovation_source,
    predict,
    relative_report,
    run_rolling_poos,
    score_performance,
    simulate_paths,
    substream,
)
import novas.backtest
import novas.predictor
from novas.backtest import KIND_TO_SOURCE, KINDS
from novas.predictor import MIN_PATHS, aggregated_squared
from novas.simulate import ModelSpec
from novas.weights import CalibrationGrid

from oracles import oracle_garch_bootstrap_paths

FAST_GRID = CalibrationGrid(ge_c_count=6, ga_step=0.2)


def running_means(paths, horizons):
    """Per-path means of an ``(M, h)`` ensemble's first ``h`` squares at
    each horizon, through the library's reduction of its step-major squares."""
    return aggregated_squared(np.square(np.asarray(paths).T, order="C"), horizons)


def numpy_point(stats, risk):
    """The risk-optimal point of per-path statistics by numpy: the mean under
    L2, the median under L1."""
    return float(np.mean(stats) if Risk(risk) is Risk.L2 else np.median(stats))


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

    def test_ensemble_below_minimum(self):
        small_config(paths=MIN_PATHS)
        with pytest.raises(DataError, match=f"minimum {MIN_PATHS}"):
            small_config(paths=MIN_PATHS - 1)

    def test_unknown_risk(self):
        with pytest.raises(DataError, match="risks must be among"):
            small_config(risks=("L3",))

    # each used to pass and fail inside the run with a bare TypeError
    @pytest.mark.parametrize("field, value", [
        ("window", 60.0), ("horizons", (1, 3.0)), ("paths", 1000.0),
        ("threads", 2.0), ("threads", "2"),
    ])
    def test_non_integer_count_refused(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be an integer"):
            small_config(**{field: value})
        cfg = small_config(window=np.int64(60), horizons=(np.int32(3), 1),
                           paths=np.int64(150), threads=np.int64(1))
        assert (cfg.window, cfg.horizons, cfg.paths, cfg.threads) == (60, (1, 3), 150, 1)
        assert all(type(v) is int for v in (cfg.window, *cfg.horizons, cfg.paths,
                                             cfg.threads))

    REPEATED = {
        "alpha_grid": (0.5, 0.5),
        "variants": (NovasVariant.GE, "GE"),
        "risks": ("L2", "L1", "L2"),
        "kinds": ("mc", "mc"),
    }

    @pytest.mark.parametrize("name", REPEATED)
    def test_repeated_entry(self, name):
        # not deduplicated: an alpha's position keys its substream
        with pytest.raises(DataError, match=f"{name} repeats an entry"):
            small_config(**{name: self.REPEATED[name]})

    # each used to escape as a bare ValueError or TypeError
    UNKNOWN = {
        "variants": (("XX",), "variants must be among"),
        "alpha_grid": (("0.5",), "every alpha must be a number"),
    }

    @pytest.mark.parametrize("name", UNKNOWN)
    def test_unknown_entry(self, name):
        value, message = self.UNKNOWN[name]
        with pytest.raises(DataError, match=message):
            BacktestConfig(window=100, **{name: value})

    # each used to escape as a bare TypeError
    @pytest.mark.parametrize("name, value", [
        ("horizons", 5), ("alpha_grid", 0.5), ("variants", None), ("risks", 2),
        ("kinds", None),
    ])
    def test_scalar_for_a_sequence_refused(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be a sequence, got {value}"):
            BacktestConfig(window=250, **{name: value})
        cfg = BacktestConfig(window=250, horizons=[5, 1], alpha_grid=np.array([0.5]),
                             risks=["L2"])
        assert (cfg.horizons, cfg.alpha_grid, cfg.risks) == ((1, 5), (0.5,), ("L2",))


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
                           variants=(), risks=("L2",), kinds=("mc",))
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
        for row in relative_report(small_report):
            h = row.pop("horizon")
            for family, best in row.items():
                members = [
                    s.ratio for s in small_report.scores
                    if s.method.family == family and s.horizon == h
                ]
                assert best == min(members)

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

        monkeypatch.setattr(novas.predictor, "simulate_paths", broken)
        with pytest.raises(TrimBoundError, match="denominator below the guard"):
            run_rolling_poos(short_series, small_config(threads=2))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(DataError, match="threads must be at least 1"):
            small_config(threads=workers)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="os.sched_getaffinity exists only on Linux")
    def test_default_worker_count_is_usable_cpus(self):
        assert small_config(threads=None).threads == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_default_worker_count_without_affinity(self, cpus, workers, monkeypatch):
        # os.sched_getaffinity exists only on Linux
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert small_config(threads=None).threads == workers

    def test_l2_only_run_predicts_as_the_both_risk_run(self, short_series, small_report):
        # an L2-only run skips the medians, which must not touch the means
        single = run_rolling_poos(short_series, small_config(risks=("L2",)))
        keys = [m for m in small_report.predictions if m.risk in ("L2", None)]
        assert set(single.predictions) == set(keys)
        for m in keys:
            for h, arr in small_report.predictions[m].items():
                assert single.predictions[m][h].tobytes() == arr.tobytes(), (
                    m.label(), h)

    def test_mc_ensembles_independent_of_the_other_methods(self, short_series,
                                                           small_report):
        # the window's shared normals are keyed by the window alone and drawn
        # at its largest horizon, whichever methods it runs
        single = run_rolling_poos(
            short_series, small_config(variants=(NovasVariant.GE,), kinds=("mc",))
        )
        keys = [m for m in single.predictions if m.family == "GE"]
        assert {m.kind for m in keys} == {"mc"} and len(keys) == 4
        for m in keys:
            for h, arr in small_report.predictions[m].items():
                assert single.predictions[m][h].tobytes() == arr.tobytes(), (
                    m.label(), h)

    def test_boot_ensembles_independent_of_the_other_methods(self, short_series,
                                                             small_report):
        # the window's shared uniforms are keyed by the window alone and drawn
        # at its largest horizon, whichever methods it runs, and so are the
        # index blocks built from them
        single = run_rolling_poos(
            short_series, small_config(variants=(NovasVariant.GE,), kinds=("boot",))
        )
        keys = [m for m in single.predictions if m.family in ("GE", "GARCH_BOOT")]
        assert {m.kind for m in keys} == {"boot", None} and len(keys) == 4 + 2
        for m in keys:
            for h, arr in small_report.predictions[m].items():
                assert single.predictions[m][h].tobytes() == arr.tobytes(), (
                    m.label(), h)

    def test_seed_changes_predictions(self, short_series, small_report):
        other = run_rolling_poos(short_series, small_config(seed=Seed(8)))
        some_key = next(
            m for m in other.predictions if m.family == "GE" and m.kind == "mc"
        )
        assert not np.array_equal(
            other.predictions[some_key][1], small_report.predictions[some_key][1]
        )


# Runs a two-worker backtest with and without the workers' BLAS pin, and
# prints the BLAS thread counts its workers saw and whether the predictions
# of the two runs are byte-identical, or "absent" where no loaded OpenBLAS
# exports numpy's thread getter.
BLAS_PIN_SCRIPT = """
import ctypes, json
import novas.backtest
from novas import BacktestConfig, CalibrationGrid, Seed, generate
from novas.simulate import ModelSpec

def blas_threads():
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    for path in paths:
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None

default = blas_threads()
seen = {"pinned": set(), "unpinned": set()}
run = "pinned"
fit = novas.backtest.fit_garch11_mle

def reporting_fit(window):
    # runs in the worker; the window's result carries no extra field, so the
    # count goes out through a file
    with open(OUT, "a") as out:
        out.write(f"{run} {blas_threads()}\\n")
    return fit(window)

if default is None:
    print("absent")
else:
    novas.backtest.fit_garch11_mle = reporting_fit
    y = generate(ModelSpec(model="M1", n=254, seed=Seed(3)))
    cfg = BacktestConfig(window=250, horizons=(1,), paths=100, seed=Seed(3),
                         grid=CalibrationGrid(ga_step=0.05), threads=2)
    reports = {}
    for run in ("pinned", "unpinned"):
        if run == "unpinned":
            novas.backtest._one_blas_thread = lambda: None
        report = novas.backtest.run_rolling_poos(y, cfg)
        reports[run] = b"".join(
            report.predictions[key][1].tobytes()
            for key in sorted(report.predictions, key=lambda k: k.label()))
    with open(OUT) as lines:
        for line in lines:
            name, count = line.split()
            seen[name].add(int(count))
    print(json.dumps({"default": default, **{k: sorted(v) for k, v in seen.items()},
                      "same": reports["pinned"] == reports["unpinned"]}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="finds the loaded OpenBLAS through /proc/self/maps")
def test_pooled_workers_run_one_blas_thread(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"OUT = {str(tmp_path / 'threads.txt')!r}\n" + BLAS_PIN_SCRIPT
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    last = out.stdout.splitlines()[-1]
    if last == "absent":
        pytest.skip("no loaded OpenBLAS exports scipy_openblas_get_num_threads64_")
    result = json.loads(last)
    assert result["pinned"] == [1], result
    # without the pin a worker keeps the BLAS default it inherited
    assert result["unpinned"] == [result["default"]], result
    assert result["same"], result


class TestLibraryPath:
    """The backtest and ``predict`` forecast through the same simulation,
    aggregate and reduce, and the GARCH bootstrap reduces its paths the same
    way. A window's ``mc`` ensembles take their innovations from one shared
    block of standard normals, each with its entries beyond its own bound
    replaced by draws from its own substream. Its ``boot`` ensembles and its
    GARCH bootstrap resample their pools through one shared block ``U`` of
    uniforms, at ``floor(U * len(pool))``; ``predict`` draws its own."""

    @staticmethod
    def shared_blocks(cfg, w0, h_top):
        """A window's shared normals and uniforms, drawn afresh."""
        normals = substream(
            cfg.seed, novas.backtest._DOMAIN_NORMALS, w0
        ).standard_normal((h_top, cfg.paths))
        uniforms = substream(
            cfg.seed, novas.backtest._DOMAIN_UNIFORMS, w0
        ).random((h_top, cfg.paths))
        return normals, uniforms

    def test_backtest_entries_rebuilt_from_library_pieces(self, short_series):
        y = ReturnSeries(short_series.values[:70])
        # GE's bound at alpha 0.05 is about 3.45, so the first window's
        # shared block has entries beyond it
        cfg = small_config(horizons=(1, 5), alpha_grid=(0.05, 0.6), paths=600)
        report = run_rolling_poos(y, cfg)
        assert report.counts == {1: 10, 5: 6}
        replaced = 0
        for w0 in (0, report.counts[1] - 1):
            window = ReturnSeries(y.values[w0 : w0 + cfg.window])
            h_here = [h for h in cfg.horizons if w0 < report.counts[h]]
            h_top = max(h_here)
            normals, uniforms = self.shared_blocks(cfg, w0, h_top)
            expected = {}
            for variant in cfg.variants:
                vi = list(NovasVariant).index(variant)
                for ai, alpha in enumerate(cfg.alpha_grid):
                    ct = calibrate(variant, alpha, window, cfg.grid)
                    for ki, kind in enumerate(KINDS):
                        gen = substream(
                            cfg.seed, novas.backtest._DOMAIN_NOVAS, w0, vi, ai, ki
                        )
                        source = innovation_source(ct, KIND_TO_SOURCE[kind])
                        if kind == "mc":
                            # step-major order, as the shared block is laid out
                            patched = normals.copy()
                            beyond = np.abs(patched) > source.bound
                            replaced += int(beyond.sum())
                            patched[beyond] = source.draw(gen, (int(beyond.sum()),))
                            draws = patched
                        else:
                            pool = source.residual_pool
                            draws = pool[np.floor(uniforms * pool.size).astype(int)]
                        aggs = running_means(simulate_paths(ct, draws).T, h_here)
                        for risk in cfg.risks:
                            key = MethodKey(variant.value, alpha, risk, kind)
                            expected[key] = aggs, risk
            gen = substream(cfg.seed, novas.backtest._DOMAIN_GARCH_BOOT, w0)
            fit = fit_garch11_mle(window)
            indices = np.floor(uniforms * fit.sigma2_path.size).astype(int)
            paths = oracle_garch_bootstrap_paths(fit.sigma2_path, indices, gen)
            for risk in cfg.risks:
                key = MethodKey("GARCH_BOOT", None, risk, None)
                expected[key] = running_means(paths, h_here), risk
            assert len(expected) == 2 * 2 * 2 * 2 + 2
            for key, (aggs, risk) in expected.items():
                for h, agg in zip(h_here, aggs):
                    got = report.predictions[key][h][w0]
                    assert got == numpy_point(agg, risk), (w0, key.label(), h)
        assert replaced > 0

    @pytest.mark.parametrize("risk", list(Risk))
    def test_predict_and_garch_bootstrap_reduce_the_same_way(self, short_series, risk):
        ct = calibrate(NovasVariant.GE, 0.5, short_series, FAST_GRID)
        req = ForecastRequest(
            horizon=9,
            source=innovation_source(ct, KIND_TO_SOURCE["mc"]),
            paths=200,
            risk=risk,
            seed=Seed(11),
        )
        # predict's innovations: a step-major block of normals from the
        # request's stream, its entries beyond the bound replaced in order
        # by the next draws of the same stream
        gen = substream(req.seed)
        draws = gen.standard_normal((req.horizon, req.paths))
        beyond = np.abs(draws) > req.source.bound
        draws[beyond] = req.source.draw(gen, (int(beyond.sum()),))
        [agg] = running_means(simulate_paths(ct, draws).T, [9])
        assert predict(ct, req).point == numpy_point(agg, risk)

        # one window whose only horizon is 9
        cfg = small_config(window=81, horizons=(9,), variants=(), risks=(risk.value,),
                           paths=200, seed=Seed(11))
        report = run_rolling_poos(short_series, cfg)
        fit = fit_garch11_mle(ReturnSeries(short_series.values[:81]))
        _, uniforms = self.shared_blocks(cfg, 0, 9)
        indices = np.floor(uniforms * fit.sigma2_path.size).astype(int)
        gen = substream(cfg.seed, novas.backtest._DOMAIN_GARCH_BOOT, 0)
        paths = oracle_garch_bootstrap_paths(fit.sigma2_path, indices, gen)
        got = report.predictions[MethodKey("GARCH_BOOT", None, risk.value, None)][9][0]
        assert got == numpy_point(running_means(paths, [9])[0], risk)


class TestWorkingSet:
    def test_window_holds_one_ensemble_at_a_time(self):
        # The mc ensembles share the window's block of normals, and each
        # simulates in its step-major copy of that block and a y^2 ring of
        # at most (h + 1) / 2 rows, the copy then being squared in place;
        # the block is freed before the boot gathers, each of which is freed
        # once copied, and each pool length's index block, uint8 for these
        # 250-entry pools, is an eighth of a block. A third block would be a
        # second ensemble kept alive into the next one, a full y^2 scratch,
        # the shared block kept into the boot ensembles, or a fresh array
        # for the squares.
        cfg = BacktestConfig(window=250, horizons=(30,), paths=5000,
                             grid=CalibrationGrid(ga_step=0.05), seed=Seed(3),
                             threads=1)
        y = generate(ModelSpec(model="M1", n=cfg.window + 30, seed=Seed(3)))
        run_rolling_poos(y, cfg)  # builds the candidate tables and scan plans
        tracemalloc.start()
        try:
            report = run_rolling_poos(y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts == {30: 1}
        block = 30 * cfg.paths * 8
        assert peak < 3 * block, f"peak {peak / block:.2f} (30, 5000) blocks"


def fits(variant, alpha, window, grid) -> bool:
    """Whether both the NoVaS variant and the GARCH baseline can be fitted
    on ``window``: a window where either cannot is a dead one."""
    try:
        calibrate(variant, alpha, window, grid)
        fit_garch11_mle(window)
    except (CalibrationError, DataError, FitError):
        return False
    return True


class TestDegenerateWindows:
    @pytest.mark.parametrize("horizons", [(1,), (1, 5)])
    def test_common_window_masking(self, horizons):
        rng = np.random.default_rng(3)
        values = rng.normal(scale=0.01, size=90)
        values[5:70] = 0.004  # constant stretch kills fully covered windows
        y = ReturnSeries(values)
        cfg = small_config(window=60, horizons=horizons, alpha_grid=(0.5,),
                           variants=(NovasVariant.GE_NO_A0,), risks=("L2",),
                           kinds=("mc",))
        report = run_rolling_poos(y, cfg)
        dead = [
            w0 for w0 in range(report.counts[1])
            if not fits(NovasVariant.GE_NO_A0, 0.5, ReturnSeries(values[w0 : w0 + 60]),
                        cfg.grid)
        ]
        assert dead
        # a dead window is masked at every horizon it reaches
        for h in horizons:
            assert report.failed_windows[h] == sum(w0 < report.counts[h] for w0 in dead)
            counts = {s.n_predictions for s in report.scores if s.horizon == h}
            assert len(counts) == 1  # every method scored on the same windows
            assert counts.pop() == report.counts[h] - report.failed_windows[h]


class TestRelativeReport:
    def test_rows_and_columns(self, small_report):
        rows = relative_report(small_report)
        assert [r["horizon"] for r in rows] == list(small_report.horizons)
        for row in rows:
            assert set(row) == {"horizon", "GE", "GA_NO_A0", "GARCH_BOOT",
                                "GARCH_DIRECT"}
            assert row["GARCH_DIRECT"] == 1.0

    def test_zero_benchmark_score_rejected(self, short_series, monkeypatch):
        # every score reads zero, so the ratios' denominator is zero from the
        # first horizon on
        monkeypatch.setattr(novas.backtest, "score_performance", lambda *args: 0.0)
        cfg = small_config(variants=(), threads=1)
        with pytest.raises(DataError, match=r"benchmark score is zero at h=1; ratios"):
            run_rolling_poos(short_series, cfg)

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
