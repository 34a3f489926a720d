import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novas import (
    BacktestConfig,
    CalibrationError,
    DataError,
    InnovationSource,
    NovasVariant,
    ReturnSeries,
    Seed,
    TrimBoundError,
    build_weights,
    calibrate,
    calibrate_many,
    feasible_alphas,
    fit_garch11_mle,
    forward_transform,
    generate,
    inverse_step,
    run_rolling_poos,
    sample_kurtosis,
)
from novas.returns import variance_path
from novas.simulate import ModelSpec
from novas.transform import ge_order_for
from novas.weights import CalibrationGrid

from oracles import (
    oracle_calibrate,
    oracle_candidates,
    oracle_lag_multiplier,
    oracle_residuals,
)

ADMISSIBLE = {
    NovasVariant.GE: (0.3, 0.1, 12),
    NovasVariant.GE_NO_A0: (0.5, 0.5, 8),
    NovasVariant.GA: (0.5, (0.02, 0.98), 30),
    NovasVariant.GA_NO_A0: (0.4, (0.3, 0.9), 10),
}


# the alpha grid of the acceptance fixture and the benchmark
ALPHAS = tuple(k / 10 for k in range(1, 9))


def admissible_weights(variant):
    alpha, shape, order = ADMISSIBLE[variant]
    return build_weights(variant, alpha, shape, order)


class TestForwardTransform:
    def test_hand_example(self):
        # alpha = 0.5, single lag 0.5; at t = 3 the variance estimate of
        # (1, -1) is (1 + 1)/2 = 1, so W_3 = 2 / sqrt(0.5*1 + 0.5*1) = 2
        y = ReturnSeries(np.array([1.0, -1.0, 2.0, 0.5]))
        w = build_weights(NovasVariant.GE_NO_A0, 0.5, 0.0, 1)
        res = forward_transform(y, w)
        assert res[1] == pytest.approx(2.0, rel=1e-14)

    def test_output_length(self):
        y = ReturnSeries(np.random.default_rng(0).normal(size=80))
        for variant in NovasVariant:
            w = admissible_weights(variant)
            assert forward_transform(y, w).size == 80 - w.order

    def test_matches_loop_oracle(self):
        values = np.random.default_rng(3).normal(size=60)
        y = ReturnSeries(values)
        for variant in NovasVariant:
            w = admissible_weights(variant)
            expected = oracle_residuals(values, w.alpha, w.y2_self_coef, w.lags)
            np.testing.assert_allclose(forward_transform(y, w), expected, rtol=1e-12)

    def test_too_short(self):
        w = build_weights(NovasVariant.GE_NO_A0, 0.5, 0.0, 5)
        with pytest.raises(DataError, match="exceed order"):
            forward_transform(ReturnSeries(np.ones(7)), w)

    def test_scale_equivariance(self):
        values = np.random.default_rng(9).standard_t(6, size=100)
        for variant in NovasVariant:
            w = admissible_weights(variant)
            base = forward_transform(ReturnSeries(values), w)
            for c in (0.01, 3.0, 250.0):
                scaled = forward_transform(ReturnSeries(c * values), w)
                np.testing.assert_allclose(scaled, base, rtol=1e-10)
            flipped = forward_transform(ReturnSeries(-values), w)
            np.testing.assert_allclose(np.abs(flipped), np.abs(base), rtol=1e-10)

    def test_trim_bound_respected_when_a0_positive(self):
        values = np.random.default_rng(21).normal(size=200)
        y = ReturnSeries(values)
        for variant in (NovasVariant.GE, NovasVariant.GA):
            w = admissible_weights(variant)
            res = forward_transform(y, w)
            assert np.abs(res).max() <= w.trim_bound
            assert np.abs(res).max() <= 1.0 / math.sqrt(w.a0)


class TestInverseStep:
    def test_zero_innovation(self):
        w = admissible_weights(NovasVariant.GA_NO_A0)
        assert inverse_step(0.0, np.ones(w.order), 1.0, w) == 0.0

    def test_diverges_toward_bound(self):
        w = admissible_weights(NovasVariant.GE)
        bound = w.trim_bound
        lagged = np.ones(w.order)
        outputs = [
            inverse_step(bound * (1 - back), lagged, 1.0, w)
            for back in (0.1, 0.01, 0.001, 1e-6)
        ]
        assert all(b > a for a, b in zip(outputs, outputs[1:]))

    def test_guard_raises(self):
        w = admissible_weights(NovasVariant.GE)
        with pytest.raises(TrimBoundError):
            inverse_step(w.trim_bound, np.ones(w.order), 1.0, w)
        w2 = admissible_weights(NovasVariant.GA)
        with pytest.raises(TrimBoundError):
            inverse_step(w2.trim_bound * 1.01, np.ones(w2.order), 1.0, w2)

    def test_needs_enough_lags(self):
        w = admissible_weights(NovasVariant.GE)
        with pytest.raises(DataError):
            inverse_step(0.5, np.ones(w.order - 1), 1.0, w)


def roundtrip_max_error(values, w):
    y = ReturnSeries(values)
    res = forward_transform(y, w)
    vp = variance_path(values)
    worst = 0.0
    for j in range(res.size):
        t0 = w.order + j
        lagged = values[t0 - w.order : t0][::-1] ** 2
        back = inverse_step(res[j], lagged, vp[t0], w)
        denom = max(abs(values[t0]), 1e-30)
        worst = max(worst, abs(back - abs(values[t0])) / denom)
    return worst


class TestRoundTrip:
    @pytest.mark.parametrize("variant", list(NovasVariant))
    def test_forward_inverse_identity(self, variant):
        rng = np.random.default_rng(77)
        w = admissible_weights(variant)
        for _ in range(5):
            values = rng.normal(size=90) * rng.uniform(0.1, 10)
            assert roundtrip_max_error(values, w) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_forward_inverse_identity_property(self, seed):
        values = np.random.default_rng(seed).normal(size=60)
        w = admissible_weights(NovasVariant.GA)
        assert roundtrip_max_error(values, w) < 1e-10


@pytest.fixture(scope="module")
def model3_window():
    return generate(ModelSpec(model="M3", n=300, seed=Seed(42)))


# values that hold arrays compare and hash by identity; a value comparison
# used to raise ValueError from the arrays' truth value, and hash TypeError
@pytest.mark.parametrize("build", [
    lambda y: ReturnSeries(y.values),
    lambda y: calibrate(NovasVariant.GE, 0.4, y),
    lambda y: InnovationSource("EMPIRICAL", residual_pool=[1.0, 2.0]),
    lambda y: fit_garch11_mle(y),
], ids=["ReturnSeries", "CalibratedTransform", "InnovationSource", "GarchFit"])
def test_array_holding_values_compare_by_identity(build, model3_window):
    a, b = build(model3_window), build(model3_window)
    assert a == a and a != b
    assert len({a, b, a}) == 2


class TestCalibrate:
    def test_determinism(self, model3_window):
        a = calibrate(NovasVariant.GE, 0.4, model3_window)
        b = calibrate(NovasVariant.GE, 0.4, model3_window)
        assert a.weights == b.weights
        np.testing.assert_array_equal(a.residuals, b.residuals)
        assert a.objective == b.objective

    def test_objective_computed_only_when_read(self, model3_window, monkeypatch):
        # a backtest reads no objective, so it takes no kurtosis; a transform
        # that reads its objective takes it from its own residuals
        import novas.transform

        calls = []

        def counting(w):
            calls.append(len(w))
            return sample_kurtosis(w)

        monkeypatch.setattr(novas.transform, "sample_kurtosis", counting)
        y = generate(ModelSpec(model="M3", n=262, seed=Seed(5)))
        cfg = BacktestConfig(window=250, horizons=(1, 5), alpha_grid=(0.3, 0.6),
                             paths=200, grid=CalibrationGrid(ga_step=0.1), threads=1)
        report = run_rolling_poos(y, cfg)
        assert report.counts == {1: 12, 5: 8} and not any(report.failed_windows.values())
        assert calls == []
        ct = calibrate(NovasVariant.GE, 0.4, model3_window)
        assert calls == []
        assert ct.objective == abs(sample_kurtosis(ct.residuals) - 3.0)
        assert ct.objective == ct.objective and calls == [ct.residuals.size]

    @pytest.mark.parametrize("variant", list(NovasVariant))
    def test_constraints_and_shapes(self, variant, model3_window):
        alphas = feasible_alphas(variant, (0.3, 0.6), len(model3_window))
        ct = calibrate(variant, alphas[0], model3_window)
        w = ct.weights
        assert abs(w.y2_self_coef + w.alpha + w.lags.sum() - 1.0) < 1e-12
        assert ct.residuals.size == len(model3_window) - w.order
        if w.a0 > 0:
            assert np.abs(ct.residuals).max() <= w.trim_bound
        assert ct.objective == pytest.approx(
            abs(sample_kurtosis(ct.residuals) - 3.0), abs=1e-15
        )

    @pytest.mark.parametrize(
        "variant", [NovasVariant.GE, NovasVariant.GE_NO_A0, NovasVariant.GA_NO_A0]
    )
    def test_matches_exhaustive_oracle(self, variant, model3_window):
        grid = CalibrationGrid(ge_c_count=12)
        ct = calibrate(variant, 0.5, model3_window, grid)
        oracle = oracle_calibrate(variant, 0.5, model3_window.values, grid)
        params, order, objective = oracle
        assert tuple(ct.weights.shape) == pytest.approx(params, rel=1e-12)
        assert ct.weights.order == order
        assert ct.objective == pytest.approx(objective, rel=1e-9)
        assert ct.objective <= objective * (1.0 + 1e-9)

    def test_ga_matches_exhaustive_oracle(self, model3_window):
        grid = CalibrationGrid(ga_step=0.05)
        ct = calibrate(NovasVariant.GA, 0.6, model3_window, grid)
        params, order, objective = oracle_calibrate(
            NovasVariant.GA, 0.6, model3_window.values, grid
        )
        assert tuple(ct.weights.shape) == pytest.approx(params, rel=1e-12)
        assert ct.weights.order == order
        assert ct.objective == pytest.approx(objective, rel=1e-9)

    def test_gaussian_input_attains_grid_optimum(self):
        # calibration never worsens the attainable optimum over its grid:
        # every independently evaluated feasible point does at least as badly
        y = ReturnSeries(np.random.default_rng(8).standard_normal(400))
        grid = CalibrationGrid(ge_c_count=10)
        for variant in (NovasVariant.GE, NovasVariant.GE_NO_A0):
            ct = calibrate(variant, 0.3, y, grid)
            _, _, oracle_best = oracle_calibrate(variant, 0.3, y.values, grid)
            assert ct.objective <= oracle_best * (1.0 + 1e-9)

    def test_minimum_window(self):
        y = ReturnSeries(np.random.default_rng(1).normal(size=30))
        with pytest.raises(CalibrationError, match="minimum"):
            calibrate(NovasVariant.GE, 0.3, y)

    def test_degenerate_input(self):
        y = ReturnSeries(np.zeros(120))
        with pytest.raises((CalibrationError, DataError)):
            calibrate(NovasVariant.GE_NO_A0, 0.3, y)

    def test_escalation_path(self, model3_window):
        # at c = 0.13 the capped adaptive order yields an intercept weight
        # just over 1/9; doubling to 60 brings it under
        grid = CalibrationGrid(ge_c_min=0.13, ge_c_max=0.13, ge_c_count=1)
        order, feasible = ge_order_for(0.1, 0.13, 500, grid)
        assert feasible and order == 60
        y = generate(ModelSpec(model="M3", n=500, seed=Seed(5)))
        ct = calibrate(NovasVariant.GE, 0.1, y, grid)
        assert ct.weights.order == 60
        assert ct.weights.order > grid.order_cap_for(500)
        assert ct.weights.a0 <= 1.0 / 9.0

    def test_escalation_cannot_always_rescue(self):
        # c = 0.3 keeps a0 above 1/9 at every order, so the lone grid point
        # stays infeasible and calibration reports it
        grid = CalibrationGrid(ge_c_min=0.3, ge_c_max=0.3, ge_c_count=1)
        _, feasible = ge_order_for(0.1, 0.3, 500, grid)
        assert not feasible
        y = generate(ModelSpec(model="M3", n=500, seed=Seed(5)))
        with pytest.raises(CalibrationError, match="no feasible"):
            calibrate(NovasVariant.GE, 0.1, y, grid)

    @pytest.mark.parametrize("window", ["M1", "M3"])
    @pytest.mark.parametrize("ga_step", [0.05, None], ids=["ga_step=0.05", "default"])
    @pytest.mark.parametrize("variant", list(NovasVariant), ids=lambda v: v.value)
    def test_calibrate_many_matches_single(
        self, variant, ga_step, window, model1_series, model3_window
    ):
        # a scan over several alphas scores each lag order's candidates of
        # every alpha together, so the sums behind a column's score can run in
        # another order than alone; each alpha must still get the weight set,
        # objective and residuals it gets alone
        grid = CalibrationGrid() if ga_step is None else CalibrationGrid(ga_step=ga_step)
        y = ReturnSeries(model1_series.values[125:375]) if window == "M1" else model3_window
        alphas = feasible_alphas(variant, ALPHAS, len(y), grid)
        many = calibrate_many(variant, alphas, y, grid)
        assert list(many) == alphas
        for alpha in alphas:
            one = calibrate(variant, alpha, y, grid)
            assert many[alpha].weights == one.weights
            assert many[alpha].objective == one.objective
            assert many[alpha].residuals.tobytes() == one.residuals.tobytes()


@pytest.fixture(scope="module")
def model1_series():
    return generate(ModelSpec(model="M1", n=500, seed=Seed(3)))


class TestMeanStableSelection:
    """At alpha = 0.1 the kurtosis-closest a0-free point of a Model-1 window
    can have lag multiplier ``mean(Y^2/D) * sum(lags) >= 1``, under which
    bootstrapped long-horizon forecasts grow without bound in the mean."""

    GRID = CalibrationGrid(ga_step=0.05)
    A0_FREE = [NovasVariant.GE_NO_A0, NovasVariant.GA_NO_A0]

    @pytest.mark.parametrize("variant", A0_FREE)
    def test_prefers_mean_stable_point(self, variant, model1_series):
        values = model1_series.values[16:266]
        cands = oracle_candidates(variant, 0.1, values, self.GRID)
        closest = min(cands, key=lambda c: c[3])
        assert closest[4] >= 1.0
        ct = calibrate(variant, 0.1, ReturnSeries(values), self.GRID)
        assert oracle_lag_multiplier(values, 0.1, ct.weights.lags) < 1.0
        params, order, objective = oracle_calibrate(variant, 0.1, values, self.GRID)
        assert tuple(ct.weights.shape) == pytest.approx(params, rel=1e-12)
        assert ct.weights.order == order
        assert ct.objective == pytest.approx(objective, rel=1e-9)

    @pytest.mark.parametrize("variant", A0_FREE)
    def test_falls_back_to_smallest_multiplier(self, variant, model1_series):
        values = model1_series.values[0:250]
        cands = oracle_candidates(variant, 0.1, values, self.GRID)
        assert min(c[4] for c in cands) >= 1.0
        ct = calibrate(variant, 0.1, ReturnSeries(values), self.GRID)
        params, order, *_ = min(cands, key=lambda c: c[4])
        assert tuple(ct.weights.shape) == pytest.approx(params, rel=1e-12)
        assert ct.weights.order == order


class TestFeasibleAlphas:
    def test_no_a0_variants_always_feasible(self):
        alphas = (0.1, 0.5, 0.8)
        for variant in (NovasVariant.GE_NO_A0, NovasVariant.GA_NO_A0):
            assert feasible_alphas(variant, alphas, 250) == list(alphas)

    def test_ga_small_alpha_infeasible_at_coarse_grid(self):
        grid = CalibrationGrid(ga_step=0.05)
        feasible = feasible_alphas(NovasVariant.GA, ALPHAS, 250, grid)
        assert 0.1 not in feasible
        assert any(a >= 0.5 for a in feasible)

    @pytest.mark.parametrize("ga_step", [0.05, 0.02, 0.8])  # 0.8: an empty GA grid
    @pytest.mark.parametrize("variant", list(NovasVariant))
    def test_matches_calibration_success(self, variant, ga_step, model3_window):
        grid = CalibrationGrid(ga_step=ga_step)
        feasible = feasible_alphas(variant, ALPHAS, len(model3_window), grid)
        for alpha in ALPHAS:
            if alpha in feasible:
                calibrate(variant, alpha, model3_window, grid)
            else:
                with pytest.raises(CalibrationError):
                    calibrate(variant, alpha, model3_window, grid)


class TestScanPlan:
    """A scan scores each lag order once across every alpha, from a plan that
    :func:`feasible_alphas` prepares before a backtest forks its workers."""

    GRID = CalibrationGrid(ga_step=0.05)

    @pytest.mark.parametrize(
        "variant, orders",
        [(NovasVariant.GE_NO_A0, 15), (NovasVariant.GA_NO_A0, 1)],
        ids=["GE_NO_A0", "GA_NO_A0"],
    )
    def test_one_scoring_per_lag_order(self, variant, orders, model1_series, monkeypatch):
        import novas.transform

        calls = []
        original = novas.transform._column_scores

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(novas.transform, "_column_scores", counting)
        alphas = feasible_alphas(variant, ALPHAS, 250, self.GRID)
        assert alphas == list(ALPHAS)
        calibrate_many(variant, alphas, ReturnSeries(model1_series.values[:250]), self.GRID)
        assert len(calls) == orders
        assert calibrate_many(variant, (), ReturnSeries(model1_series.values[:250])) == {}

    def test_feasible_alphas_prepares_the_scan(self, model1_series):
        from novas.transform import _scan_plan

        _scan_plan.cache_clear()
        alphas = feasible_alphas(NovasVariant.GE, ALPHAS, 250, self.GRID)
        assert _scan_plan.cache_info().misses == 1
        calibrate_many(
            NovasVariant.GE, alphas, ReturnSeries(model1_series.values[:250]), self.GRID
        )
        info = _scan_plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestSharedVariancePath:
    """One window's variance path is computed once and read by every variant,
    every alpha and the returned transform."""

    def test_one_variance_path_per_window(self, model1_series, monkeypatch):
        import novas.returns
        import novas.transform

        calls = []
        original = novas.returns.variance_path

        def counting(values):
            calls.append(len(values))
            return original(values)

        monkeypatch.setattr(novas.returns, "variance_path", counting)
        # the name is patched wherever a module holds its own reference
        monkeypatch.setattr(novas.transform, "variance_path", counting, raising=False)
        grid = CalibrationGrid(ga_step=0.05)
        window = ReturnSeries(model1_series.values[:250])
        fitted = []
        for variant in NovasVariant:
            usable = feasible_alphas(variant, ALPHAS, len(window), grid)
            fitted += calibrate_many(variant, usable, window, grid).values()
        forward_transform(window, fitted[-1].weights)
        assert len(fitted) > 20
        assert calls == [250]


class TestChosenPoints:
    """The chosen ``(shape, order)`` of every (window, variant, alpha) on the
    30 acceptance-fixture windows, pinned by a digest plus spot values."""

    DIGEST = "339d46da2aa7c2771a7ad0ed62f56b450b8a86bfdc52862db1258931cd2c1fcf"
    SPOTS = (
        "0 GE 0.1 30 0.101545881045",
        "10 GE_NO_A0 0.3 4 1.01545881045",
        "17 GE 0.3 52 0.17275536473",
        "17 GA 0.7 30 0.1,0.5",
        "17 GA_NO_A0 0.1 30 0.49500000002,0.45",
    )

    def test_fixture_windows(self):
        grid = CalibrationGrid(ga_step=0.05)
        values = generate(ModelSpec(model="M1", n=280, seed=Seed(3))).values
        lines = []
        for w0 in range(30):
            window = ReturnSeries(values[w0 : w0 + 250])
            for variant in NovasVariant:
                usable = feasible_alphas(variant, ALPHAS, 250, grid)
                for alpha, ct in calibrate_many(variant, usable, window, grid).items():
                    shape = ",".join(f"{x:.12g}" for x in ct.weights.shape)
                    lines.append(
                        f"{w0} {variant.value} {alpha:g} {ct.weights.order} {shape}"
                    )
        assert len(lines) == 870
        assert set(self.SPOTS) <= set(lines)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST
