import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from novas import (
    DataError,
    GarchFit,
    GarchParams,
    ReturnSeries,
    Risk,
    Seed,
    conditional_variance,
    fit_garch11_mle,
    garch_direct_forecast,
    generate,
    substream,
)
import novas.garch as garch
from novas.garch import _STARTS, _derivatives, _loglik, garch_bootstrap_squares
from novas.innovations import resample_indices
from novas.predictor import aggregated_squared
from novas.simulate import ModelSpec

from oracles import oracle_garch_bootstrap_paths, oracle_garch_loglik


def loglik_and_score(params, values, sigma2_init):
    """The Gaussian conditional log-likelihood, first observation included,
    and its gradient in ``(omega, alpha1, beta1)``, as the fit evaluates
    them."""
    sig2 = conditional_variance(params, values, sigma2_init)
    y2 = values * values
    grad, _, _ = _derivatives(params.beta1, y2, sig2)
    return _loglik(y2, sig2), np.array(grad)


class TestParams:
    def test_stationarity_enforced(self):
        with pytest.raises(DataError):
            GarchParams(1e-5, 0.5, 0.5)
        with pytest.raises(DataError):
            GarchParams(-1.0, 0.1, 0.2)
        GarchParams(1e-5, 0.1, 0.73)


class TestLikelihood:
    def test_filter_matches_definition_oracle(self):
        rng = np.random.default_rng(4)
        values = rng.normal(scale=0.01, size=400)
        init = float(np.var(values))
        for _ in range(10):
            omega = float(rng.uniform(1e-6, 1e-3))
            alpha1 = float(rng.uniform(0.0, 0.3))
            beta1 = float(rng.uniform(0.0, 0.95 - alpha1))
            params = GarchParams(omega, alpha1, beta1)
            fast, _ = loglik_and_score(params, values, init)
            slow = oracle_garch_loglik(values, omega, alpha1, beta1, init)
            assert fast == pytest.approx(slow, rel=1e-8)

    def test_conditional_variance_recursion(self):
        params = GarchParams(2e-4, 0.05, 0.9)
        values = np.array([0.01, -0.02, 0.005])
        sig2 = conditional_variance(params, values, 1e-4)
        assert sig2[0] == 1e-4
        assert sig2[1] == pytest.approx(2e-4 + 0.05 * 0.01**2 + 0.9 * 1e-4, rel=1e-14)
        assert sig2[2] == pytest.approx(
            2e-4 + 0.05 * 0.02**2 + 0.9 * sig2[1], rel=1e-14
        )


class TestFit:
    def test_recovery_from_known_parameters(self):
        y = generate(ModelSpec(model="M3", n=5000, seed=Seed(1)))
        fit = fit_garch11_mle(y)
        assert fit.params.alpha1 == pytest.approx(0.1, abs=0.05)
        assert fit.params.beta1 == pytest.approx(0.73, abs=0.05)

    def test_fitted_params_stationary(self):
        for seed in (1, 2, 3):
            y = generate(ModelSpec(model="M3", n=400, seed=Seed(seed)))
            fit = fit_garch11_mle(y)
            assert fit.params.alpha1 + fit.params.beta1 < 1.0
            assert fit.params.omega > 0.0
            assert np.all(fit.sigma2_path > 0.0)
            assert fit.sigma2_path.size == 400

    def test_loglik_beats_every_start(self):
        y = generate(ModelSpec(model="M4", n=600, seed=Seed(12)))
        values = y.values
        sample_var = float(np.var(values))
        fit = fit_garch11_mle(y)
        for persistence, share in _STARTS:
            start = GarchParams(
                sample_var * (1.0 - persistence),
                persistence * share,
                persistence * (1.0 - share),
            )
            assert fit.loglik >= loglik_and_score(start, values, sample_var)[0] - 1e-9

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            fit_garch11_mle(ReturnSeries(np.random.default_rng(0).normal(size=10)))

    def test_constant_series_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            fit_garch11_mle(ReturnSeries(np.zeros(100)))

    def test_determinism(self):
        y = generate(ModelSpec(model="M3", n=300, seed=Seed(2)))
        a = fit_garch11_mle(y)
        b = fit_garch11_mle(y)
        assert a.params == b.params
        assert a.loglik == b.loglik


class TestScore:
    @pytest.mark.parametrize("source", ["normal", "M3"])
    def test_matches_central_differences_of_oracle(self, source):
        rng = np.random.default_rng(11)
        if source == "normal":
            values = rng.normal(scale=0.01, size=300)
        else:
            values = generate(ModelSpec(model="M3", n=300, seed=Seed(5))).values
        init = float(np.var(values))
        for _ in range(10):
            persistence = float(rng.uniform(0.3, 0.99))
            share = float(rng.uniform(0.05, 0.6))
            point = np.array([
                init * (1.0 - persistence) * float(rng.uniform(0.5, 2.0)),
                persistence * share,
                persistence * (1.0 - share),
            ])
            ll, score = loglik_and_score(GarchParams(*point), values, init)
            oracle = oracle_garch_loglik(values, *point, init)
            assert ll == pytest.approx(oracle, rel=1e-12)
            numeric = np.empty(3)
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-3 * point[i]
                f = [
                    oracle_garch_loglik(values, *(point + k * step), init)
                    for k in (-2, -1, 1, 2)
                ]
                # fourth-order central difference
                numeric[i] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * step[i])
            np.testing.assert_allclose(score, numeric, rtol=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_interior_optimum_is_stationary(self, seed):
        y = generate(ModelSpec(model="M3", n=400, seed=Seed(seed)))
        fit = fit_garch11_mle(y)
        assert fit.converged and not fit.persistence_at_bound
        p = fit.params
        # gradient in (log omega, log alpha1, log beta1)
        score = loglik_and_score(p, y.values, float(np.var(y.values)))[1]
        scaled = score * np.array([p.omega, p.alpha1, p.beta1])
        assert np.all(np.abs(scaled) < 1e-4)

    def test_bound_optimum_points_outward(self):
        # M3 seed 0, window 24..273: persistence ends at the bound
        values = generate(ModelSpec(model="M3", n=499, seed=Seed(0))).values[24:274]
        fit = fit_garch11_mle(ReturnSeries(values))
        assert fit.persistence_at_bound
        p = fit.params
        g_omega, g_alpha, g_beta = loglik_and_score(p, values, float(np.var(values)))[1]
        persistence = p.alpha1 + p.beta1
        share = p.alpha1 / persistence
        # the likelihood still rises along the persistence direction, and
        # the intercept is at its optimum
        assert share * g_alpha + (1.0 - share) * g_beta > 0.0
        assert abs(p.omega * g_omega) < 1e-4


class TestOptimumQuality:
    """Fitted log-likelihoods recorded from the multi-started Nelder-Mead
    fit that the gradient search replaced; no fit may fall short of its
    record by more than 1e-9."""

    FIXTURE = (  # M1 seed 3, n=280, windows w0..w0+250 for w0 = 0..29
        -595.7796922601393, -594.6306689546782, -593.6130279748911,
        -593.7140313498381, -593.1846923665116, -591.8416643823252,
        -590.826334312112, -591.0470249562742, -591.0677400967076,
        -590.9590553423063, -590.7966134628878, -590.8517657073919,
        -590.7930029168426, -589.5757569251116, -588.3619998101412,
        -588.411942211528, -588.4000273875849, -588.7071036313451,
        -588.2685509326609, -587.3693658059494, -587.1885709337798,
        -587.4118334389793, -587.2545197645605, -588.0929611199683,
        -587.9157408598226, -587.4242231441308, -586.6928708297736,
        -585.2606651796161, -585.8449887342905, -585.8262788418019,
    )
    M3 = (  # M3 seed 0, n=499, windows w0..w0+250 for w0 = 0, 6, ..., 246
        884.5090181423784, 882.2673187679604, 876.6002872462212,
        879.0117189662494, 877.9677076518562, 876.2744079186336,
        872.1483692640919, 874.3535761257929, 874.2691590714398,
        873.7375983897994, 876.4521884739704, 876.2792364438042,
        876.0303705140116, 877.3510633525593, 878.7015985633137,
        880.5694218568544, 883.0963409812845, 882.8036811802301,
        887.2521973818164, 884.8210528103559, 889.0093607700614,
        893.4749681284693, 897.6223728539371, 902.309594844391,
        903.4181630763514, 904.2599911864424, 901.827020280984,
        900.788766810274, 907.5012901785706, 907.1280687400663,
        907.7522662745768, 904.1780743949678, 904.7297032031722,
        905.6843194175781, 905.3682971761275, 903.5893636512036,
        901.5941025988313, 901.289441257504, 901.0785105901284,
        895.0907615118335, 896.1011142717856, 896.8422997222392,
    )

    # optima on the persistence bound with a positive ARCH term, (model,
    # seed, n, w0) -> log-likelihood recorded from the SLSQP fit that the
    # Newton search replaced
    FACE = {("M2", 2, 500, 200): 745.9133030685176, ("M5", 2, 500, 0): 738.2762078400426}

    @staticmethod
    def fits(spec, starts):
        values = generate(spec).values
        return [fit_garch11_mle(ReturnSeries(values[w0 : w0 + 250])) for w0 in starts]

    def test_fixture_windows(self):
        fits = self.fits(ModelSpec(model="M1", n=280, seed=Seed(3)), range(30))
        shortfall = np.array(self.FIXTURE) - [f.loglik for f in fits]
        assert shortfall.max() <= 1e-9, shortfall.max()

    def test_m3_windows(self):
        fits = self.fits(ModelSpec(model="M3", n=499, seed=Seed(0)), range(0, 249, 6))
        assert len(fits) == len(self.M3)
        shortfall = np.array(self.M3) - [f.loglik for f in fits]
        assert shortfall.max() <= 1e-9, shortfall.max()
        at_bound = [f for f in fits if f.persistence_at_bound]
        assert at_bound
        for f in at_bound:
            p = f.params
            assert GarchParams(p.omega, p.alpha1, p.beta1) == p
            assert p.alpha1 + p.beta1 < 1.0

    def test_bound_face_windows(self):
        for (model, seed, n, w0), record in self.FACE.items():
            (fit,) = self.fits(ModelSpec(model=model, n=n, seed=Seed(seed)), [w0])
            assert fit.persistence_at_bound and fit.params.alpha1 > 0.0
            assert fit.loglik >= record - 1e-9, (model, record - fit.loglik)


class TestConvergenceRecord:
    def test_fields_in_dict(self):
        fit = fit_garch11_mle(generate(ModelSpec(model="M3", n=300, seed=Seed(2))))
        d = fit.to_dict()
        assert d["converged"] is True
        assert d["iterations"] == fit.iterations > 0
        assert d["persistence_at_bound"] is False

    def test_unconverged_fit_is_recorded(self, monkeypatch):
        monkeypatch.setattr(garch, "_MAX_ITER", 1)
        fit = fit_garch11_mle(generate(ModelSpec(model="M3", n=300, seed=Seed(2))))
        assert not fit.converged
        assert fit.iterations <= 1
        assert fit.params.alpha1 + fit.params.beta1 < 1.0


class TestThreadIndependence:
    SCRIPT = """
from novas import ReturnSeries, Seed, fit_garch11_mle, generate
from novas.simulate import ModelSpec

values = generate(ModelSpec(model="M1", n=280, seed=Seed(3))).values
for w0 in range(30):
    fit = fit_garch11_mle(ReturnSeries(values[w0 : w0 + 250]))
    print(repr(fit.params), repr(fit.loglik), fit.converged, fit.iterations,
          fit.persistence_at_bound)
"""

    def test_fits_identical_at_one_and_two_blas_threads(self):
        # the conftest only sets a default, so each process sets its own
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            out = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout)
        assert len(outputs[0].splitlines()) == 30
        assert outputs[0] == outputs[1]


class TestDirectForecast:
    def fit_stub(self, omega, alpha1, beta1, sigma2_last):
        params = GarchParams(omega, alpha1, beta1)
        return GarchFit(params, np.array([sigma2_last]), 0.0)

    def test_hand_recursion(self):
        fit = self.fit_stub(1e-5, 0.1, 0.73, 1.0)
        out = garch_direct_forecast(fit, last_y2=1.0, h=2)
        assert out[0] == pytest.approx(0.83001, abs=1e-12)
        assert out[1] == pytest.approx(0.6889183, abs=1e-10)

    def test_collapse_when_no_dynamics(self):
        fit = self.fit_stub(2e-4, 0.0, 0.0, 5.0)
        out = garch_direct_forecast(fit, last_y2=9.0, h=6)
        np.testing.assert_allclose(out, 2e-4, rtol=1e-14)

    def test_monotone_to_unconditional(self):
        fit = self.fit_stub(1e-5, 0.1, 0.73, 1.0)
        out = garch_direct_forecast(fit, last_y2=1.0, h=200)
        target = 1e-5 / (1 - 0.83)
        diffs = np.abs(out - target)
        assert np.all(np.diff(diffs) <= 0)
        assert out[-1] == pytest.approx(target, rel=1e-6)
        assert np.all(out > 0)


def bootstrap_squares(fit, M, h, seed):
    """The squares of ``M`` GARCH bootstrap paths of ``h`` steps, resampled
    at indices from one substream of ``seed`` and multiplied by normals from
    another."""
    indices = resample_indices(substream(seed, 0), M, h, fit.sigma2_path.size)
    return garch_bootstrap_squares(fit, substream(seed, 1), indices)


def bootstrap_point(fit, h, M, risk, seed):
    """The GARCH bootstrap forecast of the mean ``h``-step square, reduced
    as a backtest window reduces it."""
    squares = bootstrap_squares(fit, M, h, seed)
    stats = aggregated_squared(squares, [h])[0]
    return float(np.mean(stats) if risk is Risk.L2 else np.median(stats))


class TestBootstrapForecast:
    def test_constant_sigma_path(self):
        params = GarchParams(1e-5, 0.05, 0.9)
        fit = GarchFit(params, np.full(50, 4.0), 0.0)
        # sigma* is always 2, so the statistic is 4 * w^2 with w ~ N(0,1)
        mean = bootstrap_point(fit, 1, 200000, Risk.L2, Seed(0))
        assert mean == pytest.approx(4.0, rel=0.02)
        median = bootstrap_point(fit, 1, 200000, Risk.L1, Seed(0))
        assert median == pytest.approx(4.0 * 0.4549364, rel=0.02)  # median of chi-square(1)

    def test_l2_h1_matches_mean_sigma2(self):
        y = generate(ModelSpec(model="M3", n=400, seed=Seed(3)))
        fit = fit_garch11_mle(y)
        point = bootstrap_point(fit, 1, 100000, Risk.L2, Seed(1))
        assert point == pytest.approx(float(fit.sigma2_path.mean()), rel=0.03)

    def test_seed_determinism(self):
        y = generate(ModelSpec(model="M3", n=200, seed=Seed(4)))
        fit = fit_garch11_mle(y)
        np.testing.assert_array_equal(
            bootstrap_squares(fit, 1000, 5, Seed(9)),
            bootstrap_squares(fit, 1000, 5, Seed(9)),
        )
        a = bootstrap_point(fit, 5, 1000, Risk.L1, Seed(9))
        assert a == bootstrap_point(fit, 5, 1000, Risk.L1, Seed(9))

    def test_squares_are_the_paths_squared_step_major(self):
        # each volatility at its index times a normal, the normals drawn in
        # the step-major order of the indices; the squares come back one
        # contiguous row per step
        y = generate(ModelSpec(model="M3", n=200, seed=Seed(4)))
        fit = fit_garch11_mle(y)
        indices = resample_indices(substream(Seed(5)), 70, 4, fit.sigma2_path.size)
        squares = garch_bootstrap_squares(fit, substream(Seed(6)), indices)
        paths = oracle_garch_bootstrap_paths(fit.sigma2_path, indices, substream(Seed(6)))
        assert squares.shape == (4, 70) and squares.flags.c_contiguous
        want = [[path[k] * path[k] for path in paths] for k in range(4)]
        assert squares.tobytes() == np.array(want).tobytes()

    def test_holds_two_and_a_half_blocks(self):
        # the uint8 index block of a 250-entry pool is an eighth of an
        # (h, M) block: drawing it holds the uniforms beside it, the gather
        # casts it to intp beside its output, and the normals join that
        # output beside it. An intp block would hold three blocks and lift a
        # backtest window past three
        fit = fit_garch11_mle(generate(ModelSpec(model="M3", n=250, seed=Seed(3))))
        bootstrap_squares(fit, 5000, 30, Seed(1))
        tracemalloc.start()
        try:
            bootstrap_squares(fit, 5000, 30, Seed(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 30 * 5000 * 8
        assert peak < 2.6 * block, f"peak {peak / block:.2f} (30, 5000) blocks"

    def test_two_seeds_converge_at_large_m(self):
        y = generate(ModelSpec(model="M3", n=400, seed=Seed(8)))
        fit = fit_garch11_mle(y)
        a = bootstrap_point(fit, 5, 5000, Risk.L2, Seed(1))
        b = bootstrap_point(fit, 5, 5000, Risk.L2, Seed(2))
        assert abs(a - b) / a < 0.05
