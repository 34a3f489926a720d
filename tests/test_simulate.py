import hashlib
import math

import numpy as np
import pytest

from novas import DataError, Seed, generate, sample_kurtosis
from novas.simulate import (
    MODELS,
    ModelSpec,
    egarch_recursion,
    gjr_recursion,
    m1_alpha,
    m1_beta,
    m1_omega,
    m2_alpha,
    m2_beta,
    step_g,
)

# first 16 hex digits of the SHA-256 over generate's float64 bytes at seed 3,
# (n, burn_in) in PINNED_SHAPES, as (scale_t_errors off, on)
PINNED_SHAPES = ((1, 0), (1, 500), (280, 500), (20000, 0))
PINNED = {
    "M1": ("376530be6853ca13", "376530be6853ca13"),
    "M2": ("2994d2ba0779385c", "2994d2ba0779385c"),
    "M3": ("52840c8821284e42", "52840c8821284e42"),
    "M4": ("026bd5008fa87e7b", "026bd5008fa87e7b"),
    "M5": ("9da0d2dc496ec70c", "10202e78d345f820"),
    "M6": ("4c54a4d9fb24075f", "4c54a4d9fb24075f"),
    "M7": ("9235efe9807ff6f0", "9235efe9807ff6f0"),
    "M8": ("16eaf6ff67809bdc", "16eaf6ff67809bdc"),
}


class TestSpec:
    def test_unknown_model(self):
        with pytest.raises(DataError):
            ModelSpec(model="M9")

    def test_custom_is_unknown_model(self):
        with pytest.raises(DataError):
            ModelSpec(model="CUSTOM")

    def test_lengths(self):
        for n in (250, 500):
            assert len(generate(ModelSpec(model="M3", n=n, seed=Seed(0)))) == n
        spec = ModelSpec(model="M3", n=np.int64(20), burn_in=np.int32(5))
        assert len(generate(spec)) == 20
        # refused when the spec is built, not with a TypeError inside generate
        for name, value in (("n", 2.5), ("burn_in", 10.0), ("n", "20")):
            with pytest.raises(DataError, match=f"{name} must be an integer"):
                ModelSpec(model="M3", **{name: value})

    # a string used to build a spec and act as true
    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_non_bool_flag_refused(self, value):
        with pytest.raises(DataError, match="scale_t_errors must be a bool"):
            ModelSpec(model="M5", n=100, scale_t_errors=value)
        spec = ModelSpec(model="M5", n=100, scale_t_errors=np.bool_(True))
        assert spec.scale_t_errors is True

    def test_seed_determinism(self):
        for model in ("M1", "M3", "M5", "M6", "M7"):
            a = generate(ModelSpec(model=model, n=100, seed=Seed(9)))
            b = generate(ModelSpec(model=model, n=100, seed=Seed(9)))
            np.testing.assert_array_equal(a.values, b.values)
            c = generate(ModelSpec(model=model, n=100, seed=Seed(10)))
            assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("model", MODELS)
    def test_output_pinned(self, model, scale):
        digest = hashlib.sha256()
        for n, burn_in in PINNED_SHAPES:
            spec = ModelSpec(model=model, n=n, burn_in=burn_in, seed=Seed(3),
                             scale_t_errors=scale)
            digest.update(generate(spec).values.tobytes())
        assert digest.hexdigest()[:16] == PINNED[model][scale]


class TestCoefficients:
    def test_m2_at_end_of_sample(self):
        assert m2_alpha(1.0) == pytest.approx(0.05, abs=1e-15)
        assert m2_beta(1.0) == pytest.approx(0.93, abs=1e-15)

    def test_m1_ranges(self):
        gs = np.linspace(0.001, 1.0, 200)
        omegas = np.array([m1_omega(g) for g in gs])
        alphas = np.array([m1_alpha(g) for g in gs])
        betas = np.array([m1_beta(g) for g in gs])
        assert omegas.min() >= 1.0 and omegas.max() <= 5.0
        assert alphas.max() <= 0.5 and alphas.min() > 0.0
        assert betas.min() >= 0.2 and betas.max() <= 0.4

    def test_time_varying_span(self):
        # delivered coefficients sweep g over (0, 1], held at 1/n in burn-in
        g = step_g(n=4, burn_in=4)
        assert g == [0.25] * 4 + [0.25, 0.5, 0.75, 1.0]
        assert g[-1] == pytest.approx(1.0)
        assert min(g) > 0.0


class TestRecursions:
    def test_garch_recursion_step(self):
        eps = np.array([1.0, -2.0, 0.5])
        x = gjr_recursion(eps, omega=1e-5, alpha1=0.1, beta1=0.73, gamma1=0.0,
                          sigma2_init=4e-4)
        sig2_1 = 4e-4
        assert x[0] == pytest.approx(math.sqrt(sig2_1) * 1.0)
        sig2_2 = 1e-5 + 0.73 * sig2_1 + 0.1 * x[0] ** 2
        assert x[1] == pytest.approx(math.sqrt(sig2_2) * -2.0)

    def test_gjr_indicator_all_positive_behaves_as_garch(self):
        eps = np.abs(np.random.default_rng(0).normal(size=300)) + 0.01
        gjr = gjr_recursion(eps, 1e-5, 0.5, 0.5, -0.5, 4e-5)
        plain = gjr_recursion(eps, 1e-5, 0.5, 0.5, 0.0, 4e-5)
        np.testing.assert_allclose(gjr, plain, rtol=1e-12)

    def test_per_step_coefficients_match_scalars(self):
        eps = np.random.default_rng(1).normal(size=50)
        steps = np.ones(eps.size)
        scalar = gjr_recursion(eps, 1e-5, 0.1, 0.73, 0.3, 5e-4)
        per_step = gjr_recursion(eps, 1e-5 * steps, 0.1 * steps, 0.73 * steps,
                                 [0.3] * eps.size, 5e-4)
        np.testing.assert_array_equal(per_step, scalar)

    def test_gjr_indicator_activates_on_negative(self):
        eps = np.array([1.0, -1.0, 1.0])
        x = gjr_recursion(eps, 1e-5, 0.1, 0.73, 0.3, 5e-4)
        sig2_2 = 1e-5 + 0.73 * 5e-4 + 0.1 * x[0] ** 2  # x[0] > 0, no leverage
        assert x[1] == pytest.approx(math.sqrt(sig2_2) * -1.0)
        sig2_3 = 1e-5 + 0.73 * sig2_2 + (0.1 + 0.3) * x[1] ** 2  # x[1] <= 0
        assert x[2] == pytest.approx(math.sqrt(sig2_3) * 1.0)

    def test_egarch_mean_abs_correction(self):
        eps = np.array([0.0, 0.0])
        x = egarch_recursion(eps, 0.0, 0.0, 0.0, 1.0, log_sigma2_init=0.0)
        assert x[1] == 0.0  # sigma finite, eps zero
        eps = np.array([math.sqrt(2.0 / math.pi), 1.0])
        x = egarch_recursion(eps, 0.0, 0.0, 0.0, 1.0, log_sigma2_init=0.0)
        # |eps_0| equals E|eps|, so the log-variance stays at 0
        assert x[1] == pytest.approx(1.0, rel=1e-12)


class TestDistributionalChecks:
    def test_m3_long_run_variance(self):
        # oracle: unconditional variance omega/(1 - alpha1 - beta1)
        series = generate(ModelSpec(model="M3", n=10**6, burn_in=200, seed=Seed(77)))
        target = 1e-5 / 0.17
        assert float(np.var(series.values)) == pytest.approx(target, rel=0.05)

    def test_m5_heavy_tails(self):
        series = generate(ModelSpec(model="M5", n=10**5, seed=Seed(13)))
        spec = ModelSpec(model="M5", n=10**5, seed=Seed(13))
        # standardized residuals keep the t(5) tails
        from novas.innovations import substream

        eps = substream(spec.seed).standard_t(5.0, size=spec.burn_in + spec.n)
        sigma = series.values / eps[spec.burn_in :]
        assert np.all(sigma > 0)
        assert sample_kurtosis(eps[spec.burn_in :]) > 4.0

    def test_m5_scaled_toggle(self):
        raw = generate(ModelSpec(model="M5", n=20000, seed=Seed(5)))
        scaled = generate(ModelSpec(model="M5", n=20000, seed=Seed(5), scale_t_errors=True))
        assert float(np.var(scaled.values)) < float(np.var(raw.values))

    def test_m6_finite_for_long_runs(self):
        series = generate(ModelSpec(model="M6", n=10**6, burn_in=100, seed=Seed(3)))
        assert np.all(np.isfinite(series.values))

    def test_m7_m8_finite(self):
        for model in ("M7", "M8"):
            series = generate(ModelSpec(model=model, n=5000, seed=Seed(1)))
            assert np.all(np.isfinite(series.values))

