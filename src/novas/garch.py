"""GARCH(1,1) comparison methods: Gaussian quasi-MLE, the direct variance
recursion, and the bootstrap variant that resamples fitted volatilities.

Estimation is a multi-started Nelder-Mead search over a smooth unconstrained
reparameterization (log intercept; persistence and its ARCH share through
logistic maps), which keeps every iterate inside the stationarity region and
copes with the likelihood ridge along ``alpha1 + beta1 ~ 1``. Starts are
variance-targeted: each candidate's intercept matches the sample variance at
its persistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.special import expit, logit

from .errors import DataError, FitError
from .innovations import Seed, substream
from .predictor import ForecastResult, Risk, Statistic
from .returns import ReturnSeries

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GarchParams:
    """Variance-equation coefficients, constrained to the stationary region."""

    omega: float
    alpha1: float
    beta1: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DataError(f"omega={self.omega} must be positive")
        if self.alpha1 < 0.0 or self.beta1 < 0.0:
            raise DataError("alpha1 and beta1 must be nonnegative")
        if not self.alpha1 + self.beta1 < 1.0:
            raise DataError(
                f"alpha1 + beta1 = {self.alpha1 + self.beta1} violates stationarity"
            )

    def to_dict(self) -> dict:
        return {"omega": self.omega, "alpha1": self.alpha1, "beta1": self.beta1}


@dataclass(frozen=True)
class GarchFit:
    """Fitted parameters with the in-sample conditional-variance path."""

    params: GarchParams
    sigma2_path: np.ndarray
    loglik: float

    def __post_init__(self):
        path = np.asarray(self.sigma2_path, dtype=float)
        object.__setattr__(self, "sigma2_path", path)
        if path.size == 0 or np.any(path <= 0.0) or not np.all(np.isfinite(path)):
            raise DataError("conditional-variance path must be strictly positive")

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "loglik": self.loglik,
            "n": int(self.sigma2_path.size),
        }


def conditional_variance(
    params: GarchParams, values: np.ndarray, sigma2_init: float
) -> np.ndarray:
    """``sigma2_t = omega + alpha1*Y_{t-1}^2 + beta1*sigma2_{t-1}`` with
    ``sigma2_1 = sigma2_init``, computed as a linear filter."""
    n = values.size
    out = np.empty(n)
    out[0] = sigma2_init
    if n > 1:
        drive = params.omega + params.alpha1 * values[:-1] ** 2
        out[1:] = lfilter(
            [1.0], [1.0, -params.beta1], drive, zi=[params.beta1 * sigma2_init]
        )[0]
    return out


def gaussian_loglik(
    params: GarchParams, values: np.ndarray, sigma2_init: float | None = None
) -> float:
    """Gaussian conditional log-likelihood, first observation included."""
    if sigma2_init is None:
        sigma2_init = float(np.var(values))
    sig2 = conditional_variance(params, values, sigma2_init)
    return float(-0.5 * np.sum(_LOG_2PI + np.log(sig2) + values**2 / sig2))


def _unpack(theta: np.ndarray) -> tuple[float, float, float]:
    omega = math.exp(theta[0])
    # expit saturates to 1.0 in float64; keep persistence strictly inside
    # the stationarity region
    persistence = min(float(expit(theta[1])), 1.0 - 1e-9)
    share = float(expit(theta[2]))
    return omega, persistence * share, persistence * (1.0 - share)


# variance-targeted (persistence, ARCH share) multi-start menu
_STARTS = ((0.90, 0.10), (0.95, 0.05), (0.70, 0.30), (0.98, 0.08), (0.50, 0.20))


def fit_garch11_mle(y: ReturnSeries) -> GarchFit:
    """Quasi-MLE over the stationarity region; best of the multi-start runs."""
    values = y.values
    if values.size < 30:
        raise DataError(f"need at least 30 observations to fit, got {values.size}")
    sample_var = float(np.var(values))
    if not sample_var > 0.0:
        raise DataError("degenerate (constant) series")

    def negative_loglik(theta: np.ndarray) -> float:
        try:
            omega, alpha1, beta1 = _unpack(theta)
        except OverflowError:
            return math.inf
        if not (omega > 0.0 and math.isfinite(omega)):
            return math.inf
        drive = omega + alpha1 * values[:-1] ** 2
        sig2 = np.empty(values.size)
        sig2[0] = sample_var
        sig2[1:] = lfilter([1.0], [1.0, -beta1], drive, zi=[beta1 * sample_var])[0]
        if np.any(sig2 <= 0.0) or not np.all(np.isfinite(sig2)):
            return math.inf
        ll = -0.5 * np.sum(_LOG_2PI + np.log(sig2) + values**2 / sig2)
        return float(-ll) if math.isfinite(ll) else math.inf

    best_theta = None
    best_val = math.inf
    for persistence, share in _STARTS:
        theta0 = np.array(
            [
                math.log(sample_var * (1.0 - persistence)),
                float(logit(persistence)),
                float(logit(share)),
            ]
        )
        res = minimize(
            negative_loglik,
            theta0,
            method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-8, "fatol": 1e-10},
        )
        value = float(res.fun)
        if value < best_val:
            best_val, best_theta = value, res.x
    if best_theta is None or not math.isfinite(best_val):
        raise FitError("likelihood optimization failed from every start")

    omega, alpha1, beta1 = _unpack(best_theta)
    params = GarchParams(omega, alpha1, beta1)
    sig2 = conditional_variance(params, values, sample_var)
    return GarchFit(params, sig2, gaussian_loglik(params, values, sample_var))


def garch_direct_forecast(fit: GarchFit, last_y2: float, h: int) -> np.ndarray:
    """Model-based variance recursion: the h-step squared-return forecasts.

    ``sigma2_{n+1} = omega + alpha1*Y_n^2 + beta1*sigma2_n``, then
    ``sigma2_{n+k} = omega + (alpha1+beta1)*sigma2_{n+k-1}``.
    """
    if h < 1:
        raise DataError(f"horizon {h} must be >= 1")
    p = fit.params
    out = np.empty(h)
    out[0] = p.omega + p.alpha1 * last_y2 + p.beta1 * fit.sigma2_path[-1]
    persistence = p.alpha1 + p.beta1
    for k in range(1, h):
        out[k] = p.omega + persistence * out[k - 1]
    return out


def garch_bootstrap_paths(
    fit: GarchFit, gen: np.random.Generator, M: int, h: int
) -> np.ndarray:
    """``(M, h)`` bootstrap paths from a fitted model: fitted volatilities
    resampled i.i.d. (drawn first), each times a fresh standard-normal
    innovation (drawn second)."""
    sig_star = gen.choice(np.sqrt(fit.sigma2_path), size=(M, h), replace=True)
    return sig_star * gen.standard_normal((M, h))


def garch_bootstrap_forecast(
    fit: GarchFit,
    h: int,
    M: int,
    risk: Risk,
    seed,
    statistic: Statistic = Statistic.AGGREGATED_SQUARED,
) -> ForecastResult:
    """Model-free-style forecast from a fitted model: the per-path statistic
    of :func:`garch_bootstrap_paths`, reduced exactly as the transform
    predictor reduces its ensemble.
    """
    if h < 1 or M < 1:
        raise DataError("horizon and path count must be positive")
    seed = Seed.of(seed)
    statistic = Statistic(statistic)
    paths = garch_bootstrap_paths(fit, substream(seed), M, h)
    return ForecastResult.of_ensemble(
        statistic.per_path(paths), risk, h, statistic.value, seed
    )
