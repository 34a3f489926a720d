"""GARCH(1,1) comparison methods: Gaussian quasi-MLE, the direct variance
recursion, and the bootstrap variant that resamples fitted volatilities.

Estimation minimizes the negative log-likelihood over a smooth
reparameterization (log intercept; persistence and its ARCH share through
logistic maps), which keeps every iterate inside the stationarity region and
copes with the likelihood ridge along ``alpha1 + beta1 ~ 1``. Starts are
variance-targeted: each candidate's intercept matches the sample variance at
its persistence, and the best of the five runs wins.

Each run is a bounded quasi-Newton search (SLSQP) on the exact score
(Bollerslev 1986; Fiorentini, Calzolari & Panattoni 1996). The variance
sensitivities obey the recursion of the variance itself,
``d sigma2_t = (1, Y_{t-1}^2, sigma2_{t-1}) + beta1 * d sigma2_{t-1}`` in
``(omega, alpha1, beta1)`` with ``d sigma2_1 = 0``, so one more linear filter
over three rows gives all three; the chain rule carries them through the
reparameterization. The search bounds the persistence logit at
``logit(1 - 1e-9)`` rather than clipping the persistence, which would flatten
the gradient there; a fit that ends on the bound says so. SLSQP is used
because, unlike L-BFGS-B, it stays fast when forked workers run with
multi-threaded BLAS.
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
from .predictor import ForecastResult, Risk, Statistic, check_paths
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
    converged: bool = True
    iterations: int = 0
    persistence_at_bound: bool = False

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
            "converged": self.converged,
            "iterations": self.iterations,
            "persistence_at_bound": self.persistence_at_bound,
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


def garch_score(
    params: GarchParams, values: np.ndarray, sigma2_init: float | None = None
) -> tuple[float, np.ndarray]:
    """:func:`gaussian_loglik` and its score, the gradient in
    ``(omega, alpha1, beta1)``."""
    if sigma2_init is None:
        sigma2_init = float(np.var(values))
    # d sigma2_t / d(omega, alpha1, beta1) = (1, Y_{t-1}^2, sigma2_{t-1})
    # + beta1 * d sigma2_{t-1}, from d sigma2_1 = 0: one filter over three rows
    sig2 = conditional_variance(params, values, sigma2_init)
    y2 = values * values
    ll = -0.5 * np.sum(_LOG_2PI + np.log(sig2) + y2 / sig2)
    drive = np.empty((3, values.size - 1))
    drive[0] = 1.0
    drive[1] = y2[:-1]
    drive[2] = sig2[:-1]
    sens = lfilter([1.0], [1.0, -params.beta1], drive, axis=1)
    # d ll / d sigma2_t; a row-wise sum, not a matrix product, keeps BLAS out
    weight = 0.5 * (y2[1:] / sig2[1:] - 1.0) / sig2[1:]
    return float(ll), (sens * weight).sum(axis=1)


def _unpack(theta: np.ndarray) -> tuple[float, float, float]:
    """``(omega, persistence, ARCH share)`` at a search point."""
    return math.exp(theta[0]), float(expit(theta[1])), float(expit(theta[2]))


def _params(omega: float, persistence: float, share: float) -> GarchParams:
    return GarchParams(omega, persistence * share, persistence * (1.0 - share))


# variance-targeted (persistence, ARCH share) multi-start menu
_STARTS = ((0.90, 0.10), (0.95, 0.05), (0.70, 0.30), (0.98, 0.08), (0.50, 0.20))

# expit saturates to 1.0 in float64: bounding the persistence logit keeps
# every iterate strictly inside the stationarity region
_THETA1_MAX = float(logit(1.0 - 1e-9))
_BOUNDS = ((None, None), (None, _THETA1_MAX), (None, None))


def fit_garch11_mle(y: ReturnSeries) -> GarchFit:
    """Quasi-MLE over the stationarity region; best of the multi-start runs.

    A start that stops short of convergence still competes; the winner's
    ``converged`` flag records it.
    """
    values = y.values
    if values.size < 30:
        raise DataError(f"need at least 30 observations to fit, got {values.size}")
    sample_var = float(np.var(values))
    if not sample_var > 0.0:
        raise DataError("degenerate (constant) series")

    def negative_loglik(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            omega, persistence, share = _unpack(theta)
            params = _params(omega, persistence, share)
        except (OverflowError, DataError):
            return math.inf, np.zeros(3)
        ll, (g_omega, g_alpha, g_beta) = garch_score(params, values, sample_var)
        # chain rule through omega = exp(theta0), persistence = expit(theta1)
        # and share = expit(theta2)
        grad = np.array(
            [
                omega * g_omega,
                persistence
                * (1.0 - persistence)
                * (share * g_alpha + (1.0 - share) * g_beta),
                persistence * share * (1.0 - share) * (g_alpha - g_beta),
            ]
        )
        if not (math.isfinite(ll) and np.all(np.isfinite(grad))):
            return math.inf, np.zeros(3)
        return -ll, -grad

    best = None
    # far-off trial points overflow the variance path; they score +inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
                jac=True,
                method="SLSQP",
                bounds=_BOUNDS,
                options={"maxiter": 500, "ftol": 1e-12},
            )
            if math.isfinite(res.fun) and (best is None or res.fun < best.fun):
                best = res
    if best is None:
        raise FitError("likelihood optimization failed from every start")

    params = _params(*_unpack(best.x))
    sig2 = conditional_variance(params, values, sample_var)
    return GarchFit(
        params,
        sig2,
        gaussian_loglik(params, values, sample_var),
        converged=bool(best.success),
        iterations=int(best.nit),
        persistence_at_bound=bool(best.x[1] >= _THETA1_MAX),
    )


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
    if h < 1:
        raise DataError(f"horizon {h} must be >= 1")
    check_paths(M)
    seed = Seed.of(seed)
    statistic = Statistic(statistic)
    paths = garch_bootstrap_paths(fit, substream(seed), M, h)
    return ForecastResult.of_ensemble(
        statistic.per_path(paths), risk, h, statistic.value, seed
    )
