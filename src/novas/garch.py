"""GARCH(1,1) comparison methods: Gaussian quasi-MLE, the direct variance
recursion, and the bootstrap variant that resamples fitted volatilities, at
indices its caller gives, so that a backtest window's bootstraps can share
one block of uniforms.

Estimation minimizes the negative log-likelihood over a smooth
reparameterization (log intercept; persistence and its ARCH share through
logistic maps), which keeps every iterate inside the stationarity region and
copes with the likelihood ridge along ``alpha1 + beta1 ~ 1``. Starts are
variance-targeted: each candidate's intercept matches the sample variance at
its persistence. Two more runs probe the persistence bound, and the best of
the seven wins.

Each run is a Newton search on the exact score and Hessian (Bollerslev 1986;
Fiorentini, Calzolari & Panattoni 1996). The variance sensitivities obey the
recursion of the variance itself,
``d sigma2_t = (1, Y_{t-1}^2, sigma2_{t-1}) + beta1 * d sigma2_{t-1}`` in
``(omega, alpha1, beta1)`` with ``d sigma2_1 = 0``, and so do the second
derivatives, of which only those in ``beta1`` are nonzero:
``d2 sigma2_t / d beta1 d(...) = d sigma2_{t-1} * (1, 1, 2) + beta1 *
d2 sigma2_{t-1} / d beta1 d(...)``. Each is a first-order linear filter with
a nonnegative drive, run by doubling steps in elementwise numpy, so no BLAS
call enters a fit and its result does not depend on the BLAS thread count.
The chain rule carries both through the reparameterization, and each 3x3
system is solved through its explicit Cholesky factor. Where the Hessian is
not positive definite the run takes a BHHH step instead (Berndt, Hall, Hall
& Hausman 1974), whose matrix is the outer product of the per-observation
scores.

The persistence logit is bounded at ``logit(1 - 1e-9)`` rather than the
persistence clipped, which would flatten the gradient there. A step that
would cross the bound stops on it, and while the likelihood still rises
outward the bound is active: the run continues over the other two
coordinates. A fit that ends on the bound says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError
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


@dataclass(frozen=True, eq=False)
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


def _filter(x: np.ndarray, coef: float) -> np.ndarray:
    """``x_t += coef * x_{t-1}`` along axis 0, in place: the linear filter
    with drive ``x`` from ``x_{-1} = 0``.

    After the doubling step of span ``k``, ``x_t`` holds the drives
    ``t-2k+1 .. t`` weighted by powers of ``coef``, so ``ceil(log2 n)``
    elementwise steps finish it. Every drive here is nonnegative, so no term
    cancels.
    """
    k = 1
    while k < x.shape[0]:
        x[k:] += coef * x[:-k]
        k += k
        coef *= coef
    return x


def conditional_variance(
    params: GarchParams, values: np.ndarray, sigma2_init: float
) -> np.ndarray:
    """``sigma2_t = omega + alpha1*Y_{t-1}^2 + beta1*sigma2_{t-1}`` with
    ``sigma2_1 = sigma2_init``, computed as a linear filter."""
    out = np.empty(values.size)
    out[0] = sigma2_init
    out[1:] = params.omega + params.alpha1 * values[:-1] ** 2
    return _filter(out, params.beta1)


def _loglik(y2: np.ndarray, sig2: np.ndarray) -> float:
    return float(-0.5 * np.sum(_LOG_2PI + np.log(sig2) + y2 / sig2))


def _derivatives(beta1: float, y2: np.ndarray, sig2: np.ndarray):
    """Gradient, Hessian and outer product of the per-observation scores of
    the log-likelihood in ``(omega, alpha1, beta1)``, as Python floats."""
    # d sigma2_t / d(omega, alpha1, beta1): the filter of
    # (1, Y_{t-1}^2, sigma2_{t-1}) from d sigma2_1 = 0
    sens = np.zeros((y2.size, 3))
    sens[1:, 0] = 1.0
    sens[1:, 1] = y2[:-1]
    sens[1:, 2] = sig2[:-1]
    _filter(sens, beta1)
    # d sens_t / d beta1, the filter of sens_{t-1} * (1, 1, 2) from zero
    curv = np.zeros_like(sens)
    curv[1:] = sens[:-1]
    curv[1:, 2] *= 2.0
    _filter(curv, beta1)
    ratio = y2 / sig2
    weight = 0.5 * (ratio - 1.0) / sig2  # d ll / d sigma2_t
    # d2 ll / d sigma2_t^2 and the squared weight, per pair of sensitivities
    coef = np.stack(((0.5 - ratio) / (sig2 * sig2), weight * weight), axis=1)
    outer = (sens[:, :, None] * sens[:, None, :]).reshape(-1, 1, 9)
    hess, opg = (outer * coef[:, :, None]).sum(axis=0).reshape(2, 3, 3).tolist()
    first = (np.concatenate((sens, curv), axis=1) * weight[:, None]).sum(axis=0)
    grad, extra = first[:3].tolist(), first[3:].tolist()
    # only the second derivatives in beta1 are nonzero
    for i in range(2):
        hess[i][2] += extra[i]
        hess[2][i] += extra[i]
    hess[2][2] += extra[2]
    return grad, hess, opg


def _expit(x: float) -> tuple[float, float]:
    """The logistic map and its derivative, without overflow."""
    e = math.exp(-abs(x))
    p = 1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e)
    return p, e / (1.0 + e) ** 2


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _params(theta) -> GarchParams:
    """Coefficients at a search point ``(log omega, logit persistence,
    logit ARCH share)``."""
    persistence, _ = _expit(theta[1])
    share, _ = _expit(theta[2])
    return GarchParams(
        math.exp(theta[0]), persistence * share, persistence * (1.0 - share)
    )


def _congruence(omega, a1, b1, a2, b2, m) -> list[list[float]]:
    """``J' m J`` for the Jacobian ``J`` with columns ``(omega, 0, 0)``,
    ``(0, a1, b1)`` and ``(0, a2, b2)``."""
    r1 = a1 * m[0][1] + b1 * m[0][2]
    r2 = a2 * m[0][1] + b2 * m[0][2]
    c11 = a1 * a1 * m[1][1] + 2.0 * a1 * b1 * m[1][2] + b1 * b1 * m[2][2]
    c12 = a1 * a2 * m[1][1] + (a1 * b2 + b1 * a2) * m[1][2] + b1 * b2 * m[2][2]
    c22 = a2 * a2 * m[1][1] + 2.0 * a2 * b2 * m[1][2] + b2 * b2 * m[2][2]
    return [
        [omega * omega * m[0][0], omega * r1, omega * r2],
        [omega * r1, c11, c12],
        [omega * r2, c12, c22],
    ]


def _chain(theta, grad, hess, opg):
    """Gradient, Hessian and score outer product of the negative
    log-likelihood in the search coordinates, from those of the
    log-likelihood in the coefficients."""
    omega = math.exp(theta[0])
    persistence, dp = _expit(theta[1])
    share, ds = _expit(theta[2])
    # d(alpha1, beta1) / d theta1 and / d theta2
    a1, b1 = dp * share, dp * (1.0 - share)
    a2, b2 = persistence * ds, -persistence * ds
    g_omega, g_alpha, g_beta = grad
    g_p = share * g_alpha + (1.0 - share) * g_beta
    g_s = g_alpha - g_beta
    h = _congruence(omega, a1, b1, a2, b2, hess)
    # plus the score times the second derivatives of the coefficients
    h[0][0] += omega * g_omega
    h[1][1] += dp * (1.0 - 2.0 * persistence) * g_p
    h[1][2] += dp * ds * g_s
    h[2][1] += dp * ds * g_s
    h[2][2] += persistence * ds * (1.0 - 2.0 * share) * g_s
    g = [-omega * g_omega, -dp * g_p, -persistence * ds * g_s]
    return g, [[-v for v in row] for row in h], _congruence(omega, a1, b1, a2, b2, opg)


def _solve(m, g, shift: float = 0.0) -> list[float] | None:
    """``-(m + shift*I)^-1 g`` through the explicit Cholesky factor of the
    3x3 matrix; None unless ``m + shift*I`` is positive definite."""
    d0 = m[0][0] + shift
    if not d0 > 0.0:
        return None
    l00 = math.sqrt(d0)
    l10, l20 = m[1][0] / l00, m[2][0] / l00
    d1 = m[1][1] + shift - l10 * l10
    if not d1 > 0.0:
        return None
    l11 = math.sqrt(d1)
    l21 = (m[2][1] - l20 * l10) / l11
    d2 = m[2][2] + shift - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        return None
    l22 = math.sqrt(d2)
    z0 = -g[0] / l00
    z1 = (-g[1] - l10 * z0) / l11
    z2 = (-g[2] - l20 * z0 - l21 * z1) / l22
    x2 = z2 / l22
    x1 = (z1 - l21 * x2) / l11
    return [(z0 - l10 * x1 - l20 * x2) / l00, x1, x2]


# variance-targeted (persistence, ARCH share) multi-start menu
_STARTS = ((0.90, 0.10), (0.95, 0.05), (0.70, 0.30), (0.98, 0.08), (0.50, 0.20))

# the logistic map saturates to 1.0 in float64: bounding the persistence
# logit keeps every iterate strictly inside the stationarity region
_P_MAX = 1.0 - 1e-9
_THETA1_MAX = math.log(_P_MAX / (1.0 - _P_MAX))

_MAX_ITER = 100  # iterations per run
_TOL = 1e-10  # a run has converged once its step promises less decrease
_TOL_LAST = 1e-6  # below this promise, a quadratically converging step is the last
_ARMIJO = 1e-4  # share of the first-order decrease a step must keep


@dataclass(frozen=True)
class _Run:
    theta: list[float]
    f: float
    iterations: int
    converged: bool


def _search(theta, negative_loglik, derivatives, free=(True, True, True)) -> _Run:
    """Minimize from ``theta`` over its ``free`` coordinates.

    Each iteration takes the Newton step where the Hessian is positive
    definite and the BHHH step (the outer product of the per-observation
    scores) elsewhere, no longer in any coordinate than a radius that
    doubles after each full step and shrinks to each backtracked one. A full
    step that gains more than its quadratic model is doubled while the gain
    continues: near a saturated logistic or log coordinate the likelihood
    flattens exponentially and Newton steps there advance by about one unit.
    """
    f, sig2 = negative_loglik(theta)
    radius, last = 1.0, math.inf
    for it in range(_MAX_ITER):
        g, h, opg = derivatives(theta, sig2)
        # the persistence bound is active while the likelihood rises outward
        fixed = (not free[0],
                 not free[1] or (theta[1] >= _THETA1_MAX and g[1] < 0.0),
                 not free[2])
        for i in range(3):
            if fixed[i]:
                g[i] = 0.0
                for j in range(3):
                    h[i][j] = h[j][i] = opg[i][j] = opg[j][i] = float(i == j)
        d = _solve(h, g)
        newton = d is not None
        if d is None:
            # the BHHH matrix is only semidefinite where a coordinate has
            # saturated; a relative ridge of 1e-12 keeps it solvable
            d = _solve(opg, g, 1e-12 * max(opg[0][0], opg[1][1], opg[2][2]))
            if d is None:
                return _Run(theta, f, it, False)
        promised = -(g[0] * d[0] + g[1] * d[1] + g[2] * d[2])
        if promised < _TOL:
            return _Run(theta, f, it, True)
        length = max(abs(d[0]), abs(d[1]), abs(d[2]))

        def point(t):
            out = [x + t * di if di else x for x, di in zip(theta, d)]
            out[1] = min(out[1], _THETA1_MAX)
            return out

        t = full = min(1.0, radius / length)
        while True:
            trial = point(t)
            f_trial, sig2_trial = negative_loglik(trial)
            slope = sum(gi * (x - y) for gi, x, y, di in zip(g, trial, theta, d) if di)
            if f_trial <= f + _ARMIJO * min(slope, 0.0):
                break
            t *= 0.5
            if t * length < 1e-10:
                # no representable improvement: converged up to rounding
                return _Run(theta, f, it, promised < 1e3 * _TOL)
        if t == full and f - f_trial > 0.6 * t * promised:
            while theta[1] + 2.0 * t * d[1] <= _THETA1_MAX:
                further = point(2.0 * t)
                f_further, sig2_further = negative_loglik(further)
                if not f_further < f_trial:
                    break
                gain = f_trial - f_further
                t, trial, f_trial, sig2_trial = 2.0 * t, further, f_further, sig2_further
                if gain < _TOL:
                    break
        elif newton and t == 1.0 and promised < min(_TOL_LAST, 1e-2 * last):
            # a full Newton step whose promise fell a hundredfold since the
            # last one: convergence is quadratic, so the gap it leaves is far
            # below _TOL and checking it would cost one more evaluation
            return _Run(trial, f_trial, it + 1, True)
        last = promised
        radius = 2.0 * t * length if t >= full else t * length
        theta, f, sig2 = trial, f_trial, sig2_trial
    return _Run(theta, f, _MAX_ITER, False)


def fit_garch11_mle(y: ReturnSeries) -> GarchFit:
    """Quasi-MLE over the stationarity region; best of the multi-start runs.

    After the five starts, two runs probe the persistence bound, which a
    search from the interior reaches only slowly: one over the bound's face
    from the best start's intercept and ARCH share, one over the intercept
    at the face's ``alpha1 = 0`` corner. A run that stops short of
    convergence still competes; the winner's ``converged`` flag records it.
    """
    values = y.values
    if values.size < 30:
        raise DataError(f"need at least 30 observations to fit, got {values.size}")
    sample_var = float(np.var(values))
    if not sample_var > 0.0:
        raise DataError("degenerate (constant) series")
    y2 = values * values

    def negative_loglik(theta) -> tuple[float, np.ndarray | None]:
        try:
            params = _params(theta)
        except (OverflowError, DataError):
            return math.inf, None
        sig2 = conditional_variance(params, values, sample_var)
        ll = _loglik(y2, sig2)
        return (-ll, sig2) if math.isfinite(ll) else (math.inf, None)

    def derivatives(theta, sig2):
        return _chain(theta, *_derivatives(_params(theta).beta1, y2, sig2))

    best = None

    def run(theta, free=(True, True, True)):
        nonlocal best
        result = _search(theta, negative_loglik, derivatives, free)
        if math.isfinite(result.f) and (best is None or result.f < best.f):
            best = result

    # far-off trial points overflow the variance path; they score +inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for persistence, share in _STARTS:
            run([math.log(sample_var * (1.0 - persistence)), _logit(persistence),
                 _logit(share)])
        if best is None:
            raise FitError("likelihood optimization failed from every start")
        run([best.theta[0], _THETA1_MAX, best.theta[2]], (True, False, True))
        # the corner's intercept starts where the variance path would double
        # over the window
        run([math.log(sample_var / values.size), _THETA1_MAX, -math.inf],
            (True, False, False))

    # the winner's log-likelihood is its search value, on the same path
    params = _params(best.theta)
    return GarchFit(
        params,
        conditional_variance(params, values, sample_var),
        -best.f,
        converged=best.converged,
        iterations=best.iterations,
        persistence_at_bound=best.theta[1] >= _THETA1_MAX,
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


def garch_bootstrap_squares(
    fit: GarchFit, gen: np.random.Generator, indices: np.ndarray
) -> np.ndarray:
    """The step-major ``(h, M)`` squares of ``M`` bootstrap paths of ``h``
    steps from a fitted model, for a step-major ``(h, M)`` block of
    ``indices`` into its fitted volatilities.

    Each path value is the fitted volatility at its index times a fresh
    standard-normal innovation, drawn from ``gen`` in the same step-major
    order. A backtest window passes the index block of its shared uniforms
    (``innovations.resample_indices``), so the GARCH bootstrap resamples
    through the same uniforms as the window's NoVaS bootstraps. The squares
    come one contiguous row per step, in the layout of
    ``predictor.simulate_squares``.
    """
    paths = np.sqrt(fit.sigma2_path).take(indices)
    paths *= gen.standard_normal(indices.shape)
    return np.square(paths, out=paths)
