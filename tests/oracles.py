"""Independent, definition-level reference implementations used by the test
suite. Everything here is written as plain loops from the defining formulas,
deliberately sharing no code with the library's vectorized paths, except
:func:`oracle_rejection_normal`, whose chunk-by-chunk fill of one output
buffer is the byte reference for the library's trimmed-normal draw, and
:func:`oracle_block_simulate_paths`, whose whole-block ``y^2`` scratch is the
byte reference for the library's ensemble simulation.
"""

import functools
import math
import statistics

import numpy as np

A0_LIMIT = 1.0 / 9.0


def oracle_kurtosis(values) -> float:
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    d2 = [(v - mean) ** 2 for v in values]
    m2 = sum(d2) / n
    m4 = sum(v * v for v in d2) / n
    return m4 / (m2 * m2)


def oracle_prefix_variance(values, t: int) -> float:
    """Mean-centered variance of the first ``t`` observations, divisor ``t``."""
    window = [float(v) for v in values[:t]]
    if len(window) <= 1:
        return 0.0
    return statistics.pvariance(window)


@functools.lru_cache(maxsize=16)
def _prefix_variances(values: tuple) -> tuple:
    """``oracle_prefix_variance(values, t)`` for every ``t < len(values)``,
    memoized by the series' values: every candidate of a grid shares them."""
    return tuple(oracle_prefix_variance(values, t) for t in range(len(values)))


def oracle_residuals(values, alpha: float, eff: float, lags, prefix_vars=None):
    """Studentized residuals straight from the defining equation.

    ``prefix_vars[t]`` may hold the precomputed variance of the first ``t``
    observations (it depends only on the data, not on the candidate).
    """
    values = [float(v) for v in values]
    lags = [float(v) for v in lags]
    k = len(lags)
    if prefix_vars is None:
        prefix_vars = _prefix_variances(tuple(values))
    out = []
    for t0 in range(k, len(values)):
        acc = eff * values[t0] ** 2 + alpha * prefix_vars[t0]
        for i in range(1, k + 1):
            acc += lags[i - 1] * values[t0 - i] ** 2
        out.append(values[t0] / math.sqrt(acc))
    return out


def oracle_lag_multiplier(values, alpha, lags, prefix_vars=None):
    """``mean(Y_t^2 / D_t) * sum(lags)`` with ``D_t = alpha * s2_{t-1} +
    sum_i lag_i * Y_{t-i}^2``: the per-step growth of the lag part of the
    mean when the window's residuals are resampled through the inverse
    transform."""
    values = [float(v) for v in values]
    lags = [float(v) for v in lags]
    k = len(lags)
    if prefix_vars is None:
        prefix_vars = _prefix_variances(tuple(values))
    total = 0.0
    for t0 in range(k, len(values)):
        core = alpha * prefix_vars[t0]
        for i in range(1, k + 1):
            core += lags[i - 1] * values[t0 - i] ** 2
        total += values[t0] ** 2 / core
    return total / (len(values) - k) * sum(lags)


def _scores(values, alpha, eff, lags, prefix_vars):
    res = oracle_residuals(values, alpha, eff, lags, prefix_vars)
    objective = abs(oracle_kurtosis(res) - 3.0)
    return objective, oracle_lag_multiplier(values, alpha, lags, prefix_vars)


def _ge_profile(c, order, include_zero):
    start = 0 if include_zero else 1
    return [math.exp(-c * i) for i in range(start, order + 1)]


def _ge_adaptive_order(c, n, grid):
    cap = max(1, min(grid.order_cap, n // grid.order_cap_divisor))
    if c <= 0:
        return cap
    p = math.ceil(-math.log(grid.tail_mass) / c) - 1
    return max(1, min(p, cap))


def oracle_ga_budget(alpha, a1, b1, order):
    """GA's solved intercept budget ``a0/(1-b1) = 1 - alpha - sum(lags)`` at
    ``order`` lags, and whether it is admissible: ``0 <= budget <= 1/9`` and
    ``budget >= a1``, compared exactly."""
    lags = [a1 * b1 ** (i - 1) for i in range(1, order + 1)]
    budget = 1.0 - alpha - sum(lags)
    return budget, 0.0 <= budget <= A0_LIMIT and budget >= a1


def oracle_candidates(variant, alpha, values, grid):
    """Exhaustive enumeration of the variant's feasible grid.

    Returns one ``(params, order, a0, objective, lag_multiplier)`` tuple per
    feasible point, in grid order, each evaluated with the loop-based
    formulas above.
    """
    name = getattr(variant, "value", str(variant))
    n = len(values)
    values = [float(v) for v in values]
    prefix_vars = _prefix_variances(tuple(values))
    cands = []

    if name in ("GE", "GE_NO_A0"):
        for c in grid.ge_c_values():
            c = float(c)
            p = _ge_adaptive_order(c, n, grid)
            if name == "GE":
                cap = max(1, min(grid.order_max, n - 3))
                p = min(p, cap)
                while True:
                    profile = _ge_profile(c, p, True)
                    a0 = (1.0 - alpha) / sum(profile)
                    if a0 <= A0_LIMIT:
                        break
                    if p >= cap:
                        a0 = None
                        break
                    p = min(2 * p, cap)
                if a0 is None:
                    continue
                scale = (1.0 - alpha) / sum(profile)
                lags = [scale * v for v in profile[1:]]
                eff = a0
            else:
                profile = _ge_profile(c, p, False)
                scale = (1.0 - alpha) / sum(profile)
                lags = [scale * v for v in profile]
                a0, eff = 0.0, 0.0
            cands.append(((c,), p, a0, *_scores(values, alpha, eff, lags, prefix_vars)))

    elif name == "GA":
        q = max(1, min(grid.order_cap, n // grid.order_cap_divisor, n - 3))
        for a1 in grid.ga_values():
            for b1 in grid.ga_values():
                a1, b1 = float(a1), float(b1)
                budget, admissible = oracle_ga_budget(alpha, a1, b1, q)
                if not admissible:
                    continue
                lags = [a1 * b1 ** (i - 1) for i in range(1, q + 1)]
                a0 = budget * (1.0 - b1)
                cands.append(
                    ((a1, b1), q, a0, *_scores(values, alpha, budget, lags, prefix_vars))
                )

    elif name == "GA_NO_A0":
        q = max(1, min(grid.order_cap, n // grid.order_cap_divisor, n - 3))
        for b1 in grid.ga_values():
            b1 = float(b1)
            a1 = (1.0 - alpha) * (1.0 - b1) / (1.0 - b1**q)
            lags = [a1 * b1 ** (i - 1) for i in range(1, q + 1)]
            cands.append(((a1, b1), q, 0.0, *_scores(values, alpha, 0.0, lags, prefix_vars)))

    else:
        raise ValueError(name)

    return cands


def oracle_calibrate(variant, alpha, values, grid):
    """Returns ``(params, order, objective)`` of the best point among those
    with lag multiplier below 1 under the (objective, order, a0, position)
    tie-break, or, when no point has one, of the point with the smallest
    multiplier (then the same tie-break), mirroring the documented grid
    policy.
    """
    cands = oracle_candidates(variant, alpha, values, grid)
    if not cands:
        return None
    best = None
    for j, (_, order, a0, objective, mu) in enumerate(cands):
        if mu < 1.0:
            key = (0.0, objective, order, a0, j)
        else:
            key = (1.0, mu, objective, order, a0, j)
        if best is None or key < best[0]:
            best = (key, j)
    params, order, _, objective, _ = cands[best[1]]
    return params, order, objective


def oracle_garch_loglik(values, omega, alpha1, beta1, sigma2_init) -> float:
    """Definition-level Gaussian GARCH(1,1) log-likelihood."""
    values = [float(v) for v in values]
    sig2 = sigma2_init
    total = 0.0
    for t, v in enumerate(values):
        if t > 0:
            sig2 = omega + alpha1 * values[t - 1] ** 2 + beta1 * sig2
        total += -0.5 * (math.log(2.0 * math.pi) + math.log(sig2) + v * v / sig2)
    return total


def oracle_welford_variance_path(history, extensions) -> list[float]:
    """Variance (divisor = count) after appending each extension value."""
    values = [float(v) for v in history]
    out = []
    for x in extensions:
        values.append(float(x))
        out.append(statistics.pvariance(values))
    return out


def oracle_simulate_path(history, innovations, alpha, eff, lags):
    """One simulated path straight from the inverse of the defining equation,

        Y_k^2 = W_k^2 * (alpha * s2 + sum_i lag_i * Y_{k-i}^2) / (1 - eff * W_k^2),

    with the sign of ``W_k``: the full lag sum over the newest ``len(lags)``
    values of history plus path, and ``s2`` the variance of history plus path
    so far (through :func:`oracle_welford_variance_path`).
    """
    values = [float(v) for v in history]
    lags = [float(v) for v in lags]
    s2 = oracle_prefix_variance(values, len(values))
    path = []
    for w in innovations:
        w = float(w)
        core = alpha * s2
        for i in range(1, len(lags) + 1):
            core += lags[i - 1] * values[-i] ** 2
        y = math.copysign(math.sqrt(w * w * core / (1.0 - eff * w * w)), w)
        s2 = oracle_welford_variance_path(values, [y])[0]
        values.append(y)
        path.append(y)
    return path


def oracle_running_means(path) -> list[float]:
    """``out[h - 1]``: the mean of the first ``h`` squares of ``path``, their
    sum taken left to right and then divided by ``h``."""
    out = []
    total = 0.0
    for h, v in enumerate(path, start=1):
        total += float(v) * float(v)
        out.append(total / h)
    return out


def oracle_garch_bootstrap_paths(sigma2_path, indices, gen) -> list[list[float]]:
    """The ``M`` GARCH bootstrap paths of ``h`` steps for a step-major
    ``(h, M)`` block of ``indices`` into the fitted volatilities, each value
    the volatility at its index times a standard normal, as plain lists.

    The normals come from ``gen`` in the step-major order of the indices.
    """
    vols = [math.sqrt(float(v)) for v in sigma2_path]
    picks = np.asarray(indices).tolist()
    normals = gen.standard_normal(np.shape(indices)).tolist()
    steps = [
        [vols[i] * w for i, w in zip(pick_row, normal_row)]
        for pick_row, normal_row in zip(picks, normals)
    ]
    return [list(path) for path in zip(*steps)]


def oracle_rejection_normal(gen, bound: float, count: int):
    """``count`` draws of N(0,1) conditioned on ``|w| <= bound``, and the
    number of raw attempts: each chunk of ``max(missing, 128)`` raw normals
    is filtered and copied into one preallocated output buffer.
    """
    if not math.isfinite(bound):
        return gen.standard_normal(count), count
    out = np.empty(count)
    filled = 0
    attempts = 0
    while filled < count:
        chunk = max(count - filled, 128)
        raw = gen.standard_normal(chunk)
        attempts += chunk
        kept = raw[np.abs(raw) <= bound]
        take = min(kept.size, count - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out, attempts


def oracle_block_simulate_paths(ct, innovations):
    """The step-major signed pseudo-returns of a step-major ``(h, M)``
    innovation block, with ``W^2 / (1 - eff W^2)`` computed for the whole
    block into one ``(h, M)`` ``y^2`` scratch before the recursion, each
    step's lag window kept as one running sum and its variance advanced by
    Welford's update. The elementwise operations are the library's, in its
    order.
    """
    w = ct.weights
    p = w.order
    history = ct.history.values
    n = history.size
    hist2 = history[-p:] ** 2
    wt = np.array(innovations, dtype=float, order="C")
    h, m = wt.shape
    y2 = wt * wt
    if w.y2_self_coef:
        y2 *= -w.y2_self_coef
        y2 += 1.0
        np.divide(wt, y2, out=y2)
        y2 *= wt
    lag_sum = np.full(m, float(hist2[::-1] @ w.lags))
    count = n
    mean = np.full(m, history.mean())
    m2 = np.full(m, ct.s2_n * n)
    s2 = np.full(m, ct.s2_n)
    for k in range(h):
        y2[k] *= s2 * w.alpha + lag_sum
        wt[k] = np.copysign(np.sqrt(y2[k]), wt[k])
        dropped = hist2[k] if k < p else y2[k - p]
        lag_sum = (lag_sum - w.lags[-1] * dropped) * w.ratio + y2[k] * w.lags[0]
        count += 1
        delta = wt[k] - mean
        mean += delta / count
        delta *= wt[k] - mean
        m2 += delta
        s2 = m2 / count
    return wt
