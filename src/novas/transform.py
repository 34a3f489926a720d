"""Forward (studentizing) and inverse transforms, and kurtosis-targeted
calibration of the free weight parameters.

The forward transform maps returns to residuals

    W_t = Y_t / sqrt(eff * Y_t^2 + alpha * s2_{t-1} + sum_i lag_i * Y_{t-i}^2)

for ``t = order+1 .. n``, where ``eff`` is the effective contemporaneous
weight (0 for the ``*_NO_A0`` variants) and ``s2_{t-1}`` the mean-centered
variance of the first ``t-1`` observations. Calibration scans the variant's
feasible grid exhaustively and keeps the point whose residual kurtosis is
closest to 3 among the points whose inverse recursion is mean-stable, with a
deterministic tie-break:

1. lag multiplier ``mu < 1`` (see below) first; if no grid point has one,
   the point of smallest ``mu`` is kept instead, so the rule never raises;
2. then the objective ``|kurtosis - 3|``;
3. then smaller order, then smaller a0, then grid position.

The lag multiplier is ``mu = mean(Y_t^2 / D_t) * (1 - alpha - eff)``, where
``D_t = alpha * s2_{t-1} + sum_i lag_i * Y_{t-i}^2`` is the denominator
without its contemporaneous term and ``1 - alpha - eff`` is the lag mass.
The inverse transform gives ``Y^2 = D * W^2 / (1 - eff * W^2)``, and for an
in-sample residual ``W_t^2 / (1 - eff * W_t^2) = Y_t^2 / D_t``. Resampling
the window's residuals therefore multiplies the lag part of the mean by
``mu`` each step; at ``mu >= 1`` a long-horizon bootstrap forecast grows
without bound in the mean. For the a0-free variants ``mu = E[W^2] * sum(lags)``.

The grid scan is vectorized: for a fixed order the lagged-squared-return
convolution is one matrix product shared by every candidate, and the
exponential/geometric profiles scale linearly in ``1 - alpha``, so one scan
serves a whole alpha grid. The winning point is then re-evaluated through
the plain :func:`forward_transform` path, which is what the returned
transform reports. The variance path ``s2`` is not recomputed by either:
both read the one cached on the window's :class:`ReturnSeries`, so every
variant, every alpha and every returned transform of a window share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CalibrationError,
    DataError,
    DegenerateWindowError,
    TrimBoundError,
)
from .returns import ReturnSeries, sample_kurtosis
from .weights import (
    A0_MAX,
    CalibrationGrid,
    NovasVariant,
    NovasWeights,
    build_weights,
    exponential_profile,
)


@dataclass(frozen=True)
class CalibratedTransform:
    """A variant's fitted weights plus the studentized residuals they imply."""

    variant: NovasVariant
    weights: NovasWeights
    residuals: np.ndarray
    history: ReturnSeries
    s2_n: float
    objective: float

    def __post_init__(self):
        residuals = np.asarray(self.residuals, dtype=float)
        object.__setattr__(self, "residuals", residuals)
        if residuals.size != len(self.history) - self.weights.order:
            raise DataError(
                f"{residuals.size} residuals for n={len(self.history)}, "
                f"order={self.weights.order}"
            )
        bound = self.weights.trim_bound
        if math.isfinite(bound) and np.abs(residuals).max() > bound * (1.0 + 1e-12):
            raise DataError("residual exceeds the algebraic trim bound")


def forward_transform(y: ReturnSeries, w: NovasWeights) -> np.ndarray:
    """Studentized residuals ``W_t`` for ``t = order+1 .. n`` (length n - order)."""
    values = y.values
    n = values.size
    k = w.order
    if n <= k + 2:
        raise DataError(f"series length {n} must exceed order + 2 = {k + 2}")
    y2 = values * values
    s2 = y.variance_path
    denom = w.y2_self_coef * y2[k:] + w.alpha * s2[k:n]
    for i in range(1, k + 1):
        denom = denom + w.lags[i - 1] * y2[k - i : n - i]
    if np.any(denom <= 0.0):
        raise DegenerateWindowError(
            "studentizing denominator collapsed to zero (all-zero window)"
        )
    return values[k:] / np.sqrt(denom)


def inverse_step(
    w_next: float, lagged_y2, s2: float, w: NovasWeights, eps: float = 1e-12
) -> float:
    """One inverse-transform step: the next absolute return.

    ``lagged_y2`` holds the most recent ``order`` squared returns, newest
    first. Raises :class:`TrimBoundError` if ``1 - eff * w_next^2`` falls at
    or below ``eps``: innovations must be pre-trimmed to the weight set's
    bound, so reaching the guard signals a sampler bug.
    """
    lagged_y2 = np.asarray(lagged_y2, dtype=float)
    if lagged_y2.size < w.order:
        raise DataError(
            f"need {w.order} lagged squared returns, got {lagged_y2.size}"
        )
    core = w.alpha * s2 + float(np.dot(w.lags, lagged_y2[: w.order]))
    w2 = w_next * w_next
    guard = 1.0 - w.y2_self_coef * w2
    if guard <= eps:
        raise TrimBoundError(
            f"inverse denominator {guard!r} <= {eps}; innovation {w_next!r} "
            f"was not trimmed to the bound {w.trim_bound!r}"
        )
    return math.sqrt(w2 * core / guard)


# ---------------------------------------------------------------------------
# calibration


def _column_scores(
    values_tail: np.ndarray, core: np.ndarray, eff, lag_mass
) -> tuple[np.ndarray, np.ndarray]:
    """Objective ``|m4/m2^2 - 3|`` and lag multiplier ``mu`` of each candidate.

    ``core`` holds one column per candidate of ``D_t``, the studentizing
    denominator without its contemporaneous term; ``eff`` (a scalar or one
    value per column) weights that term and ``lag_mass`` is the candidate's
    ``sum(lags)``. Degenerate candidates (nonpositive denominator or constant
    residuals) get objective +inf so selection skips them.
    """
    y2 = (values_tail * values_tail)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = (y2 / core).mean(axis=0) * lag_mass
        denom = core + y2 * eff if np.any(eff) else core
        W = values_tail[:, None] / np.sqrt(denom)
        d = W - W.mean(axis=0)
        d2 = d * d
        m2 = d2.mean(axis=0)
        m4 = (d2 * d2).mean(axis=0)
    out = np.full(m2.shape, np.inf)
    ok = np.isfinite(m2) & (m2 > 0.0)
    out[ok] = np.abs(m4[ok] / (m2[ok] * m2[ok]) - 3.0)
    out[np.any(denom <= 0.0, axis=0)] = np.inf
    return out, mu


class _WindowArrays:
    """Per-window precomputation shared by every grid candidate."""

    def __init__(self, y: ReturnSeries):
        self.values = values = y.values
        self.n = values.size
        self.y2 = values * values
        self.s2 = y.variance_path
        self._lagmat: dict[int, np.ndarray] = {}

    def lag_matrix(self, order: int) -> np.ndarray:
        """Rows ``t = order..n-1`` of lagged squared returns, newest first."""
        if order not in self._lagmat:
            view = sliding_window_view(self.y2[: self.n - 1], order)[:, ::-1]
            self._lagmat[order] = np.ascontiguousarray(view)
        return self._lagmat[order]


def ge_order_for(alpha: float, c: float, n: int, grid: CalibrationGrid):
    """Adaptive lag count for a GE grid point, order-doubled while the
    implied ``a0`` exceeds its admissibility bound.

    Returns ``(order, feasible)``; infeasible points are dropped by the
    caller rather than escalated past ``order_max``.
    """
    p = grid.adaptive_ge_order(c, n)
    cap = max(1, min(grid.order_max, n - 3))
    p = min(p, cap)
    while True:
        a0 = (1.0 - alpha) / exponential_profile(c, p, include_zero=True).sum()
        if a0 <= A0_MAX:
            return p, True
        if p >= cap:
            return p, False
        p = min(2 * p, cap)


def _exponential_candidates(
    variant: NovasVariant, alpha: float, n: int, grid: CalibrationGrid
) -> list[tuple[float, int]]:
    """Feasible ``(c, order)`` pairs for the GE family at one alpha."""
    out = []
    for c in grid.ge_c_values():
        if variant is NovasVariant.GE:
            order, feasible = ge_order_for(alpha, float(c), n, grid)
            if not feasible:
                continue
        else:
            order = min(grid.adaptive_ge_order(float(c), n), max(1, n - 3))
        out.append((float(c), order))
    return out


def _ga_static(grid: CalibrationGrid, order: int):
    """Alpha-independent pieces of the GA grid: the (a1, b1) mesh, its lag
    profiles as matrix columns, and each profile's mass."""
    vals = grid.ga_values()
    a1g, b1g = [a.ravel() for a in np.meshgrid(vals, vals, indexing="ij")]
    powers = b1g[None, :] ** np.arange(order)[:, None]
    lag_cols = a1g[None, :] * powers
    return a1g, b1g, lag_cols, lag_cols.sum(axis=0)


def _ga_order(n: int, grid: CalibrationGrid) -> int:
    return min(grid.order_cap_for(n), max(1, n - 3))


def feasible_alphas(
    variant: NovasVariant, alphas, window_len: int, grid: CalibrationGrid | None = None
) -> list[float]:
    """Alphas whose variant grid contains at least one feasible point.

    Feasibility depends only on (variant, alpha, window length, grid), never
    on the data, so the rolling harness can decide it once up front.
    """
    grid = grid or CalibrationGrid()
    if variant is NovasVariant.GA:
        order = _ga_order(window_len, grid)
        a1g, _, _, mass = _ga_static(grid, order)
        out = []
        for alpha in alphas:
            budget = 1.0 - alpha - mass
            feasible = (budget >= 0.0) & (budget <= A0_MAX) & (budget >= a1g)
            if np.any(feasible):
                out.append(alpha)
        return out
    if variant is NovasVariant.GA_NO_A0:
        return list(alphas)
    return [
        alpha
        for alpha in alphas
        if _exponential_candidates(variant, alpha, window_len, grid)
    ]


def _select(cands: list[dict]) -> dict:
    """Deterministic choice: the kurtosis-closest point with ``mu < 1``, else
    the point of smallest ``mu``; ties go to smaller order, then smaller a0,
    then grid position."""
    usable = [j for j, c in enumerate(cands) if math.isfinite(c["objective"])]
    if not usable:
        raise CalibrationError(
            "every feasible grid point produced degenerate residuals"
        )
    stable = [j for j in usable if cands[j]["mu"] < 1.0]

    def tie_break(j):
        c = cands[j]
        return (c["objective"], c["order"], c["a0"], j)

    if stable:
        return cands[min(stable, key=tie_break)]
    return cands[min(usable, key=lambda j: (cands[j]["mu"], *tie_break(j)))]


def calibrate_many(
    variant: NovasVariant,
    alphas,
    y: ReturnSeries,
    grid: CalibrationGrid | None = None,
) -> dict[float, CalibratedTransform]:
    """Calibrate one variant at several alpha values over a shared window.

    Returns ``{alpha: CalibratedTransform}``; the per-alpha work shares the
    window precomputation and the grid's lag convolutions, so this is the
    entry point the rolling backtest uses.
    """
    grid = grid or CalibrationGrid()
    if len(y) < grid.min_window:
        raise CalibrationError(
            f"window of {len(y)} below the calibration minimum {grid.min_window}"
        )
    arrays = _WindowArrays(y)
    n = arrays.n
    out: dict[float, CalibratedTransform] = {}

    if variant.garch_family:
        order = _ga_order(n, grid)
        a1g, b1g, lag_cols, mass = _ga_static(grid, order)
        if variant is NovasVariant.GA:
            core_cache = None
            for alpha in alphas:
                budget = 1.0 - alpha - mass  # equals a0 / (1 - b1)
                feasible = (budget >= 0.0) & (budget <= A0_MAX) & (budget >= a1g)
                idx = np.flatnonzero(feasible)
                if idx.size == 0:
                    raise CalibrationError(
                        f"no feasible (a1, b1) grid point for GA at alpha={alpha}"
                    )
                if core_cache is None:
                    core_cache = arrays.lag_matrix(order) @ lag_cols
                core = core_cache[:, idx] + (alpha * arrays.s2[order:n])[:, None]
                objs, mus = _column_scores(
                    arrays.values[order:], core, budget[idx], mass[idx]
                )
                cands = [
                    {
                        "shape": (float(a1g[j]), float(b1g[j])),
                        "order": order,
                        "a0": float(budget[j] * (1.0 - b1g[j])),
                        "objective": float(objs[pos]),
                        "mu": float(mus[pos]),
                    }
                    for pos, j in enumerate(idx)
                ]
                out[alpha] = _finish(variant, alpha, y, _select(cands), grid)
        else:
            b1_vals = grid.ga_values()
            unit_cols = np.empty((order, b1_vals.size))
            for j, b1 in enumerate(b1_vals):
                unit_cols[:, j] = (
                    (1.0 - b1) / (1.0 - b1**order) * b1 ** np.arange(order)
                )
            core_unit = arrays.lag_matrix(order) @ unit_cols
            for alpha in alphas:
                core = (1.0 - alpha) * core_unit
                core += (alpha * arrays.s2[order:n])[:, None]
                objs, mus = _column_scores(arrays.values[order:], core, 0.0, 1.0 - alpha)
                cands = [
                    {
                        "shape": (1.0, float(b1)),
                        "order": order,
                        "a0": 0.0,
                        "objective": float(objs[j]),
                        "mu": float(mus[j]),
                    }
                    for j, b1 in enumerate(b1_vals)
                ]
                out[alpha] = _finish(variant, alpha, y, _select(cands), grid)
        return out

    unit_cache: dict[tuple[float, int], tuple[float, np.ndarray]] = {}
    for alpha in alphas:
        pairs = _exponential_candidates(variant, alpha, n, grid)
        if not pairs:
            raise CalibrationError(
                f"no feasible decay rate for {variant.value} at alpha={alpha}"
            )
        cands = []
        for c, order in pairs:
            key = (c, order)
            if key not in unit_cache:
                if variant is NovasVariant.GE:
                    prof = exponential_profile(c, order, include_zero=True)
                    unit = prof / prof.sum()
                    u0, u_lags = float(unit[0]), unit[1:]
                else:
                    prof = exponential_profile(c, order, include_zero=False)
                    unit = prof / prof.sum()
                    u0, u_lags = 0.0, unit
                core_unit = arrays.lag_matrix(order) @ u_lags
                unit_cache[key] = (u0, core_unit)
            u0, core_unit = unit_cache[key]
            scale = 1.0 - alpha
            core = scale * core_unit + alpha * arrays.s2[order:n]
            eff = scale * u0
            objs, mus = _column_scores(
                arrays.values[order:], core[:, None], eff, 1.0 - alpha - eff
            )
            cands.append(
                {
                    "shape": (c,),
                    "order": order,
                    "a0": eff,
                    "objective": float(objs[0]),
                    "mu": float(mus[0]),
                }
            )
        out[alpha] = _finish(variant, alpha, y, _select(cands), grid)
    return out


def _finish(
    variant: NovasVariant,
    alpha: float,
    y: ReturnSeries,
    chosen: dict,
    grid: CalibrationGrid,
) -> CalibratedTransform:
    """Re-evaluate the winning grid point through the plain transform path."""
    weights = build_weights(variant, alpha, chosen["shape"], chosen["order"])
    residuals = forward_transform(y, weights)
    objective = abs(sample_kurtosis(residuals) - 3.0)
    s2_n = float(y.variance_path[-1])
    return CalibratedTransform(variant, weights, residuals, y, s2_n, objective)


def calibrate(
    variant: NovasVariant,
    alpha: float,
    y: ReturnSeries,
    grid: CalibrationGrid | None = None,
) -> CalibratedTransform:
    """Exhaustive feasible-grid calibration of one variant at one alpha."""
    return calibrate_many(variant, (alpha,), y, grid)[alpha]
