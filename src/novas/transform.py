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

Calibration has three parts. A cached candidate table per (variant, alpha,
window length, grid) holds the weight sets
:func:`~novas.weights.build_weights` admits on the grid, which alone decides
admissibility; :func:`feasible_alphas` reads it too. A cached scan plan per
(variant, alphas, window length, grid) groups the candidates of every
requested alpha by lag order and holds, per order, the matrix of the
candidates' own lag weights and each one's ``alpha``, ``eff`` and lag mass;
:func:`feasible_alphas` builds it, so a backtest's forked workers inherit
it. Neither part depends on the data. The scan then serves every variant:
per lag order, one matrix product of the window's lagged squared returns and
those lag weights, and one vectorized scoring of ``product + alpha * s2``
across the candidates of all alphas, whose objectives are split back per
alpha for selection. Each alpha returns a :class:`CalibratedTransform` of
its winning weight set and the window, which computes its residuals through
:func:`forward_transform` as it is built and its objective only when read,
so a backtest, which reads no objective, takes no kurtosis. Neither the scan
nor the transform recomputes the variance path ``s2``: every variant, alpha
and returned transform of a window reads the one cached on its
:class:`ReturnSeries`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CalibrationError,
    DataError,
    DegenerateWindowError,
    InfeasibleWeightsError,
    TrimBoundError,
)
from .returns import ReturnSeries, sample_kurtosis
from .weights import CalibrationGrid, NovasVariant, NovasWeights, build_weights

# the inverse transform refuses a denominator ``1 - eff * W^2`` at or below
# this: innovations are pre-trimmed to the weight set's bound, so reaching
# it signals a sampler bug
TRIM_GUARD = 1e-12


@dataclass(frozen=True)
class CalibratedTransform:
    """A variant's fitted weights and the window they were fitted to. Its
    studentized residuals are computed as it is built, and refused beyond the
    weights' trim bound; its objective ``|kurtosis - 3|`` when first read."""

    weights: NovasWeights
    history: ReturnSeries
    residuals: np.ndarray = field(init=False)

    def __post_init__(self):
        residuals = forward_transform(self.history, self.weights)
        bound = self.weights.trim_bound
        if math.isfinite(bound) and np.abs(residuals).max() > bound * (1.0 + 1e-12):
            raise DataError("residual exceeds the algebraic trim bound")
        object.__setattr__(self, "residuals", residuals)

    @property
    def variant(self) -> NovasVariant:
        return self.weights.variant

    @property
    def s2_n(self) -> float:
        """The variance estimate at the end of the history."""
        return float(self.history.variance_path[-1])

    @functools.cached_property
    def objective(self) -> float:
        """The residuals' distance from normal kurtosis, ``|kurtosis - 3|``."""
        return abs(sample_kurtosis(self.residuals) - 3.0)


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
    term = np.empty_like(denom)
    for i in range(1, k + 1):
        denom += np.multiply(w.lags[i - 1], y2[k - i : n - i], out=term)
    if np.any(denom <= 0.0):
        raise DegenerateWindowError(
            "studentizing denominator collapsed to zero (all-zero window)"
        )
    return values[k:] / np.sqrt(denom)


def inverse_step(w_next: float, lagged_y2, s2: float, w: NovasWeights) -> float:
    """One inverse-transform step: the next absolute return.

    ``lagged_y2`` holds the most recent ``order`` squared returns, newest
    first. Raises :class:`TrimBoundError` if ``1 - eff * w_next^2`` falls at
    or below :data:`TRIM_GUARD`.
    """
    lagged_y2 = np.asarray(lagged_y2, dtype=float)
    if lagged_y2.size < w.order:
        raise DataError(
            f"need {w.order} lagged squared returns, got {lagged_y2.size}"
        )
    core = w.alpha * s2 + float(np.dot(w.lags, lagged_y2[: w.order]))
    w2 = w_next * w_next
    guard = 1.0 - w.y2_self_coef * w2
    if guard <= TRIM_GUARD:
        raise TrimBoundError(
            f"inverse denominator {guard!r} <= {TRIM_GUARD}; innovation {w_next!r} "
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
    denominator without its contemporaneous term; ``eff`` (one value per
    column) weights that term and ``lag_mass`` is the candidate's
    ``sum(lags)``. Degenerate candidates (nonpositive denominator or constant
    residuals) get objective +inf so selection skips them.

    Overwrites ``core`` and allocates at most one more ``(rows, columns)``
    buffer, each in the memory order the scan gives it (``core``
    column-major, ``core + y2 * eff`` row-major), because that order decides
    how each column mean is summed.
    """
    rows = values_tail.size
    y2 = (values_tail * values_tail)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(eff):
            denom = np.multiply(y2, eff)
            denom += core
            quotient = np.divide(y2, core, out=core)
        else:
            denom, quotient = core, y2 / core
        mu = np.add.reduce(quotient, axis=0) / rows * lag_mass
        degenerate = np.any(denom <= 0.0, axis=0)
        d = np.divide(values_tail[:, None], np.sqrt(denom, out=denom), out=denom)
        d -= np.add.reduce(d, axis=0) / rows
        d2 = np.multiply(d, d, out=d)
        m2 = np.add.reduce(d2, axis=0) / rows
        m4 = np.add.reduce(np.multiply(d2, d2, out=d2), axis=0) / rows
    out = np.full(m2.shape, np.inf)
    ok = np.isfinite(m2) & (m2 > 0.0)
    out[ok] = np.abs(m4[ok] / (m2[ok] * m2[ok]) - 3.0)
    out[degenerate] = np.inf
    return out, mu


def _admitted(variant: NovasVariant, alpha: float, shape: tuple, order: int):
    """The weight set :func:`build_weights` admits at this point, or None."""
    try:
        return build_weights(variant, alpha, shape, order)
    except InfeasibleWeightsError:
        return None


def ge_order_for(alpha: float, c: float, n: int, grid: CalibrationGrid):
    """Adaptive lag count for a GE grid point, doubled while
    :func:`build_weights` rejects the point, up to ``order_max``.

    Returns ``(order, weights)``; ``weights`` is None when even the capped
    order is rejected, and the caller drops the point.
    """
    cap = max(1, min(grid.order_max, n - 3))
    p = min(grid.adaptive_ge_order(c, n), cap)
    while (weights := _admitted(NovasVariant.GE, alpha, (c,), p)) is None and p < cap:
        p = min(2 * p, cap)
    return p, weights


def _grid_shapes(variant: NovasVariant, grid: CalibrationGrid) -> list[tuple]:
    """The free shape parameters of every grid point, in grid order."""
    if variant.exponential_family:
        return [(float(c),) for c in grid.ge_c_values()]
    vals = [float(v) for v in grid.ga_values()]
    if variant is NovasVariant.GA:
        return [(a1, b1) for a1 in vals for b1 in vals]
    return [(1.0, b1) for b1 in vals]


@functools.lru_cache(maxsize=128)
def _candidate_table(
    variant: NovasVariant, alpha: float, n: int, grid: CalibrationGrid
) -> tuple[NovasWeights, ...]:
    """Every weight set :func:`build_weights` admits on one variant's grid,
    in grid order: all that calibration needs that does not depend on the
    data.

    The variants differ here only in each point's lag order: GE escalates it
    through :func:`ge_order_for`, GE_NO_A0 uses the adaptive order and the
    GA family the capped one. Cached, so a run decides feasibility once and
    every window reuses it.
    """
    shapes = _grid_shapes(variant, grid)
    cap = max(1, n - 3)
    if variant is NovasVariant.GE:
        fits = [ge_order_for(alpha, c, n, grid)[1] for (c,) in shapes]
    elif variant is NovasVariant.GE_NO_A0:
        fits = [
            _admitted(variant, alpha, (c,), min(grid.adaptive_ge_order(c, n), cap))
            for (c,) in shapes
        ]
    else:
        order = min(grid.order_cap_for(n), cap)
        fits = [_admitted(variant, alpha, shape, order) for shape in shapes]
    return tuple(w for w in fits if w is not None)


class _ScanPlan(NamedTuple):
    """One scan over several alphas: each alpha's admitted weight sets, the
    bounds of each alpha's slice of the scan's flat candidate list, and one
    ``(order, slots, lags, alpha, eff, mass)`` group per lag order.
    ``slots`` places each of the order's candidates in the flat list, and
    ``lags`` is the ``(order, k)`` matrix of their own lag weights, one
    column each; ``alpha``, ``eff`` and ``mass`` hold each candidate's
    alpha, contemporaneous weight and ``sum(lags)``."""

    weights: tuple[tuple[NovasWeights, ...], ...]
    bounds: tuple[int, ...]
    groups: tuple[tuple, ...]


@functools.lru_cache(maxsize=128)
def _scan_plan(
    variant: NovasVariant, alphas: tuple, n: int, grid: CalibrationGrid
) -> _ScanPlan:
    """The arrays of a scan over ``alphas``: like the candidate tables they
    do not depend on the data, so each is built once."""
    tables = [_candidate_table(variant, alpha, n, grid) for alpha in alphas]
    for alpha, table in zip(alphas, tables):
        if not table:
            raise CalibrationError(
                f"no feasible grid point for {variant.value} at alpha={alpha}"
            )
    weights = [w for table in tables for w in table]
    orders = np.array([w.order for w in weights])
    groups = []
    # not np.unique, whose masked-array check imports numpy.ma
    for order in sorted({w.order for w in weights}):
        slots = np.flatnonzero(orders == order)
        group = [weights[j] for j in slots]
        arrays = [
            slots,
            np.column_stack([w.lags for w in group]),
            np.array([w.alpha for w in group]),
            np.array([w.y2_self_coef for w in group]),
            np.array([float(w.lags.sum()) for w in group]),
        ]
        for a in arrays:
            a.flags.writeable = False
        groups.append((order, *arrays))
    bounds = tuple(np.cumsum([0, *map(len, tables)]).tolist())
    return _ScanPlan(tuple(tables), bounds, tuple(groups))


def feasible_alphas(
    variant: NovasVariant, alphas, window_len: int, grid: CalibrationGrid | None = None
) -> list[float]:
    """Alphas whose variant grid contains at least one feasible point.

    Feasibility depends only on (variant, alpha, window length, grid), never
    on the data, so the rolling harness can decide it once up front. The
    scan over the returned alphas is prepared here too, so that forked
    workers inherit it instead of each building their own.
    """
    grid = grid or CalibrationGrid()
    feasible = [a for a in alphas if _candidate_table(variant, a, window_len, grid)]
    _scan_plan(variant, tuple(feasible), window_len, grid)
    return feasible


def _select(weights: tuple[NovasWeights, ...], objs: list, mus: list) -> NovasWeights:
    """Deterministic choice: the kurtosis-closest point with ``mu < 1``, else
    the point of smallest ``mu``; ties go to smaller order, then smaller a0,
    then grid position."""
    usable = [j for j, o in enumerate(objs) if math.isfinite(o)]
    if not usable:
        raise CalibrationError(
            "every feasible grid point produced degenerate residuals"
        )
    stable = [j for j in usable if mus[j] < 1.0]

    def tie_break(j):
        return (objs[j], weights[j].order, weights[j].a0, j)

    if stable:
        return weights[min(stable, key=tie_break)]
    return weights[min(usable, key=lambda j: (mus[j], *tie_break(j)))]


def calibrate_many(
    variant: NovasVariant,
    alphas,
    y: ReturnSeries,
    grid: CalibrationGrid | None = None,
) -> dict[float, CalibratedTransform]:
    """Calibrate one variant at several alpha values over a shared window.

    Returns ``{alpha: CalibratedTransform}``. The alphas share the window's
    variance path and lagged squared returns. Per lag order of the cached
    scan plan, one product of those lags with the candidates' own lag
    weights gives every candidate's denominator ``D_t`` of every alpha, and
    one vectorized pass scores them all, so this is the entry point the
    rolling backtest uses.
    """
    grid = grid or CalibrationGrid()
    if len(y) < grid.min_window:
        raise CalibrationError(
            f"window of {len(y)} below the calibration minimum {grid.min_window}"
        )
    alphas = tuple(alphas)
    values, s2 = y.values, y.variance_path
    n = values.size
    plan = _scan_plan(variant, alphas, n, grid)
    y2 = values * values
    objs = np.empty(plan.bounds[-1])
    mus = np.empty(plan.bounds[-1])
    for order, slots, lags, alpha, eff, mass in plan.groups:
        # rows t = order..n-1 of lagged squared returns, newest first
        lagged = np.ascontiguousarray(sliding_window_view(y2[: n - 1], order)[:, ::-1])
        # the transposed product leaves core column-major, the order in which
        # _column_scores sums each candidate's column
        core = (lags.T @ lagged.T).T
        core += s2[order:n, None] * alpha
        objs[slots], mus[slots] = _column_scores(values[order:], core, eff, mass)
    return {
        alpha: CalibratedTransform(
            _select(weights, objs[lo:hi].tolist(), mus[lo:hi].tolist()), y
        )
        for alpha, weights, lo, hi in zip(
            alphas, plan.weights, plan.bounds, plan.bounds[1:]
        )
    }


def calibrate(
    variant: NovasVariant,
    alpha: float,
    y: ReturnSeries,
    grid: CalibrationGrid | None = None,
) -> CalibratedTransform:
    """Exhaustive feasible-grid calibration of one variant at one alpha."""
    return calibrate_many(variant, (alpha,), y, grid)[alpha]
