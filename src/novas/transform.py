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

Calibration has two parts. A cached candidate table per (variant, alpha,
window length, grid) holds what does not depend on the data: the weight sets
:func:`~novas.weights.build_weights` admits on the grid, which alone decides
admissibility; :func:`feasible_alphas` reads it too. One scan then serves
every variant: per lag order, one matrix product of the window's lagged
squared returns and the grid's :func:`~novas.weights.lag_profile` columns,
shared by every alpha; per (alpha, order), one vectorized scoring of
``scale * product + alpha * s2``, where ``scale`` (``1 - alpha``, or 1 for
GA's raw profiles) turns the columns into the weight sets' lags. The winning
weight set is evaluated through the plain :func:`forward_transform` path,
which is what the returned transform reports. Neither the scan nor that path
recomputes the variance path ``s2``: every variant, alpha and returned
transform of a window reads the one cached on its :class:`ReturnSeries`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
from .weights import (
    CalibrationGrid,
    NovasVariant,
    NovasWeights,
    build_weights,
    lag_profile,
)

# the inverse transform refuses a denominator ``1 - eff * W^2`` at or below
# this: innovations are pre-trimmed to the weight set's bound, so reaching
# it signals a sampler bug
TRIM_GUARD = 1e-12


@dataclass(frozen=True)
class CalibratedTransform:
    """A variant's fitted weights plus the studentized residuals they imply."""

    weights: NovasWeights
    residuals: np.ndarray
    history: ReturnSeries
    objective: float

    @property
    def variant(self) -> NovasVariant:
        return self.weights.variant

    @property
    def s2_n(self) -> float:
        """The variance estimate at the end of the history."""
        return float(self.history.variance_path[-1])

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
def _unit_columns(variant: NovasVariant, order: int, grid: CalibrationGrid):
    """Every grid shape's :func:`lag_profile` at ``order`` without GE's
    contemporaneous term, one matrix column each in grid order."""
    cols = np.column_stack(
        [lag_profile(variant, shape, order) for shape in _grid_shapes(variant, grid)]
    )
    if variant is NovasVariant.GE:
        cols = cols[1:]
    cols.flags.writeable = False
    return cols


class _CandidateTable(NamedTuple):
    """The admitted weight sets of one (variant, alpha, window length, grid)
    in grid order, their ``eff`` and lag mass, and one ``(order, rows,
    columns, unit)`` group per lag order, ``columns`` indexing the points'
    profiles in that order's :func:`_unit_columns` matrix."""

    scale: float
    weights: tuple[NovasWeights, ...]
    eff: np.ndarray
    mass: np.ndarray
    groups: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=128)
def _candidate_table(
    variant: NovasVariant, alpha: float, n: int, grid: CalibrationGrid
) -> _CandidateTable:
    """Every weight set :func:`build_weights` admits on one variant's grid:
    all that calibration needs that does not depend on the data.

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
    keep = np.array([j for j, w in enumerate(fits) if w is not None], dtype=int)
    weights = tuple(fits[j] for j in keep)
    orders = np.array([w.order for w in weights], dtype=int)
    groups = []
    for order in np.unique(orders).tolist():
        rows = np.flatnonzero(orders == order)
        columns = keep[rows]
        rows.flags.writeable = columns.flags.writeable = False
        groups.append((order, rows, columns, _unit_columns(variant, order, grid)))
    eff = np.array([w.y2_self_coef for w in weights])
    mass = np.array([float(w.lags.sum()) for w in weights])
    eff.flags.writeable = mass.flags.writeable = False
    scale = 1.0 if variant is NovasVariant.GA else 1.0 - alpha
    return _CandidateTable(scale, weights, eff, mass, tuple(groups))


def feasible_alphas(
    variant: NovasVariant, alphas, window_len: int, grid: CalibrationGrid | None = None
) -> list[float]:
    """Alphas whose variant grid contains at least one feasible point.

    Feasibility depends only on (variant, alpha, window length, grid), never
    on the data, so the rolling harness can decide it once up front.
    """
    grid = grid or CalibrationGrid()
    return [
        alpha
        for alpha in alphas
        if _candidate_table(variant, alpha, window_len, grid).weights
    ]


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

    Returns ``{alpha: CalibratedTransform}``; the per-alpha work shares the
    window precomputation and the grid's lag convolutions, so this is the
    entry point the rolling backtest uses.
    """
    grid = grid or CalibrationGrid()
    if len(y) < grid.min_window:
        raise CalibrationError(
            f"window of {len(y)} below the calibration minimum {grid.min_window}"
        )
    values, s2 = y.values, y.variance_path
    n = values.size
    y2 = values * values
    # order -> (rows t = order..n-1 of lagged squared returns, newest first) @ unit
    products: dict[int, np.ndarray] = {}
    out: dict[float, CalibratedTransform] = {}
    for alpha in alphas:
        table = _candidate_table(variant, alpha, n, grid)
        if not table.weights:
            raise CalibrationError(
                f"no feasible grid point for {variant.value} at alpha={alpha}"
            )
        objs = np.empty(len(table.weights))
        mus = np.empty(len(table.weights))
        for order, rows, columns, unit in table.groups:
            if order not in products:
                lagged = sliding_window_view(y2[: n - 1], order)[:, ::-1]
                products[order] = np.ascontiguousarray(lagged) @ unit
            core = products[order][:, columns]
            core *= table.scale
            core += (alpha * s2[order:n])[:, None]
            objs[rows], mus[rows] = _column_scores(
                values[order:], core, table.eff[rows], table.mass[rows]
            )
        out[alpha] = _finish(y, _select(table.weights, objs.tolist(), mus.tolist()))
    return out


def _finish(y: ReturnSeries, weights: NovasWeights) -> CalibratedTransform:
    """Evaluate the winning weight set through the plain transform path."""
    residuals = forward_transform(y, weights)
    objective = abs(sample_kurtosis(residuals) - 3.0)
    return CalibratedTransform(weights, residuals, y, objective)


def calibrate(
    variant: NovasVariant,
    alpha: float,
    y: ReturnSeries,
    grid: CalibrationGrid | None = None,
) -> CalibratedTransform:
    """Exhaustive feasible-grid calibration of one variant at one alpha."""
    return calibrate_many(variant, (alpha,), y, grid)[alpha]
