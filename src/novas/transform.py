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
window length, grid) holds what does not depend on the data: each feasible
point's shape, order, ``eff``, lag mass, ``a0`` and lag profile. Every
variant-specific rule lives there, and :func:`feasible_alphas` reads it too.
One scan then serves every variant: per lag order, one matrix product of the
window's lagged squared returns and the profiles, shared by every alpha; per
(alpha, order), one vectorized scoring of ``scale * product + alpha * s2``
(``scale`` is ``1 - alpha``, or 1 for GA's unnormalized profiles). The
winning point is then re-evaluated through the plain
:func:`forward_transform` path, which is what the returned transform
reports. Neither the scan nor that path recomputes the variance path ``s2``:
both read the one cached on the window's :class:`ReturnSeries`, so every
variant, every alpha and every returned transform of a window share it.
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
    geometric_profile,
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
    """Every grid shape's lag profile at ``order``, one matrix column each in
    grid order, and each profile's weight on the contemporaneous term (GE
    only). Profiles have unit mass, to be scaled by ``1 - alpha``, except
    GA's raw ``a1 * b1**(i-1)``."""
    cols = []
    for shape in _grid_shapes(variant, grid):
        if variant.exponential_family:
            prof = exponential_profile(shape[0], order, variant.keeps_a0)
            cols.append(prof / prof.sum())
        elif variant is NovasVariant.GA:
            cols.append(geometric_profile(*shape, order))
        else:
            b1 = shape[1]
            cols.append(geometric_profile((1.0 - b1) / (1.0 - b1**order), b1, order))
    lags = np.column_stack(cols)
    heads = np.zeros(lags.shape[1])
    if variant is NovasVariant.GE:
        heads, lags = lags[0], lags[1:]
    lags.flags.writeable = heads.flags.writeable = False
    return lags, heads


class _CandidateTable(NamedTuple):
    """The feasible points of one (variant, alpha, window length, grid) in grid
    order: ``(shape, order, a0)``, contemporaneous weight and lag mass, and one
    ``(order, rows, columns, unit)`` group per lag order, ``columns`` indexing
    the points' profiles in that order's :func:`_unit_columns` matrix."""

    scale: float
    points: tuple[tuple[tuple, int, float], ...]
    eff: np.ndarray
    mass: np.ndarray
    groups: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=128)
def _candidate_table(
    variant: NovasVariant, alpha: float, n: int, grid: CalibrationGrid
) -> _CandidateTable:
    """Everything about one variant's grid that does not depend on the data,
    and the only place where the variants differ.

    GE escalates each decay rate's order through :func:`ge_order_for` and
    drops the rates it cannot rescue; GA keeps the ``(a1, b1)`` points whose
    solved intercept budget is admissible; the a0-free variants keep every
    point. Cached, so a run decides feasibility once and every window reuses it.
    """
    shapes = _grid_shapes(variant, grid)
    if not shapes:
        return _CandidateTable(1.0, (), np.empty(0), np.empty(0), ())
    if variant is NovasVariant.GE:
        fits = [ge_order_for(alpha, c, n, grid) for (c,) in shapes]
        orders = np.array([order if feasible else 0 for order, feasible in fits])
    elif variant is NovasVariant.GE_NO_A0:
        cap = max(1, n - 3)
        orders = np.array([min(grid.adaptive_ge_order(c, n), cap) for (c,) in shapes])
    else:
        orders = np.full(len(shapes), min(grid.order_cap_for(n), max(1, n - 3)))
    if variant is NovasVariant.GA:
        a1, b1 = np.array(shapes).T
        mass = _unit_columns(variant, int(orders[0]), grid)[0].sum(axis=0)
        eff = 1.0 - alpha - mass  # the solved a0 / (1 - b1)
        a0 = eff * (1.0 - b1)
        orders[~((eff >= 0.0) & (eff <= A0_MAX) & (eff >= a1))] = 0
        scale = 1.0
    else:
        heads = [
            _unit_columns(variant, int(p), grid)[1][j] if p else 0.0
            for j, p in enumerate(orders)
        ]
        scale = 1.0 - alpha
        eff = a0 = scale * np.array(heads)
        mass = 1.0 - alpha - eff

    keep = np.flatnonzero(orders)
    groups = []
    for order in np.unique(orders[keep]).tolist():
        rows = np.flatnonzero(orders[keep] == order)
        columns = keep[rows]
        rows.flags.writeable = columns.flags.writeable = False
        groups.append((order, rows, columns, _unit_columns(variant, order, grid)[0]))
    eff, mass = eff[keep], mass[keep]
    eff.flags.writeable = mass.flags.writeable = False
    points = tuple((shapes[j], int(orders[j]), float(a0[j])) for j in keep)
    return _CandidateTable(scale, points, eff, mass, tuple(groups))


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
        if _candidate_table(variant, alpha, window_len, grid).points
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
    values, s2 = y.values, y.variance_path
    n = values.size
    y2 = values * values
    # order -> (rows t = order..n-1 of lagged squared returns, newest first) @ unit
    products: dict[int, np.ndarray] = {}
    out: dict[float, CalibratedTransform] = {}
    for alpha in alphas:
        table = _candidate_table(variant, alpha, n, grid)
        if not table.points:
            raise CalibrationError(
                f"no feasible grid point for {variant.value} at alpha={alpha}"
            )
        objs = np.empty(len(table.points))
        mus = np.empty(len(table.points))
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
        cands = [
            {"shape": shape, "order": order, "a0": a0, "objective": o, "mu": m}
            for (shape, order, a0), o, m in zip(
                table.points, objs.tolist(), mus.tolist()
            )
        ]
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
