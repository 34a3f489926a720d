"""Monte-Carlo multi-step prediction through the inverse transform.

The library's one ensemble path, :func:`simulate_squares`, taken by
:func:`predict` and every NoVaS ensemble of a backtest window: a step-major
``(h, M)`` block of innovations goes through the inverse transform
(:func:`simulate_paths`), each pseudo-return feeding back into the lag
window and the recursive variance. A forecast builds the block from its
request's stream as a window does from its own: standard normals
(:class:`~novas.innovations.SharedNormals`) with the entries beyond a
truncated normal's bound replaced by draws of its own, or a bootstrap's pool
gathered at indices of the smallest unsigned type that indexes it
(:func:`~novas.innovations.resample_indices`). Every lag profile is
geometric, so a path's lag window is one running sum, O(1) state per path
whatever the lag order. Each step writes its signed roots into one row of a
step-major ``(h, M)`` array, and the ensemble comes back as the step-major
squares of those rows, the layout ``garch.garch_bootstrap_squares`` gives
the GARCH bootstrap too. :func:`aggregated_squared` reduces the squares, one
running sum per path, to the per-path means at the horizons asked for, and
one :func:`ensemble_points` call per ensemble reduces those rows to the
ensemble means (the L2 points) and, unless no L1 point is asked for, the
medians (the L1 points) at every horizon. Every median is exact and taken
by one selection pass (:func:`_median`), bit-identical to ``np.median``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrimBoundError, as_count
from .innovations import (
    InnovationSource, Seed, SharedNormals, SourceKind, resample_indices, substream,
)
from .returns import welford_update
from .transform import TRIM_GUARD, CalibratedTransform

MIN_PATHS = 100

# glibc serves a block above its mmap threshold (128 KiB at start) by a fresh
# mapping and unmaps it on free, so without this every ensemble's (h, M)
# arrays would be faulted in page by page on every call. Freeing a mapped
# block raises the threshold to that block's size, after which same-size
# arrays are reused from the heap. This block of 16 MiB (below glibc's 32 MiB
# cap) is never touched, so it costs no resident memory. Elsewhere it is a
# no-op, and a set MALLOC_MMAP_THRESHOLD_ turns the dynamic threshold off.
np.empty(1 << 21)


def check_paths(paths: int) -> None:
    """Reject an ensemble too small for its forecast to mean anything."""
    if paths < MIN_PATHS:
        raise DataError(
            f"ensemble of {paths} paths is below the meaningful minimum {MIN_PATHS}"
        )


class Risk(str, enum.Enum):
    L1 = "L1"
    L2 = "L2"


def aggregated_squared(squares: np.ndarray, horizons) -> np.ndarray:
    """Per-path means of the first ``h`` squares, for each ``h`` of the
    ascending ``horizons``: row ``j`` holds them for ``horizons[j]``.

    ``squares`` is an ensemble's step-major ``(h, M)`` array of squared
    values, one contiguous row per step, and is left unmodified. One
    ``(M,)`` running sum adds the rows left to right, as ``np.cumsum`` along
    each path does, and is divided only at the requested horizons.
    """
    total = squares[0].copy()
    out = np.empty((len(horizons), total.size))
    for row, start, h in zip(out, [1, *horizons], horizons):
        for k in range(start, h):
            total += squares[k]
        np.divide(total, h, out=row)
    return out


def _median(values: np.ndarray):
    """Exact median along the last axis, by one partition of ``values`` in
    place at ``k = n // 2``.

    Bit-identical to ``np.median``: the same order statistics, ``x_(k)`` for
    odd ``n`` and ``(x_(k-1) + x_(k)) / 2`` for even ``n``, where
    ``x_(k-1)`` is the largest value below the pivot. ``np.median``
    partitions at ``[k - 1, k, -1]``, several times slower than at one
    pivot. NaNs sort last, so any NaN lies at or above the pivot and the
    median of its row is NaN.
    """
    n = values.shape[-1]
    k = n // 2
    values.partition(k, axis=-1)
    mid = values[..., k]
    if n % 2 == 0:
        mid = (values[..., :k].max(axis=-1) + mid) / 2
    top = values[..., k:].max(axis=-1)
    return np.where(np.isnan(top), top, mid)


def ensemble_points(
    rows: np.ndarray, medians: bool = True
) -> tuple[list[float], list[float] | None]:
    """The risk-optimal points of an ``(H, M)`` matrix of per-path
    statistics, one row per horizon: the row means (the L2 points), then the
    exact row medians (the L1 points), as Python floats.

    Each mean is bit-identical to ``np.mean`` of its row. The means are taken
    first, because the medians' one selection pass partitions ``rows`` in
    place. With ``medians`` false that pass is skipped, ``rows`` is left as
    it was and ``None`` stands for the medians.
    """
    means = rows.mean(axis=1).tolist()
    return means, _median(rows).tolist() if medians else None


class Statistic(str, enum.Enum):
    SQUARED_STEP = "SQUARED_STEP"
    AGGREGATED_SQUARED = "AGGREGATED_SQUARED"

    def per_path(self, squares: np.ndarray) -> np.ndarray:
        """This statistic of every path as a ``(1, M)`` row, from an
        ensemble's step-major ``(h, M)`` squares."""
        if self is Statistic.SQUARED_STEP:
            return squares[-1:]
        return aggregated_squared(squares, [len(squares)])


@dataclass(frozen=True)
class ForecastRequest:
    """What to predict and how many simulated futures to use."""

    horizon: int
    source: InnovationSource
    paths: int = 5000
    risk: Risk = Risk.L2
    statistic: Statistic = Statistic.AGGREGATED_SQUARED
    seed: Seed = field(default_factory=Seed)

    def __post_init__(self):
        for name in ("horizon", "paths"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.horizon < 1:
            raise DataError(f"horizon {self.horizon} must be >= 1")
        check_paths(self.paths)
        for name, cls in (("statistic", Statistic), ("risk", Risk)):
            try:
                object.__setattr__(self, name, cls(getattr(self, name)))
            except ValueError:
                raise DataError(f"unknown {name} {getattr(self, name)!r}") from None
        object.__setattr__(self, "seed", Seed.of(self.seed))


@dataclass(frozen=True)
class ForecastResult:
    """Ensemble summary of one forecast; ``point`` is the risk-optimal one."""

    point: float
    ensemble_mean: float
    ensemble_median: float
    horizon: int
    risk: Risk
    statistic: str
    paths: int
    seed: Seed
    stepwise_l1_aggregate: float | None = None


def simulate_paths(ct: CalibratedTransform, innovations: np.ndarray) -> np.ndarray:
    """Push a step-major ``(h, M)`` innovation block through the inverse
    transform, one row per step and one column per path.

    Each step's pseudo-return re-enters the lag window with the sign of its
    innovation, and the variance estimate is updated by the same one-pass
    (count, mean, M2) recursion that builds the in-sample variance path
    (:func:`~novas.returns.welford_update`), starting from its
    end-of-history value ``ct.s2_n``. Pure: identical inputs give identical
    paths.

    The lag profile is geometric, ``l_{i+1} = r l_i`` with ``r`` the weight
    set's :attr:`~novas.weights.NovasWeights.ratio`, so each path carries
    its lag window as one running sum ``L = sum_i l_i y_{k-i}^2``, updated
    as ``L' = l_1 y_k^2 + r (L - l_p y_{k-p}^2)``: O(1) state per path
    whatever the order ``p``. The dropped ``y_{k-p}^2`` is a history value
    for the first ``p`` steps and a row of the ``y^2`` ring after that.
    Each step computes its own ``W^2 / (1 - eff W^2)`` and scales it into
    ``y_k^2``; :class:`~novas.errors.TrimBoundError` names the first step
    that holds an untrimmed innovation.

    Returns a C-ordered copy of the innovations whose rows the steps
    overwrite with their signed roots, so each step's values are
    contiguous; ``innovations`` is left unmodified. The copy is the only
    ``(h, M)`` block it allocates: ``y^2`` is kept in a ring of the
    ``min(p, h - 1 - p)`` rows that a later step still reads, plus one row
    for the step at hand. It drops its reference to ``innovations`` once
    copied, so a temporary passed in is freed at once.
    """
    # np.array always copies, where np.ascontiguousarray would hand back a
    # caller's own array for the steps to overwrite. Dropping the name frees
    # a temporary passed in (simulate_squares' gather)
    wt = np.array(innovations, dtype=float, order="C")
    del innovations
    h, m = wt.shape
    w = ct.weights
    p = w.order
    head, tail, r = w.lags[0], w.lags[-1], w.ratio
    history = ct.history.values
    n = history.size
    hist2 = history[-p:] ** 2

    # step k + p reads y_k^2 for k + p < h - 1, so only rows k < h - 1 - p
    # are kept, row k in slot k % keep: step k reads slot (k - p) % keep
    # before it writes the same slot. The last slot holds the other rows
    keep = max(0, min(p, h - 1 - p))
    ring = np.empty((keep + 1, m))
    eff = w.y2_self_coef

    lag_sum = np.full(m, float(hist2[::-1] @ w.lags))
    count = n
    mean = np.full(m, history.mean())
    m2 = np.full(m, ct.s2_n * n)
    s2 = np.full(m, ct.s2_n)
    core = np.empty(m)
    tmp = np.empty(m)
    for k in range(h):
        yk = wt[k]
        np.multiply(s2, w.alpha, out=core)
        core += lag_sum
        last = k + 1 == h
        # nothing reads the lag window or the variance after the last step
        if not last:
            if k < p:
                lag_sum -= tail * hist2[k]
            else:
                lag_sum -= np.multiply(ring[(k - p) % keep], tail, out=tmp)
        yk2 = ring[k % keep] if k < h - 1 - p else ring[keep]
        np.multiply(yk, yk, out=yk2)
        if eff:
            yk2 *= -eff
            yk2 += 1.0
            if yk2.min() <= TRIM_GUARD:
                worst = float(yk[np.argmin(yk2)])
                raise TrimBoundError(
                    f"inverse denominator <= {TRIM_GUARD} at step {k + 1}; innovation "
                    f"{worst!r} was not trimmed to the bound {w.trim_bound!r}"
                )
            np.divide(yk, yk2, out=yk2)
            yk2 *= yk
        yk2 *= core
        np.copysign(np.sqrt(yk2, out=tmp), yk, out=yk)
        if last:
            break
        lag_sum *= r
        lag_sum += np.multiply(yk2, head, out=tmp)
        count += 1
        welford_update(count, mean, m2, yk)
        np.divide(m2, count, out=s2)
    return wt


def simulate_squares(
    ct: CalibratedTransform, source: InnovationSource, gen: np.random.Generator | None,
    block: SharedNormals | np.ndarray,
) -> np.ndarray:
    """The step-major ``(h, M)`` squares of the ensemble that ``source``
    builds from a step-major ``(h, M)`` ``block``:

    - standard normals (:class:`~novas.innovations.SharedNormals`) serve a
      trimmed-normal ``source``: the entries beyond its bound are drawn from
      ``source`` with ``gen``, which may be ``None`` at an infinite bound,
      and replace the block's in step-major order until the block is copied;
    - a bootstrap ``source`` gathers its pool at a block of indices
      (:func:`~novas.innovations.resample_indices`), reading no ``gen``, and
      passes the gather on as a temporary, freed once copied.

    The ensemble adds to the caller's block the copy that
    :func:`simulate_paths` simulates in and squares in place, and a ``y^2``
    ring of at most ``(h + 1) / 2`` rows.
    """
    if isinstance(block, SharedNormals):
        if source.kind is not SourceKind.TRIMMED_NORMAL:
            raise DataError("only a trimmed-normal source draws from shared normals")
        beyond = block.beyond(source.bound)
        fresh = source.draw(gen, beyond.shape) if beyond.size else np.empty(0)
        with block.replaced(beyond, fresh) as normals:
            signed = simulate_paths(ct, normals)
    else:
        if source.kind is not SourceKind.EMPIRICAL:
            raise DataError("only a bootstrap source resamples at shared indices")
        signed = simulate_paths(ct, source.residual_pool.take(block))
    return np.square(signed, out=signed)


def innovation_source(ct: CalibratedTransform, kind) -> InnovationSource:
    """The innovation source a calibrated transform implies for each kind."""
    if kind == SourceKind.EMPIRICAL:
        return InnovationSource(kind, residual_pool=ct.residuals)
    return InnovationSource(kind, bound=ct.weights.trim_bound)


def predict(ct: CalibratedTransform, req: ForecastRequest) -> ForecastResult:
    """Risk-optimal predictor of the requested path statistic.

    Simulates the squares of ``paths`` futures of ``horizon`` steps from the
    request's source (:func:`simulate_squares`), applies the statistic per
    path, and reduces with the exact mean (L2) and exact median (L1). The
    request's stream builds the innovations as a window's streams do.
    Fully determined by ``(seed, request, ct)``.
    """
    gen = substream(req.seed)
    if req.source.kind is SourceKind.EMPIRICAL:
        block = resample_indices(gen, req.paths, req.horizon, req.source.residual_pool.size)
    else:
        block = SharedNormals(gen, req.paths, req.horizon)
    squares = simulate_squares(ct, req.source, gen, block)
    (mean,), (median,) = ensemble_points(req.statistic.per_path(squares))

    stepwise = None
    if req.statistic is Statistic.AGGREGATED_SQUARED:
        # aggregate of per-step L1 predictors, the alternative reading of
        # the time-aggregated L1 target; reported alongside, never the point.
        # The per-path sums are taken, so each row's median partitions the
        # squares in place
        stepwise = float(np.mean(_median(squares)))

    return ForecastResult(
        point=mean if req.risk is Risk.L2 else median,
        ensemble_mean=mean,
        ensemble_median=median,
        horizon=req.horizon,
        risk=req.risk,
        statistic=req.statistic.value,
        paths=req.paths,
        seed=req.seed,
        stepwise_l1_aggregate=stepwise,
    )


def forecast_json(
    result: ForecastResult, method: str, variant: str, alpha: float
) -> dict:
    """The wire format of a forecast, ready for ``json.dumps``."""
    out = {
        "method": method,
        "variant": variant,
        "alpha": alpha,
        "horizon": result.horizon,
        "risk": result.risk.value,
        "statistic": result.statistic,
        "point": result.point,
        "ensemble_mean": result.ensemble_mean,
        "ensemble_median": result.ensemble_median,
        "M": result.paths,
        "seed": result.seed.value,
    }
    if result.stepwise_l1_aggregate is not None:
        out["stepwise_l1_aggregate"] = result.stepwise_l1_aggregate
    return out
