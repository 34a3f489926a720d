"""Monte-Carlo multi-step prediction through the inverse transform.

The library's one ensemble path, taken by :func:`predict` and every backtest
window: ``M`` innovation vectors of length ``h`` go through the inverse
transform (:func:`simulate_paths`), each pseudo-return feeding back into the
lag window and (by default) the recursive variance. A per-path statistic,
such as the running means of squares from :func:`aggregated_squared`, is
reduced by :func:`risk_point`, as are the GARCH bootstrap's paths: the
ensemble mean under L2 risk, the ensemble median under L1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, TrimBoundError
from .innovations import InnovationSource, Seed, SourceKind, substream
from .returns import welford_update
from .transform import TRIM_GUARD, CalibratedTransform

MIN_PATHS = 100


def check_paths(paths: int) -> None:
    """Reject an ensemble too small for its forecast to mean anything."""
    if paths < MIN_PATHS:
        raise DataError(
            f"ensemble of {paths} paths is below the meaningful minimum {MIN_PATHS}"
        )


class Risk(str, enum.Enum):
    L1 = "L1"
    L2 = "L2"


def aggregated_squared(paths: np.ndarray) -> np.ndarray:
    """Per-path running means of squared values of an ``(M, h)`` ensemble:
    column ``k - 1`` holds the mean of each path's first ``k`` squares."""
    running = paths * paths
    for k in range(1, running.shape[1]):
        # np.cumsum(axis=1)'s sums in its order, a column at a time: cumsum
        # loops over the short rows, several times slower at large M
        running[:, k] += running[:, k - 1]
    running /= np.arange(1, running.shape[1] + 1)
    return running


def risk_point(stats: np.ndarray, risk) -> float:
    """Risk-optimal point of per-path statistics: the ensemble mean under L2,
    the ensemble median under L1."""
    return float(np.mean(stats) if Risk(risk) is Risk.L2 else np.median(stats))


class Statistic(str, enum.Enum):
    SQUARED_STEP = "SQUARED_STEP"
    AGGREGATED_SQUARED = "AGGREGATED_SQUARED"

    def per_path(self, paths: np.ndarray) -> np.ndarray:
        """This statistic of every path of an ``(M, h)`` ensemble."""
        if self is Statistic.SQUARED_STEP:
            return paths[:, -1] ** 2
        return aggregated_squared(paths)[:, -1]


@dataclass(frozen=True)
class ForecastRequest:
    """What to predict and how many simulated futures to use."""

    horizon: int
    source: InnovationSource
    paths: int = 5000
    risk: Risk = Risk.L2
    statistic: Statistic | Callable[[np.ndarray], np.ndarray] = (
        Statistic.AGGREGATED_SQUARED
    )
    seed: Seed = field(default_factory=Seed)

    def __post_init__(self):
        if self.horizon < 1:
            raise DataError(f"horizon {self.horizon} must be >= 1")
        check_paths(self.paths)
        if not callable(self.statistic):
            try:
                statistic = Statistic(self.statistic)
            except ValueError:
                raise DataError(f"unknown statistic {self.statistic!r}") from None
            object.__setattr__(self, "statistic", statistic)

    def statistic_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        if callable(self.statistic):
            return self.statistic
        return self.statistic.per_path


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

    @classmethod
    def of_ensemble(
        cls, stats: np.ndarray, risk, horizon: int, statistic: str, seed: Seed,
        stepwise_l1_aggregate: float | None = None,
    ) -> "ForecastResult":
        """Summary of the per-path statistics ``stats`` of one ensemble."""
        return cls(
            point=risk_point(stats, risk),
            ensemble_mean=risk_point(stats, Risk.L2),
            ensemble_median=risk_point(stats, Risk.L1),
            horizon=horizon,
            risk=Risk(risk),
            statistic=statistic,
            paths=len(stats),
            seed=seed,
            stepwise_l1_aggregate=stepwise_l1_aggregate,
        )


def simulate_paths(
    ct: CalibratedTransform,
    innovations: np.ndarray,
    freeze_variance: bool = False,
) -> np.ndarray:
    """Push an ``(M, h)`` innovation matrix through the inverse transform.

    Each step's pseudo-return re-enters the lag window with the sign of its
    innovation, and the variance estimate is updated by the same one-pass
    (count, mean, M2) recursion that builds the in-sample variance path
    (:func:`~novas.returns.welford_update`) unless frozen at its
    end-of-history value ``ct.s2_n``. Pure: identical inputs give identical
    paths.
    """
    innovations = np.atleast_2d(np.asarray(innovations, dtype=float))
    m, h = innovations.shape
    w = ct.weights
    eff = w.y2_self_coef
    history = ct.history.values
    n = history.size

    lag2 = np.tile(history[-w.order :][::-1] ** 2, (m, 1))
    count = n
    mean = np.full(m, history.mean())
    m2 = np.full(m, ct.s2_n * n)
    s2 = np.full(m, ct.s2_n)

    paths = np.empty((m, h))
    for k in range(h):
        wk = innovations[:, k]
        core = lag2 @ w.lags + w.alpha * s2
        guard = 1.0 - eff * (wk * wk)
        if np.any(guard <= TRIM_GUARD):
            worst = float(wk[np.argmin(guard)])
            raise TrimBoundError(
                f"inverse denominator <= {TRIM_GUARD} at step {k + 1}; innovation "
                f"{worst!r} was not trimmed to the bound {w.trim_bound!r}"
            )
        y2_next = (wk * wk) * core / guard
        y_next = np.sign(wk) * np.sqrt(y2_next)
        paths[:, k] = y_next
        if w.order > 1:
            lag2[:, 1:] = lag2[:, :-1]
        lag2[:, 0] = y2_next
        if not freeze_variance:
            count += 1
            mean, m2 = welford_update(count, mean, m2, y_next)
            s2 = m2 / count
    return paths


def simulate_path(ct: CalibratedTransform, innovations) -> np.ndarray:
    """Single simulated future of length ``h`` (one row of the ensemble)."""
    innovations = np.asarray(innovations, dtype=float)
    if innovations.ndim != 1:
        raise DataError("simulate_path takes a single innovation vector")
    return simulate_paths(ct, innovations[None, :])[0]


def innovation_source(ct: CalibratedTransform, kind) -> InnovationSource:
    """The innovation source a calibrated transform implies for each kind."""
    kind = SourceKind(kind)
    if kind is SourceKind.EMPIRICAL:
        return InnovationSource(kind, residual_pool=ct.residuals)
    return InnovationSource(kind, bound=ct.weights.trim_bound)


def predict(
    ct: CalibratedTransform, req: ForecastRequest, return_paths: bool = False
):
    """Risk-optimal predictor of the requested path statistic.

    Draws ``paths x horizon`` innovations from the request's source, runs the
    ensemble, applies the statistic per path, and reduces with the exact mean
    (L2) or exact median (L1). Fully determined by ``(seed, request, ct)``.
    """
    gen = substream(req.seed)
    draws = req.source.draw(gen, (req.paths, req.horizon))
    paths = simulate_paths(ct, draws)
    stats = np.asarray(req.statistic_fn()(paths), dtype=float)
    if stats.shape != (req.paths,):
        raise DataError("statistic must map an (M, h) ensemble to M values")

    stepwise = None
    if req.statistic is Statistic.AGGREGATED_SQUARED:
        # aggregate of per-step L1 predictors, the alternative reading of
        # the time-aggregated L1 target; reported alongside, never the point
        stepwise = float(np.mean(np.median(paths * paths, axis=0)))

    result = ForecastResult.of_ensemble(
        stats,
        req.risk,
        req.horizon,
        (
            req.statistic.value
            if isinstance(req.statistic, Statistic)
            else getattr(req.statistic, "__name__", "custom")
        ),
        req.seed,
        stepwise,
    )
    if return_paths:
        return result, paths
    return result


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
