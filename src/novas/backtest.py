"""Rolling pseudo-out-of-sample comparison harness.

Rolls a fixed window through a return series; on every window calibrates
each transform variant over the alpha grid, produces aggregated h-step
forecasts for every (variant, alpha, risk, innovation-kind) combination plus
the GARCH bootstrap and direct baselines, and scores each method against the
realized aggregates. All methods see identical windows and identical truth
sequences; every random stream is derived from (seed, window, method), so
reports do not depend on the parallel schedule.

A window has no forecasting code of its own: it runs the draw, simulation,
aggregate and reduce of ``predict`` (the GARCH bootstrap draws its paths
with ``garch_bootstrap_paths``) under its own substreams, on one ensemble
per method drawn at its largest horizon. One running sum over the
ensemble's step-major squares gives the per-path means at every horizon of
the window, and one ``ensemble_points`` call reduces them to the L2 and L1
points at every horizon.

Windows are independent, so they run in a pool of forked worker processes
(``BacktestConfig.threads`` of them, by default one per usable CPU). The
pool's modules, ``multiprocessing`` and ``concurrent.futures``, are imported
in :func:`run_rolling_poos` only when it starts a pool, so ``import novas``
does not pay for them. Fork hands each worker the imported numpy, the window
inputs and the calibration scans prepared by ``feasible_alphas`` without a
fresh import; because each window draws only from its own substreams, the
predictions are byte-identical at every worker count. Fork copies only the
calling thread, so a caller that runs threads of its own which may hold
locks (a logging handler, a server loop) should pass ``threads=1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CalibrationError, DataError, FitError
from .garch import fit_garch11_mle, garch_bootstrap_paths, garch_direct_forecast
from .innovations import Seed, SourceKind, substream
from .predictor import (
    Risk,
    aggregated_squared,
    check_paths,
    ensemble_points,
    innovation_source,
    simulate_paths,
)
from .returns import ReturnSeries
from .transform import CalibrationGrid, calibrate_many, feasible_alphas
from .weights import NovasVariant

FAMILIES = ("GE", "GE_NO_A0", "GA", "GA_NO_A0", "GARCH_BOOT", "GARCH_DIRECT")
# innovation kinds by their short names in configs, sidecars and method labels
KIND_TO_SOURCE = {"mc": SourceKind.TRIMMED_NORMAL, "boot": SourceKind.EMPIRICAL}
KINDS = tuple(KIND_TO_SOURCE)

# substream domains: one per independent consumer of randomness
_DOMAIN_NOVAS = 1
_DOMAIN_GARCH_BOOT = 2


@dataclass(frozen=True)
class MethodKey:
    """One column of the comparison: family plus its free settings."""

    family: str
    alpha: float | None = None
    risk: str | None = None
    kind: str | None = None

    def label(self) -> str:
        parts = [self.family]
        if self.alpha is not None:
            parts.append(f"a={self.alpha:g}")
        if self.risk is not None:
            parts.append(self.risk)
        if self.kind is not None:
            parts.append(self.kind)
        return "|".join(parts)


_BENCHMARK = MethodKey("GARCH_DIRECT")
_VARIANT_INDEX = {v: i for i, v in enumerate(NovasVariant)}
_KIND_INDEX = {k: i for i, k in enumerate(KINDS)}


@dataclass(frozen=True)
class BacktestConfig:
    window: int
    horizons: tuple[int, ...] = (1, 5, 30)
    alpha_grid: tuple[float, ...] = tuple(k / 10 for k in range(1, 9))
    variants: tuple[NovasVariant, ...] = tuple(NovasVariant)
    risks: tuple[str, ...] = ("L1", "L2")
    kinds: tuple[str, ...] = KINDS
    paths: int = 5000
    seed: Seed = field(default_factory=Seed)
    grid: CalibrationGrid = field(default_factory=CalibrationGrid)
    metric: str = "squared"
    include_garch_bootstrap: bool = True
    # worker processes (the name is kept for existing callers and sidecars);
    # None means one per usable CPU. Results do not depend on it.
    threads: int | None = None

    def __post_init__(self):
        if self.window < 1:
            raise DataError("window must be positive")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise DataError("horizons must be positive")
        if any(not 0.0 < a < 1.0 for a in self.alpha_grid):
            raise DataError("every alpha must lie in (0, 1)")
        if self.metric not in ("squared", "literal"):
            raise DataError(f"unknown metric {self.metric!r}")
        if any(k not in KINDS for k in self.kinds):
            raise DataError(f"kinds must be among {KINDS}")
        risks = tuple(r.value for r in Risk)
        if any(r not in risks for r in self.risks):
            raise DataError(f"risks must be among {risks}")
        check_paths(self.paths)
        if self.threads is None:
            object.__setattr__(self, "threads", len(os.sched_getaffinity(0)))
        elif self.threads < 1:
            raise DataError(f"threads must be at least 1, got {self.threads}")
        object.__setattr__(self, "horizons", tuple(sorted(set(self.horizons))))
        object.__setattr__(self, "seed", Seed.of(self.seed))
        object.__setattr__(
            self, "variants", tuple(NovasVariant(v) for v in self.variants)
        )
        # a repeated entry would score its methods twice, and the substream
        # of a repeated alpha's later position would overwrite its predictions
        for name in ("alpha_grid", "variants", "risks", "kinds"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                shown = [getattr(e, "value", e) for e in entries]
                raise DataError(f"{name} repeats an entry: {shown}")


@dataclass(frozen=True)
class MethodScore:
    method: MethodKey
    horizon: int
    score: float
    n_predictions: int
    ratio: float


@dataclass
class BacktestReport:
    horizons: tuple[int, ...]
    counts: dict[int, int]
    truths: dict[int, np.ndarray]
    predictions: dict[MethodKey, dict[int, np.ndarray]]
    scores: list[MethodScore]
    benchmark_scores: dict[int, float]
    infeasible: dict[str, tuple[float, ...]]
    failed_windows: dict[int, int]

    def score_for(self, method: MethodKey, horizon: int) -> MethodScore:
        for s in self.scores:
            if s.method == method and s.horizon == horizon:
                return s
        raise KeyError((method, horizon))


def score_performance(preds, truths, metric: str = "squared") -> float:
    """Performance value of a prediction sequence against realized values.

    ``squared`` (default) sums squared errors; ``literal`` sums signed
    differences, which rewards cancellation and exists only for comparison
    with the raw definition.
    """
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape or preds.ndim != 1 or preds.size < 1:
        raise DataError("predictions and truths must be equal-length, nonempty")
    diff = preds - truths
    if metric == "squared":
        return float(np.sum(diff * diff))
    if metric == "literal":
        return float(np.sum(diff))
    raise DataError(f"unknown metric {metric!r}")


def _novas_methods(cfg: BacktestConfig, usable: dict[NovasVariant, tuple[float, ...]]):
    out = []
    for variant in cfg.variants:
        for alpha in usable[variant]:
            for risk in cfg.risks:
                for kind in cfg.kinds:
                    out.append(MethodKey(variant.value, alpha, risk, kind))
    return out


def _store_points(preds, method: MethodKey, squares, h_here, risks) -> None:
    """Reduce one ensemble's step-major squares to its points at every
    horizon in ``h_here`` and store them under ``method`` with each risk."""
    means, medians = ensemble_points(aggregated_squared(squares, h_here))
    for risk in risks:
        points = means if Risk(risk) is Risk.L2 else medians
        preds[replace(method, risk=risk)] = dict(zip(h_here, points))


def _run_window(
    values: np.ndarray,
    cfg: BacktestConfig,
    usable: dict[NovasVariant, tuple[float, ...]],
    counts: dict[int, int],
    w0: int,
) -> tuple[dict[MethodKey, dict[int, float]], list[str]]:
    """Point forecasts of every method on the window starting at ``w0``, and
    the families that could not be fitted there. Module-level so that the
    process pool can pickle it."""
    window_returns = ReturnSeries(values[w0 : w0 + cfg.window])
    h_here = [h for h in cfg.horizons if w0 < counts[h]]
    h_top = max(h_here)
    preds: dict[MethodKey, dict[int, float]] = {}
    dead_families: list[str] = []

    for variant in cfg.variants:
        if not usable[variant]:
            continue
        try:
            transforms = calibrate_many(
                variant, usable[variant], window_returns, cfg.grid
            )
        except (CalibrationError, DataError):
            # degenerate window for this variant: skip it here, count it,
            # and let the common-window mask keep scores comparable
            dead_families.append(variant.value)
            continue
        vi = _VARIANT_INDEX[variant]
        for ai, alpha in enumerate(cfg.alpha_grid):
            if alpha not in transforms:
                continue
            ct = transforms[alpha]
            for kind in cfg.kinds:
                source = innovation_source(ct, KIND_TO_SOURCE[kind])
                gen = substream(cfg.seed, _DOMAIN_NOVAS, w0, vi, ai, _KIND_INDEX[kind])
                draws = source.draw(gen, (cfg.paths, h_top))
                paths = simulate_paths(ct, draws)
                _store_points(preds, MethodKey(variant.value, alpha, None, kind),
                              np.square(paths.T), h_here, cfg.risks)

    try:
        fit = fit_garch11_mle(window_returns)
    except (FitError, DataError):
        dead_families.extend(["GARCH_BOOT", "GARCH_DIRECT"])
    else:
        variances = garch_direct_forecast(
            fit, float(window_returns.values[-1] ** 2), h_top
        )
        vcum = np.cumsum(variances)
        preds[_BENCHMARK] = {h: float(vcum[h - 1] / h) for h in h_here}
        if cfg.include_garch_bootstrap:
            gen = substream(cfg.seed, _DOMAIN_GARCH_BOOT, w0)
            paths = garch_bootstrap_paths(fit, gen, cfg.paths, h_top)
            _store_points(preds, MethodKey("GARCH_BOOT"),
                          np.square(paths.T, order="C"), h_here, cfg.risks)
    return preds, dead_families


def run_rolling_poos(y: ReturnSeries, cfg: BacktestConfig) -> BacktestReport:
    values = y.values
    n = values.size
    horizons = cfg.horizons
    maxh = max(horizons)
    if cfg.window >= n:
        raise DataError(f"window {cfg.window} must be smaller than the series ({n})")
    if n < cfg.window + maxh:
        raise DataError(
            f"need at least window + max horizon = {cfg.window + maxh} returns, got {n}"
        )
    counts = {h: n - cfg.window - h + 1 for h in horizons}
    n_windows = counts[min(horizons)]

    usable = {
        v: tuple(feasible_alphas(v, cfg.alpha_grid, cfg.window, cfg.grid))
        for v in cfg.variants
    }
    infeasible = {
        v.value: tuple(a for a in cfg.alpha_grid if a not in usable[v])
        for v in cfg.variants
        if len(usable[v]) < len(cfg.alpha_grid)
    }

    methods = _novas_methods(cfg, usable)
    if cfg.include_garch_bootstrap:
        methods += [MethodKey("GARCH_BOOT", None, risk, None) for risk in cfg.risks]
    methods.append(_BENCHMARK)

    run_window = partial(_run_window, values, cfg, usable, counts)
    workers = min(cfg.threads, n_windows)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # chunksize 1: the early windows carry every horizon and take longest,
        # so handing them out one at a time keeps the workers evenly loaded
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            results = list(pool.map(run_window, range(n_windows)))
    else:
        results = [run_window(w0) for w0 in range(n_windows)]

    predictions = {
        m: {h: np.full(counts[h], np.nan) for h in horizons} for m in methods
    }
    window_ok = {h: np.ones(counts[h], dtype=bool) for h in horizons}
    for w0, (preds, dead_families) in enumerate(results):
        if dead_families:
            for h in horizons:
                if w0 < counts[h]:
                    window_ok[h][w0] = False
        for key, by_h in preds.items():
            for h, value in by_h.items():
                predictions[key][h][w0] = value

    sq = values * values
    truths = {
        h: sliding_window_view(sq[cfg.window :], h).mean(axis=1) for h in horizons
    }

    scores: list[MethodScore] = []
    raw: dict[tuple[MethodKey, int], tuple[float, int]] = {}
    for h in horizons:
        # every method is scored on the same windows
        mask = window_ok[h].copy()
        for m in methods:
            mask &= np.isfinite(predictions[m][h])
        if not mask.any():
            raise CalibrationError(
                f"no window has a usable prediction from every method at h={h}"
            )
        for m in methods:
            score = score_performance(
                predictions[m][h][mask], truths[h][mask], cfg.metric
            )
            raw[(m, h)] = (score, int(mask.sum()))

    benchmark_scores = {h: raw[(_BENCHMARK, h)][0] for h in horizons}
    for h, s in benchmark_scores.items():
        if s == 0.0:
            raise DataError(f"benchmark score is zero at h={h}; ratios undefined")
    for m in methods:
        for h in horizons:
            score, count = raw[(m, h)]
            scores.append(
                MethodScore(m, h, score, count, score / benchmark_scores[h])
            )

    failed = {h: int((~window_ok[h]).sum()) for h in horizons}
    return BacktestReport(
        horizons=horizons,
        counts=counts,
        truths=truths,
        predictions=predictions,
        scores=scores,
        benchmark_scores=benchmark_scores,
        infeasible=infeasible,
        failed_windows=failed,
    )


def relative_report(report: BacktestReport) -> list[dict]:
    """Family-best benchmark-relative table, one row per horizon.

    Every score is divided by the GARCH-direct score at the same horizon and
    each family contributes its best (minimum-ratio) variant, the first one
    scored on a tie, matching the published comparison format.
    """
    best: dict[tuple[str, int], float] = {}
    for s in report.scores:
        key = (s.method.family, s.horizon)
        if key not in best or s.ratio < best[key]:
            best[key] = s.ratio
    families = [f for f in FAMILIES if any(fam == f for fam, _ in best)]
    return [
        {"horizon": h, **{fam: best.get((fam, h)) for fam in families}}
        for h in report.horizons
    ]


def format_table(rows: list[dict], label: str = "") -> str:
    """Fixed-width text rendering of :func:`relative_report` rows."""
    families = [k for k in rows[0] if k != "horizon"]
    width = max(13, max(len(f) for f in families) + 2)
    head = "horizon".ljust(9) + "".join(f.rjust(width) for f in families)
    lines = [label, head] if label else [head]
    for row in rows:
        cells = "".join(
            (f"{row[f]:.5f}" if row[f] is not None else "-").rjust(width)
            for f in families
        )
        lines.append(f"{row['horizon']:<9d}" + cells)
    return "\n".join(lines)
