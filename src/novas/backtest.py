"""Rolling pseudo-out-of-sample comparison harness.

Rolls a fixed window through a return series; on every window calibrates
each transform variant over the alpha grid, produces aggregated h-step
forecasts for every (variant, alpha, risk, innovation-kind) combination plus
the GARCH bootstrap and direct baselines, and scores each method against the
realized aggregates. All methods see identical windows and identical truth
sequences; every random stream is derived from (seed, window, method), or
from (seed, window) for the two blocks shared by a window's methods, so
reports do not depend on the parallel schedule.

A window has no forecasting code of its own. Its ensembles come from two
producers, under its own substreams, each simulated once per method at the
window's largest horizon: every NoVaS ensemble from ``simulate_squares``,
which ``predict`` calls on innovations built the same way, and the GARCH
bootstrap's from ``garch_bootstrap_squares``. Both hand back step-major
squares. One running sum over them gives the per-path means at every
horizon of the window, and one ``ensemble_points`` call reduces those to
the L2 and L1 points at every horizon.

The ensembles of a window share its Monte-Carlo noise (common random
numbers), so each keeps its own law, while the differences between methods,
which the comparison reads, carry less noise. The window draws one
step-major ``(h, M)`` block of standard normals from its own substream
domain, keyed by the window alone, and every ``mc`` ensemble takes its
innovations from that block, a bounded transform (GE, GA) with the entries
beyond its bound replaced by trimmed-normal draws from its method's own
substream. Every bootstrap of the window resamples through one step-major
``(h, M)`` block ``U`` of uniforms, from another domain keyed by the window
alone: each ``boot`` ensemble gathers its residual pool at
``floor(U * len(pool))``, and the GARCH bootstrap its fitted volatilities at
the indices of the same ``U``, with normal multipliers of its own. Pools of
one length share one index block. A window builds only the generators its
ensembles read: none for a ``boot`` ensemble or for an ``mc`` one with an
infinite bound.

Each ensemble's squares go straight into the reduction and no name keeps
them, so a window holds one ensemble at a time. The ``mc`` ensembles run
before any ``boot`` one, and the shared block is freed before the ``boot``
ensembles: a window peaks below three ``(h, M)`` blocks, the shared block,
an ensemble's step-major copy of its innovations, and that ensemble's
``y^2`` ring of at most ``(h + 1) / 2`` rows. The ``boot`` ensembles run by
pool length, and the window holds one length's index block at a time, in
the smallest unsigned type that indexes the pool (an eighth of an ``(h, M)``
block up to 256 entries), drawing ``U`` afresh for each length.

:func:`run_rolling_poos` lists the methods once, one row each. A window
returns its points as one ``(method, horizon)`` array, NaN where it is out of
reach or a family died, and the windows stack into one ``(method, horizon,
window)`` table. Each ``BacktestReport.predictions[m][h]`` is a view of row
``m``'s first ``counts[h]`` windows, and ``h`` scores every method on the
windows where no family died and every point is finite.

Windows are independent, so they run in a pool of forked worker processes
(``BacktestConfig.threads`` of them, by default one per usable CPU). The
pool's modules, ``multiprocessing`` and ``concurrent.futures``, are imported
in :func:`run_rolling_poos` only when it starts a pool, so ``import novas``
does not pay for them. Fork hands each worker the imported numpy and the
calibration scans prepared by ``feasible_alphas`` without a fresh import.
Serial and pooled runs map the same callable, the window inputs bound to
``_run_window``, over the window starts; the pool pickles it with each
task, so a run sets no module state in its workers. Because each
window draws only from its own substreams, the
predictions are byte-identical at every worker count. Each worker pins
numpy's OpenBLAS to one thread as it starts, so a pooled run needs no
``OPENBLAS_NUM_THREADS`` in the environment. Fork copies only the
calling thread, so a caller that runs threads of its own which may hold
locks (a logging handler, a server loop) should pass ``threads=1``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CalibrationError, DataError, FitError, as_count
from .garch import fit_garch11_mle, garch_bootstrap_squares, garch_direct_forecast
from .innovations import Seed, SharedNormals, SourceKind, resample_indices, substream
from .predictor import (
    Risk,
    aggregated_squared,
    check_paths,
    ensemble_points,
    innovation_source,
    simulate_squares,
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
_DOMAIN_NORMALS = 3
_DOMAIN_UNIFORMS = 4


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
    # worker processes (the name is kept for existing callers and sidecars);
    # None means one per usable CPU. Results do not depend on it.
    threads: int | None = None

    def __post_init__(self):
        for name in ("horizons", "alpha_grid", "variants", "risks", "kinds"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(value))
            except TypeError:
                raise DataError(f"{name} must be a sequence, got {value!r}") from None
        for name in ("window", "paths"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        object.__setattr__(self, "horizons", tuple(
            sorted({as_count("horizons", h) for h in self.horizons})
        ))
        if self.window < 1:
            raise DataError("window must be positive")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise DataError("horizons must be positive")
        if any(not isinstance(a, Real) or not 0.0 < a < 1.0 for a in self.alpha_grid):
            raise DataError("every alpha must be a number in (0, 1)")
        if self.metric not in ("squared", "literal"):
            raise DataError(f"unknown metric {self.metric!r}")
        if any(k not in KINDS for k in self.kinds):
            raise DataError(f"kinds must be among {KINDS}")
        risks = tuple(r.value for r in Risk)
        if any(r not in risks for r in self.risks):
            raise DataError(f"risks must be among {risks}")
        check_paths(self.paths)
        if self.threads is None:
            # the CPUs this process may run on; only Linux can say
            affinity = getattr(os, "sched_getaffinity", None)
            usable = len(affinity(0)) if affinity else os.cpu_count() or 1
            object.__setattr__(self, "threads", usable)
        else:
            object.__setattr__(self, "threads", as_count("threads", self.threads))
            if self.threads < 1:
                raise DataError(f"threads must be at least 1, got {self.threads}")
        object.__setattr__(self, "seed", Seed.of(self.seed))
        try:
            variants = tuple(NovasVariant(v) for v in self.variants)
        except ValueError:
            names = tuple(v.value for v in NovasVariant)
            raise DataError(f"variants must be among {names}") from None
        object.__setattr__(self, "variants", variants)
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
    infeasible: dict[str, tuple[float, ...]]
    failed_windows: dict[int, int]

    @property
    def benchmark_scores(self) -> dict[int, float]:
        """The GARCH-direct score at each horizon, which every ratio divides by."""
        return {s.horizon: s.score for s in self.scores if s.method == _BENCHMARK}

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


def _store_points(out, rows, method: MethodKey, squares, h_here, risks) -> None:
    """Reduce one ensemble's step-major squares to its points at every
    horizon in ``h_here`` and write them into its row of ``out`` with each
    risk; the medians are taken only when an L1 point is asked for."""
    means, medians = ensemble_points(
        aggregated_squared(squares, h_here), medians=Risk.L1.value in risks
    )
    for risk in risks:
        points = means if Risk(risk) is Risk.L2 else medians
        out[rows[replace(method, risk=risk)], : len(h_here)] = points


def _run_window(
    values: np.ndarray,
    cfg: BacktestConfig,
    usable: dict[NovasVariant, tuple[float, ...]],
    counts: dict[int, int],
    rows: dict[MethodKey, int],
    w0: int,
) -> tuple[np.ndarray, list[str]]:
    """Point forecasts of every method on the window starting at ``w0``, as
    one ``(method, horizon)`` array whose row ``rows[m]`` is method ``m``'s,
    NaN where the family could not be fitted or beyond the horizons it
    reaches (a prefix of ``cfg.horizons``), and the families that could not
    be fitted. Module-level so that the process pool can pickle it."""
    window_returns = ReturnSeries(values[w0 : w0 + cfg.window])
    h_here = [h for h in cfg.horizons if w0 < counts[h]]
    h_top = max(h_here)
    out = np.full((len(rows), len(cfg.horizons)), np.nan)
    dead_families: list[str] = []

    fitted = []  # (variant, alpha index, alpha, transform)
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
        fitted += [
            (variant, ai, alpha, transforms[alpha])
            for ai, alpha in enumerate(cfg.alpha_grid) if alpha in transforms
        ]

    def shared_indices(size: int) -> np.ndarray:
        """Indices into a pool of ``size`` from the window's one block of
        uniforms, drawn afresh for each call rather than held."""
        return resample_indices(substream(cfg.seed, _DOMAIN_UNIFORMS, w0),
                                cfg.paths, h_top, size)

    # every mc ensemble runs first, from the window's one block of shared
    # normals, which is freed before the boot ensembles; these run by pool
    # length, each length's index block built once, and only one held
    for kind in sorted(cfg.kinds, key=_KIND_INDEX.get):
        if kind == "mc":
            ensembles = fitted
            shared = SharedNormals(substream(cfg.seed, _DOMAIN_NORMALS, w0),
                                   cfg.paths, h_top) if fitted else None
        else:
            ensembles = sorted(fitted, key=lambda f: f[3].residuals.size)
            shared = size = None
        for variant, ai, alpha, ct in ensembles:
            source = innovation_source(ct, KIND_TO_SOURCE[kind])
            if kind == "boot" and ct.residuals.size != size:
                size = ct.residuals.size
                shared = None  # freed before the next length's block is built
                shared = shared_indices(size)
            # only a bounded source draws, for its shared entries beyond the
            # bound; an a0-free transform's bound and a bootstrap's are infinite
            gen = substream(cfg.seed, _DOMAIN_NOVAS, w0, _VARIANT_INDEX[variant], ai,
                            _KIND_INDEX[kind]) if math.isfinite(source.bound) else None
            _store_points(out, rows, MethodKey(variant.value, alpha, None, kind),
                          simulate_squares(ct, source, gen, shared),
                          h_here, cfg.risks)
        del shared

    try:
        fit = fit_garch11_mle(window_returns)
    except (FitError, DataError):
        dead_families.extend(["GARCH_BOOT", "GARCH_DIRECT"])
    else:
        variances = garch_direct_forecast(
            fit, float(window_returns.values[-1] ** 2), h_top
        )
        h = np.array(h_here)
        out[rows[_BENCHMARK], : h.size] = np.cumsum(variances)[h - 1] / h
        gen = substream(cfg.seed, _DOMAIN_GARCH_BOOT, w0)
        _store_points(out, rows, MethodKey("GARCH_BOOT"), garch_bootstrap_squares(
            fit, gen, shared_indices(fit.sigma2_path.size)), h_here, cfg.risks)
    return out, dead_families


def _one_blas_thread() -> None:
    """Pin every loaded OpenBLAS that exports numpy's thread setter to one
    thread: the pool's only initializer, run once in each forked worker,
    so that the workers do not each run a BLAS thread pool and compete for
    the cores. The results do not depend on it. It does nothing where no
    such library is found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:  # Linux only
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_")
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


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

    methods = [
        MethodKey(variant.value, alpha, risk, kind)
        for variant in cfg.variants for alpha in usable[variant]
        for risk in cfg.risks for kind in cfg.kinds
    ]
    methods += [MethodKey("GARCH_BOOT", None, risk, None) for risk in cfg.risks]
    methods.append(_BENCHMARK)
    rows = {m: i for i, m in enumerate(methods)}

    run_window = partial(_run_window, values, cfg, usable, counts, rows)
    workers = min(cfg.threads, n_windows)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # chunksize 1: the early windows carry every horizon and take longest,
        # so handing them out one at a time keeps the workers evenly loaded
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_one_blas_thread,
        ) as pool:
            results = list(pool.map(run_window, range(n_windows)))
    else:
        results = [run_window(w0) for w0 in range(n_windows)]

    # one (method, horizon, window) table, NaN past each horizon's count
    table = np.stack([out for out, _ in results], axis=-1)
    ok = np.array([not dead for _, dead in results])
    predictions = {
        m: {h: table[i, j, : counts[h]] for j, h in enumerate(horizons)}
        for i, m in enumerate(methods)
    }

    sq = values * values
    truths = {
        h: sliding_window_view(sq[cfg.window :], h).mean(axis=1) for h in horizons
    }

    # every method is scored on the same windows
    masks = [ok[: counts[h]] & np.isfinite(table[:, j, : counts[h]]).all(axis=0)
             for j, h in enumerate(horizons)]
    for h, mask in zip(horizons, masks):
        if not mask.any():
            raise CalibrationError(
                f"no window has a usable prediction from every method at h={h}"
            )
    method_scores = [
        [score_performance(by_h[h][mask], truths[h][mask], cfg.metric)
         for h, mask in zip(horizons, masks)]
        for by_h in predictions.values()
    ]
    benchmark = method_scores[rows[_BENCHMARK]]
    for h, s in zip(horizons, benchmark):
        if s == 0.0:
            raise DataError(f"benchmark score is zero at h={h}; ratios undefined")
    scores = [
        MethodScore(m, h, score, int(mask.sum()), score / base)
        for m, row in zip(methods, method_scores)
        for h, mask, score, base in zip(horizons, masks, row, benchmark)
    ]

    return BacktestReport(
        horizons=horizons,
        counts=counts,
        truths=truths,
        predictions=predictions,
        scores=scores,
        infeasible=infeasible,
        failed_windows={h: int((~ok[: counts[h]]).sum()) for h in horizons},
    )


def family_best(scores: list[MethodScore]) -> dict[tuple[str, int], float]:
    """Each family's best (minimum) ratio at each horizon among ``scores``,
    keyed by ``(family, horizon)``; on a tie the first one scored wins.

    Pass a filtered list to select within part of each family: the scores
    whose risk is not L1 give the best L2 ratios, the GARCH-direct one
    included, since it has no risk.
    """
    best: dict[tuple[str, int], float] = {}
    for s in scores:
        key = (s.method.family, s.horizon)
        if key not in best or s.ratio < best[key]:
            best[key] = s.ratio
    return best


def spike_ratio(report: BacktestReport, family: str, horizon: int) -> float:
    """The worst max/median, over a family's L2 methods, of its finite
    per-window ``horizon``-step predictions, or 0.0 when the family has no
    L2 method. A transform whose forecasts spike on outlying windows, as
    the contemporaneous weight a0 makes them do, reads high; the a0-free
    variants exist to read lower. The medians are ``ensemble_points``'
    exact ones.
    """
    worst = 0.0
    for method, by_h in report.predictions.items():
        if method.family == family and method.risk == Risk.L2.value:
            preds = by_h[horizon][np.isfinite(by_h[horizon])]
            _, (median,) = ensemble_points(preds[None, :])
            worst = max(worst, float(preds.max() / median))
    return worst


def relative_report(report: BacktestReport) -> list[dict]:
    """Family-best benchmark-relative table, one row per horizon.

    Every score is divided by the GARCH-direct score at the same horizon and
    each family contributes its best (minimum-ratio) variant over both risks
    (:func:`family_best`), matching the published comparison format.
    """
    best = family_best(report.scores)
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
