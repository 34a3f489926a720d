"""CSV ingestion, percent log-returns, and the running statistics
(recursive variance, sample kurtosis) every other module consumes.

Conventions, fixed once here:

* :func:`read_returns_csv` is the one reader of an input CSV. It takes a
  returns column as is, or else turns a price column into percent
  log-returns, ``Y_t = 100 * ln(X_{t+1} / X_t)``, so every other module
  sees a :class:`ReturnSeries`.
* ``ReturnSeries.variance_path[t - 1]`` is the variance estimate available
  *at* time ``t``: the first ``t - 1`` observations, centered on their own
  mean, divided by ``t - 1`` (window-length divisor, not ``n - 1``).
* Every variance estimate, in-sample or along a simulated path, comes from
  one (count, mean, M2) recursion, :func:`welford_update`. A series' whole
  path of estimates is computed once and cached on its
  :class:`ReturnSeries` (:attr:`ReturnSeries.variance_path`).
* Kurtosis is the plain moment ratio ``m4 / m2**2``, no bias correction.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Percent log-returns, the universal input of the forecasting pipeline.

    Immutable: ``values`` is a read-only copy of the input, so the cached
    :attr:`variance_path` can never go stale.
    """

    values: np.ndarray = field()

    def __post_init__(self):
        try:
            values = np.array(self.values, dtype=float)
        except (TypeError, ValueError):
            raise DataError("return series values must be a sequence of numbers") from None
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise DataError("return series must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise DataError("return series contains non-finite values")

    def __len__(self) -> int:
        return self.values.size

    @functools.cached_property
    def variance_path(self) -> np.ndarray:
        """:func:`variance_path` of ``values``, computed once per series."""
        return variance_path(self.values)


def read_returns_csv(path, returns_column: str, price_column: str) -> ReturnSeries:
    """The percent log-returns of a headered CSV file.

    The ``returns_column`` is used as is when the header names it; otherwise
    the ``price_column`` becomes ``100 * ln(P_{t+1} / P_t)``. :mod:`csv`
    parses the header once, so quoted names match, and each row once. Every
    value must be a finite number and every price strictly positive: the
    error names the file line of the first row that is not (the header is
    line 1); no row is skipped.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if returns_column in header:
            column, kind = returns_column, "return"
        elif price_column in header:
            column, kind = price_column, "price"
        else:
            raise DataError(
                f"column {returns_column!r} or {price_column!r} not found in "
                f"{path!r} (columns: {header})"
            )
        values: list[float] = []
        for row in reader:
            line = reader.line_num
            raw = (row[column] or "").strip()
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"row {line}: {kind} {raw!r} is not numeric") from None
            if not math.isfinite(value):
                raise DataError(f"row {line}: {kind} {raw!r} is not finite")
            if kind == "price" and value <= 0.0:
                raise DataError(f"row {line}: price {raw!r} is not strictly positive")
            values.append(value)
    if kind == "return":
        if not values:
            raise DataError(f"no returns in {path!r}")
        return ReturnSeries(np.asarray(values))
    if len(values) < 2:
        raise DataError(f"fewer than 2 prices in {path!r}")
    return ReturnSeries(100.0 * np.diff(np.log(values)))


def welford_update(count, mean, m2, x):
    """Fold ``x`` into a running (count, mean, M2) state (Welford 1962).

    ``count`` already includes ``x``; returns the new ``(mean, m2)``, and
    the variance (divisor ``count``) is ``m2 / count``. Elementwise on
    arrays, so one call also advances a whole ensemble of paths; array
    ``mean`` and ``m2`` are updated in place.
    """
    delta = x - mean
    mean += delta / count
    delta *= x - mean
    m2 += delta
    return mean, m2


def variance_path(values: np.ndarray) -> np.ndarray:
    """``out[t] = var(values[:t])`` (divisor ``t``) for ``t = 0..n``.

    ``out[t]`` is the paper-convention ``s^2`` available at time ``t + 1``;
    ``out[0]`` and ``out[1]`` are 0. One O(n) pass of :func:`welford_update`
    over the values taken relative to the first one (the variance does not
    depend on the shift, and the recursion stays accurate far from zero);
    ``out[t]`` depends only on ``values[:t]``. :class:`ReturnSeries` caches
    the path, so each series computes it once.
    """
    values = np.asarray(values, dtype=float)
    out = [0.0]
    mean = m2 = 0.0
    for count, x in enumerate((values - values[:1]).tolist(), start=1):
        mean, m2 = welford_update(count, mean, m2, x)
        out.append(m2 / count)
    return np.array(out)


def sample_kurtosis(w) -> float:
    """Moment-ratio kurtosis ``m4 / m2**2`` (3 for a normal distribution)."""
    w = np.asarray(w, dtype=float)
    if w.size < 4:
        raise DataError(f"kurtosis needs at least 4 observations, got {w.size}")
    centered = w - w.mean()
    m2 = float(np.mean(centered**2))
    if m2 <= 0.0:
        raise DataError("kurtosis undefined for a constant sequence")
    m4 = float(np.mean(centered**4))
    return m4 / (m2 * m2)
