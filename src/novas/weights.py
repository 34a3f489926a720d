"""Weight structures for the four studentizing-transform variants.

A weight set assigns mass 1 across the terms of the studentizing
denominator: ``alpha`` on the recursive variance estimate, ``a0`` on the
contemporaneous squared return (dropped by the ``*_NO_A0`` variants), and a
decaying lag profile on past squared returns. :func:`lag_profile` defines the
four profiles, and :func:`build_weights` scales a unit-mass profile by
``1 - alpha`` only after normalizing it, so the weights it returns are
exactly the ones calibration scores. GA keeps its raw profile
``a1 * b1**(i-1)`` and solves its intercept weight exactly from the mass
constraint.

Admissibility: the effective weight on the contemporaneous squared return
(``a0`` for GE, ``a0/(1-b1)`` for GA) caps the attainable range of the
studentized residuals at ``1/sqrt(eff)``. Keeping that range at least 3
standard deviations requires ``eff <= 1/9``; GA also needs ``eff >= a1``, its
largest lag weight. Both are compared exactly, also when GA's solved ``a0``
is 0, and :func:`build_weights` is the only code that judges them.

Calibration adds a data-dependent preference on top of these bounds: among
the admissible grid points it keeps those whose lag multiplier
``mean(Y_t^2 / D_t) * sum(lags)`` is below 1, so that Monte-Carlo prediction
with bootstrapped residuals stays mean-stable over long horizons, and falls
back to the point of smallest multiplier when none qualifies (see
:mod:`novas.transform`). It is a preference, not a constraint: it never makes
a point or an alpha infeasible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, asdict
from numbers import Real

import numpy as np

from .errors import DataError, InfeasibleWeightsError, as_count

A0_MAX = 1.0 / 9.0
SUM_TOL = 1e-12


class NovasVariant(str, enum.Enum):
    GE = "GE"
    GE_NO_A0 = "GE_NO_A0"
    GA = "GA"
    GA_NO_A0 = "GA_NO_A0"

    @property
    def exponential_family(self) -> bool:
        return self in (NovasVariant.GE, NovasVariant.GE_NO_A0)

    @property
    def keeps_a0(self) -> bool:
        return self in (NovasVariant.GE, NovasVariant.GA)


@dataclass(frozen=True, eq=False)
class NovasWeights:
    """A fully constructed, validated weight set.

    ``a0`` is the raw intercept weight as it appears in the mass constraint
    (GE family: ``alpha + a0 + sum(lags) = 1``; GA family:
    ``a0/(1-b1) + alpha + sum(lags) = 1``). ``shape`` carries the free
    parameters that generated the profile: ``(c,)`` for GE, ``(a1, b1)``
    for GA. The lag order is the length of ``lags``, a nonempty 1-D array.
    """

    variant: NovasVariant
    alpha: float
    a0: float
    lags: np.ndarray
    shape: tuple[float, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovasWeights):
            return NotImplemented
        return (
            self.variant is other.variant
            and self.alpha == other.alpha
            and self.a0 == other.a0
            and self.shape == other.shape
            and np.array_equal(self.lags, other.lags)
        )

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        object.__setattr__(self, "lags", lags)
        if not 0.0 < self.alpha < 1.0:
            raise InfeasibleWeightsError("alpha", f"alpha={self.alpha} not in (0,1)")
        if lags.ndim != 1 or lags.size < 1:
            raise InfeasibleWeightsError("order", f"lags of shape {lags.shape} invalid")
        if self.a0 < 0.0 or np.any(lags < 0.0):
            raise InfeasibleWeightsError("negative", "negative weight")
        total = self.y2_self_coef + self.alpha + float(lags.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise InfeasibleWeightsError(
                "sum", f"weight mass {total!r} differs from 1 beyond {SUM_TOL}"
            )

    @property
    def order(self) -> int:
        """The lag order, the number of lag weights."""
        return self.lags.size

    @property
    def y2_self_coef(self) -> float:
        """Effective weight on the contemporaneous squared return."""
        if self.variant is NovasVariant.GA:
            return self.a0 / (1.0 - self.shape[1])
        return self.a0

    @property
    def ratio(self) -> float:
        """Common ratio of the geometric lag profile, ``lags[i+1] / lags[i]``:
        ``exp(-c)`` for the GE family, ``b1`` for the GA family."""
        if self.variant.exponential_family:
            return math.exp(-self.shape[0])
        return self.shape[1]

    @property
    def trim_bound(self) -> float:
        """Hard bound ``|W| <= 1/sqrt(eff)`` implied by the forward transform."""
        eff = self.y2_self_coef
        return math.inf if eff == 0.0 else 1.0 / math.sqrt(eff)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "alpha": self.alpha,
            "a0": self.a0,
            "lags": [float(v) for v in self.lags],
            "order": self.order,
            "shape": list(self.shape),
        }


def lag_profile(variant: NovasVariant, shape: tuple, order: int) -> np.ndarray:
    """The lag profile of one grid point: ``exp(-c*i)`` at unit mass for the
    GE family (``i = 0..order`` for GE, contemporaneous term first;
    ``1..order`` for GE_NO_A0), ``b1**(i-1)`` at unit mass for GA_NO_A0, and
    GA's raw ``a1 * b1**(i-1)``, ``i = 1..order``."""
    if variant.exponential_family:
        start = 0 if variant.keeps_a0 else 1
        profile = np.exp(-shape[0] * np.arange(start, order + 1, dtype=float))
        return profile / profile.sum()
    a1, b1 = shape
    if variant is NovasVariant.GA_NO_A0:
        a1 = (1.0 - b1) / (1.0 - b1**order)
    return a1 * b1 ** np.arange(0, order, dtype=float)


def build_weights(
    variant: NovasVariant,
    alpha: float,
    shape,
    order: int,
) -> NovasWeights:
    """Construct the weight set for one grid point.

    GE family: ``shape`` is the decay rate ``c >= 0``. GA family:
    ``shape = (a1, b1)`` with ``b1 in (0, 1)``. Every variant but GA scales
    its unit :func:`lag_profile` by ``1 - alpha`` (GA_NO_A0 records the
    resulting profile scale as its ``a1``). GA keeps its raw profile and
    solves the intercept weight exactly from the mass constraint,
    ``a0 = (1 - alpha - sum(lags)) * (1 - b1)``.

    A weight set can be algebraically valid (mass 1, nonnegative) yet
    unusable for Monte-Carlo prediction: an effective contemporaneous weight
    above 1/9 trims the innovation range below 3 standard deviations, and a
    GA profile whose lag head exceeds that weight breaks the dominance
    requirement. Both are compared exactly.

    Raises :class:`InfeasibleWeightsError` naming the violated constraint
    (negative solved ``a0``, trimming bound, GA dominance).
    """
    if not 0.0 < alpha < 1.0:
        raise InfeasibleWeightsError("alpha", f"alpha={alpha} not in (0,1)")
    if order < 1:
        raise InfeasibleWeightsError("order", f"order={order} must be >= 1")

    if variant.exponential_family:
        c = float(shape[0]) if isinstance(shape, (tuple, list, np.ndarray)) else float(shape)
        if c < 0.0:
            raise InfeasibleWeightsError("shape", f"decay rate c={c} must be >= 0")
        shape = (c,)
    else:
        shape = a1, b1 = float(shape[0]), float(shape[1])
        if not 0.0 < b1 < 1.0:
            raise InfeasibleWeightsError("shape", f"b1={b1} must be in (0,1)")
        if a1 <= 0.0:
            raise InfeasibleWeightsError("shape", f"a1={a1} must be > 0")
    profile = lag_profile(variant, shape, order)

    if variant is NovasVariant.GA:
        budget = 1.0 - alpha - float(profile.sum())
        if budget < 0.0:
            raise InfeasibleWeightsError(
                "negative_a0",
                f"lag mass {float(profile.sum()):.6f} exceeds 1 - alpha = "
                f"{1.0 - alpha:.6f} (negative solved a0)",
            )
        a0, lags = budget * (1.0 - b1), profile
    else:
        weights = (1.0 - alpha) * profile
        a0, lags = (float(weights[0]), weights[1:]) if variant.keeps_a0 else (0.0, weights)
        if variant is NovasVariant.GA_NO_A0:
            shape = (float(lags[0]), b1)
    w = NovasWeights(variant, alpha, a0, lags, shape)
    if variant.keeps_a0:
        eff = w.y2_self_coef
        if eff > A0_MAX:
            raise InfeasibleWeightsError(
                "a0_bound",
                f"effective contemporaneous weight {eff:.6f} exceeds {A0_MAX:.6f}",
            )
        if variant is NovasVariant.GA and eff < float(w.lags.max()):
            raise InfeasibleWeightsError(
                "dominance",
                f"a0/(1-b1)={eff:.6f} below the largest lag "
                f"coefficient {float(w.lags.max()):.6f}",
            )
    return w


@dataclass(frozen=True)
class CalibrationGrid:
    """Search-grid configuration for kurtosis-targeted calibration.

    Every field is a plain scalar so the whole grid is expressible as a
    key-value config file. A value no calibration can use raises
    :class:`~novas.errors.DataError`.
    """

    ge_c_min: float = 0.005
    ge_c_max: float = 5.0
    ge_c_count: int = 40
    ga_step: float = 0.02
    order_cap: int = 30
    order_cap_divisor: int = 5
    order_max: int = 60
    tail_mass: float = 0.01
    # recorded in grid files and sidecars but not read: the inverse
    # transform's guard is the constant ``transform.TRIM_GUARD``
    eps_guard: float = 1e-12
    min_window: int = 50

    def __post_init__(self):
        for name, value in asdict(self).items():
            # a bool is a Real, and would be kept as given and written as JSON true
            if isinstance(value, bool) or not isinstance(value, Real):
                raise DataError(f"{name} must be a number, got {value!r}")
        # written as negated ranges, so a NaN is refused too
        for name in ("ga_step", "tail_mass"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise DataError(f"{name} {getattr(self, name)!r} outside (0, 1)")
        if not 0.0 < self.ge_c_min <= self.ge_c_max:
            raise DataError(
                f"GE c range [{self.ge_c_min!r}, {self.ge_c_max!r}] needs "
                "0 < ge_c_min <= ge_c_max"
            )
        for name in ("ge_c_count", "order_cap", "order_cap_divisor", "order_max",
                     "min_window"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
            if not getattr(self, name) >= 1:
                raise DataError(f"{name} {getattr(self, name)!r} must be at least 1")

    def ge_c_values(self) -> np.ndarray:
        return np.geomspace(self.ge_c_min, self.ge_c_max, self.ge_c_count)

    def ga_values(self) -> np.ndarray:
        count = int(round((1.0 - self.ga_step) / self.ga_step))
        return self.ga_step * np.arange(1, count + 1, dtype=float)

    def order_cap_for(self, window: int) -> int:
        return max(1, min(self.order_cap, window // self.order_cap_divisor))

    def adaptive_ge_order(self, c: float, window: int) -> int:
        """Smallest lag count whose dropped exponential tail mass is < ``tail_mass``."""
        cap = self.order_cap_for(window)
        if c <= 0.0:
            return cap
        # tail fraction of the infinite profile is exp(-c)**(p+1)
        p = math.ceil(-math.log(self.tail_mass) / c) - 1
        return max(1, min(p, cap))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationGrid":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown calibration-grid keys: {sorted(unknown)}")
        return cls(**data)
