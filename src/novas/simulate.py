"""Synthetic return generators: eight conditional-heteroskedasticity data
models (two time-varying GARCH, two standard GARCH, a Student-t GARCH, an
EGARCH, and two GJR specifications).

Seven of them are one GJR-type recursion, ``gjr_recursion``: GARCH(1,1) is
the case ``gamma1 = 0``, and the time-varying models M1 and M2 pass one
coefficient per step. ``_GJR_MODELS`` holds their coefficients; M6 runs
``egarch_recursion``. ``generate`` draws the innovations from the seeded
stream, runs the recursion through a burn-in, and returns exactly ``n``
observations. Time-varying coefficients are driven by ``g = t/n`` over the
delivered index, frozen at ``g = 1/n`` during burn-in (``step_g``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from .errors import DataError, as_count, as_flag
from .innovations import Seed, substream
from .returns import ReturnSeries

MODELS = ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8")

# E|eps| for a standard normal innovation, used by the EGARCH recursion
_MEAN_ABS_NORMAL = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class ModelSpec:
    """Which data model to simulate, at what length, from which seed."""

    model: str = "M3"
    n: int = 500
    burn_in: int = 500
    seed: Seed = field(default_factory=Seed)
    scale_t_errors: bool = False

    def __post_init__(self):
        for name in ("n", "burn_in"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        object.__setattr__(self, "seed", Seed.of(self.seed))
        object.__setattr__(self, "scale_t_errors",
                           as_flag("scale_t_errors", self.scale_t_errors))
        if self.model not in MODELS:
            raise DataError(f"unknown model {self.model!r} (expected M1..M8)")
        if self.n < 1 or self.burn_in < 0:
            raise DataError("n must be >= 1 and burn_in >= 0")


def gjr_recursion(
    eps: np.ndarray, omega, alpha1, beta1, gamma1, sigma2_init: float
) -> np.ndarray:
    """``X_t = sigma_t * eps_t`` with ``sigma2_t = omega + beta1*sigma2_{t-1}
    + (alpha1 + gamma1*I_{t-1})*X_{t-1}^2`` and ``I_t = 1`` iff ``X_t <= 0``.

    Each coefficient is a number or an iterable of one value per step; step
    ``t``'s value enters ``sigma2_t``, so step 0's is never read.
    GARCH(1,1) is ``gamma1 = 0``.
    """
    steps = [
        repeat(c) if isinstance(c, (int, float)) else islice(c, 1, None)
        for c in (omega, alpha1, beta1, gamma1)
    ]
    e = eps.tolist()
    sig2 = sigma2_init
    prev = math.sqrt(sig2) * e[0]
    x = [prev]
    for eps_t, w, a, b, g in zip(e[1:], *steps):
        # ``prev**2`` is libm's pow, which can round apart from ``prev * prev``;
        # the pinned output digests record pow
        sig2 = w + b * sig2 + (a + (g if prev <= 0.0 else 0.0)) * prev**2
        prev = math.sqrt(sig2) * eps_t
        x.append(prev)
    return np.array(x)


def egarch_recursion(
    eps: np.ndarray,
    omega: float,
    beta1: float,
    theta: float,
    gamma: float,
    log_sigma2_init: float,
) -> np.ndarray:
    """``log(sigma2_t) = omega + beta1*log(sigma2_{t-1}) + theta*eps_{t-1}
    + gamma*(|eps_{t-1}| - E|eps|)``."""
    e = eps.tolist()
    log_sig2 = log_sigma2_init
    x = [math.exp(0.5 * log_sig2) * e[0]]
    for prev, eps_t in zip(e, e[1:]):
        log_sig2 = (
            omega
            + beta1 * log_sig2
            + theta * prev
            + gamma * (abs(prev) - _MEAN_ABS_NORMAL)
        )
        x.append(math.exp(0.5 * log_sig2) * eps_t)
    return np.array(x)


def step_g(n: int, burn_in: int) -> list[float]:
    """Each step's ``g``: ``1/n`` through the burn-in, then ``t/n`` for the
    delivered ``t = 1..n``."""
    return [1.0 / n] * burn_in + [t / n for t in range(1, n + 1)]


# coefficient functions of the two time-varying models, exposed for tests
def m1_omega(g: float) -> float:
    return -4.0 * math.sin(0.5 * math.pi * g) + 5.0


def m1_alpha(g: float) -> float:
    return -1.0 * (g - 0.3) ** 2 + 0.5


def m1_beta(g: float) -> float:
    return 0.2 * math.sin(0.5 * math.pi * g) + 0.2


def m2_alpha(g: float) -> float:
    return 0.1 - 0.05 * g


def m2_beta(g: float) -> float:
    return 0.73 + 0.2 * g


# (omega, alpha1, beta1, gamma1, sigma2_init) of every model but M6; a
# callable coefficient is evaluated at each step's g
_GJR_MODELS = {
    "M1": (m1_omega, m1_alpha, m1_beta, 0.0, 1e-4),
    "M2": (1e-5, m2_alpha, m2_beta, 0.0, 1e-4),
    "M3": (1e-5, 0.1, 0.73, 0.0, 1e-5 / 0.17),
    "M4": (1e-5, 0.1, 0.8895, 0.0, 1e-5 / 0.0105),
    "M5": (1e-5, 0.1, 0.73, 0.0, 1e-5 / 0.17),
    "M7": (1e-5, 0.5, 0.5, -0.5, 1e-5 / 0.25),
    "M8": (1e-5, 0.1, 0.73, 0.3, 1e-5 / 0.02),
}


def _draw_errors(spec: ModelSpec, count: int) -> np.ndarray:
    gen = substream(spec.seed)
    if spec.model != "M5":
        return gen.standard_normal(count)
    df = 5.0
    eps = gen.standard_t(df, size=count)
    if spec.scale_t_errors:
        eps = eps * math.sqrt((df - 2.0) / df)
    return eps


def generate(spec: ModelSpec) -> ReturnSeries:
    """Simulate the spec's model, discard burn-in, return ``n`` observations."""
    eps = _draw_errors(spec, spec.burn_in + spec.n)
    if spec.model == "M6":
        x = egarch_recursion(eps, 1e-5, 0.8895, 0.1, 0.3, 1e-5 / 0.1105)
    else:
        *coefs, sigma2_init = _GJR_MODELS[spec.model]
        if any(map(callable, coefs)):
            g = step_g(spec.n, spec.burn_in)
            coefs = [map(c, g) if callable(c) else c for c in coefs]
        x = gjr_recursion(eps, *coefs, sigma2_init)
    return ReturnSeries(x[spec.burn_in :])
