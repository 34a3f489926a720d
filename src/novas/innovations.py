"""Seeded generation of future innovation draws.

Two sources: a standard normal truncated to the transform's bound (via
rejection sampling, exact and cheap at any admissible bound), and i.i.d.
resampling from a pool of calibrated residuals. Every stream is a PCG64
generator derived through ``numpy``'s SeedSequence, so sub-streams keyed by
(window, method, path) indices are reproducible regardless of the parallel
schedule and never collide.

Several truncated-normal ensembles can also share one block of standard
normals (:class:`SharedNormals`, common random numbers): each takes the block
with only its entries beyond its own bound replaced by draws of its own.
An entry within a bound is a draw of that bound's truncated normal, so every
entry each ensemble sees is an independent draw of its own source. Several
bootstraps can likewise share one block ``U`` of uniforms on ``[0, 1)``
(:func:`resample_indices`): each resamples its pool at the indices
``floor(U * len(pool))``, which are i.i.d. uniform over the pool, so each
bootstrap keeps its own law, and pools of one length share one index block.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DataError, as_count


@dataclass(frozen=True)
class Seed:
    """A 64-bit master seed; default 0 gives reproducible runs."""

    value: int = 0

    def __post_init__(self):
        object.__setattr__(self, "value", as_count("seed", self.value))
        if not 0 <= self.value < 2**64:
            raise DataError(f"seed {self.value} outside [0, 2**64)")

    @classmethod
    def of(cls, seed) -> "Seed":
        return seed if isinstance(seed, Seed) else cls(seed)


def substream(seed, *key: int) -> np.random.Generator:
    """Independent generator for ``seed`` split at an integer key path.

    Distinct key paths map to distinct SeedSequence spawn keys, so streams
    for different (window, method, path) indices are independent and a
    parallel schedule cannot change what any task draws.
    """
    seed = Seed.of(seed)
    ss = np.random.SeedSequence(entropy=seed.value, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


# the lowest finite truncation bound a trimmed-normal source accepts
MIN_BOUND = 3.0


class SourceKind(str, enum.Enum):
    TRIMMED_NORMAL = "TRIMMED_NORMAL"
    EMPIRICAL = "EMPIRICAL"


@dataclass(frozen=True)
class InnovationSource:
    """Where future innovations come from: truncated Monte Carlo or bootstrap."""

    kind: SourceKind
    bound: float = math.inf
    residual_pool: np.ndarray | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", SourceKind(self.kind))
        except ValueError:
            raise DataError(f"unknown innovation source kind {self.kind!r}") from None
        if self.kind is SourceKind.EMPIRICAL:
            try:
                pool = np.asarray(self.residual_pool, dtype=float)
            except (TypeError, ValueError):
                raise DataError("residual_pool must be a sequence of numbers") from None
            if pool.ndim != 1 or pool.size == 0 or not np.isfinite(pool).all():
                raise DataError(
                    "empirical innovation source needs a nonempty 1-D pool of "
                    f"finite residuals, got shape {pool.shape}"
                )
            object.__setattr__(self, "residual_pool", pool)
        else:
            if not isinstance(self.bound, Real):
                raise DataError(f"bound must be a number, got {self.bound!r}")
            if not self.bound > 0.0:
                raise DataError(f"truncation bound {self.bound} must be positive")
            if math.isfinite(self.bound) and self.bound < MIN_BOUND:
                raise DataError(
                    f"truncation bound {self.bound:.4f} < 3 leaves too little "
                    "normal mass (inadmissible weights upstream)"
                )

    def draw(self, gen: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of innovations from an already-derived generator."""
        count = int(np.prod(shape))
        if self.kind is SourceKind.EMPIRICAL:
            flat = gen.choice(self.residual_pool, size=count, replace=True)
        else:
            flat, _ = _rejection_normal(gen, self.bound, count)
        return flat.reshape(shape)


class SharedNormals:
    """One step-major ``(h, M)`` block of standard normals, drawn from
    ``gen``, that the trimmed-normal ensembles of a backtest window take
    their innovations from in turn.

    ``tails`` holds the flat indices of the entries beyond :data:`MIN_BOUND`,
    found by one scan, so an ensemble finds its entries beyond its own bound
    among them alone.
    """

    def __init__(self, gen: np.random.Generator, paths: int, h: int):
        self.block = gen.standard_normal((h, paths))
        self.tails = np.flatnonzero(np.abs(self.block) > MIN_BOUND)

    def beyond(self, bound: float) -> np.ndarray:
        """The flat step-major indices, ascending, of the entries beyond an
        admissible truncation ``bound``; none at an infinite bound."""
        return self.tails[np.abs(self.block.reshape(-1)[self.tails]) > bound]

    @contextmanager
    def replaced(self, at: np.ndarray, values: np.ndarray):
        """The block with its flat entries ``at`` set to ``values``, which
        are put back on exit."""
        flat = self.block.reshape(-1)
        kept = flat[at]
        flat[at] = values
        try:
            yield self.block
        finally:
            flat[at] = kept


def resample_indices(gen: np.random.Generator, paths: int, h: int, size: int) -> np.ndarray:
    """A step-major ``(h, paths)`` block of ``int32`` indices into a pool of
    ``size`` entries: ``floor(U * size)`` for the ``(h, paths)`` block ``U``
    of uniforms on ``[0, 1)`` that ``gen`` draws next.

    Every index is uniform over ``range(size)`` and none reaches ``size``: a
    double ``u < 1`` is at most ``1 - 2**-53``, and ``size * (1 - 2**-53)``
    lies more than half a spacing of the doubles below ``size``, or on the
    double just below it where ``size`` is a power of two, so the product
    rounds below ``size``. Generators in one state draw one ``U``, so they
    give pools of one size byte-identical blocks and pools of other sizes
    blocks that rise and fall with it (common random numbers).
    """
    if not 0 < size <= np.iinfo(np.int32).max:
        raise DataError(f"pool of {size} entries cannot be indexed by int32")
    uniforms = gen.random((h, paths))
    uniforms *= size
    return uniforms.astype(np.int32)


def _rejection_normal(
    gen: np.random.Generator, bound: float, count: int
) -> tuple[np.ndarray, int]:
    """``count`` draws of N(0,1) conditioned on ``|w| <= bound``.

    Returns the draws plus the number of raw attempts (for acceptance-rate
    checks). Chunk sizes depend only on how many draws are still missing, so
    the output is a pure function of the generator state. Each chunk's
    accepted values are kept as their own array and joined once at the end,
    so no output buffer is held beside a raw chunk and the draw holds at
    most two ``count`` blocks.
    """
    if not math.isfinite(bound):
        return gen.standard_normal(count), count
    parts = []
    filled = 0
    attempts = 0
    while filled < count:
        chunk = max(count - filled, 128)
        raw = gen.standard_normal(chunk)
        attempts += chunk
        kept = raw[np.abs(raw) <= bound][: count - filled]
        parts.append(kept)
        filled += kept.size
    if len(parts) == 1:
        return parts[0], attempts
    return np.concatenate(parts) if parts else np.empty(0), attempts
