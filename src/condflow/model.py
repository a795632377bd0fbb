"""Core domain types: diffusion specifications, coefficients, paths and
Monte Carlo estimates.

A hitting time that never occurs is nan, in a one-path record as in an
ensemble.  At a finite horizon nan stands for both "at infinity" and "beyond
infinity", which a simulation cannot tell apart (paths that run out of
horizon are flagged `truncated` instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Interval",
    "Const",
    "DiffusionSpec",
    "PathSample",
    "McEstimate",
    "bm",
    "gbm",
    "bessel3",
    "named_family",
]


@dataclass(frozen=True)
class Interval:
    """State interval (l, r); either end may be infinite."""

    l: float
    r: float

    def __post_init__(self):
        if not self.l < self.r:
            raise ValueError(f"interval requires l < r, got [{self.l}, {self.r}]")

    def contains(self, y: float) -> bool:
        return self.l < y < self.r


@dataclass(frozen=True)
class Const:
    """A coefficient equal to `value` everywhere.

    Called, it vectorizes like any coefficient, returning an array of the
    argument's shape.  The simulation kernel and `transform` read `value`
    instead of calling it, so a constant coefficient costs nothing per step.
    """

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def __call__(self, y):
        return np.full(np.shape(y), self.value)


def const_value(coeff: Callable) -> float | None:
    """The value of a `Const` coefficient, None for any other."""
    return coeff.value if isinstance(coeff, Const) else None


@dataclass(frozen=True)
class DiffusionSpec:
    """A one-dimensional diffusion given by its drift and diffusion
    coefficients on an interval.

    `drift` and `diffusion` must accept scalars and numpy arrays, and
    return one value per point; the simulation kernel also takes one plain
    float standing for every point.  The diffusion coefficient is the
    squared-volatility a(y) (coefficient of the second-derivative term,
    halved, in the generator), and must be positive on the interior.

    A simulation step evaluates each coefficient once, at the running
    values of all its paths, except a `Const`, whose value the run reads
    once.
    """

    interval: Interval
    drift: Callable
    diffusion: Callable
    label: str = ""

    def validate_on(self, points: Sequence[float]) -> None:
        """Check a > 0 and both coefficients finite on the given points."""
        ys = np.asarray(points, dtype=np.float64)
        b = np.asarray(self.drift(ys), dtype=np.float64)
        a = np.asarray(self.diffusion(ys), dtype=np.float64)
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(a))):
            raise ValueError(f"{self.label or 'spec'}: non-finite coefficient on grid")
        if np.any(a <= 0):
            bad = float(ys.reshape(-1)[np.argmax(np.atleast_1d(a <= 0))])
            raise ValueError(f"{self.label or 'spec'}: diffusion coefficient not positive at y={bad}")


@dataclass(frozen=True)
class PathSample:
    """One simulated trajectory, recorded as `EnsembleResult` records a path.

    Values are constant after the stop.  `absorbed_at` is the boundary the
    path was absorbed at, +inf if it passed the cap, nan otherwise;
    `truncated` means the horizon ended the path before it stopped.
    `hit_times` maps each watched level to its first hitting time, nan for
    never.
    """

    times: np.ndarray
    values: np.ndarray
    absorbed_at: float
    truncated: bool
    hit_times: dict[float, float]

    def __post_init__(self):
        t = np.asarray(self.times)
        if t.size == 0:
            raise ValueError("empty path")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and strictly increase")
        if t.size != np.asarray(self.values).size:
            raise ValueError("times and values must have equal length")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    @staticmethod
    def from_samples(samples: np.ndarray) -> "McEstimate":
        samples = np.asarray(samples, dtype=np.float64)
        n = samples.size
        value = float(samples.mean())
        stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return McEstimate(value=value, stderr=stderr, n=n)

    @staticmethod
    def from_binomial(successes: int, n: int) -> "McEstimate":
        p = successes / n
        return McEstimate(value=p, stderr=math.sqrt(max(p * (1.0 - p), 0.0) / n), n=n)


# --- named coefficient families --------------------------------------------


def bm(l: float = 0.0, r: float = math.inf) -> DiffusionSpec:
    """Brownian motion absorbed at the interval ends (zero drift, unit
    diffusion coefficient)."""
    return DiffusionSpec(
        interval=Interval(l, r),
        drift=Const(0.0),
        diffusion=Const(1.0),
        label="bm",
    )


def gbm() -> DiffusionSpec:
    """Driftless geometric Brownian motion on (0, inf): a(y) = y^2."""
    return DiffusionSpec(
        interval=Interval(0.0, math.inf),
        drift=Const(0.0),
        diffusion=lambda y: np.square(np.asarray(y, dtype=np.float64)),
        label="gbm",
    )


def bessel3() -> DiffusionSpec:
    """Three-dimensional Bessel process on (0, inf): drift 1/y, unit a."""
    return DiffusionSpec(
        interval=Interval(0.0, math.inf),
        drift=lambda y: 1.0 / np.asarray(y, dtype=np.float64),
        diffusion=Const(1.0),
        label="bessel3",
    )


_FAMILIES = {"bm": bm, "gbm": gbm, "bessel3": bessel3}


def named_family(name: str) -> DiffusionSpec:
    """Look up a built-in family by name (bm, gbm, bessel3)."""
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise KeyError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}") from None
