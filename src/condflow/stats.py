"""Empirical distribution machinery: ECDF, two-sample KS, weighted ECDF.

One weighted-ECDF core, `_cumulative`, sorts a sample with its weights and
returns the right-continuous cumulative-weight lookup; `ks_weighted`,
`ks_two_sample`, `weighted_ecdf` and `ecdf` each call it, the unweighted two
with unit weights.  Unit weights are exact: their cumsum is the integer
count, so the lookup is k/n to the last bit, and their effective sample size
is exactly n.

Critical values are asymptotic only (1% level, coefficient 1.628); all
comparisons in this package run with at least a thousand samples per side,
where the asymptotic approximation is adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientSamplesError

__all__ = [
    "KsResult",
    "ks_two_sample",
    "ks_weighted",
    "ecdf",
    "weighted_ecdf",
    "effective_sample_size",
]

_KS_COEFF_1PCT = 1.628


@dataclass(frozen=True)
class KsResult:
    """Two-sample Kolmogorov-Smirnov comparison at the 1% level: the
    statistic and the (effective) sample sizes, from which the critical
    value and the verdict follow."""

    statistic: float
    n1: int
    n2: int

    @property
    def critical_1pct(self) -> float:
        return _KS_COEFF_1PCT * math.sqrt((self.n1 + self.n2) / (self.n1 * self.n2))

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_1pct

    def as_dict(self) -> dict:
        return {
            "stat": self.statistic,
            "critical_1pct": self.critical_1pct,
            "pass": self.passed,
        }


def _cumulative(xs, ws):
    """The weighted-ECDF core behind every routine here.

    Sorts (xs, ws), rejects negative weights, drops zero ones and returns
    the sorted support, its weights and the right-continuous lookup
    t -> (weight at or below t) / (total weight).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)
    if np.any(ws < 0):
        raise ValueError("weights must be nonnegative")
    keep = ws > 0
    xs, ws = xs[keep], ws[keep]
    if xs.size == 0:
        raise InsufficientSamplesError("empty sample or all weights zero")
    order = np.argsort(xs)
    xs, ws = xs[order], ws[order]
    cum = np.concatenate(([0.0], np.cumsum(ws) / np.sum(ws)))

    def lookup(t):
        out = cum[np.searchsorted(xs, np.asarray(t, dtype=np.float64), side="right")]
        return float(out) if np.ndim(t) == 0 else out

    return xs, ws, lookup


def _ks(xs, lookup, n1: int, ys) -> KsResult:
    """Sup distance between the sorted sample `xs` (ECDF `lookup`, worth n1
    samples) and the unweighted sample ys."""
    ys = np.sort(np.asarray(ys, dtype=np.float64))
    n2 = ys.size
    if n1 < 50 or n2 < 50:
        raise InsufficientSamplesError(
            f"KS needs >= 50 (effective) samples per side, got {n1}, {n2}")
    pooled = np.concatenate([xs, ys])
    f2 = np.searchsorted(ys, pooled, side="right") / n2
    return KsResult(float(np.max(np.abs(lookup(pooled) - f2))), n1, n2)


def ks_two_sample(xs, ys) -> KsResult:
    """Sup distance between the two ECDFs; `passed` means below the 1%
    critical value.  Requires at least 50 samples per side."""
    xs, _, lookup = _cumulative(xs, np.ones_like(xs, dtype=np.float64))
    return _ks(xs, lookup, xs.size, ys)


def ks_weighted(xs, ws, ys) -> KsResult:
    """KS between a weighted sample (xs, ws) and an unweighted sample ys.

    The weighted side enters the critical value through its effective sample
    size (sum w)^2 / sum w^2; zero weights drop out, negative ones raise.
    """
    xs, ws, lookup = _cumulative(xs, ws)
    return _ks(xs, lookup, int(round(effective_sample_size(ws))), ys)


def ecdf(xs) -> Callable:
    """Right-continuous empirical CDF of the sample."""
    return _cumulative(xs, np.ones_like(xs, dtype=np.float64))[2]


def weighted_ecdf(xs, ws) -> Callable:
    """Right-continuous step function with jump w_i / sum(w) at x_i.

    Raises if all weights are zero or any is negative.  With unit weights
    this is the ordinary ECDF, to the last bit.
    """
    return _cumulative(xs, ws)[2]


def effective_sample_size(ws) -> float:
    """(sum w)^2 / sum w^2: the equivalent unweighted sample count."""
    ws = np.asarray(ws, dtype=np.float64)
    denom = float(np.sum(ws * ws))
    if denom == 0.0:
        return 0.0
    return float(np.sum(ws)) ** 2 / denom
