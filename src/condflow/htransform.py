"""Conditioned (h-transformed) dynamics and numeric generator checks.

Dividing the generator's action on s*phi by s leaves the diffusion
coefficient alone and adds a drift of a*s'/s.  The scale's normalization
sets the direction: an L-normalized scale (s(l) = 0, s > 0) conditions
upward, toward r, and an R-normalized one (s(r) = 0, s < 0) conditions
downward, toward l.  The generator itself is applied with central finite
differences, so identity checks carry a known O(h^2) error law.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .model import DiffusionSpec, const_value
from .scale import Normalization, ScaleFunction

__all__ = [
    "transform",
    "downward_scale",
    "apply_generator",
    "check_generator_identity",
]


def transform(spec: DiffusionSpec, s: ScaleFunction) -> DiffusionSpec:
    """Conditioned dynamics: drift gains a*s'/s, diffusion is unchanged.

    Upward for an L-normalized scale (s(l) = 0) with s > 0 on its grid,
    downward for an R-normalized one (s(r) = 0) with s < 0; any other scale
    (neither limit 0, or s of the wrong sign on the grid) is rejected.
    """
    values = np.asarray(s.values)
    if s.normalization is Normalization.L and np.all(values > 0):
        suffix = "up"
    elif s.normalization is Normalization.R and np.all(values < 0):
        suffix = "down"
    else:
        raise ValueError("transform needs an L-normalized scale with s > 0 on the grid "
                         "or an R-normalized one with s < 0")

    # a constant base coefficient or s' (the natural scale's) is read here,
    # not evaluated per call
    b, a = const_value(spec.drift), const_value(spec.diffusion)
    ds = const_value(s._ds_fn)

    def drift(y, _spec=spec, _s=s):
        return ((_spec.drift(y) if b is None else b)
                + (_spec.diffusion(y) if a is None else a)
                * (_s.deriv(y) if ds is None else ds) / _s(y))

    return DiffusionSpec(
        interval=spec.interval,
        drift=drift,
        diffusion=spec.diffusion,
        label=f"{spec.label}^{suffix}" if spec.label else suffix,
    )


def downward_scale(s: ScaleFunction) -> ScaleFunction:
    """Scale of the upward-conditioned process: -1/s, derivative s'/s^2,
    evaluated through s itself, so between grid points too.

    Requires an L-normalized input (s > 0).  Its limits are (-inf, -1/s(r)):
    (-inf, 0), so R-normalized, when s(r) = inf, and no normalization for
    finite s(r), whose image is nonzero.
    """
    if s.normalization is not Normalization.L:
        raise ValueError("downward_scale expects an L-normalized scale")
    values = np.asarray(s.values)
    if np.any(values <= 0):
        raise ValueError("scale must be positive on the grid")
    lim_r = s.boundary_limits[1]
    return ScaleFunction(
        grid=s.grid,
        values=-1.0 / values,
        derivs=np.asarray(s.derivs) / values**2,
        boundary_limits=(-math.inf, 0.0 if lim_r == math.inf else -1.0 / lim_r),
        _s_fn=lambda y: -1.0 / s(y),
        _ds_fn=lambda y: s.deriv(y) / s(y) ** 2,
    )


def apply_generator(spec: DiffusionSpec, f: Callable, y, h: float):
    """b(y) f'(y) + (1/2) a(y) f''(y) with central differences of step h.

    `f` may be a CoeffExpr or any callable accepting arrays; `y` may be a
    scalar or an array, and y +/- h must stay inside the open interval.
    """
    if h <= 0:
        raise ValueError("difference step h must be positive")
    ys = np.asarray(y, dtype=np.float64)
    lo, hi = spec.interval.l, spec.interval.r
    if np.any(ys - h <= lo) or np.any(ys + h >= hi):
        raise ValueError("difference stencil leaves the open interval")
    f_plus = np.asarray(f(ys + h), dtype=np.float64)
    f_minus = np.asarray(f(ys - h), dtype=np.float64)
    f_mid = np.asarray(f(ys), dtype=np.float64)
    first = (f_plus - f_minus) / (2.0 * h)
    second = (f_plus - 2.0 * f_mid + f_minus) / (h * h)
    out = spec.drift(ys) * first + 0.5 * spec.diffusion(ys) * second
    return float(out) if np.ndim(y) == 0 else out


def check_generator_identity(
    spec: DiffusionSpec,
    s: ScaleFunction,
    phi: Callable,
    grid,
    h: float | None = None,
) -> float:
    """Max abs difference over the grid between (1/s) L[s*phi] and the
    transformed generator applied to phi."""
    grid = np.asarray(grid, dtype=np.float64)
    if h is None:
        h = 1e-4 * (grid[-1] - grid[0])

    def s_phi(y):
        return np.asarray(s(y)) * np.asarray(phi(y))

    lhs = apply_generator(spec, s_phi, grid, h) / np.asarray(s(grid))
    rhs = apply_generator(transform(spec, s), phi, grid, h)
    return float(np.max(np.abs(lhs - rhs)))
