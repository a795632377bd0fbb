"""Scale functions of regular diffusions by quadrature.

A scale function s is a strictly increasing solution of

    b(y) s'(y) + (1/2) a(y) s''(y) = 0,

so s'(y) = exp(-int_{y0}^{y} phi) with phi = 2 b/a, and s is its
antiderivative.

Every integral is taken by vectorized adaptive Gauss-Kronrod (G7/K15)
panels: one coefficient call evaluates the 15 nodes of all open panels, a
panel is accepted once |K15 - G7| <= 1e-10 |K15|, and the others are
bisected together, level by level.  On the master grid, log s' is the
negative cumulative sum of the phi panel integrals, anchored at y0.  On each
grid panel [g_j, g_j+1], s'(u) = exp(log s'(g_j) - int_{g_j}^u phi), with
the inner phi integrals of all outer nodes taken in the same vector pass;
s is the cumulative sum of these panel integrals.

The boundary limits s(l+), s(r-) decide which ends the diffusion can reach.
They are probed by extending the grid geometrically toward each boundary,
one panel per extension (halving the gap to a finite end, doubling the
reach toward an infinite one).  A limit is finite once a shrinking increment
falls below 1e-10 of the total (a geometric tail estimate is added), and
infinite once the total overflows or, over a window, the increments stop
shrinking and their ratios stop falling, which catches logarithmic
divergence without waiting for the partial sums to grow large; neither
within 500 extensions raises QuadratureError.  These tolerances are module
constants, so a caller chooses only the grid.  Computed scale functions are
shifted so the declared normalization holds: L pins s(l) = 0, R pins
s(r) = 0.

A diffusion with zero drift is a local martingale and is in natural scale:
s' is constant, so with the anchor's s' = 1 the scale is s(y) = y - l when
L-normalized, y - r when R-normalized, and its limits are the interval ends
shifted the same way (Karatzas & Shreve 1991 5.5; Revuz & Yor VII.3).
`compute_scale` returns that closed form for a `Const(0.0)` drift, with s'
given as `Const(1.0)`.  `transform` reads that constant instead of calling
it, so the conditioned drift is the exact a(y)/(y - l) upward, or
a(y)/(y - r) downward, with one scale call and no spline.

A `ScaleFunction` evaluates s and s' through two callables fixed when it is
built: the closed forms of `exact_scale`, or else monotone cubic (PCHIP)
interpolants of the grid data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import QuadratureError
from .model import Const, DiffusionSpec, Interval, const_value

__all__ = [
    "Normalization",
    "BoundaryClass",
    "GridConfig",
    "ScaleFunction",
    "compute_scale",
    "classify_boundaries",
    "exact_scale",
]


class Normalization(enum.Enum):
    L = "L"  # s(l) = 0, s > 0 on the interior
    R = "R"  # s(r) = 0, s < 0 on the interior


class BoundaryClass(enum.Enum):
    HITS_L_ONLY = "HITS_L_ONLY"    # s(l) finite, s(r) = inf
    HITS_R_ONLY = "HITS_R_ONLY"    # s(l) = -inf, s(r) finite
    HITS_BOTH = "HITS_BOTH"        # both limits finite
    UNSUPPORTED = "UNSUPPORTED"    # both limits infinite


@dataclass(frozen=True)
class GridConfig:
    """Grid span for compute_scale.

    The master grid covers [y_min, y_max] with n points, clustered
    geometrically toward finite interval ends; its intervals are the outer
    quadrature panels.  The quadrature tolerances and the boundary-limit
    probe are fixed (module docstring).
    """

    y_min: float
    y_max: float
    n: int = 257


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant (PCHIP) on a strictly
    increasing grid, extrapolating the end cubics.

    Interior slopes are the weighted harmonic means of the adjacent secant
    slopes (0 at a local extremum), end slopes the shape-preserving one-sided
    three-point estimate.  The arithmetic follows scipy's PchipInterpolator
    operation for operation, so values agree with it to the bit, without
    importing scipy.interpolate (tens of MB of resident memory).
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        h = np.diff(x)
        slope = np.diff(y) / h
        d = np.empty_like(y)
        if y.size == 2:
            d[:] = slope[0]
        else:
            flat = ((np.sign(slope[1:]) != np.sign(slope[:-1]))
                    | (slope[1:] == 0) | (slope[:-1] == 0))
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                harmonic = (w1 / slope[:-1] + w2 / slope[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / harmonic)
            d[0] = self._end_slope(h[0], h[1], slope[0], slope[1])
            d[-1] = self._end_slope(h[-1], h[-2], slope[-1], slope[-2])
        t = (d[:-1] + d[1:] - 2 * slope) / h
        self._x = x
        self._coeffs = (t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1])

    @staticmethod
    def _end_slope(h0, h1, m0, m1) -> float:
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, y):
        y = np.asarray(y, dtype=np.float64)
        # cubic i spans [x_i, x_i+1); the end cubics extend outward
        i = np.searchsorted(self._x[1:-1], y, side="right")
        s = y - self._x[i]
        c3, c2, c1, c0 = (c[i] for c in self._coeffs)
        s2 = s * s
        return np.asarray(0.0 + c0 + c1 * s + c2 * s2 + c3 * (s2 * s))


@dataclass(frozen=True)
class ScaleFunction:
    """Grid-backed strictly increasing scale function with derivative.

    `_s_fn` and `_ds_fn` evaluate s and s'.  They are the closed forms when
    given (`exact_scale`); otherwise construction sets them to monotone
    cubics over the grid data.  The normalization is read off
    `boundary_limits`: the end whose limit is 0.
    """

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    boundary_limits: tuple[float, float]
    _s_fn: Callable | None = None
    _ds_fn: Callable | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        d = np.asarray(self.derivs, dtype=np.float64)
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(v) <= 0):
            raise ValueError("scale values must be strictly increasing")
        if np.any(d <= 0):
            raise ValueError("scale derivative must be positive")
        if self._s_fn is None:
            object.__setattr__(self, "_s_fn", _Pchip(g, v))
            object.__setattr__(self, "_ds_fn", _Pchip(g, d))

    @property
    def normalization(self) -> Normalization | None:
        """L if s(l) = 0, R if s(r) = 0 (at most one: s is strictly increasing)."""
        lo, hi = self.boundary_limits
        return Normalization.L if lo == 0.0 else Normalization.R if hi == 0.0 else None

    def __call__(self, y):
        return self._s_fn(np.asarray(y, dtype=np.float64))

    def deriv(self, y):
        return self._ds_fn(np.asarray(y, dtype=np.float64))

    def to_csv(self, stream: TextIO) -> None:
        stream.write("y,s,s_prime\n")
        for y, s, ds in zip(self.grid, self.values, self.derivs):
            stream.write(f"{float(y)!r},{float(s)!r},{float(ds)!r}\n")


def exact_scale(
    s_fn: Callable,
    ds_fn: Callable,
    grid: Sequence[float],
    boundary_limits: tuple[float, float],
) -> ScaleFunction:
    """Scale function backed by closed forms (grid data filled from them).

    Its normalization is the end of `boundary_limits` that is 0: (0, r-limit)
    is L, (l-limit, 0) is R, and neither is None, which `transform` refuses.
    """
    g = np.asarray(grid, dtype=np.float64)
    return ScaleFunction(
        grid=g,
        values=np.asarray(s_fn(g), dtype=np.float64),
        derivs=np.asarray(ds_fn(g), dtype=np.float64),
        boundary_limits=boundary_limits,
        _s_fn=s_fn,
        _ds_fn=ds_fn,
    )


# --- quadrature --------------------------------------------------------------

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15): the 15 Kronrod nodes hold the
# 7 Gauss nodes at their odd positions
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_K15 = np.array(_WGK[:-1] + _WGK[::-1])
_G7 = np.zeros(15)
_G7[1::2] = _WG[:-1] + _WG[::-1]
_PANEL_REL_TOL = 1e-10  # a panel is accepted once |K15 - G7| <= this * |K15|
_MAX_DEPTH = 40     # bisection levels before a panel is accepted as it is
_MAX_OPEN = 1 << 15  # open panels in one call; more means the error test cannot pass
_BLOCK = 16         # outer panels integrated together when building s
_DIVERGENCE_WINDOW = 8   # probe increments that must not shrink for +inf
_RATIO_TOL = 1e-6         # nor may their ratios fall by more than this, relative
_TAIL_REL = 1e-10         # a shrinking increment below this * max(1, |total|) ends a probe
_MAX_EXTENSIONS = 500     # probe extensions before QuadratureError


def _panels(f: Callable, a, b) -> np.ndarray:
    """Integrals of f over the panels [a[i], b[i]] by adaptive G7/K15.

    f(x, owner) takes a 1-D array of nodes and, for each node, the index i of
    the panel it lies in.  Each level evaluates all open panels in one call
    and accepts the K15 sum of a panel once |K15 - G7| <= _PANEL_REL_TOL *
    |K15|, or once the difference is at the rounding level of the panel's |f|
    integral or at most the smallest normal float (a subnormal integrand);
    the others are bisected, up to _MAX_DEPTH levels.  b < a integrates with
    the sign reversed.  An integrand the error test cannot settle (noise at
    the rounding level of its own operands, say) raises QuadratureError once
    more than _MAX_OPEN panels are open, which bounds time and memory.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = np.zeros(a.size)
    owner = np.arange(a.size)
    for depth in range(_MAX_DEPTH + 1):
        if a.size > _MAX_OPEN:
            raise QuadratureError(
                f"quadrature did not converge: {a.size} panels still open after {depth} bisections")
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _NODES
        fx = np.asarray(f(x.ravel(), np.repeat(owner, _NODES.size)),
                        dtype=np.float64).reshape(x.shape)
        kronrod = half * (fx * _K15).sum(axis=1)
        err = np.abs(half * (fx * (_K15 - _G7)).sum(axis=1))
        rounding = 50.0 * np.finfo(np.float64).eps * np.abs(half) * (np.abs(fx) * _K15).sum(axis=1)
        tol = np.maximum(_PANEL_REL_TOL * np.abs(kronrod), rounding)
        done = (err <= np.maximum(tol, np.finfo(np.float64).tiny)) | (depth == _MAX_DEPTH)
        total += np.bincount(owner[done], weights=kronrod[done], minlength=total.size)
        if done.all():
            break
        open_ = ~done
        a, mid, b, owner = a[open_], mid[open_], b[open_], owner[open_]
        a, b, owner = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(owner, 2)
    return total


def _sprime_integrals(phi: Callable, anchors, logsp, ends) -> np.ndarray:
    """int_{anchors[i]}^{ends[i]} s'(u) du with s'(u) = exp(logsp[i] - int_{anchors[i]}^u phi).

    The inner phi integrals of every outer node are one `_panels` call.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    logsp = np.asarray(logsp, dtype=np.float64)

    def sprime(u, owner):
        inner = _panels(phi, anchors[owner], u)
        return np.exp(np.minimum(logsp[owner] - inner, 700.0))

    return _panels(sprime, anchors, ends)


def _master_grid(interval: Interval, cfg: GridConfig, y0: float) -> np.ndarray:
    lo, hi, n = cfg.y_min, cfg.y_max, cfg.n
    l, r = interval.l, interval.r
    if math.isfinite(l) and math.isfinite(r):
        mid = 0.5 * (lo + hi)
        left = l + np.geomspace(lo - l, mid - l, n // 2 + 1)
        right = r - np.geomspace(r - hi, r - mid, n - n // 2)[::-1]
        pts = np.concatenate([left, right])
    elif math.isfinite(l):
        pts = l + np.geomspace(lo - l, hi - l, n)
    elif math.isfinite(r):
        pts = r - np.geomspace(r - hi, r - lo, n)[::-1]
    else:
        pts = np.linspace(lo, hi, n)
    pts = np.unique(np.concatenate([pts, [lo, y0, hi]]))
    return pts[(pts >= lo) & (pts <= hi)]


def _diverging(increments: list[float]) -> bool:
    """Whether the probe increments read as a divergent tail.

    Over the last _DIVERGENCE_WINDOW extensions each increment must be at
    least 0.999 times the one before, and each increment ratio at least
    (1 - _RATIO_TOL) times the one before.  Log and power divergences give
    constant ratios and faster ones rising ratios; a convergent tail whose
    increments still grow, or barely shrink, over the window (s' = e^(-2e-4 y)
    past y = 10, or 1/(y + 1e-8) toward 0) gives falling ratios.
    """
    window = increments[-_DIVERGENCE_WINDOW - 1:]
    if len(window) <= _DIVERGENCE_WINDOW or min(window) <= 0.0:
        return False
    ratios = [later / earlier for earlier, later in zip(window, window[1:])]
    return min(ratios) >= 0.999 and all(
        later >= (1.0 - _RATIO_TOL) * earlier for earlier, later in zip(ratios, ratios[1:]))


def _limit_probe(
    phi: Callable,
    start_y: float,
    start_logsp: float,
    boundary: float,
    outward: float,
) -> float:
    """Total of int s' from start_y toward `boundary` (one side).

    `outward` is -1 toward l and +1 toward r.  Each extension is one panel;
    returns +inf once the total overflows or the increments read as
    divergent (`_diverging`), and the total once an increment below 0.999
    times the one before (or exactly 0) is also below _TAIL_REL of it: a
    small increment proves nothing while the increments do not shrink.
    """
    y = start_y
    logsp = start_logsp  # log s'(y) accumulated from the master grid
    total = 0.0
    increments: list[float] = []
    for _ in range(_MAX_EXTENSIONS):
        if math.isfinite(boundary):
            y_next = boundary + 0.5 * (y - boundary)
        else:
            y_next = y + outward * max(1.0, abs(y))
        inc = abs(float(_sprime_integrals(phi, [y], [logsp], [y_next])[0]))
        increments.append(inc)
        total += inc
        if not math.isfinite(total) or _diverging(increments):
            return math.inf
        shrinking = inc == 0.0 or (len(increments) >= 2 and inc < 0.999 * increments[-2])
        if shrinking and inc <= _TAIL_REL * max(1.0, total):
            rho = min(inc / increments[-2], 0.99) if inc else 0.0
            return total + inc * rho / (1.0 - rho)
        logsp -= float(_panels(phi, [y], [y_next])[0])
        y = y_next
        if math.isfinite(boundary) and abs(y - boundary) < 1e-300:
            return total
    raise QuadratureError(
        f"boundary-limit probe toward {boundary} did not settle",
        partial_sums=list(np.cumsum(increments)[-8:]),
    )


def _side(name: str, lim_l: float, lim_r: float,
          normalization: Normalization | None) -> Normalization:
    """The normalization side for these scale limits: the declared one, or
    with None L if s(l) is finite, else R; refused if its limit is infinite."""
    if not (math.isfinite(lim_l) or math.isfinite(lim_r)):
        raise ValueError(f"cannot normalize {name}: both scale limits infinite (UNSUPPORTED)")
    if normalization is None:
        return Normalization.L if math.isfinite(lim_l) else Normalization.R
    if normalization is Normalization.L and not math.isfinite(lim_l):
        raise ValueError(f"cannot L-normalize {name}: s(l) = -inf")
    if normalization is Normalization.R and not math.isfinite(lim_r):
        raise ValueError(f"cannot R-normalize {name}: s(r) = +inf")
    return normalization


def compute_scale(
    spec: DiffusionSpec,
    y0: float,
    grid: GridConfig,
    normalization: Normalization | None = Normalization.L,
) -> ScaleFunction:
    """Compute the scale function of `spec` anchored at y0, then shift it so
    the declared normalization holds.  With `normalization=None` the side is
    chosen after the quadrature: L if s(l) is finite, else R.

    A drift given as `Const(0.0)` takes the natural scale (module docstring)
    with no quadrature and no probes: s(y) = y - l for L, y - r for R, on the
    same grid and with the same refusals.  Only `Const(0.0)` is recognised; a
    callable that merely returns zeros keeps the quadrature path.

    Raises QuadratureError if the boundary-limit probe stalls or s overflows
    on the grid, and ValueError if the normalization side has an infinite
    limit (both sides: "both scale limits infinite (UNSUPPORTED)") or the
    diffusion coefficient is not positive on the grid.

    A limit is read from a finite window of probe extensions, so a
    convergent tail that looks logarithmic over that window reads as
    divergent.  For example b = 0.5/(y + eps), a = 1 on (0, inf), with the
    grid from 0.01: s' = 1/(y + eps) and s(0+) is finite for every eps > 0,
    while eps = 1e-8 is classified HITS_L_ONLY, eps = 1e-10 and 1e-12 are
    refused as UNSUPPORTED.
    """
    if not (grid.y_min < y0 < grid.y_max):
        raise ValueError("anchor y0 must lie inside [y_min, y_max]")
    if not (spec.interval.l < grid.y_min and grid.y_max < spec.interval.r):
        raise ValueError("grid must lie inside the open state interval")
    g = _master_grid(spec.interval, grid, y0)
    spec.validate_on(g)
    name = spec.label or "spec"
    if const_value(spec.drift) == 0.0:
        # natural scale: s(y) = y - origin, s' = 1, the limits are the ends
        l, r = float(spec.interval.l), float(spec.interval.r)
        normalization = _side(name, l, r, normalization)
        origin = l if normalization is Normalization.L else r
        return exact_scale(lambda y: y - origin, Const(1.0), g, (l - origin, r - origin))

    def phi(v, _owner=None):
        ratio = 2.0 * np.asarray(spec.drift(v), dtype=np.float64) / np.asarray(
            spec.diffusion(v), dtype=np.float64)
        if ratio.shape == np.shape(v):
            return ratio
        return np.broadcast_to(ratio, np.shape(v))  # a coefficient may return one float

    # log s' on the master grid: -cumsum of the phi panel integrals, anchored at y0
    j0 = int(np.searchsorted(g, y0))
    logsp = -np.concatenate([[0.0], np.cumsum(_panels(phi, g[:-1], g[1:]))])
    logsp -= logsp[j0]

    # int s' over each grid panel, with s'(u) = exp(logsp[j] - int_{g_j}^u phi)
    starts, ends, start_logsp = g[:-1], g[1:], logsp[:-1]
    steps = np.concatenate([
        _sprime_integrals(phi, starts[j:j + _BLOCK], start_logsp[j:j + _BLOCK], ends[j:j + _BLOCK])
        for j in range(0, starts.size, _BLOCK)])

    values = np.concatenate([[0.0], np.cumsum(steps)])
    values -= values[j0]
    if not (np.all(logsp < 700.0) and np.all(np.isfinite(values))):
        raise QuadratureError(f"scale of {name} overflows on the grid")

    drop_l = _limit_probe(phi, float(g[0]), float(logsp[0]), spec.interval.l, -1.0)
    gain_r = _limit_probe(phi, float(g[-1]), float(logsp[-1]), spec.interval.r, +1.0)
    lim_l = values[0] - drop_l if math.isfinite(drop_l) else -math.inf
    lim_r = values[-1] + gain_r if math.isfinite(gain_r) else math.inf

    # the chosen side's limit is finite, so shifting by it makes it exactly 0
    normalization = _side(name, lim_l, lim_r, normalization)
    shift = lim_l if normalization is Normalization.L else lim_r
    return ScaleFunction(
        grid=g,
        values=values - shift,
        derivs=np.exp(logsp),
        boundary_limits=(lim_l - shift, lim_r - shift),
    )


def classify_boundaries(s: ScaleFunction) -> BoundaryClass:
    """Which interval ends the diffusion reaches, read off the scale limits."""
    lim_l, lim_r = s.boundary_limits
    finite_l = math.isfinite(lim_l)
    finite_r = math.isfinite(lim_r)
    if finite_l and not finite_r:
        return BoundaryClass.HITS_L_ONLY
    if not finite_l and finite_r:
        return BoundaryClass.HITS_R_ONLY
    if finite_l and finite_r:
        return BoundaryClass.HITS_BOTH
    return BoundaryClass.UNSUPPORTED
