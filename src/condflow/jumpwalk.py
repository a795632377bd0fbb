"""Lattice walk with steps of 1/N at times n/N^2, and its conditioned twin.

Under the base measure P the walk steps up or down with probability 1/2 and
is absorbed at 0.  Tilting each jump by (value after)/(value before) yields
the conditioned measure Q with exact one-step probabilities

    p_up(x) = (x + 1/N) / (2x),    p_down(x) = (x - 1/N) / (2x),

so p_down(1/N) = 0 and the Q-walk never reaches 0.  Its one-step generator,
computed with these exact probabilities, is

    N^2 [ p_up f(x + 1/N) + p_down f(x - 1/N) - f(x) ]
        = (N^2/2) [f(x+1/N) + f(x-1/N) - 2 f(x)]
          + (N/(2x)) [f(x+1/N) - f(x-1/N)]

whose limit as N grows is f''(x)/2 + f'(x)/x.  Note the first-order term
uses the DIFFERENCE of the two shifted values: only the difference form
converges to f'/x, and it reproduces the exact value 3 for f(x) = x^2.

The reciprocal 1/X is a Q-supermartingale, a martingale strictly away from
the lattice floor (one-step mean exactly 1/x for x >= 2/N) and a strict
supermartingale at x = 1/N (one-step mean N/2 < N).  Under Q the walk
converges weakly to the unit-coefficient diffusion with drift 1/x, the
three-dimensional Bessel process BES(3); under P to Brownian motion stopped
at 0.  The limit checks compare the walk at a fixed time with those laws
drawn exactly (`simulate.exact_bessel3`, `simulate.exact_stopped_bm`), so
no Euler scheme enters them.

The walk draws its uniforms in blocks of steps, as the simulate kernel
draws its normals, and reads the conditioned p_up from a table over the
reachable lattice points; each draw and each p_up is the one-step value,
so neither changes a walk.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .simulate import _BLOCK_DRAWS, exact_bessel3, exact_stopped_bm
from .stats import KsResult, ks_two_sample

__all__ = [
    "Measure",
    "JumpWalkSpec",
    "step_distribution",
    "discrete_generator",
    "verify_generator_limit",
    "verify_reciprocal_supermartingale",
    "simulate_walk",
    "walk_vs_bessel",
    "walk_vs_bm",
]


class Measure(enum.Enum):
    P = "P"
    Q = "Q"


def _on_lattice(x: float, n: int) -> bool:
    """Whether x is a multiple of 1/n; a non-finite x is none."""
    y = x * n
    return math.isfinite(y) and abs(y - round(y)) <= 1e-9 * max(1.0, abs(y))


@dataclass(frozen=True)
class JumpWalkSpec:
    """Walk parameters: lattice pitch 1/N, step duration 1/N^2."""

    N: int
    measure: Measure
    x0: float

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("N must be positive")
        if self.x0 <= 0 or not _on_lattice(self.x0, self.N):
            raise ValueError(f"x0 must be a positive multiple of 1/{self.N}")

    @property
    def dt(self) -> float:
        return 1.0 / self.N**2


def step_distribution(spec: JumpWalkSpec, x) -> tuple:
    """Exact one-step probabilities (p_up, p_down) at lattice point x > 0."""
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs <= 0):
        raise ValueError("absorbed state has no step")
    if spec.measure is Measure.P:
        if np.ndim(x) == 0:
            return 0.5, 0.5
        half = np.full_like(xs, 0.5)
        return half, half.copy()
    h = 1.0 / spec.N
    p_up = (xs + h) / (2.0 * xs)
    p_down = (xs - h) / (2.0 * xs)
    if np.ndim(x) == 0:
        return float(p_up), float(p_down)
    return p_up, p_down


def discrete_generator(spec: JumpWalkSpec, f, x: float) -> float:
    """One-step generator of the Q-walk at x, with the exact probabilities."""
    if spec.measure is not Measure.Q:
        raise ValueError("discrete generator is defined for the Q-walk")
    h = 1.0 / spec.N
    if x < h - 1e-12 or not _on_lattice(x, spec.N):
        raise ValueError(f"x must be a lattice point >= 1/{spec.N}")
    p_up, p_down = step_distribution(spec, x)
    return spec.N**2 * (p_up * float(f(x + h)) + p_down * float(f(x - h)) - float(f(x)))


def _fd_first(f, x: float, h: float = 1e-4) -> float:
    return (float(f(x + h)) - float(f(x - h))) / (2.0 * h)


def _fd_second(f, x: float, h: float = 1e-3) -> float:
    # h large enough that cancellation noise stays below the truncation term
    return (float(f(x + h)) - 2.0 * float(f(x)) + float(f(x - h))) / (h * h)


def verify_generator_limit(f, x: float, Ns) -> dict[int, float]:
    """Error of the one-step generator against f''/2 + f'/x, per N.

    x is rounded to the nearest lattice point of each N; derivatives come
    from high-accuracy central differences.  The error shrinks like 1/N^2.
    """
    errors = {}
    for n in Ns:
        x_n = round(x * n) / n
        spec = JumpWalkSpec(N=n, measure=Measure.Q, x0=max(x_n, 1.0 / n))
        target = 0.5 * _fd_second(f, x_n) + _fd_first(f, x_n) / x_n
        errors[n] = abs(discrete_generator(spec, f, x_n) - target)
    return errors


def verify_reciprocal_supermartingale(spec: JumpWalkSpec, x: float) -> float:
    """One-step expectation of 1/X from x under Q.

    Equals 1/x exactly for x >= 2/N, and N/2 at the floor x = 1/N, where the
    forced up-step makes 1/X a strict supermartingale.
    """
    h = 1.0 / spec.N
    if x < h - 1e-12 or not _on_lattice(x, spec.N):
        raise ValueError(f"x must be a lattice point >= 1/{spec.N}")
    p_up, p_down = step_distribution(spec if spec.measure is Measure.Q
                                     else JumpWalkSpec(spec.N, Measure.Q, spec.x0), x)
    value = p_up / (x + h)
    if p_down > 0:
        value += p_down / (x - h)
    return float(value)


def simulate_walk(spec: JumpWalkSpec, t: float, n_paths: int, seed: int = 0) -> dict:
    """Run n_paths walks for floor(t N^2) steps; reproducible per path index.

    State is kept in integer lattice units so absorption at 0 (and the floor
    at 1/N under the conditioned measure) is exact.  The uniforms come in
    blocks of steps, rows times paths <= 2**14 as in the simulate kernel,
    and each equals the one-step draw.  Under Q, p_up is read from a table
    over the lattice points a walk can reach, 1 ... start + n_steps, built
    with the exact (s + 1) / (2 s).  Returns final values, the minimum value
    each path visited and the step count.  Raises ValueError unless
    n_paths >= 1 and t is finite and non-negative.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    n_steps = int(math.floor(t * spec.N**2))
    h = 1.0 / spec.N
    start = round(spec.x0 * spec.N)
    keys = rng.path_keys(seed, np.arange(n_paths, dtype=np.int64))
    state = np.full(n_paths, start, dtype=np.int64)
    min_state = state.copy()
    if spec.measure is Measure.Q:
        s = np.arange(start + n_steps + 1)
        s[0] = 1  # entry 0 is never read: the Q-walk stays >= 1
        p_up = (s + 1) / (2 * s)  # exact (x + 1/N) / (2x) on the lattice
    jump = np.array([-1, 1], dtype=np.int64)  # the step, indexed by whether it goes up
    n_rows = max(1, _BLOCK_DRAWS // n_paths)
    for k in range(0, n_steps, n_rows):
        rows = range(k, min(k + n_rows, n_steps))
        for u_row in rng.uniforms(keys, rows, rng.STREAM_WALK):
            if spec.measure is Measure.P:
                step = jump.take((u_row < 0.5).view(np.uint8))
                step *= state > 0  # absorbed at 0
            else:
                step = jump.take((u_row < p_up.take(state)).view(np.uint8))
            state += step
            np.minimum(min_state, state, out=min_state)
    return {
        "final": state * h,
        "min_value": min_state * h,
        "n_steps": n_steps,
    }


def walk_vs_bessel(N: int, n_paths: int = 10_000, seed: int = 0) -> KsResult:
    """KS between the Q-walk from 1 at t = 1 and BES(3) from 1 at t = 1,
    the law of the conditioned diffusion (drift 1/x, unit coefficient), drawn
    exactly with the walk's seed: the walk and the exact samplers draw on
    distinct streams, so the two samples are independent.

    Weak convergence has no usable rate here: the acceptance threshold is
    twice the 1% critical value, a smoke check rather than a sharp test.
    """
    walk = simulate_walk(JumpWalkSpec(N=N, measure=Measure.Q, x0=1.0), 1.0, n_paths, seed)
    return ks_two_sample(walk["final"], exact_bessel3(1.0, 1.0, n_paths, seed))


def walk_vs_bm(N: int, n_paths: int = 10_000, seed: int = 0) -> KsResult:
    """KS between the P-walk from 1 stopped at 0 and Brownian motion from 1
    stopped at 0, drawn exactly at t = 1 with the walk's seed (on its own
    streams, as in `walk_vs_bessel`)."""
    walk = simulate_walk(JumpWalkSpec(N=N, measure=Measure.P, x0=1.0), 1.0, n_paths, seed)
    return ks_two_sample(walk["final"], exact_stopped_bm(1.0, 1.0, n_paths, seed))
