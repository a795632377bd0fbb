"""Counter-based random numbers for reproducible parallel Monte Carlo.

Every draw is a pure function of (seed, path_index, step_index, stream), so a
path's noise does not depend on how paths are batched or scheduled across
workers, nor on how many steps one call draws.  There is no shared mutable
generator state anywhere.  A call takes one step index; or a range of step
indices, and then returns one row per step; or an integer array of step
indices, one per key.  The simulator draws its step normals with the range
call, one row per step of a block, and the bridge uniforms of a block with one
step index per draw; the lattice walk draws its uniforms in blocks of steps
too.  A one-step range costs what one step index does, and every draw equals
the one-step call.

The mixer is the splitmix64 finalizer (two xor-shift/multiply rounds), applied
twice: once to fold the step/stream counter, once to fold the per-path key.
Uniforms take the top 53 bits; normals go through the inverse normal CDF.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "STREAM_STEP_NORMAL",
    "STREAM_BRIDGE_LOWER",
    "STREAM_BRIDGE_UPPER",
    "STREAM_WATCH",
    "STREAM_WALK",
    "STREAM_EXACT_BES3",
    "STREAM_EXACT_BM",
    "STREAM_EXACT_BM_BRIDGE",
    "path_keys",
    "uniforms",
    "normals",
]

# Every stream id in the package.  Distinct purposes within one simulator draw
# from distinct streams, so adding a draw site never perturbs the others; the
# simulators never share keys and step counters, so ids may repeat across them.
#
# simulate
STREAM_STEP_NORMAL = 0    # Euler increment
STREAM_BRIDGE_LOWER = 1   # bridge crossing of the lower boundary
STREAM_BRIDGE_UPPER = 2   # bridge crossing of the upper boundary
STREAM_WATCH = 3          # bridge crossing of watched level j: STREAM_WATCH + j; a
                          # run's regime stop levels share the next id
# jumpwalk
STREAM_WALK = 64          # lattice-walk uniforms
# exact samplers at a fixed time (simulate)
STREAM_EXACT_BES3 = 65       # BES(3): the 3-D normal, coordinate i at step index i
STREAM_EXACT_BM = 66         # stopped BM: the Brownian endpoint
STREAM_EXACT_BM_BRIDGE = 67  # stopped BM: whether the bridge to that endpoint touched 0

_M64 = 0xFFFFFFFFFFFFFFFF
_GAMMA_INT = 0x9E3779B97F4A7C15
_MULT_A_INT = 0xBF58476D1CE4E5B9
_MULT_B_INT = 0x94D049BB133111EB

_GAMMA = np.uint64(_GAMMA_INT)
_MULT_A = np.uint64(_MULT_A_INT)
_MULT_B = np.uint64(_MULT_B_INT)
_SEED_SALT = np.uint64(0x2545F4914F6CDD1D)
_SHIFT_A = np.uint64(30)
_SHIFT_B = np.uint64(27)
_SHIFT_C = np.uint64(31)
_SHIFT_U = np.uint64(11)

_U64_INV = 2.0 ** -53
_U64_HALF = 2.0 ** -54


def _mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    x = x + _GAMMA
    x = (x ^ (x >> _SHIFT_A)) * _MULT_A
    x = (x ^ (x >> _SHIFT_B)) * _MULT_B
    return x ^ (x >> _SHIFT_C)


def _mix64_int(x: int) -> int:
    """`_mix64` of one word held in a Python int, modulo 2**64."""
    x = (x + _GAMMA_INT) & _M64
    x = ((x ^ (x >> 30)) * _MULT_A_INT) & _M64
    x = ((x ^ (x >> 27)) * _MULT_B_INT) & _M64
    return x ^ (x >> 31)


def _counter(step_index: int, stream: int) -> int:
    """The counter word folded into every key of one call:
    _mix64(step_index * GAMMA + stream) modulo 2**64."""
    return _mix64_int((step_index * _GAMMA_INT + stream) & _M64)


def path_keys(seed: int, path_indices: np.ndarray) -> np.ndarray:
    """Per-path 64-bit keys derived from the run seed.

    `path_indices` is an integer array; the result can be cached and reused
    for every step of those paths.
    """
    with np.errstate(over="ignore"):
        s = _mix64(np.uint64(seed & _M64) ^ _SEED_SALT)
        return _mix64(s + np.asarray(path_indices, dtype=np.uint64) * _GAMMA)


def _raw(keys: np.ndarray, steps: int | range | np.ndarray, stream: int) -> np.ndarray:
    """_mix64(keys + counter), with the mix's leading add folded into the
    counter and the rest done in place on one array.  For a range of steps
    the counters form a column and the result has one row per step (one
    step's counter is formed as for a step index, which takes no numpy
    call); for an array of step indices each key gets its own counter.

    Array arithmetic on uint64 wraps modulo 2**64 without a warning, so no
    error-state context is needed here (only numpy scalar arithmetic warns).
    """
    if isinstance(steps, range) and len(steps) == 1:
        return _raw(keys, steps.start, stream)[None]
    if isinstance(steps, int):
        c = np.uint64((_counter(steps, stream) + _GAMMA_INT) & _M64)
    else:
        if isinstance(steps, range):
            idx = np.arange(len(steps), dtype=np.uint64)
            idx *= np.uint64(steps.step & _M64)
            idx += np.uint64(steps.start & _M64)
        else:
            idx = steps.astype(np.uint64)
        idx *= _GAMMA
        idx += np.uint64(stream & _M64)
        c = _mix64(idx)
        c += _GAMMA
        if isinstance(steps, range):
            c = c[:, None]
    x = keys + c
    x ^= x >> _SHIFT_A
    x *= _MULT_A
    x ^= x >> _SHIFT_B
    x *= _MULT_B
    x ^= x >> _SHIFT_C
    return x


def uniforms(keys: np.ndarray, steps: int | range | np.ndarray, stream: int) -> np.ndarray:
    """Uniform(0,1) draws, one per key (one row per step for a range of
    steps; for an array of step indices, key i at step steps[i]); never
    exactly 0 or 1."""
    bits = _raw(keys, steps, stream)
    u = (bits >> _SHIFT_U).astype(np.float64)
    u *= _U64_INV
    u += _U64_HALF
    return u


def normals(keys: np.ndarray, steps: int | range,
            stream: int = STREAM_STEP_NORMAL) -> np.ndarray:
    """Standard-normal draws via the inverse CDF of the uniform stream, one
    per key (one row per step for a range of steps)."""
    u = uniforms(keys, steps, stream)
    return ndtri(u, out=u)
