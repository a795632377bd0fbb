"""Path simulation with absorbing boundaries and hitting detection.

Scheme: Euler-Maruyama on a fixed step grid.  The step normals come from
the counter-based generator keyed by (path, step, stream), so a path is a
pure function of (seed, path_index): the first m paths of an n-path ensemble
equal an m-path run.

All paths run as one cohort in one thread.  The kernel holds the running
paths in compacted arrays (value, key, index, per-level "not yet hit" flag,
running time integral) and writes the full per-path arrays only when paths
stop, at snapshot times and at the horizon.  Its unit of work is a block of
steps: R rows (steps) of the m running paths, with R m <= 2**14 when R > 1.
That is one step per block while many paths run and many steps per block in
the sparse tail; a block ends at the end of a dt_schedule phase.  A block
draws its step normals in one call, forms the Euler proposals row by row,
and then does its event work and its compaction once for all its rows, so a
step with few paths costs few numpy calls.

A row evaluates the drift b and the diffusion coefficient a once each, at
the values of all the block's paths, and forms (x + b dt) + (sqrt(a)
sqrt(dt)) z, the same IEEE operations in the same order whatever the block
size.  A `Const` coefficient is read once per run instead, and one that
returns a plain float is carried the same way: as one Python float broadcast
over the paths.  A constant a takes no reduction and forms sqrt(a) sqrt(dt)
and a dt once, not per path; a constant b that cannot repel from a boundary
skips the halving guard there.  The square root and the products of a
constant are the same IEEE operations as their per-element forms, so a
constant changes no value.

The rows of a block run on past a path's stop: a path that crosses a stop
level on row j still gets rows j + 1 onward, which the event work never
reads.  Two rules keep those rows harmless.  A path whose proposal reaches a
boundary (within the clamp distance) or the cap is parked: for the rest of
the block it holds the value it had before that row, so no coefficient is
evaluated past its stop.  And a coefficient failure on a row after the
block's first cuts the block there, before the failing row: the next block
starts at that step with the paths still running.  Only a failure on a
block's first row raises, so it names the first running path whose b or a
is bad, and the step's t.  Because every draw is keyed, neither the block
size nor a cut changes any value.

Level crossings between grid points are recovered with the Brownian-bridge
crossing probability exp(-2 (level-y0)(level-y1) / (a(y0) dt)), with the
diffusion coefficient frozen at the step's left endpoint; detected hits are
reported at the step's right endpoint.  A bridge uniform is drawn only where
that probability exceeds 1e-16, and only on a path's rows up to its first
discrete stop (absorption, the cap or a stop level's crossing without the
bridge): no later row of it is read.  The uniforms of one mark come from one
call for all the block's rows, each keyed by its own (path, step, stream),
so a draw on a row after the path's stop (a speculative draw) changes no
other and no result.  The kernel's marks form one list: the lower boundary,
the upper, the cap, the stop levels from the top, the watch levels that stop
no path, and the stop levels of the regimes.  A level mark may test only
some running paths: a watch level those yet to hit it, a regime's level
those in the regime.  A step that ends a path at more than one mark is a
tie, counted and reported (each mark that fires counts), and the path stops
at the argmax of a table of the marks, in list order, that fire on its stop
row, the first that fires: the list's order is the tie rule's one statement.

Most blocks of a sparse tail have no event.  A block is quiet when one range
holding all its values and proposals sits strictly on one side of every
finite boundary, of every level a running path can still cross (a watch
level every running path has crossed drops out) and of the stop level of
every regime some running path is in, with a bridge exponent at or below -37
between the nearest ends, and the proposals stay below the cap and more than
the clamp distance inside the boundaries.  That bound covers every row and
path, so a quiet block draws no bridge uniform and records no event: it only
moves the paths, and changes no value.  The range comes from reductions the
rows take anyway: min and max of each row's proposals (which also check the
drift; where the halving guard moved a proposal, the row's range is taken
again) and max a (which also checks the diffusion coefficient, and is a
itself when a is constant).  With constant coefficients and no guard to run,
a block takes the range of all its proposals at once.

An eventful block does work only at the marks some path can reach in it:
each mark takes the quiet test on its own, on the same range (a boundary
with the clamp distance, a level only while it tests some path), and one
that passes gets no flag array, no crossing test and no bridge uniform,
which is exact for the reason a quiet block is.  The discrete tests of the
marks in reach run over the whole (R, m) array, and then one loop over the
list runs their bridge tests; the regimes' paths follow the block's
switches, so that loop tests their levels after the watch levels.  Each
path's stop row is its first row at a stop mark, found by argmax over the
paths that have one; hits, ties, snapshots and the time integral are
recorded from the rows up to it.

Two guards keep singular drifts honest near a boundary the process cannot
actually reach (for example the 1/y drift of an upward-conditioned process
at its lower end).  When the drift at the current point pushes away from a
boundary: (a) a proposal overshooting that boundary is retried with the step
halved, same normal draw, up to a bounded number of times, and (b) the
bridge absorption test at that boundary is skipped, because the frozen-
coefficient bridge law is badly wrong there.  At a boundary the drift does
not repel from, an overshoot is genuine absorption: the value is clamped to
the boundary and the path frozen.

Beside the kernel sit two exact samplers of a law at one fixed time t, for
references that need no time grid: BES(3) from x0, as |x0 e1 + B_t| for a
3-D Brownian motion B (Revuz & Yor VI.3), and Brownian motion from x0 > 0
absorbed at 0, as W = x0 + B_t set to 0 where W <= 0 or where the bridge
from x0 to W touches 0, which it does with probability exp(-2 x0 W / t)
given W > 0.  Their draws are keyed by (seed, path index) like the
kernel's, so the first m values of an n-path draw equal an m-path draw.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .errors import EvalDomainError
from .model import DiffusionSpec, McEstimate, PathSample, const_value

__all__ = [
    "SimConfig",
    "EnsembleResult",
    "simulate_path",
    "simulate_ensemble",
    "estimate_hitting_prob",
    "exact_bessel3",
    "exact_stopped_bm",
]

_BOUNDARY_CLAMP = 1e-12  # a proposal this close to a boundary counts as reaching it
_MAX_HALVINGS = 20       # step halvings before the guard absorbs at the boundary
_BLOCK_DRAWS = 1 << 14   # step normals per draw call: the running paths times the block's steps
_TIME_SLACK = 1e-12      # a grid time this close below a snapshot time counts as reaching it
_NO_PATHS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    `dt_schedule` optionally coarsens the step after an accurate early phase
    for long-horizon scenarios: (t_until, dt) segments, t_until increasing,
    covering the horizon; when absent a single segment (horizon, dt) is used.

    A path stops at absorption, at the cap and at its first crossing of a
    stop level.  The run watches `stop_levels`, then the `watch_levels` not
    among them, each level once; the j-th watched level draws its bridge
    uniforms from stream STREAM_WATCH + j.  Only the watch levels that are
    not stop levels get hit times; a stop level's crossing is read off the
    stop record (`EnsembleResult.stopped_at`).  Snapshot times record the
    path value at t AND stop.

    `dt`, `horizon` and each schedule dt must be finite; `cap` may be inf
    (no cap) but not NaN.

    `n_threads` is accepted and ignored: every run is one cohort of all
    `n_paths` in one thread.
    """

    dt: float
    horizon: float
    cap: float = 1e8
    bridge_correction: bool = True
    watch_levels: tuple[float, ...] = ()
    seed: int = 0
    n_paths: int = 1
    dt_schedule: tuple[tuple[float, float], ...] | None = None
    snapshot_times: tuple[float, ...] = ()
    track_time_average: bool = False
    stop_levels: tuple[float, ...] = ()
    n_threads: int | None = None

    def __post_init__(self):
        for name in ("dt", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.horizon <= 0 or self.dt >= self.horizon:
            raise ValueError("need 0 < dt < horizon")
        if math.isnan(self.cap):
            raise ValueError("cap must not be NaN (inf means no cap)")
        if self.cap <= 0 or self.n_paths <= 0:
            raise ValueError("cap and n_paths must be positive")
        for t_until, dt in self.dt_schedule or ():
            if not (math.isfinite(dt) and dt > 0.0):
                raise ValueError(f"dt_schedule dt must be finite and positive, got {dt}")
            if math.isnan(t_until):
                raise ValueError("dt_schedule t_until must not be NaN")
        ends = [t_until for t_until, _dt in self.dt_schedule or ()]
        if any(later <= earlier for earlier, later in zip(ends, ends[1:])):
            raise ValueError("dt_schedule t_until must increase")
        for t in self.snapshot_times:
            if not 0.0 < t <= self.horizon:
                raise ValueError("snapshot times must lie in (0, horizon]")


@dataclass
class EnsembleResult:
    """Per-path summaries of one Monte Carlo ensemble (index = path_index);
    `n`, the path count, is the length of `final_values`.  The first four
    fields are the stop record, the one statement of where each path stopped
    (`stopped_at` reads it); `hit_times` holds the other watch levels."""

    final_values: np.ndarray
    stop_times: np.ndarray          # absorption/cap/stop-level time; last grid time if truncated
    absorbed_at: np.ndarray         # boundary value, +inf for cap exceedance, nan otherwise
    truncated: np.ndarray           # still running at the horizon
    hit_times: dict[float, np.ndarray] = field(default_factory=dict)   # nan = never
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)   # value at t ^ stop
    time_integral: np.ndarray | None = None
    tie_count: int = 0

    @property
    def n(self) -> int:
        return self.final_values.size

    def truncated_fraction(self) -> float:
        return float(np.mean(self.truncated))

    def stopped_at(self, level: float) -> np.ndarray:
        """Per path, whether it stopped at `level` (a stop level or a finite
        boundary): before the horizon, not at the cap, with its final value
        there.  A tie's losing marks do not count."""
        return ~self.truncated & (self.final_values == level) & (self.absorbed_at != math.inf)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "hits": {repr(float(level)): int(np.sum(np.isfinite(t)))
                     for level, t in self.hit_times.items()},
            "absorbed": int(np.sum(np.isfinite(self.absorbed_at))),
            "capped": int(np.sum(self.absorbed_at == math.inf)),
            "truncated": int(np.sum(self.truncated)),
        }


def _watched(cfg: SimConfig) -> tuple[float, ...]:
    """The levels a run watches, each once: its stop levels, then the other
    watch levels."""
    return tuple(dict.fromkeys(cfg.stop_levels + cfg.watch_levels))


def _phases(cfg: SimConfig) -> list[tuple[int, float]]:
    segments = cfg.dt_schedule if cfg.dt_schedule else ((cfg.horizon, cfg.dt),)
    phases = []
    t = 0.0
    for t_until, dt in segments:
        t_until = min(t_until, cfg.horizon)
        if t_until <= t + 1e-12:
            continue
        n_steps = max(1, int(round((t_until - t) / dt)))
        phases.append((n_steps, dt))
        t += n_steps * dt
        if t >= cfg.horizon - 1e-12:
            break
    if t < cfg.horizon - 1e-12:
        dt = segments[-1][1]
        phases.append((max(1, int(round((cfg.horizon - t) / dt))), dt))
    return phases


def _per_path(values):
    """A coefficient's values as float64, one plain float standing for all paths."""
    values = np.asarray(values, dtype=np.float64)
    return float(values) if values.ndim == 0 else values


def _per_row(rows: list, m: int):
    """A coefficient's values on each row of a block, each a float or one
    value per running path (see `_per_path`), as one (rows, m) array; a
    one-row block's values as they are, which broadcast over its one row."""
    if len(rows) == 1:
        return rows[0]
    out = np.empty((len(rows), m))
    for i, values in enumerate(rows):
        out[i] = values
    return out


def _any(flags) -> bool:
    """Whether a test of the drift holds on any path: `flags` is one bool for
    all paths (a float drift's test) or one per path."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def _at(coeff, idx):
    """A coefficient (a float, or values on a row or a block of rows) at the
    flat indices `idx`."""
    return coeff if isinstance(coeff, float) else coeff.ravel()[idx]


def _lower(lo: float, value: float) -> float:
    """min(lo, value), NaN if either is."""
    return lo if lo <= value or lo != lo else value


def _upper(hi: float, value: float) -> float:
    """max(hi, value), NaN if either is."""
    return hi if hi >= value or hi != hi else value


def _coeff_failure(b, a, xa, t, pos, first_id):
    ok = np.isfinite(b) & (a > 0.0) & (a < math.inf)
    i = int(np.argmin(ok))
    raise EvalDomainError(
        f"coefficient failure on path {first_id + int(pos[i])} at t={t}, y={float(xa[i])}")


def _quiet(lo: float, hi: float, a_dt: float, cap: float, marks: list[float], l: float,
           r: float) -> bool:
    """True when steps between values in [lo, hi], with step variance a dt
    at most `a_dt`, hold no event.

    That is so when every value stays below the cap and more than
    _BOUNDARY_CLAMP inside l and r, and each mark (a watched level or a finite
    boundary) has the range strictly on one side, with the nearest end's
    bridge exponent -2 gap / a_dt at or below -37.  Rounding is monotone, so
    every path's exponent is then at or below -37 too: `_crossings` finds no
    candidate, no uniform is drawn and no flag changes.  A NaN fails every
    comparison and so makes the steps eventful.
    """
    if not (hi < cap and l - lo < -_BOUNDARY_CLAMP and hi - r < -_BOUNDARY_CLAMP
            and a_dt > 0.0):
        return False
    for m in marks:
        if lo > m:
            gap = (lo - m) * (lo - m)
        elif hi < m:
            gap = (hi - m) * (hi - m)
        else:
            return False
        if not -2.0 * gap / a_dt <= -37.0:
            return False
    return True


def _regime(crossed: list[np.ndarray]) -> np.ndarray:
    """Per path, how many of the levels, taken in order, it has crossed: a
    level counts only once every level before it has.  `crossed` holds one
    flag array per level, at least one, all of one shape."""
    so_far = crossed[0]
    regime = so_far.astype(np.intp)
    for flags in crossed[1:]:
        so_far = so_far & flags
        regime += so_far
    return regime


def _first_rows(flags: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The paths on which any of `flags` (each one row per step, one column
    per path) holds, and each path's first such row, the row count where
    there is none.  The argmax runs only over those paths."""
    event = flags[0]
    for more in flags[1:]:
        event = event | more
    first = np.full(event.shape[1], len(event))
    if len(event) == 1:
        cols = event[0].nonzero()[0]
        first[cols] = 0
    else:
        cols = event.any(axis=0).nonzero()[0]
        first[cols] = event[:, cols].argmax(axis=0)
    return cols, first


def _gaps(start: np.ndarray, props: np.ndarray, level: float) -> np.ndarray:
    """(y0 - level)(y1 - level) on each step of a block: y1 is a row of
    `props` and y0 the row before it (`start` for the first).  Each step's
    y0 - level is the step before's y1 - level, so it is formed once.  The
    product equals (level - y0)(level - y1), but for the sign of a zero."""
    ahead = props - level
    gap = np.empty_like(ahead)
    np.multiply(start - level, ahead[0], out=gap[0])
    if len(gap) > 1:
        np.multiply(ahead[:-1], ahead[1:], out=gap[1:])
    return gap


def _crossings(gap, a_dt, candidates: np.ndarray, keys: np.ndarray, step: int,
               stream: int) -> np.ndarray:
    """Flat indices of the `candidates` whose Brownian bridge crosses a level
    between two grid values y0 and y1.

    `gap` and `candidates` hold one row per step from `step` on (or just one
    step's row) and one column per key; `gap` is (level - y0)(level - y1) and
    `a_dt` the step variance a(y0) dt, of the same shape or scalar; the
    crossing probability is exp(-2 gap / (a dt)).  Without candidates it
    returns at once.  The exponent and exp are formed only where
    gap < 18.5 a dt, and a uniform is drawn only where the probability
    exceeds 1e-16, which needs gap < 18.42 a dt; so the cut drops no draw.
    As under a test of the exponent, a positive gap over a zero a dt, and a
    gap of +inf or NaN, make no candidate.  All the uniforms come from one
    call, each keyed by its (path, step, stream), so skipping the others
    changes no draw.
    """
    if not candidates.any():
        return _NO_PATHS
    idx = (candidates & (gap < 18.5 * a_dt)).ravel().nonzero()[0]
    if idx.size:
        p = np.exp(-2.0 * gap.ravel()[idx] / _at(a_dt, idx))
        live = p > 1e-16
        idx, p = idx[live], p[live]
        if idx.size:
            if gap.ndim == 1 or len(gap) == 1:
                u = rng.uniforms(keys[idx], step, stream)
            else:
                row, col = np.divmod(idx, keys.size)
                u = rng.uniforms(keys[col], step + row, stream)
            idx = idx[u < p]
    return idx


class _Mark:
    """A mark the event pass tests: a "lower" or "upper" boundary, the
    "cap", a "stop" level, or a "watch" level that stops no path.  It
    carries its level, its bridge stream, the levels its reach test reads
    and, for a mark that tests only some running paths, the flags of the
    paths it tests (one per path, or one per row and path): a watch level's
    paths yet to hit it, a regime's stop level's paths in that regime."""

    def __init__(self, kind: str, level: float, stream: int | None, tested=None):
        self.kind, self.level, self.stream, self.tested = kind, level, stream, tested
        self.near = [] if kind == "cap" else [level]


def _reached(mark: _Mark, span) -> bool:
    """Whether an eventful block may hold an event at `mark`: `_quiet` on its
    reach levels alone, with no cap, and with the clamp distance at a
    boundary; the cap where the range reaches it.  `span` is the block's
    (lo, hi, a_dt)."""
    if mark.kind == "cap":
        return not span[1] < mark.level
    l = mark.level if mark.kind == "lower" else -math.inf
    r = mark.level if mark.kind == "upper" else math.inf
    return bool(mark.near) and not _quiet(*span, math.inf, mark.near, l, r)


def _discrete(mark: _Mark, start: np.ndarray, props: np.ndarray):
    """A mark's discrete test on each step of a block (see `_gaps`): its
    flags, only on the paths it tests, and its gaps (None at the cap and a
    boundary, whose test reads the proposals alone)."""
    if mark.kind == "cap":
        return props >= mark.level, None
    if mark.kind == "lower":
        # props - boundary is the negation of the overshoot at the lower end
        return (props - mark.level) <= _BOUNDARY_CLAMP, None
    if mark.kind == "upper":
        return (props - mark.level) >= -_BOUNDARY_CLAMP, None
    gap = _gaps(start, props, mark.level)
    crossed = gap <= 0.0
    if mark.tested is not None:
        crossed &= mark.tested
    return crossed, gap


def _regime_in_block(regime_marks: list, switch_marks: list, firsts: dict, rows: int) -> None:
    """Give each regime's stop mark the running paths in that regime (see
    `_regime`): per path from the switch marks' flags, or, where a path
    crosses a switch mark in a block of `rows` rows (`firsts`), per row from
    the row after.  A mark reaches its level only while its regime holds a
    path."""
    crossed = [~switch.tested for switch in switch_marks]
    if firsts:
        row = np.arange(rows)[:, None]
        crossed = [flags | ((firsts[switch][1] if switch in firsts else rows) < row)
                   for switch, flags in zip(switch_marks, crossed)]
    regime = _regime(crossed)
    for q, mark in enumerate(regime_marks):
        mark.tested = regime == q
        mark.near = [mark.level] if mark.tested.any() else []


def _overflow_is_no_error(kernel):
    """`kernel` with numpy's overflow warnings ignored for the whole run: a
    finite drift may overflow a step, sending the path past the cap, and the
    warning would reach stderr.  np.errstate would slow every ufunc call of
    the run; condflow runs in one thread, so the process-wide filter is safe."""
    def run(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
            return kernel(*args, **kwargs)
    return run


@_overflow_is_no_error
def _simulate(spec: DiffusionSpec, x0: float, cfg: SimConfig, first_id: int, n: int,
              snap_times: list[float], levels_by_regime: tuple[float, ...] = ()
              ) -> EnsembleResult:
    """Run paths first_id .. first_id + n - 1 as one cohort, recording the
    value at each of the sorted `snap_times` AND stop.

    `levels_by_regime` (L_0, ..., L_m) gives every path one more stop level,
    L_r, where the path's regime r is the number of the first m watched
    levels it crossed, in order, before the step (see `_regime`); so a switch
    applies from the next step.  Those m levels must be interior watch
    levels, not stop levels.  Each L_q is a stop mark that tests the paths
    in regime q; a path is in one regime on a step, so their crossings share
    the stream STREAM_WATCH + len(watched) and draw each uniform once.  No
    hit time is recorded for L_r.  A path stops at the argmax, the first, of
    the marks in reach that fire on its stop row, in the list's order: lower
    boundary, upper boundary, cap, the stop levels from the top, L_r.
    """
    l, r = spec.interval.l, spec.interval.r
    # None: evaluated per row, as is a constant no coefficient may take, so
    # that the row checks fail it on the first step, naming the first path
    b_fix, a_fix = const_value(spec.drift), const_value(spec.diffusion)
    b_fix = b_fix if b_fix is not None and math.isfinite(b_fix) else None
    a_fix = a_fix if a_fix is not None and 0.0 < a_fix < math.inf else None
    evaluated = b_fix is None or a_fix is None
    watch = _watched(cfg)
    # (value, is the upper end, bridge stream) of each finite boundary
    boundaries = [(boundary, upper, stream) for boundary, upper, stream in
                  ((l, False, rng.STREAM_BRIDGE_LOWER), (r, True, rng.STREAM_BRIDGE_UPPER))
                  if math.isfinite(boundary)]
    # the halving guard's boundaries: a constant drift that does not repel
    # from a boundary never needs it there
    guarded = [(boundary, upper) for boundary, upper, _stream in boundaries
               if b_fix is None or (b_fix < 0.0 if upper else b_fix > 0.0)]
    # the coefficient checks, the guard and parking need each row's range
    per_row = evaluated or bool(guarded)
    # the bridge streams of the interior watched levels: watch levels sitting
    # on an absorbing boundary share its crossing events
    interior = {level: rng.STREAM_WATCH + j for j, level in enumerate(watch)
                if level != l and level != r}

    # full per-path results, written when paths stop, at snapshots and at the end
    at_stop = x0 in cfg.stop_levels  # a stop level at the start stops every path at 0
    final = np.full(n, float(x0))
    stop_t = np.full(n, 0.0 if at_stop else np.nan)
    absorbed = np.full(n, np.nan)
    # a watch level equal to the start is hit at time 0
    hit_t = {level: np.full(n, 0.0 if level == x0 else np.nan)
             for level in watch if level not in cfg.stop_levels}
    snaps = np.full((len(snap_times), n), np.nan)
    tint = np.zeros(n) if cfg.track_time_average else None
    tie_count = 0

    # compacted state of the running paths, in path order; crossing a stop
    # level stops a path, so only the other levels keep "not yet hit" flags
    pos = np.arange(0 if at_stop else n)
    keys = rng.path_keys(cfg.seed, first_id + pos)
    xa = np.full(pos.size, float(x0))
    tint_a = np.zeros(pos.size) if tint is not None else None

    # the marks, in tie order (the watch levels stop no path, and set the regimes)
    marks = [_Mark("upper" if upper else "lower", boundary, stream)
             for boundary, upper, stream in boundaries]
    marks.append(_Mark("cap", cfg.cap, None))
    marks += [_Mark("stop", level, interior[level])
              for level in sorted(interior, reverse=True) if level in cfg.stop_levels]
    watch_marks = [_Mark("watch", level, stream, np.full(pos.size, level != x0))
                   for level, stream in interior.items() if level not in cfg.stop_levels]
    marks += watch_marks
    # a stop mark per regime, testing the paths in it: a path is in one
    # regime on a step, so the marks share one stream
    regime_marks = [_Mark("stop", level, rng.STREAM_WATCH + len(watch))
                    for level in levels_by_regime]
    marks += regime_marks
    switch_marks = watch_marks[:len(regime_marks) - 1] if regime_marks else []
    stale = True  # whether stops or hits may have changed the marks' reach levels
    x_lo = x_hi = float(x0)  # the range of xa, as far as _quiet needs it

    t = 0.0
    k = 0  # global step index, the RNG counter
    snap_i = 0
    for n_steps, dt in _phases(cfg):
        sqrt_dt = math.sqrt(dt)
        left = n_steps
        while left and pos.size:
            # a block: up to n_rows steps of the m running paths, with
            # n_rows m <= _BLOCK_DRAWS unless it is one step
            stopping = _NO_PATHS  # the paths that stop in the block, and their stop rows
            last = None           # each path's stop row, done if it runs on
            firsts = {}           # each watch mark's crossing paths and first rows
            m = pos.size
            n_rows = min(max(1, _BLOCK_DRAWS // m), left)
            z = rng.normals(keys, range(k, k + n_rows), rng.STREAM_STEP_NORMAL)
            noise = None  # the steps' noise when a is constant
            if a_fix is not None:
                # the guard alone reads the normals after this
                noise = np.multiply(z, math.sqrt(a_fix) * sqrt_dt, out=None if guarded else z)
            # row i holds the proposals of the block's step i, which step
            # i + 1 starts from
            props = np.empty((n_rows, m))
            x = xa
            b_rows, a_rows = [], []  # evaluated coefficients, per row
            a_max = 0.0 if a_fix is None else a_fix
            lo, hi = x_lo, x_hi      # the range of every value and proposal so far
            # paths whose proposal reached a boundary or the cap hold their
            # value from before that row: (row, paths, proposals) and the holds
            parks = []
            held_at, held = _NO_PATHS, np.empty(0)
            t_end = []       # the time at the end of each row
            snap_rows = []   # (snapshot index, row)
            done = n_rows    # rows run: a coefficient failure cuts the block
            for i in range(n_rows):
                prop = props[i]
                b, a = b_fix, a_fix
                if evaluated:
                    try:
                        if b is None:
                            b = _per_path(spec.drift(x))
                        if a is None:
                            a = _per_path(spec.diffusion(x))
                    except Exception as exc:
                        if i:
                            done = i
                            break
                        raise EvalDomainError(
                            f"coefficient evaluation failed at t={t}: {exc}") from exc
                if a_fix is None:
                    if isinstance(a, float):
                        a_hi, a_ok = a, 0.0 < a < math.inf
                    else:
                        a_hi = float(a.max())
                        a_ok = a.min() > 0.0 and a_hi < math.inf
                    if not a_ok:
                        if i:
                            done = i
                            break
                        _coeff_failure(b, a, x, t, pos, first_id)
                    a_max = max(a_max, a_hi)
                    root = math.sqrt(a) if isinstance(a, float) else np.sqrt(a)
                    row_noise = root * sqrt_dt * z[i]
                else:
                    row_noise = noise[i]
                np.add(x, b * dt, out=prop)
                prop += row_noise

                if per_row:
                    if held_at.size:
                        prop[held_at] = held
                    p_lo, p_hi = float(prop.min()), float(prop.max())
                    # a non-finite b leaves the range non-finite, so only
                    # then is b checked (a finite b may overflow, which is
                    # no error)
                    if not (-math.inf < p_lo and p_hi < math.inf) and not np.isfinite(b).all():
                        if i:
                            done = i
                            break
                        _coeff_failure(b, a, x, t, pos, first_id)

                    # halving guard at boundaries the drift repels from; it
                    # has nothing to do where the row's range shows no
                    # proposal past the boundary or the drift repels on no path
                    for boundary, upper in guarded:
                        if (p_hi - boundary if upper else boundary - p_lo) <= _BOUNDARY_CLAMP:
                            continue
                        repels = b < 0.0 if upper else b > 0.0
                        if not _any(repels):
                            continue
                        over = prop - boundary if upper else boundary - prop
                        fix = over > _BOUNDARY_CLAMP
                        fix &= repels
                        sub = fix.nonzero()[0]
                        moved = sub.size > 0
                        h = dt
                        for _halving in range(_MAX_HALVINGS):
                            if not sub.size:
                                break
                            h *= 0.5
                            prop[sub] = (x[sub] + _at(b, sub) * h
                                         + np.sqrt(_at(a, sub) * h) * z[i, sub])
                            over = prop[sub] - boundary if upper else boundary - prop[sub]
                            sub = sub[over > _BOUNDARY_CLAMP]
                        if sub.size:
                            prop[sub] = boundary  # give up: absorb there
                        if moved:  # the row's range holds the moved values
                            p_lo, p_hi = float(prop.min()), float(prop.max())

                    # parking: a proposal at a boundary or the cap stops its
                    # path on this row, so no later row evaluates there
                    if evaluated:
                        reach = prop >= cfg.cap if p_hi >= cfg.cap else None
                        for boundary, upper, _stream in boundaries:
                            if (p_hi - boundary if upper else boundary - p_lo) >= -_BOUNDARY_CLAMP:
                                over = prop - boundary if upper else boundary - prop
                                at_end = over >= -_BOUNDARY_CLAMP
                                reach = at_end if reach is None else reach | at_end
                        if reach is not None:
                            reach[held_at] = False
                            new = reach.nonzero()[0]
                            if new.size:
                                parks.append((i, new, prop[new]))
                                prop[new] = x[new]
                                held_at = np.concatenate((held_at, new))
                                held = np.concatenate((held, x[new]))
                    lo, hi = _lower(lo, p_lo), _upper(hi, p_hi)
                    row_lo, row_hi = p_lo, p_hi

                if b_fix is None:
                    b_rows.append(b)
                if a_fix is None:
                    a_rows.append(a)
                x = prop
                t += dt
                t_end.append(t)
                while snap_i < len(snap_times) and t >= snap_times[snap_i] - _TIME_SLACK:
                    snap_rows.append((snap_i, i))
                    snap_i += 1

            z = noise = None  # no longer needed: free them before the event work
            k0 = k
            k += done
            left -= done
            props = props[:done]
            for i, new, values in parks:
                props[i, new] = values
            if per_row:
                x_lo, x_hi = row_lo, row_hi
            else:
                p_lo, p_hi = float(props.min()), float(props.max())
                lo, hi = _lower(lo, p_lo), _upper(hi, p_hi)
                x_lo, x_hi = ((p_lo, p_hi) if done == 1
                              else (float(props[-1].min()), float(props[-1].max())))
            acc = None  # the running time integral after each row
            if tint_a is not None:
                acc = np.empty((done, m))
                np.multiply(xa, dt, out=acc[0])
                np.multiply(props[:-1], dt, out=acc[1:])
                acc[0] += tint_a
                np.add.accumulate(acc, axis=0, out=acc)

            if stale:
                # a quiet block keeps clear of every mark's reach levels: a watch level only
                # while a running path has yet to hit it, a regime's stop level while a
                # running path is in the regime
                for mark in watch_marks:
                    mark.near = [mark.level] if mark.tested.any() else []
                if switch_marks:
                    _regime_in_block(regime_marks, switch_marks, {}, done)
                near = [level for mark in marks for level in mark.near]
            # a quiet block has no event: it only moves the paths; an eventful
            # one tests the marks on the same range one by one
            span = (lo, hi, a_max * dt)
            if not _quiet(*span, cfg.cap, near, l, r):
                a_dt = None
                if cfg.bridge_correction:
                    a_dt = a_fix * dt if a_fix is not None else _per_row(a_rows, m) * dt

                # the discrete tests of the marks in reach, (flags, gaps) by
                # mark; the regime marks wait for this block's switches
                tests = {mark: _discrete(mark, xa, props) for mark in marks
                         if mark not in regime_marks and _reached(mark, span)}
                stops = [crossed for mark, (crossed, _gap) in tests.items() if mark.kind != "watch"]
                # rows after a path's first discrete stop are never read, so
                # they draw no bridge uniform
                live = None
                if cfg.bridge_correction and done > 1 and stops:
                    cols, first = _first_rows(stops)
                    if cols.size:
                        live = np.arange(done)[:, None] <= first

                # the bridge tests, which add their crossings to the flags in
                # place, and the first crossings of the watch levels
                for mark in marks:
                    if mark in regime_marks:
                        if mark is regime_marks[0] and any(switch in firsts
                                                           for switch in switch_marks):
                            _regime_in_block(regime_marks, switch_marks, firsts, done)
                        if _reached(mark, span):
                            tests[mark] = _discrete(mark, xa, props)
                            stops.append(tests[mark][0])
                    if mark not in tests:
                        continue
                    crossed, gap = tests[mark]
                    if a_dt is not None and mark.stream is not None:
                        maybe = mark.tested
                        if gap is None:  # a boundary: tested where the drift does not repel
                            bs = b_fix if b_fix is not None else _per_row(b_rows, m)
                            maybe = bs >= 0.0 if mark.kind == "upper" else bs <= 0.0
                            if _any(maybe):
                                gap = _gaps(xa, props, mark.level)
                        if gap is not None:
                            maybe = ~crossed if maybe is None else maybe & ~crossed
                            if live is not None:
                                maybe &= live
                            crossed.flat[_crossings(gap, a_dt, maybe, keys, k0, mark.stream)] = True
                    if mark.kind == "watch":
                        cols, first = _first_rows([crossed])
                        if cols.size:
                            firsts[mark] = (cols, first)

                # each path's stop row: its first row at a stop mark
                if stops:
                    stopping, last = _first_rows(stops)
                    s = last[stopping]
                t_end = np.asarray(t_end)
                tie_events = []
                if stopping.size:
                    ps = pos[stopping]
                    t_stop = t_end[s]
                    # the stop: the table of the stop marks in reach, in list
                    # order, that fire on each path's stop row; its argmax,
                    # the first that fires, wins
                    in_reach = [mark for mark in marks if mark.kind != "watch" and mark in tests]
                    fired = np.array([tests[mark][0][s, stopping] for mark in in_reach])
                    won = fired.argmax(axis=0)
                    n_events = fired.sum(axis=0)
                    # each mark's final value (nan at the cap: the proposal) and absorbed_at
                    value, end = np.array([(math.nan, math.inf) if mark.kind == "cap" else
                                           (mark.level, math.nan if mark.kind == "stop"
                                            else mark.level) for mark in in_reach]).T
                    final[ps] = np.where(np.isnan(value[won]), props[s, stopping], value[won])
                    absorbed[ps] = end[won]
                    stop_t[ps] = t_stop
                    # a watch level on a boundary is hit where it absorbs
                    for mark, at_mark in zip(in_reach, fired):
                        if mark.kind in ("lower", "upper") and mark.level in hit_t:
                            hit_t[mark.level][ps[at_mark]] = t_stop[at_mark]
                    tie_events.append(np.repeat(s * m + stopping, n_events))
                    if tint is not None:
                        tint[ps] = acc[s, stopping]

                # first crossings of the watch levels, up to the path's stop
                for mark, (cols, first) in firsts.items():
                    if last is not None:
                        cols = cols[first[cols] <= last[cols]]
                    at = first[cols]
                    hit_t[mark.level][pos[cols]] = t_end[at]
                    mark.tested[cols] = False
                    tie_events.append(at * m + cols)
                if len(tie_events) > 1:
                    _flat, counts = np.unique(np.concatenate(tie_events), return_counts=True)
                    tie_count += int(np.count_nonzero(counts >= 2))
                elif stopping.size:
                    tie_count += int(np.count_nonzero(n_events >= 2))

            # snapshots: the rows' values of the paths not yet stopped there
            if snap_rows:
                idx, at = np.array(snap_rows).T
                values = props[at]
                if last is not None:
                    values = np.where(last > at[:, None], values, np.nan)
                snaps[np.ix_(idx, pos)] = values

            xa = props[-1]
            if acc is not None:
                tint_a = acc[-1]
            if stopping.size:
                keep = np.ones(m, dtype=bool)
                keep[stopping] = False
                pos, keys, xa = pos[keep], keys[keep], xa[keep]
                for mark in watch_marks:
                    mark.tested = mark.tested[keep]
                if tint_a is not None:
                    tint_a = tint_a[keep]
            stale = stopping.size > 0 or bool(firsts)

    truncated = np.zeros(n, dtype=bool)
    truncated[pos] = True
    final[pos] = xa
    stop_t[pos] = t
    if tint is not None:
        tint[pos] = tint_a
    # a path that stopped before a snapshot time holds its final value there
    np.copyto(snaps, final, where=np.isnan(snaps))

    return EnsembleResult(
        final_values=final,
        stop_times=stop_t,
        absorbed_at=absorbed,
        truncated=truncated,
        hit_times=hit_t,
        snapshots=dict(zip(snap_times, snaps)),
        time_integral=tint,
        tie_count=tie_count,
    )


def _check_start(spec: DiffusionSpec, x0: float, cfg: SimConfig) -> None:
    """Refuse a start outside the open interval or at or above the cap, or a
    watched level outside [l, r]."""
    if not spec.interval.contains(x0):
        raise ValueError(f"x0={x0} outside the open interval")
    if x0 >= cfg.cap:
        raise ValueError(f"x0={x0} at or above the cap {cfg.cap}")
    for level in _watched(cfg):
        if not (spec.interval.l <= level <= spec.interval.r):
            raise ValueError(f"watch level {level} outside [l, r]")


def simulate_ensemble(spec: DiffusionSpec, x0: float, cfg: SimConfig) -> EnsembleResult:
    """Simulate cfg.n_paths paths and return per-path summaries.

    Every path is a pure function of (seed, path_index), so the first m paths
    of an n-path run equal an m-path run.
    """
    _check_start(spec, x0, cfg)
    return _simulate(spec, x0, cfg, 0, cfg.n_paths, sorted(cfg.snapshot_times))


def simulate_path(spec: DiffusionSpec, x0: float, cfg: SimConfig, path_index: int) -> PathSample:
    """Simulate the single path `path_index` on the full time grid.

    Values agree exactly with the corresponding entry of simulate_ensemble
    under the same seed and config, and stay constant after the stop; the
    hit times are that entry's.
    """
    _check_start(spec, x0, cfg)
    # the grid times, summed in order as the kernel sums them
    times = np.concatenate(([0.0], np.cumsum([dt for n_steps, dt in _phases(cfg)
                                               for _ in range(n_steps)])))
    summary = _simulate(spec, x0, cfg, path_index, 1, times[1:].tolist())
    return PathSample(
        times=times,
        values=np.concatenate([[float(x0)], *summary.snapshots.values()]),
        hit_times={level: float(t[0]) for level, t in summary.hit_times.items()},
    )


def estimate_hitting_prob(spec: DiffusionSpec, x0: float, level_up: float,
                          level_down: float, cfg: SimConfig) -> tuple[McEstimate, dict]:
    """Fraction of paths whose first crossing among {up, down} is up, read
    off the stop record of one run stopped at both.

    A step that crosses both counts for the one the kernel's list of marks
    puts first (see `_simulate`).  Paths reaching neither level by the
    horizon are excluded from the estimate and counted in the report.
    """
    if not (level_down <= x0 <= level_up) or level_down >= level_up:
        raise ValueError("need level_down <= x0 <= level_up with level_down < level_up")
    run_cfg = replace(cfg, watch_levels=(), stop_levels=(level_up, level_down))
    res = simulate_ensemble(spec, x0, run_cfg)
    up_first = res.stopped_at(level_up)
    resolved = int(np.sum(up_first | res.stopped_at(level_down)))
    report = {
        "n": cfg.n_paths,
        "resolved": resolved,
        "unresolved": cfg.n_paths - resolved,
        "ties": res.tie_count,
    }
    if resolved == 0:
        raise EvalDomainError("no path resolved either level before the horizon")
    return McEstimate.from_binomial(int(np.sum(up_first)), resolved), report


def exact_bessel3(x0: float, t: float, n_paths: int, seed: int) -> np.ndarray:
    """BES(3) from x0 >= 0 at time t > 0, exactly: sqrt((x0 + sqrt(t) z1)^2
    + t z2^2 + t z3^2) from three keyed normals per path."""
    if x0 < 0 or t <= 0:
        raise ValueError("need x0 >= 0 and t > 0")
    keys = rng.path_keys(seed, np.arange(n_paths, dtype=np.int64))
    z = rng.normals(keys, range(3), rng.STREAM_EXACT_BES3)
    return np.sqrt((x0 + math.sqrt(t) * z[0]) ** 2 + t * z[1] ** 2 + t * z[2] ** 2)


def exact_stopped_bm(x0: float, t: float, n_paths: int, seed: int) -> np.ndarray:
    """Brownian motion from x0 > 0 absorbed at 0, at time t > 0, exactly:
    W = x0 + sqrt(t) z, set to 0 where W <= 0 or where a keyed uniform falls
    below exp(-2 x0 W / t), the chance that the bridge to W touched 0."""
    if x0 <= 0 or t <= 0:
        raise ValueError("need x0 > 0 and t > 0")
    keys = rng.path_keys(seed, np.arange(n_paths, dtype=np.int64))
    w = x0 + math.sqrt(t) * rng.normals(keys, 0, rng.STREAM_EXACT_BM)
    u = rng.uniforms(keys, 0, rng.STREAM_EXACT_BM_BRIDGE)
    # the clamp keeps exp finite where w <= 0, which is absorbed anyway
    touched = u < np.exp(-2.0 * x0 * np.maximum(w, 0.0) / t)
    return np.where((w <= 0) | touched, 0.0, w)
