"""Path simulation with absorbing boundaries and hitting detection.

Scheme: Euler-Maruyama on a fixed step grid.  The step normals come from
the counter-based generator keyed by (path, step, stream), so a path is a
pure function of (seed, path_index): the first m paths of an n-path ensemble
equal an m-path run.

All paths run as one cohort in one thread.  The kernel holds the running
paths in compacted arrays (value, key, index, per-level "not yet hit" flag,
running time integral) and writes the full per-path arrays only when paths
stop, at snapshot times and at the horizon, so a step costs work in
proportion to the paths still running.  Step normals are drawn in blocks of
steps, about 2**14 draws at a time: one step per block while many paths run,
many steps per block in the sparse tail, so a step with few paths costs few
numpy calls.  Because the draws are keyed, the block size changes no value;
it only means that up to one block's draws of a path may go unused after it
stops.

A step evaluates the drift b and the diffusion coefficient a once each, at
the running values of all its paths.  A `Const` coefficient is read once per
run instead, and one that returns a plain float is carried the same way: as
one Python float broadcast over the paths.  A step with a constant a takes
no reduction of a and forms sqrt(a) sqrt(dt) and a dt once, not per path; a
constant b that cannot repel from a boundary skips the halving guard there.
The square root and the products of a constant are the same IEEE
operations as their per-element forms, so a constant changes no value.

Level crossings between grid points are recovered with the Brownian-bridge
crossing probability exp(-2 (level-y0)(level-y1) / (a(y0) dt)), with the
diffusion coefficient frozen at the step's left endpoint; detected hits are
reported at the step's right endpoint.  A bridge uniform is drawn only where
that probability exceeds 1e-16; draws are keyed by (path, step, stream), so
the skipped ones change no other.  A crossing of both watched levels
detected on the same step counts toward the upper level; such ties are
counted and reported.

Most steps of a sparse tail have no event.  A step is quiet when the running
values and the Euler proposals, taken as two ranges, sit strictly on one side
of every finite boundary and of every level a running path can still cross
(a watch level every running path has crossed drops out), with a bridge
exponent at or below -37 between the nearest ends, and the proposals stay
below the cap and more than the clamp distance inside the boundaries.  That bound covers every
path, so a quiet step draws no bridge uniform and records no event; it skips
the guards, crossing tests, event selection and compaction, and changes no
value.  The test reads reductions the step takes anyway: min and max of the
proposals (which also check the drift) and max a (which also checks the
diffusion coefficient, and is a itself when a is constant); the range of the
values is the previous step's proposal range.  On an eventful step the same
proposal range skips the halving guard at a boundary and the cap test when no
proposal reaches them.

An eventful step does work only at the marks some running path can reach.
It applies the quiet test to each mark on its own (a finite boundary with
the clamp distance, an interior watched level, or the regime's stop levels
as one row), on the same value and proposal ranges; a mark that passes gets
no flag array, no crossing test and no bridge uniform, and the event
selection reads it as all-False.  That is exact for the reason a quiet step
is.  One rule keeps the ranges honest: where the halving guard moved a
proposal, the moved value lies in neither range, so on that step every mark
is in reach, and the next step's value range is NaN, which puts every mark
in reach again (and makes that step eventful).

Two guards keep singular drifts honest near a boundary the process cannot
actually reach (for example the 1/y drift of an upward-conditioned process
at its lower end).  When the drift at the current point pushes away from a
boundary: (a) a proposal overshooting that boundary is retried with the step
halved, same normal draw, up to a bounded number of times, and (b) the
bridge absorption test at that boundary is skipped, because the frozen-
coefficient bridge law is badly wrong there.  At a boundary the drift does
not repel from, an overshoot is genuine absorption: the value is clamped to
the boundary and the path frozen.
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
]

_BOUNDARY_CLAMP = 1e-12  # a proposal this close to a boundary counts as reaching it
_MAX_HALVINGS = 20       # step halvings before the guard absorbs at the boundary
_BLOCK_DRAWS = 1 << 14   # step normals per draw call: the running paths times the block's steps
_TIME_SLACK = 1e-12      # a grid time this close below a snapshot time counts as reaching it
_NO_PATHS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    `dt_schedule` optionally coarsens the step after an accurate early
    phase for long-horizon scenarios: (t_until, dt) segments covering the
    horizon; when absent a single segment (horizon, dt) is used.

    A path stops at absorption, at the cap and at its first crossing of a
    stop level.  The run watches `stop_levels`, then the `watch_levels` not
    among them, each level once; the j-th watched level draws its bridge
    uniforms from stream STREAM_WATCH + j.  Snapshot times record the path
    value at t AND stop.

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
        for t in self.snapshot_times:
            if not 0.0 < t <= self.horizon:
                raise ValueError("snapshot times must lie in (0, horizon]")


@dataclass
class EnsembleResult:
    """Per-path summaries of one Monte Carlo ensemble (index = path_index)."""

    n: int
    final_values: np.ndarray
    stop_times: np.ndarray          # absorption/cap/first-hit time; horizon if truncated
    absorbed_at: np.ndarray         # boundary value, +inf for cap exceedance, nan otherwise
    truncated: np.ndarray           # still running at the horizon
    hit_times: dict[float, np.ndarray] = field(default_factory=dict)   # nan = never
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)   # value at t ^ stop
    time_integral: np.ndarray | None = None
    tie_count: int = 0

    def truncated_fraction(self) -> float:
        return float(np.mean(self.truncated))

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


def _propose(spec: DiffusionSpec, b, a, xa: np.ndarray, t: float, dt: float, sqrt_dt: float,
             z: np.ndarray, pos: np.ndarray, first_id: int):
    """The Euler proposal xa + b dt + sqrt(a dt) z at the running values.

    `b` and `a` are the run's constant coefficients, or None to evaluate the
    spec's at xa; an evaluated coefficient that returns one plain float is
    carried as a float too.  Returns b, a (each a float or one value per
    path), max a, the proposal and its min and max.  0 < a < inf is checked
    before the step: by one comparison for a float, by two reductions for
    an array.  A non-finite b leaves the proposal's range non-finite, so only
    then is b checked (a finite b may still overflow the proposal, which is
    no error).  A failure names the first path whose b or a is bad.
    """
    if b is None or a is None:
        try:
            if b is None:
                b = _per_path(spec.drift(xa))
            if a is None:
                a = _per_path(spec.diffusion(xa))
        except Exception as exc:
            raise EvalDomainError(f"coefficient evaluation failed at t={t}: {exc}") from exc
    if isinstance(a, float):
        a_max = a
        if not 0.0 < a < math.inf:
            _coeff_failure(b, a, xa, t, pos, first_id)
        noise = math.sqrt(a) * sqrt_dt * z
    else:
        a_max = float(a.max())
        if not (a.min() > 0.0 and a_max < math.inf):
            _coeff_failure(b, a, xa, t, pos, first_id)
        noise = np.sqrt(a) * sqrt_dt * z
    prop = xa + b * dt + noise
    p_lo, p_hi = float(prop.min()), float(prop.max())
    if not (-math.inf < p_lo and p_hi < math.inf) and not np.isfinite(b).all():
        _coeff_failure(b, a, xa, t, pos, first_id)
    return b, a, a_max, prop, p_lo, p_hi


def _per_path(values):
    """A coefficient's values as float64, one plain float standing for all paths."""
    values = np.asarray(values, dtype=np.float64)
    return float(values) if values.ndim == 0 else values


def _any(flags) -> bool:
    """Whether a test of the drift holds on any path: `flags` is one bool for
    all paths (a float drift's test) or one per path."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def _at(coeff, idx):
    """A coefficient (a float or one value per path) at the paths `idx`."""
    return coeff if isinstance(coeff, float) else coeff[idx]


def _coeff_failure(b, a, xa, t, pos, first_id):
    ok = np.isfinite(b) & (a > 0.0) & (a < math.inf)
    i = int(np.argmin(ok))
    raise EvalDomainError(
        f"coefficient failure on path {first_id + int(pos[i])} at t={t}, y={float(xa[i])}")


def _quiet(x_lo: float, x_hi: float, p_lo: float, p_hi: float, a_dt: float, cap: float,
           marks: list[float], l: float, r: float) -> bool:
    """True when a step from values in [x_lo, x_hi] to proposals in
    [p_lo, p_hi], with step variance a dt at most `a_dt`, holds no event.

    That is so when every proposal stays below the cap and more than
    _BOUNDARY_CLAMP inside l and r, and each mark (a watched level or a finite
    boundary) has both ranges strictly on one side, with the nearest ends'
    bridge exponent -2 gap / a_dt at or below -37.  Rounding is monotone, so
    every path's exponent is then at or below -37 too: `_crossings` finds no
    candidate, no uniform is drawn and no flag changes.  A NaN fails every
    comparison and so makes the step eventful.
    """
    if not (p_hi < cap and l - p_lo < -_BOUNDARY_CLAMP and p_hi - r < -_BOUNDARY_CLAMP
            and a_dt > 0.0):
        return False
    for m in marks:
        if x_lo > m and p_lo > m:
            gap = (x_lo - m) * (p_lo - m)
        elif x_hi < m and p_hi < m:
            gap = (x_hi - m) * (p_hi - m)
        else:
            return False
        if not -2.0 * gap / a_dt <= -37.0:
            return False
    return True


def _near(span, levels: list[float], l: float = -math.inf, r: float = math.inf) -> bool:
    """Whether an eventful step may hold an event at `levels`: `_quiet` on
    those marks alone, with no cap, and with the clamp distance at l or r
    for a boundary mark.  `span` is the step's (x_lo, x_hi, p_lo, p_hi,
    a_dt), or None where the halving guard moved values out of its ranges."""
    return span is None or not _quiet(*span, math.inf, levels, l, r)


def _regime(crossed: list[np.ndarray]) -> np.ndarray:
    """Per path, how many of the levels, taken in order, it has crossed: a
    level counts only once every level before it has.  `crossed` holds one
    flag array per level, at least one."""
    so_far = crossed[0]
    regime = so_far.astype(np.intp)
    for flags in crossed[1:]:
        so_far = so_far & flags
        regime += so_far
    return regime


def _crossings(gap, a_dt, candidates: np.ndarray, keys: np.ndarray, step: int,
               stream: int) -> np.ndarray:
    """Indices of the `candidates` whose Brownian bridge crosses a level
    between two grid values y0 and y1.

    `gap` is (level - y0)(level - y1) and `a_dt` the step variance a(y0) dt,
    per path or scalar; the crossing probability is exp(-2 gap / (a dt)).
    Without candidates it returns at once.  The exponent and exp are formed
    only where gap < 18.5 a dt, and a uniform is drawn only where the
    probability exceeds 1e-16, which needs gap < 18.42 a dt; so the cut drops
    no draw.  As under a test of the exponent, a positive gap over a zero
    a dt, and a gap of +inf or NaN, make no candidate.  Draws are keyed by
    (path, step, stream), so skipping the others changes no draw.
    """
    if not candidates.any():
        return candidates.nonzero()[0]
    idx = (candidates & (gap < 18.5 * a_dt)).nonzero()[0]
    if idx.size:
        p = np.exp(-2.0 * gap[idx] / _at(a_dt, idx))
        live = p > 1e-16
        idx, p = idx[live], p[live]
        if idx.size:
            idx = idx[rng.uniforms(keys[idx], step, stream) < p]
    return idx


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
    levels, not stop levels.  Crossings of L_r draw their bridge uniforms
    from stream STREAM_WATCH + len(watched) and stop the path at L_r, after
    every stop level of `cfg`, whose write wins a same-step tie.  No hit time
    is recorded for L_r.
    """
    l, r = spec.interval.l, spec.interval.r
    b_fix, a_fix = const_value(spec.drift), const_value(spec.diffusion)  # None: per step
    watch = _watched(cfg)
    # (value, is the upper end, bridge stream) of each finite boundary
    boundaries = [(boundary, upper, stream) for boundary, upper, stream in
                  ((l, False, rng.STREAM_BRIDGE_LOWER), (r, True, rng.STREAM_BRIDGE_UPPER))
                  if math.isfinite(boundary)]
    # watch levels sitting on an absorbing boundary share its crossing events
    interior = [level for level in watch if level != l and level != r]
    watch_stream = {level: rng.STREAM_WATCH + j for j, level in enumerate(watch)}
    interior_streams = [watch_stream[level] for level in interior]
    # the higher stop level wins a same-step tie, so they are processed from the top
    stop_desc = sorted((j for j, lv in enumerate(interior) if lv in cfg.stop_levels),
                       key=lambda j: interior[j], reverse=True)
    # the finite boundaries from the top: absorption is written in this order,
    # so the lower boundary wins a same-step tie
    from_top = boundaries[::-1]
    ends = [boundary for boundary, _upper, _stream in from_top]
    # the regime's stop level, per running path
    table = np.asarray(levels_by_regime, dtype=np.float64)
    n_switch = len(levels_by_regime) - 1
    regime_stream = rng.STREAM_WATCH + len(watch)
    regime_levels = list(levels_by_regime)
    # a quiet step keeps clear of the interior levels some running path has
    # yet to hit, the finite boundaries and the regimes' stop levels
    watching = [True] * len(interior)
    marks = interior + ends + regime_levels

    # full per-path results, written when paths stop, at snapshots and at the end
    at_stop = x0 in cfg.stop_levels  # a stop level at the start stops every path at 0
    final = np.full(n, float(x0))
    stop_t = np.full(n, 0.0 if at_stop else np.nan)
    absorbed = np.full(n, np.nan)
    hit_t = {level: np.full(n, np.nan) for level in watch}
    snaps = np.full((len(snap_times), n), np.nan)
    tint = np.zeros(n) if cfg.track_time_average else None
    tie_count = 0

    for level in watch:  # a watch level equal to the start is hit at time 0
        if level == x0:
            hit_t[level][:] = 0.0

    # compacted state of the running paths, in path order; crossing a stop
    # level stops a path, so only the other levels keep "not yet hit" flags
    pos = np.arange(0 if at_stop else n)
    keys = rng.path_keys(cfg.seed, first_id + pos)
    xa = np.full(pos.size, float(x0))
    unhit = [None if level in cfg.stop_levels else np.full(pos.size, level != x0)
             for level in interior]
    tint_a = np.zeros(pos.size) if tint is not None else None
    stop_at = np.full(pos.size, table[0]) if levels_by_regime else None
    x_lo = x_hi = float(x0)  # the range of xa, as far as _quiet needs it

    all_phases = _phases(cfg)
    total_steps = sum(ns for ns, _ in all_phases)

    # step normals of the running paths, one row per step of the current block;
    # column zcol[i] of a row belongs to running path i (None: the identity)
    z_block = np.empty((0, 0))
    z_row = 0
    zcol = None

    t = 0.0
    k = 0  # global step index, the RNG counter
    snap_i = 0
    for n_steps, dt in all_phases:
        sqrt_dt = math.sqrt(dt)
        for _ in range(n_steps):
            if not pos.size:
                break
            t_next = t + dt
            if z_row == len(z_block):
                rows = min(max(1, _BLOCK_DRAWS // pos.size), total_steps - k)
                z_block = rng.normals(keys, range(k, k + rows), rng.STREAM_STEP_NORMAL)
                z_row = 0
                zcol = None
            z = z_block[z_row] if zcol is None else z_block[z_row, zcol]
            z_row += 1
            b, a, a_max, prop, p_lo, p_hi = _propose(spec, b_fix, a_fix, xa, t, dt, sqrt_dt, z,
                                                     pos, first_id)
            if tint_a is not None:
                tint_a += xa * dt

            # a quiet step has no event: it only moves the paths; an eventful
            # one tests the marks on the same ranges one by one
            span = (x_lo, x_hi, p_lo, p_hi, a_max * dt)
            if _quiet(*span, cfg.cap, marks, l, r):
                xa, x_lo, x_hi = prop, p_lo, p_hi
            else:
                # the proposals' range holds the next values of the running
                # paths unless the halving guard moves some
                x_lo, x_hi = p_lo, p_hi

                # halving guard at boundaries the drift repels from; it has
                # nothing to do where the proposals' range shows none past the
                # boundary (a NaN range goes on) or the drift repels on no path
                for boundary, upper, _stream in boundaries:
                    if (p_hi - boundary if upper else boundary - p_lo) <= _BOUNDARY_CLAMP:
                        continue
                    repels = b < 0.0 if upper else b > 0.0
                    if not _any(repels):
                        continue
                    over = prop - boundary if upper else boundary - prop
                    fix = over > _BOUNDARY_CLAMP
                    fix &= repels
                    sub = fix.nonzero()[0]
                    if sub.size:
                        # the moved values leave both ranges: every mark is in
                        # reach on this step, and by the NaN range on the next
                        span = None
                        x_lo = x_hi = math.nan
                    h = dt
                    for _halving in range(_MAX_HALVINGS):
                        if not sub.size:
                            break
                        h *= 0.5
                        prop[sub] = (xa[sub] + _at(b, sub) * h
                                     + np.sqrt(_at(a, sub) * h) * z[sub])
                        over = prop[sub] - boundary if upper else boundary - prop[sub]
                        sub = sub[over > _BOUNDARY_CLAMP]
                    if sub.size:
                        prop[sub] = boundary  # give up: absorb there

                # boundary absorption (discrete overshoot or bridge crossing):
                # flags at each finite boundary in reach; the bridge test is
                # skipped where the drift repels
                a_dt = a * dt
                absorb = []
                for boundary, upper, stream in from_top:
                    clamped = (-math.inf, boundary) if upper else (boundary, math.inf)
                    if not _near(span, [boundary], *clamped):
                        continue
                    over = prop - boundary if upper else boundary - prop
                    crossed = over >= -_BOUNDARY_CLAMP
                    if cfg.bridge_correction:
                        toward = b >= 0.0 if upper else b <= 0.0
                        if _any(toward):
                            toward = toward & ~crossed
                            gap = (boundary - xa) * (boundary - prop)
                            crossed[_crossings(gap, a_dt, toward, keys, k, stream)] = True
                    absorb.append((boundary, crossed))

                # interior watched levels in reach, by their index j, and the
                # regime's stop level (j = None): discrete or bridge crossings
                cross = []
                for j, level in enumerate(interior):
                    if not (watching[j] and _near(span, [level])):
                        continue
                    gap = (xa - level) * (prop - level)
                    crossed = gap <= 0.0
                    if unhit[j] is not None:
                        crossed &= unhit[j]
                    if cfg.bridge_correction:
                        maybe = ~crossed if unhit[j] is None else unhit[j] & ~crossed
                        stream = interior_streams[j]
                        crossed[_crossings(gap, a_dt, maybe, keys, k, stream)] = True
                    cross.append((j, crossed))
                if stop_at is not None and _near(span, regime_levels):
                    gap = (xa - stop_at) * (prop - stop_at)
                    crossed = gap <= 0.0
                    if cfg.bridge_correction:
                        crossed[_crossings(gap, a_dt, ~crossed, keys, k, regime_stream)] = True
                    cross.append((None, crossed))

                # a step's events: absorption, cap exceedance, level crossings;
                # the cap is tested only where the proposals' max (or a NaN)
                # reaches it
                over_cap = None if p_hi < cfg.cap else prop >= cfg.cap
                event = over_cap
                for _mark, crossed in absorb + cross:
                    event = crossed if event is None else event | crossed

                stopping = None
                switched = False
                sel = _NO_PATHS if event is None else event.nonzero()[0]
                if sel.size:
                    ps = pos[sel]
                    ended = [(boundary, crossed[sel]) for boundary, crossed in absorb]
                    absorbed_now = np.zeros(sel.size, dtype=bool)
                    for _boundary, flags in ended:
                        absorbed_now |= flags
                    capped = (np.zeros(sel.size, dtype=bool) if over_cap is None
                              else over_cap[sel] & ~absorbed_now)
                    hits = {j: crossed[sel] for j, crossed in cross}
                    n_events = absorbed_now.astype(np.int64) + capped
                    for fired in hits.values():
                        n_events += fired
                    tie_count += int(np.count_nonzero(n_events >= 2))

                    # first-crossing times (boundary-sitting levels follow absorption)
                    for j, fired in hits.items():
                        if j is not None and fired.any():
                            hit_t[interior[j]][ps[fired]] = t_next
                            if unhit[j] is not None:
                                unhit[j][sel[fired]] = False
                                switched |= j < n_switch
                    for boundary, flags in ended:
                        if boundary in hit_t:
                            hit_t[boundary][ps[flags]] = t_next

                    # stopping: absorption, cap and stop levels (upper level wins ties)
                    claimed = absorbed_now | capped
                    val = prop[sel]
                    for j in stop_desc:
                        if j in hits:
                            newly = hits[j] & ~claimed
                            val[newly] = interior[j]
                            claimed |= newly
                    if None in hits:
                        newly = hits[None] & ~claimed
                        val[newly] = stop_at[sel[newly]]
                        claimed |= newly
                    absorbed_val = np.where(capped, math.inf, np.nan)
                    for boundary, flags in ended:
                        val[flags] = boundary
                        absorbed_val[flags] = boundary
                    if claimed.any():
                        stopping = sel[claimed]
                        ps = ps[claimed]
                        val = val[claimed]
                        final[ps] = val
                        stop_t[ps] = t_next
                        absorbed[ps] = absorbed_val[claimed]
                        if tint is not None:
                            tint[ps] = tint_a[stopping]

                # every proposal left running lies inside (l + clamp, r - clamp)
                # or is NaN
                xa = prop
                if switched:
                    stop_at = table[_regime([~flags for flags in unhit[:n_switch]])]
                if stopping is not None:
                    keep = np.ones(pos.size, dtype=bool)
                    keep[stopping] = False
                    pos, keys, xa = pos[keep], keys[keep], xa[keep]
                    unhit = [flag if flag is None else flag[keep] for flag in unhit]
                    if tint_a is not None:
                        tint_a = tint_a[keep]
                    if stop_at is not None:
                        stop_at = stop_at[keep]
                    if z_row < len(z_block):
                        zcol = keep.nonzero()[0] if zcol is None else zcol[keep]
                if sel.size:  # hits and stops may have cleared a level's last flag
                    watching = [flags is None or flags.any() for flags in unhit]
                    marks = ([level for level, w in zip(interior, watching) if w]
                             + ends + regime_levels)

            t = t_next
            k += 1
            while snap_i < len(snap_times) and t >= snap_times[snap_i] - _TIME_SLACK:
                snaps[snap_i][pos] = xa
                snap_i += 1

    truncated = np.zeros(n, dtype=bool)
    truncated[pos] = True
    final[pos] = xa
    stop_t[pos] = t
    if tint is not None:
        tint[pos] = tint_a
    # a path that stopped before a snapshot time holds its final value there
    np.copyto(snaps, final, where=np.isnan(snaps))

    return EnsembleResult(
        n=n,
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
    """Refuse a start outside the open interval or a watched level outside [l, r]."""
    if not spec.interval.contains(x0):
        raise ValueError(f"x0={x0} outside the open interval")
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
    hit times, absorption and truncation are that entry's records.
    """
    _check_start(spec, x0, cfg)
    # the grid times, summed in order as the kernel sums them
    times = np.concatenate(([0.0], np.cumsum([dt for n_steps, dt in _phases(cfg)
                                               for _ in range(n_steps)])))
    summary = _simulate(spec, x0, cfg, path_index, 1, times[1:].tolist())
    return PathSample(
        times=times,
        values=np.concatenate([[float(x0)], *summary.snapshots.values()]),
        absorbed_at=float(summary.absorbed_at[0]),
        truncated=bool(summary.truncated[0]),
        hit_times={level: float(t[0]) for level, t in summary.hit_times.items()},
        seed_index=path_index,
    )


def estimate_hitting_prob(spec: DiffusionSpec, x0: float, level_up: float,
                          level_down: float, cfg: SimConfig) -> tuple[McEstimate, dict]:
    """Fraction of paths whose first crossing among {up, down} is up.

    Ties break toward the upper level.  Paths reaching neither level by the
    horizon are excluded from the estimate and counted in the report.
    """
    if not (level_down <= x0 <= level_up) or level_down >= level_up:
        raise ValueError("need level_down <= x0 <= level_up with level_down < level_up")
    run_cfg = replace(cfg, watch_levels=(), stop_levels=(level_up, level_down))
    res = simulate_ensemble(spec, x0, run_cfg)
    t_up = res.hit_times[level_up]
    t_dn = res.hit_times[level_down]
    up_first = np.isfinite(t_up) & (~np.isfinite(t_dn) | (t_up <= t_dn))
    dn_first = np.isfinite(t_dn) & ~up_first
    resolved = int(np.sum(up_first | dn_first))
    report = {
        "n": cfg.n_paths,
        "resolved": resolved,
        "unresolved": cfg.n_paths - resolved,
        "ties": res.tie_count,
    }
    if resolved == 0:
        raise EvalDomainError("no path resolved either level before the horizon")
    return McEstimate.from_binomial(int(np.sum(up_first)), resolved), report
