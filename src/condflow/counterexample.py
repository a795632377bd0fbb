"""Conditioning on the same nullset along two approximating sequences.

From a coordinate process X (Brownian motion from 1 stopped at 0) build

    tilde(X)_t = X_t + (X_t - 1) 1{T_{3/4} >= t} + (1/8 - X_t/2) 1{T_{3/4} < t <= T_{1/4}},

which moves twice as much as X until X hits 3/4, then half as much until X
catches up at 1/4, and afterwards equals X.  It hits zero exactly when X
does, so conditioning "tilde(X) hits a before 0" approximates the same
nullset {X never hits 0} as a grows.  Yet weighting by the stopped value of
X (the recipe that realizes the plain conditioning) produces a different
measure, because X and tilde(X) disagree at the stopping time with positive
probability.  This module builds tilde paths, and compares the two
conditional samples to exhibit the disagreement.

At grid resolution the sample where a regime boundary is first reached is
assigned to the earlier regime; steps on which the regime switches use the
post-switch affine map for the bridge crossing test (the affected fraction
of steps vanishes with dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NeedLongerHorizonError
from .model import McEstimate, PathSample
from .simulate import SimConfig, _crossings, _phases
from .stats import effective_sample_size, ks_weighted

__all__ = [
    "TildePath",
    "build_tilde",
    "TildeEnsemble",
    "run_tilde_ensemble",
    "compare_conditionings",
]

_REGIME_SWITCH_HI = 0.75
_REGIME_SWITCH_LO = 0.25


@dataclass(frozen=True)
class TildePath:
    """A base path together with its transformed values on the same grid."""

    base: PathSample
    tilde_values: np.ndarray


def _tilde_formula(x: np.ndarray, before_hi: np.ndarray, between: np.ndarray) -> np.ndarray:
    return x + (x - 1.0) * before_hi + (0.125 - 0.5 * x) * between


def build_tilde(path: PathSample) -> TildePath:
    """Apply the two-regime transformation to a full path.

    The path must carry hitting records for levels 3/4 and 1/4 (watch them
    when simulating); regime switches are taken from those records.
    """
    rec_hi = path.hit(_REGIME_SWITCH_HI)
    rec_lo = path.hit(_REGIME_SWITCH_LO)
    if rec_hi is None or rec_lo is None:
        raise ValueError("path lacks hitting records for levels 3/4 and 1/4")
    times = np.asarray(path.times)
    x = np.asarray(path.values)
    t_hi = rec_hi.time if rec_hi.crossed else math.inf
    t_lo = rec_lo.time if rec_lo.crossed else math.inf
    before_hi = times <= t_hi
    between = (times > t_hi) & (times <= t_lo)
    return TildePath(base=path, tilde_values=_tilde_formula(x, before_hi, between))


def _x_level(tilde_level: float, regime: np.ndarray) -> np.ndarray:
    """X-level whose crossing means tilde(X) crosses `tilde_level`, per regime."""
    return np.select(
        [regime == 0, regime == 1],
        [(tilde_level + 1.0) / 2.0, 2.0 * tilde_level - 0.25],
        default=tilde_level,
    )


@dataclass
class TildeEnsemble:
    """Per-path summaries of the transformed walk stopped at {a, 0}."""

    n: int
    hit_a_time: np.ndarray        # nan = did not hit a
    absorbed: np.ndarray          # bool: X (and tilde) hit 0 first
    truncated: np.ndarray
    weight_x: np.ndarray          # X at the stop (the recipe's weight)
    regime_at_stop: np.ndarray
    tilde_at_snap: np.ndarray     # tilde value at t_snap ^ stop
    tie_count: int


def _switched(xa, x_new, level, eligible, dt, keys, step, stream, bridge):
    """Paths whose X reaches `level` from above this step (overshoot, or the
    bridge when `bridge`), among `eligible`."""
    crossed = eligible & (x_new <= level)
    if bridge:
        gap = (level - xa) * (level - x_new)
        maybe = eligible & ~crossed & (xa > level) & (gap > 0)
        crossed[_crossings(gap, dt, maybe, keys, step, stream)] = True
    return crossed


def run_tilde_ensemble(cfg: SimConfig, a: float = 2.0, t_snap: float = 0.5) -> TildeEnsemble:
    """Walk Brownian paths from 1, tracking the transformed process, until
    the transformed process hits `a` or the base path is absorbed at 0."""
    if a <= 1.0:
        raise ValueError("a must exceed the start point 1")
    n = cfg.n_paths
    bridge = cfg.bridge_correction
    hit_a_time = np.full(n, np.nan)
    absorbed = np.zeros(n, dtype=bool)
    weight_x = np.full(n, np.nan)
    regime_at_stop = np.full(n, -1, dtype=np.int64)
    tilde_at_snap = np.full(n, np.nan)
    snap_done = False
    tie_count = 0

    # compacted state of the running paths, in path order
    pos = np.arange(n, dtype=np.int64)
    keys = rng.path_keys(cfg.seed, pos)
    xa = np.ones(n)
    tp = np.ones(n)
    ra = np.zeros(n, dtype=np.int64)

    t = 0.0
    k = 0
    for n_steps, dt in _phases(cfg):
        sqrt_dt = math.sqrt(dt)
        for _ in range(n_steps):
            if not pos.size:
                break
            t_next = t + dt
            z = rng.normals(keys, k, rng.STREAM_TILDE_NORMAL)
            x_new = xa + sqrt_dt * z

            # base-path absorption at 0 (discrete or bridge)
            absorb = x_new <= 0.0
            if bridge:
                gap = xa * x_new  # (0 - xa)(0 - x_new)
                absorb[_crossings(gap, dt, ~absorb, keys, k, rng.STREAM_TILDE_ABSORB)] = True
            np.maximum(x_new, 0.0, out=x_new)
            x_new[absorb] = 0.0
            tilde_new = _tilde_formula(x_new, ra == 0, ra == 1)

            # transformed process crossing `a`
            lvl_x = _x_level(a, ra)
            crossed = (tp - a) * (tilde_new - a) <= 0.0
            if bridge:
                gap = (lvl_x - xa) * (lvl_x - x_new)
                maybe = ~crossed & ~absorb & (gap > 0)
                crossed[_crossings(gap, dt, maybe, keys, k, rng.STREAM_TILDE_LEVEL)] = True

            tie_count += int(np.sum(crossed & absorb))
            hit_a = crossed  # ties break toward the upper level
            absorb_now = absorb & ~hit_a
            stopping = hit_a | absorb_now
            stopped = bool(np.any(stopping))
            if stopped:
                hit_sel = pos[hit_a]
                hit_a_time[hit_sel] = t_next
                weight_x[hit_sel] = lvl_x[hit_a]
                regime_at_stop[hit_sel] = ra[hit_a]
                ab_sel = pos[absorb_now]
                absorbed[ab_sel] = True
                weight_x[ab_sel] = 0.0
                regime_at_stop[ab_sel] = ra[absorb_now]
                sel = pos[stopping]
                still = np.isnan(tilde_at_snap[sel])
                tilde_at_snap[sel[still]] = np.where(hit_a[stopping], a, 0.0)[still]

            # regime upgrades apply from the next sample on; detecting the
            # switch with the bridge as well as by overshoot balances the
            # rebasing error of the two affine maps around the level
            ra[_switched(xa, x_new, _REGIME_SWITCH_HI, ra == 0, dt, keys, k,
                         rng.STREAM_SWITCH_HI, bridge)] = 1
            ra[_switched(xa, x_new, _REGIME_SWITCH_LO, ra == 1, dt, keys, k,
                         rng.STREAM_SWITCH_LO, bridge)] = 2

            xa, tp = x_new, tilde_new
            if stopped:
                go_on = ~stopping
                pos, keys, ra, xa, tp = pos[go_on], keys[go_on], ra[go_on], xa[go_on], tp[go_on]
            t = t_next
            k += 1
            if not snap_done and t >= t_snap - 1e-12:
                tilde_at_snap[pos] = tp
                snap_done = True

    truncated = np.zeros(n, dtype=bool)
    truncated[pos] = True
    still = np.isnan(tilde_at_snap[pos])
    tilde_at_snap[pos[still]] = tp[still]
    return TildeEnsemble(
        n=n,
        hit_a_time=hit_a_time,
        absorbed=absorbed,
        truncated=truncated,
        weight_x=weight_x,
        regime_at_stop=regime_at_stop,
        tilde_at_snap=tilde_at_snap,
        tie_count=tie_count,
    )


def compare_conditionings(cfg: SimConfig, a: float = 2.0, t_snap: float = 0.5) -> dict:
    """Conditional law along the transformed sequence vs the stopped-value
    weighting, on independent halves of the ensemble.

    Reports the frequency of {X != tilde(X) at the stop}, the KS statistic
    between the two conditional samples of the hitting time of `a` (expected
    ABOVE the critical value: the measures differ), and the martingale check
    on the transformed process.
    """
    res = run_tilde_ensemble(cfg, a=a, t_snap=t_snap)
    resolved = ~res.truncated
    unresolved = 1.0 - float(np.mean(resolved))
    if unresolved > 0.01:
        raise NeedLongerHorizonError(
            f"compare_conditionings: {100 * unresolved:.1f}% of paths unresolved",
            unresolved_fraction=unresolved,
        )

    half = res.n // 2
    first = np.zeros(res.n, dtype=bool)
    first[:half] = True

    accept_a = np.isfinite(res.hit_a_time)
    rej_mask = first & accept_a & resolved
    wgt_mask = ~first & resolved
    rejection_sample = res.hit_a_time[rej_mask]
    weighted_sample = res.hit_a_time[wgt_mask]
    weights = res.weight_x[wgt_mask]
    # never-hit paths carry weight 0 (X stopped at 0); drop their nan times
    keep = weights > 0
    if not np.any(rej_mask) or not np.any(keep):
        raise NeedLongerHorizonError("no accepted paths", unresolved_fraction=1.0)
    ks = ks_weighted(weighted_sample[keep], weights[keep], rejection_sample)

    differs = accept_a & (res.regime_at_stop < 2)
    freq_diff = float(np.sum(differs & resolved)) / max(int(np.sum(resolved)), 1)
    mart = McEstimate.from_samples(res.tilde_at_snap)
    mart_pass = abs(mart.value - 1.0) <= 4 * max(mart.stderr, 1e-12)
    return {
        "a": a,
        "n": res.n,
        "freq_stop_value_differs": freq_diff,
        "ks": ks.as_dict(),
        "measures_differ": not ks.passed,
        "martingale_mean": {"value": mart.value, "stderr": mart.stderr},
        "martingale_pass": mart_pass,
        "acceptance_fraction": float(np.mean(accept_a[resolved])),
        "ess_weighted": effective_sample_size(weights[keep]),
        "tie_count": res.tie_count,
        "truncated_fraction": unresolved,
        "pass": (freq_diff > 0.1) and (not ks.passed) and mart_pass,
    }
