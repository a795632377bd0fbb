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

The ensemble walk runs on the simulator's step kernel (`simulate._simulate`):
Brownian motion from 1 absorbed at 0, watching 3/4 and 1/4, with one stop
level per path, the X level at which tilde(X) = a in the path's regime.  A
switch detected on a step applies from the next step, so, as in
`build_tilde`, the grid sample where a switch level is first reached belongs
to the earlier regime (the affected fraction of steps vanishes with dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conditioning import _check_horizon
from .errors import InsufficientSamplesError
from .model import McEstimate, PathSample, bm
from .simulate import _TIME_SLACK, EnsembleResult, SimConfig, _regime, _simulate
from .stats import effective_sample_size, ks_weighted

__all__ = [
    "build_tilde",
    "TildeEnsemble",
    "run_tilde_ensemble",
    "compare_conditionings",
]

_REGIME_SWITCH_HI = 0.75
_REGIME_SWITCH_LO = 0.25
_T_SNAP = 0.5  # the time at which the transformed process's mean is taken


def _tilde_formula(x: np.ndarray, before_hi: np.ndarray, between: np.ndarray) -> np.ndarray:
    return x + (x - 1.0) * before_hi + (0.125 - 0.5 * x) * between


def build_tilde(path: PathSample) -> np.ndarray:
    """The two-regime transformation of a full path, on the path's grid.

    The path must carry hit times for levels 3/4 and 1/4 (watch them when
    simulating); regime switches are taken from those.
    """
    if not {_REGIME_SWITCH_HI, _REGIME_SWITCH_LO} <= path.hit_times.keys():
        raise ValueError("path lacks hit times for levels 3/4 and 1/4")
    switches = (path.hit_times[_REGIME_SWITCH_HI], path.hit_times[_REGIME_SWITCH_LO])
    # a level never hit switches at infinity: times <= nan would all be False
    t_hi, t_lo = (math.inf if math.isnan(t) else t for t in switches)
    times = np.asarray(path.times)
    before_hi = times <= t_hi
    between = (times > t_hi) & (times <= t_lo)
    return _tilde_formula(np.asarray(path.values), before_hi, between)


@dataclass
class TildeEnsemble:
    """The kernel's record of the walk stopped at {a, 0}, with what the
    tilde construction adds.  `run.final_values` is X at the stop (the
    recipe's weight), and `run.absorbed_at` is 0 where X (and tilde) hit 0
    first."""

    run: EnsembleResult
    hit_a_time: np.ndarray        # nan = did not hit a
    regime_at_stop: np.ndarray
    tilde_at_snap: np.ndarray     # tilde value at 1/2 ^ stop


def run_tilde_ensemble(cfg: SimConfig, a: float = 2.0) -> TildeEnsemble:
    """Walk Brownian paths from 1, tracking the transformed process, until
    the transformed process hits `a` or the base path is absorbed at 0.

    The walk is one run of the simulator's kernel: it watches the switch
    levels and stops each path at the X level where tilde(X) = a in its
    regime, and records the transformed value at t = 1/2.  Of `cfg` it reads
    the grid, horizon, cap, seed, path count and bridge correction.
    """
    if a <= 1.0:
        raise ValueError("a must exceed the start point 1")
    switches = (_REGIME_SWITCH_HI, _REGIME_SWITCH_LO)
    run_cfg = replace(cfg, watch_levels=switches, stop_levels=(), track_time_average=False)
    # tilde(X) = a at X = (a + 1)/2, 2a - 1/4 and a in regimes 0, 1 and 2
    levels = ((a + 1.0) / 2.0, 2.0 * a - 0.25, a)
    res = _simulate(bm(), 1.0, run_cfg, 0, cfg.n_paths, [_T_SNAP], levels_by_regime=levels)

    hit_a = ~res.truncated & np.isnan(res.absorbed_at)
    # a switch counts from the step after its crossing, so the regime at a
    # grid time takes the switches crossed strictly before it; the snapshot's
    # grid time is the first from _T_SNAP - _TIME_SLACK on
    t_switch = [res.hit_times[level] for level in switches]
    t_snap_ref = np.minimum(res.stop_times, _T_SNAP - _TIME_SLACK)
    regime_at_snap = _regime([t < t_snap_ref for t in t_switch])
    x_snap = res.snapshots[_T_SNAP]
    tilde_at_snap = _tilde_formula(x_snap, regime_at_snap == 0, regime_at_snap == 1)
    tilde_at_snap[x_snap == 0.0] = 0.0  # tilde(X) is 0 exactly where X is
    return TildeEnsemble(
        run=res,
        hit_a_time=np.where(hit_a, res.stop_times, np.nan),
        regime_at_stop=_regime([t < res.stop_times for t in t_switch]),
        tilde_at_snap=tilde_at_snap,
    )


def compare_conditionings(cfg: SimConfig, a: float = 2.0) -> dict:
    """Conditional law along the transformed sequence vs the stopped-value
    weighting, on independent halves of the ensemble.

    Measures the frequency of {X != tilde(X) at the stop}, the KS statistic
    between the two conditional samples of the hitting time of `a`, and the
    mean of the transformed process at t = 1/2; the verdicts are the
    `counterexample` scenario's (see `scenarios.py`).  More than 1% of paths
    unresolved at the horizon raises NeedLongerHorizonError, and a half with
    no usable path (no hit of `a` in the first, no positive weight in the
    second) InsufficientSamplesError.
    """
    tilde = run_tilde_ensemble(cfg, a=a)
    res = tilde.run
    trunc = _check_horizon(res, "compare_conditionings")
    resolved = ~res.truncated

    first = np.arange(res.n) < res.n // 2
    accept_a = np.isfinite(tilde.hit_a_time)
    rej_mask = first & accept_a & resolved
    wgt_mask = ~first & resolved
    rejection_sample = tilde.hit_a_time[rej_mask]
    weighted_sample = tilde.hit_a_time[wgt_mask]
    weights = res.final_values[wgt_mask]
    # never-hit paths carry weight 0 (X stopped at 0); drop their nan times
    keep = weights > 0
    if not np.any(rej_mask):
        raise InsufficientSamplesError(
            f"compare_conditionings: the rejection half (n = {res.n // 2}) has no path "
            f"that hit a = {a:g}")
    if not np.any(keep):
        raise InsufficientSamplesError(
            f"compare_conditionings: the weighted half (n = {res.n - res.n // 2}) has no "
            f"path of positive weight")
    ks = ks_weighted(weighted_sample[keep], weights[keep], rejection_sample)

    differs = accept_a & (tilde.regime_at_stop < 2)
    freq_diff = float(np.sum(differs & resolved)) / max(int(np.sum(resolved)), 1)
    mart = McEstimate.from_samples(tilde.tilde_at_snap)
    return {
        "a": a,
        "n": res.n,
        "freq_stop_value_differs": freq_diff,
        "ks": ks.as_dict(),
        "martingale_mean": {"value": mart.value, "stderr": mart.stderr},
        "acceptance_fraction": float(np.mean(accept_a[resolved])),
        "ess_weighted": effective_sample_size(weights[keep]),
        "tie_count": res.tie_count,
        "truncated_fraction": trunc,
    }
