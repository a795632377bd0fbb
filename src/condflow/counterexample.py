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

from dataclasses import dataclass, replace

import numpy as np

from .conditioning import _check_horizon
from .errors import InsufficientSamplesError
from .model import McEstimate, PathSample, bm
from .simulate import _TIME_SLACK, EnsembleResult, SimConfig, _regime, _simulate
from .stats import ks_weighted

__all__ = [
    "build_tilde",
    "TildeEnsemble",
    "run_tilde_ensemble",
    "compare_conditionings",
]

_SWITCHES = (0.75, 0.25)  # the regime switch levels, in the order X reaches them
_A = 2.0  # the level tilde(X) is conditioned to hit before 0, above its start 1
_T_SNAP = 0.5  # the time at which the transformed process's mean is taken


def _tilde_formula(x: np.ndarray, before_hi: np.ndarray, between: np.ndarray) -> np.ndarray:
    return x + (x - 1.0) * before_hi + (0.125 - 0.5 * x) * between


def build_tilde(path: PathSample) -> np.ndarray:
    """The two-regime transformation of a full path, on the path's grid.

    The path must carry hit times for levels 3/4 and 1/4 (watch them when
    simulating); the regime at each grid time takes the switches hit
    strictly before it, as `TildeEnsemble` reads it.
    """
    if not set(_SWITCHES) <= path.hit_times.keys():
        raise ValueError("path lacks hit times for levels 3/4 and 1/4")
    times = np.asarray(path.times)
    regime = _regime([path.hit_times[level] < times for level in _SWITCHES])  # nan: never
    return _tilde_formula(np.asarray(path.values), regime == 0, regime == 1)


@dataclass
class TildeEnsemble:
    """The kernel's record of the walk stopped at {a, 0}, and what the tilde
    construction reads off it.  `run.final_values` is X at the stop (the
    recipe's weight), and `run.absorbed_at` is 0 where X (and tilde) hit 0
    first."""

    run: EnsembleResult

    @property
    def hit_a_time(self) -> np.ndarray:
        """The stop time of a path that stopped at a, nan on the others."""
        res = self.run
        return np.where(~res.truncated & np.isnan(res.absorbed_at), res.stop_times, np.nan)

    def _regime_before(self, t: np.ndarray) -> np.ndarray:
        # a switch counts from the step after its crossing, so the regime at
        # a grid time takes the switches crossed strictly before it
        return _regime([self.run.hit_times[level] < t for level in _SWITCHES])

    @property
    def regime_at_stop(self) -> np.ndarray:
        return self._regime_before(self.run.stop_times)

    @property
    def tilde_at_snap(self) -> np.ndarray:
        """The tilde value at 1/2, or at the stop before it."""
        res = self.run
        # the snapshot's grid time is the first from _T_SNAP - _TIME_SLACK on
        regime = self._regime_before(np.minimum(res.stop_times, _T_SNAP - _TIME_SLACK))
        x_snap = res.snapshots[_T_SNAP]
        tilde = _tilde_formula(x_snap, regime == 0, regime == 1)
        tilde[x_snap == 0.0] = 0.0  # tilde(X) is 0 exactly where X is
        return tilde


def run_tilde_ensemble(cfg: SimConfig) -> TildeEnsemble:
    """Walk Brownian paths from 1, tracking the transformed process, until
    the transformed process hits a = 2 or the base path is absorbed at 0.

    The walk is one run of the simulator's kernel: it watches the switch
    levels and stops each path at the X level where tilde(X) = a in its
    regime, and records X at t = 1/2.  Of `cfg` it reads the grid, horizon,
    cap, seed, path count and bridge correction.
    """
    run_cfg = replace(cfg, watch_levels=_SWITCHES, stop_levels=(), track_time_average=False)
    # tilde(X) = a at X = (a + 1)/2, 2a - 1/4 and a in regimes 0, 1 and 2
    levels = ((_A + 1.0) / 2.0, 2.0 * _A - 0.25, _A)
    return TildeEnsemble(_simulate(bm(), 1.0, run_cfg, 0, cfg.n_paths, [_T_SNAP],
                                   levels_by_regime=levels))


def compare_conditionings(cfg: SimConfig) -> dict:
    """Conditional law along the transformed sequence vs the stopped-value
    weighting, on independent halves of the ensemble.

    Measures the frequency of {X != tilde(X) at the stop}, the KS statistic
    between the two conditional samples of the hitting time of a = 2, and the
    mean of the transformed process at t = 1/2; the verdicts are the
    `counterexample` scenario's (see `scenarios.py`).  More than 1% of paths
    unresolved at the horizon raises NeedLongerHorizonError, and a half with
    no usable path (no hit of a in the first, no positive weight in the
    second) InsufficientSamplesError.
    """
    tilde = run_tilde_ensemble(cfg)
    res = tilde.run
    trunc = _check_horizon(res, "compare_conditionings")
    resolved = ~res.truncated

    first = np.arange(res.n) < res.n // 2
    hit_a_time = tilde.hit_a_time
    accept_a = np.isfinite(hit_a_time)
    rej_mask = first & accept_a & resolved
    wgt_mask = ~first & resolved
    rejection_sample = hit_a_time[rej_mask]
    weighted_sample = hit_a_time[wgt_mask]
    weights = res.final_values[wgt_mask]
    # never-hit paths carry weight 0 (X stopped at 0); drop their nan times
    keep = weights > 0
    if not np.any(rej_mask):
        raise InsufficientSamplesError(
            f"compare_conditionings: the rejection half (n = {res.n // 2}) has no path "
            f"that hit a = {_A:g}")
    if not np.any(keep):
        raise InsufficientSamplesError(
            f"compare_conditionings: the weighted half (n = {res.n - res.n // 2}) has no "
            f"path of positive weight")
    ks = ks_weighted(weighted_sample[keep], weights[keep], rejection_sample)

    differs = accept_a & (tilde.regime_at_stop < 2)
    freq_diff = float(np.sum(differs & resolved)) / max(int(np.sum(resolved)), 1)
    mart = McEstimate.from_samples(tilde.tilde_at_snap)
    return {
        "freq_stop_value_differs": freq_diff,
        "ks": ks.as_dict(),
        "martingale_mean": {"value": mart.value, "stderr": mart.stderr},
        "tie_count": res.tie_count,
        "truncated_fraction": trunc,
    }
