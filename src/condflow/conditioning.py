"""Three routes to the same conditioned law, and their comparison.

* REJECTION keeps the paths on which the conditioning event happened, at
  uniform weight.
* WEIGHTED keeps every path, weighted by the stopped martingale relative
  to the start point: (X_stop - l)/(x0 - l) upward, x0/X_stop downward,
  with X_stop the value at the horizon on a path the horizon truncated.
* DIRECT simulates the transformed dynamics outright.

All three produce a ConditioningReport carrying one functional sample per
path; `compare_reports` gives the weighted KS statistic of two reports.
The operations run in local-martingale coordinates: pass dynamics whose
coordinate process is itself a nonnegative local martingale (map a general
diffusion through its scale function first).

Never-hit events are operationalized by the divergence cap (first exceedance
of `cfg.cap` plays the hit of infinity) and by the horizon; the fraction of
paths the horizon truncated is a mandatory report field, and more than 1%
unresolved raises NeedLongerHorizonError (but not from a direct sample of a
functional with snapshot times: see `direct_sample`).

`verify_identity_of_measures` measures when P conditioned on the upward
event equals Q, the law of `transform(base, s)`: when the coordinate is a
bounded martingale (r finite: stopped BM on (0, 2)).  A true martingale
that is not uniformly integrable (r infinite: driftless GBM) never reaches
l, so conditioning leaves P as it is, and Q differs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EvalDomainError, NeedLongerHorizonError
from .htransform import transform
from .model import DiffusionSpec, McEstimate
from .scale import ScaleFunction
from .simulate import EnsembleResult, SimConfig, simulate_ensemble
from .stats import KsResult, effective_sample_size, ks_two_sample, ks_weighted

__all__ = [
    "Mode",
    "ConditioningReport",
    "StoppedValueAt",
    "ValueAtTimeOrLevel",
    "TimeAverageUntilStop",
    "FirstHitTime",
    "TerminalValue",
    "condition_upward",
    "condition_downward",
    "direct_sample",
    "compare_reports",
    "verify_identity_of_measures",
    "verify_local_martingality_of_reciprocal",
]

_MAX_UNRESOLVED = 0.01


class Mode(enum.Enum):
    REJECTION = "REJECTION"
    WEIGHTED = "WEIGHTED"
    DIRECT = "DIRECT"


# --- path functionals (stopped-path measurable, ensemble computable) --------


class _Functional:
    """What a functional needs its run to record, beyond the stop level:
    snapshot times, watched levels and the running time integral.  Nothing
    by default; a functional overrides what it reads."""

    snapshot_times: tuple[float, ...] = ()
    watch_levels: tuple[float, ...] = ()
    track_time_average: bool = False


@dataclass(frozen=True)
class StoppedValueAt(_Functional):
    """Path value at t, frozen at the run's stopping events before t."""

    t: float

    @property
    def snapshot_times(self) -> tuple[float, ...]:
        return (self.t,)

    def extract(self, res: EnsembleResult) -> np.ndarray:
        return res.snapshots[self.t].copy()


@dataclass(frozen=True)
class ValueAtTimeOrLevel(_Functional):
    """Path value at t, frozen at `level` if that level was crossed first
    (for functionals measurable before the run's own stopping level)."""

    t: float
    level: float

    @property
    def snapshot_times(self) -> tuple[float, ...]:
        return (self.t,)

    @property
    def watch_levels(self) -> tuple[float, ...]:
        return (self.level,)

    def extract(self, res: EnsembleResult) -> np.ndarray:
        hit = res.hit_times[self.level]
        return np.where(np.isfinite(hit) & (hit <= self.t), self.level, res.snapshots[self.t])


@dataclass(frozen=True)
class TimeAverageUntilStop(_Functional):
    """Time average of the path up to its stop (absorption or freeze)."""

    track_time_average = True

    def extract(self, res: EnsembleResult) -> np.ndarray:
        stop = res.stop_times
        return np.where(stop > 0, res.time_integral / np.maximum(stop, 1e-300), res.final_values)


@dataclass(frozen=True)
class FirstHitTime(_Functional):
    """First crossing time of one level (nan where it never crossed)."""

    level: float

    @property
    def watch_levels(self) -> tuple[float, ...]:
        return (self.level,)

    def extract(self, res: EnsembleResult) -> np.ndarray:
        return res.hit_times[self.level].copy()


@dataclass(frozen=True)
class TerminalValue(_Functional):
    """Value at the stop (absorption value, freeze level, or horizon value)."""

    def extract(self, res: EnsembleResult) -> np.ndarray:
        return res.final_values.copy()


# --- reports -----------------------------------------------------------------


@dataclass
class ConditioningReport:
    """Weighted or unweighted conditional sample of one path functional, with
    `ess` (of `weights`: n_accepted for unit weights) and `acceptance`
    (n_accepted of n_total, None for a direct sample) computed from it."""

    mode: Mode
    n_total: int
    n_accepted: int
    weights: np.ndarray
    functional_samples: np.ndarray
    truncated_fraction: float

    @property
    def ess(self) -> float:
        return effective_sample_size(self.weights)

    @property
    def acceptance(self) -> McEstimate | None:
        if self.mode is Mode.DIRECT:
            return None
        return McEstimate.from_binomial(self.n_accepted, self.n_total)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "n_total": self.n_total,
            "n_accepted": self.n_accepted,
            "ess": self.ess,
            "truncated_fraction": self.truncated_fraction,
        }


def _run(spec: DiffusionSpec, x0: float, functional, cfg: SimConfig,
         stop_level: float) -> EnsembleResult:
    """One run stopped at `stop_level` that records what `functional` reads:
    its watch levels, snapshot times and time integral replace the cfg's."""
    return simulate_ensemble(spec, x0, replace(
        cfg, stop_levels=(stop_level,), watch_levels=functional.watch_levels,
        snapshot_times=functional.snapshot_times,
        track_time_average=functional.track_time_average))


def _check_horizon(res: EnsembleResult, what: str) -> float:
    trunc = res.truncated_fraction()
    if trunc > _MAX_UNRESOLVED:
        raise NeedLongerHorizonError(
            f"{what}: {100 * trunc:.1f}% of paths resolved neither level before the horizon",
            unresolved_fraction=trunc,
        )
    return trunc


def _unit_report(mode: Mode, res: EnsembleResult, samples: np.ndarray,
                 trunc: float) -> ConditioningReport:
    """Unit-weight report: rejection's accepted paths or a direct sample."""
    return ConditioningReport(
        mode=mode,
        n_total=res.n,
        n_accepted=samples.size,
        weights=np.ones(samples.size),
        functional_samples=samples,
        truncated_fraction=trunc,
    )


def _rejection_and_weighted(res: EnsembleResult, functional, level: float, trunc: float,
                            weights: np.ndarray) -> tuple[ConditioningReport, ...]:
    """The (REJECTION, WEIGHTED) pair of one run stopped at `level`: rejection
    keeps the paths that hit `level`, weighting keeps every path at `weights`."""
    samples = functional.extract(res)
    accepted = np.isfinite(res.hit_times[level])
    rejection = _unit_report(Mode.REJECTION, res, samples[accepted], trunc)
    weighted = ConditioningReport(
        mode=Mode.WEIGHTED,
        n_total=res.n,
        n_accepted=rejection.n_accepted,
        weights=weights,
        functional_samples=samples,
        truncated_fraction=trunc,
    )
    return rejection, weighted


def condition_upward(spec: DiffusionSpec, x0: float, a: float, functional,
                     cfg: SimConfig) -> tuple[ConditioningReport, ConditioningReport]:
    """Condition a local martingale to hit `a` before the finite lower
    boundary l; returns (REJECTION, WEIGHTED) reports.

    Rejection keeps paths whose first hit among {a, l} is `a`; weighting
    assigns every path the h-transform weight (X_stop - l)/(x0 - l), which
    is (a - l)/(x0 - l) on the acceptance event, 0 on absorption at l and
    (X_T - l)/(x0 - l) on a path the horizon T truncated: the stopped
    martingale at the stop or T, whose mean is exactly 1.  At l = 0 this is
    the stopped value over x0.
    """
    l = spec.interval.l
    if not (math.isfinite(l) and l < x0 <= a < spec.interval.r):
        raise ValueError("need a finite l and l < x0 <= a < r")
    res = _run(spec, x0, functional, cfg, stop_level=a)
    trunc = _check_horizon(res, "condition_upward")
    weights = (res.final_values - l) / (x0 - l)
    return _rejection_and_weighted(res, functional, a, trunc, weights)


def condition_downward(spec_q: DiffusionSpec, x0: float, level: float, functional,
                       cfg: SimConfig) -> tuple[ConditioningReport, ConditioningReport]:
    """Condition transformed dynamics to hit a low level before diverging.

    The divergence cap plays the hit of infinity: rejection keeps paths that
    reach `level` before exceeding the cap; weighting assigns x0 over the
    stopped value, so exactly x0/level on the acceptance event and a small
    weight on diverged paths.  Horizon-truncated paths stay in the weighted
    sample at x0 over their horizon value, which keeps the stopped
    reciprocal-martingale identity exact.  A path stopped at 0 (absorbed at
    a reachable boundary there) would carry an infinite weight, so any such
    path raises EvalDomainError.
    """
    if not spec_q.interval.l < level <= x0 < spec_q.interval.r:
        raise ValueError("need l < level <= x0 < r")
    res = _run(spec_q, x0, functional, cfg, stop_level=level)
    trunc = _check_horizon(res, "condition_downward")
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = x0 / res.final_values
    infinite = int(np.count_nonzero(~np.isfinite(weights)))
    if infinite:
        raise EvalDomainError(
            f"condition_downward: {infinite} of {res.n} paths stopped at 0, where the "
            f"weight x0/value is not finite")
    return _rejection_and_weighted(res, functional, level, trunc, weights)


def direct_sample(spec: DiffusionSpec, x0: float, functional, cfg: SimConfig,
                  stop_level: float) -> ConditioningReport:
    """Simulate (transformed) dynamics directly and sample the functional.

    A functional with snapshot times (`StoppedValueAt`, `ValueAtTimeOrLevel`)
    reads nothing past its time, which is at most the horizon, so a path the
    horizon truncated is a sample of it too.  For any other functional more
    than 1% unresolved raises NeedLongerHorizonError.
    """
    res = _run(spec, x0, functional, cfg, stop_level=stop_level)
    trunc = (res.truncated_fraction() if functional.snapshot_times
             else _check_horizon(res, "direct_sample"))
    return _unit_report(Mode.DIRECT, res, functional.extract(res), trunc)


def compare_reports(left: ConditioningReport, right: ConditioningReport) -> KsResult:
    """KS between the left report's weighted sample and the right report's
    functional samples.  Neither report changes, so one report can be
    compared with several others.

    Unit weights give the plain two-sample statistic to the last bit.  A
    left report without positive weight raises InsufficientSamplesError.
    """
    return ks_weighted(left.functional_samples, left.weights, right.functional_samples)


# --- scenario measurements ----------------------------------------------------


def verify_identity_of_measures(base: DiffusionSpec, cfg: SimConfig, s: ScaleFunction,
                                functional) -> dict:
    """KS between the base law from 1 conditioned on its upward event and
    the law of `transform(base, s)` from 1 (when they agree: the module
    docstring), with the acceptance and the larger truncated fraction.  With
    r finite both runs stop at r and the 1% horizon rule applies to the
    base run (to the transformed one as `direct_sample` applies it); with r
    infinite the event is never reaching l, which no horizon resolves, so
    both runs go to the horizon, a base reaching l raises, and only a
    functional with snapshot times is fixed by then.
    """
    l, r = base.interval.l, base.interval.r
    bounded = math.isfinite(r)
    res = _run(base, 1.0, functional, cfg, stop_level=r)
    if bounded:
        _check_horizon(res, "verify_identity_of_measures")
    elif np.any(res.absorbed_at == l):
        raise ValueError(f"base reaches l = {l:g}, which the horizon cannot rule out")
    kept = res.absorbed_at == r if bounded else res.absorbed_at != l
    direct = direct_sample(transform(base, s), 1.0, functional, cfg, stop_level=r)
    acceptance = McEstimate.from_binomial(int(np.sum(kept)), res.n)
    return {
        "ks": ks_two_sample(functional.extract(res)[kept], direct.functional_samples).as_dict(),
        "acceptance": {"value": acceptance.value, "stderr": acceptance.stderr},
        "truncated_fraction": max(res.truncated_fraction(), direct.truncated_fraction),
    }


def verify_local_martingality_of_reciprocal(spec_q: DiffusionSpec, cfg: SimConfig,
                                            band: tuple[float, float] = (0.1, 10.0)) -> dict:
    """Measure whether the reciprocal of the transformed coordinate from 1
    behaves like a martingale inside a band, and whether paths diverge past
    10; the verdicts are the `bessel-bm` scenario's (see `scenarios.py`).

    Part 1: the mean of 1/X at t = 1 stopped at the band edges (a martingale
    keeps it at 1).  The band run reads only its snapshot at t, so it stops
    at t + cfg.dt, whatever cfg.horizon; the returned `tie_count` and
    `truncated_fraction` are that run's and so cover [0, t + cfg.dt] (no
    `verify` JSON prints them).  Part 2: the fraction of paths exceeding 10
    before cfg.horizon (it tends to one as the horizon grows), on
    cfg.dt_schedule or, without one, a grid of cfg.dt up to t = 1 that then
    coarsens to a hundredth of the horizon.
    """
    t, level = 1.0, 10.0
    lo, hi = band
    band_cfg = replace(cfg, watch_levels=(), stop_levels=(lo, hi),
                       snapshot_times=(t,), horizon=t + cfg.dt)
    res = simulate_ensemble(spec_q, 1.0, band_cfg)
    stopped = res.snapshots[t]
    recip = McEstimate.from_samples(1.0 / stopped)

    div_cfg = replace(
        cfg,
        watch_levels=(),
        stop_levels=(level,),
        snapshot_times=(),
        dt_schedule=cfg.dt_schedule or ((min(1.0, cfg.horizon / 2), cfg.dt),
                                        (cfg.horizon, min(100 * cfg.dt, cfg.horizon / 100))),
    )
    div = simulate_ensemble(spec_q, 1.0, div_cfg)
    frac = McEstimate.from_binomial(int(np.sum(np.isfinite(div.hit_times[level]))), div.n)
    return {
        "reciprocal_mean": {"value": recip.value, "stderr": recip.stderr},
        "divergence_fraction": {"value": frac.value, "stderr": frac.stderr},
        "tie_count": res.tie_count,
        "truncated_fraction": res.truncated_fraction(),
    }
