"""Three routes to the same conditioned law, and their comparison.

* REJECTION keeps the paths on which the conditioning event happened, at
  uniform weight.
* WEIGHTED keeps every path at the h-transform weight s(X_stop)/s(x0),
  with s the scale normalized at the end not conditioned on and X_stop the
  value at the horizon on a path the horizon truncated.
* DIRECT simulates the transformed dynamics outright.

`condition` gives the first two from one run, upward for an L-normalized
s and downward for an R-normalized one.  Both read its stop record, so a
path whose stop step both crosses the level and is absorbed counts as
absorbed in each: rejection drops it and weighting gives it s(end)/s(x0).
All three produce a ConditioningReport carrying one functional sample per
path; `compare_reports` gives the weighted KS statistic of two reports.

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

from .errors import EvalDomainError, InsufficientSamplesError, NeedLongerHorizonError
from .htransform import transform
from .model import Const, DiffusionSpec, McEstimate
from .scale import Normalization, ScaleFunction, exact_scale
from .simulate import EnsembleResult, SimConfig, simulate_ensemble
from .stats import KsResult, effective_sample_size, ks_two_sample, ks_weighted

__all__ = [
    "Mode",
    "ConditioningReport",
    "StoppedValueAt",
    "TimeAverageUntilStop",
    "condition",
    "condition_upward",
    "condition_downward",
    "direct_sample",
    "compare_reports",
    "verify_identity_of_measures",
    "verify_local_martingality_of_reciprocal",
]

_MAX_UNRESOLVED = 0.01
_BAND = (0.1, 10.0)  # the stop levels of the reciprocal's martingale check


class Mode(enum.Enum):
    REJECTION = "REJECTION"
    WEIGHTED = "WEIGHTED"
    DIRECT = "DIRECT"


# --- path functionals (stopped-path measurable, ensemble computable) --------


class _Functional:
    """What a functional needs its run to record, beyond the stop level:
    snapshot times and the running time integral.  Nothing by default; a
    functional overrides what it reads."""

    snapshot_times: tuple[float, ...] = ()
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
class TimeAverageUntilStop(_Functional):
    """Time average of the path up to its stop (absorption or freeze)."""

    track_time_average = True

    def extract(self, res: EnsembleResult) -> np.ndarray:
        stop = res.stop_times
        return np.where(stop > 0, res.time_integral / np.maximum(stop, 1e-300), res.final_values)


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
    its snapshot times and time integral replace the cfg's, and it watches
    no other level."""
    return simulate_ensemble(spec, x0, replace(
        cfg, stop_levels=(stop_level,), watch_levels=(),
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


def condition(spec: DiffusionSpec, s: ScaleFunction, x0: float, level: float, functional,
              cfg: SimConfig) -> tuple[ConditioningReport, ConditioningReport]:
    """Condition `spec` from x0 to hit `level` first: upward (before l) for
    an L-normalized s, downward (before r, the cap playing an infinite r)
    for an R-normalized one.  Returns the (REJECTION, WEIGHTED) reports of
    one run stopped at `level`: rejection keeps the paths the stop record
    says stopped at it, weighting keeps every path at s(X_stop)/s(x0), with
    X_stop the value at the stop or the horizon and s of a finite end read
    off `s.boundary_limits`.  A weight that is not finite (a path absorbed
    where s is infinite) raises EvalDomainError.  A grid-backed s
    extrapolates past its grid, so its grid must cover every stopped value.
    """
    l, r = spec.interval.l, spec.interval.r
    if s.normalization is None:
        raise ValueError("s must be normalized at l or at r to condition")
    upward = s.normalization is Normalization.L
    what = "condition_upward" if upward else "condition_downward"
    if not (l < x0 <= level < r if upward else l < level <= x0 < r):
        raise ValueError("need l < x0 <= level < r" if upward else "need l < level <= x0 < r")
    res = _run(spec, x0, functional, cfg, stop_level=level)
    trunc = _check_horizon(res, what)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = s(res.final_values)
        for end, limit in zip((l, r), s.boundary_limits):
            if math.isfinite(end):
                h = np.where(res.absorbed_at == end, limit, h)
        weights = h / s(x0)
    infinite = int(np.count_nonzero(~np.isfinite(weights)))
    if infinite:
        raise EvalDomainError(f"{what}: {infinite} of {res.n} paths stopped where the weight "
                              f"s(X)/s(x0) is not finite")
    samples = functional.extract(res)
    accepted = res.stopped_at(level)
    rejection = _unit_report(Mode.REJECTION, res, samples[accepted], trunc)
    return rejection, ConditioningReport(
        mode=Mode.WEIGHTED, n_total=res.n, n_accepted=rejection.n_accepted, weights=weights,
        functional_samples=samples, truncated_fraction=trunc)


def _coordinate_scale(s_fn, ds_fn, spec: DiffusionSpec, x0: float) -> ScaleFunction:
    """The closed form `s_fn` on the grid {x0}, with its values at the ends as limits."""
    with np.errstate(divide="ignore"):
        lim_l, lim_r = s_fn(np.array([spec.interval.l, spec.interval.r]))
    return exact_scale(s_fn, ds_fn, [x0], (float(lim_l), float(lim_r)))


def condition_upward(spec: DiffusionSpec, x0: float, a: float, functional,
                     cfg: SimConfig) -> tuple[ConditioningReport, ConditioningReport]:
    """`condition` upward to `a` for a local martingale with a finite l: its
    scale is the coordinate (y - l)/(x0 - l)."""
    l = spec.interval.l
    if not (math.isfinite(l) and l < x0 <= a < spec.interval.r):
        raise ValueError("need a finite l and l < x0 <= a < r")
    s = _coordinate_scale(lambda y: (y - l) / (x0 - l), Const(1.0 / (x0 - l)), spec, x0)
    return condition(spec, s, x0, a, functional, cfg)


def condition_downward(spec_q: DiffusionSpec, x0: float, level: float, functional,
                       cfg: SimConfig) -> tuple[ConditioningReport, ConditioningReport]:
    """`condition` downward to `level` for dynamics on (l, inf) whose
    reciprocal is a local martingale: their scale is -x0/y."""
    s = _coordinate_scale(lambda y: -x0 / y, lambda y: x0 / (y * y), spec_q, x0)
    return condition(spec_q, s, x0, level, functional, cfg)


def direct_sample(spec: DiffusionSpec, x0: float, functional, cfg: SimConfig,
                  stop_level: float) -> ConditioningReport:
    """Simulate (transformed) dynamics directly and sample the functional.

    A functional with a snapshot time (`StoppedValueAt`) reads nothing past
    its time, which is at most the horizon, so a path the horizon truncated
    is a sample of it too.  For any other functional (`TimeAverageUntilStop`)
    more than 1% unresolved raises NeedLongerHorizonError.
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
    r finite both runs stop at r, the 1% horizon rule applies to the base
    run (to the transformed one as `direct_sample` applies it) and the
    accepted base paths are those its stop record stops at r (none raises
    InsufficientSamplesError); with r
    infinite the event is never reaching l, which no horizon resolves, so
    both runs go to the horizon, a base reaching l raises, every other path
    is accepted, and only a functional with snapshot times is fixed by then.

    Both runs take `cfg` as it is, seed included, so the transformed run
    draws the base run's step normals: the two samples share their noise,
    and the KS is not the independent two-sample test whose critical value
    it reports.
    """
    l, r = base.interval.l, base.interval.r
    bounded = math.isfinite(r)
    res = _run(base, 1.0, functional, cfg, stop_level=r)
    if bounded:
        _check_horizon(res, "verify_identity_of_measures")
    elif np.any(res.absorbed_at == l):
        raise ValueError(f"base reaches l = {l:g}, which the horizon cannot rule out")
    kept = res.stopped_at(r) if bounded else np.full(res.n, True)
    if not np.any(kept):
        raise InsufficientSamplesError(f"verify_identity_of_measures: the base run "
                                       f"(n = {res.n}) has no path stopped at r = {r:g}")
    direct = direct_sample(transform(base, s), 1.0, functional, cfg, stop_level=r)
    acceptance = McEstimate.from_binomial(int(np.sum(kept)), res.n)
    return {
        "ks": ks_two_sample(functional.extract(res)[kept], direct.functional_samples).as_dict(),
        "acceptance": {"value": acceptance.value, "stderr": acceptance.stderr},
        "truncated_fraction": max(res.truncated_fraction(), direct.truncated_fraction),
    }


def verify_local_martingality_of_reciprocal(spec_q: DiffusionSpec, cfg: SimConfig) -> dict:
    """Measure whether the reciprocal of the transformed coordinate from 1
    behaves like a martingale inside the band (1/10, 10), and whether paths
    diverge past 10; the verdicts are the `bessel-bm` scenario's (see
    `scenarios.py`).

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
    band_cfg = replace(cfg, watch_levels=(), stop_levels=_BAND,
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
    frac = McEstimate.from_binomial(int(np.sum(div.stopped_at(level))), div.n)
    return {
        "reciprocal_mean": {"value": recip.value, "stderr": recip.stderr},
        "divergence_fraction": {"value": frac.value, "stderr": frac.stderr},
        "tie_count": res.tie_count,
        "truncated_fraction": res.truncated_fraction(),
    }
