"""Verification scenarios: each runs a bundle of named checks and reports
one PASS/FAIL per check.

These are the library-level runners behind the command line's `verify`
subcommand and the acceptance test suite.  The library measures; every
check's threshold and target is stated here, once.  Randomized checks use
four standard errors of tolerance; distribution comparisons use the 1% KS
critical value (or twice it where flagged as a smoke check).  Every check is
deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .conditioning import (
    StoppedValueAt,
    TimeAverageUntilStop,
    compare_reports,
    condition_downward,
    condition_upward,
    direct_sample,
    verify_identity_of_measures,
    verify_local_martingality_of_reciprocal,
)
from .counterexample import compare_conditionings
from .exprparse import parse_expr
from .htransform import check_generator_identity, downward_scale, transform
from .jumpwalk import (
    JumpWalkSpec,
    Measure,
    discrete_generator,
    simulate_walk,
    verify_generator_limit,
    verify_reciprocal_supermartingale,
    walk_vs_bessel,
)
from .model import DiffusionSpec, Interval, McEstimate, bessel3, bm, gbm
from .scale import GridConfig, Normalization, compute_scale, exact_scale
from .simulate import SimConfig, estimate_hitting_prob, simulate_ensemble

__all__ = ["SCENARIOS", "run_scenario"]

_DT = 1e-3       # the Euler step of every simulated bundle (the early step, where it coarsens)
_N_KS = 10_000   # paths per KS sample (bm-bessel's rejection side runs twice as many)


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "pass": bool(passed), "detail": detail}


def _within_4se(value: float, target: float, stderr: float) -> bool:
    """The randomized checks' rule: within 4 stderr (at least 1e-12) of the target."""
    return abs(value - target) <= 4.0 * max(stderr, 1e-12)


def _bundle(scenario: str, checks: list[dict]) -> dict:
    return {
        "schema": 1,
        "scenario": scenario,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def scenario_bm_bessel(n: int = 100_000, seed: int = 2024) -> dict:
    """Hitting identity for the coordinate martingale, and upward
    conditioning against directly simulated conditioned dynamics."""
    checks = []
    for a, horizon in ((2.0, 20.0), (4.0, 40.0)):
        cfg = SimConfig(dt=_DT, horizon=horizon, seed=seed, n_paths=n)
        est, rep = estimate_hitting_prob(bm(), 1.0, a, 0.0, cfg)
        target = 1.0 / a
        checks.append(_check(
            f"hitting-identity-a{int(a)}",
            _within_4se(est.value, target, est.stderr),
            estimate=est.value, stderr=est.stderr, target=target,
            unresolved=rep["unresolved"], ties=rep["ties"],
        ))

    # the rejection side keeps about half its paths, so run twice as many;
    # the direct route runs BM's h-transform, BES(3)
    cfg = SimConfig(dt=_DT, horizon=20.0, seed=seed + 1, n_paths=2 * _N_KS)
    rejection, _weighted = condition_upward(bm(), 1.0, 2.0, StoppedValueAt(0.25), cfg)
    s = compute_scale(bm(), 1.0, GridConfig(y_min=1e-3, y_max=50.0), Normalization.L)
    direct = direct_sample(transform(bm(), s), 1.0, StoppedValueAt(0.25),
                           replace(cfg, seed=seed + 2, n_paths=_N_KS), stop_level=2.0)
    ks = compare_reports(rejection, direct)
    checks.append(_check(
        "upward-conditioning-matches-direct",
        ks.passed,
        ks_stat=ks.statistic, critical_1pct=ks.critical_1pct,
        n_accepted=rejection.n_accepted,
        acceptance=rejection.acceptance.value,
    ))
    return _bundle("bm-bessel", checks)


def scenario_bessel_bm(n: int = 10_000, seed: int = 2025) -> dict:
    """Downward conditioning of the conditioned dynamics recovers the base
    law, plus reciprocal-martingale and divergence checks."""
    checks = []
    # conditioned dynamics run to a long horizon; hits of the low level are
    # detected on the fine early grid, the slow divergence on a coarse one
    cfg_down = SimConfig(
        dt=_DT, horizon=10_000.0, cap=100.0, seed=seed, n_paths=n,
        dt_schedule=((1.0, _DT), (10.0, 10 * _DT), (10_000.0, 0.25)),
    )
    rejection, weighted = condition_downward(bessel3(), 1.0, 0.5, StoppedValueAt(0.1), cfg_down)
    cfg_ref = SimConfig(dt=_DT, horizon=0.2, seed=seed + 1, n_paths=n)
    reference = direct_sample(bm(), 1.0, StoppedValueAt(0.1), cfg_ref, stop_level=0.5)
    ks = compare_reports(weighted, reference)
    checks.append(_check(
        "downward-roundtrip-ks",
        ks.passed,
        ks_stat=ks.statistic, critical_1pct=ks.critical_1pct, ess=weighted.ess,
        truncated_fraction=weighted.truncated_fraction,
    ))
    acc = rejection.acceptance
    checks.append(_check(
        "downward-acceptance-half",
        _within_4se(acc.value, 0.5, acc.stderr),
        acceptance=acc.value, stderr=acc.stderr, target=0.5,
    ))

    # the band run stops just after t = 1; the divergence run goes to the horizon
    cfg_recip = SimConfig(dt=_DT, horizon=200.0, seed=seed + 2, n_paths=n)
    recip = verify_local_martingality_of_reciprocal(bessel3(), cfg_recip, band=(0.1, 10.0))
    mean = recip["reciprocal_mean"]
    checks.append(_check(
        "reciprocal-band-martingale",
        _within_4se(mean["value"], 1.0, mean["stderr"]),
        **mean, target=1.0,
    ))
    checks.append(_check(
        "divergence-past-10-by-200",
        recip["divergence_fraction"]["value"] >= 0.95,
        fraction=recip["divergence_fraction"]["value"],
        stderr=recip["divergence_fraction"]["stderr"],
    ))
    return _bundle("bessel-bm", checks)


def scenario_gbm(n: int = 10_000, seed: int = 2026) -> dict:
    """Unit-drift transform of geometric Brownian motion, and the strict
    difference between base and transformed laws."""
    checks = []
    base = gbm()
    s = compute_scale(base, 1.0, GridConfig(y_min=1e-3, y_max=50.0), Normalization.L)
    result = transform(base, s)
    grid = np.linspace(0.1, 10.0, 199)
    drift_err = float(np.max(np.abs(result.drift(grid) - grid)))
    checks.append(_check("transformed-drift-is-y", drift_err <= 1e-6, max_error=drift_err))

    cfg = SimConfig(dt=_DT, horizon=1.0 + _DT, seed=seed, n_paths=n, snapshot_times=(1.0,))
    run = simulate_ensemble(result, 1.0, cfg)
    log_mean = McEstimate.from_samples(np.log(run.snapshots[1.0]))
    checks.append(_check(
        "log-mean-at-1-is-half",
        _within_4se(log_mean.value, 0.5, log_mean.stderr),
        mean=log_mean.value, stderr=log_mean.stderr, target=0.5,
    ))

    ident = verify_identity_of_measures(base, replace(cfg, seed=seed + 1), s, StoppedValueAt(1.0))
    checks.append(_check("p-and-q-measures-differ", not ident["ks"]["pass"], **ident["ks"]))
    return _bundle("gbm", checks)


def scenario_stopped_bm(n: int = 10_000, seed: int = 2027) -> dict:
    """Rejection conditioning on absorption at the top equals the
    transformed dynamics when the coordinate is a bounded martingale."""
    base = bm(0.0, 2.0)
    s = compute_scale(base, 1.0, GridConfig(y_min=1e-4, y_max=2.0 - 1e-4), Normalization.L)
    ident = verify_identity_of_measures(base, SimConfig(dt=_DT, horizon=30.0, seed=seed, n_paths=n),
                                        s, TimeAverageUntilStop())
    checks = [
        _check("rejection-matches-transformed", ident["ks"]["pass"], **ident["ks"]),
        _check(
            "acceptance-fraction-half",
            _within_4se(ident["acceptance"]["value"], 0.5, ident["acceptance"]["stderr"]),
            **ident["acceptance"],
        ),
    ]
    return _bundle("stopped-bm", checks)


def scenario_counterexample(n: int = 10_000, seed: int = 2028) -> dict:
    """Two approximating sequences of the same nullset induce different
    conditional measures."""
    cfg = SimConfig(dt=_DT, horizon=60.0, seed=seed, n_paths=n,
                    dt_schedule=((2.0, _DT), (60.0, 10 * _DT)))
    rep = compare_conditionings(cfg, a=2.0)
    mean = rep["martingale_mean"]
    checks = [
        _check("stop-values-differ-frequently", rep["freq_stop_value_differs"] > 0.1,
               frequency=rep["freq_stop_value_differs"]),
        _check("conditional-measures-differ", not rep["ks"]["pass"], **rep["ks"]),
        _check("transformed-path-martingale",
               _within_4se(mean["value"], 1.0, mean["stderr"]), **mean),
    ]
    return _bundle("counterexample", checks)


def scenario_jumpwalk(n: int = 10_000, seed: int = 2029) -> dict:
    """Exact lattice identities, generator convergence, positivity of the
    conditioned walk, and the diffusion-limit smoke check."""
    if n < 1:  # before any work: n sets the walk's length below
        raise ValueError(f"n_paths must be positive, got {n}")
    checks = []
    quad_errs = []
    for n_lat in (4, 10, 50):
        spec = JumpWalkSpec(N=n_lat, measure=Measure.Q, x0=1.0)
        for x in (2.0 / n_lat, 1.0, 2.0):
            x_lat = round(x * n_lat) / n_lat
            if x_lat < 2.0 / n_lat:
                continue
            quad_errs.append(abs(discrete_generator(spec, lambda v: v * v, x_lat) - 3.0))
    checks.append(_check("generator-exact-for-squares", max(quad_errs) <= 1e-9,
                         max_error=max(quad_errs)))

    errs = verify_generator_limit(np.sin, 1.0, [10, 20])
    ratio = errs[10] / errs[20]
    checks.append(_check("generator-error-ratio-sin", 3.0 <= ratio <= 5.0,
                         ratio=ratio, errors={str(k): v for k, v in errs.items()}))

    spec10 = JumpWalkSpec(N=10, measure=Measure.Q, x0=1.0)
    recip_interior = verify_reciprocal_supermartingale(spec10, 0.5)
    recip_floor = verify_reciprocal_supermartingale(spec10, 0.1)
    checks.append(_check(
        "reciprocal-one-step-means",
        abs(recip_interior - 2.0) <= 1e-12 and abs(recip_floor - 5.0) <= 1e-12,
        interior=recip_interior, floor=recip_floor,
    ))

    # walk long enough that the positivity guarantee covers 10^6 steps at
    # any path count
    t_walk = max(1.0, 1_000_000 / (n * spec10.N**2))
    walk = simulate_walk(spec10, t=t_walk, n_paths=n, seed=seed)
    total_steps = walk["n_steps"] * n
    checks.append(_check(
        "conditioned-walk-stays-positive",
        float(np.min(walk["min_value"])) > 0.0 and total_steps >= 1_000_000,
        min_value=float(np.min(walk["min_value"])), steps=total_steps,
    ))

    ks = walk_vs_bessel(50, n_paths=_N_KS, seed=seed + 1)
    checks.append(_check(
        "walk-limit-smoke-check",
        ks.statistic < 2.0 * ks.critical_1pct,
        ks_stat=ks.statistic, loosened_critical=2.0 * ks.critical_1pct,
    ))
    return _bundle("jumpwalk", checks)


def scenario_roundtrip() -> dict:
    """Generator identity at finite differences, its second-order error law,
    and the up-then-down drift round trip; it draws nothing, so it takes no
    seed or path count."""
    checks = []
    s = compute_scale(bm(), 1.0, GridConfig(1e-3, 50.0, 201))  # the natural scale, y
    grid = np.linspace(0.5, 3.0, 101)
    phis = {"y^2": parse_expr("y^2"), "log y": parse_expr("log(y)")}
    worst = 0.0
    for spec in (bm(), gbm()):
        for phi in phis.values():
            worst = max(worst, check_generator_identity(spec, s, phi, grid))
    checks.append(_check("generator-identity-max-error", worst <= 1e-5, max_error=worst))

    # with a linear scale and zero drift the discretized identity is exact,
    # so the second-order error law is exhibited on a drifted spec whose
    # scale is genuinely curved
    drifted = DiffusionSpec(Interval(0.0, math.inf),
                            lambda y: np.ones_like(np.asarray(y, dtype=float)),
                            lambda y: np.ones_like(np.asarray(y, dtype=float)),
                            label="unit-drift")
    s_exp = exact_scale(lambda y: 0.5 * (1.0 - np.exp(-2.0 * np.asarray(y, dtype=float))),
                        lambda y: np.exp(-2.0 * np.asarray(y, dtype=float)),
                        np.geomspace(1e-3, 8.0, 201), (0.0, 0.5))
    e_h = check_generator_identity(drifted, s_exp, phis["log y"], grid, h=0.02)
    e_h2 = check_generator_identity(drifted, s_exp, phis["log y"], grid, h=0.01)
    ratio = e_h / e_h2
    checks.append(_check("fd-error-ratio", 3.5 <= ratio <= 4.5, ratio=ratio,
                         error_h=e_h, error_h_half=e_h2))

    sup = 0.0
    probe = np.linspace(0.2, 5.0, 97)
    for base in (bm(), gbm()):
        down = transform(transform(base, s), downward_scale(s))
        sup = max(sup, float(np.max(np.abs(down.drift(probe) - base.drift(probe)))))
    checks.append(_check("up-down-drift-roundtrip", sup <= 1e-6, sup_error=sup))
    return _bundle("roundtrip", checks)


SCENARIOS = {
    "bm-bessel": scenario_bm_bessel,
    "bessel-bm": scenario_bessel_bm,
    "gbm": scenario_gbm,
    "stopped-bm": scenario_stopped_bm,
    "counterexample": scenario_counterexample,
    "jumpwalk": scenario_jumpwalk,
    "roundtrip": scenario_roundtrip,
}


def run_scenario(name: str, threads: int | None = None, **kwargs) -> dict:
    """Run one named scenario; unknown names raise KeyError.  `threads` is
    accepted and ignored: every run uses one thread."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}") from None
    return runner(**kwargs)
