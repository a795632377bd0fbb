"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` or `-v` to see
them).  Scenario bundles are computed once per session at full size; all
randomized criteria use fixed seeds, so the whole suite is reproducible
bit for bit.
"""

import json

from condflow.scenarios import run_scenario

_CACHE: dict[str, dict] = {}

_FULL_SIZES = {
    "bm-bessel": dict(n=100_000),
    "bessel-bm": dict(n=10_000),
    "gbm": dict(n=10_000),
    "stopped-bm": dict(n=10_000),
    "counterexample": dict(n=10_000),
    "jumpwalk": dict(n=10_000),
    "roundtrip": dict(),
}


def _scenario(name: str) -> dict:
    if name not in _CACHE:
        _CACHE[name] = run_scenario(name, **_FULL_SIZES[name])
    return _CACHE[name]


def _checks(name: str) -> dict:
    return {check["name"]: check for check in _scenario(name)["checks"]}


def _report(criterion: str, check: dict) -> None:
    flag = "PASS" if check["pass"] else "FAIL"
    detail = ", ".join(f"{k}={v}" for k, v in check["detail"].items())
    print(f"[{flag}] {criterion}: {detail}")
    assert check["pass"], f"{criterion} failed: {check['detail']}"


def test_criterion_01_hitting_identity():
    # stopped-martingale identity: level * P(level before 0) = start point
    checks = _checks("bm-bessel")
    _report("criterion-01a hitting identity a=2 (4 stderr, 1e5 paths)",
            checks["hitting-identity-a2"])
    _report("criterion-01b hitting identity a=4 (4 stderr, 1e5 paths)",
            checks["hitting-identity-a4"])


def test_criterion_02_upward_conditioning_is_transformed_dynamics():
    checks = _checks("bm-bessel")
    _report("criterion-02 conditioned-up sample vs direct dynamics (KS 1%, 1e4/side)",
            checks["upward-conditioning-matches-direct"])


def test_criterion_03_downward_conditioning_round_trip():
    checks = _checks("bessel-bm")
    _report("criterion-03a weighted downward sample vs base dynamics (KS 1%)",
            checks["downward-roundtrip-ks"])
    _report("criterion-03b downward acceptance fraction 0.5 (4 stderr)",
            checks["downward-acceptance-half"])


def test_criterion_04_gbm_unit_drift():
    checks = _checks("gbm")
    _report("criterion-04a transformed drift equals y (1e-6 on [0.1, 10])",
            checks["transformed-drift-is-y"])
    _report("criterion-04b mean log at t=1 equals 0.5 (4 stderr)",
            checks["log-mean-at-1-is-half"])


def test_criterion_05_bounded_martingale_case():
    checks = _checks("stopped-bm")
    _report("criterion-05a rejection sample vs transformed dynamics (KS 1%)",
            checks["rejection-matches-transformed"])
    _report("criterion-05b acceptance fraction 0.5 (4 stderr)",
            checks["acceptance-fraction-half"])


def test_criterion_06_measures_differ_without_uniform_integrability():
    checks = _checks("gbm")
    _report("criterion-06 base vs transformed law differ (KS above 1% critical)",
            checks["p-and-q-measures-differ"])


def test_criterion_07_generator_identity():
    checks = _checks("roundtrip")
    _report("criterion-07a generator identity max error (1e-5)",
            checks["generator-identity-max-error"])
    _report("criterion-07b finite-difference error ratio in [3.5, 4.5]",
            checks["fd-error-ratio"])


def test_criterion_08_drift_round_trip():
    checks = _checks("roundtrip")
    _report("criterion-08 up-then-down drift round trip (1e-6 on [0.2, 5])",
            checks["up-down-drift-roundtrip"])


def test_criterion_09_reciprocal_local_martingale():
    checks = _checks("bessel-bm")
    _report("criterion-09a mean reciprocal in band equals 1 (4 stderr)",
            checks["reciprocal-band-martingale"])
    _report("criterion-09b fraction past 10 by t=200 at least 0.95",
            checks["divergence-past-10-by-200"])


def test_criterion_10_approximating_sequence_counterexample():
    checks = _checks("counterexample")
    _report("criterion-10a stop values differ with frequency above 0.1",
            checks["stop-values-differ-frequently"])
    _report("criterion-10b conditional samples differ (KS above 1% critical)",
            checks["conditional-measures-differ"])
    _report("criterion-10c transformed path is a martingale (4 stderr)",
            checks["transformed-path-martingale"])


def test_criterion_11_jump_walk():
    checks = _checks("jumpwalk")
    _report("criterion-11a one-step generator exact for squares (1e-9)",
            checks["generator-exact-for-squares"])
    _report("criterion-11b generator error ratio for sin in [3, 5]",
            checks["generator-error-ratio-sin"])
    _report("criterion-11c one-step reciprocal means exact",
            checks["reciprocal-one-step-means"])
    _report("criterion-11d conditioned walk positive over 1e6 steps",
            checks["conditioned-walk-stays-positive"])
    _report("criterion-11e walk marginal vs diffusion limit (2x KS, smoke)",
            checks["walk-limit-smoke-check"])


def test_criterion_12_determinism_across_thread_counts():
    kwargs = dict(n=2_000, seed=77)
    one = json.dumps(run_scenario("gbm", threads=1, **kwargs), sort_keys=True)
    four = json.dumps(run_scenario("gbm", threads=4, **kwargs), sort_keys=True)
    check = {"pass": one.encode() == four.encode(),
             "detail": {"bytes": len(one), "identical": one == four}}
    _report("criterion-12 identical reports for 1 vs 4 threads", check)


def test_all_scenarios_pass_overall():
    for name in _FULL_SIZES:
        bundle = _scenario(name)
        assert bundle["pass"], f"scenario {name} has failing checks"
        assert bundle["schema"] == 1
