import copy
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from condflow.conditioning import (
    ConditioningReport,
    Mode,
    StoppedValueAt,
    TimeAverageUntilStop,
    compare_reports,
    condition_downward,
    condition_upward,
    direct_sample,
    verify_identity_of_measures,
    _run,
    verify_local_martingality_of_reciprocal,
)
from condflow.errors import InsufficientSamplesError, NeedLongerHorizonError, NumericFailure
from condflow.model import McEstimate, bessel3, bm, gbm
from condflow.scale import GridConfig, Normalization, compute_scale
from condflow.simulate import SimConfig, simulate_ensemble
from condflow.stats import ecdf, ks_two_sample, weighted_ecdf


@pytest.fixture(scope="module")
def upward_reports():
    cfg = SimConfig(dt=1e-3, horizon=20.0, seed=50, n_paths=8_000)
    return condition_upward(bm(), 1.0, 2.0, StoppedValueAt(0.25), cfg)


def test_upward_acceptance_is_reciprocal_level(upward_reports):
    rejection, _ = upward_reports
    acc = rejection.acceptance
    assert abs(acc.value - 0.5) <= 4 * acc.stderr
    assert rejection.mode is Mode.REJECTION


def test_upward_weighted_mean_is_one(upward_reports):
    _, weighted = upward_reports
    mean = float(np.mean(weighted.weights))
    stderr = float(np.std(weighted.weights, ddof=1) / math.sqrt(weighted.weights.size))
    assert abs(mean - 1.0) <= 4 * stderr
    assert weighted.mode is Mode.WEIGHTED


def test_rejection_and_weighted_agree_exactly(upward_reports):
    # the weight is the constant level on the acceptance event, zero off it
    rejection, weighted = upward_reports
    assert weighted.truncated_fraction == 0.0
    probes = np.linspace(0.0, 2.0, 401)
    left = weighted_ecdf(weighted.functional_samples, weighted.weights)(probes)
    right = ecdf(rejection.functional_samples)(probes)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_upward_level_equal_to_start_trivial():
    cfg = SimConfig(dt=1e-3, horizon=5.0, seed=51, n_paths=500)
    rejection, weighted = condition_upward(bm(), 1.0, 1.0, StoppedValueAt(0.25), cfg)
    assert rejection.n_accepted == 500
    assert rejection.acceptance.value == 1.0
    np.testing.assert_array_equal(weighted.weights, 1.0)


def test_upward_requires_reachable_levels():
    cfg = SimConfig(dt=1e-3, horizon=5.0, seed=51, n_paths=100)
    with pytest.raises(ValueError):
        condition_upward(bm(), 1.0, 0.5, StoppedValueAt(0.25), cfg)


def test_need_longer_horizon_raised():
    cfg = SimConfig(dt=1e-3, horizon=0.02, seed=52, n_paths=400)
    with pytest.raises(NeedLongerHorizonError) as err:
        condition_upward(bm(), 1.0, 5.0, StoppedValueAt(0.01), cfg)
    assert err.value.unresolved_fraction > 0.5


def test_downward_acceptance_near_half():
    cfg = SimConfig(dt=1e-3, horizon=10_000.0, cap=100.0, seed=53, n_paths=4_000,
                    dt_schedule=((1.0, 1e-3), (10.0, 1e-2), (10_000.0, 0.25)))
    rejection, weighted = condition_downward(bessel3(), 1.0, 0.5, StoppedValueAt(0.1), cfg)
    acc = rejection.acceptance
    assert abs(acc.value - 0.5) <= 4 * acc.stderr
    # accepted paths carry weight x0/level exactly
    accepted_weights = weighted.weights[np.isclose(weighted.weights, 2.0)]
    assert accepted_weights.size == rejection.n_accepted


def test_downward_level_equal_to_start_trivial():
    cfg = SimConfig(dt=1e-3, horizon=5.0, seed=54, n_paths=300)
    rejection, weighted = condition_downward(bessel3(), 1.0, 1.0, StoppedValueAt(0.1), cfg)
    assert rejection.acceptance.value == 1.0
    np.testing.assert_array_equal(weighted.weights, 1.0)


def test_downward_matches_base_dynamics():
    # conditioned-down transformed dynamics against the base law
    cfg = SimConfig(dt=1e-3, horizon=10_000.0, cap=100.0, seed=55, n_paths=4_000,
                    dt_schedule=((1.0, 1e-3), (10.0, 1e-2), (10_000.0, 0.25)))
    _, weighted = condition_downward(bessel3(), 1.0, 0.5, StoppedValueAt(0.1), cfg)
    ref_cfg = SimConfig(dt=1e-3, horizon=0.2, seed=56, n_paths=4_000)
    reference = direct_sample(bm(), 1.0, StoppedValueAt(0.1), ref_cfg, stop_level=0.5)
    ks = compare_reports(weighted, reference)
    assert ks.passed


def test_direct_sample_keeps_truncated_snapshot_samples():
    # at horizon 0.2 most BM paths from 1 reach neither 0.5 nor 0 (the
    # 0.5-level stop): a value at t <= horizon is still a sample of them,
    # while a time average until the stop is not
    cfg = SimConfig(dt=1e-3, horizon=0.2, seed=56, n_paths=500)
    report = direct_sample(bm(), 1.0, StoppedValueAt(0.1), cfg, stop_level=0.5)
    assert report.truncated_fraction > 0.01
    assert report.functional_samples.size == cfg.n_paths
    with pytest.raises(NeedLongerHorizonError, match="direct_sample"):
        direct_sample(bm(), 1.0, TimeAverageUntilStop(), cfg, stop_level=0.5)


def test_upward_weights_every_path_the_horizon_truncated():
    # BM from 1 on (0, 2) is still inside at T = 5 with probability about
    # 0.3%: those paths weigh X_T/x0, the stopped martingale at T, so the
    # weights cover all n paths and their mean is 1 (the functional only
    # rides along: the weights do not depend on it)
    cfg = SimConfig(dt=1e-2, horizon=5.0, seed=66, n_paths=4_000)
    _, weighted = condition_upward(bm(), 1.0, 2.0, StoppedValueAt(1.0), cfg)
    assert 0.0 < weighted.truncated_fraction <= 0.01
    assert weighted.weights.size == weighted.functional_samples.size == cfg.n_paths
    mean = float(np.mean(weighted.weights))
    stderr = float(np.std(weighted.weights, ddof=1) / math.sqrt(weighted.weights.size))
    assert abs(mean - 1.0) <= 4 * stderr


def test_consistency_across_conditioning_levels():
    # the value at 1/4 frozen at 2 has the same law whether the paths are
    # conditioned to hit 2 or the higher level 4: the second sample comes
    # from one run stopped at 4 that watches 2, kept on the paths that hit 4
    cfg_a = SimConfig(dt=1e-3, horizon=20.0, seed=57, n_paths=8_000)
    rej_a, _ = condition_upward(bm(), 1.0, 2.0, StoppedValueAt(0.25), cfg_a)
    cfg_b = SimConfig(dt=1e-3, horizon=40.0, seed=58, n_paths=16_000, stop_levels=(4.0,),
                      watch_levels=(2.0,), snapshot_times=(0.25,))
    res = simulate_ensemble(bm(), 1.0, cfg_b)
    frozen = np.where(res.hit_times[2.0] <= 0.25, 2.0, res.snapshots[0.25])
    ks = ks_two_sample(rej_a.functional_samples, frozen[res.stopped_at(4.0)])
    assert ks.passed


def test_direct_sample_mode_and_weights():
    cfg = SimConfig(dt=1e-3, horizon=20.0, seed=59, n_paths=1_000)
    report = direct_sample(bessel3(), 1.0, StoppedValueAt(0.25), cfg, stop_level=2.0)
    assert report.mode is Mode.DIRECT
    assert report.n_accepted == report.n_total == 1_000
    np.testing.assert_array_equal(report.weights, 1.0)


def test_reciprocal_band_run_stops_at_t():
    # the band (1/10, 10) run reads only its snapshot at t = 1, so it stops at
    # t + dt; run on to the horizon 2, the same paths give the same mean bit
    # for bit
    cfg = SimConfig(dt=1e-2, horizon=2.0, seed=62, n_paths=400)
    out = verify_local_martingality_of_reciprocal(bessel3(), cfg)
    full = simulate_ensemble(bessel3(), 1.0, replace(cfg, stop_levels=(0.1, 10.0),
                                                    snapshot_times=(1.0,)))
    recip = McEstimate.from_samples(1.0 / full.snapshots[1.0])
    assert out["reciprocal_mean"] == {"value": recip.value, "stderr": recip.stderr}
    # paths stop between t + dt and 2, and the band run counts them as truncated
    assert out["truncated_fraction"] > full.truncated_fraction()


def test_divergence_run_reads_the_horizon():
    # BES(3) from 1 passes 10 before t = 5 on few paths, before t = 200 on
    # nearly all: the divergence run goes to cfg.horizon
    cfg = SimConfig(dt=1e-2, horizon=5.0, seed=67, n_paths=400)
    short = verify_local_martingality_of_reciprocal(bessel3(), cfg)["divergence_fraction"]
    long = verify_local_martingality_of_reciprocal(
        bessel3(), replace(cfg, horizon=200.0))["divergence_fraction"]
    assert short["value"] < 0.5 and long["value"] >= 0.95


def test_time_average_functional():
    cfg = SimConfig(dt=1e-3, horizon=30.0, seed=61, n_paths=500)
    report = direct_sample(bm(0.0, 2.0), 1.0, TimeAverageUntilStop(), cfg, stop_level=2.0)
    samples = report.functional_samples
    assert np.all(samples > 0.0) and np.all(samples < 2.0)


def _upward_scale(base, y_max):
    return compute_scale(base, 1.0, GridConfig(y_min=1e-4, y_max=y_max), Normalization.L)


def test_identity_scenarios_smoke():
    # stopped BM on (0, 2) is a bounded martingale: the laws agree
    base = bm(0.0, 2.0)
    cfg = SimConfig(dt=2e-3, horizon=30.0, seed=62, n_paths=2_000)
    stopped = verify_identity_of_measures(base, cfg, _upward_scale(base, 2.0 - 1e-4),
                                          TimeAverageUntilStop())
    acceptance = stopped["acceptance"]
    assert stopped["ks"]["pass"]
    assert abs(acceptance["value"] - 0.5) <= 4 * max(acceptance["stderr"], 1e-12)
    # driftless GBM never reaches 0 but is not uniformly integrable: they differ
    gbm_cfg = SimConfig(dt=2e-3, horizon=1.1, seed=63, n_paths=2_000)
    differ = verify_identity_of_measures(gbm(), gbm_cfg, _upward_scale(gbm(), 50.0),
                                         StoppedValueAt(1.0))
    assert not differ["ks"]["pass"]
    assert differ["acceptance"] == {"value": 1.0, "stderr": 0.0}
    # the library measures; the verdicts are the scenarios'
    for report in (stopped, differ):
        assert not report.keys() & {"pass", "measures_differ", "expected_acceptance"}


def test_identity_of_measures_on_a_wider_interval():
    # no bundle runs BM on (0, 4): from 1 it reaches 4 first with
    # probability 1/4, and conditioned on that it is the transformed law
    base = bm(0.0, 4.0)
    cfg = SimConfig(dt=2e-3, horizon=60.0, seed=64, n_paths=2_000)
    ident = verify_identity_of_measures(base, cfg, _upward_scale(base, 4.0 - 1e-4),
                                        TimeAverageUntilStop())
    acceptance = ident["acceptance"]
    assert abs(acceptance["value"] - 0.25) <= 4 * acceptance["stderr"]
    assert ident["ks"]["pass"]
    assert ident["truncated_fraction"] == 0.0


def test_identity_of_measures_refuses_an_unresolved_upward_event():
    # on (0, 2) a horizon of 0.5 leaves most base paths in the interval
    base = bm(0.0, 2.0)
    short = SimConfig(dt=1e-2, horizon=0.5, seed=65, n_paths=200)
    with pytest.raises(NeedLongerHorizonError, match="verify_identity_of_measures"):
        verify_identity_of_measures(base, short, _upward_scale(base, 2.0 - 1e-4),
                                    TimeAverageUntilStop())
    # BM on (0, inf) reaches 0, so a path alive at the horizon may still do so
    cfg = SimConfig(dt=1e-2, horizon=1.1, seed=65, n_paths=200)
    with pytest.raises(ValueError, match="base reaches l = 0"):
        verify_identity_of_measures(bm(), cfg, _upward_scale(bm(), 50.0), StoppedValueAt(1.0))


def test_downward_rejects_infinite_weight():
    # Brownian motion absorbed at 0: with dt = 0.5 some paths jump from above
    # the level to below 0 in one step, stop at 0 and would weigh x0/0
    cfg = SimConfig(dt=0.5, horizon=50.0, seed=3, n_paths=400)
    with pytest.raises(NumericFailure, match=r"condition_downward: [1-9][0-9]* of 400 paths"):
        condition_downward(bm(), 1.0, 0.9, StoppedValueAt(1.0), cfg)


def test_upward_weights_with_nonzero_lower_end():
    # on (-1, inf) the h-transform weight is (X_stop + 1)/(x0 + 1): 0 on
    # absorption at -1, never the negative X_stop/x0
    cfg = SimConfig(dt=1e-3, horizon=20.0, seed=64, n_paths=2_000)
    rejection, weighted = condition_upward(bm(-1.0, math.inf), 0.5, 1.0, StoppedValueAt(0.25), cfg)
    assert np.all(weighted.weights >= 0.0)
    mean = float(np.mean(weighted.weights))
    stderr = float(np.std(weighted.weights, ddof=1) / math.sqrt(weighted.weights.size))
    assert abs(mean - 1.0) <= 4 * stderr
    probes = np.linspace(-1.0, 1.0, 401)
    left = weighted_ecdf(weighted.functional_samples, weighted.weights)(probes)
    right = ecdf(rejection.functional_samples)(probes)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_upward_requires_finite_lower_end():
    cfg = SimConfig(dt=1e-3, horizon=5.0, seed=65, n_paths=100)
    with pytest.raises(ValueError):
        condition_upward(bm(-math.inf, math.inf), 0.5, 1.0, StoppedValueAt(0.25), cfg)


def _report(weights, samples):
    return ConditioningReport(mode=Mode.WEIGHTED, n_total=samples.size, n_accepted=0,
                              weights=weights, functional_samples=samples,
                              truncated_fraction=0.0)


def test_compare_reports_leaves_both_reports_unchanged():
    # one report compared with two others keeps no trace of either KS
    samples = np.linspace(0.0, 1.0, 400)
    left = _report(np.linspace(1.0, 2.0, 400), samples)
    others = [_report(np.ones(400), samples + shift) for shift in (0.0, 0.5)]
    before = [copy.deepcopy(report) for report in (left, *others)]
    for other in others:
        compare_reports(left, other)
    for report, saved in zip((left, *others), before):
        for field in fields(ConditioningReport):
            got, want = getattr(report, field.name), getattr(saved, field.name)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), field.name
            else:
                assert got == want, field.name


def test_compare_reports_rejects_all_zero_weights():
    samples = np.linspace(0.0, 1.0, 400)
    with pytest.raises(InsufficientSamplesError):
        compare_reports(_report(np.zeros(400), samples), _report(np.ones(400), samples))


def test_same_step_absorption_beats_the_stop_level():
    # with dt = 0.25 a BM step from 0.5 often crosses 0.7 and lands below 0;
    # the absorption at 0 wins the stop record, which both routes read, so
    # rejection drops such a path and weighting gives it 0
    cfg = SimConfig(dt=0.25, horizon=50.0, seed=3, n_paths=2_000)
    res = _run(bm(), 0.5, StoppedValueAt(1.0), cfg, stop_level=0.7)
    assert res.tie_count == 231 and 0.7 not in res.hit_times
    # watched without stopping (on the same stream), 0.7 is first crossed
    # on the absorbing step of exactly the tied paths
    watched = simulate_ensemble(bm(), 0.5, replace(cfg, watch_levels=(0.7,)))
    tied = (watched.absorbed_at == 0.0) & (watched.hit_times[0.7] == watched.stop_times)
    assert int(np.count_nonzero(tied)) == 231
    np.testing.assert_array_equal(res.final_values[tied], 0.0)
    assert not np.any(res.stopped_at(0.7)[tied])
    rejection, weighted = condition_upward(bm(), 0.5, 0.7, StoppedValueAt(1.0), cfg)
    assert rejection.n_accepted == 1_243
    assert int(np.count_nonzero(weighted.weights > 0.0)) == 1_243
