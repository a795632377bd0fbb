import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from condflow import rng, simulate
from condflow.errors import EvalDomainError
from condflow.model import Const, DiffusionSpec, Interval, bessel3, bm, const_value
from condflow.simulate import (
    EnsembleResult,
    SimConfig,
    estimate_hitting_prob,
    simulate_ensemble,
    simulate_path,
)


def test_bm_two_before_zero_is_half():
    cfg = SimConfig(dt=1e-3, horizon=20.0, seed=11, n_paths=20_000)
    est, rep = estimate_hitting_prob(bm(), 1.0, 2.0, 0.0, cfg)
    assert rep["unresolved"] == 0
    assert abs(est.value - 0.5) <= 3 * est.stderr


def test_bm_quarter_identity():
    cfg = SimConfig(dt=1e-3, horizon=40.0, seed=12, n_paths=20_000)
    est, rep = estimate_hitting_prob(bm(), 1.0, 4.0, 0.0, cfg)
    assert abs(est.value - 0.25) <= 3 * est.stderr


def test_level_equal_to_start_hits_immediately():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=1, n_paths=500)
    est, rep = estimate_hitting_prob(bm(), 1.0, 1.0, 0.0, cfg)
    assert est.value == 1.0 and est.stderr == 0.0
    assert rep["resolved"] == 500


def test_zero_diffusion_rejected():
    flat = DiffusionSpec(Interval(0.0, math.inf),
                         drift=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                         diffusion=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                         label="flat")
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(EvalDomainError):
        simulate_ensemble(flat, 1.0, cfg)


def test_bessel_hits_half_with_probability_half():
    # hitting probability from the reciprocal scale: (0 - (-1)) / (0 - (-2));
    # the hit-time tail decays like 1/sqrt(t), so the horizon must be long
    # for the finite-horizon frequency to sit within the binomial band
    cfg = SimConfig(dt=1e-3, horizon=1600.0, seed=5, n_paths=2_000,
                    stop_levels=(0.5,), cap=1e6,
                    dt_schedule=((1.0, 1e-3), (10.0, 1e-2), (1600.0, 0.1)))
    res = simulate_ensemble(bessel3(), 1.0, cfg)
    freq = float(np.mean(res.stopped_at(0.5)))
    stderr = math.sqrt(0.25 / cfg.n_paths)
    assert abs(freq - 0.5) <= 3 * stderr
    assert np.sum(res.absorbed_at == 0.0) == 0  # repelling drift guard


def test_invalid_level_ordering_rejected():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(ValueError):
        estimate_hitting_prob(bm(), 1.0, 0.5, 2.0, cfg)
    with pytest.raises(ValueError):
        estimate_hitting_prob(bm(), 5.0, 2.0, 0.0, cfg)


def test_reproducible_across_threads_and_chunks():
    base = SimConfig(dt=1e-3, horizon=5.0, seed=77, n_paths=5_000,
                     watch_levels=(2.0, 0.0), snapshot_times=(0.5,),
                     track_time_average=True)
    runs = [
        simulate_ensemble(bm(), 1.0, replace(base, n_threads=1)),
        simulate_ensemble(bm(), 1.0, replace(base, n_threads=4)),
        simulate_ensemble(bm(), 1.0, replace(base, n_threads=7)),
        simulate_ensemble(bm(), 1.0, replace(base, n_threads=2)),
    ]
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0].final_values, other.final_values)
        np.testing.assert_array_equal(runs[0].stop_times, other.stop_times)
        np.testing.assert_array_equal(runs[0].hit_times[2.0], other.hit_times[2.0])
        np.testing.assert_array_equal(runs[0].snapshots[0.5], other.snapshots[0.5])
        np.testing.assert_array_equal(runs[0].time_integral, other.time_integral)


def test_prefix_of_ensemble_equals_smaller_run():
    cfg = SimConfig(dt=1e-2, horizon=5.0, seed=21, n_paths=3_000,
                    watch_levels=(1.5, 0.0), snapshot_times=(0.5, 2.0),
                    track_time_average=True)
    whole = simulate_ensemble(bm(), 1.0, cfg)
    m = 700
    part = simulate_ensemble(bm(), 1.0, replace(cfg, n_paths=m))
    for name in ("final_values", "stop_times", "absorbed_at", "truncated"):
        np.testing.assert_array_equal(getattr(whole, name)[:m], getattr(part, name))
    for level in cfg.watch_levels:
        np.testing.assert_array_equal(whole.hit_times[level][:m], part.hit_times[level])
    for t in cfg.snapshot_times:
        np.testing.assert_array_equal(whole.snapshots[t][:m], part.snapshots[t])
    np.testing.assert_array_equal(whole.time_integral[:m], part.time_integral)
    # the run exercises stops, a level hit without stopping, and the horizon
    assert np.any(np.isfinite(part.absorbed_at)) and np.any(part.truncated)
    assert np.any(np.isfinite(part.hit_times[1.5]))


def test_single_path_matches_ensemble_entry():
    cfg = SimConfig(dt=1e-3, horizon=5.0, seed=3, n_paths=8, watch_levels=(2.0, 0.0))
    res = simulate_ensemble(bm(), 1.0, cfg)
    for index in (0, 3, 5):
        path = simulate_path(bm(), 1.0, cfg, index)
        assert path.values[-1] == res.final_values[index]
        assert _same_bits(path.hit_times[0.0], res.hit_times[0.0][index])  # nan: never


def test_bridge_correction_reduces_hitting_bias():
    # paired seeds: identical normals, the bridge only adds crossings
    n = 100_000
    with_bridge = SimConfig(dt=1e-2, horizon=60.0, seed=9, n_paths=n)
    without = replace(with_bridge, bridge_correction=False)
    est_b, _ = estimate_hitting_prob(bm(), 1.0, 4.0, 0.0, with_bridge)
    est_nb, _ = estimate_hitting_prob(bm(), 1.0, 4.0, 0.0, without)
    assert abs(est_b.value - 0.25) <= abs(est_nb.value - 0.25)


def test_absorbed_mass_nondecreasing_in_time():
    cfg = SimConfig(dt=1e-3, horizon=10.0, seed=40, n_paths=4_000)
    res = simulate_ensemble(bm(), 1.0, cfg)
    stops = np.sort(res.stop_times[res.absorbed_at == 0.0])
    fractions = [np.searchsorted(stops, t) / res.n for t in (1.0, 2.0, 5.0, 10.0)]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > 0.5


def test_horizon_truncation_flagged():
    cfg = SimConfig(dt=1e-3, horizon=0.05, seed=2, n_paths=200)
    res = simulate_ensemble(bm(), 1.0, cfg)
    assert np.all(res.truncated)
    assert np.all(res.stop_times == pytest.approx(0.05))
    assert np.all(np.isnan(res.absorbed_at))


def test_snapshot_frozen_after_stop():
    cfg = SimConfig(dt=1e-3, horizon=5.0, seed=8, n_paths=2_000,
                    stop_levels=(1.5,), snapshot_times=(4.0,))
    res = simulate_ensemble(bm(), 1.0, cfg)
    hit = res.stopped_at(1.5) & (res.stop_times <= 4.0)
    np.testing.assert_array_equal(res.snapshots[4.0][hit], 1.5)
    absorbed = np.isfinite(res.absorbed_at) & (res.stop_times <= 4.0)
    np.testing.assert_array_equal(res.snapshots[4.0][absorbed], 0.0)


def test_divergence_cap_plays_infinity():
    cfg = SimConfig(dt=1e-3, horizon=50.0, seed=30, n_paths=1_000, cap=3.0)
    res = simulate_ensemble(bessel3(), 1.0, cfg)
    capped = res.absorbed_at == math.inf
    assert np.all(res.final_values[capped] >= 3.0)
    assert np.mean(capped) > 0.9  # the conditioned process exceeds any level


def test_dt_schedule_covers_horizon():
    cfg = SimConfig(dt=1e-3, horizon=3.0, seed=4, n_paths=16,
                    dt_schedule=((1.0, 1e-3), (3.0, 1e-2)))
    path = simulate_path(bm(), 1.0, cfg, 0)
    assert path.times[-1] == pytest.approx(3.0)
    steps = np.diff(path.times)
    assert steps[0] == pytest.approx(1e-3)
    assert steps[-1] == pytest.approx(1e-2)


@pytest.mark.parametrize("x0", [0.5, 1.0])
def test_a_start_at_or_above_the_cap_is_refused(x0):
    # a path cannot start where it has already stopped at the cap
    cfg = SimConfig(dt=0.01, horizon=1.0, cap=0.5, n_paths=5)
    with pytest.raises(ValueError, match=f"^x0={x0} at or above the cap 0.5$"):
        simulate_ensemble(bm(), x0, cfg)
    with pytest.raises(ValueError, match=f"^x0={x0} at or above the cap 0.5$"):
        simulate_path(bm(), x0, cfg, 0)


def test_watch_level_outside_interval_rejected():
    # the one-path run refuses what the ensemble refuses
    for fields in (dict(watch_levels=(-1.0,)), dict(stop_levels=(-1.0,))):
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=1, n_paths=10, **fields)
        with pytest.raises(ValueError, match="watch level -1.0 outside"):
            simulate_ensemble(bm(), 1.0, cfg)
        with pytest.raises(ValueError, match="watch level -1.0 outside"):
            simulate_path(bm(), 1.0, cfg, 0)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, horizon=1.0, snapshot_times=(2.0,))


@pytest.mark.parametrize("fields, name", [
    (dict(horizon=math.inf), "horizon"),
    (dict(dt=math.nan), "dt"),
    (dict(dt=math.inf, horizon=math.inf), "dt"),
    (dict(cap=math.nan), "cap"),
    (dict(dt_schedule=((0.5, 0.0), (1.0, 1e-2))), "dt_schedule dt"),
    (dict(dt_schedule=((0.5, -1e-2),)), "dt_schedule dt"),
    (dict(dt_schedule=((0.5, math.nan),)), "dt_schedule dt"),
    (dict(dt_schedule=((0.5, math.inf),)), "dt_schedule dt"),
    (dict(dt_schedule=((math.nan, 1e-2),)), "dt_schedule t_until"),
])
def test_sim_config_refuses_non_finite_values(fields, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        SimConfig(**{"dt": 1e-2, "horizon": 1.0, **fields})


@pytest.mark.parametrize("schedule", [((5.0, 0.5), (2.0, 0.01)), ((2.0, 0.5), (2.0, 0.01))])
def test_sim_config_refuses_a_schedule_that_goes_back(schedule):
    # a later segment ending no later than the one before it would be
    # skipped, and its dt would fill the rest of the horizon
    with pytest.raises(ValueError, match="^dt_schedule t_until must increase$"):
        SimConfig(dt=0.5, horizon=10.0, dt_schedule=schedule)


def test_sim_config_infinite_cap_means_no_cap():
    cfg = SimConfig(dt=0.5, horizon=5.0, cap=math.inf, seed=1, n_paths=20)
    res = simulate_ensemble(replace(bm(), drift=Const(1e9)), 1.0, cfg)
    assert np.all(res.truncated) and np.all(res.final_values > 1e9)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_record(path, other) -> bool:
    """Whether two one-path samples have the same hit times, bit for bit (so
    nan equals nan)."""
    return (list(path.hit_times) == list(other.hit_times)
            and _same_bits(list(path.hit_times.values()), list(other.hit_times.values())))


def test_stop_levels_record_no_hit_time():
    # where a path stopped is stated once, in the stop record: a stop level
    # gets no hit time, also when it is watched, and `stopped_at` reads it
    cfg = SimConfig(dt=1e-2, horizon=2.0, seed=6, n_paths=400, stop_levels=(1.5,),
                    watch_levels=(0.5, 1.5))
    res = simulate_ensemble(bm(), 1.0, cfg)
    assert list(res.hit_times) == list(simulate_path(bm(), 1.0, cfg, 0).hit_times) == [0.5]
    at_level = res.stopped_at(1.5)
    np.testing.assert_array_equal(at_level, ~res.truncated & np.isnan(res.absorbed_at))
    np.testing.assert_array_equal(res.stopped_at(0.0), res.absorbed_at == 0.0)
    assert np.any(at_level) and np.any(res.absorbed_at == 0.0) and np.any(res.truncated)


def test_path_records_match_the_ensemble():
    # BM from 1 absorbed at 0, watching 2 and capped at 3: absorbed, capped,
    # truncated and level-crossing paths all occur
    cfg = SimConfig(dt=1e-2, horizon=2.0, seed=6, n_paths=40, cap=3.0, watch_levels=(2.0,))
    res = simulate_ensemble(bm(), 1.0, cfg)
    for index in range(cfg.n_paths):
        path = simulate_path(bm(), 1.0, cfg, index)
        assert list(path.hit_times) == list(res.hit_times) == [2.0]
        assert _same_bits(path.hit_times[2.0], res.hit_times[2.0][index]), index
        assert _same_bits(path.values[-1], res.final_values[index]), index
    assert np.any(res.absorbed_at == 0.0) and np.any(res.absorbed_at == math.inf)
    assert np.any(res.truncated) and np.any(np.isfinite(res.hit_times[2.0]) & res.truncated)


def _assert_same_ensemble(one: EnsembleResult, other: EnsembleResult) -> None:
    for name in ("final_values", "stop_times", "absorbed_at", "truncated", "time_integral"):
        assert _same_bits(getattr(one, name), getattr(other, name)), name
    for name in ("hit_times", "snapshots"):
        mine, theirs = getattr(one, name), getattr(other, name)
        assert list(mine) == list(theirs), name
        for key in mine:
            assert _same_bits(mine[key], theirs[key]), (name, key)
    assert (one.n, one.tie_count) == (other.n, other.tie_count)


# (spec, x0, config): a dt schedule with snapshots, stop and watch levels, the
# cap, truncation and the time integral; bessel3 with coarse steps, whose
# overshoots below 0 the halving guard takes back; the tied steps of
# test_same_step_absorption_beats_the_stop_level; watched levels at both
# ends of (0, 2) and inside it; coarse steps between two ends and two
# stop levels near them, with ties of a level and an end; and ties of the
# marks next to each other at the head of the kernel's list: both ends of
# (0, 0.2), each watched; the end 2 and a cap of 1.5 below it; the cap and a
# stop level below it
_BLOCK_CASES = [
    (bessel3(), 1.0, SimConfig(
        dt=1e-2, horizon=40.0, cap=10.0, seed=4, n_paths=300, stop_levels=(0.5,),
        watch_levels=(2.0,), dt_schedule=((1.0, 1e-2), (10.0, 0.05), (40.0, 0.25)),
        snapshot_times=(0.5, 15.0), track_time_average=True)),
    (bessel3(), 1.0, SimConfig(dt=0.5, horizon=20.0, seed=8, n_paths=500, watch_levels=(0.0,))),
    (bm(), 0.5, SimConfig(dt=0.25, horizon=50.0, seed=3, n_paths=2_000, stop_levels=(0.7,))),
    (bm(0.0, 2.0), 1.0, SimConfig(dt=0.05, horizon=3.0, seed=13, n_paths=400,
                                  watch_levels=(2.0, 0.0, 1.2), snapshot_times=(1.0,))),
    (bm(0.0, 2.0), 1.0, SimConfig(dt=0.5, horizon=10.0, seed=2, n_paths=2_000,
                                  stop_levels=(1.9, 0.2))),
    (bm(0.0, 0.2), 0.1, SimConfig(dt=1.0, horizon=10.0, seed=1, n_paths=500,
                                  watch_levels=(0.0, 0.2))),
    (bm(0.0, 2.0), 1.0, SimConfig(dt=1.0, horizon=10.0, seed=1, n_paths=500, cap=1.5,
                                  watch_levels=(2.0,))),
    (bm(), 1.0, SimConfig(dt=1.0, horizon=10.0, seed=1, n_paths=500, cap=1.5,
                          stop_levels=(1.2,))),
]


@pytest.mark.parametrize("spec, x0, cfg", _BLOCK_CASES)
def test_step_normal_blocks_change_no_byte(spec, x0, cfg, monkeypatch):
    blocked = simulate_ensemble(spec, x0, cfg)
    path = simulate_path(spec, x0, cfg, 7)
    monkeypatch.setattr(simulate, "_BLOCK_DRAWS", 1)  # one step per draw call
    _assert_same_ensemble(blocked, simulate_ensemble(spec, x0, cfg))
    per_step = simulate_path(spec, x0, cfg, 7)
    assert _same_bits(path.times, per_step.times) and _same_bits(path.values, per_step.values)
    assert path.values[-1] == blocked.final_values[7]


def test_block_cases_exercise_every_event(monkeypatch):
    capped, halving, tied, levels, ends = (simulate_ensemble(*case) for case in _BLOCK_CASES[:5])
    assert np.any(capped.absorbed_at == math.inf) and np.any(capped.truncated)
    assert np.any(capped.final_values == 0.5) and np.any(np.isfinite(capped.hit_times[2.0]))
    assert tied.tie_count > 0
    assert np.any(levels.absorbed_at == 0.0) and np.any(levels.absorbed_at == 2.0)
    assert ends.tie_count > 0
    for value in (0.0, 0.2, 1.9, 2.0):
        assert np.any(ends.final_values == value), value
    # a level crossed on the step that absorbs: watched without stopping (on
    # the same streams), 1.9 is first crossed on the step that absorbs a path
    # the stop record has at 2
    spec, x0, cfg = _BLOCK_CASES[4]
    watched = simulate_ensemble(spec, x0, replace(cfg, stop_levels=(), watch_levels=(1.9, 0.2)))
    tied = (watched.absorbed_at == 2.0) & (watched.hit_times[1.9] == watched.stop_times)
    assert np.any(tied & (ends.absorbed_at == 2.0))
    # both levels first crossed on one step: the higher stops the path, where
    # no end absorbs it on that step
    both = (watched.hit_times[1.9] == watched.hit_times[0.2]) & np.isnan(ends.absorbed_at)
    assert np.any(both)
    np.testing.assert_array_equal(ends.final_values[both], 1.9)
    # bessel3 never reaches 0; without halvings its overshoots absorb there
    assert not np.any(halving.absorbed_at == 0.0)
    monkeypatch.setattr(simulate, "_MAX_HALVINGS", 0)
    assert np.count_nonzero(simulate_ensemble(*_BLOCK_CASES[1]).absorbed_at == 0.0) > 10


# A tie ends a path at the first of its marks in the kernel's list: the
# lower end, the upper end, the cap, the stop levels from the top, the
# regimes' stop levels.  Each test below ties one pair next to each other in
# the list on some path's stop row, sees both marks fire in a run that
# records them, and checks the stop record and the tie count.  A watch level
# on an end is hit wherever that end fires, whether or not it is the stop.


def test_a_tie_of_the_ends_stops_at_the_lower():
    res = simulate_ensemble(*_BLOCK_CASES[5])
    both = (res.hit_times[0.0] == res.stop_times) & (res.hit_times[0.2] == res.stop_times)
    assert np.any(both)
    np.testing.assert_array_equal(res.final_values[both], 0.0)
    np.testing.assert_array_equal(res.absorbed_at[both], 0.0)
    # the watch levels sit on the ends, so every tie is both ends firing
    assert res.tie_count == np.count_nonzero(both)


def test_a_tie_of_an_end_and_the_cap_stops_at_the_end():
    # without the end 2, the same paths are capped on the same step
    spec, x0, cfg = _BLOCK_CASES[6]
    res = simulate_ensemble(spec, x0, cfg)
    open_end = simulate_ensemble(bm(), x0, replace(cfg, watch_levels=()))
    both = ((res.hit_times[2.0] == res.stop_times) & (open_end.absorbed_at == math.inf)
            & (open_end.stop_times == res.stop_times))
    assert np.any(both)
    np.testing.assert_array_equal(res.final_values[both], 2.0)
    np.testing.assert_array_equal(res.absorbed_at[both], 2.0)
    assert res.tie_count >= np.count_nonzero(both)


def test_a_tie_of_the_cap_and_a_stop_level_stops_at_the_cap():
    # watched without stopping (on the same stream), 1.2 is first crossed on
    # the step that caps the path
    spec, x0, cfg = _BLOCK_CASES[7]
    res = simulate_ensemble(spec, x0, cfg)
    watched = simulate_ensemble(spec, x0, replace(cfg, stop_levels=(), watch_levels=(1.2,)))
    both = (watched.absorbed_at == math.inf) & (watched.hit_times[1.2] == watched.stop_times)
    assert np.any(both)
    np.testing.assert_array_equal(res.absorbed_at[both], math.inf)
    np.testing.assert_array_equal(res.final_values[both], watched.final_values[both])
    assert np.all(res.final_values[both] >= cfg.cap)
    assert res.tie_count >= np.count_nonzero(both)


def test_a_tie_of_a_stop_level_and_the_regime_level_stops_at_the_stop_level():
    # one regime: every path has the regime level 0.9 below the stop level
    # 1.1; watched without stopping (on the same stream, and the regime's on
    # the same next one), 1.1 is first crossed on the step that ends the path
    # at 0.9
    cfg = SimConfig(dt=1.0, horizon=10.0, seed=1, n_paths=500, stop_levels=(1.1,))
    run = dict(snap_times=[], levels_by_regime=(0.9,))
    res = simulate._simulate(bm(), 1.0, cfg, 0, cfg.n_paths, **run)
    watched = simulate._simulate(bm(), 1.0, replace(cfg, stop_levels=(), watch_levels=(1.1,)),
                                 0, cfg.n_paths, **run)
    both = (watched.hit_times[1.1] == watched.stop_times) & (watched.final_values == 0.9)
    assert np.any(both)
    np.testing.assert_array_equal(res.final_values[both], 1.1)
    assert np.all(np.isnan(res.absorbed_at[both]))
    assert res.tie_count >= np.count_nonzero(both)


def test_kernel_leaks_no_runtime_warning():
    # warnings would reach stderr, which the CLI and the benchmark digest read.
    # a*dt ~ 1e-312: every bridge exponent -2 gap / (a dt) overflows to -inf,
    # at the lower boundary (zero drift) and at the watched level 2
    tiny = DiffusionSpec(Interval(0.0, math.inf),
                         drift=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                         diffusion=lambda y: np.full(np.shape(y), 1e-310))
    flat = replace(tiny, drift=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    cfg = SimConfig(dt=1e-2, horizon=3.0, seed=2, n_paths=50, watch_levels=(2.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate_ensemble(tiny, 1.0, cfg)
        res_flat = simulate_ensemble(flat, 1.0, cfg)
    assert np.all(res.truncated) and np.all(np.isnan(res.hit_times[2.0]))
    assert np.all(res_flat.hit_times[2.0] > 0.9)


def test_scalar_coefficients_run_like_arrays():
    # the kernel updates some flags in place; a spec returning plain floats
    # must still broadcast over the running paths
    flat = DiffusionSpec(Interval(0.0, math.inf), drift=lambda y: 0.0, diffusion=lambda y: 1.0)
    cfg = SimConfig(dt=1e-2, horizon=5.0, seed=3, n_paths=500, stop_levels=(2.0,))
    _assert_same_ensemble(simulate_ensemble(flat, 1.0, cfg), simulate_ensemble(bm(), 1.0, cfg))


def test_scalar_drift_runs_the_halving_guard(monkeypatch):
    # a drift of 1 repels from 0, so the guard takes back the overshoots of
    # the coarse steps from 0.2; it must index a plain-float drift like an array
    scalar = DiffusionSpec(Interval(0.0, math.inf), drift=lambda y: 1.0, diffusion=lambda y: 1.0)
    arrays = replace(scalar, drift=lambda y: np.ones(np.shape(y)),
                     diffusion=lambda y: np.ones(np.shape(y)))
    cfg = SimConfig(dt=0.5, horizon=5.0, seed=1, n_paths=50)
    res = simulate_ensemble(scalar, 0.2, cfg)
    _assert_same_ensemble(res, simulate_ensemble(arrays, 0.2, cfg))
    path, twin = simulate_path(scalar, 0.2, cfg, 7), simulate_path(arrays, 0.2, cfg, 7)
    assert _same_bits(path.values, twin.values)
    assert not np.any(res.absorbed_at == 0.0)
    monkeypatch.setattr(simulate, "_MAX_HALVINGS", 0)  # the guard had overshoots to take back
    assert np.any(simulate_ensemble(scalar, 0.2, cfg).absorbed_at == 0.0)


def test_repeated_levels_are_watched_once():
    # a level given twice is one level: its hits are no ties, and its bridge
    # uniforms come from one stream
    base = SimConfig(dt=1e-2, horizon=5.0, seed=3, n_paths=2_000, stop_levels=(0.7,))
    once = simulate_ensemble(bm(), 0.5, base)
    assert once.tie_count == 0
    for cfg in (replace(base, stop_levels=(0.7, 0.7)), replace(base, watch_levels=(0.7, 0.7))):
        _assert_same_ensemble(once, simulate_ensemble(bm(), 0.5, cfg))
    watched = replace(base, stop_levels=(), watch_levels=(0.7,))
    _assert_same_ensemble(simulate_ensemble(bm(), 0.5, watched),
                          simulate_ensemble(bm(), 0.5, replace(watched, watch_levels=(0.7, 0.7))))


def _failing_from(level, kind):
    """A BM coefficient that fails from `level` on (a NaN drift, a zero a or
    an a that raises), and the largest value it was evaluated at."""
    seen = [-math.inf]

    def coeff(y):
        y = np.asarray(y)
        seen[0] = max(seen[0], float(y.max()))
        if kind == "raise":
            if np.any(y >= level):
                raise ValueError("y out of range")
            return np.ones(y.shape)
        bad = math.nan if kind == "nan b" else 0.0
        return np.where(y < level, 0.0 if kind == "nan b" else 1.0, bad)

    spec = replace(bm(), **{"drift" if kind == "nan b" else "diffusion": coeff})
    return spec, seen


@pytest.mark.parametrize("kind", ["nan b", "zero a", "raise"])
def test_a_failure_past_a_stop_is_no_error(kind, monkeypatch):
    # BM from 1 stopped at 2, with a coefficient that fails from 2.5 on: only
    # the rows a block runs past a path's stop reach it, and there it cuts
    # the block instead of failing
    spec, seen = _failing_from(2.5, kind)
    cfg = SimConfig(dt=1e-2, horizon=20.0, seed=5, n_paths=20, stop_levels=(2.0,))
    blocked = simulate_ensemble(spec, 1.0, cfg)
    assert seen[0] >= 2.5
    assert np.any(blocked.final_values == 2.0) and np.any(blocked.absorbed_at == 0.0)
    monkeypatch.setattr(simulate, "_BLOCK_DRAWS", 1)  # one step per block: no rows past a stop
    seen[0] = -math.inf
    _assert_same_ensemble(blocked, simulate_ensemble(spec, 1.0, cfg))
    assert seen[0] < 2.5


@pytest.mark.parametrize("kind, message", [
    ("nan b", "coefficient failure on path 13 at t=0.5000000000000002, y=2.6243426352592842"),
    ("zero a", "coefficient failure on path 13 at t=0.5000000000000002, y=2.6243426352592842"),
    ("raise", "coefficient evaluation failed at t=0.5000000000000002: y out of range"),
])
def test_a_running_path_at_a_failure_fails_as_per_step(kind, message, monkeypatch):
    # stopped at 4, path 13 runs into the failure at t = 0.5, inside the
    # first block: the block is cut there and the next one names it
    spec, _seen = _failing_from(2.5, kind)
    cfg = SimConfig(dt=1e-2, horizon=20.0, seed=5, n_paths=20, stop_levels=(4.0,))
    for block_draws in (simulate._BLOCK_DRAWS, 1):
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block_draws)
        with pytest.raises(EvalDomainError) as failure:
            simulate_ensemble(spec, 1.0, cfg)
        assert str(failure.value) == message


def test_no_coefficient_is_evaluated_past_a_stop_at_an_end():
    # BM between 0 and 2, capped at 1.5, with an evaluated drift: a block's
    # rows run on past a path's stop, but a path that reached an end or the
    # cap holds its last value, so the drift never sees a value out there
    seen = [math.inf, -math.inf]

    def drift(y):
        seen[:] = min(seen[0], float(y.min())), max(seen[1], float(y.max()))
        return np.zeros(np.shape(y))

    cfg = SimConfig(dt=0.05, horizon=10.0, seed=4, n_paths=200, cap=1.5)
    res = simulate_ensemble(replace(bm(0.0, 2.0), drift=drift), 1.0, cfg)
    assert np.any(res.absorbed_at == 0.0) and np.any(res.absorbed_at == math.inf)
    assert 0.0 < seen[0] and seen[1] < 1.5
    _assert_same_ensemble(res, simulate_ensemble(bm(0.0, 2.0), 1.0, cfg))


@pytest.mark.parametrize("extra, ends", [
    ({}, (1.5, 3.75, 2.0)),
    # beside a fixed stop level and the cap, which shadow the regime level 3.75
    (dict(dt=0.1, stop_levels=(3.0,), cap=3.5), (1.5, 2.0, 3.0, math.inf)),
], ids=["switches", "switches-stop-cap"])
def test_regime_run_blocks_change_no_byte(extra, ends, monkeypatch):
    # the counterexample's walk: each path's stop level switches when it
    # crosses 3/4 and then 1/4, often inside a block.  Neither the block size
    # nor the quiet test (every block eventful) changes a byte
    cfg = replace(SimConfig(dt=1e-2, horizon=30.0, seed=1, n_paths=2_000,
                            watch_levels=(0.75, 0.25)), **extra)
    levels = (1.5, 3.75, 2.0)
    run = (bm(), 1.0, cfg, 0, cfg.n_paths, [0.5])
    blocked = simulate._simulate(*run, levels_by_regime=levels)
    stops = np.where(blocked.absorbed_at == math.inf, math.inf, blocked.final_values)
    for end in ends:
        assert np.any(stops == end), end
    for block_draws, quiet in ((1, simulate._quiet), (simulate._BLOCK_DRAWS, _never_quiet),
                               (1, _never_quiet)):
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block_draws)
        monkeypatch.setattr(simulate, "_quiet", quiet)
        _assert_same_ensemble(blocked, simulate._simulate(*run, levels_by_regime=levels))


def test_regime_counts_the_levels_crossed_in_order():
    # a level counts only once every level before it has: the last path
    # crossed the second level and not the first, so it is in regime 0
    first = np.array([False, True, True, False])
    second = np.array([False, False, True, True])
    assert simulate._regime([first, second]).tolist() == [0, 1, 2, 0]
    assert simulate._regime([first]).tolist() == [0, 1, 1, 0]
    # per row and path, as a block's switches give them
    first = np.array([[False, False, True], [True, False, True]])
    second = np.array([[False, True, False], [True, True, True]])
    third = np.array([[True, True, True], [False, True, True]])
    assert simulate._regime([first, second]).tolist() == [[0, 0, 1], [2, 0, 2]]
    assert simulate._regime([first, second, third]).tolist() == [[0, 0, 1], [2, 0, 3]]


def _never_quiet(*_args):
    """`_quiet` that makes every block eventful."""
    return False


def test_quiet_reads_the_stop_levels_of_present_regimes(monkeypatch):
    # every path starts in regime 0, so only its stop level 1.5 is a mark
    # until some path crosses 3/4
    marked = []
    quiet = simulate._quiet

    def recording(lo, hi, a_dt, cap, marks, l, r):
        marked.append(list(marks))
        return quiet(lo, hi, a_dt, cap, marks, l, r)

    monkeypatch.setattr(simulate, "_quiet", recording)
    cfg = SimConfig(dt=1e-2, horizon=30.0, seed=1, n_paths=2_000, watch_levels=(0.75, 0.25))
    simulate._simulate(bm(), 1.0, cfg, 0, cfg.n_paths, [], levels_by_regime=(1.5, 3.75, 2.0))
    assert 1.5 in marked[0] and 3.75 not in marked[0] and 2.0 not in marked[0]
    assert any(3.75 in marks for marks in marked)


def _failing_at(index, value):
    """An array coefficient equal to 1 except `value` on running path `index`."""
    def coeff(y):
        out = np.ones(np.shape(y))
        out[index] = value
        return out
    return coeff


@pytest.mark.parametrize("drift, diffusion, path", [
    (_failing_at(3, np.nan), None, 3),
    (None, _failing_at(5, 0.0), 5),
    (None, _failing_at(2, math.inf), 2),
    (_failing_at(4, -math.inf), _failing_at(6, 0.0), 4),
    (_failing_at(4, math.nan), _failing_at(1, -1.0), 1),
    # a bad constant fails every path, so the first one
    (None, Const(0.0), 0),
    (None, Const(math.inf), 0),
    (Const(math.nan), None, 0),
    (Const(-math.inf), None, 0),
    (_failing_at(4, math.nan), Const(-1.0), 0),
])
def test_coefficient_failure_names_the_first_bad_path(drift, diffusion, path):
    spec = replace(bm(), drift=drift or bm().drift, diffusion=diffusion or bm().diffusion)
    cfg = SimConfig(dt=1e-2, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(EvalDomainError,
                       match=rf"^coefficient failure on path {path} at t=0\.0, y=1\.0$"):
        simulate_ensemble(spec, 1.0, cfg)


def test_overflowing_finite_drift_is_no_failure():
    # a finite drift whose step overflows is not a coefficient failure: the
    # path passes the cap and stops there
    huge = replace(bm(), drift=lambda y: np.full(np.shape(y), 1e308))
    with np.errstate(over="ignore"):
        res = simulate_ensemble(huge, 1.0, SimConfig(dt=10.0, horizon=20.0, n_paths=5))
    assert np.all(res.absorbed_at == math.inf) and np.all(res.final_values == math.inf)


def test_overflowing_finite_drift_leaks_no_warning():
    # the kernel silences the step's overflow itself; a warning would reach
    # stderr, which the CLI and the benchmark digest read
    huge = replace(bm(), drift=lambda y: np.full(np.shape(y), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate_ensemble(huge, 1.0, SimConfig(dt=10.0, horizon=20.0, n_paths=5))
        path = simulate_path(huge, 1.0, SimConfig(dt=10.0, horizon=20.0), 3)
    assert np.all(res.final_values == math.inf) and path.values[-1] == math.inf


def _calling_first(drift, hook):
    """`drift` that calls `hook()` before its first evaluation."""
    pending = [hook]

    def wrapped(y):
        while pending:
            pending.pop()()
        return drift(y)
    return wrapped


def test_a_run_in_a_thread_changes_no_state_outside_itself():
    # the overflow rule is numpy's per-thread error state: a filter the main
    # thread sets while a run in a second thread is under way outlives the
    # run, and two runs at once give the values of two runs in turn
    started, released = threading.Event(), threading.Event()

    def pause():
        started.set()
        released.wait()

    spec = replace(bm(), drift=_calling_first(bm().drift, pause))
    cfg = SimConfig(dt=1e-2, horizon=1.0, seed=1, n_paths=10)
    error_state = np.geterr()
    run = threading.Thread(target=simulate_ensemble, args=(spec, 1.0, cfg))
    with warnings.catch_warnings():
        run.start()
        try:
            assert started.wait(timeout=60)
            assert np.geterr() == error_state  # the run's errstate is its own thread's
            warnings.filterwarnings("error", category=RuntimeWarning)
        finally:
            released.set()
            run.join()
        assert warnings.filters[0] == ("error", None, RuntimeWarning, None, 0)

    # an overflowing run beside a bessel3 run with a schedule, levels,
    # snapshots and the time integral; each waits on its first drift call
    # until both are under way
    huge = replace(bm(), drift=lambda y: np.full(np.shape(y), 1e308))
    runs = [(huge, 1.0, SimConfig(dt=10.0, horizon=20.0, n_paths=5)), _BLOCK_CASES[0]]
    in_turn = [simulate_ensemble(replace(spec, drift=_calling_first(spec.drift, lambda: None)),
                                 x0, cfg) for spec, x0, cfg in runs]
    both_running = threading.Barrier(2, timeout=60)
    at_once = [None, None]

    def run_at_once(i):
        spec, x0, cfg = runs[i]
        spec = replace(spec, drift=_calling_first(spec.drift, both_running.wait))
        at_once[i] = simulate_ensemble(spec, x0, cfg)

    filters = list(warnings.filters)
    threads = [threading.Thread(target=run_at_once, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert warnings.filters == filters
    for one, other in zip(in_turn, at_once):
        _assert_same_ensemble(one, other)


# (spec, x0, config) for the quiet-step tests, each with quiet and eventful
# steps: a bessel3 tail with snapshots, the time integral and a cap; BM
# between two stop levels, with ties at dt 0.25 and then fine steps; bessel3
# at dt 0.5, where the halving guard fires; levels at the finite end, inside
# and at the infinite end of (0, inf); no bridge correction; and a watch
# level that every running path has crossed, which leaves the marks
_QUIET_CASES = [
    (bessel3(), 1.0, SimConfig(
        dt=1e-2, horizon=200.0, cap=10.0, seed=4, n_paths=300, stop_levels=(0.5,),
        watch_levels=(0.8,), dt_schedule=((1.0, 1e-2), (10.0, 0.05), (200.0, 0.25)),
        snapshot_times=(0.5, 15.0), track_time_average=True)),
    (bm(), 1.0, SimConfig(dt=0.25, horizon=60.0, seed=5, n_paths=500, stop_levels=(0.2, 2.5),
                          dt_schedule=((3.0, 0.25), (60.0, 0.01)))),
    (bessel3(), 1.0, SimConfig(dt=0.5, horizon=100.0, cap=30.0, seed=8, n_paths=100,
                               watch_levels=(0.0,))),
    (bm(), 1.0, SimConfig(dt=0.01, horizon=10.0, seed=6, n_paths=20,
                          watch_levels=(math.inf, 0.0, 1.5), snapshot_times=(2.0,))),
    (bessel3(), 1.0, SimConfig(dt=0.05, horizon=60.0, cap=6.0, seed=9, n_paths=300,
                               bridge_correction=False, stop_levels=(0.5,), watch_levels=(5.5,),
                               track_time_average=True)),
    (bm(), 1.0, SimConfig(dt=0.01, horizon=30.0, seed=7, n_paths=200, stop_levels=(3.0,),
                          watch_levels=(1.2,))),
]


def _quiet_counts(monkeypatch):
    """Patch `_quiet` to count its (eventful, quiet) answers."""
    counts = [0, 0]
    quiet = simulate._quiet

    def counted(*args):
        answer = quiet(*args)
        counts[answer] += 1
        return answer

    monkeypatch.setattr(simulate, "_quiet", counted)
    return counts


def _uniform_draws(monkeypatch):
    """Patch the bridge uniforms to count their draws."""
    drawn = [0]
    uniforms = simulate.rng.uniforms

    def counted(keys, step, stream):
        drawn[0] += keys.size
        return uniforms(keys, step, stream)

    monkeypatch.setattr(simulate.rng, "uniforms", counted)
    return drawn


@pytest.mark.parametrize("spec, x0, cfg", _QUIET_CASES)
def test_quiet_steps_change_no_byte(spec, x0, cfg, monkeypatch):
    # at the default block size, and with one step per block, where the
    # predicate both declines and fires on steps
    counts = _quiet_counts(monkeypatch)
    drawn = _uniform_draws(monkeypatch)
    runs = []
    for block_draws in (simulate._BLOCK_DRAWS, 1):
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block_draws)
        counts[:] = [0, 0]
        drawn[0] = 0
        fast = simulate_ensemble(spec, x0, cfg)
        runs.append((block_draws, fast, drawn[0], simulate_path(spec, x0, cfg, 7)))
    assert counts[0] and counts[1]  # the predicate both declines and fires
    (_, blocked, _, path), (_, per_step, _, path_per_step) = runs
    _assert_same_ensemble(blocked, per_step)
    assert _same_bits(path.values, path_per_step.values) and _same_record(path, path_per_step)
    monkeypatch.setattr(simulate, "_quiet", lambda *args: False)  # every block eventful
    for block_draws, fast, fast_draws, path in runs:
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block_draws)
        drawn[0] = 0
        _assert_same_ensemble(fast, simulate_ensemble(spec, x0, cfg))
        assert drawn[0] == fast_draws  # a quiet block is one with no bridge uniform to draw
        slow = simulate_path(spec, x0, cfg, 7)
        assert _same_bits(path.times, slow.times) and _same_bits(path.values, slow.values)
        assert _same_record(path, slow)


def test_quiet_cases_exercise_every_event(monkeypatch):
    capped, tied, halving, levels, unbridged = (simulate_ensemble(*case)
                                                for case in _QUIET_CASES[:5])
    assert np.any(capped.absorbed_at == math.inf) and np.any(capped.final_values == 0.5)
    assert np.any(np.isfinite(capped.hit_times[0.8]))
    assert tied.tie_count > 0
    assert np.any(tied.final_values == 0.2) and np.any(tied.final_values == 2.5)
    assert np.any(levels.absorbed_at == 0.0) and np.any(np.isfinite(levels.hit_times[1.5]))
    assert np.all(np.isnan(levels.hit_times[math.inf]))
    assert np.any(unbridged.final_values == 0.5) and np.any(unbridged.absorbed_at == math.inf)
    assert np.any(halving.truncated) and not np.any(halving.absorbed_at == 0.0)
    monkeypatch.setattr(simulate, "_MAX_HALVINGS", 0)
    assert np.any(simulate_ensemble(*_QUIET_CASES[2]).absorbed_at == 0.0)


def test_quiet_drops_a_level_every_running_path_crossed(monkeypatch):
    # paths that stay below 1.2 are soon absorbed at 0; from then on 1.2 can
    # hold no event, so it is no longer a mark that keeps a step eventful
    marked = []
    quiet = simulate._quiet

    def recording(lo, hi, a_dt, cap, marks, l, r):
        marked.append(1.2 in marks)
        return quiet(lo, hi, a_dt, cap, marks, l, r)

    monkeypatch.setattr(simulate, "_quiet", recording)
    simulate_ensemble(*_QUIET_CASES[5])
    assert marked[0] and not marked[-1]


def test_quiet_steps_keep_tiny_coefficients_silent(monkeypatch):
    # a ~ 1e-310: the quiet test's exponent overflows to -inf like the
    # kernel's; a drift of 1 reaches the watched level 2 near t = 1
    flat = DiffusionSpec(Interval(0.0, math.inf),
                         drift=lambda y: np.ones_like(np.asarray(y, dtype=float)),
                         diffusion=lambda y: np.full(np.shape(y), 1e-310))
    cfg = SimConfig(dt=1e-2, horizon=3.0, seed=2, n_paths=50, watch_levels=(2.0,))
    counts = _quiet_counts(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = simulate_ensemble(flat, 1.0, cfg)
        assert counts[0] and counts[1]
        monkeypatch.setattr(simulate, "_quiet", lambda *args: False)
        _assert_same_ensemble(fast, simulate_ensemble(flat, 1.0, cfg))
    assert np.all(fast.hit_times[2.0] > 0.9)


def test_quiet_declines_at_every_reach():
    # steps within [1, 1.2] with a dt = 0.01: level 0.5's nearest exponent
    # is -2 (0.5)(0.5) / 0.01 = -50
    args = dict(lo=1.0, hi=1.2, a_dt=0.01, cap=10.0, l=0.0, r=math.inf)
    assert simulate._quiet(**args, marks=[0.5, 3.0])
    assert not simulate._quiet(**args, marks=[0.6])           # exponent -32: within reach
    assert not simulate._quiet(**args, marks=[1.08])          # inside the range
    assert not simulate._quiet(**{**args, "cap": 1.2}, marks=[])      # at the cap
    assert not simulate._quiet(**{**args, "l": 1.0}, marks=[])        # at a boundary
    assert not simulate._quiet(**{**args, "r": 1.2 + 1e-13}, marks=[])
    assert not simulate._quiet(**{**args, "lo": math.nan}, marks=[])
    assert not simulate._quiet(**{**args, "a_dt": 0.0}, marks=[0.5])
    # values reaching past a finite boundary, as after the halving guard
    # moved a proposal back inside, make the step eventful
    assert not simulate._quiet(**{**args, "lo": -0.1}, marks=[0.0])
    assert not simulate._quiet(**{**args, "hi": 4.5, "r": 4.0}, marks=[4.0])
    # one mark on its own, as an eventful step tests it: no cap, and the
    # clamp distance only at a boundary mark
    one = {**args, "cap": math.inf, "l": -math.inf}
    assert simulate._quiet(**one, marks=[0.5])                            # a level
    assert not simulate._quiet(**one, marks=[0.6])
    assert simulate._quiet(**{**one, "l": 0.5}, marks=[0.5])             # a lower boundary
    near_l = 1.0 - 5e-13                                                 # within the clamp
    assert not simulate._quiet(**{**one, "l": near_l}, marks=[near_l])
    assert simulate._quiet(**{**one, "r": 3.0}, marks=[3.0])             # an upper boundary
    assert not simulate._quiet(**{**one, "r": 1.3}, marks=[1.3])         # exponent -2


# bessel3 at dt 0.5 with one path and one watch level: the halving guard
# moves the path's value up from below 0 to a value neither the values' nor
# the proposals' range holds.  From 0.4 watching 3.5, on that same step the
# level is within bridge reach of the moved value only; from 1 watching 4,
# it is on the next step (each case draws one more uniform than a test on
# the stale ranges would)
@pytest.mark.parametrize("x0, level, seed", [(0.4, 3.5, 9), (0.4, 3.5, 11),
                                             (1.0, 4.0, 242), (1.0, 4.0, 743)])
def test_guarded_steps_keep_every_mark_in_reach(x0, level, seed, monkeypatch):
    cfg = SimConfig(dt=0.5, horizon=5.0, seed=seed, n_paths=1, watch_levels=(level,))
    drawn = _uniform_draws(monkeypatch)
    fast = simulate_ensemble(bessel3(), x0, cfg)
    fast_draws = drawn[0]
    monkeypatch.setattr(simulate, "_quiet", lambda *args: False)  # every mark in reach
    drawn[0] = 0
    _assert_same_ensemble(fast, simulate_ensemble(bessel3(), x0, cfg))
    assert drawn[0] == fast_draws
    monkeypatch.setattr(simulate, "_MAX_HALVINGS", 0)  # the guard fires: without it, absorbed
    assert simulate_ensemble(bessel3(), x0, cfg).absorbed_at[0] == 0.0


def test_a_mark_out_of_reach_costs_nothing(monkeypatch):
    # BM on (0, 100) from 1, stopped at 2: no path comes near 100, so no
    # step runs its bridge test, while 0 and 2 are crossed
    streams = []
    crossings = simulate._crossings

    def recording(gap, a_dt, candidates, keys, step, stream):
        streams.append(stream)
        return crossings(gap, a_dt, candidates, keys, step, stream)

    monkeypatch.setattr(simulate, "_crossings", recording)
    cfg = SimConfig(dt=0.01, horizon=20.0, seed=3, n_paths=200, stop_levels=(2.0,))
    res = simulate_ensemble(bm(0.0, 100.0), 1.0, cfg)
    assert np.any(res.absorbed_at == 0.0) and np.any(res.final_values == 2.0)
    assert rng.STREAM_BRIDGE_LOWER in streams and rng.STREAM_WATCH in streams
    assert rng.STREAM_BRIDGE_UPPER not in streams


def _crossings_by_exponent(gap, a_dt, candidates):
    """The paths whose bridge crossing probability exceeds 1e-16, as the
    crossing test selected them before its cut on gap: by the exponent,
    formed on every path."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        expo = -2.0 * gap / a_dt
    idx = (candidates & (expo > -37.0)).nonzero()[0]
    return idx[np.exp(expo[idx]) > 1e-16]


def test_crossings_cut_drops_no_draw(monkeypatch):
    # gaps around the 1e-16 threshold (gap = 18.42 a dt), and zero,
    # infinite and NaN gaps and step variances
    a_dt = np.concatenate([np.full(4001, 0.01), np.full(4001, 3e-300), [0.0, 0.0, 1.0, 1.0]])
    gap = np.concatenate([np.linspace(18.3, 18.6, 4001) * 0.01,
                          np.linspace(18.3, 18.6, 4001) * 3e-300,
                          [1.0, 0.0, math.inf, math.nan]])
    candidates = np.ones(gap.size, dtype=bool)
    candidates[::7] = False
    drawn = []

    def ones(keys, step, stream):  # record the keys drawn; no uniform is below 1
        drawn.append(keys.copy())
        return np.ones(keys.size)

    monkeypatch.setattr(simulate.rng, "uniforms", ones)
    keys = np.arange(gap.size, dtype=np.uint64)
    expected = _crossings_by_exponent(gap, a_dt, candidates)
    assert 0 < expected.size < candidates.sum()
    with warnings.catch_warnings():  # the cut forms no exponent that overflows
        warnings.simplefilter("error")
        assert simulate._crossings(gap, a_dt, candidates, keys, 0, 1).size == 0
        assert _same_bits(drawn[0], keys[expected])
        drawn.clear()  # one step variance for all paths
        expected = _crossings_by_exponent(gap[:4001], 0.01, candidates[:4001])
        simulate._crossings(gap[:4001], 0.01, candidates[:4001], keys[:4001], 0, 1)
        assert _same_bits(drawn[0], keys[expected])


def _array_twin(spec: DiffusionSpec) -> DiffusionSpec:
    """`spec` with each coefficient behind a plain function, which the kernel
    calls on every step and which returns one value per path."""
    return replace(spec, drift=lambda y: spec.drift(y), diffusion=lambda y: spec.diffusion(y))


@pytest.mark.parametrize("spec, x0, cfg", _QUIET_CASES + _BLOCK_CASES)
def test_constant_coefficients_change_no_byte(spec, x0, cfg, monkeypatch):
    # bm and bessel3 have Const coefficients, which the kernel reads once
    assert const_value(spec.diffusion) == 1.0
    drawn = _uniform_draws(monkeypatch)
    read = simulate_ensemble(spec, x0, cfg)
    read_draws = drawn[0]
    path = simulate_path(spec, x0, cfg, 7)
    twin = _array_twin(spec)
    drawn[0] = 0
    _assert_same_ensemble(read, simulate_ensemble(twin, x0, cfg))
    assert drawn[0] == read_draws
    evaluated = simulate_path(twin, x0, cfg, 7)
    assert _same_bits(path.times, evaluated.times) and _same_bits(path.values, evaluated.values)
    assert _same_record(path, evaluated)


class _Unread(Const):
    """A constant coefficient that fails when called."""

    def __call__(self, y):
        raise AssertionError(f"the constant {self.value} was evaluated")


@pytest.mark.parametrize("spec, x0, cfg", [_QUIET_CASES[1], _QUIET_CASES[3], _BLOCK_CASES[1]])
def test_the_kernel_never_calls_a_constant(spec, x0, cfg):
    # BM with ties, levels at both ends and a snapshot; bessel3 through the
    # halving guard
    unread = replace(spec, diffusion=_Unread(1.0))
    if const_value(spec.drift) is not None:
        unread = replace(unread, drift=_Unread(const_value(spec.drift)))
    _assert_same_ensemble(simulate_ensemble(spec, x0, cfg), simulate_ensemble(unread, x0, cfg))
    simulate_path(unread, x0, cfg, 7)


@pytest.mark.parametrize("x0, t", [(1.0, 1.0), (0.0, 2.0), (3.0, 0.5)])
def test_exact_bessel3_second_moment(x0, t):
    # R_t^2 = |x0 e1 + W_t|^2 has mean x0^2 + 3t
    r2 = simulate.exact_bessel3(x0, t, 20_000, seed=21) ** 2
    stderr = float(np.std(r2, ddof=1)) / math.sqrt(r2.size)
    assert abs(float(np.mean(r2)) - (x0 * x0 + 3.0 * t)) <= 4.0 * stderr


@pytest.mark.parametrize("x0, t", [(1.0, 1.0), (0.5, 2.0)])
def test_exact_stopped_bm_absorption_and_mean(x0, t):
    # P(BM from x0 hits 0 by t) = 2 P(W_t < -x0) = erfc(x0 / sqrt(2t)), and
    # the stopped martingale keeps its mean x0
    w = simulate.exact_stopped_bm(x0, t, 20_000, seed=22)
    p = math.erfc(x0 / math.sqrt(2.0 * t))
    absorbed = float(np.mean(w == 0.0))
    assert abs(absorbed - p) <= 4.0 * math.sqrt(p * (1.0 - p) / w.size)
    stderr = float(np.std(w, ddof=1)) / math.sqrt(w.size)
    assert abs(float(np.mean(w)) - x0) <= 4.0 * stderr
    assert float(np.min(w)) >= 0.0


@pytest.mark.parametrize("sampler", [simulate.exact_bessel3, simulate.exact_stopped_bm])
def test_exact_sampler_prefix_equals_smaller_draw(sampler):
    full = sampler(1.5, 0.7, 1_000, 23)
    assert np.array_equal(full[:37], sampler(1.5, 0.7, 37, 23))


def test_exact_samplers_refuse_bad_starts_and_times():
    # a non-finite start or time would give NaNs or infs, and n_paths < 1 an
    # empty array
    both = (simulate.exact_bessel3, simulate.exact_stopped_bm)
    cases = [(simulate.exact_bessel3, -1.0, 1.0, 10), (simulate.exact_stopped_bm, 0.0, 1.0, 10)]
    cases += [(sampler, x0, t, n_paths) for sampler in both
              for x0, t, n_paths in ((1.0, 0.0, 10), (1.0, -1.0, 10), (1.0, math.nan, 3),
                                     (1.0, math.inf, 3), (math.inf, 1.0, 3), (math.nan, 1.0, 3),
                                     (1.0, 1.0, 0), (1.0, 1.0, -2))]
    for sampler, x0, t, n_paths in cases:
        with pytest.raises(ValueError, match=r"^need .* n_paths >= 1; got "):
            sampler(x0, t, n_paths, 0)


@pytest.mark.parametrize("path_index", [-1, 1.5, 2**63])
def test_simulate_path_refuses_an_index_it_cannot_key(path_index):
    # -1 would run path 2**64 - 1's noise, 1.5 path 1's, and 2**63 overflow
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=3)
    with pytest.raises(ValueError, match=rf"^path_index must be an integer in \[0, 2\*\*63\), "
                                         rf"got {path_index}$"):
        simulate_path(bm(), 1.0, cfg, path_index)


def test_simulate_path_runs_the_first_and_last_index():
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=3)
    for path_index in (0, 2**63 - 1):
        path = simulate_path(bm(), 1.0, cfg, path_index)
        ensemble = simulate._simulate(bm(), 1.0, cfg, path_index, 1, [])
        assert _same_bits(path.values[-1], ensemble.final_values[0])
