import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from condflow import simulate
from condflow.counterexample import (
    TildeEnsemble,
    build_tilde,
    compare_conditionings,
    run_tilde_ensemble,
)
from condflow.errors import InsufficientSamplesError, NeedLongerHorizonError
from condflow.model import PathSample
from condflow.simulate import EnsembleResult, SimConfig, simulate_path
from condflow.model import bm


def _sample(times, values, hit_times):
    return PathSample(times=np.asarray(times, dtype=float),
                      values=np.asarray(values, dtype=float),
                      absorbed_at=math.nan, truncated=False, hit_times=hit_times)


def _switches(t_hi, t_lo):
    """Hit times of the switch levels 3/4 and 1/4; nan for never."""
    return {0.75: t_hi, 0.25: t_lo}


def test_first_regime_doubles_moves():
    # path stays well above 3/4: transformed path is 2x - 1 throughout
    path = _sample([0.0, 1.0, 2.0], [1.0, 1.2, 0.9], _switches(math.nan, math.nan))
    np.testing.assert_allclose(build_tilde(path), [1.0, 1.4, 0.8])


def test_continuous_at_first_switch():
    # both regime formulas give 1/2 when the base path sits at 3/4
    path = _sample([0.0, 1.0, 2.0], [1.0, 0.75, 0.8], _switches(1.0, math.nan))
    tilde = build_tilde(path)
    assert tilde[1] == pytest.approx(0.5)       # boundary sample, regime 1
    assert tilde[2] == pytest.approx(0.525)     # x/2 + 1/8 afterwards


def test_merged_at_second_switch():
    path = _sample([0.0, 1.0, 2.0, 3.0], [1.0, 0.75, 0.25, 0.4],
                   _switches(1.0, 2.0))
    tilde = build_tilde(path)
    assert tilde[2] == pytest.approx(0.25)  # x/2 + 1/8 = x at 1/4
    assert tilde[3] == pytest.approx(0.4)   # merged with the base


def test_starts_at_one():
    path = _sample([0.0, 1.0], [1.0, 1.1], _switches(math.nan, math.nan))
    assert build_tilde(path)[0] == 1.0


def test_missing_hit_records_rejected():
    for hit_times in ({}, {0.75: 0.5}, {0.25: math.nan}):
        with pytest.raises(ValueError):
            build_tilde(_sample([0.0, 1.0], [1.0, 1.1], hit_times))


def test_zero_hit_equivalence_and_continuity_on_simulated_paths():
    cfg = SimConfig(dt=1e-3, horizon=20.0, seed=17, n_paths=1,
                    watch_levels=(0.75, 0.25))
    found_absorbed = False
    for index in range(10):
        path = simulate_path(bm(), 1.0, cfg, index)
        base = np.asarray(path.values)
        tv = build_tilde(path)
        if path.absorbed_at == 0.0:
            found_absorbed = True
            k = int(np.argmax(base == 0.0))
            assert tv[k] == pytest.approx(0.0)       # reaches zero together
        assert np.all(tv[base > 0.0] > -1e-12)       # and not before
        # jumps bounded by twice the base increment plus the switch overshoot
        max_jump = np.max(np.abs(np.diff(tv)))
        bound = 2.0 * np.max(np.abs(np.diff(base))) + 0.1
        assert max_jump <= bound
    assert found_absorbed


def test_ensemble_martingale_and_acceptance():
    cfg = SimConfig(dt=1e-3, horizon=60.0, seed=18, n_paths=4_000,
                    dt_schedule=((2.0, 1e-3), (60.0, 1e-2)))
    res = run_tilde_ensemble(cfg, a=2.0)
    mean = float(np.mean(res.tilde_at_snap))
    stderr = float(np.std(res.tilde_at_snap, ddof=1) / math.sqrt(res.run.n))
    assert abs(mean - 1.0) <= 4 * stderr
    # weights at the stop: the mapped base value, positive only on hits
    hit = np.isfinite(res.hit_a_time)
    weight_x = res.run.final_values
    assert np.all(np.isin(weight_x[hit & (res.regime_at_stop == 0)], [1.5]))
    assert np.all(np.isin(weight_x[hit & (res.regime_at_stop == 1)], [3.75]))
    assert np.all(np.isin(weight_x[hit & (res.regime_at_stop == 2)], [2.0]))
    assert np.all(weight_x[res.run.absorbed_at == 0.0] == 0.0)


def test_compare_conditionings_report():
    cfg = SimConfig(dt=1e-3, horizon=60.0, seed=19, n_paths=6_000,
                    dt_schedule=((2.0, 1e-3), (60.0, 1e-2)))
    rep = compare_conditionings(cfg, a=2.0)
    # any hit of the level while the regimes disagree leaves different stop
    # values; that event has probability at least 1/3
    assert rep["freq_stop_value_differs"] > 0.1
    assert not rep["ks"]["pass"]    # the measures differ
    mean = rep["martingale_mean"]
    assert abs(mean["value"] - 1.0) <= 4 * max(mean["stderr"], 1e-12)
    # the library measures; the verdicts are the counterexample scenario's
    assert not rep.keys() & {"pass", "measures_differ", "martingale_pass"}


def test_compare_conditionings_refuses_a_short_horizon():
    cfg = SimConfig(dt=1e-2, horizon=0.5, seed=19, n_paths=200)
    with pytest.raises(NeedLongerHorizonError,
                       match=r"^compare_conditionings: [0-9.]+% of paths resolved neither "
                             r"level before the horizon$"):
        compare_conditionings(cfg)


@pytest.mark.parametrize("n_paths, seed, message", [
    (1, 19, "the rejection half (n = 0) has no path that hit a = 2"),
    (2, 1, "the weighted half (n = 1) has no path of positive weight"),
], ids=["rejection-half", "weighted-half"])
def test_compare_conditionings_names_an_empty_half(n_paths, seed, message):
    # the horizon resolves every path; what is missing is a sample in one half
    cfg = SimConfig(dt=1e-3, horizon=60.0, seed=seed, n_paths=n_paths,
                    dt_schedule=((2.0, 1e-3), (60.0, 1e-2)))
    with pytest.raises(InsufficientSamplesError,
                       match=f"^compare_conditionings: {re.escape(message)}$"):
        compare_conditionings(cfg)


def test_level_must_exceed_start():
    cfg = SimConfig(dt=1e-3, horizon=5.0, seed=20, n_paths=100)
    with pytest.raises(ValueError):
        run_tilde_ensemble(cfg, a=0.9)


def test_ensemble_agrees_with_path_api():
    # the one-path run watching the switch levels (on the same streams) has
    # the ensemble path's values until it stops: a path still running at
    # t = 1/2 has the same tilde value there, and a stopped path's regime is
    # the one its switch hits before the stop give
    cfg = SimConfig(dt=1e-3, horizon=0.6, seed=31, n_paths=200)
    res = run_tilde_ensemble(cfg, a=2.0)
    path_cfg = replace(cfg, n_paths=1, watch_levels=(0.75, 0.25))
    running, regimes = 0, []
    for i in range(cfg.n_paths):
        path = simulate_path(bm(), 1.0, path_cfg, i)
        if np.isfinite(res.hit_a_time[i]):
            stop = res.hit_a_time[i]
        elif res.run.absorbed_at[i] == 0.0:
            stop = path.times[np.argmax(path.values == 0.0)]
        else:
            assert res.run.truncated[i]
            stop = math.inf
        k = int(np.argmax(path.times >= 0.5 - 1e-12))
        if stop > path.times[k]:
            running += 1
            assert build_tilde(path)[k].tobytes() == res.tilde_at_snap[i].tobytes()
        if stop < math.inf:
            before = [path.hit_times[level] < stop for level in (0.75, 0.25)]  # nan: False
            regimes.append(before[0] * (1 + before[1]))
            assert res.regime_at_stop[i] == regimes[-1]
    assert running > 50 and {0, 2} <= set(regimes)


def test_quiet_steps_change_no_tilde_byte(monkeypatch):
    # the regimes' stop levels are marks: a step near one is never quiet
    cfg = SimConfig(dt=1e-2, horizon=30.0, seed=33, n_paths=300)
    quiet = simulate._quiet
    answers = []

    def recording(*args):
        answers.append(quiet(*args))
        return answers[-1]

    monkeypatch.setattr(simulate, "_quiet", recording)
    # at the default block size, and with one step per block, where the
    # predicate both declines and fires on steps
    runs = []
    for block_draws in (simulate._BLOCK_DRAWS, 1):
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block_draws)
        answers.clear()
        runs.append((block_draws, run_tilde_ensemble(cfg)))
    assert any(answers) and not all(answers)
    _assert_same_tilde(runs[0][1], runs[1][1])
    monkeypatch.setattr(simulate, "_quiet", lambda *args: False)  # every block eventful
    for block_draws, fast in runs:
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block_draws)
        _assert_same_tilde(fast, run_tilde_ensemble(cfg))


def _assert_same_tilde(fast: TildeEnsemble, slow: TildeEnsemble) -> None:
    pairs = [(getattr(fast.run, f.name), getattr(slow.run, f.name), f.name)
             for f in fields(EnsembleResult)]
    pairs += [(getattr(fast, f.name), getattr(slow, f.name), f.name)
              for f in fields(TildeEnsemble) if f.name != "run"]
    for got, want, name in pairs:
        if isinstance(got, dict):
            assert list(got) == list(want), name
            got, want = list(got.values()), list(want.values())
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
