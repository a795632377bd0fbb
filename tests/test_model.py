import math

import numpy as np
import pytest

from condflow.model import (
    Const,
    Interval,
    McEstimate,
    PathSample,
    bessel3,
    bm,
    const_value,
    gbm,
    named_family,
)
from condflow.simulate import SimConfig, simulate_ensemble, simulate_path


def test_terminal_value_requires_nonempty():
    with pytest.raises(ValueError):
        PathSample(times=np.zeros(0), values=np.zeros(0), hit_times={})


def test_terminal_mass_matches_first_passage_law():
    # closed-form oracle: P(hit 0 by t | start x0) = 2 Phi(-x0 / sqrt(t))
    horizon = 50.0
    oracle = 2.0 * 0.5 * math.erfc(1.0 / math.sqrt(50.0) / math.sqrt(2.0))
    assert abs(oracle - 0.887537) < 1e-6
    cfg = SimConfig(dt=1e-3, horizon=horizon, seed=7, n_paths=10_000,
                    dt_schedule=((5.0, 1e-3), (horizon, 1e-2)))
    res = simulate_ensemble(bm(), 1.0, cfg)
    at_zero = float(np.mean(res.final_values == 0.0))
    stderr = math.sqrt(oracle * (1 - oracle) / cfg.n_paths)
    assert abs(at_zero - oracle) <= 4 * stderr
    assert np.all(res.final_values >= 0.0)
    assert np.all(res.final_values[res.truncated] > 0.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    assert Interval(0.0, math.inf).contains(5.0)


def test_path_times_must_increase():
    with pytest.raises(ValueError):
        PathSample(times=np.array([0.0, 0.0, 1.0]), values=np.zeros(3), hit_times={})
    with pytest.raises(ValueError):
        PathSample(times=np.array([0.5, 1.0]), values=np.zeros(2), hit_times={})


def test_absorption_freezes_values():
    cfg = SimConfig(dt=1e-3, horizon=30.0, seed=21, n_paths=1, watch_levels=(0.0,))
    for index in range(12):
        path = simulate_path(bm(), 0.3, cfg, index)
        if math.isfinite(path.hit_times[0.0]):  # the watch level 0 follows absorption
            k = np.searchsorted(path.times, path.hit_times[0.0])
            assert path.times[k] == path.hit_times[0.0]
            assert np.all(path.values[k:] == 0.0)
            break
    else:
        pytest.fail("no path absorbed at 0 in twelve tries")


def test_mc_estimate_helpers():
    est = McEstimate.from_samples(np.array([1.0, 1.0, 1.0]))
    assert est.value == 1.0 and est.stderr == 0.0
    est = McEstimate.from_binomial(25, 100)
    assert est.value == 0.25
    assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100))
    with pytest.raises(ValueError):
        McEstimate(value=0.0, stderr=-1.0)
    with pytest.raises(ValueError, match="no sample"):
        McEstimate.from_samples(np.zeros(0))


def test_named_families():
    assert named_family("bm").label == "bm"
    assert named_family("gbm").diffusion(3.0) == 9.0
    assert named_family("bessel3").drift(2.0) == 0.5
    with pytest.raises(KeyError):
        named_family("cauchy")


def test_family_coefficients_vectorize():
    ys = np.linspace(0.5, 4.0, 7)
    for spec in (bm(), gbm(), bessel3()):
        spec.validate_on(ys)
        assert np.shape(spec.drift(ys)) == ys.shape
        assert np.shape(spec.diffusion(ys)) == ys.shape


def test_const_is_a_frozen_vectorized_coefficient():
    two = Const(2)
    assert type(two.value) is float and const_value(two) == 2.0
    assert const_value(lambda y: 2.0) is None
    ys = np.linspace(0.5, 4.0, 7)
    assert two(ys).tobytes() == np.full(7, 2.0).tobytes()
    assert np.shape(two(1.5)) == () and float(two(1.5)) == 2.0
    with pytest.raises(AttributeError):  # frozen
        two.value = 3.0


def test_validate_on_rejects_nonpositive_diffusion():
    from condflow.model import DiffusionSpec

    spec = DiffusionSpec(Interval(0.0, 10.0), drift=lambda y: 0.0 * y,
                         diffusion=lambda y: y - 5.0, label="bad")
    with pytest.raises(ValueError):
        spec.validate_on(np.array([1.0, 6.0]))
