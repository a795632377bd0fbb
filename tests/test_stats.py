import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow import rng
from condflow.errors import InsufficientSamplesError
from condflow.stats import (
    ecdf,
    effective_sample_size,
    ks_two_sample,
    ks_weighted,
    weighted_ecdf,
)


def test_identical_samples_statistic_zero():
    xs = np.linspace(0.0, 1.0, 200)
    result = ks_two_sample(xs, xs.copy())
    assert result.statistic == 0.0
    assert result.passed


def test_disjoint_supports_statistic_one():
    xs = np.linspace(0.0, 1.0, 100)
    result = ks_two_sample(xs, xs + 1.5)
    assert result.statistic == 1.0
    assert not result.passed
    # supports that merely touch at one point fall just short of 1
    touching = ks_two_sample(xs, xs + 1.0)
    assert touching.statistic == pytest.approx(1.0 - 1.0 / 100.0)


def test_two_normal_streams_pass():
    keys = rng.path_keys(77, np.arange(10_000, dtype=np.int64))
    result = ks_two_sample(rng.normals(keys, 0), rng.normals(keys, 1))
    assert result.passed


def test_critical_value_formula():
    xs = np.zeros(200)
    ys = np.zeros(300)
    result = ks_two_sample(xs, ys)
    assert result.critical_1pct == pytest.approx(1.628 * math.sqrt(500 / (200 * 300)))


def test_statistic_matches_scipy_oracle():
    rs = np.random.RandomState(0)
    xs = rs.normal(size=500)
    ys = rs.normal(loc=0.3, size=700)
    ours = ks_two_sample(xs, ys).statistic
    assert ours == pytest.approx(scipy.stats.ks_2samp(xs, ys).statistic, abs=1e-12)


def test_minimum_sample_size_enforced():
    with pytest.raises(InsufficientSamplesError):
        ks_two_sample(np.zeros(10), np.zeros(100))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_ks_symmetry(seed):
    rs = np.random.RandomState(seed)
    xs = rs.normal(size=80)
    ys = rs.normal(size=120)
    assert ks_two_sample(xs, ys).statistic == ks_two_sample(ys, xs).statistic


def test_weighted_ecdf_unit_weights_is_ecdf():
    rs = np.random.RandomState(3)
    xs = rs.normal(size=257)
    plain = ecdf(xs)
    weighted = weighted_ecdf(xs, np.ones_like(xs))
    probes = np.linspace(-3, 3, 101)
    np.testing.assert_allclose(weighted(probes), plain(probes))


def test_weighted_ecdf_single_positive_weight():
    xs = np.array([5.0, 1.0, 9.0])
    ws = np.array([0.0, 2.5, 0.0])
    fn = weighted_ecdf(xs, ws)
    assert fn(0.9) == 0.0
    assert fn(1.0) == 1.0  # right-continuous unit step at the weighted sample
    assert fn(10.0) == 1.0


def test_weighted_ecdf_rejects_zero_mass():
    with pytest.raises(InsufficientSamplesError):
        weighted_ecdf(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        weighted_ecdf(np.array([1.0]), np.array([-1.0]))


def test_constant_weight_on_acceptance_equals_rejection_ecdf():
    # weights a * 1{accept} renormalize to the plain conditional ECDF
    rs = np.random.RandomState(9)
    values = rs.normal(size=400)
    accept = values > 0.2
    weights = 2.0 * accept
    conditional = ecdf(values[accept])
    weighted = weighted_ecdf(values, weights)
    probes = np.linspace(-3, 3, 300)
    np.testing.assert_allclose(weighted(probes), conditional(probes))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_ecdf_bounds_and_monotonicity(sample):
    fn = ecdf(np.asarray(sample))
    probes = np.sort(np.concatenate([np.asarray(sample), np.linspace(-1e6, 1e6, 17)]))
    values = fn(probes)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= 0.0)
    assert fn(np.max(sample)) == 1.0


def test_ecdf_right_continuity():
    fn = ecdf(np.array([1.0, 1.0, 2.0]))
    assert fn(1.0) == pytest.approx(2.0 / 3.0)
    assert fn(np.nextafter(1.0, 0.0)) == 0.0


def test_ks_weighted_detects_shift():
    rs = np.random.RandomState(4)
    xs = rs.normal(size=2000)
    ys = rs.normal(loc=1.0, size=2000)
    result = ks_weighted(xs, np.ones_like(xs), ys)
    assert not result.passed
    same = ks_weighted(xs, np.ones_like(xs), rs.normal(size=2000))
    assert same.passed


def test_effective_sample_size():
    assert effective_sample_size(np.ones(50)) == pytest.approx(50.0)
    assert effective_sample_size(np.array([3.0])) == pytest.approx(1.0)
    assert effective_sample_size(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert effective_sample_size(np.zeros(3)) == 0.0


def test_ks_weighted_rejects_negative_weights():
    xs = np.linspace(0.0, 1.0, 200)
    ws = np.where(xs < 0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        ks_weighted(xs, ws, xs)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([1, 4, 50]))
def test_unit_weights_are_exact(seed, grain):
    # rounding to a coarse grid makes ties within and across the samples
    rs = np.random.RandomState(seed)
    xs = np.round(rs.normal(size=rs.randint(50, 300)) * grain) / grain
    ys = np.round(rs.normal(size=rs.randint(50, 300)) * grain) / grain
    plain = ks_two_sample(xs, ys)
    unit = ks_weighted(xs, np.ones_like(xs), ys)
    assert (plain.statistic, plain.n1, plain.n2, plain.critical_1pct, plain.passed) == \
        (unit.statistic, unit.n1, unit.n2, unit.critical_1pct, unit.passed)
    probes = np.concatenate([xs, ys, np.linspace(-4.0, 4.0, 33)])
    np.testing.assert_array_equal(ecdf(xs)(probes), weighted_ecdf(xs, np.ones_like(xs))(probes))
