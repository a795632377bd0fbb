import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow import rng
from condflow.exprparse import parse_expr
from condflow.jumpwalk import (
    JumpWalkSpec,
    Measure,
    discrete_generator,
    simulate_walk,
    step_distribution,
    verify_generator_limit,
    verify_reciprocal_supermartingale,
    walk_vs_bessel,
    walk_vs_bm,
)
from condflow.scenarios import scenario_jumpwalk


def test_q_step_probabilities_exact():
    spec = JumpWalkSpec(N=4, measure=Measure.Q, x0=1.0)
    assert step_distribution(spec, 1.0) == (0.625, 0.375)  # (5/8, 3/8)


def test_q_floor_forces_up():
    spec = JumpWalkSpec(N=4, measure=Measure.Q, x0=0.25)
    assert step_distribution(spec, 0.25) == (1.0, 0.0)


def test_p_steps_symmetric():
    spec = JumpWalkSpec(N=7, measure=Measure.P, x0=1.0)
    assert step_distribution(spec, 3.0 / 7.0) == (0.5, 0.5)


def test_absorbed_state_has_no_step():
    spec = JumpWalkSpec(N=4, measure=Measure.Q, x0=1.0)
    with pytest.raises(ValueError):
        step_distribution(spec, 0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=200), k=st.integers(min_value=1, max_value=400))
def test_probabilities_normalize(n, k):
    x = k / n
    for measure in (Measure.P, Measure.Q):
        spec = JumpWalkSpec(N=n, measure=measure, x0=1.0 if n == 1 else x)
        p_up, p_down = step_distribution(spec, x)
        assert p_up + p_down == pytest.approx(1.0, abs=1e-12)
        assert p_up >= 0.0 and p_down >= 0.0


def test_h_transform_tilts_kernel_exactly():
    # conditioned kernel = symmetric kernel times (value after)/(value before)
    n = 8
    spec = JumpWalkSpec(N=n, measure=Measure.Q, x0=1.0)
    for k in range(1, 30):
        x = k / n
        p_up, p_down = step_distribution(spec, x)
        assert p_up == pytest.approx(0.5 * (x + 1.0 / n) / x, abs=1e-15)
        assert p_down == pytest.approx(0.5 * (x - 1.0 / n) / x, abs=1e-15)


def test_generator_exact_for_squares():
    f = parse_expr("y^2")
    for n in (3, 10, 47):
        spec = JumpWalkSpec(N=n, measure=Measure.Q, x0=1.0)
        for k in (2, n, 3 * n):
            assert abs(discrete_generator(spec, f, k / n) - 3.0) <= 1e-9


def test_generator_exact_for_linear():
    f = parse_expr("y")
    for n in (5, 20):
        spec = JumpWalkSpec(N=n, measure=Measure.Q, x0=1.0)
        for k in (2, n, 2 * n):
            x = k / n
            assert discrete_generator(spec, f, x) == pytest.approx(1.0 / x, abs=1e-9)


def test_generator_zero_for_constants():
    spec = JumpWalkSpec(N=6, measure=Measure.Q, x0=1.0)
    assert discrete_generator(spec, parse_expr("5"), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_generator_requires_q_and_lattice():
    with pytest.raises(ValueError):
        discrete_generator(JumpWalkSpec(N=4, measure=Measure.P, x0=1.0),
                           parse_expr("y"), 1.0)
    spec = JumpWalkSpec(N=4, measure=Measure.Q, x0=1.0)
    with pytest.raises(ValueError):
        discrete_generator(spec, parse_expr("y"), 0.3)


def test_generator_limit_polynomials_exact():
    assert max(verify_generator_limit(parse_expr("y^2"), 1.5, [10, 20]).values()) <= 1e-9
    assert max(verify_generator_limit(parse_expr("y"), 1.5, [10, 20]).values()) <= 1e-9


def test_generator_limit_sin_second_order():
    errs = verify_generator_limit(np.sin, 1.0, [10, 20])
    assert 3.0 <= errs[10] / errs[20] <= 5.0


def test_reciprocal_one_step_identities():
    spec = JumpWalkSpec(N=4, measure=Measure.Q, x0=1.0)
    assert verify_reciprocal_supermartingale(spec, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert verify_reciprocal_supermartingale(spec, 0.25) == pytest.approx(2.0, abs=1e-14)
    spec10 = JumpWalkSpec(N=10, measure=Measure.Q, x0=1.0)
    assert verify_reciprocal_supermartingale(spec10, 0.1) == pytest.approx(5.0, abs=1e-14)


def test_reciprocal_supermartingale_monte_carlo():
    spec = JumpWalkSpec(N=10, measure=Measure.Q, x0=1.0)
    walk = simulate_walk(spec, t=1.0, n_paths=10_000, seed=4)
    recip = 1.0 / walk["final"]
    mean = float(np.mean(recip))
    stderr = float(np.std(recip, ddof=1) / math.sqrt(recip.size))
    assert mean <= 1.0 + 4 * stderr


def test_q_walk_never_absorbs():
    spec = JumpWalkSpec(N=10, measure=Measure.Q, x0=1.0)
    walk = simulate_walk(spec, t=1.0, n_paths=10_000, seed=5)
    assert walk["n_steps"] * 10_000 == 1_000_000
    assert float(np.min(walk["min_value"])) > 0.0


@pytest.mark.parametrize("n", [3, 60, 3000])
def test_verify_walks_a_million_path_steps_at_any_path_count(n):
    # the bundle walks ceil(10^6 / n) whole steps; a walk sized as a time
    # t = 10^6 / (n N^2) floors to fewer (16,666 steps of 60 paths)
    check = next(c for c in scenario_jumpwalk(n=n)["checks"]
                 if c["name"] == "conditioned-walk-stays-positive")
    assert check["pass"]
    assert check["detail"]["steps"] == n * -(-1_000_000 // n)


def test_p_walk_is_martingale_when_stopped_at_zero():
    spec = JumpWalkSpec(N=10, measure=Measure.P, x0=1.0)
    walk = simulate_walk(spec, t=2.0, n_paths=20_000, seed=6)
    mean = float(np.mean(walk["final"]))
    stderr = float(np.std(walk["final"], ddof=1) / math.sqrt(20_000))
    assert abs(mean - 1.0) <= 4 * stderr
    assert np.any(walk["final"] == 0.0)


def _one_step_walk(spec, t, n_paths, seed):
    # the walk one step at a time: one uniform draw per step, p_up computed
    # from the state on every step
    keys = rng.path_keys(seed, np.arange(n_paths, dtype=np.int64))
    state = np.full(n_paths, round(spec.x0 * spec.N), dtype=np.int64)
    min_state = state.copy()
    for k in range(int(math.floor(t * spec.N**2))):
        u = rng.uniforms(keys, k, rng.STREAM_WALK)
        if spec.measure is Measure.P:
            state = np.where(state > 0, state + np.where(u < 0.5, 1, -1), 0)
        else:
            state = np.where(u < (state + 1) / (2 * state), state + 1, state - 1)
        np.minimum(min_state, state, out=min_state)
    return state * (1.0 / spec.N), min_state * (1.0 / spec.N)


@pytest.mark.parametrize("measure, x0, n_paths, t", [
    (Measure.Q, 1.0, 300, 3.0),           # 147 steps in blocks of 54 rows
    (Measure.P, 3.0 / 7.0, 300, 3.0),     # absorbs at 0 inside blocks
    (Measure.Q, 1.0 / 7.0, 2**14 + 3, 0.4),  # a block is one step
    (Measure.P, 1.0 / 7.0, 2**14 + 3, 0.4),
], ids=["Q-blocks", "P-blocks", "Q-one-step-blocks", "P-one-step-blocks"])
def test_walk_equals_one_step_reference(measure, x0, n_paths, t):
    spec = JumpWalkSpec(N=7, measure=measure, x0=x0)
    walk = simulate_walk(spec, t, n_paths, seed=10)
    final, min_value = _one_step_walk(spec, t, n_paths, seed=10)
    assert walk["n_steps"] == math.floor(t * 49)
    assert np.array_equal(walk["final"], final)
    assert np.array_equal(walk["min_value"], min_value)
    if measure is Measure.P:
        assert np.any(final == 0.0)


def test_walk_spec_validation():
    with pytest.raises(ValueError):
        JumpWalkSpec(N=0, measure=Measure.P, x0=1.0)
    with pytest.raises(ValueError):
        JumpWalkSpec(N=4, measure=Measure.P, x0=0.3)
    with pytest.raises(ValueError):
        JumpWalkSpec(N=4, measure=Measure.P, x0=-1.0)
    assert JumpWalkSpec(N=4, measure=Measure.P, x0=1.0).dt == pytest.approx(1.0 / 16.0)


def test_walk_limits_smoke():
    ks_q = walk_vs_bessel(50, n_paths=4_000, seed=7)
    assert ks_q.statistic < 2.0 * ks_q.critical_1pct
    ks_p = walk_vs_bm(50, n_paths=4_000, seed=8)
    assert ks_p.statistic < 2.0 * ks_p.critical_1pct


def test_coarse_lattice_rejected_at_strict_threshold():
    ks = walk_vs_bessel(5, n_paths=10_000, seed=9)
    assert not ks.passed  # N=5 is visibly off at the strict critical value


@pytest.mark.parametrize("n_paths", [0, -3])
def test_walk_refuses_no_paths(n_paths):
    spec = JumpWalkSpec(N=4, measure=Measure.P, x0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"n_paths must be positive, got {n_paths}"):
            simulate_walk(spec, t=1.0, n_paths=n_paths)


@pytest.mark.parametrize("measure", [Measure.P, Measure.Q])
@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_walk_refuses_a_negative_or_non_finite_time(measure, t):
    # no step count fits: at t < 0 the Q-walk's p_up table would be empty
    spec = JumpWalkSpec(N=10, measure=measure, x0=1.0)
    with pytest.raises(ValueError, match=f"^t must be finite and non-negative, got {t}$"):
        simulate_walk(spec, t=t, n_paths=5)
