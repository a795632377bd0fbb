import math

import numpy as np
import pytest

from condflow.exprparse import parse_expr
from condflow.htransform import (
    apply_generator,
    check_generator_identity,
    downward_scale,
    transform,
)
from condflow.model import Const, DiffusionSpec, Interval, bessel3, bm, gbm
from condflow.scale import GridConfig, Normalization, _Pchip, compute_scale, exact_scale

_PROBE = np.linspace(0.2, 5.0, 97)


def _identity_scale(hi=50.0):
    grid = np.geomspace(1e-3, hi, 201)
    ones = lambda y: np.ones_like(np.asarray(y, dtype=float))
    return exact_scale(lambda y: np.asarray(y, dtype=float), ones, grid, (0.0, math.inf))


def _reciprocal_scale(hi=50.0):
    grid = np.geomspace(1e-2, hi, 201)
    return exact_scale(lambda y: -1.0 / np.asarray(y, dtype=float),
                       lambda y: 1.0 / np.square(np.asarray(y, dtype=float)),
                       grid, (-math.inf, 0.0))


def test_bm_upward_gains_reciprocal_drift():
    out = transform(bm(), _identity_scale())
    np.testing.assert_allclose(out.drift(_PROBE), 1.0 / _PROBE, rtol=1e-12)
    np.testing.assert_allclose(out.diffusion(_PROBE), bm().diffusion(_PROBE))


def test_bessel_downward_restores_brownian_motion():
    out = transform(bessel3(), _reciprocal_scale())
    np.testing.assert_allclose(out.drift(_PROBE), 0.0, atol=1e-12)


def test_gbm_upward_gains_unit_drift():
    out = transform(gbm(), _identity_scale())
    np.testing.assert_allclose(out.drift(_PROBE), _PROBE, rtol=1e-12)


def test_scale_without_normalization_rejected():
    # the normalization is the direction: a scale with neither limit at 0 has none
    grid = np.linspace(0.01, 0.99, 99)
    ones = lambda y: np.ones_like(np.asarray(y, dtype=float))
    s = exact_scale(lambda y: np.asarray(y, dtype=float), ones, grid, (0.0, 1.0))
    untagged = downward_scale(s)
    assert untagged.normalization is None
    with pytest.raises(ValueError):
        transform(bm(0.0, 1.0), untagged)


def test_direction_is_the_end_whose_limit_is_zero():
    # L where s(l) = 0, R where s(r) = 0, and no direction otherwise
    grid = np.linspace(0.1, 0.9, 9)
    up = exact_scale(lambda y: np.asarray(y, dtype=float),
                     lambda y: np.ones_like(np.asarray(y, dtype=float)), grid, (0.0, 1.0))
    down = exact_scale(lambda y: -1.0 / np.asarray(y, dtype=float),
                       lambda y: 1.0 / np.square(np.asarray(y, dtype=float)),
                       grid, (-math.inf, 0.0))
    neither = exact_scale(lambda y: -1.0 / np.asarray(y, dtype=float) - 0.5,
                          lambda y: 1.0 / np.square(np.asarray(y, dtype=float)),
                          grid, (-math.inf, -0.5))
    assert up.normalization is Normalization.L
    assert down.normalization is Normalization.R
    assert neither.normalization is None
    assert transform(bm(0.0, 1.0), up).label == "bm^up"
    assert transform(bessel3(), down).label == "bessel3^down"
    with pytest.raises(ValueError, match="^transform needs"):
        transform(bessel3(), neither)


def test_scale_vanishing_on_grid_rejected():
    grid = np.linspace(0.5, 2.0, 31)
    ones = lambda y: np.ones_like(np.asarray(y, dtype=float))
    crossing = exact_scale(lambda y: np.asarray(y, dtype=float) - 1.0, ones, grid,
                           (0.0, math.inf))
    with pytest.raises(ValueError):
        transform(bm(), crossing)


def test_added_drift_signs():
    up = transform(bm(), _identity_scale())
    assert np.all(up.drift(_PROBE) - bm().drift(_PROBE) > 0)
    down = transform(bessel3(), _reciprocal_scale())
    assert np.all(down.drift(_PROBE) - bessel3().drift(_PROBE) < 0)


def test_apply_generator_quadratic_exact():
    # the second difference of a quadratic is exact; h large enough that
    # floating-point cancellation stays below the tolerance
    phi = parse_expr("y^2")
    for y in (0.7, 1.3, 4.2):
        assert apply_generator(bm(), phi, y, h=1e-2) == pytest.approx(1.0, abs=1e-8)


def test_apply_generator_harmonic_for_conditioned_drift():
    # 1/y is annihilated by the drift-1/y generator: a/y^3 - b/y^2 = 0
    phi = parse_expr("1/y")
    assert apply_generator(bessel3(), phi, 2.0, h=1e-5) == pytest.approx(0.0, abs=1e-7)


def test_apply_generator_linear_driftless():
    phi = parse_expr("y")
    assert apply_generator(bm(), phi, 3.0, h=1e-4) == pytest.approx(0.0, abs=1e-10)


def test_apply_generator_stencil_domain_check():
    with pytest.raises(ValueError):
        apply_generator(bm(0.0, 2.0), parse_expr("y"), 1.9999, h=1e-3)
    with pytest.raises(ValueError):
        apply_generator(bm(), parse_expr("y"), 0.0005, h=1e-3)


def test_generator_identity_quadratic_bm():
    s = _identity_scale()
    grid = np.linspace(0.5, 3.0, 51)
    err = check_generator_identity(bm(), s, parse_expr("y^2"), grid)
    assert err <= 1e-6
    # both sides equal 3 along the grid
    both = apply_generator(transform(bm(), s),
                           parse_expr("y^2"), grid, h=1e-4)
    np.testing.assert_allclose(both, 3.0, atol=1e-6)


def test_generator_identity_constant_function():
    s = _identity_scale()
    grid = np.linspace(0.5, 3.0, 51)
    err = check_generator_identity(gbm(), s, parse_expr("1"), grid)
    assert err <= 1e-6  # the scale is harmonic; residual is fp cancellation


def test_generator_identity_gbm_log_value():
    s = _identity_scale()
    value = apply_generator(transform(gbm(), s),
                            parse_expr("log(y)"), 1.0, h=1e-5)
    assert value == pytest.approx(0.5, abs=1e-6)


def test_harmonicity_of_computed_scales():
    # the defining equation b s' + a s''/2 = 0, with s'' estimated from the
    # quadrature-accurate derivative values on the grid itself
    for spec, norm, cfg in (
        (bm(), Normalization.L, GridConfig(y_min=0.01, y_max=10.0)),
        (gbm(), Normalization.L, GridConfig(y_min=0.01, y_max=10.0)),
        (bessel3(), Normalization.R, GridConfig(y_min=0.01, y_max=50.0)),
    ):
        s = compute_scale(spec, 1.0, cfg, norm)
        g, dv = s.grid, s.derivs
        s2 = np.gradient(dv, g)  # second-order on the nonuniform grid
        residual = spec.drift(g) * dv + 0.5 * spec.diffusion(g) * s2
        scale_ref = np.abs(spec.drift(g) * dv) + np.abs(0.5 * spec.diffusion(g) * s2)
        # absolute floor: with zero drift both terms vanish identically and
        # only float noise remains
        ok = np.abs(residual) <= 5e-3 * scale_ref + 1e-6
        assert np.all(ok[1:-1])


def test_downward_scale_values_and_limits():
    s = _identity_scale()
    down = downward_scale(s)
    np.testing.assert_allclose(down(np.array([0.5, 1.0, 2.0])), [-2.0, -1.0, -0.5])
    np.testing.assert_allclose(down.deriv(np.array([2.0])), [0.25])
    assert down.normalization is Normalization.R
    assert down.boundary_limits == (-math.inf, 0.0)


def test_downward_scale_on_bounded_interval():
    grid = np.linspace(0.01, 0.99, 99)
    ones = lambda y: np.ones_like(np.asarray(y, dtype=float))
    s = exact_scale(lambda y: np.asarray(y, dtype=float), ones, grid, (0.0, 1.0))
    down = downward_scale(s)
    assert down(1.0) == pytest.approx(-1.0)
    assert down.boundary_limits[0] == -math.inf
    assert down.boundary_limits[1] == pytest.approx(-1.0)
    assert down.normalization is None  # the r-limit is not zero here


def test_downward_scale_requires_positive_l_normalized():
    with pytest.raises(ValueError):
        downward_scale(_reciprocal_scale())


def test_round_trip_restores_drift_exact_scale():
    s = _identity_scale()
    for base in (bm(), gbm()):
        down = transform(transform(base, s), downward_scale(s))
        err = np.max(np.abs(down.drift(_PROBE) - base.drift(_PROBE)))
        assert err <= 1e-6
        np.testing.assert_allclose(down.diffusion(_PROBE), base.diffusion(_PROBE))


def test_round_trip_restores_drift_computed_scale():
    # probe on the scale's own grid, where interpolation is exact and only
    # the quadrature error of the scale values remains
    s = compute_scale(bm(), 1.0, GridConfig(y_min=0.01, y_max=10.0), Normalization.L)
    down = transform(transform(bm(), s), downward_scale(s))
    probe = s.grid[(s.grid >= 0.2) & (s.grid <= 5.0)]
    assert np.max(np.abs(down.drift(probe))) <= 1e-6


def test_downward_scale_composes_a_grid_backed_scale():
    # -1/s and s'/s^2 of the input's own evaluators, between knots too, so
    # the round trip b + a s'/s + a (s'/s^2)/(-1/s) returns b to rounding
    base = DiffusionSpec(Interval(0.0, math.inf), Const(-0.5), Const(1.0))
    s = compute_scale(base, 1.0, GridConfig(y_min=0.01, y_max=10.0), Normalization.L)
    assert isinstance(s._s_fn, _Pchip)
    down = downward_scale(s)
    ys = np.geomspace(0.01, 10.0, 701)
    assert down(ys).tobytes() == (-1.0 / s(ys)).tobytes()
    assert down.deriv(ys).tobytes() == (s.deriv(ys) / s(ys) ** 2).tobytes()
    round_trip = transform(transform(base, s), down).drift(ys)
    assert np.max(np.abs(round_trip + 0.5)) <= 1e-12 * np.max(1.0 / ys)


def test_fd_error_second_order():
    # curved scale and nonzero drift so the h^2 term does not cancel
    drifted = DiffusionSpec(Interval(0.0, math.inf),
                            lambda y: np.ones_like(np.asarray(y, dtype=float)),
                            lambda y: np.ones_like(np.asarray(y, dtype=float)),
                            label="unit-drift")
    s = exact_scale(lambda y: 0.5 * (1.0 - np.exp(-2.0 * np.asarray(y, dtype=float))),
                    lambda y: np.exp(-2.0 * np.asarray(y, dtype=float)),
                    np.geomspace(1e-3, 8.0, 201), (0.0, 0.5))
    grid = np.linspace(0.5, 3.0, 41)
    phi = parse_expr("log(y)")
    ratio = (check_generator_identity(drifted, s, phi, grid, h=0.02)
             / check_generator_identity(drifted, s, phi, grid, h=0.01))
    assert 3.5 <= ratio <= 4.5


def test_grid_backed_drift_is_b_plus_a_ds_over_s():
    # the drift is b + a s'/s from the scale's own evaluators, bit for bit,
    # inside the grid, on its knots and on the extrapolated ends; b = -y/2,
    # a = y^2 has s' = y, and a drift keeps its scale grid-backed
    drifted = DiffusionSpec(Interval(0.0, math.inf),
                            lambda y: -0.5 * np.asarray(y, dtype=float),
                            lambda y: np.square(np.asarray(y, dtype=float)), label="gbm-drifted")
    for spec, norm in ((drifted, Normalization.L), (bessel3(), Normalization.R)):
        s = compute_scale(spec, 1.0, GridConfig(y_min=0.01, y_max=50.0), norm)
        assert isinstance(s._s_fn, _Pchip) and isinstance(s._ds_fn, _Pchip)
        drift = transform(spec, s).drift
        for ys in (np.concatenate([np.geomspace(5e-3, 80.0, 701), s.grid]), np.float64(1.7)):
            expected = spec.drift(ys) + spec.diffusion(ys) * s.deriv(ys) / s(ys)
            got = drift(ys)
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class _Unread(Const):
    """A constant coefficient that fails when called."""

    def __call__(self, y):
        raise AssertionError(f"the constant {self.value} was evaluated")


def test_transform_reads_constant_coefficients():
    # bm's drift 0 and a = 1 are read, not evaluated; the drift is the one an
    # array-returning twin gives, bit for bit
    base = bm(0.0, 2.0)
    s = compute_scale(base, 1.0, GridConfig(y_min=0.01, y_max=1.99), Normalization.L)
    twin = DiffusionSpec(base.interval, drift=lambda y: base.drift(y),
                         diffusion=lambda y: base.diffusion(y))
    unread = DiffusionSpec(base.interval, drift=_Unread(0.0), diffusion=_Unread(1.0))
    ys = np.linspace(0.005, 1.995, 401)
    drift = transform(base, s).drift(ys)
    assert drift.tobytes() == transform(twin, s).drift(ys).tobytes()
    assert drift.tobytes() == transform(unread, s).drift(ys).tobytes()
    assert transform(base, s).diffusion is base.diffusion
