import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condflow.errors import QuadratureError
from condflow.exprparse import parse_expr
from condflow.model import Const, DiffusionSpec, Interval, bessel3, bm, gbm
from condflow.scale import (
    BoundaryClass,
    GridConfig,
    Normalization,
    ScaleFunction,
    _Pchip,
    classify_boundaries,
    compute_scale,
    exact_scale,
)
from condflow.simulate import SimConfig, estimate_hitting_prob, simulate_ensemble


@pytest.fixture(scope="module")
def bm_scale():
    return compute_scale(bm(), 1.0, GridConfig(y_min=0.01, y_max=10.0), Normalization.L)


@pytest.fixture(scope="module")
def bessel_scale():
    return compute_scale(bessel3(), 1.0, GridConfig(y_min=0.01, y_max=100.0), Normalization.R)


@pytest.fixture(scope="module")
def gbm_scale():
    return compute_scale(gbm(), 1.0, GridConfig(y_min=0.01, y_max=10.0), Normalization.L)


def test_bm_scale_is_identity(bm_scale):
    np.testing.assert_allclose(bm_scale.values, bm_scale.grid, atol=1e-12)
    assert bm_scale.boundary_limits == (0.0, math.inf)


def test_bessel_scale_is_negative_reciprocal(bessel_scale):
    np.testing.assert_allclose(bessel_scale.values, -1.0 / bessel_scale.grid,
                               rtol=1e-7, atol=1e-9)
    assert bessel_scale.boundary_limits[0] == -math.inf
    assert bessel_scale.boundary_limits[1] == 0.0


def test_gbm_scale_is_identity(gbm_scale):
    # zero drift makes the log-derivative vanish, so the scale is again y
    np.testing.assert_allclose(gbm_scale.values, gbm_scale.grid, atol=1e-12)


def test_classifications(bm_scale, bessel_scale, gbm_scale):
    assert classify_boundaries(bm_scale) is BoundaryClass.HITS_L_ONLY
    assert classify_boundaries(bessel_scale) is BoundaryClass.HITS_R_ONLY
    assert classify_boundaries(gbm_scale) is BoundaryClass.HITS_L_ONLY
    both = compute_scale(bm(0.0, 1.0), 0.5,
                         GridConfig(y_min=0.01, y_max=0.99), Normalization.L)
    assert classify_boundaries(both) is BoundaryClass.HITS_BOTH
    assert both.boundary_limits[1] == pytest.approx(1.0, abs=1e-10)


def test_unsupported_when_both_limits_infinite():
    grid = np.linspace(-3.0, 3.0, 41)
    s = exact_scale(lambda y: np.asarray(y, float), lambda y: np.ones_like(np.asarray(y, float)),
                    grid, (-math.inf, math.inf))
    assert classify_boundaries(s) is BoundaryClass.UNSUPPORTED


def test_normalizing_an_infinite_side_fails():
    free_bm = DiffusionSpec(Interval(-math.inf, math.inf),
                            drift=lambda y: np.zeros_like(np.asarray(y, float)),
                            diffusion=lambda y: np.ones_like(np.asarray(y, float)),
                            label="line-bm")
    with pytest.raises(ValueError):
        compute_scale(free_bm, 0.0, GridConfig(y_min=-5.0, y_max=5.0), Normalization.L)


def test_nonpositive_diffusion_rejected():
    bad = DiffusionSpec(Interval(0.0, 10.0),
                        drift=lambda y: np.zeros_like(np.asarray(y, float)),
                        diffusion=lambda y: np.asarray(y, float) - 5.0,
                        label="bad")
    with pytest.raises(ValueError):
        compute_scale(bad, 1.0, GridConfig(y_min=0.5, y_max=9.0), Normalization.L)


def test_monotone_at_all_resolutions():
    for n in (65, 257):
        s = compute_scale(bessel3(), 1.0, GridConfig(y_min=0.05, y_max=20.0, n=n),
                          Normalization.R)
        assert np.all(np.diff(s.values) > 0)
        assert np.all(s.derivs > 0)


def test_interpolation_matches_closed_form(bessel_scale):
    # node values are quadrature-accurate; between nodes the monotone cubic
    # carries an interpolation error set by the far-field grid spacing
    ys = np.linspace(0.2, 50.0, 113)
    np.testing.assert_allclose(bessel_scale(ys), -1.0 / ys, rtol=5e-6, atol=1e-8)
    np.testing.assert_allclose(bessel_scale.deriv(ys), 1.0 / ys**2, rtol=3e-5, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3),
       d=st.floats(min_value=-10.0, max_value=10.0))
def test_classification_affine_invariant(c, d):
    grid = np.geomspace(0.01, 100.0, 64)
    s = exact_scale(lambda y: -1.0 / np.asarray(y, float),
                    lambda y: 1.0 / np.square(np.asarray(y, float)),
                    grid, (-math.inf, 0.0))
    # the affine image c s + d of the R-normalized s, R-normalized only at d = 0
    image = exact_scale(lambda y: -c / np.asarray(y, float) + d,
                        lambda y: c / np.square(np.asarray(y, float)),
                        grid, (-math.inf, d))
    assert classify_boundaries(s) is BoundaryClass.HITS_R_ONLY
    assert classify_boundaries(image) is classify_boundaries(s)


@pytest.mark.parametrize("b, a", [(0.0, 1.0), (0.3, 2.0)])
def test_plain_float_coefficients_scale_like_arrays(b, a):
    # a coefficient may return one plain float for every point, as the
    # simulation kernel allows; b = 0.3, a = 2 has a finite limit at infinity
    floats = DiffusionSpec(Interval(0.0, math.inf), lambda y: b, lambda y: a)
    arrays = DiffusionSpec(Interval(0.0, math.inf), lambda y: np.full(np.shape(y), b),
                           lambda y: np.full(np.shape(y), a))
    grid = GridConfig(y_min=0.01, y_max=10.0)
    s, twin = compute_scale(floats, 1.0, grid, None), compute_scale(arrays, 1.0, grid, None)
    for name in ("grid", "values", "derivs", "boundary_limits"):
        assert np.asarray(getattr(s, name)).tobytes() == np.asarray(getattr(twin, name)).tobytes()
    assert s.normalization is twin.normalization is Normalization.L


def test_csv_export(bm_scale):
    buf = io.StringIO()
    bm_scale.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "y,s,s_prime"
    first = lines[1].split(",")
    assert len(first) == 3
    assert float(first[2]) == pytest.approx(1.0)


def test_scale_of_stopped_process_is_martingale(bessel_scale):
    # mean of s(Y) stopped at band edges and t stays at s(y0)
    cfg = SimConfig(dt=1e-3, horizon=2.0, seed=100, n_paths=8_000,
                    stop_levels=(0.5, 3.0), snapshot_times=(1.0,))
    res = simulate_ensemble(bessel3(), 1.0, cfg)
    values = bessel_scale(res.snapshots[1.0])
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(res.n))
    assert abs(mean - bessel_scale(1.0)) <= 4 * stderr


def test_hitting_probability_identity_for_gbm(gbm_scale):
    # oracle: (s(y) - s(down)) / (s(up) - s(down)) with s = y gives 1/3
    cfg = SimConfig(dt=1e-3, horizon=30.0, seed=101, n_paths=20_000)
    est, rep = estimate_hitting_prob(gbm(), 1.0, 2.0, 0.5, cfg)
    target = (1.0 - 0.5) / (2.0 - 0.5)
    assert rep["unresolved"] == 0
    assert abs(est.value - target) <= 4 * est.stderr


def _assert_power_scale(spec: DiffusionSpec, p: float) -> None:
    """Check compute_scale against s' = y^(-p) (p != 1) on (0, inf).

    The finite limit is pinned to 0, so s = y^(1-p) / (1-p) under either
    normalization."""
    norm = Normalization.L if p < 1.0 else Normalization.R
    s = compute_scale(spec, 1.0, GridConfig(y_min=0.01, y_max=10.0), norm)
    np.testing.assert_allclose(s.derivs, s.grid ** -p, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(s.values, s.grid ** (1.0 - p) / (1.0 - p), rtol=1e-9, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(delta=st.one_of(st.floats(min_value=0.2, max_value=1.8),
                       st.floats(min_value=2.2, max_value=3.9)))
def test_bessel_scale_matches_closed_form(delta):
    # Bessel(delta): b = (delta - 1)/(2y), a = 1, s'(y) = y^(1 - delta)
    spec = DiffusionSpec(Interval(0.0, math.inf),
                         drift=lambda y: 0.5 * (delta - 1.0) / np.asarray(y, float),
                         diffusion=lambda y: np.ones_like(np.asarray(y, float)))
    _assert_power_scale(spec, delta - 1.0)


@settings(max_examples=25, deadline=None)
@given(p=st.one_of(st.floats(min_value=-2.0, max_value=0.8),
                   st.floats(min_value=1.2, max_value=3.0)),
       sigma=st.floats(min_value=0.3, max_value=2.0))
@example(p=2.225073858507203e-309, sigma=1.0)  # subnormal drift: phi underflows
def test_gbm_scale_matches_closed_form(p, sigma):
    # b = mu y, a = sigma^2 y^2 with mu = p sigma^2 / 2: s'(y) = y^(-2 mu / sigma^2)
    mu = 0.5 * p * sigma**2
    spec = DiffusionSpec(Interval(0.0, math.inf),
                         drift=lambda y: mu * np.asarray(y, float),
                         diffusion=lambda y: sigma**2 * np.square(np.asarray(y, float)))
    _assert_power_scale(spec, 2.0 * mu / sigma**2)


class _Counted:
    """A coefficient that counts the points it is evaluated at."""

    def __init__(self, fn, counter):
        self.fn, self.counter = fn, counter

    def __call__(self, y):
        self.counter[0] += np.size(y)
        return self.fn(y)


@pytest.mark.parametrize("b, a, l, r, y0, y_min, y_max", [
    ("1/(2*y)", "1", 0.0, math.inf, 1.0, 0.01, 10.0),         # 2-D Bessel
    ("y/2", "y^2", 0.0, math.inf, 1.0, 0.01, 10.0),           # critical GBM
    ("0.5-y", "y*(1-y)", 0.0, 1.0, 0.5, 0.005, 0.995),       # Jacobi
    # 2-D Bessel with a bump: s' ~ 2.8e-12/y past y = 10, so every probe
    # increment toward +inf is tiny but none is smaller than the one before
    ("1/(2*y) + 7.5*exp(-(y-5)^2)", "1", 0.0, math.inf, 1.0, 0.01, 10.0),
])
def test_log_divergent_limits_are_refused_quickly(b, a, l, r, y0, y_min, y_max):
    # s' ~ 1/y at each infinite limit: increments stay constant under
    # geometric extension, which the probe must read as divergence
    evaluated = [0]
    spec = DiffusionSpec(Interval(l, r), _Counted(parse_expr(b).eval, evaluated),
                         _Counted(parse_expr(a).eval, evaluated))
    for norm in Normalization:
        with pytest.raises(ValueError, match=r"both scale limits infinite \(UNSUPPORTED\)"):
            compute_scale(spec, y0, GridConfig(y_min=y_min, y_max=y_max), norm)
    assert evaluated[0] < 1_000_000


@pytest.mark.parametrize("b, a, l, r, y_min, y_max, expected", [
    # s' = y^(-1/2) e^(2y) is integrable at both ends, though s(20-) is about 4e15
    ("0.25-y", "y", 0.001, 20.0, 0.01099, 19.81, BoundaryClass.HITS_BOTH),
    # s' = e^(-2e-4 (y-1)) is integrable, but the probe increments keep
    # growing over the first doublings past y = 10
    ("1e-4", "1", 0.0, math.inf, 0.01, 10.0, BoundaryClass.HITS_BOTH),
    # s' = 1/(y + 1e-8) looks like 1/y over many halvings toward 0, yet is
    # integrable there; at +inf it diverges logarithmically
    ("1/(2*(y+1e-8))", "1", 0.0, math.inf, 0.01, 10.0, BoundaryClass.HITS_L_ONLY),
])
def test_finite_limits_are_found(b, a, l, r, y_min, y_max, expected):
    spec = DiffusionSpec(Interval(l, r), parse_expr(b).eval, parse_expr(a).eval)
    s = compute_scale(spec, 1.0, GridConfig(y_min=y_min, y_max=y_max), Normalization.L)
    assert classify_boundaries(s) is expected


@pytest.mark.parametrize("eps, finite", [(1e-8, True), (1e-10, False), (1e-12, False)])
def test_near_logarithmic_tail_is_read_within_the_probe_window(eps, finite):
    # s' = 1/(y + eps) is integrable toward 0 for every eps > 0, so s(0+) is
    # finite.  Over the first 8 halvings from 0.01 the probe increments'
    # ratios fall by about eps/y each: at eps 1e-8 by more than the 1e-6 a
    # logarithmic tail allows, at eps 1e-10 by at most 9.2e-7, so that tail
    # reads as divergent.  These pin the finite window's limit; a probe that
    # looks further changes the refused cases on purpose.
    spec = DiffusionSpec(Interval(0.0, math.inf), parse_expr(f"0.5/(y + {eps!r})").eval,
                         parse_expr("1").eval)
    grid = GridConfig(y_min=0.01, y_max=10.0)
    if finite:
        s = compute_scale(spec, 1.0, grid, Normalization.L)
        assert classify_boundaries(s) is BoundaryClass.HITS_L_ONLY
    else:
        with pytest.raises(ValueError, match=r"both scale limits infinite \(UNSUPPORTED\)"):
            compute_scale(spec, 1.0, grid, Normalization.L)


def test_rounding_noise_drift_fails_fast():
    # 0.1*y - y/10 is 0 or +-1 ulp: no relative error test can settle its
    # integrals, so bisection must stop with an error, not run away
    spec = DiffusionSpec(Interval(0.0, math.inf), parse_expr("0.1*y - y/10").eval,
                         parse_expr("1").eval)
    with pytest.raises(QuadratureError, match="did not converge"):
        compute_scale(spec, 1.0, GridConfig(y_min=0.01, y_max=10.0), Normalization.L)


def test_pchip_matches_scipy_to_the_bit():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 30))
        x = np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.uniform(-3, 3)
        y = (np.cumsum(rng.exponential(size=n)), rng.normal(size=n),
             np.round(rng.normal(size=n)))[trial % 3]
        at = np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 40), x])
        np.testing.assert_array_equal(_Pchip(x, y)(at), PchipInterpolator(x, y)(at))
    assert np.shape(_Pchip(x, y)(x[1])) == ()


# --- natural scale: a Const(0.0) drift --------------------------------------

_Y4 = DiffusionSpec(Interval(0.0, math.inf), bm().drift,
                    lambda y: np.asarray(y, dtype=float) ** 4, label="y4")
# (spec, grid, normalization, class, limits)
_DRIFTLESS = (
    (bm(), GridConfig(y_min=1e-3, y_max=50.0), Normalization.L,
     BoundaryClass.HITS_L_ONLY, (0.0, math.inf)),
    (bm(0.0, 2.0), GridConfig(y_min=1e-3, y_max=1.999), Normalization.L,
     BoundaryClass.HITS_BOTH, (0.0, 2.0)),
    (bm(-math.inf, 5.0), GridConfig(y_min=-50.0, y_max=4.999), Normalization.R,
     BoundaryClass.HITS_R_ONLY, (-math.inf, 0.0)),
    (gbm(), GridConfig(y_min=1e-3, y_max=50.0), Normalization.L,
     BoundaryClass.HITS_L_ONLY, (0.0, math.inf)),
    (_Y4, GridConfig(y_min=1e-2, y_max=50.0), Normalization.L,
     BoundaryClass.HITS_L_ONLY, (0.0, math.inf)),
)


@pytest.mark.parametrize("spec, grid, norm, cls, limits", _DRIFTLESS,
                         ids=lambda v: v.label if isinstance(v, DiffusionSpec) else None)
def test_driftless_scale_is_the_natural_scale(spec, grid, norm, cls, limits):
    for side in (norm, None):  # None picks the same side
        s = compute_scale(spec, 1.0, grid, side)
        origin = spec.interval.l if norm is Normalization.L else spec.interval.r
        assert s.normalization is norm and not isinstance(s._s_fn, _Pchip)
        assert s._ds_fn == Const(1.0)
        assert s.values.tobytes() == (s.grid - origin).tobytes()
        assert np.all(s.derivs == 1.0)
        ys = np.linspace(grid.y_min, grid.y_max, 37)
        assert np.all(s.deriv(ys) == 1.0)
        assert s(ys).tobytes() == (ys - origin).tobytes()
        assert classify_boundaries(s) is cls
        assert s.boundary_limits == limits


@pytest.mark.parametrize("spec, grid, norm, cls, limits", _DRIFTLESS,
                         ids=lambda v: v.label if isinstance(v, DiffusionSpec) else None)
def test_natural_scale_agrees_with_quadrature(spec, grid, norm, cls, limits):
    # a callable drift that returns zeros takes the quadrature path
    zeros = DiffusionSpec(spec.interval, lambda y: np.zeros(np.shape(y)), spec.diffusion,
                          label=spec.label)
    s = compute_scale(spec, 1.0, grid, norm)
    q = compute_scale(zeros, 1.0, grid, norm)
    assert isinstance(q._s_fn, _Pchip) and isinstance(q._ds_fn, _Pchip)
    assert np.array_equal(s.grid, q.grid)
    assert np.max(np.abs(s.values - q.values)) <= 1e-12 * np.max(np.abs(q.values))
    np.testing.assert_allclose(s.derivs, q.derivs, rtol=1e-12)
    assert classify_boundaries(q) is cls
    np.testing.assert_allclose(q.boundary_limits, s.boundary_limits, rtol=1e-12)


_BOTH_INFINITE = "cannot normalize bm: both scale limits infinite (UNSUPPORTED)"


@pytest.mark.parametrize("interval, grid, norm, message", [
    ((-math.inf, math.inf), (-5.0, 5.0), None, _BOTH_INFINITE),
    ((-math.inf, math.inf), (-5.0, 5.0), Normalization.L, _BOTH_INFINITE),
    ((-math.inf, 5.0), (-5.0, 4.9), Normalization.L, "cannot L-normalize bm: s(l) = -inf"),
    ((0.0, math.inf), (0.1, 5.0), Normalization.R, "cannot R-normalize bm: s(r) = +inf"),
])
def test_natural_scale_refusals_match_quadrature(interval, grid, norm, message):
    spec = bm(*interval)
    zeros = DiffusionSpec(spec.interval, lambda y: np.zeros(np.shape(y)), spec.diffusion,
                          label="bm")
    for case in (spec, zeros):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_scale(case, 1.0, GridConfig(*grid), norm)


def test_natural_scale_transformed_drift_is_exact(monkeypatch):
    # the conditioned drift is a(y)/(y - l) upward and a(y)/(y - r) downward,
    # bit for bit, and the natural scale's s' = 1 is read, never evaluated
    from condflow.htransform import transform

    deriv_calls = []
    deriv = ScaleFunction.deriv
    monkeypatch.setattr(ScaleFunction, "deriv",
                        lambda self, y: deriv_calls.append(y) or deriv(self, y))
    ys = np.concatenate([np.geomspace(5e-3, 80.0, 401), [1.0, 2.5]])
    for spec, grid in ((gbm(), GridConfig(1e-3, 50.0)), (_Y4, GridConfig(1e-2, 50.0)),
                       (bm(0.0, 2.0), GridConfig(1e-3, 1.999))):
        s = compute_scale(spec, 1.0, grid, Normalization.L)
        at = ys[ys < spec.interval.r]
        expected = spec.diffusion(at) / (at - spec.interval.l)
        assert transform(spec, s).drift(at).tobytes() == np.asarray(expected).tobytes()
    down = bm(-math.inf, 5.0)
    s = compute_scale(down, 1.0, GridConfig(-50.0, 4.999), Normalization.R)
    at = np.linspace(-40.0, 4.99, 301)
    assert transform(down, s).drift(at).tobytes() == (1.0 / (at - 5.0)).tobytes()
    assert deriv_calls == []
