"""Tests for the metric, the w fields, and the geodesic spray."""

import warnings

import numpy as np
import pytest

from fracsob.checks import random_curve_samples, random_field
from fracsob.curves import arc_derivative, ds_integral, make_curve, make_diffeo, reparametrize
from fracsob.errors import DomainError, MeanResidualWarning, NotSupportedError
from fracsob.metric import (
    MetricConfig,
    metric,
    metric_symmetric,
    momentum_rhs,
    momentum_spray_residual,
    path_energy,
    spray,
    w0_scalar,
    w_field,
    wj_fields,
)
from fracsob.solvers import Frame, GeodesicPath
from fracsob.operators import apply_conjugated, solve_conjugated
from fracsob.spectral import TWO_PI, grid, theta_antiderivative
from fracsob.symbols import (
    bessel_fractional,
    constant_coefficient,
    custom_table,
    scalar_values,
    scale_invariant,
    two_term_fractional,
)


def _dot(u, v):
    return np.sum(u * v, axis=1)


def smooth_pair(rng, n=128):
    c = make_curve(random_curve_samples(rng, n=n, modes=3, amplitude=0.10))
    h = random_field(rng, n, modes=3)
    return c, h


def test_metric_config_rejects_inadmissible_symbols():
    with pytest.raises(DomainError):
        MetricConfig(two_term_fractional(1.2, 0.0, 1.0))


def test_metric_config_warns_without_derivative_table():
    ms = np.arange(-80, 81)  # admissibility probes differences out to |m| = 66
    vals = scalar_values(bessel_fractional(1.0), TWO_PI, ms)
    table = np.einsum("m,ij->mij", vals, np.eye(2))
    with pytest.warns(UserWarning, match="lambda-derivative"):
        cfg = MetricConfig(custom_table(table, order=1.0))
    c, h = smooth_pair(np.random.default_rng(0), n=32)
    with pytest.raises(NotSupportedError):
        w0_scalar(cfg, c, h)
    with pytest.raises(NotSupportedError):
        spray(cfg, c, h)


def test_metric_is_symmetric_and_bilinear(rng):
    cfg = MetricConfig(bessel_fractional(1.5))
    c, h = smooth_pair(rng)
    k = random_field(rng, 128, modes=3)
    g_hk = metric(cfg, c, h, k)
    assert metric(cfg, c, k, h) == pytest.approx(g_hk, rel=1e-12)
    assert metric(cfg, c, 2.0 * h, k) == pytest.approx(2.0 * g_hk, rel=1e-12)
    assert metric(cfg, c, h + k, k) == pytest.approx(
        g_hk + metric(cfg, c, k, k), rel=1e-12
    )
    assert metric(cfg, c, h, h) > 0


def test_metric_symmetric_form_agrees(rng):
    cfg = MetricConfig(bessel_fractional(1.5))
    c, h = smooth_pair(rng, n=256)
    k = random_field(rng, 256, modes=3)
    a = metric(cfg, c, h, k)
    b = metric_symmetric(cfg, c, h, k)
    assert abs(a - b) < 1e-10 * abs(a)


def test_metric_invariance_under_reparametrization(rng):
    cfg = MetricConfig(bessel_fractional(1.5))
    c, h = smooth_pair(rng, n=256)
    k = random_field(rng, 256, modes=3)
    base = metric(cfg, c, h, k)
    dif = make_diffeo(0.18 * np.sin(grid(256)) + 0.05 * np.cos(2 * grid(256)))
    cs = make_curve(reparametrize(c.samples, dif))
    val = metric(cfg, cs, reparametrize(h, dif), reparametrize(k, dif))
    assert abs(val - base) < 1e-9 * abs(base)


def test_metric_invariance_under_rotation(rng):
    cfg = MetricConfig(bessel_fractional(1.5))
    c, h = smooth_pair(rng)
    k = random_field(rng, 128, modes=3)
    ang = 1.1
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    base = metric(cfg, c, h, k)
    val = metric(cfg, make_curve(c.samples @ rot.T), h @ rot.T, k @ rot.T)
    assert abs(val - base) < 1e-11 * abs(base)


def test_scale_invariant_metric_ignores_dilations(rng):
    cfg = MetricConfig(scale_invariant((1.0, 1.0)))
    c, h = smooth_pair(rng)
    k = random_field(rng, 128, modes=3)
    base = metric(cfg, c, h, k)
    for factor in (0.5, 2.0, 5.0):
        val = metric(cfg, make_curve(factor * c.samples), factor * h, factor * k)
        assert abs(val - base) < 1e-12 * abs(base)


def test_wj_fields_have_the_stated_derivative(rng):
    c, h = smooth_pair(rng)
    fields = wj_fields(c, h, 2)
    assert len(fields) == 3
    assert np.allclose(fields[0], 0.5 * _dot(h, h), atol=1e-13)
    for j in (1, 2):
        dsj = h
        for _ in range(2 * j):
            dsj = arc_derivative(c, dsj)
        target = _dot(dsj, arc_derivative(c, h))
        got = arc_derivative(c, fields[j])
        assert np.max(np.abs(got - target)) < 1e-7 * max(np.max(np.abs(target)), 1.0)


def test_wj_fields_integrate_by_parts(rng):
    # int W_j ds = (1 - 2j)/2 int <D_s^(2j) h, h> ds
    c, h = smooth_pair(rng)
    fields = wj_fields(c, h, 2)
    for j in (1, 2):
        dsj = h
        for _ in range(2 * j):
            dsj = arc_derivative(c, dsj)
        lhs = ds_integral(c, fields[j])
        rhs = 0.5 * (1 - 2 * j) * ds_integral(c, _dot(dsj, h))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_integer_identity_for_w_plus_w0(rng):
    # for polynomial symbols, w + w0 collapses to an alternating sum of the
    # W_j fields; this is the strongest pointwise oracle available
    for alphas in ((1.0, 1.0), (1.0, 0.5, 0.25)):
        cfg = MetricConfig(constant_coefficient(alphas))
        c, h = smooth_pair(rng)
        total = w_field(cfg, c, h) + w0_scalar(cfg, c, h)
        fields = wj_fields(c, h, len(alphas) - 1)
        closed = sum(
            (-1) ** j * a * f for j, (a, f) in enumerate(zip(alphas, fields))
        )
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(total - closed)) < 1e-8 * scale


def test_scale_invariant_closed_form_pins_the_half_integer_weight(rng):
    # for the homogeneous family,
    #   w + w0 = sum_j (-1)^j a_j l^(2j-3) [W_j + C_j l^(-1) int <D_s^(2j)h, h> ds]
    # and the numerics decide C_j = j - 3/2; the plausible-looking j + 1/2
    # misses by orders of magnitude, so both facts are locked here
    alphas = (1.0, 1.0)
    cfg = MetricConfig(scale_invariant(alphas))
    c, h = smooth_pair(rng)
    total = w_field(cfg, c, h) + w0_scalar(cfg, c, h)
    ell = c.length
    fields = wj_fields(c, h, 1)

    def closed_form(weight):
        out = np.zeros(c.n)
        for j, a in enumerate(alphas):
            dsj = h
            for _ in range(2 * j):
                dsj = arc_derivative(c, dsj)
            mean_part = weight(j) * ds_integral(c, _dot(dsj, h)) / ell
            out += (-1) ** j * a * ell ** (2 * j - 3) * (fields[j] + mean_part)
        return out

    good = closed_form(lambda j: j - 1.5)
    bad = closed_form(lambda j: j + 0.5)
    scale = np.max(np.abs(total))
    assert np.max(np.abs(total - good)) < 1e-8 * scale
    assert np.max(np.abs(total - bad)) > 1e-2 * scale


def test_w_field_starts_at_zero_and_has_zero_mean_integrand(rng):
    cfg = MetricConfig(bessel_fractional(1.5))
    c, h = smooth_pair(rng)
    w = w_field(cfg, c, h)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    # the defining integrand <A h, D_s h> integrates to zero over the curve
    from fracsob.operators import apply_conjugated

    ah = apply_conjugated(c, cfg.symbol, "identity", h)
    mean = ds_integral(c, _dot(ah, arc_derivative(c, h)))
    assert abs(mean) < 1e-8 * np.max(np.abs(ah)) * np.max(np.abs(h))


def test_w0_for_constant_fields_has_closed_form(circle64):
    # D_s h = 0 kills w and the psi-weighted part of w0; what remains is
    # alpha0 |u|^2 / 2 for length-independent families and
    # -alpha0 l^(-3) |u|^2 for the homogeneous one
    u = np.tile([0.3, -0.4], (64, 1))
    usq = 0.25
    c = make_curve(circle64)
    ell = c.length
    for cfg, expected in (
        (MetricConfig(constant_coefficient((2.0, 1.0))), 2.0 * usq / 2),
        (MetricConfig(bessel_fractional(1.5, alpha0=2.0)), 2.0 * usq / 2),
        (MetricConfig(two_term_fractional(1.5, 2.0, 1.0)), 2.0 * usq / 2),
        (MetricConfig(scale_invariant((2.0, 1.0))), -2.0 * usq / ell**3),
    ):
        assert w0_scalar(cfg, c, u) == pytest.approx(expected, rel=1e-10)
        assert np.max(np.abs(w_field(cfg, c, u))) < 1e-14


def test_momentum_rhs_for_constant_fields_is_a_pure_w0_push(circle64):
    cfg = MetricConfig(constant_coefficient((2.0, 1.0)))
    c = make_curve(circle64)
    u = np.tile([0.3, -0.4], (64, 1))
    rhs = momentum_rhs(cfg, c, u)
    dsv = arc_derivative(c, c.unit_tangent)
    expected = -(2.0 * 0.25 / 2) * dsv
    assert np.max(np.abs(rhs - expected)) < 1e-10


def test_spray_is_quadratically_homogeneous(rng):
    cfg = MetricConfig(constant_coefficient((1.0, 1.0)))
    c, h = smooth_pair(rng, n=64)
    s1, _ = spray(cfg, c, h)
    s2, _ = spray(cfg, c, 2.0 * h)
    sm, _ = spray(cfg, c, -h)
    scale = np.max(np.abs(s1))
    assert np.max(np.abs(s2 - 4.0 * s1)) < 1e-6 * scale
    assert np.max(np.abs(sm - s1)) < 1e-6 * scale


def test_spray_on_a_batch_gives_each_member_its_own_value_and_breakdown():
    rng = np.random.default_rng(0)
    cfg = MetricConfig(bessel_fractional(1.5))
    samples = np.stack([random_curve_samples(rng, n=64, amplitude=0.10) for _ in range(3)])
    hs = np.stack([0.5 * random_field(rng, 64) for _ in range(3)])
    value, breakdown = spray(cfg, make_curve(samples), hs)
    assert value.shape == (3, 64, 2) and breakdown.w0.shape == (3,)
    for i in range(3):
        alone, parts = spray(cfg, make_curve(samples[i]), hs[i])
        assert np.array_equal(value[i], alone)
        assert isinstance(parts.w0, float) and breakdown.w0[i] == parts.w0
        for name in ("term_operator_derivative", "term_dsh_v", "term_transport", "term_w_w0", "w_field"):
            assert np.array_equal(getattr(breakdown, name)[i], getattr(parts, name)), name


def test_spray_breakdown_total_matches_value(circle64):
    cfg = MetricConfig(bessel_fractional(1.5))
    c = make_curve(circle64)
    h = np.column_stack([np.cos(2 * c.theta), 0.4 * np.sin(c.theta)])
    value, breakdown = spray(cfg, c, h)
    from fracsob.operators import apply_conjugated

    lhs = apply_conjugated(c, cfg.symbol, "identity", value)
    rhs = -breakdown.total()
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))
    payload = breakdown.to_dict()
    assert "w0" in payload and "term_w_w0" in payload


def test_momentum_and_spray_forms_agree(rng):
    for cfg in (
        MetricConfig(constant_coefficient((1.0, 1.0))),
        MetricConfig(bessel_fractional(1.5)),
    ):
        c, h = smooth_pair(rng)
        assert momentum_spray_residual(cfg, c, h) < 1e-8


def test_path_energy_of_straight_translation(circle64):
    # moving every point by t*u costs |u|^2/2 * alpha0 * length per unit time
    cfg = MetricConfig(bessel_fractional(1.5, alpha0=2.0))
    u = np.array([0.25, -0.1])
    usq = float(u @ u)
    frames = []
    for t in np.linspace(0.0, 1.0, 9):
        c = make_curve(circle64 + t * u)
        vel = np.tile(u, (64, 1))
        frames.append(Frame(t, c, vel, 2.0 * vel))
    path = GeodesicPath(tuple(frames), cfg)
    expected = 0.5 * 2.0 * usq * make_curve(circle64).length
    assert path_energy(cfg, path) == pytest.approx(expected, rel=1e-10)


def test_path_energy_differentiates_when_velocities_are_missing(circle64):
    cfg = MetricConfig(bessel_fractional(1.5, alpha0=2.0))
    u = np.array([0.25, -0.1])
    frames = []
    for t in np.linspace(0.0, 1.0, 9):
        c = make_curve(circle64 + t * u)
        frames.append(Frame(t, c, None, None))
    path = GeodesicPath(tuple(frames), cfg)
    expected = 0.5 * 2.0 * float(u @ u) * make_curve(circle64).length
    assert path_energy(cfg, path) == pytest.approx(expected, rel=1e-8)


def test_path_energy_of_two_frames_without_velocities(circle64):
    # the first-order difference of a straight translation is exact
    cfg = MetricConfig(bessel_fractional(1.5, alpha0=2.0))
    u = np.array([0.25, -0.1])
    frames = tuple(Frame(t, make_curve(circle64 + t * u), None, None) for t in (0.0, 0.5))
    expected = 0.5 * 0.5 * 2.0 * float(u @ u) * make_curve(circle64).length
    assert path_energy(cfg, GeodesicPath(frames, cfg)) == pytest.approx(expected, rel=1e-10)


def test_mean_residual_warning_fires_on_coarse_grids(rng):
    cfg = MetricConfig(bessel_fractional(1.5))
    c = make_curve(random_curve_samples(rng, n=16, modes=5, amplitude=0.25))
    h = random_field(rng, 16, modes=7)
    with pytest.warns(MeanResidualWarning):
        w_field(cfg, c, h)


def test_w0_scalar_warns_as_w_field_does(rng):
    # w0 integrates the same density as w, so a coarse grid warns through both
    cfg = MetricConfig(bessel_fractional(1.5))
    c = make_curve(random_curve_samples(rng, n=16, modes=5, amplitude=0.25))
    h = random_field(rng, 16, modes=7)
    with pytest.warns(MeanResidualWarning):
        w0_scalar(cfg, c, h)


def test_mean_residual_warning_stays_quiet_on_clean_input(circle64):
    cfg = MetricConfig(bessel_fractional(1.5))
    c = make_curve(circle64)
    h = np.column_stack([np.cos(2 * c.theta), 0.3 * np.sin(c.theta)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", MeanResidualWarning)
        w_field(cfg, c, h)
        w0_scalar(cfg, c, h)


def _pair(a, b):
    return np.einsum("...j,...j->...", a, b)


def reference_antiderivative(c, f):
    # the arc-length antiderivative with its ds-mean removed and added back
    # as mean * s(theta), as curves.antiderivative writes it
    mean_ds = np.asarray(ds_integral(c, f) / c.length)
    osc, _ = theta_antiderivative((f - mean_ds[..., None]) * c.speed)
    return osc + mean_ds[..., None] * c.arclength


def reference_w_w0(cfg, c, h, ah=None):
    # w and w0 from two antiderivatives and separate D_s h, D_s v: the
    # formulas the fused helper in fracsob.metric replaced
    if ah is None:
        ah = apply_conjugated(c, cfg.symbol, "identity", h)
    dsh = arc_derivative(c, h)
    w = reference_antiderivative(c, _pair(ah, dsh))
    density = _pair(ah, dsh) * c.speed
    periodic, mean = theta_antiderivative(density)
    theta_term = -TWO_PI * np.mean(periodic, axis=-1) + mean * 2.0 * np.pi ** 2
    p_term = TWO_PI / c.n * _pair(c.psi.displacement, density)
    aph = apply_conjugated(c, cfg.symbol, "lambda_derivative", h)
    length = np.asarray(c.length)[..., None, None]
    w0 = (theta_term + p_term) / TWO_PI + 0.5 * np.asarray(ds_integral(c, _pair(ah / length + aph, h)))
    return ah, dsh, w, w0


def reference_momentum_rhs(cfg, c, h, ah=None):
    ah, dsh, w, w0 = reference_w_w0(cfg, c, h, ah)
    v = c.unit_tangent
    dsv = arc_derivative(c, v)
    return -(
        _pair(dsh, v)[..., None] * ah
        + _pair(ah, dsh)[..., None] * v
        + (w + np.asarray(w0)[..., None])[..., None] * dsv
    )


FAMILIES = (
    constant_coefficient((1.0, 1.0)),
    scale_invariant((1.0, 1.0)),
    bessel_fractional(1.5),
    two_term_fractional(1.5, 1.0, 1.0),
)


def _rel(got, want):
    return np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("sym", FAMILIES, ids=["constant", "scale_invariant", "bessel", "two_term"])
@pytest.mark.parametrize("batch", [None, 3])
def test_fused_w_and_w0_match_the_two_antiderivative_formulas(n, sym, batch):
    cfg = MetricConfig(sym)
    rng = np.random.default_rng(n)
    members = [(random_curve_samples(rng, n=n, amplitude=0.10), random_field(rng, n)) for _ in range(batch or 1)]
    samples = np.stack([m[0] for m in members]) if batch else members[0][0]
    h = np.stack([m[1] for m in members]) if batch else members[0][1]
    c = make_curve(samples)
    ah, _, w, w0 = reference_w_w0(cfg, c, h)
    assert _rel(w_field(cfg, c, h), w) <= 1e-13
    assert _rel(w0_scalar(cfg, c, h), w0) <= 1e-13
    assert _rel(w0_scalar(cfg, c, h, ah=ah), w0) <= 1e-13
    want = reference_momentum_rhs(cfg, c, h)
    assert _rel(momentum_rhs(cfg, c, h), want) <= 1e-13
    assert _rel(momentum_rhs(cfg, c, h, ah=ah), want) <= 1e-13
    assert np.shape(w0_scalar(cfg, c, h)) == np.shape(w0)
    # with a field other than A_c h passed as ah the density has a mean of
    # order one, which the ramp of w and the sawtooth term of w0 carry
    other = np.roll(ah, 3, axis=-2)
    with pytest.warns(MeanResidualWarning):
        got = momentum_rhs(cfg, c, h, ah=other)
    assert _rel(got, reference_momentum_rhs(cfg, c, h, ah=other)) <= 1e-13
    with pytest.warns(MeanResidualWarning):
        got = w0_scalar(cfg, c, h, ah=other)
    assert _rel(got, reference_w_w0(cfg, c, h, ah=other)[3]) <= 1e-13
    if batch:
        return
    # the spray integrates single curves; its breakdown carries w and w0
    value, parts = spray(cfg, c, h)
    assert _rel(parts.w_field, w) <= 1e-13
    assert abs(parts.w0 - w0) <= 1e-13 * abs(w0)
    dsh = arc_derivative(c, h)
    v = c.unit_tangent
    assert _rel(parts.term_transport, _pair(ah, dsh)[:, None] * v) <= 1e-13
    t_w = (w + w0)[:, None] * arc_derivative(c, v)
    assert _rel(parts.term_w_w0, t_w) <= 1e-13
    total = parts.term_operator_derivative + _pair(dsh, v)[:, None] * ah + _pair(ah, dsh)[:, None] * v + t_w
    assert _rel(value, -solve_conjugated(c, sym, total)) <= 1e-13
