"""Tests for flat and curve-conjugated multiplier operators."""

import inspect
import warnings

import numpy as np
import pytest

import fracsob
from fracsob import curves, operators, spectral, symbols
from fracsob.checks import random_curve_samples, random_field
from fracsob.curves import ds_integral, make_curve
from fracsob.errors import DomainError, GridError, NotPositiveDefiniteError
from fracsob.metric import MetricConfig, momentum_rhs, momentum_spray_residual, spray
from fracsob.operators import (
    VARIANTS,
    apply_conjugated,
    apply_flat,
    operator_directional_derivative,
    solve_conjugated,
)
from fracsob.solvers import exp_map_spray
from fracsob.spectral import TWO_PI, dealias, grid, trig_interp
from fracsob.symbols import (
    LambdaSymbol,
    bessel_fractional,
    constant_coefficient,
    custom_table,
    scalar_values,
    scale_invariant,
    sqrt_symbol,
    two_term_fractional,
)


def unit_circle(n=64):
    theta = grid(n)
    return make_curve(np.column_stack([np.cos(theta), np.sin(theta)]))


def bent_curve(n=64):
    theta = grid(n)
    return make_curve(
        np.column_stack(
            [
                np.cos(theta) + 0.22 * np.cos(3 * theta),
                np.sin(theta) - 0.15 * np.sin(2 * theta),
            ]
        )
    )


def test_flat_operator_multiplies_pure_modes():
    # on the unit circle (length 2 pi) the n = 1 polynomial symbol sends
    # the second Fourier mode to (1 + 2^2) = 5 times itself
    c = unit_circle()
    sym = constant_coefficient((1.0, 1.0))
    u = np.column_stack([np.cos(2 * c.theta), np.zeros(c.n)])
    out = apply_conjugated(c, sym, "identity", u)
    assert np.allclose(out, 5.0 * u, atol=1e-12)


def test_flat_operator_variants_are_consistent():
    sym = bessel_fractional(1.5)
    theta = grid(32)
    u = np.column_stack([np.cos(3 * theta) - 0.5, 2.0 * np.sin(theta)])
    au = apply_flat(sym, TWO_PI, "identity", u)
    back = apply_flat(sym, TWO_PI, "inverse", au)
    assert np.allclose(back, u, atol=1e-12)
    bu = apply_flat(sym, TWO_PI, "sqrt", u)
    assert np.allclose(apply_flat(sym, TWO_PI, "sqrt", bu), au, atol=1e-11)
    assert np.allclose(apply_flat(sym, TWO_PI, "sqrt_inverse", bu), u, atol=1e-12)


def test_unknown_variant_rejected():
    assert "identity" in VARIANTS
    u = np.ones((16, 2))
    with pytest.raises(DomainError):
        apply_flat(bessel_fractional(1.0), TWO_PI, "cube_root", u)
    with pytest.raises(DomainError):
        apply_conjugated(bent_curve(16), bessel_fractional(1.0), "cube_root", u)


def test_apply_flat_takes_the_symbol_and_parameter_directly():
    # the operator wrapper types are gone: apply_flat takes its arguments in
    # the order apply_conjugated takes (curve, symbol, variant, u)
    assert list(inspect.signature(apply_flat).parameters) == ["symbol", "lam", "variant", "u"]
    assert list(inspect.signature(apply_conjugated).parameters) == ["curve", "symbol", "variant", "u"]
    for name in ("FlatOperator", "CurveOperator"):
        assert not hasattr(fracsob, name) and not hasattr(operators, name)


def test_inverse_of_degenerate_symbol_fails():
    sym = two_term_fractional(1.2, 0.0, 1.0)  # vanishes at m = 0
    u = np.ones((16, 2))
    with pytest.raises(NotPositiveDefiniteError):
        apply_flat(sym, TWO_PI, "inverse", u)


def test_conjugated_operator_is_symmetric_for_ds():
    c = bent_curve(256)
    sym = bessel_fractional(1.5)
    rng = np.random.default_rng(1)
    h = np.column_stack([np.cos(2 * c.theta), np.sin(c.theta)]) + 0.1 * rng.normal(
        size=(256, 2)
    )
    h = np.fft.irfft(np.fft.rfft(h, axis=0)[:5], n=256, axis=0) * 256 / 4  # smooth it
    k = np.column_stack([np.sin(3 * c.theta), np.cos(c.theta)])
    lhs = ds_integral(c, np.sum(apply_conjugated(c, sym, "identity", h) * k, axis=1))
    rhs = ds_integral(c, np.sum(h * apply_conjugated(c, sym, "identity", k), axis=1))
    scale = max(abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < 1e-9 * scale


def test_conjugated_identity_curve_shortcut():
    # a circle takes the same quadrature as every other curve, which there
    # reduces to the flat operator followed by the two-thirds filter
    for n in (64, 256):
        c = unit_circle(n)
        assert c.psi.is_identity
        # white noise fills every mode, those above n/3 (which the filter
        # removes) included; the bound is relative to the output, so the
        # field must fill the band too: rounding at the top band modes is
        # amplified by the symbol there
        u = np.random.default_rng(n).standard_normal((n, 2))
        coupled = custom_table(_coupled_table(n // 2, 0.7), order=1.0,
                               derivative=_coupled_table(n // 2, 0.2))
        for sym in (bessel_fractional(1.5), constant_coefficient((1.0, 1.0)), coupled):
            for variant in VARIANTS:
                via_curve = apply_conjugated(c, sym, variant, u)
                via_flat = dealias(apply_flat(sym, c.length, variant, u))
                assert np.max(np.abs(via_curve - via_flat)) <= 1e-13 * np.max(np.abs(via_flat))


def test_conjugated_operator_is_continuous_at_the_circle():
    # a circle and the same circle moved by 1e-9 take one formula, so the
    # operator and its solve move by about the size of the perturbation
    n = 64
    theta = grid(n)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    exact = make_curve(circle)
    moved = make_curve(circle + 1e-9 * np.column_stack([np.cos(3 * theta), np.sin(2 * theta)]))
    assert exact.psi.is_identity and not moved.psi.is_identity
    u = np.random.default_rng(0).standard_normal((n, 2))
    sym = bessel_fractional(1.5)

    def gap(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert gap(apply_conjugated(moved, sym, "identity", u), apply_conjugated(exact, sym, "identity", u)) <= 1e-6
    assert gap(solve_conjugated(moved, sym, u), solve_conjugated(exact, sym, u)) <= 1e-6


def test_rotation_equivariance_of_conjugated_operator():
    c = bent_curve()
    sym = bessel_fractional(1.5)
    u = np.column_stack([np.cos(2 * c.theta), np.sin(c.theta)])
    ang = 0.7
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    cr = make_curve(c.samples @ rot.T)
    lhs = apply_conjugated(cr, sym, "identity", u @ rot.T)
    rhs = apply_conjugated(c, sym, "identity", u) @ rot.T
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def mild_curve(n=64):
    theta = grid(n)
    return make_curve(
        np.column_stack(
            [
                np.cos(theta) + 0.06 * np.cos(3 * theta),
                np.sin(theta) - 0.04 * np.sin(2 * theta),
            ]
        )
    )


def test_solve_conjugated_refines_the_chain_inverse():
    # with the dealias guard on, the conjugated chain and its formal inverse
    # are not exact matrix inverses; the residual iteration tightens the solve
    c = mild_curve()
    sym = bessel_fractional(1.5)
    h = np.column_stack([np.cos(2 * c.theta), 0.5 * np.sin(c.theta)])
    mu = apply_conjugated(c, sym, "identity", h)

    raw = apply_conjugated(c, sym, "inverse", mu)
    refined = solve_conjugated(c, sym, mu, refine=20)
    scale = np.max(np.abs(mu))
    err_raw = np.max(np.abs(apply_conjugated(c, sym, "identity", raw) - mu)) / scale
    err_ref = np.max(np.abs(apply_conjugated(c, sym, "identity", refined) - mu)) / scale
    assert err_ref < 0.01 * err_raw
    assert err_ref < 1e-5


def test_solve_conjugated_takes_no_seed():
    # a deeper solve is one call with a larger refine, never a seeded second call
    c = mild_curve()
    sym = bessel_fractional(1.5)
    mu = apply_conjugated(c, sym, "identity", np.column_stack([np.cos(c.theta), np.sin(2 * c.theta)]))
    with pytest.raises(TypeError):
        solve_conjugated(c, sym, mu, refine=10, x0=mu)


def test_solve_conjugated_keeps_the_better_iterate_when_a_correction_overshoots(monkeypatch):
    # every correction of member 1 is overshot 50-fold, so its first one
    # raises the residual: that member gets its first iterate back, while
    # member 0 keeps refining as it would alone
    rng = np.random.default_rng(3)
    batch = make_curve(np.stack([random_curve_samples(rng, n=64, amplitude=0.10) for _ in range(2)]))
    sym = bessel_fractional(1.5)
    mu = apply_conjugated(batch, sym, "identity", np.stack([random_field(rng, 64) for _ in range(2)]))
    alone = solve_conjugated(batch.member(0), sym, mu[0])
    first = apply_conjugated(batch, sym, "inverse", mu)
    # every pass of the solve is one application through the operators' core
    real_apply = operators._apply
    inverses = []

    def overshooting(core, symbol, variant, u):
        out = real_apply(core, symbol, variant, u)
        if variant == "inverse":
            inverses.append(1)
            if len(inverses) > 1:  # a correction, not the first iterate
                out[1] *= 50.0
        return out

    monkeypatch.setattr(operators, "_apply", overshooting)
    h = solve_conjugated(batch, sym, mu)
    monkeypatch.undo()
    assert len(inverses) == 3
    assert np.array_equal(h[1], first[1])
    assert np.array_equal(h[0], alone)
    # the overshot iterate has the larger residual
    member = batch.member(1)

    def residual(h1):
        return np.max(np.abs(apply_conjugated(member, sym, "identity", h1) - mu[1]))

    correction = apply_conjugated(member, sym, "inverse", mu[1] - apply_conjugated(member, sym, "identity", first[1]))
    assert residual(h[1]) < residual(first[1] + 50.0 * correction)


def test_grid_mismatch_rejected():
    c = bent_curve(64)
    sym = bessel_fractional(1.0)
    with pytest.raises(GridError):
        apply_conjugated(c, sym, "identity", np.zeros((32, 2)))


def test_directional_derivative_vanishes_for_translations():
    # translating the curve changes neither length nor arc-length chart
    c = bent_curve()
    sym = bessel_fractional(1.5)
    h = np.tile([0.3, -0.2], (c.n, 1))
    k = np.column_stack([np.cos(2 * c.theta), np.sin(c.theta)])
    dk = operator_directional_derivative(c, h, sym, k)
    scale = np.max(np.abs(apply_conjugated(c, sym, "identity", k)))
    assert np.max(np.abs(dk)) < 1e-9 * scale


def test_directional_derivative_of_a_translation_is_exactly_zero():
    # every variation is a derivative of the direction, which vanishes on a
    # constant, on the dense grids and on the transform's (n > 128) alike
    for n in (64, 130, 200):
        c = make_curve(random_curve_samples(np.random.default_rng(1), n=n))
        h = np.tile([0.3, -0.2], (c.n, 1))
        k = random_field(np.random.default_rng(2), n)
        assert np.max(np.abs(operator_directional_derivative(c, h, bessel_fractional(1.5), k))) == 0.0


def test_directional_derivative_scaling_has_closed_form():
    # for the homogeneous family, d/deps A_{(1+eps) c} k = -3 A_c k exactly
    c = unit_circle()
    sym = scale_invariant((1.0, 1.0))
    k = np.column_stack([np.cos(2 * c.theta), np.sin(3 * c.theta)])
    ak = apply_conjugated(c, sym, "identity", k)
    dk = operator_directional_derivative(c, c.samples, sym, k)
    assert np.max(np.abs(dk + 3.0 * ak)) < 1e-12 * np.max(np.abs(ak))


def test_directional_derivative_of_zero_is_zero():
    c = bent_curve()
    sym = bessel_fractional(1.0)
    dk = operator_directional_derivative(c, np.zeros((c.n, 2)), sym, np.ones((c.n, 2)))
    assert np.max(np.abs(dk)) == 0.0


def test_custom_table_matches_closed_form_on_a_curve():
    n = 32
    base = bessel_fractional(1.5)
    c = bent_curve(n)
    ms = np.arange(-n, n + 1)
    # the table is lambda-independent, so freeze it at the curve's length
    vals = scalar_values(base, c.length, ms)
    table = np.einsum("m,ij->mij", vals, np.eye(2))
    sym = custom_table(table, order=1.5)
    u = np.column_stack([np.cos(2 * c.theta), np.sin(c.theta)])
    got = apply_conjugated(c, sym, "identity", u)
    want = apply_conjugated(c, base, "identity", u)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def folded(curve, symbol, variant):
    """The folded band multipliers the operators' core keeps for a variant on the curve."""
    return operators._table(operators._core(curve), symbol).folded(variant)


def test_band_multipliers_are_evaluated_once_per_curve_and_variant(count_calls):
    # one joint evaluation of the symbol and its lambda-derivative per curve
    calls = count_calls(symbols, "_evaluate")
    c = bent_curve()
    sym = bessel_fractional(1.5)
    u = np.column_stack([np.cos(2 * c.theta), np.sin(c.theta)])
    first = apply_conjugated(c, sym, "identity", u)
    again = apply_conjugated(c, sym, "identity", u)
    assert calls["_evaluate"] == 1
    assert np.array_equal(first, again)
    # every other variant, the lambda-derivative included, comes from the
    # table that evaluation built on the curve
    inverse = apply_conjugated(c, sym, "inverse", u)
    apply_conjugated(c, sym, "sqrt", u)
    apply_conjugated(c, sym, "lambda_derivative", u)
    assert calls["_evaluate"] == 1
    # an equal symbol is another object with its own table, and the same numbers
    twin = bessel_fractional(1.5)
    assert np.array_equal(apply_conjugated(c, twin, "inverse", u), inverse)
    assert calls["_evaluate"] == 2
    for variant in VARIANTS:
        assert np.array_equal(folded(c, twin, variant),
                              folded(c, sym, variant))
    assert calls["_evaluate"] == 2
    fresh = bent_curve()
    assert np.array_equal(apply_conjugated(fresh, sym, "identity", u), first)
    assert calls["_evaluate"] == 3


def test_the_operator_path_never_hashes_a_symbol(monkeypatch):
    # the multiplier cache is keyed by the symbol object, so an application
    # never hashes the symbol, on a single curve or on a batch
    rng = np.random.default_rng(11)
    single = make_curve(random_curve_samples(rng, n=64, amplitude=0.10))
    batch = make_curve(np.stack([random_curve_samples(rng, n=64, amplitude=0.10) for _ in range(3)]))
    cfg = MetricConfig(bessel_fractional(1.5))

    def refuse(self):
        raise AssertionError("a symbol was hashed")

    monkeypatch.setattr(LambdaSymbol, "__hash__", refuse)
    for c in (single, batch):
        h = 0.1 * random_field(rng, 64, modes=3)
        if c.batched:
            h = np.stack([h, 2.0 * h, -h])
        mu = apply_conjugated(c, cfg.symbol, "identity", h)
        assert solve_conjugated(c, cfg.symbol, mu).shape == h.shape
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert momentum_rhs(cfg, c, h, ah=mu).shape == h.shape
            assert spray(cfg, c, h)[0].shape == h.shape


def folded_band_multipliers(curve, symbol, variant, top):
    """The fold over the whole band: a(0), then a(m) + a(-m), from values on modes -(top-1)..top-1."""
    lam = curve.length[..., None] if curve.batched else curve.length
    band = np.concatenate([np.arange(top), -np.arange(1, top)])
    vals = symbols._values(symbol, lam, band, derivative=variant == "lambda_derivative")
    if variant != "lambda_derivative":
        vals = symbols._variant(vals, variant)
    mult = vals[..., :top].copy()
    mult[..., 1:] += vals[..., top:]
    return mult


SCALAR_FAMILIES = [
    constant_coefficient((1.0, 0.5, 0.25)),
    scale_invariant((1.0, 0.5)),
    bessel_fractional(1.5),
    two_term_fractional(0.75, 1.0, 0.5),
]


@pytest.mark.parametrize("sym", SCALAR_FAMILIES, ids=lambda s: s.family)
def test_scalar_band_multipliers_equal_the_fold_over_plus_and_minus_m(sym):
    # scalar families are even in m, so 2 a(m) on modes 0..N/3 is bitwise
    # the fold a(m) + a(-m) over the whole band
    rng = np.random.default_rng(7)
    single = bent_curve()
    batch = make_curve(np.stack([random_curve_samples(rng, n=64, amplitude=0.10) for _ in range(3)]))
    top = single.n // 3 + 1
    for c in (single, batch):
        for variant in VARIANTS:
            got = folded(c, sym, variant)
            want = folded_band_multipliers(c, sym, variant, top)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (variant, c.batched)


def test_custom_table_band_multipliers_are_computed_once_per_curve_and_variant(count_calls):
    count_calls(symbols, "_table_lookup")
    calls = count_calls(np.linalg, "eigh")
    c = bent_curve()
    table = _coupled_table(c.n // 2, 0.7)
    sym = custom_table(table, order=1.0, derivative=np.zeros_like(table))
    u = np.column_stack([np.cos(2 * c.theta), np.sin(c.theta)])
    first = apply_conjugated(c, sym, "inverse", u)
    again = apply_conjugated(c, sym, "inverse", u)
    # the first application reads the value and the derivative table once
    # and takes one eigh per block, shared by inverse, sqrt and sqrt_inverse
    assert calls == {"_table_lookup": 2, "eigh": 1}
    assert np.array_equal(first, again)
    # every variant, the lambda-derivative included, comes from that table
    apply_conjugated(c, sym, "identity", u)
    apply_conjugated(c, sym, "sqrt", u)
    apply_conjugated(c, sym, "lambda_derivative", u)
    solve_conjugated(c, sym, u)
    assert calls == {"_table_lookup": 2, "eigh": 1}
    # an equal table is another object with its own table, and the same numbers
    twin = custom_table(table, order=1.0, derivative=np.zeros_like(table))
    assert np.array_equal(apply_conjugated(c, twin, "inverse", u), first)
    assert calls == {"_table_lookup": 4, "eigh": 2}
    fresh = bent_curve()
    assert np.array_equal(apply_conjugated(fresh, sym, "inverse", u), first)
    assert calls == {"_table_lookup": 6, "eigh": 3}


@pytest.mark.parametrize("seed", [2, 18])
def test_rotation_equivariance_on_the_battery_draw(seed):
    # the curve, then h, drawn as `fracsob check` draws them at N = 256
    n = 256
    rng = np.random.default_rng(seed)
    c = make_curve(random_curve_samples(rng, n=n))
    h = random_field(rng, n)
    sym = bessel_fractional(1.5)
    shift = n // 4
    ah = apply_conjugated(c, sym, "identity", h)
    rolled = make_curve(np.roll(c.samples, shift, axis=0))
    got = apply_conjugated(rolled, sym, "identity", np.roll(h, shift, axis=0))
    assert np.max(np.abs(got - np.roll(ah, shift, axis=0))) <= 1e-10 * np.max(np.abs(ah))


def _interpolation_chain(c, sym, u):
    # R_psi o A o R_psi^{-1} by trigonometric interpolation at psi^{-1} and
    # psi, with a two-thirds filter after each interpolation
    w = dealias(trig_interp(u, c.psi.inverse_points))
    w = apply_flat(sym, c.length, "identity", w)
    return dealias(trig_interp(w, c.psi.forward_points))


@pytest.mark.parametrize("n, tol", [(64, 1e-8), (128, 1e-9), (256, 1e-9)])
def test_quadrature_agrees_with_the_interpolation_chain(n, tol):
    rng = np.random.default_rng(0)
    c = make_curve(random_curve_samples(rng, n=n))
    h = random_field(rng, n)
    sym = bessel_fractional(1.5)
    want = _interpolation_chain(c, sym, h)
    got = apply_conjugated(c, sym, "identity", h)
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _coupled_table(m_max, coupling):
    ms = np.arange(-m_max, m_max + 1, dtype=float)
    table = np.zeros((ms.size, 2, 2))
    table[:, 0, 0] = 2.0 + ms ** 2
    table[:, 1, 1] = 1.5 + 0.5 * ms ** 2
    table[:, 0, 1] = table[:, 1, 0] = coupling
    return table


def test_custom_table_matrix_variants_are_consistent():
    n = 32
    sym = custom_table(_coupled_table(n, 0.7), order=1.0)
    theta = grid(n)
    u = np.column_stack([np.cos(3 * theta) - 0.5, 2.0 * np.sin(theta) + np.cos(2 * theta)])

    def flat(variant, v):
        return apply_flat(sym, TWO_PI, variant, v)

    au = flat("identity", u)
    # the coupling moves the second component into the first
    assert np.max(np.abs(flat("identity", u * [0.0, 1.0])[:, 0])) > 0.1
    assert np.allclose(flat("inverse", au), u, rtol=0.0, atol=1e-12)
    assert np.allclose(flat("sqrt", flat("sqrt", u)), au, rtol=0.0, atol=1e-11)
    assert np.allclose(flat("sqrt_inverse", flat("sqrt", u)), u, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("variant", ["inverse", "sqrt", "sqrt_inverse"])
def test_custom_table_that_is_not_positive_definite_is_rejected(variant):
    # eigenvalues 1 + m^2 +/- 2 make the table indefinite at m = 0
    n = 16
    ms = np.arange(-n, n + 1, dtype=float)
    table = np.einsum("m,ij->mij", 1.0 + ms ** 2, np.eye(2))
    table[:, 0, 1] = table[:, 1, 0] = 2.0
    sym = custom_table(table, order=1.0)
    calls = [
        lambda: apply_flat(sym, TWO_PI, variant, np.ones((n, 2))),
        lambda: apply_conjugated(bent_curve(2 * n), sym, variant, np.ones((2 * n, 2))),
        lambda: sqrt_symbol(sym, TWO_PI, 0),
    ]
    messages = []
    for call in calls:
        with pytest.raises(NotPositiveDefiniteError) as err:
            call()
        messages.append(str(err.value))
    # one check serves every path: it names the smallest eigenvalue and the variant
    assert "smallest eigenvalue -1.000e+00" in messages[0]
    assert messages[1] == messages[0] and f"variant {variant!r}" in messages[0]
    assert messages[2] == messages[0].replace(repr(variant), "'sqrt'")


def _fd_derivative(c, h, sym, k, eps_scale=1e-3):
    # central differences over re-made curves at steps eps and eps/2,
    # Richardson-extrapolated: the reference the exact derivative must meet
    eps = eps_scale * np.max(np.abs(c.samples)) / np.max(np.abs(h))

    def probe(step):
        return apply_conjugated(make_curve(c.samples + step * h), sym, "identity", k)

    coarse = (probe(eps) - probe(-eps)) / (2.0 * eps)
    fine = (probe(0.5 * eps) - probe(-0.5 * eps)) / eps
    return (4.0 * fine - coarse) / 3.0


def _derivative_families(n):
    return [
        constant_coefficient((1.0, 1.0)),
        scale_invariant((1.0, 1.0)),
        bessel_fractional(1.5),
        two_term_fractional(1.5, 1.0, 1.0),
        custom_table(_coupled_table(n, 0.7), order=1.0, derivative=np.zeros((2 * n + 1, 2, 2))),
    ]


# the finite difference is the less accurate side: at N = 256 it scatters
# by up to a few 1e-8 between step sizes, at N = 64 it stays near 1e-10
@pytest.mark.parametrize("n, tol", [(64, 1e-9), (256, 1e-7)])
def test_directional_derivative_matches_finite_differences(n, tol):
    rng = np.random.default_rng(0)
    c = make_curve(random_curve_samples(rng, n=n))
    h = random_field(rng, n)
    # a mode above the two-thirds cutoff, which make_curve filters out
    h[:, 0] += 0.05 * np.cos((n // 3 + 4) * c.theta)
    k = random_field(rng, n)
    for sym in _derivative_families(n):
        # a matrix symbol acts on (N, d) fields only
        for field in (k, k[:, 0]) if sym.is_scalar else (k,):
            got = operator_directional_derivative(c, h, sym, field)
            want = _fd_derivative(c, h, sym, field)
            assert got.shape == field.shape
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_directional_derivative_of_a_batch_matches_its_members():
    n = 64
    rng = np.random.default_rng(3)
    samples = np.stack([random_curve_samples(rng, n=n) for _ in range(3)])
    hs = np.stack([random_field(rng, n) for _ in range(3)])
    ks = np.stack([random_field(rng, n) for _ in range(3)])
    batch = make_curve(samples)
    for sym in (bessel_fractional(1.5), custom_table(_coupled_table(n, 0.7), order=1.0,
                                                     derivative=np.zeros((2 * n + 1, 2, 2)))):
        for field in (ks, ks[..., 0]) if sym.is_scalar else (ks,):
            got = operator_directional_derivative(batch, hs, sym, field)
            for i in range(3):
                alone = operator_directional_derivative(make_curve(samples[i]), hs[i], sym, field[i])
                assert np.max(np.abs(got[i] - alone)) <= 1e-12 * np.max(np.abs(alone))


def test_directional_derivative_makes_three_real_transforms(count_calls):
    # one filtered derivative of h and one antiderivative give every
    # variation, and the output takes one dealias. At N = 256 each is one
    # rfft; at N = 64 all three are cached dense products, the derivative
    # in spectral._multiply_modes, the antiderivative in
    # spectral.theta_antiderivative and the dealias in the operators' core
    # filter (operators._filter), and none calls rfft.
    count_calls(np.fft, "rfft")
    calls = count_calls(spectral, "_multiply_modes")
    count_calls(curves, "theta_antiderivative")
    count_calls(operators, "_filter")
    for n in (64, 256):
        c = bent_curve(n)
        h = np.column_stack([np.sin(2 * c.theta), 0.5 * np.cos(c.theta)])
        operator_directional_derivative(c, h, bessel_fractional(1.5), h)  # build the band basis and caches
        calls.update(dict.fromkeys(calls, 0))
        operator_directional_derivative(c, h, bessel_fractional(1.5), h)
        assert calls["theta_antiderivative"] == calls["_filter"] == 1
        if n == 64:
            assert calls["_multiply_modes"] + calls["theta_antiderivative"] + calls["_filter"] == 3
            assert calls["rfft"] == 0
        else:
            assert calls["rfft"] == 3


def test_directional_derivative_makes_no_curve(monkeypatch):
    c = bent_curve()
    h = np.column_stack([np.sin(2 * c.theta), 0.5 * np.cos(c.theta)])
    made = []

    def counting(samples):
        made.append(1)
        return make_curve(samples)

    monkeypatch.setattr(curves, "make_curve", counting)
    monkeypatch.setattr(operators, "make_curve", counting, raising=False)
    operator_directional_derivative(c, h, bessel_fractional(1.5), h)
    assert made == []


def test_operator_derivative_takes_no_step_settings():
    for fn in (operator_directional_derivative, spray, momentum_spray_residual, exp_map_spray):
        params = inspect.signature(fn).parameters
        assert not {"richardson", "eps_scale", "variant"} & set(params), fn.__name__
