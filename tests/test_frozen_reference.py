"""The operator core against a frozen copy of the arithmetic it replaced.

Below is a test-local copy of the operators and the w/w0 plumbing as they
were before every application ran through one per-curve core (operators._Core):
each application then looked up its basis, weights and multipliers on the
curve and filtered through spectral.dealias, and every caller checked its
arguments again. The copy caches nothing and checks nothing. The core must
give every output bitwise: on one curve and a batch at N = 64, where the
filter is a dense product, and at N = 256, where it is an FFT round trip;
on scalar and vector fields; for every variant; for a scalar family and a
custom table. The one multiplier table a curve keeps per symbol is held
the same way: for every family, each variant folded is _variant(_values(...))
folded on its own, on a single curve and on a batch.
"""

import math
import warnings

import numpy as np
import pytest

from fracsob import operators
from fracsob.checks import random_curve_samples, random_field
from fracsob.curves import ds_integral, make_curve
from fracsob.errors import MeanResidualWarning, NotPositiveDefiniteError, NotSupportedError
from fracsob.metric import MetricConfig, momentum_rhs, spray
from fracsob.operators import apply_conjugated, operator_directional_derivative, solve_conjugated
from fracsob.spectral import TWO_PI, _dealiased_derivative, dealias, spectral_derivative, theta_antiderivative
from fracsob.symbols import (
    VARIANTS,
    _values,
    _variant,
    bessel_fractional,
    constant_coefficient,
    custom_table,
    scale_invariant,
    two_term_fractional,
)

# --- the frozen copy ---------------------------------------------------------


def ref_band_basis(displacement):
    n = displacement.shape[-1]
    angle = (TWO_PI / n) * (np.outer(np.arange(n // 3 + 1), np.arange(n)) % n)
    grid_phase = np.cos(angle) + 1j * np.sin(angle)
    top = grid_phase.shape[0]
    L = math.isqrt(top - 1) + 1
    p = displacement[..., None, :]
    i = np.arange(L)[:, None]

    def unit(phase):
        out = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=out.real)
        np.sin(phase, out=out.imag)
        return out

    e = (unit(p * (L * i))[..., :, None, :] * unit(p * i)[..., None, :, :]).reshape(p.shape[:-2] + (L * L, n))
    e = e[..., :top, :]
    e *= grid_phase
    basis = np.empty(p.shape[:-2] + (2 * top, n))
    basis[..., :top, :] = e.real
    np.negative(e.imag, out=basis[..., top:, :])
    return np.swapaxes(basis, -1, -2)


def ref_multipliers(curve, symbol, variant, top):
    lam = curve.length[..., None] if curve.batched else curve.length
    band = np.arange(top) if symbol.is_scalar else np.concatenate([np.arange(top), -np.arange(1, top)])
    if variant == "lambda_derivative":
        vals = _values(symbol, lam, band, derivative=True)
    else:
        vals = _variant(_values(symbol, lam, band), variant)
    if symbol.is_scalar:
        mult = 2.0 * vals
        mult[..., 0] = vals[..., 0]
    else:
        mult = vals[:top].copy()
        mult[1:] += np.conj(vals[top:])
    return mult


def ref_band_multiply(curve, symbol, variant, coef):
    top = coef.shape[-2] // 2
    mult = ref_multipliers(curve, symbol, variant, top)
    if symbol.is_scalar:
        pairs = coef.reshape(coef.shape[:-2] + (2, top, -1)) * mult[..., None, :, None]
        return pairs.reshape(coef.shape)
    out = np.einsum("mij,...mj->...mi", mult, coef[..., :top, :] + 1j * coef[..., top:, :])
    return np.concatenate([out.real, out.imag], axis=-2)


def ref_times_im(coef):
    m = np.arange(coef.shape[-2] // 2)[:, None]
    return np.concatenate([-m * coef[..., len(m):, :], m * coef[..., : len(m), :]], axis=-2)


def ref_apply(curve, symbol, variant, u):
    u = np.asarray(u, dtype=float)
    lead = curve.samples.ndim - 2
    basis = ref_band_basis(curve.psi.displacement)
    vector = u.ndim == lead + 2
    field = u if vector else u[..., None]
    weights = curve.speed * (TWO_PI / (np.asarray(curve.length)[..., None] * curve.n))
    coef = np.swapaxes(basis, -1, -2) @ (weights[..., None] * field)
    out = dealias(basis @ ref_band_multiply(curve, symbol, variant, coef), axis=lead)
    return out if vector else out[..., 0]


def ref_solve(curve, symbol, u, refine=2):
    u = np.asarray(u, dtype=float)
    h = ref_apply(curve, symbol, "inverse", u)
    if refine <= 0:
        return h
    axes = tuple(range(curve.samples.ndim - 2, u.ndim))
    scale = np.max(np.abs(u), axis=axes)
    active = np.ones(scale.shape, dtype=bool)
    prev, prev_h = np.inf, h

    def per_member(flags):
        return flags.reshape(flags.shape + (1,) * len(axes))

    for _ in range(refine):
        r = u - ref_apply(curve, symbol, "identity", h)
        size = np.max(np.abs(r), axis=axes)
        rose = active & (size >= prev)
        if rose.any():
            h = np.where(per_member(rose), prev_h, h)
        active = active & (size < prev) & (size > 1e-15 * scale)
        if not active.any():
            break
        prev, prev_h = size, h
        step = ref_apply(curve, symbol, "inverse", r)
        h = h + step if active.all() else np.where(per_member(active), h + step, h)
    return h


def ref_variations(c, h):
    per_member = np.asarray(c.length)[..., None]
    dh = _dealiased_derivative(h, axis=c.samples.ndim - 2)
    integrand = np.einsum("...j,...j->...", dh, c.unit_tangent) / c.speed
    dlen = ds_integral(c, integrand)
    dw = integrand - np.asarray(dlen / c.length)[..., None]
    osc, _ = theta_antiderivative(dw * c.speed)
    return dlen, (TWO_PI / per_member) * osc, dw


def ref_derivative(curve, h, symbol, k):
    field = k if k.ndim == curve.samples.ndim else k[..., None]
    lead = curve.samples.ndim - 2
    dlen, dpsi, dw = ref_variations(curve, h)
    basis = ref_band_basis(curve.psi.displacement)
    weights = curve.speed * (TWO_PI / (np.asarray(curve.length)[..., None] * curve.n))
    wk = weights[..., None] * field
    x, xw, xp = np.swapaxes(basis, -1, -2) @ np.stack([wk, dw[..., None] * wk, dpsi[..., None] * wk])
    mx, mz = ref_band_multiply(curve, symbol, "identity", np.stack([x, xw - ref_times_im(xp)]))
    coef = mz + np.asarray(dlen)[..., None, None] * ref_band_multiply(curve, symbol, "lambda_derivative", x)
    outer, inner = basis @ np.stack([coef, ref_times_im(mx)])
    out = dealias(outer + dpsi[..., None] * inner, axis=lead)
    return out if k.ndim == curve.samples.ndim else out[..., 0]


def _dot(a, b):
    return np.einsum("...j,...j->...", a, b)


def ref_w_w0(symbol, c, h, ah=None):
    """(ah, dsh, dsv, f, w, w0, warned members)."""
    per_member = lambda a: np.asarray(a)[..., None]  # noqa: E731
    if ah is None:
        ah = ref_apply(c, symbol, "identity", h)
    d = spectral_derivative(np.concatenate([h, c.unit_tangent], axis=-1), axis=c.samples.ndim - 2)
    d /= c.speed[..., None]
    dsh, dsv = d[..., : c.dim], d[..., c.dim:]
    f = _dot(ah, dsh)
    g = f * c.speed
    periodic, gbar = theta_antiderivative(g)
    w = periodic + per_member(gbar) * c.theta
    mean = TWO_PI * gbar / c.length
    scale = np.maximum(np.max(np.abs(f), axis=-1), 1e-300)
    size = np.max(np.abs(ah), axis=(-2, -1)) * np.max(np.abs(dsh), axis=(-2, -1))
    floor = 100.0 * np.finfo(float).eps * size
    warned = [
        f"w integrand has ds-mean {np.ravel(mean)[i]:.3e} against scale {np.ravel(scale)[i]:.3e}"
        for i in np.flatnonzero(np.abs(mean) > np.maximum(1e-6 * scale, floor))
    ]
    theta_term = -TWO_PI * np.mean(periodic, axis=-1) + gbar * 2.0 * np.pi ** 2
    p_term = TWO_PI / c.n * _dot(c.psi.displacement, g)
    term1 = (theta_term + p_term) / TWO_PI
    aph = ref_apply(c, symbol, "lambda_derivative", h)
    term2 = 0.5 * ds_integral(c, _dot(ah / per_member(c.length)[..., None] + aph, h))
    total = term1 + term2
    return ah, dsh, dsv, f, w, (total if c.batched else float(total)), warned


def ref_momentum_rhs(symbol, c, h, ah=None):
    ah, dsh, dsv, f, w, w0, warned = ref_w_w0(symbol, c, h, ah)
    v = c.unit_tangent
    rhs = -(_dot(dsh, v)[..., None] * ah + f[..., None] * v + (w + np.asarray(w0)[..., None])[..., None] * dsv)
    return rhs, warned


def ref_spray(symbol, c, h):
    ah, dsh, dsv, f, w, w0, _ = ref_w_w0(symbol, c, h)
    v = c.unit_tangent
    t_op = ref_derivative(c, h, symbol, h)
    total = t_op + _dot(dsh, v)[..., None] * ah + f[..., None] * v + (w + np.asarray(w0)[..., None])[..., None] * dsv
    return -ref_solve(c, symbol, total)


# --- the comparisons ---------------------------------------------------------


def _table(n, derivative=True):
    # MetricConfig's class report reads the table up to |m| = 66
    m_max = max(n // 2, 72)
    ms = np.arange(-m_max, m_max + 1, dtype=float)
    table = np.zeros((ms.size, 2, 2))
    table[:, 0, 0] = 2.0 + ms ** 2
    table[:, 1, 1] = 1.5 + 0.5 * ms ** 2
    table[:, 0, 1] = table[:, 1, 0] = 0.7
    return custom_table(table, order=1.0, derivative=np.zeros_like(table) if derivative else None)


CASES = [(64, None), (64, 3), (256, None)]


def setup(n, batch, seed=5):
    rng = np.random.default_rng(seed)
    count = 1 if batch is None else batch
    samples = np.stack([random_curve_samples(rng, n=n, amplitude=0.10) for _ in range(count)])
    h = np.stack([0.5 * random_field(rng, n, modes=4) for _ in range(count)])
    k = np.stack([random_field(rng, n, modes=6) for _ in range(count)])
    if batch is None:
        samples, h, k = samples[0], h[0], k[0]
    return make_curve(samples), h, k


def symbols_for(n):
    return [bessel_fractional(1.5), _table(n)]


def fields(h, k):
    """The vector fields and a scalar field on the same grid."""
    return {"vector": k, "scalar": k[..., 0] - 0.5 * h[..., 1]}


def case_id(case):
    n, batch = case
    return f"n{n}-" + ("single" if batch is None else f"batch{batch}")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_the_curve_geometry_is_the_frozen_arithmetic(case):
    c, _, _ = setup(*case)
    assert np.array_equal(c.psi.band_basis, ref_band_basis(c.psi.displacement))
    deriv = _dealiased_derivative(np.asarray(c.samples), axis=-2)
    assert np.array_equal(c.speed, np.linalg.norm(deriv, axis=-1))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_every_application_is_the_frozen_arithmetic(case):
    c, h, k = setup(*case)
    for symbol in symbols_for(c.n):
        for kind, u in fields(h, k).items():
            if kind == "scalar" and not symbol.is_scalar:
                continue
            for variant in VARIANTS:
                got = apply_conjugated(c, symbol, variant, u)
                assert np.array_equal(got, ref_apply(c, symbol, variant, u)), (symbol.family, kind, variant)
            for refine in (0, 2, 18):
                got = solve_conjugated(c, symbol, u, refine=refine)
                assert np.array_equal(got, ref_solve(c, symbol, u, refine)), (symbol.family, kind, refine)
            got = operator_directional_derivative(c, h, symbol, u)
            assert np.array_equal(got, ref_derivative(c, h, symbol, u)), (symbol.family, kind)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_momentum_rhs_and_spray_are_the_frozen_arithmetic(case):
    c, h, _ = setup(*case)
    for symbol in symbols_for(c.n):
        cfg = MetricConfig(symbol)
        mu = apply_conjugated(c, symbol, "identity", h)
        for ah in (None, mu):
            want, _ = ref_momentum_rhs(symbol, c, h, ah)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert np.array_equal(momentum_rhs(cfg, c, h, ah=ah), want), symbol.family
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.array_equal(spray(cfg, c, h)[0], ref_spray(symbol, c, h)), symbol.family


def test_the_lazy_floor_warns_the_members_the_frozen_test_warns():
    # on a 16-point grid one member of three leaves a ds-mean above
    # MEAN_RTOL; it warns, with the frozen test's text, and the others do not
    rng = np.random.default_rng(1)
    c = make_curve(np.stack([random_curve_samples(rng, n=16, amplitude=0.10) for _ in range(3)]))
    h = np.stack([random_field(rng, 16, modes=3) for _ in range(3)])
    cfg = MetricConfig(bessel_fractional(1.5))
    want, warned = ref_momentum_rhs(cfg.symbol, c, h)
    assert warned, "the inputs should leave a ds-mean above MEAN_RTOL"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = momentum_rhs(cfg, c, h)
    assert np.array_equal(got, want)
    texts = [str(w.message) for w in caught if issubclass(w.category, MeanResidualWarning)]
    assert len(texts) == len(warned) == 1
    assert all(text.startswith(want) for text, want in zip(texts, warned))


def test_the_core_is_built_once_per_curve_and_shares_the_basis():
    c, h, _ = setup(64, 3)
    apply_conjugated(c, bessel_fractional(1.5), "identity", h)
    core = vars(c)["_operator_core"]
    assert core.basis is c.psi.band_basis
    # the mode-major transpose is a view of the basis, never a copy
    assert np.shares_memory(core.basis_t, core.basis)
    assert core.basis_t.flags.c_contiguous
    solve_conjugated(c, bessel_fractional(1.5), h)
    assert vars(c)["_operator_core"] is core
    assert operators._core(c) is core
    # a frame's copy of the curve shares the geometry and builds its own core
    assert "_operator_core" not in vars(c.uncached())


TABLE_SYMBOLS = {
    "constant_coefficient": constant_coefficient((1.0, 0.5, 0.25)),
    "scale_invariant": scale_invariant((1.0, 0.5)),
    "bessel_fractional": bessel_fractional(1.5),
    "two_term_fractional": two_term_fractional(0.75, 1.0, 0.5),
    "custom_table": _table(64),
    "custom_table-no-derivative": _table(64, derivative=False),
}


@pytest.mark.parametrize("batch", [None, 3], ids=["single", "batch3"])
@pytest.mark.parametrize("name", TABLE_SYMBOLS)
def test_the_multiplier_table_is_the_frozen_fold_of_every_variant(name, batch):
    # one table per curve and symbol holds every variant: folded, it is
    # bitwise _variant(_values(...)) folded as each variant was on its own;
    # shaped, its product is bitwise the frozen band multiply
    symbol = TABLE_SYMBOLS[name]
    c, _, _ = setup(64, batch)
    core = operators._core(c)
    table = operators._table(core, symbol)
    coef = np.random.default_rng(2).normal(size=c.samples.shape[:-2] + (2 * core.top, 2))
    for variant in VARIANTS:
        if variant == "lambda_derivative" and not symbol.has_derivative:
            with pytest.raises(NotSupportedError, match="custom table has no lambda-derivative table"):
                operators._band_multiply(core, symbol, variant, coef)
            continue
        want = ref_multipliers(c, symbol, variant, core.top)
        got = table.folded(variant)
        assert got.shape == want.shape and np.array_equal(got, want), variant
        if symbol.is_scalar:
            # the row doubled into one column for the real and imaginary rows
            assert table.shaped[variant].shape == want.shape[:-1] + (2 * core.top, 1)
            assert np.array_equal(table.shaped[variant][..., 0], np.concatenate([want, want], axis=-1)), variant
        got = operators._band_multiply(core, symbol, variant, coef)
        assert np.array_equal(got, ref_band_multiply(c, symbol, variant, coef)), variant
    assert operators._table(core, symbol) is table


@pytest.mark.parametrize("batch", [None, 3], ids=["single", "batch3"])
def test_a_symbol_that_is_not_positive_builds_no_positive_variant(batch):
    # a(0) = 0: identity and the lambda-derivative apply; inverse, sqrt and
    # sqrt_inverse raise the check's message, and building the table divides
    # by no zero
    symbol = two_term_fractional(1.5, 0.0, 1.0)
    c, h, _ = setup(64, batch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("identity", "lambda_derivative"):
            assert np.array_equal(apply_conjugated(c, symbol, variant, h), ref_apply(c, symbol, variant, h))
        for variant in ("inverse", "sqrt", "sqrt_inverse"):
            with pytest.raises(NotPositiveDefiniteError) as err:
                apply_conjugated(c, symbol, variant, h)
            assert str(err.value) == (
                f"symbol has smallest eigenvalue 0.000e+00, not positive, so variant {variant!r} is undefined"
            )
