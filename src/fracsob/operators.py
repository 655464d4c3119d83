"""Modewise operator application, flat and conjugated to a curve.

This module holds only the multiplier step: the multipliers of every
variant come from symbols (_values and _variant for apply_flat,
_variant_rows for the tables of the conjugated operator). apply_flat multiplies
Fourier mode m of grid samples with a variant of a(lambda, m) at a given
lambda. The curve-conjugated operator is

    A_c = R_psi o A(length) o R_psi^{-1},

realized by a weighted non-uniform DFT at psi(theta_k) on the two-thirds
band, so psi^{-1} is never needed. With the real band basis [Re E, -Im E]
cached on psi, both quadrature products are real matrix products. Variants:
identity, inverse, sqrt, sqrt_inverse, and lambda_derivative (the
derivative of A in its parameter, conjugation held fixed). The full curve
derivative of A_c is operator_directional_derivative, exact, with no step.

Every curve takes the same quadrature, a circle (psi the identity)
included, so A_c depends continuously on c; on a circle it equals the flat
operator followed by the two-thirds filter.

apply_conjugated and solve_conjugated also act on a batch of curves from
make_curve((B, N, d) samples) and fields stacked the same way. Each member
gets what it would get alone: its own symbol parameter (its length), its
own refinement stop.

The public functions check their arguments once, at the boundary, and
hand (..., N, k) fields to one private core that every application runs
through: _apply (each pass of _solve, the lambda-derivative term of
metric's w0, the frames _rk4 stores), and _derivative for the directional
derivative. The core reads a _Core built once per curve and kept on it:
the band basis and its mode-major transpose (a view), the quadrature
weight column, the dense two-thirds filter on N <= _DENSE_MAX_N, and one
_Table per symbol: every variant's multipliers from one joint evaluation
of the symbol and its lambda-derivative (lambda checked once), folded in
one operation and shaped for the product, so a scalar symbol's band
multiply is one broadcast product. It checks nothing: callers
inside the package pass it fields they made or checked. The arithmetic is
the one each public function had on its own, in the same order, so every
output is bitwise what it was.
"""

import functools

import numpy as np

from .curves import _check_field, _check_vector, _variations
from .errors import GridError
from .spectral import _DENSE_MAX_N, TWO_PI, _mode_matrix, dealias, modes
from .symbols import VARIANTS, _refuse, _values, _variant, _variant_rows


def _multiply(symbol, mult, coef):
    """Multipliers applied to coefficients, modes on the grid axis; a matrix symbol needs (..., d) fields."""
    if symbol.is_scalar:
        return coef * mult
    if coef.ndim < 2 or coef.shape[-1] != symbol.dim:
        raise GridError(f"matrix symbol of dimension {symbol.dim} cannot act on a field of shape {coef.shape}")
    return np.einsum("mij,...mj->...mi", mult, coef)


def apply_flat(symbol, lam, variant, u):
    """Apply a variant of the symbol at parameter lam to samples u, (N,) or (N, d) real arrays."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if n < 2:
        raise GridError(f"field too short for an FFT, N = {n}")
    mult = _variant(_values(symbol, lam, modes(n), variant == "lambda_derivative"), variant)
    if symbol.is_scalar:
        mult = mult.reshape(mult.shape + (1,) * (u.ndim - 1))
    return np.real(np.fft.ifft(_multiply(symbol, mult, np.fft.fft(u, axis=0)), axis=0))


@functools.lru_cache(maxsize=32)
def _band_modes(top, scalar):
    """The modes a table is evaluated on, read-only.

    A scalar symbol is even in m, bitwise (it reads m through m**2), so it
    takes modes 0..top-1 only, as floats; a custom table takes 0..top-1,
    then -1..-(top-1).
    """
    m = np.arange(top, dtype=float) if scalar else np.concatenate([np.arange(top), -np.arange(1, top)])
    m.setflags(write=False)
    return m


class _Core:
    """What every application on one curve reads, built once per curve and kept on it.

    basis is the band basis B, (..., N, 2 top), and basis_t its mode-major
    transpose, a view. weights is the quadrature-weight column W, with
    W_k = |c'(theta_k)| 2 pi / (length N): sum_k W_k u_k e^(-i m psi(theta_k))
    is the m-th Fourier coefficient of u in the constant-speed parameter.
    filt is the dense two-thirds filter on N <= _DENSE_MAX_N (None above,
    where the filter is an FFT round trip). lam is the symbol's parameter,
    the length, as a (B, 1) column on a batch. tables holds one _Table per
    symbol, under id(symbol), built by the first application of that
    symbol.
    """

    __slots__ = ("lead", "top", "lam", "basis", "basis_t", "weights", "filt", "tables")

    def __init__(self, curve):
        basis = self.basis = curve.psi.band_basis
        self.basis_t = basis.swapaxes(-1, -2)
        self.lead, n = basis.ndim - 2, basis.shape[-2]
        self.top = basis.shape[-1] // 2
        lam = self.lam = curve.length[..., None] if self.lead else curve.length
        self.weights = (curve.speed * (TWO_PI / (lam * n)))[..., None]
        self.filt = _mode_matrix(n, 0, True) if n <= _DENSE_MAX_N else None
        self.tables = {}


def _core(curve):
    """The curve's _Core, built by the first application on it."""
    core = vars(curve).get("_operator_core")
    if core is None:
        core = vars(curve)["_operator_core"] = _Core(curve)
    return core


class _Table:
    """The multipliers of every variant of one symbol on one curve, folded for the band product.

    A curve's length is fixed, so the symbol is evaluated once per curve:
    symbols._variant_rows gives every variant from one joint evaluation of
    a(lambda, m) and its lambda-derivative, and all of them are folded in
    one operation. folded(variant) gives the multipliers of modes
    0..top-1: a(0) at m = 0, a(m) + conj(a(-m)) above, which is 2 a(m) for
    a scalar symbol. shaped[variant] holds them as the product takes them:
    a scalar symbol's row doubled into a (..., 2 top, 1) column that
    multiplies the real and the imaginary rows of the coefficients in one
    broadcast product; a custom table's (top, d, d) blocks as they are.
    refused holds the error of each variant that does not exist (a
    positive variant of a symbol that is not positive, the
    lambda-derivative of a table without one). The table holds its
    symbol, which keeps the id from being reused, so the cache is per
    symbol object and never hashes one.
    """

    __slots__ = ("symbol", "scalar", "shaped", "refused")

    def __init__(self, core, symbol):
        top = core.top
        self.symbol, self.scalar = symbol, symbol.is_scalar
        names, rows, self.refused = _variant_rows(symbol, core.lam, _band_modes(top, self.scalar))
        if self.scalar:
            mult = 2.0 * rows
            mult[..., 0] = rows[..., 0]
            # one copy for the real rows of the coefficients, one for the imaginary
            shaped = np.concatenate([mult, mult], axis=-1)[..., None]
        else:
            shaped = rows[:, :top].copy()
            shaped[:, 1:] += np.conj(rows[:, top:])
        shaped.setflags(write=False)
        self.shaped = dict(zip(names, shaped))

    def folded(self, variant):
        """The multipliers of modes 0..top-1 of a variant: a(0), then a(m) + conj(a(-m))."""
        mult = self.shaped[variant]
        return mult[..., : mult.shape[-2] // 2, 0] if self.scalar else mult


def _table(core, symbol):
    """The symbol's _Table on the core's curve, built by the first application of the symbol."""
    table = core.tables.get(id(symbol))
    if table is None:
        table = core.tables[id(symbol)] = _Table(core, symbol)
    return table


def _band_multiply(core, symbol, variant, coef):
    """The multiplier step of an application, for scalar and matrix symbols.

    Rows 0..top-1 of coef hold the real parts of the coefficients of modes
    0..N/3, rows top..2top-1 their imaginary parts. A real field's mode -m
    is the conjugate of mode m, so mode m >= 1 carries a(m) + conj(a(-m))
    and mode 0 carries a(0). Extra leading axes stack fields. A scalar
    symbol takes one broadcast product.
    """
    table = _table(core, symbol)
    mult = table.shaped.get(variant)
    if mult is None:
        _refuse(table.refused, variant)
    if table.scalar:
        return coef * mult
    top = core.top
    out = _multiply(symbol, mult, coef[..., :top, :] + 1j * coef[..., top:, :])
    return np.concatenate([out.real, out.imag], axis=-2)


def _times_im(coef):
    """i m on band coefficients as _band_multiply holds them: (x_re, x_im) -> (-m x_im, m x_re)."""
    m = np.arange(coef.shape[-2] // 2)[:, None]
    return np.concatenate([-m * coef[..., len(m) :, :], m * coef[..., : len(m), :]], axis=-2)


def _filter(core, out):
    """The two-thirds filter along the grid axis of (..., N, k) fields."""
    return np.matmul(core.filt, out) if core.filt is not None else dealias(out, axis=core.lead)


def _apply(core, symbol, variant, field):
    """dealias(B M B^T (W field)) on (..., N, k) fields: the arithmetic of every application."""
    coef = core.basis_t @ (core.weights * field)
    return _filter(core, core.basis @ _band_multiply(core, symbol, variant, coef))


def _solve(core, symbol, u, refine):
    """solve_conjugated on (..., N, k) fields, every pass through _apply."""
    h = _apply(core, symbol, "inverse", u)
    if refine <= 0:
        return h
    axes = (core.lead, core.lead + 1)
    floor = 1e-15 * np.abs(u).max(axis=axes)
    active = np.ones(floor.shape, dtype=bool)
    prev, prev_h = np.inf, h

    def per_member(flags):
        return flags.reshape(flags.shape + (1, 1))

    for _ in range(refine):
        r = u - _apply(core, symbol, "identity", h)
        size = np.abs(r).max(axis=axes)
        # a member that stops stays stopped, so prev only matters where active
        rose = active & (size >= prev)
        if rose.any():
            h = np.where(per_member(rose), prev_h, h)
        active = active & (size < prev) & (size > floor)
        if not active.any():
            break
        prev, prev_h = size, h
        step = _apply(core, symbol, "inverse", r)
        h = h + step if active.all() else np.where(per_member(active), h + step, h)
    return h


def _derivative(curve, h, symbol, field):
    """operator_directional_derivative on a checked direction h and (..., N, k) fields."""
    core = _core(curve)
    dlen, dpsi, dw = _variations(curve, h)
    wk = core.weights * field
    # dw = dW / W, x = B^T W k; out = B (M (B^T dW k + dB^T W k) + dM x) + dpsi B (i m M x)
    x, xw, xp = core.basis_t @ np.stack([wk, dw[..., None] * wk, dpsi[..., None] * wk])
    mx, mz = _band_multiply(core, symbol, "identity", np.stack([x, xw - _times_im(xp)]))
    coef = mz + np.asarray(dlen)[..., None, None] * _band_multiply(core, symbol, "lambda_derivative", x)
    outer, inner = core.basis @ np.stack([coef, _times_im(mx)])
    return _filter(core, outer + dpsi[..., None] * inner)


def _checked(curve, u):
    """u on the curve's grid as an (..., N, k) float field, and whether u was a vector field."""
    u = np.asarray(u, dtype=float)
    lead = curve.samples.ndim - 2
    if u.shape[: lead + 1] != curve.samples.shape[: lead + 1]:
        raise GridError(f"field of shape {u.shape} does not match the curve grid N = {curve.n}")
    vector = u.ndim == lead + 2
    return (u if vector else u[..., None]), vector


def apply_conjugated(curve, symbol, variant, u):
    """Apply R_psi o A(length) o R_psi^{-1} to a field on the curve's grid.

    The constant-speed coefficients of u on the band 0 <= m <= N/3 are the
    quadrature E^H (W u), with E_km = e^(i m psi(theta_k)) and
    W = |c'| 2 pi / (length N). With the real basis B = [Re E, -Im E]
    cached on the curve's psi, B^T (W u) holds their real and imaginary
    parts. They are multiplied by the symbol at lambda = length, summed
    back as B @ ., and low-pass filtered with the two-thirds rule. On a
    batch of curves each member is treated on its own.
    """
    field, vector = _checked(curve, u)
    out = _apply(_core(curve), symbol, variant, field)
    return out if vector else out[..., 0]


def solve_conjugated(curve, symbol, u, refine=2):
    """Solve A_c h = u for h; the production inverse of the conjugated operator.

    The quadrature is not an exact roundtrip on the band (its Gram matrix
    E^H W E is only close to I), and the two-thirds filter on the output
    does not commute with it, so the inverse variant is only an approximate
    inverse of the forward operator. Each residual-correction pass
    h <- h + A_c^{-1}(u - A_c h) contracts the defect; the contraction is
    fast on low modes and slows near the two-thirds cutoff, so the loop
    also stops as soon as the residual stagnates or reaches rounding. A
    member whose last correction raised its residual gets its previous
    iterate back, the better of the two. On a batch, every member stops on
    its own residual.
    """
    field, vector = _checked(curve, u)
    h = _solve(_core(curve), symbol, field, refine)
    return h if vector else h[..., 0]


def operator_directional_derivative(curve, h, symbol, k):
    """The exact derivative (D_{c,h} A_c) k of the discrete operator; no curve is re-made.

    apply_conjugated computes A_c k = dealias(B M(L) B^T (W k)). Along h,
    with (dL, dpsi, dW/W) from one first variation of make_curve:
    dB x = dpsi B (i m x), dB^T y = -(i m) B^T (dpsi y), and dM = dL M'(L),
    the lambda_derivative multipliers.
    """
    k = _check_field(curve, k)
    h = _check_vector(curve, h, "direction")
    vector = k.ndim == curve.samples.ndim
    out = _derivative(curve, h, symbol, k if vector else k[..., None])
    return out if vector else out[..., 0]


__all__ = [
    "VARIANTS",
    "apply_conjugated",
    "apply_flat",
    "operator_directional_derivative",
    "solve_conjugated",
]
