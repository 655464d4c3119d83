"""Modewise operator application, flat and conjugated to a curve.

This module holds only the multiplier step: the multipliers of every
variant come from symbols (_values, _variant). apply_flat multiplies
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
weight column, the dense two-thirds filter on N <= _DENSE_MAX_N, and the
multipliers of each symbol and variant, folded and shaped for the product,
with the symbol evaluated once per curve. It checks nothing: callers
inside the package pass it fields they made or checked. The arithmetic is
the one each public function had on its own, in the same order, so every
output is bitwise what it was.
"""

import functools

import numpy as np

from .curves import _check_field, _check_vector, _variations
from .errors import GridError
from .spectral import _DENSE_MAX_N, _mode_matrix, dealias, modes
from .symbols import VARIANTS, _values, _variant


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
def _band_modes(top):
    """Modes 0..top-1, then -1..-(top-1): the band a custom table is folded on."""
    m = np.arange(top)
    return np.concatenate([m, -m[1:]])


class _Core:
    """What every application on one curve reads, built once per curve and kept on it.

    basis is the band basis B, (..., N, 2 top), and basis_t its mode-major
    transpose, a view. weights is the quadrature-weight column W, filt the
    dense two-thirds filter on N <= _DENSE_MAX_N (None above, where the
    filter is an FFT round trip). mults holds the multipliers, one entry
    per (id(symbol), variant).
    """

    __slots__ = ("lead", "top", "lam", "basis", "basis_t", "weights", "filt", "mults")

    def __init__(self, curve):
        self.lead = curve.samples.ndim - 2
        self.basis = curve.psi.band_basis
        self.basis_t = np.swapaxes(self.basis, -1, -2)
        self.top = self.basis.shape[-1] // 2
        self.lam = curve.length[..., None] if curve.batched else curve.length
        self.weights = curve.quadrature_weights[..., None]
        self.filt = _mode_matrix(curve.n, 0, True) if curve.n <= _DENSE_MAX_N else None
        self.mults = {}


def _core(curve):
    """The curve's _Core, built by the first application on it."""
    core = vars(curve).get("_operator_core")
    if core is None:
        core = vars(curve)["_operator_core"] = _Core(curve)
    return core


def _multipliers(core, symbol, variant):
    """(symbol, is_scalar, folded, shaped) for a variant on the core's curve.

    folded holds the multipliers of modes 0..top-1: a(0) at m = 0,
    a(m) + conj(a(-m)) above; shaped is folded as the product takes it.
    A curve's length is fixed, so the symbol is evaluated once per curve:
    its raw values on the band, under variant None, serve identity,
    inverse, sqrt and sqrt_inverse, and the lambda-derivative has its own.
    Every entry holds its symbol, which keeps the id from being reused, so
    the cache is per symbol object and never hashes one. A scalar symbol
    is even in m, bitwise (it reads m through m**2), so it is evaluated on
    modes 0..top-1 only and its fold is 2 a(m) for m >= 1, real rows. A
    custom table gives (top, d, d) blocks on modes -(top-1)..top-1, one
    eigh per block for a variant other than identity.
    """
    key = id(symbol)
    entry = core.mults.get((key, variant))
    if entry is not None:
        return entry
    top, scalar = core.top, symbol.is_scalar
    band = np.arange(top) if scalar else _band_modes(top)
    if variant == "lambda_derivative":
        vals = _values(symbol, core.lam, band, derivative=True)
    else:
        raw = core.mults.get((key, None))
        if raw is None:
            raw = core.mults[(key, None)] = (symbol, _values(symbol, core.lam, band))
        vals = _variant(raw[1], variant)
    if scalar:
        mult = 2.0 * vals
        mult[..., 0] = vals[..., 0]
    else:
        mult = vals[:top].copy()
        mult[1:] += np.conj(vals[top:])
    mult.setflags(write=False)
    entry = core.mults[(key, variant)] = (symbol, scalar, mult, mult[..., None, :, None] if scalar else mult)
    return entry


def _band_multiply(core, symbol, variant, coef):
    """The multiplier step of an application, for scalar and matrix symbols.

    Rows 0..top-1 of coef hold the real parts of the coefficients of modes
    0..N/3, rows top..2top-1 their imaginary parts. A real field's mode -m
    is the conjugate of mode m, so mode m >= 1 carries a(m) + conj(a(-m))
    and mode 0 carries a(0). Extra leading axes stack fields.
    """
    _, scalar, mult, shaped = _multipliers(core, symbol, variant)
    if scalar:
        return (coef.reshape(coef.shape[:-2] + (2, core.top, -1)) * shaped).reshape(coef.shape)
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
