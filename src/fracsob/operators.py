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
"""

import functools

import numpy as np

from .curves import _check_field, _variations
from .errors import GridError
from .spectral import dealias, modes
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


def _band_multipliers(curve, symbol, variant, top):
    """Folded multipliers of modes 0..top-1: a(0) at m = 0, a(m) + conj(a(-m)) above.

    A curve's length is fixed, so the symbol is evaluated once per curve
    and kept on it, one row per member of a batch, in one dict keyed by
    (id(symbol), variant): its raw values on the band, under variant None,
    serve identity, inverse, sqrt and sqrt_inverse, and the
    lambda-derivative has its own. The folded multipliers of each variant
    are kept too. Every entry holds its symbol, which keeps the id from
    being reused, so the cache is per symbol object and never hashes one.
    A scalar symbol is even in m, bitwise (it reads m through m**2), so it
    is evaluated on modes 0..top-1 only and its fold is 2 a(m) for m >= 1,
    real rows. A custom table gives (top, d, d) blocks on modes
    -(top-1)..top-1, one eigh per block for a variant other than identity.
    """
    key = id(symbol)
    cache = vars(curve).setdefault("_band_multipliers", {})
    entry = cache.get((key, variant))
    if entry is None:
        lam = curve.length[..., None] if curve.batched else curve.length
        band = np.arange(top) if symbol.is_scalar else _band_modes(top)
        if variant == "lambda_derivative":
            vals = _values(symbol, lam, band, derivative=True)
        else:
            raw = cache.get((key, None))
            if raw is None:
                raw = cache[(key, None)] = (symbol, _values(symbol, lam, band))
            vals = _variant(raw[1], variant)
        if symbol.is_scalar:
            mult = 2.0 * vals
            mult[..., 0] = vals[..., 0]
        else:
            mult = vals[:top].copy()
            mult[1:] += np.conj(vals[top:])
        mult.setflags(write=False)
        entry = cache[(key, variant)] = (symbol, mult)
    return entry[1]


def _band_multiply(curve, symbol, variant, coef):
    """The multiplier step of apply_conjugated, for scalar and matrix symbols.

    Rows 0..top-1 of coef hold the real parts of the coefficients of modes
    0..N/3, rows top..2top-1 their imaginary parts. A real field's mode -m
    is the conjugate of mode m, so mode m >= 1 carries a(m) + conj(a(-m))
    and mode 0 carries a(0). Extra leading axes stack fields.
    """
    top = coef.shape[-2] // 2
    mult = _band_multipliers(curve, symbol, variant, top)
    if symbol.is_scalar:
        pairs = coef.reshape(coef.shape[:-2] + (2, top, -1)) * mult[..., None, :, None]
        return pairs.reshape(coef.shape)
    out = _multiply(symbol, mult, coef[..., :top, :] + 1j * coef[..., top:, :])
    return np.concatenate([out.real, out.imag], axis=-2)


def _times_im(coef):
    """i m on band coefficients as _band_multiply holds them: (x_re, x_im) -> (-m x_im, m x_re)."""
    m = np.arange(coef.shape[-2] // 2)[:, None]
    return np.concatenate([-m * coef[..., len(m) :, :], m * coef[..., : len(m), :]], axis=-2)


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
    u = np.asarray(u, dtype=float)
    lead = curve.samples.ndim - 2
    if u.shape[: lead + 1] != curve.samples.shape[: lead + 1]:
        raise GridError(f"field of shape {u.shape} does not match the curve grid N = {curve.n}")
    basis = curve.psi.band_basis
    vector = u.ndim == lead + 2
    field = u if vector else u[..., None]
    coef = np.swapaxes(basis, -1, -2) @ (curve.quadrature_weights[..., None] * field)
    out = dealias(basis @ _band_multiply(curve, symbol, variant, coef), axis=lead)
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
    u = np.asarray(u, dtype=float)
    h = apply_conjugated(curve, symbol, "inverse", u)
    if refine <= 0:
        return h
    axes = tuple(range(curve.samples.ndim - 2, u.ndim))
    scale = np.max(np.abs(u), axis=axes)
    active = np.ones(scale.shape, dtype=bool)
    prev, prev_h = np.inf, h

    def per_member(flags):
        return flags.reshape(flags.shape + (1,) * len(axes))

    for _ in range(refine):
        r = u - apply_conjugated(curve, symbol, "identity", h)
        size = np.max(np.abs(r), axis=axes)
        # a member that stops stays stopped, so prev only matters where active
        rose = active & (size >= prev)
        if rose.any():
            h = np.where(per_member(rose), prev_h, h)
        active = active & (size < prev) & (size > 1e-15 * scale)
        if not active.any():
            break
        prev, prev_h = size, h
        step = apply_conjugated(curve, symbol, "inverse", r)
        h = h + step if active.all() else np.where(per_member(active), h + step, h)
    return h


def operator_directional_derivative(curve, h, symbol, k):
    """The exact derivative (D_{c,h} A_c) k of the discrete operator; no curve is re-made.

    apply_conjugated computes A_c k = dealias(B M(L) B^T (W k)). Along h,
    with (dL, dpsi, dW/W) from one first variation of make_curve:
    dB x = dpsi B (i m x), dB^T y = -(i m) B^T (dpsi y), and dM = dL M'(L),
    the lambda_derivative multipliers.
    """
    k = _check_field(curve, k)
    field = k if k.ndim == curve.samples.ndim else k[..., None]
    lead = curve.samples.ndim - 2
    dlen, dpsi, dw = _variations(curve, h)
    basis = curve.psi.band_basis
    wk = curve.quadrature_weights[..., None] * field
    # dw = dW / W, x = B^T W k; out = B (M (B^T dW k + dB^T W k) + dM x) + dpsi B (i m M x)
    x, xw, xp = np.swapaxes(basis, -1, -2) @ np.stack([wk, dw[..., None] * wk, dpsi[..., None] * wk])
    mx, mz = _band_multiply(curve, symbol, "identity", np.stack([x, xw - _times_im(xp)]))
    coef = mz + np.asarray(dlen)[..., None, None] * _band_multiply(curve, symbol, "lambda_derivative", x)
    outer, inner = basis @ np.stack([coef, _times_im(mx)])
    out = dealias(outer + dpsi[..., None] * inner, axis=lead)
    return out if k.ndim == curve.samples.ndim else out[..., 0]


__all__ = [
    "VARIANTS",
    "apply_conjugated",
    "apply_flat",
    "operator_directional_derivative",
    "solve_conjugated",
]
