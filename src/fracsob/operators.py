"""Modewise operator application, flat and conjugated to a curve.

A flat operator acts on grid samples by multiplying Fourier mode m with a
variant of the symbol value a(lambda, m). The curve-conjugated operator is

    A_c = R_psi o A(length) o R_psi^{-1},

realized by a weighted non-uniform DFT at psi(theta_k) on the two-thirds
band, so psi^{-1} is never needed. Variants: identity, inverse, sqrt,
sqrt_inverse, and lambda_derivative (the derivative of A in its parameter,
conjugation held fixed; this is not the full curve derivative of A_c).
"""

from dataclasses import dataclass

import numpy as np

from .curves import make_curve
from .errors import DomainError, GridError, NotPositiveDefiniteError
from .spectral import TWO_PI, dealias, modes
from .symbols import (
    matrix_derivative_values,
    matrix_values,
    scalar_derivative_values,
    scalar_values,
)

VARIANTS = ("identity", "inverse", "sqrt", "sqrt_inverse", "lambda_derivative")


@dataclass(frozen=True)
class FlatOperator:
    """A symbol family pinned to one parameter value and one variant."""

    symbol: object
    lam: float
    variant: str = "identity"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown operator variant {self.variant!r}")
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise DomainError(f"operator parameter lambda must be positive, got {self.lam}")


def _scalar_multipliers(op, m):
    vals = scalar_values(op.symbol, op.lam, m)
    if op.variant == "identity":
        return vals
    if op.variant == "lambda_derivative":
        return scalar_derivative_values(op.symbol, op.lam, m)
    if vals.min() <= 0:
        raise NotPositiveDefiniteError(
            f"symbol value {vals.min():.3e} is not positive, variant {op.variant!r} undefined"
        )
    if op.variant == "inverse":
        return 1.0 / vals
    if op.variant == "sqrt":
        return np.sqrt(vals)
    return 1.0 / np.sqrt(vals)


def _matrix_multipliers(op, m):
    if op.variant == "lambda_derivative":
        return matrix_derivative_values(op.symbol, op.lam, m)
    mats = matrix_values(op.symbol, op.lam, m)
    if op.variant == "identity":
        return mats
    w, v = np.linalg.eigh(mats)
    if w.min() <= 0:
        worst = m[np.argmin(w[:, 0])]
        raise NotPositiveDefiniteError(f"symbol at mode {worst} is not positive definite")
    if op.variant == "inverse":
        f = 1.0 / w
    elif op.variant == "sqrt":
        f = np.sqrt(w)
    else:
        f = 1.0 / np.sqrt(w)
    return (v * f[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def _multiply(op, m, coef, u):
    """Multiply the coefficients of u's modes m by the operator's multipliers."""
    if op.symbol.is_scalar:
        return coef * _scalar_multipliers(op, m).reshape((-1,) + (1,) * (u.ndim - 1))
    if u.ndim != 2 or u.shape[1] != op.symbol.dim:
        raise GridError(
            f"matrix symbol of dimension {op.symbol.dim} cannot act on field of shape {u.shape}"
        )
    return np.einsum("mij,mj->mi", _matrix_multipliers(op, m), coef)


def apply_flat(op, u):
    """Apply the flat operator to samples u, (N,) or (N, d) real arrays."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if n < 2:
        raise GridError(f"field too short for an FFT, N = {n}")
    coef = _multiply(op, modes(n), np.fft.fft(u, axis=0), u)
    return np.real(np.fft.ifft(coef, axis=0))


@dataclass(frozen=True)
class CurveOperator:
    """The conjugated operator of a symbol on a fixed curve."""

    curve: object
    symbol: object
    variant: str = "identity"

    @property
    def flat(self):
        return FlatOperator(self.symbol, self.curve.length, self.variant)

    def __call__(self, u):
        return apply_conjugated(self.curve, self.symbol, self.variant, u)


def apply_conjugated(curve, symbol, variant, u):
    """Apply R_psi o A(length) o R_psi^{-1} to a field on the curve's grid.

    The constant-speed coefficients of u on the band 0 <= m <= N/3 are the
    quadrature E^H (W u), with E_km = e^(i m psi(theta_k)) cached on the
    curve's psi and W = |c'| 2 pi / (length N). They are multiplied by the
    symbol at lambda = length, summed back as real(E @ .), and low-pass
    filtered with the two-thirds rule.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != curve.n:
        raise GridError(f"field of length {u.shape[0]} does not match the curve grid N = {curve.n}")
    op = FlatOperator(symbol, curve.length, variant)
    psi = curve.psi
    if psi.is_identity:
        return apply_flat(op, u)
    ee = psi.band_phases
    top = ee.shape[1] - 1
    weights = curve.speed * (TWO_PI / (curve.length * curve.n))
    coef = np.conj(ee.T @ (weights * u.T).T)
    # a real field's mode -m is the conjugate of mode m, so mode m >= 1
    # carries a(m) + conj(a(-m)) and mode 0 carries a(0)
    m = np.arange(1, top + 1)
    out = _multiply(op, np.concatenate([[0], m, -m]), np.concatenate([coef, np.conj(coef[1:])]), u)
    out[1 : top + 1] += np.conj(out[top + 1 :])
    return dealias(np.real(ee @ out[: top + 1]))


def solve_conjugated(curve, symbol, u, refine=2, x0=None):
    """Solve A_c h = u for h; the production inverse of the conjugated operator.

    The quadrature is not an exact roundtrip on the band (its Gram matrix
    E^H W E is only close to I), and the two-thirds filter on the output
    does not commute with it, so the inverse variant is only an approximate
    inverse of the forward operator. Each residual-correction pass
    h <- h + A_c^{-1}(u - A_c h) contracts the defect; the contraction is
    fast on low modes and slows near the two-thirds cutoff, so the loop
    also stops as soon as the residual stagnates or reaches rounding. x0
    seeds the iteration when a previous solve for a nearby right-hand side
    is available.
    """
    u = np.asarray(u, dtype=float)
    h = apply_conjugated(curve, symbol, "inverse", u) if x0 is None else np.asarray(x0, dtype=float)
    if refine <= 0 or curve.psi.is_identity:
        return h
    scale = float(np.max(np.abs(u)))
    prev = np.inf
    for _ in range(refine):
        r = u - apply_conjugated(curve, symbol, "identity", h)
        size = float(np.max(np.abs(r)))
        if size >= prev or size <= 1e-15 * scale:
            break
        prev = size
        h = h + apply_conjugated(curve, symbol, "inverse", r)
    return h


def operator_directional_derivative(
    curve, h, symbol, k, variant="identity", richardson=False, eps_scale=1e-5
):
    """Directional derivative (D_{c,h} A_c) k by central differences.

    The step is eps = eps_scale * ||c||_inf / max(||h||_inf, 1e-30); the
    perturbed curves are revalidated, so an ImmersionError propagates when
    c +/- eps*h leaves the immersion set. With richardson=True the
    (eps, eps/2) extrapolation is returned, which removes the leading
    truncation term. The default step keeps the perturbed curves safely
    immersed; at that size the result is rounding-limited near 1e-7, so pass
    a larger eps_scale (1e-3 with richardson is a good choice) when the
    downstream identity must hold tighter.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != curve.samples.shape:
        raise GridError(f"direction shape {h.shape} does not match curve samples {curve.samples.shape}")
    eps = eps_scale * np.max(np.abs(curve.samples)) / max(np.max(np.abs(h)), 1e-30)

    def probe(step):
        moved = make_curve(curve.samples + step * h)
        return apply_conjugated(moved, symbol, variant, k)

    coarse = (probe(eps) - probe(-eps)) / (2.0 * eps)
    if not richardson:
        return coarse
    fine = (probe(0.5 * eps) - probe(-0.5 * eps)) / eps
    return (4.0 * fine - coarse) / 3.0


__all__ = [
    "VARIANTS",
    "CurveOperator",
    "FlatOperator",
    "apply_conjugated",
    "apply_flat",
    "operator_directional_derivative",
]
