"""Discrete closed curves on a uniform periodic grid.

A curve is held as N uniform samples in R^d together with its cached
arc-length geometry: pointwise speed |c'|, total length, unit tangent
v = D_s c, and the circle diffeomorphism psi that pulls the curve back to
constant speed, psi(theta) = (2*pi/length) * int_0^theta |c'|.

All arrays stored on the types below are frozen (writeable=False); the
operations are pure functions.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, ImmersionError
from .spectral import (
    TWO_PI,
    dealias,
    grid,
    interp_matrix,
    spectral_derivative,
    theta_antiderivative,
    trig_interp,
)

#: relative immersion floor: min |c'| must exceed IMMERSION_RTOL * max |c'|
IMMERSION_RTOL = 1e-8

#: tolerance of the Newton iteration for psi^{-1}
INVERSE_TOL = 1e-12


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _grid_phases(n):
    """e^(i m theta_k) for m = 0..n//3, from the exact integer phase k*m mod n."""
    k = np.arange(n)
    return _freeze(np.exp(1j * (TWO_PI / n) * (np.outer(k, np.arange(n // 3 + 1)) % n)))


@dataclass(frozen=True)
class Diffeo:
    """Circle diffeomorphism psi(theta) = theta + p(theta), p periodic.

    displacement holds p on the grid. The inverse psi^{-1}(theta) - theta on
    the same grid is solved only when first asked for. Construct through
    make_diffeo (or identity) so the orientation check is done for you.
    """

    displacement: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "displacement", _freeze(np.asarray(self.displacement, dtype=float)))

    @property
    def n(self):
        return self.displacement.shape[0]

    @functools.cached_property
    def forward_points(self):
        """psi(theta_k)."""
        return _freeze(grid(self.n) + self.displacement)

    @functools.cached_property
    def inverse_displacement(self):
        """psi^{-1}(theta_k) - theta_k, solved by _invert_monotone on first use."""
        return _freeze(_invert_monotone(self.displacement) - grid(self.n))

    @functools.cached_property
    def inverse_points(self):
        """psi^{-1}(theta_k)."""
        return _freeze(grid(self.n) + self.inverse_displacement)

    @functools.cached_property
    def is_identity(self):
        return bool(np.max(np.abs(self.displacement)) < 1e-13)

    @functools.cached_property
    def band_phases(self):
        """E_km = e^(i m psi(theta_k)) on the two-thirds band m = 0..N//3.

        Only the displacement phase e^(i m p_k) is computed here; the grid
        phase comes from an exact table, so E stays accurate at high m.
        """
        m = np.arange(self.n // 3 + 1)
        return _freeze(np.exp(1j * np.outer(self.displacement, m)) * _grid_phases(self.n))

    def inverse(self):
        """The inverse diffeomorphism; its own inverse is this displacement."""
        inv = Diffeo(self.inverse_displacement)
        vars(inv)["inverse_displacement"] = self.displacement
        return inv

    @staticmethod
    def identity(n):
        return Diffeo(np.zeros(n))


def _invert_monotone(displacement, tol=INVERSE_TOL, max_iter=60):
    """Solve x + p(x) = theta_k on the grid, p given by periodic samples.

    Newton from the first-order inverse x = theta - p(theta), with a
    bisection fallback; the brackets [theta - max p, theta - min p] always
    contain the solution because x + p(x) is strictly increasing. Each
    iterate builds one half-spectrum interpolation matrix, which evaluates p
    and p' together. The stopping test is the roundtrip psi(x) = theta_k to
    tol, so a returned x is a checked inverse.
    """
    disp = np.asarray(displacement, dtype=float)
    n = disp.shape[0]
    t = grid(n)
    p_dp = np.column_stack([disp, spectral_derivative(disp)])
    # the interpolant of p can exceed its nodal range between nodes, so the
    # bracket is padded beyond [t - max p, t - min p]
    pad = 0.5 * float(disp.max() - disp.min()) + 1e-9
    lo = t - disp.max() - pad
    hi = t - disp.min() + pad
    # the interpolant of p at the nodes is p itself
    x = np.clip(t - disp, lo, hi)
    for _ in range(max_iter + 1):
        vals = trig_interp(p_dp, x, matrix=interp_matrix(x, n, half=True))
        f = x + vals[:, 0] - t
        if np.max(np.abs(f)) < tol:
            return x
        hi = np.where(f > 0, np.minimum(hi, x), hi)
        lo = np.where(f < 0, np.maximum(lo, x), lo)
        slope = 1.0 + vals[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = np.where(np.abs(slope) > 0.1, x - f / slope, np.nan)
        bad = ~np.isfinite(xn) | (xn < lo) | (xn > hi)
        x = np.where(bad, 0.5 * (lo + hi), xn)
    raise DomainError(f"inverse diffeomorphism iteration stalled at residual {np.max(np.abs(f)):.3e}")


def make_diffeo(displacement):
    """Build a Diffeo from periodic displacement samples p(theta_k).

    Raises DomainError unless 1 + p' > 0 everywhere (orientation preserving).
    """
    p = np.asarray(displacement, dtype=float)
    if p.ndim != 1 or p.shape[0] < 8:
        raise GridError(f"displacement must be a 1-d array with at least 8 samples, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("displacement contains nonfinite values")
    slope = 1.0 + spectral_derivative(p)
    if slope.min() <= 0.0:
        raise DomainError(f"diffeomorphism is not orientation preserving: min psi' = {slope.min():.3e}")
    return Diffeo(p)


@dataclass(frozen=True)
class DiscreteCurve:
    """Closed immersed curve with cached arc-length geometry.

    Fields are computed by make_curve; construct through it.
    """

    samples: np.ndarray
    speed: np.ndarray
    length: float
    unit_tangent: np.ndarray
    psi: Diffeo

    def __post_init__(self):
        for name in ("samples", "speed", "unit_tangent"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))

    @property
    def n(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]

    @functools.cached_property
    def theta(self):
        return _freeze(grid(self.n))

    @functools.cached_property
    def psi_values(self):
        """psi(theta_k), the increasing branch on [0, 2*pi)."""
        return self.psi.forward_points

    @functools.cached_property
    def arclength(self):
        """Arc length s(theta_k) measured from theta = 0."""
        return _freeze(self.psi_values * (self.length / TWO_PI))


def make_curve(samples):
    """Validate samples and cache the derived arc-length geometry.

    samples is an (N, d) array of values at theta_k = 2*pi*k/N, N even and
    at least 8, d at least 2. The derivative is low-pass filtered with the
    two-thirds rule before the nonlinear speed computation. Raises
    ImmersionError when the sampled speed drops below IMMERSION_RTOL times
    its maximum, GridError on a bad grid.
    """
    c = np.asarray(samples, dtype=float)
    if c.ndim != 2:
        raise GridError(f"curve samples must be an (N, d) array, got shape {c.shape}")
    n, d = c.shape
    if n < 8 or n % 2 != 0:
        raise GridError(f"need an even number of samples, at least 8, got N = {n}")
    if d < 2:
        raise GridError(f"curves must live in dimension at least 2, got d = {d}")
    if not np.all(np.isfinite(c)):
        raise GridError("curve samples contain nonfinite values")
    deriv = dealias(spectral_derivative(c))
    speed = np.linalg.norm(deriv, axis=1)
    top = speed.max()
    if top == 0.0 or speed.min() <= IMMERSION_RTOL * top:
        raise ImmersionError(
            f"curve is not an immersion: min |c'| = {speed.min():.3e}, max |c'| = {top:.3e}"
        )
    length = float(TWO_PI / n * speed.sum())
    tangent = deriv / speed[:, None]
    # psi - theta integrates only the nonzero modes of |c'|: a ramp left in
    # it at rounding size would break rotation equivariance of A_c
    osc, mean = theta_antiderivative(speed)
    return DiscreteCurve(c, speed, length, tangent, make_diffeo(osc / mean))


def _check_field(c, u, name="field"):
    u = np.asarray(u, dtype=float)
    if u.shape[0] != c.n or u.ndim not in (1, 2):
        raise GridError(f"{name} shape {u.shape} does not match the curve grid N = {c.n}")
    if u.ndim == 2 and u.shape[1] != c.dim:
        raise GridError(f"{name} dimension {u.shape[1]} does not match the curve dimension {c.dim}")
    if not np.all(np.isfinite(u)):
        raise GridError(f"{name} contains nonfinite values")
    return u


def arc_derivative(c, u):
    """Arc-length derivative D_s u = u' / |c'| of a scalar or vector field."""
    u = _check_field(c, u)
    du = spectral_derivative(u)
    if u.ndim == 1:
        return du / c.speed
    return du / c.speed[:, None]


def ds_integral(c, f):
    """Integral of a field against the arc-length measure ds = |c'| dtheta.

    Scalar fields integrate to a float, (N, d) fields componentwise.
    """
    f = _check_field(c, f, name="integrand")
    w = TWO_PI / c.n * c.speed
    if f.ndim == 1:
        return float(w @ f)
    return w @ f


def reparametrize(u, psi):
    """Compose samples with a diffeomorphism: (R_psi u)(theta) = u(psi(theta)).

    Evaluated by trigonometric interpolation at psi(theta_k); exact for
    band-limited u.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != psi.n:
        raise GridError(f"field of length {u.shape[0]} does not match the diffeomorphism grid {psi.n}")
    if psi.is_identity:
        return u.copy()
    return trig_interp(u, psi.forward_points)


def antiderivative(c, f):
    """Arc-length antiderivative F(theta) = int_0^theta f |c'| dsigma.

    The ds-mean of f is removed before the spectral antiderivative and added
    back as mean * s(theta); the removed mean is returned as a diagnostic,
    so the result is (F, removed_mean). F[0] = 0.
    """
    f = _check_field(c, f, name="integrand")
    if f.ndim != 1:
        raise GridError("antiderivative expects a scalar field")
    mean_ds = float(ds_integral(c, f) / c.length)
    osc, _ = theta_antiderivative((f - mean_ds) * c.speed)
    return osc + mean_ds * c.arclength, mean_ds


def first_variations(c, h):
    """First variations of length and of psi in the direction h.

    Returns (dlen, dpsi) with dlen = int <D_s h, v> ds and
    dpsi(theta) = (2*pi/len) int_0^theta <D_s h, v> ds - (dlen/len) psi(theta).
    """
    h = _check_field(c, h)
    integrand = np.einsum("ij,ij->i", arc_derivative(c, h), c.unit_tangent)
    dlen = ds_integral(c, integrand)
    accum, _ = antiderivative(c, integrand)
    dpsi = (TWO_PI / c.length) * accum - (dlen / c.length) * c.psi_values
    return dlen, dpsi


def curve_to_dict(samples):
    """Curve exchange dictionary {"d": d, "samples": [[...], ...]}."""
    c = np.asarray(samples, dtype=float)
    return {"d": int(c.shape[1]), "samples": c.tolist()}


def curve_from_dict(payload):
    """Samples array from the exchange dictionary; validates shape keys."""
    try:
        d = int(payload["d"])
        samples = np.asarray(payload["samples"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GridError(f"malformed curve payload: {exc}") from exc
    if samples.ndim != 2 or samples.shape[1] != d:
        raise GridError(f"curve payload declares d = {d} but samples have shape {samples.shape}")
    return samples


def write_samples(path, samples):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(curve_to_dict(samples), fh)


def read_samples(path):
    with open(path, encoding="utf-8") as fh:
        return curve_from_dict(json.load(fh))


__all__ = [
    "Diffeo",
    "DiscreteCurve",
    "antiderivative",
    "arc_derivative",
    "curve_from_dict",
    "curve_to_dict",
    "ds_integral",
    "first_variations",
    "make_curve",
    "make_diffeo",
    "read_samples",
    "reparametrize",
    "write_samples",
]
