"""Discrete closed curves on a uniform periodic grid.

A curve is held as N uniform samples in R^d together with its cached
arc-length geometry: pointwise speed |c'|, total length, unit tangent
v = D_s c, and the circle diffeomorphism psi that pulls the curve back to
constant speed, psi(theta) = (2*pi/length) * int_0^theta |c'|.

make_curve also takes a batch of curves stacked along a leading axis,
(B, N, d): every cached field then carries the same leading axis, length
and the flags of psi hold one value per member, and fields on such a curve
are (B, N) or (B, N, d). The calculus below acts member by member.

All arrays stored on the types below are frozen (writeable=False);
make_curve and make_diffeo never freeze the caller's writeable array, but
a copy of it. The operations are pure functions.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, ImmersionError, ResolutionError
from .spectral import (
    TWO_PI,
    _dealiased_derivative,
    grid,
    spectral_derivative,
    theta_antiderivative,
    trig_interp,
)

#: relative immersion floor: min |c'| must exceed IMMERSION_RTOL * max |c'|
IMMERSION_RTOL = 1e-8

#: tolerance of the Newton iteration for psi^{-1}
INVERSE_TOL = 1e-12

#: Newton steps for psi^{-1} before it gives up
INVERSE_MAX_ITER = 60


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _band_tables(n):
    """(grid phase, L, i, L i) of the band basis on an n-point grid.

    The grid phase e^(i m theta_k) for m = 0..n//3, one row per mode, comes
    from the exact integer phase k*m mod n; L = ceil(sqrt(n//3 + 1)) and
    i = 0..L-1 as a column.
    """
    angle = (TWO_PI / n) * (np.outer(np.arange(n // 3 + 1), np.arange(n)) % n)
    table = np.cos(angle) + 1j * np.sin(angle)
    table.setflags(write=False)
    L = math.isqrt(n // 3) + 1
    i = np.arange(L)[:, None]
    return table, L, i, L * i


def _unit_phases(phase):
    """e^(i phase), from one cos and one sin of each phase."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


@dataclass(frozen=True)
class Diffeo:
    """Circle diffeomorphism psi(theta) = theta + p(theta), p periodic.

    displacement holds p on the grid, (N,) or a batch (B, N). The inverse
    psi^{-1}(theta) - theta on the same grid is solved only when first asked
    for, and only for a single diffeomorphism (a batch raises GridError).
    Construct through make_diffeo (or identity) so the orientation check is
    done for you; make_curve checks its psi from the speed instead.
    """

    displacement: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "displacement", _freeze(np.asarray(self.displacement, dtype=float)))

    @property
    def n(self):
        return self.displacement.shape[-1]

    @functools.cached_property
    def forward_points(self):
        """psi(theta_k)."""
        return _freeze(grid(self.n) + self.displacement)

    @functools.cached_property
    def inverse_displacement(self):
        """psi^{-1}(theta_k) - theta_k, solved by _invert_monotone on first use."""
        if self.displacement.ndim != 1:
            raise GridError("psi^{-1} is solved for a single diffeomorphism, not a batch")
        return _freeze(_invert_monotone(self.displacement) - grid(self.n))

    @functools.cached_property
    def inverse_points(self):
        """psi^{-1}(theta_k)."""
        return _freeze(grid(self.n) + self.inverse_displacement)

    @functools.cached_property
    def is_identity(self):
        """p vanishes to rounding; a boolean array with one flag per member for a batch."""
        flat = np.max(np.abs(self.displacement), axis=-1) < 1e-13
        return flat if flat.ndim == 0 else _freeze(flat)

    @functools.cached_property
    def band_basis(self):
        """[Re E, -Im E] for E_km = e^(i m psi(theta_k)) on the band m = 0..N//3.

        One real (N, 2(N//3 + 1)) array, (B, N, 2(N//3 + 1)) for a batch, so
        that both quadrature products of the operators are real products.
        It is the transposed view of a mode-major array, so that every pass
        below runs along the grid axis. Only the displacement phase m p_k
        goes through cos and sin, and only O(N^1.5) of it: with m = jL + i
        and L = ceil(sqrt(N//3 + 1)), e^(i m p) = e^(i jL p) e^(i i p) is one
        product of two (L, N) tables. The grid phase comes from an exact
        table, so E stays accurate at high m.
        """
        grid_phase, L, i, Li = _band_tables(self.n)
        top = grid_phase.shape[0]
        p = self.displacement[..., None, :]
        coarse = _unit_phases(p * Li)
        fine = _unit_phases(p * i)
        e = (coarse[..., :, None, :] * fine[..., None, :, :]).reshape(p.shape[:-2] + (L * L, self.n))
        e = e[..., :top, :]
        e *= grid_phase
        basis = np.empty(p.shape[:-2] + (2 * top, self.n))
        basis[..., :top, :] = e.real
        np.negative(e.imag, out=basis[..., top:, :])
        basis.setflags(write=False)
        return np.swapaxes(basis, -1, -2)

    def inverse(self):
        """The inverse diffeomorphism; its own inverse is this displacement."""
        inv = Diffeo(self.inverse_displacement)
        vars(inv)["inverse_displacement"] = self.displacement
        return inv

    @staticmethod
    def identity(n):
        return Diffeo(np.zeros(n))


def _invert_monotone(displacement):
    """Solve x + p(x) = theta_k on the grid, p given by periodic samples.

    Newton from the first-order inverse x = theta - p(theta), with a
    bisection fallback; the brackets [theta - max p, theta - min p] always
    contain the solution because x + p(x) is strictly increasing. Each
    iterate evaluates p and p' together by one trig_interp call, which
    builds one interpolation matrix. The stopping test is the roundtrip
    psi(x) = theta_k to INVERSE_TOL, so a returned x is a checked inverse;
    DomainError after INVERSE_MAX_ITER steps.
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
    for _ in range(INVERSE_MAX_ITER + 1):
        vals = trig_interp(p_dp, x)
        f = x + vals[:, 0] - t
        if np.max(np.abs(f)) < INVERSE_TOL:
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
    A (B, N) batch of displacements gives a batch of diffeomorphisms.
    """
    # a copy: the Diffeo freezes its displacement, never the caller's array
    p = np.array(displacement, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < 8:
        raise GridError(f"displacement must be an (N,) or (B, N) array with N >= 8, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("displacement contains nonfinite values")
    slope = 1.0 + spectral_derivative(p, axis=-1)
    if slope.min() <= 0.0:
        raise DomainError(f"diffeomorphism is not orientation preserving: min psi' = {slope.min():.3e}")
    return Diffeo(p)


@dataclass(frozen=True)
class DiscreteCurve:
    """Closed immersed curve with cached arc-length geometry.

    Fields are computed by make_curve; construct through it. For a batch
    of B curves every field has a leading axis of length B, and length is a
    (B,) array.
    """

    samples: np.ndarray
    speed: np.ndarray
    length: float
    unit_tangent: np.ndarray
    psi: Diffeo

    def __post_init__(self):
        for name in ("samples", "speed", "unit_tangent"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))
        if np.ndim(self.length):
            object.__setattr__(self, "length", _freeze(self.length))

    @property
    def n(self):
        return self.samples.shape[-2]

    @property
    def dim(self):
        return self.samples.shape[-1]

    @property
    def batched(self):
        return self.samples.ndim == 3

    def member(self, i):
        """Curve i of a batch, sharing its geometry arrays and none of its caches.

        The member's band basis is built on first use, bitwise the batch's
        row i. So a stored frame (solvers._rk4 keeps members) holds its
        geometry only, not the (N, 2(N//3 + 1)) basis of the stage it came from.
        """
        psi = Diffeo(self.psi.displacement[i])
        return DiscreteCurve(self.samples[i], self.speed[i], float(self.length[i]), self.unit_tangent[i], psi)

    def uncached(self):
        """This curve's geometry on a fresh psi, with no band basis or multipliers cached.

        What an operator builds on the copy goes with it, so a reader of
        stored frames (conservation_report, path_energy) leaves the frames
        as it found them. The copy's basis is bitwise this curve's.
        """
        psi = Diffeo(self.psi.displacement)
        return DiscreteCurve(self.samples, self.speed, self.length, self.unit_tangent, psi)

    @functools.cached_property
    def theta(self):
        return _freeze(grid(self.n))

    @functools.cached_property
    def quadrature_weights(self):
        """W_k = |c'(theta_k)| 2 pi / (length N): sum_k W_k u_k e^(-i m psi(theta_k))
        is the m-th Fourier coefficient of u in the constant-speed parameter."""
        return _freeze(self.speed * (TWO_PI / (_per_member(self.length) * self.n)))

    @functools.cached_property
    def psi_values(self):
        """psi(theta_k), the increasing branch on [0, 2*pi)."""
        return self.psi.forward_points

    @functools.cached_property
    def arclength(self):
        """Arc length s(theta_k) measured from theta = 0."""
        return _freeze(self.psi_values * (_per_member(self.length) / TWO_PI))


def _per_member(a):
    """A per-member scalar, or a (B,) array of them, broadcastable against (..., N) fields."""
    return np.asarray(a)[..., None]


def make_curve(samples):
    """Validate samples and cache the derived arc-length geometry.

    samples is an (N, d) array of values at theta_k = 2*pi*k/N, N even and
    at least 8, d at least 2, or a (B, N, d) batch of such curves. The
    derivative is low-pass filtered with the two-thirds rule before the
    nonlinear speed computation. Raises ImmersionError when the sampled
    speed drops below IMMERSION_RTOL times its maximum (in any member of a
    batch), its subclass ResolutionError when the arc-length map psi is not
    orientation preserving, GridError on a bad grid. The orientation check
    reads psi' from the speed (_psi_slope), so it takes no transform;
    make_diffeo keeps its spectral check for displacements from outside.
    The curve never aliases memory the caller can write: it holds a copy
    of a writeable samples array or of a view, and a read-only array that
    owns its data as it is.
    """
    # C order keeps every reduction over the grid axis in the order a
    # single curve gets, whatever the layout of a batch (a broadcast view
    # would make the batch axis the fast one)
    c = np.ascontiguousarray(samples, dtype=float)
    may_change = c.flags.writeable or c.base is not None
    if may_change and isinstance(samples, np.ndarray) and np.may_share_memory(c, samples):
        c = c.copy()
    if c.ndim not in (2, 3):
        raise GridError(f"curve samples must be an (N, d) array, got shape {c.shape}")
    n, d = c.shape[-2:]
    if n < 8 or n % 2 != 0:
        raise GridError(f"need an even number of samples, at least 8, got N = {n}")
    if d < 2:
        raise GridError(f"curves must live in dimension at least 2, got d = {d}")
    if not np.isfinite(c).all():
        raise GridError("curve samples contain nonfinite values")
    deriv = _dealiased_derivative(c, axis=-2)
    # |c'| summed as np.linalg.norm sums it
    speed = np.sqrt((deriv * deriv).sum(axis=-1))
    top = speed.max(axis=-1)
    low = speed.min(axis=-1)
    bad = (top == 0.0) | (low <= IMMERSION_RTOL * top)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        which = f" (batch member {i})" if c.ndim == 3 else ""
        raise ImmersionError(
            f"curve is not an immersion{which}: min |c'| = {np.ravel(low)[i]:.3e}, "
            f"max |c'| = {np.ravel(top)[i]:.3e}"
        )
    length = TWO_PI / n * speed.sum(axis=-1)
    tangent = deriv / speed[..., None]
    # psi - theta integrates only the nonzero modes of |c'|: a ramp left in
    # it at rounding size would break rotation equivariance of A_c
    osc, mean = theta_antiderivative(speed)
    slope = _psi_slope(speed, mean)
    if slope.min() <= 0.0:
        raise ResolutionError(
            f"the grid does not resolve the speed: diffeomorphism is not orientation preserving: "
            f"min psi' = {slope.min():.3e}"
        )
    psi = Diffeo(osc / _per_member(mean))
    return DiscreteCurve(c, speed, length if c.ndim == 3 else float(length), tangent, psi)


@functools.lru_cache(maxsize=16)
def _alternating(n):
    """(-1)^k on an n-point grid: the Nyquist mode's samples."""
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    sign.setflags(write=False)
    return sign


def _psi_slope(speed, mean):
    """psi' = 1 + p' of make_curve's psi, from the speed and its mean; no transform.

    p integrates every mode of |c'|/mean but 0 and the Nyquist mode, so
    1 + p' is |c'| less its Nyquist part, over the mean. It equals
    make_diffeo's 1 + spectral_derivative(p) to rounding.
    """
    sign = _alternating(speed.shape[-1])
    nyquist = (speed @ sign) / speed.shape[-1]
    return (speed - _per_member(nyquist) * sign) / _per_member(mean)


def _check_field(c, u, name="field"):
    """A scalar (N,) or vector (N, d) field on c, each with c's batch axis in front."""
    u = np.asarray(u, dtype=float)
    lead = c.samples.ndim - 2
    if u.shape[: lead + 1] != c.samples.shape[: lead + 1] or u.ndim not in (lead + 1, lead + 2):
        raise GridError(f"{name} shape {u.shape} does not match the curve grid N = {c.n}")
    if u.ndim == lead + 2 and u.shape[-1] != c.dim:
        raise GridError(f"{name} dimension {u.shape[-1]} does not match the curve dimension {c.dim}")
    if not np.all(np.isfinite(u)):
        raise GridError(f"{name} contains nonfinite values")
    return u


def arc_derivative(c, u):
    """Arc-length derivative D_s u = u' / |c'| of a scalar or vector field."""
    u = _check_field(c, u)
    du = spectral_derivative(u, axis=c.samples.ndim - 2)
    if u.ndim == c.speed.ndim:
        return du / c.speed
    return du / c.speed[..., None]


def ds_integral(c, f):
    """Integral of a field against the arc-length measure ds = |c'| dtheta.

    Scalar fields integrate to a float, (N, d) fields componentwise; on a
    batch, one value per member. Every field reduces through the same
    einsum, so a single curve gets bitwise what it gets as a batch of one.
    """
    return _ds_integral(c, _check_field(c, f, name="integrand"))


def _ds_integral(c, f):
    """ds_integral of a field already checked."""
    w = TWO_PI / c.n * c.speed
    out = np.einsum("...k,...k->...", w, f) if f.ndim == w.ndim else np.einsum("...k,...kj->...j", w, f)
    return float(out) if out.ndim == 0 else out


def reparametrize(u, psi):
    """Compose samples with a diffeomorphism: (R_psi u)(theta) = u(psi(theta)).

    Evaluated by trigonometric interpolation at psi(theta_k); exact for
    band-limited u.
    """
    u = np.asarray(u, dtype=float)
    if psi.displacement.shape != u.shape[:1]:
        raise GridError(f"a field of shape {u.shape} needs a single diffeomorphism on its grid, "
                        f"got displacements of shape {psi.displacement.shape}")
    if psi.is_identity:
        return u.copy()
    return trig_interp(u, psi.forward_points)


def antiderivative(c, f):
    """Arc-length antiderivative F(theta) = int_0^theta f |c'| dsigma.

    The ds-mean of f is removed before the spectral antiderivative and added
    back as mean * s(theta); the removed mean is returned as a diagnostic,
    so the result is (F, removed_mean). F[0] = 0. On a batch the removed
    means are a (B,) array.
    """
    f = _check_field(c, f, name="integrand")
    if f.ndim != c.speed.ndim:
        raise GridError("antiderivative expects a scalar field")
    mean_ds = _ds_integral(c, f) / c.length
    osc, _ = theta_antiderivative((f - _per_member(mean_ds)) * c.speed)
    return osc + _per_member(mean_ds) * c.arclength, mean_ds


def _check_vector(c, u, name="field"):
    """A vector field of the curve's own shape, (N, d) or (B, N, d)."""
    u = _check_field(c, u, name)
    if u.shape != c.samples.shape:
        raise GridError(f"{name} shape {u.shape} does not match curve samples {c.samples.shape}")
    return u


def _variations(c, h):
    """(dlen, dpsi, dw) of make_curve along a checked direction h, from one filtered derivative of h.

    With g = <D_s h, v> (make_curve's filtered D_s h), dlen = int g ds,
    dw = g - dlen/len is dW/W for the quadrature weights W, and
    dpsi = (2*pi/len) int_0^theta dw ds, one periodic antiderivative.
    """
    dh = _dealiased_derivative(h, axis=c.samples.ndim - 2)
    integrand = np.einsum("...j,...j->...", dh, c.unit_tangent) / c.speed
    dlen = _ds_integral(c, integrand)
    dw = integrand - _per_member(dlen / c.length)
    osc, _ = theta_antiderivative(dw * c.speed)
    return dlen, (TWO_PI / _per_member(c.length)) * osc, dw


def first_variations(c, h):
    """First variations of length and of psi in the direction h.

    Returns (dlen, dpsi) with dlen = int <D_s h, v> ds and
    dpsi(theta) = (2*pi/len) int_0^theta <D_s h, v> ds - (dlen/len) psi(theta),
    with make_curve's filtered D_s h: the exact variations of make_curve(c + eps h).
    """
    return _variations(c, _check_vector(c, h, "direction"))[:2]


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
