"""FFT helpers on the uniform periodic grid theta_k = 2*pi*k/N.

Conventions: modes run over m in [-N/2, N/2) for even N. Odd-order
derivatives zero the Nyquist mode; the trigonometric interpolant carries the
Nyquist coefficient as a pure cosine so that real samples interpolate to a
real function. Derivative and dealias act along one grid axis (axis 0 by
default, axis 1 for a batch of fields stacked along a leading axis).

Every field here is real, so the transforms are real ones (rfft/irfft):
they hold modes m = 0..N//2 only, mode -m being the conjugate of mode m.
Each cached factor is one value per mode 0..N//2. On even N the last one
is the Nyquist mode, whose coefficient irfft reads as real: odd-order
derivatives and the antiderivative set its factor to zero, dealias zeroes
every mode m > N//3, and the antiderivative also zeroes mode 0.

On grids of at most 128 points a round trip costs numpy.fft call overhead,
not arithmetic, so there it runs as one product with a cached real matrix
of the same linear map: (N, N) for derivative and dealias (the spectral
differentiation matrix), (N + 1, N) for the antiderivative, whose last row
gives the mean. Larger grids take the transforms.
"""

import functools

import numpy as np

TWO_PI = 2.0 * np.pi

# the largest grid whose round trips run as a dense product: measured with one
# BLAS thread, the product beats rfft/irfft up to N = 128, also on a batch of
# 11 fields, and loses from N = 256 on batches
_DENSE_MAX_N = 128


def grid(n):
    """Sample points theta_k = 2*pi*k/n."""
    return np.arange(n) * (TWO_PI / n)


def modes(n):
    """Integer FFT mode numbers in FFT storage order."""
    m = np.arange(n)
    m[m >= (n + 1) // 2] -= n
    return m


@functools.lru_cache(maxsize=64)
def _mode_factor(n, order, band):
    """(i m)^order on the rfft modes m = 0..n//2 of an n-point grid.

    Odd orders zero the Nyquist mode of even n; band zeroes every mode
    above the two-thirds cutoff n // 3.
    """
    m = np.arange(n // 2 + 1)
    fac = (1j * m) ** order if order else np.ones(m.shape)
    if order % 2 == 1 and n % 2 == 0:
        fac[n // 2] = 0.0
    if band:
        fac[n // 3 + 1 :] = 0.0
    fac.setflags(write=False)
    return fac


@functools.lru_cache(maxsize=32)
def _antiderivative_factor(n):
    """1/(i m) on the rfft modes m = 0..n//2, zero at m = 0 and at the Nyquist mode."""
    fac = np.zeros(n // 2 + 1, dtype=complex)
    fac[1:] = -1j / np.arange(1, n // 2 + 1)
    if n % 2 == 0:
        fac[n // 2] = 0.0
    fac.setflags(write=False)
    return fac


@functools.lru_cache(maxsize=64)
def _mode_matrix(n, order, band):
    """The (n, n) real matrix of the round trip with the factor _mode_factor(n, order, band)."""
    mat = np.fft.irfft(_mode_factor(n, order, band)[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    mat.setflags(write=False)
    return mat


@functools.lru_cache(maxsize=32)
def _antiderivative_matrix(n):
    """The (n + 1, n) real matrix of theta_antiderivative: rows 0..n-1 give P, row n the mean.

    Row 0 of the periodic map is subtracted from every row, so P[0] is
    exactly 0 and a zero field maps to exactly 0.
    """
    osc = np.fft.irfft(_antiderivative_factor(n)[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    mat = np.vstack([osc - osc[:1], np.full((1, n), 1.0 / n)])
    mat.setflags(write=False)
    return mat


def _multiply_modes(u, axis, order, band):
    """One real FFT round trip along `axis` with the factor _mode_factor(n, order, band).

    A derivative acts on u - u[0] along `axis`, so a constant maps to
    exactly 0. On a grid of at most _DENSE_MAX_N points, fields (..., n, d)
    and scalar rows (..., n) take the round trip as a product with
    _mode_matrix, one matrix product per member, so a member of a batch
    gets bitwise what it gets alone.
    """
    u = np.asarray(u, dtype=float)
    axis %= u.ndim
    n = u.shape[axis]
    if n <= _DENSE_MAX_N and axis >= u.ndim - 2:
        mat = _mode_matrix(n, order, band)
        if axis == u.ndim - 1:
            return np.matmul(mat, (u - u[..., :1] if order else u)[..., None])[..., 0]
        return np.matmul(mat, u - u[..., :1, :] if order else u)
    if order:
        u = u - np.take(u, [0], axis=axis)
    coef = np.fft.rfft(u, axis=axis)
    coef *= _mode_factor(n, order, band).reshape((-1,) + (1,) * (u.ndim - 1 - axis))
    return np.fft.irfft(coef, n, axis=axis)


def spectral_derivative(u, order=1, axis=0):
    """Differentiate periodic samples by mode multiplication along `axis`.

    Works on (n,) and (n, d) arrays, and on batches of them with the grid
    on axis 1. For odd orders the Nyquist mode is zeroed, matching the
    cosine convention of the interpolant.
    """
    return _multiply_modes(u, axis, order, False)


def dealias(u, axis=0):
    """Zero every mode above the two-thirds cutoff |m| > n // 3 along `axis`."""
    return _multiply_modes(u, axis, 0, True)


def _dealiased_derivative(u, axis=0):
    """dealias(spectral_derivative(u, axis=axis), axis=axis) in one round trip."""
    return _multiply_modes(u, axis, 1, True)


def interp_matrix(points, n):
    """Evaluation matrix of the degree-n interpolant of real samples, modes 0..n//2.

    Row p maps the FFT coefficients (fft(u)/n) of modes 0..n//2 to the
    interpolant value at points[p]. The Nyquist column is cos(n*theta/2).
    For real samples the negative modes are the conjugates of the positive
    ones, so trig_interp needs no columns for them.

    The matrix is built mode-major: mode k is row k of an (n//2 + 1, P)
    array, written contiguously by the recurrence e^(ikx) = e^(i(k-1)x) e^(ix).
    The (P, n//2 + 1) result is the transpose view of that array.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    top = n // 2
    rows = np.empty((top + 1, pts.shape[0]), dtype=complex)
    rows[0] = 1.0
    base = np.exp(1j * pts)
    for k in range(1, (n - 1) // 2 + 1):
        np.multiply(rows[k - 1], base, out=rows[k])
    if n % 2 == 0:
        rows[top] = np.cos(0.5 * n * pts)
    return rows.T


def trig_interp(u, points):
    """Evaluate the trigonometric interpolant of samples u at arbitrary points.

    Exact for band-limited u. Real samples only need modes 0..n//2: the
    interior ones stand for their conjugate partners too, so their rfft
    coefficients count twice.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    coef = np.fft.rfft(u, axis=0) / n
    coef[1 : (n + 1) // 2] *= 2.0
    return np.real(interp_matrix(points, n) @ coef)


def theta_antiderivative(g):
    """Periodic part of the cumulative integral int_0^theta_k g.

    Returns (P, mean): P integrates only the nonzero modes of g, so it is
    periodic with P[0] = 0, and the full integral is P + mean*theta. The
    Nyquist mode integrates to zero at every grid node and is dropped.
    g is a scalar field (n,), or a batch (B, n) with one mean per row. On a
    grid of at most _DENSE_MAX_N points it is one product per member with
    _antiderivative_matrix, so a member of a batch gets bitwise what it gets
    alone.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2):
        raise ValueError("theta_antiderivative expects a scalar field or a batch of them")
    n = g.shape[-1]
    if n <= _DENSE_MAX_N:
        out = np.matmul(_antiderivative_matrix(n), g[..., None])[..., 0]
        return out[..., :n], (float(out[n]) if g.ndim == 1 else out[:, n])
    coef = np.fft.rfft(g, axis=-1)
    mean = coef[..., 0].real / n
    coef *= _antiderivative_factor(n)
    osc = np.fft.irfft(coef, n, axis=-1)
    return osc - osc[..., :1], (float(mean) if g.ndim == 1 else mean)
