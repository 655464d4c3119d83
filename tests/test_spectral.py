"""Tests for the periodic spectral toolbox."""

import numpy as np
import pytest

from fracsob import spectral
from fracsob.spectral import (
    TWO_PI,
    _dealiased_derivative,
    dealias,
    grid,
    interp_matrix,
    modes,
    spectral_derivative,
    theta_antiderivative,
    trig_interp,
)

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_grid_is_uniform_and_endpoint_free():
    theta = grid(8)
    assert theta.shape == (8,)
    assert theta[0] == 0.0
    assert np.allclose(np.diff(theta), TWO_PI / 8)
    assert theta[-1] < TWO_PI


def test_modes_ordering_matches_fft_layout():
    assert modes(8).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert modes(7).tolist() == [0, 1, 2, 3, -3, -2, -1]


def test_derivative_exact_on_trig_polynomials():
    theta = grid(32)
    u = 2.0 * np.sin(3 * theta) - 0.5 * np.cos(5 * theta)
    du = 6.0 * np.cos(3 * theta) + 2.5 * np.sin(5 * theta)
    d2u = -18.0 * np.sin(3 * theta) + 12.5 * np.cos(5 * theta)
    assert np.allclose(spectral_derivative(u), du, atol=1e-12)
    assert np.allclose(spectral_derivative(u, order=2), d2u, atol=1e-11)


def test_derivative_acts_columnwise_on_vector_fields():
    theta = grid(16)
    u = np.column_stack([np.cos(theta), np.sin(2 * theta)])
    du = spectral_derivative(u)
    assert np.allclose(du[:, 0], -np.sin(theta), atol=1e-12)
    assert np.allclose(du[:, 1], 2 * np.cos(2 * theta), atol=1e-12)


def test_odd_order_derivative_kills_nyquist_mode():
    # cos(n/2 * theta) carries only the unpaired Nyquist coefficient; a real
    # odd-order derivative has no consistent value for it and must return zero
    theta = grid(8)
    u = np.cos(4 * theta)
    assert np.allclose(spectral_derivative(u), 0.0, atol=1e-13)
    # even orders keep it: u'' = -16 u
    assert np.allclose(spectral_derivative(u, order=2), -16.0 * u, atol=1e-11)


def test_dealias_removes_top_third_and_keeps_rest():
    n = 24
    theta = grid(n)
    keep = np.cos(8 * theta)  # |m| = n // 3 survives
    drop = np.sin(9 * theta)
    out = dealias(keep + drop)
    assert np.allclose(out, keep, atol=1e-12)


def test_interp_matrix_matches_direct_fourier_summation():
    # the production routine builds columns by recurrence; compare against a
    # naive evaluation of the same basis, modes 0..n//2, including the
    # cosine Nyquist column
    n = 10
    pts = np.array([0.1, 1.7, 3.9, 5.5])
    ee = interp_matrix(pts, n)
    naive = np.empty((pts.size, n // 2 + 1), dtype=complex)
    for m in range(n // 2 + 1):
        naive[:, m] = np.exp(1j * m * pts)
    naive[:, n // 2] = np.cos(n / 2 * pts)
    assert np.allclose(ee, naive, atol=1e-13)


def test_trig_interp_reproduces_samples_on_the_grid():
    theta = grid(16)
    u = np.column_stack([np.cos(2 * theta) + 0.3, np.sin(theta)])
    assert np.allclose(trig_interp(u, theta), u, atol=1e-12)


def test_trig_interp_is_exact_off_grid_for_band_limited_data():
    theta = grid(16)
    pts = np.array([0.25, 2.0, 4.4])
    u = np.sin(3 * theta) - 2.0 * np.cos(theta)
    expected = np.sin(3 * pts) - 2.0 * np.cos(pts)
    assert np.allclose(trig_interp(u, pts), expected, atol=1e-12)


def _interp_matrix_by_columns(points, n):
    # reference: the same recurrence written into strided columns of a
    # (P, n) array, one column per mode
    ee = np.empty((points.shape[0], n), dtype=complex)
    ee[:, 0] = 1.0
    base = np.exp(1j * points)
    for k in range(1, (n - 1) // 2 + 1):
        ee[:, k] = ee[:, k - 1] * base
        ee[:, n - k] = np.conj(ee[:, k])
    if n % 2 == 0:
        ee[:, n // 2] = np.cos(0.5 * n * points)
    return ee


@pytest.mark.parametrize("n", [2, 8, 9, 10, 64, 256])
def test_interp_matrix_equals_the_column_recurrence_bitwise(n):
    pts = np.random.default_rng(n).uniform(-1.0, 7.0, 13)
    ee = interp_matrix(pts, n)
    assert ee.shape == (13, n // 2 + 1)
    assert np.array_equal(ee, _interp_matrix_by_columns(pts, n)[:, : n // 2 + 1])


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("dim", [None, 3])
def test_trig_interp_with_half_matrix_matches_full_product(n, dim):
    rng = np.random.default_rng(7)
    shape = (n,) if dim is None else (n, dim)
    # random samples plus an explicit Nyquist mode (-1)^k on even grids
    u = rng.standard_normal(shape)
    if n % 2 == 0:
        u += (0.7 * np.cos(0.5 * n * grid(n))).reshape((n,) + (1,) * (u.ndim - 1))
    pts = rng.uniform(0.0, TWO_PI, 11)
    full = np.real(_interp_matrix_by_columns(pts, n) @ (np.fft.fft(u, axis=0) / n))
    assert interp_matrix(pts, n).shape == (11, n // 2 + 1)
    out = trig_interp(u, pts)
    assert out.shape == full.shape
    assert np.allclose(out, full, rtol=0.0, atol=1e-14)


def test_theta_antiderivative_returns_the_periodic_part():
    theta = grid(32)
    g = np.cos(theta) + 1.5
    periodic, mean = theta_antiderivative(g)
    assert mean == pytest.approx(1.5, abs=1e-13)
    assert np.allclose(periodic, np.sin(theta), atol=1e-12)
    assert periodic[0] == pytest.approx(0.0, abs=1e-13)
    # the periodic part plus the ramp is the full integral F
    assert np.allclose(periodic + mean * theta, np.sin(theta) + 1.5 * theta, atol=1e-12)


def complex_fft_antiderivative(g):
    """theta_antiderivative as written on complex transforms, the whole n-mode spectrum."""
    n = g.shape[-1]
    coef = np.fft.fft(g, axis=-1) / n
    mean = np.real(coef[..., 0])
    div = np.zeros(g.shape, dtype=complex)
    div[..., 1:] = coef[..., 1:] / (1j * modes(n)[1:])
    if n % 2 == 0:
        div[..., n // 2] = 0.0
    osc = np.real(np.fft.ifft(div * n, axis=-1))
    return osc - osc[..., :1], (float(mean) if g.ndim == 1 else mean)


def _phases(n):
    """e^(i m theta_k), rows m in modes(n) order, from the exact integer phases k*m mod n."""
    angle = (TWO_PI / n) * (np.outer(modes(n), np.arange(n)) % n)
    return np.cos(angle) + 1j * np.sin(angle)


ANTIDERIVATIVE_SHAPES = [(64,), (11, 64), (256,), (512,), (9,)]


def rebuilt_factor_antiderivative(g):
    """theta_antiderivative with its mode factor 1/(i m) rebuilt on every call."""
    n = g.shape[-1]
    coef = np.fft.rfft(g, axis=-1)
    mean = np.real(coef[..., 0]) / n
    factor = np.zeros(n // 2 + 1, dtype=complex)
    factor[1:] = -1j / np.arange(1, n // 2 + 1)
    if n % 2 == 0:
        factor[n // 2] = 0.0
    osc = np.fft.irfft(coef * factor, n, axis=-1)
    return osc - osc[..., :1], (float(mean) if g.ndim == 1 else mean)


@pytest.mark.parametrize("shape", ANTIDERIVATIVE_SHAPES)
def test_theta_antiderivative_with_a_cached_divisor_is_bitwise_unchanged(shape):
    # grids above 128 points keep the transform, bitwise; smaller grids take
    # the cached dense matrix of the same map, which reorders the rounding:
    # on these draws the periodic parts differ by at most 6.1e-16 of max|P|,
    # the means by at most 3.1e-16 relative
    g = 1.5 + np.random.default_rng(shape[-1]).standard_normal(shape)
    periodic, mean = theta_antiderivative(g)
    want_periodic, want_mean = rebuilt_factor_antiderivative(g)
    if shape[-1] > spectral._DENSE_MAX_N:
        assert np.array_equal(periodic, want_periodic)
        assert np.array_equal(mean, want_mean)
    else:
        assert np.max(np.abs(periodic - want_periodic)) <= 2.4e-15 * np.max(np.abs(want_periodic))
        assert np.max(np.abs(np.asarray(mean) - want_mean)) <= 3.3e-16 * np.max(np.abs(want_mean))
    assert type(mean) is type(want_mean)
    # a second call reads the same cached factor or matrix
    assert np.array_equal(theta_antiderivative(g)[0], periodic)


@pytest.mark.parametrize("n", [9, 64, 128])
def test_dense_antiderivative_maps_zero_to_exactly_zero(n):
    mat = spectral._antiderivative_matrix(n)
    assert mat.shape == (n + 1, n) and not mat.flags.writeable
    assert spectral._antiderivative_matrix(n) is mat
    for shape in [(n,), (3, n)]:
        periodic, mean = theta_antiderivative(np.zeros(shape))
        assert not np.any(periodic) and not np.any(mean)
    # and P[0] is exactly 0 on any field
    assert not np.any(theta_antiderivative(np.random.default_rng(n).standard_normal((3, n)))[0][:, 0])


@pytest.mark.parametrize("n", [64, 128])
def test_dense_antiderivative_gives_a_batch_member_what_it_gets_alone(n):
    g = 1.5 + np.random.default_rng(n).standard_normal((11, n))
    periodic, mean = theta_antiderivative(g)
    for i in range(len(g)):
        alone_periodic, alone_mean = theta_antiderivative(g[i])
        assert np.array_equal(periodic[i], alone_periodic)
        assert mean[i] == alone_mean


@pytest.mark.parametrize("shape", ANTIDERIVATIVE_SHAPES)
def test_theta_antiderivative_is_exact_on_trigonometric_polynomials(shape):
    # g = a_0 + sum_m a_m cos(m theta) + b_m sin(m theta) on every mode below
    # Nyquist, integrated term by term: P = sum_m (a_m sin(m theta) + b_m (1 - cos(m theta))) / m
    n = shape[-1]
    rng = np.random.default_rng(shape[-1])
    top = (n - 1) // 2
    a0 = 1.5 + rng.standard_normal(shape[:-1])
    a, b = rng.standard_normal((2,) + shape[:-1] + (top,)) / np.arange(1, top + 1)
    e = _phases(n)[1 : top + 1]
    g = a0[..., None] + a @ e.real + b @ e.imag
    want = (a / np.arange(1, top + 1)) @ e.imag + (b / np.arange(1, top + 1)) @ (1.0 - e.real)
    periodic, mean = theta_antiderivative(g)
    assert np.max(np.abs(periodic - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(mean - a0)) <= 1e-14 * np.max(np.abs(a0))
    assert type(mean) is (float if len(shape) == 1 else np.ndarray)


@pytest.mark.parametrize("shape", ANTIDERIVATIVE_SHAPES)
def test_theta_antiderivative_matches_the_complex_transform_to_rounding(shape):
    # the real transform (n > 128) and the dense product (n <= 128) reorder
    # the rounding of the complex transform: on these draws the periodic
    # parts differ by at most 5.0e-16 (|P| <= 1.05), the means by at most
    # one ulp
    g = 1.5 + np.random.default_rng(shape[-1]).standard_normal(shape)
    periodic, mean = theta_antiderivative(g)
    want_periodic, want_mean = complex_fft_antiderivative(g)
    eps = np.finfo(float).eps
    assert np.max(np.abs(periodic - want_periodic)) <= 10.0 * eps * np.max(np.abs(g))
    assert np.max(np.abs(np.asarray(mean) - want_mean)) <= 2.0 * eps * np.max(np.abs(want_mean))
    assert type(mean) is type(want_mean)


def _direct(u, axis, factor):
    """Direct DFT summation along `axis`: coefficients of modes(n) times factor, summed back."""
    n = u.shape[axis]
    e = _phases(n)
    coef = np.einsum("mk,...k->...m", e.conj(), np.moveaxis(u, axis, -1)) / n
    return np.moveaxis(np.real((coef * factor) @ e), -1, axis)


def transform_round_trip(u, axis, order, band):
    """The rfft/irfft round trip that grids above 128 points take."""
    n = u.shape[axis]
    coef = np.fft.rfft(u, axis=axis)
    coef *= spectral._mode_factor(n, order, band).reshape((-1,) + (1,) * (u.ndim - 1 - axis % u.ndim))
    return np.fft.irfft(coef, n, axis=axis)


# (order, band): derivatives of orders 1 to 3, dealias, and the dealiased derivative
ROUND_TRIPS = [(1, False), (2, False), (3, False), (0, True), (1, True)]


def _shapes(n, batch=5):
    """(shape, grid axis) of a field, a vector field, a batch of each."""
    return [((n,), 0), ((n, 2), 0), ((batch, n), 1), ((batch, n, 2), 1)]


@pytest.mark.parametrize("n", [8, 64, 128])
@pytest.mark.parametrize("order, band", ROUND_TRIPS)
def test_dense_round_trip_agrees_with_the_transform(n, order, band):
    rng = np.random.default_rng(n + 10 * order + band)
    mat = spectral._mode_matrix(n, order, band)
    assert mat.shape == (n, n) and not mat.flags.writeable
    assert spectral._mode_matrix(n, order, band) is mat
    for shape, axis in _shapes(n):
        u = rng.standard_normal(shape)
        got = spectral._multiply_modes(u, axis, order, band)
        want = transform_round_trip(u, axis, order, band)
        assert got.shape == u.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 64, 128])
@pytest.mark.parametrize("order, band", ROUND_TRIPS)
def test_dense_round_trip_gives_a_batch_member_what_it_gets_alone(n, order, band):
    rng = np.random.default_rng(n)
    for shape in [(11, n), (11, n, 2), (3, 4, n, 2)]:
        u = rng.standard_normal(shape)
        axis = len(shape) - (1 if len(shape) == 2 else 2)
        got = spectral._multiply_modes(u, axis, order, band)
        for i in np.ndindex(shape[: axis]):
            assert np.array_equal(got[i], spectral._multiply_modes(u[i], 0, order, band))


@pytest.mark.parametrize("n", [8, 64, 128, 130, 256])
def test_derivative_of_a_constant_is_exactly_zero(n):
    # both paths differentiate u - u[0]; the transform of a constant itself
    # leaves rounding in the nonzero modes (about 2e-16 at n = 130)
    rng = np.random.default_rng(n)
    for shape, axis in _shapes(n, batch=3):
        u = np.repeat(np.expand_dims(rng.standard_normal(shape[:axis] + shape[axis + 1 :]), axis), n, axis=axis)
        for order in (1, 2, 3):
            assert not np.any(spectral_derivative(u, order=order, axis=axis))
        assert not np.any(_dealiased_derivative(u, axis=axis))


def test_grids_above_128_points_keep_the_transform(count_calls):
    calls = count_calls(np.fft, "rfft")
    for n, transforms in ((128, 0), (130, 9)):
        rng = np.random.default_rng(n)
        fields = [(rng.standard_normal((n, 2)), 0), (rng.standard_normal((3, n, 2)), 1), (rng.standard_normal((3, n)), 1)]
        for _ in range(2):  # the first pass builds the cached matrices
            calls["rfft"] = 0
            for u, axis in fields:
                spectral_derivative(u, axis=axis), dealias(u, axis=axis), _dealiased_derivative(u, axis=axis)
        assert calls["rfft"] == transforms


if HAVE_HYPOTHESIS:

    @given(
        st.integers(min_value=8, max_value=130),
        st.sampled_from([0, 1]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_real_transforms_match_direct_summation(n, axis, order, seed):
        # odd and even n, fields along axis 0 ((n, 2)) and axis 1 ((2, n, 2),
        # or (2, n) for the antiderivative, which acts on the last axis)
        rng = np.random.default_rng(seed)
        m = modes(n).astype(float)
        u = rng.standard_normal((n, 2) if axis == 0 else (2, n, 2))
        size = np.max(np.abs(u))

        fac = (1j * m) ** order
        if order % 2 == 1 and n % 2 == 0:
            fac[n // 2] = 0.0
        bound = 1e-13 * size * (n / 2) ** order
        assert np.max(np.abs(spectral_derivative(u, order=order, axis=axis) - _direct(u, axis, fac))) <= bound

        keep = (np.abs(m) <= n // 3).astype(float)
        assert np.max(np.abs(dealias(u, axis=axis) - _direct(u, axis, keep))) <= 1e-13 * size

        g = u[..., 0]
        inv = np.zeros(n, dtype=complex)
        inv[1:] = 1.0 / (1j * m[1:])
        if n % 2 == 0:
            inv[n // 2] = 0.0
        want = _direct(g, -1, inv)
        periodic, mean = theta_antiderivative(g)
        assert np.max(np.abs(periodic - (want - want[..., :1]))) <= 1e-13 * size
        assert np.max(np.abs(mean - np.mean(g, axis=-1))) <= 1e-14 * size

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_derivative_inverts_antiderivative(seed):
        rng = np.random.default_rng(seed)
        theta = grid(32)
        g = np.zeros(32)
        for m in range(1, 5):
            g += rng.normal() * np.cos(m * theta) + rng.normal() * np.sin(m * theta)
        osc, mean = theta_antiderivative(g)
        assert np.allclose(spectral_derivative(osc) + mean, g, atol=1e-10)
