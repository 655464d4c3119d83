"""Tests for discrete curves, arc-length calculus, and reparametrization."""

import numpy as np
import pytest

from fracsob import curves, spectral
from fracsob.checks import random_curve_samples
from fracsob.curves import (
    Diffeo,
    antiderivative,
    arc_derivative,
    curve_from_dict,
    curve_to_dict,
    ds_integral,
    first_variations,
    make_curve,
    make_diffeo,
    read_samples,
    reparametrize,
    write_samples,
)
from fracsob.errors import DomainError, GridError, ImmersionError, ResolutionError
from fracsob.spectral import grid, interp_matrix, trig_interp

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

# adaptive-quadrature values for the ellipse (2 cos, 1.1 sin), frozen here so
# the tests do not depend on scipy being installed:
#   quad(lambda t: hypot(2 sin t, 1.1 cos t), 0, 2 pi)
ELLIPSE_LENGTH = 9.945258800884766
#   quad(|c|^2 |c'|) over one period
ELLIPSE_SECOND_MOMENT = 23.956267509094676
#   quad(|c'|) over [0, pi/2]
ELLIPSE_QUARTER_ARC = 2.4863147002211905


def ellipse(n):
    theta = grid(n)
    return np.column_stack([2.0 * np.cos(theta), 1.1 * np.sin(theta)])


def circle_samples(n):
    theta = grid(n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def test_length_matches_adaptive_quadrature():
    c = make_curve(ellipse(256))
    assert c.length == pytest.approx(ELLIPSE_LENGTH, rel=1e-13)


def test_length_converges_spectrally():
    errs = [abs(make_curve(ellipse(n)).length - ELLIPSE_LENGTH) for n in (16, 32, 64)]
    assert errs[1] < 1e-2 * errs[0]
    assert errs[2] < 1e-12


def test_ds_integral_matches_adaptive_quadrature():
    c = make_curve(ellipse(256))
    val = ds_integral(c, np.sum(c.samples**2, axis=1))
    assert val == pytest.approx(ELLIPSE_SECOND_MOMENT, rel=1e-12)


def test_arclength_at_quarter_period():
    c = make_curve(ellipse(256))
    assert c.arclength[0] == 0.0
    assert c.arclength[64] == pytest.approx(ELLIPSE_QUARTER_ARC, rel=1e-12)
    # psi is the arc-length parameter rescaled to [0, 2 pi)
    assert np.allclose(c.psi_values, c.arclength * (2.0 * np.pi / c.length), atol=1e-12)


def test_unit_tangent_has_unit_norm():
    c = make_curve(ellipse(128))
    assert np.allclose(np.linalg.norm(c.unit_tangent, axis=1), 1.0, atol=1e-12)


def test_arc_derivative_of_curve_is_unit_tangent():
    c = make_curve(ellipse(128))
    assert np.allclose(arc_derivative(c, c.samples), c.unit_tangent, atol=1e-10)


def test_make_curve_rejects_degenerate_speed():
    theta = grid(64)
    flat = np.column_stack([np.cos(theta), np.zeros(64)])
    with pytest.raises(ImmersionError):
        make_curve(flat)


def test_make_curve_rejects_bad_grids():
    with pytest.raises(GridError):
        make_curve(ellipse(64)[:, 0])  # not (N, d)
    with pytest.raises(GridError):
        make_curve(ellipse(64)[:63])  # odd N
    with pytest.raises(GridError):
        make_curve(ellipse(6))  # too few samples
    bad = ellipse(64)
    bad[3, 1] = np.nan
    with pytest.raises(GridError):
        make_curve(bad)


def test_curve_arrays_are_frozen(circle64):
    c = make_curve(circle64)
    with pytest.raises(ValueError):
        c.samples[0, 0] = 5.0


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("read_only_view", [False, True])
def test_make_curve_leaves_the_callers_array_writeable_and_unshared(circle64, batch, read_only_view):
    x = np.array(np.stack([circle64, 1.1 * circle64]) if batch else circle64)
    kept = x.copy()
    given = x
    if read_only_view:
        # read-only, but the caller still writes its base
        given = x.view()
        given.setflags(write=False)
    c = make_curve(given)
    assert x.flags.writeable
    assert not np.may_share_memory(c.samples, x)
    x[..., 0, 0] = 5.0
    assert np.array_equal(c.samples, kept)
    # the copy changes no figure of the curve
    again = make_curve(kept)
    assert np.array_equal(c.speed, again.speed) and np.array_equal(c.psi.displacement, again.psi.displacement)


def test_make_diffeo_leaves_the_callers_array_writeable_and_unshared():
    p = 0.1 * np.sin(grid(16))
    kept = p.copy()
    phi = make_diffeo(p)
    assert p.flags.writeable
    p[0] = 5.0
    assert np.array_equal(phi.displacement, kept)


def test_diffeo_identity_and_inverse():
    ident = Diffeo.identity(32)
    assert ident.is_identity
    assert np.allclose(ident.forward_points, grid(32))
    theta = grid(32)
    dif = make_diffeo(0.2 * np.sin(theta))
    assert not dif.is_identity
    inv = dif.inverse()
    assert np.allclose(inv.displacement, dif.inverse_displacement)
    # forward then inverse displacement composes to the identity map
    back = reparametrize(reparametrize(np.cos(theta), dif), inv)
    assert np.allclose(back, np.cos(theta), atol=1e-9)


@pytest.mark.parametrize("samples", [ellipse(128), circle_samples(64)], ids=["ellipse", "circle"])
def test_inverse_points_builds_one_matrix_per_newton_iterate(monkeypatch, samples):
    built = []

    def counting(points, n):
        built.append(np.array(points))
        return interp_matrix(points, n)

    monkeypatch.setattr(spectral, "interp_matrix", counting)
    c = make_curve(samples)
    assert built == []
    inverse = c.psi.inverse_points
    p = c.psi.displacement
    # the first iterate is the first-order inverse theta - p, taken from the
    # nodal samples without a build; every build is one iterate, and only
    # the last one meets the tolerance
    assert np.array_equal(built[0], c.theta - p)
    # a copy: the trig_interp calls below append to built as well
    iterates = list(built)
    residuals = [np.max(np.abs(x + trig_interp(p, x) - c.theta)) for x in iterates]
    assert all(r >= curves.INVERSE_TOL for r in residuals[:-1])
    assert residuals[-1] < curves.INVERSE_TOL
    assert np.allclose(iterates[-1], inverse, rtol=0.0, atol=1e-13)


def test_diffeo_solves_its_inverse_once_and_the_inverse_shares_it(monkeypatch):
    solves = []
    invert = curves._invert_monotone

    def counting(displacement, **kwargs):
        solves.append(displacement)
        return invert(displacement, **kwargs)

    monkeypatch.setattr(curves, "_invert_monotone", counting)
    psi = make_curve(ellipse(128)).psi
    assert solves == []
    points = psi.inverse_points
    inv = psi.inverse()
    assert len(solves) == 1
    assert inv.inverse_displacement is psi.displacement
    assert inv.displacement is psi.inverse_displacement
    assert np.array_equal(inv.forward_points, points)
    with pytest.raises(ValueError):
        psi.inverse_displacement[0] = 0.0


@pytest.mark.parametrize("b, n", [(3, 64), (8, 8)])
def test_a_batch_of_diffeomorphisms_refuses_the_inverse_and_reparametrize(b, n):
    theta = grid(n)
    psi = make_diffeo(np.stack([0.1 * (i + 1) / b * np.sin(theta) for i in range(b)]))
    for ask in (lambda: psi.inverse_displacement, lambda: psi.inverse_points, psi.inverse,
                lambda: reparametrize(np.cos(theta), psi)):
        with pytest.raises(GridError, match="single diffeomorphism"):
            ask()


def long_double_band_basis(displacement):
    """[Re E, -Im E] of E_km = e^(i m psi(theta_k)) in long double, from the exact integer grid phase."""
    n = displacement.shape[-1]
    m = np.arange(n // 3 + 1)
    two_pi = 2 * np.arccos(np.longdouble(-1))
    phase = displacement.astype(np.longdouble)[..., None] * m + two_pi / n * (np.outer(np.arange(n), m) % n)
    return np.concatenate([np.cos(phase), -np.sin(phase)], axis=-1)


def bent_samples(n, seeds=range(4)):
    return np.stack([random_curve_samples(np.random.default_rng(s), n=n, amplitude=0.15) for s in seeds])


@pytest.mark.parametrize("n", [64, 256, 512])
def test_band_basis_matches_an_extended_precision_reference(n):
    """Worst entry over seeds 0-3 when the phase m p_k went through cos and sin
    directly: 7.55e-16, 1.40e-15 and 2.43e-15 at N = 64, 256 and 512, single
    and batched alike. The two-level product reads 7.64e-16, 1.30e-15 and
    2.20e-15."""
    samples = bent_samples(n)
    batch = make_curve(samples)
    for c in [make_curve(s) for s in samples] + [batch]:
        basis = c.psi.band_basis
        assert basis.shape == c.psi.displacement.shape + (2 * (n // 3 + 1),)
        assert np.max(np.abs(basis - long_double_band_basis(c.psi.displacement))) <= 4e-15


def test_band_basis_takes_o_n_to_the_1_5_cos_and_sin(monkeypatch):
    n = 512
    top = n // 3 + 1
    L = int(np.ceil(np.sqrt(top)))
    p = make_curve(bent_samples(n, seeds=[0])[0]).psi.displacement
    Diffeo(p).band_basis  # fills the per-N grid-phase table
    counted = []

    def counting(ufunc):
        def call(x, *args, **kwargs):
            counted.append(np.size(x))
            return ufunc(x, *args, **kwargs)

        return call

    monkeypatch.setattr(np, "cos", counting(np.cos))
    monkeypatch.setattr(np, "sin", counting(np.sin))
    Diffeo(p).band_basis
    # against 2 N top = 175,104 when every phase m p_k went through cos and sin
    assert 0 < sum(counted) <= 4 * L * n


@pytest.mark.parametrize("n", [64, 512])
def test_band_basis_of_a_batch_member_is_bitwise_its_own(n):
    batch = make_curve(bent_samples(n))
    batch.psi.band_basis
    for i in range(batch.samples.shape[0]):
        alone = Diffeo(batch.psi.displacement[i]).band_basis
        member = batch.member(i)
        # the member takes none of the batch's caches: it builds its own basis
        assert "band_basis" not in vars(member.psi)
        assert np.array_equal(batch.psi.band_basis[i], alone)
        assert np.array_equal(member.psi.band_basis, alone)
        assert not np.shares_memory(member.psi.band_basis, batch.psi.band_basis)
    assert not batch.psi.band_basis.flags.writeable
    assert not batch.member(0).psi.band_basis.flags.writeable


def test_make_diffeo_rejects_orientation_reversal():
    theta = grid(32)
    with pytest.raises(DomainError):
        make_diffeo(1.2 * np.sin(theta))


def test_make_diffeo_rejects_tiny_grids():
    with pytest.raises(GridError):
        make_diffeo(np.zeros(4))


@pytest.mark.parametrize("n", [64, 256])
def test_psi_slope_from_the_speed_matches_the_spectral_derivative(n):
    # make_curve reads psi' off the speed; make_diffeo differentiates p
    rng = np.random.default_rng(n)
    for _ in range(5):
        c = make_curve(random_curve_samples(rng, n=n, amplitude=0.10))
        slope = curves._psi_slope(c.speed, spectral.theta_antiderivative(c.speed)[1])
        want = 1.0 + spectral.spectral_derivative(c.psi.displacement)
        assert np.max(np.abs(slope - want)) <= 1e-13
    batch = make_curve(np.stack([random_curve_samples(rng, n=n, amplitude=0.10) for _ in range(3)]))
    slope = curves._psi_slope(batch.speed, spectral.theta_antiderivative(batch.speed)[1])
    want = 1.0 + spectral.spectral_derivative(batch.psi.displacement, axis=-1)
    assert np.max(np.abs(slope - want)) <= 1e-13


def test_an_unresolved_speed_raises_the_resolution_error_of_make_diffeo(monkeypatch):
    # the circle squeezed along x: the geodesic reaches a curve whose
    # sampled speed gives an arc-length map that turns back on the grid;
    # the check from the speed reports it with make_diffeo's message
    from fracsob import solvers
    from fracsob.metric import MetricConfig
    from fracsob.symbols import bessel_fractional

    seen = []

    def recording(samples):
        seen.append(np.array(samples))
        return make_curve(samples)

    monkeypatch.setattr(solvers, "make_curve", recording)
    theta = grid(64)
    h0 = np.column_stack([-3.0 * np.cos(theta), np.zeros(64)])
    c0 = make_curve(np.column_stack([np.cos(theta), np.sin(theta)]))
    with pytest.raises(ResolutionError):
        solvers.exp_map(MetricConfig(bessel_fractional(1.5)), c0, h0, T=1.0, steps=16, stride=16)
    samples = seen[-1]
    speed = np.linalg.norm(spectral._dealiased_derivative(samples), axis=-1)
    assert speed.min() > curves.IMMERSION_RTOL * speed.max()
    osc, mean = spectral.theta_antiderivative(speed)
    with pytest.raises(DomainError) as reference:
        make_diffeo(osc / mean)
    with pytest.raises(ResolutionError) as err:
        make_curve(samples)
    assert str(err.value) == f"the grid does not resolve the speed: {reference.value}"


def test_reparametrize_identity_is_a_no_op():
    theta = grid(16)
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    assert np.array_equal(reparametrize(u, Diffeo.identity(16)), u)


def test_reparametrize_rejects_grid_mismatch():
    dif = Diffeo.identity(16)
    with pytest.raises(GridError):
        reparametrize(np.zeros(32), dif)


def test_constant_speed_resampling_through_psi():
    # sampling c at the inverse arc-length parameter yields constant speed
    from fracsob.spectral import trig_interp

    c = make_curve(ellipse(128))
    dif = make_diffeo(c.psi_values - c.theta)
    resampled = trig_interp(c.samples, dif.inverse_points)
    cc = make_curve(resampled)
    assert np.max(np.abs(cc.speed - cc.length / (2.0 * np.pi))) < 1e-6
    assert cc.length == pytest.approx(c.length, rel=1e-10)


def test_antiderivative_recovers_integrand():
    c = make_curve(ellipse(128))
    f = np.cos(2 * c.theta) * c.speed  # generic smooth scalar field
    f = f - ds_integral(c, f) / c.length  # zero ds-mean keeps F periodic
    big_f, mean = antiderivative(c, f)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(arc_derivative(c, big_f), f, atol=1e-9)
    assert big_f[0] == pytest.approx(0.0, abs=1e-12)


def test_antiderivative_reports_ds_mean():
    c = make_curve(ellipse(64))
    f = np.full(64, 3.0)
    big_f, mean = antiderivative(c, f)
    assert mean == pytest.approx(3.0, abs=1e-12)
    # F(theta) = 3 s(theta) for a constant integrand
    assert np.allclose(big_f, 3.0 * c.arclength, atol=1e-10)
    with pytest.raises(GridError):
        antiderivative(c, np.zeros((64, 2)))


def test_first_variations_match_finite_differences():
    c = make_curve(ellipse(128))
    theta = c.theta
    h = np.column_stack([0.3 * np.sin(2 * theta), 0.2 * np.cos(theta)])
    dlen, dpsi = first_variations(c, h)
    eps = 1e-5
    cp = make_curve(c.samples + eps * h)
    cm = make_curve(c.samples - eps * h)
    assert dlen == pytest.approx((cp.length - cm.length) / (2 * eps), abs=1e-7)
    fd_psi = (cp.psi_values - cm.psi_values) / (2 * eps)
    assert np.max(np.abs(dpsi - fd_psi)) < 1e-6


def test_first_variations_filter_the_direction_as_make_curve_does():
    # modes 25 and 27 lie above the two-thirds cutoff 21 of N = 64, so
    # make_curve drops them from the derivative of c + eps h
    c = make_curve(random_curve_samples(np.random.default_rng(0), n=64))
    theta = c.theta
    h = np.column_stack([0.3 * np.cos(25 * theta) + 0.1 * np.sin(2 * theta), 0.2 * np.sin(27 * theta)])
    dlen, dpsi = first_variations(c, h)
    eps = 1e-6
    cp = make_curve(c.samples + eps * h)
    cm = make_curve(c.samples - eps * h)
    assert abs(dlen - (cp.length - cm.length) / (2 * eps)) < 1e-9
    assert np.max(np.abs(dpsi - (cp.psi_values - cm.psi_values) / (2 * eps))) < 1e-9


def test_first_variations_of_a_batch_match_its_members():
    rng = np.random.default_rng(4)
    samples = np.stack([random_curve_samples(rng, n=64) for _ in range(3)])
    hs = np.stack([random_curve_samples(rng, n=64) - samples[0] for _ in range(3)])
    dlen, dpsi = first_variations(make_curve(samples), hs)
    assert dlen.shape == (3,) and dpsi.shape == (3, 64)
    for i in range(3):
        alone_len, alone_psi = first_variations(make_curve(samples[i]), hs[i])
        assert abs(dlen[i] - alone_len) <= 1e-13 * abs(alone_len)
        assert np.max(np.abs(dpsi[i] - alone_psi)) <= 1e-13 * np.max(np.abs(alone_psi))


def test_first_variations_refuse_a_scalar_direction():
    c = make_curve(ellipse(64))
    with pytest.raises(GridError, match="direction shape"):
        first_variations(c, np.ones(64))


def test_curve_dict_roundtrip_is_bit_exact(circle64):
    payload = curve_to_dict(circle64)
    assert payload["d"] == 2
    assert np.array_equal(curve_from_dict(payload), circle64)


def test_curve_from_dict_rejects_malformed_payload():
    with pytest.raises(GridError):
        curve_from_dict({"d": 2})
    with pytest.raises(GridError):
        curve_from_dict({"d": 3, "samples": [[0.0, 0.0]] * 16})


@pytest.mark.parametrize("payload, message", [
    ({"d": 2.7}, "key d must be an integer, got 2.7"),
    ({"d": "2"}, "key d must be an integer, got '2'"),
    ({"d": True}, "key d must be an integer, got True"),
    ({"samples": [["1", "2"]] * 16}, "samples must be numbers, got '1'"),
    ({"samples": [[True, 0.5]] * 16}, "samples must be numbers, got True"),
    ({"samples": [[0.5, None]] * 16}, "samples must be numbers, got None"),
])
def test_curve_from_dict_refuses_values_that_are_not_json_numbers(payload, message):
    # float() would read the string "1" and the boolean true as numbers,
    # and int() would truncate a d of 2.7
    full = {"d": 2, "samples": [[1.0, 0.0]] * 16, **payload}
    with pytest.raises(GridError, match=message):
        curve_from_dict(full)


def test_curve_from_dict_reads_an_integral_float_d_and_integer_samples(circle64):
    payload = curve_to_dict(circle64)
    assert np.array_equal(curve_from_dict({**payload, "d": 2.0}), circle64)
    ints = curve_from_dict({"d": 2, "samples": [[1, 0], [0, 1]] * 8})
    assert ints.dtype == float and np.array_equal(ints, [[1.0, 0.0], [0.0, 1.0]] * 8)


def test_samples_file_roundtrip(tmp_path, circle64):
    target = tmp_path / "curve.json"
    write_samples(target, circle64)
    back = read_samples(target)
    assert np.array_equal(back, circle64)


if HAVE_HYPOTHESIS:

    @given(
        st.lists(st.floats(min_value=-0.15, max_value=0.15), min_size=2, max_size=4),
        st.lists(st.floats(min_value=-0.15, max_value=0.15), min_size=2, max_size=4),
    )
    def test_diffeo_roundtrip_property(a, b):
        theta = grid(64)
        disp = np.zeros(64)
        for m, (ca, cb) in enumerate(zip(a, b), start=1):
            disp += ca * np.sin(m * theta) + cb * np.cos(m * theta)
        slope = sum(m * (abs(ca) + abs(cb)) for m, (ca, cb) in enumerate(zip(a, b), start=1))
        if slope >= 0.95:
            return  # orientation could flip; rejected by construction elsewhere
        dif = make_diffeo(disp)
        u = np.sin(theta) + 0.5 * np.cos(2 * theta)
        back = reparametrize(reparametrize(u, dif), dif.inverse())
        assert np.max(np.abs(back - u)) < 1e-8


def test_ds_integral_of_a_single_field_is_bitwise_its_batch_of_one_value():
    # one einsum reduces every field, so a batched spray member gets its own value
    rng = np.random.default_rng(3)
    c = make_curve(random_curve_samples(rng, n=512, amplitude=0.10))
    one = make_curve(c.samples[None])
    for _ in range(5):
        f = rng.standard_normal(512)
        value = ds_integral(c, f)
        assert isinstance(value, float) and value == ds_integral(one, f[None])[0]
    g = rng.standard_normal((512, 2))
    assert np.array_equal(ds_integral(c, g), ds_integral(one, g[None])[0])
