"""The Riemannian metric, the nonlocal coefficients w and w0, and the spray.

The metric is G_c(h, k) = int <A_c h, k> ds. Geodesics solve, in momentum
form with mu = A_c c_t,

    mu_t = -<D_s c_t, v> mu - <mu, D_s c_t> v - (w + w0) D_s v,

where w(theta) is the arc-length antiderivative of <A_c c_t, D_s c_t> (an
integrand with vanishing ds-mean) and w0 is the scalar

    w0 = int (1/2pi) <A_c c_t, psi_c D_s c_t> + 1/2 <(A_c/len + A_c') c_t, c_t> ds.

Both coefficients integrate the density g = <A_c c_t, D_s c_t> |c'| in theta,
and one theta_antiderivative of g serves both. It gives the periodic part P
(P[0] = 0) and the mean gbar of g, and

    w = P + gbar theta.

This is the arc-length antiderivative with the ds-mean f_bar of
f = <A_c c_t, D_s c_t> removed and added back as f_bar s(theta): P is
linear, P[|c'|] = p length/2pi by the definition of psi = theta + p,
s = psi length/2pi, and f_bar length/2pi = gbar. The removed ds-mean is
2pi gbar/length. The psi_c-weighted term of w0 is quadratured by the same
split psi = theta + p: the periodic part p integrates spectrally, and the
sawtooth part reduces with int_0^2pi theta (g - gbar) dtheta =
-int_0^2pi P dtheta. A plain trapezoid sum over the sawtooth would only be
second-order accurate and would poison every downstream tolerance.

momentum_rhs and the w/w0 plumbing under it also take a batch of curves
(make_curve on (B, N, d) samples) with (B, N, d) fields, and give each
member what it would get alone; w0 is then a (B,) array.

The public functions (metric, momentum_rhs, spray, w_field, w0_scalar)
check their fields once, at the boundary; momentum_rhs's check is what
stops an RK4 member whose velocity went nonfinite. Below it, _w_w0 and
the spray apply the operators through their core (operators._apply,
_derivative, _solve) and integrate with the unchecked ds-integral. The
MeanResidualWarning floor, two max-abs reductions, is taken only for the
members whose ds-mean already exceeds MEAN_RTOL times the scale, which
warns the same members.

The explicit spray adds the operator derivative term, the exact
derivative of the discrete A_c (operator_directional_derivative):

    S_c(h) = -A_c^{-1} { (D_{c,h} A_c) h + <D_s h, v> A_c h
                         + <A_c h, D_s h> v + (w + w0) D_s v }.
"""

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .curves import _check_vector, _ds_integral, _per_member, arc_derivative, ds_integral
from .errors import DomainError, GridError, MeanResidualWarning, NotSupportedError
from .operators import _apply, _core, _derivative, _solve, apply_conjugated
from .spectral import TWO_PI, spectral_derivative, theta_antiderivative
from .symbols import LAMBDA_RANGE, class_report

#: warn when the ds-mean removed from the w integrand exceeds this relative size
MEAN_RTOL = 1e-6


@dataclass(frozen=True)
class MetricConfig:
    """A symbol admitted as a metric.

    Construction runs a small class report over LAMBDA_RANGE and rejects
    symbols that fail the positivity or ellipticity verdicts there. Dynamics
    (exp_map, shooting) additionally require operator order 2r >= 2, which
    is checked by the solvers, not here.
    """

    symbol: object

    def __post_init__(self):
        if not self.symbol.has_derivative:
            warnings.warn(
                "symbol has no lambda-derivative; metric evaluation works, the spray will not",
                stacklevel=2,
            )
        report = class_report(self.symbol, LAMBDA_RANGE, m_max=64, alpha_max=2)
        if not (report.hermitian_ok and report.positive_ok and report.elliptic):
            raise DomainError(
                "symbol fails the metric admissibility verdicts: "
                f"hermitian={report.hermitian_ok} positive={report.positive_ok} "
                f"elliptic={report.elliptic} margin={report.margin:.3e}"
            )


def _dot(a, b):
    return np.einsum("...j,...j->...", a, b)


def metric(cfg, c, h, k):
    """G_c(h, k) = int <A_c h, k> ds."""
    h, k = _check_vector(c, h), _check_vector(c, k)
    return float(_ds_integral(c, _dot(_apply(_core(c), cfg.symbol, "identity", h), k)))


def metric_symmetric(cfg, c, h, k):
    """The square-root form int <B_c h, B_c k> ds; equals metric(cfg, c, h, k)."""
    bh = apply_conjugated(c, cfg.symbol, "sqrt", h)
    bk = apply_conjugated(c, cfg.symbol, "sqrt", k)
    return float(ds_integral(c, _dot(bh, bk)))


def wj_fields(c, h, n):
    """The closed-form fields W_0 .. W_n built from arc-length derivatives.

    W_0 = |h|^2 / 2 and, for j >= 1,
    W_j = 1/2 sum_{k=1}^{2j-1} (-1)^(k+1) <D_s^(2j-k) h, D_s^k h>,
    so that D_s W_j = <D_s^(2j) h, D_s h>.
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    h = np.asarray(h, dtype=float)
    powers = [h]
    for _ in range(max(0, 2 * n - 1)):
        powers.append(arc_derivative(c, powers[-1]))
    fields = [0.5 * _dot(h, h)]
    for j in range(1, n + 1):
        acc = np.zeros(c.n)
        for k in range(1, 2 * j):
            acc += (-1) ** (k + 1) * _dot(powers[2 * j - k], powers[k])
        fields.append(0.5 * acc)
    return fields


def _w_w0(cfg, c, h, ah=None, want_w0=True):
    """The nonlocal coefficients at (c, h) from one antiderivative of their density.

    h is a checked vector field (the public callers check it). Returns
    (ah, dsh, dsv, f, w, w0): ah = A_c h (computed unless given), dsh = D_s h
    and dsv = D_s v from one derivative of the stacked [h, v], the w
    integrand f = <ah, dsh>, w, and w0 (None unless want_w0). Both
    coefficients integrate g = f |c'|: with (P, gbar) its
    theta_antiderivative, w = P + gbar theta, and the sawtooth part of w0
    reads the mean of P and gbar. Warns once per member whose removed
    ds-mean 2 pi gbar / length is above MEAN_RTOL relative to the size of f.
    """
    if want_w0 and not cfg.symbol.has_derivative:
        raise NotSupportedError("w0 needs the symbol's lambda-derivative; supply a derivative table")
    core = _core(c)
    if ah is None:
        ah = _apply(core, cfg.symbol, "identity", h)
    v = c.unit_tangent
    d = spectral_derivative(np.concatenate([h, v], axis=-1), axis=c.samples.ndim - 2)
    d /= c.speed[..., None]
    dsh, dsv = d[..., : c.dim], d[..., c.dim :]
    f = _dot(ah, dsh)
    g = f * c.speed
    periodic, gbar = theta_antiderivative(g)
    w = periodic + _per_member(gbar) * c.theta
    mean = TWO_PI * gbar / c.length
    scale = np.maximum(np.abs(f).max(axis=-1), 1e-300)
    over = np.abs(mean) > MEAN_RTOL * scale
    if over.any():
        # the pairing can cancel to rounding pointwise (e.g. scaling
        # velocities on a circle), so the threshold also floors at the
        # roundoff level of the product's factors; only a member already
        # over MEAN_RTOL can be over both
        size = np.abs(ah).max(axis=(-2, -1)) * np.abs(dsh).max(axis=(-2, -1))
        # one warning per offending member, as if each ran alone
        for i in np.flatnonzero(over & (np.abs(mean) > 100.0 * np.finfo(float).eps * size)):
            warnings.warn(
                MeanResidualWarning(
                    f"w integrand has ds-mean {np.ravel(mean)[i]:.3e} against scale "
                    f"{np.ravel(scale)[i]:.3e}; the grid is too coarse for this symbol and field"
                ),
                stacklevel=3,
            )
    if not want_w0:
        return ah, dsh, dsv, f, w, None
    # int_0^2pi psi g dtheta with psi = theta + p: the sawtooth part is
    # int theta (g - gbar) dtheta + gbar 2 pi^2 = -int P dtheta + gbar 2 pi^2,
    # the periodic part a trapezoid sum (spectral here); the mean of P is
    # summed and divided as np.mean does it
    theta_term = -TWO_PI * (periodic.sum(axis=-1) / c.n) + gbar * 2.0 * np.pi ** 2
    p_term = TWO_PI / c.n * _dot(c.psi.displacement, g)
    term1 = (theta_term + p_term) / TWO_PI
    aph = _apply(core, cfg.symbol, "lambda_derivative", h)
    term2 = 0.5 * _ds_integral(c, _dot(ah / _per_member(c.length)[..., None] + aph, h))
    total = term1 + term2
    return ah, dsh, dsv, f, w, (total if c.batched else float(total))


def w_field(cfg, c, h):
    """w(theta) = int_0^theta <A_c h, D_s h> ds, the periodic transport coefficient.

    Warns with MeanResidualWarning when the removed ds-mean of the integrand
    is above MEAN_RTOL relative to the integrand size.
    """
    return _w_w0(cfg, c, _check_vector(c, h), want_w0=False)[4]


def w0_scalar(cfg, c, h, ah=None):
    """The scalar w0 entering the geodesic equation.

    Quadrature of (1/2pi) <A_c h, psi_c D_s h> + 1/2 <(A_c/len + A_c') h, h>
    against ds, with the sawtooth factor psi_c handled exactly. Requires the
    symbol's lambda-derivative. A precomputed A_c h may be passed as ah.
    Warns as w_field does: w0 integrates the same density.
    """
    return _w_w0(cfg, c, _check_vector(c, h), ah=ah)[5]


@dataclass(frozen=True)
class SprayBreakdown:
    """The four momentum-source terms of the spray, before -A_c^{-1}.

    Their sum equals -A_c applied to the spray output up to the roundtrip
    error of the conjugated inverse.
    """

    term_operator_derivative: np.ndarray
    term_dsh_v: np.ndarray
    term_transport: np.ndarray
    term_w_w0: np.ndarray
    w_field: np.ndarray
    w0: float

    def total(self):
        return (
            self.term_operator_derivative
            + self.term_dsh_v
            + self.term_transport
            + self.term_w_w0
        )

    def to_dict(self):
        return {k: np.asarray(v).tolist() for k, v in asdict(self).items()}

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def spray(cfg, c, h):
    """The geodesic spray S_c(h) and its term-by-term breakdown.

    The operator-derivative term is the exact derivative of the discrete
    A_c, but it costs about three operator applications; the momentum form
    (momentum_rhs) needs none and is what the integrator uses. A batch of
    curves, as momentum_rhs takes it, gives each member bitwise what it gets
    alone, and a breakdown whose fields (w0 too) lead with the batch axis.
    """
    h = _check_vector(c, h)
    ah, dsh, dsv, f, w, w0 = _w_w0(cfg, c, h)
    v = c.unit_tangent
    t_op = _derivative(c, h, cfg.symbol, h)
    t_dsh = _dot(dsh, v)[..., None] * ah
    t_transport = f[..., None] * v
    t_w = (w + _per_member(w0))[..., None] * dsv
    breakdown = SprayBreakdown(t_op, t_dsh, t_transport, t_w, w, w0)
    value = -_solve(_core(c), cfg.symbol, breakdown.total(), 2)
    return value, breakdown


def momentum_rhs(cfg, c, h, ah=None):
    """d/dt of the momentum mu = A_c c_t along the geodesic flow.

    Evaluates -<D_s h, v> A_c h - <A_c h, D_s h> v - (w + w0) D_s v at
    (c, h). No operator derivative enters. When mu is already known it can
    be passed as ah to save one operator application. On a batch of curves,
    every member is evaluated on its own.
    """
    ah, dsh, dsv, f, w, w0 = _w_w0(cfg, c, _check_vector(c, h), ah=ah)
    v = c.unit_tangent
    return -(
        _dot(dsh, v)[..., None] * ah
        + f[..., None] * v
        + (w + _per_member(w0))[..., None] * dsv
    )


def path_energy(cfg, path):
    """Trapezoidal time quadrature of 1/2 G_c(c_t, c_t) along a path.

    Velocities stored on the frames are used when present; otherwise c_t is
    recovered by second-order differences of the frame samples (one-sided at
    the ends), or by the first-order difference when there are 2 frames.
    """
    frames = path.frames
    if len(frames) < 2:
        raise GridError("path energy needs at least 2 frames")
    times = np.array([f.t for f in frames])
    if any(f.velocity is None for f in frames):
        stack = np.stack([f.curve.samples for f in frames])
        vels = np.gradient(stack, times, axis=0, edge_order=2 if len(frames) > 2 else 1)
        velocities = [vels[i] for i in range(len(frames))]
    else:
        velocities = [f.velocity for f in frames]
    # a copy of each frame's curve takes the band basis, which goes with it
    dens = np.array(
        [0.5 * metric(cfg, f.curve.uncached(), v, v) for f, v in zip(frames, velocities)]
    )
    dt = np.diff(times)
    return float(np.sum(0.5 * (dens[1:] + dens[:-1]) * dt))


def momentum_spray_residual(cfg, c, h):
    """Consistency of the two forms of the geodesic equation.

    Returns the relative size of A_c S_c(h) + (D_{c,h} A_c) h - momentum_rhs,
    which vanishes by the product rule (A_c c_t)_t = (D_{c,c_t}A_c) c_t +
    A_c c_tt. The derivative term cancels algebraically: A_c S_c(h) is
    A_c(-A_c^{-1} total) and momentum_rhs is -(total - derivative term), so
    this reads only solve_conjugated's defect on the spray's source total.
    tests/test_operators.py checks the derivative against finite differences.
    """
    value, breakdown = spray(cfg, c, h)
    lhs = apply_conjugated(c, cfg.symbol, "identity", value)
    rhs = momentum_rhs(cfg, c, h)
    resid = lhs + breakdown.term_operator_derivative - rhs
    scale = max(
        float(np.max(np.abs(lhs))),
        float(np.max(np.abs(rhs))),
        float(np.max(np.abs(breakdown.term_operator_derivative))),
        1e-300,
    )
    return float(np.max(np.abs(resid))) / scale


__all__ = [
    "MEAN_RTOL",
    "MetricConfig",
    "SprayBreakdown",
    "metric",
    "metric_symmetric",
    "momentum_rhs",
    "momentum_spray_residual",
    "path_energy",
    "spray",
    "w0_scalar",
    "w_field",
    "wj_fields",
]
