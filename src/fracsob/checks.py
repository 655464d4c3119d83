"""Runnable invariant battery behind `fracsob check`.

Each line measures one structural identity of the library on seeded random
data and compares it against a fixed tolerance. The battery is deliberately
redundant with the unit tests: it runs against a user-supplied metric
configuration, so it can vet configurations the test suite never saw.
"""

import json
from dataclasses import dataclass

import numpy as np

from .curves import arc_derivative, ds_integral, make_curve, make_diffeo, reparametrize
from .errors import NoConvergenceError
from .metric import (
    MetricConfig,
    metric,
    metric_symmetric,
    momentum_spray_residual,
    spray,
    w0_scalar,
    w_field,
    wj_fields,
)
from .operators import apply_conjugated
from .solvers import _geodesics, conservation_report, exp_map, exp_map_spray, geodesic_bvp
from .spectral import grid
from .symbols import LAMBDA_RANGE, class_report, constant_coefficient, scale_invariant


@dataclass(frozen=True)
class CheckResult:
    """One pass/fail line: a measured residual against its tolerance.

    passed is None when the line is skipped (not applicable to the given
    configuration); skipped lines do not fail the battery.
    """

    name: str
    passed: object
    measured: float = float("nan")
    tol: float = float("nan")
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": None if np.isnan(self.measured) else self.measured,
            "tol": None if np.isnan(self.tol) else self.tol,
            "detail": self.detail,
        }

    def format_line(self):
        mark = "SKIP" if self.passed is None else ("PASS" if self.passed else "FAIL")
        body = f"{mark:4s} {self.name:40s}"
        if not np.isnan(self.measured):
            body += f" measured={self.measured:#.3e}"
        if not np.isnan(self.tol):
            body += f" tol={self.tol:#.1e}"
        if self.detail:
            body += f"  ({self.detail})"
        return body


def random_curve_samples(rng, n=64, dim=2, modes=4, amplitude=0.12):
    """A smooth immersed closed curve: a circle plus band-limited noise."""
    theta = grid(n)
    samples = np.zeros((n, dim))
    samples[:, 0] = np.cos(theta)
    samples[:, 1] = np.sin(theta)
    for j in range(dim):
        for k in range(1, modes + 1):
            a, b = amplitude * rng.standard_normal(2) / (1 + k) ** 2
            samples[:, j] += a * np.cos(k * theta) + b * np.sin(k * theta)
    return samples


def random_field(rng, n, dim=2, modes=4, amplitude=1.0):
    """A band-limited random tangent field, constant mode included."""
    theta = grid(n)
    u = np.zeros((n, dim))
    for j in range(dim):
        u[:, j] = amplitude * rng.standard_normal() / 2.0
        for k in range(1, modes + 1):
            a, b = amplitude * rng.standard_normal(2) / (1 + k) ** 2
            u[:, j] += a * np.cos(k * theta) + b * np.sin(k * theta)
    return u


def _bound(name, measured, tol, detail=""):
    """The line `name`: passes when measured <= tol."""
    return CheckResult(name, measured <= tol, measured=measured, tol=tol, detail=detail)


def _rel(err, scale):
    return float(err) / max(float(scale), 1e-300)


def _max_norm(u):
    return float(np.max(np.abs(u)))


def _roll_samples(u, k):
    return np.roll(np.asarray(u), k, axis=0)


def run_all(symbol, n=256, seed=0, with_flow=True):
    """Run the whole battery for one symbol; returns (results, extras).

    extras carries the admissibility report, the seed, and a spray term
    breakdown for dump purposes. When the symbol fails admissibility the
    battery stops after the symbol lines. The default grid is 256 because
    the tightest operator identities (square-root factorization, arc-length
    commutation) only reach their tolerances once the conjugation chain is
    that well resolved; the flow checks run on their own coarser grid.
    """
    rng = np.random.default_rng(seed)
    results = []
    extras = {"seed": int(seed), "n": int(n)}

    report = class_report(symbol, LAMBDA_RANGE, m_max=128, alpha_max=3)
    report_fine = class_report(symbol, LAMBDA_RANGE, m_max=256, alpha_max=3)
    extras["class_report"] = report.to_dict()
    results.append(CheckResult("symbol_hermitian", report.hermitian_ok))
    results.append(
        CheckResult("symbol_positive_definite", report.positive_ok, measured=report.margin)
    )
    results.append(
        CheckResult("symbol_elliptic", report.elliptic, measured=report.margin, tol=0.0,
                    detail="margin must stay positive")
    )
    coarse = np.array(report.seminorms, dtype=float)
    fine = np.array(report_fine.seminorms, dtype=float)
    stability = _rel(np.max(np.abs(fine - coarse)), np.max(np.abs(coarse)))
    results.append(
        _bound("symbol_seminorms_stable", stability, 0.05, "mode-range doubling 128 -> 256")
    )
    if not (report.hermitian_ok and report.positive_ok and report.elliptic):
        results.append(
            CheckResult("metric_admissible", False,
                        detail="symbol fails admissibility; remaining lines not run")
        )
        return results, extras

    cfg = MetricConfig(symbol)
    c = make_curve(random_curve_samples(rng, n=n))
    h = random_field(rng, n)
    k = random_field(rng, n)

    psi_inv = c.psi.inverse()
    back = reparametrize(reparametrize(h[:, 0], c.psi), psi_inv)
    back_rel = _rel(_max_norm(back - h[:, 0]), _max_norm(h))
    results.append(_bound("curve_reparam_roundtrip", back_rel, 1e-10))

    flat = make_curve(reparametrize(c.samples, psi_inv))
    speed_var = _rel(np.max(flat.speed) - np.min(flat.speed), np.mean(flat.speed))
    results.append(_bound("curve_constant_speed_reparam", speed_var, 1e-6))

    ah = apply_conjugated(c, symbol, "identity", h)
    ak = apply_conjugated(c, symbol, "identity", k)
    sym_gap = abs(ds_integral(c, np.einsum("ij,ij->i", ah, k))
                  - ds_integral(c, np.einsum("ij,ij->i", h, ak)))
    sym_scale = np.sqrt(ds_integral(c, np.einsum("ij,ij->i", h, h))
                        * ds_integral(c, np.einsum("ij,ij->i", k, k)))
    results.append(_bound("operator_symmetry", _rel(sym_gap, sym_scale), 1e-10))

    ds_ah = arc_derivative(c, ah)
    comm = apply_conjugated(c, symbol, "identity", arc_derivative(c, h)) - ds_ah
    comm_rel = _rel(_max_norm(comm), _max_norm(ds_ah))
    results.append(_bound("operator_commutes_arc_derivative", comm_rel, 1e-8))

    round_trip = apply_conjugated(c, symbol, "inverse", ah)
    rt_rel = _rel(_max_norm(round_trip - h), _max_norm(h))
    results.append(_bound("operator_inverse_roundtrip", rt_rel, 1e-9))

    bbh = apply_conjugated(c, symbol, "sqrt", apply_conjugated(c, symbol, "sqrt", h))
    sqrt_rel = _rel(_max_norm(bbh - ah), _max_norm(ah))
    results.append(_bound("operator_sqrt_factorization", sqrt_rel, 1e-10))

    shift = c.n // 4
    rolled = make_curve(_roll_samples(c.samples, shift))
    equiv = apply_conjugated(rolled, symbol, "identity", _roll_samples(h, shift))
    equiv_rel = _rel(_max_norm(equiv - _roll_samples(ah, shift)), _max_norm(ah))
    results.append(_bound("operator_rotation_equivariance", equiv_rel, 1e-10))

    g_plain = metric(cfg, c, h, k)
    g_sym = metric_symmetric(cfg, c, h, k)
    form_rel = _rel(abs(g_plain - g_sym), abs(g_plain))
    results.append(_bound("metric_symmetric_form", form_rel, 1e-10))

    g_roll = metric(cfg, rolled, _roll_samples(h, shift), _roll_samples(k, shift))
    roll_rel = _rel(abs(g_roll - g_plain), abs(g_plain))
    results.append(_bound("metric_rotation_invariance", roll_rel, 1e-10))

    theta = grid(n)
    phi = make_diffeo(0.12 * np.sin(theta) + 0.05 * np.cos(2 * theta))
    c_phi = make_curve(
        np.column_stack([reparametrize(c.samples[:, j], phi) for j in range(c.dim)])
    )
    h_phi = np.column_stack([reparametrize(h[:, j], phi) for j in range(c.dim)])
    k_phi = np.column_stack([reparametrize(k[:, j], phi) for j in range(c.dim)])
    g_phi = metric(cfg, c_phi, h_phi, k_phi)
    reparam_rel = _rel(abs(g_phi - g_plain), abs(g_plain))
    results.append(_bound("metric_reparam_invariance", reparam_rel, 1e-8))

    scale_sym = scale_invariant((1.0, 1.0))
    scale_cfg = MetricConfig(scale_sym)
    g_base = metric(scale_cfg, c, h, k)
    worst_scale = 0.0
    for lam_factor in (0.5, 2.0, 5.0):
        c_s = make_curve(lam_factor * c.samples)
        g_s = metric(scale_cfg, c_s, lam_factor * h, lam_factor * k)
        worst_scale = max(worst_scale, _rel(abs(g_s - g_base), abs(g_base)))
    results.append(
        _bound("metric_scale_invariance", worst_scale, 1e-9, "fixed scale-invariant n=1 family")
    )

    oracle_sym = constant_coefficient((1.0, 1.0))
    oracle_cfg = MetricConfig(oracle_sym)
    w = w_field(oracle_cfg, c, h)
    w0 = w0_scalar(oracle_cfg, c, h)
    fields = wj_fields(c, h, 1)
    closed = sum((-1) ** j * fields[j] for j in range(2))
    oracle_rel = _rel(_max_norm(w + w0 - closed), _max_norm(closed))
    results.append(
        _bound("integer_closed_form_w_w0", oracle_rel, 1e-8, "fixed n=1 constant-coefficient family")
    )

    dsh = arc_derivative(c, h)
    integrand = np.einsum("ij,ij->i", ah, dsh)
    mean_rel = _rel(abs(ds_integral(c, integrand)) / c.length, _max_norm(integrand))
    results.append(_bound("w_integrand_mean_zero", mean_rel, 1e-10))

    w_cfg = w_field(cfg, c, h)
    lhs = w0_scalar(cfg, c, h) - 0.5 * ds_integral(
        c,
        np.einsum(
            "ij,ij->i",
            ah / c.length + apply_conjugated(c, symbol, "lambda_derivative", h),
            h,
        ),
    )
    rhs = -ds_integral(c, w_cfg) / c.length
    byparts_rel = _rel(abs(lhs - rhs), max(abs(lhs), abs(rhs)))
    results.append(_bound("w0_by_parts_identity", byparts_rel, 1e-9))

    s1, breakdown = spray(cfg, c, h)
    s2, _ = spray(cfg, c, 2.0 * h)
    s3, _ = spray(cfg, c, -h)
    homog = max(
        _rel(_max_norm(s2 - 4.0 * s1), _max_norm(s2)),
        _rel(_max_norm(s3 - s1), _max_norm(s1)),
    )
    results.append(_bound("spray_quadratic_homogeneity", homog, 1e-8))
    results.append(_bound("spray_momentum_consistency", momentum_spray_residual(cfg, c, h), 1e-8))
    extras["spray_breakdown"] = breakdown.to_dict()

    if not with_flow:
        return results, extras
    if symbol.order < 1:
        results.append(
            CheckResult("flow_energy_drift", None,
                        detail="operator order below 2; dynamics not available")
        )
        return results, extras

    n_flow = 64
    rng_flow = np.random.default_rng(seed + 1)
    c0 = make_curve(random_curve_samples(rng_flow, n=n_flow))
    h0 = 0.4 * random_field(rng_flow, n_flow)
    shift = n_flow // 4
    # the path and its rotated copy integrate as one batch; each member
    # goes through the stages it would go through alone
    pair = make_curve(np.stack([c0.samples, _roll_samples(c0.samples, shift)]))
    path, rolled_path = _geodesics(
        cfg, pair, np.stack([h0, _roll_samples(h0, shift)]), T=0.5, steps=64, stride=8
    )
    rep = conservation_report(path)
    results.append(_bound("flow_energy_drift", rep.energy_drift, 1e-6))
    results.append(_bound("flow_momentum_consistency", rep.momentum_consistency, 1e-8))

    end = path.frames[-1]
    returned = exp_map(cfg, end.curve, -end.velocity, T=0.5, steps=64, stride=64)
    rev = _rel(_max_norm(returned.endpoint.samples - c0.samples), _max_norm(c0.samples))
    results.append(_bound("flow_time_reversal", rev, 1e-6))

    equiv_flow = _rel(
        _max_norm(rolled_path.endpoint.samples - _roll_samples(path.endpoint.samples, shift)),
        _max_norm(path.endpoint.samples),
    )
    results.append(_bound("flow_rotation_equivariance", equiv_flow, 1e-6))

    # the momentum form's endpoint at T = 0.25 is the path's t = 0.25 frame:
    # both step by dt = 2^-7 from (c0, h0), and frames never feed back into
    # the state, so a 32-step run of its own would repeat the same arithmetic
    [smoke] = [f.curve for f in path.frames if f.t == 0.25]
    smoke_spray = exp_map_spray(cfg, c0, h0, T=0.25, steps=32, stride=32)
    form_gap = _rel(
        _max_norm(smoke.samples - smoke_spray.endpoint.samples),
        _max_norm(smoke.samples),
    )
    results.append(_bound("flow_spray_vs_momentum_endpoint", form_gap, 1e-6))

    try:
        match = geodesic_bvp(cfg, c0, c0, K=4, steps=32, max_iter=5)
        bvp_ok = match.iterations == 0 and match.residual <= 1e-12
        bvp_res = match.residual
    except NoConvergenceError as exc:
        bvp_ok, bvp_res = False, exc.result.residual
    results.append(
        CheckResult("bvp_identical_target", bvp_ok, measured=bvp_res, tol=1e-12,
                    detail="expects zero velocity in zero iterations")
    )
    return results, extras


def summarize(results):
    """Human-readable block, one line per check."""
    lines = [r.format_line() for r in results]
    n_fail = sum(1 for r in results if r.passed is False)
    n_skip = sum(1 for r in results if r.passed is None)
    n_pass = sum(1 for r in results if r.passed is True)
    lines.append(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")
    return "\n".join(lines)


def results_to_json(results, extras, **kwargs):
    payload = {
        "checks": [r.to_dict() for r in results],
        "ok": all(r.passed is not False for r in results),
    }
    payload.update(extras)
    return json.dumps(payload, **kwargs)


__all__ = [
    "CheckResult",
    "LAMBDA_RANGE",
    "random_curve_samples",
    "random_field",
    "results_to_json",
    "run_all",
    "summarize",
]
