"""Geodesic initial-value and boundary-value solvers, plus path diagnostics.

The exponential map integrates the momentum form

    c_t = A_c^{-1} mu,    mu_t = momentum_rhs(c, c_t),

with classical fixed-step RK4. The momentum form needs no operator
derivative, so each stage costs a handful of multiplier applications.
exp_map_spray integrates the spray form c_tt = S_c(c_t) instead, to
cross-check the two forms; it pays for an operator derivative per stage
and is kept for smoke tests only.

One RK4 loop (_rk4) serves exp_map, exp_map_spray and every shot. It
takes the form it integrates as data: the state at t = 0, the velocity
read off the state, and the rate of the state. So the spray form has the
same frames, failure isolation and errors as exp_map. The loop
integrates only a batch of geodesics stacked along a leading axis, and
_geodesics turns one run into a path per member; exp_map and
exp_map_spray hand it a batch of one. The boundary-value problem is
solved by shooting: Levenberg-Marquardt on the endpoint mismatch over a
Fourier-truncated initial velocity. The Jacobian is differenced forward,
all its columns integrated as one batch on half the RK4 steps, together
with the base shot they are differenced against (at the start, the
initial shot); after each accepted step Broyden's rank-one secant update
keeps it current without a shot. Only a step rejected under an updated
Jacobian makes the solver difference again, at the current point, in a
batch that shoots its own base. So a typical match is one batch and then
one lone run per trial. Trials run on all the steps, and only such a
shot decides convergence and gives the reported residual. A lone shot
keeps its frames, and the shot at the returned velocity is the returned
path. Trial shots that leave the immersion set count as rejected steps
and raise the damping instead of aborting.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .curves import _check_field, ds_integral, make_curve
from .errors import (
    DomainError,
    FracsobError,
    GridError,
    ImmersionError,
    NoConvergenceError,
    NotSupportedError,
    StepError,
)
from .metric import _dot, momentum_rhs, spray
from .operators import _apply, _core, _filter, _solve, apply_conjugated
from .spectral import TWO_PI, grid

#: smallest admissible RK4 step count
MIN_STEPS = 16

#: relative step of geodesic_bvp's forward-difference Jacobian columns
FD_STEP = 1e-6

#: conservation_report's verdict bounds on energy drift and momentum mismatch
DRIFT_TOL = 1e-6
CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class Frame:
    """One stored state of a geodesic: time, curve, velocity, momentum."""

    t: float
    curve: object
    velocity: np.ndarray
    momentum: np.ndarray


@dataclass(frozen=True)
class GeodesicPath:
    """Time-ordered frames of one geodesic together with its settings.

    The constructor checks monotone times and shape consistency. Whether the
    stored momenta actually match A_c applied to the stored velocities is a
    property of the producing integrator and is measured by
    conservation_report, so that deliberately corrupted paths can still be
    constructed and diagnosed.
    """

    frames: tuple
    config: object
    scheme: str = "rk4"
    steps: int = 0

    def __post_init__(self):
        if len(self.frames) < 1:
            raise GridError("a path needs at least one frame")
        times = [f.t for f in self.frames]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise GridError("frame times must be strictly increasing")
        n, d = self.frames[0].curve.n, self.frames[0].curve.dim
        for f in self.frames:
            if f.curve.n != n or f.curve.dim != d:
                raise GridError("all frames must share the same grid and dimension")
            for label, arr in (("velocity", f.velocity), ("momentum", f.momentum)):
                if arr is not None and np.shape(arr) != (n, d):
                    raise GridError(f"frame {label} has shape {np.shape(arr)}, expected {(n, d)}")

    @property
    def times(self):
        return np.array([f.t for f in self.frames])

    @property
    def endpoint(self):
        return self.frames[-1].curve


@dataclass(frozen=True)
class ShootingResult:
    """Outcome of geodesic_bvp: the velocity found, its mismatch, the path.

    residual is the mismatch of the path's endpoint, a shot on all the
    steps, and converged holds exactly when it meets the tolerance; a
    Jacobian batch's half-step residual is never reported. shots counts
    the geodesics integrated, every member of a batch included;
    integrations counts the RK4 runs they took. Both are counted in one
    place, the shot. jacobians counts the forward-difference Jacobians
    built (one on a typical match), and damping holds the
    Levenberg-Marquardt damping of each trial step in order. The path is
    a shot the solver already made, unless the returned velocity is the
    initial one and was shot only in a batch; then it is shot once more
    alone, one more shot and run, counted like every shot.
    """

    initial_velocity: np.ndarray
    residual: float
    iterations: int
    path: GeodesicPath
    converged: bool = True
    shots: int = 0
    integrations: int = 0
    jacobians: int = 0
    damping: tuple = ()


def _require_dynamics(cfg):
    if cfg.symbol.order < 1:
        raise DomainError(
            f"geodesic integration needs operator order 2r >= 2, got r = {cfg.symbol.order}"
        )
    if not cfg.symbol.has_derivative:
        raise NotSupportedError(
            "geodesic integration needs the symbol's lambda-derivative; supply a derivative table"
        )


@dataclass(frozen=True)
class _Form:
    """A first-order form of the geodesic equation on (c, y) for _rk4.

    scheme names the form on the paths it makes. start(h0, mu0) is y at
    t = 0, from the initial velocity and momentum. velocity(cfg, c, y,
    final) is c_t read off the state, final=True for the velocity stored
    at t = T. rate(cfg, c, h, y) is y_t at velocity h.
    """

    scheme: str
    start: object
    velocity: object
    rate: object


def _momentum_velocity(cfg, c, mu, final=False):
    """c_t = A_c^{-1} mu (solve_conjugated on the loop's own state): 2
    refinement passes in a stage; with final=True one solve of 18 passes,
    the depth time reversal from t = T needs."""
    return _solve(_core(c), cfg.symbol, mu, 18 if final else 2)


def _momentum_rate(cfg, c, h, mu):
    # keep the evolved momentum on the resolved band: the quadratic
    # products in the right hand side regenerate the top-third modes the
    # operators drop, and letting them accumulate in mu breaks time
    # reversal. momentum_rhs checks h, so a nonfinite velocity stops here.
    return _filter(_core(c), momentum_rhs(cfg, c, h, ah=mu))


def _spray_rate(cfg, c, h, _):
    return spray(cfg, c, h)[0]


#: y = mu = A_c c_t, evolved by momentum_rhs; no operator derivative
_MOMENTUM = _Form("rk4", lambda h0, mu0: mu0, _momentum_velocity, _momentum_rate)
#: y = c_t, evolved by the spray S_c(c_t)
_SPRAY = _Form("rk4-spray", lambda h0, mu0: h0, lambda cfg, c, h, final=False: h, _spray_rate)


def _member_error(samples, t):
    """The error that stops one member whose curve make_curve refuses near
    t, or None when the member's curve is fine alone."""
    try:
        make_curve(samples)
    except ImmersionError as exc:
        err = type(exc)(f"immersion lost near t = {t:.6g}: {exc}")
        err.__cause__ = exc
        return err
    except GridError:
        return StepError(f"nonfinite state near t = {t:.6g}")
    return None


def _rk4(cfg, c0, h0, T, steps, stride=None, form=_MOMENTUM):
    """Classical RK4 on (c, y) for a batch of geodesics in the given form.

    y is the momentum mu = A_c c_t by default, or c_t itself with _SPRAY.
    c0 is a batch of curves (make_curve on (B, N, d) samples) and h0 holds
    their (B, N, d) initial velocities. c0 is the first stage's curve, so
    the band basis that mu0 = A_c0 h0 builds on it serves that stage too.
    The members share array operations only: each goes through the stages
    it would go through alone. A member stops in one place, stop: when its
    curve fails alone (ImmersionError, ResolutionError included, with the
    failure time), when its velocity goes nonfinite in a rate, or when its
    state goes nonfinite in a step (StepError). The others run on. With
    stride=None only the endpoints are kept. Otherwise every `stride`
    steps and at t = T each member stores a frame (velocity h, momentum
    A_c h). At t = 0 that is the exact pair (h0, mu0). An interior frame
    takes h from its step's first stage, so storing it costs one
    application. Only the t = T frame reads h with final=True (a deep solve
    in the momentum form). Frames never feed back into the state. A frame
    keeps the member's geometry (c.member(i)), not the band basis of the
    stage it came from.

    Returns (ends, frames, errors): ends[b] is member b's (N, d) samples at
    T, or None when it stopped with errors[b]; frames[b] lists its frames.
    """
    symbol = cfg.symbol
    dt = T / steps
    x = np.array(c0.samples, dtype=float)
    mu0 = _apply(_core(c0), symbol, "identity", h0)
    y = form.start(h0, mu0)
    ids = np.arange(len(x))
    errors = {}
    frames = [[] for _ in ids]
    ks = []

    def stop(failed, error):
        """Record error(i) for each failed row i and drop those rows."""
        nonlocal x, y, ids, ks
        for i in np.flatnonzero(failed):
            errors[int(ids[i])] = error(i)
        keep = ~failed
        x, y, ids = x[keep], y[keep], ids[keep]
        ks = [(kx[keep], ky[keep]) for kx, ky in ks]

    def curve(xs, t):
        """The curve of the live rows at samples xs; None after stopping the rows that fail alone."""
        # the loop never writes a state array in place, and make_curve holds
        # a read-only one without a copy
        xs.setflags(write=False)
        try:
            return make_curve(xs)
        except FracsobError:
            errs = [_member_error(samples, t) for samples in xs]
            if all(err is None for err in errs):
                raise
        stop(np.array([err is not None for err in errs]), errs.__getitem__)
        return None

    def stage(frac, t):
        """(c, h, g) at (x, y) + frac dt k once no live row fails in it; None when no row is left."""
        nonlocal c0
        while len(ids):
            xs, ys = (x + frac * dt * ks[-1][0], y + frac * dt * ks[-1][1]) if ks else (x, y)
            if c0 is None:
                c = curve(xs, t)
                if c is None:
                    continue
            else:  # c0 serves the first stage, which then drops it
                c, c0 = c0, None
            h = form.velocity(cfg, c, ys)
            try:
                return c, h, form.rate(cfg, c, h, ys)
            except GridError:
                # the rates refuse nonfinite velocities
                finite = np.isfinite(h).all(axis=(1, 2))
                if finite.all():
                    raise
                stop(~finite, lambda i: StepError(f"nonfinite state near t = {t:.6g}"))
        return None

    def store(t, c, h, m):
        for i, b in enumerate(ids):
            frames[b].append(Frame(t, c.member(i), h[i], m[i]))

    def result():
        ends = [None] * len(frames)
        for i, b in enumerate(ids):
            ends[b] = x[i]
        return ends, frames, errors

    for n in range(steps):
        t = n * dt
        ks = []
        for frac, t_stage in ((0.0, t), (0.5, t + 0.5 * dt), (0.5, t + 0.5 * dt), (1.0, t + dt)):
            out = stage(frac, t_stage)
            if out is None:
                return result()
            c, h, g = out
            if not ks and stride and n % stride == 0:
                if n == 0:
                    # h0 and mu0 = A_c h0 are the exact initial pair
                    store(t, c, h0[ids], mu0[ids])
                else:
                    store(t, c, h, _apply(_core(c), symbol, "identity", h))
            ks.append((h, g))
            # the next stage builds its own curve; let this one go first
            del c, out
        (k1x, k1y), (k2x, k2y), (k3x, k3y), (k4x, k4y) = ks
        x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))
            stop(~finite, lambda i: StepError(f"nonfinite state after step {n + 1} (t = {(n + 1) * dt:.6g})"))
    c = None
    while c is None and len(ids):
        c = curve(x, T)
    if c is not None and stride:
        h = form.velocity(cfg, c, y, final=True)
        store(T, c, h, _apply(_core(c), symbol, "identity", h))
    return result()


def _check_schedule(T, steps, stride):
    """The time grid of a path: DomainError before any integration starts."""
    if steps < MIN_STEPS:
        raise DomainError(f"need steps >= {MIN_STEPS}, got {steps}")
    if stride < 1:
        raise DomainError(f"need stride >= 1, got {stride}")
    if T <= 0:
        raise DomainError(f"need T > 0, got {T}")


def _geodesics(cfg, c0, h0, T, steps, stride, form=_MOMENTUM):
    """One path per member of the batch c0 from one _rk4 run, or the error
    of the lowest-numbered member that stopped."""
    _check_schedule(T, steps, stride)
    _require_dynamics(cfg)
    h0 = _check_field(c0, h0, "h0")
    _, frames, errors = _rk4(cfg, c0, h0, T, steps, stride, form)
    if errors:
        raise errors[min(errors)]
    return [GeodesicPath(tuple(f), cfg, scheme=form.scheme, steps=steps) for f in frames]


def _geodesic(name, cfg, c0, h0, T, steps, stride, form=_MOMENTUM):
    """The path of one curve: _geodesics on a batch of one, built once the
    schedule and h0 pass. The caller's c0 is only read, so it caches nothing."""
    if c0.batched:
        raise GridError(f"{name} integrates a single curve, not a batch")
    _check_schedule(T, steps, stride)
    h0 = _check_field(c0, h0, "h0")
    [path] = _geodesics(cfg, make_curve(c0.samples[None]), h0[None], T, steps, stride, form)
    return path


def exp_map(cfg, c0, h0, T=1.0, steps=200, stride=1):
    """Integrate the geodesic with initial curve c0 and initial velocity h0.

    Fixed-step classical RK4 on (c, mu) with mu = A_c c_t. Frames are stored
    every `stride` steps and always at t = T. Each carries a velocity h and
    its image A_c h as the momentum, so the pair satisfies the defining
    relation to rounding. The t = 0 frame holds h0 itself. An interior
    frame's h is the velocity its RK4 step solved for from the evolved
    momentum (solve_conjugated at its default depth), and only the t = T
    frame's h is solved deeply. So interior frames are as accurate as the
    stages the integrator steps with, and the stride does not change the
    endpoint. Raises ImmersionError with the failure time if any stage
    leaves the immersion set (ResolutionError if the grid stops resolving
    the curve's speed first), StepError on nonfinite values. This is the
    batch of one of the RK4 loop that geodesic_bvp runs on whole batches of
    shots, made from c0's samples once T, steps, stride and h0 pass: c0
    itself caches no band basis.

    Frames keep geometry only, about 9 kB each at N = 64 and 43 kB at
    N = 512 (d = 2): a reader that applies an operator to a frame
    (conservation_report, path_energy) rebuilds its band basis, bitwise,
    and drops it after use, and the CLI writes the path one frame at a
    time.
    """
    return _geodesic("exp_map", cfg, c0, h0, T, steps, stride)


def exp_map_spray(cfg, c0, h0, T=1.0, steps=64, stride=1):
    """Integrate the second-order form c_tt = S_c(c_t) directly.

    The same RK4 loop as exp_map, on (c, c_t) instead of (c, mu), with the
    same frames and errors. Exists to cross-check the momentum form: it
    pays for an operator derivative and a refined solve at every stage, so
    use exp_map for real work.
    """
    return _geodesic("exp_map_spray", cfg, c0, h0, T, steps, stride, _SPRAY)


def _fourier_basis(n, k_max):
    """Real trigonometric basis (n, 2k_max+1): 1, cos, sin, ..., cos K, sin K."""
    theta = grid(n)
    cols = [np.ones(n)]
    for k in range(1, k_max + 1):
        cols.append(np.cos(k * theta))
        cols.append(np.sin(k * theta))
    return np.column_stack(cols)


def _l2_norm(c_like_samples, n):
    return float(np.linalg.norm(c_like_samples)) * np.sqrt(TWO_PI / n)


def _broyden(jac, dx, dr):
    """Broyden's rank-one secant update of the Jacobian jac after a step dx
    changed the residual by dr: the least change to jac, in the Frobenius
    norm, that maps dx to dr. Directions orthogonal to dx keep their image."""
    return jac + np.outer(dr - jac @ dx, dx) / (dx @ dx)


def geodesic_bvp(
    cfg,
    c0,
    c1,
    K=8,
    steps=64,
    T=1.0,
    max_iter=50,
    tol_rel=1e-6,
    damping=1e-3,
):
    """Shoot for the initial velocity whose time-T geodesic endpoint is c1.

    The unknown is the (2K+1) real Fourier coefficients per dimension of h0;
    the residual is the endpoint mismatch in the L2(dtheta) norm of samples.
    Levenberg-Marquardt with a forward-difference Jacobian J: the columns
    step each coefficient x by FD_STEP max(1, |x|), and their (2K+1)*d shots
    are integrated as one batch together with the base shot at x, on
    max(MIN_STEPS, steps // 2) RK4 steps; columns whose shot loses
    immersion (a ResolutionError included) are retried with the step
    negated, as a second batch on as many steps. A Jacobian and its base
    come from one step count: the columns are differenced against the base
    of their own batch, never against a full-step residual. Halving the
    steps moves J by a time error far below FD_STEP's own truncation error,
    since RK4 converges at order 4 on the smooth shooting map. The first
    batch's base is the initial shot at the least-squares start x0, and
    its half-step residual is the Levenberg-Marquardt anchor at x0. The
    initial shot runs alone on all the steps when max_iter is 0 or
    |c1 - c0| <= tol_rel * |c1|, where it is the answer. After each
    accepted step dx, Broyden's secant update
    J += (r_new - r - J dx) dx^T / (dx^T dx) replaces a new difference. A
    trial rejected under an updated J makes the solver difference J again
    at the current point (one batch, shooting its own base) and retry at
    the same damping; only a rejection under a freshly differenced J
    multiplies the damping by 10. A new difference whose base shot fails
    ends the iterations at the best point. Trial shots that lose immersion
    count as rejected. Every trial runs alone on all the steps and keeps a
    frame every max(1, steps // 16) steps; frames never feed back into the
    state, and the returned path is the frames of the shot at the returned
    velocity. Only full-step shots decide: x0, when it was shot only in a
    batch and is the returned velocity (its half-step residual meets the
    tolerance, or it is the best point when the iterations stop), is shot
    once more alone on all the steps, counted like every shot (an
    ImmersionError if that lone shot fails), and that shot's residual is
    the one reported and judged. If it misses the tolerance where the
    half-step one met it, the iterations go on from it. Frames are kept
    for the current and the best velocity only. The result counts the
    shots, the RK4 runs and the Jacobians differenced, and lists the
    damping of every trial. Raises NoConvergenceError carrying the best
    ShootingResult when the cap is hit or the iterations stall and that
    result has not converged, and DomainError before any work on a
    schedule exp_map refuses.
    """
    if c0.batched or c1.batched:
        raise GridError("geodesic_bvp matches two single curves, not batches")
    out_stride = max(1, steps // 16)
    _check_schedule(T, steps, out_stride)
    if c0.n != c1.n or c0.dim != c1.dim:
        raise GridError(
            f"curves must share the grid: got ({c0.n},{c0.dim}) and ({c1.n},{c1.dim})"
        )
    if K < 0 or 2 * K + 1 > c0.n:
        raise DomainError(f"need 0 <= 2K+1 <= N, got K = {K} at N = {c0.n}")
    _require_dynamics(cfg)
    n, d = c0.n, c0.dim
    basis = _fourier_basis(n, K)
    n_coef = basis.shape[1]
    scale = max(_l2_norm(c1.samples, n), 1e-300)
    tol_abs = tol_rel * scale

    shots = integrations = jacobians = 0
    lams = []
    # the step count of every Jacobian batch; trials and the path run on steps
    jac_steps = max(MIN_STEPS, steps // 2)

    def velocity(x):
        return basis @ x.reshape(x.shape[:-1] + (n_coef, d))

    def shoot(xs, run_steps, stride=None):
        """Endpoint residual vectors of the shots at the rows of xs, in one
        batch of run_steps RK4 steps, and their frames at `stride`; None for
        a shot that loses immersion or goes nonfinite."""
        nonlocal shots, integrations
        shots += len(xs)
        integrations += 1
        starts = make_curve(np.broadcast_to(c0.samples, (len(xs), n, d)))
        ends, frames, _ = _rk4(cfg, starts, velocity(xs), T, run_steps, stride)
        residuals = [None if end is None else (end - c1.samples).ravel() * np.sqrt(TWO_PI / n) for end in ends]
        return residuals, frames

    def lone(x):
        """The residual and frames of x's shot alone on steps."""
        [r], [frames] = shoot(x[None], steps, out_stride)
        if r is None:
            raise ImmersionError("the shot at the returned velocity leaves the immersion set when run alone")
        return r, frames

    def finish(x, residual, frames):
        """The result at x, whose frames are None when x was shot only in a
        Jacobian batch: then its lone shot on steps gives the path and the
        residual. Only a full-step residual decides convergence."""
        if frames is None:
            r, frames = lone(x)
            residual = float(np.linalg.norm(r))
        path = GeodesicPath(tuple(frames), cfg, scheme=_MOMENTUM.scheme, steps=steps)
        return ShootingResult(
            velocity(x), residual, iterations, path, bool(residual <= tol_abs), shots, integrations, jacobians, tuple(lams)
        )

    def fd_deltas(x):
        return FD_STEP * np.maximum(1.0, np.abs(x))

    def differenced(x, shot=None):
        """The forward-difference Jacobian at x from one batch on jac_steps:
        the base shot at x together with its columns, unless shot already
        holds their residuals, and the columns whose shot failed shot again
        with the step negated, as a second batch. The columns difference
        against the base of their own step count. None when the base fails."""
        nonlocal jacobians
        jacobians += 1
        deltas = fd_deltas(x)
        probes = np.diag(deltas)
        if shot is None:
            shot, _ = shoot(np.vstack([x, x + probes]), jac_steps)
        base, *cols = shot
        if base is None:
            return None
        retry = [j for j, rp in enumerate(cols) if rp is None]
        if retry:
            back, _ = shoot(x - probes[retry], jac_steps)
            for j, rp in zip(retry, back):
                cols[j] = rp
                deltas[j] = -deltas[j]
        jac = np.empty((base.size, x.size))
        for j, rp in enumerate(cols):
            jac[:, j] = 0.0 if rp is None else (rp - base) / deltas[j]
        return jac

    coef0, *_ = np.linalg.lstsq(basis, (c1.samples - c0.samples) / T, rcond=None)
    x = coef0.ravel()
    iterations = 0
    # the initial shot is the base of the first Jacobian batch, unless no
    # iteration may run or the target is within tolerance of c0, where that
    # shot runs alone on steps and is the answer
    if max_iter > 0 and _l2_norm(c1.samples - c0.samples, n) > tol_abs:
        shot, _ = shoot(np.vstack([x, x + np.diag(fd_deltas(x))]), jac_steps)
        r, frames = shot[0], None
    else:
        [r], [frames] = shoot(x[None], steps, out_stride)
        shot = None
    if r is None:
        raise ImmersionError("the initial shot already leaves the immersion set")
    if frames is None and np.linalg.norm(r) <= tol_abs:
        # a half-step residual decides nothing: x's lone shot on steps does
        r, frames = lone(x)
    # frames are kept for the current x and the best x only; until a trial
    # is accepted, r may be the half-step residual of the batch, without frames
    best = (float(np.linalg.norm(r)), x.copy(), frames)
    if best[0] <= tol_abs:
        return finish(x, best[0], frames)

    jac = None if shot is None else differenced(x, shot)
    # whether jac carries secant updates since it was last differenced
    updated = False
    lam = damping
    while iterations < max_iter:
        if jac is None:
            jac = differenced(x)
            if jac is None:
                break
        iterations += 1
        accepted = False
        for _ in range(12):
            jtj = jac.T @ jac
            diag = np.diag(jtj).copy()
            diag[diag <= 0] = 1.0
            try:
                dx = np.linalg.solve(jtj + lam * np.diag(diag), -(jac.T @ r))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_t = x + dx
            lams.append(lam)
            [r_new], [frames_t] = shoot(x_t[None], steps, out_stride)
            if r_new is not None and np.linalg.norm(r_new) < np.linalg.norm(r):
                jac = _broyden(jac, dx, r_new - r)
                updated = True
                x, r, frames = x_t, r_new, frames_t
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            if updated:
                # the secant model may be what failed: difference again at
                # x and retry at the same damping
                jac = differenced(x)
                updated = False
                if jac is None:
                    break
            else:
                lam *= 10.0
        norm_r = float(np.linalg.norm(r))
        if norm_r < best[0]:
            best = (norm_r, x.copy(), frames)
        if norm_r <= tol_abs:
            return finish(x, norm_r, frames)
        if not accepted:
            break
    result = finish(best[1], best[0], best[2])
    if result.converged:
        # the best x is x0, whose half-step residual missed the tolerance
        # and whose lone shot on steps meets it
        return result
    raise NoConvergenceError(
        f"shooting stalled at residual {result.residual:.3e} (tolerance {tol_abs:.3e}) "
        f"after {iterations} iterations",
        result=result,
    )


@dataclass(frozen=True)
class ConservationReport:
    """Per-frame conserved-quantity series and threshold verdicts."""

    times: np.ndarray
    energies: np.ndarray
    lengths: np.ndarray
    min_speeds: np.ndarray
    energy_drift: float
    momentum_consistency: float
    drift_tol: float
    consistency_tol: float
    flags: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(self.flags.values())

    def to_dict(self):
        out = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(self).items()}
        return {**out, "ok": self.ok}

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def conservation_report(path):
    """Energy, length and speed series along a path, with drift verdicts.

    energy_drift is the largest relative deviation of G_c(c_t, c_t) from its
    initial value, judged against DRIFT_TOL; momentum_consistency is the
    largest relative mismatch between stored momenta and A_c applied to
    stored velocities, judged against CONSISTENCY_TOL. exp_map stores A_c h
    as each frame's momentum, so on its paths this reads zero. It catches
    a path whose frames were altered, not the defect left by the solve for
    h. The energies come from the stored velocities: exact at t = 0, from
    the stage solve inside, from the deep solve at t = T; a frame without
    one is a GridError. One application of A_c per frame serves both
    series, on the frame's band basis rebuilt (bitwise) and dropped after.
    """
    if len(path.frames) < 2:
        raise GridError("a conservation report needs at least 2 frames")
    for f in path.frames:
        if f.velocity is None:
            raise GridError(f"a conservation report needs stored velocities; the frame at t = {f.t:.6g} has none")
    cfg = path.config
    energies, lengths, speeds, mismatch = [], [], [], []
    for f in path.frames:
        # the frame's band basis lives only as long as this copy
        curve = f.curve.uncached()
        ah = apply_conjugated(curve, cfg.symbol, "identity", f.velocity)
        # G_c(h, h) as metric() takes it, from the same image
        energies.append(float(ds_integral(curve, _dot(ah, f.velocity))))
        lengths.append(curve.length)
        speeds.append(float(np.min(curve.speed)))
        if f.momentum is not None:
            denom = max(float(np.linalg.norm(f.momentum)), 1e-300)
            mismatch.append(float(np.linalg.norm(f.momentum - ah)) / denom)
    energies = np.array(energies)
    e0 = max(abs(energies[0]), 1e-300)
    drift = float(np.max(np.abs(energies - energies[0])) / e0)
    consistency = float(np.max(mismatch)) if mismatch else 0.0
    flags = {
        "energy_drift_ok": drift <= DRIFT_TOL,
        "momentum_consistent": consistency <= CONSISTENCY_TOL,
        "immersed": all(s > 0 for s in speeds),
    }
    return ConservationReport(
        times=path.times,
        energies=energies,
        lengths=np.array(lengths),
        min_speeds=np.array(speeds),
        energy_drift=drift,
        momentum_consistency=consistency,
        drift_tol=DRIFT_TOL,
        consistency_tol=CONSISTENCY_TOL,
        flags=flags,
    )


def _list_text(a):
    """repr of a 2-D float array's nested list: each float formatted once, by float.__repr__."""
    return repr(np.asarray(a).tolist())


def _json_text(text):
    """List text as json.dumps writes the list: its float text is float.__repr__
    too, but nan and inf take JSON's names."""
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _csv_rows(text):
    """The rows of _list_text's text, each as comma-separated floats."""
    return text[2:-2].replace(", ", ",").split("],[")


def _text_chunks(path):
    """path_to_csv's and path_to_json's text as (csv, json) pairs of chunks.

    The headers come first, then one pair per frame, then the end of the
    JSON object. Each float of a frame is formatted once, for both texts:
    JSON writes a float as float.__repr__ does, as the CSV does.
    """
    first = path.frames[0].curve
    d = first.dim
    header = ["t", "k"] + [f"x{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    head = json.dumps({"scheme": path.scheme, "steps": path.steps, "n": first.n, "dim": d, "frames": []})
    # the JSON header ends in the empty list "[]}"; the frames go between its brackets
    yield ",".join(header) + "\n", head[:-2]
    for i, f in enumerate(path.frames):
        t = repr(float(f.t))
        samples = _list_text(f.curve.samples)
        v = None if f.velocity is None else np.asarray(f.velocity)
        vel = None if v is None else _list_text(v)
        # the CSV writes a velocity as floats, like the samples; JSON keeps its own numbers
        csv_vel = vel if v is None or v.dtype.kind == "f" else _list_text(v.astype(float))
        mom = "null" if f.momentum is None else _json_text(_list_text(f.momentum))
        rows = zip(_csv_rows(samples), [",".join(["0.0"] * d)] * first.n if vel is None else _csv_rows(csv_vel))
        csv = "".join([f"{t},{k},{x},{v}\n" for k, (x, v) in enumerate(rows)])
        frame = (
            f'{", " if i else ""}{{"t": {_json_text(t)}, "samples": {_json_text(samples)}, '
            f'"velocity": {"null" if vel is None else _json_text(vel)}, "momentum": {mom}}}'
        )
        yield csv, frame
    yield "", head[-2:]


def _svg_chunks(path):
    """path_to_svg's text: the svg tag, one polyline per frame, the closing tag."""
    size, margin = 480, 24.0  # pixels
    lo = np.min([f.curve.samples[:, :2].min(axis=0) for f in path.frames], axis=0)
    hi = np.max([f.curve.samples[:, :2].max(axis=0) for f in path.frames], axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    inner = size - 2.0 * margin

    def project(xy):
        u = margin + (xy[:, 0] - lo[0]) / span * inner
        v = size - margin - (xy[:, 1] - lo[1]) / span * inner
        return u, v

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
    )
    last = max(len(path.frames) - 1, 1)
    for i, f in enumerate(path.frames):
        frac = i / last
        color = f"rgb({int(round(220 * frac))},40,{int(round(220 * (1 - frac)))})"
        xy = np.concatenate([f.curve.samples[:, :2], f.curve.samples[:1, :2]])
        u, v = project(xy)
        coords = " ".join([f"{a:.3f},{b:.3f}" for a, b in zip(u.tolist(), v.tolist())])
        yield f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>\n'
    yield "</svg>\n"


def path_to_csv(path):
    """One row per frame per sample: t, k, x1..xd, v1..vd."""
    return "".join(csv for csv, _ in _text_chunks(path))


def path_to_json(path):
    """Frame list with times, samples, velocities, momenta."""
    return "".join(text for _, text in _text_chunks(path))


def path_to_svg(path):
    """Closed polylines of the first two coordinates, one per stored frame.

    A 480-pixel square with a 24-pixel margin. Early frames are drawn
    blue, late frames red; plot data only, no axes.
    """
    return "".join(_svg_chunks(path))


__all__ = [
    "CONSISTENCY_TOL",
    "DRIFT_TOL",
    "FD_STEP",
    "MIN_STEPS",
    "ConservationReport",
    "Frame",
    "GeodesicPath",
    "ShootingResult",
    "conservation_report",
    "exp_map",
    "exp_map_spray",
    "geodesic_bvp",
    "path_to_csv",
    "path_to_json",
    "path_to_svg",
]
