"""Per-operation output gates.

Every operation the benchmark times ends in one Verdict:

- ``failed``: the operation raised, or its output misses a promise the
  project makes (energy drift at most 1e-6, an immersed path, a converged
  match that recovers the generating velocity, a clean check battery).
  Failed operations feed ``fail_share``.
- ``wrong``: the program claimed something about its output that the gate
  found untrue, for example a converged match whose endpoint misses the
  target, an exit code of 0 with a FAIL line, or missing artifacts. Any
  wrong verdict makes the whole run report ``correct: false``.

A failure the program reports honestly (the CLI flags ``energy_drift_ok``
false, shooting raises NoConvergenceError) is failed but not wrong.
"""

import math
from dataclasses import dataclass, field

import numpy as np

#: the README's promise for geodesics at default settings
DRIFT_TOL = 1e-6
#: relative L2 distance allowed between recovered and generating h0
H0_RTOL = 1e-4


@dataclass
class Verdict:
    failed: bool = False
    wrong: bool = False
    reasons: list = field(default_factory=list)

    def fail(self, reason):
        self.failed = True
        self.reasons.append(reason)

    def contradict(self, reason):
        self.failed = True
        self.wrong = True
        self.reasons.append("wrong: " + reason)

    def merge(self, other):
        self.failed |= other.failed
        self.wrong |= other.wrong
        self.reasons += other.reasons


def geodesic(report):
    """Gate one geodesic on its conservation report, as a dict.

    The dict has the layout of ConservationReport.to_dict(), which is also
    what the CLI writes into path_conservation.json. momentum_consistent is
    not gated: the report recomputes exactly what the snapshot stored, so
    that flag is always true.
    """
    v = Verdict()
    drift = float(report["energy_drift"])
    energies = np.asarray(report["energies"], dtype=float)
    flags = report["flags"]
    if not (math.isfinite(drift) and np.all(np.isfinite(energies))):
        v.contradict("nonfinite energy series")
        return v
    if bool(flags["energy_drift_ok"]) != (drift <= float(report["drift_tol"])):
        v.contradict(f"energy_drift_ok={flags['energy_drift_ok']} contradicts drift {drift:.3e}")
    if bool(flags["immersed"]) != bool(np.all(np.asarray(report["min_speeds"]) > 0)):
        v.contradict("immersed flag contradicts min_speeds")
    if drift > DRIFT_TOL:
        v.fail(f"energy drift {drift:.3e} > {DRIFT_TOL:.0e}")
    if not flags["immersed"]:
        v.fail("path left the immersion set")
    return v


def cli_exit(code, expected_files, present_files):
    """Gate the exit status and artifacts of one `fracsob exp` run."""
    v = Verdict()
    if code == 2:
        v.fail("exit code 2 (numerical failure)")
    elif code != 0:
        v.contradict(f"unexpected exit code {code}")
    elif set(expected_files) - set(present_files):
        v.contradict(f"missing artifacts {sorted(set(expected_files) - set(present_files))}")
    return v


def match(result, converged, target, h_true, tol_rel):
    """Gate one shooting result against its target curve and generating h0.

    The residual is recomputed from the returned path's endpoint in the same
    L2(dtheta) norm geodesic_bvp uses, so a converged claim is checked, not
    trusted.
    """
    v = Verdict()
    target = np.asarray(target, dtype=float)
    n = target.shape[0]
    weight = np.sqrt(2.0 * np.pi / n)
    tol_abs = tol_rel * max(float(np.linalg.norm(target)) * weight, 1e-300)
    end = result.path.endpoint.samples
    residual = float(np.linalg.norm(end - target)) * weight
    if not math.isfinite(residual):
        v.contradict("nonfinite endpoint")
        return v
    if not converged:
        v.fail(f"no convergence, residual {result.residual:.3e}")
    elif residual > tol_abs:
        v.contradict(f"converged but endpoint residual {residual:.3e} > {tol_abs:.3e}")
    h_err = float(np.linalg.norm(np.asarray(result.initial_velocity) - h_true))
    h_rel = h_err / max(float(np.linalg.norm(h_true)), 1e-300)
    if not h_rel <= H0_RTOL:
        v.fail(f"recovered h0 off by {h_rel:.3e} > {H0_RTOL:.0e}")
    return v


def check(code, text):
    """Gate one `fracsob check` run on its exit code and printed lines."""
    v = Verdict()
    lines = text.splitlines()
    failing = [ln.split()[1] for ln in lines if ln.startswith("FAIL")]
    summary = [ln for ln in lines if ln.endswith("skipped") and "passed" in ln]
    if not summary:
        v.contradict("battery printed no summary line")
    if code == 3:
        if failing:
            v.fail("failed lines: " + ", ".join(failing))
        else:
            v.contradict("exit code 3 without a FAIL line")
    elif code == 0:
        if failing:
            v.contradict("exit code 0 with FAIL lines " + ", ".join(failing))
    else:
        v.contradict(f"unexpected exit code {code}")
    return v
