"""Fixed surveys of two known accuracy gaps, reported as per-layer metrics.

The timed workloads use inputs on which fracsob keeps its promises, so that
every timed operation passes its gate. These surveys run the same gates on
fixed inputs where it does not always keep them. A change that closes or
widens a gap moves the share; the run seed does not.

- gates.drift_survey_fail_share: the ROADMAP's seeded survey. Library
  exp_map at N = 64, 200 steps, T = 1, from random_curve_samples (amplitude
  0.10) and h0 = 0.5 x random_field, both drawn from default_rng(s) for s in
  DRIFT_SEEDS. The share of geodesics that fail gates.geodesic, that is,
  break the 1e-6 drift promise or leave the immersion set.
- gates.check_survey_fail_share: `fracsob check --no-flow` on its default
  grid for --seed s in CHECK_SEEDS. The share of batteries that fail
  gates.check.
"""

import contextlib
import io
import warnings

import numpy as np

import gates
import workloads
from fracsob import cli, curves, solvers

DRIFT_SEEDS = range(10)
CHECK_SEEDS = range(20)


def drift_verdicts(cfg, seeds=DRIFT_SEEDS, n=64, steps=200):
    verdicts = []
    for s in seeds:
        c0, h0 = workloads.random_geodesic_start(np.random.default_rng(s), n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = solvers.exp_map(cfg, curves.make_curve(c0), h0, T=1.0, steps=steps,
                                   stride=steps)
        verdicts.append(gates.geodesic(solvers.conservation_report(path).to_dict()))
    return verdicts


def check_verdicts(seeds=CHECK_SEEDS, n=256):
    verdicts = []
    for s in seeds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["check", "--N", str(n), "--seed", str(s), "--no-flow"])
        verdicts.append(gates.check(code, buf.getvalue()))
    return verdicts


def fail_shares(cfg):
    """The two survey metrics, and whether any surveyed output was wrong."""
    surveyed = {
        "gates.drift_survey_fail_share": drift_verdicts(cfg),
        "gates.check_survey_fail_share": check_verdicts(),
    }
    metrics = {name: sum(v.failed for v in vs) / len(vs) for name, vs in surveyed.items()}
    return metrics, any(v.wrong for vs in surveyed.values() for v in vs)
