"""The four benchmark workloads.

Each workload makes the inputs of operation ``index`` from the run seed and
the index alone (make_input, never timed), runs one operation through
fracsob's public API (operate, timed), and checks the output (gate, never
timed). All use the family bessel_fractional(1.5), T = 1, and curves from
random_curve_samples with amplitude 0.10.

The inputs are ones on which fracsob keeps its promises, so every operation
is expected to pass its gate. Where it does not keep them, on the inputs of
the ROADMAP's survey and on other check seeds, surveys.py measures the share
of failures as a per-layer metric.

The operation calls go through module attributes (``solvers.exp_map``,
``cli.main``) so that the span tracer's wrappers see them.

Why each workload exists is in README.md next to this file.
"""

import contextlib
import importlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

import gates
from fracsob import checks, cli, curves, solvers, symbols
from fracsob.errors import NoConvergenceError

CURVE_AMPLITUDE = 0.10
H0_SCALE = 0.5
SYMBOL_R = 1.5
# the package exports a function named metric that hides this module
metric = importlib.import_module("fracsob.metric")

EXP_ARTIFACTS = ("path.csv", "path.json", "path.svg", "path_conservation.json")


def metric_config():
    return metric.MetricConfig(symbols.bessel_fractional(SYMBOL_R))


def input_rng(seed, index):
    return np.random.default_rng([seed, index])


def random_geodesic_start(rng, n, modes=4, h0_scale=H0_SCALE):
    c0 = checks.random_curve_samples(rng, n=n, amplitude=CURVE_AMPLITUDE)
    h0 = h0_scale * checks.random_field(rng, n, modes=modes)
    return c0, h0


@dataclass(frozen=True)
class GeodesicCli:
    """`fracsob exp` in-process: the default user traffic, with writers.

    h0 is a fifth of the other workloads' h0, so each operation integrates
    the first fifth of the same geodesic. At the full scale the N = 64 grid
    does not resolve the flow, and about a third of the geodesics break the
    1e-6 drift promise (gates.drift_survey_fail_share, surveys.py). At a
    fifth, the largest drift in 120 seeded inputs was 5.4e-8.
    """

    name: str = "geodesic_n64"
    n: int = 64
    steps: int = 200
    stride: int = 1
    T: float = 1.0
    h0_scale: float = 0.1

    def make_input(self, cfg, seed, index, workdir):
        c0, h0 = random_geodesic_start(input_rng(seed, index), self.n, h0_scale=self.h0_scale)
        op_dir = os.path.join(workdir, f"op{index}")
        shutil.rmtree(op_dir, ignore_errors=True)
        os.makedirs(op_dir)
        curves.write_samples(os.path.join(op_dir, "c0.json"), c0)
        curves.write_samples(os.path.join(op_dir, "h0.json"), h0)
        return op_dir

    def operate(self, cfg, op_dir):
        argv = [
            "exp", "--curve", os.path.join(op_dir, "c0.json"),
            "--velocity", os.path.join(op_dir, "h0.json"),
            "--T", repr(self.T), "--steps", str(self.steps), "--stride", str(self.stride),
            "--out", os.path.join(op_dir, "out"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def gate(self, op_dir, code):
        out_dir = os.path.join(op_dir, "out")
        present = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        verdict = gates.cli_exit(code, EXP_ARTIFACTS, present)
        if code == 0 and not verdict.wrong:
            with open(os.path.join(out_dir, "path_conservation.json"), encoding="utf-8") as fh:
                verdict.merge(gates.geodesic(json.load(fh)))
        shutil.rmtree(op_dir, ignore_errors=True)
        return verdict


@dataclass(frozen=True)
class GeodesicLibrary:
    """Library exp_map on a fine grid with no I/O."""

    name: str = "geodesic_n512"
    n: int = 512
    steps: int = 32
    stride: int = 32
    T: float = 1.0

    def make_input(self, cfg, seed, index, workdir):
        return random_geodesic_start(input_rng(seed, index), self.n)

    def operate(self, cfg, inp):
        c0, h0 = inp
        return solvers.exp_map(
            cfg, curves.make_curve(c0), h0, T=self.T, steps=self.steps, stride=self.stride
        )

    def gate(self, inp, path):
        return gates.geodesic(solvers.conservation_report(path).to_dict())


@dataclass(frozen=True)
class Match:
    """Library geodesic_bvp towards an endpoint that an exact h0 reaches."""

    name: str = "match_n64"
    n: int = 64
    K: int = 2
    steps: int = 32
    T: float = 1.0
    tol_rel: float = 1e-6
    h0_modes: int = 2

    def make_input(self, cfg, seed, index, workdir):
        c0, h_true = random_geodesic_start(input_rng(seed, index), self.n, modes=self.h0_modes)
        path = solvers.exp_map(
            cfg, curves.make_curve(c0), h_true, T=self.T, steps=self.steps, stride=self.steps
        )
        return c0, h_true, np.array(path.endpoint.samples)

    def operate(self, cfg, inp):
        c0, _, c1 = inp
        try:
            result = solvers.geodesic_bvp(
                cfg, curves.make_curve(c0), curves.make_curve(c1),
                K=self.K, steps=self.steps, T=self.T, tol_rel=self.tol_rel,
            )
        except NoConvergenceError as exc:
            return exc.result, False
        return result, True

    def gate(self, inp, out):
        _, h_true, c1 = inp
        result, converged = out
        return gates.match(result, converged, c1, h_true, self.tol_rel)


@dataclass(frozen=True)
class Check:
    """`fracsob check` in-process as shipped: its default grid and seed, with
    the flow lines. The run seed does not enter; on other check seeds one
    battery in ten or so misses a 1e-10 tolerance by rounding
    (gates.check_survey_fail_share)."""

    name: str = "check_n256"
    n: int = 256
    flow: bool = True

    def make_input(self, cfg, seed, index, workdir):
        return None

    def operate(self, cfg, _):
        argv = ["check", "--N", str(self.n)]
        if not self.flow:
            argv.append("--no-flow")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def gate(self, _, out):
        return gates.check(*out)


WORKLOADS = {w.name: w for w in (GeodesicCli(), GeodesicLibrary(), Match(), Check())}
