"""Layer micro-timings: median warm call time of the pipeline's building blocks.

Each function runs once to warm up, then repeatedly until it has at least
MIN_CALLS calls and BUDGET_S seconds, or MAX_CALLS calls. make_curve builds
a new curve on every call; the operator calls reuse one curve, whose
interpolation matrices are then cached, as they are inside exp_map.
"""

import statistics
import time
import warnings

from fracsob import curves, operators, spectral

import workloads

GRIDS = (64, 256, 1024)
FUNCTIONS = (
    "spectral_derivative", "dealias", "make_curve",
    "apply_conjugated", "solve_conjugated", "momentum_rhs",
)
MIN_CALLS = 5
MAX_CALLS = 200
BUDGET_S = 0.1


def metric_names():
    return [f"micro.{fn}.n{n}_s" for fn in FUNCTIONS for n in GRIDS]


def _median_call(call):
    call()
    times = []
    spent = 0.0
    while len(times) < MAX_CALLS and (len(times) < MIN_CALLS or spent < BUDGET_S):
        t0 = time.perf_counter()
        call()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times)


def timings(cfg, seed):
    out = {}
    sym = cfg.symbol
    for n in GRIDS:
        samples, h = workloads.random_geodesic_start(workloads.input_rng(seed, n), n)
        c = curves.make_curve(samples)
        mu = operators.apply_conjugated(c, sym, "identity", h)
        calls = {
            "spectral_derivative": lambda: spectral.spectral_derivative(samples),
            "dealias": lambda: spectral.dealias(samples),
            "make_curve": lambda: curves.make_curve(samples),
            "apply_conjugated": lambda: operators.apply_conjugated(c, sym, "identity", h),
            "solve_conjugated": lambda: operators.solve_conjugated(c, sym, mu),
            "momentum_rhs": lambda: workloads.metric.momentum_rhs(cfg, c, h, ah=mu),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for fn in FUNCTIONS:
                out[f"micro.{fn}.n{n}_s"] = _median_call(calls[fn])
    return out
