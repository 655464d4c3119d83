"""Shared fixtures for the fracsob test suite."""

import os
import sys
import warnings

# One BLAS/OpenMP thread, set before numpy loads its BLAS (perfbench pins
# the same). The stacked products of batched shots are large enough for
# OpenBLAS to start threads, and on a small busy machine those threads
# stall each product by milliseconds.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; its BLAS thread count is not pinned")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "fracsob",
        derandomize=True,
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("fracsob")
except ImportError:
    pass


@pytest.fixture
def rng():
    seed = int(os.environ.get("FRACSOB_SEED", "0"))
    return np.random.default_rng(seed)


@pytest.fixture
def circle64():
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    return np.column_stack([np.cos(theta), np.sin(theta)])


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(ns, *names) wraps each ns.<name> in a counter; returns the counts by name."""
    calls = {}

    def install(ns, *names):
        for name in names:
            original = getattr(ns, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            calls[name] = 0
            monkeypatch.setattr(ns, name, counting)
        return calls

    return install


def match_input(seed, index=None, s=0.5, n=64, steps=32):
    """A match input drawn as perfbench's match_n64 draws one, without
    importing perfbench: from default_rng([seed, index]) (default_rng(seed)
    without an index), a curve of amplitude 0.10, then h_true = s *
    random_field(modes=2), and the target c1, h_true's exp_map endpoint on
    `steps` RK4 steps under bessel_fractional(1.5) at T = 1. match_n64 is
    s = 0.5. Returns the curves c0 and c1 with h_true as (c0, h_true, c1)."""
    from fracsob.checks import random_curve_samples, random_field
    from fracsob.curves import make_curve
    from fracsob.metric import MetricConfig
    from fracsob.solvers import exp_map
    from fracsob.symbols import bessel_fractional

    rng = np.random.default_rng(seed if index is None else [seed, index])
    c0 = make_curve(random_curve_samples(rng, n=n, amplitude=0.10))
    h_true = s * random_field(rng, n, modes=2)
    with warnings.catch_warnings():
        # from s = 2 on the N = 64 grid warns that it resolves the flow coarsely
        warnings.simplefilter("ignore")
        path = exp_map(MetricConfig(bessel_fractional(1.5)), c0, h_true, T=1.0, steps=steps, stride=steps)
    return c0, h_true, path.endpoint
