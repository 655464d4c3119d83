"""Time fracsob's set-up in a fresh interpreter.

    python3 setup_probe.py <src-dir> <grid-size> <seed>

Set-up is importing fracsob (numpy included), building the MetricConfig
(which runs its class_report), and the first make_curve and operator call on
the given grid. Making the input samples is left out of the time. Prints the
set-up time in seconds and, after it, the median time of the host-speed
reference kernel (hostspeed.py) on SETUP_GRID, measured right after the
set-up.
"""

import statistics
import sys
import time

#: grid of the reference kernel after the set-up, the same for every workload
SETUP_GRID = 64


def main():
    src, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fracsob

    cfg = fracsob.MetricConfig(fracsob.bessel_fractional(1.5))
    t1 = time.perf_counter()
    import numpy as np

    rng = np.random.default_rng([seed, n])
    samples = fracsob.random_curve_samples(rng, n=n, amplitude=0.10)
    h = fracsob.random_field(rng, n)
    t2 = time.perf_counter()
    c = fracsob.make_curve(samples)
    fracsob.apply_conjugated(c, cfg.symbol, "identity", h)
    t3 = time.perf_counter()
    # imported after the timed set-up, because it imports numpy
    import hostspeed

    hostspeed.reference(SETUP_GRID)
    reference_s = statistics.median(hostspeed.reference(SETUP_GRID) for _ in range(15))
    print(repr((t1 - t0) + (t3 - t2)), repr(reference_s))


if __name__ == "__main__":
    main()
