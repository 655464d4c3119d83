"""Fit how strongly a workload's time follows the host-speed reference.

    python3 perfbench/calibrate.py --workload geodesic_n64 --seconds 120
    python3 perfbench/calibrate.py --workload setup --seconds 120

Runs one fixed input of the workload (seed 0, index 0) over and over under a
hostspeed.Sampler, or with --workload setup the set-up probe on grid 64,
then fits log(time) = a + beta * log(median reference time) by least
squares. Repeating one input leaves only the host's speed to vary. It prints
the median reference time and beta, the entry of hostspeed.CALIBRATION, with
the spread of the raw and of the scaled times. Run nothing else meanwhile.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import run  # pins the BLAS threads before numpy is imported

import numpy as np  # noqa: E402


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def measure_operations(workload, seconds):
    import hostspeed
    import workloads

    cfg = workloads.metric_config()
    run.warm_up(cfg, workload.n, 0)
    workdir = run.OUT / f"calibrate-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    times, refs = [], []
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while time.perf_counter() - start < seconds:
                inp = workload.make_input(cfg, 0, 0, str(workdir))
                with hostspeed.Sampler(workload.n) as host:
                    t0 = time.perf_counter()
                    workload.operate(cfg, inp)
                    times.append(time.perf_counter() - t0 - host.handler_s)
                refs.append(host.reference_s())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return times, refs


def measure_setups(seconds):
    import setup_probe

    cmd = [sys.executable, str(run.HERE / "setup_probe.py"), str(run.SRC),
           str(setup_probe.SETUP_GRID), "0"]
    times, refs = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=run.SUBPROCESS_TIMEOUT_S)
        raw, ref = (float(x) for x in done.stdout.split())
        times.append(raw)
        refs.append(ref)
    return times, refs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES + ("setup",))
    parser.add_argument("--seconds", type=float, default=120.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads

    if args.workload == "setup":
        times, refs = measure_setups(args.seconds)
    else:
        times, refs = measure_operations(workloads.WORKLOADS[args.workload], args.seconds)
    beta = float(np.polyfit(np.log(refs), np.log(times), 1)[0])
    nominal = statistics.median(refs)
    scaled = [t * (nominal / r) ** beta for t, r in zip(times, refs)]
    print(f"{args.workload}: {len(times)} samples, median time {statistics.median(times):.4g} s")
    print(f"  CALIBRATION entry ({nominal:.3g}, {beta:.2f})  "
          f"spread raw {spread(times):.3f}  scaled {spread(scaled):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
