"""fracsob benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload geodesic_n64 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each workload runs as a closed loop in this one process: one caller,
operations back to back, until the operations have taken --seconds of wall
time. Inputs come from the seed and are made outside the timed region, and
every operation's output is gated (gates.py). With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics, whose times are scaled
to the baseline host's speed (hostspeed.py); with --trace 1 it holds
the per-layer metrics, from a traced run of the same workload plus layer
micro-timings. A result file with provenance and per-operation records goes
to perfbench/out/, and in traced runs the spans go there too.
"""

import os

# pinned before numpy is imported, here and in every child process
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
os.environ.pop("FRACSOB_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("geodesic_n64", "geodesic_n512", "match_n64", "check_n256")
#: fresh-process set-up measurements per run, after one unmeasured warm-up
SETUP_REPEATS = 11
SUBPROCESS_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit():
    """HEAD of the repository root, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracsob").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "sizes": dataclasses.asdict(workload),
    }


def measure_setup(workload, seed):
    """Median host-scaled set-up time over fresh interpreters; the first run
    is discarded. Returns the median and the (raw, reference) samples."""
    import hostspeed

    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(workload.n), str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        samples.append(tuple(float(x) for x in done.stdout.strip().splitlines()[-1].split()))
    samples = samples[1:]
    return statistics.median(raw * hostspeed.scale("setup", ref) for raw, ref in samples), samples


def warm_up(cfg, n, seed):
    """Fill numpy's FFT plan cache and import-time state for grid n."""
    import hostspeed
    import workloads
    from fracsob import curves, operators

    samples, h = workloads.random_geodesic_start(workloads.input_rng(seed, n), n)
    c = curves.make_curve(samples)
    mu = operators.apply_conjugated(c, cfg.symbol, "identity", h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workloads.metric.momentum_rhs(cfg, c, operators.solve_conjugated(c, cfg.symbol, mu), ah=mu)
    for _ in range(20):
        hostspeed.reference(n)


def run_ops(workload, cfg, seed, seconds, workdir, tracer=None):
    """Closed loop: operations back to back until they have taken `seconds`.

    An untraced operation runs under a hostspeed.Sampler. Its record holds
    the wall time less the sampler's own time (``seconds``) and the median
    reference time during it (``reference_s``).
    """
    import gates
    import hostspeed
    from fracsob.errors import FracsobError, MeanResidualWarning

    records = []
    busy = 0.0
    index = 0
    while busy < seconds:
        inp = workload.make_input(cfg, seed, index, workdir)
        root = tracer.span("bench.op") if tracer else contextlib.nullcontext()
        host = None if tracer else hostspeed.Sampler(workload.n)
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with host or contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    with root:
                        out = workload.operate(cfg, inp)
                except Exception as exc:  # an operation that raises is a failed operation
                    error = exc
                dt = time.perf_counter() - t0 - (host.handler_s if host else 0.0)
        if error is None:
            with tracer.span("bench.gate") if tracer else contextlib.nullcontext():
                verdict = workload.gate(inp, out)
        else:
            verdict = gates.Verdict()
            message = f"raised {type(error).__name__}: {error}"
            (verdict.fail if isinstance(error, FracsobError) else verdict.contradict)(message)
            verdict.reasons.append("".join(traceback.format_exception(error)))
        records.append({
            "index": index,
            "seconds": dt,
            "reference_s": host.reference_s() if host else None,
            "reference_samples": len(host.samples) if host else 0,
            "failed": verdict.failed,
            "wrong": verdict.wrong,
            "reasons": verdict.reasons,
            "mean_residual_warnings": sum(
                1 for w in caught if issubclass(w.category, MeanResidualWarning)),
            "traced": tracer is not None,
        })
        busy += dt
        index += 1
    return records


def throughput(records, key="seconds"):
    return len(records) / sum(r[key] for r in records)


def run_workload(args):
    if not (SRC / "fracsob" / "__init__.py").is_file():
        print(f"error: no fracsob sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracsob

    if Path(fracsob.__file__).resolve().parent != (SRC / "fracsob").resolve():
        print(f"error: imported fracsob from {fracsob.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import micro
    import spans
    import surveys
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    prov = provenance(args, workload)
    setup_samples = []
    if args.trace == 0:
        setup_s, setup_samples = measure_setup(workload, args.seed)
    cfg = workloads.metric_config()
    warm_up(cfg, workload.n, args.seed)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    metrics = {}
    tracer = None
    survey_wrong = False
    try:
        if args.trace == 0:
            records = run_ops(workload, cfg, args.seed, args.seconds, str(workdir))
            for r in records:
                r["scaled_seconds"] = r["seconds"] * hostspeed.scale(workload.name, r["reference_s"])
            metrics = {
                "ops_per_s": throughput(records, "scaled_seconds"),
                "op_p50_s": statistics.median(r["scaled_seconds"] for r in records),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            half = args.seconds / 2.0
            plain = run_ops(workload, cfg, args.seed, half, str(workdir))
            tracer = spans.Tracer()
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    warm_up(workloads.metric_config(), workload.n, args.seed)
                traced = run_ops(workload, cfg, args.seed, half, str(workdir), tracer)
            finally:
                tracer.uninstall()
            records = plain + traced
            metrics = spans.layer_metrics(tracer)
            metrics["metric.mean_residual_warnings"] = statistics.fmean(
                r["mean_residual_warnings"] for r in traced)
            metrics["trace.overhead_share"] = 1.0 - throughput(traced) / throughput(plain)
            metrics["gates.fail_share"] = sum(r["failed"] for r in records) / len(records)
            metrics.update(micro.timings(cfg, args.seed))
            survey_metrics, survey_wrong = surveys.fail_shares(cfg)
            metrics.update(survey_metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(args.trace)
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": not (survey_wrong or any(r["wrong"] for r in records)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    wall = {"ops_per_s": throughput(records), "op_p50_s": statistics.median(
        r["seconds"] for r in records)} if args.trace == 0 else None
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "fail_share": failed / attempted,
                   "wall": wall, "setup_samples_s": setup_samples, "records": records},
                  fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json.gz")

    print(f"workload {workload.name}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    for r in records:
        status = "ok" if not r["failed"] else "FAILED " + r["reasons"][0].splitlines()[0]
        scaled = f"  scaled {r['scaled_seconds']:.3f} s" if "scaled_seconds" in r else ""
        print(f"  op {r['index']:3d}{' traced' if r['traced'] else ''}  {r['seconds']:.3f} s"
              f"{scaled}  {status}")
    print(f"  attempted {attempted}  failed {failed}  fail_share {failed / attempted:.4g}  "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if wall:
        print(f"  unscaled wall time: ops_per_s {wall['ops_per_s']:.6g} 1/s  "
              f"op_p50_s {wall['op_p50_s']:.6g} s")
    print(f"  result file {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(result))
    return 0


def metric_units(trace):
    """End-to-end (trace 0) or per-layer (trace 1) metric names and units, in
    the order BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]}


def run_all(args):
    """Every workload in its own process; prints one table of end-to-end metrics."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S + 4 * args.seconds)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}")
            status = 1
            continue
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        rows[name] = json.loads(lines[-1])
    print()
    metric_names = list(metric_units(args.trace))
    header = f"{'metric':40s}" + "".join(f"{name:>16s}" for name in rows)
    print(header)
    print(f"{'fail_share [ratio]':40s}" + "".join(
        f"{row['failed'] / row['attempted']:16.4g}" for row in rows.values()))
    for metric in metric_names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"] if rows else ""
        print(f"{metric + ' [' + unit + ']':40s}" + "".join(
            f"{row['metrics'][metric]['value']:16.6g}" for row in rows.values()))
    print(json.dumps(rows))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
