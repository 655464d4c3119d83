"""Command-line frontend: exp | match | check | symbols.

Configuration is a JSON file with blocks

    {
      "metric": {"family": "bessel_fractional", "r": 1.5, "alphas": [1.0], "d": 2},
      "grid":   {"N": 64},
      "solver": {"T": 1.0, "steps": 200, "stride": 1, "K": 8,
                 "max_iter": 50, "tol_rel": 1e-6, "damping": 1e-3},
      "io":     {"out_dir": "fracsob_out", "formats": ["csv", "json", "svg"]},
      "seed":   0
    }

Every block is optional; flags override config values, and the environment
variable FRACSOB_SEED overrides the configured seed (flags beat both).
Each subcommand takes only the flags it reads (_COMMAND_FLAGS).

Exit codes: 0 success, 1 configuration or usage errors, 2 solver failures,
3 invariant-suite failures.
"""

import argparse
import contextlib
import copy
import json
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import checks
from .curves import _is_number, make_curve, read_samples
from .errors import ConfigError, FracsobError, NoConvergenceError
from .metric import MetricConfig
from .solvers import MIN_STEPS, _svg_chunks, _text_chunks, conservation_report, exp_map, geodesic_bvp
from .symbols import (
    FAMILIES,
    LAMBDA_RANGE,
    bessel_fractional,
    class_report,
    constant_coefficient,
    scalar_derivative_values,
    scalar_values,
    scale_invariant,
    two_term_fractional,
)

DEFAULT_CONFIG = {
    "metric": {"family": "bessel_fractional", "r": 1.5, "alphas": [1.0], "d": 2},
    "grid": {},
    "solver": {
        "T": 1.0,
        "steps": 200,
        "stride": 1,
        "K": 8,
        "max_iter": 50,
        "tol_rel": 1e-6,
        "damping": 1e-3,
    },
    "io": {"out_dir": "fracsob_out", "formats": ["csv", "json", "svg"]},
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI invocation."""

    symbol: object
    metric: MetricConfig
    n: int
    solver: dict
    io: dict
    seed: int


def _expect(block, key, kind, path, default=None, required=False):
    name = f"{path}.{key}" if path else key
    if key not in block:
        if required:
            raise ConfigError(f"missing required key {name}")
        return default
    value = block[key]
    # int() and float() would read a string of digits and a boolean as 0 or
    # 1, and int() would truncate a fraction
    if kind is int and not (_is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ConfigError(f"key {name} must be an integer, got {value!r}")
    if kind is float and not _is_number(value):
        raise ConfigError(f"key {name} must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {name} has invalid value {value!r}: {exc}") from exc


def build_symbol(metric_block):
    """LambdaSymbol from the metric config block; errors name the bad key."""
    family = _expect(metric_block, "family", str, "metric", required=True)
    if family not in FAMILIES:
        raise ConfigError(f"key metric.family must be one of {FAMILIES[:4]}, got {family!r}")
    if family == "custom_table":
        raise ConfigError("key metric.family: custom_table symbols are available through the API only")
    d = _expect(metric_block, "d", int, "metric", default=2)
    alphas = metric_block.get("alphas")
    r = metric_block.get("r")
    # a string would be read one character at a time, a boolean as 0 or 1
    if alphas is not None and not (isinstance(alphas, (list, tuple)) and all(map(_is_number, alphas))):
        raise ConfigError(f"key metric.alphas must be a list of numbers, got {alphas!r}")
    if r is not None and not _is_number(r):
        raise ConfigError(f"key metric.r must be a number, got {r!r}")
    try:
        if family == "constant_coefficient" or family == "scale_invariant":
            if alphas is None:
                raise ConfigError(f"missing required key metric.alphas for {family}")
            alphas = [float(a) for a in alphas]
            if r is not None and float(r) != len(alphas) - 1:
                raise ConfigError(
                    f"key metric.r = {r} contradicts metric.alphas of degree {len(alphas) - 1}"
                )
            maker = constant_coefficient if family == "constant_coefficient" else scale_invariant
            return maker(alphas, dim=d)
        if r is None:
            raise ConfigError(f"missing required key metric.r for {family}")
        r = float(r)
        if family == "bessel_fractional":
            alpha0 = float(alphas[0]) if alphas else 1.0
            return bessel_fractional(r, alpha0, dim=d)
        if alphas is None or len(alphas) != 2:
            raise ConfigError("key metric.alphas must hold [alpha0, alpha1] for two_term_fractional")
        return two_term_fractional(r, float(alphas[0]), float(alphas[1]), dim=d)
    except FracsobError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"key metric: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key metric holds an invalid value: {exc}") from exc


def load_config(path=None, overrides=None, require_admissible=True):
    """Merge defaults, config file, FRACSOB_SEED, and flag overrides.

    The metric block does not inherit default keys once the user supplies
    one, so switching the family does not drag a stale default r along.
    With require_admissible=False the returned RunConfig carries metric=None
    for symbols that fail the admissibility verdicts (the check and symbols
    subcommands report on those instead of refusing them). n is None when
    neither --N nor grid.N gives one; exp and match take N from the curve.
    """
    user = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")

    data = copy.deepcopy(DEFAULT_CONFIG)
    metric_block = {}
    for block, value in user.items():
        # grid may be a bare N; these blocks must be objects
        if block in ("metric", "solver", "io") and not isinstance(value, dict):
            raise ConfigError(f"key {block} must be a JSON object")
        if block == "metric":
            metric_block.update(value)
        elif isinstance(value, dict) and isinstance(data.get(block), dict):
            data[block].update(value)
        else:
            data[block] = value
    env_seed = os.environ.get("FRACSOB_SEED")
    if env_seed is not None:
        try:
            data["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"FRACSOB_SEED must be an integer, got {env_seed!r}") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        block, _, leaf = key.partition(".")
        if block == "metric" and leaf:
            metric_block[leaf] = value
        elif leaf:
            data.setdefault(block, {})[leaf] = value
        else:
            data[key] = value
    if not metric_block:
        metric_block = copy.deepcopy(DEFAULT_CONFIG["metric"])
    metric_block.setdefault("d", 2)

    grid_block = data.get("grid")
    if not isinstance(grid_block, dict):
        grid_block = {"N": grid_block}
    n = _expect(grid_block, "N", int, "grid")
    if n is not None and (n < 8 or n % 2):
        raise ConfigError(f"key grid.N must be even and at least 8, got {n}")

    solver = data["solver"]
    for key in ("T", "tol_rel", "damping"):
        solver[key] = _expect(solver, key, float, "solver", required=True)
        # NaN fails every comparison, so the test is that the value lies in (0, inf)
        if not 0 < solver[key] < np.inf:
            raise ConfigError(f"key solver.{key} must be positive and finite, got {solver[key]}")
    for key, least in (("steps", MIN_STEPS), ("stride", 1), ("K", 0), ("max_iter", 0)):
        solver[key] = _expect(solver, key, int, "solver", required=True)
        if solver[key] < least:
            raise ConfigError(f"key solver.{key} must be at least {least}, got {solver[key]}")

    io_block = data["io"]
    formats = io_block.get("formats")
    if not isinstance(formats, (list, tuple)) or any(
        f not in ("csv", "json", "svg") for f in formats
    ):
        raise ConfigError(f"key io.formats must list csv/json/svg entries, got {formats!r}")

    symbol = build_symbol(metric_block)
    try:
        metric_cfg = MetricConfig(symbol)
    except FracsobError as exc:
        if require_admissible:
            raise ConfigError(f"key metric does not define an admissible metric: {exc}") from exc
        metric_cfg = None

    seed = _expect(data, "seed", int, "", default=0)
    return RunConfig(symbol=symbol, metric=metric_cfg, n=n, solver=solver,
                     io=io_block, seed=seed)


def _load_curve_file(path, expected=None, label="curve"):
    try:
        samples = read_samples(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {label} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label} file {path} is not valid JSON: {exc}") from exc
    except FracsobError as exc:
        raise ConfigError(f"{label} file {path}: {exc}") from exc
    if expected is not None and samples.shape != expected:
        raise ConfigError(
            f"{label} file {path} has shape {samples.shape}, expected {expected}"
        )
    return samples


def _curve_from_file(path, expected=None, label="curve"):
    samples = _load_curve_file(path, expected=expected, label=label)
    try:
        return make_curve(samples)
    except FracsobError as exc:
        raise ConfigError(f"{label} file {path}: {exc}") from exc


def _make_out_dir(cfg):
    """Create io.out_dir once the curve files pass and before any numerical
    work; ConfigError when it cannot be written."""
    out_dir = cfg.io["out_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out_dir!r} is not writable")


@contextlib.contextmanager
def _json_target(name):
    """The --json file opened for writing before any numerical work; None without --json."""
    if name is None:
        yield None
        return
    try:
        fh = open(name, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {name}: {exc}") from exc
    with fh:
        yield fh


def _write_path_artifacts(path_obj, cfg, stem):
    """The path's files in io.out_dir (made by _make_out_dir), written one frame at a time.

    path.csv and path.json are written together, from one formatting of
    each frame's floats.
    """
    out_dir = cfg.io["out_dir"]
    names = {fmt: os.path.join(out_dir, f"{stem}.{fmt}") for fmt in ("csv", "json", "svg") if fmt in cfg.io["formats"]}
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(names[fmt], "w", encoding="utf-8")) if fmt in names else None
                 for fmt in ("csv", "json")]
        for chunks in _text_chunks(path_obj) if any(files) else ():
            for fh, chunk in zip(files, chunks):
                if fh:
                    fh.write(chunk)
    if "svg" in names:
        with open(names["svg"], "w", encoding="utf-8") as fh:
            fh.writelines(_svg_chunks(path_obj))
    written = list(names.values())
    report = conservation_report(path_obj)
    name = os.path.join(out_dir, f"{stem}_conservation.json")
    payload = report.to_dict()
    payload["seed"] = cfg.seed
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    written.append(name)
    return written, report


def cmd_exp(args):
    cfg = load_config(args.config, _overrides(args))
    c0 = _curve_from_file(args.curve)
    h0 = _load_curve_file(args.velocity, expected=c0.samples.shape, label="velocity")
    _make_out_dir(cfg)
    path = exp_map(
        cfg.metric, c0, h0,
        T=cfg.solver["T"], steps=cfg.solver["steps"], stride=cfg.solver["stride"],
    )
    written, report = _write_path_artifacts(path, cfg, "path")
    print(f"integrated {cfg.solver['steps']} steps to T = {cfg.solver['T']}; "
          f"energy drift {report.energy_drift:.3e}")
    for name in written:
        print(f"wrote {name}")
    return 0


def cmd_match(args):
    cfg = load_config(args.config, _overrides(args))
    c0 = _curve_from_file(args.source, label="source")
    c1 = _curve_from_file(args.target, expected=c0.samples.shape, label="target")
    if 2 * cfg.solver["K"] + 1 > c0.n:
        raise ConfigError(f"key solver.K = {cfg.solver['K']} needs 2K+1 <= N, and the curves have N = {c0.n}")
    _make_out_dir(cfg)
    try:
        result = geodesic_bvp(
            cfg.metric, c0, c1,
            K=cfg.solver["K"], steps=cfg.solver["steps"], T=cfg.solver["T"],
            max_iter=cfg.solver["max_iter"], tol_rel=cfg.solver["tol_rel"],
            damping=cfg.solver["damping"],
        )
        failed = False
    except NoConvergenceError as exc:
        result = exc.result
        failed = True
    written, _ = _write_path_artifacts(result.path, cfg, "match_path")
    out_dir = cfg.io["out_dir"]
    name = os.path.join(out_dir, "match_result.json")
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "initial_velocity": np.asarray(result.initial_velocity).tolist(),
                "residual": result.residual,
                "iterations": result.iterations,
                "shots": result.shots,
                "integrations": result.integrations,
                "jacobians": result.jacobians,
                "damping": list(result.damping),
                "run_steps": list(result.run_steps),
                "converged": result.converged,
                "seed": cfg.seed,
            },
            fh,
        )
    written.append(name)
    status = "converged" if result.converged else "did not converge"
    print(f"shooting {status}: residual {result.residual:.3e} "
          f"after {result.iterations} iterations")
    for fname in written:
        print(f"wrote {fname}")
    return 2 if failed else 0


def cmd_check(args):
    cfg = load_config(args.config, _overrides(args), require_admissible=False)
    # an explicit --N (or config grid.N) overrides; otherwise the battery
    # runs on the fine grid its tightest operator tolerances need
    n = 256 if cfg.n is None else cfg.n
    with _json_target(args.json_out) as fh:
        results, extras = checks.run_all(cfg.symbol, n=n, seed=cfg.seed, with_flow=not args.no_flow)
        print(checks.summarize(results))
        if not args.dump_spray:
            extras.pop("spray_breakdown", None)
        if fh:
            fh.write(checks.results_to_json(results, extras))
            print(f"wrote {args.json_out}")
    return 0 if all(r.passed is not False for r in results) else 3


def cmd_symbols(args):
    cfg = load_config(args.config, _overrides(args), require_admissible=False)
    lo, hi = args.lambda_range
    if not 0.0 < lo <= hi < np.inf:
        raise ConfigError(f"--lambda-range must be a finite positive interval LO <= HI, got {lo} {hi}")
    # class_report's floor on the mode range
    if args.m_max < 8:
        raise ConfigError(f"--m-max must be at least 8, got {args.m_max}")
    if args.modes < 0:
        raise ConfigError(f"--modes must be at least 0, got {args.modes}")
    with _json_target(args.json_out) as fh:
        report = class_report(cfg.symbol, (lo, hi), m_max=args.m_max)
        ms = np.arange(-args.modes, args.modes + 1)
        table = {
            f"{lam:.6g}": {
                "values": scalar_values(cfg.symbol, lam, ms).tolist(),
                "derivative": scalar_derivative_values(cfg.symbol, lam, ms).tolist(),
            }
            for lam in report.lambdas
        }
        payload = {
            "class_report": report.to_dict(),
            "modes": ms.tolist(),
            "table": table,
            "seed": cfg.seed,
        }
        text = json.dumps(payload, indent=2)
        if fh:
            fh.write(text)
            print(f"wrote {args.json_out}")
        else:
            print(text)
    return 0


#: the override flags as add_argument keywords; each value lands on its config key (dest)
_FLAGS = {
    "--family": dict(dest="metric.family", help="metric family name"),
    "--r": dict(dest="metric.r", type=float, help="fractional order r"),
    "--alphas": dict(dest="metric.alphas", type=float, nargs="+", help="family coefficients"),
    "--seed": dict(dest="seed", type=int, help="seed for randomized checks"),
    "--N": dict(dest="grid.N", type=int, help="grid size"),
    "--T": dict(dest="solver.T", type=float, help="integration time"),
    "--steps": dict(dest="solver.steps", type=int, help="RK4 step count"),
    "--stride": dict(dest="solver.stride", type=int, help="frame storage stride"),
    "--K": dict(dest="solver.K", type=int, help="shooting mode truncation"),
    "--max-iter": dict(dest="solver.max_iter", type=int, help="shooting iteration cap"),
    "--tol-rel": dict(dest="solver.tol_rel", type=float, help="shooting relative tolerance"),
    "--out": dict(dest="io.out_dir", help="output directory"),
}

#: the override flags each subcommand reads, beyond the metric and the seed
_COMMAND_FLAGS = {
    "exp": ("--T", "--steps", "--stride", "--out"),
    "match": ("--T", "--steps", "--K", "--max-iter", "--tol-rel", "--out"),
    "check": ("--N",),
    "symbols": (),
}


def _overrides(args):
    return {spec["dest"]: getattr(args, spec["dest"], None) for spec in _FLAGS.values()}


def _add_overrides(parser, command, func):
    """The subcommand's handler, --config and override flags."""
    parser.set_defaults(func=func)
    parser.add_argument("--config", help="JSON configuration file")
    for flag in ("--family", "--r", "--alphas", "--seed") + _COMMAND_FLAGS[command]:
        parser.add_argument(flag, metavar=flag[2:].upper().replace("-", "_"), **_FLAGS[flag])


class _Parser(argparse.ArgumentParser):
    """Usage errors are ConfigErrors, exit code 1; argparse's own 2 means a solver failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="fracsob",
        description="Geodesics of reparametrization-invariant Sobolev metrics on closed curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exp", help="integrate a geodesic from a curve and velocity")
    p_exp.add_argument("--curve", required=True, help="initial curve JSON file")
    p_exp.add_argument("--velocity", required=True, help="initial velocity JSON file")
    _add_overrides(p_exp, "exp", cmd_exp)

    p_match = sub.add_parser("match", help="shoot for the geodesic between two curves")
    p_match.add_argument("--source", required=True, help="source curve JSON file")
    p_match.add_argument("--target", required=True, help="target curve JSON file")
    _add_overrides(p_match, "match", cmd_match)

    p_check = sub.add_parser("check", help="run the invariant battery")
    p_check.add_argument("--dump-spray", action="store_true",
                         help="include the spray term breakdown in JSON output")
    p_check.add_argument("--json", dest="json_out", help="write the report JSON here")
    p_check.add_argument("--no-flow", action="store_true", help="skip the flow checks")
    _add_overrides(p_check, "check", cmd_check)

    p_sym = sub.add_parser("symbols", help="dump symbol tables and the class report")
    p_sym.add_argument("--lambda-range", dest="lambda_range", type=float, nargs=2,
                       default=LAMBDA_RANGE, help="lambda interval to sample")
    p_sym.add_argument("--m-max", dest="m_max", type=int, default=256,
                       help="mode range for the class report")
    p_sym.add_argument("--modes", type=int, default=16, help="mode table half-width")
    p_sym.add_argument("--json", dest="json_out", help="write the dump here instead of stdout")
    _add_overrides(p_sym, "symbols", cmd_symbols)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FracsobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
