"""In-memory span tracing around fracsob's public functions.

The tracer replaces each public function of the layer modules, in every
module namespace that holds it, with a wrapper that records one span:
(name, start, end, parent, attribute). Modules call each other through
their own globals (``fracsob.solvers.make_curve``,
``fracsob.operators.trig_interp``, ``fracsob.cli.exp_map``), so patching
those names catches every cross-module and same-module call without touching
the package's source. Nothing is written until the run ends.

layer_metrics() derives the per-layer figures from the spans of the traced
operations. Counts and times are per operation, averaged over the traced
operations; self time is a span's duration minus that of its direct
children.
"""

import functools
import gzip
import importlib
import json
import time
import types
from contextlib import contextmanager

import numpy as np

LAYERS = ("spectral", "curves", "symbols", "operators", "metric", "solvers", "checks", "cli")
WRITERS = ("solvers.path_to_csv", "solvers.path_to_json", "solvers.path_to_svg")


def _interp_bytes(args, kwargs, out, exc):
    points = args[0] if args else kwargs["points"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return int(np.size(points)) * int(n) * 16


def _text_bytes(args, kwargs, out, exc):
    return None if out is None else len(out)


def _drift(args, kwargs, out, exc):
    return None if out is None else float(out.energy_drift)


def _lm_iterations(args, kwargs, out, exc):
    result = out if out is not None else getattr(exc, "result", None)
    return None if result is None else int(result.iterations)


def _lines_failed(args, kwargs, out, exc):
    return None if out is None else sum(1 for r in out[0] if r.passed is False)


#: span attributes recorded at the boundary, keyed by span name
ATTRIBUTES = {
    "spectral.interp_matrix": _interp_bytes,
    "solvers.conservation_report": _drift,
    "solvers.geodesic_bvp": _lm_iterations,
    "checks.run_all": _lines_failed,
    **{name: _text_bytes for name in WRITERS},
}


class Tracer:
    """Records spans while installed; root spans come from span()."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = error = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, hook(args, kwargs, out, error) if hook else None)

        return traced

    def install(self):
        """Wrap every public function defined in the layer modules."""
        package = importlib.import_module("fracsob")
        modules = [importlib.import_module(f"fracsob.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self):
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one operation."""
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, parent, None)

    def write(self, path):
        """Dump names and spans as gzipped JSON: [name, start, end, parent, attr]."""
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "attr"],
            "spans": [[self.names[s[0]], *s[1:]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)


def layer_metrics(tracer):
    """Per-layer figures from the spans under the "bench.op" roots.

    Spans outside any operation (set-up, gates) count only where a metric
    says "anywhere".
    """
    names = tracer.names
    if not tracer.spans:
        raise ValueError("no spans recorded")
    nid = np.array([s[0] for s in tracer.spans], dtype=int)
    dur = np.array([s[2] - s[1] for s in tracer.spans])
    parent = np.array([s[3] for s in tracer.spans], dtype=int)
    attr = np.array([np.nan if s[4] is None else s[4] for s in tracer.spans], dtype=float)
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

    op_id = tracer._ids.get("bench.op", -1)
    is_root = nid == op_id
    op_of = np.full(len(nid), -1, dtype=int)
    for i in range(len(nid)):
        if is_root[i]:
            op_of[i] = i
        elif parent[i] >= 0:
            op_of[i] = op_of[parent[i]]
    in_op = (op_of >= 0) & ~is_root
    n_ops = max(int(is_root.sum()), 1)

    def ids(pred):
        return [i for i, name in enumerate(names) if pred(name)]

    def mask(*wanted, anywhere=False):
        m = np.isin(nid, ids(lambda name: name in wanted))
        return m if anywhere else m & in_op

    def layer(prefix):
        return np.isin(nid, ids(lambda name: name.startswith(prefix + "."))) & in_op

    def under(m, parent_name):
        return m & (parent_nid == tracer._ids.get(parent_name, -2))

    def per_op(values, m):
        return float(values[m].sum()) / n_ops

    def attrs(m):
        return float(np.nansum(attr[m])) / n_ops

    def median(m):
        return float(np.median(dur[m])) if m.any() else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    ones = np.ones(len(nid))
    make_curves = per_op(ones, mask("curves.make_curve"))
    interp = mask("spectral.interp_matrix")
    solves = per_op(ones, mask("operators.solve_conjugated"))
    exp_maps = mask("solvers.exp_map", "solvers.exp_map_spray")
    stages = per_op(ones, mask("curves.make_curve") & np.isin(
        parent_nid, ids(lambda name: name in ("solvers.exp_map", "solvers.exp_map_spray"))))
    drifts = attr[mask("solvers.conservation_report", anywhere=True)]
    drifts = drifts[np.isfinite(drifts)]
    top_level = in_op & is_root[np.maximum(parent, 0)] & has_parent
    op_time = float(dur[is_root].sum())

    return {
        "spectral.calls": per_op(ones, layer("spectral")),
        "spectral.self_s": per_op(self_s, layer("spectral")),
        "spectral.interp_matrix_calls": per_op(ones, interp),
        "spectral.interp_matrix_s": per_op(dur, interp),
        "spectral.interp_matrix_bytes": attrs(interp),
        "curves.make_curve_calls": make_curves,
        "curves.self_s": per_op(self_s, layer("curves")),
        "curves.interp_builds_per_curve": ratio(per_op(ones, interp), make_curves),
        "operators.apply_calls": per_op(ones, mask("operators.apply_conjugated")),
        "operators.apply_s": per_op(dur, mask("operators.apply_conjugated")),
        "operators.solve_calls": solves,
        "operators.solve_s": per_op(dur, mask("operators.solve_conjugated")),
        "operators.applies_per_solve": ratio(
            per_op(ones, under(mask("operators.apply_conjugated"), "operators.solve_conjugated")), solves),
        "operators.fd_derivative_calls": per_op(ones, mask("operators.operator_directional_derivative")),
        "metric.momentum_rhs_calls": per_op(ones, mask("metric.momentum_rhs")),
        "metric.self_s": per_op(self_s, layer("metric")),
        "metric.spray_calls": per_op(ones, mask("metric.spray")),
        "symbols.calls": per_op(ones, layer("symbols")),
        "symbols.self_s": per_op(self_s, layer("symbols")),
        "symbols.class_report_s": median(mask("symbols.class_report", anywhere=True)),
        "solvers.rk4_stages": stages,
        "solvers.rk4_stage_s": ratio(per_op(dur, exp_maps), stages),
        "solvers.shots": per_op(ones, under(mask("solvers.exp_map"), "solvers.geodesic_bvp")),
        "solvers.lm_iterations": attrs(mask("solvers.geodesic_bvp")),
        "solvers.energy_drift_max": float(drifts.max()) if drifts.size else 0.0,
        "solvers.conservation_report_s": median(mask("solvers.conservation_report", anywhere=True)),
        "solvers.writer_s": per_op(dur, mask(*WRITERS)),
        "solvers.writer_bytes": attrs(mask(*WRITERS)),
        "checks.self_s": per_op(self_s, layer("checks")),
        "checks.lines_failed": attrs(mask("checks.run_all")),
        "cli.self_s": per_op(self_s, layer("cli")),
        "trace.top_level_share": ratio(float(dur[top_level].sum()), op_time),
    }
