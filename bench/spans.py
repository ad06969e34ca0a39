"""Per-layer tracing of liouvol from the outside.

The tracer wraps public functions of each liouvol module in spans
(name, start, end, parent) and collects counters from their arguments and
return values. No library file changes: the wrapper replaces the function
in every ``liouvol.*`` namespace that binds it, so calls through imported
names such as ``flow.conformal_map_pair`` are caught too. Spans are kept in
memory and written out when the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

import importlib
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []                  # (name, start, end, parent, error)
        self.values = defaultdict(list)  # counter name -> recorded values
        self._stack = []

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, before=None, after=None, wrap_result=False):
        """``fn`` inside a span; ``before(tracer, args, kwargs)`` and
        ``after(tracer, result, args)`` run outside the span's interval."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, None))
            tracer._stack.append(idx)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, error)
            if after is not None:
                after(tracer, result, args)
            if wrap_result:
                result = tracer.wrap(name, result)
            return result
        return traced

    def wrap_untimed(self, fn, after):
        """``fn`` without a span, for counters only."""
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, result, args)
            return result
        return counted

    def self_times(self):
        """{span name: [self time in seconds per call]}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - covered[i])
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "span_names": names,
            "span_columns": ["name", "start_s", "end_s", "parent", "error"],
            "spans": [[index[n], s, e, p, err]
                      for n, s, e, p, err in self.spans],
            "counters": {k: [float(v) for v in vals]
                         for k, vals in self.values.items()},
        }
        Path(path).write_text(json.dumps(payload))


# -- hooks -------------------------------------------------------------------

def _record(name, of_result):
    def after(tracer, result, args):
        tracer.values[name].append(of_result(result))
    return after


def _solve_record(tracer, result, args):
    fmap, diag = result
    tracer.values["mapping.order"].append(fmap.order)
    tracer.values["mapping.residual"].append(diag.boundary_mismatch)


def _eval_points(tracer, args, kwargs):
    # args are (map, z): count points once per outermost evaluation, not
    # again in the evaluations nested inside it
    parent = tracer.parent_name()
    if parent is None or not parent.startswith("series."):
        tracer.values["series.eval_points"].append(np.size(args[1]))


def _straddling(tracer, args, kwargs):
    mesh_in, mesh_out, eps = args[:3]
    count = 0
    for mesh in (mesh_in, mesh_out):
        h = mesh.vertices[mesh.faces][..., 2]
        count += int(np.count_nonzero((h.min(axis=1) < eps)
                                      & (h.max(axis=1) > eps)))
    tracer.values["volume.straddling_faces"].append(count)


@dataclass(frozen=True)
class Hook:
    module: str                # liouvol submodule
    attr: str                  # function, Class.method or Class.classmethod
    span: str | None           # None: count without a span
    before: object = None
    after: object = None
    wrap_result: bool = False  # the result is a function: trace its calls too


_EVAL = dict(span="series.eval", before=_eval_points)

HOOKS = (
    Hook("cli", "main", "cli.main"),
    Hook("cli", "load_curve", "cli.load_curve"),
    Hook("cli", "ArtifactWriter.write_json", "cli.write",
         after=_record("cli.bytes_written", lambda p: p.stat().st_size)),
    Hook("cli", "ArtifactWriter.write_csv", "cli.write",
         after=_record("cli.bytes_written", lambda p: p.stat().st_size)),
    Hook("cli", "ArtifactWriter.finish", "cli.write",
         after=_record("cli.bytes_written", lambda p: p.stat().st_size)),
    Hook("curves", "CurveSpec.polar", "curves.polar", wrap_result=True),
    # the interior solver proper: interior_map hands series curves back as
    # they are, so only polylines and flow refits reach it
    Hook("mapping", "_interior_from_polar", "mapping.interior",
         after=_solve_record),
    Hook("mapping", "exterior_map", "mapping.exterior", after=_solve_record),
    Hook("mapping", "_solve_correspondence", None,
         after=_record("mapping.iterations", lambda r: r[1])),
    Hook("mapping", "conformal_map_pair", "mapping.map_pair"),
    Hook("mapping", "recenter_interior", "mapping.recenter"),
    Hook("mapping", "welding", "mapping.welding"),
    Hook("series", "PowerSeriesMap.__call__", **_EVAL),
    Hook("series", "PowerSeriesMap.eval_unchecked", **_EVAL),
    Hook("series", "PowerSeriesMap.jet", **_EVAL),
    Hook("series", "LaurentMap.__call__", **_EVAL),
    Hook("series", "LaurentMap.deriv_at", **_EVAL),
    Hook("series", "LaurentMap.jet", **_EVAL),
    Hook("series", "nonlinearity", **_EVAL),
    Hook("series", "schwarzian", **_EVAL),
    Hook("quadrature", "QuadratureGrid.disk", "quadrature.grid"),
    Hook("quadrature", "QuadratureGrid.exterior", "quadrature.grid"),
    Hook("action", "liouville_action", "action.liouville",
         after=_record("action.error_estimate", lambda r: r.error_estimate)),
    Hook("action", "grunsky_gap", "action.grunsky"),
    Hook("epstein", "mean_curvature_total", "epstein.mean_curvature"),
    Hook("meshing", "aligned_surface_meshes", "meshing.aligned",
         after=_record("meshing.faces",
                       lambda r: len(r[0].faces) + len(r[1].faces))),
    Hook("volume", "renormalized_volume", "volume.renormalized"),
    Hook("volume", "volume", "volume.volume"),
    Hook("volume", "truncated_volume", "volume.truncated",
         before=_straddling),
    Hook("volume", "richardson_extrapolate", "volume.richardson",
         after=_record("volume.extrapolation_error", lambda r: r[1])),
    Hook("flow", "run_flow", "flow.run",
         after=_record("flow.accepted", lambda r: len(r) - 1)),
    Hook("flow", "gradient_field", "flow.gradient",
         after=_record("flow.sup_norm", lambda r: r.sup_norm)),
    Hook("flow", "displacement_field", "flow.displacement"),
    Hook("flow", "beltrami_step", "flow.step"),
)


class Patches:
    """Installs the hooks on a tracer; ``restore`` puts the originals back."""

    def __init__(self, tracer, hooks=HOOKS):
        self._undo = []
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "liouvol" or name.startswith("liouvol.")]
        for hook in hooks:
            module = importlib.import_module(f"liouvol.{hook.module}")
            owner_name, _, attr = hook.attr.rpartition(".")
            if owner_name:
                self._patch_method(tracer, getattr(module, owner_name), attr,
                                   hook)
            else:
                self._patch_function(tracer, namespaces,
                                     getattr(module, attr), hook)

    def _wrap(self, tracer, fn, hook):
        if hook.span is None:
            return tracer.wrap_untimed(fn, hook.after)
        return tracer.wrap(hook.span, fn, hook.before, hook.after,
                           hook.wrap_result)

    def _patch_method(self, tracer, cls, attr, hook):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(tracer, raw.__func__, hook))
        else:
            new = self._wrap(tracer, raw, hook)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def _patch_function(self, tracer, namespaces, fn, hook):
        new = self._wrap(tracer, fn, hook)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, new)
                    self._undo.append((ns, key, fn))

    def restore(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# -- per-layer metrics -------------------------------------------------------
#
# Which end-to-end figure each layer should move, and on which workload
# (cpu_ms_per_op is per command on action_batch and identity, per accepted
# step on flow):
#   cli.*, quadrature.*, action.*, series.*,
#   mapping.interior/exterior/solve/order/iterations
#       -> cpu_ms_per_op on action_batch (action and grunsky latency);
#          series.* and mapping.* also on flow
#   curves.polar
#       -> cpu_ms_per_op on flow, and on the action_batch polyline twins
#   mapping.recenter/welding, epstein.*, meshing.*, volume.*
#       -> cpu_ms_per_op on identity; volume.extrapolation_error and
#          volume.straddling_faces also -> digits there
#   flow.*
#       -> cpu_ms_per_op on flow, and flow_s in the report

# span name -> name of its call count metric
TIMED = {
    "cli.load_curve": "cli.load_curve_calls",
    "cli.write": "cli.write_calls",
    "curves.polar": "curves.polar_calls",
    "mapping.interior": "mapping.interior_calls",
    "mapping.exterior": "mapping.exterior_calls",
    "mapping.recenter": "mapping.recenter_calls",
    "mapping.welding": "mapping.welding_calls",
    "series.eval": "series.eval_calls",
    "quadrature.grid": "quadrature.grid_builds",
    "action.liouville": "action.liouville_calls",
    "action.grunsky": "action.grunsky_calls",
    "epstein.mean_curvature": "epstein.mean_curvature_calls",
    "meshing.aligned": "meshing.aligned_calls",
    "volume.truncated": "volume.truncated_calls",
    "volume.richardson": "volume.richardson_calls",
    "flow.gradient": "flow.gradient_calls",
    "flow.displacement": "flow.displacement_calls",
    "flow.step": "flow.trials",
}

# metric name -> unit, for metrics that are not a TIMED pair
DERIVED = {
    "cli.bytes_written": "B",
    "mapping.solve_calls": "count",
    "mapping.order_max": "count",
    "mapping.iterations": "count",
    "mapping.residual_max": "1",
    "series.eval_points": "count",
    "action.error_estimate": "1",
    "meshing.faces": "count",
    "volume.straddling_faces": "count",
    "volume.extrapolation_error": "1",
    "flow.accepted": "count",
    "flow.accept_ratio": "1",
    "flow.sup_norm_max": "1",
    "flow.reject_deformation": "count",
    "flow.reject_refit": "count",
    "flow.reject_nonconvergence": "count",
    "flow.reject_no_decrease": "count",
    "trace.overhead_pct": "%",
}


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for span, calls in TIMED.items():
        units[f"{span}_ms"] = "ms"
        units[calls] = "count"
    units.update(DERIVED)
    return units


def layer_metrics(tracer, n_commands, overhead_pct):
    """Per-layer metrics of a traced run. ``*_ms`` is the median self time
    per call; counts are per CLI command; ``*_max`` and error estimates are
    the largest value seen."""
    selfs = tracer.self_times()
    vals = tracer.values
    per_cmd = 1.0 / n_commands
    m = {}
    for span, calls in TIMED.items():
        times = selfs.get(span, [])
        m[f"{span}_ms"] = 1e3 * statistics.median(times) if times else 0.0
        m[calls] = len(times) * per_cmd

    def errors(span, error, parent=None):
        return sum(1 for name, _, _, p, err in tracer.spans
                   if name == span and err == error
                   and (parent is None
                        or (p >= 0 and tracer.spans[p][0] == parent)))

    def mean(name):
        return statistics.fmean(vals[name]) if vals[name] else 0.0

    solves = len(selfs.get("mapping.interior", [])) \
        + len(selfs.get("mapping.exterior", []))
    trials = len(selfs.get("flow.step", []))
    accepted = sum(vals["flow.accepted"])
    deformation = errors("flow.step", "DeformationError")
    refit = errors("flow.step", "RefitError")
    nonconv = errors("mapping.map_pair", "NonConvergence", parent="flow.run")
    m.update({
        "cli.bytes_written": sum(vals["cli.bytes_written"]) * per_cmd,
        "mapping.solve_calls": solves * per_cmd,
        "mapping.order_max": max(vals["mapping.order"], default=0),
        "mapping.iterations": sum(vals["mapping.iterations"]) / solves
        if solves else 0.0,
        "mapping.residual_max": max(vals["mapping.residual"], default=0.0),
        "series.eval_points": sum(vals["series.eval_points"]) * per_cmd,
        "action.error_estimate": max(vals["action.error_estimate"],
                                     default=0.0),
        "meshing.faces": mean("meshing.faces"),
        "volume.straddling_faces": mean("volume.straddling_faces"),
        "volume.extrapolation_error": max(vals["volume.extrapolation_error"],
                                          default=0.0),
        "flow.accepted": accepted * per_cmd,
        "flow.accept_ratio": accepted / trials if trials else 0.0,
        "flow.sup_norm_max": max(vals["flow.sup_norm"], default=0.0),
        "flow.reject_deformation": deformation * per_cmd,
        "flow.reject_refit": refit * per_cmd,
        "flow.reject_nonconvergence": nonconv * per_cmd,
        "flow.reject_no_decrease": per_cmd * max(
            trials - accepted - deformation - refit - nonconv, 0),
        "trace.overhead_pct": overhead_pct,
    })
    units = metric_units()
    return {name: {"value": float(m[name]), "unit": units[name]}
            for name in units}
