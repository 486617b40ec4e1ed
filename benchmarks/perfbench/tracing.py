"""Span tracing of amvlab's layers, installed from outside the package.

The tracer replaces public functions and methods of each module with thin
wrappers that record a span (name, start, end, parent span, experiment id)
and, after the span has closed, the work counters of that call.  Nothing in
``src/amvlab`` is edited: a function is patched in every amvlab module
namespace that holds it, so callers that imported it by name are covered,
and a method is patched on the class that defines it, which covers every
caller.  Spans are kept in memory; ``Tracer.restore`` puts the original
objects back.

Counting runs after the span closes and is itself recorded as a
``trace.count`` span, so it is excluded from every layer's self time and
shows up in the tracing overhead instead.  Self time is a span's duration
minus the durations of its direct children; every wrapped call runs on the
calling thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

COUNT_SPAN = "trace.count"

# span name -> per-layer self-time metric it is added to
SELF_METRIC = {
    "kernels.euclid_dist_matrix": "kernels.euclid_dist_matrix.self_s",
    "kernels.carnot_dist_matrix": "kernels.carnot_dist_matrix.self_s",
    "kernels.cone_dist_matrix": "kernels.cone_dist_matrix.self_s",
    "kernels.gauge_fourth": "kernels.gauge_fourth.self_s",
    "models.cloud": "models.cloud.self_s",
    "models._symmetrized": "models.cloud.self_s",
    "models.sample_ball": "models.sample_ball.self_s",
    "carnot.multiply": "carnot.multiply.self_s",
    "carnot.gauge_value": "carnot.gauge_value.self_s",
    "fields.value": "fields.value.self_s",
    "mmspace.FiniteMMSpace": "mmspace.FiniteMMSpace.self_s",
    "mmspace.average": "mmspace.average.self_s",
    "mmspace.adjoint_average": "mmspace.adjoint_average.self_s",
    "mmspace.ball_masses": "mmspace.ball_masses.self_s",
    "mmspace.sym_r_laplacian": "mmspace.sym_r_laplacian.self_s",
    "mmspace.kernel_matrix": "mmspace.kernel_matrix.self_s",
    "mmspace.identity_residuals": "mmspace.identity_residuals.self_s",
    "mmspace.run_identity_suite": "mmspace.run_identity_suite.self_s",
    "mmspace.load_space": "mmspace.load_space.self_s",
    "mmspace.save_space": "mmspace.save_space.self_s",
    "integrate.mean_over_ball": "integrate.mean_over_ball.self_s",
    "integrate.isotropy_check": "integrate.mean_over_ball.self_s",
    "integrate.quadrature": "integrate.quadrature.self_s",
    "experiments.sweep": "experiments.sweep.self_s",
    "experiments.fit_tail": "experiments.fit_tail.self_s",
    "dirichlet.solve": "dirichlet.solve.self_s",
    "dirichlet.residual": "dirichlet.residual.self_s",
    "cli": "cli.self_s",
    "cli.parse": "cli.self_s",
    "cli.reference": "cli.self_s",
    "cli.report": "cli.self_s",
}

# self time of the root "cli" spans alone: subcommand glue outside parsing,
# the auto-reference, report writing and every wrapped layer.  A layer
# called from the CLI whose wrapper is missing lands here.
UNWRAPPED_METRIC = "cli.unwrapped_s"

# counters kept by the wrappers, reported under these names
COUNT_METRICS = (
    "kernels.pairs",
    "kernels.gauge_points",
    "models.cloud.points",
    "models.sample_ball.samples",
    "fields.points",
    "mmspace.op_calls",
    "mmspace.pairs_scanned",
    "mmspace.ball_pairs",
    "mmspace.dense_bytes",
    "mmspace.load_space.bytes",
    "integrate.mc_samples",
    "integrate.grid_nodes",
    "experiments.radii",
    "dirichlet.solve.interior_points",
    "dirichlet.solve.cg_calls",
)

# unit of every per-layer metric a traced run reports
UNITS = {name: "s" for name in SELF_METRIC.values()}
UNITS.update({name: "count" for name in COUNT_METRICS})
UNITS.update({
    "mmspace.dense_bytes": "bytes",
    "mmspace.load_space.bytes": "bytes",
    "kernels.bytes_written": "bytes",
    "kernels.thread_speedup": "ratio",
    "models.sample_ball.acceptance": "ratio",
    "mmspace.ball_density": "ratio",
    "integrate.samples_per_s": "1/s",
    "integrate.rel_std_error": "ratio",
    "cli.report_bytes": "bytes",
    UNWRAPPED_METRIC: "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.count_s": "s",
    "trace.coverage": "ratio",
})

_KERNELS = (
    ("euclid_dist_matrix", "kernels.pairs"),
    ("carnot_dist_matrix", "kernels.pairs"),
    ("cone_dist_matrix", "kernels.pairs"),
    ("gauge_fourth", "kernels.gauge_points"),
)
_MMSPACE_OPS = ("average", "adjoint_average", "ball_masses", "sym_r_laplacian", "kernel_matrix")
_SWEEPS = ("amv_sweep", "strong_amv_scan", "weak_amv_sweep", "sym_vs_plain_sweep", "mm_boundary_sweep")
_CLOUDS = ("euclidean_cloud", "half_space_cloud", "cone_cloud", "carnot_ball_cloud")


class Tracer:
    """In-memory span recorder plus the counters the wrappers keep."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, experiment id]
        self.stack = []
        self.counts = defaultdict(float)
        self.experiment = ""
        self._patches = []
        self._gauge_sampling = set()  # sample_ball span indices that evaluated a gauge
        self._ball_pairs_cache = (None, None, 0)
        self.largest_kernel = None  # (output entries, function, bound arguments)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.experiment])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def root(self, name, fn, *args):
        """Run fn(*args) inside a span that has no wrapped caller."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def start_experiment(self, exp_id):
        self.experiment = exp_id
        self._ball_pairs_cache = (None, None, 0)

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        self._gauge_sampling = set()
        self._ball_pairs_cache = (None, None, 0)
        return spans, counts

    # -- patching ----------------------------------------------------------

    def _wrapper(self, orig, name, counter):
        sig = inspect.signature(orig) if counter is not None else None
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                c0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, idx, bound.arguments, result)
                tracer.spans.append(
                    [COUNT_SPAN, c0, time.perf_counter(), tracer.spans[idx][3], tracer.experiment]
                )
            return result

        return traced

    def wrap_function(self, module, attr, name, counter=None):
        """Patch module.attr, and every amvlab namespace that imported it."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = self._wrapper(orig, name, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "amvlab" or mod_name.startswith("amvlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    def wrap_method(self, cls, attr, name, counter=None):
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        setattr(cls, attr, self._wrapper(orig, name, counter))
        self._patches.append((cls, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- counters ----------------------------------------------------------

    def _span_name(self, idx):
        return self.spans[idx][0] if idx >= 0 else ""

    def _note_kernel(self, fn, args, entries):
        if self.largest_kernel is None or entries > self.largest_kernel[0]:
            self.largest_kernel = (entries, fn, dict(args))

    def _ball_pairs(self, dist, r):
        cached_dist, cached_r, count = self._ball_pairs_cache
        if cached_dist is not dist or cached_r != r:
            count = int(np.count_nonzero(dist < r))
            self._ball_pairs_cache = (dist, r, count)
        return count


# ---------------------------------------------------------------------------
# counter callbacks: (tracer, own span index, bound arguments, result)
# ---------------------------------------------------------------------------


def _kernel(counter_name, fn):
    def count(t, idx, args, out):
        t.counts[counter_name] += out.size
        t._note_kernel(fn, args, out.size)

    return count


def _cloud(t, idx, args, result):
    t.counts["models.cloud.points"] += result[1].shape[0]


def _sample_ball(t, idx, args, result):
    t.counts["models.sample_ball.samples"] += result.shape[0]
    if idx in t._gauge_sampling:
        t.counts["models.sample_ball.gauge_samples"] += result.shape[0]


def _gauge_value(t, idx, args, result):
    parent = t.spans[idx][3]
    if t._span_name(parent) == "models.sample_ball":
        t._gauge_sampling.add(parent)
        t.counts["models.sample_ball.candidates"] += np.size(result)


def _field_value(t, idx, args, result):
    if t._span_name(t.spans[idx][3]) != "fields.value":
        t.counts["fields.points"] += np.size(result)


def _finite_space(t, idx, args, result):
    n = args["self"].n
    t.counts["mmspace.dense_bytes"] += 8 * n * n


def _mmspace_op(t, idx, args, result):
    space = args["space"]
    t.counts["mmspace.op_calls"] += 1
    t.counts["mmspace.pairs_scanned"] += space.n * space.n
    t.counts["mmspace.ball_pairs"] += t._ball_pairs(space.dist, float(args["r"]))


def _load_space(t, idx, args, result):
    src = args["path_or_file"]
    if isinstance(src, (str, os.PathLike)):
        t.counts["mmspace.load_space.bytes"] += os.path.getsize(src)


def _estimator(t, idx, args, result):
    scheme = args["scheme"]
    if hasattr(scheme, "seed"):  # an MCScheme; a GridScheme carries only res
        span = t.spans[idx]
        t.counts["integrate.mc_samples"] += scheme.n
        t.counts["integrate.mc_seconds"] += span[2] - span[1]


def _quadrature(t, idx, args, result):
    if t._span_name(t.spans[idx][3]) != "integrate.quadrature":
        t.counts["integrate.grid_nodes"] += result[1].size


def _sweep(t, idx, args, result):
    t.counts["experiments.radii"] += len(result.radii)


def _solve(t, idx, args, result):
    interior = args["part"].interior.size
    t.counts["dirichlet.solve.interior_points"] += interior
    if interior > args["dense_cutoff"]:
        t.counts["dirichlet.solve.cg_calls"] += 1


def install(tracer):
    """Wrap the public functions of every amvlab module on this tracer."""
    from amvlab import (
        _kernels, carnot, cli, dirichlet, experiments, fields, integrate, mmspace, models,
    )

    for attr, counter_name in _KERNELS:
        fn = getattr(_kernels, attr, None)
        if fn is not None:
            tracer.wrap_function(_kernels, attr, f"kernels.{attr}", _kernel(counter_name, fn))

    for attr in _CLOUDS:
        tracer.wrap_function(models, attr, "models.cloud", _cloud)
    tracer.wrap_function(models, "_symmetrized", "models._symmetrized")
    for cls in _classes(models, "sample_ball"):
        tracer.wrap_method(cls, "sample_ball", "models.sample_ball", _sample_ball)

    tracer.wrap_method(carnot.CarnotStep2, "multiply", "carnot.multiply")
    for cls in _classes(carnot, "value"):
        tracer.wrap_method(cls, "value", "carnot.gauge_value", _gauge_value)
    for cls in _classes(fields, "value"):
        tracer.wrap_method(cls, "value", "fields.value", _field_value)

    tracer.wrap_method(mmspace.FiniteMMSpace, "__init__", "mmspace.FiniteMMSpace", _finite_space)
    for attr in _MMSPACE_OPS:
        tracer.wrap_function(mmspace, attr, f"mmspace.{attr}", _mmspace_op)
    tracer.wrap_function(mmspace, "identity_residuals", "mmspace.identity_residuals")
    tracer.wrap_function(mmspace, "run_identity_suite", "mmspace.run_identity_suite")
    tracer.wrap_function(mmspace, "load_space", "mmspace.load_space", _load_space)
    tracer.wrap_function(mmspace, "save_space", "mmspace.save_space")

    tracer.wrap_function(integrate, "mean_over_ball", "integrate.mean_over_ball", _estimator)
    tracer.wrap_function(integrate, "isotropy_check", "integrate.isotropy_check", _estimator)
    for attr in ("euclid_ball_quadrature", "carnot_ball_quadrature"):
        tracer.wrap_function(integrate, attr, "integrate.quadrature", _quadrature)

    for attr in _SWEEPS:
        tracer.wrap_function(experiments, attr, "experiments.sweep", _sweep)
    tracer.wrap_function(dirichlet, "bpz_demo", "experiments.sweep", _sweep)
    tracer.wrap_function(experiments, "fit_tail", "experiments.fit_tail")

    tracer.wrap_function(dirichlet, "solve", "dirichlet.solve", _solve)
    tracer.wrap_function(dirichlet, "residual", "dirichlet.residual")

    tracer.wrap_function(cli, "make_parser", "cli.parse")
    tracer.wrap_function(cli, "_auto_reference", "cli.reference")
    tracer.wrap_function(cli, "_write_report", "cli.report")


def _classes(module, attr):
    """Classes of module that define attr themselves (not by inheritance)."""
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and attr in obj.__dict__
    ]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass, from its spans and counters."""
    out = {name: 0.0 for name in set(SELF_METRIC.values())}
    out[UNWRAPPED_METRIC] = 0.0
    count_s = 0.0
    for span, own in zip(spans, self_times(spans)):
        metric = SELF_METRIC.get(span[0])
        if metric is not None:
            out[metric] += own
        elif span[0] == COUNT_SPAN:
            count_s += own
        if span[0] == "cli":
            out[UNWRAPPED_METRIC] += own
    for name in COUNT_METRICS:
        out[name] = float(counts.get(name, 0.0))
    out["kernels.bytes_written"] = 8.0 * (out["kernels.pairs"] + out["kernels.gauge_points"])
    out["models.sample_ball.acceptance"] = _ratio(
        counts.get("models.sample_ball.gauge_samples", 0.0),
        counts.get("models.sample_ball.candidates", 0.0),
    )
    out["mmspace.ball_density"] = _ratio(out["mmspace.ball_pairs"], out["mmspace.pairs_scanned"])
    out["integrate.samples_per_s"] = _ratio(
        out["integrate.mc_samples"], counts.get("integrate.mc_seconds", 0.0)
    )
    layer_sum = sum(v for k, v in out.items() if k.endswith(".self_s"))
    return out, layer_sum, count_s


def _ratio(num, den):
    """num / den, or 0 when the layer did no such work on this workload."""
    return float(num) / float(den) if den else 0.0


def experiment_self_times(spans, experiment):
    """Self time per span name, and inclusive durations, for one experiment."""
    own_by_name = defaultdict(float)
    durations = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        if span[4] == experiment:
            own_by_name[span[0]] += own
            durations[span[0]].append(span[2] - span[1])
    return own_by_name, durations


def write_spans(spans, path):
    """Write spans as tab-separated lines: name, start, end, parent, experiment."""
    with open(path, "w") as f:
        f.write("name\tstart_s\tend_s\tparent\texperiment\n")
        t0 = spans[0][1] if spans else 0.0
        for name, start, end, parent, exp in spans:
            f.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{exp}\n")
