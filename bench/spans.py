"""Span tracer for the traced benchmark run.

`Tracer.installed()` wraps the public functions listed in TARGETS from
outside the package: each wrapper replaces the function under every
name a `robustpanel` module binds it to (a module that did
`from .x import f` holds its own reference), records one span per call
(name, start, end, parent) plus per-call observations, and the
originals come back on exit.  tracemalloc slows every allocation (the
CSV read by more than 2x), so it stays off while spans are timed:
`probe_memory()` replays the largest call of `high_breakdown_init` and
of `read_panel_csv` afterwards with tracemalloc on.  Nothing under
`src/` changes.  `Tracer.metrics()` turns the spans into the per-layer
metrics named in PER_LAYER.
"""

import contextlib
import functools
import hashlib
import importlib
import inspect
import math
import statistics
import sys
import time
import tracemalloc

# Layer (module) -> the public functions timed in it.  The study drivers
# share the span name "simulation.driver": its self time is the study
# loop minus the wrapped functions it calls.
TARGETS = {
    "io": ("read_panel_csv", "write_weights_csv", "fit_report_json"),
    "panel": ("within_transform", "within_ls", "predict"),
    "scale": ("initial_scale", "mad_scale"),
    "losses": ("psi", "psi_prime", "rho", "weight"),
    "tuning": ("efficiency_factor", "select_c_grid", "xi", "esl_cov", "esl_select_c"),
    "estimators": ("irls_fit", "fit_mestimator", "high_breakdown_init", "fit_esl",
                   "sandwich_se", "fit_estimator"),
    "simulation": ("gen_panel", "contaminate", "gen_holdout_panel"),
    "cli": ("main",),
}
DRIVERS = ("run_mc", "rmse_prediction_study", "error_dist_study")
LAYERS = tuple(TARGETS)

HB = "estimators.high_breakdown_init"
SELECT = "tuning.esl_select_c"

# (metric name, unit, better).  "/op" is per measured operation, so runs
# with different operation counts compare; ms_p50/ms_p95 are per call.
PER_LAYER = [
    (HB + ".calls", "count/op", "lower"),
    (HB + ".self_s", "s/op", "lower"),
    (HB + ".ms_p50", "ms", "lower"),
    (HB + ".ms_p95", "ms", "lower"),
    (HB + ".peak_alloc_mb", "MB", "lower"),
    (HB + ".repeat_ratio", "ratio", "lower"),
    (SELECT + ".calls", "count/op", "lower"),
    (SELECT + ".self_s", "s/op", "lower"),
    (SELECT + ".ms_p50", "ms", "lower"),
    (SELECT + ".ms_p95", "ms", "lower"),
    (SELECT + ".grid_points", "count/op", "lower"),
    (SELECT + ".feasible_ratio", "ratio", "higher"),
    ("tuning.esl_cov.calls", "count/op", "lower"),
    ("tuning.esl_cov.per_select", "count", "lower"),
    ("tuning.esl_cov.defined_ratio", "ratio", "higher"),
    ("tuning.select_c_grid.calls", "count/op", "lower"),
    ("tuning.select_c_grid.self_s", "s/op", "lower"),
    ("tuning.efficiency_factor.calls", "count/op", "lower"),
    ("tuning.xi.calls", "count/op", "lower"),
    ("losses.psi.calls", "count/op", "lower"),
    ("losses.psi_prime.calls", "count/op", "lower"),
    ("losses.rho.calls", "count/op", "lower"),
    ("losses.weight.calls", "count/op", "lower"),
    ("estimators.irls_fit.calls", "count/op", "lower"),
    ("estimators.irls_fit.self_s", "s/op", "lower"),
    ("estimators.irls_fit.iterations_mean", "count", "lower"),
    ("estimators.irls_fit.nonconverged_ratio", "ratio", "lower"),
    ("estimators.fit_mestimator.self_s", "s/op", "lower"),
    ("estimators.fit_esl.self_s", "s/op", "lower"),
    ("estimators.fit_esl.outer_passes_mean", "count", "lower"),
    ("estimators.sandwich_se.self_s", "s/op", "lower"),
    ("estimators.fit_estimator.self_s", "s/op", "lower"),
    ("io.read_panel_csv.calls", "count/op", "lower"),
    ("io.read_panel_csv.self_s", "s/op", "lower"),
    ("io.read_panel_csv.rows_per_s", "1/s", "higher"),
    ("io.read_panel_csv.peak_alloc_mb", "MB", "lower"),
    ("io.write_weights_csv.self_s", "s/op", "lower"),
    ("io.fit_report_json.self_s", "s/op", "lower"),
    ("panel.within_transform.calls", "count/op", "lower"),
    ("panel.within_transform.self_s", "s/op", "lower"),
    ("panel.within_ls.calls", "count/op", "lower"),
    ("panel.within_ls.self_s", "s/op", "lower"),
    ("panel.predict.calls", "count/op", "lower"),
    ("panel.predict.self_s", "s/op", "lower"),
    ("scale.initial_scale.self_s", "s/op", "lower"),
    ("scale.mad_scale.self_s", "s/op", "lower"),
    ("simulation.gen_panel.self_s", "s/op", "lower"),
    ("simulation.contaminate.self_s", "s/op", "lower"),
    ("simulation.gen_holdout_panel.self_s", "s/op", "lower"),
    ("simulation.driver.self_s", "s/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
] + [(layer + ".self_s", "s/op", "lower") for layer in LAYERS] + [
    ("bench.traced_ops", "count", "higher"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
]


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_hb(tracer, fn, args, kwargs, result):
    """Count starts that repeat an earlier (centered panel, seed, subset
    count) of the same operation."""
    a = _bound_args(fn, args, kwargs)
    panel = a["panel"]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(type(panel).__name__.encode())
    digest.update(panel.y.tobytes())
    digest.update(panel.x.tobytes())
    digest.update(repr((panel.x.shape, a.get("seed"), a.get("n_subsamples"))).encode())
    key = digest.digest()
    if key in tracer.hb_keys:
        tracer.count("hb_repeats")
    tracer.hb_keys.add(key)
    tracer.keep_largest(HB, panel.y.size, fn, args, kwargs)


def _observe_irls(tracer, fn, args, kwargs, result):
    tracer.count("irls_iterations", result.iterations)
    tracer.count("irls_nonconverged", not result.converged)


def _observe_cov(tracer, fn, args, kwargs, result):
    tracer.count("cov_defined", bool(result[1]))


def _observe_select(tracer, fn, args, kwargs, result):
    detv = result.detv_values
    tracer.count("select_grid", len(detv))
    tracer.count("select_feasible", sum(1 for v in detv if not math.isnan(v)))


def _observe_read(tracer, fn, args, kwargs, result):
    tracer.count("read_rows", result.y.size)
    tracer.keep_largest("io.read_panel_csv", result.y.size, fn, args, kwargs)

OBSERVERS = {
    HB: _observe_hb,
    "estimators.irls_fit": _observe_irls,
    "tuning.esl_cov": _observe_cov,
    SELECT: _observe_select,
    "io.read_panel_csv": _observe_read,
}


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = {}
        self.hb_keys = set()
        self.largest = {}  # span name -> (input cells, function, args, kwargs)
        self.peak_bytes = {}
        self._stack = []  # indices of open spans

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def keep_largest(self, name, size, fn, args, kwargs):
        if size > self.largest.get(name, (-1,))[0]:
            self.largest[name] = (size, fn, args, kwargs)

    def probe_memory(self):
        """Peak traced allocation of each largest recorded call, replayed
        untimed with tracemalloc on."""
        for name, (_, fn, args, kwargs) in self.largest.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peak_bytes[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack:
                parent = self._stack[-1]
            else:  # a new operation: repeats count within one operation only
                parent = -1
                self.hb_keys.clear()
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the `with` body."""
        importlib.import_module("robustpanel.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "robustpanel" or n.startswith("robustpanel."))]
        plan = [(layer, fname, layer + "." + fname) for layer, names in TARGETS.items()
                for fname in names]
        plan += [("simulation", fname, "simulation.driver") for fname in DRIVERS]
        rebound = []
        for layer, fname, span in plan:
            original = getattr(sys.modules["robustpanel." + layer], fname, None)
            if original is None:  # gone from this version; its metrics read 0
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(rebound):
                setattr(module, attr, original)

    def write(self, path):
        """Write every span as CSV: name,start_s,end_s,parent (row index or -1)."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for span in self.spans:
                fh.write("%s,%r,%r,%d\n" % span)

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def metrics(self, n_ops):
        """Per-layer metrics over `n_ops` traced operations (bench.* excluded)."""
        calls, durations = {}, {}
        for name, start, end, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(end - start)
        esl_passes = sum(1 for name, _, _, parent in self.spans
                         if name == "estimators.irls_fit" and parent >= 0
                         and self.spans[parent][0] == "estimators.fit_esl")
        selfs = self.self_times()
        c = self.counts.get

        def ratio(num, den):
            return num / den if den else 0.0

        def ms_quantile(name, q):
            d = sorted(durations.get(name, ()))
            if not d:
                return 0.0
            return 1e3 * (statistics.median(d) if q == 0.5 else d[math.ceil(q * len(d)) - 1])

        m = {}
        for name, _, _ in PER_LAYER:
            span, stat = name.rsplit(".", 1)
            if span in LAYERS and stat == "self_s":
                m[name] = sum(v for k, v in selfs.items() if k.startswith(span + ".")) / n_ops
            elif stat == "calls":
                m[name] = calls.get(span, 0) / n_ops
            elif stat == "self_s":
                m[name] = selfs.get(span, 0.0) / n_ops
            elif stat in ("ms_p50", "ms_p95"):
                m[name] = ms_quantile(span, 0.5 if stat == "ms_p50" else 0.95)
            elif stat == "peak_alloc_mb":
                m[name] = self.peak_bytes.get(span, 0) / 2**20
        n_hb, n_sel = calls.get(HB, 0), calls.get(SELECT, 0)
        n_irls, n_cov = calls.get("estimators.irls_fit", 0), calls.get("tuning.esl_cov", 0)
        read_s = sum(durations.get("io.read_panel_csv", ()))
        m.update({
            HB + ".repeat_ratio": ratio(c("hb_repeats", 0), n_hb),
            SELECT + ".grid_points": c("select_grid", 0) / n_ops,
            SELECT + ".feasible_ratio": ratio(c("select_feasible", 0), c("select_grid", 0)),
            "tuning.esl_cov.per_select": ratio(n_cov, n_sel),
            "tuning.esl_cov.defined_ratio": ratio(c("cov_defined", 0), n_cov),
            "estimators.irls_fit.iterations_mean": ratio(c("irls_iterations", 0), n_irls),
            "estimators.irls_fit.nonconverged_ratio": ratio(c("irls_nonconverged", 0), n_irls),
            "estimators.fit_esl.outer_passes_mean":
                ratio(esl_passes, calls.get("estimators.fit_esl", 0)),
            "io.read_panel_csv.rows_per_s": ratio(c("read_rows", 0), read_s),
        })
        return m
