"""Outside-in layer trace of one needlecheck command.

The tracer wraps public functions of the needlecheck modules from outside,
by rebinding module attributes in the op's own child process; no program
code changes.  Two kinds of boundary are recorded:

- spans, around stage-level functions (table SPANS).  Spans nest; a span's
  self time is its duration minus the time of the spans it contains.  Every
  `_s` metric of a span is summed self time over the op.
- counters, around the hot per-point boundaries: the compiled evaluation
  kernels returned by `ExprAst.compiled` and `Trajectory.value/.deriv`.
  They are counted and timed, but they are not spans, so their time stays
  inside the self time of the stage that called them (a span per kernel
  call would cost more than the call).  Compiling an expression is a span
  (`exprs.compile_s`).

METRICS is the layer-to-metric map: for each per-layer metric, its layer,
the end-to-end metric it should move, and the workloads where the layer
does the most and the least work.
"""

import functools
import sys
import time
from collections import defaultdict
from typing import Dict

import numpy as np

# (module, function, metric): the function's spans add their self time to
# `metric`, and their number to `metric` without "_s" plus ".count".
SPANS = (
    ("cli", "main", "cli.self_s"),
    ("config", "load_config", "config.load_s"),
    ("config", "parse_config", "config.load_s"),
    ("config", "build_problem", "config.load_s"),
    ("config", "build_candidate", "config.load_s"),
    ("analysis", "full_report", "analysis.full_report_s"),
    ("analysis", "euler_stage", "analysis.euler_stage_s"),
    ("conditions", "weierstrass_scan", "conditions.weierstrass_scan_s"),
    ("analysis", "detect_degeneracy", "analysis.detect_degeneracy_s"),
    ("analysis", "theorem_5_1_check", "analysis.theorem_5_1_s"),
    ("analysis", "theorem_6_1_check", "analysis.theorem_6_1_s"),
    ("analysis", "theorem_6_2_check", "analysis.theorem_6_2_s"),
    ("increments", "verify_expansion", "increments.verify_expansion_s"),
    ("increments", "expansion_prediction", "increments.expansion_prediction_s"),
    ("increments", "delta_S_direct", "increments.delta_S_direct_s"),
    ("needle", "vary", "needle.vary_s"),
    ("problem", "integrate_L", "problem.integrate_L_s"),
    ("quadrature", "fit_expansion", "quadrature.fit_expansion_s"),
)

_SCAN = "convex5_verdict"
_NEEDLES = "sinh_needles"
_BUNDLED = "bundled_verdict"

# name, unit, better, layer, should move, most work, little work
METRICS = (
    ("kernel.calls", "count", "lower", "exprs", "op_s.p50", _SCAN, _NEEDLES),
    ("kernel.points", "count", "lower", "exprs", "op_s.p50", _SCAN, _NEEDLES),
    ("kernel.points_per_call", "points/call", "higher", "exprs",
     "op_s.p50 falls as it rises; peak_rss_mb may rise", _SCAN, _NEEDLES),
    ("kernel.s", "s", "lower", "exprs", "op_s.p50", _SCAN, _NEEDLES),
    ("exprs.compile.count", "count", "lower", "exprs", "op_s.p50",
     _NEEDLES, _SCAN),
    ("exprs.compile_s", "s", "lower", "exprs", "op_s.p50", _NEEDLES, _SCAN),
    ("exprs.compile.unique_ratio", "ratio", "higher", "exprs", "op_s.p50",
     _NEEDLES, _SCAN),
    ("trajectory.lookup.count", "count", "lower", "trajectory", "op_s.p50",
     _SCAN, _NEEDLES),
    ("trajectory.lookup_s", "s", "lower", "trajectory", "op_s.p50",
     _SCAN, _NEEDLES),
    ("config.load_s", "s", "lower", "config", "op_s.p50", _BUNDLED, _SCAN),
    ("cli.self_s", "s", "lower", "cli", "op_s.p50", _SCAN, _NEEDLES),
    ("analysis.full_report_s", "s", "lower", "analysis", "op_s.p50",
     _BUNDLED, _NEEDLES),
    ("analysis.euler_stage_s", "s", "lower", "analysis", "op_s.p50",
     _BUNDLED, _NEEDLES),
    ("conditions.weierstrass_scan_s", "s", "lower", "conditions", "op_s.p50",
     _SCAN, _NEEDLES),
    ("analysis.detect_degeneracy_s", "s", "lower", "analysis", "op_s.p50",
     _SCAN, _NEEDLES),
    ("analysis.theorem_5_1_s", "s", "lower", "analysis", "op_s.p50",
     _BUNDLED, _SCAN),
    ("analysis.theorem_6_1_s", "s", "lower", "analysis", "op_s.p50",
     _BUNDLED, _SCAN),
    ("analysis.theorem_6_2_s", "s", "lower", "analysis", "op_s.p50",
     _BUNDLED, _SCAN),
    ("increments.verify_expansion_s", "s", "lower", "increments", "op_s.p50",
     _NEEDLES, _SCAN),
    ("increments.expansion_prediction_s", "s", "lower", "increments",
     "op_s.p50", _NEEDLES, _SCAN),
    ("increments.delta_S_direct.count", "count", "lower", "increments",
     "op_s.p50", _NEEDLES, _SCAN),
    ("increments.delta_S_direct_s", "s", "lower", "increments", "op_s.p50",
     _NEEDLES, _SCAN),
    ("needle.vary_s", "s", "lower", "needle", "op_s.p50", _NEEDLES, _SCAN),
    ("problem.integrate_L.count", "count", "lower", "problem", "op_s.p50",
     _NEEDLES, _SCAN),
    ("problem.integrate_L_s", "s", "lower", "problem", "op_s.p50",
     _NEEDLES, _SCAN),
    ("quadrature.fit_expansion_s", "s", "lower", "quadrature", "op_s.p50",
     _NEEDLES, _SCAN),
    ("setup.numpy_s", "s", "lower", "import", "setup_s", "all", "all"),
    ("setup.click_s", "s", "lower", "import", "setup_s", "all", "all"),
    ("setup.needlecheck_s", "s", "lower", "import", "setup_s", "all", "all"),
    ("trace.op_s", "s", "lower", "trace", "none: traced op time", "all", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "trace",
     "none: traced over untraced op_s.p50", "all", "all"),
    ("fail_ratio", "ratio", "lower", "all",
     "none: ops contradicting the oracle", "all", "all"),
    ("xcheck_fail_ratio", "ratio", "lower", "increments",
     "none: cross-checks disagreeing with the truth", "all", "all"),
)


class Tracer:
    """Per-op spans and counters; install() once in the op's own process."""

    def __init__(self):
        self.times: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._sources = set()
        # time of finished child spans, one slot per open span plus the root
        self._inner = [0.0]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "needlecheck" or name.startswith("needlecheck.")]
        for mod_name, attr, metric in SPANS:
            orig = getattr(sys.modules[f"needlecheck.{mod_name}"], attr)
            wrapped = self._span(metric, orig)
            # rebind every name that refers to it, `from x import f` included
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        exprs = sys.modules["needlecheck.exprs"]
        traj = sys.modules["needlecheck.trajectory"].Trajectory
        exprs.ExprAst.compiled = self._compiled(exprs.ExprAst.compiled)
        traj.value = self._lookup(traj.value)
        traj.deriv = self._lookup(traj.deriv)

    def _span(self, metric: str, fn):
        times, counts, inner = self.times, self.counts, self._inner
        count_name = metric[:-2] + ".count"
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            inner.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                times[metric] += d - inner.pop()
                counts[count_name] += 1
                inner[-1] += d
        return span

    def _compiled(self, compiled):
        times, counts, inner = self.times, self.counts, self._inner
        kernel = self._kernel
        perf = time.perf_counter

        @functools.wraps(compiled)
        def wrapped(expr):
            if expr._compiled is not None:
                return expr._compiled
            t0 = perf()
            fn = compiled(expr)
            d = perf() - t0
            times["exprs.compile_s"] += d
            counts["exprs.compile.count"] += 1
            inner[-1] += d
            self._sources.add((expr.root.emit(), expr.variables))
            expr._compiled = kernel(fn)
            return expr._compiled
        return wrapped

    def _kernel(self, fn):
        times, counts = self.times, self.counts
        perf = time.perf_counter
        ndarray = np.ndarray

        def kernel(*args):
            t0 = perf()
            out = fn(*args)
            times["kernel.s"] += perf() - t0
            counts["kernel.calls"] += 1
            if type(out) is ndarray:
                counts["kernel.points"] += out.size
            else:  # a constant expression returns a scalar for array input
                counts["kernel.points"] += max(
                    (a.size for a in args if type(a) is ndarray), default=1)
            return out
        return kernel

    def _lookup(self, fn):
        times, counts = self.times, self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def lookup(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                times["trajectory.lookup_s"] += perf() - t0
                counts["trajectory.lookup.count"] += 1
        return lookup

    def op_metrics(self) -> Dict[str, Dict[str, float]]:
        """{"counts": ..., "times": ...} of the op traced so far."""
        counts = dict(self.counts, **{"exprs.compile.unique": len(self._sources)})
        return {"counts": counts, "times": dict(self.times)}
