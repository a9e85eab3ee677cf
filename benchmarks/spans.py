"""Spans and per-layer counts for the traced run, recorded from outside
the program by wrapping its public functions.

`Tracer.install()` replaces every `relyamabe.*` module attribute that is
the same object as a traced function (the package re-exports functions
and `criterion`/`cli` import them by name, so one function can sit
under several names), and `HopfGrid.diff_ops` on the class.
`Tracer.remove()` puts every original back.

Spans are kept in memory as [name, start, end, parent, op] lists and
written out by the caller.  A span's self time is its duration minus
the durations of its direct children; spans nest because one client
runs in one thread.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import weakref
from collections import defaultdict

#: (module, attribute) of every traced function; "HopfGrid.diff_ops" is
#: patched on the class
TRACED = (
    ("lie_curvature", "su2_structure_constants"),
    ("lie_curvature", "curvature_report"),
    ("lie_curvature", "levi_civita"),
    ("criterion", "theorem1_check"),
    ("criterion", "berger_classify"),
    ("criterion", "berger_sweep"),
    ("criterion", "boundary_curve"),
    ("criterion", "scalar_sign_curve"),
    ("criterion", "corollary_path_check"),
    ("su2_chart", "chart_metric"),
    ("su2_chart", "HopfGrid.diff_ops"),
    ("su2_chart", "partial_derivatives"),
    ("su2_chart", "grad_sq"),
    ("su2_chart", "boundary_second_form"),
    ("conformal_energy", "rayleigh_quotient"),
    ("conformal_energy", "einstein_hilbert"),
    ("conformal_energy", "laplace_beltrami"),
    ("conformal_energy", "conformal_scalar"),
    ("conformal_energy", "neumann_residual"),
    ("yamabe_estimator", "estimate"),
    ("yamabe_estimator", "yamabe_property_probe"),
    ("cli", "main"),
    ("cli", "render_payload"),
)

#: per-layer metrics: name -> (unit, better); the traced run reports all
#: of them on every workload, 0 where the workload never calls the layer
LAYER_METRICS = {}
for _mod, _fn in TRACED:
    LAYER_METRICS[f"{_mod}.{_fn}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_mod}.{_fn}.self_s"] = ("s", "lower")
LAYER_METRICS.update({
    "lie_curvature.frames_per_report": ("ratio", "lower"),
    "criterion.berger_sweep.points": ("count", "lower"),
    "criterion.corollary_path_check.samples": ("count", "lower"),
    "su2_chart.chart_metric.cells": ("count", "lower"),
    "su2_chart.HopfGrid.diff_ops.builds": ("count", "lower"),
    "su2_chart.HopfGrid.diff_ops.nnz": ("count", "lower"),
    "yamabe_estimator.estimate.iterations": ("count", "lower"),
    "yamabe_estimator.estimate.converged_ratio": ("ratio", "higher"),
    "yamabe_estimator.yamabe_property_probe.trials": ("count", "lower"),
    "cli.render_payload.bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Tracer:
    """Wraps the traced functions while installed; records one span per
    call and the counts each layer's result reveals."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._grids: dict[int, tuple[weakref.ref, set]] = {}

    # --- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        self.spans, self.counts = [], defaultdict(float)
        self._grids.clear()

    # --- counts ------------------------------------------------------------

    def _count(self, name: str, args, kwargs, out) -> None:
        c = self.counts
        if name == "criterion.berger_sweep":
            c["criterion.berger_sweep.points"] += len(out)
        elif name == "criterion.corollary_path_check":
            c["criterion.corollary_path_check.samples"] += len(out.samples)
        elif name == "su2_chart.chart_metric":
            c["su2_chart.chart_metric.cells"] += out.grid.size
        elif name == "su2_chart.HopfGrid.diff_ops":
            # a build is the first call for a (grid object, width) pair:
            # the cache lives on the grid instance
            grid = args[0]
            width = args[1] if len(args) > 1 else kwargs.get("width", 3)
            ref, widths = self._grids.get(id(grid), (None, None))
            if ref is None or ref() is not grid:
                ref, widths = weakref.ref(grid), set()
                self._grids[id(grid)] = (ref, widths)
            if width not in widths:
                widths.add(width)
                c["su2_chart.HopfGrid.diff_ops.builds"] += 1
                c["su2_chart.HopfGrid.diff_ops.nnz"] += sum(m.nnz for m in out)
        elif name == "yamabe_estimator.estimate":
            c["yamabe_estimator.estimate.iterations"] += out.iterations_used
            c["yamabe_estimator.estimate.converged"] += bool(out.converged)
        elif name == "yamabe_estimator.yamabe_property_probe":
            c["yamabe_estimator.yamabe_property_probe.trials"] += out.n_trials
        elif name == "cli.render_payload":
            c["cli.render_payload.bytes"] += len(out.encode())

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            tracer._count(name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # --- install / remove ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "relyamabe" or k.startswith("relyamabe."))
        ]
        for mod_name, attr in TRACED:
            module = importlib.import_module(f"relyamabe.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def remove(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # --- per-layer summary ------------------------------------------------

    def layer_summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since the
        last reset (one traced pass)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out = {}
        for mod, fn in TRACED:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counts
        for key in (
            "criterion.berger_sweep.points",
            "criterion.corollary_path_check.samples",
            "su2_chart.chart_metric.cells",
            "su2_chart.HopfGrid.diff_ops.builds",
            "su2_chart.HopfGrid.diff_ops.nnz",
            "yamabe_estimator.estimate.iterations",
            "yamabe_estimator.yamabe_property_probe.trials",
            "cli.render_payload.bytes",
        ):
            out[key] = int(c[key])
        reports = calls["lie_curvature.curvature_report"]
        frames = calls["lie_curvature.su2_structure_constants"]
        out["lie_curvature.frames_per_report"] = frames / reports if reports else 0.0
        est = calls["yamabe_estimator.estimate"]
        out["yamabe_estimator.estimate.converged_ratio"] = (
            c["yamabe_estimator.estimate.converged"] / est if est else 0.0
        )
        return out


def median_summary(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes."""
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}


def nesting_problems(spans: list[list]) -> list[str]:
    """Every span lies inside its parent, and self time is at most total."""
    out = []
    child = [0.0] * len(spans)
    for i, (name, start, end, parent, op) in enumerate(spans):
        if end is None or end < start:
            out.append(f"span {i} ({name}) is not closed")
            continue
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]) or p[4] != op:
                out.append(f"span {i} ({name}) lies outside its parent {parent}")
            child[parent] += end - start
    for i, (name, start, end, parent, op) in enumerate(spans):
        if end is not None and child[i] > (end - start) + 1e-9:
            out.append(f"span {i} ({name}) has children longer than itself")
    return out
