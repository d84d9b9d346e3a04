"""Per-layer tracing of slmfic from outside the package.

A :class:`Tracer` replaces, for the duration of a ``with tracer.installed()``
block, every attribute through which slmfic's callers look up a traced
function (module globals such as ``slmfic.simulate.fit_mle`` and class
attributes such as ``SpatialWeights.log_det_factor``) with a wrapper.  A span
layer records one span (name, start, end, parent, run id) per call; a count
layer only counts calls, because some of them (the log-determinant) are called
tens of thousands of times per unit of work and a span each would distort the
run.  Spans are held in flat arrays in memory and written out at exit.

The layers are the package's modules; ``submodels`` and ``errors`` do no
measurable work and are not traced.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
import time
from array import array

# (metric name, defining module, attribute path, kind)
LAYERS = (
    ("weights.from_adjacency", "slmfic.weights", "SpatialWeights.from_adjacency", "span"),
    ("weights.log_det_factor", "slmfic.weights", "SpatialWeights.log_det_factor", "count"),
    ("slm.fit_mle", "slmfic.slm", "fit_mle", "span"),
    ("slm.profile_beta", "slmfic.slm", "profile_beta", "span"),
    ("slm.full_loglik", "slmfic.slm", "full_loglik", "span"),
    ("focus.eval_focus", "slmfic.focus", "eval_focus", "span"),
    ("focus.jacobian_fd", "slmfic.focus", "jacobian_fd", "span"),
    ("focus.wide_beta_jacobian", "slmfic.focus", "wide_beta_jacobian", "count"),
    ("fic.fic_score", "slmfic.fic", "fic_score", "span"),
    ("fic.m_matrix", "slmfic.fic", "m_matrix", "span"),
    ("safic.safic_score", "slmfic.safic", "safic_score", "span"),
    ("safic.g_matrix", "slmfic.safic", "g_matrix", "span"),
    ("safic.rho_beta_blocks", "slmfic.safic", "rho_beta_blocks", "span"),
    ("safic.median_bandwidth", "slmfic.safic", "median_bandwidth", "span"),
    ("diagnostics.morans_i", "slmfic.diagnostics", "morans_i", "span"),
    ("diagnostics.aic", "slmfic.diagnostics", "aic", "count"),
    ("simulate.generate_dataset", "slmfic.simulate", "generate_dataset", "span"),
    ("simulate.monte_carlo", "slmfic.simulate", "monte_carlo", "span"),
    ("simulate.fic_table", "slmfic.simulate", "fic_table", "span"),
    ("simulate.safic_table", "slmfic.simulate", "safic_table", "span"),
    ("io.load_weights", "slmfic.io", "load_weights", "span"),
    ("io.load_dataset", "slmfic.io", "load_dataset", "span"),
    ("io.write_report", "slmfic.io", "write_report", "span"),
    ("io.run_report_to_json", "slmfic.io", "run_report_to_json", "span"),
    ("cli.main", "slmfic.cli", "main", "span"),
)

# ratio name -> (numerator layer, denominator layers summed, unit)
RATIOS = {
    "weights.log_det_per_fit": ("weights.log_det_factor", ("slm.fit_mle",), "calls/fit"),
    "slm.loglik_per_fit": ("slm.full_loglik", ("slm.fit_mle",), "calls/fit"),
    "slm.fits_per_subset": (
        "slm.fit_mle",
        ("fic.fic_score", "safic.safic_score", "diagnostics.aic"),
        "fits/subset",
    ),
    "focus.eval_per_subset": ("focus.eval_focus", ("fic.fic_score",), "calls/subset"),
}

NFEV = "slm.fit_mle.nfev"
OVERHEAD = "trace.overhead_frac"
RAW_WALL = "wall_raw_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name, _mod, _attr, kind in LAYERS:
        units[f"{name}.calls"] = "count"
        if kind == "span":
            units[f"{name}.busy_s"] = "s"
            units[f"{name}.self_s"] = "s"
        if name == "slm.fit_mle":
            units[NFEV] = "count"
    for name, (_num, _den, unit) in RATIOS.items():
        units[name] = unit
    units[OVERHEAD] = "ratio"
    units[RAW_WALL] = "s"
    return units


def _resolve(module: str, attr: str):
    """(owner, attribute name, raw attribute value) of a dotted attribute path."""
    owner = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    return owner, leaf, raw


class Tracer:
    """Span and call-count recorder for the layers in :data:`LAYERS`."""

    def __init__(self):
        self.names = [name for name, *_ in LAYERS]
        self.run_id = -1
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[int, list[int]] = {}  # run id -> calls per layer
        self.nfev: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def begin_unit(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts[run_id] = [0] * len(self.names)
        self.nfev[run_id] = 0

    def _span_wrapper(self, idx: int, fn):
        rec = self
        stack = self._stack
        clock = time.perf_counter
        name, parent, run = self.span_name, self.span_parent, self.span_run
        start, end = self.span_start, self.span_end
        count_nfev = self.names[idx] == "slm.fit_mle"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[rec.run_id][idx] += 1
            i = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            run.append(rec.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_nfev:
                rec.nfev[rec.run_id] += result.iterations
            return result

        return wrapper

    def _count_wrapper(self, idx: int, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[rec.run_id][idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site of every layer; restore them on exit."""
        patched = []
        try:
            for idx, (_name, module, attr, kind) in enumerate(LAYERS):
                owner, leaf, raw = _resolve(module, attr)
                make = self._span_wrapper if kind == "span" else self._count_wrapper
                if isinstance(raw, classmethod):
                    replacement = classmethod(make(idx, raw.__func__))
                    sites = [(owner, leaf)]
                elif isinstance(owner, type):
                    replacement = make(idx, raw)
                    sites = [(owner, leaf)]
                else:
                    # a module-level function: patch it wherever slmfic imported it
                    replacement = make(idx, raw)
                    sites = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name == "slmfic" or mod_name.startswith("slmfic.")
                        for key, value in list(vars(mod).items())
                        if value is raw
                    ]
                for site, key in sites:
                    patched.append((site, key, vars(site)[key]))
                    setattr(site, key, replacement)
            yield self
        finally:
            for site, key, original in reversed(patched):
                setattr(site, key, original)

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced unit of work.

        busy_s is a span's whole duration and self_s subtracts the time its
        direct child spans cover.  No traced function calls itself, so summing
        span durations per layer does not double count.
        """
        spans = [i for i in range(len(self.span_start)) if self.span_run[i] == run]
        dur = {i: self.span_end[i] - self.span_start[i] for i in spans}
        child = dict.fromkeys(spans, 0.0)
        for i in spans:
            if self.span_parent[i] >= 0:
                child[self.span_parent[i]] += dur[i]
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in spans:
            busy[self.span_name[i]] += dur[i]
            own[self.span_name[i]] += dur[i] - child[i]

        calls = dict(zip(self.names, self.counts[run]))
        metrics: dict[str, float] = {}
        for i, (name, _mod, _attr, kind) in enumerate(LAYERS):
            metrics[f"{name}.calls"] = calls[name]
            if kind == "span":
                metrics[f"{name}.busy_s"] = busy[i]
                metrics[f"{name}.self_s"] = own[i]
            if name == "slm.fit_mle":
                metrics[NFEV] = self.nfev[run]
        for name, (num, den, _unit) in RATIOS.items():
            base = sum(calls[d] for d in den)
            # a layer the workload never reaches has no ratio; report 0
            metrics[name] = calls[num] / base if base else 0.0
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "run"))
            for i in range(len(self.span_start)):
                out.writerow(
                    (
                        self.names[self.span_name[i]],
                        repr(self.span_start[i]),
                        repr(self.span_end[i]),
                        self.span_parent[i],
                        self.span_run[i],
                    )
                )
