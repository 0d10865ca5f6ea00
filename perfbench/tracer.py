"""Per-layer tracing from outside the program.

The layers are the modules of ``planarham``.  Each traced function is
replaced by a wrapper at the place its caller looks it up (the modules
import each other's names, so one function can have several sites).
Coarse functions get a *span* (name, start, end, parent) kept in memory;
hot ones (``sample``, ``dp5_step``, ``Poly2.eval``, the compiled jet) are
only counted.  A layer's self time is the time of its spans minus the
time of their child spans.

``rk`` is not a layer of its own: its steps are counted per caller
(``trace``, ``compactify``, ``render``).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("cli", "expr", "field", "centers", "trace", "annulus",
          "compactify", "render")

# span name -> metric name of its total time
SPAN_METRICS = {
    "cli.load_map": "cli.load_map_s",
    "cli.schema": "cli.schema_s",
    "cli.svg": "cli.svg_s",
    "expr.compile": "expr.compile_s",
    "expr.grid": "expr.grid_s",
    "field.sign_scan": "field.sign_scan_s",
    "field.validate": "field.validate_s",
    "centers.search": "centers.search_s",
    "trace.certificate": "trace.certificate_s",
    "trace.start": "trace.start_s",
    "annulus.estimate_ell": "annulus.estimate_ell_s",
    "annulus.region": "annulus.region_s",
    "annulus.spotcheck": "annulus.spotcheck_s",
    "annulus.verdict": "annulus.verdict_s",
    "compactify.scan": "compactify.scan_s",
    "compactify.sectors": "compactify.sectors_s",
    "compactify.conti": "compactify.conti_s",
    "render.portrait": "render.portrait_s",
    "render.contour": "render.contour_s",
    "render.disc": "render.disc_s",
}

COUNT_METRICS = ("expr.jet_compiles", "expr.poly_evals", "field.sign_scans",
                 "field.validations", "field.samples", "trace.certificates",
                 "trace.steps", "annulus.probes", "compactify.fate_steps",
                 "render.flow_steps")


class Tracer:
    """Spans and counters; inert until ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trace_depth = 0              # open spans of the trace layer
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn: Callable, count: str | None = None,
             on_result: Callable | None = None) -> Callable:
        in_trace = name.startswith("trace.")

        def wrapped(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(rec)
            self._stack.append(idx)
            if in_trace:
                self._trace_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if in_trace:
                    self._trace_depth -= 1
            if count is not None:
                self.counts[count] += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapped

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapped(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def jet_compiler(self, compile_jet_pair: Callable) -> Callable:
        """Wrap ``compile_jet_pair``: time its cache misses, count jet calls."""
        counts = self.counts

        def counting_jet(jet):
            def call(x, y):
                if self.enabled:
                    counts["expr.jet_calls"] += 1
                    if self._trace_depth:
                        counts["trace.jet_calls"] += 1
                return jet(x, y)
            return call

        def wrapped(f1, f2):
            if not self.enabled:
                return compile_jet_pair(f1, f2)
            misses = compile_jet_pair.cache_info().misses
            t0 = time.perf_counter()
            jet = compile_jet_pair(f1, f2)
            if compile_jet_pair.cache_info().misses != misses:
                counts["expr.jet_compiles"] += 1
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(["expr.compile", t0, time.perf_counter(), parent])
            return counting_jet(jet)

        return wrapped

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr``; a name the program no longer has is skipped."""
        if not hasattr(owner, attr):
            return
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def open_root(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_root(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    # -- summaries ---------------------------------------------------------

    def span_totals(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, t0, t1, _ in self.spans:
            totals[name] += t1 - t0
        return totals

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time minus the time of child spans."""
        child: dict[int, float] = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (t1 - t0) - child[i]
        return out


def _on_search(tr: Tracer, result) -> None:
    _, stats = result
    tr.counts["centers.converged"] += stats.n_seeds - stats.n_singular - stats.n_diverged
    tr.counts["centers.seeds"] += stats.n_seeds


def _on_estimate(tr: Tracer, result) -> None:
    tr.counts["annulus.probes"] += len(result.probes)


def _on_orbit(tr: Tracer, result) -> None:
    tr.counts["trace.orbit_points"] += len(result.points)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer functions where their callers look them up."""
    import jsonschema

    from planarham import (annulus, centers, cli, compactify, corpus, expr,
                           field, render, trace)

    t = tracer
    t.patch(cli, "load_map", t.span("cli.load_map", cli.load_map))
    t.patch(jsonschema, "validate", t.span("cli.schema", jsonschema.validate))
    t.patch(cli, "_write_svg", t.span("cli.svg", cli._write_svg))

    jets = t.jet_compiler(expr.compile_jet_pair)
    for mod in (annulus, centers, corpus, expr, field, trace):
        t.patch(mod, "compile_jet_pair", jets)
    grid = t.span("expr.grid", expr.eval_grid)
    for mod in (annulus, render):
        t.patch(mod, "eval_grid", grid)
    t.patch(expr.Poly2, "eval", t.counter("expr.poly_evals", expr.Poly2.eval))

    t.patch(annulus, "jacobian_sign_change",
            t.span("field.sign_scan", field.jacobian_sign_change, count="field.sign_scans"))
    t.patch(field, "validate_hamiltonian",
            t.span("field.validate", field.validate_hamiltonian, count="field.validations"))
    samples = t.counter("field.samples", field.sample)
    for mod in (field, trace):
        t.patch(mod, "sample", samples)

    t.patch(cli, "search_zeros", t.span("centers.search", centers.search_zeros,
                                        on_result=_on_search))

    t.patch(annulus, "winding_certificate",
            t.span("trace.certificate", trace.winding_certificate,
                   count="trace.certificates"))
    start = t.span("trace.start", trace.level_start_point)
    for mod in (trace, annulus, render):
        t.patch(mod, "level_start_point", start)
    orbit = t.span("trace.orbit", trace.integrate_orbit, on_result=_on_orbit)
    for mod in (trace, render):
        t.patch(mod, "integrate_orbit", orbit)
    t.patch(trace, "dp5_step", t.counter("trace.steps", trace.dp5_step))

    t.patch(cli, "build_annulus_report",
            t.span("annulus.report", annulus.build_annulus_report))
    t.patch(annulus, "estimate_ell", t.span("annulus.estimate_ell", annulus.estimate_ell,
                                            on_result=_on_estimate))
    t.patch(annulus, "region", t.span("annulus.region", annulus.region))
    t.patch(annulus, "injectivity_spotcheck",
            t.span("annulus.spotcheck", annulus.injectivity_spotcheck))
    t.patch(annulus, "global_center_verdict",
            t.span("annulus.verdict", annulus.global_center_verdict))

    t.patch(cli, "compactification_for_map",
            t.span("compactify.build", compactify.compactification_for_map))
    t.patch(cli, "infinite_singularities",
            t.span("compactify.scan", compactify.infinite_singularities))
    t.patch(cli, "classify_sectors",
            t.span("compactify.sectors", compactify.classify_sectors))
    t.patch(cli, "conti_verdict", t.span("compactify.conti", compactify.conti_verdict))
    t.patch(compactify, "dp5_step", t.counter("compactify.fate_steps", compactify.dp5_step))

    t.patch(cli, "plane_portrait", t.span("render.portrait", render.plane_portrait))
    t.patch(render, "marching_squares", t.span("render.contour", render.marching_squares))
    t.patch(cli, "disc_portrait_for_map",
            t.span("render.disc", render.disc_portrait_for_map))
    t.patch(render, "dp5_step", t.counter("render.flow_steps", render.dp5_step))


def layer_metrics(tracer: Tracer, rounds: int, counts: Counter) -> dict[str, float]:
    """Per-round layer metrics from the recorded spans.

    Times are averaged over ``rounds`` traced rounds; ``counts`` are the
    counters of one traced round, which repeat exactly for a given seed.
    """
    totals = tracer.span_totals()
    out: dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        out[metric] = totals.get(span, 0.0) / rounds
    for name in COUNT_METRICS:
        out[name] = float(counts.get(name, 0))
    seeds = counts.get("centers.seeds", 0)
    out["centers.converged_ratio"] = counts.get("centers.converged", 0) / seeds if seeds else 0.0
    steps = counts.get("trace.steps", 0)
    out["trace.accept_ratio"] = counts.get("trace.orbit_points", 0) / steps if steps else 0.0
    out["trace.jet_evals_per_step"] = counts.get("trace.jet_calls", 0) / steps if steps else 0.0
    for layer, secs in tracer.self_times().items():
        out[f"self.{layer}_s"] = secs / rounds
    return out
