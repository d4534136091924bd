"""Module-boundary tracing for the traced benchmark pass.

The program itself has no tracing.  ``traced(tracer)`` replaces, for the span
of a ``with`` block, each traced function's attribute on the module that calls
it with a wrapper that records a span: name, start, end, parent, and counters
computed from arguments and results.  Every original attribute is put back on
exit, also when the block raises.  A function that a later engine removes or
renames is skipped and reported as missing, so the metrics built on it are
absent rather than an error.

Spans are kept in memory and written out when the run ends.  Spans recorded
inside worker processes stay in those processes and are lost; the stage split
of a multi-worker workload therefore comes from a single-worker pass.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    site: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counters: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans of one traced pass, in start order; ``stack`` holds open span ids."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    missing: set[str] = field(default_factory=set)

    def open(self, name: str, site: str) -> Span:
        s = Span(name, site, 0.0, parent=self.stack[-1] if self.stack else None)
        self.spans.append(s)
        self.stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, site: str = "bench"):
        s = self.open(name, site)
        try:
            yield s
        finally:
            self.close(s)

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "site": s.site, "start": s.start,
                                     "end": s.end, "parent": s.parent, "counters": s.counters}) + "\n")


# ---------------------------------------------------------------------------
# Counters computed at a boundary from the call's arguments and result
# ---------------------------------------------------------------------------


def _kernel_counters(bound, result):
    # rows x (2Z)^n grid cells, from the array shapes the kernel receives.
    C, Z = bound.arguments["C"], bound.arguments["Z"]
    rows, width = C.shape
    return {"rows": rows, "cells": rows * (2 * Z) ** (width - 1)}


def _samples_counter(bound, result):
    return {"samples": bound.arguments["samples"]}


def _rel_tail(bound, result):
    return {"rel_tail": result.tail / result.value}


def _rel_stderr(bound, result):
    return {"rel_stderr": result.stderr / result.mean}


def _prediction_rel_stderr(bound, result):
    return {"rel_stderr": result.C_stderr / result.C}


# (module whose attribute is replaced, attribute, span name, counters).  The
# span name is the layer that does the work; the module is the calling site,
# because `from .x import f` binds f in the importer.  arith.prime_table is
# wrapped where local_densities imports it, not in arith, where is_prime calls
# it once per prime (and a span there would cost more than the call).
BOUNDARIES: tuple[tuple[str, str, str, object], ...] = (
    ("cli", "count_points", "counting.count_points", None),
    ("cli", "mobius_count", "counting.mobius_count", None),
    ("cli", "predicted_constant", "assembly.predicted_constant", _prediction_rel_stderr),
    ("cli", "sigma_infty_components", "archimedean.sigma_infty_components", None),
    ("counting", "count_points", "counting.count_points", None),
    ("counting", "mobius_count", "counting.mobius_count", None),
    ("counting", "mobius_sieve", "arith.mobius_sieve", None),
    ("counting", "_exact_max_vectors", "counting.enumerate", None),
    ("counting", "_count_pair_block", "counting.pair_block", None),
    ("counting", "_kernel_rows", "counting.kernel", _kernel_counters),
    ("assembly", "predicted_constant", "assembly.predicted_constant", _prediction_rel_stderr),
    ("assembly", "euler_product", "local_densities.euler_product", _rel_tail),
    ("assembly", "sigma_infty_prime", "archimedean.sigma_infty_prime", _rel_stderr),
    ("local_densities", "euler_product", "local_densities.euler_product", _rel_tail),
    ("local_densities", "local_density", "local_densities.local_density", None),
    ("local_densities", "prime_table", "arith.prime_table", None),
    ("archimedean", "sigma_infty_prime", "archimedean.sigma_infty_prime", _rel_stderr),
    ("archimedean", "sigma_infty_components", "archimedean.sigma_infty_components", None),
    ("archimedean", "mc_sigma_diag", "archimedean.mc_sigma_diag", _samples_counter),
    ("archimedean", "mc_sigma1", "archimedean.mc_offdiag", _samples_counter),
    ("archimedean", "mc_sigma2", "archimedean.mc_offdiag", _samples_counter),
    ("arith", "mobius_sieve", "arith.mobius_sieve", None),
)


def _wrap(tracer: Tracer, fn, name: str, site: str, counters):
    sig = inspect.signature(fn) if counters else None

    # open/close rather than the span context manager: some boundaries are
    # crossed once per prime, and the generator would double the overhead.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        s = tracer.open(name, site)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(s)
        if counters:
            try:
                s.counters = counters(sig.bind(*args, **kwargs), result)
            except (KeyError, AttributeError, TypeError, ValueError, ZeroDivisionError):
                s.counters = None  # a changed signature or result drops the counter
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a span wrapper at every boundary; restore every attribute on exit."""
    saved = []
    try:
        for mod_name, attr, name, counters in BOUNDARIES:
            module = importlib.import_module(f"triprox.{mod_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                saved.append((module, attr, fn, name))
                setattr(module, attr, _wrap(tracer, fn, name, f"{mod_name}.{attr}", counters))
        # A span name is missing only when none of its boundaries exists.
        tracer.missing |= {b[2] for b in BOUNDARIES} - {entry[3] for entry in saved}
        yield tracer
    finally:
        for module, attr, fn, _ in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def span_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total seconds (outermost spans of that name only),
    self seconds (span minus its direct children) and summed counters."""
    child_s = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    stats: dict[str, dict] = {}
    for i, s in enumerate(tracer.spans):
        st = stats.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counters": {}})
        st["calls"] += 1
        st["self_s"] += s.seconds - child_s[i]
        if not _has_ancestor_named(tracer, s, s.name):
            st["s"] += s.seconds
        for key, value in (s.counters or {}).items():
            st["counters"][key] = st["counters"].get(key, 0) + value
    return stats


def _has_ancestor_named(tracer: Tracer, span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if tracer.spans[p].name == name:
            return True
        p = tracer.spans[p].parent
    return False


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, span name, statistic): "calls", "s", "self_s", a summed counter, or
# "mean:<counter>" for a ratio averaged over the spans that carry it.
SPAN_METRICS: tuple[tuple[str, str, str], ...] = (
    ("cli.self_s", "cli.main", "self_s"),
    ("counting.count_points.calls", "counting.count_points", "calls"),
    ("counting.count_points.s", "counting.count_points", "s"),
    ("counting.mobius_count.self_s", "counting.mobius_count", "self_s"),
    ("counting.enumerate.s", "counting.enumerate", "s"),
    ("counting.pair_block.calls", "counting.pair_block", "calls"),
    ("counting.pair_block.self_s", "counting.pair_block", "self_s"),
    ("counting.kernel.calls", "counting.kernel", "calls"),
    ("counting.kernel.rows", "counting.kernel", "rows"),
    ("counting.kernel.cells", "counting.kernel", "cells"),
    ("counting.kernel.s", "counting.kernel", "s"),
    ("arith.mobius_sieve.calls", "arith.mobius_sieve", "calls"),
    ("arith.mobius_sieve.s", "arith.mobius_sieve", "s"),
    ("arith.prime_table.s", "arith.prime_table", "s"),
    ("local_densities.euler_product.s", "local_densities.euler_product", "s"),
    ("local_densities.local_density.calls", "local_densities.local_density", "calls"),
    ("local_densities.euler_product.rel_tail", "local_densities.euler_product", "mean:rel_tail"),
    ("archimedean.sigma_infty_components.calls", "archimedean.sigma_infty_components", "calls"),
    ("archimedean.mc_sigma_diag.s", "archimedean.mc_sigma_diag", "s"),
    ("archimedean.mc_offdiag.s", "archimedean.mc_offdiag", "s"),
    ("archimedean.sigma_inf_prime.rel_stderr", "archimedean.sigma_infty_prime", "mean:rel_stderr"),
    ("assembly.predicted_constant.s", "assembly.predicted_constant", "s"),
    ("assembly.predicted_constant.self_s", "assembly.predicted_constant", "self_s"),
    ("assembly.predicted_constant.rel_stderr", "assembly.predicted_constant", "mean:rel_stderr"),
)

#: Metrics read at the main process's boundaries, so that a multi-worker
#: pass measures them even though its workers' spans are lost.
BOUNDARY_METRICS = (
    "cli.self_s",
    "counting.count_points.calls",
    "counting.count_points.s",
    "counting.mobius_count.self_s",
)


def _stat(stats: dict, span: str, stat: str):
    """One statistic of a span name; 0 when never called, None when unmeasurable."""
    st = stats.get(span)
    if st is None:
        return 0
    if stat in ("calls", "s", "self_s"):
        return st[stat]
    key = stat.removeprefix("mean:")
    if key not in st["counters"]:
        return None
    return st["counters"][key] / st["calls"] if stat.startswith("mean:") else st["counters"][key]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Span-derived per-layer metrics.  A metric whose function was missing,
    or whose counter could not be computed, is left out."""
    stats = span_stats(tracer)
    out: dict[str, float] = {}
    for metric, span, stat in SPAN_METRICS:
        if span in tracer.missing:
            continue
        value = _stat(stats, span, stat)
        if value is not None:
            out[metric] = value
    if not tracer.missing & {"archimedean.mc_sigma_diag", "archimedean.mc_offdiag"}:
        parts = [_stat(stats, span, "samples") for span in ("archimedean.mc_sigma_diag", "archimedean.mc_offdiag")]
        if None not in parts:
            out["archimedean.mc.samples"] = sum(parts)
    if "counting.kernel.calls" in out and "counting.pair_block.calls" in out:
        blocks = out["counting.pair_block.calls"]
        out["counting.kernel.calls_per_block"] = out["counting.kernel.calls"] / blocks if blocks else 0.0
    return out
