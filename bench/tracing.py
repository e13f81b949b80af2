"""Spans around the public functions of each spantor module, for the traced run.

Each wrapper replaces a function where its caller binds it (for example
``spantor.cli.spanning_tree_count_exact`` and ``spantor.hp.spanning_tree_count_exact``
are wrapped separately), so only calls made through that name are recorded.
Spans live in memory as ``[layer, parent, start, end, counts]`` and are
handed back when the run ends; ``install`` returns an undo function that puts
every original back.  A binding that no longer exists is skipped and listed,
so the benchmark survives refactors that rename or delete functions.
"""

from __future__ import annotations

import functools
import importlib
import time


def _tree_counts(args, kwargs, result):
    value = getattr(result, "value", result)
    return {"vertices": args[0].vertex_count, "bits": int(value).bit_length()}


def _spectrum_counts(args, kwargs, result):
    return {"eigenvalues": len(result)}


def _quadrature_counts(args, kwargs, result):
    return {"evals": result.evaluations}


def _conjecture_counts(args, kwargs, result):
    asked = kwargs.get("min_dps", args[1] if len(args) > 1 else 60)
    return {"dps_used": result.dps_used, "dps_asked": asked}


# (module, attribute, layer, counter); a layer's self time excludes its children
BINDINGS = [
    ("spantor.cli", "main", "cli", None),
    ("spantor.cli", "spanning_tree_count_exact", "graphs.tree_count", _tree_counts),
    ("spantor.hp", "spanning_tree_count_exact", "graphs.tree_count", _tree_counts),
    *[(module, name, "graphs.spectrum", _spectrum_counts)
      for module in ("spantor.cli", "spantor.asym", "spantor.specfun")
      for name in ("circulant_spectrum", "torus_spectrum")],
    ("spantor.cli", "log_det_star", "graphs.log_det_star", None),
    ("spantor.asym", "log_det_star", "graphs.log_det_star", None),
    *[("spantor.asym", name, "quadrature", _quadrature_counts)
      for name in ("integrate_mellin", "integrate_mellin_head", "integrate_mellin_tail",
                   "integrate_log_endpoint")],
    ("spantor.cli", "bessel_i_scaled", "specfun.bessel", None),
    ("spantor.asym", "bessel_i_scaled", "specfun.bessel", None),
    ("spantor.asym", "bessel_multi_scaled", "specfun.bessel", None),
    ("spantor.cli", "theta_discrete_spectral", "specfun.theta", None),
    ("spantor.cli", "theta_discrete_bessel", "specfun.theta", None),
    ("spantor.asym", "theta_real_torus", "specfun.theta", None),
    ("spantor.asym", "theta_real_torus_minus_leading", "specfun.theta", None),
    *[(module, name, "asym.lead", None)
      for module in ("spantor.cli", "spantor.asym")
      for name in ("arccosh_lead", "lead_term_circulant", "c_d")],
    *[("spantor.cli", name, "asym.predict", None)
      for name in ("predict_circulant", "predict_torus_constant", "predict_torus_sublinear")],
    *[(module, name, "asym.epstein", None)
      for module in ("spantor.cli", "spantor.asym")
      for name in ("epstein_zeta_sum", "epstein_zeta_prime_zero")],
    ("spantor.hp", "log_det_star_circulant_hp", "hp.log_det", None),
    ("spantor.hp", "log_det_star_torus_hp", "hp.log_det", None),
    ("spantor.hp", "lead_term_circulant_hp", "hp.lead", None),
    ("spantor.hp", "lead_term_circulant_hp_quad", "hp.lead", None),
    ("spantor.hp", "circulant_residual_hp", "hp.residual", None),
    ("spantor.hp", "torus_constant_residual_hp", "hp.residual", None),
    ("spantor.hp", "verify_conjecture", "hp.conjecture", _conjecture_counts),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, layer: str) -> list:
        span = [layer, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def run(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of its own."""
        span = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, layer: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span[4] = counter(args, kwargs, result)
                except Exception:  # a changed signature must not fail the job
                    span[4] = {"count_errors": 1}
            return result
        return traced

    def count(self, key: str) -> None:
        """Add one to ``key`` on the innermost open span."""
        if self._stack:
            span = self.spans[self._stack[-1]]
            if span[4] is None:
                span[4] = {}
            span[4][key] = span[4].get(key, 0) + 1


class _CountingMpmath:
    """The mpmath namespace as seen by ``spantor.hp``, counting ``log`` calls."""

    def __init__(self, mp, tracer: Tracer):
        self._mp = mp
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._mp, name)

    def log(self, *args, **kwargs):
        self._tracer.count("terms")
        return self._mp.log(*args, **kwargs)


def install(tracer: Tracer):
    """Wrap every binding that exists; return (undo, list of missing bindings)."""
    saved, missing = [], []
    for module_name, attr, layer, counter in BINDINGS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(layer, original, counter))
    hp = importlib.import_module("spantor.hp")
    if hasattr(hp, "mp"):
        saved.append((hp, "mp", hp.mp))
        hp.mp = _CountingMpmath(hp.mp, tracer)

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo, missing


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(index)
    result = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][2]):
            lo, hi = max(spans[child][2], reach), min(spans[child][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summarize(spans: list[list]) -> dict:
    """Per-layer calls, self time, inclusive time and summed counts."""
    selfs = self_times(spans)
    layers: dict[str, dict] = {}
    for index, (layer, parent, start, end, counts) in enumerate(spans):
        entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        # inclusive time counts only the outermost span of a layer
        outer = parent
        while outer >= 0 and spans[outer][0] != layer:
            outer = spans[outer][1]
        if outer < 0:
            entry["incl_s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return layers
