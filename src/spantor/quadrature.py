"""Adaptive quadrature for the Mellin-style and log-endpoint integrals of the asymptotics.

Two entry points:

* integrate_mellin    -- improper integrals int_0^inf g(t) dt/t.  The substitution
  t = e^u turns dt/t into du and the integrand into a function on the whole real
  axis; unit panels in u are integrated by nested Gauss-Legendre rules and the
  axis is extended in both directions until the panel contributions certify
  geometric decay.
* integrate_log_endpoint -- int_0^1 h with at most logarithmic endpoint
  singularities; dyadic panels drilling into both endpoints.

All panel orderings are deterministic, so repeated runs give bitwise-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "QuadratureError",
    "integrate_mellin",
    "integrate_log_endpoint",
]


class QuadratureError(RuntimeError):
    """Quadrature failure; carries the partial result when one exists."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    split_point: float = 1.0
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.split_point <= 0:
            raise ValueError("split_point must be positive")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int


# Nested Gauss-Legendre pair; nodes/weights computed once at import, not typed in.
_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(8)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(16)


class _EvalCounter:
    __slots__ = ("f", "count")

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self.f(x)


def _gl_panel(f, a, b):
    """(GL16 value, |GL16 - GL8| error estimate) on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    hi = half * math.fsum(w * f(mid + half * x) for x, w in zip(_GL_HI_X, _GL_HI_W))
    lo = half * math.fsum(w * f(mid + half * x) for x, w in zip(_GL_LO_X, _GL_LO_W))
    return hi, abs(hi - lo)


def _adaptive_panel(f, a, b, tol, budget):
    """Bisect [a, b] (left first) until each piece meets tol or budget runs out.

    Returns (value, error_estimate, subdivisions_used).
    """
    value, err = _gl_panel(f, a, b)
    if err <= tol or budget <= 0 or (b - a) < 1e-13 * max(abs(a), abs(b), 1.0):
        return value, err, 0
    mid = 0.5 * (a + b)
    lv, le, ln = _adaptive_panel(f, a, mid, 0.5 * tol, budget - 1)
    rv, re, rn = _adaptive_panel(f, mid, b, 0.5 * tol, budget - 1 - ln)
    return lv + rv, le + re, ln + rn + 1


# deciding when a sequence of outward panels has certified geometric decay
_DECAY_RATIO_CAP = 0.85
_DECAY_RUN = 3


def _extend_axis(F, u0, direction, panel_tol, tiny, max_panels, budget):
    """Integrate sum of unit panels from u0 outward in +-1 direction.

    Stops once the last _DECAY_RUN panel magnitudes decrease geometrically and
    the extrapolated tail falls below ``tiny``.  Raises QuadratureError if the
    decay never certifies.
    """
    total = 0.0
    err = 0.0
    mags: list[float] = []
    used = 0
    for k in range(max_panels):
        a = u0 + direction * k
        b = a + direction
        lo, hi = (a, b) if direction > 0 else (b, a)
        v, e, n = _adaptive_panel(F, lo, hi, panel_tol, budget - used)
        used += n
        total += v
        err += e
        mags.append(abs(v))
        if len(mags) >= _DECAY_RUN:
            tail_window = mags[-_DECAY_RUN:]
            if all(m <= tiny for m in tail_window):
                return total, err, used
            ratios = [
                tail_window[i + 1] / tail_window[i]
                for i in range(_DECAY_RUN - 1)
                if tail_window[i] > 0.0
            ]
            if ratios and max(ratios) < _DECAY_RATIO_CAP:
                r = max(ratios)
                tail = mags[-1] * r / (1.0 - r)
                if tail <= tiny:
                    err += tail
                    return total, err, used
    raise QuadratureError(
        f"tail decay not certified after {max_panels} log-axis panels "
        f"(direction {direction:+d})",
        partial=IntegralResult(total, err, 0),
    )


def integrate_mellin(g: Callable[[float], float],
                     cfg: QuadratureConfig | None = None) -> IntegralResult:
    """int_0^inf g(t) dt/t for g vanishing at 0 and decaying at infinity.

    g must vanish at least linearly as t -> 0+ and decay like e^{-ct} or
    t^{-1/2-eps} as t -> infinity; decay is verified empirically from the
    panel contributions and a QuadratureError is raised when it fails.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    counter = _EvalCounter(g)
    F = lambda u: counter(math.exp(u))
    u0 = math.log(cfg.split_point)
    tiny = 0.05 * cfg.abs_tol
    panel_tol = 0.02 * cfg.abs_tol
    budget = cfg.max_subdivisions
    try:
        right, err_r, used_r = _extend_axis(F, u0, +1, panel_tol, tiny, 200, budget)
        left, err_l, used_l = _extend_axis(F, u0, -1, panel_tol, tiny, 200,
                                           budget - used_r)
    except QuadratureError as exc:
        exc.partial = IntegralResult(
            exc.partial.value if exc.partial else math.nan,
            math.inf, counter.count)
        raise
    value = right + left
    error = err_r + err_l
    result = IntegralResult(value, error, counter.count)
    if error > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise QuadratureError(
            f"requested tolerance not met: error estimate {error:.3e}",
            partial=result,
        )
    return result


def integrate_mellin_tail(g: Callable[[float], float], lo: float,
                          cfg: QuadratureConfig | None = None) -> IntegralResult:
    """int_lo^infinity g(t) dt/t, same panel engine as integrate_mellin."""
    if cfg is None:
        cfg = QuadratureConfig()
    counter = _EvalCounter(g)
    F = lambda u: counter(math.exp(u))
    value, err, _ = _extend_axis(F, math.log(lo), +1, 0.02 * cfg.abs_tol,
                                 0.05 * cfg.abs_tol, 200, cfg.max_subdivisions)
    return IntegralResult(value, err, counter.count)


def integrate_mellin_head(g: Callable[[float], float], hi: float,
                          cfg: QuadratureConfig | None = None) -> IntegralResult:
    """int_0^hi g(t) dt/t, extending panels toward t = 0."""
    if cfg is None:
        cfg = QuadratureConfig()
    counter = _EvalCounter(g)
    F = lambda u: counter(math.exp(u))
    value, err, _ = _extend_axis(F, math.log(hi), -1, 0.02 * cfg.abs_tol,
                                 0.05 * cfg.abs_tol, 200, cfg.max_subdivisions)
    return IntegralResult(value, err, counter.count)


def integrate_log_endpoint(h: Callable[[float], float], tol: float = 1e-10,
                           max_depth: int = 60) -> IntegralResult:
    """int_0^1 h(w) dw with at most logarithmic singularities at 0 and 1.

    Dyadic panels drill toward both endpoints; on each panel the integrand is
    smooth and the nested Gauss rule applies.  A panel sequence that grows
    while drilling signals a non-integrable blow-up.
    """
    counter = _EvalCounter(h)
    panel_tol = 0.02 * tol
    total = 0.0
    err = 0.0
    used = 0
    for (lo, hi) in ((0.25, 0.5), (0.5, 0.75)):
        v, e, n = _adaptive_panel(counter, lo, hi, panel_tol, 4000 - used)
        total += v
        err += e
        used += n
    for side in (0, 1):
        prev_mag = math.inf
        grow = 0
        k = 2
        while True:
            a, b = 2.0 ** -(k + 1), 2.0 ** -k
            if side == 1:
                a, b = 1.0 - 2.0 ** -k, 1.0 - 2.0 ** -(k + 1)
            v, e, n = _adaptive_panel(counter, a, b, panel_tol, 4000 - used)
            total += v
            err += e
            used += n
            mag = abs(v)
            if mag > prev_mag * 1.05 and mag > tol:
                grow += 1
                if grow >= 4:
                    raise QuadratureError(
                        "integrand grows while drilling into the endpoint; "
                        "not integrable",
                        partial=IntegralResult(total, math.inf, counter.count),
                    )
            else:
                grow = 0
            prev_mag = mag
            if mag <= 0.125 * tol and k >= 8:
                # remaining mass: |h| is at worst ~|log w|, so the tail is
                # bounded by a small multiple of the last panel magnitude
                err += 2.0 * mag
                break
            k += 1
            if k > max_depth:
                err += 2.0 * mag
                break
    result = IntegralResult(total, err, counter.count)
    if err > max(tol, tol * abs(total)):
        raise QuadratureError(
            f"requested tolerance not met: error estimate {err:.3e}",
            partial=result,
        )
    return result
