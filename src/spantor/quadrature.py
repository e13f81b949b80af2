"""Quadrature for the Mellin-style and periodic integrals of the asymptotics.

Two entry points:

* integrate_mellin    -- improper integrals int_0^inf g(t) dt/t.  The substitution
  t = e^u turns dt/t into du and the integrand into a function on the whole real
  axis; unit panels in u are integrated by nested Gauss-Legendre rules and the
  axis is extended from u = log(split) in both directions until the panel
  contributions certify geometric decay.  An integrand that takes different
  forms below and above the split (a theta split) is one call.
* integrate_periodic_mean -- int_0^1 f for f analytic with period 1, by one
  vectorised trapezoid rule that doubles its grid; for such f it converges
  geometrically (Trefethen-Weideman).

All panel orderings are deterministic, so repeated runs give bitwise-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegralResult",
    "QuadratureError",
    "integrate_mellin",
    "integrate_periodic_mean",
]


class QuadratureError(RuntimeError):
    """Quadrature failure; carries the partial result when one exists."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


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


# bisections one Mellin integral may spend across all its panels
_MELLIN_SUBDIVISIONS = 4000


def integrate_mellin(g: Callable[[float], float], tol: float = 1e-10,
                     split: float = 1.0) -> IntegralResult:
    """int_0^inf g(t) dt/t for g vanishing at 0 and decaying at infinity.

    g must vanish at least linearly as t -> 0+ and decay like e^{-ct} or
    t^{-1/2-eps} as t -> infinity; decay is verified empirically from the
    panel contributions.  Panels start at t = ``split`` and run to the right,
    then to the left.  Raises QuadratureError when the decay does not
    certify or the error estimate exceeds max(tol, 10 tol |value|).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not split > 0:
        raise ValueError(f"split must be positive, got {split}")
    counter = _EvalCounter(g)
    F = lambda u: counter(math.exp(u))
    u0 = math.log(split)
    tiny = 0.05 * tol
    panel_tol = 0.02 * tol
    try:
        right, err_r, used_r = _extend_axis(F, u0, +1, panel_tol, tiny, 200,
                                            _MELLIN_SUBDIVISIONS)
        left, err_l, _ = _extend_axis(F, u0, -1, panel_tol, tiny, 200,
                                      _MELLIN_SUBDIVISIONS - used_r)
    except QuadratureError as exc:
        exc.partial = IntegralResult(
            exc.partial.value if exc.partial else math.nan,
            math.inf, counter.count)
        raise
    value = right + left
    error = err_r + err_l
    result = IntegralResult(value, error, counter.count)
    if error > max(tol, 10 * tol * abs(value)):
        raise QuadratureError(
            f"requested tolerance not met: error estimate {error:.3e}",
            partial=result,
        )
    return result


# the periodic rule gives up beyond this many nodes, and evaluates f on at
# most _PERIODIC_BLOCK nodes at a time, so its memory stays bounded
_PERIODIC_MAX_POINTS = 1 << 26
_PERIODIC_BLOCK = 1 << 16


def integrate_periodic_mean(f: Callable[[np.ndarray], np.ndarray], tol: float = 1e-10,
                            start: int = 16) -> IntegralResult:
    """int_0^1 f(x) dx for f analytic with period 1, by trapezoid doubling.

    ``f`` maps a float array of nodes in [0, 1) to an array of values.  The
    first grid has ``start`` nodes k / start; each doubling evaluates only
    the new midpoints.  The rule stops after two consecutive doublings that
    each move the mean by at most ``tol``; the error estimate is the last
    move plus a few ulps of max|f| for the rounding of the values and their
    sum, so it is never 0.  Raises QuadratureError beyond
    _PERIODIC_MAX_POINTS nodes.
    """
    if start < 1:
        raise ValueError(f"start must be positive, got {start}")
    # one correctly rounded sum per block, summed again exactly, so the
    # rounding of the mean stays within about one ulp of max|f|
    sums: list[float] = []
    scale = 0.0

    def add_level(count: int, offset: float, n: int) -> None:
        """Add f at the nodes (k + offset) / n, k = 0..count-1."""
        nonlocal scale
        for lo in range(0, count, _PERIODIC_BLOCK):
            k = np.arange(lo, min(lo + _PERIODIC_BLOCK, count), dtype=float)
            values = np.asarray(f((k + offset) / n), dtype=float)
            block = math.fsum(values)
            if not math.isfinite(block):
                raise QuadratureError("periodic integrand is not finite on the grid",
                                      partial=IntegralResult(math.nan, math.inf, n))
            sums.append(block)
            scale = max(scale, float(np.max(np.abs(values))))

    n = int(start)
    add_level(n, 0.0, n)
    mean = math.fsum(sums) / n
    agreed = 0
    while agreed < 2:
        if 2 * n > _PERIODIC_MAX_POINTS:
            raise QuadratureError(
                f"periodic trapezoid did not settle within {_PERIODIC_MAX_POINTS} nodes",
                partial=IntegralResult(mean, math.inf, n))
        add_level(n, 0.5, n)
        n *= 2
        new_mean = math.fsum(sums) / n
        move = abs(new_mean - mean)
        mean = new_mean
        agreed = agreed + 1 if move <= tol else 0
    return IntegralResult(mean, move + 8 * math.ulp(scale), n)
