"""Trapezoid rules on vectorised grids that halve their step and reuse their
nodes: Mellin integrals on one line in log t, and means of periodic functions.
Sums are fixed-order, so repeated runs give bitwise-identical results.
"""

from __future__ import annotations

import math
import sys
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


# the Mellin rule: its first step in u = log t, the halvings it may take
# after it, the half-width of its first grid, and its reach |u|
_MELLIN_STEP = 0.5
_MELLIN_HALVINGS = 6
_MELLIN_START = 8.0
_MELLIN_REACH = 640.0
# the least size below which a term counts as negligible.  An end that decays
# like t^{-1/2} (or t^{1/2} towards 0) from order 1 falls below it within the
# reach; c_3's far end decays like t^{-3/2} and reaches it near u = 213.  With
# no floor, a tol too small to meet would fail on decay instead of on the
# tolerance: the terms would need to fall below about 1e-123 to beat the 8
# ulps of rounding in the error estimate
_MELLIN_TINY = math.exp(-_MELLIN_REACH / 2)


def _end_growth(last: np.ndarray, tiny: float, width: int) -> int:
    """Coarse nodes to add beyond an end whose two outermost terms are ``last``.

    0 once both are at most ``tiny``; otherwise as many as the decay of the
    two predicts (at least 2), or ``width`` when they do not decay.
    """
    outer, inner = abs(last[0]), abs(last[1])
    if outer <= tiny and inner <= tiny:
        return 0
    if 0.0 < outer < inner:
        return min(width, max(2, math.ceil(math.log(outer / tiny) / math.log(inner / outer)) + 2))
    return width


def _end_tail(last: np.ndarray, ratio: float) -> float:
    """Trapezoid terms beyond an end, with outermost terms ``last``, as a geometric tail.

    ``ratio`` is the step over the coarse step.  A pair that does not decay
    with one sign has no tail.
    """
    outer, inner = last
    if inner == 0.0 or not 0.0 < outer / inner < 1.0:
        return 0.0
    r = (outer / inner) ** ratio
    return outer * r / (1.0 - r)


def integrate_mellin(g: Callable[[np.ndarray], np.ndarray], tol: float = 1e-10) -> IntegralResult:
    """int_0^inf g(t) dt/t for g vanishing at 0 and decaying at infinity.

    ``g`` maps a float array of t to an array.  One trapezoid rule in
    u = log t sums g(e^u) du at the nodes t = e^{jh}, one call of g per
    grid.  The first grid has h = 1/2 on |u| <= 8; each end grows until its
    two outermost terms are at most max(0.05 tol, e^-320); then h halves,
    adding only the midpoints, until two sums agree within tol.  Each end
    adds the geometric tail of its two outermost terms, so the truncation
    errs at second order.  For g analytic near the positive axis the rule
    converges geometrically in 1/h (Trefethen-Weideman).  g must not be
    negligible on all of the first grid, or the value reads 0.  The error
    estimate is the last move plus the tails plus 8 ulps of h sum |terms|.
    Raises QuadratureError when g is not finite on a grid, an end does not
    decay within |u| <= _MELLIN_REACH, or the error exceeds
    max(tol, 10 tol |value|).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    tiny = max(0.05 * tol, _MELLIN_TINY)
    h = _MELLIN_STEP
    sums: list[float] = []
    scale = 0.0
    evaluations = 0

    def terms(u: np.ndarray) -> np.ndarray:
        """g(t) at the nodes t = e^u, and add them to the count of evaluations."""
        nonlocal evaluations
        f = np.asarray(g(np.exp(u)), dtype=float)
        evaluations += u.size
        if not np.isfinite(f).all():
            raise QuadratureError("Mellin integrand is not finite on the grid",
                                  partial=IntegralResult(math.nan, math.inf, evaluations))
        return f

    def add(f: np.ndarray) -> None:
        """Add the terms of one grid to the sums."""
        nonlocal scale
        sums.append(float(np.sum(f)))
        scale += float(np.sum(np.abs(f)))

    # the coarse grid j h, j = -lo..hi
    lo = hi = int(_MELLIN_START / h)
    coarse = terms(h * np.arange(-lo, hi + 1, dtype=float))
    while True:
        width = max(16, lo + hi)
        down, up = _end_growth(coarse[:2], tiny, width), _end_growth(coarse[:-3:-1], tiny, width)
        if not down and not up:
            break
        if max(lo + down, hi + up) * h > _MELLIN_REACH:
            where = "towards t = 0" if lo + down > hi + up else "towards t = inf"
            raise QuadratureError(
                f"Mellin integrand does not decay {where} within |log t| <= {_MELLIN_REACH:g}",
                partial=IntegralResult(math.nan, math.inf, evaluations))
        f = terms(h * np.concatenate([np.arange(-lo - down, -lo), np.arange(hi + 1, hi + up + 1)]))
        coarse = np.concatenate([f[:down], coarse, f[down:]])
        lo, hi = lo + down, hi + up
    # drop the coarse nodes beyond the second tiny term from either end, so the
    # finer grids do not fill a stretch where g has long vanished
    big = np.flatnonzero(np.abs(coarse) > tiny)
    first, last = (big[0], big[-1]) if big.size else (lo, lo)
    first, last = max(0, first - 2), min(coarse.size - 1, last + 2)
    coarse = coarse[first:last + 1]
    lo, hi = lo - first, last - lo
    add(coarse)
    ends = (coarse[:2], coarse[:-3:-1])

    def value_at(step: float) -> tuple[float, float]:
        """(the trapezoid sum with step ``step`` plus its end tails, the tails' size)."""
        tails = [_end_tail(pair, step / _MELLIN_STEP) * step for pair in ends]
        return step * math.fsum(sums) + math.fsum(tails), math.fsum(map(abs, tails))

    value, tail = value_at(h)
    move = math.inf
    for level in range(_MELLIN_HALVINGS):
        h *= 0.5
        m = 2 << level
        add(terms(h * np.arange(1 - lo * m, hi * m, 2, dtype=float)))
        new_value, tail = value_at(h)
        move = abs(new_value - value)
        value = new_value
        if move <= tol:
            break
    error = move + tail + 8 * sys.float_info.epsilon * h * scale
    result = IntegralResult(value, error, evaluations)
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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
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
