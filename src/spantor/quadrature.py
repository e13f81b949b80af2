"""Quadrature for the Mellin-style and periodic integrals of the asymptotics.

Two entry points, both trapezoid rules over whole vectorised grids that
halve their step and reuse their nodes; for integrands analytic in a strip
around the line of integration they converge geometrically
(Trefethen-Weideman):

* integrate_mellin    -- improper integrals int_0^inf g(t) dt/t.  Each half
  line of u = log t, above and below u = log(split), is mapped onto the
  real s axis by u = log(split) +- softplus(s), where both of its ends decay.
  An integrand that takes different forms below and above the split (a
  theta split) is one call.
* integrate_periodic_mean -- int_0^1 f for f analytic with period 1.

Sums are fixed-order (math.fsum of per-grid sums), so repeated runs give
bitwise-identical results.
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


# the Mellin rule: its first step in s, the halvings it may take after it,
# the half-width of its first grid, and the reach |s| of either half line,
# which keeps t within split e^{+-640}
_MELLIN_STEP = 0.5
_MELLIN_HALVINGS = 6
_MELLIN_START = 8.0
_MELLIN_REACH = 640.0
# the least size below which a term counts as negligible.  Near the split
# the Jacobian sigmoid(s) alone falls below it at s = -_MELLIN_REACH / 2, so an
# integrand up to e^320 there still decays within the reach; a smaller tol
# would need an integrand below about 1e-123 to beat the 8 ulps of rounding
# in the error estimate
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


def integrate_mellin(g: Callable[[np.ndarray], np.ndarray], tol: float = 1e-10,
                     split: float = 1.0) -> IntegralResult:
    """int_0^inf g(t) dt/t for g vanishing at 0 and decaying at infinity.

    ``g`` maps a float array of t to an array of values.  Each half line of
    u = log t is mapped by u = log(split) + softplus(s) (t > split) or
    u = log(split) - softplus(s) (t < split), so dt/t = sigmoid(s) ds and
    both ends of either line decay in s; the nodes of the lower line stay
    below ``split`` and those of the upper line do not, so g may change
    form there.  One trapezoid rule in s
    sums both lines, one call of g per grid: the first grid has step 1/2,
    and each end grows until its two outermost terms fall below 0.05 tol
    (or e^-320, when that is larger);
    then the step halves, adding only the midpoints, until two sums agree
    within tol.  The terms beyond each end are added as the geometric tail
    of the two outermost, so the truncation errs at second order.  For g
    analytic near the positive axis the rule converges geometrically in
    1/h (Trefethen-Weideman).  The first grid spans t from about
    split e^-8 to split e^8, and g must not be negligible on all of it,
    or the ends never grow and the value reads 0.  The error estimate is
    the last move plus the end tails plus 8 ulps of the sum of |terms|.
    Raises QuadratureError when an end does not decay within
    |s| <= _MELLIN_REACH or the error exceeds max(tol, 10 tol |value|).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not split > 0:
        raise ValueError(f"split must be positive, got {split}")
    u0 = math.log(split)
    below = math.nextafter(split, 0.0)
    tiny = max(0.05 * tol, _MELLIN_TINY)
    h = _MELLIN_STEP
    sums: list[float] = []
    scale = 0.0
    evaluations = 0

    def terms(upper: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g(t) dt/t per ds at nodes s of the upper and the lower half line, in one call."""
        nonlocal evaluations
        s = np.concatenate([upper, lower])
        shift = np.logaddexp(0.0, s)
        shift[upper.size:] *= -1.0
        t = np.exp(u0 + shift)
        np.maximum(t[:upper.size], split, out=t[:upper.size])
        np.minimum(t[upper.size:], below, out=t[upper.size:])
        f = np.asarray(g(t), dtype=float) / (1.0 + np.exp(-s))
        evaluations += s.size
        if not np.isfinite(f).all():
            raise QuadratureError("Mellin integrand is not finite on the grid",
                                  partial=IntegralResult(math.nan, math.inf, evaluations))
        return f[:upper.size], f[upper.size:]

    def add(*parts: np.ndarray) -> None:
        """Add the terms of one grid to the sums."""
        nonlocal scale
        f = np.concatenate(parts)
        sums.append(float(np.sum(f)))
        scale += float(np.sum(np.abs(f)))

    # coarse grids j h, j = -lo..hi, per line: they start where sigmoid(s)
    # alone falls below tiny near the split and at s = _MELLIN_START beyond it
    lo, hi = math.ceil(-math.log(tiny) / h), int(_MELLIN_START / h)
    lines = [[lo, hi], [lo, hi]]
    grid = h * np.arange(-lo, hi + 1, dtype=float)
    coarse = list(terms(grid, grid))
    while True:
        growth = [[_end_growth(f[:2], tiny, max(16, lo + hi)),
                   _end_growth(f[:-3:-1], tiny, max(16, lo + hi))]
                  for f, (lo, hi) in zip(coarse, lines)]
        if not any(map(any, growth)):
            break
        for (lo, hi), (down, up) in zip(lines, growth):
            if max(lo + down, hi + up) * h > _MELLIN_REACH:
                where = "near the split" if lo + down > hi + up else "at its far end"
                raise QuadratureError(
                    f"Mellin integrand does not decay {where} within |s| <= {_MELLIN_REACH:g}",
                    partial=IntegralResult(math.nan, math.inf, evaluations))
        new = [np.concatenate([np.arange(-lo - down, -lo), np.arange(hi + 1, hi + up + 1)]) * h
               for (lo, hi), (down, up) in zip(lines, growth)]
        for i, f in enumerate(terms(*new)):
            (lo, hi), (down, up) = lines[i], growth[i]
            coarse[i] = np.concatenate([f[:down], coarse[i], f[down:]])
            lines[i] = [lo + down, hi + up]
    # drop the coarse nodes beyond the second tiny term from either end, so the
    # finer grids do not fill a stretch where g has long vanished
    for i, f in enumerate(coarse):
        big = np.flatnonzero(np.abs(f) > tiny)
        first, last = (big[0], big[-1]) if big.size else (lines[i][0],) * 2
        first, last = max(0, first - 2), min(f.size - 1, last + 2)
        coarse[i] = f[first:last + 1]
        lines[i] = [lines[i][0] - first, last - lines[i][0]]
    add(*coarse)
    ends = [pair for f in coarse for pair in (f[:2], f[:-3:-1])]

    def value_at(step: float) -> tuple[float, float]:
        """(the trapezoid sum with step ``step`` plus its end tails, the tails' size)."""
        tails = [_end_tail(pair, step / _MELLIN_STEP) * step for pair in ends]
        return step * math.fsum(sums) + math.fsum(tails), math.fsum(map(abs, tails))

    value, tail = value_at(h)
    move = math.inf
    for level in range(_MELLIN_HALVINGS):
        h *= 0.5
        m = 2 << level
        add(*terms(*[h * np.arange(1 - lo * m, hi * m, 2, dtype=float) for lo, hi in lines]))
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
