"""Lead terms, Epstein zeta values and the asymptotic predictors.

The per-vertex growth constant I of a circulant spanning-tree count is the
Mahler measure of the symbol polynomial z^g (2d - sum_g (z^g + z^-g)): with
the double root at z = 1 divided out exactly, I = log|lc| + sum log|rho| over
the roots rho outside the unit circle.  The roots come from numpy, and the
value carries an a-posteriori error bound from the residual of each root.
By Jensen's formula the same constant is

  log 4 + int_0^1 log(sum_g sin^2(pi g w)) dw = int_0^1 log S(w) dw,

S(w) = sum_g sin^2(pi g w) / sin^2(pi w) >= 1, a positive trigonometric
polynomial, since int_0^1 log sin^2(pi w) dw = -2 log 2.  log S is analytic
and periodic, so one trapezoid rule converges to it geometrically, and its
N-point sum is the finite spectral sum of C_N^Gamma.  That rule runs as a
runtime guard (about a millisecond for small generators): a disagreement
beyond both error estimates raises AsymError.  The paper's Mellin-Bessel
integral int_0^inf (e^{-t} - e^{-2dt} I_0^Gamma(2t,...,2t)) dt/t, a third
route to the same constant, lives in the tests as an oracle.  The
high-precision lead term (spantor.hp) refines the same roots by Newton steps.

Torus lead terms are sums of one integral per A-block mode lambda,
I_q(lambda) = int_0^inf (e^{-t} - (e^{-2t} I_0(2t))^q e^{-lambda t}) dt/t
with q growing sides, and c_d is the lambda = 0 member I_d(0).  With one
growing side it is the closed form arccosh(1 + lambda/2); with two it is the
periodic mean over x of arccosh(1 + (lambda + 4 sin^2(pi x))/2), by the same
trapezoid rule, and the lambda = 0 mode is c_2 = 4G/pi (Catalan's G); with
three or more it is the Mellin-Bessel integral itself, on one trapezoid
grid.  The regularized determinant of a diagonal real torus comes from the
spectral zeta derivative at zero: -2 log b for a circle of length b,
Kronecker's limit formula for two sides, and above that the Chowla-Selberg
reduction along the largest side, a sum of circle determinants.  Epstein
zeta values in the convergent regime come from the Riemann zeta function
for a circle, and otherwise from the same reduction, which recurses down to
the circle through Bessel-K sums that fall exponentially.  Each value
carries a computed bound.  The theta-split integral and the lattice sum
with a sandwich tail that these replaced live in the tests as oracles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .graphs import (
    CirculantSpec,
    TorusSpec,
    EnumerationCapError,
    DEFAULT_EIGENVALUE_CAP,
    log_det_star,
    _deflate,
    _half_spectrum,
    _symbol_poly,
)
from .quadrature import IntegralResult, QuadratureError, integrate_mellin, integrate_periodic_mean
from .specfun import _eta_with_bound, _zeta_euler_maclaurin, bessel_i_scaled, catalan_constant

__all__ = [
    "AsymError",
    "LeadTerm",
    "EpsteinValue",
    "AsymptoticReport",
    "MELLIN_BESSEL",
    "MAHLER_ROOTS",
    "ARCCOSH_CLOSED_FORM",
    "CATALAN_CLOSED_FORM",
    "PERIODIC_ARCCOSH",
    "arccosh_lead",
    "lead_term_circulant",
    "c_d",
    "epstein_zeta_sum",
    "epstein_zeta_prime_zero",
    "predict_circulant",
    "predict_torus_constant",
    "predict_torus_sublinear",
    "gamma_half_integer",
]


class AsymError(ValueError):
    """Invalid parameters or a failed internal consistency check."""


MELLIN_BESSEL = "mellin_bessel"
MAHLER_ROOTS = "mahler_roots"
ARCCOSH_CLOSED_FORM = "arccosh_closed_form"
CATALAN_CLOSED_FORM = "catalan_closed_form"
PERIODIC_ARCCOSH = "periodic_arccosh"


@dataclass(frozen=True)
class LeadTerm:
    """Per-vertex lead constant, with the value and error of the cross-checking route."""

    value: float
    method: str
    error_estimate: float
    cross_check: float | None = None
    cross_check_error: float | None = None


@dataclass(frozen=True)
class EpsteinValue:
    sides: tuple[float, ...]
    s: float
    value: float
    tail_bound: float


@dataclass(frozen=True)
class AsymptoticReport:
    """Predicted vs measured log-determinant decomposition.

    ``predicted_log_det`` is the sum of ``components`` (the high-precision
    predictors leave them empty); ``residual`` is exact - predicted and is
    None when the exact spectrum was not enumerable.
    """

    n: int
    predicted_log_det: float
    exact_log_det: float | None
    residual: float | None
    components: dict[str, float]


def _report(n: int, predicted, components: dict[str, float], spec, cap: int,
            log_det) -> AsymptoticReport:
    """The report of ``predicted`` against the exact ``log_det(spec, cap)``.

    Above ``cap`` vertices the exact value and the residual are None.  The
    residual is taken at the current precision, so the mpf predictors of
    spantor.hp call this inside their working precision.  The float
    predictors pass log_det_star as they call, not as a default bound at
    import, so a wrapper installed on asym.log_det_star sees the call.
    """
    try:
        exact = log_det(spec, cap)
    except EnumerationCapError:
        exact = None
    return AsymptoticReport(n=n, predicted_log_det=predicted, exact_log_det=exact,
                            residual=None if exact is None else exact - predicted,
                            components=components)


# ---------------------------------------------------------------------------
# Lead terms
# ---------------------------------------------------------------------------


def _arccosh1p(y):
    """arccosh(1 + y) for 0 <= y < 1e154 as log1p(y + sqrt(y (y + 2))).

    Keeps full relative accuracy at small y; elementwise on arrays.
    """
    return np.log1p(y + np.sqrt(y * (y + 2.0)))


def arccosh_lead(x: float) -> float:
    """Closed form log((x + sqrt(x^2-4))/2) of the one-Bessel Mellin integral."""
    if x < 2.0:
        raise AsymError(f"need x >= 2, got {x}")
    return float(_arccosh1p(0.5 * x - 1.0))


def _sin2pi(x: np.ndarray) -> np.ndarray:
    """sin^2(pi x), read at the fold min(t, 1 - t) of t = x mod 1.

    The argument then stays within [0, pi/2], so values near a zero of sin
    keep their full relative accuracy; for the dyadic nodes of the periodic
    rule the fold itself is exact.
    """
    t = np.mod(x, 1.0)
    s = np.sin(np.pi * np.minimum(t, 1.0 - t))
    return s * s


@dataclass(frozen=True)
class SymbolRoots:
    """Roots of the deflated symbol polynomial Q and the Mahler measure they give.

    ``coeffs`` are Q's integer coefficients, highest degree first; ``outside``
    holds the D/2 roots with |rho| > 1, as numpy complex values.
    """

    coeffs: tuple[int, ...]
    outside: np.ndarray
    value: float
    error_estimate: float


@lru_cache(maxsize=None)
def _symbol_roots(gens: tuple[int, ...]) -> SymbolRoots:
    """Mahler measure log|lc| + sum_{|rho| > 1} log|rho| of Q from numpy roots.

    Q = symbol / (z - 1)^2 is palindromic with no root on the unit circle, so
    its D roots pair as rho, 1/rho and exactly D/2 lie outside.  A Newton
    step |Q(rho)| / |Q'(rho)| bounds each root's error, with |Q(rho)| widened
    by the rounding bound 2D eps Q~(|rho|) of its evaluation (Q~ has the
    absolute coefficients); log|rho| moves by that over |rho|.  A root within
    its own bound of the circle could be on either side, and raises.
    """
    coeffs = tuple(_deflate(_deflate(_symbol_poly(gens), 1), 1))
    degree = len(coeffs) - 1
    eps = sys.float_info.epsilon
    q = np.array(coeffs, dtype=float)
    roots = np.roots(q)
    radii = np.abs(roots)
    shift = ((np.abs(np.polyval(q, roots)) + 2 * degree * eps * np.polyval(np.abs(q), radii))
             / np.abs(np.polyval(np.polyder(q), roots)))
    outside = radii > 1.0
    if np.any(np.abs(radii - 1.0) <= shift) or 2 * np.count_nonzero(outside) != degree:
        raise AsymError(f"roots of the symbol of {gens} do not pair across the unit "
                        f"circle: {np.count_nonzero(outside)} of {degree} outside")
    value = math.log(abs(coeffs[0])) + math.fsum(np.log(radii[outside]))
    error = math.fsum(shift[outside] / radii[outside]) + 4 * eps * abs(value)
    return SymbolRoots(coeffs=coeffs, outside=roots[outside], value=value,
                       error_estimate=error)


def _log_symbol_ratio(gens: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """w -> log S(w), S = sum_g sin^2(pi g w) / sin^2(pi w), with S(0) = sum_g g^2.

    ``gens`` starts with 1, whose term is the denominator itself.
    """
    at_zero = float(sum(g * g for g in gens))

    def log_s(w: np.ndarray) -> np.ndarray:
        denominator = _sin2pi(w)
        numerator = denominator + sum(_sin2pi(g * w) for g in gens[1:])
        ratio = np.full(w.shape, at_zero)
        np.divide(numerator, denominator, out=ratio, where=denominator > 0.0)
        return np.log(ratio)

    return log_s


@lru_cache(maxsize=None)
def _lead_term_circulant_cached(gens: tuple[int, ...], tol: float) -> LeadTerm:
    roots = _symbol_roots(gens)
    # S has degree g_max - 1, so a first grid of at least 4 g_max nodes
    # cannot alias it
    start = 1 << (4 * gens[-1] - 1).bit_length()
    guard = integrate_periodic_mean(_log_symbol_ratio(gens), tol, start)
    allowed = roots.error_estimate + guard.error_estimate + 50 * tol
    if abs(roots.value - guard.value) > allowed:
        raise AsymError(
            f"lead-term routes disagree for {gens}: "
            f"roots {roots.value!r} vs log-sin {guard.value!r} "
            f"(allowed {allowed:.2e})"
        )
    if gens == (1,):
        # the cycle lead term is arccosh(1) = 0 exactly
        return LeadTerm(value=0.0, method=ARCCOSH_CLOSED_FORM, error_estimate=1e-16,
                        cross_check=guard.value, cross_check_error=guard.error_estimate)
    return LeadTerm(
        value=roots.value,
        method=MAHLER_ROOTS,
        error_estimate=roots.error_estimate,
        cross_check=guard.value,
        cross_check_error=guard.error_estimate,
    )


def lead_term_circulant(generators: Sequence[int], tol: float = 1e-10) -> LeadTerm:
    """Growth constant I_d^Gamma as the Mahler measure of the symbol polynomial.

    The value comes from numpy roots with its computed error bound; the
    periodic mean of log S at ``tol`` is recorded as cross_check with its
    error, and a disagreement beyond the two error estimates plus 50 tol
    raises AsymError.
    """
    gens = tuple(int(g) for g in generators)
    if not gens or gens[0] != 1 or any(g < 1 for g in gens) or list(gens) != sorted(gens):
        raise AsymError(f"generator set must be sorted and start with 1: {generators}")
    return _lead_term_circulant_cached(gens, float(tol))


def _mode_lead(lam: float, q: int, tol: float) -> LeadTerm:
    """I_q(lam) = int_0^inf (e^{-t} - (e^{-2t} I_0(2t))^q e^{-lam t}) dt/t.

    The lead integral of A-block mode lam with q growing sides.  q = 1 is
    the closed form arccosh(1 + lam/2).  q = 2 is c_2 = 4G/pi at lam = 0
    and otherwise the periodic mean over x of
    arccosh(1 + (lam + 4 sin^2(pi x))/2), analytic for lam > 0 with its
    nearest singularity at Im x = arcsinh(sqrt(lam)/2)/pi, so the trapezoid
    rule converges geometrically.  q >= 3 is the Mellin-Bessel integral at
    ``tol``.
    """
    if q == 1:
        value = float(_arccosh1p(0.5 * lam))
        return LeadTerm(value=value, method=ARCCOSH_CLOSED_FORM,
                        error_estimate=4 * math.ulp(value))
    if q == 2 and lam == 0.0:
        value = 4.0 * catalan_constant() / math.pi
        return LeadTerm(value=value, method=CATALAN_CLOSED_FORM,
                        error_estimate=4 * math.ulp(value))
    if q == 2:
        res = integrate_periodic_mean(lambda x: _arccosh1p(0.5 * lam + 2.0 * _sin2pi(x)), tol)
        method = PERIODIC_ARCCOSH
    else:
        res = integrate_mellin(lambda t: np.exp(-t) - bessel_i_scaled(0, 2.0 * t) ** q
                               * np.exp(-lam * t), tol)
        method = MELLIN_BESSEL
    return LeadTerm(value=res.value, method=method, error_estimate=res.error_estimate)


@lru_cache(maxsize=None)
def _c_d_cached(d: int, tol: float) -> LeadTerm:
    return _mode_lead(0.0, d, tol)


def c_d(d: int, tol: float = 1e-10) -> LeadTerm:
    """Torus growth constant c_d = int_0^inf (e^{-t} - e^{-2dt} I_0(2t)^d) dt/t.

    The lambda = 0 mode I_d(0) of _mode_lead: c_1 = arccosh(1) = 0 and
    c_2 = 4G/pi in closed form (G is Catalan's constant); every d >= 3 is
    the Mellin-Bessel integral at ``tol``.
    """
    if d < 1:
        raise AsymError(f"need d >= 1, got {d}")
    return _c_d_cached(int(d), float(tol))


def gamma_half_integer(d: int) -> float:
    """Gamma(d/2) from the integer/half-integer closed forms."""
    if d < 1:
        raise AsymError(f"need d >= 1, got {d}")
    if d % 2 == 0:
        return float(math.factorial(d // 2 - 1))
    dfac = 1
    for k in range(d - 2, 1, -2):
        dfac *= k
    return dfac * math.sqrt(math.pi) / 2.0 ** ((d - 1) // 2)


# ---------------------------------------------------------------------------
# Epstein zeta of a diagonal real torus, by reduction along its largest side
# ---------------------------------------------------------------------------

_EPS = sys.float_info.epsilon
# lines and Bessel-K terms are summed until their bound falls about e^{-45}
# below the value, whose scaled form is at least 2
_REACH = 45.0
# lines of one reduction step, and Bessel-K terms times their quadrature nodes
_MAX_K_WORK = 1 << 20


def _bessel_k(nu: float, log_front: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^{log_front} K_nu(z) elementwise, for nu >= 1/2 and z >= 2 pi; its rounding units).

    At half-integer nu below 100 this is the closed form sqrt(pi / 2z)
    e^{-z} sum_{k<=n} (n+k)! / (k! (n-k)!) (2z)^{-k}, n = nu - 1/2, by
    Horner.  Otherwise it is the trapezoid sum of int_0^inf
    exp(-z cosh u) cosh(nu u) du: the integrand is analytic in the strip
    |Im u| < pi/2 and falls double exponentially, so with steps of at most
    0.7 (nu^2 + z^2)^{-1/4} (the width of its peak at u = arcsinh(nu/z))
    and 0.1, out to where it lies e^{-46} below that peak, the rule is
    within about e^{-40} of the integral.  Either way the front factor and
    e^{-z} share one exponent, so neither over- or underflows alone.  The
    relative rounding of each value is at most (|log_front| + z + nu + 16)
    units, the exponent's magnitude plus the Horner or node sums.
    """
    if not z.size:
        return z, z
    units = np.abs(log_front) + z + nu + 16.0
    n = nu - 0.5
    if n == int(n) and n < 100:
        n = int(n)
        if z.size * (n + 1) > _MAX_K_WORK:
            raise EnumerationCapError(f"epstein reduction would need {z.size} Bessel terms "
                                      f"of order {nu}; cap is {_MAX_K_WORK} term-nodes")
        coeffs = [math.comb(n + k, k) * math.perm(n, k) for k in range(n + 1)]
        w = 0.5 / z
        poly = np.full(z.shape, float(coeffs[-1]))
        for c in reversed(coeffs[:-1]):
            poly = poly * w + c
        return np.exp(log_front - z) * np.sqrt(np.pi / (2.0 * z)) * poly, units
    peak = np.arcsinh(nu / z)
    step = np.minimum(0.1, 0.7 / np.sqrt(np.hypot(nu, z)))
    top = z * np.cosh(peak) - nu * peak + 46.0
    end = peak + 1.0
    for _ in range(6):  # end = arccosh((nu end + top) / z), a contraction past the peak
        end = np.arccosh((top + nu * end) / z)
    nodes = int(np.ceil((end / step).max())) + 1
    if z.size * nodes > _MAX_K_WORK:
        raise EnumerationCapError(f"epstein reduction would need {z.size} Bessel terms of "
                                  f"{nodes} nodes; cap is {_MAX_K_WORK} term-nodes")
    step = end / nodes
    u = step[:, None] * np.arange(nodes + 1)
    f = np.exp((log_front - z)[:, None] - 2.0 * z[:, None] * np.sinh(0.5 * u) ** 2 + nu * u)
    f *= 0.5 + 0.5 * np.exp(-2.0 * nu * u)
    f[:, 0] *= 0.5
    return step * f.sum(axis=1), units + math.log2(nodes)


def _lines(rest: tuple[float, ...], b_r: float,
           reach: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(z, w, edge, outside): z = b_r sqrt(mu') <= edge over the other sides' modes k' != 0.

    mu' = 4 pi^2 sum k_i^2 / b_i^2 are the eigenvalues of R^{r-1}/diag(rest);
    k' and its sign flips give one z, so the ball z <= edge is enumerated
    over k_i >= 0 with weight w = 2 per nonzero k_i, pruned side by side.
    ``outside`` bounds the sum of e^{-z} over the modes beyond the edge:
    there e^{-z} <= e^{-t edge} e^{-(1-t) z} for 0 < t < 1, and with
    z >= (2 pi b_r / sqrt(r-1)) sum |k_i| / b_i the sum over all k' != 0
    of e^{-(1-t) z} is at most prod_i S_i - 1, S_i = (1 + q_i) / (1 - q_i),
    q_i = exp(-(1-t) 2 pi b_r / (sqrt(r-1) b_i)).  The edge is
    (reach + log(prod_i S_i - 1)) / t at the t of a few that gives the
    nearest, and at least reach, so ``outside`` is e^{-reach}; a floor of
    1e-300 on prod_i S_i - 1 keeps its logarithm finite.
    """
    c = 2.0 * math.pi * b_r
    root = math.sqrt(len(rest))

    def edge_at(t):
        qs = [math.exp(-(1.0 - t) * c / (root * b)) for b in rest]
        s_minus_one = math.expm1(math.fsum(math.log1p(2.0 * q / (1.0 - q)) for q in qs))
        return (reach + math.log(max(s_minus_one, 1e-300))) / t

    edge = max(reach, min(edge_at(t) for t in (0.5, 0.7, 0.8, 0.9, 0.95)))
    z2 = np.zeros(1)
    w = np.ones(1)
    for b in rest:
        k = np.arange(math.floor(edge * b / c) + 1.0)
        if z2.size * k.size > _MAX_K_WORK:
            raise EnumerationCapError(f"epstein reduction would need {z2.size * k.size} "
                                      f"lines; cap is {_MAX_K_WORK}")
        z2 = (z2[:, None] + (c / b * k) ** 2).ravel()
        w = (w[:, None] * np.where(k > 0.0, 2.0, 1.0)).ravel()
        inside = z2 <= edge * edge
        z2, w = z2[inside], w[inside]
    return np.sqrt(z2[1:]), w[1:], edge, math.exp(-reach)


def _inverse_gamma(s: float) -> tuple[float, float, float]:
    """(a, log_a, units) with 1/Gamma(s) = a e^{log_a} and the rounding units of that.

    math.gamma for s below 170, where it is finite; beyond, lgamma in the
    exponent, whose rounding grows with its magnitude.
    """
    if s < 170.0:
        return 1.0 / math.gamma(s), 0.0, 4.0
    log_a = -math.lgamma(s)
    return 1.0, log_a, 4.0 + abs(log_a)


def _k_lines(rest: tuple[float, ...], b_r: float, s: float) -> tuple[float, float]:
    """(sum, bound) of the Bessel-K part of the scaled reduction step.

    Line k' contributes (4 sqrt(pi) / Gamma(s)) sum_{m>=1} (2 pi^2 m^2 / z)^nu
    K_nu(z) at z = m z', z' = b_r sqrt(mu'), nu = s - 1/2.  By Poisson that
    line is sum_k (a + k^2)^{-s} - sqrt(pi) Gamma(nu)/Gamma(s) a^{-nu} with
    a = (z'/2pi)^2, and the line sum lies between its integral, the second
    term, and a^{-s} plus it, so the whole line is at most a^{-s}; a line
    whose a^{-s} is below 2^-70 is bounded by it and not summed.  Each term
    is positive and falls in m (z^nu K_nu(z) falls in z).  K_nu(z) <= sqrt(pi
    / 2z) e^{-z} (1 - (nu - 1/2) / 2z)^{-nu - 1/2} for z > (nu - 1/2)/2, from
    the Laplace form of K_nu, so the terms with z beyond 2 nu + 45 are
    bounded by a geometric series in m, and the lines beyond the edge of
    _lines by that bound at the edge times their sum of e^{-z'}.
    """
    nu = s - 0.5
    reach = 2.0 * nu + _REACH
    z_line, w_line, edge, outside = _lines(rest, b_r, reach)
    a, log_a, a_units = _inverse_gamma(s)
    a *= 4.0 * math.sqrt(math.pi)
    whole = w_line * (z_line / (2.0 * math.pi)) ** (-2.0 * s)
    keep = whole > 2.0 ** -70
    z_line, w_line = z_line[keep], w_line[keep]
    bound = [math.fsum(whole[~keep])]

    last = np.floor(reach / z_line)  # the last m summed on each line
    rows = np.repeat(np.arange(z_line.size), last.astype(int))
    m = np.arange(rows.size) - np.repeat(np.cumsum(last) - last, last.astype(int)) + 1.0
    z = m * z_line[rows]
    terms, units = _bessel_k(nu, nu * np.log(2.0 * math.pi ** 2 * m / z_line[rows]) + log_a, z)
    terms *= a * w_line[rows]
    total = math.fsum(terms)
    bound.append(math.fsum(terms * (units + a_units)) * _EPS)

    def envelope(m, z, drop):
        """e^{z - drop} times the bound on (4 sqrt(pi) / Gamma(s)) (2 pi^2 m^2 / z)^nu K_nu(z)."""
        return a * np.exp(nu * np.log(2.0 * math.pi ** 2 * m * m / z) + log_a - drop) \
            * np.sqrt(math.pi / (2.0 * z)) * (1.0 - (nu - 0.5) / (2.0 * z)) ** (-nu - 0.5)

    first = last + 1.0  # the first m left out on each line
    ratio = np.exp((nu - 0.5) * np.log1p(1.0 / first) - z_line)
    left_out = envelope(first, first * z_line, first * z_line) / (1.0 - ratio)
    bound.append(math.fsum(w_line * np.minimum(left_out, whole[keep] / w_line)))
    bound.append(float(envelope(1.0, edge, 0.0)) * outside
                 / -math.expm1((nu - 0.5) * math.log(2.0) - edge))
    return total, math.fsum(bound)


def _epstein_scaled(sides: tuple[float, ...], s: float) -> tuple[float, float]:
    """(F, bound) with F = (2 pi / b_r)^{2s} zeta(s), for sorted sides b_1 <= .. <= b_r, s > r/2.

    (2 pi / b_r)^2 is the smallest eigenvalue, so F >= 2 zeta_R(2s) >= 2
    and every one of its terms is at most 1.  Poisson summation along b_r
    (Chowla-Selberg) gives, with the k' = 0 line in closed form,

      F_r(s) = 2 zeta_R(2s) + sqrt(pi) Gamma(s - 1/2)/Gamma(s)
               (b_{r-1}/b_r)^{2s-1} F_{r-1}(s - 1/2) + the Bessel-K lines

    (_k_lines), and F_1(s) = 2 zeta_R(2s).  The bound adds the first
    omitted Euler-Maclaurin term of zeta_R, the truncations of _k_lines,
    the bound of F_{r-1} carried through its factor, and the rounding of
    the step; that of zeta_R is the caller's, a few units of F.
    """
    zeta, omitted = _zeta_euler_maclaurin(2.0 * s)
    value = 2.0 * zeta
    bound = [2.0 * omitted]
    if len(sides) > 1:
        *rest, b_r = sides
        lower, lower_bound = _epstein_scaled(tuple(rest), s - 0.5)
        a, log_a, a_units = _inverse_gamma(s)
        b, log_b, b_units = _inverse_gamma(s - 0.5)
        factor = math.sqrt(math.pi) * (a / b) * math.exp(log_a - log_b) \
            * (rest[-1] / b_r) ** (2.0 * s - 1.0)
        ksum, kbound = _k_lines(tuple(rest), b_r, s)
        bound += [factor * lower_bound, factor * lower * (a_units + b_units + 2.0 * s + 4.0) * _EPS,
                  kbound, 4.0 * _EPS * (value + factor * lower + ksum)]
        value += factor * lower + ksum
    return value, math.fsum(bound)


def epstein_zeta_sum(sides: Sequence[float], s: float) -> EpsteinValue:
    """Spectral zeta of the real torus R^r/diag(sides)Z^r in the convergent regime.

    zeta(s) = (4 pi^2)^{-s} sum_{k != 0} (sum_i k_i^2/m_i^2)^{-s} for s > r/2.
    It is (b_r / 2 pi)^{2s} F, with F from the reduction along the largest
    side b_r (_epstein_scaled), so no large s over- or underflows before
    that last product: a circle (r = 1) gives 2 (m / 2 pi)^{2s} zeta_R(2s).
    The bound is F's, scaled, plus the rounding, whose share grows with 2s
    because b_r / 2 pi carries one rounding into the power.  Where the
    product underflows to 0 with two or more sides, F(s) <= F(r/2 + 1)
    bounds the value, as each term of F falls with s.
    """
    sides_t = tuple(float(m) for m in sides)
    r = len(sides_t)
    if r == 0 or not all(m > 0 for m in sides_t):
        raise AsymError(f"sides must be positive: {sides}")
    if not s > 0.5 * r:
        raise AsymError(f"need s > r/2 = {0.5 * r}, got {s} (continuation not supported)")
    b = tuple(sorted(sides_t))
    try:
        scale = (b[-1] / (2.0 * math.pi)) ** (2.0 * s)
    except OverflowError:
        where = f"side {b[0]}" if r == 1 else f"sides {sides_t}"
        raise AsymError(f"epstein value overflows at {where}, s = {s}") from None
    if scale == 0.0 and r > 1:
        f_max, f_bound = _epstein_scaled(b, min(float(s), 0.5 * r + 1.0))
        return EpsteinValue(sides=sides_t, s=float(s), value=0.0,
                            tail_bound=(f_max + f_bound) * 2.0 ** -1074)
    f, f_bound = _epstein_scaled(b, float(s))
    value = scale * f
    return EpsteinValue(sides=sides_t, s=float(s), value=value,
                        tail_bound=scale * f_bound + (4.0 * s + 16.0) * math.ulp(value))


def _zeta_prime_zero_reduced(sides: tuple[float, ...]) -> tuple[float, float]:
    """(zeta'(0), bound) of R^r/diag(sides)Z^r, r >= 2, sides sorted.

    zeta'(0) = -2 log b_r - b_r zeta_{r-1}(-1/2) - 2 sum_{k' != 0} log(1 - e^{-b_r sqrt(mu')}),
    the determinants of circles of length b_r with masses sqrt(mu'), the
    eigenvalues of the other sides.  At r = 2 this is Kronecker's limit
    formula -log(b_2^2 eta(i b_2/b_1)^4).  Above, the dual-lattice
    functional equation gives -b_r zeta_{r-1}(-1/2) = V 2^r pi^{r/2}
    Gamma(r/2) zeta*(r/2), with V the volume and zeta* the spectral zeta of
    the dual torus R^{r-1}/diag(1/b_i)Z^{r-1}; the log sum runs over the
    ball of _lines, and beyond it -log(1 - e^{-z}) <= e^{-z} / (1 - e^{-z}).
    """
    *rest, b_r = sides
    log_b = 2.0 * math.log(b_r)
    if len(rest) == 1:
        eta, eta_bound = _eta_with_bound(b_r / rest[0])
        log_eta = 4.0 * math.log(eta)
        value = -(log_b + log_eta)
        return value, 4.0 * eta_bound / eta + 2.0 * _EPS * (abs(log_b) + abs(log_eta))
    r = len(sides)
    dual = tuple(sorted(1.0 / b for b in rest))
    f, f_bound = _epstein_scaled(dual, 0.5 * r)
    coef = (math.prod(sides) * 2.0 ** r * math.pi ** (0.5 * r) * math.gamma(0.5 * r)
            * (dual[-1] / (2.0 * math.pi)) ** r)
    z, w, edge, outside = _lines(tuple(rest), b_r, _REACH)
    logs = -2.0 * math.fsum(w * np.log1p(-np.exp(-z)))
    value = coef * f + logs - log_b
    bound = (coef * f_bound + 2.0 * outside / -math.expm1(-edge)
             + _EPS * ((3 * r + 8) * coef * f + 8.0 * logs + 2.0 * abs(log_b)))
    return value, bound


def epstein_zeta_prime_zero(sides: Sequence[float], tol: float = 1e-9) -> float:
    """zeta'(0) of the diagonal real torus R^r / diag(sides) Z^r.

    A circle of length b has the closed form -2 log b, with a bound of 4
    ulps; two or more sides take the reduction along the largest side
    (_zeta_prime_zero_reduced).  A bound above ``tol`` raises
    QuadratureError.
    """
    sides_t = tuple(float(m) for m in sides)
    if not sides_t or not all(m > 0 for m in sides_t):
        raise AsymError(f"sides must be positive: {sides}")
    if len(sides_t) == 1:
        value = 0.0 - 2.0 * math.log(sides_t[0])  # 0.0 - keeps b = 1 at +0.0
        error = 4 * math.ulp(value)
    else:
        value, error = _zeta_prime_zero_reduced(tuple(sorted(sides_t)))
    if error > tol:
        raise QuadratureError(f"requested tolerance not met: error estimate {error:.3e}",
                              partial=IntegralResult(value, error, 0))
    return value


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


def predict_circulant(n: int, generators: Sequence[int],
                      cap: int = DEFAULT_EIGENVALUE_CAP,
                      tol: float = 1e-10) -> AsymptoticReport:
    """Asymptotic prediction n*I + 2 log n - log c_Gamma for log det*.

    The exact value and residual are filled in when the spectrum has at
    most ``cap`` vertices.  The predicted tree count (n/c_Gamma) e^{n I} is
    e^{predicted_log_det} / n.
    """
    spec = CirculantSpec(n, tuple(generators))
    lead = lead_term_circulant(spec.generators, tol=tol)
    components = {
        "lead": n * lead.value,
        "two_log_n": 2.0 * math.log(n),
        "minus_log_c_gamma": -math.log(spec.c_gamma),
    }
    return _report(n, math.fsum(components.values()), components, spec, cap, log_det_star)


@lru_cache(maxsize=None)
def _torus_constant_terms(alpha: tuple[int, ...], beta: tuple[int, ...],
                          tol: float) -> tuple[float, float]:
    """(sum_j w_j I(lambda_j), zeta'(0) of R^q / diag(beta) Z^q): the n-free part.

    The A-block modes come from the half spectrum with their weights, and
    each distinct eigenvalue gets one integral _mode_lead; with one growing
    side that is _mode_lead's closed form, taken over all of them in one
    call.  A weight is a power of 2, so the weighted fsum equals the fsum
    over the full spectrum exactly.  Cached per (alpha, beta, tol), since
    every row of a table shares it.
    """
    # with no A-block, the one mode of the one-vertex torus Z/1Z: lambda = 0, weight 1
    values, weights = _half_spectrum(TorusSpec(alpha or (1,)))
    distinct, where = np.unique(values, return_inverse=True)
    if len(beta) == 1:
        per_mode = _arccosh1p(0.5 * distinct)
    else:
        per_mode = np.array([_mode_lead(float(x), len(beta), tol).value for x in distinct])
    lead = math.fsum(weights * per_mode[where])
    return lead, epstein_zeta_prime_zero(beta, tol=tol)


def predict_torus_constant(n: int, alpha: Sequence[int], beta: Sequence[int],
                           cap: int = DEFAULT_EIGENVALUE_CAP,
                           tol: float = 1e-10) -> AsymptoticReport:
    """Prediction for Z^d/diag(alpha, beta*n)Z^d with constant A-block.

    lead = n^{d-p} det(B) sum_j int (e^{-t} - I_0(2t)^{d-p} e^{-(2(d-p)+lambda_j)t}) dt/t
    plus 2 log n - zeta'_{R^{d-p}/B Z^{d-p}}(0); for d-p = 1 each integral is
    the arccosh closed form, and for d-p = 2 the periodic mean of it over
    the second growing side (c_2 = 4G/pi at lambda_j = 0).  The sum runs
    over the A-block eigenvalues lambda_j, one integral per distinct value;
    it and zeta'(0) do not depend on n and are computed once per (alpha,
    beta, tol), so the rows of a table share them.
    """
    alpha_t = tuple(int(a) for a in alpha)
    beta_t = tuple(int(b) for b in beta)
    q = len(beta_t)
    if q < 1:
        raise AsymError("need at least one growing side (beta block)")
    if any(a < 1 for a in alpha_t) or any(b < 1 for b in beta_t):
        raise AsymError("alpha and beta entries must be positive integers")
    mode_sum, zeta_prime = _torus_constant_terms(alpha_t, beta_t, float(tol))
    det_b = math.prod(beta_t)

    components = {
        "lead": n ** q * det_b * mode_sum,
        "two_log_n": 2.0 * math.log(n),
        "minus_zeta_prime": -zeta_prime,
    }
    spec = TorusSpec(alpha_t + tuple(b * n for b in beta_t))
    return _report(n, math.fsum(components.values()), components, spec, cap, log_det_star)


def predict_torus_sublinear(n: int, a_n: int, alpha: Sequence[int],
                            beta: Sequence[int],
                            cap: int = DEFAULT_EIGENVALUE_CAP,
                            tol: float = 1e-10) -> AsymptoticReport:
    """Asymptotic prediction for the sublinearly degenerating torus.

    predicted = n^{d-p} a_n^p det(Lambda) c_d
                - (n/a_n)^{d-p} det(Lambda) (4 pi)^{d/2} Gamma(d/2)
                  zeta_{R^p/A^{-1}Z^p}(d/2)

    The second term's bracket is a limit constant with no proven rate, so
    residual analysis is the caller's business (scaled residuals).  The
    report's residual carries the o((n/a_n)^{d-p}) terms; for d = 2,
    p = q = 1 the leading one is +2 log n = log V + log(n/a_n), from the
    flat-torus determinant.
    """
    alpha_t = tuple(int(a) for a in alpha)
    beta_t = tuple(int(b) for b in beta)
    p = len(alpha_t)
    q = len(beta_t)
    if p < 1:
        raise AsymError("sublinear prediction needs a nonempty A-block (p >= 1)")
    if q < 1:
        raise AsymError("need at least one growing side (beta block)")
    if any(a < 1 for a in alpha_t) or any(b < 1 for b in beta_t):
        raise AsymError("alpha and beta entries must be positive integers")
    if a_n < 1:
        raise AsymError(f"a_n must be a positive integer, got {a_n}")
    d = p + q
    det_lambda = math.prod(alpha_t) * math.prod(beta_t)
    lead = n ** q * a_n ** p * det_lambda * c_d(d, tol=tol).value
    zeta_val = epstein_zeta_sum(tuple(1.0 / a for a in alpha_t), 0.5 * d)
    second = -((n / a_n) ** q * det_lambda * (4.0 * math.pi) ** (0.5 * d)
               * gamma_half_integer(d) * zeta_val.value)
    components = {
        "lead": lead,
        "second_order": second,
    }
    spec = TorusSpec(tuple(a * a_n for a in alpha_t) + tuple(b * n for b in beta_t))
    return _report(n, math.fsum(components.values()), components, spec, cap, log_det_star)
