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

Torus lead terms are integrals of one A-block mode lambda over the growing
sides.  With one growing side that is the arccosh closed form
arccosh(1 + lambda/2); with two it is the periodic mean over x of
arccosh(1 + (lambda + 4 sin^2(pi x))/2), by the same trapezoid rule, and
the lambda = 0 mode is c_2 = 4G/pi (Catalan's G); with three or more it is
the Mellin-Bessel integral of a power of the scaled Bessel function I_0.
The regularized determinant of a diagonal real torus comes from the
theta-split formula for the spectral zeta derivative at zero.  Epstein zeta
values in the convergent regime come from the Riemann zeta function for a
circle, and otherwise from a direct lattice sum with a certified sandwich
tail.
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
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    integrate_mellin,
    integrate_mellin_head,
    integrate_mellin_tail,
    integrate_periodic_mean,
)
from .specfun import (
    EULER_GAMMA,
    _zeta_euler_maclaurin,
    bessel_i_scaled,
    catalan_constant,
    theta_real_torus,
    theta_real_torus_minus_leading,
)

__all__ = [
    "AsymError",
    "LeadTerm",
    "EpsteinValue",
    "AsymptoticReport",
    "MELLIN_BESSEL",
    "MAHLER_ROOTS",
    "ARCCOSH_CLOSED_FORM",
    "CATALAN_CLOSED_FORM",
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

    ``predicted_log_det`` is by construction the sum of ``components``;
    ``residual`` is exact - predicted and is None when the exact spectrum was
    not enumerable.
    """

    n: int
    predicted_log_det: float
    exact_log_det: float | None
    residual: float | None
    components: dict[str, float]

    @property
    def predicted_log_tree_count(self) -> float:
        return self.predicted_log_det - math.log(self.vertex_count)

    @property
    def vertex_count(self) -> int:
        return int(self.components.get("_vertices", self.n))

    def predicted_tree_count(self) -> float:
        try:
            return math.exp(self.predicted_log_tree_count)
        except OverflowError:
            return math.inf


def _report(n: int, components: dict[str, float],
            exact: float | None) -> AsymptoticReport:
    predicted = math.fsum(v for k, v in components.items() if not k.startswith("_"))
    residual = None if exact is None else exact - predicted
    return AsymptoticReport(
        n=n,
        predicted_log_det=predicted,
        exact_log_det=exact,
        residual=residual,
        components=components,
    )


# ---------------------------------------------------------------------------
# Lead terms
# ---------------------------------------------------------------------------


def arccosh_lead(x: float) -> float:
    """Closed form log((x + sqrt(x^2-4))/2) of the one-Bessel Mellin integral."""
    if x < 2.0:
        raise AsymError(f"need x >= 2, got {x}")
    return math.acosh(0.5 * x)


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


@lru_cache(maxsize=None)
def _c_d_cached(d: int, tol: float) -> LeadTerm:
    if d == 2:
        value = 4.0 * catalan_constant() / math.pi
        return LeadTerm(value=value, method=CATALAN_CLOSED_FORM,
                        error_estimate=4 * math.ulp(value))
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=10 * tol)

    def integrand(t: float) -> float:
        return math.exp(-t) - bessel_i_scaled(0, 2.0 * t) ** d

    res = integrate_mellin(integrand, cfg)
    return LeadTerm(value=res.value, method=MELLIN_BESSEL,
                    error_estimate=res.error_estimate)


def c_d(d: int, tol: float = 1e-10) -> LeadTerm:
    """Torus growth constant c_d = int_0^inf (e^{-t} - e^{-2dt} I_0(2t)^d) dt/t.

    c_2 is 4G/pi in closed form (G is Catalan's constant); every other d
    is the Mellin-Bessel integral at ``tol``.
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
# Epstein zeta: convergent lattice sums
# ---------------------------------------------------------------------------


def _tail_integral(a: float, h: float, r: int, s: float, sign: float) -> float:
    """int_a^inf sigma^{-2s} (sigma + sign*h)^{r-1} dsigma, integer r >= 1."""
    total = 0.0
    for j in range(r):
        p = r - 1 - j  # power of sigma after binomial expansion
        denom = 2.0 * s - p - 1.0
        total += math.comb(r - 1, j) * (sign * h) ** j * a ** (p + 1 - 2.0 * s) / denom
    return total


def epstein_zeta_sum(sides: Sequence[float], s: float,
                     tail_target: float = 1e-10,
                     max_lattice_points: int = 20_000_000) -> EpsteinValue:
    """Spectral zeta of the real torus R^r/diag(sides)Z^r in the convergent regime.

    zeta(s) = (4 pi^2)^{-s} sum_{k != 0} (sum_i k_i^2/m_i^2)^{-s} for s > r/2.
    A circle (r = 1) gives 2 (m / 2 pi)^{2s} zeta_R(2s); its bound is the
    first omitted Euler-Maclaurin term of zeta_R plus the rounding, whose
    share grows with 2s because (m / 2 pi) carries one rounding into the
    power.  For r >= 2 the ellipsoid Q(k) <= R^2 is summed with a sandwich
    tail: the midpoint of the upper/lower integral comparisons is added and
    their half-width is the certified tail bound, at most ``tail_target``.
    The terms are summed as (m_max^2 Q)^{-s} <= 1, with m_max^2s in the
    prefactor, so no large s overflows; the bound adds the rounding, which grows with s.
    """
    sides_t = tuple(float(m) for m in sides)
    r = len(sides_t)
    if r == 0 or any(m <= 0 for m in sides_t):
        raise AsymError(f"sides must be positive: {sides}")
    if not s > 0.5 * r:
        raise AsymError(f"need s > r/2 = {0.5 * r}, got {s} (continuation not supported)")
    if r == 1:
        zeta, omitted = _zeta_euler_maclaurin(2.0 * s)
        try:
            scale = 2.0 * (sides_t[0] / (2.0 * math.pi)) ** (2.0 * s)
        except OverflowError:
            raise AsymError(f"epstein value overflows at side {sides_t[0]}, s = {s}") from None
        value = scale * zeta
        return EpsteinValue(sides=sides_t, s=float(s), value=value,
                            tail_bound=scale * omitted + (4.0 * s + 16.0) * math.ulp(value))

    h = 0.5 * math.sqrt(sum(1.0 / (m * m) for m in sides_t))
    omega = 2.0 * math.pi ** (0.5 * r) / math.gamma(0.5 * r)
    vol = math.prod(sides_t)
    prefactor = (4.0 * math.pi * math.pi) ** (-s)

    R = max(8.0, 4.0 * h + 4.0)
    while True:
        points = math.prod(2 * int(m * R) + 1 for m in sides_t)
        if points > max_lattice_points:
            raise EnumerationCapError(
                f"epstein sum would need {points} lattice points for tail "
                f"{tail_target:.1e}; cap is {max_lattice_points}"
            )
        upper = vol * omega * _tail_integral(R - 2.0 * h, h, r, s, +1.0)
        lower = vol * omega * _tail_integral(R + 2.0 * h, h, r, s, -1.0)
        remainder = 0.5 * (upper - lower) * prefactor
        if remainder <= tail_target:
            break
        R *= 1.35

    # the lattice is scaled by the largest side m_max, so the nearest point
    # has q = 1, every term is at most 1 and the sum cannot overflow;
    # m_max^2s joins the prefactor
    m_max = max(sides_t)
    q = np.zeros((1,))
    for m in sides_t:
        k = np.arange(-int(m * R), int(m * R) + 1, dtype=float)
        q = (q[:, None] + (k * (m_max / m)) ** 2).ravel()
    q = q[(q > 0.0) & (q <= (R * m_max) ** 2)]
    try:
        scale = (4.0 * math.pi * math.pi / (m_max * m_max)) ** (-s)
    except OverflowError:
        raise AsymError(f"epstein value overflows at sides {sides_t}, s = {s}") from None
    lattice_part = float(np.sum(q ** (-s)))
    value = scale * lattice_part + prefactor * 0.5 * (upper + lower)
    # each q and the scale carry about (r + 2) rounding units, whose relative
    # error the power multiplies by s
    rounding = (s * (3 * r + 10) + q.size.bit_length() + 3) * math.ulp(value)
    return EpsteinValue(sides=sides_t, s=float(s), value=value,
                        tail_bound=remainder + rounding)


def epstein_zeta_prime_zero(sides: Sequence[float], split: float = 1.0,
                            tol: float = 1e-9) -> float:
    """zeta'(0) of the diagonal real torus via the theta-split formula.

    zeta'(0) = int_0^c (Theta(t) - det(M)(4 pi t)^{-r/2}) dt/t
               - (2/r) det(M) (4 pi)^{-r/2} c^{-r/2} - log c + Gamma'(1)
               + int_c^inf (Theta(t) - 1) dt/t

    with Gamma'(1) = -euler_gamma and c the split point; the result is
    split-invariant (c = 1 and c = c_Gamma are the natural choices).
    """
    sides_t = tuple(float(m) for m in sides)
    r = len(sides_t)
    if r == 0 or any(m <= 0 for m in sides_t):
        raise AsymError(f"sides must be positive: {sides}")
    if split <= 0:
        raise AsymError(f"split must be positive, got {split}")
    det = math.prod(sides_t)
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=10 * tol)
    head = integrate_mellin_head(
        lambda t: theta_real_torus_minus_leading(sides_t, t), split, cfg)
    tail = integrate_mellin_tail(
        lambda t: theta_real_torus(sides_t, t) - 1.0, split, cfg)
    middle = (-(2.0 / r) * det * (4.0 * math.pi) ** (-0.5 * r) * split ** (-0.5 * r)
              - math.log(split) - EULER_GAMMA)
    return head.value + tail.value + middle


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


def _exact_log_det(spec, cap: int) -> float | None:
    try:
        return log_det_star(spec, cap=cap)
    except EnumerationCapError:
        return None


def predict_circulant(n: int, generators: Sequence[int], exact: bool = True,
                      cap: int = DEFAULT_EIGENVALUE_CAP,
                      tol: float = 1e-10) -> AsymptoticReport:
    """Asymptotic prediction n*I + 2 log n - log c_Gamma for log det*.

    When ``exact`` is set and the spectrum is enumerable the exact value and
    residual are filled in.  The predicted tree count (n/c_Gamma) e^{n I} is
    exposed through the report's predicted_tree_count.
    """
    spec = CirculantSpec(n, tuple(generators))
    lead = lead_term_circulant(spec.generators, tol=tol)
    components = {
        "lead": n * lead.value,
        "two_log_n": 2.0 * math.log(n),
        "minus_log_c_gamma": -math.log(spec.c_gamma),
        "_vertices": float(n),
    }
    exact_val = _exact_log_det(spec, cap) if exact else None
    return _report(n, components, exact_val)


def _torus_mode_mean(lam: float, tol: float) -> IntegralResult:
    """int_0^1 arccosh(1 + (lam + 4 sin^2(pi x))/2) dx, a mode with two growing sides.

    The integrand is analytic for lam > 0, with its nearest singularity at
    Im x = arcsinh(sqrt(lam)/2)/pi, so the periodic rule converges
    geometrically.  arccosh(1 + y) is taken as log1p(y + sqrt(y (y + 2))),
    which keeps full relative accuracy at small y.
    """
    def arccosh_mode(x: np.ndarray) -> np.ndarray:
        y = 0.5 * lam + 2.0 * _sin2pi(x)
        return np.log1p(y + np.sqrt(y * (y + 2.0)))

    return integrate_periodic_mean(arccosh_mode, tol)


@lru_cache(maxsize=None)
def _torus_constant_terms(alpha: tuple[int, ...], beta: tuple[int, ...],
                          tol: float) -> tuple[float, float]:
    """(sum_j w_j I(lambda_j), zeta'(0) of R^q / diag(beta) Z^q): the n-free part.

    The A-block modes come from the half spectrum with their weights, and
    each distinct eigenvalue gets one integral I; a weight is a power of 2,
    so the weighted fsum equals the fsum over the full spectrum exactly.
    With q = 1 growing side I is the arccosh closed form; with q = 2 it is
    c_2 at lambda = 0 and the periodic mean of _torus_mode_mean otherwise;
    with q >= 3 it is a Mellin-Bessel integral.  Cached per (alpha, beta,
    tol), since every row of a table shares it.
    """
    if alpha:
        values, weights = _half_spectrum(TorusSpec(alpha))
    else:
        values, weights = np.zeros(1), np.ones(1)
    distinct, where = np.unique(values, return_inverse=True)
    q = len(beta)
    if q == 1:
        per_mode = [arccosh_lead(2.0 + x) for x in distinct]
    elif q == 2:
        per_mode = [c_d(2, tol).value if x == 0.0 else _torus_mode_mean(x, tol).value
                    for x in distinct]
    else:
        cfg = QuadratureConfig(abs_tol=tol, rel_tol=10 * tol)
        per_mode = []
        for x in distinct:
            res = integrate_mellin(
                lambda t, lam=x: math.exp(-t)
                - bessel_i_scaled(0, 2.0 * t) ** q * math.exp(-lam * t),
                cfg,
            )
            per_mode.append(res.value)
    lead = math.fsum(weights * np.array(per_mode)[where])
    return lead, epstein_zeta_prime_zero(beta, tol=tol)


def predict_torus_constant(n: int, alpha: Sequence[int], beta: Sequence[int],
                           exact: bool = True,
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
    p = len(alpha_t)
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
        "_vertices": float(math.prod(alpha_t) * det_b * n ** q if p else det_b * n ** q),
    }
    spec = TorusSpec(alpha_t + tuple(b * n for b in beta_t), split=p)
    exact_val = _exact_log_det(spec, cap) if exact else None
    return _report(n, components, exact_val)


def predict_torus_sublinear(n: int, a_n: int, alpha: Sequence[int],
                            beta: Sequence[int], exact: bool = True,
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
        "_vertices": float(det_lambda * a_n ** p * n ** q),
    }
    spec = TorusSpec(tuple(a * a_n for a in alpha_t) + tuple(b * n for b in beta_t),
                     split=p)
    exact_val = _exact_log_det(spec, cap) if exact else None
    return _report(n, components, exact_val)
