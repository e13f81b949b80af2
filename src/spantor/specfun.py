"""Scaled modified I-Bessel functions, theta functions and numeric constants.

Everything here works with the exponentially scaled combination e^{-t} I_x(t)
(the discrete heat kernel on Z); the unscaled Bessel function overflows for
the n^2 t arguments the asymptotics need.  Small arguments use the power
series, large arguments a trapezoid rule on the window of the integral
representation that carries all the mass, with the exponent written as
-2t sin^2(w/2) so no accuracy is lost to 1-cos cancellation.

Discrete theta functions come in two forms that theta inversion says are
equal: the spectral sum over Laplacian eigenvalues and the Bessel lattice
sum.  Truncations of the lattice sum are certified with the uniform bound

    sqrt(z) e^{-z} I_m(z) <= (1 + m/z)^{-m/2}

whose right side is log-concave and decreasing in m, so order tails are
dominated by geometric series.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import (
    DEFAULT_EIGENVALUE_CAP,
    CirculantSpec,
    GraphSpec,
    _check_cap,
    _half_blocks,
    _half_weights,
    _sin2_half,
    _weighted_fsum,
)

__all__ = [
    "SpecfunError",
    "ThetaValue",
    "bessel_i_scaled",
    "bessel_i_scaled_orders",
    "bessel_tail_envelope",
    "theta_discrete_spectral",
    "theta_discrete_bessel",
    "dedekind_eta",
    "riemann_zeta_real",
    "catalan_constant",
]


class SpecfunError(ValueError):
    """Invalid argument or unsatisfiable accuracy request."""


_SERIES_SWITCH = 30.0
_MAX_QUAD_POINTS = 1 << 23
_SERIES_MAX_TERMS = 1 << 13


# ---------------------------------------------------------------------------
# Scaled I-Bessel: power series, Hankel expansion and window trapezoid
# ---------------------------------------------------------------------------


def _series_sum(m: int, q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """1 + sum_k prod_{j<=k} q / (j (j + m)) per row, corrected by rho; nan if unsettled."""
    width = 2 * math.isqrt(int(q.max())) + 24
    rows = np.arange(q.size)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            k = np.arange(width + 1, dtype=float)
            terms = np.empty((q.size, width + 1))
            terms[:, 0] = 1.0
            np.divide(q[:, None], k[1:] * (k[1:] + m), out=terms[:, 1:])
            np.multiply.accumulate(terms, axis=1, out=terms)
            sums = np.add.accumulate(terms, axis=1)
            done = terms < 1e-18 * sums
            stop = np.argmax(done, axis=1)
            settled = done[rows, stop]
            if settled.all() or width >= _SERIES_MAX_TERMS:
                break
            width *= 2
        used = slice(0, int(stop.max()) + 1)
        weighted = np.add.accumulate(terms[:, used] * k[used], axis=1)[rows, stop]
        return np.where(settled, sums[rows, stop] + rho * weighted, math.nan)


def _half_square(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = (z/2)^2 as rounded, and its relative rounding rho = ((z/2)^2 - q) / q.

    Term k of the power series carries k times the rounding of q; Dekker's
    exact square gives that rounding, and the sums are corrected for it to
    first order.  rho is 0 where q is.
    """
    x = 0.5 * z
    q = x * x
    split = x * 134217729.0
    hi = split - (split - x)
    lo = x - hi
    rho = np.divide(((hi * hi - q) + 2.0 * hi * lo) + lo * lo, q,
                    out=np.zeros(z.size), where=q > 0.0)
    return q, rho


def _series(m: int, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_m(z) by the power series, elementwise; nan where it does not settle.

    Row i sums the normalised series 1 + sum_k prod_{j<=k} q_i / (j (j + m)),
    q = z^2/4, term by term in order and stops at the first term below
    1e-18 of its partial sum (``_series_sum``); the rows with q <= 4 and
    the rest are summed apart, each to the length its largest q needs, and
    a row's value does not depend on the other rows.  The prefactor
    (z/2)^m e^{-z} / m! is a product of correctly rounded factors below the
    switch point (orders up to 20), and exp(m log(z/2) - log m! - z) for
    the tail orders beyond it, whose factors would under- or overflow.
    """
    x = 0.5 * z
    q, rho = _half_square(z)
    s = np.empty(z.size)
    small = q <= 4.0
    for rows in (small, ~small):
        if rows.any():
            s[rows] = _series_sum(m, q[rows], rho[rows])
    s[~(s <= 1e290)] = math.nan
    out = np.empty(z.size)
    low = (z < _SERIES_SWITCH) & (m <= 20)
    base = np.fromiter(map(math.exp, -z[low]), float, np.count_nonzero(low))
    if m and base.size:
        base *= np.fromiter((math.pow(v, m) for v in x[low]), float, base.size) \
            / math.factorial(m)
    out[low] = base * s[low]
    if not low.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            log_base = m * np.log(x[~low]) - math.lgamma(m + 1) - z[~low]
            out[~low] = np.where(log_base < -760.0, 0.0,
                                 np.exp(np.maximum(log_base, -760.0) + np.log(s[~low])))
    return out


def _series_orders(z: float, m_max: int) -> np.ndarray:
    """e^{-z} I_m(z) for m = 0..m_max below z = 30, vectorized over orders.

    As in _series, the sums are corrected for the rounding of (z/2)^2, and
    the prefactor e^{-z} (z/2)^m / m! is a product of correctly rounded
    factors for orders up to 20 (orders 0-8 within 4 ulps relative, 2^-50,
    of mpmath), and exp(m log(z/2) - log m! - z) for the orders beyond,
    whose factors would under- or overflow; that exponent keeps its
    rounding, so those orders are accurate in absolute terms only, as
    _quad_orders is above z = 30.
    """
    ms = np.arange(m_max + 1, dtype=float)
    if z == 0.0:
        return (ms == 0.0).astype(float)
    low = min(m_max, 20) + 1
    lgam = np.array([math.lgamma(m + 1.0) for m in range(low, m_max + 1)])
    log_base = ms[low:] * math.log(z / 2.0) - lgam - z
    base = np.concatenate((
        [math.exp(-z) * (math.pow(0.5 * z, m) / math.factorial(m)) for m in range(low)],
        np.where(log_base < -760.0, 0.0, np.exp(np.maximum(log_base, -760.0)))))
    q, rho = (float(v[0]) for v in _half_square(np.array([z])))
    s = np.ones(m_max + 1)
    weighted = np.zeros(m_max + 1)
    term = np.ones(m_max + 1)
    for k in range(1, 100000):
        term *= q / (k * (k + ms))
        s += term
        weighted += k * term
        if term.max() < 1e-18:
            break
    return base * (s + rho * weighted)


# terms of the Hankel expansion tried before the window trapezoid
_HANKEL_TERMS = 24


def _hankel(m: int, x: np.ndarray) -> np.ndarray:
    """e^{-x} I_m(x) by Hankel's expansion, elementwise; nan where it does not apply.

    (2 pi x)^{-1/2} sum_k prod_{j<=k} ((2j - 1)^2 - 4m^2) / (8 j x), summed in
    order to the first term below 1e-17 of its partial sum.  The expansion
    is asymptotic; it applies where such a term comes within _HANKEL_TERMS
    terms and the sum of |terms| up to it is at most twice |sum|, so the
    rounding stays within a few ulps.  The exponentially small companion
    term is below e^{-2x} of the value, under 1e-26 for x >= 30.
    """
    k = np.arange(1, _HANKEL_TERMS + 1, dtype=float)
    terms = np.multiply.accumulate(((2.0 * k - 1.0) ** 2 - 4.0 * m * m)
                                   / (8.0 * k * x[:, None]), axis=1)
    sums = 1.0 + np.add.accumulate(terms, axis=1)
    done = np.abs(terms) < 1e-17 * np.abs(sums)
    stop = np.argmax(done, axis=1)
    rows = np.arange(x.size)
    s = sums[rows, stop]
    spread = 1.0 + np.add.accumulate(np.abs(terms), axis=1)[rows, stop]
    s[~done.any(axis=1) | (spread > 2.0 * np.abs(s))] = math.nan
    return s / np.sqrt(2.0 * math.pi * x)


def _window_quad(t: float, orders: np.ndarray, window: float, n0: int) -> np.ndarray:
    """(1/pi) int_0^w exp(-2t sin^2(w / 2)) cos(m w) dw per order.

    Doubling of the trapezoid grid continues until the whole order vector is
    stable.
    """
    n = max(128, n0)
    n = 1 << (n - 1).bit_length()
    prev = None
    scale_floor = 1.0 / math.sqrt(2.0 * math.pi * max(t, 1.0))
    while n <= _MAX_QUAD_POINTS:
        theta = np.linspace(0.0, window, n + 1)
        s = np.sin(0.5 * theta)
        env = np.exp(-2.0 * t * s * s)
        env[0] *= 0.5
        env[-1] *= 0.5
        vals = np.empty(len(orders))
        chunk = 256
        for i in range(0, len(orders), chunk):
            block = orders[i:i + chunk, None] * theta[None, :]
            vals[i:i + chunk] = np.cos(block) @ env
        vals *= window / (n * math.pi)
        if prev is not None:
            scale = max(float(np.max(np.abs(vals))), scale_floor)
            if float(np.max(np.abs(vals - prev))) <= 1e-13 * scale:
                return vals
        prev = vals
        n *= 2
    raise SpecfunError("Bessel quadrature did not stabilize; argument too hard")


def _quad_orders(t: float, orders: np.ndarray) -> np.ndarray:
    """e^{-t} I_m(t) for the given non-negative orders, t at or above the switch."""
    m_max = float(orders.max()) if orders.size else 0.0
    E = 50.0 + 0.5 * math.log1p(t) + min(m_max * m_max / (2.0 * t), 700.0)
    w = min(math.pi, math.pi * math.sqrt(E / (2.0 * t)))
    n0 = int(8.0 * math.sqrt(0.5 * E)) + int(1.3 * m_max * w) + 64
    return _window_quad(t, orders, w, n0)


def bessel_i_scaled(order: int, t):
    """Scaled modified Bessel function e^{-t} I_|order|(t), elementwise in t.

    ``t`` is a float or an array of floats; an array gives an array of the
    same shape, whose entries have the bits of the scalar calls.  The power
    series serves t below the switch point, and the tail orders
    (m^2 >= 20 t) up to t = 900; Hankel's expansion serves the rest
    wherever it applies (``_hankel``), and the window trapezoid of the
    integral representation whatever is left.  The trapezoid has an
    absolute accuracy floor of order 1e-17, so values under ~1e-13 of the
    order-0 value are absolute-accurate only.
    """
    z = np.asarray(t, dtype=float)
    if (z < 0.0).any():
        raise SpecfunError(f"t must be non-negative, got {float(z.min())}")
    m = abs(int(order))
    flat = z.ravel()
    out = np.full(flat.size, math.nan)
    series = (flat < _SERIES_SWITCH) | ((flat <= 900.0) & (m * m >= 20.0 * flat))
    if series.any():
        out[series] = _series(m, flat[series])
    rest = np.isnan(out) & ~np.isnan(flat)
    if rest.any():
        out[rest] = _hankel(m, flat[rest])
    for i in np.flatnonzero(np.isnan(out)):
        out[i] = _quad_orders(float(flat[i]), np.array([m], dtype=float))[0]
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def bessel_i_scaled_orders(t: float, m_max: int) -> np.ndarray:
    """Vector of e^{-t} I_m(t) for m = 0..m_max (shared-grid evaluation)."""
    if t < 0.0:
        raise SpecfunError(f"t must be non-negative, got {t}")
    if t < _SERIES_SWITCH:
        return _series_orders(t, m_max)
    return _quad_orders(t, np.arange(m_max + 1, dtype=float))


# ---------------------------------------------------------------------------
# Certified order tails
# ---------------------------------------------------------------------------


def bessel_tail_envelope(order: int, z: float) -> float:
    """Upper bound (1 + m/z)^{-m/2} / sqrt(z) for e^{-z} I_m(z), integer m >= 0."""
    if z <= 0.0:
        return 1.0 if order == 0 else 0.0
    m = abs(int(order))
    # log form; the plain power overflows its intermediate for large m
    return math.exp(-0.5 * m * math.log1p(m / z) - 0.5 * math.log(z))


def _bessel_tail_sum(m0: int, step: int, z: float) -> float:
    """Bound on sum_{k>=0} e^{-z} I_{m0 + k step}(z) via the geometric envelope."""
    if z <= 0.0:
        return 0.0
    e0 = bessel_tail_envelope(m0, z)
    if e0 == 0.0:
        return 0.0
    e1 = bessel_tail_envelope(m0 + step, z)
    r = e1 / e0
    if r >= 0.999:
        return e0 * 1e4  # hopeless ratio; force the caller to enlarge the cutoff
    return e0 / (1.0 - r)


# ---------------------------------------------------------------------------
# Theta functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaValue:
    """Discrete theta value with its truncation diagnostics."""

    t: float
    value: float
    tail_bound: float = 0.0
    terms: int = 0


def theta_discrete_spectral(spec: GraphSpec, t: float,
                            cap: int = DEFAULT_EIGENVALUE_CAP) -> ThetaValue:
    """Spectral side: sum_j e^{-lambda_j t} over the full spectrum.

    A circulant's value is the sum of w e^{-lambda t} over its half-range
    modes: j = 0, whose term is e^0 = 1 of weight 1, as a block of its own,
    then the modes j = 1..floor(n/2) of ``_half_blocks``, summed exactly
    block by block by ``graphs._weighted_fsum``; the weights are powers of
    2, so it equals the math.fsum over every mode bit for bit.  A torus
    eigenvalue is a sum of one term per side, so its theta is the product
    of the sides' own sums sum_k w_k e^{-t 4 sin^2(pi k / l)} over
    k = 0..floor(l/2), each summed the same way and rounded once: about
    sum l_i / 2 terms, not V / 2^d.  A table entry within 5 eps of its value
    moves e^{-t lambda} by 5 eps t lambda relatively, so a side sum is within
    (5 m + 3) eps of its exact value, relative, with m the mean of t lambda
    under the weights w e^{-t lambda}, and the product adds d - 1 roundings.
    ``terms`` counts the terms summed: floor(n/2) + 1 for a circulant, and
    sum (floor(l_i/2) + 1) over the sides of a torus.  Raises
    EnumerationCapError above ``cap`` vertices, before any table is built.
    """
    def total(blocks) -> float:
        return _weighted_fsum(blocks, lambda v, out: np.exp(np.multiply(v, -t, out), out))

    _check_cap(spec, cap)
    if isinstance(spec, CirculantSpec):
        value = total(lambda: itertools.chain([(np.zeros(1), 1.0)], _half_blocks(spec)))
    else:
        value = math.prod(total(lambda l=l: [(_sin2_half(l), _half_weights(l))])
                          for l in spec.sides)
    return ThetaValue(t=t, value=value, tail_bound=0.0,
                      terms=sum(l // 2 + 1 for l in spec.sides))


def _circulant_bessel_sum(spec: CirculantSpec, z: float, cutoff: int,
                          coeffs: np.ndarray) -> tuple[float, int]:
    """n * sum over the lattice Lambda_Gamma Z^d of scaled Bessel products."""
    n = spec.n
    gens = spec.generators[1:]
    d = spec.d
    terms = 0
    # enumerate the identity-block coordinates, then the admissible k_1
    boxes = [range(-cutoff, cutoff + 1)] * (d - 1)
    acc = []
    for ks in itertools.product(*boxes):
        prod_rest = 1.0
        for k in ks:
            prod_rest *= coeffs[abs(k)]
        if prod_rest == 0.0:
            continue
        shift = sum(g * k for g, k in zip(gens, ks))
        k1_lo = math.ceil((shift - cutoff) / n)
        k1_hi = math.floor((shift + cutoff) / n)
        for k1 in range(k1_lo, k1_hi + 1):
            y1 = n * k1 - shift
            acc.append(coeffs[abs(y1)] * prod_rest)
            terms += 1
    return n * math.fsum(acc), terms


def theta_discrete_bessel(spec: GraphSpec, t: float, tol: float = 1e-12) -> ThetaValue:
    """Bessel lattice-sum side of theta inversion, truncated with certified tails.

    The cutoff, the maximum Bessel order kept in any lattice direction, is
    the first of 8, then max(c + 4, 1.4 c) from the last c, whose certified
    tail is at most tol / 2; SpecfunError when none up to 100000 is.
    """
    if t < 0.0:
        raise SpecfunError(f"t must be non-negative, got {t}")
    z = 2.0 * t

    def tail_bound(cutoff: int) -> float:
        if isinstance(spec, CirculantSpec):
            inner = (spec.d - 1) * _bessel_tail_sum(cutoff + 1, 1, z) \
                + _bessel_tail_sum(cutoff + 1, spec.n, z)
            return 2.0 * spec.n * inner
        # each kept factor is <= l_i (probability identity), so the product
        # tail is at most sum_i T_i * prod_{j != i} l_j = det(Lambda) sum T_i/l_i
        det = math.prod(spec.sides)
        total = 0.0
        for l in spec.sides:
            k_kept = cutoff // l
            total += 2.0 * det * _bessel_tail_sum((k_kept + 1) * l, l, z)
        return total

    cutoff = 8
    while not tail_bound(cutoff) <= 0.5 * tol:  # a nan bound or tol never passes
        cutoff = max(cutoff + 4, int(cutoff * 1.4))
        if cutoff > 100000:
            raise SpecfunError(f"no certified cutoff below {tol} for t={t}")

    coeffs = bessel_i_scaled_orders(z, cutoff)
    if isinstance(spec, CirculantSpec):
        value, terms = _circulant_bessel_sum(spec, z, cutoff, coeffs)
    else:
        value = 1.0
        terms = 0
        for l in spec.sides:
            k_kept = cutoff // l
            fac = coeffs[0] + 2.0 * math.fsum(coeffs[k * l] for k in range(1, k_kept + 1))
            value *= l * fac
            terms += 1 + 2 * k_kept
    return ThetaValue(t=t, value=value, tail_bound=tail_bound(cutoff), terms=terms)


# ---------------------------------------------------------------------------
# Dedekind eta and numeric constants
# ---------------------------------------------------------------------------


def _eta_with_bound(y: float) -> tuple[float, float]:
    """(eta(iy), error bound): the product taken while q^n >= 1e-17, q = e^{-2 pi y}.

    The omitted factors, prod_{k>=n} (1 - q^k) >= 1 - q^n / (1 - q), move the
    value by at most q^n / (1 - q) of itself.  The rounding adds, relative to
    the value, one unit per product and per subtraction, the roundings of
    exp and of its argument pi y / 12, and those of q^k: each of its k
    factors brings (1 + 2 pi y) eps from q and eps from its product, which
    move 1 - q^k by q^k times that, sum_k k q^k = q / (1 - q)^2 in all.
    """
    if y <= 0.0:
        raise SpecfunError(f"y must be positive, got {y}")
    q = math.exp(-2.0 * math.pi * y)
    prod = 1.0
    qn = q
    factors = 0
    while qn >= 1e-17:
        prod *= 1.0 - qn
        qn *= q
        factors += 1
    value = math.exp(-math.pi * y / 12.0) * prod
    units = 2 * factors + 4 + math.pi * y / 12.0 + (2.0 + 2.0 * math.pi * y) * q / (1.0 - q) ** 2
    return value, value * (qn / (1.0 - q) + units * sys.float_info.epsilon)


def dedekind_eta(y: float) -> float:
    """eta(iy) = e^{-pi y/12} prod_{n>=1} (1 - e^{-2 pi n y}) for y > 0."""
    return _eta_with_bound(y)[0]


# Bernoulli numbers B_2..B_12 for the Euler-Maclaurin correction, and B_14,
# whose term is the first one omitted.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)
_BERNOULLI_OMITTED = 7.0 / 6


def _zeta_euler_maclaurin(s: float) -> tuple[float, float]:
    """(zeta(s), |first omitted Euler-Maclaurin term|) for real s > 1.

    sum_{k<N} k^-s plus the integral, the half term and the B_2..B_12
    corrections from N = 24 on.  The derivatives of x^-s alternate in sign,
    so the truncation error lies between 0 and the first omitted term.
    """
    if not s > 1.0:
        raise SpecfunError(f"need s > 1, got {s}")
    N = 24
    head = math.fsum(k ** -s for k in range(1, N))
    tail = N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** -s
    # correction terms B_{2j}/(2j)! * (s)(s+1)...(s+2j-2) * N^{-s-2j+1}
    poch = s
    fact = 2.0
    power = N ** (-s - 1.0)
    corr = 0.0
    for j, b in enumerate(_BERNOULLI, start=1):
        corr += b / fact * poch * power
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        power /= N * N
    return head + tail + corr, _BERNOULLI_OMITTED / fact * poch * power


def riemann_zeta_real(s: float) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin acceleration of the direct sum."""
    return _zeta_euler_maclaurin(s)[0]


def catalan_constant() -> float:
    """Catalan constant G = sum_{k>=0} (-1)^k/(2k+1)^2, CVZ-accelerated."""
    n = 40
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c / ((2 * k + 1) * (2 * k + 1))
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d
