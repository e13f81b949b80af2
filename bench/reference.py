"""Reference values for the benchmark's jobs, computed with mpmath alone.

Nothing here imports spantor: every value comes from a closed form, from a
product of closed-form eigenvalues, or from an mpmath routine, so a defect in
the package cannot hide in its own check.

* exact counts: n F_n^2 for C_n^{1,2}; otherwise the product of the
  closed-form Laplacian eigenvalues divided by the vertex count, rounded;
* circulant log det*: 2 log n - log c_Gamma + n log|lc| + sum_r log|r^n - 1|
  over the roots r of the deflated symbol polynomial Q (P = (z-1)^2 Q);
  the lead term is the Mahler measure of Q;
* torus log det*: the Chebyshev identity prod_k (x + 4 sin^2(pi k/L))
  = 2 cosh(L acosh(1 + x/2)) - 2 along the last side;
* c_2 = 4G/pi (mpmath.catalan), c_d by mpmath quadrature of the Bessel form;
* zeta'(0) = -2 log beta for a circle and the Kronecker limit formula
  -log(y^2 eta(iy)^4) - 2 log a for the rectangle (a, ay);
* Epstein zeta of a circle and of a square torus from Riemann zeta and the
  Dirichlet beta function;
* scaled Bessel values mpmath.besseli(m, t) e^{-t}.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

# working precision of the float-output references
FLOAT_DPS = 40


def _mpf(x):
    return mp.mpf(repr(x)) if isinstance(x, float) else mp.mpf(x)


# ---------------------------------------------------------------------------
# Exact spanning-tree counts
# ---------------------------------------------------------------------------


def fibonacci_count(n: int) -> int:
    """tau(C_n^{1,2}) = n F_n^2."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return n * a * a


def _round_count(eigenvalues, vertices: int, dps: int) -> int:
    with mp.workdps(dps):
        prod = mp.fprod(eigenvalues) / vertices
        nearest = mp.nint(prod)
        if abs(prod - nearest) > mp.mpf("0.01"):
            raise ArithmeticError(f"eigenvalue product {prod} is not near an integer")
        return int(nearest)


@lru_cache(maxsize=None)
def circulant_count(n: int, gens: tuple[int, ...]) -> int:
    if tuple(gens) == (1, 2):
        return fibonacci_count(n)
    # every eigenvalue is at most 4d, so the count has < n log10(4d) digits
    dps = int(n * math.log10(4 * len(gens))) + 30
    with mp.workdps(dps):
        eig = [4 * mp.fsum(mp.sinpi(mp.mpf(g * j % n) / n) ** 2 for g in gens)
               for j in range(1, n)]
    return _round_count(eig, n, dps)


def _torus_modes(sides, dps):
    """All closed-form eigenvalues sum_i 4 sin^2(pi m_i / l_i)."""
    with mp.workdps(dps):
        lams = [mp.mpf(0)]
        for l in sides:
            parts = [4 * mp.sinpi(mp.mpf(m) / l) ** 2 for m in range(l)]
            lams = [lam + p for lam in lams for p in parts]
    return lams


@lru_cache(maxsize=None)
def torus_count(sides: tuple[int, ...]) -> int:
    vertices = math.prod(sides)
    dps = int(vertices * math.log10(4 * len(sides))) + 30
    lams = _torus_modes(sides, dps)
    return _round_count(lams[1:], vertices, dps)


def conjecture_closed_form(n: int, dps: int) -> mp.mpf:
    """(n/5) (e^{nJ_1} + e^{-nJ_1} + (1-sqrt5)/2)^2 (e^{nJ_2} + e^{-nJ_2} + (1+sqrt5)/2)^2."""
    with mp.workdps(dps):
        j1 = mp.acosh(2 - mp.cospi(mp.mpf(2) / 5))
        j2 = mp.acosh(2 - mp.cospi(mp.mpf(4) / 5))
        s5 = mp.sqrt(5)
        fx = 2 * mp.cosh(n * j1) + (1 - s5) / 2
        fy = 2 * mp.cosh(n * j2) + (1 + s5) / 2
        return mp.mpf(n) / 5 * fx ** 2 * fy ** 2


def alpha_reference(beta: int) -> list[tuple[int, float, float, str]]:
    """(k, J_k, alpha_k, tag) of the beta = 5 product form."""
    if beta != 5:
        raise ValueError("reference coefficients are known for beta = 5 only")
    with mp.workdps(FLOAT_DPS):
        minus, plus = (1 - mp.sqrt(5)) / 2, (1 + mp.sqrt(5)) / 2
        alphas = {1: (minus, "(1-sqrt5)/2"), 2: (plus, "(1+sqrt5)/2"),
                  3: (plus, "(1+sqrt5)/2"), 4: (minus, "(1-sqrt5)/2")}
        return [(k, mp.acosh(2 - mp.cospi(mp.mpf(2 * k) / 5)), a, tag)
                for k, (a, tag) in alphas.items()]


# ---------------------------------------------------------------------------
# Circulants: symbol roots, Mahler measure, log det*
# ---------------------------------------------------------------------------


def _deflated_symbol(gens: tuple[int, ...]) -> list[int]:
    """Q with z^G (2d - sum (z^g + z^-g)) = (z - 1)^2 Q(z), highest degree first."""
    g_max = max(gens)
    coeffs = [0] * (2 * g_max + 1)
    coeffs[g_max] = 2 * len(gens)
    for g in gens:
        coeffs[g_max + g] -= 1
        coeffs[g_max - g] -= 1
    for _ in range(2):
        quotient = [coeffs[0]]
        for c in coeffs[1:-1]:
            quotient.append(c + quotient[-1])
        if coeffs[-1] + quotient[-1] != 0:
            raise ArithmeticError("z = 1 is not a double root of the symbol")
        coeffs = quotient
    return coeffs


@lru_cache(maxsize=None)
def symbol_roots(gens: tuple[int, ...], dps: int):
    """(leading coefficient, roots) of Q at dps digits; no root lies on |z| = 1."""
    q = _deflated_symbol(gens)
    with mp.workdps(dps):
        if len(q) == 1:
            return mp.mpf(q[0]), ()
        roots = mp.polyroots(q, maxsteps=400, extraprec=2 * dps)
        if any(abs(abs(r) - 1) < mp.mpf(10) ** (-dps // 3) for r in roots):
            raise ArithmeticError(f"symbol of {gens} has a root on the unit circle")
        return mp.mpf(q[0]), tuple(roots)


def mahler_lead(gens: tuple[int, ...], dps: int = FLOAT_DPS) -> mp.mpf:
    """Circulant lead term: log|lc| + sum of log|r| over the roots outside the circle."""
    lc, roots = symbol_roots(tuple(gens), dps)
    with mp.workdps(dps):
        return mp.log(abs(lc)) + mp.fsum(mp.log(abs(r)) for r in roots if abs(r) > 1)


def circulant_log_det(n: int, gens: tuple[int, ...], dps: int = FLOAT_DPS):
    """(exact log det*, predicted n I + 2 log n - log c_Gamma, their difference)."""
    gens = tuple(gens)
    lc, roots = symbol_roots(gens, dps)
    c_gamma = sum(g * g for g in gens)
    with mp.workdps(dps):
        base = 2 * mp.log(n) - mp.log(c_gamma)
        lead = mahler_lead(gens, dps)
        predicted = n * lead + base
        # |r^n - 1| = |r|^n |1 - r^-n| outside the circle, so the residual
        # is formed without cancelling the two large logs
        residual = mp.fsum(mp.log(abs(1 - r ** (-n))) if abs(r) > 1
                           else mp.log(abs(1 - r ** n)) for r in roots)
        return predicted + residual, predicted, residual


# ---------------------------------------------------------------------------
# Tori
# ---------------------------------------------------------------------------


def _chebyshev_log_factor(x, length):
    """log prod_{k} (x + 4 sin^2(pi k / L)) for x > 0."""
    theta = mp.acosh(1 + x / 2)
    return length * theta + 2 * mp.log(-mp.expm1(-length * theta))


def torus_log_det(sides: tuple[int, ...], dps: int = FLOAT_DPS):
    """log det* of the torus from the Chebyshev product along the last side."""
    *head, length = sides
    lams = _torus_modes(head, dps + 10)
    with mp.workdps(dps + 10):
        total = 2 * mp.log(length) + mp.fsum(
            _chebyshev_log_factor(lam, length) for lam in lams[1:])
        return +total


def torus_constant_hp(n: int, alpha: tuple[int, ...], b: int, dps: int):
    """(exact, predicted, residual) of diag(alpha, b n) with one growing side.

    The prediction L sum_mu acosh(1 + mu/2) + 2 log L (L = b n) differs from
    the Chebyshev form by 2 sum_{mu != 0} log(1 - e^{-L acosh(1 + mu/2)}).
    """
    length = b * n
    lams = _torus_modes(alpha, dps + 10)
    with mp.workdps(dps + 10):
        thetas = [mp.acosh(1 + lam / 2) for lam in lams]
        predicted = length * mp.fsum(thetas) + 2 * mp.log(length)
        residual = 2 * mp.fsum(mp.log(-mp.expm1(-length * th)) for th in thetas[1:])
        return predicted + residual, predicted, residual


def _dedekind_eta(y):
    q = mp.exp(-2 * mp.pi * y)
    prod, qn = mp.mpf(1), q
    while qn > mp.eps:
        prod *= 1 - qn
        qn *= q
    return mp.exp(-mp.pi * y / 12) * prod


def zeta_prime_zero(sides: tuple[float, ...]) -> mp.mpf:
    """zeta'(0) of the real circle or rectangle torus."""
    with mp.workdps(FLOAT_DPS):
        if len(sides) == 1:
            return -2 * mp.log(_mpf(sides[0]))
        if len(sides) == 2:
            a, b = _mpf(sides[0]), _mpf(sides[1])
            y = b / a
            return -2 * mp.log(a) - mp.log(y ** 2 * _dedekind_eta(y) ** 4)
    raise ValueError(f"no closed form for {len(sides)}-dimensional tori")


def epstein(sides: tuple[float, ...], s: float) -> mp.mpf:
    """Spectral zeta (4 pi^2)^{-s} sum_{k != 0} (sum k_i^2/m_i^2)^{-s}."""
    with mp.workdps(FLOAT_DPS):
        s = _mpf(s)
        pre = (4 * mp.pi ** 2) ** (-s)
        if len(sides) == 1:
            m = _mpf(sides[0])
            return pre * 2 * m ** (2 * s) * mp.zeta(2 * s)
        if len(sides) == 2 and sides[0] == sides[1]:
            m = _mpf(sides[0])
            beta = mp.dirichlet(s, [0, 1, 0, -1])
            return pre * m ** (2 * s) * 4 * mp.zeta(s) * beta
    raise ValueError(f"no closed form for sides {sides}")


@lru_cache(maxsize=None)
def c_d(d: int) -> mp.mpf:
    """Torus growth constant int_0^inf (e^{-t} - (e^{-2t} I_0(2t))^d) dt/t."""
    with mp.workdps(FLOAT_DPS):
        if d == 2:
            return 4 * mp.catalan / mp.pi
        f = lambda t: (mp.exp(-t) - (mp.besseli(0, 2 * t) * mp.exp(-2 * t)) ** d) / t
        return mp.quad(f, [0, 1, 10, 100, 1000, mp.inf])


@lru_cache(maxsize=None)
def _mode_lead_2d(lam: mp.mpf) -> mp.mpf:
    """int_{[0,1]^2} log(lam + 4 sin^2 pi x + 4 sin^2 pi y), one axis in closed form."""
    with mp.workdps(FLOAT_DPS):
        if lam == 0:
            return c_d(2)
        return mp.quad(lambda x: mp.acosh(1 + (lam + 4 * mp.sinpi(x) ** 2) / 2),
                       [0, 0.5, 1])


def torus_constant_float(n: int, alpha: tuple[int, ...], beta: tuple[int, ...]):
    """(exact, predicted) for diag(alpha, beta n); one or two growing sides."""
    sides = tuple(alpha) + tuple(b * n for b in beta)
    exact = torus_log_det(sides)
    lams = _torus_modes(alpha, FLOAT_DPS)
    with mp.workdps(FLOAT_DPS):
        if len(beta) == 1:
            per_mode = mp.fsum(mp.acosh(1 + lam / 2) for lam in lams)
        elif len(beta) == 2:
            per_mode = mp.fsum(_mode_lead_2d(+lam) for lam in lams)
        else:
            raise ValueError("at most two growing sides")
        lead = mp.mpf(n) ** len(beta) * math.prod(beta) * per_mode
        predicted = lead + 2 * mp.log(n) - zeta_prime_zero(tuple(float(b) for b in beta))
        return exact, predicted


def torus_sublinear_float(n: int, a_n: int, a: int, b: int):
    """(exact, predicted) for diag(a a_n, b n): V c_2 - (n/a_n) b pi / (3a).

    The second-order term uses zeta_{R/(1/a)Z}(1) = 1/(12 a^2).
    """
    exact = torus_log_det((a * a_n, b * n))
    with mp.workdps(FLOAT_DPS):
        vertices = a * a_n * b * n
        predicted = vertices * c_d(2) - mp.mpf(n) / a_n * b * mp.pi / (3 * a)
        return exact, predicted


def bessel_scaled(order: int, t: float) -> mp.mpf:
    with mp.workdps(FLOAT_DPS):
        t = _mpf(t)
        return mp.besseli(order, t) * mp.exp(-t)
