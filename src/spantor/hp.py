"""High-precision (mpmath) evaluation of the asymptotic identities.

The true residuals of the circulant and torus asymptotic laws decay exponentially
(for Gamma = {1,2} the residual at n = 400 is ~1e-167), far below anything
float64 can resolve, so convergence checks and the conjecture verdict
run here at adaptive mpmath precision.

The circulant lead term is evaluated as the Mahler measure of the symbol
polynomial z^g (2d - sum_gamma (z^gamma + z^-gamma)): by Jensen's formula
that equals log 4 + int_0^1 log(sum_gamma sin^2(pi gamma w)) dw, so it is the
same closed-form route the float module integrates, but computable to any
precision from polynomial roots after exact deflation of the double root at
z = 1.  A tanh-sinh evaluation of the log-sin integral is provided as an
independent cross-check route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .graphs import (
    CirculantSpec,
    _deflate_once_at_one,
    _symbol_poly,
    spanning_tree_count_exact,
)

__all__ = [
    "lead_term_circulant_hp",
    "lead_term_circulant_hp_quad",
    "log_det_star_circulant_hp",
    "log_det_star_torus_hp",
    "circulant_residual_hp",
    "torus_constant_residual_hp",
    "conjecture_tau_hp",
    "conjecture_surd_identities",
    "ConjectureVerdict",
    "verify_conjecture",
]


def lead_term_circulant_hp(gens: Sequence[int], dps: int) -> mp.mpf:
    """Lead term as the Mahler measure log|lc| + sum of log|root| over |root| > 1.

    The symbol polynomial has a double root at z = 1 (removed exactly) and no
    other unit-circle roots for a generator set containing 1; its leading
    coefficient is minus the multiplicity of the largest generator.
    """
    coeffs = _deflate_once_at_one(_deflate_once_at_one(_symbol_poly(gens)))
    with mp.workdps(dps + 20):
        roots = mp.polyroots([mp.mpf(c) for c in coeffs],
                             maxsteps=200, extraprec=4 * dps)
        total = mp.log(abs(mp.mpf(coeffs[0])))
        for rho in roots:
            m = abs(rho)
            if abs(m - 1) < mp.mpf(10) ** (-dps // 2):
                raise ValueError(f"unexpected near-unit root {rho} for {gens}")
            if m > 1:
                total += mp.log(m)
        return +total


def lead_term_circulant_hp_quad(gens: Sequence[int], dps: int) -> mp.mpf:
    """Cross-check route: tanh-sinh quadrature of log 4 + int_0^1 log(sum sin^2).

    The integration is split at the oscillation scale of the largest
    generator so each panel is free of interior structure; the log endpoint
    singularities sit at panel boundaries where tanh-sinh converges
    exponentially.
    """
    gens = tuple(int(g) for g in gens)
    with mp.workdps(dps + 10):
        def integrand(w):
            return mp.log(mp.fsum(mp.sinpi(g * w) ** 2 for g in gens))

        g_max = max(gens)
        points = [mp.mpf(j) / (2 * g_max) for j in range(2 * g_max + 1)]
        val = mp.quad(integrand, points)
        return +(mp.log(4) + val)


def log_det_star_circulant_hp(n: int, gens: Sequence[int], dps: int) -> mp.mpf:
    """Sum of log(4 sum_g sin^2(pi g j / n)) over j = 1..n-1 at dps digits."""
    gens = tuple(int(g) for g in gens)
    with mp.workdps(dps + 10):
        total = mp.mpf(0)
        for j in range(1, n):
            lam = 4 * mp.fsum(mp.sinpi(mp.mpf((g * j) % n) / n) ** 2 for g in gens)
            total += mp.log(lam)
        return +total


def log_det_star_torus_hp(sides: Sequence[int], dps: int) -> mp.mpf:
    """Exact-spectrum log det* of the diagonal discrete torus at dps digits."""
    sides = tuple(int(s) for s in sides)
    with mp.workdps(dps + 10):
        # per-side eigenvalue parts 4 sin^2(pi m / l)
        parts = [[4 * mp.sinpi(mp.mpf(m) / l) ** 2 for m in range(l)] for l in sides]
        total = mp.mpf(0)
        idx = [0] * len(sides)
        count = math.prod(sides)
        for flat in range(count):
            rest = flat
            lam = mp.mpf(0)
            for i in range(len(sides) - 1, -1, -1):
                lam += parts[i][rest % sides[i]]
                rest //= sides[i]
            if flat != 0:
                total += mp.log(lam)
        return +total


def circulant_residual_hp(n: int, gens: Sequence[int], dps: int) -> mp.mpf:
    """residual(n) = log det* - n I - 2 log n + log c_Gamma at dps digits."""
    gens = tuple(int(g) for g in gens)
    c_gamma = 1 + sum(g * g for g in gens[1:])
    with mp.workdps(dps + 10):
        lead = lead_term_circulant_hp(gens, dps + 10)
        logdet = log_det_star_circulant_hp(n, gens, dps + 10)
        return +(logdet - n * lead - 2 * mp.log(n) + mp.log(c_gamma))


def torus_constant_residual_hp(n: int, alpha: Sequence[int], beta: Sequence[int],
                               dps: int) -> mp.mpf:
    """Asymptotic-law residual for diag(alpha, beta*n) with a single growing side.

    Restricted to d-p = 1, where the per-mode lead integrals have the exact
    arccosh closed form and zeta'_{R/beta Z}(0) = -2 log beta.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if len(beta) != 1:
        raise ValueError("high-precision torus residual supports exactly one growing side")
    b = beta[0]
    with mp.workdps(dps + 10):
        lams = [mp.mpf(0)]
        for a in alpha:
            lams = [lam + 4 * mp.sinpi(mp.mpf(m) / a) ** 2
                    for lam in lams for m in range(a)]
        lead = n * b * mp.fsum(mp.acosh(1 + lam / 2) for lam in lams)
        logdet = log_det_star_torus_hp(alpha + (b * n,), dps + 10)
        predicted = lead + 2 * mp.log(n) + 2 * mp.log(b)
        return +(logdet - predicted)


# ---------------------------------------------------------------------------
# The beta = 5 conjecture
# ---------------------------------------------------------------------------


def _conjecture_factors(dps: int):
    """x_plus, y_plus and the two algebraic offsets of the closed form."""
    with mp.workdps(dps):
        s5 = mp.sqrt(5)
        x_plus = (9 - s5 + mp.sqrt(70 - 18 * s5)) / 4
        y_plus = (9 + s5 + mp.sqrt(70 + 18 * s5)) / 4
        a_minus = (1 - s5) / 2
        a_plus = (1 + s5) / 2
        return x_plus, y_plus, a_minus, a_plus


def conjecture_tau_hp(n: int, dps: int) -> mp.mpf:
    """Conjectured spanning-tree count of C_{5n}^{1,n} at dps digits."""
    if n < 2:
        raise ValueError(f"the conjecture is stated for n >= 2, got {n}")
    with mp.workdps(dps):
        x_plus, y_plus, a_minus, a_plus = _conjecture_factors(dps)
        fx = mp.power(x_plus, n) + mp.power(x_plus, -n) + a_minus
        fy = mp.power(y_plus, n) + mp.power(y_plus, -n) + a_plus
        return +(mp.mpf(n) / 5 * fx ** 2 * fy ** 2)


def conjecture_surd_identities(dps: int = 60) -> dict[str, mp.mpf]:
    """Internal identities: x_+ = e^{J_1^5}, y_+ = e^{J_2^5}, cosh J_1^5 = (9-sqrt5)/4.

    J_k^5 = arccosh(2 - cos(2 pi k / 5)).  Returns absolute deviations.
    """
    with mp.workdps(dps):
        x_plus, y_plus, _, _ = _conjecture_factors(dps)
        j1 = mp.acosh(2 - mp.cospi(mp.mpf(2) / 5))
        j2 = mp.acosh(2 - mp.cospi(mp.mpf(4) / 5))
        return {
            "x_plus_vs_exp_J1": abs(x_plus - mp.exp(j1)),
            "y_plus_vs_exp_J2": abs(y_plus - mp.exp(j2)),
            "cosh_J1_vs_surd": abs(mp.cosh(j1) - (9 - mp.sqrt(5)) / 4),
            "J1_equals_J4": abs(j1 - mp.acosh(2 - mp.cospi(mp.mpf(8) / 5))),
            "J2_equals_J3": abs(j2 - mp.acosh(2 - mp.cospi(mp.mpf(6) / 5))),
        }


@dataclass(frozen=True)
class ConjectureVerdict:
    n: int
    exact: int
    predicted: mp.mpf
    match: bool
    digits_agreement: int
    dps_used: int


def verify_conjecture(n: int, min_dps: int = 60, max_dps: int = 4000) -> ConjectureVerdict:
    """Compare the conjectured closed form with the exact count of C_{5n}^{1,n}.

    Precision escalates until the rounding interval around the evaluated form
    excludes both integer neighbours (two evaluations at different precision
    must agree and sit within 0.25 of the same integer).
    """
    exact = spanning_tree_count_exact(CirculantSpec(5 * n, (1, n))).value
    dps = max(min_dps, 60)
    while dps <= max_dps:
        v1 = conjecture_tau_hp(n, dps)
        v2 = conjecture_tau_hp(n, dps + 25)
        with mp.workdps(dps + 30):
            drift = abs(v1 - v2)
            nearest = mp.nint(v2)
            offset = abs(v2 - nearest)
            if drift < mp.mpf("0.01") and offset + 10 * drift < mp.mpf("0.25"):
                match = int(nearest) == exact
                err = abs(v2 - exact)
                if err == 0:
                    digits = dps
                else:
                    digits = max(0, int(mp.floor(-mp.log10(err / max(exact, 1)))))
                return ConjectureVerdict(n=n, exact=exact, predicted=v2, match=match,
                                         digits_agreement=digits, dps_used=dps)
        dps *= 2
    raise RuntimeError(f"precision {max_dps} digits insufficient for an unambiguous verdict")
