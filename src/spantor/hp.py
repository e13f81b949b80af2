"""High-precision (mpmath) evaluation of the asymptotic identities.

The true residuals of the circulant and torus asymptotic laws decay exponentially
(for Gamma = {1,2} the residual at n = 400 is ~1e-167), far below anything
float64 can resolve, so convergence checks and the conjecture verdict
run here at adaptive mpmath precision.

The circulant lead term is the Mahler measure of the symbol polynomial
z^g (2d - sum_gamma (z^gamma + z^-gamma)) with its double root at z = 1
divided out: log|lc| plus the sum of log|rho| over the roots outside the unit
circle.  The float lead term (spantor.asym) finds those roots with numpy;
here each real root and one root of each conjugate pair is refined by Newton
steps at the working precision on the sparse symbol, one power of rho per
generator, so one root routine serves every precision.  The refined value
must agree with the float one within the float's computed error, which
catches two starts that converged onto one root.  It is cached per
(generators, dps), since every row of a table and every n of a residual sweep
shares it.

log det* is the log of the product of the nonzero Laplacian eigenvalues.  Each
eigenvalue is a sum of sin^2 values that are symmetric under k -> l - k, so
only half the spectrum is evaluated, from a fixed-point half table of
sin^2(pi k / l) built by integer rotations from one rounded exp(i pi / l).
Each eigenvalue is an exact integer sum of table entries; the sums are
multiplied into one mpf, whose exponent cannot overflow, mirrored eigenvalues
are counted by multiplicity, and a single log is taken at the end.  The
table's guard bits follow from its error bound (see _guard_bits).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import mpmath as mp

from .asym import AsymError, _symbol_roots
from .graphs import CirculantSpec, spanning_tree_count_exact

__all__ = [
    "lead_term_circulant_hp",
    "log_det_star_circulant_hp",
    "log_det_star_torus_hp",
    "circulant_residual_hp",
    "torus_constant_predicted_hp",
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
    coefficient is minus the multiplicity of the largest generator.  The value
    is cached per (generators, dps), since every row of a table shares it.
    """
    return _lead_term_circulant_hp_cached(tuple(int(g) for g in gens), int(dps))


# Newton iterations allowed per root; from a float start a simple root needs
# about log2(dps / 15) + 2
_NEWTON_STEPS = 100


def _symbol_and_slope(gens: tuple[int, ...], z):
    """f(z) = sum_g (2 - z^g - z^-g) and f'(z) from the 2d + 1 terms of the symbol.

    f has the roots of the deflated symbol polynomial Q away from z = 1, so
    Newton steps on f refine Q's roots at a cost of one power per generator.
    """
    value, slope = mp.mpf(2 * len(gens)), mp.mpf(0)
    for g in gens:
        up = z ** g
        down = 1 / up
        value -= up + down
        slope -= g * (up - down)
    return value, slope / z


@lru_cache(maxsize=None)
def _lead_term_circulant_hp_cached(gens: tuple[int, ...], dps: int) -> mp.mpf:
    roots = _symbol_roots(gens)
    with mp.workdps(dps + 20):
        target = mp.mpf(10) ** -(dps + 10)
        total = mp.log(abs(roots.coeffs[0]))
        # numpy returns complex roots in exact conjugate pairs, and |rho| = |conj rho|:
        # refine the one with Im rho > 0 and count its log twice
        for start in roots.outside[roots.outside.imag >= 0]:
            rho = mp.mpc(complex(start))
            for _ in range(_NEWTON_STEPS):
                value, slope = _symbol_and_slope(gens, rho)
                step = value / slope
                rho -= step
                if abs(step) <= target * abs(rho):
                    break
            else:
                raise AsymError(f"Newton steps from {start} did not converge for {gens}")
            total += (2 if start.imag > 0 else 1) * mp.log(abs(rho))
        if abs(total - roots.value) > roots.error_estimate:
            raise AsymError(f"refined lead term {mp.nstr(total, 20)} of {gens} is off the "
                            f"float value {roots.value!r} by more than its error "
                            f"{roots.error_estimate:.2e}")
        return +total


def _guard_bits(dps: int, sides: Sequence[int]) -> int:
    """Fixed-point bits that give log det* to dps + 10 digits.

    Entry k of _sin2_table(l, bits) is sin^2(pi k / l) 2^bits with two errors.
    The rotations leave y off by about 1.5 l units relative (k units absolute
    against y >= 2^bits 2k / l), which squaring doubles to 3 l; the final
    shift is one unit absolute, at most l^2 / 4 units relative, since
    sin^2(pi k / l) >= (2k / l)^2 >= 4 / l^2 on the half range.  So an entry,
    and an eigenvalue, being a sum of entries, is good to 2 l^2 units
    relative, and the V - 1 eigenvalues of the product add V times that, with
    l the largest side.  The bits are (dps + 10) log2 10 plus
    2 bitlen(l) + bitlen(V) + 2, which also covers the product's own rounding.
    """
    target = math.ceil((dps + 10) * math.log2(10))
    return target + 2 * max(sides).bit_length() + math.prod(sides).bit_length() + 2


def _sin2_table(l: int, bits: int) -> list[int]:
    """sin^2(pi k / l) 2^bits as integers, for k = 0..floor(l/2).

    sin^2(pi k / l) = sin^2(pi (l - k) / l), so index min(k, l - k) of this
    table covers every residue k mod l.  One exp(i pi / l) is rounded to a
    fixed-point pair (c, s), and the point (x, y) = 2^bits exp(i pi k / l) is
    advanced by integer complex rotations; each step adds about one unit of
    error, so step k is good to about k units.
    """
    with mp.workprec(bits + 10):
        w = mp.expjpi(mp.mpf(1) / l)
        c, s = int(mp.nint(mp.ldexp(w.real, bits))), int(mp.nint(mp.ldexp(w.imag, bits)))
    x, y = 1 << bits, 0
    table = [0]
    for _ in range(l // 2):
        x, y = (x * c - y * s) >> bits, (x * s + y * c) >> bits
        table.append((y * y) >> bits)
    return table


def log_det_star_circulant_hp(n: int, gens: Sequence[int], dps: int) -> mp.mpf:
    """Sum of log(4 sum_g sin^2(pi g j / n)) over j = 1..n-1 at dps digits.

    lambda_j = lambda_{n-j}, so only j = 1..floor(n/2) are evaluated and all
    but j = n/2 count twice.  Each eigenvalue is an exact integer sum over the
    fixed-point sin^2 table, the sums are multiplied into one mpf, whose
    exponent cannot overflow, the factor 4^(n-1) and the table scale are
    applied as one binary shift, and a single log is taken.  _guard_bits
    bounds the table's error; the product's rounding adds about n 2^-prec.
    """
    gens = tuple(int(g) for g in gens)
    bits = _guard_bits(dps, (n,))
    sin2 = _sin2_table(n, bits)
    with mp.workprec(bits):
        paired = single = mp.mpf(1)
        for j in range(1, n // 2 + 1):
            lam = sum(sin2[min(r, n - r)] for r in ((g * j) % n for g in gens))
            if 2 * j == n:
                single = lam
            else:
                paired *= lam
        total = mp.ldexp(paired * paired * single, (2 - bits) * (n - 1))
    with mp.workdps(dps + 10):
        return +mp.log(total)


def log_det_star_torus_hp(sides: Sequence[int], dps: int) -> mp.mpf:
    """Exact-spectrum log det* of the diagonal discrete torus at dps digits.

    A mode (k_1, ..., k_d) has eigenvalue 4 sum_i sin^2(pi k_i / l_i), which
    depends on each k_i only through min(k_i, l_i - k_i).  The product runs
    over those half-range modes, skipping the zero mode; a mode with e
    coordinates strictly inside (0, l_i/2) stands for 2^e modes, so it goes
    into the e-th partial product, which is raised to the power 2^e at the
    end.  As for the circulant, each eigenvalue is an exact integer sum over
    the fixed-point tables and one log is taken of the whole product.
    """
    sides = tuple(int(s) for s in sides)
    bits = _guard_bits(dps, sides)
    halves = [[(s, int(0 < 2 * k < l)) for k, s in enumerate(_sin2_table(l, bits))]
              for l in sides]
    with mp.workprec(bits):
        products = [mp.mpf(1)] * (len(sides) + 1)
        modes = itertools.product(*halves)
        next(modes)  # the zero mode
        for mode in modes:
            products[sum(e for _, e in mode)] *= sum(s for s, _ in mode)
        total = mp.mpf(1)
        for e, partial in enumerate(products):
            total *= partial ** (2 ** e)
        total = mp.ldexp(total, (2 - bits) * (math.prod(sides) - 1))
    with mp.workdps(dps + 10):
        return +mp.log(total)


def circulant_residual_hp(n: int, gens: Sequence[int], dps: int) -> mp.mpf:
    """residual(n) = log det* - n I - 2 log n + log c_Gamma at dps digits."""
    gens = tuple(int(g) for g in gens)
    c_gamma = 1 + sum(g * g for g in gens[1:])
    with mp.workdps(dps + 10):
        lead = lead_term_circulant_hp(gens, dps + 10)
        logdet = log_det_star_circulant_hp(n, gens, dps + 10)
        return +(logdet - n * lead - 2 * mp.log(n) + mp.log(c_gamma))


def torus_constant_predicted_hp(n: int, alpha: Sequence[int], beta: Sequence[int],
                                dps: int) -> mp.mpf:
    """Predicted log det* of diag(alpha, beta*n) with a single growing side.

    Restricted to d-p = 1, where the per-mode lead integrals have the exact
    arccosh closed form and zeta'_{R/beta Z}(0) = -2 log beta.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if len(beta) != 1:
        raise ValueError("high-precision torus residual supports exactly one growing side")
    b = beta[0]
    with mp.workdps(dps):
        lams = [mp.mpf(0)]
        for a in alpha:
            lams = [lam + 4 * mp.sinpi(mp.mpf(m) / a) ** 2
                    for lam in lams for m in range(a)]
        lead = n * b * mp.fsum(mp.acosh(1 + lam / 2) for lam in lams)
        return +(lead + 2 * mp.log(n) + 2 * mp.log(b))


def torus_constant_residual_hp(n: int, alpha: Sequence[int], beta: Sequence[int],
                               dps: int) -> mp.mpf:
    """Asymptotic-law residual log det* - predicted for diag(alpha, beta*n)."""
    predicted = torus_constant_predicted_hp(n, alpha, beta, dps + 10)
    sides = tuple(int(a) for a in alpha) + (int(beta[0]) * n,)
    with mp.workdps(dps + 10):
        logdet = log_det_star_torus_hp(sides, dps + 10)
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
    exact = spanning_tree_count_exact(CirculantSpec(5 * n, (1, n)))
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
