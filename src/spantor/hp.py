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
steps on Gaussian integers in fixed point (see _newton_bits for the guard
bits) on the sparse symbol, one power of rho and one of 1/rho per generator,
so one root routine serves every precision.  Above 95 digits the steps run
in stages of doubling precision, so that only the last stage's two steps
pay for the full fixed-point width.  lc^2 and the |rho|^2 multiply
into one fixed-point product, and one log gives the value.  It must agree
with the float one within the float's computed error, which catches two
starts that converged onto one root.  It is cached per (generators, dps),
since every row of a table and every n of a residual sweep shares it.

log det* is the log of the product of the nonzero Laplacian eigenvalues,
which is V tau by the matrix-tree theorem.  log_det_star_hp takes whichever
of two routes _route_costs rates cheaper from the input alone.  Where the
count's m-dimensional ring is small against the number of modes and the
precision (m <= 4 from about 60 to tens of thousands of vertices), it is
the log of the exact integer V tau from graphs.spanning_tree_count_exact,
rounded once.  Where the ring is wide (m >= 7 at 60 digits) or tau is long
against a low precision, it is the spectral product, whose
half-range modes come from the one mode engine of the float path,
graphs._half_spectrum, which here reads a fixed-point half table of
sin^2(pi k / l) instead of the float table: the cosine recurrence
cos((k + 1) t) = 2 cos t cos kt - cos((k - 1) t), t = 2 pi / l, in integers
from one rounded 2 cos t, one product per entry, with an error that grows
as k^2 (see _guard_bits).  Each eigenvalue is then an exact
integer sum of table entries; the sums are multiplied into one plain-int
product per weight, rounded after each factor exactly as an mpf product
would be, and a single log is taken at the end.  The table's guard bits
follow from its error bound (see _guard_bits).  The circulant and
one-growing-side torus predictors build their reports with asym's _report,
with log_det_star_hp as the exact value, so the values are mpf; compare
--precision prints them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import mpmath as mp
import numpy as np

from .asym import AsymError, AsymptoticReport, _report, _symbol_roots
from .graphs import (
    DEFAULT_EIGENVALUE_CAP,
    CirculantSpec,
    GraphSpec,
    TorusSpec,
    _check_cap,
    _cover_shape,
    _half_spectrum,
    spanning_tree_count_exact,
)

__all__ = [
    "lead_term_circulant_hp",
    "log_det_star_hp",
    "predict_circulant_hp",
    "predict_torus_constant_hp",
    "conjecture_tau_hp",
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


# Newton iterations allowed per stage of a root; from the last stage's root a
# stage needs about two, and the first about log2(digits / 15) + 2 from a float start
_NEWTON_STEPS = 100

# the fewest digits of a Newton stage below the last.  Each stage ends with a
# step that only confirms it, so below about 100 digits, where a step's cost
# is mostly fixed, one more stage costs more than its cheaper steps save
_FIRST_STAGE_DPS = 48


def _newton_bits(dps: int, gens: tuple[int, ...], radius: float) -> int:
    """Fixed-point bits P for Newton on f(z) = sum_g (2 - z^g - z^-g).

    z = (x + iy) 2^-P with integer x, y is exact, and every complex product
    is truncated to P bits, one unit of 2^-P per part.  Powering by squaring
    doubles the relative error at each square and adds a unit at each
    product, so for |z| >= 1 the computed z^g is off by at most 4 g units
    relative, 4 g |z|^g units absolute; the powers of |1/z| < 1 are off by at
    most 4 g units absolute.  Near a root f is about 0 while its terms reach
    R^g_max, R = max |rho| (1 with no root outside the circle), so f is off
    by at most 8 (sum_g g) R^g_max units: that cancellation costs
    g_max log2 R bits and the powering error bitlen(8 sum_g g).  The
    remaining (dps + 20) log2 10 bits give f, and so each Newton step, the
    absolute accuracy that dps + 20 digits give a term of size 1.  The
    product of the |rho|^2 adds at most 3 units relative per root, which the
    powering bits also cover: there are D / 2 = g_max - 1 roots outside.
    """
    target = math.ceil((dps + 20) * math.log2(10))
    cancellation = math.ceil(gens[-1] * math.log2(radius)) + 1
    return target + cancellation + (8 * sum(gens)).bit_length()


def _fixed_power(x: int, y: int, g: int, bits: int) -> tuple[int, int]:
    """(x + iy)^g 2^(-bits (g - 1)) by squaring: z^g for z = (x + iy) 2^-bits, in the same units."""
    rx, ry = x, y
    for bit in bin(g)[3:]:
        rx, ry = ((rx + ry) * (rx - ry)) >> bits, (2 * rx * ry) >> bits
        if bit == "1":
            rx, ry = (rx * x - ry * y) >> bits, (rx * y + ry * x) >> bits
    return rx, ry


def _newton_root(start: complex, gens: tuple[int, ...], dps: int,
                 radius: float) -> tuple[int, int] | None:
    """A root of f(z) = sum_g (2 - z^g - z^-g) from ``start``, as x + iy in units of 2^-P.

    f has the roots of the deflated symbol polynomial Q away from z = 1, so
    the steps cost one power of z and one of 1/z per distinct generator
    instead of a dense evaluation of Q.  The Newton step f / f' is
    -f z / h with h = sum_g g (z^g - z^-g).  The root is refined in stages
    of doubling digits, the last at dps and the first at 48 to 95 (dps
    itself below 96), a stage at d digits in _newton_bits(d, gens, radius)
    bits.  A step about doubles the correct digits, so a stage from the
    last one's root takes about two steps, and only the last stage's run
    at the full P = _newton_bits(dps, gens, radius).  A stage stops once
    |step|^2 scale <= |z|^2, scale = 10^(2 (d + 10)); None when a stage's
    steps run out.
    """
    multiplicity = Counter(gens)
    stages = [dps]
    while stages[0] >= 2 * _FIRST_STAGE_DPS:
        stages.insert(0, -(-stages[0] // 2))
    x, y, bits = int(math.ldexp(start.real, 64)), int(math.ldexp(start.imag, 64)), 64
    for digits in stages:
        shift = _newton_bits(digits, gens, radius) - bits
        x, y, bits = x << shift, y << shift, bits + shift
        scale = 10 ** (2 * (digits + 10))
        constant = (2 * len(gens)) << bits
        for _ in range(_NEWTON_STEPS):
            norm = x * x + y * y
            ux, uy = (x << 2 * bits) // norm, -((y << 2 * bits) // norm)
            f_re, f_im, h_re, h_im = constant, 0, 0, 0
            for g, m in multiplicity.items():
                wx, wy = _fixed_power(x, y, g, bits)
                vx, vy = _fixed_power(ux, uy, g, bits)
                f_re -= m * (wx + vx)
                f_im -= m * (wy + vy)
                h_re += m * g * (wx - vx)
                h_im += m * g * (wy - vy)
            num_re, num_im = (f_re * x - f_im * y) >> bits, (f_re * y + f_im * x) >> bits
            h_norm = h_re * h_re + h_im * h_im
            # z - step = z + f z / h
            sx = ((num_re * h_re + num_im * h_im) << bits) // h_norm
            sy = ((num_im * h_re - num_re * h_im) << bits) // h_norm
            x, y = x + sx, y + sy
            if (sx * sx + sy * sy) * scale <= x * x + y * y:
                break
        else:
            return None
    return x, y


@lru_cache(maxsize=None)
def _lead_term_circulant_hp_cached(gens: tuple[int, ...], dps: int) -> mp.mpf:
    roots = _symbol_roots(gens)
    # numpy returns complex roots in exact conjugate pairs, and |rho| = |conj rho|:
    # refine the one with Im rho > 0 and count its |rho|^2 twice
    starts = roots.outside[roots.outside.imag >= 0]
    radius = float(np.abs(starts).max(initial=1.0))
    bits = _newton_bits(dps, gens, radius)
    # lc^2 prod |rho|^2 in fixed point, each factor >= 1 truncated once
    product = roots.coeffs[0] ** 2 << bits
    for start in starts:
        root = _newton_root(complex(start), gens, dps, radius)
        if root is None:
            raise AsymError(f"Newton steps from {start} did not converge for {gens}")
        x, y = root
        square = (x * x + y * y) >> bits
        for _ in range(2 if start.imag > 0 else 1):
            product = (product * square) >> bits
    with mp.workdps(dps + 20):
        total = mp.log(mp.mpf((product, -bits))) / 2
        if abs(total - roots.value) > roots.error_estimate:
            raise AsymError(f"refined lead term {mp.nstr(total, 20)} of {gens} is off the "
                            f"float value {roots.value!r} by more than its error "
                            f"{roots.error_estimate:.2e}")
        return +total


def _guard_bits(dps: int, sides: Sequence[int]) -> int:
    """Fixed-point bits that give log det* to dps + 10 digits.

    Entry k of _sin2_table(l, bits) is sin^2(pi k / l) 2^bits to within
    (k^2 + 1) / 2 units.  Without truncation its C_k would be 2^bits T_k(x)
    for the rounded cosine x = c2 2^-(bits + 1), which lies in [-1, 1] and
    is off cos(2 pi / l) by about 1/4 unit, so T_k(x) is off cos(2 pi k / l)
    by about k^2 / 4 units (|T_k'| <= k^2 on [-1, 1]).  The truncations,
    under one unit per step and half a unit in C_1, travel through the
    recurrence as U_m(x) with |U_m| <= m + 1, which adds k^2 / 2 units to
    C_k in all; halving C_k and the final shift leave about 3/8 k^2 + 1/2
    units.  Since sin^2(pi k / l) >= (2k / l)^2 on the half range, an entry,
    and an eigenvalue, being a sum of entries, is good to l^2 / 4 units
    relative.  The V - 1 eigenvalues of the product add V times that, with l
    the largest side, and the product's own rounding about V units more.
    The bits are (dps + 10) log2 10 plus 2 bitlen(l) + bitlen(V) + 2, which
    leave room for 2 l^2 units relative per eigenvalue and so for both.
    """
    target = math.ceil((dps + 10) * math.log2(10))
    return target + 2 * max(sides).bit_length() + math.prod(sides).bit_length() + 2


def _sin2_table(l: int, bits: int) -> list[int]:
    """sin^2(pi k / l) 2^bits as integers, for k = 0..floor(l/2).

    sin^2(pi k / l) = sin^2(pi (l - k) / l), so index min(k, l - k) of this
    table covers every residue k mod l.  With c2 = 2 cos(2 pi / l) 2^bits
    rounded once, C_0 = 2^bits and C_1 = c2 >> 1, the recurrence
    C_(k+1) = ((c2 C_k) >> bits) - C_(k-1) gives C_k = cos(2 pi k / l) 2^bits
    with one product per entry, and entry k is (2^bits - C_k) >> 1.  Its
    error grows as k^2; _guard_bits states the bound.
    """
    with mp.workprec(bits + 10):
        c2 = int(mp.nint(mp.ldexp(2 * mp.cospi(mp.mpf(2) / l), bits)))
    one = 1 << bits
    previous, current = one, c2 >> 1
    table = [0]
    for _ in range(l // 2):
        table.append((one - current) >> 1)
        previous, current = current, ((c2 * current) >> bits) - previous
    return table


def _rounded_product(values, bits: int) -> mp.mpf:
    """The product of the non-negative ints ``values``, rounded to ``bits`` after each factor.

    A plain-int running product man 2^exp that, once man passes ``bits``
    bits, is cut back to them with round half to even, as mpmath's
    mpf_mul_int and _normalize do at round_nearest.  So the result equals the
    mpf chain mp.mpf(1) * v_1 * v_2 * ... at prec ``bits`` bit for bit, at a
    fraction of the chain's per-call cost.
    """
    man, exp = 1, 0
    for value in values:
        man *= value
        shift = man.bit_length() - bits
        if shift > 0:
            t = man >> (shift - 1)
            if t & 1 and (t & 2 or man & ((1 << (shift - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
            exp += shift
    with mp.workprec(bits):
        return mp.mpf((man, exp))


# the coefficients of _route_costs, in microseconds
_COUNT_FIXED = 72.0
_COUNT_ENTRY = 0.5
_COUNT_BIGINT = 0.27
_SPECTRAL_FIXED = 150.0
_SPECTRAL_MODE = 0.024
_SPECTRAL_BIT = 0.0016


def _route_costs(spec: GraphSpec, dps: int) -> tuple[float, float]:
    """Estimated microseconds of log det* by the exact count and by the spectral product.

    The count takes V_L at an element of an m-dimensional ring
    (``_cover_shape``'s base, or the symbol route's g_max - 1 with L = n) in
    about bitlen(L) ring products of m^2 multiplications each, then one
    Bareiss determinant of the m x m regular representation, whose entries
    grow to the bits of tau, at most B = (V - 1) log2(degree) by the AM-GM
    bound on the eigenvalues.  The spectral product multiplies one P-bit
    integer per half-range mode, P = _guard_bits(dps, sides), after one
    table entry per side index.  The coefficients are fitted to best-of-5
    timings of both routes on a 2-vCPU VM (CHANGES.md lists them); only
    their ratio matters, and it decides between routes that cost within a
    few tens of percent of each other.
    """
    V = spec.vertex_count
    m, L = _cover_shape(spec) or (max(min(g, V - g) for g in spec.generators) - 1, V)
    tau_bits = (V - 1) * math.log2(spec.degree)
    count = (_COUNT_FIXED + _COUNT_ENTRY * m * m * L.bit_length()
             + _COUNT_BIGINT * m ** 3 * (tau_bits / 1000) ** 1.7)
    modes = math.prod(l // 2 + 1 for l in spec.sides)
    entries = sum(l // 2 + 1 for l in spec.sides)
    spectral = (_SPECTRAL_FIXED + _SPECTRAL_MODE * modes
                + _SPECTRAL_BIT * (modes + entries) * _guard_bits(dps, spec.sides))
    return count, spectral


def log_det_star_hp(spec: GraphSpec, dps: int, cap: int = DEFAULT_EIGENVALUE_CAP) -> mp.mpf:
    """log of the product of the nonzero Laplacian eigenvalues of ``spec`` at dps + 10 digits.

    By the matrix-tree theorem that product is V tau.  Where
    ``_route_costs`` rates the exact count cheaper, the value is the log of
    that integer (``_log_det_star_count``), elsewhere the spectral product
    of ``_log_det_star_spectral``; the two agree to within an ulp.  Raises
    EnumerationCapError above ``cap`` vertices, before either starts.
    """
    _check_cap(spec, cap)
    count_cost, spectral_cost = _route_costs(spec, dps)
    if count_cost < spectral_cost:
        return _log_det_star_count(spec, dps)
    return _log_det_star_spectral(spec, dps, cap)


def _log_det_star_count(spec: GraphSpec, dps: int) -> mp.mpf:
    """log(V tau) at dps + 10 digits: the log of an exact integer, rounded once."""
    total = spec.vertex_count * spanning_tree_count_exact(spec, cap=spec.vertex_count)
    with mp.workprec(total.bit_length()):
        exact = mp.mpf(total)
    with mp.workdps(dps + 10):
        return +mp.log(exact)


def _log_det_star_spectral(spec: GraphSpec, dps: int,
                           cap: int = DEFAULT_EIGENVALUE_CAP) -> mp.mpf:
    """log det* of ``spec`` at dps + 10 digits from the product of its eigenvalues.

    The half-range modes and their weights come from graphs._half_spectrum
    over the fixed-point sin^2 tables, so each eigenvalue is an exact integer
    sum of table entries.  A mode of weight 2^e goes into the e-th partial
    product, in mode order, and the total is the product of the partials
    raised to 2^e; the zero mode is skipped.  The factor 4^(V-1) and the
    table scale are one binary shift, and a single log is taken.  _guard_bits
    bounds the tables' error; the products' rounding adds about V 2^-prec.
    Raises EnumerationCapError above ``cap`` vertices.
    """
    bits = _guard_bits(dps, spec.sides)
    lam, weights = _half_spectrum(spec, cap,
                                  lambda l: np.array(_sin2_table(l, bits), dtype=object))
    powers = np.log2(weights[1:]).astype(np.int64)  # every weight is a power of 2
    lam = lam[1:]
    with mp.workprec(bits):
        total = mp.mpf(1)
        for e in range(int(powers.max(initial=0)) + 1):
            total *= _rounded_product(lam[powers == e], bits) ** (2 ** e)
        total = mp.ldexp(total, (2 - bits) * (spec.vertex_count - 1))
    with mp.workdps(dps + 10):
        return +mp.log(total)


def predict_circulant_hp(n: int, gens: Sequence[int], dps: int,
                         cap: int = DEFAULT_EIGENVALUE_CAP) -> AsymptoticReport:
    """n I + 2 log n - log c_Gamma against the exact log det* of C_n^Gamma at dps digits.

    The mpf counterpart of asym.predict_circulant, with the lead term from
    lead_term_circulant_hp at dps and the exact value from log_det_star_hp.
    """
    spec = CirculantSpec(n, tuple(gens))
    lead = lead_term_circulant_hp(spec.generators, dps)
    with mp.workdps(dps):
        predicted = n * lead + 2 * mp.log(n) - mp.log(spec.c_gamma)
        return _report(n, predicted, {}, spec, cap, lambda s, c: log_det_star_hp(s, dps, c))


def predict_torus_constant_hp(n: int, alpha: Sequence[int], beta: Sequence[int], dps: int,
                              cap: int = DEFAULT_EIGENVALUE_CAP) -> AsymptoticReport:
    """The prediction of diag(alpha, beta n) with one growing side against log det*.

    The mpf counterpart of asym.predict_torus_constant, at dps + 10 digits.
    With a single growing side b n the per-mode lead integrals have the exact
    arccosh closed form, one per distinct mode, and zeta'_{R/bZ}(0) = -2 log b.
    Raises AsymError for more than one growing side.
    """
    if len(beta) != 1:
        raise AsymError("high-precision torus prediction supports exactly one growing side")
    alpha, b = tuple(int(a) for a in alpha), int(beta[0])
    spec = TorusSpec(alpha + (b * n,))
    dps += 10
    with mp.workdps(dps):
        lams = [mp.mpf(0)]
        for a in alpha:
            side = [4 * mp.sinpi(mp.mpf(m) / a) ** 2 for m in range(a)]
            lams = [lam + term for lam in lams for term in side]
        acosh = {lam: mp.acosh(1 + lam / 2) for lam in set(lams)}
        lead = n * b * mp.fsum(acosh[lam] for lam in lams)
        return _report(n, lead + 2 * mp.log(n) + 2 * mp.log(b), {}, spec, cap,
                       lambda s, c: log_det_star_hp(s, dps, c))


# ---------------------------------------------------------------------------
# The beta = 5 conjecture
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _conjecture_factors(dps: int):
    """x_plus, y_plus and the two algebraic offsets of the closed form.

    Cached per dps: the mpf values are immutable and depend on nothing else,
    and verify_conjecture asks for them twice per n.
    """
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

    Precision starts at max(min_dps, 60), which is always tried, and doubles
    while it stays within ``max_dps`` until the rounding interval around the
    evaluated form excludes both integer neighbours (two evaluations at
    different precision must agree and sit within 0.25 of the same integer).
    Raises AsymError when no precision tried gives such an interval.
    """
    exact = spanning_tree_count_exact(CirculantSpec(5 * n, (1, n)))
    dps = max(min_dps, 60)
    while True:
        v1 = conjecture_tau_hp(n, dps)
        v2 = conjecture_tau_hp(n, dps + 25)
        with mp.workdps(dps + 30):
            drift = abs(v1 - v2)
            nearest = mp.nint(v2)
            offset = abs(v2 - nearest)
            if drift < mp.mpf("0.01") and offset + 10 * drift < mp.mpf("0.25"):
                match = int(nearest) == exact
                # v2 is evaluated at dps + 25 digits, which bounds the agreement
                err = abs(v2 - exact)
                digits = dps + 25
                if err != 0:
                    digits = min(digits, max(0, int(mp.floor(-mp.log10(err / max(exact, 1))))))
                return ConjectureVerdict(n=n, exact=exact, predicted=v2, match=match,
                                         digits_agreement=digits, dps_used=dps)
        if 2 * dps > max_dps:
            raise AsymError(f"no unambiguous conjecture verdict for n = {n} at {dps} "
                            f"digits; doubling would pass the limit of {max_dps}")
        dps *= 2
