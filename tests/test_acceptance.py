"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts and timings.  Criterion 11 checks the degenerating-torus law
log det* = V c_2 - (pi/3)(n/a_n) + o(n/a_n) together with its next-order term
2 log n = log V + log(n/a_n), which comes from the flat-torus determinant
(Chinta-Jorgenson-Karlsson 2010).  Without that term the scaled residual is
still 17.6% off -pi/3 at n = 10^4; with it the deviation is 3.4e-5 at
n = 10^4 and 8.7e-6 at n = 4*10^4.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from spantor.graphs import CirculantSpec, TorusSpec, spanning_tree_count_exact
from spantor.specfun import (
    bessel_i_scaled,
    theta_discrete_spectral,
    theta_discrete_bessel,
    dedekind_eta,
    catalan_constant,
)
from spantor.quadrature import integrate_mellin
from spantor.asym import (
    arccosh_lead,
    lead_term_circulant,
    c_d,
    epstein_zeta_prime_zero,
    predict_torus_sublinear,
)
from spantor import hp
from spantor.cli import estimate_alpha

from oracles import (
    fibonacci,
    lead_term_circulant_mellin,
    surd_deviations,
    zeta_prime_zero_theta_split,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {status} {detail}".rstrip())


# ---------------------------------------------------------------------------


def test_criterion_01_fibonacci_law():
    t0 = time.perf_counter()
    bad = [n for n in range(3, 41)
           if spanning_tree_count_exact(CirculantSpec(n, (1, 2)))
           != n * fibonacci(n) ** 2]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    _verdict(1, "fibonacci law n=3..40", ok, f"({elapsed:.2f}s)")
    assert bad == []
    assert elapsed < 5.0


def test_criterion_02_theta_inversion_randomized():
    rng = np.random.default_rng(20260809)
    specs = []
    while len(specs) < 12:
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 4))
        extra = sorted(set(int(g) for g in rng.integers(2, max(3, n // 2 + 1), size=d - 1)
                           if 2 <= g <= n // 2))
        specs.append(CirculantSpec(n, (1, *extra)))
    while len(specs) < 20:
        dims = int(rng.integers(1, 4))
        sides = []
        budget = 200
        for _ in range(dims):
            s = int(rng.integers(1, max(2, min(14, budget)) + 1))
            sides.append(s)
            budget //= max(s, 1)
        if math.prod(sides) <= 200:
            specs.append(TorusSpec(tuple(sides)))
    t0 = time.perf_counter()
    worst = 0.0
    for spec in specs:
        for t in (0.05, 0.5, 1.0, 5.0):
            a = theta_discrete_spectral(spec, t).value
            b = theta_discrete_bessel(spec, t).value
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    _verdict(2, "theta inversion, 20 random specs", ok,
             f"(worst |spectral-bessel| = {worst:.2e}, {elapsed:.1f}s)")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_03_arccosh_identity():
    worst = 0.0
    for x in (2.0, 2.5, 3.0, 4.0, 10.0):
        def g(t, x=x):
            return np.exp(-t) - np.exp(-(x - 2.0) * t) * bessel_i_scaled(0, 2.0 * t)
        res = integrate_mellin(g)
        worst = max(worst, abs(res.value - arccosh_lead(x)))
    ok = worst < 1e-9
    _verdict(3, "arccosh Mellin identity", ok, f"(worst deviation {worst:.2e})")
    assert worst < 1e-9


def test_criterion_04_catalan_constant():
    dev = abs(c_d(2).value - 4.0 * catalan_constant() / math.pi)
    ok = dev < 1e-9
    _verdict(4, "c_2 = 4G/pi", ok, f"(deviation {dev:.2e})")
    assert dev < 1e-9


def test_criterion_05_golden_ratio_lead():
    expected = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)
    lead = lead_term_circulant((1, 2))
    dev_primary = abs(lead.value - expected)
    dev_cross = abs(lead_term_circulant_mellin((1, 2)).value - expected)
    ok = dev_primary < 1e-8 and dev_cross < 1e-8
    _verdict(5, "lead {1,2} = 2 log(golden)", ok,
             f"(roots {dev_primary:.2e}, mellin {dev_cross:.2e})")
    assert dev_primary < 1e-8
    assert dev_cross < 1e-8


def test_criterion_06_circulant_residual_decay():
    t0 = time.perf_counter()
    ns = (50, 100, 200, 400)
    all_ok = True
    details = []
    for gens in ((1, 2), (1, 3), (1, 2, 3)):
        mags = [abs(hp.predict_circulant_hp(n, gens, 250).residual) for n in ns]
        decreasing = all(a > b for a, b in zip(mags, mags[1:]))
        small = mags[-1] < mp.mpf("1e-3")
        all_ok = all_ok and decreasing and small
        details.append(f"{gens}: |res| = " + " > ".join(mp.nstr(m, 3) for m in mags))
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 120.0
    _verdict(6, "circulant residual decay", ok, f"({elapsed:.1f}s; " + "; ".join(details) + ")")
    assert all_ok
    assert elapsed < 120.0


def test_criterion_07_c_squared_law():
    n = 40
    tau = spanning_tree_count_exact(CirculantSpec(n, (1, 2)))
    lead = lead_term_circulant((1, 2)).value
    ratio = tau * 5.0 / (n * math.exp(n * lead))
    ok = abs(ratio - 1.0) <= 1e-6
    _verdict(7, "c^2 = 1/c_Gamma at n=40", ok, f"(ratio - 1 = {ratio - 1.0:.2e})")
    assert abs(ratio - 1.0) <= 1e-6


def test_criterion_08_zeta_prime_anchors():
    # a circle's zeta'(0) is the closed form -2 log beta; its anchor tests the
    # theta-split oracle.  Two sides take Kronecker's limit formula through
    # spantor's eta, so their anchor is the same formula with mpmath's eta
    worst_1d = 0.0
    for beta in (1.0, 2.0, 3.0):
        worst_1d = max(worst_1d, abs(zeta_prime_zero_theta_split((beta,), 1.0, 1e-9)
                                     + 2.0 * math.log(beta)))
    worst_2d = 0.0
    for b1, b2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
        with mp.workdps(30):
            expected = -2.0 * mp.log(b2 * mp.eta(mp.mpc(0, mp.mpf(b2) / b1)).real ** 2)
        worst_2d = max(worst_2d, float(abs(epstein_zeta_prime_zero((b1, b2)) - expected)))
    ok = worst_1d < 1e-8 and worst_2d < 1e-7
    _verdict(8, "zeta'(0) anchors", ok, f"(1d {worst_1d:.2e}, 2d {worst_2d:.2e})")
    assert worst_1d < 1e-8
    assert worst_2d < 1e-7


def test_criterion_09_eta_special_value():
    dev = abs(dedekind_eta(1.0) - math.gamma(0.25) / (2.0 * math.pi ** 0.75))
    ok = dev < 1e-10
    _verdict(9, "eta(i) special value", ok, f"(deviation {dev:.2e})")
    assert dev < 1e-10


def test_criterion_10_torus_residual_decay():
    r100 = abs(hp.predict_torus_constant_hp(100, (2,), (1,), 120).residual)
    r500 = abs(hp.predict_torus_constant_hp(500, (2,), (1,), 430).residual)
    ok = r500 < r100 and r500 < mp.mpf("5e-3")
    _verdict(10, "constant-block torus residual decay", ok,
             f"(|res(100)| = {mp.nstr(r100, 3)}, |res(500)| = {mp.nstr(r500, 3)})")
    assert r500 < r100
    assert r500 < mp.mpf("5e-3")


def test_criterion_11_degenerating_torus_band():
    """Degenerating torus Z/a_nZ x Z/nZ, a_n = floor(sqrt n), alpha = beta = (1).

    The law is log det* = V c_2 - (pi/3)(n/a_n) + o(n/a_n).  Its o(n/a_n)
    contains the slowly decaying term 2 log n, so the check subtracts it and
    requires h(n) = (log det* - V c_2 - 2 log n)(a_n/n) to lie within 1e-3 of
    -pi/3 at n = 10^4 and 4*10^4, with the deviation shrinking between them.
    The literal scaled residual (without the 2 log n term) must still move
    towards -pi/3.  Measured: literal -0.86303 and -0.94124 (17.6% and 10.1%
    off), corrected deviations 3.4e-5 and 8.7e-6.
    """
    t0 = time.perf_counter()
    target = -math.pi / 3.0

    # The next-order term is analytic, not read off the program: the
    # discrete determinant approaches V c_2 + log V + log det* of the
    # unit-area flat torus with tau = i tau_2, tau_2 = n/a_n, and
    # log det* = log tau_2 + 4 log eta(i tau_2) = log tau_2 - pi tau_2/3
    # + O(exp(-2 pi tau_2)) (Chinta-Jorgenson-Karlsson 2010).  So
    # log V + log tau_2 = log(n a_n) + log(n/a_n) = 2 log n is what the
    # scaled residual carries beyond -pi/3.
    def scaled_residuals(n):
        a = int(math.isqrt(n))
        rep = predict_torus_sublinear(n, a, (1,), (1,))
        literal = rep.exact_log_det - rep.components["lead"]
        return literal * (a / n), (literal - 2.0 * math.log(n)) * (a / n)

    r1, h1 = scaled_residuals(10**4)
    r2, h2 = scaled_residuals(4 * 10**4)
    elapsed = time.perf_counter() - t0

    dev1 = abs(h1 - target)
    dev2 = abs(h2 - target)
    corrected_close = dev1 < 1e-3 and dev2 < 1e-3
    corrected_decays = dev2 < dev1
    closer = abs(r2 - target) < abs(r1 - target)
    ok = corrected_close and corrected_decays and closer and elapsed < 180.0

    _verdict(11, "degenerating torus scaled residual", ok,
             f"(literal {r1:.5f}, {r2:.5f} vs -pi/3 = {target:.5f}; "
             f"2 log n corrected dev {dev1:.1e}, {dev2:.1e}, "
             f"ratio {dev2 / dev1:.2f}; {elapsed:.1f}s)")

    assert dev1 < 1e-3
    assert dev2 < 1e-3
    assert corrected_decays
    assert closer
    assert elapsed < 180.0


def test_criterion_12_conjecture_exact():
    all_match = True
    for n in range(2, 9):
        v = hp.verify_conjecture(n)
        all_match = all_match and v.match
    x_plus, y_plus, _, _ = hp._conjecture_factors(60)
    surds = surd_deviations(x_plus, y_plus, 60)
    surd_ok = surds["cosh_J1_vs_surd"] < mp.mpf(10) ** -55
    ok = all_match and surd_ok
    _verdict(12, "beta=5 conjecture n=2..8", ok,
             f"(all exact matches: {all_match}, cosh J_1 surd dev "
             f"{mp.nstr(surds['cosh_J1_vs_surd'], 2)})")
    assert all_match
    assert surd_ok


def test_criterion_13_alpha_recovery():
    terms, norm = estimate_alpha(5, (2, 3, 4, 5, 6, 7, 8))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    expected = [1.0 - golden, golden, golden, 1.0 - golden]
    devs = [abs(a - e) for (_, _, a, _), e in zip(terms, expected)]
    ok = max(devs) < 1e-6
    _verdict(13, "alpha coefficient recovery", ok,
             f"(max deviation {max(devs):.2e}, fit norm {norm:.1e})")
    assert max(devs) < 1e-6
