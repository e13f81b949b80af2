import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spantor.asym import (
    AsymError,
    ARCCOSH_CLOSED_FORM,
    CATALAN_CLOSED_FORM,
    MAHLER_ROOTS,
    MELLIN_BESSEL,
    arccosh_lead,
    lead_term_circulant,
    c_d,
    epstein_zeta_sum,
    epstein_zeta_prime_zero,
    predict_circulant,
    predict_torus_constant,
    predict_torus_sublinear,
    gamma_half_integer,
)
from spantor import asym, cli, hp
from spantor.graphs import CirculantSpec, TorusSpec, _half_spectrum, log_det_star
from spantor.quadrature import QuadratureError, integrate_mellin, integrate_periodic_mean
from spantor.specfun import bessel_i_scaled, catalan_constant, dedekind_eta, riemann_zeta_real

from oracles import (
    epstein_lattice_sum,
    folded_spectrum,
    integrate_log_endpoint,
    lead_term_circulant_mellin,
    mahler_lead_mp,
    torus_mode_mellin,
    zeta_prime_zero_theta_split,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
ZETA3 = 1.2020569031595942854


def mellin_arccosh_integrand(x):
    def g(t):
        return np.exp(-t) - np.exp(-(x - 2.0) * t) * bessel_i_scaled(0, 2.0 * t)
    return g


# ---------------------------------------------------------------------------
# arccosh closed form
# ---------------------------------------------------------------------------


def test_arccosh_examples():
    assert arccosh_lead(2.0) == 0.0
    assert arccosh_lead(4.0) == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-15)
    assert arccosh_lead(3.0) == pytest.approx(math.log((3.0 + math.sqrt(5.0)) / 2.0), rel=1e-15)
    with pytest.raises(AsymError):
        arccosh_lead(1.9)


@pytest.mark.parametrize("x", [2.0, 2.5, 3.0, 4.0, 10.0])
def test_arccosh_quadrature_oracle(x):
    res = integrate_mellin(mellin_arccosh_integrand(x))
    assert res.value == pytest.approx(arccosh_lead(x), abs=1e-9)


# ---------------------------------------------------------------------------
# circulant lead term
# ---------------------------------------------------------------------------


def test_lead_cycle_is_exactly_zero():
    lead = lead_term_circulant((1,))
    assert lead.value == 0.0
    assert lead.method == ARCCOSH_CLOSED_FORM
    assert abs(lead.cross_check) < 1e-9
    assert mahler_lead_mp((1,), 25) == 0


def test_lead_golden_ratio_both_routes():
    lead = lead_term_circulant((1, 2))
    expected = 2.0 * math.log(GOLDEN)
    assert lead.method == MAHLER_ROOTS
    assert lead.value == pytest.approx(expected, abs=1e-8)
    assert lead.cross_check == pytest.approx(expected, abs=1e-8)
    assert lead.value == pytest.approx(0.9624237, abs=1e-7)


@pytest.mark.parametrize("gens", [(1, 3), (1, 2, 3), (1, 4, 6), (1, 2, 5, 6)])
def test_lead_routes_agree(gens):
    lead = lead_term_circulant(gens)
    assert abs(lead.value - lead_term_circulant_mellin(gens).value) <= 1e-8


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(2, 20), max_size=4))
# the largest estimate over all 8855 sets of this domain, 1.72e-11, against
# an actual error of 2.4e-14; 4 sets lie above 1e-11
@example([10, 16, 16, 19])
def test_lead_error_bounds_the_mahler_oracle(extra):
    # duplicates are allowed; a repeated largest generator makes lc = -2, -3, ...
    gens = (1,) + tuple(sorted(extra))
    lead = lead_term_circulant(gens)
    mahler = mahler_lead_mp(gens, 25)
    assert abs(lead.value - mahler) <= lead.error_estimate
    assert lead.error_estimate <= 2e-11
    # the periodic guard's own error bounds its distance to the oracle too
    assert abs(lead.cross_check - mahler) <= lead.cross_check_error


# (1,2,2) and (1,6,6) have leading coefficient -2; (1,...,9,20) has D = 38
@pytest.mark.parametrize("gens", [(1, 2, 2), (1, 6, 6), (1, 2, 3, 4, 5, 6, 7, 8, 9, 20)])
def test_lead_named_regimes_against_the_mahler_oracle(gens):
    lead = lead_term_circulant(gens)
    assert lead.method == MAHLER_ROOTS
    assert abs(lead.value - mahler_lead_mp(gens, 25)) <= lead.error_estimate <= 1e-11


def test_lead_degree_78_against_the_guard():
    # (1,40) has D = 78, where the polyroots oracle is too slow; the periodic
    # guard, the roots and the oracle's endpoint-panel log-sin integral must
    # agree within their reported errors
    gens = (1, 40)
    lead = lead_term_circulant(gens)
    log_sin = integrate_log_endpoint(
        lambda w: math.log(math.fsum(math.sin(math.pi * g * w) ** 2 for g in gens)))
    assert (abs(lead.cross_check - (math.log(4.0) + log_sin.value))
            <= lead.cross_check_error + log_sin.error_estimate)
    assert abs(lead.value - lead.cross_check) <= lead.error_estimate + lead.cross_check_error
    assert lead.error_estimate <= 1e-10


def test_lead_guard_rejects_a_wrong_root_value(monkeypatch):
    # a root value off by 1e-6 lies far outside both error bounds
    gens = (1, 3, 5)
    right = asym._symbol_roots(gens)
    wrong = asym.SymbolRoots(coeffs=right.coeffs, outside=right.outside,
                             value=right.value + 1e-6, error_estimate=right.error_estimate)
    monkeypatch.setattr(asym, "_symbol_roots", lambda g: wrong)
    asym._lead_term_circulant_cached.cache_clear()
    try:
        with pytest.raises(AsymError, match="disagree"):
            lead_term_circulant(gens)
    finally:
        asym._lead_term_circulant_cached.cache_clear()


def test_lead_validation():
    with pytest.raises(AsymError):
        lead_term_circulant((2, 3))
    with pytest.raises(AsymError):
        lead_term_circulant((1, 3, 2))


# ---------------------------------------------------------------------------
# c_d
# ---------------------------------------------------------------------------


def test_c_1_vanishes():
    assert c_d(1).value == pytest.approx(0.0, abs=1e-9)


def test_c_1_is_exactly_the_arccosh_closed_form():
    # c_1 = arccosh(1) = 0: the lambda = 0 mode with one growing side, no quadrature
    c_1 = c_d(1)
    assert c_1.value == 0.0
    assert c_1.method == ARCCOSH_CLOSED_FORM


def test_c_2_catalan():
    c_2 = c_d(2)
    assert c_2.method == CATALAN_CLOSED_FORM
    assert c_2.value == 4.0 * catalan_constant() / math.pi
    # the paper's Mellin-Bessel integral, the route c_2 took before
    oracle = torus_mode_mellin(0.0, 2)
    assert abs(oracle.value - c_2.value) <= oracle.error_estimate + c_2.error_estimate


def test_c_3_exceeds_c_2():
    assert c_d(3).value > c_d(2).value > 0.0


def _mode_mp(q, lam):
    """I_q(lam) by mpmath quadrature over u = log t in [-50, 45], at 25 digits.

    Outside that range the integrand's mass is below 1e-20.  e^{-x} I_0(x)
    is mpmath's besseli below x = 60 and Hankel's expansion, to 1e-28,
    above it.
    """
    with mp.workdps(25):
        def i0_scaled(x):
            if x < 60:
                return mp.besseli(0, x) * mp.exp(-x)
            total = term = mp.mpf(1)
            k = 0
            while abs(term) > mp.mpf(10) ** -28:
                k += 1
                term *= mp.mpf((2 * k - 1) ** 2) / (8 * k * x)
                total += term
            return total / mp.sqrt(2 * mp.pi * x)

        def f(u):
            t = mp.exp(u)
            return ((mp.exp(-t) if t < 1e4 else 0)
                    - i0_scaled(2 * t) ** q * (mp.exp(-lam * t) if lam else 1))

        return float(mp.quad(f, mp.linspace(-50, 45, 20)))


@pytest.mark.parametrize("q,lam", [(3, 0.0), (4, 0.0), (5, 0.0), (6, 0.0),
                                   (3, 4 * math.sin(math.pi / 7) ** 2), (3, 0.3), (3, 5.0)])
def test_mellin_modes_match_mpmath_and_the_oracle(q, lam):
    # c_d is the lam = 0 mode; every value is within its own error estimate,
    # and within 1e-13, of both references
    mine = asym._mode_lead(lam, q, 1e-10) if lam else c_d(q)
    assert mine.method == MELLIN_BESSEL
    oracle = torus_mode_mellin(lam, q)
    for ref in (_mode_mp(q, lam), oracle.value):
        assert abs(mine.value - ref) <= min(mine.error_estimate, 1e-13)


def test_c_3_wall_time():
    # one trapezoid line of about 360 nodes, under a millisecond on a 2-vCPU
    # VM; the adaptive Gauss panels of an earlier rule took about 20 ms
    best = math.inf
    for _ in range(5):
        asym._c_d_cached.cache_clear()
        start = time.perf_counter()
        c_d(3)
        best = min(best, time.perf_counter() - start)
    assert best < 0.005


def test_gamma_half_integer():
    for d in range(1, 9):
        assert gamma_half_integer(d) == pytest.approx(math.gamma(d / 2.0), rel=1e-14)


# ---------------------------------------------------------------------------
# Epstein zeta
# ---------------------------------------------------------------------------


def test_epstein_circle_riemann_relation():
    ev = epstein_zeta_sum((1.0,), 1.5)
    assert ev.value == pytest.approx(2.0 * (2.0 * math.pi) ** -3 * ZETA3, abs=1e-10)
    assert ev.tail_bound <= 1e-10
    beta = 2.0
    ev = epstein_zeta_sum((beta,), 1.25)
    expected = 2.0 * (beta / (2.0 * math.pi)) ** 2.5 * riemann_zeta_real(2.5)
    assert ev.value == pytest.approx(expected, abs=1e-9)


def test_epstein_example_combination():
    comb = (4.0 * math.pi) ** 1.5 * gamma_half_integer(3) * epstein_zeta_sum((1.0,), 1.5).value
    assert comb == pytest.approx(ZETA3 / math.pi, abs=1e-8)
    assert comb == pytest.approx(0.3826, abs=1e-4)


def test_epstein_2d_vs_brute_sum():
    ev = epstein_zeta_sum((1.0, 1.0), 2.0)
    k = np.arange(-600, 601, dtype=float)
    q = k[:, None] ** 2 + k[None, :] ** 2
    brute = float(np.sum(q[q > 0] ** -2.0)) * (4.0 * math.pi ** 2) ** -2
    # the brute force sum itself misses ~pi/K^2 of mass
    assert ev.value == pytest.approx(brute, abs=1e-8)
    assert ev.value > brute


def _epstein_lattice_mp(sides, s, reach):
    """(4 pi^2)^-s sum of Q(k)^-s over 0 < max|k_i| <= reach, in mpmath."""
    with mp.workdps(40):
        s = mp.mpf(s)
        total = mp.mpf(0)
        for k in itertools.product(range(-reach, reach + 1), repeat=len(sides)):
            q = mp.fsum((mp.mpf(ki) / mp.mpf(m)) ** 2 for ki, m in zip(k, sides))
            if q:
                total += q ** -s
        return (4 * mp.pi ** 2) ** -s * total


@pytest.mark.parametrize("sides, s", [((2.0, 2.0), 1e3), ((1.0, 3.0), 400.0),
                                      ((1.0, 3.0), 150.0), ((0.3, 0.7), 40.0),
                                      ((1.0, 1.0, 2.0), 20.0), ((2.0, 3.0), 9.0)])
def test_epstein_lattice_sum_at_large_s_against_mpmath(sides, s):
    # unscaled, the lattice part overflowed to inf against an underflowed
    # (4 pi^2)^-s; the terms the reference leaves out are below 1e-24 of the value
    ev = epstein_zeta_sum(sides, s)
    ref = _epstein_lattice_mp(sides, s, 30 if len(sides) == 2 else 8)
    assert math.isfinite(ev.value) and math.isfinite(ev.tail_bound)
    assert abs(ev.value - float(ref)) <= ev.tail_bound
    assert ev.tail_bound <= 1e-12 * ev.value + 1e-300


def test_epstein_rejects_nonconvergent_regime():
    with pytest.raises(AsymError):
        epstein_zeta_sum((1.0,), 0.5)
    with pytest.raises(AsymError):
        epstein_zeta_sum((1.0, 2.0), 1.0)


def _square_lattice_mp(s, m):
    """(4 pi^2)^{-s} 4 zeta(s) beta(s) m^{2s}, the Epstein zeta of the square torus of side m."""
    with mp.workdps(40):
        s = mp.mpf(s)
        return (4 * mp.pi ** 2) ** -s * 4 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1]) \
            * mp.mpf(m) ** (2 * s)


def test_epstein_near_the_pole_is_reached():
    # the lattice sum's tail R^{2-2s} needed 22.95 M points here, over its
    # 20 M cap; the reduction along the largest side has no such tail
    ev = epstein_zeta_sum((1.0, 1.0), 1.01)
    assert abs(ev.value - _square_lattice_mp(1.01, 1.0)) <= ev.tail_bound <= 1e-14 * ev.value


@pytest.mark.parametrize("m", [1.0, 1.5, 0.3])
@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_epstein_square_lattice_closed_form(s, m):
    ev = epstein_zeta_sum((m, m), s)
    assert abs(ev.value - _square_lattice_mp(s, m)) <= ev.tail_bound <= 1e-13 * ev.value
    if (s, m) == (1.5, 1.0):
        assert ev.value == pytest.approx(0.036418520096128478, rel=4e-16)


@given(st.lists(st.floats(0.3, 1.2), min_size=2, max_size=3), st.floats(2.0, 4.0))
@settings(max_examples=25, deadline=None)
def test_epstein_reduction_against_the_lattice_sum(sides, excess):
    # the lattice sum's tail falls as R^{r-2s}, so s stays at least 2 above r/2
    s = 0.5 * len(sides) + excess
    ev = epstein_zeta_sum(sides, s)
    value, bound = epstein_lattice_sum(sides, s, tail_target=1e-8 * ev.value,
                                       max_lattice_points=4_000_000)
    assert abs(ev.value - value) <= ev.tail_bound + bound
    assert ev.tail_bound <= 1e-13 * ev.value


@example(1.0, 0.50005)
@example(7.5, 35.2)
@example(1.0 / 3.0, 40.0)
@example(3.0, 0.75)
@given(st.floats(0.05, 200.0), st.floats(0.5001, 40.0))
@settings(max_examples=150, deadline=None)
def test_epstein_circle_closed_form_against_mpmath_zeta(m, s):
    ev = epstein_zeta_sum((m,), s)
    with mp.workdps(40):
        s_mp = mp.mpf(s)
        ref = 2 * (mp.mpf(m) / (2 * mp.pi)) ** (2 * s_mp) * mp.zeta(2 * s_mp)
        assert abs(ev.value - ref) <= ev.tail_bound
    # the bound is computed, a few ulps of the value, not a constant
    assert 0.0 < ev.tail_bound <= (4.0 * s + 17.0) * math.ulp(ev.value)


# ---------------------------------------------------------------------------
# zeta'(0)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_zeta_prime_zero_circle_anchor(beta):
    assert epstein_zeta_prime_zero((beta,)) == pytest.approx(-2.0 * math.log(beta), abs=1e-9)


def test_zeta_prime_zero_split_invariance():
    # the theta-split oracle, tested at r = 1
    base = zeta_prime_zero_theta_split((1.0,), 1.0, 1e-9)
    assert base == pytest.approx(0.0, abs=1e-9)
    for c in (2.0, 5.0):
        moved = zeta_prime_zero_theta_split((1.0,), c, 1e-9)
        assert abs(moved - base) <= 2e-9


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 3.0, 9.0])
def test_zeta_prime_zero_circle_closed_form(beta):
    value = epstein_zeta_prime_zero((beta,))
    assert value == 0.0 - 2.0 * math.log(beta)
    assert math.copysign(1.0, value) == (1.0 if beta <= 1.0 else -1.0)  # +0.0 at beta = 1
    if value:
        with pytest.raises(QuadratureError, match="requested tolerance not met"):
            epstein_zeta_prime_zero((beta,), tol=2 * math.ulp(value))


@pytest.mark.parametrize("b1,b2", [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
def test_zeta_prime_zero_eta_anchor(b1, b2):
    value = epstein_zeta_prime_zero((b1, b2))
    expected = -2.0 * math.log(b2 * dedekind_eta(b2 / b1) ** 2)
    assert value == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("sides", [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (0.5, 1.3), (1.0, 7.0),
                                   (3.0, 2.0)])
def test_zeta_prime_zero_kronecker_against_mpmath_eta(sides):
    # Kronecker's limit formula -log(b_2^2 eta(i b_2/b_1)^4), b_2 the longer
    # side, with mpmath's eta, and the theta-split oracle at its tol
    value, bound = asym._zeta_prime_zero_reduced(tuple(sorted(sides)))
    assert value == epstein_zeta_prime_zero(sides)
    b1, b2 = sorted(sides)
    with mp.workdps(40):
        ref = -mp.log(mp.mpf(b2) ** 2 * mp.eta(mp.mpc(0, mp.mpf(b2) / b1)).real ** 4)
    assert abs(value - ref) <= bound < 1e-13
    assert abs(value - zeta_prime_zero_theta_split(sides, 1.0, 1e-12)) <= bound + 1e-11


@given(st.lists(st.floats(0.3, 3.0), min_size=2, max_size=3))
@settings(max_examples=15, deadline=None)
def test_zeta_prime_zero_reduction_against_theta_split(sides):
    value, bound = asym._zeta_prime_zero_reduced(tuple(sorted(sides)))
    assert value == epstein_zeta_prime_zero(sides, tol=1e-12)
    assert abs(value - zeta_prime_zero_theta_split(sides, 1.0, 1e-12)) <= bound + 1e-11
    assert bound < 1e-12


def test_zeta_prime_zero_beyond_tol_raises():
    with pytest.raises(QuadratureError, match="requested tolerance not met"):
        epstein_zeta_prime_zero((1.0, 2.0, 3.0), tol=1e-17)


def test_epstein_reduction_wall_time():
    # median of 21 calls: about 0.07 and 0.002 ms on a 2-vCPU VM; the lattice
    # sum and the theta-split quadrature took 8 and 0.5 ms
    for call, limit in ((lambda: epstein_zeta_sum((1, 1), 2.0), 2e-4),
                        (lambda: epstein_zeta_prime_zero((1, 2)), 5e-5)):
        times = []
        for _ in range(21):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        assert sorted(times)[10] <= limit


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------


def test_predict_circulant_cycle_residual_vanishes():
    for n in (10, 100, 1000):
        rep = predict_circulant(n, (1,))
        assert rep.predicted_log_det == pytest.approx(2.0 * math.log(n), rel=1e-15)
        assert abs(rep.residual) < 1e-12


def test_predict_circulant_fibonacci_case():
    rep = predict_circulant(30, (1, 2))
    assert abs(rep.residual) < 1e-6
    assert rep.components["minus_log_c_gamma"] == pytest.approx(-math.log(5.0))
    tau = math.exp(rep.predicted_log_det - math.log(30))
    assert tau == pytest.approx(30 * 832040 ** 2, rel=1e-6)


def test_predict_circulant_component_sum():
    rep = predict_circulant(50, (1, 3))
    assert rep.predicted_log_det == pytest.approx(math.fsum(rep.components.values()), abs=1e-12)
    assert rep.exact_log_det is not None
    assert rep.residual == pytest.approx(rep.exact_log_det - rep.predicted_log_det)


def test_predict_circulant_residual_decay_needs_precision():
    # float64 residuals sit on the n * (quadrature bias) noise floor, so the
    # monotone-decay example is checked on the high-precision path
    r100 = hp.predict_circulant_hp(100, (1, 3), 90).residual
    r200 = hp.predict_circulant_hp(200, (1, 3), 90).residual
    assert abs(r200) < abs(r100)


def test_predict_circulant_cap_marks_exact_unavailable():
    rep = predict_circulant(10**6, (1, 2), cap=10**5)
    assert rep.exact_log_det is None and rep.residual is None
    assert rep.predicted_log_det > 0


def test_exact_log_det_blank_above_the_cap():
    def exact(spec, cap):
        return asym._report(1, 0.0, {}, spec, cap, log_det_star).exact_log_det

    assert exact(CirculantSpec(101, (1, 2)), cap=100) is None
    assert exact(TorusSpec((2, 3, 17)), cap=100) is None
    assert exact(CirculantSpec(100, (1, 2)), cap=100) is not None
    assert exact(TorusSpec((2, 50)), cap=100) is not None
    assert exact(TorusSpec((2, 50)), cap=0) is None


@pytest.fixture
def periodic_calls(monkeypatch):
    """Count periodic-mean calls in asym, starting from an empty torus cache."""
    calls = []

    def counting(f, tol=1e-10, start=16):
        calls.append(tol)
        return integrate_periodic_mean(f, tol, start)

    asym._torus_constant_terms.cache_clear()
    monkeypatch.setattr(asym, "integrate_periodic_mean", counting)
    yield calls
    asym._torus_constant_terms.cache_clear()


@pytest.mark.parametrize("alpha,distinct", [((3,), 2), ((2, 2), 3)])
def test_torus_constant_one_integral_per_distinct_mode(periodic_calls, alpha, distinct):
    # alpha = (3) has eigenvalues 0, 3, 3 and alpha = (2, 2) has 0, 4, 4, 8;
    # each nonzero one is a periodic mean, and the zero mode is c_2
    predict_torus_constant(6, alpha, (1, 1), cap=0)
    assert len(periodic_calls) == distinct - 1
    predict_torus_constant(9, alpha, (1, 1), cap=0)
    assert len(periodic_calls) == distinct - 1


def test_torus_constant_table_integrates_once(periodic_calls, capsys):
    argv = ["--no-header", "compare", "--family", "torus-constant", "--alpha", "3",
            "--beta", "1,1", "--n", "6,8"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert len(periodic_calls) == 1


def test_one_growing_side_modes_keep_full_accuracy_at_small_lambda():
    # the first modes of A-block side 1000 have lambda near 4e-5, where
    # acosh(1 + lambda/2) of the rounded argument loses about eps/sqrt(lambda)
    for k in (1, 2, 3):
        lam = 4.0 * math.sin(math.pi * k / 1000) ** 2
        with mp.workdps(40):
            exact = mp.acosh(1 + mp.mpf(lam) / 2)
        lead = asym._mode_lead(lam, 1, 1e-10)
        assert lead.method == ARCCOSH_CLOSED_FORM
        assert abs(lead.value - exact) <= 1e-15 * exact


@pytest.mark.parametrize("alpha", [(3,), (30, 30), (7, 7, 7)])
def test_one_growing_side_mode_sum_equals_the_per_mode_path(alpha):
    # the closed form taken over every distinct A-block mode in one call
    # gives the float of one _mode_lead per mode, bit for bit
    values, weights = _half_spectrum(TorusSpec(alpha))
    distinct, where = np.unique(values, return_inverse=True)
    per_mode = np.array([asym._mode_lead(float(x), 1, 1e-10).value for x in distinct])
    asym._torus_constant_terms.cache_clear()
    lead, _ = asym._torus_constant_terms(alpha, (1,), 1e-10)
    assert lead == math.fsum(weights * per_mode[where])


@pytest.mark.parametrize("n,alpha,beta", [
    (7, (3,), (1, 1)), (5, (2, 2), (1, 1)), (40, (3, 4), (2,)), (30, (1, 2, 5), (1,)),
])
def test_torus_constant_lead_equals_the_full_spectrum_sum(n, alpha, beta):
    # the sum of per-mode integrals over every A-block eigenvalue, one each:
    # with one growing side each mode is within a few ulps of mpmath's
    # arccosh(1 + lambda/2); with two, the Mellin-Bessel oracle within its
    # error bound and the periodic rule's (c_2's at the zero mode)
    q = len(beta)
    scale = n ** q * math.prod(beta)
    rep = predict_torus_constant(n, alpha, beta, cap=0)
    modes = folded_spectrum(TorusSpec(alpha))
    ours = [asym._mode_lead(lam, q, 1e-10) for lam in modes]
    if q == 1:
        with mp.workdps(30):
            oracle = [(float(mp.acosh(1 + mp.mpf(lam) / 2)), 0.0) for lam in modes]
        for mine, (theirs, _) in zip(ours, oracle):
            assert abs(mine.value - theirs) <= 4 * math.ulp(theirs)
    else:
        oracle = [(r.value, r.error_estimate) for r in (torus_mode_mellin(lam, q) for lam in modes)]
    lead = scale * math.fsum(value for value, _ in oracle)
    bound = scale * math.fsum([e for _, e in oracle] + [r.error_estimate for r in ours])
    assert abs(rep.components["lead"] - lead) <= bound + 4 * math.ulp(lead)
    assert rep.components["two_log_n"] == 2.0 * math.log(n)
    assert rep.components["minus_zeta_prime"] == -epstein_zeta_prime_zero(beta, tol=1e-10)
    assert rep.predicted_log_det == math.fsum(rep.components.values())


def test_predict_torus_constant_trivial_block():
    # alpha=(1): lead vanishes (arccosh(1)), zeta'_{S^1}(0) = 0, prediction 2 log n
    rep = predict_torus_constant(50, (1,), (1,))
    assert rep.predicted_log_det == pytest.approx(2.0 * math.log(50.0), abs=1e-9)
    assert abs(rep.residual) < 1e-9


def test_predict_torus_constant_arccosh_reduction():
    rep = predict_torus_constant(100, (2,), (1,))
    assert rep.components["lead"] == pytest.approx(100.0 * math.acosh(3.0), rel=1e-14)
    assert abs(rep.residual) < 1e-10


def test_predict_torus_constant_log_beta_constant_term():
    # alpha block arbitrary, beta=(b): constant term is 2 log n + 2 log b
    rep = predict_torus_constant(60, (2, 3), (5,))
    assert rep.components["minus_zeta_prime"] == pytest.approx(2.0 * math.log(5.0), abs=1e-9)
    assert rep.components["two_log_n"] == pytest.approx(2.0 * math.log(60.0))


def test_predict_torus_constant_residual_decay_hp():
    r100 = hp.predict_torus_constant_hp(100, (2,), (1,), 100).residual
    r500 = hp.predict_torus_constant_hp(500, (2,), (1,), 430).residual
    assert abs(r500) < abs(r100)
    assert abs(r500) < 5e-3


def test_predict_torus_constant_multi_growing_sides():
    rep = predict_torus_constant(40, (2,), (1, 1))
    assert rep.exact_log_det is not None
    # o(1) in truth at this size; generous band just checks sanity
    assert abs(rep.residual) < 1e-2


def test_predict_torus_constant_trivial_side_collapses():
    # a side of length 1 in the A-block changes nothing: diag(1,2,n) = diag(2,n)
    a = predict_torus_constant(60, (1, 2), (1,))
    b = predict_torus_constant(60, (2,), (1,))
    assert a.predicted_log_det == pytest.approx(b.predicted_log_det, rel=1e-14)
    assert a.exact_log_det == pytest.approx(b.exact_log_det, rel=1e-14)


def test_predict_torus_square_grid_classical_law():
    # p=0, beta=(1,1): the non-degenerating square torus; prediction is
    # n^2 c_2 + 2 log n - zeta'_{R^2/Z^2}(0) and the residual shrinks
    r40 = predict_torus_constant(40, (), (1, 1))
    r80 = predict_torus_constant(80, (), (1, 1))
    assert r40.components["lead"] == pytest.approx(40 ** 2 * c_d(2).value, rel=1e-9)
    assert abs(r80.residual) < abs(r40.residual) < 1e-3


def test_predict_torus_sublinear_second_term_constant():
    # second-term bracket constant (beta/alpha)(pi/3) for the 2-d case
    rep = predict_torus_sublinear(100, 10, (2,), (3,))
    constant = -rep.components["second_order"] / (100.0 / 10.0)
    assert constant == pytest.approx((3.0 / 2.0) * (math.pi / 3.0), abs=1e-7)


def test_predict_torus_sublinear_zeta3_constant():
    # d=3, p=1, alpha=(1), beta=(1,1): bracket constant is zeta(3)/pi
    rep = predict_torus_sublinear(30, 3, (1,), (1, 1))
    constant = -rep.components["second_order"] / (30.0 / 3.0) ** 2
    assert constant == pytest.approx(ZETA3 / math.pi, abs=1e-7)


def test_predict_torus_sublinear_rejects_empty_alpha():
    with pytest.raises(AsymError):
        predict_torus_sublinear(100, 10, (), (1,))
    with pytest.raises(AsymError):
        predict_torus_sublinear(100, 0, (1,), (1,))


def test_report_vertex_bookkeeping():
    # a_n = 7 and n = 50 give the 350-vertex torus Z/7Z x Z/50Z
    rep = predict_torus_sublinear(50, 7, (1,), (1,))
    assert rep.exact_log_det == log_det_star(TorusSpec((7, 50)))
    assert rep.residual == rep.exact_log_det - rep.predicted_log_det
