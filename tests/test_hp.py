import dataclasses
import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spantor import hp
from spantor.asym import AsymError, lead_term_circulant
from spantor.graphs import (
    CirculantSpec,
    EnumerationCapError,
    TorusSpec,
    _deflate,
    _half_spectrum,
    log_det_star,
    spanning_tree_count_exact,
)

from oracles import (
    dense_tree_count,
    lead_term_circulant_hp_quad,
    log_det_star_circulant_mp,
    log_det_star_from_modes,
    log_det_star_torus_mp,
    mahler_lead_mp,
    mahler_lead_newton_mpc,
    mpf_product_chain,
    sin2_table_four_products,
    surd_deviations,
    torus_constant_prediction_per_mode,
)


def _agrees(value, oracle, dps):
    with mp.workdps(dps + 10):
        return abs(value - oracle) <= mp.mpf(10) ** -dps * max(1, abs(oracle))


def test_mahler_route_matches_tanh_sinh_route():
    # (1,2,2) and (1,6,6) have a repeated largest generator, so the symbol
    # polynomial's leading coefficient is -2 and contributes log 2
    for gens in ((1, 2), (1, 3), (1, 2, 3), (1, 2, 2), (1, 6, 6)):
        a = hp.lead_term_circulant_hp(gens, 60)
        b = lead_term_circulant_hp_quad(gens, 50)
        assert abs(a - b) < mp.mpf(10) ** -45


def test_mahler_route_matches_float_module():
    for gens in ((1, 2), (1, 3), (1, 2, 3)):
        assert float(hp.lead_term_circulant_hp(gens, 40)) == pytest.approx(
            lead_term_circulant(gens).value, abs=1e-8)


def _relative(value, oracle, digits):
    with mp.workdps(digits + 10):
        return abs(value - oracle) <= mp.mpf(10) ** -digits * abs(oracle)


# the Newton stages double their digits up to dps, with the first at 48 to 95:
# 95 and 96 are the last with one stage and the first with two, 191 and 192
# the same for two and three, and 97 and 193 lie one digit past a doubling
@example([4, 5], 95)
@example([4, 5], 96)
@example([3, 5], 97)
@example([2, 5], 191)
@example([12], 192)
@example([2, 3, 4, 5], 193)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=4), st.integers(15, 400))
def test_newton_lead_matches_polyroots_oracle(extra, dps):
    # the Newton steps stop at 10^-(dps + 10) relative, and the value must
    # hold that against both independent root routes
    gens = (1,) + tuple(sorted(extra))
    lead = hp.lead_term_circulant_hp(gens, dps)
    assert _relative(lead, mahler_lead_mp(gens, dps + 10), dps + 10)
    assert _relative(lead, mahler_lead_newton_mpc(gens, dps), dps + 10)


def test_newton_lead_at_degree_38():
    gens = (1, 2, 3, 4, 5, 6, 7, 8, 9, 20)
    assert _agrees(hp.lead_term_circulant_hp(gens, 60), mahler_lead_mp(gens, 70), 60)


def test_newton_lead_rejects_collapsed_roots(monkeypatch):
    # two starts at one root refine to a duplicate, and the sum moves off the
    # float value by more than its error
    gens = (1, 3, 5)
    roots = hp._symbol_roots(gens)
    outside = roots.outside.copy()
    outside[np.argmin(np.abs(outside))] = outside[np.argmax(np.abs(outside))]
    monkeypatch.setattr(hp, "_symbol_roots", lambda g: dataclasses.replace(roots, outside=outside))
    with pytest.raises(AsymError, match="more than its error"):
        hp.lead_term_circulant_hp(gens, 47)


def test_golden_ratio_closed_form():
    for dps in (15, 60, 238, 400):
        with mp.workdps(dps + 20):
            expected = 2 * mp.log((1 + mp.sqrt(5)) / 2)
        assert _relative(hp.lead_term_circulant_hp((1, 2), dps), expected, dps + 10)


@pytest.mark.parametrize("gens, lc", [((1,), 1), ((1, 1), 2)])
def test_newton_lead_without_roots_outside_the_circle(gens, lc):
    # the cycle and the doubled cycle: Q is the constant -1 or -2, so the
    # lead term is log|lc| alone
    for dps in (15, 60, 400):
        lead = hp.lead_term_circulant_hp(gens, dps)
        with mp.workdps(dps + 20):
            assert abs(lead - mp.log(lc)) <= mp.mpf(10) ** -(dps + 10)


def test_newton_lead_wall_time_with_a_large_generator():
    # the steps evaluate the sparse symbol, one power per generator, in about
    # 0.02 s on a 2-vCPU VM at 60 digits and 0.04 s at 95 to 97, one stage or
    # two; a dense evaluation of Q (degree 598) in every step takes several
    # times the bound
    gens = (1, 300)
    hp._symbol_roots(gens)  # numpy's roots, cached, are not the Newton steps
    for dps in (60, 95, 96, 97):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            hp._lead_term_circulant_hp_cached.__wrapped__(gens, dps)
            best = min(best, time.perf_counter() - start)
        assert best < 0.1, dps


def test_hp_log_det_matches_float():
    spec = CirculantSpec(40, (1, 3))
    assert float(hp.log_det_star_hp(spec, 40)) == pytest.approx(
        log_det_star(spec), rel=1e-13)
    sides = (2, 35)
    assert float(hp.log_det_star_hp(TorusSpec(sides), 40)) == pytest.approx(
        log_det_star(TorusSpec(sides)), rel=1e-13)


@st.composite
def _circulant_case(draw):
    n = draw(st.integers(3, 200))
    # 1 keeps the graph connected; the others may repeat or lie past n/2
    gens = (1,) + tuple(sorted(draw(st.lists(st.integers(1, n - 1), max_size=3))))
    return n, gens


@settings(max_examples=60, deadline=None)
@given(_circulant_case(), st.integers(15, 80))
def test_circulant_log_det_matches_oracle(case, dps):
    n, gens = case
    assert _agrees(hp.log_det_star_hp(CirculantSpec(n, gens), dps),
                   log_det_star_circulant_mp(n, gens, dps), dps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(15, 80))
def test_torus_log_det_matches_oracle(sides, dps):
    assert _agrees(hp.log_det_star_hp(TorusSpec(sides), dps),
                   log_det_star_torus_mp(sides, dps), dps)


@pytest.mark.parametrize("n", [40, 41, 200, 201])
def test_circulant_log_det_even_and_odd_n(n):
    for gens in ((1,), (1, 2), (1, 3, 7)):
        assert _agrees(hp.log_det_star_hp(CirculantSpec(n, gens), 60),
                       log_det_star_circulant_mp(n, gens, 60), 60)


def test_circulant_log_det_half_step():
    # g = n/2 is a doubled edge, and j = n/2 is the one unmirrored eigenvalue
    for n, gens in ((20, (1, 10)), (4, (1, 2)), (30, (1, 15, 15))):
        assert _agrees(hp.log_det_star_hp(CirculantSpec(n, gens), 50),
                       log_det_star_circulant_mp(n, gens, 50), 50)
    # C_2^{1} is the two-vertex doubled edge, which CirculantSpec (n >= 3)
    # spells as the torus of side 2
    assert _agrees(hp.log_det_star_hp(TorusSpec((2,)), 50),
                   log_det_star_circulant_mp(2, (1,), 50), 50)
    with mp.workdps(40):
        assert abs(hp.log_det_star_hp(TorusSpec((2,)), 30) - mp.log(4)) < mp.mpf(10) ** -30


def test_circulant_log_det_mirrored_generators():
    # g and n - g are the same step
    for n, gens, mirrored in ((20, (1, 3), (1, 17)), (31, (1, 4, 9), (1, 22, 27))):
        a = hp.log_det_star_hp(CirculantSpec(n, gens), 50)
        b = hp.log_det_star_hp(CirculantSpec(n, mirrored), 50)
        assert abs(a - b) < mp.mpf(10) ** -50
        assert _agrees(b, log_det_star_circulant_mp(n, mirrored, 50), 50)


def test_torus_log_det_sides_one_and_two_in_every_position():
    oracle = log_det_star_torus_mp((1, 2, 5), 50)
    for sides in itertools.permutations((1, 2, 5)):
        assert _agrees(hp.log_det_star_hp(TorusSpec(sides), 50), oracle, 50)
    for sides in ((2, 2, 3), (2, 3, 2), (3, 2, 2), (1, 1, 4), (1, 4, 1), (4, 1, 1)):
        assert _agrees(hp.log_det_star_hp(TorusSpec(sides), 50),
                       log_det_star_torus_mp(sides, 50), 50)


def test_torus_log_det_largest_side_not_last():
    for sides in ((7, 3), (3, 7, 2), (9, 4, 5)):
        assert _agrees(hp.log_det_star_hp(TorusSpec(sides), 50),
                       log_det_star_torus_mp(sides, 50), 50)


def test_torus_log_det_two_vertices():
    # V = 2: the one nonzero eigenvalue is 4
    with mp.workdps(40):
        for sides in ((2,), (1, 2), (2, 1, 1)):
            assert abs(hp.log_det_star_hp(TorusSpec(sides), 30) - mp.log(4)) < mp.mpf(10) ** -30
        assert hp.log_det_star_hp(TorusSpec((1, 1)), 30) == 0


@st.composite
def _edge_case_spec(draw):
    """Circulants with mirrored, duplicate and n/2 steps; tori with sides 1 and 2 anywhere."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 300))
        steps = draw(st.lists(st.integers(1, n - 1), max_size=3))
        steps += [n - g for g in steps if draw(st.booleans())]  # mirrors
        steps += steps[:draw(st.integers(0, len(steps)))]       # duplicates
        if n % 2 == 0 and draw(st.booleans()):
            steps.append(n // 2)
        return CirculantSpec(n, (1,) + tuple(sorted(steps)))
    sides = draw(st.lists(st.integers(3, 12), max_size=3))
    for small in draw(st.lists(st.sampled_from((1, 2)), max_size=3)):
        sides.insert(draw(st.integers(0, len(sides))), small)
    return TorusSpec(tuple(sides) or (1,))


@settings(max_examples=80, deadline=None)
@given(_edge_case_spec(), st.integers(15, 250))
def test_fixed_point_and_float_tables_give_one_half_spectrum(spec, dps):
    bits = hp._guard_bits(dps, spec.sides)
    values, weights = _half_spectrum(spec)
    fixed, fixed_weights = _half_spectrum(
        spec, table=lambda l: np.array(hp._sin2_table(l, bits), dtype=object))
    assert fixed.dtype == object and all(type(v) is int for v in fixed)
    np.testing.assert_array_equal(weights, fixed_weights)
    # the float table holds 4 sin^2, the fixed-point one sin^2 2^bits
    scaled = np.array([4 * mp.mpf(v) / 2 ** bits for v in fixed], dtype=float)
    assert np.all(np.abs(scaled - values) <= 2.0 ** -45 * values)


# constructed rounding cases of the int product: a first factor exactly
# half-way between two prec-bit mantissas (either parity), one that rounds up
# to 2^prec, and a tie made by a later factor: an odd m < 2^(prec+1) / 3 of
# prec bits is exact, and m 3 2^j has prec + 1 + j bits, of which the dropped
# j + 1 are a one and j zeros
@st.composite
def _product_case(draw):
    prec = draw(st.integers(3, 600))
    prefix = [1 << k for k in draw(st.lists(st.integers(0, 300), max_size=3))]
    kind = draw(st.sampled_from(["tie", "round_up", "later_tie", "random"]))
    if kind == "tie":
        m = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        k = draw(st.integers(1, 200))
        special = [(m << k) + (1 << (k - 1))]
    elif kind == "round_up":
        k = draw(st.integers(1, 200))
        special = [(((1 << prec) - 1) << k) + (1 << (k - 1)) + draw(st.integers(0, 1))]
    elif kind == "later_tie":
        half = draw(st.integers(1 << (prec - 2), ((1 << (prec + 1)) // 3 - 1) // 2))
        special = [2 * half + 1, 3 << draw(st.integers(0, 200))]
    else:
        special = []
    tail = draw(st.lists(st.integers(0, 1 << draw(st.integers(1, 1200))), max_size=30))
    return prec, prefix + special + tail


@settings(max_examples=300, deadline=None)
@given(_product_case())
def test_int_product_rounds_as_the_mpf_chain(case):
    prec, values = case
    assert hp._rounded_product(values, prec)._mpf_ == mpf_product_chain(values, prec)._mpf_


def test_int_product_named_rounding_cases():
    prec = 8
    cases = [
        [0b100000001],         # 257 = 256 + 1 has 9 bits: a tie, kept even at 256
        [0b100000011],         # 259: a tie, odd 129 rounds up to 130 (260)
        [0b111111111],         # 511 rounds up to 512 = 2^prec 2
        [0b111111111, 0b111111111, 3],
        [0b100000001, 0],      # a zero factor stays zero
        [],
    ]
    for values in cases:
        assert hp._rounded_product(values, prec)._mpf_ == \
            mpf_product_chain(values, prec)._mpf_
    assert hp._rounded_product([511], 8) == 512
    assert hp._rounded_product([257], 8) == 256 and hp._rounded_product([259], 8) == 260


def _sin2_error_bound_holds(table, l, bits):
    """Entry k within (k^2 + 1) / 2 units of sin^2(pi k / l) 2^bits, the bound in _guard_bits.

    The reference is mpmath's sinpi at 64 more bits; (k^2 + 1) / 2 units is
    at most l^2 / 4 units relative on the half range.
    """
    assert len(table) == l // 2 + 1 and table[0] == 0
    with mp.workprec(bits + 64):
        scale = mp.ldexp(1, bits)
        return all(abs(entry - mp.sinpi(mp.mpf(k) / l) ** 2 * scale) <= (k * k + 1) / mp.mpf(2)
                   for k, entry in enumerate(table))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2000), st.integers(2, 1500))
def test_sin2_table_is_within_the_guard_bits_bound(l, bits):
    assert _sin2_error_bound_holds(hp._sin2_table(l, bits), l, bits)


def test_sin2_table_named_cases():
    bits = 100
    one = 1 << bits
    assert hp._sin2_table(1, bits) == [0]
    assert hp._sin2_table(2, bits) == [0, one]            # the doubled edge: 4 sin^2 = 4
    assert hp._sin2_table(3, bits) == [0, 3 * one // 4]
    assert hp._sin2_table(4, bits) == [0, one // 2, one]
    assert _sin2_error_bound_holds(hp._sin2_table(10**5, 200), 10**5, 200)


@st.composite
def _bit_exact_spec(draw):
    if draw(st.booleans()):
        n = draw(st.integers(3, 800))
        steps = draw(st.lists(st.integers(1, n - 1), max_size=3))
        return CirculantSpec(n, (1,) + tuple(sorted(steps)))
    return TorusSpec(tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))))


@settings(max_examples=60, deadline=None)
@given(_bit_exact_spec(), st.integers(15, 300))
def test_log_det_star_hp_equals_the_mpf_chain_route(spec, dps):
    # over hp's own tables, the mpf-times-int chains of the same modes give
    # the same products and log bit for bit (the spectral route itself, which
    # log_det_star_hp skips where the count is cheaper)
    bits = hp._guard_bits(dps, spec.sides)
    values, weights = _half_spectrum(
        spec, table=lambda l: np.array(hp._sin2_table(l, bits), dtype=object))
    oracle = log_det_star_from_modes(values, weights, bits, spec.vertex_count, dps)
    assert hp._log_det_star_spectral(spec, dps)._mpf_ == oracle._mpf_


@settings(max_examples=60, deadline=None)
@given(_bit_exact_spec(), st.integers(15, 300))
def test_log_det_star_hp_is_within_an_ulp_of_the_four_product_route(spec, dps):
    # the rotation tables err differently, and both stay far below the last
    # of the dps + 10 digits that log_det_star_hp returns
    bits = hp._guard_bits(dps, spec.sides)
    values, weights = _half_spectrum(
        spec, table=lambda l: np.array(sin2_table_four_products(l, bits), dtype=object))
    oracle = log_det_star_from_modes(values, weights, bits, spec.vertex_count, dps)
    with mp.workdps(dps + 10):
        ulp = mp.ldexp(1, mp.mag(oracle) - mp.mp.prec) if oracle else mp.mpf(0)
        assert abs(hp._log_det_star_spectral(spec, dps) - oracle) <= ulp


def test_log_det_star_hp_raises_above_the_cap():
    for spec in (CirculantSpec(101, (1, 2)), TorusSpec((10, 11))):
        assert hp.log_det_star_hp(spec, 30, cap=spec.vertex_count) == \
            hp.log_det_star_hp(spec, 30)
        with pytest.raises(EnumerationCapError):
            hp.log_det_star_hp(spec, 30, cap=spec.vertex_count - 1)


def _refuse(*args, **kwargs):
    raise AssertionError("the other log det* route ran")


# the high-precision benchmark's shapes above the tree-count limit,
# circulants (1, g, 5) and tori with one growing side at 601 to 900 vertices
# and 60 to 240 digits, where the count costs a seventh to a half of the
# spectral product, longer m = 4 circulants where it still wins, and the
# benchmark's rows below the limit, where the count of 60-66 vertices costs
# a half to nine tenths of the product of 31 modes even at low precision
_COUNT_CHEAPER = [
    (CirculantSpec(697, (1, 4, 5)), 60), (CirculantSpec(620, (1, 4, 5)), 200),
    (CirculantSpec(601, (1, 4, 5)), 238), (CirculantSpec(650, (1, 2, 5)), 120),
    (CirculantSpec(700, (1, 3, 5)), 90),
    (TorusSpec((3, 208)), 231), (TorusSpec((2, 324)), 205), (TorusSpec((2, 435)), 62),
    (TorusSpec((2, 2, 170)), 180), (TorusSpec((4, 200)), 120), (TorusSpec((3, 300)), 80),
    (CirculantSpec(5000, (1, 2, 5)), 60), (CirculantSpec(20000, (1, 2, 5)), 240),
    (CirculantSpec(60, (1, 2, 5)), 60), (CirculantSpec(66, (1, 3, 5)), 90),
]

# where the count loses: a wide ring (m = 7 to 299) or a long tau at a low precision
_SPECTRAL_CHEAPER = [
    (TorusSpec((7, 7, 7)), 60), (CirculantSpec(2000, (1, 300)), 90),
    (CirculantSpec(650, (1, 8)), 60), (CirculantSpec(650, (1, 24)), 60),
    (CirculantSpec(650, (1, 24)), 240), (CirculantSpec(1000, (1, 40)), 60),
    (CirculantSpec(1000, (1, 40)), 240), (CirculantSpec(20000, (1, 2, 5)), 60),
    (TorusSpec((4, 4, 50)), 60), (TorusSpec((4, 4, 50)), 240), (TorusSpec((6, 6, 30)), 60),
    (TorusSpec((6, 6, 30)), 240), (TorusSpec((16, 16)), 60), (TorusSpec((16, 16)), 240),
]


@pytest.mark.parametrize("spec, dps", _COUNT_CHEAPER)
def test_log_det_star_hp_takes_the_count_where_it_is_cheaper(monkeypatch, spec, dps):
    spectral = hp._log_det_star_spectral(spec, dps)
    monkeypatch.setattr(hp, "_log_det_star_spectral", _refuse)
    assert hp.log_det_star_hp(spec, dps)._mpf_ == spectral._mpf_


@pytest.mark.parametrize("spec, dps", _SPECTRAL_CHEAPER)
def test_log_det_star_hp_takes_the_spectral_product_where_the_count_loses(
        monkeypatch, spec, dps):
    spectral = hp._log_det_star_spectral(spec, dps)
    monkeypatch.setattr(hp, "spanning_tree_count_exact", _refuse)
    assert hp.log_det_star_hp(spec, dps)._mpf_ == spectral._mpf_


@st.composite
def _count_route_spec(draw):
    """Shapes whose count matrix is small, on both sides of the route choice."""
    if draw(st.booleans()):
        n = draw(st.integers(13, 3000))
        steps = draw(st.lists(st.integers(2, 6), max_size=2))
        return CirculantSpec(n, tuple(sorted({1, *(n - g if draw(st.booleans()) else g
                                                  for g in steps)})))
    sides = list(draw(st.sampled_from([(), (1,), (2,), (3,), (4,), (2, 2), (1, 3)])))
    sides.insert(draw(st.integers(0, len(sides))), draw(st.integers(1, 1500)))
    return TorusSpec(tuple(sides))


@settings(max_examples=40, deadline=None)
@given(_count_route_spec(), st.integers(15, 300))
def test_count_route_is_within_an_ulp_of_the_spectral_route(spec, dps):
    # two engines that share no code: the exact count's log, rounded once,
    # and the fixed-point product, whose error stays far below the last digit
    count = hp._log_det_star_count(spec, dps)
    spectral = hp._log_det_star_spectral(spec, dps)
    with mp.workdps(dps + 10):
        ulp = mp.ldexp(1, mp.mag(spectral) - mp.mp.prec) if spectral else mp.mpf(0)
        assert abs(count - spectral) <= ulp


def test_log_det_star_hp_refuses_above_the_cap_before_any_work(monkeypatch):
    for name in ("spanning_tree_count_exact", "_half_spectrum", "_sin2_table"):
        monkeypatch.setattr(hp, name, _refuse)
    for spec, _ in _COUNT_CHEAPER[:1] + _SPECTRAL_CHEAPER[:1]:
        with pytest.raises(EnumerationCapError):
            hp.log_det_star_hp(spec, 60, cap=spec.vertex_count - 1)


def _agrees_with_count(value, spec, digits):
    # log det* = log(V tau) by the matrix-tree theorem, and the count comes
    # from the Chebyshev engine in graphs, which shares no code with hp's
    # spectral product; the callers pass that product, not log_det_star_hp,
    # which takes the count itself on these shapes
    count = spanning_tree_count_exact(spec, cap=10**5)
    with mp.workdps(digits + 20):
        ref = mp.log(spec.vertex_count * mp.mpf(count))
        return abs(value - ref) <= mp.mpf(10) ** -digits * max(1, abs(ref))


# the sizes and precisions where the fixed-point tables' guard bits matter.
# The kernels promise dps + 10 digits, so the check is to dps + 9.  The
# smallest eigenvalues carry the largest relative error, and a cycle's are
# single table entries near (pi / n)^2: there, dropping the 2 bitlen(n) guard
# bits loses about 3 digits at n = 2*10^4 and 2 at n = 5000
@pytest.mark.parametrize("n, gens, dps", [
    (20000, (1,), 100),
    (19997, (1, 19996), 300),      # a doubled cycle: n - 1 mirrors 1
    (20000, (1, 2, 7, 11), 300),
    (20000, (1, 10000), 300),      # g = n/2, with the unmirrored mode j = n/2
    (19999, (1, 19997), 250),      # the mirror of (1, 2)
    (20000, (1, 3, 19990), 200),   # the mirror of (1, 3, 10)
    (16384, (1, 5), 15),
    (9001, (1, 2, 8996), 80),
])
def test_circulant_log_det_matches_exact_count_at_large_n(n, gens, dps):
    spec = CirculantSpec(n, gens)
    assert _agrees_with_count(hp._log_det_star_spectral(spec, dps), spec, dps + 9)


@st.composite
def _large_circulant_case(draw):
    n = draw(st.integers(3, 20000))
    if n % 2 == 0 and draw(st.booleans()):
        return n, (1, n // 2)
    steps = draw(st.lists(st.integers(2, 12).filter(lambda g: g < n), max_size=2))
    mirrored = draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    return n, tuple(sorted((1,) + tuple(n - g if m else g for g, m in zip(steps, mirrored))))


@settings(max_examples=8, deadline=None)
@given(_large_circulant_case(), st.integers(15, 300))
def test_circulant_log_det_matches_exact_count_random(case, dps):
    n, gens = case
    spec = CirculantSpec(n, gens)
    assert _agrees_with_count(hp._log_det_star_spectral(spec, dps), spec, dps + 9)


@pytest.mark.parametrize("sides", [*itertools.permutations((1, 2, 5000)),
                                   (5000,), (1, 5000), (5000, 1, 1), (2, 5000), (5000, 2),
                                   (4, 5000), (2, 2, 2500)])
def test_torus_log_det_matches_exact_count_with_a_long_side(sides):
    for dps in (15, 300):
        assert _agrees_with_count(hp._log_det_star_spectral(TorusSpec(sides), dps),
                                  TorusSpec(sides), dps + 9)


def test_lead_term_cached_per_generators_and_precision():
    hp.lead_term_circulant_hp((1, 4), 45)
    before = hp._lead_term_circulant_hp_cached.cache_info().hits
    assert hp.lead_term_circulant_hp([1, 4], 45) == hp.lead_term_circulant_hp((1, 4), 45)
    assert hp._lead_term_circulant_hp_cached.cache_info().hits == before + 2


def test_circulant_residual_magnitudes():
    # residual of {1,2} is 2 log(1 - phi^{-2n}) exactly
    with mp.workdps(80):
        phi = (1 + mp.sqrt(5)) / 2
        for n in (10, 30, 50):
            expected = 2 * mp.log(1 - phi ** (-2 * n))
            got = hp.predict_circulant_hp(n, (1, 2), 80).residual
            assert abs(got - expected) < mp.mpf(10) ** -50


def test_torus_residual_closed_form():
    # residual of diag(2, n) is 2 log(1 - (3 + 2 sqrt 2)^{-n})
    with mp.workdps(80):
        rho = 3 + 2 * mp.sqrt(2)
        for n in (10, 40):
            expected = 2 * mp.log(1 - rho ** -n)
            got = hp.predict_torus_constant_hp(n, (2,), (1,), 70).residual
            assert abs(got - expected) < mp.mpf(10) ** -45


@pytest.mark.parametrize("n,alpha,b,dps", [
    (5, (3,), 1, 40), (4, (2, 2), 2, 100), (3, (5, 7), 1, 60), (2, (4, 3, 2), 2, 80),
    (2, (30, 30), 1, 210), (1, (300,), 1, 200),
])
def test_torus_constant_hp_prediction_equals_the_per_mode_form(n, alpha, b, dps):
    # one sinpi per side and index and one arccosh per distinct mode value
    # give the mpf of one of each per mode, bit for bit; (30, 30) has 900
    # modes and 231 distinct values
    report = hp.predict_torus_constant_hp(n, alpha, (b,), dps)
    oracle = torus_constant_prediction_per_mode(n, alpha, b, dps)
    assert report.predicted_log_det._mpf_ == oracle._mpf_


def test_torus_residual_requires_single_growing_side():
    with pytest.raises(ValueError):
        hp.predict_torus_constant_hp(10, (2,), (1, 1), 40)


def test_conjecture_small_cases():
    for n in (2, 3):
        v = hp.verify_conjecture(n)
        assert v.match
        assert v.exact == int(mp.nint(v.predicted))
    assert hp.verify_conjecture(2).exact == 30250  # 10 * F_10^2 via the Fibonacci anchor


def test_conjecture_digits_are_capped_at_the_evaluation_precision():
    # v2 is evaluated at dps + 25 digits: an exact row reports that, and an
    # inexact row never more (n = 6 and 7 are exact at 60 digits, n = 2 is not)
    for n in (2, 6, 7):
        assert hp.verify_conjecture(n).digits_agreement == 85
    assert hp.verify_conjecture(6, min_dps=100).digits_agreement == 125


@pytest.mark.parametrize("n", [20, 40])
def test_conjecture_at_cover_route_sizes(n):
    v = hp.verify_conjecture(n)
    assert v.match
    assert v.exact == dense_tree_count(CirculantSpec(5 * n, (1, n)))


def test_conjecture_rejects_n_below_two():
    with pytest.raises(ValueError):
        hp.conjecture_tau_hp(1, 60)


def test_conjecture_verdict_stable_under_precision_doubling():
    for n in (2, 5, 8):
        low = hp.verify_conjecture(n, min_dps=60)
        high = hp.verify_conjecture(n, min_dps=120)
        assert low.match == high.match
        assert low.exact == high.exact


def test_conjecture_raises_when_the_doublings_run_out():
    # tau(C_1000^{1,200}) has about 490 digits, more than 60 or 120 resolve
    with pytest.raises(AsymError, match="no unambiguous conjecture verdict"):
        hp.verify_conjecture(200, min_dps=60, max_dps=200)


def test_conjecture_tries_a_precision_above_the_limit():
    v = hp.verify_conjecture(2, min_dps=5000)
    assert v.match and v.dps_used == 5000


def test_surd_identities():
    x_plus, y_plus, _, _ = hp._conjecture_factors(60)
    devs = surd_deviations(x_plus, y_plus, 60)
    for name, dev in devs.items():
        assert dev < mp.mpf(10) ** -55, name


def test_deflation_checks_remainder():
    with pytest.raises(ValueError):
        _deflate([1, 0, 1], 1)  # z^2 + 1 has no root at 1
