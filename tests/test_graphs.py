import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import mpmath as mp
from hypothesis import example, given, settings, strategies as st

from spantor import graphs
from spantor.graphs import (
    CirculantSpec,
    TorusSpec,
    GraphSpecError,
    EnumerationCapError,
    spectrum,
    spanning_tree_count_exact,
    log_det_star,
)
from spantor.specfun import theta_discrete_bessel, theta_discrete_spectral

from oracles import (
    brute_force_tree_count,
    circulant_lattice,
    dense_spectrum,
    dense_tree_count,
    fibonacci,
    folded_spectrum,
    integer_determinant,
    laplacian_matrix,
    log_det_star_full,
    log_det_star_torus_mp,
    product_form_tree_count,
    quotient_graph_spectrum,
    theta_torus_mp,
)


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------


def test_cycle_spectrum():
    s = spectrum(CirculantSpec(4, (1,)))
    assert np.allclose(s, [0.0, 2.0, 4.0, 2.0], atol=1e-15)
    assert s[0] == 0.0


def test_c4_12_spectrum_vs_dense_solver():
    spec = CirculantSpec(4, (1, 2))
    s = spectrum(spec)
    assert np.allclose(s, [0.0, 6.0, 4.0, 6.0], atol=1e-12)
    assert np.allclose(np.sort(s), dense_spectrum(spec), atol=1e-12)


def test_trace_identity_c7():
    s = spectrum(CirculantSpec(7, (1, 2)))
    assert len(s) == 7
    assert math.fsum(s) == pytest.approx(28.0, abs=1e-12)


@pytest.mark.parametrize("n,gens", [(11, (1,)), (15, (1, 4)), (24, (1, 2, 7)), (9, (1, 3))])
def test_trace_identity_random(n, gens):
    spec = CirculantSpec(n, gens)
    assert math.fsum(spectrum(spec)) == pytest.approx(
        2.0 * spec.d * n, rel=1e-14)


@pytest.mark.parametrize("spec", [CirculantSpec(17, (1, 2, 8)), CirculantSpec(8, (1, 4)),
                                  TorusSpec((2, 5, 7))])
def test_eigenvalues_within_regular_range(spec):
    values = spectrum(spec)
    assert float(values.min()) >= 0.0
    assert float(values.max()) <= 2.0 * spec.degree + 1e-12


def test_torus_spectrum_examples():
    assert sorted(spectrum(TorusSpec((2, 2)))) == pytest.approx([0, 4, 4, 8])
    assert sorted(spectrum(TorusSpec((3,)))) == pytest.approx([0, 3, 3])
    # a side of length 1 contributes nothing
    s = spectrum(TorusSpec((1, 4)))
    assert sorted(s) == pytest.approx([0.0, 2.0, 2.0, 4.0])
    assert np.allclose(sorted(s), sorted(spectrum(CirculantSpec(4, (1,)))))


@pytest.mark.parametrize("sides", [(2, 3), (4, 5), (2, 2, 3), (6,)])
def test_torus_spectrum_vs_dense_solver(sides):
    spec = TorusSpec(sides)
    assert np.allclose(np.sort(spectrum(spec)), dense_spectrum(spec), atol=1e-12)
    assert math.fsum(spectrum(spec)) == pytest.approx(
        2.0 * spec.d * spec.vertex_count, rel=1e-13)


def test_torus_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        spectrum(TorusSpec((1000, 1000)), cap=10**5)


def test_near_zero_modes_match_their_mirrors():
    # sin^2 is read at min(r, l - r): the mode next to l is its mirror's
    # value bit for bit, with full relative accuracy, not that of sin near pi
    n = 10**6
    lam = spectrum(CirculantSpec(n, (1,)))
    side = spectrum(TorusSpec((3, 1000)))
    with mp.workdps(40):
        for values, low, high, l in [(lam, 1, n - 1, n), (side, 1, 999, 1000)]:
            assert values[high] == values[low]
            exact = 4 * mp.sinpi(mp.mpf(1) / l) ** 2
            assert abs(values[high] - exact) <= 1e-15 * exact


# ---------------------------------------------------------------------------
# exact tree counts
# ---------------------------------------------------------------------------


def test_count_examples():
    assert spanning_tree_count_exact(CirculantSpec(4, (1,))) == 4
    assert spanning_tree_count_exact(CirculantSpec(7, (1, 2))) == 1183
    assert spanning_tree_count_exact(CirculantSpec(7, (1, 2))) == 7 * fibonacci(7) ** 2
    assert spanning_tree_count_exact(CirculantSpec(4, (1, 2))) == 36


def test_count_c4_12_brute_force():
    assert brute_force_tree_count(CirculantSpec(4, (1, 2))) == 36


def _all_small_specs():
    """Every connected spec with <= 9 vertices and <= 2 generators/sides <= 3 dims."""
    specs = []
    for n in range(3, 10):
        specs.append(CirculantSpec(n, (1,)))
        for g in range(2, n):
            specs.append(CirculantSpec(n, (1, g)))
    for a in range(1, 10):
        specs.append(TorusSpec((a,)))
        for b in range(1, 10):
            if a * b <= 9:
                specs.append(TorusSpec((a, b)))
                for c in range(1, 10):
                    if a * b * c <= 9:
                        specs.append(TorusSpec((a, b, c)))
    return [s for s in specs if s.vertex_count >= 2]


@pytest.mark.parametrize("spec", _all_small_specs(),
                         ids=lambda s: f"{type(s).__name__}-{getattr(s, 'generators', None) or s.sides}-{s.vertex_count}")
def test_brute_force_oracle_small_graphs(spec):
    assert spanning_tree_count_exact(spec) == brute_force_tree_count(spec)


def test_fibonacci_law():
    for n in range(3, 41):
        assert spanning_tree_count_exact(CirculantSpec(n, (1, 2))) \
            == n * fibonacci(n) ** 2


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_fibonacci_law_large(n):
    assert spanning_tree_count_exact(CirculantSpec(n, (1, 2)), cap=n) \
        == n * fibonacci(n) ** 2


@pytest.mark.parametrize("spec", [
    CirculantSpec(60, (1, 2)),
    CirculantSpec(101, (1, 3)),
    TorusSpec((7, 9)),
    TorusSpec((2, 3, 5)),
    CirculantSpec(10**4, (1, 3)),
    TorusSpec((7, 50)),
    CirculantSpec(1000, (1, 200)),
    CirculantSpec(10**4, (1, 2, 5)),
])
def test_matrix_tree_consistency(spec):
    tau = spanning_tree_count_exact(spec, cap=spec.vertex_count)
    ratio = math.exp(log_det_star(spec) - math.log(tau)) / spec.vertex_count
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_duplicate_largest_generator():
    # the deflated symbol polynomial has leading coefficient -2 or -3: not monic
    for gens in [(1, 2, 2), (1, 3, 3), (1, 2, 2, 2), (1, 1, 3, 3)]:
        for n in range(max(gens) + 1, 26):
            spec = CirculantSpec(n, gens)
            assert spanning_tree_count_exact(spec) == dense_tree_count(spec), (n, gens)


def test_doubled_cycle():
    # Gamma = (1, 1): the deflated symbol polynomial is the constant -2 (degree 0)
    for n in list(range(3, 20)) + [1000]:
        assert spanning_tree_count_exact(CirculantSpec(n, (1, 1))) == n * 2 ** (n - 1)
    for n in range(3, 12):
        assert dense_tree_count(CirculantSpec(n, (1, 1))) == n * 2 ** (n - 1)


def test_half_turn_generator():
    # g = n/2 reaches the opposite vertex from both sides: a doubled edge
    for n in range(4, 31, 2):
        for gens in [(1, n // 2), (1, 2, n // 2)]:
            spec = CirculantSpec(n, gens)
            assert spanning_tree_count_exact(spec) == dense_tree_count(spec), (n, gens)


def test_mirrored_generators():
    for n in range(5, 25):
        for g in range(n // 2 + 1, n):
            spec = CirculantSpec(n, (1, g))
            tau = spanning_tree_count_exact(spec)
            assert tau == dense_tree_count(spec), (n, g)
            assert tau == spanning_tree_count_exact(CirculantSpec(n, (1, n - g)))


@pytest.mark.parametrize("beta", [2, 3, 5])
@pytest.mark.parametrize("g", [2, 3])
def test_cycle_cover_route(beta, g):
    # beta = 2 is g = N/2, where each vertex has a doubled edge to its opposite
    # the g-fold cover of the beta-cycle in Z[Z/beta], twisted by the generator 1
    spec = CirculantSpec(beta * g, (1, g))
    assert graphs._cover_tree_count((beta,), 1, g) == dense_tree_count(spec)


def test_product_form_equals_the_exact_count():
    # the cycle-cover identity in closed form, which never calls _lucas
    for beta in range(2, 11):
        for n in [*range(2, 30), 60, 200]:
            assert product_form_tree_count(beta, n) \
                == spanning_tree_count_exact(CirculantSpec(beta * n, (1, n))), (beta, n)


def test_cover_and_symbol_routes_agree():
    for n in range(4, 151):
        for g in range(2, n // 2 + 1):
            if n % g == 0:
                spec = CirculantSpec(n, (1, g))
                assert graphs._circulant_tree_count(spec) \
                    == graphs._cover_tree_count((n // g,), 1, g), (n, g)


def test_count_takes_the_smaller_matrix():
    # the cover's group ring Z[Z/5], twisted by the generator 1, against Z[y]/(p) of dimension 199
    assert graphs._as_cover(CirculantSpec(1000, (1, 200))) == ((5,), 1, 200)
    assert graphs._as_cover(CirculantSpec(1000, (1, 800))) == ((5,), 1, 200)   # mirrored step
    assert graphs._as_cover(CirculantSpec(30, (1, 5))) is None         # 6 > 4: symbol
    assert graphs._as_cover(CirculantSpec(30, (1, 7))) is None         # 7 does not divide 30
    assert graphs._as_cover(CirculantSpec(30, (1, 2, 15))) is None     # three generators
    # the shape names the ring's dimension and the fold count that _as_cover takes
    assert graphs._cover_shape(CirculantSpec(1000, (1, 800))) == (5, 200)
    assert graphs._cover_shape(CirculantSpec(30, (1, 5))) is None
    for sides in ((7, 3), (3, 7, 2), (1, 1), (5,)):
        base, twist, L = graphs._as_cover(TorusSpec(sides))
        _, regular = graphs._group_ring(base)
        dimension = len(regular([0] * math.prod(base)))
        assert graphs._cover_shape(TorusSpec(sides)) == (dimension, L) \
            == (TorusSpec(sides).vertex_count // max(sides), max(sides))
        assert twist == 0  # a torus's layers wrap through the identity


def _matrix_product(x, y):
    return [[sum(a * b for a, b in zip(row, column)) for column in zip(*y)] for row in x]


@st.composite
def _ring_elements(draw):
    """(product, regular, u, v): a symbol ring of a random Gamma or a group ring, two elements."""
    if draw(st.booleans()):
        gens = (1, *sorted(draw(st.lists(st.integers(1, 12), max_size=3))))
        r = graphs._deflate(graphs._symbol_in_x(gens), 2)[::-1]
        m, lc = len(r) - 1, r[-1]
        product, regular = graphs._poly_ring([r[i] * lc ** (m - 1 - i) for i in range(m)])
    else:
        sides = draw(st.lists(st.integers(1, 60), max_size=3)
                     .filter(lambda sides: math.prod(sides) <= 60))
        product, regular = graphs._group_ring(sides)
        m = math.prod(sides)
    element = st.lists(st.integers(-2**70, 2**70), min_size=m, max_size=m)
    return product, regular, draw(element), draw(element)


@settings(max_examples=80, deadline=None)
@given(_ring_elements())
def test_ring_product_is_the_product_of_regular_representations(ring):
    product, regular, u, v = ring
    assert regular(product(u, v)) == _matrix_product(regular(u), regular(v))
    unit = [int(i == 0) for i in range(len(u))]
    assert regular(unit) == [[int(i == j) for j in range(len(u))] for i in range(len(u))]
    assert product(u, unit) == u


@pytest.mark.parametrize("spec, cover", [
    (CirculantSpec(7, (1,)), None),          # R constant: the ring Z[y]/(p) has m = 0
    (CirculantSpec(8, (1, 1)), None),        # m = 0 with lc = -2
    (CirculantSpec(9, (1, 2)), None),        # m = 1: y is the integer -monic[0]
    (TorusSpec((9, 1)), ((1,), 0, 9)),       # a base side 1: its self loop drops out
    (TorusSpec((2, 9)), ((2,), 0, 9)),       # a base side 2: the doubled edge 2 - 2 s
    (CirculantSpec(10, (1, 5)), ((2,), 1, 5)),   # beta = 2: the twist is its own inverse
    (TorusSpec((9,)), ((), 0, 9)),           # one side: the group ring of the trivial group
])
def test_ring_edge_cases_match_dense_oracle(spec, cover):
    assert graphs._as_cover(spec) == cover
    assert spanning_tree_count_exact(spec) == dense_tree_count(spec)


def test_both_families_name_their_sides():
    # every eigenvalue reads one sin^2 table per side: n for a circulant
    assert CirculantSpec(7, (1, 2)).sides == (7,)
    assert TorusSpec([3, 4]).sides == (3, 4)


def _unvalidated_circulant(n, gens):
    """A CirculantSpec that skips validation, which rejects generator sets without 1."""
    spec = object.__new__(CirculantSpec)
    object.__setattr__(spec, "n", n)
    object.__setattr__(spec, "generators", tuple(gens))
    return spec


def test_disconnected_circulant_raises_before_algebra(monkeypatch):
    def no_algebra(*args):
        raise AssertionError("algebra ran on a disconnected graph")

    for name in ("_lucas", "_poly_ring", "_group_ring", "_circulant_tree_count",
                 "_cover_tree_count", "_bareiss_determinant"):
        monkeypatch.setattr(graphs, name, no_algebra)
    for n, gens in [(6, (2, 4)), (9, (3,)), (10**6, (2, 6, 10))]:
        with pytest.raises(GraphSpecError, match="disconnected"):
            spanning_tree_count_exact(_unvalidated_circulant(n, gens), cap=n)


def test_torus_sides_one_and_two_in_any_order():
    for sides in [(1, 2, 3), (2, 2, 2), (1, 1, 5), (2, 1, 7), (3, 13, 3), (2, 9), (1, 6, 2)]:
        counts = {spanning_tree_count_exact(TorusSpec(order))
                  for order in set(itertools.permutations(sides))}
        assert counts == {dense_tree_count(TorusSpec(sides))}, sides


def test_single_vertex_torus():
    for sides in [(1,), (1, 1), (1, 1, 1)]:
        assert spanning_tree_count_exact(TorusSpec(sides)) == 1


@st.composite
def _circulants(draw):
    n = draw(st.integers(3, 60))
    extra = draw(st.lists(st.integers(1, n - 1), max_size=3))
    return CirculantSpec(n, (1,) + tuple(sorted(extra)))


@st.composite
def _tori(draw):
    sides = []
    while len(sides) < 4 and (not sides or draw(st.booleans())):
        sides.append(draw(st.integers(1, min(8, 200 // math.prod(sides)))))
    return TorusSpec(tuple(sides))


@st.composite
def _disconnected_circulants(draw):
    m = draw(st.integers(2, 6))
    k = draw(st.integers(2, 60 // m))
    gens = draw(st.lists(st.integers(1, k - 1), min_size=1, max_size=4))
    return _unvalidated_circulant(m * k, sorted(m * g for g in gens))


@settings(max_examples=150, deadline=None)
@given(_circulants())
def test_circulant_count_matches_dense_oracle(spec):
    assert spanning_tree_count_exact(spec) == dense_tree_count(spec)


@settings(max_examples=40, deadline=None)
@given(_tori())
def test_torus_count_matches_dense_oracle(spec):
    assert spanning_tree_count_exact(spec) == dense_tree_count(spec)


@settings(max_examples=50, deadline=None)
@given(_disconnected_circulants())
def test_disconnected_draws_raise(spec):
    with pytest.raises(GraphSpecError):
        spanning_tree_count_exact(spec)


def test_deletion_invariance():
    spec = CirculantSpec(9, (1, 3))
    dets = {dense_tree_count(spec, delete=k) for k in range(9)}
    assert len(dets) == 1


def test_laplacian_row_sums_vanish():
    for spec in (CirculantSpec(10, (1, 5)), TorusSpec((1, 2, 5))):
        L = laplacian_matrix(spec)
        assert all(sum(row) == 0 for row in L)
        deg = 2 * spec.d if isinstance(spec, CirculantSpec) else 2 * len(
            [s for s in spec.sides])
        # diagonal counts only non-loop incidences; sides of length 1 drop out
        if isinstance(spec, TorusSpec):
            deg = 2 * sum(1 for s in spec.sides if s > 1)
        assert all(L[i][i] == deg for i in range(len(L)))


# ---------------------------------------------------------------------------
# log det*
# ---------------------------------------------------------------------------


_EPS = 2.0**-52


def _cover_bound(spec, value):
    """The error bound log_det_star states for a torus: (d + 10) eps (x + 1) a term, half an ulp."""
    *base, L = sorted(spec.sides)
    mu, w = graphs._half_spectrum(TorusSpec(base or (1,)))
    x = L * np.arcsinh(np.sqrt(mu[1:]) / 2)
    terms = np.append(w[1:] * (x + 1), 2 * math.log(L) + 1)  # the zero mode's 2 log L
    return (spec.d + 10) * _EPS * math.fsum(terms) + _EPS / 2 * abs(value)


def _assert_torus_log_det_star(spec):
    """log_det_star(spec) within its bound of the mpmath oracle, and of the spectral fsum.

    The spectral fsum's own error: each lambda, d table entries within
    5 eps each and d - 1 additions, within (d + 5) eps relative, each log
    within eps |log lambda|, and half an ulp of the sum.
    """
    value = log_det_star(spec)
    bound = _cover_bound(spec, value)
    assert abs(mp.mpf(value) - log_det_star_torus_mp(spec.sides, 20)) <= bound
    full = folded_spectrum(spec)
    spectral = log_det_star_full(full)
    logs = np.abs(np.log(full[full != 0.0]))
    own = math.fsum((spec.d + 5) * _EPS + _EPS * logs) + _EPS / 2 * abs(spectral)
    assert abs(value - spectral) <= bound + own


def _assert_torus_theta(spec, t):
    """theta_discrete_spectral within 2 d eps relative of the mpmath oracle and of the spectral fsum.

    The spectral fsum's own error: each term e^{-t lambda} within
    ((d + 6) t lambda + 1) eps of its value, and half an ulp of the sum.
    """
    value = theta_discrete_spectral(spec, t).value
    bound = 2 * spec.d * _EPS * value
    assert abs(mp.mpf(value) - theta_torus_mp(spec.sides, t, 20)) <= bound
    full = folded_spectrum(spec)
    terms = np.exp(-full * t)
    spectral = math.fsum(terms)
    own = math.fsum(terms * ((spec.d + 6) * t * full + 1) * _EPS) + _EPS / 2 * spectral
    assert abs(value - spectral) <= bound + own


def test_log_det_star_examples():
    assert log_det_star(CirculantSpec(4, (1,))) \
        == pytest.approx(math.log(16.0), rel=1e-14)
    assert log_det_star(CirculantSpec(7, (1, 2))) \
        == pytest.approx(math.log(7 * 1183), rel=1e-12)


def test_log_det_star_degenerate_inputs():
    with pytest.raises(GraphSpecError):
        log_det_star(TorusSpec((1, 1)))  # a single vertex
    with pytest.raises(EnumerationCapError):
        log_det_star(CirculantSpec(101, (1, 2)), cap=100)
    with pytest.raises(EnumerationCapError):
        log_det_star(TorusSpec((10, 11)), cap=100)


@st.composite
def circulant_specs(draw):
    n = draw(st.integers(3, 80))
    extra = draw(st.lists(st.integers(1, n - 1), max_size=4))
    return CirculantSpec(n, (1,) + tuple(sorted(extra)))


# g = n/2 at even n, mirrored generators g > n/2 at odd and even n, and
# duplicated generators
@example(CirculantSpec(10, (1, 5)))
@example(CirculantSpec(9, (1, 5, 7)))
@example(CirculantSpec(12, (1, 6, 6, 11)))
@example(CirculantSpec(7, (1, 1, 3, 3)))
@example(CirculantSpec(3, (1, 2)))
@given(circulant_specs())
@settings(max_examples=80, deadline=None)
def test_log_det_star_equals_full_folded_sum_circulant(spec):
    assert log_det_star(spec) == log_det_star_full(folded_spectrum(spec))


# sides 1 (self loops) and 2 (doubled edges) in every position
@example(TorusSpec((1, 2, 3)))
@example(TorusSpec((2, 1, 3)))
@example(TorusSpec((3, 2, 1)))
@example(TorusSpec((2, 3, 1)))
@example(TorusSpec((1, 3, 2)))
@example(TorusSpec((3, 1, 2)))
@example(TorusSpec((2, 2, 2)))
@example(TorusSpec((1, 1, 2)))
@example(TorusSpec((2,)))
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4)
       .filter(lambda sides: 1 < math.prod(sides) <= 2000).map(TorusSpec))
@settings(max_examples=80, deadline=None)
def test_log_det_star_equals_full_folded_sum_torus(spec):
    # a torus goes by the cover identity, so it matches the spectral sum to
    # within their bounds, not bit for bit
    _assert_torus_log_det_star(spec)


# ---------------------------------------------------------------------------
# the torus cover route of log det* and the product of side sums of theta
# ---------------------------------------------------------------------------


# with every side at most 2 the torus is a hypercube Q_k, whose eigenvalue 4 j
# has multiplicity C(k, j); a largest side of 2 is the doubled edge, where the
# two eigenvalues mu and mu + 4 over a base mode multiply to
# 2 cosh(2 phi) - 2 = mu (mu + 4)
@pytest.mark.parametrize("sides", [(2, 2), (2, 1, 2), (2, 2, 2), (1, 2, 2, 2, 2, 1)])
def test_torus_cover_with_largest_side_two_is_the_doubled_edge(sides):
    spec = TorusSpec(sides)
    value = log_det_star(spec)
    bound = _cover_bound(spec, value)
    k = sum(1 for l in sides if l == 2)
    hypercube = math.fsum(math.comb(k, j) * math.log(4 * j) for j in range(1, k + 1))
    assert abs(value - hypercube) <= bound + k * 2**k * _EPS
    mu, w = graphs._half_spectrum(TorusSpec(sorted(sides)[:-1]))
    doubled = math.fsum(np.append(w[1:] * np.log(mu[1:] * (mu[1:] + 4.0)), 2 * math.log(2)))
    assert abs(value - doubled) <= bound + k * 2**k * _EPS
    _assert_torus_log_det_star(spec)


@pytest.mark.parametrize("L", [2, 3, 10, 65537, 10**6])
def test_torus_cover_of_one_side_is_2_log_L(L):
    # the cycle C_L has L spanning trees on L vertices: det* = V tau = L^2
    for sides in [(L,), (1, L), (L, 1, 1)]:
        assert log_det_star(TorusSpec(sides)) == 2 * math.log(L)


@pytest.mark.parametrize("sides", [(3, 5), (2, 7, 7), (9, 4, 9, 2), (6, 6, 6)])
def test_torus_cover_ignores_side_order_and_sides_of_one(sides):
    # the base is every side but one largest, in sorted order, and a side 1
    # adds its table's one exact 0.0: every order and every side 1 give the
    # same bits; equal largest sides are checked against the oracle
    expected = log_det_star(TorusSpec(sides))
    for extra in [(), (1,), (1, 1)]:
        for order in set(itertools.permutations(sides + extra)):
            assert log_det_star(TorusSpec(order)) == expected, order
    _assert_torus_log_det_star(TorusSpec(sides))


def test_torus_cover_keeps_the_single_vertex_message():
    for sides in [(1,), (1, 1), (1, 1, 1, 1)]:
        with pytest.raises(GraphSpecError, match="^spectrum has no nonzero eigenvalues$"):
            log_det_star(TorusSpec(sides))


@pytest.mark.parametrize("sides", [(10, 11), (1, 7, 1, 9, 3), (1, 1)])
def test_torus_cover_and_theta_check_the_cap_before_any_table(monkeypatch, sides):
    spec = TorusSpec(sides)
    V = spec.vertex_count
    if V > 1:
        assert log_det_star(spec, cap=V) == log_det_star(spec)
    assert theta_discrete_spectral(spec, 0.5, cap=V).value == theta_discrete_spectral(spec, 0.5).value

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built above the cap")

    from spantor import specfun
    for module, name in [(graphs, "_half_spectrum"), (graphs, "_half_blocks"),
                         (specfun, "_half_blocks"), (specfun, "_sin2_half")]:
        monkeypatch.setattr(module, name, refuse)
    message = f"^torus has {V} eigenvalues, exceeding the cap {V - 1}$"
    with pytest.raises(EnumerationCapError, match=message):
        log_det_star(spec, cap=V - 1)
    with pytest.raises(EnumerationCapError, match=message):
        theta_discrete_spectral(spec, 0.5, cap=V - 1)


@st.composite
def small_tori(draw, limit=2000):
    """Tori of 2..limit vertices, with sides up to ``limit``."""
    sides, room = [], limit
    for _ in range(draw(st.integers(1, 4))):
        sides.append(draw(st.integers(1, room)))
        room //= sides[-1]
    return TorusSpec(sides)


@given(small_tori().filter(lambda spec: spec.vertex_count > 1))
@settings(max_examples=60, deadline=None)
def test_torus_cover_within_its_bound_of_the_mp_oracle(spec):
    value = log_det_star(spec)
    assert abs(mp.mpf(value) - log_det_star_torus_mp(spec.sides, 20)) <= _cover_bound(spec, value)


@pytest.mark.parametrize("sides", [(3, 50, 64), (2, 317, 316), (1, 1000), (6, 6, 6, 6)])
@pytest.mark.parametrize("t", [0.05, 1.0, 20.0])
def test_torus_theta_product_matches_the_bessel_side(sides, t):
    spec = TorusSpec(sides)
    lattice = theta_discrete_bessel(spec, t)
    assert lattice.value == pytest.approx(theta_discrete_spectral(spec, t).value,
                                          rel=1e-14, abs=lattice.tail_bound)


def test_torus_log_det_star_holds_only_its_base():
    # the cover route keeps the base's 127 modes and two side tables; the
    # spectral route's blocks needed the 2.0 MB bound of the test above
    assert _log_det_star_peak(TorusSpec((252, 16000))) <= 0.05e6


# lengths at and around the 64-term shortcut and the 2^15-term block
_EXACT_SUM_LENGTHS = [0, 1, 64, 65, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7]


def _random_floats(seed, size, lo, hi, zero_share):
    """Mixed-sign floats m 2^k with k uniform in lo..hi (subnormal below -1022) and some zeros."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(lo, hi + 1, size))
    x *= rng.choice([-1.0, 1.0], size)
    x[rng.random(size) < zero_share] = 0.0
    return x


def _stream(x):
    """x as a stream of blocks of weight 1, as graphs._weighted_fsum reads it."""
    return [(x[start:start + graphs._BLOCK], 1.0) for start in range(0, x.size, graphs._BLOCK)]


def _exact_fsum(x):
    return graphs._weighted_fsum(lambda: _stream(x), lambda v, out: np.copyto(out, v))


@example(0, 2**15, -1074, 900, 0.1)
@example(1, 3 * 2**15 + 7, -1074, 74, 0.0)  # subnormals only
@example(2, 65, 900, 0, 0.0)
@example(3, 2**15 + 1, -60, 65, 0.5)
@given(st.integers(0, 2**32), st.sampled_from(_EXACT_SUM_LENGTHS),
       st.integers(-1074, 900), st.integers(0, 2000), st.sampled_from([0.0, 0.01, 0.9]))
@settings(max_examples=60, deadline=None)
def test_exact_parts_sum_to_fsum(seed, size, lo, width, zero_share):
    x = _random_floats(seed, size, lo, min(lo + width, 900), zero_share)
    assert _exact_fsum(x).hex() == math.fsum(x.tolist()).hex()


@example(0, 2**15, -1074, 900, 0.1)
@example(1, 3 * 2**15 + 7, -60, 65, 0.0)
@given(st.integers(0, 2**32), st.sampled_from(_EXACT_SUM_LENGTHS),
       st.integers(-1074, 900), st.integers(0, 2000), st.sampled_from([0.0, 0.01, 0.9]))
@settings(max_examples=40, deadline=None)
def test_weighted_fsum_fallback_is_fsum_too(seed, size, lo, width, zero_share):
    # an unbounded error sends every sum to the fallback, one math.fsum over
    # the terms, which evaluates each block a second time
    x = _random_floats(seed, size, lo, min(lo + width, 900), zero_share)
    evaluated = []

    def f(v, out):
        evaluated.append(v.size)
        np.copyto(out, v)

    def unbounded(block, parts):
        parts.extend(block.tolist())
        return math.inf

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_exact_parts", unbounded)
        total = graphs._weighted_fsum(lambda: _stream(x), f)
    assert total.hex() == math.fsum(x.tolist()).hex()
    assert sum(evaluated) == 2 * size


@pytest.mark.parametrize("size", _EXACT_SUM_LENGTHS[2:])
def test_exact_parts_cancellation_and_ties(size):
    # exact cancellation to a tiny total, and halves that round to even
    x = _random_floats(size, size, -30, 30, 0.0)
    x[1::2] = -x[::2][: size // 2]
    x[0] += 2.0 ** -1000
    assert _exact_fsum(x).hex() == math.fsum(x.tolist()).hex()
    ties = np.full(size, 1.0)
    ties[::3] = 2.0 ** -53
    assert _exact_fsum(ties).hex() == math.fsum(ties.tolist()).hex()
    assert _exact_fsum(np.full(size, -0.0)).hex() == math.fsum([-0.0] * size).hex()


def test_exact_parts_passes_non_finite_terms_to_fsum():
    x = np.ones(1000)
    x[500] = math.nan
    assert math.isnan(_exact_fsum(x))
    x[500] = math.inf
    assert _exact_fsum(x) == math.inf
    x[501] = -math.inf
    with pytest.raises(ValueError):
        _exact_fsum(x)
    x = np.full(1000, 2.0 ** 1020)
    with pytest.raises(OverflowError):
        _exact_fsum(x)


def _exact_sum(values) -> Fraction:
    """The exact sum of floats, each n / 2^k with k <= 1074, as a Fraction."""
    ratios = map(float.as_integer_ratio, values)
    return Fraction(sum(n << 1075 - d.bit_length() for n, d in ratios), 2**1074)


def _split(x):
    """(parts, bound, lo, e) of graphs._exact_parts on a copy of x."""
    lo, parts = x.copy(), []
    bound = graphs._exact_parts(lo, parts)
    return parts, bound, lo, math.frexp(x.size * float(np.abs(x).max()))[1]


def _all_half_spacing(seed, size):
    """Odd multiples m 2^-60 of the half spacing 2^(e - 53), so every lo is +-2^(e - 53)."""
    rng = np.random.default_rng(seed)
    high = 2**53 // size  # size max|m| < 2^53, so e = -60 + 53
    m = rng.integers(-high // 2, high // 2, size) * 2 + 1
    m[0] = high - 1 if high % 2 == 0 else high - 2  # max|m| >= 2^52 / size
    return np.ldexp(m.astype(np.float64), -60)


@pytest.mark.parametrize("size", [65, 1000, 4097, 2**15])
@pytest.mark.parametrize("seed", range(3))
def test_exact_parts_bound_holds_against_exact_sums(seed, size):
    # the float sum of lo is within the bound of its exact sum, hi + lo is x
    # exactly, and |lo| <= 2^(e - 53) makes the bound (n - 1) n 2^(e - 106);
    # with every lo at +-2^(e - 53) that is the classic (n - 1) 2^-53 sum|lo|
    blocks = [_random_floats(seed, size, -1074, -900, 0.0),
              _random_floats(seed, size, -40, 40, 0.1),
              _random_floats(seed, size, 0, 2, 0.0),
              _random_floats(seed, size, 900, 1000, 0.0)]
    for x in blocks + [_all_half_spacing(seed, size)]:
        (hi_sum, lo_sum), bound, lo, e = _split(x)
        exact_lo = _exact_sum(lo.tolist())
        assert Fraction(hi_sum) + exact_lo == _exact_sum(x.tolist())
        assert abs(Fraction(lo_sum) - exact_lo) <= Fraction(bound)
        assert float(np.abs(lo).max()) <= math.ldexp(1.0, e - 53)
        assert bound >= (size - 1) * size * Fraction(2) ** (e - 106)
    assert np.all(np.abs(lo) == math.ldexp(1.0, e - 53))
    assert bound >= (size - 1) * Fraction(2) ** -53 * _exact_sum(np.abs(lo).tolist())


def test_exact_parts_keeps_the_exact_path():
    # zeros, all -0.0, NaN and +-inf blocks append their terms or exact sum, with bound 0
    for x in (np.zeros(1000), np.full(1000, -0.0)):
        parts, bound, _, _ = _split(x)
        assert bound == 0.0 and [v.hex() for v in parts] == [math.fsum(x.tolist()).hex()]
    for bad in (math.nan, math.inf, -math.inf):
        for where in (0, 500, 999):
            x = np.linspace(-1.0, 1.0, 1000)
            x[where] = bad
            parts, bound, lo, _ = _split(x)
            assert bound == 0.0
            assert [v.hex() for v in parts] == [v.hex() for v in x.tolist()]
            assert np.array_equal(lo, x, equal_nan=True)


@st.composite
def large_circulant_specs(draw):
    n = draw(st.integers(5 * 10**4, 3 * 10**5))
    extra = draw(st.lists(st.integers(1, n - 1), max_size=3))
    return CirculantSpec(n, (1,) + tuple(sorted(extra)))


# n from 5 10^4 to 3 10^5, beyond the 64-term shortcut and across several
# blocks; g = n/2 and mirrored steps, and tori of about 10^5 vertices with
# sides 1 and 2 in every position
@example(CirculantSpec(100000, (1, 50000)))
@example(CirculantSpec(299999, (1, 7, 299990)))
@example(CirculantSpec(200000, (1, 3, 100000, 199999)))
@example(CirculantSpec(50001, (1, 25000, 25001)))
@example(TorusSpec((1, 2, 50000)))
@example(TorusSpec((2, 50000, 1)))
@example(TorusSpec((49999, 1, 2)))
@example(TorusSpec((2, 2, 25000)))
@example(TorusSpec((316, 317)))
@given(st.one_of(
    large_circulant_specs(),
    st.lists(st.sampled_from([1, 2, 3, 5, 8, 41, 47, 250, 500, 12500]), min_size=2, max_size=4)
    .filter(lambda sides: 5 * 10**4 <= math.prod(sides) <= 3 * 10**5).map(TorusSpec)))
@settings(max_examples=12, deadline=None)
def test_log_det_star_equals_full_folded_sum_large(spec):
    if isinstance(spec, TorusSpec):
        _assert_torus_log_det_star(spec)
    else:
        assert log_det_star(spec) == log_det_star_full(folded_spectrum(spec))


_B = graphs._BLOCK

# the block stream's edges: n/2 (even n) and floor(n/2) (odd n) at k _BLOCK - 1,
# k _BLOCK and k _BLOCK + 1; g = n/2, mirrored and duplicate generators.  The
# tori, whose spectra the block stream once split, now check the cover route
# and the product of side sums: side tables longer than _BLOCK, 3-D tori,
# sides 1 and 2
_STREAM_EDGE_SPECS = [
    *(CirculantSpec(2 * (k * _B + e), (1, 3)) for k in (1, 2) for e in (-1, 0, 1)),
    *(CirculantSpec(2 * (_B + e) + 1, (1, 2)) for e in (-1, 0, 1)),
    CirculantSpec(2 * _B, (1, 7, _B)),
    CirculantSpec(2 * _B + 1, (1, 5, 5, 2 * _B - 4)),
    CirculantSpec(2 * _B + 2, (1, 1, _B + 1)),
    TorusSpec((3, 2 * _B + 5)),
    TorusSpec((2 * _B + 2,)),
    TorusSpec((2, 4 * _B, 1)),
    TorusSpec((7, 5, 30001)),
    TorusSpec((5, 7, 9)),
    TorusSpec((9, 4, 7)),
    TorusSpec((40, 41, 40)),
    TorusSpec((1, 2, 3, 700)),
    TorusSpec((2, 1, 3)),
]


@pytest.mark.parametrize("spec", _STREAM_EDGE_SPECS, ids=str)
def test_block_stream_sums_equal_the_fsum_over_the_spectrum(spec):
    if isinstance(spec, TorusSpec):  # by the cover identity and the product of side sums
        _assert_torus_log_det_star(spec)
        for t in (0.01, 1.5):
            _assert_torus_theta(spec, t)
        return
    full = spectrum(spec)
    assert log_det_star(spec).hex() == math.fsum(np.log(full[full != 0.0])).hex()
    for t in (0.01, 1.5):
        assert theta_discrete_spectral(spec, t).value.hex() == math.fsum(np.exp(-full * t)).hex()


def test_block_stream_keeps_the_spectrum_messages():
    # zero modes of weight 1 and 2, in one block and in two
    for n, gens, zeros in [(8, (2, 4), 2), (12, (3, 6), 3), (6 * _B, (3,), 3)]:
        with pytest.raises(GraphSpecError,
                           match=f"^expected exactly one zero eigenvalue, got {zeros}$"):
            log_det_star(_unvalidated_circulant(n, gens))
    for sides in [(1,), (1, 1)]:
        with pytest.raises(GraphSpecError, match="^spectrum has no nonzero eigenvalues$"):
            log_det_star(TorusSpec(sides))


def _log_det_star_peak(spec) -> int:
    """Peak traced bytes of a second log_det_star(spec), after one warm-up call."""
    log_det_star(spec)
    tracemalloc.start()
    try:
        log_det_star(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec,limit_mb", [
    (CirculantSpec(10**6, (1, 2)), 9.0),
    (TorusSpec((252, 16000)), 2.0),
    (CirculantSpec(10**6, (1, 2, 5, 400000)), 10.0),
])
def test_log_det_star_builds_no_full_spectrum_temporaries(spec, limit_mb):
    # with full-spectrum temporaries the circulant peaks were 12.0 and
    # 17.3 MB, and with the gathered generator 400000's index temporaries
    # n/2 long, 20.5 MB; the torus kept a few blocks' worth when it streamed
    # its spectrum, and keeps far less by the cover route (see below)
    assert _log_det_star_peak(spec) <= limit_mb * 1e6


@pytest.mark.parametrize("spec,limit_mb", [
    (CirculantSpec(10**6, (1, 2)), 5.5),
    (CirculantSpec(10**6, (1, 2, 5, 400000)), 6.0),
])
def test_log_det_star_folds_circulant_blocks_into_one_buffer(spec, limit_mb):
    # the circulant keeps its half table of n/2 + 1 entries (4 MB) and a few
    # block-sized arrays, the gathered generator 400000 a block's index
    # temporaries; with a folded array of n/2 + 1 modes the peak was 8.5 MB
    assert _log_det_star_peak(spec) <= limit_mb * 1e6


def _direct_sin2_half(l):
    """4 sin^2(pi k / l), k = 0..floor(l/2), each sine evaluated directly in the table's order."""
    out = np.arange(l // 2 + 1, dtype=np.float64)
    out /= l
    out *= np.pi
    np.sin(out, out)
    out *= out
    out *= 4.0
    return out


def _hex(values):
    return [x.hex() for x in values.tolist()]


# below l = 2^16 the table has at most 2^15 entries, all direct sines; past it
# the first 2^15 entries still are
@pytest.mark.parametrize("l", [1, 2, 3, 4, 7, 100, 1001, 2**15 - 1, 2**15, 2**15 + 1,
                               54321, 65534, 65535, 65536, 65537, 2**17 + 3, 999178])
def test_sin2_half_head_is_the_direct_evaluation(l):
    table = graphs._sin2_half(l)
    assert table.size == l // 2 + 1
    if l < 2**16:
        assert _hex(table) == _hex(_direct_sin2_half(l))
    else:
        assert _hex(table[:_B]) == _hex(_direct_sin2_half(l)[:_B])


@pytest.mark.parametrize("l", [1, 2, 3, 100, 65535, 65537, 2**17 + 3, 999178, 10**7 - 1])
def test_sin2_half_has_one_exact_zero(l):
    # log_det_star counts a circulant's zero modes by gcd(n, Gamma): only index 0
    # of the table is 0.0, so every other mode, a sum of entries, is positive
    table = graphs._sin2_half(l)
    assert table[0] == 0.0 and math.copysign(1.0, table[0]) == 1.0
    assert np.all(table[1:] > 0.0)


_LONG_DOUBLE_PI = np.longdouble("3.14159265358979323846264338327950288")


@pytest.mark.parametrize("l", [2**16 + 1, 2**17 + 3, 999178, 10**7 - 1])
def test_sin2_half_within_4_eps_of_the_exact_value(l):
    table = graphs._sin2_half(l)
    m = table.size
    rows = range(_B, m, graphs._ROW)
    edges = {k0 + e for k0 in rows for e in (-1, 0, 1) if k0 + e < m} | {m - 2, m - 1}
    sampled = np.random.default_rng(l).integers(1, m, 2000).tolist()
    with mp.workdps(30):
        for k in sorted(edges | set(sampled)):
            exact = 4 * mp.sin(mp.pi * k / l) ** 2
            assert abs(mp.mpf(table[k]) - exact) <= 4 * _EPS * exact, k
    if np.finfo(np.longdouble).nmant >= 63:
        # every angle-added entry against the platform's extended-precision sine:
        # the errors that reach 4 eps without the cos b - 1 split are rare
        k = np.arange(_B, m, dtype=np.longdouble)
        s = np.sin(_LONG_DOUBLE_PI * k / l)
        error = np.abs(table[_B:] - 4 * s * s) / (4 * s * s) / _EPS
        assert error.max() <= 4, (_B + int(error.argmax()), float(error.max()))


def test_sin2_half_has_no_second_half_sized_array():
    # the output of 499,590 doubles (4 MB) and row-sized temporaries (2^14 doubles each)
    graphs._sin2_half(999178)
    tracemalloc.start()
    try:
        table = graphs._sin2_half(999178)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 0.5e6


@st.composite
def spectrum_specs(draw):
    if draw(st.booleans()):
        n = draw(st.integers(3, 300))
        extra = draw(st.lists(st.integers(1, n - 1), max_size=3))
        return CirculantSpec(n, (1,) + tuple(sorted(extra)))
    return TorusSpec(draw(st.lists(st.integers(1, 10), min_size=1, max_size=3)))


# g = n/2, mirrored and duplicated generators; torus sides 1 and 2 in every position;
# generators on both sides of the strided/gather crossover of graphs._add_folded
@example(CirculantSpec(2000, (1, 3, 7, 300, 1000)))
@example(CirculantSpec(100001, (1, 2, 5, 391, 99998)))
@example(CirculantSpec(10, (1, 5)))
@example(CirculantSpec(9, (1, 5, 7)))
@example(CirculantSpec(12, (1, 6, 6, 11)))
@example(CirculantSpec(3, (1, 2)))
@example(TorusSpec((1, 2, 3)))
@example(TorusSpec((2, 3, 1)))
@example(TorusSpec((3, 1, 2)))
@example(TorusSpec((1,)))
@given(spectrum_specs())
@settings(max_examples=100, deadline=None)
def test_spectrum_equals_folded_oracle(spec):
    assert np.array_equal(spectrum(spec), folded_spectrum(spec))


@pytest.mark.parametrize("min_run", [0, 10**12])  # every slice strided, or every one gathered
@pytest.mark.parametrize("n,g", [
    (10, 5), (11, 5), (12, 6), (3, 1), (2000, 3), (2000, 300), (2000, 1999),
    (7, 7), (7, 14), (7, 0), (9, 16), (10, 25), (1000, 3001), (999178, 3),
])
def test_add_folded_equals_the_gather(monkeypatch, min_run, n, g):
    # g >= n, g = 0 (mod n) and g = n/2 reach the helper only directly, as
    # CirculantSpec refuses them
    monkeypatch.setattr(graphs, "_STRIDE_MIN_RUN", min_run)
    half = graphs._sin2_half(n)
    lam = np.linspace(0.0, 1.0, n // 2 + 1)
    expected = lam.copy()
    j = np.arange(n // 2 + 1)
    r = (g * j) % n
    expected += half[np.minimum(r, n - r)]
    graphs._add_folded(lam, half, n, g)
    assert np.array_equal(lam, expected)


def _folded_blocks(n, gens, starts):
    """(whole-range fold, [fold of the modes from start, up to _BLOCK of them, per start])."""
    half = graphs._sin2_half(n)
    whole = np.zeros(n // 2 + 1)
    for g in gens:
        graphs._add_folded(whole, half, n, g)
    blocks = []
    for start in starts:
        buffer = np.zeros(min(_B, whole.size - start))
        for g in gens:
            graphs._add_folded(buffer, half, n, g, start)
        blocks.append(buffer)
    return whole, blocks


# n = 2^18 + e (4 _BLOCKs of modes), so a stride run (n/g modes) meets
# _STRIDE_MIN_RUN = 256 at g = 1024: g on both sides of it, g = n/2 (at even
# n), mirrored (> n/2) and duplicate steps
@pytest.mark.parametrize("n", [2**18, 2**18 + 1, 2**18 + 3])
@pytest.mark.parametrize("gens", [(1,), (1, 3, 3), (1, 1023, 1025), (1, 7, 90000),
                                  (1, 2**17), (1, 5, 2**18 - 9), (1, 1, 300, 2**17 + 1)])
def test_add_folded_from_a_start_equals_the_whole_range_slice(n, gens):
    last = n // 2 + 1 - 100  # a short last block of 100 modes
    starts = [0, 1, *(k * _B + e for k in (1, 2, 3) for e in (-1, 0, 1)), last]
    whole, blocks = _folded_blocks(n, gens, starts)
    for start, block in zip(starts, blocks):
        assert np.array_equal(block, whole[start:start + block.size]), start
    assert blocks[-1].size == 100


@pytest.mark.parametrize("min_run", [0, 10**12])  # every slice strided, or every one gathered
def test_add_folded_from_a_start_in_either_branch(monkeypatch, min_run):
    monkeypatch.setattr(graphs, "_STRIDE_MIN_RUN", min_run)
    n, gens = 2**17 + 2, (1, 3, 600, 2**16 + 1, 2**17 - 5)
    starts = [1, _B - 1, _B, _B + 1, n // 2 + 1 - 7]
    whole, blocks = _folded_blocks(n, gens, starts)
    j = np.arange(n // 2 + 1)
    expected = np.zeros(n // 2 + 1)
    for g in gens:
        r = (g * j) % n
        expected += graphs._sin2_half(n)[np.minimum(r, n - r)]
    assert np.array_equal(whole, expected)
    for start, block in zip(starts, blocks):
        assert np.array_equal(block, expected[start:start + block.size]), start


@pytest.mark.parametrize("n", [2**16, 2**16 + 1, 2**16 + 2, 2**16 + 3])
def test_block_fold_sums_equal_the_fsum_over_the_spectrum(n):
    # the weight-2 modes 1..ceil(n/2) - 1 fill one block less one mode, one
    # full block, or one block and a last block of one mode
    spec = CirculantSpec(n, (1, 5, 300, n // 2, n - 2))
    full = spectrum(spec)
    assert log_det_star(spec).hex() == math.fsum(np.log(full[full != 0.0])).hex()
    for t in (0.01, 1.5):
        assert theta_discrete_spectral(spec, t).value.hex() == math.fsum(np.exp(-full * t)).hex()


def test_circulant_blocks_share_one_reused_buffer():
    # past one block, every block of a circulant is a view of one buffer that
    # the next block overwrites, so no consumer may hold a block across the
    # next; log det* and theta finish with each first, and the docstring says so
    spec = CirculantSpec(6 * _B, (1, 3))
    held = [values for values, _ in graphs._half_blocks(spec)]
    copied = [values.copy() for values, _ in graphs._half_blocks(spec)]
    assert [b.size for b in copied] == [1, _B, _B, _B - 1]  # j = n/2 alone first
    assert [w for _, w in graphs._half_blocks(spec)] == [1.0, 2.0, 2.0, 2.0]
    assert all(np.shares_memory(held[0], b) for b in held[1:])
    assert not np.array_equal(held[1], copied[1])
    assert np.array_equal(copied[0], spectrum(spec)[3 * _B:3 * _B + 1])
    assert np.array_equal(np.concatenate(copied[1:]), spectrum(spec)[1:3 * _B])
    assert "buffer, which every later block of the stream overwrites" in \
        " ".join(graphs._half_blocks.__doc__.split())


# n on both sides of one block (2^15 modes, n = 2^16) and past three blocks;
# g = n/2 at even n, a mirrored step g > n/2 and a duplicate generator
@pytest.mark.parametrize("n", [2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1, 6 * _B + 7])
def test_half_blocks_stream_the_whole_half_range(n):
    spec = CirculantSpec(n, tuple(sorted([1, 7, 7, n - 300] + [n // 2] * (1 - n % 2))))
    values, weights = [], []
    for block, weight in graphs._half_blocks(spec):
        values.append(block.copy())  # the buffer is reused past one block
        weights.append(np.full(block.size, weight))
    lam, w = graphs._half_spectrum(spec)
    order = np.r_[n // 2:n // 2 + 1 - n % 2, 1:n - n // 2]  # j = n/2 (even n) first, then 1..
    assert np.concatenate(values).tobytes() == lam[order].tobytes()
    assert np.concatenate(weights).tobytes() == w[order].tobytes()


def test_disconnected_circulant_raises_before_any_table(monkeypatch):
    # gcd(n, Gamma) counts the zero modes, so no table is built to find them;
    # above the cap the cap error comes first
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built for a disconnected circulant")

    for name in ["_sin2_half", "_half_spectrum", "_half_blocks"]:
        monkeypatch.setattr(graphs, name, refuse)
    for n, gens, zeros in [(8, (2, 4), 2), (12, (3, 6), 3), (6 * _B, (3,), 3),
                           (10**6, (2, 6, 10), 2), (9, (3, 6, 6), 3)]:
        spec = _unvalidated_circulant(n, gens)
        with pytest.raises(GraphSpecError,
                           match=f"^expected exactly one zero eigenvalue, got {zeros}$"):
            log_det_star(spec)
        with pytest.raises(EnumerationCapError,
                           match=f"^circulant has {n} eigenvalues, exceeding the cap {n - 1}$"):
            log_det_star(spec, cap=n - 1)


@example(CirculantSpec(12, (1, 6, 6, 11)), 0.5)
@example(TorusSpec((2, 1, 3)), 3.0)
@example(CirculantSpec(100001, (1, 3, 50000)), 0.5)  # beyond the 64-term shortcut
@example(TorusSpec((2, 317, 316)), 30.0)
@given(spectrum_specs(), st.sampled_from([0.01, 0.5, 3.0]) | st.floats(1e-3, 10.0))
@settings(max_examples=100, deadline=None)
def test_theta_spectral_equals_full_folded_sum(spec, t):
    if isinstance(spec, TorusSpec):  # the product of the sides' sums
        _assert_torus_theta(spec, t)
    else:
        assert theta_discrete_spectral(spec, t).value == math.fsum(np.exp(-folded_spectrum(spec) * t))
    assert theta_discrete_spectral(spec, t).terms == sum(l // 2 + 1 for l in spec.sides)


# ---------------------------------------------------------------------------
# lattice form
# ---------------------------------------------------------------------------


def test_lattice_examples():
    m = circulant_lattice(CirculantSpec(7, (1, 2)))
    assert m == ((7, -2), (0, 1))
    assert integer_determinant(m) == 7
    assert circulant_lattice(CirculantSpec(5, (1,))) == ((5,),)
    m13 = circulant_lattice(CirculantSpec(13, (1, 3)))
    assert m13 == ((13, -3), (0, 1))
    assert integer_determinant(m13) == 13


@pytest.mark.parametrize("n,gens", [(13, (1, 3)), (7, (1, 2)), (50, (1, 7)),
                                    (24, (1, 2, 9)), (31, (1, 5, 6))])
def test_lattice_quotient_isomorphism(n, gens):
    spec = CirculantSpec(n, gens)
    quotient = quotient_graph_spectrum(circulant_lattice(spec))
    assert np.allclose(np.sort(spectrum(spec)), quotient, atol=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(GraphSpecError):
        CirculantSpec(7, (2, 3))        # first generator must be 1
    with pytest.raises(GraphSpecError):
        CirculantSpec(7, (1, 9))        # out of range
    with pytest.raises(GraphSpecError):
        CirculantSpec(7, (1, 3, 2))     # unsorted
    with pytest.raises(GraphSpecError):
        CirculantSpec(7, ())
    with pytest.raises(GraphSpecError):
        CirculantSpec(2, (1,))
    with pytest.raises(GraphSpecError):
        TorusSpec((0, 3))


def test_mirror_generator_semantics():
    # C_3^{1,2} is the doubled triangle: gamma=2 acts as the mirror of step 1
    spec = CirculantSpec(3, (1, 2))
    assert spanning_tree_count_exact(spec) == 12
    assert np.allclose(np.sort(spectrum(spec)),
                       dense_spectrum(spec), atol=1e-12)


def test_c_gamma():
    assert CirculantSpec(7, (1, 2)).c_gamma == 5
    assert CirculantSpec(13, (1, 3)).c_gamma == 10
    assert CirculantSpec(11, (1,)).c_gamma == 1


def test_duplicate_generator_multiset():
    # generators may repeat: C_7^{1,2,2} is 6-regular with doubled 2-steps
    spec = CirculantSpec(7, (1, 2, 2))
    assert spec.degree == 6
    assert spec.c_gamma == 9
    assert math.fsum(spectrum(spec)) == pytest.approx(42.0, abs=1e-12)
    assert np.allclose(np.sort(spectrum(spec)),
                       dense_spectrum(spec), atol=1e-12)
    assert spanning_tree_count_exact(spec) == brute_force_tree_count(spec)
