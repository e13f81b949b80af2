import itertools
import math

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
from spantor.specfun import theta_discrete_spectral

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
    quotient_graph_spectrum,
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
    spec = CirculantSpec(beta * g, (1, g))
    assert graphs._cover_tree_count(*graphs._cycle_cover(beta, g)) == dense_tree_count(spec)


def test_cover_and_symbol_routes_agree():
    for n in range(4, 151):
        for g in range(2, n // 2 + 1):
            if n % g == 0:
                spec = CirculantSpec(n, (1, g))
                assert graphs._circulant_tree_count(spec) \
                    == graphs._cover_tree_count(*graphs._cycle_cover(n // g, g)), (n, g)


def test_count_takes_the_smaller_matrix():
    assert graphs._as_cover(CirculantSpec(1000, (1, 200)))[2] == 200   # 5 x 5 cover
    assert graphs._as_cover(CirculantSpec(1000, (1, 800)))[2] == 200   # mirrored step
    assert graphs._as_cover(CirculantSpec(30, (1, 5))) is None         # 6 > 4: symbol
    assert graphs._as_cover(CirculantSpec(30, (1, 7))) is None         # 7 does not divide 30
    assert graphs._as_cover(CirculantSpec(30, (1, 2, 15))) is None     # three generators


def _unvalidated_circulant(n, gens):
    """A CirculantSpec that skips validation, which rejects generator sets without 1."""
    spec = object.__new__(CirculantSpec)
    object.__setattr__(spec, "n", n)
    object.__setattr__(spec, "generators", tuple(gens))
    return spec


def test_disconnected_circulant_raises_before_algebra(monkeypatch):
    def no_algebra(*args):
        raise AssertionError("algebra ran on a disconnected graph")

    monkeypatch.setattr(graphs, "_lucas", no_algebra)
    monkeypatch.setattr(graphs, "_circulant_tree_count", no_algebra)
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


def test_log_det_star_examples():
    assert log_det_star(CirculantSpec(4, (1,))) \
        == pytest.approx(math.log(16.0), rel=1e-14)
    assert log_det_star(CirculantSpec(7, (1, 2))) \
        == pytest.approx(math.log(7 * 1183), rel=1e-12)


def test_log_det_star_degenerate_inputs():
    def weighted(*values):
        values = np.array(values)
        return graphs._weighted_log_sum(values, np.ones_like(values))

    with pytest.raises(GraphSpecError):
        weighted(0.0)
    with pytest.raises(GraphSpecError):
        weighted(0.0, 0.0, 3.0)
    with pytest.raises(GraphSpecError):
        weighted(0.0, -1.0, 3.0)
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
    assert log_det_star(spec) == log_det_star_full(folded_spectrum(spec))


# lengths at and around the 64-term shortcut and the 2^15-term block
_EXACT_SUM_LENGTHS = [0, 1, 64, 65, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7]


def _random_floats(seed, size, lo, hi, zero_share):
    """Mixed-sign floats m 2^k with k uniform in lo..hi (subnormal below -1022) and some zeros."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(lo, hi + 1, size))
    x *= rng.choice([-1.0, 1.0], size)
    x[rng.random(size) < zero_share] = 0.0
    return x


def _exact_fsum(x):
    parts = []
    graphs._exact_parts(x, parts)
    return math.fsum(parts)


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
    assert log_det_star(spec) == log_det_star_full(folded_spectrum(spec))


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


@example(CirculantSpec(12, (1, 6, 6, 11)), 0.5)
@example(TorusSpec((2, 1, 3)), 3.0)
@example(CirculantSpec(100001, (1, 3, 50000)), 0.5)  # beyond the 64-term shortcut
@example(TorusSpec((2, 317, 316)), 30.0)
@given(spectrum_specs(), st.sampled_from([0.01, 0.5, 3.0]) | st.floats(1e-3, 10.0))
@settings(max_examples=100, deadline=None)
def test_theta_spectral_equals_full_folded_sum(spec, t):
    full = math.fsum(np.exp(-folded_spectrum(spec) * t))
    assert theta_discrete_spectral(spec, t).value == full
    assert theta_discrete_spectral(spec, t).terms == spec.vertex_count


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
    with pytest.raises(GraphSpecError):
        TorusSpec((2, 3), split=5)
    assert TorusSpec((2, 3), split=1).split == 1


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
