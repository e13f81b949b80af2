import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spantor import graphs
from spantor.graphs import (
    CirculantSpec,
    TorusSpec,
    Spectrum,
    GraphSpecError,
    EnumerationCapError,
    circulant_spectrum,
    torus_spectrum,
    spanning_tree_count_exact,
    log_det_star,
    circulant_to_lattice,
)

from oracles import (
    brute_force_tree_count,
    dense_spectrum,
    dense_tree_count,
    fibonacci,
    laplacian_matrix,
    quotient_graph_spectrum,
)


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------


def test_cycle_spectrum():
    s = circulant_spectrum(CirculantSpec(4, (1,)))
    assert np.allclose(s.values, [0.0, 2.0, 4.0, 2.0], atol=1e-15)
    assert s.values[0] == 0.0
    assert s.zero_multiplicity == 1


def test_c4_12_spectrum_vs_dense_solver():
    spec = CirculantSpec(4, (1, 2))
    s = circulant_spectrum(spec)
    assert np.allclose(s.values, [0.0, 6.0, 4.0, 6.0], atol=1e-12)
    assert np.allclose(np.sort(s.values), dense_spectrum(spec), atol=1e-12)


def test_trace_identity_c7():
    s = circulant_spectrum(CirculantSpec(7, (1, 2)))
    assert len(s) == 7
    assert math.fsum(s.values) == pytest.approx(28.0, abs=1e-12)


@pytest.mark.parametrize("n,gens", [(11, (1,)), (15, (1, 4)), (24, (1, 2, 7)), (9, (1, 3))])
def test_trace_identity_random(n, gens):
    spec = CirculantSpec(n, gens)
    assert math.fsum(circulant_spectrum(spec).values) == pytest.approx(
        2.0 * spec.d * n, rel=1e-14)


@pytest.mark.parametrize("spec", [CirculantSpec(17, (1, 2, 8)), CirculantSpec(8, (1, 4)),
                                  TorusSpec((2, 5, 7))])
def test_eigenvalues_within_regular_range(spec):
    values = (circulant_spectrum(spec) if isinstance(spec, CirculantSpec)
              else torus_spectrum(spec)).values
    assert float(values.min()) >= 0.0
    assert float(values.max()) <= 2.0 * spec.degree + 1e-12


def test_torus_spectrum_examples():
    assert sorted(torus_spectrum(TorusSpec((2, 2))).values) == pytest.approx([0, 4, 4, 8])
    assert sorted(torus_spectrum(TorusSpec((3,))).values) == pytest.approx([0, 3, 3])
    # a side of length 1 contributes nothing
    s = torus_spectrum(TorusSpec((1, 4)))
    assert sorted(s.values) == pytest.approx([0.0, 2.0, 2.0, 4.0])
    assert np.allclose(sorted(s.values), sorted(circulant_spectrum(CirculantSpec(4, (1,))).values))


@pytest.mark.parametrize("sides", [(2, 3), (4, 5), (2, 2, 3), (6,)])
def test_torus_spectrum_vs_dense_solver(sides):
    spec = TorusSpec(sides)
    assert np.allclose(np.sort(torus_spectrum(spec).values), dense_spectrum(spec), atol=1e-12)
    assert math.fsum(torus_spectrum(spec).values) == pytest.approx(
        2.0 * spec.d * spec.vertex_count, rel=1e-13)


def test_torus_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        torus_spectrum(TorusSpec((1000, 1000)), cap=10**5)


# ---------------------------------------------------------------------------
# exact tree counts
# ---------------------------------------------------------------------------


def test_count_examples():
    assert spanning_tree_count_exact(CirculantSpec(4, (1,))).value == 4
    assert spanning_tree_count_exact(CirculantSpec(7, (1, 2))).value == 1183
    assert spanning_tree_count_exact(CirculantSpec(7, (1, 2))).value == 7 * fibonacci(7) ** 2
    assert spanning_tree_count_exact(CirculantSpec(4, (1, 2))).value == 36


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
    assert spanning_tree_count_exact(spec).value == brute_force_tree_count(spec)


def test_fibonacci_law():
    for n in range(3, 41):
        assert spanning_tree_count_exact(CirculantSpec(n, (1, 2))).value \
            == n * fibonacci(n) ** 2


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_fibonacci_law_large(n):
    assert spanning_tree_count_exact(CirculantSpec(n, (1, 2)), cap=n).value \
        == n * fibonacci(n) ** 2


@pytest.mark.parametrize("spec", [
    CirculantSpec(60, (1, 2)),
    CirculantSpec(101, (1, 3)),
    TorusSpec((7, 9)),
    TorusSpec((2, 3, 5)),
    CirculantSpec(10**4, (1, 3)),
    TorusSpec((7, 50)),
])
def test_matrix_tree_consistency(spec):
    if isinstance(spec, CirculantSpec):
        sp = circulant_spectrum(spec)
    else:
        sp = torus_spectrum(spec)
    tau = spanning_tree_count_exact(spec, cap=spec.vertex_count).value
    ratio = math.exp(log_det_star(sp) - math.log(tau)) / spec.vertex_count
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_duplicate_largest_generator():
    # the deflated symbol polynomial has leading coefficient -2 or -3: not monic
    for gens in [(1, 2, 2), (1, 3, 3), (1, 2, 2, 2), (1, 1, 3, 3)]:
        for n in range(max(gens) + 1, 26):
            spec = CirculantSpec(n, gens)
            assert spanning_tree_count_exact(spec).value == dense_tree_count(spec), (n, gens)


def test_doubled_cycle():
    # Gamma = (1, 1): the deflated symbol polynomial is the constant -2 (degree 0)
    for n in list(range(3, 20)) + [1000]:
        assert spanning_tree_count_exact(CirculantSpec(n, (1, 1))).value == n * 2 ** (n - 1)
    for n in range(3, 12):
        assert dense_tree_count(CirculantSpec(n, (1, 1))) == n * 2 ** (n - 1)


def test_half_turn_generator():
    # g = n/2 reaches the opposite vertex from both sides: a doubled edge
    for n in range(4, 31, 2):
        for gens in [(1, n // 2), (1, 2, n // 2)]:
            spec = CirculantSpec(n, gens)
            assert spanning_tree_count_exact(spec).value == dense_tree_count(spec), (n, gens)


def test_mirrored_generators():
    for n in range(5, 25):
        for g in range(n // 2 + 1, n):
            spec = CirculantSpec(n, (1, g))
            tau = spanning_tree_count_exact(spec).value
            assert tau == dense_tree_count(spec), (n, g)
            assert tau == spanning_tree_count_exact(CirculantSpec(n, (1, n - g))).value


def _unvalidated_circulant(n, gens):
    """A CirculantSpec that skips validation, which rejects generator sets without 1."""
    spec = object.__new__(CirculantSpec)
    object.__setattr__(spec, "n", n)
    object.__setattr__(spec, "generators", tuple(gens))
    return spec


def test_disconnected_circulant_raises_before_algebra(monkeypatch):
    def no_algebra(*args):
        raise AssertionError("algebra ran on a disconnected graph")

    monkeypatch.setattr(graphs, "_symbol_poly", no_algebra)
    monkeypatch.setattr(graphs, "_circulant_tree_count", no_algebra)
    for n, gens in [(6, (2, 4)), (9, (3,)), (10**6, (2, 6, 10))]:
        with pytest.raises(GraphSpecError, match="disconnected"):
            spanning_tree_count_exact(_unvalidated_circulant(n, gens), cap=n)


def test_torus_sides_one_and_two_in_any_order():
    for sides in [(1, 2, 3), (2, 2, 2), (1, 1, 5), (2, 1, 7), (3, 13, 3), (2, 9), (1, 6, 2)]:
        counts = {spanning_tree_count_exact(TorusSpec(order)).value
                  for order in set(itertools.permutations(sides))}
        assert counts == {dense_tree_count(TorusSpec(sides))}, sides


def test_single_vertex_torus():
    for sides in [(1,), (1, 1), (1, 1, 1)]:
        assert spanning_tree_count_exact(TorusSpec(sides)).value == 1


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
    assert spanning_tree_count_exact(spec).value == dense_tree_count(spec)


@settings(max_examples=40, deadline=None)
@given(_tori())
def test_torus_count_matches_dense_oracle(spec):
    assert spanning_tree_count_exact(spec).value == dense_tree_count(spec)


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
    assert log_det_star(circulant_spectrum(CirculantSpec(4, (1,)))) \
        == pytest.approx(math.log(16.0), rel=1e-14)
    assert log_det_star(circulant_spectrum(CirculantSpec(7, (1, 2)))) \
        == pytest.approx(math.log(7 * 1183), rel=1e-12)


def test_log_det_star_degenerate_inputs():
    with pytest.raises(GraphSpecError):
        log_det_star(Spectrum.from_values(np.array([0.0])))
    with pytest.raises(GraphSpecError):
        log_det_star(Spectrum.from_values(np.array([0.0, 0.0, 3.0])))
    with pytest.raises(GraphSpecError):
        log_det_star(Spectrum.from_values(np.array([0.0, -1.0, 3.0])))


# ---------------------------------------------------------------------------
# lattice form
# ---------------------------------------------------------------------------


def test_lattice_examples():
    m = circulant_to_lattice(CirculantSpec(7, (1, 2)))
    assert m.entries == ((7, -2), (0, 1))
    assert m.determinant() == 7
    assert circulant_to_lattice(CirculantSpec(5, (1,))).entries == ((5,),)
    m13 = circulant_to_lattice(CirculantSpec(13, (1, 3)))
    assert m13.entries == ((13, -3), (0, 1))
    assert m13.determinant() == 13


@pytest.mark.parametrize("n,gens", [(13, (1, 3)), (7, (1, 2)), (50, (1, 7)),
                                    (24, (1, 2, 9)), (31, (1, 5, 6))])
def test_lattice_quotient_isomorphism(n, gens):
    spec = CirculantSpec(n, gens)
    quotient = quotient_graph_spectrum(circulant_to_lattice(spec).entries)
    assert np.allclose(np.sort(circulant_spectrum(spec).values), quotient, atol=1e-12)


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
    assert spanning_tree_count_exact(spec).value == 12
    assert np.allclose(np.sort(circulant_spectrum(spec).values),
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
    assert math.fsum(circulant_spectrum(spec).values) == pytest.approx(42.0, abs=1e-12)
    assert np.allclose(np.sort(circulant_spectrum(spec).values),
                       dense_spectrum(spec), atol=1e-12)
    assert spanning_tree_count_exact(spec).value == brute_force_tree_count(spec)
