import math
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc

from spantor.graphs import CirculantSpec, EnumerationCapError, TorusSpec
from spantor.specfun import (
    SpecfunError,
    bessel_i_scaled,
    bessel_i_scaled_orders,
    bessel_tail_envelope,
    theta_discrete_spectral,
    theta_discrete_bessel,
    dedekind_eta,
    riemann_zeta_real,
    catalan_constant,
)
from spantor.specfun import _eta_with_bound, _quad_orders

from oracles import (
    bessel_multi_scaled,
    theta_circle,
    theta_real_torus,
    theta_real_torus_minus_leading,
)


# ---------------------------------------------------------------------------
# scaled Bessel
# ---------------------------------------------------------------------------


def test_bessel_examples():
    assert bessel_i_scaled(0, 0.0) == 1.0
    assert bessel_i_scaled(0, 2.0) == pytest.approx(0.3085083, abs=1e-7)
    assert bessel_i_scaled(5, 2.0) == bessel_i_scaled(-5, 2.0)


def test_bessel_series_value_vs_mpmath():
    with mp.workdps(40):
        expected = float(mp.besseli(0, 2) * mp.exp(-2))
    assert bessel_i_scaled(0, 2.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("t", [0.3, 2.0, 10.0, 29.9, 30.0, 45.0, 100.0, 880.0,
                               1234.5, 1e5, 1e8])
def test_bessel_accuracy_vs_scipy(t):
    scale = sc.ive(0, t)
    for m in (0, 1, 2, 3, 7, 15, 40, 100, 300):
        mine = bessel_i_scaled(m, t)
        ref = sc.ive(m, t)
        if ref >= 1e-8 * scale:
            assert mine == pytest.approx(ref, rel=1e-12), (m, t)
        else:
            assert mine == pytest.approx(ref, abs=1e-15 * scale), (m, t)


@pytest.mark.parametrize("t", [1e10, 1e14, 1e20])
def test_bessel_huge_argument_vs_mpmath(t):
    with mp.workdps(40):
        expected = float(mp.besseli(3, t) * mp.exp(mp.mpf(-t)))
    assert bessel_i_scaled(3, t) == pytest.approx(expected, rel=1e-12)


# nodes on every branch of the kernel: the series below 30, Hankel's
# expansion, and the window trapezoid where Hankel's terms stay too large
# (orders 5 to 8 just above 30)
_KERNEL_T = sorted({0.0, 1e-300, 1e-12, 29.9, 30.0, 30.1, 1e12,
                    *np.logspace(-8.0, 12.0, 81).tolist(), *np.linspace(25.0, 40.0, 31).tolist()})


@pytest.mark.parametrize("m", range(9))
def test_bessel_kernel_within_8_ulps_of_mpmath(m):
    values = bessel_i_scaled(m, np.array(_KERNEL_T))
    with mp.workdps(40):
        for t, value in zip(_KERNEL_T, values):
            ref = mp.besseli(m, t) * mp.exp(-mp.mpf(t))
            if ref < sys.float_info.min:
                assert abs(value - ref) <= 8 * 2.0 ** -1074, (m, t)  # subnormal or 0
            else:
                assert abs(value - ref) <= 8 * 2.0 ** -52 * ref, (m, t)


def test_bessel_array_call_has_the_scalar_bits():
    t = np.array(_KERNEL_T + [45.0, 100.0, 880.0, 1234.5, 1e5, 1e20])
    for m in (0, 1, 5, 8, 40, 300):
        assert np.array_equal(bessel_i_scaled(m, t), [bessel_i_scaled(m, float(x)) for x in t])
    assert bessel_i_scaled(0, np.array([[1.0, 40.0]])).shape == (1, 2)
    assert isinstance(bessel_i_scaled(0, 2.0), float)
    with pytest.raises(SpecfunError):
        bessel_i_scaled(0, np.array([1.0, -1.0]))


def test_theta_array_calls_have_the_scalar_bits():
    t = np.array([0.01, 0.3, 0.99, 1.0, 1.7, 4.0, 25.0])
    for sides in ((1.0,), (2.0,), (1.0, 2.0), (1.0, 1.0, 3.0)):
        assert np.array_equal(theta_real_torus(sides, t),
                              [theta_real_torus(sides, float(x)) for x in t])
        assert np.array_equal(theta_real_torus_minus_leading(sides, t),
                              [theta_real_torus_minus_leading(sides, float(x)) for x in t])
    assert np.array_equal(theta_circle(t), [theta_circle(float(x)) for x in t])
    with pytest.raises(ValueError):
        theta_circle(np.array([1.0, 0.0]))


def test_bessel_orders_vector_matches_scalar():
    for t in (0.7, 12.0, 64.0):
        vec = bessel_i_scaled_orders(t, 25)
        for m in (0, 1, 7, 25):
            assert vec[m] == pytest.approx(bessel_i_scaled(m, t), rel=1e-12, abs=1e-300)
    assert bessel_i_scaled_orders(0.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("z", [1e-8, 1e-3, 0.5, 10.0, 29.9])
def test_bessel_orders_vector_within_4_ulps_of_mpmath(z):
    # the log-form prefactor was 64.6 ulps off at z = 1e-8, order 8
    values = bessel_i_scaled_orders(z, 8)
    with mp.workdps(40):
        for m, value in enumerate(values):
            ref = mp.besseli(m, z) * mp.exp(-mp.mpf(z))
            assert abs(value - ref) <= 4 * 2.0 ** -52 * ref, (m, z)


def test_bessel_rejects_negative_argument():
    with pytest.raises(SpecfunError):
        bessel_i_scaled(0, -1.0)


def test_bessel_monotone_in_order():
    for t in (0.5, 3.0, 12.0, 60.0, 300.0):
        seq = [bessel_i_scaled(m, t) for m in range(40)]
        assert all(a > b for a, b in zip(seq, seq[1:])), t


def test_envelope_is_an_upper_bound():
    for z in (0.1, 1.0, 5.0, 30.0, 200.0):
        for m in range(60):
            assert sc.ive(m, z) <= bessel_tail_envelope(m, z) * (1 + 1e-9)


def test_probability_identity_with_certified_cutoff():
    # e^{-z} sum_k I_k(z) = 1; the envelope certifies the truncation
    from spantor.specfun import _bessel_tail_sum
    for z in (0.5, 4.0, 25.0, 300.0):
        K = 4
        while 2.0 * _bessel_tail_sum(K + 1, 1, z) > 1e-13:
            K += 4
        vals = bessel_i_scaled_orders(z, K)
        total = vals[0] + 2.0 * math.fsum(vals[1:])
        assert total == pytest.approx(1.0, abs=1e-12), z


# ---------------------------------------------------------------------------
# d-dimensional Bessel
# ---------------------------------------------------------------------------


def test_multi_bessel_at_zero():
    assert bessel_multi_scaled((1,), 0, 0.0) == 1.0
    assert bessel_multi_scaled((1,), 3, 0.0) == 0.0


def test_multi_bessel_d1_reduction():
    assert bessel_multi_scaled((1,), 0, 2.0) == pytest.approx(
        bessel_i_scaled(0, 2.0), rel=1e-13)
    assert bessel_multi_scaled((1,), 4, 17.0) == pytest.approx(
        bessel_i_scaled(4, 17.0), rel=1e-12)


def test_multi_bessel_sum_representation():
    # I_0^{1,2}(u,u) = sum_k I_{-2k}(u) I_k(u); truncation |k| <= 20 at u = 2
    u = 2.0
    direct = bessel_multi_scaled((1, 2), 0, u)
    total = math.fsum(sc.ive(2 * k, u) * sc.ive(k, u) for k in range(-20, 21))
    assert direct == pytest.approx(total, abs=1e-10)


def test_multi_bessel_order_symmetry():
    assert bessel_multi_scaled((1, 3), 7, 4.0) == bessel_multi_scaled((1, 3), -7, 4.0)


def test_multi_bessel_sum_representation_13():
    # I_m^{1,3}(u,u) = sum_k I_{m-3k}(u) I_k(u)
    u = 3.0
    for m in (0, 2):
        direct = bessel_multi_scaled((1, 3), m, u)
        total = math.fsum(sc.ive(m - 3 * k, u) * sc.ive(k, u) for k in range(-25, 26))
        assert direct == pytest.approx(total, abs=1e-12)


def test_multi_bessel_matches_periodic_quadrature():
    from oracles import integrate_periodic
    u, gens = 1.5, (1, 2)
    res = integrate_periodic(
        lambda w: math.exp(u * (math.cos(w) + math.cos(2 * w) - 2.0)) * math.cos(3.0 * w))
    assert bessel_multi_scaled(gens, 3, u) == pytest.approx(res.value, abs=1e-12)


def test_multi_bessel_gaussian_limit():
    # n e^{-2dn^2 t} I_0^Gamma -> (4 pi c_Gamma t)^{-1/2} as n grows
    n, t, gens = 300, 1.0, (1, 2)
    c_gamma = 5.0
    val = n * bessel_multi_scaled(gens, 0, 2.0 * n * n * t)
    assert val == pytest.approx(1.0 / math.sqrt(4 * math.pi * c_gamma * t), rel=1e-4)


def test_multi_bessel_validation():
    with pytest.raises(ValueError):
        bessel_multi_scaled((1, 2), 0, -0.5)
    with pytest.raises(ValueError):
        bessel_multi_scaled((), 0, 1.0)


# ---------------------------------------------------------------------------
# asymptotic limits
# ---------------------------------------------------------------------------


def test_large_order_gaussian_limit():
    # b e^{-2n^2 t} I_{bk}(2n^2 t) -> (4 pi t)^{-1/2} e^{-k^2/(4t)} with b = n
    n, t = 200, 1.0
    z = 2.0 * n * n * t
    for k in (0, 1, 2):
        lhs = n * bessel_i_scaled(n * k, z)
        rhs = math.exp(-k * k / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        assert lhs == pytest.approx(rhs, rel=1e-2)


def test_sublinear_normalization_limit():
    # a_n sum_k e^{-2n^2 t} I_{a_n k}(2 n^2 t) -> 1 with a_n = floor(sqrt(n))
    n, t = 10**4, 1.0
    a = int(math.isqrt(n))
    z = 2.0 * n * n * t
    kmax = int(math.sqrt(2.0 * z * 45.0) / a) + 2
    vals = _quad_orders(z, np.arange(kmax + 1, dtype=float) * a)
    total = a * (vals[0] + 2.0 * math.fsum(vals[1:]))
    assert total == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# discrete theta functions
# ---------------------------------------------------------------------------


def test_theta_spectral_triangle():
    tv = theta_discrete_spectral(CirculantSpec(3, (1,)), 1.0)
    assert tv.value == pytest.approx(1.0 + 2.0 * math.exp(-3.0), rel=1e-14)


@pytest.mark.parametrize("spec,cap", [
    (CirculantSpec(10**11, (1,)), None), (CirculantSpec(10**7 + 1, (1, 2)), None),
    (CirculantSpec(1001, (1, 2)), 1000), (TorusSpec((3163, 3163)), None),
    (TorusSpec((10, 101)), 1000),
])
def test_theta_spectral_caps_both_families(spec, cap):
    kwargs = {} if cap is None else {"cap": cap}
    limit = 10**7 if cap is None else cap
    with pytest.raises(EnumerationCapError, match=f"exceeding the cap {limit}$"):
        theta_discrete_spectral(spec, 0.5, **kwargs)
    if cap is not None:
        sides = (spec.n,) if isinstance(spec, CirculantSpec) else spec.sides
        assert theta_discrete_spectral(spec, 0.5, cap=spec.vertex_count).terms \
            == sum(l // 2 + 1 for l in sides)


def test_theta_spectral_monotone_to_one():
    spec = TorusSpec((4, 5))
    values = [theta_discrete_spectral(spec, t).value for t in (0.1, 0.5, 1.0, 3.0, 30.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-6)
    assert all(v >= 1.0 for v in values)


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_theta_inversion_on_z_mod_m(m, t):
    spec = TorusSpec((m,))
    spectral = theta_discrete_spectral(spec, t).value
    lattice = theta_discrete_bessel(spec, t).value
    assert lattice == pytest.approx(spectral, abs=1e-10)


@pytest.mark.parametrize("spec", [
    CirculantSpec(7, (1, 2)),
    CirculantSpec(12, (1, 2, 5)),
    CirculantSpec(30, (1, 4)),
    CirculantSpec(3, (1, 2)),     # mirror generator
    CirculantSpec(7, (1, 5)),     # mirror generator (5 = -2 mod 7)
    TorusSpec((2, 3, 4)),
    TorusSpec((1, 8)),
    TorusSpec((14, 14)),
])
@pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 5.0])
def test_theta_inversion_mixed_specs(spec, t):
    spectral = theta_discrete_spectral(spec, t).value
    lattice = theta_discrete_bessel(spec, t)
    assert lattice.value == pytest.approx(spectral, abs=1e-9)
    assert lattice.tail_bound <= 1e-12


def test_theta_c7_example():
    spec = CirculantSpec(7, (1, 2))
    a = theta_discrete_spectral(spec, 0.1).value
    b = theta_discrete_bessel(spec, 0.1).value
    assert abs(a - b) < 1e-10


def test_poisson_translated_identity():
    # sum_k I_{x+km}(z) = (1/m) sum_j e^{cos(2 pi j/m) z} e^{2 pi i j x/m}; m=5, x=2, z=3
    m_mod, x, z = 5, 2, 3.0
    lhs = math.fsum(sc.ive(x + k * m_mod, z) for k in range(-40, 41))
    rhs = 0.0
    for j in range(m_mod):
        rhs += math.exp((math.cos(2 * math.pi * j / m_mod) - 1.0) * z) \
            * math.cos(2 * math.pi * j * x / m_mod)
    rhs /= m_mod
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_theta_bessel_explicit_sufficient_truncation():
    # the automatic cutoff of the circulant Bessel side meets the spectral side
    circ = CirculantSpec(9, (1, 4))
    lattice = theta_discrete_bessel(circ, 0.8).value
    spectral = theta_discrete_spectral(circ, 0.8).value
    assert lattice == pytest.approx(spectral, abs=1e-10)


def test_theta_bessel_cutoff_search_stops_at_100000():
    # orders up to about sqrt(2 z) ln(1/tol) are needed: far beyond 100000 at t = 1e12
    with pytest.raises(SpecfunError, match="no certified cutoff"):
        theta_discrete_bessel(TorusSpec((5,)), 1e12)


def test_theta_bessel_heat_kernel_regime():
    # value * (4 pi t)^{d/2} / det -> 1 in the scaled window 1 << t << min(side)^2
    spec = TorusSpec((40, 60))
    ratios = []
    for t in (4.0, 9.0, 16.0):
        tv = theta_discrete_bessel(spec, t)
        ratios.append(tv.value * (4.0 * math.pi * t) / spec.vertex_count)
    assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# circle / real-torus theta
# ---------------------------------------------------------------------------


def test_theta_circle_limits():
    assert theta_circle(50.0) == pytest.approx(1.0, rel=1e-15)
    t = 1e-4
    assert theta_circle(t) * math.sqrt(4.0 * math.pi * t) == pytest.approx(1.0, rel=1e-14)


def test_theta_circle_self_dual_point():
    t = 1.0 / (4.0 * math.pi)
    eigen_form = math.fsum(math.exp(-4.0 * math.pi ** 2 * k * k * t) for k in range(-60, 61))
    gauss_form = math.fsum(math.exp(-k * k / (4.0 * t)) for k in range(-60, 61)) \
        / math.sqrt(4.0 * math.pi * t)
    assert eigen_form == pytest.approx(gauss_form, rel=1e-15)
    assert theta_circle(t) == pytest.approx(eigen_form, rel=1e-12)


def test_theta_circle_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta_circle(0.0)


def test_theta_real_torus_factorization():
    assert theta_real_torus((1.0,), 0.7) == theta_circle(0.7)
    beta = 2.5
    assert theta_real_torus((beta,), 0.7) == pytest.approx(theta_circle(0.7 / beta ** 2),
                                                           rel=1e-15)
    direct = math.fsum(math.exp(-4.0 * math.pi ** 2 * k * k * 0.7 / beta ** 2)
                       for k in range(-40, 41))
    assert theta_real_torus((beta,), 0.7) == pytest.approx(direct, rel=1e-13)
    assert theta_real_torus((2.0, 3.0), 0.9) == pytest.approx(
        theta_circle(0.9 / 4.0) * theta_circle(0.9 / 9.0), rel=1e-14)


def test_theta_minus_leading_stability():
    sides = (1.0, 2.0)
    for t in (1e-4, 0.01, 0.2, 0.9, 2.0):
        stable = theta_real_torus_minus_leading(sides, t)
        direct = theta_real_torus(sides, t) - 2.0 * (4.0 * math.pi * t) ** -1.0
        if t >= 0.2:
            assert stable == pytest.approx(direct, rel=1e-10)
        assert stable >= 0.0


# ---------------------------------------------------------------------------
# eta, zeta, Catalan
# ---------------------------------------------------------------------------


def test_eta_special_value():
    assert dedekind_eta(1.0) == pytest.approx(
        math.gamma(0.25) / (2.0 * math.pi ** 0.75), abs=1e-14)
    assert dedekind_eta(1.0) == pytest.approx(0.7682254, abs=1e-7)


def test_eta_large_argument():
    y = 30.0
    assert dedekind_eta(y) == pytest.approx(math.exp(-math.pi * y / 12.0), rel=1e-12)


def test_eta_modularity():
    # eta(i/2) = eta(2i) sqrt(2)
    assert dedekind_eta(0.5) == pytest.approx(dedekind_eta(2.0) * math.sqrt(2.0), rel=1e-12)


def test_eta_bound_covers_mpmath_and_moves_with_y():
    bounds = []
    with mp.workdps(40):
        for y in np.geomspace(0.05, 20.0, 41):
            value, bound = _eta_with_bound(float(y))
            assert value == dedekind_eta(float(y))
            assert abs(value - mp.eta(mp.mpc(0, y)).real) <= bound, y
            bounds.append(bound / value)
    assert len(set(bounds)) > 30
    assert max(bounds) < 1e-13


def test_eta_rejects_nonpositive():
    with pytest.raises(SpecfunError):
        dedekind_eta(0.0)


def test_zeta_values():
    assert riemann_zeta_real(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
    assert riemann_zeta_real(3.0) == pytest.approx(1.2020569031595942854, rel=1e-13)
    assert riemann_zeta_real(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-13)
    with mp.workdps(30):
        assert riemann_zeta_real(1.5) == pytest.approx(float(mp.zeta(1.5)), rel=1e-13)
        assert riemann_zeta_real(7.25) == pytest.approx(float(mp.zeta(7.25)), rel=1e-13)


def test_zeta_rejects_s_at_most_one():
    with pytest.raises(SpecfunError):
        riemann_zeta_real(1.0)
    with pytest.raises(SpecfunError):
        riemann_zeta_real(0.3)


def test_catalan_constant():
    g = catalan_constant()
    assert g == pytest.approx(0.915965594177219015054603514932, rel=1e-14)
    assert 0.9 < g < 0.92
    assert 4.0 * g / math.pi == pytest.approx(1.1662436, abs=1e-7)
