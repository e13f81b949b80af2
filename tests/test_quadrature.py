import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spantor import quadrature
from spantor.quadrature import QuadratureError, integrate_mellin, integrate_periodic_mean
from spantor.specfun import bessel_i_scaled

from oracles import integrate_log_endpoint, integrate_periodic


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def scaled_i0_with_shift(x):
    """t -> e^{-t} - e^{-xt} I_0(2t) via the scaled Bessel combination, on arrays."""
    def g(t):
        return np.exp(-t) - np.exp(-(x - 2.0) * t) * bessel_i_scaled(0, 2.0 * t)
    return g


# ---------------------------------------------------------------------------
# Mellin integrals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [1.0, 2.0, math.e, 10.0])
def test_frullani_family(x):
    res = integrate_mellin(lambda t: np.exp(-t) - np.exp(-x * t))
    assert res.value == pytest.approx(math.log(x), abs=1e-10)
    assert res.error_estimate <= 1e-10
    assert res.evaluations > 0


def test_zero_integrand():
    res = integrate_mellin(lambda t: np.zeros(t.shape))
    assert res.value == 0.0


def test_arccosh_paper_value():
    # x = 4: integral equals arccosh(2) = log(2 + sqrt 3)
    res = integrate_mellin(scaled_i0_with_shift(4.0))
    assert res.value == pytest.approx(math.log(2.0 + math.sqrt(3.0)), abs=1e-9)
    assert res.value == pytest.approx(1.3169579, abs=1e-7)


def test_slow_tail_x_equals_2():
    # e^{-t} - e^{-2t} I_0(2t) decays like t^{-3/2} dt/t; value is arccosh(1) = 0
    res = integrate_mellin(scaled_i0_with_shift(2.0))
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_error_honesty():
    for g in (lambda t: np.exp(-t) - np.exp(-3.0 * t),
              scaled_i0_with_shift(2.5),
              scaled_i0_with_shift(2.0)):
        a = integrate_mellin(g, tol=1e-7)
        b = integrate_mellin(g, tol=1e-8)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_nonconvergent_tail_detected():
    with pytest.raises(QuadratureError, match="towards t = inf"):
        integrate_mellin(lambda t: t / (1.0 + t))  # -> 1, dt/t tail diverges
    with pytest.raises(QuadratureError, match="towards t = 0"):
        integrate_mellin(lambda t: 1.0 / (1.0 + t))


def test_mellin_calls_g_once_per_grid_and_refuses_non_finite_values():
    sizes = []

    def g(t):
        sizes.append(t.size)
        return np.exp(-t) - np.exp(-2.0 * t)

    res = integrate_mellin(g)
    assert res.evaluations == sum(sizes)
    assert len(sizes) <= 2 + quadrature._MELLIN_HALVINGS
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_mellin(lambda t: np.where(t < 5.0, np.exp(-t), np.nan) - np.exp(-2.0 * t))


def test_unmeetable_tolerance_raises():
    with pytest.raises(QuadratureError, match="tolerance not met") as caught:
        integrate_mellin(scaled_i0_with_shift(2.0), tol=1e-17)
    assert caught.value.partial.error_estimate > 1e-17


def test_rejects_nonpositive_tol_and_split():
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError):
            integrate_mellin(lambda t: np.exp(-t) - np.exp(-2.0 * t), tol=tol)
    # one line in log t has no cut to place
    with pytest.raises(TypeError):
        integrate_mellin(lambda t: np.exp(-t) - np.exp(-2.0 * t), split=1.0)


def test_c_3_integral_takes_at_most_400_nodes():
    # the Mellin integral behind c_d(3) at the default tol takes 355 nodes
    res = integrate_mellin(lambda t: np.exp(-t) - bessel_i_scaled(0, 2.0 * t) ** 3)
    assert res.evaluations <= 400
    assert res.value == pytest.approx(1.6733893029701967, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 50.0), st.floats(2.0, 20.0))
@example(1.0, 2.0)
@example(50.0, 20.0)
def test_error_estimate_bounds_closed_forms(x, y):
    # Frullani: int (e^-t - e^-xt) dt/t = log x; the Bessel shift:
    # int (e^-t - e^-yt I_0(2t)) dt/t = arccosh(y/2)
    for res, exact in ((integrate_mellin(lambda t: np.exp(-t) - np.exp(-x * t)), math.log(x)),
                       (integrate_mellin(scaled_i0_with_shift(y)), math.acosh(y / 2.0))):
        assert abs(res.value - exact) <= res.error_estimate + 4 * math.ulp(exact)


# ---------------------------------------------------------------------------
# periodic trapezoid
# ---------------------------------------------------------------------------


def test_periodic_constant():
    assert integrate_periodic(lambda w: 1.0).value == pytest.approx(1.0, abs=1e-14)


def test_periodic_orthogonality():
    assert integrate_periodic(lambda w: math.cos(3.0 * w)).value == pytest.approx(0.0, abs=1e-13)


def test_periodic_bessel_integrand():
    res = integrate_periodic(lambda w: math.exp(2.0 * (math.cos(w) - 1.0)))
    assert res.value == pytest.approx(bessel_i_scaled(0, 2.0), rel=1e-12)
    assert res.value == pytest.approx(0.3085083, abs=1e-7)


# ---------------------------------------------------------------------------
# vectorised periodic trapezoid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.99])
def test_periodic_mean_poisson_kernel(r):
    # the mean of 1/(1 - r cos 2 pi x) is 1/sqrt(1 - r^2); the rule converges
    # like r^N, so r near 1 needs many doublings
    res = integrate_periodic_mean(lambda x: 1.0 / (1.0 - r * np.cos(2.0 * np.pi * x)))
    exact = 1.0 / math.sqrt(1.0 - r * r)
    assert 0.0 < res.error_estimate <= 1e-10 + 16 * math.ulp(1.0 / (1.0 - r))
    assert abs(res.value - exact) <= res.error_estimate


def test_periodic_mean_evaluates_each_node_once():
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.cos(2.0 * np.pi * 3.0 * x)

    res = integrate_periodic_mean(f, start=8)
    nodes = np.sort(np.concatenate(seen))
    assert res.evaluations == nodes.size == 32
    assert np.array_equal(nodes, np.arange(32) / 32)
    assert abs(res.value) <= res.error_estimate


def test_periodic_mean_matches_the_oracle():
    theirs = integrate_periodic(lambda w: math.exp(2.0 * (math.cos(w) - 1.0)))
    ours = integrate_periodic_mean(lambda x: np.exp(2.0 * (np.cos(2.0 * np.pi * x) - 1.0)))
    assert abs(ours.value - theirs.value) <= ours.error_estimate + theirs.error_estimate


def test_periodic_mean_point_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "_PERIODIC_MAX_POINTS", 64)
    with pytest.raises(QuadratureError, match="did not settle"):
        integrate_periodic_mean(lambda x: np.abs(np.sin(np.pi * x)), tol=1e-14)


def test_periodic_mean_rejects_nonpositive_tol():
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_periodic_mean(lambda x: np.cos(2.0 * np.pi * x), tol=tol)


def test_periodic_mean_refuses_non_finite_values():
    with pytest.raises(QuadratureError, match="not finite"), np.errstate(divide="ignore"):
        integrate_periodic_mean(lambda x: np.log(np.sin(np.pi * x) ** 2))
    with pytest.raises(ValueError):
        integrate_periodic_mean(lambda x: x, start=0)


# ---------------------------------------------------------------------------
# logarithmic endpoints (the oracle's log-sin rule)
# ---------------------------------------------------------------------------


def test_log_sin_squared():
    res = integrate_log_endpoint(lambda w: math.log(math.sin(math.pi * w) ** 2))
    assert res.value == pytest.approx(-2.0 * math.log(2.0), abs=1e-10)


def test_log_sin_golden_ratio_combination():
    res = integrate_log_endpoint(
        lambda w: math.log(math.sin(math.pi * w) ** 2 + math.sin(2.0 * math.pi * w) ** 2))
    expected = 2.0 * math.log(GOLDEN) - math.log(4.0)
    assert res.value == pytest.approx(expected, abs=1e-9)
    assert res.value == pytest.approx(-0.4238, abs=1e-4)


def test_log_endpoint_constant():
    res = integrate_log_endpoint(lambda w: 1.0, tol=1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert abs(res.value - 1.0) <= res.error_estimate


def test_non_integrable_blowup_detected():
    with pytest.raises(QuadratureError):
        integrate_log_endpoint(lambda w: 1.0 / w)
