import math

import numpy as np
import pytest

from spantor import quadrature
from spantor.quadrature import (
    QuadratureConfig,
    QuadratureError,
    integrate_mellin,
    integrate_mellin_head,
    integrate_mellin_tail,
    integrate_periodic_mean,
)
from spantor.specfun import bessel_i_scaled

from oracles import integrate_log_endpoint, integrate_periodic


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def scaled_i0_with_shift(x):
    """t -> e^{-t} - e^{-xt} I_0(2t) via the scaled Bessel combination."""
    def g(t):
        decay = (x - 2.0) * t
        bess = 0.0 if decay > 745.0 else math.exp(-decay) * bessel_i_scaled(0, 2.0 * t)
        return math.exp(-t) - bess
    return g


# ---------------------------------------------------------------------------
# Mellin integrals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [1.0, 2.0, math.e, 10.0])
def test_frullani_family(x):
    res = integrate_mellin(lambda t: math.exp(-t) - math.exp(-x * t))
    assert res.value == pytest.approx(math.log(x), abs=1e-10)
    assert res.error_estimate <= 1e-10
    assert res.evaluations > 0


def test_zero_integrand():
    res = integrate_mellin(lambda t: 0.0)
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


@pytest.mark.parametrize("split", [0.5, 1.0, 5.0])
def test_split_invariance(split):
    cfg = QuadratureConfig(split_point=split)
    res = integrate_mellin(lambda t: math.exp(-t) - math.exp(-2.0 * t), cfg)
    assert res.value == pytest.approx(math.log(2.0), abs=2e-10)


def test_error_honesty():
    loose = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    tight = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    for g in (lambda t: math.exp(-t) - math.exp(-3.0 * t),
              scaled_i0_with_shift(2.5),
              scaled_i0_with_shift(2.0)):
        a = integrate_mellin(g, loose)
        b = integrate_mellin(g, tight)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_nonconvergent_tail_detected():
    with pytest.raises(QuadratureError):
        integrate_mellin(lambda t: t / (1.0 + t))  # -> 1, dt/t tail diverges


def test_halfline_pieces_recombine():
    g = lambda t: math.exp(-t) - math.exp(-5.0 * t)
    head = integrate_mellin_head(g, 1.0)
    tail = integrate_mellin_tail(g, 1.0)
    assert head.value + tail.value == pytest.approx(math.log(5.0), abs=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(split_point=-1.0)


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
