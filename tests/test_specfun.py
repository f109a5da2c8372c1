"""Series polylogarithms and Bose windows against frozen oracle values and quadrature.

Reference numbers were produced with 30-digit arbitrary precision
arithmetic before being locked in here.
"""

import math

import numpy as np
import pytest

from atombath.specfun import (
    QuadratureError,
    ZETA_2,
    ZETA_3,
    bose_head_ratio,
    bose_tail,
    bose_window,
    certified_gk21,
    certify,
    polylog,
)
from oracles import bose_einstein_integral


def test_polylog_closed_form_order_one():
    assert polylog(1, 0.3) == pytest.approx(-math.log(0.7), rel=1e-15)
    assert polylog(1, 0.0) == 0.0


def test_polylog_frozen_values():
    # mpmath.polylog references
    assert polylog(2, 0.5) == pytest.approx(5.822405264650125e-01, rel=1e-14)
    assert polylog(2, math.exp(-1)) == pytest.approx(4.087542873488962e-01, rel=1e-14)
    assert polylog(3, 0.9) == pytest.approx(1.049658950186439e00, rel=1e-14)
    assert polylog(3, math.exp(-1)) == pytest.approx(3.869954242101997e-01, rel=1e-14)


def test_polylog_at_one():
    assert polylog(2, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
    assert polylog(3, 1.0) == pytest.approx(ZETA_3, rel=1e-15)
    assert ZETA_2 == pytest.approx(math.pi ** 2 / 6.0, rel=1e-16)


def test_polylog_near_one_falls_back_smoothly():
    # within ~1e-7 of 1 the cap is hit and the limit value is returned;
    # the true value differs from zeta by O(|z-1| log|z-1|)
    assert polylog(3, 0.999999) == pytest.approx(1.202055258232363, rel=1e-9)
    assert polylog(2, 1.0 - 1e-12) == pytest.approx(ZETA_2, rel=1e-10)


def test_polylog_tiny_argument():
    # leading term dominates: Li_s(z) = z + z^2/2^s + ...
    assert polylog(2, 1e-9) == pytest.approx(1e-9, rel=1e-8)
    assert polylog(3, 1e-9) == pytest.approx(1e-9, rel=1e-8)


def test_polylog_domain_errors():
    with pytest.raises(ValueError):
        polylog(4, 0.5)
    with pytest.raises(ValueError):
        polylog(2, -0.1)
    with pytest.raises(ValueError):
        polylog(2, 1.5)
    with pytest.raises(ValueError):
        polylog(1, 1.0)


def test_polylog_monotone_in_argument():
    for s in (1, 2, 3):
        values = [polylog(s, z) for z in (0.0, 0.1, 0.3, 0.6, 0.9, 0.99)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_bose_tail_endpoints():
    assert bose_tail(0.0) == 2.0 * ZETA_3
    # exp(-x) underflows past ~745
    assert bose_tail(800.0) == 0.0


def test_bose_tail_frozen_values():
    assert bose_tail(0.1) == pytest.approx(2.399278389883960, rel=1e-13)
    assert bose_tail(0.5) == pytest.approx(2.298648657150781, rel=1e-13)
    assert bose_tail(1.0) == pytest.approx(2.050174568505274, rel=1e-13)
    assert bose_tail(3.0) == pytest.approx(8.623509835838028e-01, rel=1e-13)
    assert bose_tail(10.0) == pytest.approx(5.538905313094990e-03, rel=1e-13)


def test_bose_tail_deep_suppression():
    # dominated by the first image term 10202 e^-100
    assert bose_tail(100.0) == pytest.approx(10202.0 * math.exp(-100.0), rel=1e-12)
    assert bose_tail(100.0) < 1e-39


def test_bose_tail_strictly_decreasing():
    xs = [0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    values = [bose_tail(x) for x in xs]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert bose_tail(1e-8) < 2.0 * ZETA_3


def test_bose_tail_matches_direct_quadrature():
    from scipy.integrate import quad

    for x in (0.1, 0.5, 1.0, 3.0, 10.0):
        ref, err = quad(
            lambda t: t * t / math.expm1(t), x, 60.0 + x,
            epsabs=1e-13, epsrel=1e-13, limit=300,
        )
        assert err < 1e-11 * max(1.0, ref)
        assert bose_tail(x) == pytest.approx(ref, rel=1e-10)


def test_bose_tail_rejects_negative():
    with pytest.raises(ValueError):
        bose_tail(-0.5)


def test_bose_einstein_integral_matches_polylog():
    for s, x in [(1, 0.0), (1, -0.1), (1, -1.0), (2, 0.0), (2, -0.5), (2, -5.0)]:
        assert bose_einstein_integral(s, x) == pytest.approx(
            polylog(s + 1, math.exp(x)), rel=1e-10
        )


def test_bose_einstein_integral_at_zero_fugacity():
    assert bose_einstein_integral(1, 0.0) == pytest.approx(ZETA_2, rel=1e-10)
    assert bose_einstein_integral(2, 0.0) == pytest.approx(ZETA_3, rel=1e-10)


def test_bose_einstein_integral_domain_errors():
    with pytest.raises(ValueError):
        bose_einstein_integral(3, -1.0)
    with pytest.raises(ValueError):
        bose_einstein_integral(1, 0.5)


def test_quadrature_error_is_runtime_error():
    assert issubclass(QuadratureError, RuntimeError)


def test_certify_rejects_a_nan_component_and_one_past_its_bound():
    values, errors = np.array([1.0, -2e-9]), np.array([1e-8, 1e-12])
    assert certify(values, errors, "probe", 1e-8, 1e-4) is values
    assert certify(0.5, 5e-9, "probe", 1e-8, 1e-4) == 0.5
    with pytest.raises(QuadratureError, match="probe only reached an error estimate of 1.000e-15"):
        certify(np.array([1.0, np.nan]), np.array([1e-9, 1e-15]), "probe", 1e-8, 1e-4)
    # below the floor 1e-4 the bound is 1e-8 * 1e-4 = 1e-12 absolute
    with pytest.raises(QuadratureError, match="2.000e-12"):
        certify(np.array([1.0, 1e-6]), np.array([0.0, 2e-12]), "probe", 1e-8, 1e-4)
    with pytest.raises(QuadratureError, match="1.100e-08"):
        certify(-1.0, 1.1e-8, "probe", 1e-8, 1e-4)
    with pytest.raises(QuadratureError):
        certify(1.0, math.nan, "probe", 1e-8, 1e-4)


@pytest.mark.parametrize("b", [20.0, 5.0, 2.0, 0.5])
def test_one_gauss_kronrod_panel_is_quadpacks_qk21(b):
    # QUADPACK stopped after its first panel returns qk21's value and
    # error estimate as they are
    from scipy.integrate import quad

    def f(k):
        return math.cos(3.0 * k) * k / math.expm1(0.7 * k)

    ref, ref_err, _, _ = quad(f, 0.0, b, limit=1, full_output=1)
    val, err = certified_gk21(
        lambda k: (np.cos(3.0 * k) * k / np.expm1(0.7 * k))[None], (0.0, b), "probe", math.inf, 1.0,
        epsabs=1e-13, epsrel=1e-11, limit=1,
    )
    assert val[0] == pytest.approx(ref, rel=1e-14, abs=0)
    assert err[0] == pytest.approx(ref_err, rel=1e-8, abs=0)


def test_gauss_kronrod_panels_integrate_many_components_on_one_mesh():
    # int_0^1 x^n dx = 1/(n + 1) and int_0^pi sin(m x) dx = (1 - cos(m pi))/m
    n = np.arange(40.0)
    val, err = certified_gk21(
        lambda x: x ** n[:, None], (0.0, 1.0), "powers", 1e-8, 1e-4,
        epsabs=1e-13, epsrel=1e-11, limit=1000,
    )
    assert np.all(np.abs(val - 1.0 / (n + 1.0)) <= err)
    assert np.all(err <= np.maximum(1e-13, 1e-11 * val))
    m = np.arange(1.0, 60.0)
    val, err = certified_gk21(
        lambda x: np.sin(np.multiply.outer(m, x)), (0.0, math.pi), "sines", 1e-8, 1e-4,
        epsabs=1e-13, epsrel=1e-11, limit=1000,
    )
    assert np.all(np.abs(val - (1.0 - np.cos(m * math.pi)) / m) <= err + 1e-15)


def test_gauss_kronrod_panels_start_from_a_graded_mesh():
    # the sines of the one-panel test, from breakpoints graded toward 0
    m = np.arange(1.0, 60.0)
    edges = math.pi * np.array([0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
    val, err = certified_gk21(
        lambda x: np.sin(np.multiply.outer(m, x)), edges, "sines", 1e-8, 1e-4,
        epsabs=1e-13, epsrel=1e-11, limit=1000,
    )
    assert np.all(np.abs(val - (1.0 - np.cos(m * math.pi)) / m) <= err + 1e-15)
    assert np.all(err <= np.maximum(1e-13, 1e-11 * np.abs(val)))


@pytest.mark.parametrize(
    "edges",
    [(1.0, 0.0), (0.0, 0.5, 0.5, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0),
     (0.0,), (), ((0.0, 1.0), (1.0, 2.0)), tuple(np.linspace(0.0, 1.0, 18))],
    ids=["decreasing", "repeated", "nan", "inf", "-inf", "one", "none", "2-d", "over-limit"],
)
def test_gauss_kronrod_panels_refuse_a_bad_mesh(edges):
    # finite, strictly increasing breakpoints of 1 to limit = 16 panels
    with pytest.raises(ValueError, match="edges must be"):
        certified_gk21(
            lambda x: x[None], edges, "bad mesh", 1e-8, 1e-4,
            epsabs=1e-13, epsrel=1e-11, limit=16,
        )


def test_gauss_kronrod_panels_stop_at_the_limit_and_refuse_to_certify():
    # 480 periods do not fit in 16 panels of 21 nodes
    with pytest.raises(QuadratureError, match="fast cosine only reached"):
        certified_gk21(
            lambda x: np.cos(3000.3 * x)[None] + 1.0, (0.0, 1.0), "fast cosine", 1e-8, 1e-4,
            epsabs=1e-13, epsrel=1e-11, limit=16,
        )


def test_polylog_subnormal_argument_terminates():
    # the first term is the whole sum, and the second underflows to 0
    # against a subnormal running total
    assert polylog(2, 5e-324) == 5e-324
    assert polylog(3, 5e-324) == 5e-324


def test_bose_tail_with_subnormal_fugacity():
    # e^-720 is subnormal
    tail = bose_tail(720.0)
    assert math.isfinite(tail)
    assert 0.0 <= tail < bose_tail(700.0)


def _window_reference(lo, hi):
    from scipy.integrate import quad

    ref, err = quad(
        lambda t: t * t / math.expm1(t) if t > 0.0 else 0.0, lo, hi,
        epsabs=0.0, epsrel=1e-13, limit=300,
    )
    assert err < 1e-12 * ref
    return ref


def test_bose_window_matches_direct_quadrature():
    # windows below, across and above the switch at x = 2
    for lo, hi in [(0.0, 0.5), (1e-9, 1e-8), (0.1, 1.9), (0.5, 3.0),
                   (1.5, 40.0), (2.0, 5.0), (3.0, 60.0), (30.0, 31.0)]:
        assert bose_window(lo, hi) == pytest.approx(_window_reference(lo, hi), rel=1e-12)


def test_bose_window_continuous_across_switch():
    below = math.nextafter(2.0, 0.0)
    for other in (0.5, 3.0):
        lo, hi = sorted((other, below))
        lo2, hi2 = sorted((other, 2.0))
        assert bose_window(lo, hi) == pytest.approx(bose_window(lo2, hi2), rel=1e-14)


def test_bose_window_agrees_with_tail_where_tail_is_exact():
    for lo, hi in [(0.5, 1.0), (1.0, 3.0), (5.0, 10.0)]:
        assert bose_window(lo, hi) == pytest.approx(
            bose_tail(lo) - bose_tail(hi), rel=1e-13
        )


def test_bose_window_limits():
    assert bose_window(1.0, 1.0) == 0.0
    assert bose_window(0.0, 800.0) == pytest.approx(2.0 * ZETA_3, rel=1e-15)
    # the whole window lies where e^-x underflows
    assert bose_window(750.0, 800.0) == 0.0
    assert bose_window(700.0, math.inf) == pytest.approx(bose_tail(700.0), rel=1e-12)
    # leading small-x behaviour (hi^2 - lo^2)/2
    assert bose_window(0.0, 1e-10) == pytest.approx(5e-21, rel=1e-9)


def test_bose_window_domain_errors():
    for lo, hi in [(-0.1, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError):
            bose_window(lo, hi)


def test_bose_head_ratio_is_the_window_over_its_square():
    for x in (1e-3, 0.1, 1.0, 1.9):
        assert bose_head_ratio(x) == pytest.approx(bose_window(0.0, x) / (x * x), rel=1e-14)
    # G(x) ~ x^2/2 - x^3/6: the ratio stays normal where G(x) is subnormal
    assert bose_head_ratio(0.0) == 0.5
    assert bose_head_ratio(1e-200) == 0.5
    for x in (-1e-3, 2.0, math.nan):
        with pytest.raises(ValueError):
            bose_head_ratio(x)
