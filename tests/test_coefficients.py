"""Rates and occupation numbers: closed forms vs window-quadrature oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atombath.coefficients import (
    BathParams,
    Coupling,
    DetectorParams,
    LindbladCoefficients,
    doppler_shifts,
    doppler_window,
    gamma_td,
    gamma_udw,
    lindblad_coefficients,
    n_td,
    n_td_quadrature,
    n_udw,
    n_udw_high_temp,
    n_udw_low_temp,
    n_udw_quadrature,
    planck_occupation,
    rate_unit,
)
from atombath.specfun import bose_window


def _detector(v, coupling=Coupling.UDW, omega=1.0, lam=1.0, v_max=0.99):
    return DetectorParams(omega=omega, lam=lam, velocity=v, coupling=coupling, v_max=v_max)


# --- parameter containers ----------------------------------------------------


def test_detector_params_validation():
    with pytest.raises(ValueError):
        _detector(0.5, omega=0.0)
    with pytest.raises(ValueError):
        _detector(0.5, lam=-1.0)
    with pytest.raises(ValueError):
        _detector(0.995)  # above default v_max
    with pytest.raises(ValueError):
        _detector(-0.1)
    with pytest.raises(ValueError):
        DetectorParams(omega=1.0, lam=1.0, velocity=0.5, v_max=1.0)
    with pytest.raises(TypeError):
        DetectorParams(omega=1.0, lam=1.0, velocity=0.5, coupling="udw")
    # raising v_max admits faster detectors
    d = _detector(0.995, v_max=0.999)
    assert d.lorentz_gamma == pytest.approx(1.0 / math.sqrt(1.0 - 0.995 ** 2))


def test_bath_params_validation():
    with pytest.raises(ValueError):
        BathParams(beta=0.0)
    assert BathParams(beta=2.0).temperature == 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_params_reject_non_finite_and_zero_values(bad):
    # lam = 0 would zero the rate unit the CLI divides its time axis by
    with pytest.raises(ValueError, match="omega"):
        _detector(0.5, omega=bad)
    with pytest.raises(ValueError, match="lam"):
        _detector(0.5, lam=bad)
    with pytest.raises(ValueError, match="beta"):
        BathParams(beta=bad)


def test_lindblad_coefficients_derived_rates():
    c = LindbladCoefficients(gamma=0.7, n=1.3, omega_eff=2.0, delta_omega=0.1)
    assert c.a == pytest.approx(0.7 * 3.6, rel=1e-15)
    assert c.b == -0.7
    # a^2 - b^2 = 4 gamma^2 n (n+1) by construction
    assert c.a ** 2 - c.b ** 2 == pytest.approx(4.0 * 0.7 ** 2 * 1.3 * 2.3, rel=1e-14)
    with pytest.raises(ValueError):
        LindbladCoefficients(gamma=0.0, n=1.0, omega_eff=1.0)
    with pytest.raises(ValueError):
        LindbladCoefficients(gamma=1.0, n=-0.1, omega_eff=1.0)
    with pytest.raises(ValueError, match="damping rate"):
        LindbladCoefficients(gamma=1.0, n=1e308, omega_eff=1.0)


def test_doppler_shifts_reciprocal():
    for v in (0.0, 0.3, 0.9):
        red, blue = doppler_shifts(v)
        assert red * blue == pytest.approx(1.0, rel=1e-15)
        assert red <= 1.0 <= blue
    red, blue = doppler_shifts(0.6)
    assert red == pytest.approx(0.5, rel=1e-15)
    assert blue == pytest.approx(2.0, rel=1e-15)


def test_doppler_window_full_factors():
    # window edges carry the full (1 -+ v)/(1 +- v), not the square roots
    lo, hi = doppler_window(BathParams(beta=2.0), 0.6)
    assert lo == pytest.approx(0.5 * 0.25, rel=1e-15)
    assert hi == pytest.approx(0.5 * 4.0, rel=1e-15)
    lo, hi = doppler_window(BathParams(beta=1.0), 0.0)
    assert lo == hi == 1.0


def test_planck_occupation():
    assert planck_occupation(1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)
    assert planck_occupation(800.0) == 0.0
    with pytest.raises(ValueError):
        planck_occupation(0.0)


# --- spontaneous rates -------------------------------------------------------


def test_gamma_udw_value_and_velocity_independence():
    assert gamma_udw(_detector(0.0)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert gamma_udw(_detector(0.9)) == gamma_udw(_detector(0.0))
    # quadratic in the coupling, linear in the gap
    assert gamma_udw(_detector(0.0, lam=2.0, omega=3.0)) == pytest.approx(
        12.0 / (2.0 * math.pi), rel=1e-15
    )


def test_gamma_td_values():
    td = Coupling.DERIVATIVE
    assert gamma_td(_detector(0.0, td)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert gamma_td(_detector(0.5, td)) == pytest.approx(13.0 / (18.0 * math.pi), rel=1e-15)
    # (3 + v^2)/(1 - v^2) is 1 + 2 cosh(2 artanh v) in disguise
    for v in (0.1, 0.5, 0.9):
        alt = (1.0 + 2.0 * math.cosh(2.0 * math.atanh(v))) / (6.0 * math.pi)
        assert gamma_td(_detector(v, td)) == pytest.approx(alt, rel=1e-14)


def test_gamma_td_strictly_increasing_in_speed():
    td = Coupling.DERIVATIVE
    values = [gamma_td(_detector(v, td)) for v in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_rate_unit_is_bare_prefactor():
    assert rate_unit(_detector(0.7)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    d = _detector(0.7, Coupling.DERIVATIVE, omega=2.0, lam=0.5)
    assert rate_unit(d) == pytest.approx(0.25 * 8.0 / (6.0 * math.pi), rel=1e-15)
    # the unit ignores velocity; the rate itself does not
    assert gamma_td(d) / rate_unit(d) == pytest.approx(3.49 / 0.51, rel=1e-13)


# --- occupation numbers ------------------------------------------------------


def test_occupations_recover_planck_at_rest():
    for b in (0.1, 0.5, 1.0, 5.0, 10.0):
        bath = BathParams(beta=b)
        p = planck_occupation(b)
        assert n_udw(_detector(0.0), bath) == pytest.approx(p, rel=1e-14)
        assert n_td(_detector(0.0, Coupling.DERIVATIVE), bath) == pytest.approx(p, rel=1e-14)


def test_occupations_match_window_quadrature():
    # windowed Planck averages, computed two independent ways
    for b in (0.5, 1.0, 5.0):
        bath = BathParams(beta=b)
        for v in (0.005, 0.1, 0.3, 0.7, 0.95):
            du = _detector(v)
            dt = _detector(v, Coupling.DERIVATIVE)
            assert n_udw(du, bath) == pytest.approx(
                n_udw_quadrature(du, bath), rel=1e-10
            )
            assert n_td(dt, bath) == pytest.approx(
                n_td_quadrature(dt, bath), rel=1e-10
            )


def test_taylor_branch_meets_direct_formula():
    # the small-velocity branch switches at v = 1e-4; both sides must
    # agree across the seam
    from atombath.coefficients import _n_td_taylor, _n_udw_taylor

    for b in (0.1, 1.0, 5.0):
        bath = BathParams(beta=b)
        for v in (2e-4, 1e-3):
            assert n_udw(_detector(v), bath) == pytest.approx(
                _n_udw_taylor(b, v), rel=1e-9
            )
            assert n_td(_detector(v, Coupling.DERIVATIVE), bath) == pytest.approx(
                _n_td_taylor(b, v), rel=1e-9
            )


def test_frozen_occupation_values():
    # window-quadrature oracle numbers, frozen
    bath = BathParams(beta=1.0)
    assert n_udw(_detector(0.5), bath) == pytest.approx(
        n_udw_quadrature(_detector(0.5), bath), rel=1e-12
    )
    assert n_udw(_detector(0.5), bath) == pytest.approx(0.5451001391331534, rel=1e-11)
    assert n_td(_detector(0.5, Coupling.DERIVATIVE), bath) == pytest.approx(
        0.4068842610263398, rel=1e-11
    )


def test_udw_monotonicity_flips_with_temperature():
    grid = [0.05 * k for k in range(1, 20)]
    hot = BathParams(beta=0.5)
    cold = BathParams(beta=5.0)
    hot_vals = [n_udw(_detector(v), hot) for v in grid]
    cold_vals = [n_udw(_detector(v), cold) for v in grid]
    assert all(a > b for a, b in zip(hot_vals, hot_vals[1:]))
    assert all(a < b for a, b in zip(cold_vals, cold_vals[1:]))


def test_td_monotone_decreasing_at_both_temperatures():
    grid = [0.05 * k for k in range(1, 20)]
    for b in (0.5, 5.0):
        bath = BathParams(beta=b)
        vals = [n_td(_detector(v, Coupling.DERIVATIVE), bath) for v in grid]
        assert all(a > b_ for a, b_ in zip(vals, vals[1:]))


def test_occupations_vanish_at_zero_temperature_limit():
    bath = BathParams(beta=2000.0)
    assert n_udw(_detector(0.3), bath) == 0.0 or n_udw(_detector(0.3), bath) < 1e-200
    assert n_td(_detector(0.3, Coupling.DERIVATIVE), bath) < 1e-200
    assert n_udw(_detector(0.0), bath) == 0.0


def test_high_temperature_asymptote():
    bath = BathParams(beta=0.01)
    for v in (0.2, 0.5, 0.8):
        d = _detector(v)
        full = n_udw(d, bath)
        asym = n_udw_high_temp(d, bath)
        assert abs(full - asym) / full < 0.01
    # v -> 0 limit of the asymptote is the classical equipartition value
    assert n_udw_high_temp(_detector(0.0), bath) == pytest.approx(100.0, rel=1e-15)


def test_low_temperature_asymptote():
    bath = BathParams(beta=20.0)
    for v in (0.1, 0.3, 0.6):
        d = _detector(v)
        ratio = n_udw_low_temp(d, bath) / n_udw(d, bath)
        assert 0.5 < ratio < 2.0
    # reduces to the Boltzmann factor at rest
    assert n_udw_low_temp(_detector(0.0), bath) == pytest.approx(math.exp(-20.0), rel=1e-12)


def test_lindblad_coefficients_dispatch():
    bath = BathParams(beta=1.0)
    cu = lindblad_coefficients(_detector(0.5), bath, delta_omega=0.25)
    ct = lindblad_coefficients(_detector(0.5, Coupling.DERIVATIVE), bath)
    assert cu.gamma == pytest.approx(gamma_udw(_detector(0.5)), rel=1e-15)
    assert cu.n == pytest.approx(n_udw(_detector(0.5), bath), rel=1e-15)
    assert cu.omega_eff == pytest.approx(1.25, rel=1e-15)
    assert cu.delta_omega == 0.25
    assert ct.gamma == pytest.approx(gamma_td(_detector(0.5, Coupling.DERIVATIVE)), rel=1e-15)
    assert ct.n == pytest.approx(n_td(_detector(0.5, Coupling.DERIVATIVE), bath), rel=1e-15)
    assert ct.omega_eff == 1.0


def test_td_occupation_matches_quadrature_in_hot_baths():
    # hot baths: the window is tiny next to the 2 zeta(3) of either tail
    for b in (1e-8, 1e-6, 1e-4):
        bath = BathParams(beta=b)
        for v in (1e-4, 0.5, 0.99):
            d = _detector(v, Coupling.DERIVATIVE)
            assert n_td(d, bath) == pytest.approx(n_td_quadrature(d, bath), rel=1e-10)


def test_occupations_match_quadrature_on_the_cold_side():
    # window values of 1e-180 to 1e-11: far below any absolute quadrature
    # target, and past the overflow of e^x at (100, 0.99)
    for b, v in ((30.0, 0.3), (30.0, 0.5), (100.0, 0.99)):
        bath = BathParams(beta=b)
        du = _detector(v)
        dt = _detector(v, Coupling.DERIVATIVE)
        assert n_udw(du, bath) == pytest.approx(n_udw_quadrature(du, bath), rel=1e-10)
        assert n_td(dt, bath) == pytest.approx(n_td_quadrature(dt, bath), rel=1e-10)


def test_td_occupation_below_the_cube_underflow():
    # b**3 underflows to 0 below b ~ 1e-103; the occupation is ~ 1/b
    b, v = 1e-110, 0.5
    leading = 3.0 * math.sqrt(1.0 - v * v) / (b * (3.0 + v * v))
    assert n_td(_detector(v, Coupling.DERIVATIVE), BathParams(beta=b)) == pytest.approx(
        leading, rel=1e-10
    )


def test_udw_occupation_matches_quadrature_in_cold_baths():
    # cold baths: both log(1 - e^-x) at the window edges are ~ -e^-x
    for b in (12.0, 24.0):
        bath = BathParams(beta=b)
        d = _detector(1e-4)
        assert n_udw(d, bath) == pytest.approx(n_udw_quadrature(d, bath), rel=1e-10)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    log_b=st.floats(min_value=-8.0, max_value=math.log10(20.0)),
    v=st.floats(min_value=1e-4, max_value=0.99),
)
def test_td_occupation_matches_quadrature_property(log_b, v):
    b = 10.0 ** log_b
    bath = BathParams(beta=b)
    d = _detector(v, Coupling.DERIVATIVE)
    assert n_td(d, bath) == pytest.approx(n_td_quadrature(d, bath), rel=1e-10)
    red, blue = doppler_shifts(v)
    assert bose_window(b * red, b * blue) > 0.0


@pytest.mark.parametrize("b", [1e-10, 1e-12, 1e-17])
def test_taylor_branch_keeps_planck_in_hot_baths(b):
    # 1 - e^-b cancels to nothing here; the branch must still give 1/(e^b - 1)
    bath = BathParams(beta=b)
    planck = planck_occupation(b)
    assert n_udw(_detector(0.0), bath) == pytest.approx(planck, rel=1e-14)
    assert n_td(_detector(0.0, Coupling.DERIVATIVE), bath) == pytest.approx(planck, rel=1e-14)


@pytest.mark.parametrize("b, v", [(1e-160, 0.99), (1e-200, 0.5)])
def test_td_occupation_where_the_window_is_subnormal(b, v):
    # the window ~ b^2 itself falls into subnormals below b ~ 1e-154
    leading = 3.0 * math.sqrt(1.0 - v * v) / (b * (3.0 + v * v))
    assert n_td(_detector(v, Coupling.DERIVATIVE), BathParams(beta=b)) == pytest.approx(
        leading, rel=1e-12
    )


def test_td_occupation_leading_form_down_to_1e_300():
    for k in range(102, 301, 6):
        b = 10.0 ** -k
        for v in (0.5, 0.99):
            leading = 3.0 * math.sqrt(1.0 - v * v) / (b * (3.0 + v * v))
            n = n_td(_detector(v, Coupling.DERIVATIVE), BathParams(beta=b))
            assert n == pytest.approx(leading, rel=1e-12), (b, v)
