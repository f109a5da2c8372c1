"""Rates and occupation numbers: closed forms vs window-quadrature oracles."""

import csv
import math
import sys
from pathlib import Path

import numpy as np
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
    n_udw_quadrature,
    planck_occupation,
    rate_unit,
)
from atombath.specfun import bose_window
from make_reference import reference
from oracles import n_udw_high_temp, n_udw_low_temp


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


@pytest.mark.parametrize(
    "omega, lam, coupling",
    [
        (1.0, 1e-200, Coupling.UDW),
        (1.0, 1e-160, Coupling.UDW),  # a subnormal rate unit
        (1.0, 1e200, Coupling.UDW),
        (1e-120, 1.0, Coupling.DERIVATIVE),
        (1e200, 1.0, Coupling.DERIVATIVE),  # omega**3 raises OverflowError
    ],
)
def test_detector_params_reject_rates_outside_the_normal_floats(omega, lam, coupling):
    with pytest.raises(ValueError, match="outside the normal floats"):
        DetectorParams(omega=omega, lam=lam, velocity=0.0, coupling=coupling)


def test_detector_params_check_the_rate_at_its_own_speed():
    # gamma_td grows as 1/(1 - v^2): normal at rest, inf near v_max
    lam = 5e153
    DetectorParams(omega=1.0, lam=lam, velocity=0.0, coupling=Coupling.DERIVATIVE)
    with pytest.raises(ValueError, match="gamma_td"):
        DetectorParams(omega=1.0, lam=lam, velocity=0.99, coupling=Coupling.DERIVATIVE)


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
    c = LindbladCoefficients(gamma=0.7, n=1.3, omega_eff=2.0)
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


@pytest.mark.parametrize(
    "gamma, n, omega_eff, what",
    [
        (1.0, 0.5, math.nan, "omega_eff"),
        (1.0, 0.5, math.inf, "omega_eff"),
        (1.0, 0.5, -math.inf, "omega_eff"),
        (1.0, math.nan, 1.0, "n must"),
    ],
)
def test_lindblad_coefficients_reject_non_finite_rates(gamma, n, omega_eff, what):
    with pytest.raises(ValueError, match=f"^{what}"):
        LindbladCoefficients(gamma=gamma, n=n, omega_eff=omega_eff)


def test_doppler_shifts_reciprocal():
    for v in (0.0, 0.3, 0.9):
        red, blue = doppler_shifts(v)
        assert red * blue == pytest.approx(1.0, rel=1e-15)
        assert red <= 1.0 <= blue
    red, blue = doppler_shifts(0.6)
    assert red == pytest.approx(0.5, rel=1e-15)
    assert blue == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError, match=r"^velocity must lie in \[0, 1\)"):
        doppler_shifts(1.0)


def test_doppler_window_spans_the_sky():
    # T/(gamma (1 - v cos theta)) runs from T red (astern) to T blue (ahead)
    lo, hi = doppler_window(BathParams(beta=2.0), 0.6)
    assert lo == pytest.approx(0.5 * 0.5, rel=1e-15)
    assert hi == pytest.approx(0.5 * 2.0, rel=1e-15)
    lo, hi = doppler_window(BathParams(beta=1.0), 0.0)
    assert lo == hi == 1.0


def test_planck_occupation():
    assert planck_occupation(1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)
    assert planck_occupation(800.0) == 0.0
    # e^-705 is a normal float and e^-740 a subnormal one: neither is cut to 0
    assert planck_occupation(705.0) == pytest.approx(math.exp(-705.0), rel=1e-15)
    assert planck_occupation(740.0) == math.exp(-740.0) > 0.0
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
    # windowed Planck averages, computed two independent ways, down to the
    # hottest baths and the slowest speeds: the window mean divides by no v
    for b in (1e-300, 1e-150, 1e-20, 0.5, 1.0, 5.0):
        bath = BathParams(beta=b)
        for v in (0.0, 1e-300, 1e-17, 1e-12, 1e-5, 0.005, 0.1, 0.3, 0.7, 0.95):
            du = _detector(v)
            dt = _detector(v, Coupling.DERIVATIVE)
            assert n_udw(du, bath) == pytest.approx(
                n_udw_quadrature(du, bath), rel=1e-10
            ), (b, v)
            assert n_td(dt, bath) == pytest.approx(
                n_td_quadrature(dt, bath), rel=1e-10
            ), (b, v)


def test_window_quadratures_at_rest_do_not_use_the_planck_helpers(monkeypatch):
    # the v = 0 window is one point, still integrated: the oracle shares no
    # Planck code with the closed forms it checks
    from atombath import coefficients

    expected = {b: planck_occupation(b) for b in (1e-20, 0.5, 5.0, 740.0)}

    def refuse(*args):
        raise AssertionError("the window oracle called a Planck helper")

    monkeypatch.setattr(coefficients, "planck_occupation", refuse)
    monkeypatch.setattr(coefficients, "_planck", refuse)
    for b, p in expected.items():
        bath = BathParams(beta=b)
        assert n_udw_quadrature(_detector(0.0), bath) == pytest.approx(p, rel=1e-14, abs=0)
        assert n_td_quadrature(_detector(0.0, Coupling.DERIVATIVE), bath) == pytest.approx(
            p, rel=1e-14, abs=0
        )


def test_window_quadratures_match_quadpack():
    # the panel kernel against QUADPACK on the same scaled integrand over
    # t in [0, 1], x = lo + w t, with the same prefactors and e^-lo applied
    # last: 40 beta_omega x 10 v x both weights
    from scipy.integrate import quad

    for b in np.geomspace(1e-8, 740.0, 40).tolist():
        bath = BathParams(beta=b)
        for v in np.geomspace(1e-8, 0.99, 10).tolist():
            red, _ = doppler_shifts(v)
            lo = b * red
            w = b * (2.0 * v) / math.sqrt(1.0 - v * v)
            means = []
            for k in (0, 2):

                def f(t):
                    x = lo + w * t
                    return (x / b) ** k * math.exp(lo - x) / -math.expm1(-x)

                val, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
                means.append(val)
            scale = math.exp(-lo)
            for oracle, expected in (
                (n_udw_quadrature(_detector(v), bath), means[0] * scale),
                (
                    n_td_quadrature(_detector(v, Coupling.DERIVATIVE), bath),
                    3.0 * (1.0 - v * v) / (3.0 + v * v) * means[1] * scale,
                ),
            ):
                assert abs(oracle - expected) <= 1e-14 * expected, (b, v)


_BLOCK_SPEEDS = (0.0, 1e-300, 1e-5, 0.5, 0.99)


@pytest.mark.parametrize("b", [100.0, 740.0, 1e-300, 1e-20])
def test_block_window_means_agree_with_one_speed_calls(b):
    # one mesh for every speed and both powers: each value within the summed
    # error estimates of its own one-speed, one-power call
    from atombath.coefficients import _window_mean

    scales, units, vals, errs = _window_mean(b, _BLOCK_SPEEDS, (0, 2))
    assert vals.shape == errs.shape == (len(_BLOCK_SPEEDS), 2)
    for i, v in enumerate(_BLOCK_SPEEDS):
        for j, power in enumerate((0, 2)):
            (scale,), (unit,), val, err = _window_mean(b, [v], (power,))
            assert (scales[i], units[i]) == (scale, unit), (b, v)
            assert abs(vals[i, j] - val[0, 0]) <= errs[i, j] + err[0, 0], (b, v, power)
            assert vals[i, j] > 0.0


def test_block_wider_than_the_speed_cap_equals_its_slices():
    from atombath.coefficients import _WINDOW_SLICE, _window_occupations, _window_mean

    speeds = tuple(np.linspace(0.0, 0.99, 2 * _WINDOW_SLICE + 3).tolist())
    for b in (1e-300, 0.5, 740.0):
        udw, td = _window_occupations(b, speeds)
        assert len(udw) == len(td) == len(speeds)
        for lo in range(0, len(speeds), _WINDOW_SLICE):
            part = speeds[lo : lo + _WINDOW_SLICE]
            scales, units, means, _ = _window_mean(b, part, (0, 2))
            for k, v in enumerate(part):
                det = _detector(v)
                expected = means[k].tolist()
                assert udw[lo + k] == expected[0] / units[k] * scales[k]
                weight = 3.0 * (1.0 - v * v) / (3.0 + v * v)
                assert td[lo + k] == weight * expected[1] / units[k] * scales[k]
                # and each agrees with the closed forms, as the one-speed oracles do
                assert udw[lo + k] == pytest.approx(n_udw(det, BathParams(b)), rel=1e-10)


def test_block_window_failure_names_the_first_bad_speed(monkeypatch):
    # at beta*omega = 50 a one-panel mesh certifies the narrow windows (v up to
    # 0.1), not the wide ones: the error names the first wide speed in row order
    from atombath import coefficients
    from atombath.specfun import QuadratureError

    certified_gk21 = coefficients.certified_gk21
    monkeypatch.setattr(
        coefficients, "certified_gk21", lambda *a, **k: certified_gk21(*a, **{**k, "limit": 1})
    )
    for speeds, bad in (((0.0, 1e-300, 1e-5, 0.5, 0.99), 0.5), ((1e-300, 0.99, 0.5), 0.99)):
        with pytest.raises(QuadratureError, match=rf"^window quadrature for b=50.0, v={bad} only"):
            coefficients._window_occupations(50.0, speeds)
    # the one-speed oracles keep their text
    with pytest.raises(QuadratureError, match=r"^window quadrature for b=50.0, v=0.5 only reached"):
        n_td_quadrature(_detector(0.5, Coupling.DERIVATIVE), BathParams(50.0))


@pytest.mark.parametrize("v", [1e-8, 1e-6])
def test_window_quadratures_keep_a_subnormal_occupation(v):
    # n is 4.2e-322 here: e^-lo must come last, after the window mean, or
    # e^-lo times the window's width flushes to 0
    bath = BathParams(beta=740.0)
    for coupling, closed, oracle in (
        (Coupling.UDW, n_udw, n_udw_quadrature),
        (Coupling.DERIVATIVE, n_td, n_td_quadrature),
    ):
        det = _detector(v, coupling)
        assert closed(det, bath) > 0.0
        assert abs(oracle(det, bath) - closed(det, bath)) <= 2 * math.ulp(0.0), coupling


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


@pytest.mark.parametrize("b", [1e-3, 0.1, 1.0, 10.0, 30.0, 100.0, 300.0, 500.0, 700.0])
def test_small_velocity_occupations_match_quadrature(b):
    # the v^2 Taylor branch errs by ~(b v)^4: it was taken below v = 1e-4
    # whatever b was, 1.9e-7 off at (700, 9.9e-5)
    bath = BathParams(beta=b)
    for v in (0.0, 1e-5, 3e-5, 5e-5, 9.9e-5, 1e-4, 3e-4, 1e-3, 0.5, 0.99):
        du, dt = _detector(v), _detector(v, Coupling.DERIVATIVE)
        # abs=0: at b = 700 the values are ~1e-304, far below approx's 1e-12
        assert n_udw(du, bath) == pytest.approx(n_udw_quadrature(du, bath), rel=1e-10, abs=0)
        assert n_td(dt, bath) == pytest.approx(n_td_quadrature(dt, bath), rel=1e-10, abs=0)


@pytest.mark.parametrize(
    "b, v, reference",
    [
        # 60-digit mpmath values of the closed form at these double inputs
        (0.01, 1e-4, 99.500833165281944718),
        (1.0, 1.1e-4, 0.58197670531704561699),
        (25.0, 1.1e-4, 1.3887959269205623002e-11),
    ],
)
def test_udw_occupation_just_above_the_taylor_branch(b, v, reference):
    # the window width b*(blue - red) used to come from two nearly equal edges
    assert n_udw(_detector(v), BathParams(beta=b)) == pytest.approx(reference, rel=2e-14, abs=0)


@pytest.mark.parametrize(
    "coupling, closed, oracle",
    [(Coupling.UDW, n_udw, n_udw_quadrature), (Coupling.DERIVATIVE, n_td, n_td_quadrature)],
    ids=["udw", "td"],
)
def test_slow_occupations_match_mpmath(coupling, closed, oracle):
    # the v = 1e-5 rows of coeffs_oracle_golden.csv: the closed form and the
    # window oracle both within 1e-13 of 60-digit mpmath, and the golden
    # cells of both columns the reference's own 12-digit print
    path = Path(__file__).parent / "fixtures" / "coeffs_oracle_golden.csv"
    with path.open(newline="") as f:
        golden = {(float(r["beta_omega"]), float(r["velocity"])): r for r in csv.DictReader(f)}
    column = f"n_{coupling.value}"
    rows = reference(f"occupation_{coupling.value}")
    assert len(rows) == 4
    for b, v, _, value in rows:
        det, bath = _detector(v, coupling), BathParams(beta=b)
        assert closed(det, bath) == pytest.approx(value, rel=1e-13, abs=0), b
        assert oracle(det, bath) == pytest.approx(value, rel=1e-13, abs=0), b
        row = golden[b, v]
        assert row[column] == row[f"{column}_quadrature"] == f"{value:.11e}", b


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


@pytest.mark.parametrize("b, v", [(700.0, 1e-4), (700.0, 9.9e-5), (700.0, 1e-3), (20.0, 1e-5), (20.0, 0.3)])
def test_low_temperature_form_matches_its_formula(b, v):
    # sqrt(1 - v^2)/(2 v b) (e^(-b red) - e^(-b blue)), evaluated as written
    red, blue = doppler_shifts(v)
    formula = math.sqrt(1.0 - v * v) / (2.0 * v * b) * (math.exp(-b * red) - math.exp(-b * blue))
    assert n_udw_low_temp(_detector(v), BathParams(beta=b)) == pytest.approx(
        formula, rel=1e-11, abs=0.0
    )


@pytest.mark.parametrize("b", [1e300, 1.7e308, 1.7976931348623157e308])
@pytest.mark.parametrize("v", [0.0, 1e-5, 0.5])
def test_frozen_bath_occupations_are_zero(b, v):
    # inf*0 = nan waits wherever an overflowed b*r, r*r or b*2 meets P = 0 or v = 0
    bath = BathParams(beta=b)
    for n in (n_udw, n_udw_low_temp, n_udw_quadrature):
        assert n(_detector(v), bath) == 0.0, n.__name__
    for n in (n_td, n_td_quadrature):
        assert n(_detector(v, Coupling.DERIVATIVE), bath) == 0.0, n.__name__


@pytest.mark.parametrize(
    "occupation",
    [n_udw, n_td, n_udw_high_temp, n_udw_low_temp, n_udw_quadrature, n_td_quadrature,
     lindblad_coefficients],
)
def test_occupations_reject_a_beta_omega_past_the_floats(occupation):
    # each factor is a valid float, their product is not
    with pytest.raises(ValueError, match=r"beta\*omega overflows"):
        occupation(_detector(0.0, omega=1e10), BathParams(beta=1e300))


# the smallest beta*omega whose occupation ~1/(beta*omega) is a float: b * max >= 1
_HOTTEST = math.nextafter(1.0 / sys.float_info.max, 1.0)


@pytest.mark.parametrize(
    "occupation",
    [n_udw, n_td, n_udw_high_temp, n_udw_low_temp, n_udw_quadrature, n_td_quadrature,
     lindblad_coefficients],
)
@pytest.mark.parametrize("b", [math.nextafter(_HOTTEST, 0.0), 1e-315, 5e-324])
def test_occupations_reject_a_beta_omega_whose_occupation_overflows(occupation, b):
    # the occupations printed nan (v = 0) and inf, or divided by zero
    with pytest.raises(ValueError, match=r"occupation ~1/\(beta\*omega\) overflows"):
        occupation(_detector(0.0), BathParams(beta=b))


@pytest.mark.parametrize("v", [0.0, 1e-5, 9.9e-5, 1e-4, 1e-3, 0.1, 0.5, 0.99])
def test_occupations_are_finite_down_to_the_hottest_bath(v):
    # b n tends to its b -> 0 limit: n_td's Taylor branch formed 4p past
    # the floats (nan), n_udw's closed form 1/(2 v b) (inf).  b is subnormal,
    # and so is the window width 2 v b at v = 1e-4, which keeps ~11 digits
    bath = BathParams(beta=_HOTTEST)
    limit_udw = math.sqrt(1.0 - v * v) * (math.atanh(v) / v if v else 1.0)
    limit_td = 3.0 * math.sqrt(1.0 - v * v) / (3.0 + v * v)
    assert _HOTTEST * n_udw(_detector(v), bath) == pytest.approx(limit_udw, rel=1e-11)
    assert _HOTTEST * n_td(_detector(v, Coupling.DERIVATIVE), bath) == pytest.approx(
        limit_td, rel=1e-11
    )


def test_lindblad_coefficients_dispatch():
    bath = BathParams(beta=1.0)
    cu = lindblad_coefficients(_detector(0.5), bath)
    ct = lindblad_coefficients(_detector(0.5, Coupling.DERIVATIVE), bath)
    assert cu.gamma == pytest.approx(gamma_udw(_detector(0.5)), rel=1e-15)
    assert cu.n == pytest.approx(n_udw(_detector(0.5), bath), rel=1e-15)
    assert cu.omega_eff == 1.0
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
