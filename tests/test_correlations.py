"""Thermal correlation functions against quadrature and finite differences."""

import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atombath import correlations
from atombath.coefficients import BathParams, Coupling, DetectorParams, doppler_shifts
from atombath.correlations import (
    MARKOV_MIN_TEMP_RATIO,
    PoleProximityWarning,
    markov_diagnostic,
    thermal_sin_transform,
    vacuum_wightman,
    wightman_coincidence,
    wightman_derivative,
    wightman_derivative_fd,
    wightman_moving,
    wightman_moving_quadrature,
    wightman_static,
    wightman_static_quadrature,
)

from make_reference import reference

FOUR_PI2 = 4.0 * math.pi ** 2


def _detector(v):
    return DetectorParams(omega=1.0, lam=1.0, velocity=v)


# --- static worldline arguments -----------------------------------------------

_STATIC = [wightman_static, wightman_static_quadrature]


@pytest.mark.parametrize("static", _STATIC, ids=["closed", "quadrature"])
def test_static_epsilon_defaults_to_beta_fraction(static):
    bath = BathParams(beta=2.0)
    assert static(1.0, bath) == static(1.0, bath, r=0.0, epsilon=2e-3)
    assert static(1.0, bath).imag == vacuum_wightman(1.0, 2e-3).imag


@pytest.mark.parametrize("static", _STATIC, ids=["closed", "quadrature"])
def test_static_validation(static):
    with pytest.raises(ValueError, match=r"^beta"):
        static(1.0, BathParams(beta=0.0))
    bath = BathParams(beta=1.0)
    with pytest.raises(ValueError, match=r"^r must be non-negative and finite"):
        static(1.0, bath, r=-0.5)
    with pytest.raises(ValueError, match=r"^epsilon must lie in"):
        static(1.0, bath, epsilon=0.0)
    with pytest.raises(ValueError, match=r"^epsilon must lie in"):
        # regulator capped at a tenth of the thermal time
        static(1.0, bath, epsilon=0.2)
    static(1.0, bath, epsilon=0.1)


@pytest.mark.parametrize("r", [math.nan, math.inf])
@pytest.mark.parametrize("static", _STATIC, ids=["closed", "quadrature"])
def test_static_correlators_reject_non_finite_distances(static, r):
    with pytest.raises(ValueError, match=r"^r must be non-negative and finite"):
        static(1.0, BathParams(beta=1.0), r=r)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "correlator",
    [
        lambda s: wightman_moving(s, DetectorParams(1.0, 0.1, 0.5), BathParams(1.0)),
        lambda s: wightman_derivative(s, DetectorParams(1.0, 0.1, 0.0), BathParams(1.0)),
        lambda s: wightman_static(s, BathParams(1.0), r=0.5),
        lambda s: wightman_static_quadrature(s, BathParams(1.0), r=0.5),
        lambda s: wightman_moving_quadrature(s, DetectorParams(1.0, 0.1, 0.5), BathParams(1.0)),
        lambda s: wightman_derivative_fd(s, DetectorParams(1.0, 0.1, 0.5), BathParams(1.0)),
        lambda s: wightman_coincidence(s, 1.0),
    ],
    ids=[
        "moving", "derivative", "static", "static-quadrature", "moving-quadrature", "fd",
        "coincidence",
    ],
)
def test_correlators_reject_non_finite_separations(s, correlator):
    # refused before any quadrature, not warned of as a light-cone pole
    with pytest.raises(ValueError, match=r"^separation s must be finite"):
        correlator(s)


# --- building blocks ---------------------------------------------------------


def test_vacuum_wightman_closed_form():
    s, eps, r = 0.9, 1e-3, 0.4
    sc = complex(s, -eps)
    assert vacuum_wightman(s, eps, r) == pytest.approx(
        -1.0 / (FOUR_PI2 * (sc * sc - r * r)), rel=1e-15
    )
    with pytest.raises(ValueError):
        vacuum_wightman(1.0, 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: thermal_sin_transform(1.0, math.inf), r"^beta must be positive and finite"),
        (lambda: thermal_sin_transform(math.nan, 1.0), r"p finite, got beta=1.0, p=nan$"),
        (lambda: vacuum_wightman(1.0, math.inf), r"^epsilon must be positive and finite"),
        (lambda: vacuum_wightman(math.nan, 1e-3), r"s finite, got epsilon=0.001, s=nan$"),
        (lambda: vacuum_wightman(1.0, 1e-3, math.nan), r"^r must be non-negative .*, got nan$"),
        (lambda: vacuum_wightman(1.0, 1e-3, math.inf), r"^r must be non-negative .*, got inf$"),
        (lambda: vacuum_wightman(1.0, 1e-3, -1.0), r"^r must be non-negative .*, got -1.0$"),
    ],
    ids=[
        "sin-transform-beta-inf", "sin-transform-p-nan", "vacuum-epsilon-inf", "vacuum-s-nan",
        "vacuum-r-nan", "vacuum-r-inf", "vacuum-r-negative",
    ],
)
def test_correlator_helpers_reject_non_finite_input(call, message):
    # each returned a number (0.0, nan, nan+nanj, nan+nanj, nan+nanj,
    # nan+nanj) in place of an error, or took a negative distance
    with pytest.raises(ValueError, match=message):
        call()


def test_thermal_sin_transform_closed_form_and_quadrature():
    from scipy.integrate import quad

    for beta in (0.7, 1.3):
        for p in (0.3, 0.8, 2.5):
            closed = math.pi / (2.0 * beta) / math.tanh(math.pi * p / beta) - 1.0 / (
                2.0 * p
            )
            assert thermal_sin_transform(p, beta) == pytest.approx(closed, rel=1e-13)
            ref, _ = quad(
                lambda k: math.sin(p * k) / math.expm1(beta * k),
                0.0,
                80.0 / beta,
                limit=800,
                epsabs=1e-13,
                epsrel=1e-12,
            )
            assert thermal_sin_transform(p, beta) == pytest.approx(ref, abs=1e-9)
    assert thermal_sin_transform(0.8, 1.3) == pytest.approx(
        0.6349655690683287, rel=1e-13
    )


def test_thermal_sin_transform_small_argument_series():
    # series branch engages below pi*p/beta = 0.1; straddle the seam
    beta = 1.0
    p_seam = 0.1 * beta / math.pi
    lo = thermal_sin_transform(0.999 * p_seam, beta)
    hi = thermal_sin_transform(1.001 * p_seam, beta)
    mid = math.pi / (2.0 * beta) / math.tanh(0.1) - 1.0 / (2.0 * p_seam)
    assert lo < mid < hi or hi < mid < lo
    assert abs(hi - lo) < 2e-4
    for frac in (0.999, 1.001):
        p = frac * p_seam
        closed = math.pi / (2.0 * beta) / math.tanh(math.pi * p / beta) - 1.0 / (2.0 * p)
        assert thermal_sin_transform(p, beta) == pytest.approx(closed, rel=1e-11)
    with pytest.raises(ValueError, match=r"^beta must be positive"):
        thermal_sin_transform(p, 0.0)


def test_thermal_sin_transform_takes_a_complex_argument():
    # regulator-shifted arguments; the last lies inside the series radius,
    # where the closed form itself cancels down to ~1e-13
    beta = 1.3
    for p, rel in (
        (complex(0.8, -1e-3), 1e-12),
        (complex(-2.5, -0.05), 1e-12),
        (complex(0.05, -1e-3), 1e-12),
        (complex(0.03, -1e-3), 1e-11),
    ):
        y = math.pi * p / beta
        closed = math.pi / (2.0 * beta) / cmath.tanh(y) - 1.0 / (2.0 * p)
        assert thermal_sin_transform(p, beta) == pytest.approx(closed, rel=rel)


def test_coincidence_term_and_static_identity():
    # static r = 0 value decomposes as vacuum + pole subtraction + image sum
    for beta in (0.5, 2.0):
        for s in (0.3, 1.1):
            w = wightman_static(s, BathParams(beta=beta))
            vac = vacuum_wightman(s, 1e-3 * beta)
            thermal = 1.0 / (FOUR_PI2 * s * s) + wightman_coincidence(s, beta)
            assert w == pytest.approx(vac + thermal, rel=1e-12)
    with pytest.raises(ValueError):
        wightman_coincidence(0.0, 1.0)
    for beta in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match=r"^beta must be positive and finite"):
            wightman_coincidence(1.0, beta)
    with pytest.raises(ValueError):
        wightman_coincidence(1.0, -1.0)


# --- closed forms vs quadrature ----------------------------------------------


def test_static_matches_quadrature():
    for beta in (0.5, 2.0):
        for s in (0.3, 0.7, 1.5):
            for r in (0.0, 0.2, 1.0):
                args = (s * beta, BathParams(beta=beta), r * beta)
                w = wightman_static(*args)
                ref = wightman_static_quadrature(*args)
                assert w.real == pytest.approx(ref.real, abs=1e-10)
                assert w.imag == ref.imag  # same vacuum kernel on both sides


def test_moving_matches_quadrature():
    for beta in (0.5, 2.0):
        bath = BathParams(beta=beta)
        for v in (0.0, 0.3, 0.7):
            d = _detector(v)
            for s in (0.3 * beta, 0.7 * beta, 1.5 * beta):
                w = wightman_moving(s, d, bath)
                ref = wightman_moving_quadrature(s, d, bath)
                assert w.real == pytest.approx(ref.real, abs=1e-10)
                assert w.imag == ref.imag


@pytest.mark.parametrize("beta_omega", [0.01, 0.5, 5.0, 50.0, 700.0])
def test_mode_sum_column_agrees_with_the_closed_form_hot_and_cold(beta_omega):
    # the CLI's udw oracle column, one call per (beta_omega, v) block over
    # s in [0.1 beta, beta]: within the oracle's own acceptance bound,
    # 1e-8 of max(|W|, 1e-4), and with the closed form's vacuum part
    bath = BathParams(beta=beta_omega)
    grid = np.linspace(0.1 * beta_omega, beta_omega, 25).tolist()
    for v in (0.0, 0.5, 0.9):
        d = _detector(v)
        closed, oracle = wightman_moving(grid, d, bath), wightman_moving_quadrature(grid, d, bath)
        for w, q in zip(closed, oracle):
            assert abs(q.real - w.real) <= 1e-8 * max(abs(w.real), 1e-4)
            assert q.imag == w.imag


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_moving_quadrature_refuses_a_non_finite_separation(bad):
    # checked with the regulator, once per block, before any quadrature
    with pytest.raises(ValueError, match=r"^separation s must be finite"):
        wightman_moving_quadrature([0.5, bad, 1.0], _detector(0.5), BathParams(beta=1.0))


def test_moving_quadrature_is_continuous_in_the_speed():
    # the static mode sum at the boosted separation: no 1/v, no v = 0 branch
    bath = BathParams(beta=1.0)
    rest = wightman_moving_quadrature(2.0, _detector(0.0), bath)
    assert rest == wightman_static_quadrature(2.0, bath)
    slow = wightman_moving_quadrature(2.0, _detector(2e-6), bath)
    assert slow.real == pytest.approx(rest.real, rel=0, abs=1e-15)


# one (beta, v) block of separations, each 0.05 to 2 thermal times long
_BLOCK = dict(
    beta=st.floats(0.25, 4.0),
    v=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    fractions=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=12),
)


def _block_mode_sum(beta, v, fractions):
    # the moving oracle's thermal part over the block, with error estimates
    g = _detector(v).lorentz_gamma
    s = np.array(fractions) * beta
    return correlations._thermal_quadrature(g * s, g * v * s, beta, "moving")


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(**_BLOCK)
def test_block_mode_sum_agrees_with_point_calls_within_their_estimates(beta, v, fractions):
    values, errors = _block_mode_sum(beta, v, fractions)
    for i in range(len(fractions)):
        value, error = _block_mode_sum(beta, v, fractions[i : i + 1])
        assert abs(values[i] - value[0]) <= errors[i] + error[0]


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(slice_length=st.integers(1, 5), **_BLOCK)
def test_slicing_a_block_moves_no_value_beyond_its_estimates(slice_length, beta, v, fractions):
    values, errors = _block_mode_sum(beta, v, fractions)
    with mock.patch.object(correlations, "_MODE_SUM_SLICE", slice_length):
        sliced, sliced_errors = _block_mode_sum(beta, v, fractions)
    assert np.all(np.abs(values - sliced) <= errors + sliced_errors)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(**_BLOCK)
def test_block_oracle_has_the_closed_forms_imaginary_part(beta, v, fractions):
    bath, d = BathParams(beta=beta), _detector(v)
    s = [f * beta for f in fractions]
    block = wightman_moving_quadrature(s, d, bath)
    assert len(block) == len(s) and all(type(w) is complex for w in block)
    closed = [wightman_moving(x, d, bath) for x in s]
    assert [w.imag for w in block] == [w.imag for w in closed]
    assert all(abs(q.real - w.real) < 1e-10 for q, w in zip(block, closed))


def test_moving_quadrature_of_a_float_is_a_complex_and_of_a_list_a_list():
    bath, d = BathParams(beta=1.0), _detector(0.5)
    w = wightman_moving_quadrature(0.7, d, bath)
    assert type(w) is complex
    assert wightman_moving_quadrature([0.7], d, bath) == [w]
    s = [0.3, 0.7, 2.5]
    block = wightman_moving_quadrature(s, d, bath)
    assert all(type(x) is complex for x in block) and len(block) == 3
    assert wightman_moving_quadrature([], d, bath) == []


def test_static_branch_in_a_bath_whose_beta_powers_underflow():
    # 4 beta^2 underflows at beta = 1e-170 and beta^4 at 1e-100; at s = 1
    # the thermal parts are their power tails, the exponentials long gone
    s, d = 1.0, _detector(0.0)
    beta = 1e-170
    vac = vacuum_wightman(s, 1e-3 * beta)
    thermal = wightman_moving(s, d, BathParams(beta=beta)) - vac
    assert thermal == pytest.approx(1.0 / (FOUR_PI2 * s * s), rel=1e-15, abs=0)
    for beta in (1e-100, 1e-200):
        vac = 3.0 / (2.0 * math.pi ** 2 * complex(s, -1e-3 * beta) ** 4)
        thermal = wightman_derivative(s, d, BathParams(beta=beta)) - vac
        assert thermal == pytest.approx(-3.0 / (2.0 * math.pi ** 2 * s ** 4), rel=1e-15, abs=0)


def test_coincidence_image_term_where_4_beta_squared_underflows():
    # 4 beta^2 underflows at beta = 1e-170; the image term is finite from
    # pi s/beta ~ 37 on, where csch^2 is its exponential tail
    beta = 1e-170
    x = 40.0
    s = x * beta / math.pi
    assert wightman_coincidence(s, beta) == pytest.approx(-((math.exp(-x) / beta) ** 2), rel=1e-14)
    # at s = 1 it is gone, and the thermal correction is its power tail
    assert 1.0 / FOUR_PI2 + wightman_coincidence(1.0, beta) == 1.0 / FOUR_PI2


def _thermal_part(coupling, s, detector, bath, epsilon=None):
    # the closed form minus its vacuum kernel
    eps = 1e-3 * bath.beta if epsilon is None else epsilon
    if coupling == "udw":
        return wightman_moving(s, detector, bath, eps) - vacuum_wightman(s, eps)
    vac = 3.0 / (2.0 * math.pi ** 2 * complex(s, -eps) ** 4)
    return wightman_derivative(s, detector, bath, eps) - vac


def test_static_derivative_series_at_its_radius():
    # pi s/beta = 0.099, just inside the series radius, where a table cut
    # one order short was 7.7e-8 off
    for beta, v, s, value in reference("td_static_thermal"):
        assert math.pi * s / beta == pytest.approx(0.099, rel=1e-15)
        th = _thermal_part("td", s, _detector(v), BathParams(beta=beta))
        assert th.real == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("coupling, rel", [("udw", 1e-10), ("td", 2e-8)])
def test_moving_pair_is_continuous_across_each_terms_series_switch(coupling, rel):
    # each Doppler term switches to its series where |pi shift s/beta|
    # crosses 0.1; both sides of every switch match the exact value, so
    # the switch moves the thermal part by no more than 2 rel.  The td
    # tolerance is the closed form's own cancellation just outside the
    # radius at v = 0.01 (7.7e-9)
    rows = reference(f"{coupling}_pair_thermal")
    assert {v for _, v, _, _ in rows} == {0.01, 0.5, 0.99}
    for (beta, v, s_in, inside), (_, _, s_out, outside) in zip(rows[::2], rows[1::2]):
        red, blue = doppler_shifts(v)
        assert any(
            abs(math.pi * d * s_in / beta) < 0.1 <= abs(math.pi * d * s_out / beta)
            for d in (red, blue)
        )
        bath, d = BathParams(beta=beta), _detector(v)
        a = _thermal_part(coupling, s_in, d, bath).real
        b = _thermal_part(coupling, s_out, d, bath).real
        assert a == pytest.approx(inside, rel=rel)
        assert b == pytest.approx(outside, rel=rel)


@pytest.mark.parametrize("coupling, rel", [("udw", 1e-10), ("td", 1e-8)])
@pytest.mark.parametrize("v", [0.0, 0.5, 0.9])
def test_pole_shifted_terms_are_continuous_across_the_series_radius(coupling, rel, v):
    # at s = 0 the separation is -i eps, so the term of Doppler factor d
    # leaves its series where pi d eps/beta crosses 0.1 and takes the complex
    # hyperbolic closed form; td's tolerance is W's rounding over W - vac
    bath, det = BathParams(beta=1.0), _detector(v)
    red, blue = doppler_shifts(v)
    switches = [1.0] if v == 0.0 else [d for d in (red, blue) if math.pi * d > 1.0]
    assert switches
    for d in switches:
        eps = 0.1 / (math.pi * d)
        with pytest.warns(PoleProximityWarning):
            inside = _thermal_part(coupling, 0.0, det, bath, eps * (1.0 - 1e-9))
        with pytest.warns(PoleProximityWarning):
            outside = _thermal_part(coupling, 0.0, det, bath, eps * (1.0 + 1e-9))
        assert outside.real == pytest.approx(inside.real, rel=rel), d
        assert inside.real > 0.0


def test_frozen_values():
    d = _detector(0.5)
    bath = BathParams(beta=1.0)
    w = wightman_moving(0.7, d, bath)
    assert w.real == pytest.approx(-0.016773939429671952, rel=1e-12)
    assert w.imag == pytest.approx(-0.0001476979155798137, rel=1e-12)
    wd = wightman_derivative(0.7, d, bath)
    assert wd.real == pytest.approx(0.5261421101669074, rel=1e-12)
    assert wd.imag == pytest.approx(0.003617069664733149, rel=1e-12)
    ws = wightman_static(0.6, BathParams(beta=2.0), r=0.9)
    assert ws.real == pytest.approx(0.07283333748960621, rel=1e-12)
    assert ws.imag == pytest.approx(-0.00030019703869786304, rel=1e-12)


def test_derivative_matches_finite_difference():
    for beta in (0.5, 2.0):
        bath = BathParams(beta=beta)
        for v in (0.0, 0.3, 0.7):
            d = _detector(v)
            for s in (0.3 * beta, 0.7 * beta, 1.5 * beta):
                w = wightman_derivative(s, d, bath)
                ref = wightman_derivative_fd(s, d, bath)
                assert abs(w - ref) <= 1e-5 * abs(w)


# --- limits and symmetries ---------------------------------------------------


def test_moving_reduces_to_static_at_small_velocity():
    # the v < 1e-6 branch must join continuously onto the moving formula
    bath = BathParams(beta=1.0)
    slow = _detector(1e-5)
    rest = _detector(0.0)
    for s in (0.4, 1.2):
        a = wightman_moving(s, slow, bath)
        b = wightman_moving(s, rest, bath)
        assert abs(a - b) < 1e-8 * abs(b)
        da = wightman_derivative(s, slow, bath)
        db = wightman_derivative(s, rest, bath)
        assert abs(da - db) < 1e-8 * abs(db)


def test_static_r_to_zero_continuity():
    for beta in (0.5, 2.0):
        for s in (0.4, 1.2):
            small = wightman_static(s, BathParams(beta=beta), r=1e-6)
            zero = wightman_static(s, BathParams(beta=beta))
            # absolute floor covers the sine-transform difference noise
            assert abs(small - zero) < 1e-8 * abs(zero) + 1e-9


def test_negative_separation_is_conjugate():
    bath = BathParams(beta=1.0)
    d = _detector(0.6)
    for s in (0.3, 0.9, 2.0):
        assert wightman_moving(-s, d, bath) == pytest.approx(
            wightman_moving(s, d, bath).conjugate(), rel=1e-13
        )
        assert wightman_derivative(-s, d, bath) == pytest.approx(
            wightman_derivative(s, d, bath).conjugate(), rel=1e-13
        )
        assert wightman_static(-s, bath, r=0.5) == pytest.approx(
            wightman_static(s, bath, r=0.5).conjugate(), rel=1e-13
        )


def test_moving_frame_agrees_with_lab_frame():
    # boost invariance: the comoving correlation equals the static one
    # evaluated at the boosted coordinates, with the regulator rescaled
    # by the time dilation factor
    eps = 1e-5
    for v in (0.3, 0.7):
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        d = _detector(v)
        bath = BathParams(beta=1.0)
        for s in (0.5, 1.2):
            moving = wightman_moving(s, d, bath, epsilon=eps)
            static = wightman_static(gamma * s, bath, r=gamma * v * s, epsilon=eps / gamma)
            assert abs(moving - static) < 1e-7 * abs(moving)


def test_derivative_tail_decays_exponentially():
    # power-law tails of vacuum and thermal parts cancel; what is left
    # must drop much faster than the bare 3/(2 pi^2 s^4) kernel
    bath = BathParams(beta=1.0)
    d = _detector(0.5)
    s = 8.0
    w = wightman_derivative(s, d, bath)
    bare = 3.0 / (2.0 * math.pi ** 2 * s ** 4)
    # the imaginary part is regulator dominated out here; the physical
    # real part must sit far below the bare kernel
    assert abs(w.real) < 1e-4 * bare


def test_pole_proximity_warning():
    bath = BathParams(beta=1.0)
    d = _detector(0.4)
    with pytest.warns(PoleProximityWarning):
        wightman_moving(5e-5, d, bath)  # default epsilon 1e-3
    with pytest.warns(PoleProximityWarning):
        wightman_derivative(5e-5, d, bath)
    with pytest.warns(PoleProximityWarning):
        wightman_static(5e-5, bath)
    # comfortably away from the pole: no warning
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        wightman_moving(0.5, d, bath)


@pytest.mark.parametrize(
    "query",
    [
        lambda: wightman_static(5e-5, BathParams(beta=1.0)),
        lambda: wightman_static(0.5 + 5e-5, BathParams(beta=1.0), r=0.5),
        lambda: wightman_moving(5e-5, _detector(0.4), BathParams(beta=1.0)),
        lambda: wightman_derivative(5e-5, _detector(0.4), BathParams(beta=1.0)),
    ],
    ids=["static-coincidence", "static-light-cone", "moving", "derivative"],
)
def test_pole_warning_fires_once_at_the_callers_line(query):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        query()
    assert [w.category for w in caught] == [PoleProximityWarning]
    assert caught[0].filename == __file__


# --- list form ------------------------------------------------------------------


_CLOSED_FORMS = {"udw": wightman_moving, "td": wightman_derivative}


def _switch_grid(beta, v):
    # separations on both sides of every _SERIES_RADIUS switch the closed
    # forms meet at this speed (|pi d s/beta| = 0.1 for d = 1, red, blue),
    # plus a spread of ordinary ones and their negatives
    factors = (1.0,) if v < correlations._V_STATIC else doppler_shifts(v)
    grid = [0.1 * beta, 0.7 * beta, 2.0 * beta, 30.0 * beta]
    for d in factors:
        edge = correlations._SERIES_RADIUS * beta / (math.pi * d)
        grid += [edge * (1.0 - 1e-9), edge, edge * (1.0 + 1e-9)]
    return grid + [-s for s in grid]


@pytest.mark.parametrize("coupling", ["udw", "td"])
@pytest.mark.parametrize("v", [0.0, 1e-7, 0.5, 0.99])
@pytest.mark.parametrize("beta", [0.01, 1.0, 100.0])
def test_a_list_of_separations_gives_the_float_calls_values(beta, v, coupling):
    det, bath = DetectorParams(1.0, 1.0, v, Coupling(coupling)), BathParams(beta)
    grid = _switch_grid(beta, v)
    closed = _CLOSED_FORMS[coupling]
    assert closed(grid, det, bath) == [closed(s, det, bath) for s in grid]
    fd_grid = grid[:3] + grid[-3:]  # five closed forms per point
    assert wightman_derivative_fd(fd_grid, det, bath) == [
        wightman_derivative_fd(s, det, bath) for s in fd_grid
    ]


@pytest.mark.parametrize(
    "call", [wightman_moving, wightman_derivative, wightman_derivative_fd],
    ids=["moving", "derivative", "fd"],
)
def test_a_list_near_the_pole_warns_and_shifts_as_the_float_calls_do(call):
    det, bath = _detector(0.5), BathParams(beta=1.0)
    grid = [0.0, 5e-5, 0.3, -2e-5, 1.2]  # three within eps/10 = 1e-4 of the pole
    with warnings.catch_warnings(record=True) as listed:
        warnings.simplefilter("always")
        values = call(grid, det, bath)
    with warnings.catch_warnings(record=True) as single:
        warnings.simplefilter("always")
        expected = [call(s, det, bath) for s in grid]
    assert values == expected
    assert len(listed) == len(single) > 0
    assert {w.category for w in listed} == {PoleProximityWarning}
    assert all(w.filename == __file__ for w in listed)


@pytest.mark.parametrize(
    "call", [wightman_moving, wightman_derivative, wightman_derivative_fd],
    ids=["moving", "derivative", "fd"],
)
def test_a_list_is_refused_if_any_separation_is_not_finite(call):
    det, bath = _detector(0.5), BathParams(beta=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^separation s must be finite, got "):
            call([0.5, 1.0, bad, 2.0], det, bath)
    assert call([], det, bath) == []
    with pytest.raises(ValueError, match=r"^epsilon must lie in"):
        call([], det, bath, 0.5)  # the regulator is checked even for no separations


def test_markov_diagnostic():
    bath = BathParams(beta=2.0)
    d = DetectorParams(omega=1.0, lam=1.0, velocity=0.6)
    diag = markov_diagnostic(d, bath)
    assert diag.correlation_time == 2.0
    assert diag.redshifted_temperature == pytest.approx(0.25, rel=1e-15)
    assert diag.valid
    cold = markov_diagnostic(_detector(0.0), BathParams(beta=20.0))
    assert cold.redshifted_temperature == pytest.approx(0.05, rel=1e-15)
    assert not cold.valid
    # the flag flips exactly at the documented ratio
    edge = markov_diagnostic(_detector(0.0), BathParams(beta=1.0 / MARKOV_MIN_TEMP_RATIO))
    assert edge.valid
