"""Thermal correlation functions against quadrature and finite differences."""

import cmath
import math
import warnings

import pytest

from atombath.coefficients import BathParams, DetectorParams
from atombath.correlations import (
    MARKOV_MIN_TEMP_RATIO,
    CorrelationQuery,
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

FOUR_PI2 = 4.0 * math.pi ** 2


def _detector(v):
    return DetectorParams(omega=1.0, lam=1.0, velocity=v)


# --- query container ---------------------------------------------------------


def test_query_epsilon_defaults_to_beta_fraction():
    q = CorrelationQuery(s=1.0, beta=2.0)
    assert q.epsilon == pytest.approx(2e-3, rel=1e-15)
    assert q.r == 0.0


def test_query_validation():
    with pytest.raises(ValueError):
        CorrelationQuery(s=1.0, beta=0.0)
    with pytest.raises(ValueError):
        CorrelationQuery(s=1.0, beta=1.0, r=-0.5)
    with pytest.raises(ValueError):
        CorrelationQuery(s=1.0, beta=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        # regulator capped at a tenth of the thermal time
        CorrelationQuery(s=1.0, beta=1.0, epsilon=0.2)
    CorrelationQuery(s=1.0, beta=1.0, epsilon=0.1)


# --- building blocks ---------------------------------------------------------


def test_vacuum_wightman_closed_form():
    s, eps, r = 0.9, 1e-3, 0.4
    sc = complex(s, -eps)
    assert vacuum_wightman(s, eps, r) == pytest.approx(
        -1.0 / (FOUR_PI2 * (sc * sc - r * r)), rel=1e-15
    )
    with pytest.raises(ValueError):
        vacuum_wightman(1.0, 0.0)


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
            q = CorrelationQuery(s=s, beta=beta)
            w = wightman_static(q)
            vac = vacuum_wightman(s, q.epsilon)
            thermal = 1.0 / (FOUR_PI2 * s * s) + wightman_coincidence(s, beta)
            assert w == pytest.approx(vac + thermal, rel=1e-12)
    with pytest.raises(ValueError):
        wightman_coincidence(0.0, 1.0)
    with pytest.raises(ValueError):
        wightman_coincidence(1.0, -1.0)


# --- closed forms vs quadrature ----------------------------------------------


def test_static_matches_quadrature():
    for beta in (0.5, 2.0):
        for s in (0.3, 0.7, 1.5):
            for r in (0.0, 0.2, 1.0):
                q = CorrelationQuery(s=s * beta, beta=beta, r=r * beta)
                w = wightman_static(q)
                ref = wightman_static_quadrature(q)
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


def test_frozen_values():
    d = _detector(0.5)
    bath = BathParams(beta=1.0)
    w = wightman_moving(0.7, d, bath)
    assert w.real == pytest.approx(-0.016773939429671952, rel=1e-12)
    assert w.imag == pytest.approx(-0.0001476979155798137, rel=1e-12)
    wd = wightman_derivative(0.7, d, bath)
    assert wd.real == pytest.approx(0.5261421101669074, rel=1e-12)
    assert wd.imag == pytest.approx(0.003617069664733149, rel=1e-12)
    ws = wightman_static(CorrelationQuery(s=0.6, beta=2.0, r=0.9))
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
            small = wightman_static(CorrelationQuery(s=s, beta=beta, r=1e-6))
            zero = wightman_static(CorrelationQuery(s=s, beta=beta))
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
        q = CorrelationQuery(s=s, beta=1.0, r=0.5)
        qm = CorrelationQuery(s=-s, beta=1.0, r=0.5)
        assert wightman_static(qm) == pytest.approx(
            wightman_static(q).conjugate(), rel=1e-13
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
            static = wightman_static(
                CorrelationQuery(s=gamma * s, beta=1.0, r=gamma * v * s, epsilon=eps / gamma)
            )
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
        wightman_static(CorrelationQuery(s=5e-5, beta=1.0))
    # comfortably away from the pole: no warning
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        wightman_moving(0.5, d, bath)


@pytest.mark.parametrize(
    "query",
    [
        lambda: wightman_static(CorrelationQuery(s=5e-5, beta=1.0)),
        lambda: wightman_static(CorrelationQuery(s=0.5 + 5e-5, beta=1.0, r=0.5)),
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
