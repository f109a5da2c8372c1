"""Concurrence routes that must agree, and the death-time root they share."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atombath.coefficients import (
    BathParams,
    Coupling,
    DetectorParams,
    LindbladCoefficients,
    lindblad_coefficients,
)
from atombath.dynamics import bell_state, shared_state
from atombath.entanglement import (
    XState,
    concurrence,
    concurrence_closed_form,
    concurrence_xstate,
    sudden_death_time,
    sudden_death_time_bisection,
)

from xstates import random_xstate

COEFFS = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=1.3)


def _haar_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- spectral concurrence ------------------------------------------------------


def test_bell_state_is_maximally_entangled():
    assert concurrence(bell_state()) == pytest.approx(1.0, abs=1e-14)


def test_product_states_carry_none():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.dirichlet((1.0, 1.0))
        b = rng.dirichlet((1.0, 1.0))
        rho = np.kron(np.diag(a), np.diag(b)).astype(complex)
        assert concurrence(rho) == 0.0
    assert concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_werner_curve():
    bell = bell_state()
    mixed = np.eye(4, dtype=complex) / 4.0
    for p in (0.0, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = p * bell + (1.0 - p) * mixed
        expect = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(rho) == pytest.approx(expect, abs=1e-12)


def test_local_unitary_invariance():
    rng = np.random.default_rng(9)
    rho = shared_state(COEFFS, 0.4)
    base = concurrence(rho)
    for _ in range(5):
        u = np.kron(_haar_unitary(rng), _haar_unitary(rng))
        rotated = u @ rho @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)  # scrub roundoff skew
        assert concurrence(rotated) == pytest.approx(base, abs=1e-11)


def test_concurrence_rejects_invalid_input():
    bad = np.array(
        [[0.5, 0.3, 0, 0], [0.1, 0.2, 0, 0], [0, 0, 0.2, 0], [0, 0, 0, 0.1]],
        dtype=complex,
    )
    with pytest.raises(ValueError):
        concurrence(bad)


# --- X states -------------------------------------------------------------------


def test_xstate_round_trip_and_formula():
    rng = np.random.default_rng(31)
    for _ in range(300):
        x = random_xstate(rng)
        rho = x.to_matrix()
        back = XState.from_matrix(rho)
        assert back.d1 == pytest.approx(x.d1, abs=1e-14)
        assert back.a14 == pytest.approx(x.a14, abs=1e-14)
        # closed formula against the spectral definition
        assert concurrence_xstate(x) == pytest.approx(concurrence(rho), abs=1e-10)


def test_xstate_validation():
    with pytest.raises(ValueError):
        XState(d1=0.5, d2=0.5, d3=0.5, d4=-0.5)  # negative population
    with pytest.raises(ValueError):
        XState(d1=0.5, d2=0.5, d3=0.5, d4=0.5)  # trace 2
    with pytest.raises(ValueError):
        # coherence above the positivity bound sqrt(d1 d4)
        XState(d1=0.25, d2=0.25, d3=0.25, d4=0.25, a14=0.3 + 0j)


def test_from_matrix_rejects_stray_entries():
    rho = bell_state()
    rho = rho.copy()
    rho[0, 1] = 0.05
    rho[1, 0] = 0.05
    with pytest.raises(ValueError):
        XState.from_matrix(rho)


def test_evolved_bell_is_an_x_state():
    for tau in (0.0, 0.5, 2.0):
        rho = shared_state(COEFFS, tau)
        x = XState.from_matrix(rho)
        assert concurrence_xstate(x) == pytest.approx(concurrence(rho), abs=1e-12)


# --- closed-form curve -----------------------------------------------------------


def test_closed_form_tracks_evolved_state():
    for tau in (0.0, 0.2, 0.5, 0.9, 1.5, 3.0):
        direct = concurrence(shared_state(COEFFS, tau))
        assert concurrence_closed_form(COEFFS, tau) == pytest.approx(direct, abs=1e-12)


def test_closed_form_frozen_value():
    assert concurrence_closed_form(COEFFS, 0.5) == pytest.approx(
        0.3328144286126601, rel=1e-12
    )
    assert concurrence_closed_form(COEFFS, 0.0) == 1.0


def test_concurrence_ignores_detuning():
    # the coherent rotation moves phases, never the coherence magnitude
    detuned = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=7.3, delta_omega=6.0)
    for tau in (0.3, 0.9):
        assert concurrence_closed_form(detuned, tau) == pytest.approx(
            concurrence_closed_form(COEFFS, tau), rel=1e-14
        )
        assert concurrence(shared_state(detuned, tau)) == pytest.approx(
            concurrence(shared_state(COEFFS, tau)), abs=1e-13
        )


# --- sudden death ---------------------------------------------------------------


def test_death_time_root_and_bisection():
    t = sudden_death_time(COEFFS)
    assert t == pytest.approx(0.9866469610448342, rel=1e-12)
    assert concurrence_closed_form(COEFFS, t) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_closed_form(COEFFS, 0.999 * t) > 0.0
    assert concurrence_closed_form(COEFFS, 1.001 * t) == 0.0
    assert abs(sudden_death_time_bisection(COEFFS) - t) < 1e-9


def test_death_time_random_coefficients():
    rng = np.random.default_rng(41)
    for _ in range(25):
        gamma = rng.uniform(0.3, 3.0)
        n = rng.uniform(1e-3, 2.0)
        c = LindbladCoefficients(gamma=gamma, n=n, omega_eff=rng.uniform(0.0, 5.0))
        t = sudden_death_time(c)
        assert math.isfinite(t) and t > 0.0
        assert abs(concurrence_closed_form(c, t)) < 1e-10
        assert abs(sudden_death_time_bisection(c) - t) < 1e-9


def test_bisection_ends_when_tol_is_below_the_float_spacing():
    # a tiny gamma puts the root near 1e29, where adjacent doubles are
    # ~1e13 apart: the bracket stops shrinking long before 1e-12
    slow = LindbladCoefficients(gamma=1e-30, n=0.5, omega_eff=1.0)
    t = sudden_death_time(slow)
    assert sudden_death_time_bisection(slow) == pytest.approx(t, rel=1e-12)


def test_zero_temperature_never_dies():
    cold = LindbladCoefficients(gamma=1.0, n=0.0, omega_eff=1.0)
    assert math.isinf(sudden_death_time(cold))
    assert math.isinf(sudden_death_time_bisection(cold))
    # and the curve indeed stays positive far out
    assert concurrence_closed_form(cold, 60.0) > 0.0


def test_tiny_occupation_stays_stable():
    # (2n+1)^2 - 1 underflows around n = 1e-16; the root must not
    tiny = LindbladCoefficients(gamma=1.0, n=math.exp(-50.0), omega_eff=0.0)
    t = sudden_death_time(tiny)
    assert t == pytest.approx(50.0, rel=1e-12)
    assert abs(sudden_death_time_bisection(tiny) - t) < 1e-9
    tinier = LindbladCoefficients(gamma=0.5, n=1e-300, omega_eff=0.0)
    t2 = sudden_death_time(tinier)
    assert math.isfinite(t2)
    # -2 ln(sqrt(n))/a at leading order
    assert t2 == pytest.approx(-math.log(1e-300) / 0.5, rel=1e-10)


def test_huge_occupation_keeps_the_death_time_finite():
    # n (n+1) overflows here; the death time tends to -2 ln(sqrt(2) - 1)/a
    hot = LindbladCoefficients(gamma=1.0, n=1e200, omega_eff=0.0)
    assert sudden_death_time(hot) * hot.a == pytest.approx(
        -2.0 * math.log(math.sqrt(2.0) - 1.0), rel=1e-15
    )
    assert concurrence_closed_form(hot, 0.0) == 1.0


@pytest.mark.parametrize("coupling", list(Coupling))
@pytest.mark.parametrize("velocity", [0.0, 0.5])
@pytest.mark.parametrize("beta_omega", [1e-110, 1e-14, 1e-9, 1e-6, 0.5, 120.0, 300.0, 700.0])
def test_bisection_agrees_from_very_hot_to_very_cold_baths(beta_omega, velocity, coupling):
    det = DetectorParams(omega=1.0, lam=1.0, velocity=velocity, coupling=coupling)
    coeffs = lindblad_coefficients(det, BathParams(beta=beta_omega))
    t = sudden_death_time(coeffs)
    assert math.isfinite(t)
    assert sudden_death_time_bisection(coeffs) == pytest.approx(t, rel=1e-12, abs=0.0)


def test_death_time_decreases_with_occupation():
    times = [
        sudden_death_time(LindbladCoefficients(gamma=1.0, n=n, omega_eff=0.0))
        for n in (0.05, 0.1, 0.3, 0.7, 1.5, 3.0)
    ]
    assert all(a > b for a, b in zip(times, times[1:]))


# --- stacks of states ------------------------------------------------------------


def test_stacked_concurrence_equals_the_single_state_results():
    rng = np.random.default_rng(17)
    xstates = [random_xstate(rng).to_matrix() for _ in range(40)]
    evolved = shared_state(COEFFS, np.linspace(0.0, 3.0, 60))
    stack = np.concatenate([np.array(xstates), evolved])
    batched = concurrence(stack)
    assert batched.shape == (100,)
    assert batched.tolist() == [concurrence(rho) for rho in stack]
    # any leading shape; a single state is a float
    assert np.array_equal(concurrence(stack.reshape(4, 25, 4, 4)), batched.reshape(4, 25))
    assert type(concurrence(stack[0])) is float


def test_stacked_concurrence_rejects_a_bad_state_by_index():
    stack = shared_state(COEFFS, np.linspace(0.0, 1.0, 4)).copy()
    stack[2] *= 1.01
    with pytest.raises(ValueError, match=r"^state 2: trace must be 1"):
        concurrence(stack)


def _death_time(coupling, beta_omega, v):
    det = DetectorParams(omega=1.0, lam=1.0, velocity=v, coupling=coupling)
    return sudden_death_time(lindblad_coefficients(det, BathParams(beta=beta_omega)))


_SPEED = st.floats(min_value=0.0, max_value=0.99)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(log_b=st.floats(min_value=-8.0, max_value=2.0), v1=_SPEED, v2=_SPEED)
def test_derivative_coupling_death_comes_sooner_at_higher_speed(log_b, v1, v2):
    assume(abs(v2 - v1) >= 0.01)
    slow, fast = sorted((v1, v2))
    td = Coupling.DERIVATIVE
    assert _death_time(td, 10.0 ** log_b, fast) < _death_time(td, 10.0 ** log_b, slow)


# Monopole death is delayed by speed only in hot baths: on a 0.01 speed
# grid tau* rises strictly up to beta*omega = 2.5 but not from 2.6 on
# (at 3 it reads 2.880, 2.839, 3.169 at v = 0, 0.5, 0.99), so the
# property stops at 2.
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(log_b=st.floats(min_value=-8.0, max_value=math.log10(2.0)), v1=_SPEED, v2=_SPEED)
def test_monopole_death_comes_later_at_higher_speed_in_hot_baths(log_b, v1, v2):
    assume(abs(v2 - v1) >= 0.01)
    slow, fast = sorted((v1, v2))
    udw = Coupling.UDW
    assert _death_time(udw, 10.0 ** log_b, fast) > _death_time(udw, 10.0 ** log_b, slow)
