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
    _n_udw_taylor,
    gamma_udw,
    lindblad_coefficients,
    n_udw_quadrature,
)
from atombath.dynamics import PAULI_PAIR, bell_state, shared_state
from atombath.entanglement import (
    _spin_flip,
    concurrence,
    concurrence_closed_form,
    concurrence_xstate,
    sudden_death_time,
    sudden_death_time_bisection,
)

from make_reference import reference
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


def _xstate_formula(rho):
    # the X formula one state at a time, in Python floats and complex abs
    d = [rho[i, i].real for i in range(4)]
    outer = abs(complex(rho[0, 3])) - math.sqrt(max(d[1] * d[2], 0.0))
    inner = abs(complex(rho[1, 2])) - math.sqrt(max(d[0] * d[3], 0.0))
    return 2.0 * max(0.0, outer, inner)


def test_xstate_formula_matches_the_spectral_definition():
    rng = np.random.default_rng(31)
    stack = np.array([random_xstate(rng) for _ in range(300)])
    for rho in stack:
        assert concurrence_xstate(rho) == pytest.approx(concurrence(rho), abs=1e-10)
        assert concurrence_xstate(rho) == _xstate_formula(rho)
    # a stack gives the single states' floats, in an array of its leading shape
    batched = concurrence_xstate(stack.reshape(3, 100, 4, 4))
    assert batched.shape == (3, 100)
    assert batched.ravel().tolist() == [concurrence_xstate(rho) for rho in stack]
    assert type(concurrence_xstate(stack[0])) is float


def _x(d1, d2, d3, d4, a14=0j, a23=0j):
    # the X matrix with these populations and coherences
    rho = np.diag([d1, d2, d3, d4]).astype(complex)
    rho[0, 3], rho[3, 0] = a14, np.conj(a14)
    rho[1, 2], rho[2, 1] = a23, np.conj(a23)
    return rho


@pytest.mark.parametrize(
    "rho, message",
    [
        (_x(0.5, 0.5, 0.5, -0.5), "matrix has negative eigenvalue"),
        (_x(0.5, 0.5, 0.5, 0.5), "trace must be 1"),
        # each coherence above its positivity bound: sqrt(d1 d4), sqrt(d2 d3)
        (_x(0.25, 0.25, 0.25, 0.25, a14=0.3 + 0j), "matrix has negative eigenvalue"),
        (_x(0.25, 0.25, 0.25, 0.25, a23=0.3 + 0j), "matrix has negative eigenvalue"),
    ],
    ids=["negative-population", "trace-2", "outer-coherence", "inner-coherence"],
)
def test_xstate_route_refuses_unphysical_states(rho, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        concurrence_xstate(rho)


@pytest.mark.parametrize(
    "entries",
    [
        (math.nan, 0.5, 0.5, 0.0),
        (0.5, 0.5, 0.0, math.nan),
        (0.5, 0.0, 0.0, 0.5, complex(math.nan, 0.0)),
        (0.0, 0.5, 0.5, 0.0, 0j, complex(0.0, math.nan)),
    ],
    ids=["d1", "d4", "outer-coherence", "inner-coherence"],
)
def test_xstate_route_refuses_nan_entries(entries):
    with pytest.raises(ValueError, match=r"^matrix has a non-finite entry"):
        concurrence_xstate(_x(*entries))


def test_xstate_route_refuses_stray_entries():
    werner = 0.5 * bell_state() + np.eye(4) / 8.0  # concurrence 1/4
    rho = werner.copy()
    rho[0, 1] = 0.05
    rho[1, 0] = 0.05
    with pytest.raises(ValueError, match=r"^matrix is not X shaped: stray entry 5\.000e-02$"):
        concurrence_xstate(rho)
    # an entry at the tolerance is ignored; in a stack the first stray state is named
    rho[0, 1] = rho[1, 0] = 1e-12
    assert concurrence_xstate(rho) == pytest.approx(0.25, abs=1e-12)
    stack = np.array([werner, werner, werner])
    stack[1, 2, 0] = stack[1, 0, 2] = 1e-6
    with pytest.raises(ValueError, match=r"^state 1: matrix is not X shaped"):
        concurrence_xstate(stack)


def test_evolved_bell_is_an_x_state():
    taus = (0.0, 0.5, 2.0)
    for tau in taus:
        rho = shared_state(COEFFS, tau)
        assert concurrence_xstate(rho) == pytest.approx(concurrence(rho), abs=1e-12)
    stack = shared_state(COEFFS, np.array(taus))
    assert concurrence_xstate(stack).tolist() == [concurrence_xstate(rho) for rho in stack]


# --- closed-form curve -----------------------------------------------------------


def test_closed_form_tracks_evolved_state():
    for tau in (0.0, 0.2, 0.5, 0.9, 1.5, 3.0):
        direct = concurrence(shared_state(COEFFS, tau))
        assert concurrence_closed_form(COEFFS, tau) == pytest.approx(direct, abs=1e-12)
    for tau in (-1.0, math.nan):
        with pytest.raises(ValueError, match=r"^tau must be non-negative"):
            concurrence_closed_form(COEFFS, tau)


@pytest.mark.parametrize("coupling", list(Coupling))
@pytest.mark.parametrize("v", [0.0, 1e-7, 0.5, 0.99])
@pytest.mark.parametrize("beta_omega", [0.01, 1.0, 100.0])
def test_closed_form_of_a_list_gives_the_float_calls_values(beta_omega, v, coupling):
    coeffs = lindblad_coefficients(DetectorParams(1.0, 1.0, v, coupling), BathParams(beta_omega))
    death = sudden_death_time(coeffs)
    taus = [0.0, 1e-300, 0.5 / coeffs.a, 7.0, 1e3, 1e300]
    if math.isfinite(death):  # both sides of the zero
        taus += [death * (1.0 - 1e-9), death, death * (1.0 + 1e-9)]
    assert concurrence_closed_form(coeffs, taus) == [concurrence_closed_form(coeffs, t) for t in taus]


def test_closed_form_of_a_list_refuses_any_bad_tau():
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        for tau in (bad, [0.0, 1.0, bad, 2.0]):
            with pytest.raises(ValueError, match=r"^tau must be non-negative and finite, got "):
                concurrence_closed_form(COEFFS, tau)
    assert concurrence_closed_form(COEFFS, []) == []
    assert concurrence_closed_form(COEFFS, [-0.0]) == [1.0]


def test_closed_form_frozen_value():
    assert concurrence_closed_form(COEFFS, 0.5) == pytest.approx(
        0.3328144286126601, rel=1e-12
    )
    assert concurrence_closed_form(COEFFS, 0.0) == 1.0


def test_concurrence_ignores_detuning():
    # the coherent rotation moves phases, never the coherence magnitude
    detuned = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=7.3)
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
@pytest.mark.parametrize(
    "beta_omega", [1e-110, 1e-14, 1e-9, 1e-6, 0.5, 120.0, 300.0, 700.0, 705.0, 720.0, 740.0]
)
def test_bisection_agrees_from_very_hot_to_very_cold_baths(beta_omega, velocity, coupling):
    det = DetectorParams(omega=1.0, lam=1.0, velocity=velocity, coupling=coupling)
    coeffs = lindblad_coefficients(det, BathParams(beta=beta_omega))
    t = sudden_death_time(coeffs)
    assert math.isfinite(t)
    assert sudden_death_time_bisection(coeffs) == pytest.approx(t, rel=1e-12, abs=0.0)


def _checked_bisection(coeffs):
    # the same bisection with one checked float concurrence_closed_form call
    # per probe
    if coeffs.n == 0.0:
        return math.inf
    lo, hi = 0.0, 1.0 / coeffs.a
    while concurrence_closed_form(coeffs, hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if concurrence_closed_form(coeffs, mid) > 0.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("coupling", list(Coupling))
def test_bisection_probes_the_checked_curve_bit_for_bit(coupling):
    for beta_omega in (0.01, 0.5, 5.0, 50.0, 699.0, 705.0, 720.0, 740.0, 746.0):
        for velocity in (0.0, 1e-5, 0.01, 0.5, 0.99):
            det = DetectorParams(omega=1.0, lam=1.0, velocity=velocity, coupling=coupling)
            coeffs = lindblad_coefficients(det, BathParams(beta=beta_omega))
            expected = _checked_bisection(coeffs)
            assert sudden_death_time_bisection(coeffs) == expected, (beta_omega, velocity)


def test_death_time_decreases_with_occupation():
    times = [
        sudden_death_time(LindbladCoefficients(gamma=1.0, n=n, omega_eff=0.0))
        for n in (0.05, 0.1, 0.3, 0.7, 1.5, 3.0)
    ]
    assert all(a > b for a, b in zip(times, times[1:]))


# --- stacks of states ------------------------------------------------------------


def test_stacked_concurrence_equals_the_single_state_results():
    rng = np.random.default_rng(17)
    xstates = [random_xstate(rng) for _ in range(40)]
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


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    shape=st.lists(st.integers(0, 5), max_size=2),
    zeros=st.floats(0.0, 1.0),
)
def test_spin_flip_is_the_pauli_product_bit_for_bit(seed, shape, zeros):
    # Hermitian stacks, with a share of exact zeros as in X states: the
    # signed index reversal is (Y x Y) rho* (Y x Y), to the bit
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(*shape, 4, 4)) + 1j * rng.normal(size=(*shape, 4, 4))
    a[rng.random(a.shape) < zeros] = 0.0
    rho = a + a.conj().swapaxes(-1, -2)
    yy = PAULI_PAIR[2, 2]
    assert np.array_equal(_spin_flip(rho), yy @ rho.conj() @ yy)


def _death_time(coupling, beta_omega, v):
    det = DetectorParams(omega=1.0, lam=1.0, velocity=v, coupling=coupling)
    return sudden_death_time(lindblad_coefficients(det, BathParams(beta=beta_omega)))


_SPEED = st.floats(min_value=0.0, max_value=0.99)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(log_b=st.floats(min_value=-8.0, max_value=math.log10(740.0)), v1=_SPEED, v2=_SPEED)
def test_derivative_coupling_death_comes_sooner_at_higher_speed(log_b, v1, v2):
    assume(abs(v2 - v1) >= 0.01)
    slow, fast = sorted((v1, v2))
    td = Coupling.DERIVATIVE
    assert _death_time(td, 10.0 ** log_b, fast) < _death_time(td, 10.0 ** log_b, slow)


# Monopole death is delayed by speed only in hot baths: on a 0.01 speed
# grid tau* rises strictly up to beta*omega = 2.5 but not from 2.6 on
# (at 3 it reads 2.880, 2.839, 3.169 at v = 0, 0.5, 0.99), so the
# property stops at 2.  The boundary itself is pinned below.
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(log_b=st.floats(min_value=-8.0, max_value=math.log10(2.0)), v1=_SPEED, v2=_SPEED)
def test_monopole_death_comes_later_at_higher_speed_in_hot_baths(log_b, v1, v2):
    assume(abs(v2 - v1) >= 0.01)
    slow, fast = sorted((v1, v2))
    udw = Coupling.UDW
    assert _death_time(udw, 10.0 ** log_b, fast) > _death_time(udw, 10.0 ** log_b, slow)


# --- the monopole boundary: where speed stops delaying death ---------------------
#
# gamma_udw does not depend on v and tau* falls as n rises, so at speed v
# monopole death comes later than at rest exactly while n_udw(v) < P, the
# Planck occupation.  For small v, n_udw = P + c2 v^2 with c2 < 0 exactly
# where (b/2) coth(b/2) < 3/2, that is below beta*omega_c = 2.5756789099.


def _monopole_crossover(v):
    # bisect beta*omega on the sign of tau*(v) - tau*(0), closed forms
    lo, hi, udw = 2.5, 2.9, Coupling.UDW
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _death_time(udw, mid, v) > _death_time(udw, mid, 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _crossover(v):
    (root,) = [value for _, speed, _, value in reference("monopole_crossover") if speed == v]
    return root


def test_monopole_boundary_is_where_c2_changes_sign():
    ((_, _, _, b_c),) = reference("monopole_boundary")
    assert b_c == pytest.approx(2.575678909920, rel=0, abs=1e-12)

    def c2(b):
        return _n_udw_taylor(b, 1.0) - _n_udw_taylor(b, 0.0)

    assert c2(b_c - 1e-10) < 0.0 < c2(b_c + 1e-10)
    # at small speed the closed forms' crossover sits on it
    assert _monopole_crossover(1e-3) == pytest.approx(b_c, rel=0, abs=1e-6)


@pytest.mark.parametrize("v", [1e-3, 0.05])
def test_monopole_boundary_through_the_quadrature_route(v):
    # n_udw_quadrature -> LindbladCoefficients -> bisection shares no
    # closed form with n_udw -> sudden_death_time
    det, rest = DetectorParams(1.0, 1.0, v), DetectorParams(1.0, 1.0, 0.0)

    def death(d, b):
        n = n_udw_quadrature(d, BathParams(beta=b))
        return sudden_death_time_bisection(LindbladCoefficients(gamma_udw(d), n, d.omega))

    for offset in (-1e-5, 1e-5):
        b = _crossover(v) + offset
        delayed = death(det, b) > death(rest, b)
        assert delayed == (offset < 0.0)
        closed = _death_time(Coupling.UDW, b, v) > _death_time(Coupling.UDW, b, 0.0)
        assert delayed == closed


def test_monopole_crossover_rises_with_speed():
    speeds = (0.01, 0.1, 0.5, 0.9)
    frozen = [_crossover(v) for v in speeds]
    for root, expected in zip(frozen, (2.5756834, 2.5761355, 2.5928344, 2.8072960)):
        assert root == pytest.approx(expected, rel=0, abs=1e-7)
    found = [_monopole_crossover(v) for v in speeds]
    assert found == pytest.approx(frozen, rel=0, abs=1e-9)
    assert all(a < b for a, b in zip(found, found[1:]))
