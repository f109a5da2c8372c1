"""Master-equation evolution: closed form vs RK4, invariants, fixed points."""

import math
import warnings

import numpy as np
import pytest

from atombath.coefficients import LindbladCoefficients
from atombath.dynamics import (
    PAULI,
    PAULI_PAIR,
    bell_state,
    bloch_from_density,
    check_bloch_tensor,
    check_density_matrix,
    default_rk4_step,
    density_from_bloch,
    evolve_closed_form,
    evolve_numeric,
    gksl_generator,
    partial_trace,
    shared_state,
)


def _random_density(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_coeffs(rng):
    gamma = rng.uniform(0.5, 2.0)
    n = rng.uniform(0.0, 1.5)
    om = rng.uniform(0.0, 3.0) * gamma
    return LindbladCoefficients(gamma=gamma, n=n, omega_eff=om)


COEFFS = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=1.3)


# --- representations ----------------------------------------------------------


def test_pauli_pair_table():
    for i in range(4):
        for j in range(4):
            np.testing.assert_allclose(
                PAULI_PAIR[i][j], np.kron(PAULI[i], PAULI[j]), atol=0
            )


def test_bell_state_tensor():
    rho = bell_state()
    check_density_matrix(rho)
    assert np.trace(rho) == 1.0
    u = bloch_from_density(rho)
    # normalized so every component lives in [-1/4, 1/4]; exact, since
    # every evolved pair starts from this tensor
    assert np.array_equal(u, np.diag([0.25, 0.25, -0.25, 0.25]))
    # rank one and pure
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)


def test_bloch_density_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rho = _random_density(rng)
        u = bloch_from_density(rho)
        back = density_from_bloch(u)
        np.testing.assert_allclose(back, rho, atol=1e-13)
        assert u[0, 0] == pytest.approx(0.25, abs=1e-13)
        # Pauli coordinates of a Hermitian matrix are real by construction
        assert u.dtype == np.float64


def test_check_density_matrix_rejections():
    good = bell_state()
    check_density_matrix(good)
    with pytest.raises(ValueError):
        check_density_matrix(good * 1.01)  # trace off
    bad = good.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValueError):
        check_density_matrix(bad)  # not Hermitian
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        check_density_matrix(neg)  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3) / 3.0)  # wrong shape


def test_check_bloch_tensor_rejections():
    u = bloch_from_density(bell_state())
    check_bloch_tensor(u)
    bad = u.copy()
    bad[0, 0] = 0.25 + 1e-6
    with pytest.raises(ValueError):
        check_bloch_tensor(bad)
    over = u.copy()
    over[1, 3] = 0.3  # components cannot exceed the normalization
    with pytest.raises(ValueError):
        check_bloch_tensor(over)
    with pytest.raises(ValueError):
        check_bloch_tensor(np.zeros((3, 4)))


def test_partial_trace():
    rng = np.random.default_rng(11)
    a = _random_density(rng, 2)
    b = _random_density(rng, 2)
    joint = np.kron(a, b)
    np.testing.assert_allclose(partial_trace(joint, keep=0), a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, keep=1), b, atol=1e-14)
    with pytest.raises(ValueError):
        partial_trace(joint, keep=2)


# --- generator ----------------------------------------------------------------


def test_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = _random_density(rng)
        coeffs = _random_coeffs(rng)
        drho = gksl_generator(rho, coeffs)
        assert abs(np.trace(drho)) < 1e-13
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-13)


def test_gibbs_times_maximally_mixed_is_stationary():
    # detailed balance: populations e^(-beta_eff) apart, no coherences
    n = 0.8
    coeffs = LindbladCoefficients(gamma=1.3, n=n, omega_eff=2.0)
    p_up = n / (2.0 * n + 1.0)
    atom = np.diag([p_up, 1.0 - p_up]).astype(complex)
    joint = np.kron(atom, np.eye(2, dtype=complex) / 2.0)
    drho = gksl_generator(joint, coeffs)
    np.testing.assert_allclose(drho, np.zeros((4, 4)), atol=1e-15)


def test_auxiliary_qubit_untouched():
    rng = np.random.default_rng(5)
    rho = _random_density(rng)
    coeffs = _random_coeffs(rng)
    tau = 0.7
    out = evolve_numeric(rho, coeffs, tau)
    # the aux marginal never moves, whatever the joint state is
    np.testing.assert_allclose(
        partial_trace(out, keep=1), partial_trace(rho, keep=1), atol=1e-10
    )


# --- evolution ----------------------------------------------------------------


def test_closed_form_row_structure():
    u0 = bloch_from_density(bell_state())
    a, b = COEFFS.a, COEFFS.b
    tau = 0.9
    u = evolve_closed_form(u0, COEFFS, tau)
    # row 0 conserved
    np.testing.assert_allclose(u[0], u0[0], atol=0)
    # row 3 relaxes toward (b/a) u0
    expect3 = math.exp(-a * tau) * u0[3] + (b / a) * (1.0 - math.exp(-a * tau)) * u0[0]
    np.testing.assert_allclose(u[3], expect3, atol=1e-15)
    # rows 1 and 2 damp at half the rate
    norm0 = math.hypot(u0[1, 1], u0[2, 1])
    assert math.hypot(u[1, 1], u[2, 1]) == pytest.approx(
        norm0 * math.exp(-0.5 * a * tau), rel=1e-13
    )
    with pytest.raises(ValueError):
        evolve_closed_form(u0, COEFFS, -0.1)


def test_closed_form_matches_rk4():
    rng = np.random.default_rng(17)
    for _ in range(6):
        rho0 = _random_density(rng)
        coeffs = _random_coeffs(rng)
        tau = rng.uniform(0.1, 3.0) / coeffs.a
        ref = evolve_numeric(rho0, coeffs, tau)
        u = evolve_closed_form(bloch_from_density(rho0), coeffs, tau)
        np.testing.assert_allclose(density_from_bloch(u), ref, atol=1e-9)


def test_semigroup_property():
    u0 = bloch_from_density(_random_density(np.random.default_rng(23)))
    one = evolve_closed_form(u0, COEFFS, 1.7)
    two = evolve_closed_form(evolve_closed_form(u0, COEFFS, 0.9), COEFFS, 0.8)
    np.testing.assert_allclose(one, two, atol=1e-14)


def test_shared_state_equals_evolved_bell():
    for tau in (0.0, 0.3, 1.1, 4.0):
        direct = shared_state(COEFFS, tau)
        routed = density_from_bloch(
            evolve_closed_form(bloch_from_density(bell_state()), COEFFS, tau)
        )
        np.testing.assert_allclose(direct, routed, atol=1e-14)
        check_density_matrix(direct)


def test_long_time_limit_is_thermal_product():
    n = 0.6
    coeffs = LindbladCoefficients(gamma=1.0, n=n, omega_eff=0.7)
    rho = shared_state(coeffs, 60.0)
    p_up = n / (2.0 * n + 1.0)
    expect = np.kron(np.diag([p_up, 1.0 - p_up]), np.eye(2) / 2.0).astype(complex)
    np.testing.assert_allclose(rho, expect, atol=1e-12)
    # zero temperature drains to the ground state
    cold = LindbladCoefficients(gamma=1.0, n=0.0, omega_eff=0.0)
    rho0 = shared_state(cold, 80.0)
    expect0 = np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2.0).astype(complex)
    np.testing.assert_allclose(rho0, expect0, atol=1e-12)


def test_rk4_step_contract():
    coeffs = LindbladCoefficients(gamma=2.0, n=1.0, omega_eff=40.0)
    dt = default_rk4_step(coeffs)
    assert dt == pytest.approx(0.01 / 40.0, rel=1e-15)
    rho = bell_state()
    with pytest.raises(ValueError):
        evolve_numeric(rho, coeffs, 1.0, dt=0.1 / coeffs.a)
    with pytest.raises(ValueError):
        evolve_numeric(rho, coeffs, -1.0)
    # tau = 0 is the identity map
    np.testing.assert_allclose(evolve_numeric(rho, coeffs, 0.0), rho, atol=0)


def test_rk4_hits_tau_exactly_with_coarse_dt():
    # n = ceil(tau/dt) shrinks the step; result must not depend on the
    # requested dt once it is fine enough
    rho = bell_state()
    a = evolve_numeric(rho, COEFFS, 0.5, dt=0.01 / COEFFS.a)
    b = evolve_numeric(rho, COEFFS, 0.5, dt=0.0037 / COEFFS.a)
    np.testing.assert_allclose(a, b, atol=1e-11)


def test_delta_omega_moves_coherence_phase_only():
    # detuning rotates rows 1-2 faster but leaves populations alone
    base = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=1.0)
    detuned = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=1.4, delta_omega=0.4)
    tau = 0.8
    da = shared_state(base, tau)
    db = shared_state(detuned, tau)
    np.testing.assert_allclose(np.diag(da), np.diag(db), atol=1e-15)
    assert abs(da[0, 3]) == pytest.approx(abs(db[0, 3]), rel=1e-13)
    assert np.angle(db[0, 3]) != pytest.approx(np.angle(da[0, 3]), abs=1e-3)


# --- stacks of states -----------------------------------------------------------


def test_shared_state_over_a_time_grid_stacks_the_single_states():
    taus = np.linspace(0.0, 4.0, 7)
    stack = shared_state(COEFFS, taus)
    assert stack.shape == (7, 4, 4)
    for tau, rho in zip(taus, stack):
        assert np.array_equal(rho, shared_state(COEFFS, float(tau)))
    assert shared_state(COEFFS, taus.reshape(7, 1)).shape == (7, 1, 4, 4)
    with pytest.raises(ValueError, match=r"^state 2: tau must be non-negative, got -1\.0$"):
        shared_state(COEFFS, [0.0, 1.0, -1.0, -2.0])
    with pytest.raises(ValueError, match=r"^tau must be non-negative, got -1\.0$"):
        shared_state(COEFFS, -1.0)


def test_check_density_matrix_names_the_first_bad_state():
    good = shared_state(COEFFS, np.linspace(0.0, 3.0, 5))
    assert np.array_equal(check_density_matrix(good), good)
    trace = good.copy()
    trace[3] *= 1.01
    herm = good.copy()
    herm[1, 0, 1] += 1e-6
    neg = good.copy()
    neg[4] = np.diag([1.2, -0.2, 0.0, 0.0])
    for bad, index, what in ((trace, 3, "trace"), (herm, 1, "Hermitian"), (neg, 4, "negative")):
        with pytest.raises(ValueError, match=rf"^state {index}: .*{what}"):
            check_density_matrix(bad)
    # a stack of stacks names the full index
    with pytest.raises(ValueError, match=r"^state 1, 4: .*negative"):
        check_density_matrix(np.stack([good, neg]))
    # a single state keeps the unprefixed message
    with pytest.raises(ValueError, match=r"^trace must be 1"):
        check_density_matrix(trace[3])


def test_check_density_matrix_rejects_stacks_of_other_shapes():
    with pytest.raises(ValueError, match="4x4"):
        check_density_matrix(np.broadcast_to(np.eye(3) / 3.0, (5, 3, 3)))
    with pytest.raises(ValueError, match="4x4"):
        check_density_matrix(np.full(4, 0.25))


def test_evolve_closed_form_over_a_time_grid_stacks_the_single_tensors():
    u0 = bloch_from_density(_random_density(np.random.default_rng(29)))
    taus = np.linspace(0.0, 4.0, 6)
    stack = evolve_closed_form(u0, COEFFS, taus)
    assert stack.shape == (6, 4, 4)
    for tau, u in zip(taus, stack):
        assert np.array_equal(u, evolve_closed_form(u0, COEFFS, float(tau)))
    grid = evolve_closed_form(u0, COEFFS, taus.reshape(2, 3))
    assert np.array_equal(grid, stack.reshape(2, 3, 4, 4))
    with pytest.raises(ValueError, match=r"^state 1: tau must be non-negative, got -0\.5$"):
        evolve_closed_form(u0, COEFFS, [0.0, -0.5, -1.0])
    with pytest.raises(ValueError, match=r"^tau must be non-negative, got -0\.1$"):
        evolve_closed_form(u0, COEFFS, -0.1)


def test_check_bloch_tensor_names_the_first_bad_tensor():
    u0 = bloch_from_density(bell_state())
    good = evolve_closed_form(u0, COEFFS, np.linspace(0.0, 2.0, 4))
    assert np.array_equal(check_bloch_tensor(good), good)
    norm = good.copy()
    norm[2, 0, 0] = 0.25 + 1e-6
    over = good.copy()
    over[1, 1, 3] = 0.3
    for bad, index, what in ((norm, 2, "normalization"), (over, 1, "components cannot exceed")):
        with pytest.raises(ValueError, match=rf"^state {index}: {what}"):
            check_bloch_tensor(bad)
        with pytest.raises(ValueError, match=rf"^{what}"):
            check_bloch_tensor(bad[index])
    with pytest.raises(ValueError, match="4x4"):
        check_bloch_tensor(np.zeros((5, 3, 4)))


def test_bloch_density_conversions_over_a_stack_equal_the_single_results():
    rng = np.random.default_rng(31)
    rhos = np.array([_random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    us = bloch_from_density(rhos)
    assert us.shape == (2, 3, 4, 4)
    back = density_from_bloch(us)
    for index in np.ndindex(2, 3):
        assert np.array_equal(us[index], bloch_from_density(rhos[index]))
        assert np.array_equal(back[index], density_from_bloch(us[index]))
