"""Master-equation evolution: closed form vs RK4, invariants, fixed points."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from atombath import dynamics
from atombath.coefficients import LindbladCoefficients
from atombath.dynamics import (
    PAULI,
    PAULI_PAIR,
    PositivityWarning,
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


def test_module_serves_exactly_its_built_arrays():
    # __getattr__ serves each name _arrays built as the one cached array, and
    # refuses any other name
    built = dynamics._arrays()
    assert {"PAULI", "PAULI_PAIR", "_S_ROT", "_S_DOWN", "_S_UP"} <= built.keys()
    # shared_state builds its X matrix directly: no Bell tensor is kept, and
    # evolve_numeric steps the moving qubit's 4x4 channel, not a 16x16 one
    assert "_BELL" not in built
    assert "_EYE16" not in built
    for name in built:
        assert getattr(dynamics, name) is built[name], name
    assert not hasattr(dynamics, "__path__")
    assert not hasattr(dynamics, "_NO_SUCH_ARRAY")


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


@pytest.mark.parametrize("entry", [(0, 0), (0, 3), (2, 1), (1, 0, 0), (1, 3, 2)], ids=str)
@pytest.mark.parametrize(
    "value", [math.nan, complex(0.0, math.nan), math.inf, -math.inf, complex(0.0, math.inf)]
)
def test_check_density_matrix_rejects_non_finite_entries(entry, value):
    # a NaN fails every comparison, and inf - inf in the Hermiticity check
    # warned (an error under -W error::RuntimeWarning): non-finite entries are
    # refused first, never reaching eigvalsh, whose LinAlgError would read as
    # a numerical failure
    rho = bell_state() if len(entry) == 2 else np.stack([bell_state(), bell_state()])
    rho[entry] = value
    where = "state 1: " if len(entry) == 3 else ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{where}matrix has a non-finite entry$") as info:
            check_density_matrix(rho)
    assert not isinstance(info.value, np.linalg.LinAlgError)


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


@pytest.mark.parametrize(
    "entry, what",
    [((0, 0), "normalization"), ((2, 1), "components"), ((1, 3, 3), "state 1: components")],
)
@pytest.mark.parametrize("call", [check_bloch_tensor, density_from_bloch])
def test_check_bloch_tensor_rejects_nan_entries(entry, what, call):
    # density_from_bloch validates through check_bloch_tensor
    u = bloch_from_density(bell_state())
    u = u.copy() if len(entry) == 2 else np.stack([u, u])
    u[entry] = math.nan
    with pytest.raises(ValueError, match=f"^{what}"):
        call(u)


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
    # a (..., 4, 4) stack maps state by state
    stack = np.stack([_random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    out = gksl_generator(stack, coeffs)
    assert out.shape == (2, 3, 4, 4)
    for rho, drho in zip(stack.reshape(6, 4, 4), out.reshape(6, 4, 4)):
        assert np.array_equal(drho, gksl_generator(rho, coeffs))


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
    for tau in (-0.1, math.nan):
        with pytest.raises(ValueError):
            evolve_closed_form(u0, COEFFS, tau)


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


@pytest.mark.parametrize(
    "coeffs",
    [
        COEFFS,
        LindbladCoefficients(gamma=1.0, n=0.0, omega_eff=1.3),  # zero temperature
        LindbladCoefficients(gamma=0.7, n=2.5, omega_eff=0.0),  # no rotation
        LindbladCoefficients(gamma=3e-4, n=1e8, omega_eff=-40.0),
    ],
)
def test_shared_state_equals_evolved_bell(coeffs):
    # the X matrix built directly is the Bell tensor evolved and reassembled,
    # bit for bit, for a scalar tau and for stacks of any shape; taus from 0
    # through e^(-a tau/2) underflowing to subnormals and to 0
    rng = np.random.default_rng(31)
    taus = np.concatenate([[0.0, 1e-300, 0.3, 1.1, 4.0], rng.uniform(0.0, 50.0, 60)]) / coeffs.a
    taus = np.concatenate([taus, [1450.0 / coeffs.a, 1600.0 / coeffs.a]])
    u0 = bloch_from_density(bell_state())
    for tau in (0.3, 0.0, taus, taus[:7].reshape(7, 1)):
        direct = shared_state(coeffs, tau)
        routed = density_from_bloch(evolve_closed_form(u0, coeffs, tau))
        assert direct.shape == np.shape(tau) + (4, 4)
        assert np.array_equal(direct, routed)
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
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            evolve_numeric(rho, coeffs, tau)
    # tau = 0 is the identity map, and returns a copy, not the caller's array
    same = evolve_numeric(rho, coeffs, 0.0)
    np.testing.assert_allclose(same, rho, atol=0)
    assert not np.shares_memory(same, rho)


def test_rk4_hits_tau_exactly_with_coarse_dt():
    # n = ceil(tau/dt) shrinks the step; one run to 0.5 and two runs to
    # 0.17 and 0.33 take different step counts but must land on one state
    rho = bell_state()
    a = evolve_numeric(rho, COEFFS, 0.5)
    b = evolve_numeric(evolve_numeric(rho, COEFFS, 0.17), COEFFS, 0.33)
    np.testing.assert_allclose(a, b, atol=1e-11)


def _rk4_loop(rho, coeffs, tau, n):
    # n explicit four-stage Runge-Kutta steps of the generator
    rho = np.array(rho, dtype=complex)
    h = tau / n
    for _ in range(n):
        k1 = gksl_generator(rho, coeffs)
        k2 = gksl_generator(rho + 0.5 * h * k1, coeffs)
        k3 = gksl_generator(rho + 0.5 * h * k2, coeffs)
        k4 = gksl_generator(rho + h * k3, coeffs)
        rho += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


@pytest.mark.parametrize(
    "steps, absent",
    [pytest.param(steps, None, id=str(steps)) for steps in (1, 14, 553, 4000)]
    # one channel switched off: no excitation at n = 0, no rotation at omega_eff = 0
    + [pytest.param(14, key, id=f"14-{key}=0") for key in ("n", "omega_eff")],
)
def test_rk4_propagator_matches_explicit_steps(steps, absent):
    rng = np.random.default_rng(steps)
    rho = _random_density(rng)
    coeffs = _random_coeffs(rng)
    if absent is not None:
        coeffs = dataclasses.replace(coeffs, **{absent: 0.0})
    # ceil(tau / dt) = steps, so the propagator takes exactly `steps` steps
    tau = (steps - 0.5) * default_rk4_step(coeffs)
    np.testing.assert_allclose(
        evolve_numeric(rho, coeffs, tau), _rk4_loop(rho, coeffs, tau, steps), rtol=0, atol=1e-12
    )


def _generator_16(coeffs):
    # the generator as a 16x16 matrix on row-major flattened 4x4 matrices,
    # built from gksl_generator on all 16 matrix units: column k is the
    # generator applied to the k-th unit
    return gksl_generator(np.eye(16).reshape(16, 4, 4), coeffs).reshape(16, 16).T


@pytest.mark.parametrize(
    "coeffs",
    [
        LindbladCoefficients(gamma=0.9, n=0.7, omega_eff=1.6),
        LindbladCoefficients(gamma=1.3, n=0.0, omega_eff=2.0),
        LindbladCoefficients(gamma=0.7, n=0.4, omega_eff=0.0),
    ],
    ids=["general", "n=0", "omega_eff=0"],
)
def test_generator_is_the_moving_qubit_channel_times_the_partner_identity(coeffs):
    # the 4x4 channel on the (m, m') pair, flattened as 2m + m' and weighted
    # as gksl_generator weights its channels, tensored with the identity on
    # the partner's (a, a') pair, is the whole generator: flat index
    # 4(2m + a) + 2m' + a' of a 4x4 matrix
    g, n = coeffs.gamma, coeffs.n
    s = (
        -0.5j * coeffs.omega_eff * dynamics._S_ROT
        + g * (n + 1.0) * dynamics._S_DOWN
        + g * n * dynamics._S_UP
    )
    full = np.kron(s, np.eye(4)).reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    generator = _generator_16(coeffs)
    np.testing.assert_allclose(full.reshape(16, 16), generator, rtol=0, atol=1e-15)
    # the pair (a, a') = (0, 0) sits at flat indices 0, 2, 8 and 10
    pair = [0, 2, 8, 10]
    np.testing.assert_allclose(generator[np.ix_(pair, pair)], s, rtol=0, atol=1e-15)


def _propagator_16(rho, coeffs, tau):
    # the same RK4 steps as evolve_numeric, on the whole 16x16 generator
    n = max(1, math.ceil(tau / default_rk4_step(coeffs)))
    hl = (tau / n) * _generator_16(coeffs)
    eye = np.eye(16)
    step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
    return (np.linalg.matrix_power(step, n) @ np.ravel(rho)).reshape(4, 4)


def test_rk4_on_the_moving_qubit_matches_the_16x16_propagator():
    # random states carry coherences on the partner as well as the moving
    # qubit, so every (a, a') column of the regrouped state is exercised
    rng = np.random.default_rng(21)
    for i in range(24):
        rho = _random_density(rng)
        coeffs = _random_coeffs(rng)
        if i % 3:
            coeffs = dataclasses.replace(coeffs, **{("n", "omega_eff")[i % 3 - 1]: 0.0})
        tau = rng.uniform(0.0, 3.0) / coeffs.a
        np.testing.assert_allclose(
            evolve_numeric(rho, coeffs, tau), _propagator_16(rho, coeffs, tau), rtol=0, atol=1e-15
        )


def test_rk4_refuses_anything_but_one_state():
    # a stack passes check_density_matrix but has no single evolution here
    stack = np.stack([bell_state(), np.eye(4) / 4.0])
    check_density_matrix(stack)
    for rho in (stack, stack[:1], np.eye(2) / 2.0):
        with pytest.raises(ValueError, match=rf"one 4x4 matrix, got shape \({np.shape(rho)[0]}, "):
            evolve_numeric(rho, COEFFS, 1.0)


def test_rk4_refuses_a_step_count_that_overflows():
    # a = 1e300 makes the step 1e-302, and tau / step overflows to inf
    coeffs = LindbladCoefficients(gamma=1e300, n=0.0, omega_eff=0.0)
    assert 1e10 / default_rk4_step(coeffs) == math.inf
    with pytest.raises(ValueError, match=r"tau = 10000000000\.0 .* 1e-302 .*too many steps"):
        evolve_numeric(bell_state(), coeffs, 1e10)


def test_rk4_warns_when_its_trace_drifts_past_the_state_check():
    # roundoff moves the trace ~1.6e-17 per step: 3.2e-12 after the 2e5
    # steps of tau = 1e3, past the 1e-12 check_density_matrix allows
    with pytest.warns(PositivityWarning, match="trace error"):
        rho = evolve_numeric(bell_state(), COEFFS, 1e3)
    with pytest.raises(ValueError, match="trace must be 1"):
        check_density_matrix(rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_density_matrix(evolve_numeric(bell_state(), COEFFS, 10.0))


def test_delta_omega_moves_coherence_phase_only():
    # detuning rotates rows 1-2 faster but leaves populations alone
    base = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=1.0)
    detuned = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=1.4)
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
    with pytest.raises(ValueError, match=r"^tau must be non-negative, got nan$"):
        shared_state(COEFFS, math.nan)


@pytest.mark.parametrize("omega_eff", [1.3, 0.0])
def test_shared_state_rejects_an_infinite_tau(omega_eff):
    coeffs = LindbladCoefficients(gamma=1.0, n=0.5, omega_eff=omega_eff)
    with pytest.raises(ValueError, match=r"^tau must be finite, got inf$"):
        shared_state(coeffs, math.inf)
    with pytest.raises(ValueError, match=r"^state 1: tau must be finite, got inf$"):
        shared_state(coeffs, [0.5, math.inf])


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
    with pytest.raises(ValueError, match=r"^state 2: tau must be non-negative, got nan$"):
        evolve_closed_form(u0, COEFFS, [0.0, 1.0, math.nan])


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
