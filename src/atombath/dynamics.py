"""Open dynamics of the moving qubit and its inert partner.

The moving two-level system relaxes under a thermal Lindblad generator
while a second, auxiliary qubit evolves trivially; entanglement between
the two degrades only through the local bath.  States are plain 4x4
complex arrays in the product basis ``|m a>`` with ``m`` the moving
qubit.  The Pauli expansion coefficients

    u[i, j] = Tr[rho (sigma_i x sigma_j)] / 4

(a real 4x4 tensor with ``u[0, 0] = 1/4``) diagonalize the generator up
to a single rotation, so the evolution has a closed form against which
the numeric integrator is checked.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .coefficients import LindbladCoefficients

__all__ = [
    "PAULI",
    "PAULI_PAIR",
    "PositivityWarning",
    "check_density_matrix",
    "check_bloch_tensor",
    "bloch_from_density",
    "density_from_bloch",
    "bell_state",
    "partial_trace",
    "gksl_generator",
    "evolve_closed_form",
    "evolve_numeric",
    "default_rk4_step",
    "shared_state",
]

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# PAULI_PAIR[i, j] = sigma_i x sigma_j, one (4, 4, 4, 4) array
PAULI_PAIR = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(4, 4, 4, 4)
_PAULI_PAIR_RE = np.ascontiguousarray(PAULI_PAIR.real)
_PAULI_PAIR_IM = np.ascontiguousarray(PAULI_PAIR.imag)

_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

# jump operators act on the moving qubit only
_L_DOWN = np.kron(_SIGMA_MINUS, _I2)
_L_UP = _L_DOWN.conj().T
_N_DOWN = _L_UP @ _L_DOWN  # projector on the excited moving qubit
_N_UP = _L_DOWN @ _L_UP
_SZ = np.kron(PAULI[3], _I2)


class PositivityWarning(UserWarning):
    """Numerically evolved state acquired a noticeably negative eigenvalue."""


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    psd_tol: float = 1e-10,
) -> np.ndarray:
    """Validate two-qubit density matrices and return them as complex ndarray.

    ``rho`` is one 4x4 matrix or a ``(..., 4, 4)`` stack of them; every
    state in a stack is checked, and an error names the index of the
    first one that fails.  Hermiticity and unit trace are enforced at
    ``herm_tol`` and ``trace_tol``; eigenvalues may dip to ``-psd_tol``
    before a state is rejected, which leaves room for the roundoff floor
    of evolved states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    _reject_first(
        herm > herm_tol, lambda i: f"matrix is not Hermitian: max deviation {herm[i]:.3e}"
    )
    tr = rho.trace(axis1=-2, axis2=-1)
    _reject_first(abs(tr - 1.0) > trace_tol, lambda i: f"trace must be 1, got {tr[i]!r}")
    low = np.linalg.eigvalsh(rho).min(axis=-1)
    _reject_first(low < -psd_tol, lambda i: f"matrix has negative eigenvalue {low[i]:.3e}")
    return rho


def _reject_first(bad: np.ndarray, message, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` for the first state flagged in ``bad``, if any.

    ``bad`` holds one flag per state of a stack (a 0-d array for a
    single state); ``message(i)`` describes state ``i``, and a stack's
    error is prefixed with that index.
    """
    if not bad.any():
        return
    i = np.unravel_index(np.argmax(bad), bad.shape)
    where = f"state {', '.join(map(str, i))}: " if i else ""
    raise error(where + message(i))


def check_bloch_tensor(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate one Pauli-expansion tensor or a ``(..., 4, 4)`` stack of them
    (an error names the first failing one); return them as float ndarray."""
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 tensor or a stack of them, got shape {u.shape}")
    norm = u[..., 0, 0]
    _reject_first(
        abs(norm - 0.25) > 1e-12,
        lambda i: f"normalization component must be 1/4, got {norm[i]!r}",
    )
    big = np.abs(u).max(axis=(-2, -1))
    _reject_first(big > 0.25 + tol, lambda i: f"components cannot exceed 1/4, found {big[i]!r}")
    return u


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Pauli expansion coefficients ``Tr[rho (sigma_i x sigma_j)]/4`` of states."""
    rho = check_density_matrix(rho)
    return np.einsum("...kl,ijlk->...ij", rho, PAULI_PAIR).real / 4.0


def density_from_bloch(u: np.ndarray) -> np.ndarray:
    """Reassemble ``sum_ij u[i,j] sigma_i x sigma_j`` from one tensor or a stack."""
    u = check_bloch_tensor(u)
    # real and imaginary parts contracted apart: a real einsum runs ~4x
    # faster than a complex one, and unlike a BLAS product it sums each
    # entry in the same order for one tensor as for a stack
    rho = np.empty(u.shape, dtype=complex)
    rho.real = np.einsum("...ij,ijkl->...kl", u, _PAULI_PAIR_RE)
    rho.imag = np.einsum("...ij,ijkl->...kl", u, _PAULI_PAIR_IM)
    return rho


def bell_state() -> np.ndarray:
    """Maximally entangled pair ``(|00> + |11>)/sqrt(2)`` as a density matrix."""
    # exact halves: an outer product of 1/sqrt(2) vectors gives 0.4999999999999999
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return rho


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced state of one qubit; ``keep=0`` the moving one, ``keep=1`` the partner."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 0 or 1, got {keep!r}")


def gksl_generator(rho: np.ndarray, coeffs: LindbladCoefficients) -> np.ndarray:
    """Right-hand side of the master equation.

    Coherent rotation at ``omega_eff`` about the moving qubit's z axis
    plus thermally weighted decay and excitation channels; the auxiliary
    factor is untouched.  No state validation here: Runge-Kutta stages
    are not density matrices and the map itself is linear.
    """
    rho = np.asarray(rho, dtype=complex)
    down = coeffs.gamma * (coeffs.n + 1.0)
    up = coeffs.gamma * coeffs.n
    out = -0.5j * coeffs.omega_eff * (_SZ @ rho - rho @ _SZ)
    out += down * (_L_DOWN @ rho @ _L_UP - 0.5 * (_N_DOWN @ rho + rho @ _N_DOWN))
    out += up * (_L_UP @ rho @ _L_DOWN - 0.5 * (_N_UP @ rho + rho @ _N_UP))
    return out


def evolve_closed_form(
    u0: np.ndarray, coeffs: LindbladCoefficients, tau: float | np.ndarray
) -> np.ndarray:
    """Exact evolution of the Pauli tensor for proper time ``tau``.

    The generator leaves each column index ``j`` alone and acts on the
    row index as a damped rotation in the 1-2 plane plus an affine decay
    of row 3 toward its thermal value:

        u_1j, u_2j: damped at a/2, rotated by omega_eff * tau
        u_3j:       u_3j e^(-a tau) + u_0j (b/a)(1 - e^(-a tau))

    Row 0 is conserved.  A scalar ``tau`` gives one 4x4 tensor, an array
    of times a ``tau.shape + (4, 4)`` stack.
    """
    u0 = check_bloch_tensor(u0)
    tau = np.asarray(tau, dtype=float)
    _reject_first(tau < 0.0, lambda i: f"tau must be non-negative, got {float(tau[i])!r}")
    a, b, om = coeffs.a, coeffs.b, coeffs.omega_eff
    times = tau.ravel().tolist()

    # exp, cos and sin from math, one time at a time, as for every other
    # closed form here: numpy's vector versions can differ in the last
    # bit, which the Wootters oracle turns into ~1e-12 on near-pure states
    def per_time(f) -> np.ndarray:
        return np.array([f(t) for t in times]).reshape(tau.shape + (1,))

    e_half = per_time(lambda t: math.exp(-0.5 * a * t))
    e_full = per_time(lambda t: math.exp(-a * t))
    cos_ = per_time(lambda t: math.cos(om * t))
    sin_ = per_time(lambda t: math.sin(om * t))
    r0, r1, r2, r3 = (u0[..., i, :] for i in range(4))
    u = np.empty(np.broadcast_shapes(tau.shape + (1, 1), u0.shape))
    u[..., 0, :] = r0
    u[..., 1, :] = e_half * (cos_ * r1 - sin_ * r2)
    u[..., 2, :] = e_half * (sin_ * r1 + cos_ * r2)
    u[..., 3, :] = e_full * r3 + (b / a) * (1.0 - e_full) * r0
    return u


def default_rk4_step(coeffs: LindbladCoefficients) -> float:
    """Step size resolving both the damping and the coherent rotation."""
    return min(0.01 / coeffs.a, 0.01 / max(abs(coeffs.omega_eff), 1e-9))


def evolve_numeric(
    rho0: np.ndarray,
    coeffs: LindbladCoefficients,
    tau: float,
    dt: float | None = None,
) -> np.ndarray:
    """Fixed-step fourth-order Runge-Kutta integration of the master equation.

    The step must satisfy ``dt <= 0.01/a`` so that the local truncation
    error stays near the roundoff floor; the default also resolves the
    rotation at ``omega_eff``.  The requested ``tau`` is hit exactly by
    shrinking the step to an integer division.  A final eigenvalue check
    emits :class:`PositivityWarning` if roundoff has pushed the state
    further than 1e-8 below zero.
    """
    rho = check_density_matrix(rho0).copy()
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau!r}")
    if tau == 0.0:
        return rho
    if dt is None:
        dt = default_rk4_step(coeffs)
    if dt > 0.01 / coeffs.a * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt!r} exceeds 0.01/a={0.01 / coeffs.a!r}; the integrator "
            "accuracy contract needs a*dt <= 0.01"
        )
    n = max(1, math.ceil(tau / dt))
    h = tau / n
    for _ in range(n):
        k1 = gksl_generator(rho, coeffs)
        k2 = gksl_generator(rho + 0.5 * h * k1, coeffs)
        k3 = gksl_generator(rho + 0.5 * h * k2, coeffs)
        k4 = gksl_generator(rho + h * k3, coeffs)
        rho += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    low = np.linalg.eigvalsh(rho).min()
    if low < -1e-8:
        warnings.warn(
            f"integrated state has eigenvalue {low:.3e}; accumulated "
            "roundoff exceeds the expected floor",
            PositivityWarning,
            stacklevel=2,
        )
    return rho


_BELL = bloch_from_density(bell_state())


def shared_state(coeffs: LindbladCoefficients, tau: float | np.ndarray) -> np.ndarray:
    """Joint state at proper time ``tau`` for the maximally entangled start.

    :func:`bell_state` evolved by :func:`evolve_closed_form` and
    reassembled: an X-shaped matrix whose coherences rotate and damp at
    half the rate of the population relaxation.  A scalar ``tau`` gives
    one 4x4 matrix, an array of times a ``tau.shape + (4, 4)`` stack.
    """
    return density_from_bloch(evolve_closed_form(_BELL, coeffs, tau))
