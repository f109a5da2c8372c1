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

import functools
import math
import warnings

from . import _np as np
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


# the module's constant arrays, PAULI and PAULI_PAIR among them: built on
# first use, so that importing the package loads no numpy, and read as
# module attributes through __getattr__
@functools.cache
def _arrays() -> dict:
    pauli = (
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    # PAULI_PAIR[i, j] = sigma_i x sigma_j, one (4, 4, 4, 4) array
    pair = np.einsum("iab,jcd->ijacbd", pauli, pauli).reshape(4, 4, 4, 4)
    sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    # jump operators act on the moving qubit only
    l_down = np.kron(sigma_minus, i2)
    l_up = l_down.conj().T
    arrays = {
        "PAULI": pauli,
        "PAULI_PAIR": pair,
        "_PAULI_PAIR_RE": np.ascontiguousarray(pair.real),
        "_PAULI_PAIR_IM": np.ascontiguousarray(pair.imag),
        "_L_DOWN": l_down,
        "_L_UP": l_up,
        "_N_DOWN": l_up @ l_down,  # projector on the excited moving qubit
        "_N_UP": l_down @ l_up,
        "_SZ": np.kron(pauli[3], i2),
        "_EYE4": np.eye(4),
    }
    # every channel is the identity on the partner, so each is a 4x4
    # superoperator on the moving qubit's (m, m') pair, flattened as 2m + m':
    # column k is the channel of the matrix unit E_mm' x E_00, read at the
    # entries (2m, 2m'), the flat indices 0, 2, 8 and 10
    units = np.kron(arrays["_EYE4"].reshape(4, 2, 2), [[1.0, 0.0], [0.0, 0.0]])
    arrays["_S_ROT"], arrays["_S_DOWN"], arrays["_S_UP"] = (
        c[:, ::2, ::2].reshape(4, 4).T for c in _channels(units, arrays)
    )
    return arrays


def __getattr__(name: str):
    # dunders (an import's __path__ probe, inspect's __wrapped__) are refused unbuilt
    if not name.startswith("__") and name in _arrays():
        return _arrays()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# slack the state checks forgive; evolved states' eigenvalues sit on a
# roundoff floor above -_PSD_TOL
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_BLOCH_TOL = 1e-9


class PositivityWarning(UserWarning):
    """Numerically evolved state went negative, or off in trace or Hermiticity."""


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate two-qubit density matrices and return them as complex ndarray.

    ``rho`` is one 4x4 matrix or a ``(..., 4, 4)`` stack of them; every
    state in a stack is checked, and an error names the index of the
    first one that fails.  Entries must be finite; Hermiticity and unit
    trace are enforced to 1e-12; eigenvalues may dip to -1e-10 before a
    state is rejected, which leaves room for the roundoff floor of
    evolved states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    # before any arithmetic: inf - inf in the Hermiticity check would warn first
    _reject_first(~np.isfinite(rho).all(axis=(-2, -1)), lambda i: "matrix has a non-finite entry")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    _reject_first(
        ~(herm <= _HERM_TOL), lambda i: f"matrix is not Hermitian: max deviation {herm[i]:.3e}"
    )
    tr = rho.trace(axis1=-2, axis2=-1)
    _reject_first(~(abs(tr - 1.0) <= _TRACE_TOL), lambda i: f"trace must be 1, got {tr[i]!r}")
    low = np.linalg.eigvalsh(rho).min(axis=-1)
    _reject_first(low < -_PSD_TOL, lambda i: f"matrix has negative eigenvalue {low[i]:.3e}")
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


def check_bloch_tensor(u: np.ndarray) -> np.ndarray:
    """Validate one Pauli-expansion tensor or a ``(..., 4, 4)`` stack of them
    (an error names the first failing one); return them as float ndarray."""
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 tensor or a stack of them, got shape {u.shape}")
    norm = u[..., 0, 0]
    _reject_first(
        ~(abs(norm - 0.25) <= 1e-12),
        lambda i: f"normalization component must be 1/4, got {norm[i]!r}",
    )
    big = np.abs(u).max(axis=(-2, -1))
    _reject_first(
        ~(big <= 0.25 + _BLOCH_TOL), lambda i: f"components cannot exceed 1/4, found {big[i]!r}"
    )
    return u


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Pauli expansion coefficients ``Tr[rho (sigma_i x sigma_j)]/4`` of states."""
    rho = check_density_matrix(rho)
    return np.einsum("...kl,ijlk->...ij", rho, _arrays()["PAULI_PAIR"]).real / 4.0


def density_from_bloch(u: np.ndarray) -> np.ndarray:
    """Reassemble ``sum_ij u[i,j] sigma_i x sigma_j`` from one tensor or a stack."""
    u = check_bloch_tensor(u)
    arrays = _arrays()
    # real and imaginary parts contracted apart: a real einsum runs ~4x
    # faster than a complex one, and unlike a BLAS product it sums each
    # entry in the same order for one tensor as for a stack
    rho = np.empty(u.shape, dtype=complex)
    rho.real = np.einsum("...ij,ijkl->...kl", u, arrays["_PAULI_PAIR_RE"])
    rho.imag = np.einsum("...ij,ijkl->...kl", u, arrays["_PAULI_PAIR_IM"])
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


def _channels(rho: np.ndarray, arrays: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the rotation, decay and excitation parts of the generator, each still
    # to be weighted by its entry of _weights; arrays is _arrays()'s dict
    sz, l_down, l_up = arrays["_SZ"], arrays["_L_DOWN"], arrays["_L_UP"]
    n_down, n_up = arrays["_N_DOWN"], arrays["_N_UP"]
    rot = sz @ rho - rho @ sz
    down = l_down @ rho @ l_up - 0.5 * (n_down @ rho + rho @ n_down)
    up = l_up @ rho @ l_down - 0.5 * (n_up @ rho + rho @ n_up)
    return rot, down, up


def _weights(coeffs: LindbladCoefficients) -> tuple[complex, float, float]:
    # L = w_rot rot + w_down down + w_up up
    return -0.5j * coeffs.omega_eff, coeffs.gamma * (coeffs.n + 1.0), coeffs.gamma * coeffs.n


def gksl_generator(rho: np.ndarray, coeffs: LindbladCoefficients) -> np.ndarray:
    """Right-hand side of the master equation for one 4x4 matrix or a
    ``(..., 4, 4)`` stack of them.

    Coherent rotation at ``omega_eff`` about the moving qubit's z axis
    plus thermally weighted decay and excitation channels; the auxiliary
    factor is untouched.  No state validation here: the map is linear,
    and its channels are also built once, on first use, on matrix units,
    not states.
    """
    w_rot, w_down, w_up = _weights(coeffs)
    rot, down, up = _channels(np.asarray(rho, dtype=complex), _arrays())
    out = w_rot * rot
    out += w_down * down
    out += w_up * up
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

    Row 0 is conserved.  A scalar ``tau`` (finite, non-negative) gives one
    4x4 tensor, an array of times a ``tau.shape + (4, 4)`` stack.
    """
    u0 = check_bloch_tensor(u0)
    tau, *factors = _factors(coeffs, tau)
    e_half, e_full, cos_, sin_ = (f.reshape(tau.shape + (1,)) for f in factors)
    a, b = coeffs.a, coeffs.b
    r0, r1, r2, r3 = (u0[..., i, :] for i in range(4))
    u = np.empty(np.broadcast_shapes(tau.shape + (1, 1), u0.shape))
    u[..., 0, :] = r0
    u[..., 1, :] = e_half * (cos_ * r1 - sin_ * r2)
    u[..., 2, :] = e_half * (sin_ * r1 + cos_ * r2)
    u[..., 3, :] = e_full * r3 + (b / a) * (1.0 - e_full) * r0
    return u


def _factors(coeffs: LindbladCoefficients, tau: float | np.ndarray) -> list[np.ndarray]:
    # tau as a checked float array, then e^(-a tau/2), e^(-a tau), cos(omega_eff tau)
    # and sin(omega_eff tau) at each time, as arrays of tau's shape
    tau = np.asarray(tau, dtype=float)
    _reject_first(~(tau >= 0.0), lambda i: f"tau must be non-negative, got {float(tau[i])!r}")
    _reject_first(tau == math.inf, lambda i: f"tau must be finite, got {float(tau[i])!r}")
    a, om = coeffs.a, coeffs.omega_eff
    times = tau.ravel().tolist()
    # exp, cos and sin from math, one time at a time, as for every other
    # closed form here: numpy's vector versions can differ in the last
    # bit, which the Wootters oracle turns into ~1e-12 on near-pure states
    return [tau] + [
        np.array([f(x * t) for t in times]).reshape(tau.shape)
        for f, x in ((math.exp, -0.5 * a), (math.exp, -a), (math.cos, om), (math.sin, om))
    ]


def default_rk4_step(coeffs: LindbladCoefficients) -> float:
    """Step size resolving both the damping and the coherent rotation."""
    return min(0.01 / coeffs.a, 0.01 / max(abs(coeffs.omega_eff), 1e-9))


def evolve_numeric(rho0: np.ndarray, coeffs: LindbladCoefficients, tau: float) -> np.ndarray:
    """Fixed-step fourth-order Runge-Kutta integration of the master equation.

    ``tau`` is split into ``n`` equal steps no longer than
    :func:`default_rk4_step`, so ``a*h <= 0.01`` keeps the local
    truncation error near the roundoff floor.  The generator is linear,
    constant and the identity on the partner, so it is a 4x4 matrix ``L``
    on the moving qubit's (m, m') pair: the rate-weighted sum of three
    channel superoperators (rotation, decay, excitation), built once, on
    first use, from :func:`gksl_generator`'s own channel terms.  One step
    is ``P(hL) = I + hL(I + hL(I + hL(I + hL/4)/3)/2)``; its ``n``-th power
    acts on the state regrouped as rows (m, m'), columns (a, a').  It
    takes one 4x4 matrix, not a stack, and refuses a ``tau`` whose step
    count overflows a float.  A final check emits
    :class:`PositivityWarning` if roundoff has pushed the state further
    than 1e-8 below zero, or its trace or Hermiticity past the 1e-12 that
    :func:`check_density_matrix` allows; the trace drifts by ~1.6e-17
    per step, so this fires from ~6e4 steps on.
    """
    if np.shape(rho0) != (4, 4):
        raise ValueError(f"evolve_numeric takes one 4x4 matrix, got shape {np.shape(rho0)}")
    rho = check_density_matrix(rho0)
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be non-negative and finite, got {tau!r}")
    if tau == 0.0:
        return rho.copy()
    dt = default_rk4_step(coeffs)
    if tau / dt == math.inf:
        raise ValueError(f"tau = {tau!r} in steps of at most {dt!r} is too many steps to count")
    n = max(1, math.ceil(tau / dt))
    # h L on the moving qubit's (m, m') pair, weighted as gksl_generator
    # weights its channels
    w_rot, w_down, w_up = _weights(coeffs)
    arrays = _arrays()
    hl = (tau / n) * (
        w_rot * arrays["_S_ROT"] + w_down * arrays["_S_DOWN"] + w_up * arrays["_S_UP"]
    )
    eye = arrays["_EYE4"]
    step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
    # the state regrouped as rows (m, m') and columns (a, a'): the channel
    # acts on each column, and the partner's indices ride along
    pairs = rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    pairs = np.linalg.matrix_power(step, n) @ pairs
    rho = pairs.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    low = np.linalg.eigvalsh(rho).min()
    drift = abs(rho.trace() - 1.0)
    herm = np.abs(rho - rho.conj().T).max()
    if low < -1e-8 or drift > _TRACE_TOL or herm > _HERM_TOL:
        warnings.warn(
            f"integrated state has eigenvalue {low:.3e}, trace error {drift:.3e} "
            f"and Hermiticity error {herm:.3e}; accumulated roundoff exceeds "
            "the expected floor",
            PositivityWarning,
            stacklevel=2,
        )
    return rho


def shared_state(coeffs: LindbladCoefficients, tau: float | np.ndarray) -> np.ndarray:
    """Joint state at proper time ``tau`` for the maximally entangled start.

    :func:`bell_state` evolved in closed form, built directly as its X
    matrix: four populations and the outer coherences ``rho_03 = rho_30*``,
    which rotate and damp at half the rate of the population relaxation.
    Each entry is rounded as :func:`evolve_closed_form` rounds the Bell
    tensor's entries and :func:`density_from_bloch` sums them, so the state
    equals that route's bit for bit.  Takes the same ``tau`` with the same
    checks: a scalar gives one 4x4 matrix, an array of times a
    ``tau.shape + (4, 4)`` stack.
    """
    tau, e_half, e_full, cos_, sin_ = _factors(coeffs, tau)
    # the evolved Bell tensor's nonzero entries besides u_00 = 1/4: u_11 = -u_22,
    # u_12 = u_21, u_30 and u_33
    u11, u12 = e_half * (0.25 * cos_), e_half * (0.25 * sin_)
    u30, u33 = coeffs.b / coeffs.a * (1.0 - e_full) * 0.25, e_full * 0.25
    rho = np.zeros(tau.shape + (4, 4), dtype=complex)
    re, im = rho.real, rho.imag
    re[..., 0, 0] = 0.25 + u30 + u33
    re[..., 1, 1] = 0.25 + u30 - u33
    re[..., 2, 2] = 0.25 - u30 - u33
    re[..., 3, 3] = 0.25 - u30 + u33
    re[..., 0, 3] = re[..., 3, 0] = u11 + u11
    im[..., 3, 0] = u12 + u12
    im[..., 0, 3] = -im[..., 3, 0]
    return rho
