"""Concurrence, its X-state shortcut, and disentanglement times.

For the evolved Bell pair the joint state keeps an X-shaped matrix, so
the general spin-flip construction collapses to a two-term comparison
and, further, to a closed-form curve

    C(tau) = max(0, e^(-a tau/2) - (1 - e^(-a tau)) sqrt(a^2 - b^2)/(2a))

whose first zero (finite exactly when the bath occupation ``n`` is
nonzero) is the disentanglement time.  All three routes are implemented
independently so they can be played against each other in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import LindbladCoefficients
from .dynamics import PAULI_PAIR, _reject_first, check_density_matrix

__all__ = [
    "XState",
    "concurrence",
    "concurrence_xstate",
    "concurrence_closed_form",
    "sudden_death_time",
    "sudden_death_time_bisection",
]

_YY = PAULI_PAIR[2][2]

# eigenvalues of rho rho~ are real and non-negative in exact arithmetic;
# these set how much numerical slack is forgiven before erroring out
_IMAG_TOL = 1e-10
_NEG_TOL = 1e-12


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of arbitrary two-qubit states.

    Square roots of the eigenvalues of ``rho (Y x Y) rho* (Y x Y)`` in
    decreasing order, largest minus the rest, floored at zero.  One 4x4
    ``rho`` gives a ``float``; a ``(..., 4, 4)`` stack gives an array of
    the leading shape, from one batched eigensolve.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the eigenvalues of any state come back with imaginary parts
        above 1e-10 or real parts below -1e-12; either means the solver
        (or the input) has drifted too far for the result to be trusted.
        Negative parts within the tolerance are clamped to zero.  For a
        stack the message names the first such state.
    """
    rho = check_density_matrix(rho)
    flipped = _YY @ rho.conj() @ _YY
    lam = np.linalg.eigvals(rho @ flipped)
    worst_imag = np.abs(lam.imag).max(axis=-1)
    _reject_first(
        worst_imag > _IMAG_TOL,
        lambda i: f"eigenvalues of rho rho~ have imaginary part {worst_imag[i]:.3e}",
        np.linalg.LinAlgError,
    )
    ev = lam.real
    low = ev.min(axis=-1)
    _reject_first(
        low < -_NEG_TOL,
        lambda i: f"eigenvalue of rho rho~ is {low[i]:.3e}, below -1e-12",
        np.linalg.LinAlgError,
    )
    roots = np.sort(np.sqrt(np.clip(ev, 0.0, None)), axis=-1)[..., ::-1]
    c = np.maximum(0.0, roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3])
    return float(c) if c.ndim == 0 else c


@dataclass(frozen=True)
class XState:
    """Two-qubit state with nonzero entries only on the diagonal and
    anti-diagonal (in the product basis ``|00>, |01>, |10>, |11>``).

    ``d1..d4`` are the populations, ``a14`` the outer coherence
    ``<00|rho|11>`` and ``a23`` the inner one ``<01|rho|10>``.
    Positivity bounds each coherence by its own population pair:
    ``|a14| <= sqrt(d1 d4)`` and ``|a23| <= sqrt(d2 d3)``.  (Concurrence
    pits each coherence against the opposite pair.)
    """

    d1: float
    d2: float
    d3: float
    d4: float
    a14: complex = 0.0j
    a23: complex = 0.0j

    def __post_init__(self) -> None:
        pops = (self.d1, self.d2, self.d3, self.d4)
        if min(pops) < -1e-12:
            raise ValueError(f"populations must be non-negative, got {pops}")
        if abs(sum(pops) - 1.0) > 1e-12:
            raise ValueError(f"populations must sum to 1, got {sum(pops)!r}")
        if abs(self.a14) > math.sqrt(max(self.d1 * self.d4, 0.0)) + 1e-12:
            raise ValueError("outer coherence violates |a14| <= sqrt(d1 d4)")
        if abs(self.a23) > math.sqrt(max(self.d2 * self.d3, 0.0)) + 1e-12:
            raise ValueError("inner coherence violates |a23| <= sqrt(d2 d3)")

    def to_matrix(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = self.d1, self.d2, self.d3, self.d4
        rho[0, 3] = self.a14
        rho[3, 0] = np.conj(self.a14)
        rho[1, 2] = self.a23
        rho[2, 1] = np.conj(self.a23)
        return rho

    @classmethod
    def from_matrix(cls, rho: np.ndarray, tol: float = 1e-12) -> "XState":
        """Extract the X entries, rejecting matrices that are not X shaped."""
        rho = np.asarray(rho, dtype=complex)
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
            mask[i, j] = False
        stray = np.max(np.abs(rho[mask]))
        if stray > tol:
            raise ValueError(f"matrix is not X shaped: stray entry {stray:.3e}")
        return cls(
            d1=rho[0, 0].real,
            d2=rho[1, 1].real,
            d3=rho[2, 2].real,
            d4=rho[3, 3].real,
            a14=complex(rho[0, 3]),
            a23=complex(rho[1, 2]),
        )


def concurrence_xstate(x: XState) -> float:
    """Concurrence of an X state: each coherence against the opposite
    pair of populations, whichever wins."""
    outer = abs(x.a14) - math.sqrt(max(x.d2 * x.d3, 0.0))
    inner = abs(x.a23) - math.sqrt(max(x.d1 * x.d4, 0.0))
    return 2.0 * max(0.0, outer, inner)


def concurrence_closed_form(coeffs: LindbladCoefficients, tau: float) -> float:
    """Concurrence of the evolved Bell pair at proper time ``tau``.

    The coherence decays at ``a/2`` while the population product grows
    from zero, so

        C(tau) = max(0, e^(-a tau/2) - (1 - e^(-a tau)) k / (2 a)),

    ``k = sqrt(a^2 - b^2) = 2 gamma sqrt(n (n+1))``.  Independent of
    ``omega_eff``: the rotation is local and drops out.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau!r}")
    a = coeffs.a
    k = 2.0 * coeffs.gamma * _sqrt_n_n1(coeffs.n)
    return max(
        0.0,
        math.exp(-0.5 * a * tau) - (1.0 - math.exp(-a * tau)) * k / (2.0 * a),
    )


def _sqrt_n_n1(n: float) -> float:
    # sqrt(n (n+1)) in sqrt(a^2 - b^2) = 2 gamma sqrt(n (n+1)): immune to the
    # cancellation of (2n+1)^2 - 1 for n below the precision of 1, and taken
    # factor by factor so that n (n+1) cannot overflow for n above ~1e154
    return math.sqrt(n) * math.sqrt(n + 1.0)


def sudden_death_time(coeffs: LindbladCoefficients) -> float:
    """First zero of the closed-form concurrence curve.

    With ``m = e^(-a tau/2)`` the zero condition is a quadratic in ``m``
    whose admissible root lies strictly inside (0, 1) whenever ``n > 0``,
    giving

        tau* = -(2/a) log[ (sqrt(2 a^2 - b^2) - a) / sqrt(a^2 - b^2) ].

    The root is evaluated in the rationalized form

        2 s / (sqrt(8 s^2 + 1) + 2 n + 1),    s = sqrt(n (n+1)),

    which survives occupations far below the precision of 1 and, with
    ``sqrt(8 s^2 + 1)`` taken as ``hypot(sqrt(8) s, 1)``, far above it;
    as ``n -> inf`` the root tends to ``sqrt(2) - 1``.  At ``n = 0`` the
    curve stays positive forever and the death time is ``math.inf``.
    """
    if coeffs.n == 0.0:
        return math.inf
    n = coeffs.n
    s = _sqrt_n_n1(n)
    root = 2.0 * s / (math.hypot(math.sqrt(8.0) * s, 1.0) + 2.0 * n + 1.0)
    return -2.0 * math.log(root) / coeffs.a


def sudden_death_time_bisection(coeffs: LindbladCoefficients) -> float:
    """Bracketing cross-check of :func:`sudden_death_time`.

    Bisects on the sign of :func:`concurrence_closed_form`.  The bracket
    starts at ``[0, 1/a]`` and doubles its right end until the curve is
    zero there, which for any ``n > 0`` happens by ``1024/a`` (the root
    lies below ``~745/a`` even at the smallest positive ``n``).  It then
    halves until the midpoint equals an end, so the result is resolved to
    the float spacing at any scale of ``a``.  Only ``n = 0``, where the
    curve never reaches zero, gives ``math.inf``.
    """
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
