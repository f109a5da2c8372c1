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

from . import _np as np
from .coefficients import LindbladCoefficients
from .dynamics import _reject_first, check_density_matrix

__all__ = [
    "concurrence",
    "concurrence_xstate",
    "concurrence_closed_form",
    "sudden_death_time",
    "sudden_death_time_bisection",
]


# eigenvalues of rho rho~ are real and non-negative in exact arithmetic;
# these set how much numerical slack is forgiven before erroring out
_IMAG_TOL = 1e-10
_NEG_TOL = 1e-12
# largest entry off the X (diagonal and anti-diagonal) concurrence_xstate ignores; where they sit
_X_TOL = 1e-12
_OFF_X_ROWS = [0, 0, 1, 1, 2, 2, 3, 3]
_OFF_X_COLS = [1, 2, 0, 3, 0, 3, 1, 2]
# Y x Y = antidiag(-1, 1, 1, -1): the sign of its entry in row i
_FLIP_SIGNS = (-1.0, 1.0, 1.0, -1.0)


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
    lam = np.linalg.eigvals(rho @ _spin_flip(rho))
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


def _spin_flip(rho: np.ndarray) -> np.ndarray:
    # (Y x Y) rho* (Y x Y) without a matmul: Y x Y is the index reversal
    # i -> 3 - i signed by _FLIP_SIGNS, so entry (i, j) is
    # s_i s_j rho*[3 - i, 3 - j], what the two products give bit for bit
    return rho.conj()[..., ::-1, ::-1] * np.multiply.outer(_FLIP_SIGNS, _FLIP_SIGNS)


def concurrence_xstate(rho: np.ndarray) -> float | np.ndarray:
    """Concurrence of X states: each coherence against the opposite pair
    of populations, whichever wins.

    ``rho`` is what :func:`concurrence` takes, one 4x4 matrix (a ``float``)
    or a ``(..., 4, 4)`` stack (an array), checked by ``check_density_matrix``;
    an entry off the diagonal and anti-diagonal above 1e-12 raises
    ``ValueError`` naming the first such state.
    """
    rho = check_density_matrix(rho)
    stray = np.abs(rho[..., _OFF_X_ROWS, _OFF_X_COLS]).max(axis=-1)
    _reject_first(stray > _X_TOL, lambda i: f"matrix is not X shaped: stray entry {stray[i]:.3e}")
    d = rho.diagonal(axis1=-2, axis2=-1).real
    # |rho_14|, |rho_23| by hypot, as Python's abs of a complex (np.abs may differ in the last bit)
    a14, a23 = rho[..., 0, 3], rho[..., 1, 2]
    outer = np.hypot(a14.real, a14.imag) - np.sqrt(np.maximum(d[..., 1] * d[..., 2], 0.0))
    inner = np.hypot(a23.real, a23.imag) - np.sqrt(np.maximum(d[..., 0] * d[..., 3], 0.0))
    c = 2.0 * np.maximum(0.0, np.maximum(outer, inner))
    return float(c) if c.ndim == 0 else c


def concurrence_closed_form(
    coeffs: LindbladCoefficients, tau: float | list[float]
) -> float | list[float]:
    """Concurrence of the evolved Bell pair at proper time ``tau``.

    The coherence decays at ``a/2`` while the population product grows
    from zero, so

        C(tau) = max(0, e^(-a tau/2) - (1 - e^(-a tau)) k / (2 a)),

    ``k = sqrt(a^2 - b^2) = 2 gamma sqrt(n (n+1))``.  Independent of
    ``omega_eff``: the rotation is local and drops out.

    ``tau`` is a float, which gives a float, or a list of floats, which gives
    a list: ``k`` and the checks are done once per list, and each value
    equals the float call's.
    """
    taus = tau if isinstance(tau, list) else [tau]
    if taus and not (all(map(math.isfinite, taus)) and min(taus) >= 0.0):
        bad = next(t for t in taus if not 0.0 <= t < math.inf)
        raise ValueError(f"tau must be non-negative and finite, got {bad!r}")
    c = _curve(taus, *_curve_constants(coeffs))
    return c if isinstance(tau, list) else c[0]


def _curve_constants(coeffs: LindbladCoefficients) -> tuple[float, float, float, float]:
    # -a/2, -a, k = 2 gamma sqrt(n (n+1)) and 2a: what _curve reads of the rates
    a = coeffs.a
    return -0.5 * a, -a, 2.0 * coeffs.gamma * _sqrt_n_n1(coeffs.n), 2.0 * a


def _curve(taus, half: float, neg: float, k: float, two_a: float) -> list[float]:
    # the closed-form concurrence at each of taus, unchecked; one comprehension,
    # not a function call per time
    exp = math.exp
    return [max(0.0, exp(half * t) - (1.0 - exp(neg * t)) * k / two_a) for t in taus]


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

    Bisects on the sign of :func:`concurrence_closed_form`'s curve, whose
    constants are taken once per call: each probe evaluates the same
    expression, unchecked, so the result equals a bisection on checked
    float calls bit for bit.  The bracket starts at ``[0, 1/a]`` and
    doubles its right end until the curve is zero there, which for any
    ``n > 0`` happens by ``1024/a`` (the root lies below ``~745/a`` even
    at the smallest positive ``n``).  It then halves until the midpoint
    equals an end, so the result is resolved to the float spacing at any
    scale of ``a``.  Only ``n = 0``, where the curve never reaches zero,
    gives ``math.inf``.
    """
    if coeffs.n == 0.0:
        return math.inf
    half, neg, k, two_a = _curve_constants(coeffs)
    lo, hi = 0.0, 1.0 / coeffs.a
    while _curve((hi,), half, neg, k, two_a)[0] > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _curve((mid,), half, neg, k, two_a)[0] > 0.0:
            lo = mid
        else:
            hi = mid
