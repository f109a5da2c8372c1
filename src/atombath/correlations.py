"""Thermal two-point functions of a massless scalar field.

The field correlations are needed along two kinds of worldlines: a
static one at finite spatial separation, and an inertial one moving at
constant speed through the bath (zero separation in its own rest
frame).  Both reduce to the epsilon-regularized vacuum kernel plus a
Bose-weighted sine transform that has a closed hyperbolic form,

    int_0^inf sin(p k) / (e^(beta k) - 1) dk
        = pi/(2 beta) coth(pi p / beta) - 1/(2 p),

so no quadrature is involved on the main evaluation path.  A brute-force
quadrature of the static mode sum, which the moving worldline takes at the
boosted separation the bath frame sees, is the independent cross-check.

The regulator ``epsilon`` displaces the time argument into the lower
half plane, ``s -> s - i eps``.  Only the vacuum kernel needs it: the
thermal parts stay finite for real arguments away from the light cone.
Queries that land within ``epsilon/10`` of a light-cone pole are still
answered (with complex-shifted thermal arguments) but raise a
:class:`PoleProximityWarning` so that downstream consumers know the
value is regulator dominated.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

from . import _np as np
from .coefficients import BathParams, DetectorParams, doppler_shifts, doppler_window
from .specfun import BERNOULLI, certified_gk21

__all__ = [
    "PoleProximityWarning",
    "MarkovDiagnostic",
    "DEFAULT_EPSILON_FRACTION",
    "MARKOV_MIN_TEMP_RATIO",
    "thermal_sin_transform",
    "vacuum_wightman",
    "wightman_coincidence",
    "wightman_static",
    "wightman_moving",
    "wightman_derivative",
    "wightman_static_quadrature",
    "wightman_moving_quadrature",
    "wightman_derivative_fd",
    "markov_diagnostic",
]

FOUR_PI2 = 4.0 * math.pi ** 2
_TWO_PI2 = 2.0 * math.pi ** 2

DEFAULT_EPSILON_FRACTION = 1e-3

# a moving detector is treated as static below this speed; the thermal
# window collapses faster than double precision can resolve it
_V_STATIC = 1e-6

# switch hyperbolic closed forms to their Taylor series inside this
# radius of the removable singularity
_SERIES_RADIUS = 0.1

# the Markov approximation needs the (red-shifted) bath to look hot on
# the system timescale; below this temperature-to-gap ratio we flag it
MARKOV_MIN_TEMP_RATIO = 0.1


class PoleProximityWarning(UserWarning):
    """Query lies within epsilon/10 of a light-cone pole."""


@dataclass(frozen=True)
class MarkovDiagnostic:
    """Sanity data for the Markovian reduction at one parameter point.

    ``correlation_time`` is the thermal correlation time of the bath,
    ``redshifted_temperature`` the bath temperature as seen through the
    receding (softest) Doppler factor, and ``valid`` whether that
    temperature still dominates the system gap.
    """

    correlation_time: float
    redshifted_temperature: float
    valid: bool


def _resolve_epsilon(beta: float, epsilon: float | None) -> float:
    eps = DEFAULT_EPSILON_FRACTION * beta if epsilon is None else epsilon
    if not 0.0 < eps <= 0.1 * beta:
        raise ValueError(
            f"epsilon must lie in (0, 0.1*beta], got {epsilon!r} for beta={beta!r}"
        )
    return eps


def _check_separations(grid) -> None:
    # the correlators' one refusal of a non-finite separation, for a list
    # (or a float's tuple of one), before any pole check or arithmetic
    if not all(map(math.isfinite, grid)):
        bad = next(x for x in grid if not math.isfinite(x))
        raise ValueError(f"separation s must be finite, got {bad!r}")


def _coth(y):
    # float or complex; math.tanh saturates to +-1 (no overflow) far out
    return 1.0 / (cmath.tanh(y) if isinstance(y, complex) else math.tanh(y))


def _csch2(y):
    # float or complex.  Past real |y| = 20, 4 e^(-2|y|) is csch^2 to
    # double precision and keeps math.sinh from overflowing past ~710
    if isinstance(y, complex):
        sh = cmath.sinh(y)
    elif abs(y) > 20.0:
        return 4.0 * math.exp(-2.0 * abs(y)) if abs(y) <= 350.0 else 0.0
    else:
        sh = math.sinh(y)
    return 1.0 / (sh * sh)


def _image(x, beta: float):
    # csch^2(x)/(4 beta^2), divided by 2 beta twice: 4 beta^2 underflows
    # below beta ~ 1e-162
    return _csch2(x) / (2.0 * beta) / (2.0 * beta)


# coth(y) - 1/y = sum_{k>=1} 2^(2k) B_2k y^(2k-1)/(2k)!, cut after y^9.
# Every series at a removable singularity below is a derivative of it.
_COTH = tuple(2 ** (2 * k) * BERNOULLI[2 * k] / math.factorial(2 * k) for k in range(1, 6))


def _derived(k: int, power: int, sign: int = 1) -> tuple[float, ...]:
    # coefficients, in powers of t^2, of sign * the k-th t-derivative of
    # sum_j _COTH[j] t^(2j + power) once its lowest power of t is divided
    # out: its first four nonzero terms, one 4-term Horner for every table.
    # Inside _SERIES_RADIUS the dropped terms are below 6e-13 relative for
    # _T_SERIES, 6e-12 for _COINCIDENCE_SERIES, 5e-11 for _G2_SERIES and
    # 2e-10 for _STATIC_TD_SERIES
    b = [sign * c * math.perm(2 * j + power, k) for j, c in enumerate(_COTH)]
    return tuple(float(c) for c in b if c)[:4]


_T_SERIES = _derived(0, 1)  # (coth y - 1/y)/y
_COINCIDENCE_SERIES = _derived(1, 1)  # d/dy (coth y - 1/y)
_STATIC_TD_SERIES = _derived(3, 1, -1)  # -d^3/dy^3 (coth y - 1/y)
_G2_SERIES = _derived(2, 0)  # d^2/dy^2 [(coth y - 1/y)/y]


def _series(b, t2):
    return b[0] + t2 * (b[1] + t2 * (b[2] + t2 * b[3]))


def thermal_sin_transform(p: float | complex, beta: float) -> float | complex:
    """Bose-weighted sine transform ``int_0^inf sin(p k)/(e^(beta k) - 1) dk``.

    Closed form ``pi/(2 beta) coth(pi p / beta) - 1/(2 p)``, for a float
    or a complex ``p`` (the latter off the real axis by a regulator).  Odd
    in ``p``; the ``p = 0`` singularity is removable (the coth pole
    cancels the subtraction exactly) and is evaluated through a short
    series, which takes over below ``|pi p / beta| = 0.1``.
    """
    if not (0.0 < beta < math.inf and abs(p) < math.inf):
        raise ValueError(f"beta must be positive and finite, p finite, got beta={beta!r}, p={p!r}")
    return _tst(p, beta)


def _tst(p, beta: float):
    # thermal_sin_transform, unchecked
    y = math.pi * p / beta
    if abs(y) < _SERIES_RADIUS:
        return math.pi / (2.0 * beta) * (y * _series(_T_SERIES, y * y))
    return math.pi / (2.0 * beta) * _coth(y) - 1.0 / (2.0 * p)


def vacuum_wightman(s: float, epsilon: float, r: float = 0.0) -> complex:
    """Regularized vacuum kernel ``-1/(4 pi^2 ((s - i eps)^2 - r^2))``, for
    ``epsilon`` positive and finite, ``s`` finite and ``r`` non-negative and
    finite."""
    if not (0.0 < epsilon < math.inf and abs(s) < math.inf):
        raise ValueError(
            f"epsilon must be positive and finite, s finite, got epsilon={epsilon!r}, s={s!r}"
        )
    if not 0.0 <= r < math.inf:
        raise ValueError(f"r must be non-negative and finite, got {r!r}")
    return _vacuum(s, epsilon, r)


def _vacuum(s: float, epsilon: float, r: float = 0.0) -> complex:
    # vacuum_wightman, unchecked
    sc = complex(s, -epsilon)
    return -1.0 / (FOUR_PI2 * (sc * sc - r * r))


def wightman_coincidence(s: float, beta: float) -> float:
    """Purely thermal part of the correlation at spatial coincidence.

    The image-sum term ``-1/(4 beta^2 sinh^2(pi s / beta))``; the full
    static function at ``r = 0`` is this plus the vacuum kernel plus the
    ``1/(4 pi^2 s^2)`` pole subtraction.  Diverges at ``s = 0``, and
    refuses a non-finite ``s``.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    _check_separations((s,))
    if s == 0.0:
        raise ValueError("coincidence term diverges at s = 0")
    return -_image(math.pi * s / beta, beta)


def _pole_shift(s: float, eps: float, r: float = 0.0):
    # s, or s - i eps with a warning when s lies within eps/10 of a
    # light-cone pole s = +-r (r >= 0); the warning names the first
    # caller outside this module; s is finite, as every caller has checked
    if abs(abs(s) - r) >= eps / 10.0:
        return s
    depth = 1
    while sys._getframe(depth).f_globals is globals():
        depth += 1
    warnings.warn(
        f"separation s={s!r} at r={r!r} lies within epsilon/10 of a "
        "light-cone pole; value is regulator dominated",
        PoleProximityWarning,
        stacklevel=depth + 1,
    )
    return complex(s, -eps)


def _coincidence_correction(s, beta: float):
    # 1/(4 pi^2 s^2) - csch^2(pi s/beta)/(4 beta^2): the thermal
    # correction at r = 0.  The two poles cancel; value 1/(12 beta^2) at
    # s = 0.  Accepts real or complex s.
    x = math.pi * s / beta
    if abs(x) < _SERIES_RADIUS:
        return _series(_COINCIDENCE_SERIES, x * x) / (2.0 * beta) / (2.0 * beta)
    return 1.0 / (FOUR_PI2 * s * s) - _image(x, beta)


def _static_vacuum(s: float, bath: BathParams, r: float, epsilon: float | None):
    # both static correlators' checks (s finite, then the regulator, then r
    # by vacuum_wightman) and their common part: the regulator and the vacuum kernel
    _check_separations((s,))
    eps = _resolve_epsilon(bath.beta, epsilon)
    return eps, vacuum_wightman(s, eps, r)


def wightman_static(
    s: float, bath: BathParams, r: float = 0.0, epsilon: float | None = None
) -> complex:
    """Thermal correlation along a static worldline, at time separation ``s``
    and distance ``r``; ``epsilon`` defaults to ``1e-3 * beta`` and must lie
    in ``(0, beta/10]``.

    Vacuum kernel plus the spherically averaged thermal mode sum,

        W(s, r) = vac(s, r) + [T(s + r) - T(s - r)] / (4 pi^2 r)

    with ``T`` the Bose-weighted sine transform; the ``r -> 0`` limit is
    taken analytically.  Near a light-cone pole (either ``|s| - r`` or
    ``|s| + r`` within ``epsilon/10`` of zero) the thermal arguments are
    complex shifted and a :class:`PoleProximityWarning` is emitted.
    """
    eps, vac = _static_vacuum(s, bath, r, epsilon)
    beta = bath.beta
    s_eval = _pole_shift(s, eps, r)
    if r == 0.0:
        return vac + complex(_coincidence_correction(s_eval, beta))
    return vac + (_tst(s_eval + r, beta) - _tst(s_eval - r, beta)) / (FOUR_PI2 * r)


def _worldline(s, detector: DetectorParams, bath: BathParams, epsilon):
    # shared by wightman_moving and wightman_derivative, once per list (a float is
    # a list of one): the list, the regulator, the list shifted near the pole,
    # and the Doppler window (red, blue, prefactor), None below _V_STATIC
    grid = s if isinstance(s, list) else [s]
    eps = _resolve_epsilon(bath.beta, epsilon)
    _check_separations(grid)
    near = eps / 10.0
    shifted = [x if abs(x) >= near else _pole_shift(x, eps) for x in grid]
    v = detector.velocity
    if v < _V_STATIC:
        return grid, eps, shifted, None
    red, blue = doppler_shifts(v)
    return grid, eps, shifted, (red, blue, math.sqrt(1.0 - v * v) / (FOUR_PI2 * v))


def wightman_moving(
    s: float | list[float],
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex | list[complex]:
    """Thermal correlation along the moving detector's worldline.

    ``s`` is the proper-time separation.  The thermal mode sum seen by
    the detector is Doppler stretched,

        W(s) = vac(s) + sqrt(1 - v^2)/(4 pi^2 v s) [T(blue*s) - T(red*s)],

    and collapses to the static ``r = 0`` form below ``v = 1e-6``.
    Emits :class:`PoleProximityWarning` within ``epsilon/10`` of the
    coincidence pole.

    ``s`` is a float, which gives a complex, or a list of floats, which gives
    a list: the regulator, the Doppler window and the checks are done once
    per list, and each value equals the float call's.
    """
    beta = bath.beta
    grid, eps, shifted, window = _worldline(s, detector, bath, epsilon)
    if window is None:
        th = [_coincidence_correction(y, beta) for y in shifted]
    else:
        red, blue, c = window
        th = [c * (_tst(blue * y, beta) - _tst(red * y, beta)) / y for y in shifted]
    w = [_vacuum(x, eps) + t for x, t in zip(grid, th)]
    return w if isinstance(s, list) else w[0]


def _wtd_thermal_static(s_eval, beta: float):
    # minus the second s-derivative of the r = 0 thermal correction, with
    # pi^2/(4 beta^4) as (h/beta)^2: beta^4 underflows below beta ~ 1e-81
    x = math.pi * s_eval / beta
    h = math.pi / (2.0 * beta)
    if abs(x) < _SERIES_RADIUS:
        return h / beta * h / beta * _series(_STATIC_TD_SERIES, x * x)
    c2, ct = _csch2(x), _coth(x)
    # csch^2 goes in first, so that where it has vanished nothing overflows
    tail = -3.0 / (_TWO_PI2 * s_eval ** 4)
    return tail + c2 * h / beta * h / beta * (4.0 * ct * ct + 2.0 * c2)


def _g2(s_eval, d: float, y: float, h: float):
    # second s-derivative of T(d*s)/s, with y = pi d/beta and h = pi/(2 beta):
    # the series where |y*s| is inside the radius, else the closed hyperbolic T
    if abs(y * s_eval) < _SERIES_RADIUS:
        return h * y ** 3 * _series(_G2_SERIES, (y * s_eval) ** 2)
    c2, ct, s2 = _csch2(y * s_eval), _coth(y * s_eval), s_eval * s_eval
    inner = 2.0 * y * y * c2 * ct / s_eval + 2.0 * y * c2 / s2 + 2.0 * ct / (s2 * s_eval)
    return h * inner - 3.0 / (d * s2 * s2)


def wightman_derivative(
    s: float | list[float],
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex | list[complex]:
    """Correlation of the field's proper-time derivative along the worldline.

    Minus the second ``s``-derivative of :func:`wightman_moving`,
    evaluated in closed form: the vacuum part is
    ``3/(2 pi^2 (s - i eps)^4)`` and the thermal part differentiates the
    hyperbolic mode sum analytically.  The large-``s`` power tails of
    the two parts cancel, leaving the expected exponential decay.

    ``s`` is a float or a list of floats, as for :func:`wightman_moving`.
    """
    beta = bath.beta
    grid, eps, shifted, window = _worldline(s, detector, bath, epsilon)
    if window is None:
        th = [_wtd_thermal_static(y, beta) for y in shifted]
    else:
        red, blue, c = window
        h, y_red, y_blue = math.pi / (2.0 * beta), math.pi * red / beta, math.pi * blue / beta
        th = [-c * (_g2(y, blue, y_blue, h) - _g2(y, red, y_red, h)) for y in shifted]
    w = [3.0 / (_TWO_PI2 * complex(x, -eps) ** 4) + t for x, t in zip(grid, th)]
    return w if isinstance(s, list) else w[0]


# --- brute-force cross-checks ------------------------------------------------

_KMAX_THERMAL = 60.0  # modes above 60/beta are suppressed below 1e-26
# the mode sums' starting mesh, in beta*k: graded as the Bose weight
# 1/(e^(beta k) - 1) changes scale, so a block certifies in a level or two
# of bisection.  It depends on beta alone, so a separation's mesh starts
# the same whichever block holds it
_SEED_BETA_K = (0.0, 2.0, 4.0, 8.0, 16.0, 30.0, _KMAX_THERMAL)
# separations per panel-kernel call: at its cap of 1000 panels, 96 x 1000
# panels x 21 nodes x 8 B of integrand values is 16 MB, whatever the grid
_MODE_SUM_SLICE = 96


def _mode_sum_integrand(s, r, beta: float):
    # the spherically averaged thermal mode sum's integrand at times s and
    # distances r (equal-length 1-D arrays), one row per separation:
    # cos(ks) sin(kr)/(2 pi^2 r (e^(beta k) - 1)), which is
    # [sin k(s + r) - sin k(s - r)]/(4 pi^2 r) with nothing to cancel as
    # r -> 0; at r = 0 its limit, k cos(ks)/(2 pi^2 (e^(beta k) - 1))
    at_rest = r == 0.0
    resting = at_rest.all()  # a v = 0 block: no sine to take
    r_div = np.where(at_rest, 1.0, r)[:, None]

    def integrand(k):
        out = np.cos(np.multiply.outer(s, k))
        if resting:
            out *= k
        else:
            radial = np.sin(np.multiply.outer(r, k))
            radial /= r_div
            radial[at_rest] = k
            out *= radial
        out /= _TWO_PI2 * np.expm1(beta * k)
        return out

    return integrand


def _thermal_quadrature(s, r, beta: float, what: str):
    # the thermal mode sum at times s and distances r, with the error
    # estimates, by one certified panel quadrature per slice of
    # _MODE_SUM_SLICE separations
    parts = max(1, math.ceil(len(s) / _MODE_SUM_SLICE))
    edges = np.array(_SEED_BETA_K) / beta
    values, errors = [], []
    for s_part, r_part in zip(np.array_split(s, parts), np.array_split(r, parts)):
        val, err = certified_gk21(
            _mode_sum_integrand(s_part, r_part, beta), edges,
            f"{what} quadrature", 1e-8, 1e-4,
            epsabs=1e-13, epsrel=1e-11, limit=1000,
        )
        values.append(val)
        errors.append(err)
    return np.concatenate(values), np.concatenate(errors)


def wightman_static_quadrature(
    s: float, bath: BathParams, r: float = 0.0, epsilon: float | None = None
) -> complex:
    """Mode-sum cross-check of :func:`wightman_static`, with the same
    arguments and checks.

    Vacuum part in regularized closed form, thermal part by the
    certified Gauss-Kronrod panel quadrature of the Bose-weighted
    spherical kernel.  Intended for tests: slower and, near poles, less
    uniform than the closed form.
    """
    _, vac = _static_vacuum(s, bath, r, epsilon)
    th, _ = _thermal_quadrature(np.array([s]), np.array([r]), bath.beta, "static")
    return vac + th.item()


def wightman_moving_quadrature(
    s: float | list[float],
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex | list[complex]:
    """Mode-sum cross-check of :func:`wightman_moving`.

    The static mode sum at the separation the bath frame sees between
    two points of the worldline ``s`` apart in proper time: time
    ``gamma*s``, distance ``gamma*v*s``.  Shares no Doppler algebra with
    the closed form, and holds at every speed, ``v = 0`` included.

    ``s`` is a float or a list of floats, as for :func:`wightman_moving`.
    The separations and the regulator are checked once; the whole list is
    integrated on shared panel meshes, one per slice of up to 96
    separations, each bisected from the same seed over ``[0, 60/beta]``,
    graded in ``beta * k``.  So a value's last digits may move, within its
    certified error estimate, with the other separations beside it.
    """
    grid = s if isinstance(s, list) else [s]
    eps = _resolve_epsilon(bath.beta, epsilon)
    _check_separations(grid)
    g = detector.lorentz_gamma
    sep = np.array(grid, dtype=float)
    th, _ = _thermal_quadrature(g * sep, g * detector.velocity * sep, bath.beta, "moving")
    w = [_vacuum(x, eps) + t for x, t in zip(grid, th.tolist())]
    return w if isinstance(s, list) else w[0]


def wightman_derivative_fd(
    s: float | list[float],
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex | list[complex]:
    """Five-point finite-difference cross-check of :func:`wightman_derivative`.

    Applies minus the central second-difference stencil to
    :func:`wightman_moving`; the step ``1e-4 * beta`` balances truncation
    against cancellation for separations of order ``beta``.  ``s`` is a
    float or a list of floats: a list takes five list calls of
    :func:`wightman_moving`, one per stencil point.
    """
    grid = s if isinstance(s, list) else [s]
    h = 1e-4 * bath.beta
    # x + (-2h) is x - 2h to the bit
    w = [
        wightman_moving(grid if d is None else [x + d for x in grid], detector, bath, epsilon)
        for d in (-2.0 * h, -h, None, h, 2.0 * h)
    ]
    den = 12.0 * h * h
    fd = [
        -((-m2 + 16.0 * m1 - 30.0 * m0 + 16.0 * p1 - p2) / den)
        for m2, m1, m0, p1, p2 in zip(*w)
    ]
    return fd if isinstance(s, list) else fd[0]


def markov_diagnostic(detector: DetectorParams, bath: BathParams) -> MarkovDiagnostic:
    """Check whether the Markovian reduction is trustworthy here.

    The bath correlation time is ``beta``; the master equation
    coarse-grains over it, which is justified while the bath still looks
    hot to the detector.  The most pessimistic Doppler factor is the
    receding one, so validity is flagged when even the red-shifted
    temperature stays above ``MARKOV_MIN_TEMP_RATIO`` times the gap.
    """
    t_red, _ = doppler_window(bath, detector.velocity)
    return MarkovDiagnostic(
        correlation_time=bath.beta,
        redshifted_temperature=t_red,
        valid=t_red >= MARKOV_MIN_TEMP_RATIO * detector.omega,
    )
