"""Thermal two-point functions of a massless scalar field.

The field correlations are needed along two kinds of worldlines: a
static one at finite spatial separation, and an inertial one moving at
constant speed through the bath (zero separation in its own rest
frame).  Both reduce to the epsilon-regularized vacuum kernel plus a
Bose-weighted sine transform that has a closed hyperbolic form,

    int_0^inf sin(p k) / (e^(beta k) - 1) dk
        = pi/(2 beta) coth(pi p / beta) - 1/(2 p),

so no quadrature is involved on the main evaluation path.  Brute-force
mode-sum quadratures of the same integrands are provided alongside as
independent cross-checks.

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
from fractions import Fraction

from scipy import integrate

from .coefficients import BathParams, DetectorParams, doppler_shifts
from .specfun import QuadratureError

__all__ = [
    "PoleProximityWarning",
    "CorrelationQuery",
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
class CorrelationQuery:
    """Point at which a static-worldline correlation is requested.

    ``s`` is the time separation, ``r`` the spatial separation, ``beta``
    the inverse bath temperature.  ``epsilon`` defaults to
    ``1e-3 * beta`` and must stay well below ``beta`` (at most a tenth)
    for the regularized values to be meaningful.
    """

    s: float
    beta: float
    r: float = 0.0
    epsilon: float | None = None

    def __post_init__(self) -> None:
        BathParams(self.beta)  # validates beta
        if self.r < 0.0:
            raise ValueError(f"r must be non-negative, got {self.r!r}")
        object.__setattr__(self, "epsilon", _resolve_epsilon(self.beta, self.epsilon))


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


# coth(y) - 1/y = sum_j _COTH[j] y^(2j+1), cut after y^7 (the next term
# is below 1e-12 relative inside _SERIES_RADIUS).  Every series at a
# removable singularity below is a derivative of it, cut at the same order.
_COTH = (Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945), Fraction(-1, 4725))


def _derived(k: int, power: int, sign: int = 1) -> tuple[float, ...]:
    # coefficients, in powers of t^2, of sign * the k-th t-derivative of
    # sum_j _COTH[j] t^(2j + power) once its lowest power of t is divided
    # out; zero padded so that every table runs through one 4-term Horner
    b = [sign * c * math.perm(2 * j + power, k) for j, c in enumerate(_COTH)]
    b = [float(c) for c in b if c]
    return tuple(b) + (0.0,) * (len(_COTH) - len(b))


_T_SERIES = _derived(0, 1)  # (coth y - 1/y)/y
_COINCIDENCE_SERIES = _derived(1, 1)  # d/dy (coth y - 1/y)
_STATIC_TD_SERIES = _derived(3, 1, -1)  # -d^3/dy^3 (coth y - 1/y)
# sum_j _COTH[j] Y_j s^(2j) with Y_j = yb^(2j+1) - yr^(2j+1), and minus
# its second s-derivative, which starts at Y_1
_WINDOW_SERIES = _derived(0, 0)
_WINDOW_TD_SERIES = _derived(2, 0, -1)


def _series(b, t2):
    return b[0] + t2 * (b[1] + t2 * (b[2] + t2 * b[3]))


def _window_series(b, p: int, s, window, beta: float):
    # c pi/(2 beta) sum_i b_i (yb^(p+2i) - yr^(p+2i)) s^(2i), y = pi*shift/beta
    red, blue, c = window
    yb, yr = math.pi * blue / beta, math.pi * red / beta
    t0 = b[0] * (yb ** p - yr ** p)
    t1 = b[1] * (yb ** (p + 2) - yr ** (p + 2))
    t2 = b[2] * (yb ** (p + 4) - yr ** (p + 4))
    t3 = b[3] * (yb ** (p + 6) - yr ** (p + 6))
    s2 = s * s
    return c * math.pi / (2.0 * beta) * (t0 + s2 * (t1 + s2 * (t2 + s2 * t3)))


def thermal_sin_transform(p: float | complex, beta: float) -> float | complex:
    """Bose-weighted sine transform ``int_0^inf sin(p k)/(e^(beta k) - 1) dk``.

    Closed form ``pi/(2 beta) coth(pi p / beta) - 1/(2 p)``, for a float
    or a complex ``p`` (the latter off the real axis by a regulator).  Odd
    in ``p``; the ``p = 0`` singularity is removable (the coth pole
    cancels the subtraction exactly) and is evaluated through a short
    series, which takes over below ``|pi p / beta| = 0.1``.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    y = math.pi * p / beta
    if abs(y) < _SERIES_RADIUS:
        return math.pi / (2.0 * beta) * (y * _series(_T_SERIES, y * y))
    return math.pi / (2.0 * beta) * _coth(y) - 1.0 / (2.0 * p)


def vacuum_wightman(s: float, epsilon: float, r: float = 0.0) -> complex:
    """Regularized vacuum kernel ``-1/(4 pi^2 ((s - i eps)^2 - r^2))``."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    sc = complex(s, -epsilon)
    return -1.0 / (FOUR_PI2 * (sc * sc - r * r))


def wightman_coincidence(s: float, beta: float) -> float:
    """Purely thermal part of the correlation at spatial coincidence.

    The image-sum term ``-1/(4 beta^2 sinh^2(pi s / beta))``; the full
    static function at ``r = 0`` is this plus the vacuum kernel plus the
    ``1/(4 pi^2 s^2)`` pole subtraction.  Diverges at ``s = 0``.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    if s == 0.0:
        raise ValueError("coincidence term diverges at s = 0")
    x = math.pi * s / beta
    return -_csch2(x) / (4.0 * beta * beta)


def _pole_shift(s: float, eps: float, r: float = 0.0):
    # s, or s - i eps with a warning when s lies within eps/10 of a
    # light-cone pole s = +-r (r >= 0); the warning names the first
    # caller outside this module
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
        return _series(_COINCIDENCE_SERIES, x * x) / (4.0 * beta * beta)
    return 1.0 / (FOUR_PI2 * s * s) - _csch2(x) / (4.0 * beta * beta)


def wightman_static(query: CorrelationQuery) -> complex:
    """Thermal correlation along a static worldline.

    Vacuum kernel plus the spherically averaged thermal mode sum,

        W(s, r) = vac(s, r) + [T(s + r) - T(s - r)] / (4 pi^2 r)

    with ``T`` the Bose-weighted sine transform; the ``r -> 0`` limit is
    taken analytically.  Near a light-cone pole (either ``|s| - r`` or
    ``|s| + r`` within ``epsilon/10`` of zero) the thermal arguments are
    complex shifted and a :class:`PoleProximityWarning` is emitted.
    """
    s, r, beta, eps = query.s, query.r, query.beta, query.epsilon
    vac = vacuum_wightman(s, eps, r)
    s_eval = _pole_shift(s, eps, r)
    if r == 0.0:
        return vac + complex(_coincidence_correction(s_eval, beta))
    tst = thermal_sin_transform
    return vac + (tst(s_eval + r, beta) - tst(s_eval - r, beta)) / (FOUR_PI2 * r)


def _worldline(s: float, detector: DetectorParams, bath: BathParams, epsilon):
    # shared by wightman_moving and wightman_derivative: the regulator,
    # the separation (shifted near the pole), the Doppler window
    # (red, blue, prefactor), None below _V_STATIC, and whether the
    # blue-shifted argument lies inside the series radius
    beta = bath.beta
    eps = _resolve_epsilon(beta, epsilon)
    s_eval = _pole_shift(s, eps)
    v = detector.velocity
    if v < _V_STATIC:
        return eps, s_eval, None, False
    red, blue = doppler_shifts(v)
    c = math.sqrt(1.0 - v * v) / (FOUR_PI2 * v)
    series = abs(math.pi * blue * s_eval / beta) < _SERIES_RADIUS
    return eps, s_eval, (red, blue, c), series


def wightman_moving(
    s: float,
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex:
    """Thermal correlation along the moving detector's worldline.

    ``s`` is the proper-time separation.  The thermal mode sum seen by
    the detector is Doppler stretched,

        W(s) = vac(s) + sqrt(1 - v^2)/(4 pi^2 v s) [T(blue*s) - T(red*s)],

    and collapses to the static ``r = 0`` form below ``v = 1e-6``.
    Emits :class:`PoleProximityWarning` within ``epsilon/10`` of the
    coincidence pole.
    """
    beta = bath.beta
    eps, s_eval, window, series = _worldline(s, detector, bath, epsilon)
    if window is None:
        th = _coincidence_correction(s_eval, beta)
    elif series:
        th = _window_series(_WINDOW_SERIES, 1, s_eval, window, beta)
    else:
        red, blue, c = window
        tst = thermal_sin_transform
        th = c * (tst(blue * s_eval, beta) - tst(red * s_eval, beta)) / s_eval
    return vacuum_wightman(s, eps) + complex(th)


def _wtd_thermal_static(s_eval, beta: float):
    # minus the second s-derivative of the r = 0 thermal correction
    x = math.pi * s_eval / beta
    pref = math.pi ** 2 / (4.0 * beta ** 4)
    if abs(x) < _SERIES_RADIUS:
        return pref * _series(_STATIC_TD_SERIES, x * x)
    c2 = _csch2(x)
    ct = _coth(x)
    return (
        -3.0 / (2.0 * math.pi ** 2 * s_eval ** 4)
        + pref * (4.0 * c2 * ct * ct + 2.0 * c2 * c2)
    )


def _g2(s_eval, d: float, beta: float):
    # second s-derivative of T(d*s)/s for the closed hyperbolic T
    y = math.pi * d / beta
    c2, ct, s2 = _csch2(y * s_eval), _coth(y * s_eval), s_eval * s_eval
    inner = 2.0 * y * y * c2 * ct / s_eval + 2.0 * y * c2 / s2 + 2.0 * ct / (s2 * s_eval)
    return math.pi / (2.0 * beta) * inner - 3.0 / (d * s2 * s2)


def wightman_derivative(
    s: float,
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex:
    """Correlation of the field's proper-time derivative along the worldline.

    Minus the second ``s``-derivative of :func:`wightman_moving`,
    evaluated in closed form: the vacuum part is
    ``3/(2 pi^2 (s - i eps)^4)`` and the thermal part differentiates the
    hyperbolic mode sum analytically.  The large-``s`` power tails of
    the two parts cancel, leaving the expected exponential decay.
    """
    beta = bath.beta
    eps, s_eval, window, series = _worldline(s, detector, bath, epsilon)
    if window is None:
        th = _wtd_thermal_static(s_eval, beta)
    elif series:
        th = _window_series(_WINDOW_TD_SERIES, 3, s_eval, window, beta)
    else:
        red, blue, c = window
        th = -c * (_g2(s_eval, blue, beta) - _g2(s_eval, red, beta))
    return 3.0 / (2.0 * math.pi ** 2 * complex(s, -eps) ** 4) + complex(th)


# --- brute-force cross-checks ------------------------------------------------

_KMAX_THERMAL = 60.0  # modes above 60/beta are suppressed below 1e-26


def _thermal_quadrature(integrand, beta: float, what: str) -> float:
    val, err = integrate.quad(
        integrand,
        0.0,
        _KMAX_THERMAL / beta,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=1000,
    )
    if not math.isfinite(val) or err > max(1e-8 * abs(val), 1e-12):
        raise QuadratureError(
            f"{what} quadrature only reached an error estimate of {err:.3e}"
        )
    return val


def _static_kernel(beta: float, s: float):
    def integrand(k: float) -> float:
        return k * math.cos(k * s) / (math.expm1(beta * k) * 2.0 * math.pi ** 2)

    return integrand


def wightman_static_quadrature(query: CorrelationQuery) -> complex:
    """Mode-sum cross-check of :func:`wightman_static`.

    Vacuum part in regularized closed form, thermal part by adaptive
    quadrature of the Bose-weighted spherical kernel.  Intended for
    tests: slower and, near poles, less uniform than the closed form.
    """
    s, r, beta, eps = query.s, query.r, query.beta, query.epsilon
    vac = vacuum_wightman(s, eps, r)
    if r == 0.0:
        th = _thermal_quadrature(_static_kernel(beta, s), beta, "static coincidence")
        return vac + th

    def integrand(k: float) -> float:
        return (math.sin(k * (s + r)) - math.sin(k * (s - r))) / (
            math.expm1(beta * k) * FOUR_PI2 * r
        )

    th = _thermal_quadrature(integrand, beta, "static")
    return vac + th


def wightman_moving_quadrature(
    s: float,
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex:
    """Mode-sum cross-check of :func:`wightman_moving`."""
    beta = bath.beta
    eps = _resolve_epsilon(beta, epsilon)
    v = detector.velocity
    vac = vacuum_wightman(s, eps)
    if v < _V_STATIC:
        th = _thermal_quadrature(_static_kernel(beta, s), beta, "moving coincidence")
        return vac + th
    red, blue = doppler_shifts(v)
    c = math.sqrt(1.0 - v * v) / (FOUR_PI2 * v * s)

    def integrand(k: float) -> float:
        return (
            c
            * (math.sin(blue * k * s) - math.sin(red * k * s))
            / math.expm1(beta * k)
        )

    th = _thermal_quadrature(integrand, beta, "moving")
    return vac + th


def wightman_derivative_fd(
    s: float,
    detector: DetectorParams,
    bath: BathParams,
    epsilon: float | None = None,
) -> complex:
    """Five-point finite-difference cross-check of :func:`wightman_derivative`.

    Applies minus the central second-difference stencil to
    :func:`wightman_moving`; the step ``1e-4 * beta`` balances truncation
    against cancellation for separations of order ``beta``.
    """
    h = 1e-4 * bath.beta

    def f(x: float) -> complex:
        return wightman_moving(x, detector, bath, epsilon)

    second = (
        -f(s - 2.0 * h)
        + 16.0 * f(s - h)
        - 30.0 * f(s)
        + 16.0 * f(s + h)
        - f(s + 2.0 * h)
    ) / (12.0 * h * h)
    return -second


def markov_diagnostic(detector: DetectorParams, bath: BathParams) -> MarkovDiagnostic:
    """Check whether the Markovian reduction is trustworthy here.

    The bath correlation time is ``beta``; the master equation
    coarse-grains over it, which is justified while the bath still looks
    hot to the detector.  The most pessimistic Doppler factor is the
    receding one, so validity is flagged when even the red-shifted
    temperature stays above ``MARKOV_MIN_TEMP_RATIO`` times the gap.
    """
    red, _ = doppler_shifts(detector.velocity)
    t_red = bath.temperature * red
    return MarkovDiagnostic(
        correlation_time=bath.beta,
        redshifted_temperature=t_red,
        valid=t_red >= MARKOV_MIN_TEMP_RATIO * detector.omega,
    )
