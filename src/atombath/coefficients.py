"""Relaxation rate and mean occupation number for a moving detector.

A two-level system dragged at constant speed through an isotropic
thermal bath of massless scalar modes no longer sees the Planck
spectrum at its own gap: the isotropic bath is blue-shifted ahead and
red-shifted behind.  After the angular average, the effective mean
occupation number becomes a window average of the Planck distribution
over the Doppler interval ``[omega*red, omega*blue]`` with

    red  = sqrt((1 - v)/(1 + v)),   blue = sqrt((1 + v)/(1 - v)),

weighted uniformly for monopole (amplitude) coupling and by the cube of
the mode frequency for proper-time-derivative coupling.  The
spontaneous rate picks up its own kinematic factor but stays
temperature independent.

Everything here is expressed in natural units (``hbar = c = k_B = 1``);
temperatures enter only through the dimensionless product
``beta * omega``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy import integrate

from .specfun import QuadratureError, bose_head_ratio, bose_window

__all__ = [
    "Coupling",
    "DetectorParams",
    "BathParams",
    "LindbladCoefficients",
    "DEFAULT_V_MAX",
    "SMALL_VELOCITY",
    "doppler_shifts",
    "doppler_window",
    "planck_occupation",
    "gamma_udw",
    "gamma_td",
    "rate_unit",
    "n_udw",
    "n_td",
    "n_udw_high_temp",
    "n_udw_low_temp",
    "lindblad_coefficients",
    "n_udw_quadrature",
    "n_td_quadrature",
]

TWO_PI = 2.0 * math.pi

# below this speed the direct formulas lose digits to the 1/v prefactor,
# so a second-order Taylor branch in v takes over
SMALL_VELOCITY = 1e-4

# past this, exp(-beta*omega*red) underflows for any physical window
_EXP_UNDERFLOW = 700.0

# n_td takes its Doppler window with beta*omega squared factored out once
# the window's blue edge lies below this; far above the subnormal range
_TINY_WINDOW = 1e-100

DEFAULT_V_MAX = 0.99


class Coupling(Enum):
    """How the two-level system couples to the scalar field."""

    UDW = "udw"  # monopole coupling to the field amplitude
    DERIVATIVE = "td"  # coupling to the proper-time derivative of the field


@dataclass(frozen=True)
class DetectorParams:
    """Two-level system on an inertial worldline.

    ``omega`` is the level splitting, ``lam`` the dimensionless coupling
    strength, ``velocity`` the speed as a fraction of c.  ``v_max``
    bounds the allowed speed; the Markovian treatment degrades as the
    blue-shifted bath correlation time approaches the system timescale,
    so ultrarelativistic speeds are rejected rather than silently
    accepted.
    """

    omega: float
    lam: float
    velocity: float
    coupling: Coupling = Coupling.UDW
    v_max: float = DEFAULT_V_MAX

    def __post_init__(self) -> None:
        # lam = 0 leaves no spontaneous rate and a zero rate_unit
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")
        if not 0.0 < self.v_max < 1.0:
            raise ValueError(f"v_max must lie in (0, 1), got {self.v_max!r}")
        if not 0.0 <= self.velocity <= self.v_max:
            raise ValueError(
                f"velocity must lie in [0, v_max={self.v_max}], "
                f"got {self.velocity!r}"
            )
        if not isinstance(self.coupling, Coupling):
            raise TypeError(f"coupling must be a Coupling, got {self.coupling!r}")

    @property
    def lorentz_gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.velocity ** 2)


@dataclass(frozen=True)
class BathParams:
    """Thermal scalar bath at inverse temperature ``beta``."""

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


@dataclass(frozen=True)
class LindbladCoefficients:
    """Rates entering the master equation.

    ``gamma`` is the spontaneous emission rate, ``n`` the effective mean
    occupation number, ``omega_eff`` the Lamb-shifted level splitting.
    The damping rate ``a = gamma * (2n + 1)`` and pump asymmetry
    ``b = -gamma`` are derived, never stored, so the identity
    ``a**2 - b**2 = 4 gamma**2 n (n + 1)`` holds by construction.
    """

    gamma: float
    n: float
    omega_eff: float
    delta_omega: float = 0.0

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if self.n < 0.0:
            raise ValueError(f"n must be non-negative, got {self.n!r}")
        if not math.isfinite(self.a):
            raise ValueError(
                f"damping rate a = gamma*(2n+1) must be finite, got {self.a!r} "
                f"for gamma={self.gamma!r}, n={self.n!r}"
            )

    @property
    def a(self) -> float:
        """Total transverse damping rate ``gamma * (2n + 1)``."""
        return self.gamma * (2.0 * self.n + 1.0)

    @property
    def b(self) -> float:
        """Longitudinal drift coefficient, ``-gamma``."""
        return -self.gamma


def doppler_shifts(velocity: float) -> tuple[float, float]:
    """Relativistic red and blue shift factors ``sqrt((1 -+ v)/(1 +- v))``.

    Returned as ``(red, blue)`` with ``red <= 1 <= blue`` and
    ``red * blue == 1``.
    """
    if not 0.0 <= velocity < 1.0:
        raise ValueError(f"velocity must lie in [0, 1), got {velocity!r}")
    red = math.sqrt((1.0 - velocity) / (1.0 + velocity))
    return red, 1.0 / red


def doppler_window(bath: BathParams, velocity: float) -> tuple[float, float]:
    """Extreme apparent temperatures across the sky of a moving observer.

    A source dead ahead is blue-shifted by the full relativistic Doppler
    factor ``(1 + v)/(1 - v) = blue**2``, one dead astern red-shifted by
    its inverse, so the isotropic bath at temperature ``T`` spans
    apparent temperatures ``(T red**2, T blue**2)``.
    """
    red, blue = doppler_shifts(velocity)
    t = bath.temperature
    return t * red * red, t * blue * blue


def planck_occupation(x: float) -> float:
    """Planck mean occupation ``1/(e^x - 1)`` of a mode with ``beta*omega = x``."""
    if not x > 0.0:
        raise ValueError(f"beta*omega must be positive, got {x!r}")
    if x > _EXP_UNDERFLOW:
        return 0.0
    return 1.0 / math.expm1(x)


def gamma_udw(detector: DetectorParams) -> float:
    """Spontaneous emission rate for monopole coupling: ``lam^2 omega / 2 pi``.

    Velocity independent; the kinematic factors of the moving-frame
    response cancel in the angular average.
    """
    return detector.lam ** 2 * detector.omega / TWO_PI


def gamma_td(detector: DetectorParams) -> float:
    """Spontaneous emission rate for derivative coupling.

    ``(lam^2 omega^3 / 6 pi) (3 + v^2)/(1 - v^2)``; the bracket is
    ``1 + 2 cosh(2 artanh v)`` rewritten without hyperbolics.  Grows with
    speed and reduces to ``lam^2 omega^3 / 2 pi`` at rest.
    """
    v2 = detector.velocity ** 2
    return detector.lam ** 2 * detector.omega ** 3 * (3.0 + v2) / (6.0 * math.pi * (1.0 - v2))


def rate_unit(detector: DetectorParams) -> float:
    """Rate unit used for dimensionless time axes.

    ``lam^2 omega / 2 pi`` for monopole coupling and
    ``lam^2 omega^3 / 6 pi`` for derivative coupling (the bare prefactor
    of the rate, not the rest-frame rate itself).
    """
    if detector.coupling is Coupling.UDW:
        return detector.lam ** 2 * detector.omega / TWO_PI
    return detector.lam ** 2 * detector.omega ** 3 / (6.0 * math.pi)


def _n_udw_taylor(b: float, v: float) -> float:
    # N = P + c2 v^2 + O(v^4), P the Planck occupation at beta*omega = b.
    # c2 follows from expanding the window average to second order in v.
    # 1 - e^-b comes from expm1 and b/(1 - e^-b) stays one ratio r, so
    # nothing cancels or underflows in a hot bath
    if b > _EXP_UNDERFLOW:
        return 0.0
    u = math.exp(-b)
    one = -math.expm1(-b)
    p = u / one
    r = b / one
    c2 = (r * p / 2.0) * (r * (1.0 + u) / 3.0 - 1.0)
    return p + c2 * v * v


def n_udw(detector: DetectorParams, bath: BathParams) -> float:
    """Effective mean occupation number for monopole coupling.

    The uniform average of the Planck occupation over the Doppler window
    of apparent mode frequencies, in closed form

        sqrt(1 - v^2)/(2 v b) * log[(1 - e^(-b*blue))/(1 - e^(-b*red))]

    with ``b = beta * omega``.  Reduces to the Planck value at ``v = 0``
    (via a Taylor branch below ``v = 1e-4``) and to 0 as ``b -> inf``.
    """
    b = bath.beta * detector.omega
    v = detector.velocity
    if v < SMALL_VELOCITY:
        return _n_udw_taylor(b, v)
    red, blue = doppler_shifts(v)
    hi = b * blue
    lo = b * red
    if lo > _EXP_UNDERFLOW:
        return 0.0
    # the window logarithm as one log1p: in a cold bath both
    # log(1 - e^-x) are ~ -e^-x and their difference would cancel
    ratio = math.exp(-lo) * -math.expm1(lo - hi) / -math.expm1(-lo)
    return math.sqrt(1.0 - v * v) / (2.0 * v * b) * math.log1p(ratio)


def _n_td_taylor(b: float, v: float) -> float:
    # N = P + d2 v^2 + O(v^4) for the cubic-weighted window average; the
    # second derivatives of the tail integral enter through the window
    # endpoints and the (3 + v^2) normalization contributes -4P/3.  As in
    # _n_udw_taylor, expm1 and r = b/(1 - e^-b) keep hot baths exact
    if b > _EXP_UNDERFLOW:
        return 0.0
    u = math.exp(-b)
    one = -math.expm1(-b)
    p = u / one
    r = b / one
    # F''(b) and F'''(b) for F(x) = int_x^inf t^2/(e^t - 1) dt
    f2 = (r - 2.0) * b * p
    f3 = -2.0 * p + 4.0 * r * p - r * r * p * (1.0 + u)
    d2 = -(4.0 / 3.0) * p - f2 / (2.0 * b) - f3 / 6.0
    return p + d2 * v * v


def n_td(detector: DetectorParams, bath: BathParams) -> float:
    """Effective mean occupation number for derivative coupling.

    The cubic-weighted window average

        3 (1 - v^2)^(3/2) / (2 v b^3 (3 + v^2)) *
            int_{b*red}^{b*blue} x^2/(e^x - 1) dx

    evaluated through the window integral
    :func:`atombath.specfun.bose_window`.  Shares the Planck ``v -> 0``
    limit with :func:`n_udw` but weights the blue end of the window less
    once the temperature is low, which makes it fall off faster with
    speed in the regimes of interest.
    """
    b = bath.beta * detector.omega
    v = detector.velocity
    if v < SMALL_VELOCITY:
        return _n_td_taylor(b, v)
    red, blue = doppler_shifts(v)
    gm2 = 1.0 - v * v
    pref = 3.0 * gm2 * math.sqrt(gm2) / (2.0 * v * (3.0 + v * v))
    if b * blue < _TINY_WINDOW:
        # the window itself (~ b^2) would near the subnormals: take b^2
        # out of its head series, window/b^2 = blue^2 g(b blue) - red^2 g(b red)
        scaled = blue * blue * bose_head_ratio(b * blue) - red * red * bose_head_ratio(b * red)
        return pref * scaled / b
    # three divisions by b, not one by b**3, which underflows below ~1e-103
    return pref * bose_window(b * red, b * blue) / b / b / b


def n_udw_high_temp(detector: DetectorParams, bath: BathParams) -> float:
    """Leading high-temperature form of :func:`n_udw`.

    For ``b = beta*omega -> 0`` the window-average logarithm tends to
    ``log(blue/red) = 2 artanh(v)``, leaving

        sqrt(1 - v^2) * artanh(v) / (v * b).

    Good to about 1% already at ``b = 0.01`` for moderate speeds.
    """
    b = bath.beta * detector.omega
    v = detector.velocity
    if v == 0.0:
        return 1.0 / b
    return math.sqrt(1.0 - v * v) * math.atanh(v) / (v * b)


def n_udw_low_temp(detector: DetectorParams, bath: BathParams) -> float:
    """Leading low-temperature form of :func:`n_udw`.

    Keeping the first term of the fugacity expansion of the window
    logarithm gives

        sqrt(1 - v^2)/(2 v b) * (e^(-b*red) - e^(-b*blue)),

    dominated by the red-shifted edge of the window: motion through a
    cold bath raises the occupation above the Planck value because the
    softened modes astern are easier to absorb.  Reduces to ``e^-b`` as
    ``v -> 0``.
    """
    b = bath.beta * detector.omega
    v = detector.velocity
    if v < SMALL_VELOCITY:
        # v -> 0 limit of the difference quotient
        return math.exp(-b) if b <= _EXP_UNDERFLOW else 0.0
    red, blue = doppler_shifts(v)
    lo = math.exp(-b * red) if b * red <= _EXP_UNDERFLOW else 0.0
    hi = math.exp(-b * blue) if b * blue <= _EXP_UNDERFLOW else 0.0
    return math.sqrt(1.0 - v * v) / (2.0 * v * b) * (lo - hi)


def lindblad_coefficients(
    detector: DetectorParams, bath: BathParams, delta_omega: float = 0.0
) -> LindbladCoefficients:
    """Bundle the rates for the detector's coupling into one object.

    ``delta_omega`` is the Lamb-type shift of the splitting; it feeds the
    coherent rotation only and never the rates.
    """
    if detector.coupling is Coupling.UDW:
        gamma = gamma_udw(detector)
        n = n_udw(detector, bath)
    else:
        gamma = gamma_td(detector)
        n = n_td(detector, bath)
    return LindbladCoefficients(
        gamma=gamma,
        n=n,
        omega_eff=detector.omega + delta_omega,
        delta_omega=delta_omega,
    )


def _window_quadrature(b: float, v: float, weight_power: int) -> float:
    red, blue = doppler_shifts(v)

    def integrand(x: float) -> float:
        # 1/(e^x - 1) written with e^-x, which cannot overflow past x = 709;
        # where e^-x underflows the integrand is 0 before x**p can overflow
        e = math.exp(-x)
        if e == 0.0:
            return 0.0
        return x ** weight_power * e / -math.expm1(-x)

    # epsabs=0 keeps the stopping target relative, as the check below is;
    # cold windows have values far below any fixed absolute target
    val, err = integrate.quad(
        integrand, b * red, b * blue, epsabs=0.0, epsrel=1e-12, limit=400
    )
    if not math.isfinite(val) or err > 1e-10 * max(abs(val), 1e-280):
        raise QuadratureError(
            f"window quadrature for b={b}, v={v} only reached an error "
            f"estimate of {err:.3e}"
        )
    return val


def n_udw_quadrature(detector: DetectorParams, bath: BathParams) -> float:
    """Brute-force cross-check of :func:`n_udw` by direct window quadrature."""
    b = bath.beta * detector.omega
    v = detector.velocity
    if v == 0.0:
        return planck_occupation(b)
    val = _window_quadrature(b, v, 0)
    return math.sqrt(1.0 - v * v) / (2.0 * v * b) * val


def n_td_quadrature(detector: DetectorParams, bath: BathParams) -> float:
    """Brute-force cross-check of :func:`n_td` by direct window quadrature."""
    b = bath.beta * detector.omega
    v = detector.velocity
    if v == 0.0:
        return planck_occupation(b)
    val = _window_quadrature(b, v, 2)
    gm2 = 1.0 - v * v
    return 3.0 * gm2 * math.sqrt(gm2) / (2.0 * v * (3.0 + v * v)) * val / b / b / b
