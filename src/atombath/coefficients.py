"""Relaxation rate and mean occupation number for a moving detector.

A two-level system dragged at constant speed through an isotropic
thermal bath of massless scalar modes no longer sees the Planck
spectrum at its own gap: the isotropic bath is blue-shifted ahead and
red-shifted behind.  After the angular average, the effective mean
occupation number becomes a window average of the Planck distribution
over the Doppler interval ``[omega*red, omega*blue]`` with

    red  = sqrt((1 - v)/(1 + v)),   blue = sqrt((1 + v)/(1 - v)),

weighted uniformly for monopole (amplitude) coupling and by the cube of
the mode frequency for derivative coupling.  The cubic weighting gives
the rates of the bath-frame time-derivative correlator, not of the
proper-time derivative that :func:`atombath.correlations.wightman_derivative`
returns (ROADMAP.md, item 13).  The spontaneous rate picks up its own
kinematic factor but stays temperature independent.

Everything here is expressed in natural units (``hbar = c = k_B = 1``);
temperatures enter only through the dimensionless product
``beta * omega``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import _np as np
from .specfun import bose_head_ratio, bose_window, certified_gk21

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
    "lindblad_coefficients",
    "n_udw_quadrature",
    "n_td_quadrature",
]

TWO_PI = 2.0 * math.pi

# below this speed the direct formulas lose digits to the 1/v prefactor,
# so a second-order Taylor branch in v takes over
SMALL_VELOCITY = 1e-4
# and where beta*omega*v is below this too: the Taylor branch errs by about
# 1e-2 (beta*omega*v)^4 relative, under 1e-12 here
_TAYLOR_BV = 3e-3

# n_td takes its Doppler window with beta*omega squared factored out once
# the window's blue edge lies below this; far above the subnormal range
_TINY_WINDOW = 1e-100

DEFAULT_V_MAX = 0.99

# speeds per window quadrature call in a block: a call's node arrays, two
# components per speed x up to 400 panels x 21 nodes, stay near 2 MB
_WINDOW_SLICE = 16


class Coupling(Enum):
    """How the two-level system couples to the scalar field."""

    UDW = "udw"  # monopole coupling to the field amplitude
    # coupling to a time derivative of the field: the rates are the bath-frame
    # derivative's, wightman_derivative the proper-time one's (ROADMAP.md, item 13)
    DERIVATIVE = "td"


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
        # time axes are divided by rate_unit and the rates scale every
        # generator: a subnormal unit overflows t/unit, an infinite one is no rate
        for rate in (rate_unit,) if self.coupling is Coupling.UDW else (rate_unit, gamma_td):
            try:
                r = rate(self)
            except OverflowError:  # float ** raises where float * gives inf
                r = math.inf
            if not sys.float_info.min <= r < math.inf:
                raise ValueError(
                    f"{rate.__name__} at v = {self.velocity!r} is {r!r}, outside the normal floats"
                )

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

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if not self.n >= 0.0:
            raise ValueError(f"n must be non-negative, got {self.n!r}")
        if not math.isfinite(self.omega_eff):
            raise ValueError(f"omega_eff must be finite, got {self.omega_eff!r}")
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

    A mode arriving at angle ``theta`` to the motion shows the isotropic
    bath at ``T/(gamma (1 - v cos theta))``, which runs from ``T red``
    dead astern to ``T blue`` dead ahead: ``(T red, T blue)``, the same
    window the occupations average over.
    """
    red, blue = doppler_shifts(velocity)
    t = bath.temperature
    return t * red, t * blue


def _planck(b: float) -> tuple[float, float, float]:
    # u = e^-b, the Planck occupation p = u/(1 - u) and r = b/(1 - u), with
    # 1 - u from expm1: nothing cancels in a hot bath, and p underflows to 0
    # by itself in a cold one
    u = math.exp(-b)
    one = -math.expm1(-b)
    return u, u / one, b / one


def planck_occupation(x: float) -> float:
    """Planck mean occupation ``1/(e^x - 1)`` of a mode with ``beta*omega = x``."""
    if not x > 0.0:
        raise ValueError(f"beta*omega must be positive, got {x!r}")
    return _planck(x)[1]


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
        return gamma_udw(detector)
    return detector.lam ** 2 * detector.omega ** 3 / (6.0 * math.pi)


def _beta_omega(bath: BathParams, omega: float) -> float:
    if not (b := bath.beta * omega) < math.inf:  # the occupations would turn to nan
        raise ValueError(f"beta*omega overflows: beta={bath.beta!r}, omega={omega!r}")
    # the occupation ~1/b overflows where b * max < 1; float(): a numpy b would warn
    if not float(b) * sys.float_info.max >= 1.0:
        raise ValueError(f"beta*omega {b!r} is too small: the occupation ~1/(beta*omega) overflows")
    return b


def _n_udw_taylor(b: float, v: float) -> float:
    # N = P + c2 v^2 + O(v^4), P the Planck occupation at beta*omega = b.
    # c2 follows from expanding the window average to second order in v
    u, p, r = _planck(b)
    c2 = (r * p / 2.0) * (r * (1.0 + u) / 3.0 - 1.0)
    return p + c2 * v * v


def n_udw(detector: DetectorParams, bath: BathParams) -> float:
    """Effective mean occupation number for monopole coupling.

    The uniform average of the Planck occupation over the Doppler window
    of apparent mode frequencies, in closed form

        sqrt(1 - v^2)/(2 v b) * log[(1 - e^(-b*blue))/(1 - e^(-b*red))]

    with ``b = beta * omega``.  Reduces to the Planck value at ``v = 0``
    (via a Taylor branch where ``v < 1e-4`` and ``b v < 3e-3``) and to 0
    as ``b -> inf``.
    """
    b = _beta_omega(bath, detector.omega)
    v = detector.velocity
    if v < SMALL_VELOCITY and b * v < _TAYLOR_BV:
        return _n_udw_taylor(b, v)
    red, _ = doppler_shifts(v)
    lo = b * red
    # the window width b*(blue - red) without cancelling blue - red
    width = b * (2.0 * v) / math.sqrt(1.0 - v * v)
    # the window logarithm as one log1p: in a cold bath both
    # log(1 - e^-x) are ~ -e^-x and their difference would cancel
    ratio = math.exp(-lo) * -math.expm1(-width) / -math.expm1(-lo)
    # b divides last: 1/(2 v b) alone overflows in a hot bath at small v
    return math.sqrt(1.0 - v * v) / (2.0 * v) * math.log1p(ratio) / b


def _n_td_taylor(b: float, v: float) -> float:
    # N = P + d2 v^2 + O(v^4) for the cubic-weighted window average; the
    # second derivatives of the tail integral enter through the window
    # endpoints and the (3 + v^2) normalization contributes -4P/3
    u, p, r = _planck(b)
    # d2 = -4p/3 - F''(b)/(2b) - F'''(b)/6 for F(x) = int_x^inf t^2/(e^t - 1) dt,
    # F'' = p b (r - 2) and F''' = p (4r - 2 - r^2 (1 + u)); its terms in p alone
    # cancel, so no multiple of p ~ 1/b overflows in a hot bath, and a frozen
    # bath's p = 0 meets p r before any overflowed r*r
    d2 =(p * r / 6.0) * (r * (1.0 + u) - 7.0)
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
    b = _beta_omega(bath, detector.omega)
    v = detector.velocity
    if v < SMALL_VELOCITY and b * v < _TAYLOR_BV:
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


def lindblad_coefficients(detector: DetectorParams, bath: BathParams) -> LindbladCoefficients:
    """Bundle the rates for the detector's coupling into one object."""
    if detector.coupling is Coupling.UDW:
        gamma = gamma_udw(detector)
        n = n_udw(detector, bath)
    else:
        gamma = gamma_td(detector)
        n = n_td(detector, bath)
    return LindbladCoefficients(gamma=gamma, n=n, omega_eff=detector.omega)


def _window_mean(b: float, speeds: Sequence[float], powers: tuple[int, ...]):
    """Window means of ``(x/b)^p P(x)``, ``P`` the Planck occupation, over
    the Doppler window ``x = lo + w t``, ``t`` in [0, 1], at each speed and power.

    Every (speed, power) pair is one component, speed by speed, of one
    :func:`~atombath.specfun.certified_gk21` call on one shared mesh, so a
    value's last digits may move with the speeds around it, within its error
    estimate.  Returns lists over the speeds of ``scale = e^-lo`` and ``unit``,
    then ``(speeds, powers)`` arrays of the means (times ``unit``, without
    ``scale``) and of their error estimates.  A failure names the first
    speed with a component the mesh could not certify.
    """
    # the width w = b*(blue - red) is taken whole, so no rounded edge
    # difference is divided by v, and at v = 0 the window is its one point
    los = [b * doppler_shifts(v)[0] for v in speeds]
    widths = [b * (2.0 * v) / math.sqrt(1.0 - v * v) for v in speeds]
    # e^-lo is taken out of the integrand, which then keeps its red-edge size
    # however cold the bath, and returned apart: callers apply it last, so a
    # subnormal n is not flushed to 0; where e^-lo underflows, so does the window
    scales = [math.exp(-lo) for lo in los]
    # in the hottest baths the integrand ~1/lo passes the largest float: unit, the
    # power of two just above lo (1 from lo = 0.5 up), scales it exactly before the
    # 1/x, and callers divide it out after their prefactor, before e^-lo
    units = [math.ldexp(1.0, min(0, math.frexp(lo)[1])) for lo in los]
    vals = np.zeros((len(speeds), len(powers)))
    errs = np.zeros((len(speeds), len(powers)))
    live = [i for i, scale in enumerate(scales) if scale]
    if not live:
        return scales, units, vals, errs
    lo, w, unit = (np.array([xs[i] for i in live])[:, None] for xs in (los, widths, units))

    def integrand(t):
        x = lo + w * t
        # 1/(e^x - 1) written with e^-x, which cannot overflow past x = 709
        e, d = np.exp(lo - x), -np.expm1(-x)
        return np.stack([(x / b) ** p * e * unit / d for p in powers], axis=1).reshape(-1, len(t))

    # epsabs=0 keeps the stopping target relative, as the check is; cold
    # windows have values far below any fixed absolute target
    val, err = certified_gk21(
        integrand, (0.0, 1.0),
        lambda k: f"window quadrature for b={b}, v={speeds[live[k // len(powers)]]}",
        1e-10, 1e-280, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    vals[live] = val.reshape(len(live), len(powers))
    errs[live] = err.reshape(len(live), len(powers))
    return scales, units, vals, errs


def _window_occupations(b: float, speeds: Sequence[float], powers: tuple[int, ...] = (0, 2)):
    # the occupations at every speed, one list per power (n_udw for 0, n_td for
    # 2), from one _window_mean call per _WINDOW_SLICE speeds
    columns = [[] for _ in powers]
    for lo in range(0, len(speeds), _WINDOW_SLICE):
        part = speeds[lo : lo + _WINDOW_SLICE]
        scales, units, means, _ = _window_mean(b, part, powers)
        for v, scale, unit, row in zip(part, scales, units, means.tolist()):
            # n_td's weight first, then unit and, last, e^-lo divided back out
            td = 3.0 * (1.0 - v * v) / (3.0 + v * v)
            for column, p, mean in zip(columns, powers, row):
                column.append((td if p else 1.0) * mean / unit * scale)
    return columns


def n_udw_quadrature(detector: DetectorParams, bath: BathParams) -> float:
    """Brute-force cross-check of :func:`n_udw`: the window mean by quadrature."""
    return _window_occupations(_beta_omega(bath, detector.omega), [detector.velocity], (0,))[0][0]


def n_td_quadrature(detector: DetectorParams, bath: BathParams) -> float:
    """Brute-force cross-check of :func:`n_td`: the cubic-weighted window mean by quadrature."""
    return _window_occupations(_beta_omega(bath, detector.omega), [detector.velocity], (2,))[0][0]
