"""Test-only references: a Bose-Einstein quadrature and two asymptotes of ``n_udw``.

None of these is used by the package at run time.  The Bose-Einstein
integral cross-checks :func:`atombath.specfun.polylog` and
:func:`atombath.specfun.bose_tail` by QUADPACK, accepted through the
package's own rule :func:`atombath.specfun.certify`; the two asymptotes
bound :func:`atombath.coefficients.n_udw` in hot and cold baths.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from atombath.coefficients import BathParams, DetectorParams, _beta_omega, doppler_shifts
from atombath.specfun import certify


def bose_einstein_integral(s: int, x: float) -> float:
    """Bose-Einstein integral ``(1/s!) int_0^inf k^s / (e^(k-x) - 1) dk``.

    Equals ``Li_{s+1}(e^x)`` for ``x <= 0``, which makes it an
    independent quadrature cross-check of :func:`atombath.specfun.polylog`.
    Supported for ``s`` in {1, 2} and ``x <= 0``; relative accuracy 1e-10.

    Raises
    ------
    QuadratureError
        If the adaptive quadrature does not converge; the message
        carries the achieved error estimate.
    """
    if s not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {s!r}")
    if x > 0.0:
        raise ValueError(f"fugacity exponent must satisfy x <= 0, got {x!r}")

    def integrand(k: float) -> float:
        if k - x > 700.0:
            # k^s e^(x - k) is below any representable contribution
            return 0.0
        return k ** s / math.expm1(k - x)

    # epsabs=0 keeps the convergence target relative, so strongly
    # suppressed integrands (x far below zero) still certify; the check
    # runs before the division by s!, hence the floor of 1e-300 s!
    fact = math.gamma(s + 1)
    what = f"Bose-Einstein quadrature for s={s}, x={x}"
    val, err = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return certify(val, err, what, 1e-10, 1e-300 * fact) / fact


def n_udw_high_temp(detector: DetectorParams, bath: BathParams) -> float:
    """Leading high-temperature form of :func:`atombath.coefficients.n_udw`.

    For ``b = beta*omega -> 0`` the window-average logarithm tends to
    ``log(blue/red) = 2 artanh(v)``, leaving

        sqrt(1 - v^2) * artanh(v) / (v * b).

    Good to about 1% already at ``b = 0.01`` for moderate speeds.
    """
    b = _beta_omega(bath, detector.omega)
    v = detector.velocity
    if v == 0.0:
        return 1.0 / b
    return math.sqrt(1.0 - v * v) * math.atanh(v) / (v * b)


def n_udw_low_temp(detector: DetectorParams, bath: BathParams) -> float:
    """Leading low-temperature form of :func:`atombath.coefficients.n_udw`.

    Keeping the first term of the fugacity expansion of the window
    logarithm gives

        sqrt(1 - v^2)/(2 v b) * (e^(-b*red) - e^(-b*blue)),

    dominated by the red-shifted edge of the window: motion through a
    cold bath raises the occupation above the Planck value because the
    softened modes astern are easier to absorb.  Reduces to ``e^-b`` as
    ``v -> 0``.
    """
    b = _beta_omega(bath, detector.omega)
    v = detector.velocity
    red, _ = doppler_shifts(v)
    # the difference as e^(-b red) (1 - e^(-b w))/(b w), w = blue - red
    bw = b * (2.0 * v) / math.sqrt(1.0 - v * v)  # 0 at v = 0, where the quotient tends to 1
    return math.exp(-b * red) * (-math.expm1(-bw) / bw if bw else 1.0)
