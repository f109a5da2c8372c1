"""Polylogarithms and Bose-Einstein integrals.

The thermal occupation numbers seen by a moving detector reduce to
window averages of the Planck distribution.  The cubic-weighted window
is the integral ``int_lo^hi t^2/(e^t - 1) dt``, evaluated by
:func:`bose_window` without cancellation from two short expansions of
``G(x) = int_0^x t^2/(e^t - 1) dt``:

* below ``x = 2`` the Bernoulli series of the Debye function ``D_3``,
  ``G(x) = sum_n B_n x^(n+2) / ((n + 2) n!)``, convergent for
  ``|x| < 2 pi``;
* from ``x = 2`` on the geometric tail
  ``T(x) = 2 zeta(3) - G(x) = sum_k e^(-k x) (x^2/k + 2x/k^2 + 2/k^3)``.

Neither needs more than about 20 terms.  The same tail also has a
closed antiderivative in ``Li_1``, ``Li_2`` and ``Li_3``
(:func:`bose_tail`); :func:`polylog` supports those three orders on real
arguments in ``[0, 1]`` through the defining power series

    Li_s(z) = sum_{k >= 1} z^k / k^s

summed with Kahan compensation, plus the closed form
``Li_1(z) = -log(1 - z)``.

The package's quadrature oracles all run on one engine here: a numpy
Gauss-Kronrod-21 panel kernel (:func:`certified_gk21`) that integrates
many integrands on one shared mesh, bisected adaptively from the
caller's breakpoints, with one acceptance rule (:func:`certify`).
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from . import _np as np

__all__ = [
    "QuadratureError",
    "ZETA_2",
    "ZETA_3",
    "polylog",
    "bose_tail",
    "bose_window",
    "bose_head_ratio",
]

ZETA_2 = math.pi ** 2 / 6.0
ZETA_3 = 1.2020569031595942854  # Apery's constant, zeta(3)

# series controls: terminate once a term falls below the relative cutoff,
# give up (and fall back to the z = 1 value) past the iteration cap
_TERM_CUTOFF = 1e-16
_SERIES_CAP = 10 ** 7

# bose_window switches from the Bernoulli series of G to the geometric
# tail T here: at x = 2 the series needs 16 even terms for 1e-17 and the
# tail ratio is e^-2, so neither runs long
_WINDOW_SPLIT = 2.0


def _bernoulli(n: int) -> tuple[Fraction, ...]:
    # B_0..B_n exactly, from sum_{k <= m} C(m + 1, k) B_k = 0, so B_1 = -1/2
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return tuple(b)


BERNOULLI = _bernoulli(32)

# B_2k / ((2k + 2) (2k)!) for k = 1..16, the even-order coefficients of
# G(x) = x^2/2 - x^3/6 + sum_k c_k x^(2k+2); the last one weighs 7e-18 of
# the sum at x = 2
_DEBYE3_COEFFS = tuple(
    float(BERNOULLI[2 * k] / ((2 * k + 2) * math.factorial(2 * k))) for k in range(1, 17)
)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def certify(value, error, what, rtol: float, floor: float):
    """``value`` if its error estimate certifies it, for a float or an array.

    Every component must be finite with an error estimate of at most
    ``rtol * max(|value|, floor)``; otherwise :class:`QuadratureError`
    names ``what`` and the first failing component's estimate.  ``what``
    is a string, or a function of that component's flat index that
    returns one.  The one acceptance rule of the quadrature oracles.
    """
    ok = np.isfinite(value) & (error <= rtol * np.maximum(np.abs(value), floor))
    if not np.all(ok):
        err = np.extract(~ok, error)[0]
        if callable(what):
            what = what(int(np.argmin(ok)))
        raise QuadratureError(f"{what} only reached an error estimate of {err:.3e}")
    return value


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21), on its 11
# nodes x >= 0 from the outside in: the Kronrod weights, and the 10-point
# Gauss weights, which sit on every other node and are 0 on the rest
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980222731, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651673, 0.0,
)
_EPS = sys.float_info.epsilon


@functools.cache
def _gk21_tables():
    # the 21 nodes in ascending order, and each rule's weights on them, as
    # arrays built on first use: importing the package loads no numpy
    xgk = np.array(_XGK)
    nodes = np.concatenate([-xgk, xgk[-2::-1]])
    kronrod, gauss = (np.concatenate([w, w[-2::-1]]) for w in map(np.array, (_WGK, _WG)))
    return nodes, kronrod, gauss


def _gk21(f, lo, hi):
    # each component's integral and QUADPACK error estimate on each panel
    # [lo, hi]: arrays (components, panels), and the round-off floor that
    # bisection cannot lower
    nodes, w_kronrod, w_gauss = _gk21_tables()
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    fx = f(x.ravel()).reshape(-1, len(lo), len(nodes))
    kronrod = fx @ w_kronrod
    resabs = np.abs(fx) @ w_kronrod * half
    resasc = np.abs(fx - 0.5 * kronrod[..., None]) @ w_kronrod * half
    diff = np.abs(kronrod - fx @ w_gauss) * half
    scaled = resasc * np.minimum(1.0, 200.0 * diff / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5
    noise = 50.0 * _EPS * resabs
    return kronrod * half, np.maximum(np.where(resasc > 0.0, scaled, diff), noise), noise


def certified_gk21(f, edges, what, rtol, floor, *, epsabs, epsrel, limit):
    """Integrals of many integrands over ``[edges[0], edges[-1]]`` on one
    shared panel mesh.

    ``f`` maps a 1-D array of nodes to a ``(components, nodes)`` array.
    The mesh starts from the caller's breakpoints ``edges`` (finite and
    strictly increasing, at most ``limit`` panels): the one panel
    ``(0, 1)`` for the occupation window oracles, a seed graded in
    ``beta * k`` for the thermal mode sums.  Every panel whose
    Gauss-Kronrod-21 error estimate (QUADPACK's heuristic) exceeds, for
    some component still short of ``max(epsabs, epsrel * |value|)``, that
    target over the panel count is bisected, the worst first, while the
    mesh holds at most ``limit`` panels; a panel at its round-off floor
    is not.  Returns each component's value and summed error estimate,
    the values only if :func:`certify` accepts them all.
    """
    edges = np.atleast_1d(np.asarray(edges, dtype=float))
    lo, hi = edges[:-1], edges[1:]
    if not (
        edges.ndim == 1 and 1 <= len(lo) <= limit and np.isfinite(edges).all() and (lo < hi).all()
    ):
        raise ValueError(
            f"edges must be 2 to limit + 1 = {limit + 1} finite, strictly increasing "
            f"breakpoints, got {edges!r}"
        )
    # non-finite values and estimates are left to certify, which rejects them
    with np.errstate(all="ignore"):
        val, err, noise = _gk21(f, lo, hi)
        while True:
            total, error = val.sum(axis=1), err.sum(axis=1)
            target = np.maximum(epsabs, epsrel * np.abs(total))
            short = error > target
            room = limit - len(lo)
            if not (short.any() and room):
                break
            # bisect every panel above its share of a short component's
            # target, the target over the panel count, unless it sits at its
            # round-off floor, where bisection cannot lower its error
            score = (np.where(err > noise, err, 0.0)[short] / target[short, None]).max(axis=0)
            split = np.flatnonzero(score > 1.0 / len(lo))
            if len(split) > room:
                split = np.sort(np.argsort(score)[-room:])
            if not len(split):
                break
            keep = np.ones(len(lo), bool)
            keep[split] = False
            mid = 0.5 * (lo[split] + hi[split])
            halves = _gk21(f, np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]))
            lo = np.concatenate([lo[keep], lo[split], mid])
            hi = np.concatenate([hi[keep], mid, hi[split]])
            val, err, noise = (
                np.concatenate([old[:, keep], part], axis=1)
                for old, part in zip((val, err, noise), halves)
            )
    return certify(total, error, what, rtol, floor), error


def polylog(s: int, z: float) -> float:
    """Polylogarithm ``Li_s(z)`` for ``s`` in {1, 2, 3} and ``0 <= z <= 1``.

    Parameters
    ----------
    s : int
        Order.  Only 1, 2 and 3 are supported; other orders are not
        needed for the bath coefficients and are rejected.
    z : float
        Argument.  Must lie in ``[0, 1]``.  ``z = 1`` is rejected for
        ``s = 1``, where the series diverges; for ``s = 2, 3`` it returns
        ``zeta(2)`` or ``zeta(3)``.

    Returns
    -------
    float

    Notes
    -----
    ``Li_1`` uses the closed form ``-log1p(-z)``.  For ``s = 2, 3`` the
    defining series is summed with Kahan compensation and terminates
    once a term drops below 1e-16 of the running sum.  Arguments within
    roughly 1e-7 of 1 would exhaust the iteration cap first; there the
    value at ``z = 1`` is returned, which is accurate to better than
    ``|z - 1| log|z - 1|``.
    """
    if s not in (1, 2, 3):
        raise ValueError(f"polylog order must be 1, 2 or 3, got {s!r}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"polylog argument must lie in [0, 1], got {z!r}")
    if s == 1:
        if z == 1.0:
            raise ValueError("Li_1 diverges at z = 1")
        return -math.log1p(-z)
    if z == 1.0:
        return ZETA_2 if s == 2 else ZETA_3
    if z == 0.0:
        return 0.0
    total = 0.0
    comp = 0.0
    zk = z
    for k in range(1, _SERIES_CAP + 1):
        term = zk / k ** s
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # <= so that a term underflowed to 0 ends the sum even when the
        # running total is itself subnormal
        if term <= _TERM_CUTOFF * total:
            return total
        zk *= z
    return ZETA_2 if s == 2 else ZETA_3


def bose_tail(x: float) -> float:
    """Upper tail of the quadratic Bose-Einstein integral.

    Evaluates ``int_x^inf t^2 / (e^t - 1) dt`` through its closed
    polylogarithmic antiderivative

        2 Li_3(e^-x) + 2 x Li_2(e^-x) + x^2 Li_1(e^-x).

    Strictly decreasing on ``[0, inf)`` from ``2 zeta(3)`` to 0.  The
    ``x -> 0`` limit is removable (the ``x^2 Li_1`` term vanishes
    against the logarithmic divergence of ``Li_1``) and is returned as
    exactly ``2 zeta(3)``.
    """
    if x < 0.0:
        raise ValueError(f"bose_tail requires x >= 0, got {x!r}")
    if x == 0.0:
        return 2.0 * ZETA_3
    z = math.exp(-x)
    if z == 0.0:
        # x beyond ~745: every term underflows
        return 0.0
    return 2.0 * polylog(3, z) + 2.0 * x * polylog(2, z) + x * x * polylog(1, z)


def bose_head_ratio(x: float) -> float:
    """``G(x)/x^2`` for ``0 <= x < 2``, ``G(x) = int_0^x t^2/(e^t - 1) dt``.

    The Bernoulli series of :func:`bose_window` with ``x^2`` factored
    out: it tends to 1/2 as ``x -> 0`` and stays a normal number where
    ``G(x)`` itself falls into subnormals (``x`` below ~1e-154).
    """
    if not 0.0 <= x < _WINDOW_SPLIT:
        raise ValueError(f"bose_head_ratio requires 0 <= x < 2, got {x!r}")
    y = x * x
    acc = 0.0
    for c in reversed(_DEBYE3_COEFFS):
        acc = acc * y + c
    return 0.5 - x / 6.0 + y * acc


def _debye3_head(x: float) -> float:
    # G(x) = int_0^x t^2/(e^t - 1) dt by its Bernoulli series, |x| < 2 pi
    return x * x * bose_head_ratio(x)


def _debye3_tail(x: float) -> float:
    # T(x) = int_x^inf t^2/(e^t - 1) dt by its image sum, x >= 2
    q = math.exp(-x)
    if q == 0.0:
        return 0.0
    total = 0.0
    qk = 1.0
    k = 0
    while True:
        k += 1
        qk *= q
        term = qk * (x * x / k + 2.0 * x / (k * k) + 2.0 / (k * k * k))
        total += term
        # an underflowed power of e^-x ends the sum as well
        if term <= 1e-17 * total:
            return total


def bose_window(lo: float, hi: float) -> float:
    """Window of the quadratic Bose-Einstein integral.

    Evaluates ``int_lo^hi t^2 / (e^t - 1) dt`` for ``0 <= lo <= hi``.
    Below ``lo = 2`` it is ``G(hi) - G(lo)`` with ``G`` the Bernoulli
    (Debye ``D_3``) series, and ``G(hi) = 2 zeta(3) - T(hi)`` once
    ``hi >= 2``; from ``lo = 2`` on it is ``T(lo) - T(hi)`` with ``T``
    the geometric tail.  Neither difference carries the ``2 zeta(3)``
    offset on which two :func:`bose_tail` values cancel for small
    arguments, so the relative error stays near ``1e-16 hi / (hi - lo)``
    at any temperature.  ``T`` is 0 once ``e^-x`` underflows.
    """
    if not 0.0 <= lo <= hi:
        raise ValueError(f"bose_window requires 0 <= lo <= hi, got ({lo!r}, {hi!r})")
    if lo >= _WINDOW_SPLIT:
        return _debye3_tail(lo) - _debye3_tail(hi)
    if hi < _WINDOW_SPLIT:
        return _debye3_head(hi) - _debye3_head(lo)
    return (2.0 * ZETA_3 - _debye3_tail(hi)) - _debye3_head(lo)

