"""High-precision reference values that the tests compare against.

``python tests/make_reference.py`` rewrites ``fixtures/reference.csv``
with mpmath at 60 digits; where mpmath is not installed it says so and
writes nothing.  The tests read the file through :func:`reference` and
never import mpmath.

Each row is ``name,beta,velocity,s,value``, with the inputs printed as
Python float reprs (so a test evaluates at exactly the frozen point) and
the value to 40 significant digits:

- ``td_static_thermal``: the thermal part of the derivative-coupling
  correlation at rest, minus the second s-derivative of
  1/(4 pi^2 s^2) - csch^2(pi s/beta)/(4 beta^2), at pi s/beta = 0.099;
- ``udw_pair_thermal``, ``td_pair_thermal``: the moving worldline's
  thermal part c (T(blue s) - T(red s))/s and minus its second
  s-derivative, on both sides of each term's series switch,
  |pi shift s/beta| = 0.1 -+ 1e-9;
- ``monopole_boundary``: beta*omega_c = 2 x_c with x_c coth x_c = 3/2,
  where the small-speed coefficient c2 of n_udw = P + c2 v^2 changes sign;
- ``monopole_crossover``: the beta*omega at which n_udw at speed v equals
  the Planck occupation, so the monopole death time equals its value at
  rest;
- ``occupation_udw``, ``occupation_td``: the mean occupations n_udw and
  n_td at beta = beta*omega (omega = 1) and v = 1e-5, the slow rows of
  ``fixtures/coeffs_oracle_golden.csv``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

PATH = Path(__file__).with_name("fixtures") / "reference.csv"
_COLUMNS = ("name", "beta", "velocity", "s", "value")

_SWITCH_SPEEDS = (0.01, 0.5, 0.99)
_CROSSOVER_SPEEDS = (1e-3, 0.01, 0.05, 0.1, 0.5, 0.9)
_OCCUPATION_BETAS = (0.01, 0.5, 5.0, 50.0)
_OCCUPATION_SPEED = 1e-5


def reference(name: str) -> list[tuple[float, float, float, float]]:
    """``(beta, velocity, s, value)`` of every frozen row called ``name``."""
    with PATH.open(newline="") as f:
        rows = [r for r in csv.DictReader(f) if r["name"] == name]
    if not rows:
        raise KeyError(f"no reference rows named {name!r} in {PATH}")
    return [tuple(float(r[c]) for c in _COLUMNS[1:]) for r in rows]


def _doppler(v: float) -> tuple[float, float]:
    # the library's float shifts, red and blue = 1/red
    red = math.sqrt((1.0 - v) / (1.0 + v))
    return red, 1.0 / red


def _rows(mp):
    mp.mp.dps = 60

    def thermal_static_td(beta, s):
        beta, s = mp.mpf(beta), mp.mpf(s)
        f = lambda x: 1 / (4 * mp.pi ** 2 * x ** 2) - mp.csch(mp.pi * x / beta) ** 2 / (4 * beta ** 2)
        return -mp.diff(f, s, 2)

    def pair(beta, v):
        beta, v = mp.mpf(beta), mp.mpf(v)
        red = mp.sqrt((1 - v) / (1 + v))
        c = mp.sqrt(1 - v * v) / (4 * mp.pi ** 2 * v)
        t = lambda p: mp.pi / (2 * beta) * mp.coth(mp.pi * p / beta) - 1 / (2 * p)
        return lambda x: c * (t(x / red) - t(red * x)) / x

    for beta in (1.0, 10.0):
        s = 0.099 * beta / math.pi
        yield "td_static_thermal", beta, 0.0, s, thermal_static_td(beta, s)
    for v in _SWITCH_SPEEDS:
        th = pair(1.0, v)
        for shift in _doppler(v):
            for side in (-1e-9, 1e-9):
                s = (0.1 + side) / (math.pi * shift)
                yield "udw_pair_thermal", 1.0, v, s, th(mp.mpf(s))
                yield "td_pair_thermal", 1.0, v, s, -mp.diff(th, mp.mpf(s), 2)

    x_c = mp.findroot(lambda x: x * mp.coth(x) - mp.mpf(3) / 2, 1.3)
    yield "monopole_boundary", math.nan, 0.0, math.nan, 2 * x_c

    def excess(v):
        # (n_udw - P)/v^2, whose root in b is the crossover at speed v
        v = mp.mpf(v)
        red = mp.sqrt((1 - v) / (1 + v))

        def f(b):
            window = mp.log(-mp.expm1(-b / red) / -mp.expm1(-b * red))
            return (mp.sqrt(1 - v * v) / (2 * v * b) * window - 1 / mp.expm1(b)) / v ** 2

        return f

    for v in _CROSSOVER_SPEEDS:
        root = mp.findroot(excess(v), (2 * x_c, 2 * x_c + v))
        yield "monopole_crossover", math.nan, v, math.nan, root

    v = mp.mpf(_OCCUPATION_SPEED)
    red = mp.sqrt((1 - v) / (1 + v))
    for beta in _OCCUPATION_BETAS:
        b = mp.mpf(beta)
        lo, hi = b * red, b / red
        udw = mp.sqrt(1 - v * v) / (2 * v * b) * mp.log(mp.expm1(-hi) / mp.expm1(-lo))
        window = mp.quad(lambda x: x ** 2 / mp.expm1(x), [lo, hi])
        td = 3 * (1 - v * v) ** mp.mpf(1.5) / (2 * v * b ** 3 * (3 + v * v)) * window
        yield "occupation_udw", beta, _OCCUPATION_SPEED, math.nan, udw
        yield "occupation_td", beta, _OCCUPATION_SPEED, math.nan, td


def main() -> int:
    try:
        import mpmath
    except ImportError:
        print("mpmath is not installed; reference.csv left as it is")
        return 0
    with PATH.open("w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(_COLUMNS)
        for name, beta, v, s, value in _rows(mpmath):
            out.writerow([name, repr(beta), repr(v), repr(s), mpmath.nstr(value, 40)])
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
