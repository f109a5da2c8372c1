"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all) and asserts the same condition, so the suite doubles as a report.
"""

import math
from pathlib import Path

import numpy as np

from atombath.cli import main as cli_main
from atombath.coefficients import (
    BathParams,
    Coupling,
    DetectorParams,
    LindbladCoefficients,
    lindblad_coefficients,
    n_td,
    n_udw,
    planck_occupation,
)
from atombath.correlations import (
    wightman_derivative,
    wightman_derivative_fd,
    wightman_moving,
    wightman_moving_quadrature,
)
from atombath.dynamics import bell_state, evolve_numeric, shared_state
from atombath.entanglement import (
    concurrence,
    concurrence_closed_form,
    concurrence_xstate,
    sudden_death_time,
    sudden_death_time_bisection,
)
from atombath.specfun import ZETA_2, ZETA_3, bose_tail, polylog

from oracles import bose_einstein_integral, n_udw_high_temp
from xstates import random_xstate

FIXTURES = Path(__file__).parent / "fixtures"

BETA_GRID = (0.1, 0.5, 1.0, 5.0, 10.0)


def _detector(v, coupling=Coupling.UDW):
    return DetectorParams(omega=1.0, lam=1.0, velocity=v, coupling=coupling)


def _report(num, ok, desc):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def _random_coeffs(rng):
    gamma = rng.uniform(0.5, 2.0)
    n = rng.uniform(0.0, 1.5)
    om = rng.uniform(0.0, 3.0) * gamma
    return LindbladCoefficients(gamma=gamma, n=n, omega_eff=om)


def test_criterion_01_rest_limit_recovers_planck():
    worst = 0.0
    for b in BETA_GRID:
        bath = BathParams(beta=b)
        p = planck_occupation(b)
        for value in (
            n_udw(_detector(1e-6), bath),
            n_td(_detector(1e-6, Coupling.DERIVATIVE), bath),
        ):
            worst = max(worst, abs(value - p) / p)
    _report(1, worst < 1e-6, f"crawling-detector occupations match Planck (worst rel {worst:.2e})")


def test_criterion_02_closed_form_matches_integrator():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(20):
        coeffs = _random_coeffs(rng)
        horizon = 10.0 / coeffs.gamma
        taus = [f * horizon for f in (0.01, 0.05, 0.1, 0.3, 1.0)]
        rho = bell_state()
        prev = 0.0
        for tau in taus:
            rho = evolve_numeric(rho, coeffs, tau - prev)
            prev = tau
            gap = np.max(np.abs(shared_state(coeffs, tau) - rho))
            worst = max(worst, gap)
    _report(2, worst < 1e-6, f"evolved pair matches Runge-Kutta (worst abs {worst:.2e})")


def test_criterion_03_concurrence_routes_agree():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        coeffs = _random_coeffs(rng)
        horizon = 4.0 / coeffs.a
        for k in range(10):
            tau = horizon * k / 9.0
            rho = shared_state(coeffs, tau)
            spectral = concurrence(rho)
            xform = concurrence_xstate(rho)
            closed = concurrence_closed_form(coeffs, tau)
            worst = max(worst, abs(spectral - xform), abs(spectral - closed))
    for _ in range(1000):
        x = random_xstate(rng)
        worst = max(worst, abs(concurrence_xstate(x) - concurrence(x)))
    _report(3, worst < 1e-10, f"three concurrence routes agree (worst abs {worst:.2e})")


def test_criterion_04_death_time_is_a_root():
    rng = np.random.default_rng(11)
    worst_val = 0.0
    worst_gap = 0.0
    for _ in range(50):
        coeffs = LindbladCoefficients(
            gamma=rng.uniform(0.3, 3.0),
            n=rng.uniform(0.01, 2.0),
            omega_eff=rng.uniform(0.0, 5.0),
        )
        t = sudden_death_time(coeffs)
        worst_val = max(worst_val, abs(concurrence_closed_form(coeffs, t)))
        worst_gap = max(worst_gap, abs(sudden_death_time_bisection(coeffs) - t))
    cold = LindbladCoefficients(gamma=1.0, n=0.0, omega_eff=1.0)
    cold_ok = math.isinf(sudden_death_time(cold)) and math.isinf(
        sudden_death_time_bisection(cold)
    )
    ok = worst_val < 1e-10 and worst_gap < 1e-9 and cold_ok
    _report(
        4,
        ok,
        f"death time zeroes the curve (|C| {worst_val:.2e}, bisection gap {worst_gap:.2e}, cold bath never dies {cold_ok})",
    )


def test_criterion_05_death_time_velocity_ordering():
    speeds = (0.0, 0.5, 0.9)

    def times(coupling, bw):
        bath = BathParams(beta=bw)
        out = []
        for v in speeds:
            det = _detector(v, coupling)
            out.append(sudden_death_time(lindblad_coefficients(det, bath)))
        return out

    ok = True
    for bw in (0.5, 1.0):
        t = times(Coupling.UDW, bw)
        ok = ok and t[0] < t[1] < t[2]
    for bw in (0.5, 1.0, 5.0):
        t = times(Coupling.DERIVATIVE, bw)
        ok = ok and t[0] > t[1] > t[2]
    _report(5, ok, "speed delays monopole death, hastens derivative-coupling death")


def test_criterion_06_occupation_monotonicity():
    grid = [0.05 * k for k in range(1, 20)]

    def monotone(values, sign):
        return all(sign * (b - a) > 0.0 for a, b in zip(values, values[1:]))

    udw_hot = [n_udw(_detector(v), BathParams(beta=0.5)) for v in grid]
    udw_cold = [n_udw(_detector(v), BathParams(beta=5.0)) for v in grid]
    td_hot = [
        n_td(_detector(v, Coupling.DERIVATIVE), BathParams(beta=0.5)) for v in grid
    ]
    td_cold = [
        n_td(_detector(v, Coupling.DERIVATIVE), BathParams(beta=5.0)) for v in grid
    ]
    ok = (
        monotone(udw_hot, -1.0)
        and monotone(udw_cold, +1.0)
        and monotone(td_hot, -1.0)
        and monotone(td_cold, -1.0)
    )
    _report(6, ok, "occupation trends with speed flip only for the monopole coupling")


def test_criterion_07_correlation_cross_checks():
    worst_q = 0.0
    worst_fd = 0.0
    for bw in (0.5, 2.0):
        bath = BathParams(beta=bw)
        for v in (0.0, 0.3, 0.7):
            det = _detector(v)
            for f in (0.3, 0.7, 1.5):
                s = f * bw
                w = wightman_moving(s, det, bath)
                q = wightman_moving_quadrature(s, det, bath)
                worst_q = max(worst_q, abs(w - q))
                wd = wightman_derivative(s, det, bath)
                fd = wightman_derivative_fd(s, det, bath)
                worst_fd = max(worst_fd, abs(wd - fd) / abs(wd))
    ok = worst_q < 1e-6 and worst_fd < 1e-5
    _report(
        7,
        ok,
        f"correlations match quadrature (abs {worst_q:.2e}) and finite differences (rel {worst_fd:.2e})",
    )


def test_criterion_08_special_function_identities():
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 3.0, 10.0):
        composed = (
            2.0 * bose_einstein_integral(2, -x)
            + 2.0 * x * bose_einstein_integral(1, -x)
            + x * x * polylog(1, math.exp(-x))
        )
        worst = max(worst, abs(bose_tail(x) - composed) / composed)
    zeta_ok = abs(polylog(2, 1.0) - ZETA_2) < 1e-12 and abs(polylog(3, 1.0) - ZETA_3) < 1e-12
    ok = worst < 1e-9 and zeta_ok
    _report(
        8,
        ok,
        f"mode-sum tail matches quadrature composition (worst rel {worst:.2e}), zeta endpoints exact {zeta_ok}",
    )


def test_criterion_09_evolved_states_are_physical():
    rng = np.random.default_rng(20240802)
    worst_trace = 0.0
    worst_herm = 0.0
    lowest = 0.0
    c_ok = True
    for _ in range(15):
        coeffs = _random_coeffs(rng)
        for f in (0.0, 0.05, 0.2, 0.6, 1.0):
            rho = shared_state(coeffs, f * 10.0 / coeffs.gamma)
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            worst_herm = max(worst_herm, np.max(np.abs(rho - rho.conj().T)))
            lowest = min(lowest, np.linalg.eigvalsh(rho).min())
            c = concurrence(rho)
            c_ok = c_ok and 0.0 <= c <= 1.0
    ok = worst_trace <= 1e-12 and worst_herm <= 1e-12 and lowest >= -1e-10 and c_ok
    _report(
        9,
        ok,
        f"states stay physical (trace dev {worst_trace:.2e}, herm dev {worst_herm:.2e}, min eig {lowest:.2e})",
    )


def test_criterion_10_temperature_asymptotes():
    worst = 0.0
    bath = BathParams(beta=0.01)
    for v in (0.2, 0.5, 0.8):
        det = _detector(v)
        full = n_udw(det, bath)
        worst = max(worst, abs(full - n_udw_high_temp(det, bath)) / full)
    grid = [0.05 * k for k in range(1, 20)]
    cold = [n_udw(_detector(v), BathParams(beta=5.0)) for v in grid]
    cold_ok = all(a < b for a, b in zip(cold, cold[1:]))
    ok = worst < 0.01 and cold_ok
    _report(
        10,
        ok,
        f"hot-bath asymptote within 1% (worst {worst:.2e}), cold-bath occupation grows with speed {cold_ok}",
    )


def test_criterion_11_scan_is_deterministic(tmp_path):
    args = ["concurrence", "--config", str(FIXTURES / "fig1c.cfg")]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rc1 = cli_main(args + ["--output", str(a)])
    rc2 = cli_main(args + ["--output", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    golden = a.read_bytes() == (FIXTURES / "fig1c_golden.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical and golden
    _report(
        11,
        ok,
        f"repeated scans are byte identical {identical} and reproduce the frozen fixture {golden}",
    )
