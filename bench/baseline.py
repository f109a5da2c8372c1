#!/usr/bin/env python3
"""Re-measure the baseline table of ROADMAP item 1 with the benchmark's own runner.

    python3 bench/baseline.py

CLI rows run through the same in-process runner as the workloads and
time ``atombath.cli.main`` alone; their output is checked and failed
points are reported next to the time.  Library rows call the function
directly.  Each row is the median of ``REPEATS`` wall times, without
host-speed correction, one BLAS thread, after one warm-up call.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import workloads
from workloads import CliOp

workloads.pin_threads(os.environ)

REPEATS = 5

SCAN = dict(beta_omega=(0.5, 1.0, 2.0, 5.0), velocity=(0.0, 0.3, 0.6, 0.9), grid=(0.0, 6.0, 601))


def _timed(call) -> float:
    call()
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _cli_row(runner, oracle: bool) -> tuple[str, float]:
    """Median op latency of the reference scan, and its checked failed fraction."""
    op = CliOp("concurrence", "udw", fmt="csv", oracle=oracle, **SCAN)
    runs = [runner.run(op) for _ in range(REPEATS + 1)][1:]
    verdict = runs[0][1]
    note = f"{verdict.failed}/{verdict.points} points failed" if verdict.failed else ""
    return note, statistics.median(seconds for seconds, _, _ in runs)


def rows(pkg):
    import run

    runner = run.Runner(pkg)

    detector = pkg.DetectorParams(1.0, 1.0, 0.5)
    td = pkg.DetectorParams(1.0, 1.0, 0.5, pkg.Coupling.DERIVATIVE)
    coeffs = pkg.lindblad_coefficients(detector, pkg.BathParams(1.0))
    bell = pkg.bell_state()
    yield ("concurrence scan 4x4x601, plain", "0.07 s", *_cli_row(runner, False))
    yield ("concurrence scan 4x4x601, --oracle", "0.9 s", *_cli_row(runner, True))
    yield "concurrence_closed_form", "1.5 us", "", _timed(
        lambda: pkg.concurrence_closed_form(coeffs, 0.5))
    yield "shared_state + Wootters", "90 us", "", _timed(
        lambda: pkg.concurrence(pkg.shared_state(coeffs, 0.5)))
    yield "wightman_moving", "4.7 us", "", _timed(
        lambda: pkg.wightman_moving(0.7, detector, pkg.BathParams(1.0)))
    yield "evolve_numeric, tau = 1", "20 ms", "", _timed(
        lambda: pkg.evolve_numeric(bell, coeffs, 1.0))
    yield "n_td at beta_omega = 1e-3", "17 ms", "", _timed(
        lambda: pkg.n_td(td, pkg.BathParams(1e-3)))
    yield "polylog(3, 1-1e-6)", "83 ms", "", _timed(lambda: pkg.polylog(3, 1 - 1e-6))
    yield "polylog(2, 1-1e-7)", "2.8 s", "", _timed(lambda: pkg.polylog(2, 1 - 1e-7))


def main() -> int:
    pkg = workloads.load_program()
    print(f"{'workload':40s} {'ROADMAP':>9s} {'measured':>12s}  checks")
    for name, roadmap, note, seconds in rows(pkg):
        if seconds >= 0.1:
            text = f"{seconds:.3g} s"
        elif seconds >= 1e-4:
            text = f"{seconds * 1e3:.3g} ms"
        else:
            text = f"{seconds * 1e6:.3g} us"
        print(f"{name:40s} {roadmap:>9s} {text:>12s}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
