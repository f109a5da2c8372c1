#!/usr/bin/env python3
"""Known defects of the benchmarked atombath, shown through the benchmark's checks.

    python3 bench/defects.py

Each entry is one op at a point where the program, as first measured,
fails the same output checks the workloads apply (``checks.py``).  The
timed workloads keep out of these regions, because a benchmark run must
complete without failures; this probe keeps the defects visible instead
of filtering them.  It prints the failed fraction per defect and exits 1
when a defect no longer reproduces, which means the list needs updating.
"""

from __future__ import annotations

import os
import sys

import workloads
from workloads import CliOp

workloads.pin_threads(os.environ)

DEFECTS = (
    (
        "occupation quadrature raises QuadratureError for cold baths (beta_omega >~ 25)",
        CliOp("coeffs", "udw", (30.0,), (0.3,), None, "csv", True),
    ),
    (
        "occupation quadrature raises OverflowError at beta_omega = 100",
        CliOp("coeffs", "udw", (100.0,), (0.99,), None, "csv", True),
    ),
    (
        "n_udw closed form loses digits for beta_omega >~ 10 at small v; quadrature is right",
        CliOp("coeffs", "udw", (12.0,), (1e-4,), None, "csv", True),
    ),
    (
        "n_td loses precision at beta_omega <= 1e-4 (vs quadrature, rel 1e-10)",
        CliOp("coeffs", "udw", (1e-4,), (0.5,), None, "csv", True),
    ),
    (
        "n_td turns negative at beta_omega = 1e-6, so death-time raises ValueError",
        CliOp("death-time", "td", (1e-6,), (0.5,), None, "csv", False),
    ),
    (
        "polylog never terminates on a subnormal argument: n_td < 0 once beta_omega*blue > 708",
        CliOp("coeffs", "udw", (73.9171,), (0.978577,), None, "csv", False),
    ),
    (
        "Wootters concurrence differs from the closed form by ~1e-8 on near-pure states",
        CliOp("concurrence", "udw", (5.0,), (0.5,), (0.0, 0.01, 11), "csv", True),
    ),
    (
        "Wootters concurrence differs from the closed form by up to ~1e-8 in cold baths",
        CliOp("concurrence", "udw", (20.0, 50.0), (0.0, 0.5), (0.0, 10.0, 101), "csv", True),
    ),
    (
        "bisection death-time oracle reports inf beyond its 100/a window",
        CliOp("death-time", "udw", (700.0,), (0.0,), None, "csv", True),
    ),
    (
        "wightman_derivative_fd misses rel 1e-5 for 0 < v <~ 0.05 (~0.5% at v = 0.01, README grid)",
        CliOp("wightman", "td", (1.0,), (0.01,), (0.1, 3.0, 30), "csv", True),
    ),
)


def probe(runner) -> list[tuple[str, object, object]]:
    """(description, op, verdict) for every known defect."""
    return [(text, op, runner.run(op)[1]) for text, op in DEFECTS]


def main() -> int:
    import run

    runner = run.Runner(workloads.load_program())
    fixed = 0
    for text, op, verdict in probe(runner):
        shows = verdict.failed > 0
        fixed += not shows
        print(f"{'reproduces' if shows else 'NOT SEEN  '} "
              f"failed_fraction={verdict.failed}/{verdict.points}  {text}")
        print(f"    atombath {' '.join(op.argv)}")
        if verdict.reason:
            print(f"    first failure: {verdict.reason[:240]}")
    return 1 if fixed else 0


if __name__ == "__main__":
    sys.exit(main())
