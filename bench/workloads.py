"""Seeded inputs for the atombath benchmark.

Each workload is an endless stream of operations, one *round* at a
time.  A round holds a fixed multiset of operation kinds in a seeded
order, so the command mix of a run does not depend on the seed.  Sizes
and parameters come from :class:`Draws`, seeded low-discrepancy
sequences: over a run they cover each range evenly whatever the seed,
so the work per run, and with it every latency quantile, hardly depends
on the seed, while different seeds still give different inputs.
An operation is either one ``atombath`` subcommand (a :class:`CliOp`,
run in-process through ``atombath.cli.main``) or one ``evolve_numeric``
library call (an :class:`Rk4Op`).  The program sees only the argv or
the call arguments built here.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# every BLAS / OpenMP pool the numpy stack may start; pinned to one
# thread on both sides of any comparison
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no atombath sources to benchmark."""


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def load_program():
    """Import ``atombath`` from this checkout's ``src`` and return the package.

    Refuses to fall back on any other installed copy, so the numbers
    always belong to the sources next to the benchmark.
    """
    if not (SRC / "atombath" / "cli.py").is_file():
        raise ProgramMissing(f"no atombath sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("atombath")
    importlib.import_module("atombath.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "atombath":
        raise ProgramMissing(f"atombath imported from {pkg.__file__}, not {SRC}")
    return pkg


def _num(x: float) -> str:
    return f"{x:.6g}"


@dataclass(frozen=True)
class CliOp:
    """One ``atombath`` subcommand over a (beta_omega, velocity[, grid]) scan."""

    command: str
    coupling: str
    beta_omega: tuple[float, ...]
    velocity: tuple[float, ...]
    grid: tuple[float, float, int] | None  # tau (or separation) grid
    fmt: str
    oracle: bool

    @property
    def argv(self) -> list[str]:
        argv = [
            self.command,
            "--coupling",
            self.coupling,
            "--beta-omega",
            ",".join(_num(b) for b in self.beta_omega),
            "--velocity",
            ",".join(_num(v) for v in self.velocity),
        ]
        if self.grid is not None:
            start, stop, steps = self.grid
            argv += ["--tau", f"{_num(start)}:{_num(stop)}:{steps}"]
        argv += ["--format", self.fmt]
        if self.oracle:
            argv.append("--oracle")
        return argv

    @property
    def points(self) -> int:
        steps = 1 if self.grid is None else self.grid[2]
        return len(self.beta_omega) * len(self.velocity) * steps


@dataclass(frozen=True)
class Rk4Op:
    """One ``evolve_numeric(bell_state(), coeffs, tau)`` call.

    ``tau`` is ``fraction`` times the closed-form death time of the
    coefficients at (coupling, beta_omega, velocity).
    """

    coupling: str
    beta_omega: float
    velocity: float
    fraction: float


def _round6(x: float) -> float:
    # the argv carries 6 significant digits; keep the op's own values equal
    return float(_num(x))


def _prime_after(n: int) -> int:
    n += 1
    while any(n % k == 0 for k in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


class Draws:
    """Seeded draws in [0, 1), one additive-recurrence sequence per dimension.

    The k-th value of a dimension is ``frac(offset + k * alpha)`` with
    ``alpha = frac(sqrt(p))`` for a prime ``p`` of its own and ``offset``
    from ``random.Random(key)``.  Such sequences cover [0, 1) evenly:
    after k draws every interval holds its share to within O(log k / k),
    against O(1/sqrt(k)) for random draws.  ``rng`` is the seeded
    generator for everything else (op order within a round).
    """

    def __init__(self, key: str) -> None:
        self.rng = random.Random(key)
        self._dims: dict[str, list] = {}
        self._prime = 1

    def u(self, dim: str) -> float:
        state = self._dims.get(dim)
        if state is None:
            self._prime = _prime_after(self._prime)
            alpha = math.sqrt(self._prime) % 1.0
            state = self._dims[dim] = [self.rng.random(), alpha, 0]
        offset, alpha, k = state
        state[2] = k + 1
        return (offset + k * alpha) % 1.0

    def uniform(self, dim: str, lo: float, hi: float) -> float:
        return _round6(lo + (hi - lo) * self.u(dim))

    def log_uniform(self, dim: str, lo: float, hi: float) -> float:
        return _round6(10.0 ** (math.log10(lo) + math.log10(hi / lo) * self.u(dim)))

    def integer(self, dim: str, lo: int, hi: int) -> int:
        return lo + int(self.u(dim) * (hi - lo + 1))


@dataclass(frozen=True)
class ScanRanges:
    beta_lo: float
    beta_hi: float
    row_cap: int  # largest output of one op; also fixes the memory peak
    tau_start: float
    v_lo: float  # smallest nonzero velocity
    oracle: bool


# scan: CLI render dominates.  The cap 9616 = 4 x 4 x 601 is the ROADMAP's
# reference concurrence scan.  beta_omega stops at 50, not 700: beyond
# it beta_omega * blue can pass 708, where the seed's polylog series
# never terminates on a subnormal argument (README.md, "Known seed defects").
SCAN = ScanRanges(
    beta_lo=0.1, beta_hi=50.0, row_cap=9616, tau_start=0.0, v_lo=0.0, oracle=False
)
# oracle: the same command mix with --oracle, inside the region where the
# seed's oracles agree with the closed forms at the test suite's bounds
# (README.md, "Known seed defects"): beta_omega up to 5, time grids from
# tau = 0.05, since Wootters loses ~1e-8 on near-pure states, and no
# speed in (0, 0.05), where the finite-difference oracle misses its bound.
# Rows are capped lower because each oracle point costs ~0.1-1 ms.
ORACLE = ScanRanges(
    beta_lo=0.2, beta_hi=5.0, row_cap=1200, tau_start=0.05, v_lo=0.05, oracle=True
)

_SCAN_KINDS = (
    ("concurrence", "udw"),
    ("concurrence", "td"),
    ("coeffs", "udw"),
    ("death-time", None),
    ("wightman", "udw"),
    ("wightman", "td"),
)
# (fewest, most) grid steps per (beta_omega, velocity) pair
_STEPS = {"concurrence": (100, 10_000), "wightman": (10, 1_000)}


def _scan_op(d: Draws, kind, fmt: str, r: ScanRanges) -> CliOp:
    command, coupling = kind
    key = f"{command}:{coupling}:{fmt}"
    if coupling is None:
        coupling = "udw" if d.u(key + ":coupling") < 0.5 else "td"
    nb, nv = d.integer(key + ":nb", 1, 4), d.integer(key + ":nv", 1, 4)
    grid = None
    if command in _STEPS:
        lo, hi = _STEPS[command]
        # the row count is the op's size; fit the (beta, v) pairs around it
        # so that every kind covers its size range evenly
        rows = d.log_uniform(key + ":rows", lo, r.row_cap)
        while nb * nv * hi < rows:
            if nb <= nv:
                nb += 1
            else:
                nv += 1
        while nb * nv * lo > rows:
            if nb >= nv:
                nb -= 1
            else:
                nv -= 1
        steps = min(max(int(rows) // (nb * nv), lo), hi, r.row_cap // (nb * nv))
    betas = tuple(sorted({d.log_uniform(key + ":bw", r.beta_lo, r.beta_hi) for _ in range(nb)}))
    velocities = tuple(sorted({0.0} | {d.uniform(key + ":v", r.v_lo, 0.99) for _ in range(nv - 1)}))
    if command == "concurrence":
        grid = (r.tau_start, d.uniform(key + ":stop", 2.0, 10.0), steps)
    elif command == "wightman":
        # separations from 0.1 to 1 thermal time of the hottest bath in
        # the op: the finite-difference oracle is built for s ~ beta
        grid = (_round6(0.1 * betas[0]), betas[0], steps)
    return CliOp(command, coupling, betas, velocities, grid, fmt, r.oracle)


def _scan_round(d: Draws, r: ScanRanges) -> list[CliOp]:
    kinds = [(k, f) for k in _SCAN_KINDS for f in ("csv", "json")]
    d.rng.shuffle(kinds)
    return [_scan_op(d, k, f, r) for k, f in kinds]


def scan_anchor(r: ScanRanges) -> CliOp:
    """The largest output a scan workload can produce, run once before timing.

    A JSON wightman scan of exactly ``row_cap`` rows holds at least as
    much memory as any other op of the workload, so it fixes the peak RSS.
    """
    steps = r.row_cap // 16
    return CliOp(
        "wightman", "udw", (0.5, 1.0, 2.0, 4.0), (0.0, 0.3, 0.6, 0.9),
        (0.05, 0.5, steps), "json", r.oracle,
    )


# hot: the polylog series behind n_td runs ~1/x terms, x = beta_omega * red
# the red-shifted bath temperature ratio at the receding edge of the
# Doppler window.  Each round holds one op per decade of x and command,
# so the work per round is the same whatever the seed; an odd number of
# decades puts the median op inside the middle one.  One speed per op
# keeps each op's cost tied to its own x.
HOT_DECADES = ((1e-4, 1e-3), (1e-3, 1e-2), (1e-2, 1e-1))


def _hot_round(d: Draws) -> list[CliOp]:
    ops = []
    for lo, hi in HOT_DECADES:
        for command, coupling in (("coeffs", "udw"), ("death-time", "td")):
            key = f"{command}:{lo:g}"
            v = d.uniform(key + ":v", 1e-4, 0.99)
            red = math.sqrt((1.0 - v) / (1.0 + v))
            bw = _round6(d.log_uniform(key + ":x", lo, hi) / red)
            ops.append(CliOp(command, coupling, (bw,), (v,), None, "csv", False))
    d.rng.shuffle(ops)
    return ops


# rk4: in these hot baths one call integrates ~30-250 fixed steps
# (20 ms at tau = 1 is ~100 steps), so a run holds enough calls for a
# steady p90
RK4_BETA = (0.05, 1.0)
RK4_FRACTION = (0.05, 1.0)
RK4_ROUND = 8


def _rk4_round(d: Draws) -> list[Rk4Op]:
    return [
        Rk4Op(
            "udw" if d.u("coupling") < 0.5 else "td",
            d.log_uniform("bw", *RK4_BETA),
            d.uniform("v", 0.0, 0.99),
            d.uniform("fraction", *RK4_FRACTION),
        )
        for _ in range(RK4_ROUND)
    ]


WORKLOADS = {
    "scan": lambda d: _scan_round(d, SCAN),
    "oracle": lambda d: _scan_round(d, ORACLE),
    "hot": _hot_round,
    "rk4": _rk4_round,
}

ANCHORS = {"scan": scan_anchor(SCAN), "oracle": scan_anchor(ORACLE)}


def stream(workload: str, seed: int):
    """Endless seeded op stream; equal seeds give equal streams."""
    draws = Draws(f"{workload}:{seed}")
    make_round = WORKLOADS[workload]
    while True:
        yield from make_round(draws)
