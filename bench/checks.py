"""Output checks for benchmark operations.

Every requested point is counted: a point fails when its op raised or
exited non-zero, when its row is missing or unparsable, when a value is
non-finite (``inf`` is allowed only for death times, as documented) or
out of its physical range, or when an ``--oracle`` column disagrees
with the closed form beyond the test suite's own bound.  Failures are
counted, never filtered out.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

# the test suite's own bounds (tests/test_acceptance.py, test_coefficients.py)
OCCUPATION_REL = 1e-10
CONCURRENCE_ABS = 1e-10
DEATH_TIME = 1e-9  # absolute, in natural time units
WIGHTMAN_QUADRATURE_ABS = 1e-6
FINITE_DIFFERENCE_REL = 1e-5
RK4_ABS = 1e-6  # acceptance criterion 02

COLUMNS = {
    "concurrence": ["beta_omega", "velocity", "tau_gamma0", "concurrence"],
    "coeffs": ["beta_omega", "velocity", "n_udw", "n_td", "gamma_udw_ratio", "gamma_td_ratio"],
    "death-time": ["beta_omega", "velocity", "death_time_gamma0"],
    "wightman": ["beta_omega", "velocity", "s", "re_w", "im_w"],
}
ORACLE_COLUMNS = {
    "concurrence": ["concurrence_wootters"],
    "coeffs": ["n_udw_quadrature", "n_td_quadrature"],
    "death-time": ["death_time_bisection"],
    "wightman": ["re_w_oracle", "im_w_oracle"],
}
INF_COLUMNS = {"death_time_gamma0", "death_time_bisection"}
# The CLI prints death times in gamma_0 units: natural time times
# rate_unit(detector), which at the CLI's omega = lam = 1 (the workloads
# never set them) is 1/(2 pi) for udw and 1/(6 pi) for td.
RATE_UNIT = {"udw": 1.0 / (2.0 * math.pi), "td": 1.0 / (6.0 * math.pi)}


@dataclass
class Verdict:
    """Outcome of one op: requested points, failed points, oracle tallies.

    ``compared`` and ``mismatched`` are keyed by the oracle function
    (``<module>.<function>``) whose column was compared.
    """

    points: int
    failed: int = 0
    compared: Counter = field(default_factory=Counter)
    mismatched: Counter = field(default_factory=Counter)
    reason: str | None = None

    def fail(self, n: int, reason: str) -> None:
        self.failed = min(self.points, self.failed + n)
        if self.reason is None:
            self.reason = reason


def expected_axes(op) -> list[tuple[float, ...]]:
    """Leading (beta_omega, velocity[, tau or s]) of every row, in CLI order."""
    rows = []
    for b in op.beta_omega:
        for v in op.velocity:
            if op.grid is None:
                rows.append((b, v))
                continue
            start, stop, steps = op.grid
            width = (stop - start) / (steps - 1)
            rows.extend((b, v, start + i * width) for i in range(steps))
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _json_value(raw) -> float:
    # JSON rows carry numbers, and infinities as the strings "inf"/"-inf"
    if raw in ("inf", "-inf") or (
        isinstance(raw, (int, float)) and not isinstance(raw, bool)
    ):
        return float(raw)
    raise ValueError(f"not a number: {raw!r}")


def _row_problem(op, row: dict, verdict: Verdict) -> str | None:
    """First reason the row is wrong, or None; tallies oracle comparisons."""
    for name, x in row.items():
        if math.isnan(x) or (math.isinf(x) and not (name in INF_COLUMNS and x > 0)):
            return f"non-finite {name}={x!r}"
    cmd = op.command
    if cmd == "concurrence":
        if not 0.0 <= row["concurrence"] <= 1.0:
            return f"concurrence {row['concurrence']!r} outside [0, 1]"
    elif cmd == "coeffs":
        if row["n_udw"] < 0.0 or row["n_td"] < 0.0:
            return f"negative occupation n_udw={row['n_udw']!r} n_td={row['n_td']!r}"
        if not (row["gamma_udw_ratio"] > 0.0 and row["gamma_td_ratio"] > 0.0):
            return "non-positive rate ratio"
    elif cmd == "death-time":
        if not row["death_time_gamma0"] > 0.0:
            return f"non-positive death time {row['death_time_gamma0']!r}"
    if not op.oracle:
        return None
    checks = []
    if cmd == "concurrence":
        c, w = row["concurrence"], row["concurrence_wootters"]
        checks.append(("entanglement.concurrence", abs(c - w) <= CONCURRENCE_ABS, c, w))
    elif cmd == "coeffs":
        for col, oracle in (("n_udw", "n_udw_quadrature"), ("n_td", "n_td_quadrature")):
            a, q = row[col], row[oracle]
            checks.append((f"coefficients.{oracle}", _close(a, q, OCCUPATION_REL), a, q))
    elif cmd == "death-time":
        a, q = row["death_time_gamma0"], row["death_time_bisection"]
        ok = (a == q) or abs(a - q) <= DEATH_TIME * RATE_UNIT[op.coupling]
        checks.append(("entanglement.sudden_death_time_bisection", ok, a, q))
    elif cmd == "wightman":
        w = complex(row["re_w"], row["im_w"])
        o = complex(row["re_w_oracle"], row["im_w_oracle"])
        if op.coupling == "udw":
            ok = abs(w - o) <= WIGHTMAN_QUADRATURE_ABS
            checks.append(("correlations.wightman_moving_quadrature", ok, w, o))
        else:
            ok = abs(w - o) <= FINITE_DIFFERENCE_REL * abs(w)
            checks.append(("correlations.wightman_derivative_fd", ok, w, o))
    problem = None
    for name, ok, a, b in checks:
        verdict.compared[name] += 1
        if not ok:
            verdict.mismatched[name] += 1
            problem = problem or f"{name} disagrees: {a!r} vs {b!r}"
    return problem


def _rows(op, text: str):
    """Yield each output row as a dict of floats, or a ValueError for it."""
    cols = COLUMNS[op.command] + (ORACLE_COLUMNS[op.command] if op.oracle else [])
    if op.fmt == "json":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("JSON output is not a list of rows")
        for item in data:
            if not isinstance(item, dict) or list(item) != cols:
                yield ValueError(f"JSON row keys {list(item) if isinstance(item, dict) else item!r}")
                continue
            try:
                yield {c: _json_value(item[c]) for c in cols}
            except ValueError as exc:
                yield exc
        return
    if not text.endswith("\n"):
        raise ValueError("CSV output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(cols):
        raise ValueError(f"CSV header {lines[0]!r}")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(cols):
            yield ValueError(f"CSV row {line!r}")
            continue
        try:
            yield {c: float(f) for c, f in zip(cols, fields)}
        except ValueError as exc:
            yield exc


def check_cli(op, rc: int | None, text: str, error: str | None = None) -> Verdict:
    """Check one CLI op's exit code and output against its request."""
    verdict = Verdict(points=op.points)
    if error is not None or rc != 0:
        verdict.fail(op.points, error or f"exit code {rc}")
        return verdict
    axes = expected_axes(op)
    axis_names = COLUMNS[op.command][: len(axes[0])]
    seen = 0
    try:
        for i, row in enumerate(_rows(op, text)):
            seen += 1
            if isinstance(row, ValueError):
                verdict.fail(1, f"row {i}: {row}")
                continue
            if i >= len(axes):
                continue
            want = axes[i]
            if not all(_close(row[n], w, 1e-10) for n, w in zip(axis_names, want)):
                verdict.fail(1, f"row {i}: axes {[row[n] for n in axis_names]} != {list(want)}")
                continue
            problem = _row_problem(op, row, verdict)
            if problem is not None:
                verdict.fail(1, f"row {i}: {problem}")
    except ValueError as exc:  # unparsable document: every point fails
        verdict.fail(op.points, str(exc))
        return verdict
    if seen != len(axes):
        verdict.fail(abs(len(axes) - seen), f"{seen} rows for {len(axes)} requested points")
    return verdict


def check_rk4(rho, reference) -> Verdict:
    """RK4 state against the closed-form ``shared_state`` (criterion 02 bound)."""
    verdict = Verdict(points=1)
    name = "dynamics.evolve_numeric"
    verdict.compared[name] += 1
    worst = float(abs(rho - reference).max())
    if not worst <= RK4_ABS:
        verdict.mismatched[name] += 1
        verdict.fail(1, f"evolve_numeric off by {worst:.3e}")
    return verdict
