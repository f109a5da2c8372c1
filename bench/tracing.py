"""Span tracing of atombath's public functions, applied from outside.

For a traced run the benchmark rebinds each function in :data:`TRACED`
at every module-level name in ``atombath.*`` that refers to it, so the
CLI's ``from .x import f`` copies and nested calls (``polylog`` inside
``bose_tail``, ``check_density_matrix`` inside ``concurrence``) are all
seen.  Each call becomes a span (name, start, end, parent, op id, failed)
kept in compact arrays; :data:`COUNTED` functions are only counted,
because they run tens of thousands of times per op.  A span's self
time is its duration minus the durations of its direct children.

Run as a script to aggregate a span dump written by ``run.py``:

    python3 bench/tracing.py .bench_out/spans_scan_seed1.npz
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRACED = (
    "cli.main",
    "cli.render_csv",
    "cli.render_json",
    "coefficients.lindblad_coefficients",
    "coefficients.n_udw",
    "coefficients.n_td",
    "coefficients.n_udw_quadrature",
    "coefficients.n_td_quadrature",
    "specfun.polylog",
    "specfun.bose_tail",
    "correlations.wightman_moving",
    "correlations.wightman_derivative",
    "correlations.wightman_moving_quadrature",
    "correlations.wightman_derivative_fd",
    "dynamics.evolve_numeric",
    "dynamics.shared_state",
    "dynamics.check_density_matrix",
    "entanglement.concurrence",
    "entanglement.concurrence_closed_form",
    "entanglement.sudden_death_time_bisection",
)
COUNTED = ("dynamics.gksl_generator",)
OP_SPAN = "bench.op"  # root span of each benchmark op

# oracle functions whose disagreements with the closed form are tallied
MISMATCH = (
    "coefficients.n_udw_quadrature",
    "coefficients.n_td_quadrature",
    "correlations.wightman_moving_quadrature",
    "correlations.wightman_derivative_fd",
    "dynamics.evolve_numeric",
    "entanglement.concurrence",
    "entanglement.sudden_death_time_bisection",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.failed"] = "count"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in MISMATCH:
        units[f"{name}.mismatch"] = "ratio"
    units["cli.bytes_out"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


class Recorder:
    """In-memory span store plus the rebinding that feeds it."""

    def __init__(self) -> None:
        self.names = list(TRACED) + [OP_SPAN]
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._patched: list = []

    def _span(self, nid: int, fn):
        name, parent, op, start, end, failed = (
            self.name, self.parent, self.op, self.start, self.end, self.failed
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            failed.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def _counter(self, qual: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return counted

    def run_op(self, op_id: int, call):
        """Run ``call()`` under a root span for benchmark op ``op_id``."""
        self.op_id = op_id
        return self._span(len(self.names) - 1, call)()

    def install(self) -> None:
        """Rebind every traced function at each ``atombath.*`` name bound to it."""
        wrappers = {}
        for nid, qual in enumerate(TRACED):
            fn = _resolve(qual)
            wrappers[id(fn)] = (fn, self._span(nid, fn))
        for qual in COUNTED:
            fn = _resolve(qual)
            wrappers[id(fn)] = (fn, self._counter(qual, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "atombath" and not modname.startswith("atombath."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(json.dumps(self.names)),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
            "counts": np.array(json.dumps(dict(self.counts))),
        }

    def dump(self, path) -> None:
        np.savez(path, **self.arrays())


def _resolve(qual: str):
    module, fn = qual.split(".")
    return getattr(sys.modules[f"atombath.{module}"], fn)


def aggregate(spans: dict) -> dict[str, dict[str, float]]:
    """``calls``, ``self_s`` and ``failed`` per span name from span arrays."""
    names = json.loads(str(spans["names"]))
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - children
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_time, minlength=k)
    failed = np.bincount(name, weights=spans["failed"], minlength=k)
    out = {
        n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "failed": int(failed[i])}
        for i, n in enumerate(names)
    }
    for n, c in json.loads(str(spans["counts"])).items():
        out[n] = {"calls": int(c)}
    return out


def layer_metrics(recorder: Recorder, tally, overhead_s: float) -> tuple[dict, list[str]]:
    """Every per-layer metric of a traced pass, plus the mismatch bases."""
    table = aggregate(recorder.arrays())
    values = {}
    for qual in TRACED:
        for key in ("calls", "self_s", "failed"):
            values[f"{qual}.{key}"] = table[qual][key]
    for qual in COUNTED:
        values[f"{qual}.calls"] = recorder.counts[qual]
    bases = []
    for qual in MISMATCH:
        n, bad = tally.compared[qual], tally.mismatched[qual]
        values[f"{qual}.mismatch"] = bad / n if n else 0.0
        if n:
            bases.append(f"{qual}={bad}/{n}")
    values["cli.bytes_out"] = tally.bytes_out
    values["trace.overhead_s"] = overhead_s
    units = layer_metric_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}, bases


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/tracing.py SPANS.npz", file=sys.stderr)
        return 2
    with np.load(argv[0]) as data:
        table = aggregate(dict(data))
        ops = len(np.unique(data["op"]))
    print(f"{'span':45s} {'calls':>10s} {'self_s':>12s} {'failed':>7s}   ({ops} ops)")
    for n, row in sorted(table.items(), key=lambda kv: -kv[1].get("self_s", 0.0)):
        print(
            f"{n:45s} {row['calls']:10d} {row.get('self_s', float('nan')):12.6f} "
            f"{row.get('failed', 0):7d}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
