#!/usr/bin/env python3
"""Benchmark of atombath: seeded workloads, checked outputs, one JSON result.

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports ``atombath`` from its
``src``.  One client drives the program in a closed loop from this
process and thread: each op (one ``atombath`` subcommand run through
``atombath.cli.main(argv)`` with stdout captured, or one
``evolve_numeric`` call) starts when the previous one has been checked.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays the
untraced ops with every layer's public functions wrapped (see
``tracing.py``) and reports the per-layer metrics.  The last line of
stdout is the result object; a fuller record, with the environment, goes
to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from workloads import ROOT, SRC, CliOp, ProgramMissing

# before numpy is imported: one BLAS thread, the same on every commit
workloads.pin_threads(os.environ)

OUT = ROOT / ".bench_out"
GOLDEN_CONFIG = ROOT / "tests" / "fixtures" / "fig1c.cfg"
GOLDEN_CSV = ROOT / "tests" / "fixtures" / "fig1c_golden.csv"
# op_tail_ms is p90 on every workload and commit, so runs stay comparable;
# each workload leaves >= 10 ops beyond it at seed speed, and only a
# shorter run steps down the ladder
TAIL_LADDER = (90.0, 75.0, 50.0)
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Everything a pass over ops measured and checked."""

    ops: list = field(default_factory=list)
    latency: list = field(default_factory=list)  # seconds, per op
    host: list = field(default_factory=list)  # reference loop seconds around each op
    op_failed: list = field(default_factory=list)
    points: int = 0
    failed: int = 0
    bytes_out: int = 0
    compared: Counter = field(default_factory=Counter)
    mismatched: Counter = field(default_factory=Counter)
    reasons: list = field(default_factory=list)

    def add(self, op, seconds: float, verdict, nbytes: int) -> None:
        self.ops.append(op)
        self.latency.append(seconds)
        self.op_failed.append(verdict.failed > 0)
        self.points += verdict.points
        self.failed += verdict.failed
        self.bytes_out += nbytes
        self.compared.update(verdict.compared)
        self.mismatched.update(verdict.mismatched)
        if verdict.reason is not None and len(self.reasons) < 5:
            self.reasons.append(f"{_describe(op)}: {verdict.reason}")


def _describe(op) -> str:
    return " ".join(op.argv) if isinstance(op, CliOp) else repr(op)


class Runner:
    """Executes ops against the imported program and checks each one.

    Program functions are looked up on their modules at call time, so a
    traced replay reaches the rebound versions.
    """

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self._rk4_inputs: dict = {}

    def run(self, op):
        """Run one op; return (latency in s, verdict, stdout bytes)."""
        if isinstance(op, CliOp):
            return self._run_cli(op)
        return self._run_rk4(op)

    def _run_cli(self, op):
        argv = op.argv
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.pkg.cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code}): {err.getvalue().strip()[-200:]}"
        except Exception as exc:  # the program's own failure, counted per point
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if rc not in (0, None) and error is None:
            error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
        text = out.getvalue()
        return seconds, checks.check_cli(op, rc, text, error), len(text)

    def _rk4_inputs_of(self, op):
        # built once per op, on the first (untraced) pass, so a traced
        # replay shows only the timed evolve_numeric call
        if op not in self._rk4_inputs:
            pkg = self.pkg
            kind = pkg.Coupling.UDW if op.coupling == "udw" else pkg.Coupling.DERIVATIVE
            detector = pkg.DetectorParams(1.0, 1.0, op.velocity, kind)
            coeffs = pkg.lindblad_coefficients(detector, pkg.BathParams(op.beta_omega))
            tau = op.fraction * pkg.sudden_death_time(coeffs)
            self._rk4_inputs[op] = (coeffs, tau, pkg.shared_state(coeffs, tau))
        return self._rk4_inputs[op]

    def _run_rk4(self, op):
        coeffs, tau, reference = self._rk4_inputs_of(op)
        rho0 = self.pkg.bell_state()
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rho = self.pkg.dynamics.evolve_numeric(rho0, coeffs, tau)
        except Exception as exc:  # the program's own failure, counted per point
            verdict = checks.Verdict(points=1)
            verdict.fail(1, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, verdict, 0
        seconds = time.perf_counter() - t0
        return seconds, checks.check_rk4(rho, reference), 0


_REFERENCE_ROW = [0.1 * i + 0.123456789 for i in range(300)]
# Timed latencies are reported at the host speed where reference_s()
# takes this long: the fastest it ran on the 2-core Xeon host this
# benchmark was tuned on, so there the numbers are uncontended latencies.
REFERENCE_S = 135e-6


def reference_s() -> float:
    """How fast the host runs right now: the fastest of three renderings of
    300 floats as CSV text (~0.1 ms), the kind of work the program does."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        ",".join([f"{x:.11e}" for x in _REFERENCE_ROW])
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(runner: Runner, ops, seconds: float | None = None, recorder=None) -> Tally:
    """Closed loop over ``ops``: until ``seconds`` have passed, or all of them."""
    tally = Tally()
    deadline = None if seconds is None else time.perf_counter() + seconds
    for k, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        before = reference_s()
        if recorder is None:
            result = runner.run(op)
        else:
            result = recorder.run_op(k, lambda: runner.run(op))
        tally.host.append(0.5 * (before + reference_s()))
        tally.add(op, *result)
    return tally


def golden_check(pkg) -> str | None:
    """The fig1c fixture must still render byte-identically; None when it does."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = pkg.cli.main(["concurrence", "--config", str(GOLDEN_CONFIG)])
    if rc != 0:
        return f"fig1c golden run exited {rc}"
    if out.getvalue().encode() != GOLDEN_CSV.read_bytes():
        return "fig1c output differs from fig1c_golden.csv"
    return None


# set-up: fresh interpreters, each timed against a fixed start that imports
# only the standard library, run just before and just after it
SETUP_REPEATS = 5
SETUP_PROGRAM = "import signal; signal.alarm(120); import atombath.cli as c; c.build_parser()"
SETUP_REFERENCE = (
    "import argparse, asyncio, csv, dataclasses, decimal, email.parser, fractions, "
    "http.client, inspect, json, logging.handlers, pydoc, sqlite3, statistics, "
    "tarfile, typing, unittest, xml.dom.minidom, zipfile"
)
# about the fastest the reference start ran (0.153 s) on the host
# REFERENCE_S comes from, so there set-up reads as uncontended
SETUP_REFERENCE_S = 0.15


def _start(code: str, env: dict) -> float:
    """Wall time of one fresh interpreter running ``code``, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls in sleeps of up to 50 ms,
    # which would round every sample up to the next poll
    rc = proc.wait()
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, code)
    return seconds


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters importing atombath.cli and building
    the parser: (host-speed corrected, as measured), SETUP_REPEATS of each.

    Each start is scaled by SETUP_REFERENCE_S over the mean of the reference
    starts around it, so it reads as on the host REFERENCE_S comes from.
    Like op latencies, single starts swing with other tenants' load; the
    reference tracks that, and does not depend on the program.  One
    discarded start of each kind comes first, so the samples see warm file
    caches and compiled bytecode, as a user's second run does.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    _start(SETUP_PROGRAM, env)
    _start(SETUP_REFERENCE, env)
    before = _start(SETUP_REFERENCE, env)
    corrected, measured = [], []
    for _ in range(SETUP_REPEATS):
        seconds = _start(SETUP_PROGRAM, env)
        after = _start(SETUP_REFERENCE, env)
        corrected.append(seconds * SETUP_REFERENCE_S / (0.5 * (before + after)))
        measured.append(seconds)
        before = after
    return corrected, measured


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "atombath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # the build record differs across numpy versions
        blas = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in workloads.THREAD_VARS},
        "seed": seed,
    }


def tail(latency_ms: list[float]) -> tuple[float, float]:
    """Latency at the tail percentile, stepped down the ladder while fewer
    than ten ops lie beyond it; returns (latency, percentile)."""
    import numpy

    n = len(latency_ms)
    p = next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0), TAIL_LADDER[-1])
    return float(numpy.percentile(latency_ms, p)), p


def at_reference_speed(tally: Tally) -> list[float]:
    """Op latencies rescaled to a host on which the reference takes REFERENCE_S.

    Other tenants of a shared host slow this process by 40-70% for
    stretches of seconds, at times for a whole run; the reference timed
    around each op tracks that.
    """
    return [s * REFERENCE_S / h for s, h in zip(tally.latency, tally.host)]


def end_to_end(tally: Tally, setup: tuple[list[float], list[float]], notes: list[str]) -> dict:
    fastest = min(tally.host)
    latency = at_reference_speed(tally)
    # a failed op counts as missing any latency limit
    lat_ms = [float("inf") if bad else s * 1e3 for s, bad in zip(latency, tally.op_failed)]
    tail_ms, p = tail(lat_ms)
    busy = sum(latency)
    notes.append(
        f"host speed: reference loop {fastest * 1e6:.1f} us at fastest, median "
        f"{statistics.median(tally.host) * 1e6:.1f} us; uncorrected op_p50_ms="
        f"{statistics.median(tally.latency) * 1e3:.4f} points_per_s="
        f"{(tally.points - tally.failed) / sum(tally.latency):.6g}"
    )
    notes.append(
        f"ops={len(lat_ms)} points={tally.points} failed={tally.failed} "
        f"failed_fraction={tally.failed / max(tally.points, 1):.6g} "
        f"op_tail_ms=p{p:g} ({sum(1 for x in lat_ms if x > tail_ms)} ops beyond) "
        f"busy_s={busy:.3f} setup_samples_s={[round(s, 4) for s in setup[0]]} "
        f"(uncorrected {[round(s, 4) for s in setup[1]]})"
    )
    values = {
        "setup_s": statistics.median(setup[0]),
        "points_per_s": (tally.points - tally.failed) / busy,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg = workloads.load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(pkg)
    problems = []
    golden = golden_check(pkg)
    if golden is not None:
        problems.append(golden)
    anchor = workloads.ANCHORS.get(args.workload)
    if anchor is not None:  # largest op of the workload, untimed: fixes the RSS peak
        _, verdict, _ = runner.run(anchor)
        if verdict.failed:
            problems.append(f"anchor op failed: {verdict.reason}")

    ops = workloads.stream(args.workload, args.seed)
    notes: list[str] = []
    if args.trace == 0:
        setup = measure_setup()
        tally = run_pass(runner, ops, args.seconds)
        metrics = end_to_end(tally, setup, notes)
    else:
        import tracing  # loads numpy, so only after the threads are pinned

        # half the time untraced, then the same ops again traced
        plain = run_pass(runner, ops, args.seconds / 2.0)
        recorder = tracing.Recorder()
        recorder.install()
        try:
            tally = run_pass(runner, plain.ops, recorder=recorder)
        finally:
            recorder.uninstall()
        traced_s = sum(at_reference_speed(tally))
        untraced_s = sum(at_reference_speed(plain))
        overhead = traced_s - untraced_s
        notes.append(
            f"tracing overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s "
            f"= {overhead:.3f} s over {len(tally.ops)} ops (host-speed corrected)"
        )
        metrics, bases = tracing.layer_metrics(recorder, tally, overhead)
        notes.append("mismatch bases: " + (", ".join(bases) or "no oracle comparisons"))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans_{args.workload}_seed{args.seed}.npz"
        recorder.dump(spans)
        notes.append(f"spans: {len(recorder.name)} written to {spans.relative_to(ROOT)}")
        tally.failed += plain.failed
        tally.points += plain.points
        tally.reasons += plain.reasons

    problems += tally.reasons
    result = {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.points,
        "failed": tally.failed,
        "metrics": metrics,
    }
    for line in notes + [f"problem: {p}" for p in problems]:
        print(line)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "notes": notes, "problems": problems,
                                  **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
