"""Smoke tests of the benchmark itself.

    python3 -m pytest bench

Every workload runs at tiny size and emits every metric BENCHMARK.json
names; corrupted output is counted as failed; inputs depend on the seed
and nothing else; the golden fixture holds and the defect probes run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, CliOp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def pkg():
    return workloads.load_program()


@pytest.fixture(scope="module")
def runner(pkg):
    import run

    return run.Runner(pkg)


def _output(pkg, op) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert pkg.cli.main(op.argv) == 0
    return buf.getvalue()


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_emits_every_metric(workload, trace, monkeypatch, capsys):
    import run

    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["end_to_end" if trace == 0 else "per_layer"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    def inputs(seed):
        ops = itertools.islice(workloads.stream(workload, seed), 40)
        return [op.argv if isinstance(op, CliOp) else op for op in ops]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


CLEAN = CliOp("concurrence", "udw", (0.5, 1.0), (0.0, 0.5), (0.0, 5.0, 11), "csv", True)


def test_clean_output_passes(pkg):
    verdict = checks.check_cli(CLEAN, 0, _output(pkg, CLEAN))
    assert (verdict.failed, verdict.points) == (0, 44)
    assert verdict.compared["entanglement.concurrence"] == 44


def _nudge_last(row: str, delta: float) -> str:
    head, last = row.rsplit(",", 1)
    return f"{head},{float(last) + delta:.11e}"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows.__setitem__(3, rows[3].rsplit(",", 1)[0] + ",nan"),
        lambda rows: rows.__setitem__(3, rows[3].rsplit(",", 1)[0]),
        lambda rows: rows.__setitem__(3, rows[3].replace("e-01,", "e-02,", 1)),
        lambda rows: rows.__setitem__(3, _nudge_last(rows[3], 1e-6)),
    ],
    ids=["nan", "short-row", "wrong-axis", "oracle-disagrees"],
)
def test_corrupted_row_counts_as_failed(pkg, corrupt):
    lines = _output(pkg, CLEAN).splitlines()
    corrupt(lines)
    verdict = checks.check_cli(CLEAN, 0, "\n".join(lines) + "\n")
    assert verdict.failed == 1 and verdict.reason


def test_missing_row_fails_it_and_every_shifted_row(pkg):
    lines = _output(pkg, CLEAN).splitlines()
    del lines[3]  # data row 2: rows 2..10 of that (beta, v) block now sit off-grid
    verdict = checks.check_cli(CLEAN, 0, "\n".join(lines) + "\n")
    assert verdict.failed == CLEAN.points - 2


def test_corrupted_json_value_counts_as_failed(pkg):
    op = CliOp("death-time", "td", (0.5, 1.0), (0.0, 0.5), None, "json", True)
    data = json.loads(_output(pkg, op))
    assert checks.check_cli(op, 0, json.dumps(data)).failed == 0
    data[2]["death_time_gamma0"] = "soon"
    assert checks.check_cli(op, 0, json.dumps(data)).failed == 1


def test_death_time_oracle_is_compared_in_natural_units(pkg):
    op = CliOp("death-time", "td", (0.5, 1.0), (0.0, 0.5), None, "json", True)
    data = json.loads(_output(pkg, op))
    # 5e-10 in gamma_0 units is 6 pi * 5e-10 ~ 9e-9 in natural units for td
    data[1]["death_time_bisection"] += 5e-10
    verdict = checks.check_cli(op, 0, json.dumps(data))
    assert verdict.failed == 1
    assert verdict.mismatched["entanglement.sudden_death_time_bisection"] == 1


def test_rate_units_match_the_program(pkg):
    cfg = pkg.cli.ScanConfig()
    for name, kind in (("udw", pkg.Coupling.UDW), ("td", pkg.Coupling.DERIVATIVE)):
        detector = pkg.DetectorParams(cfg.omega, cfg.coupling_strength, 0.0, kind)
        assert checks.RATE_UNIT[name] == pytest.approx(pkg.rate_unit(detector), rel=1e-14)


def test_failed_op_fails_every_point():
    verdict = checks.check_cli(CLEAN, 3, "", "exit code 3")
    assert verdict.failed == verdict.points == 44


def test_golden_fixture_reproduces(pkg):
    import run

    assert run.golden_check(pkg) is None


def test_defect_probes_return_a_verdict(runner):
    # whether each defect still shows is the probe's report, not a test:
    # a fix to the program must not turn the benchmark's own tests red
    import defects

    for text, op, verdict in defects.probe(runner):
        assert verdict.points == op.points and 0 <= verdict.failed <= verdict.points, text
