"""Command-line surface: config handling, determinism, exit codes."""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atombath import cli
from atombath.cli import ConfigError, ScanConfig, emit_config, main, parse_config
from atombath.coefficients import Coupling
from atombath.correlations import PoleProximityWarning
from atombath.specfun import QuadratureError

FIXTURES = Path(__file__).parent / "fixtures"


# --- config file ---------------------------------------------------------------


def test_emit_parse_round_trip():
    cfg = ScanConfig(
        coupling=Coupling.DERIVATIVE,
        beta_omega=(0.25, 1.75),
        velocity=(0.0, 0.125, 0.875),
        tau=(0.0, 7.3, 31),
        delta_omega=0.05,
        omega=2.0,
        coupling_strength=0.3,
        v_max=0.995,
        epsilon=1e-4,
        oracle=True,
        format="json",
        output="scan.json",
    )
    assert parse_config(emit_config(cfg)) == cfg
    # defaults survive the trip too
    assert parse_config(emit_config(ScanConfig())) == ScanConfig()


def test_parse_config_skips_comments_and_blanks():
    cfg = parse_config(
        "# a comment\n\nbeta_omega = 1.0, 2.0\nvelocity=0.5  # trailing note\n"
    )
    assert cfg.beta_omega == (1.0, 2.0)
    assert cfg.velocity == (0.5,)
    assert cfg.coupling is Coupling.UDW


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2.*sigma"):
        parse_config("beta_omega = 1.0\nsigma = 3\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("beta_omega = fast\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("# ok\nvelocity = 0.1\ntau = 0:5\n")
    with pytest.raises(ConfigError):
        parse_config("oracle = maybe\n")


def test_config_validation():
    with pytest.raises(ConfigError, match="velocity"):
        ScanConfig(velocity=(1.5,))
    with pytest.raises(ConfigError, match="beta_omega"):
        ScanConfig(beta_omega=(-1.0,))
    with pytest.raises(ConfigError, match="tau"):
        ScanConfig(tau=(0.0, 5.0, 1))
    with pytest.raises(ConfigError, match="format"):
        ScanConfig(format="yaml")


# --- precedence ----------------------------------------------------------------


def test_flags_override_file_which_overrides_defaults(tmp_path, capsys):
    cfg_file = tmp_path / "scan.cfg"
    cfg_file.write_text("beta_omega = 2.0\nvelocity = 0.25\ntau = 0.0:1.0:2\n")
    rc = main(["coeffs", "--config", str(cfg_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2.00000000000e+00,2.50000000000e-01" in out
    # the flag wins over the file value
    rc = main(["coeffs", "--config", str(cfg_file), "--velocity", "0.75"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2.50000000000e-01" not in out
    assert "7.50000000000e-01" in out
    # without either, the defaults drive the grid
    rc = main(["coeffs"])
    assert rc == 0
    assert "5.00000000000e-01,0.00000000000e+00" in capsys.readouterr().out


# --- output formats ------------------------------------------------------------


def test_csv_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["concurrence", "--config", str(FIXTURES / "fig1c.cfg")]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_golden_fixture_reproduces(tmp_path):
    out = tmp_path / "regen.csv"
    rc = main(
        ["concurrence", "--config", str(FIXTURES / "fig1c.cfg"), "--output", str(out)]
    )
    assert rc == 0
    assert out.read_bytes() == (FIXTURES / "fig1c_golden.csv").read_bytes()


@pytest.mark.parametrize("coupling", ["udw", "td"])
def test_wightman_golden_reproduces(coupling, tmp_path):
    # the grid reaches the pole at s = 0, the small-s series, |y| > 20
    # (csch^2 and coth at their asymptotes) and the v < 1e-6 static branch
    out = tmp_path / "regen.csv"
    argv = ["wightman", "--coupling", coupling, "--beta-omega", "0.01,1,100"]
    argv += ["--velocity", "0,1e-7,0.5,0.99", "--tau", "0:3:25", "--output", str(out)]
    with pytest.warns(PoleProximityWarning):
        assert main(argv) == 0
    golden = FIXTURES / f"wightman_{coupling}_golden.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_json_matches_csv_values(capsys):
    args = [
        "coeffs",
        "--beta-omega",
        "1.0",
        "--velocity",
        "0.5",
    ]
    assert main(args + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    csv_lines = capsys.readouterr().out.strip().splitlines()
    header = csv_lines[0].split(",")
    values = csv_lines[1].split(",")
    assert len(data) == 1
    for col, raw in zip(header, values):
        assert data[0][col] == pytest.approx(float(raw), rel=1e-15)
    assert data[0]["n_udw"] == pytest.approx(0.5451001391331534, rel=1e-10)


def test_death_time_emits_inf_literal(capsys):
    # a very cold bath freezes the occupation to zero: no sudden death
    rc = main(["death-time", "--beta-omega", "800", "--velocity", "0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].endswith(",inf")
    rc = main(
        ["death-time", "--beta-omega", "800", "--velocity", "0.0", "--format", "json"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)[0]["death_time_gamma0"] == "inf"


def test_oracle_flag_adds_columns(capsys):
    base = ["death-time", "--beta-omega", "0.5", "--velocity", "0.0,0.5"]
    assert main(base) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(base + ["--oracle"]) == 0
    checked = capsys.readouterr().out.splitlines()
    assert plain[0] == "beta_omega,velocity,death_time_gamma0"
    assert checked[0] == plain[0] + ",death_time_bisection"
    for line in checked[1:]:
        *_, closed, bisected = line.split(",")
        assert float(closed) == pytest.approx(float(bisected), rel=1e-7)


def test_wightman_scan_shape(capsys):
    rc = main(
        [
            "wightman",
            "--beta-omega",
            "1.0",
            "--velocity",
            "0.4",
            "--tau",
            "0.2:1.0:5",
            "--coupling",
            "td",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beta_omega,velocity,s,re_w,im_w"
    assert len(lines) == 6
    s_values = [float(line.split(",")[2]) for line in lines[1:]]
    assert s_values == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])


# --- exit codes ------------------------------------------------------------------


def test_exit_two_on_config_problems(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("beta_omega = purple\n")
    assert main(["concurrence", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["concurrence", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    assert main(["concurrence", "--beta-omega", "0,1"]) == 2
    assert "beta_omega" in capsys.readouterr().err


def test_exit_two_on_oversized_regulator(capsys):
    rc = main(["wightman", "--beta-omega", "1.0", "--epsilon", "0.5"])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["concurrence", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required


def test_exit_three_on_numerical_failure(monkeypatch, capsys):
    def blow_up(cfg):
        raise QuadratureError("synthetic tolerance miss")

    monkeypatch.setitem(cli._RUNNERS, "coeffs", blow_up)
    assert main(["coeffs"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--beta-omega", "nan"],
        ["--beta-omega", "inf"],
        ["--omega", "inf"],
        ["--tau", "0:inf:5"],
        ["--delta-omega", "nan"],
        ["--tau", "0:1:100000000000"],
    ],
)
def test_exit_two_on_non_finite_or_unbounded_input(flags, capsys):
    start = time.perf_counter()
    assert main(["concurrence"] + flags) == 2
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_exit_two_on_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["coeffs", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write output file" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "exc, code",
    [(np.linalg.LinAlgError("synthetic breakdown"), 3), (ValueError("synthetic"), 2)],
)
def test_runner_errors_map_to_exit_codes(exc, code, monkeypatch, capsys):
    # LinAlgError is a ValueError, yet a numerical failure
    def fail(cfg):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "coeffs", fail)
    assert main(["coeffs"]) == code
    assert "synthetic" in capsys.readouterr().err


_EDGES = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0.5", "-1", "1e308", "1e-308", "5e-324"]
)


def _number(lo, hi):
    # a third each: the key's useful range, edge values, any float
    return st.one_of(
        st.floats(min_value=lo, max_value=hi).map(repr), _EDGES, st.floats().map(repr)
    )


_FLAG_VALUES = {
    "--coupling": st.sampled_from(["udw", "td", "TD", "both"]),
    "--beta-omega": st.lists(_number(1e-3, 50.0), max_size=3).map(",".join),
    "--velocity": st.lists(_number(0.0, 0.99), max_size=3).map(",".join),
    "--tau": st.tuples(_number(0.0, 1.0), _number(1.0, 10.0), st.integers(-2, 50)).map(
        lambda g: f"{g[0]}:{g[1]}:{g[2]}"
    ),
    "--delta-omega": _number(-1.0, 1.0),
    "--omega": _number(0.1, 10.0),
    "--coupling-strength": _number(0.1, 2.0),
    "--v-max": _number(0.5, 0.999),
    "--epsilon": _number(1e-4, 0.1),
    "--format": st.sampled_from(["csv", "json", "yaml"]),
}


@st.composite
def _argv(draw):
    argv = [draw(st.sampled_from(sorted(cli._RUNNERS)))]
    flags = st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=3, unique=True)
    for flag in draw(flags):
        argv += [flag, draw(_FLAG_VALUES[flag])]
    if draw(st.booleans()):
        argv.append("--oracle")
    return argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=_argv())
@example(argv=["death-time", "--coupling-strength", "4.579534295400053e-15", "--oracle"])
def test_exit_code_contract_holds_for_any_flags(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        assert exc.code == 2
        return
    assert rc in (0, 2, 3)
    if rc:
        assert err.getvalue() and not out.getvalue()


def test_output_file_and_stdout_agree(tmp_path, capsys):
    args = ["coeffs", "--beta-omega", "1.0", "--velocity", "0.3"]
    assert main(args) == 0
    streamed = capsys.readouterr().out
    target = tmp_path / "out.csv"
    assert main(args + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == streamed


def test_td_death_time_in_a_very_hot_bath(capsys):
    # the Doppler window is ~1e-18 wide here, far below what a difference
    # of two Bose tails near 2 zeta(3) resolves
    rc = main(["death-time", "--coupling", "td", "--beta-omega", "1e-9", "--velocity", "0.9"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    death = float(lines[1].split(",")[-1])
    assert math.isfinite(death) and death > 0.0


def test_td_death_time_below_the_cube_underflow(capsys):
    rc = main(["death-time", "--coupling", "td", "--beta-omega", "1e-110", "--velocity", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    death = float(lines[1].split(",")[-1])
    assert math.isfinite(death) and death > 0.0


def test_death_time_at_rest_in_a_very_hot_bath(capsys):
    # the v = 0 Taylor branch divided by 1 - e^-b, which is 0 here
    rc = main(["death-time", "--beta-omega", "1e-17", "--velocity", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    death = float(lines[1].split(",")[-1])
    assert math.isfinite(death) and death > 0.0


def test_death_time_where_n_squared_overflows(capsys):
    rc = main(["death-time", "--coupling", "td", "--beta-omega", "1e-200", "--velocity", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    death = float(lines[1].split(",")[-1])
    assert math.isfinite(death) and death > 0.0
    argv = ["concurrence", "--beta-omega", "1e-160", "--velocity", "0.5", "--tau", "0:1:2"]
    start = _csv_rows(argv + ["--oracle"], capsys)[0].split(",")
    # closed form and Wootters agree on the Bell state at tau = 0
    assert float(start[3]) == pytest.approx(1.0) and float(start[4]) == pytest.approx(1.0)


def _csv_rows(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()[1:]


def test_oracle_slices_do_not_change_rows(capsys):
    # one full slice plus one row, against the same grid run as two pieces;
    # a step of 1/512 makes every piece's grid points the same doubles
    n = cli._ORACLE_SLICE
    base = ["concurrence", "--oracle", "--beta-omega", "3", "--velocity", "0.3,0.8"]
    whole = _csv_rows(base + ["--tau", f"0:{n / 512}:{n + 1}"], capsys)
    head = _csv_rows(base + ["--tau", f"0:{(n - 1) / 512}:{n}"], capsys)
    tail = _csv_rows(base + ["--tau", f"{(n - 1) / 512}:{n / 512}:2"], capsys)
    assert len(whole) == 2 * (n + 1)
    for k in range(2):  # one block per velocity
        block = whole[k * (n + 1) : (k + 1) * (n + 1)]
        assert block[:n] == head[k * n : (k + 1) * n]
        assert block[n] == tail[2 * k + 1]
    # the Wootters column is live across the grid, not all zeros
    assert float(whole[n].split(",")[-1]) > 0.0


def test_coeffs_oracle_in_a_frozen_bath(capsys):
    # the window quadrature formed x**2 past the overflow of a float
    argv = ["coeffs", "--beta-omega", "1e300", "--velocity", "0,0.5,0.9", "--oracle"]
    for row in _csv_rows(argv, capsys):
        n_udw, n_td, _, _, n_udw_q, n_td_q = map(float, row.split(",")[2:])
        assert n_udw == n_udw_q == 0.0 and n_td == n_td_q == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["death-time", "--velocity", "0,0.5", "--oracle"],
        ["concurrence", "--velocity", "0.5", "--tau", "0:1:2", "--oracle"],
    ],
)
def test_exit_two_where_the_damping_rate_overflows(argv, capsys):
    # a = gamma (2n + 1) is inf once n passes ~9e307
    assert main(argv + ["--beta-omega", "1e-308"]) == 2
    captured = capsys.readouterr()
    assert "damping rate" in captured.err and captured.out == ""
    assert main(argv + ["--beta-omega", "1e-306"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(math.isfinite(float(x)) for r in rows for x in r.split(","))
