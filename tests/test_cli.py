"""Command-line surface: config handling, determinism, exit codes."""

import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atombath import cli
from atombath.cli import ConfigError, ScanConfig, emit_config, main, parse_config
from atombath.coefficients import Coupling, DetectorParams
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
    # only a value's ends are stripped on parsing
    spaced = ScanConfig(output="my scan.csv")
    assert parse_config(emit_config(spaced)) == spaced


@pytest.mark.parametrize(
    "output", ["out#1.csv", "a\nb.csv", "a\rb.csv", " lead.csv", "trail.csv "]
)
def test_emit_config_refuses_values_that_would_not_round_trip(output):
    # "#" starts a comment, a line break ends the line, and parsing strips
    # the value: each would read back as a different output path
    with pytest.raises(ConfigError, match="output"):
        emit_config(ScanConfig(output=output))


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
    with pytest.raises(ConfigError, match=r"^velocity needs at least one value"):
        ScanConfig(velocity=())


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


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            ["coeffs", "--beta-omega", "0.01,0.5,5,50", "--velocity", "0,1e-5,0.5,0.99"]
            + ["--oracle"],
            "coeffs_oracle_golden.csv",
        ),
        (
            ["death-time", "--coupling", "td", "--beta-omega", "0.01,0.5,5,50,800"]
            + ["--velocity", "0,1e-5,0.5,0.99", "--oracle", "--format", "json"],
            "death_time_td_golden.json",
        ),
        # v = 0 death times where n = e^-beta_omega is normal (699, 705),
        # subnormal (720, 740) and 0 (746)
        (
            ["death-time", "--beta-omega", "699,705,720,740,746", "--velocity", "0,0.01"]
            + ["--oracle"],
            "death_time_cold_golden.csv",
        ),
        # the closed forms alone, as JSON: the goldens the numpy-free CI step reads
        (
            ["concurrence", "--config", str(FIXTURES / "fig1c.cfg"), "--format", "json"],
            "fig1c_golden.json",
        ),
        # occupations from 1e14 down to 1.06e11, which repr writes in fixed
        # notation, and the subnormals 4.2e-322, 3.26e-322 and 1.6e-322
        (
            ["coeffs", "--beta-omega", "1e-14,1e-12,740,1000", "--velocity", "0,0.3,0.99"]
            + ["--format", "json"],
            "coeffs_edges_golden.json",
        ),
    ],
)
def test_oracle_golden_reproduces(argv, golden, tmp_path):
    # the v = 1e-5 Taylor branch, a frozen bath (four inf death times) and
    # both oracles, across the CSV and JSON renderers
    out = tmp_path / "regen"
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / golden).read_bytes()


def test_wightman_json_golden_reproduces(tmp_path):
    # 26 values that repr writes in exponent form, where its text and the
    # %.11e text differ most
    out = tmp_path / "regen.json"
    argv = ["wightman", "--coupling", "td", "--beta-omega", "5,50", "--velocity", "0,0.99"]
    assert main(argv + ["--tau", "0.1:5:13", "--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "wightman_td_golden.json").read_bytes()


def _reference_csv(cols, rows):
    lines = [",".join(cols)] + [",".join(f"{x:.11e}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _reference_json(cols, rows):
    def value(x):
        text = f"{x:.11e}"
        return text if math.isinf(x) else float(text)

    data = [{c: value(x) for c, x in zip(cols, row)} for row in rows]
    return json.dumps(data, indent=2) + "\n"


# where repr leaves fixed notation (1e-4 / 1e-5, 1e16), the float ends,
# signed zeros, the non-finite values and whole numbers; where 12 digits
# in general format leave fixed notation (1e11) and repr does not, values
# that round up to a whole number, and the subnormals and their border;
# both sides of the two borders of the range where render_json skips its
# fix-up pass (1e-300 < |x| < 1e10), a normal just above 1e-308 and a
# subnormal far above 4.35e-322 whose 12 digits are not its repr
_RENDER_EDGES = st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]
    + [1e-4, 9.99999999999e-5, 1.00000000001e-4, 1e-5, 9.99999999995e-5, -1e-4]
    + [1e16, 9.999999999995e15, 1.00000000001e16, -1e16, 1e15, 1234567.0, -42.0]
    + [1e11, 99999999999.99, 1.5e13, -1.23456789012e15, 9.9999999999995e15]
    + [99.9999999999996, 4.35e-322, 1e-310, 2.2250738585072014e-308, 2.225073858507e-308]
    + [9.999999999e9, -9.999999999e9, 1e10, -1e10, 1.0000000001e10, -1.0000000001e10]
    + [1e-300, -1e-300, 1.0000000001e-300, -1.0000000001e-300, 9.99999999e-301]
    + [-9.99999999e-301, 1e-307, 3.14159265359e-316]
)
_RENDER_VALUES = st.one_of(
    _RENDER_EDGES,
    st.floats(),
    st.floats(min_value=1e-6, max_value=1e-3),
    st.floats(min_value=1e15, max_value=1e17),
    st.floats(min_value=1e10, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e10),
    st.floats(min_value=0.0, max_value=2.3e-308),
    st.floats(min_value=-2.3e-308, max_value=-0.0),
    st.integers(-(10**12), 10**12).map(float),
)


@st.composite
def _table(draw):
    # any text as column names: json escapes them, and "%", "{" and "}"
    # must not upset a format template
    cols = draw(st.lists(st.text(max_size=6), min_size=1, max_size=8, unique=True))
    row = st.lists(_RENDER_VALUES, min_size=len(cols), max_size=len(cols))
    return tuple(cols), draw(st.lists(row, max_size=50))


def _cuts(cols, rows):
    # the table cut into blocks in each way the writers take, with the rows
    # those blocks stand for: a prefix of 0-2 columns, then either one-row
    # blocks, each with an axis of its own, or blocks of m rows that share
    # one axis list (the first block's axis column, so every drawn value
    # lands in a prefix, an axis or a value column somewhere), also between
    # one-row blocks
    for w in range(min(3, len(cols))):
        one_row = [(tuple(row[:w]), [row[w]], [[x] for x in row[w + 1 :]]) for row in rows]
        yield one_row, rows
        for m in sorted({1, 2, len(rows)} - {0}):
            axis = [row[w] for row in rows[:m]]
            chunks = [rows[j : j + m] for j in range(0, len(rows) - m + 1, m)]
            blocks = [
                (tuple(chunk[0][:w]), axis, [list(c) for c in zip(*chunk)][w + 1 :])
                for chunk in chunks
            ]
            shown = [[*p, *row] for p, _, columns in blocks for row in zip(axis, *columns)]
            yield blocks, shown
            yield one_row[:1] + blocks + one_row[-1:], rows[:1] + shown + rows[-1:]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(table=_table())
@example(table=(("a",), []))
@example(table=(("x%s", "%d"), [[math.inf, -math.inf], [math.nan, -0.0]]))
@example(table=(("{", "}}", "{0}", "%s"), [[1e11, 4.35e-322, -math.inf, math.nan]]))
# one block of two rows: a tame column next to one with a subnormal
@example(table=(("s", "tame", "tiny"), [[0.5, 0.25, 3.14159265359e-316], [1.5, 0.0, 0.75]]))
def test_renderers_match_the_per_value_reference(table):
    cols, rows = table
    for blocks, shown in _cuts(cols, rows):
        assert "".join(cli.render_csv(cols, blocks)) == _reference_csv(cols, shown)
        assert "".join(cli.render_json(cols, blocks)) == _reference_json(cols, shown)
    # no blocks at all: the header alone, an empty JSON list
    assert cli.render_csv(cols, []) == [_reference_csv(cols, [])]
    assert cli.render_json(cols, []) == ["[]\n"]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; usage errors, --help, a config
    # file and --oracle must leave nothing behind for the next call
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["death-time", "--help"])
    assert exc.value.code == 0
    assert main(["coeffs", "--config", str(FIXTURES / "fig1c.cfg")]) == 0
    assert main(["concurrence", "--tau", "0:1:3", "--oracle"]) == 0
    capsys.readouterr()
    runs = [
        (["concurrence", "--config", str(FIXTURES / "fig1c.cfg")], "fig1c_golden.csv"),
        (
            ["coeffs", "--beta-omega", "0.01,0.5,5,50", "--velocity", "0,1e-5,0.5,0.99"]
            + ["--oracle"],
            "coeffs_oracle_golden.csv",
        ),
        (
            ["death-time", "--coupling", "td", "--beta-omega", "0.01,0.5,5,50,800"]
            + ["--velocity", "0,1e-5,0.5,0.99", "--oracle", "--format", "json"],
            "death_time_td_golden.json",
        ),
        (
            ["concurrence", "--config", str(FIXTURES / "fig1c.cfg"), "--format", "json"],
            "fig1c_golden.json",
        ),
        (
            ["coeffs", "--beta-omega", "1e-14,1e-12,740,1000", "--velocity", "0,0.3,0.99"]
            + ["--format", "json"],
            "coeffs_edges_golden.json",
        ),
    ]
    for argv, golden in runs:
        assert main(argv) == 0
        assert capsys.readouterr().out == (FIXTURES / golden).read_text()


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

    # a frozen bath's block (inf) next to a tame one: the whole document
    args = ["death-time", "--beta-omega", "0.5,800", "--velocity", "0,0.5", "--oracle"]
    assert main(args + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    assert main(args) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines]
    assert text == _reference_json(header.split(","), rows)
    assert '"inf"' in text and math.isfinite(rows[0][2])


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["concurrence", "--tau", "0.05:2:5"],
        ["wightman", "--coupling", "udw", "--tau", "0.1:3:5"],
        ["wightman", "--coupling", "td", "--tau", "0.1:3:5"],
    ],
)
def test_oracle_only_appends_columns(argv, fmt, capsys):
    # every --oracle row is the plain row with the oracle columns after it;
    # 2 x 2 blocks of 5 rows
    argv = argv + ["--beta-omega", "0.5,5", "--velocity", "0,0.5", "--format", fmt]
    extra = cli._COMMANDS[argv[0]].oracle_cols
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--oracle"]) == 0
    checked = capsys.readouterr().out
    if fmt == "csv":
        plain, checked = plain.splitlines(), checked.splitlines()
        assert len(checked) == len(plain) == 21
        assert checked[0] == ",".join([plain[0], *extra])
        for bare, line in zip(plain[1:], checked[1:]):
            assert line.startswith(bare + ",") and line.count(",") == bare.count(",") + len(extra)
    else:
        plain, checked = json.loads(plain), json.loads(checked)
        assert len(checked) == len(plain) == 20
        for bare, row in zip(plain, checked):
            assert {key: row[key] for key in bare} == bare
            assert list(row)[len(bare) :] == list(extra)


@pytest.mark.parametrize("coupling", ["udw", "td"])
@pytest.mark.parametrize("command", ["coeffs", "death-time"])
def test_a_scan_prints_the_rows_of_its_one_pair_scans(command, coupling, capsys):
    # the scan's blocks share one speed axis, and coeffs' blocks their rate
    # columns: every row must still be what its (beta_omega, v) prints
    # alone, for unsorted and repeated speeds too
    bws, vs = ["0.5", "5", "0.01"], ["0.9", "0", "0.5", "0"]
    argv = [command, "--coupling", coupling, "--oracle"]
    assert main(argv + ["--beta-omega", ",".join(bws), "--velocity", ",".join(vs)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 12
    for row, (bw, v) in zip(rows, [(bw, v) for bw in bws for v in vs]):
        assert main(argv + ["--beta-omega", bw, "--velocity", v]) == 0
        assert capsys.readouterr().out.splitlines() == [header, row]


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
    assert main(["concurrence", "--tau", "0:1:2.5"]) == 2
    assert capsys.readouterr().err.startswith("error: tau steps must be an integer")
    bad.write_text("# ok\nbeta_omega 1.0\n")
    assert main(["concurrence", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: expected key = value")


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


_FLAGS = ["--config"] + ["--" + key.replace("_", "-") for key in cli._KEYS]


def test_one_parser_declares_each_flag_once():
    parser = cli.build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    declared = [s for a in parser._actions for s in a.option_strings]
    assert sorted(declared) == sorted(["-h", "--help"] + _FLAGS)


# flag -> a command and the flag's values, chosen so that the flag changes what
# the run prints or makes it exit 2
_EITHER_SIDE = {
    "--config": ("concurrence", [str(FIXTURES / "fig1c.cfg")]),
    "--coupling": ("death-time", ["td"]),
    "--beta-omega": ("coeffs", ["0.5,5"]),
    "--velocity": ("coeffs", ["0,0.99"]),
    "--tau": ("wightman", ["0.1:2:4"]),
    "--omega": ("wightman", ["2"]),
    "--coupling-strength": ("concurrence", ["1e200"]),
    "--v-max": ("coeffs", ["0.8"]),
    "--epsilon": ("wightman", ["0.01"]),
    "--oracle": ("death-time", []),
    "--format": ("coeffs", ["json"]),
    "--output": ("coeffs", ["out.csv"]),
}


@pytest.mark.parametrize("flag", _FLAGS)
def test_flags_act_the_same_on_either_side_of_the_command(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where --output writes out.csv
    command, values = _EITHER_SIDE[flag]

    def run(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        written = Path("out.csv").read_text() if Path("out.csv").exists() else None
        Path("out.csv").unlink(missing_ok=True)
        return rc, captured.out, captured.err, written

    after = run([command, flag, *values])
    assert run([flag, *values, command]) == after
    assert run([command]) != after


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    for name, command in cli._COMMANDS.items():
        assert [name, *command.help.split()] in lines


def test_wightman_oracle_certifies_the_default_grid_at_beta_omega_0_0625(capsys):
    # QUADPACK warned of round-off on this grid, 1.05e-13 off the closed form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wightman", "--beta-omega", "0.0625", "--oracle"]) == 0
    rows = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
    assert rows.shape == (90, 7)
    assert np.abs(rows[:, 5:] - rows[:, 3:5]).max() <= 1e-12


def test_uncertified_wightman_oracle_block_exits_three(capsys):
    # ~3e4 periods of cos(ks) under the Bose weight: 1000 panels of 21 nodes
    # cannot certify it
    argv = ["wightman", "--coupling", "udw", "--beta-omega", "1e-3", "--velocity", "0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--tau", "0.1:3:3", "--oracle"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: moving quadrature only reached an error estimate" in err


@pytest.mark.parametrize(
    "command",
    [["concurrence"], ["coeffs"], ["death-time"], ["wightman", "--coupling", "udw"],
     ["wightman", "--coupling", "td"]],
    ids=["concurrence", "coeffs", "death-time", "wightman-udw", "wightman-td"],
)
def test_oracle_runs_without_scipy(command):
    code = (
        "import contextlib, io, sys\n"
        "from atombath.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({command + ['--oracle']!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_exit_three_on_numerical_failure(monkeypatch, capsys):
    def blow_up(cfg):
        raise QuadratureError("synthetic tolerance miss")

    monkeypatch.setitem(cli._COMMANDS, "coeffs", cli._COMMANDS["coeffs"]._replace(run=blow_up))
    assert main(["coeffs"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # (s - i eps)^2 overflows at s = 5e299, and at eps = 1e-3 beta = 1e297
        ["wightman", "--tau", "0:1e300:3"],
        ["wightman", "--beta-omega", "1e300", "--velocity", "0.5", "--tau", "1:2:2"],
        # y^2 csch^2 y forms inf * 0
        ["wightman", "--coupling", "td", "--beta-omega", "1e-300", "--velocity", "0.5",
         "--tau", "1:2:2"],
    ],
)
def test_exit_three_where_the_correlator_is_not_finite(argv, capsys):
    # a nan correlator is a numerical failure, never a printed row
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoleProximityWarning)
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["wightman", "--beta-omega", "5000", "--velocity", "0", "--tau", "0.1:3:3"],
     ["wightman", "--tau", "0:3:3"]],
)
def test_pole_proximity_warning_as_an_error_exits_three(argv, capsys):
    # python -W error raises the warning: a numerical failure, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", PoleProximityWarning)
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ") and captured.out == ""
    # left a warning, it is only reported: the same rows, exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoleProximityWarning)
        assert main(argv) == 0
    quiet = capsys.readouterr().out
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PoleProximityWarning)
        assert main(argv) == 0
    assert caught and all(w.category is PoleProximityWarning for w in caught)
    assert capsys.readouterr().out == quiet != ""


def _python(code, *args):
    # a fresh interpreter running code on this checkout's src
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "command",
    [["concurrence"], ["coeffs"], ["death-time"], ["wightman", "--coupling", "udw"],
     ["wightman", "--coupling", "td"]],
    ids=["concurrence", "coeffs", "death-time", "wightman-udw", "wightman-td"],
)
def test_closed_forms_run_with_numpy_blocked(command, capsys):
    # None in sys.modules makes any import of numpy raise ImportError
    done = _python(
        "import sys; sys.modules['numpy'] = None\n"
        "from atombath.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
        *command,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoleProximityWarning)
        assert main(command) == 0
    assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)


def test_importing_the_package_and_building_the_parser_loads_no_numpy():
    done = _python(
        "import sys, atombath, atombath.cli\n"
        "atombath.cli.build_parser()\n"
        "print('numpy' in sys.modules)\n"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_numpy_is_imported_by_the_np_module_alone():
    # every other module reads numpy through `from . import _np as np`
    importers, type_checking = set(), set()
    for path in (Path(__file__).parents[1] / "src" / "atombath").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            if any(name.split(".")[0] == "numpy" for name in imported):
                importers.add(path.name)
            if "TYPE_CHECKING" in imported or getattr(node, "id", None) == "TYPE_CHECKING":
                type_checking.add(path.name)
    assert (importers, type_checking) == ({"_np.py"}, set())


def test_dunder_probes_load_no_numpy():
    # an import's __path__ probe and inspect's __wrapped__ are refused without
    # importing numpy or building dynamics' arrays
    done = _python(
        "import sys, atombath, atombath._np, atombath.dynamics\n"
        "print(hasattr(atombath._np, '__path__'), hasattr(atombath.dynamics, '__wrapped__'),\n"
        "      hasattr(atombath, '__wrapped__'), 'numpy' in sys.modules)\n"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False False False\n", "")


@pytest.mark.parametrize(
    "flags",
    [
        ["--beta-omega", "nan"],
        ["--beta-omega", "inf"],
        ["--omega", "inf"],
        ["--tau", "0:inf:5"],
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


@pytest.mark.parametrize(
    "argv, key",
    [
        (["concurrence", "--coupling-strength", "1e-200"], "coupling_strength"),
        (["death-time", "--coupling-strength", "1e-200"], "coupling_strength"),
        (["coeffs", "--coupling-strength", "1e-200"], "coupling_strength"),
        (["concurrence", "--coupling-strength", "1e200"], "coupling_strength"),
        (["coeffs", "--coupling-strength", "1e200"], "coupling_strength"),
        (["death-time", "--coupling-strength", "1e200"], "coupling_strength"),
        (["wightman", "--coupling-strength", "1e200"], "coupling_strength"),
        # a subnormal rate unit: tau/unit overflowed into a math domain error
        (["concurrence", "--coupling-strength", "1e-160", "--oracle"], "coupling_strength"),
        (["coeffs", "--omega", "1e-120"], "omega"),
        (["coeffs", "--omega", "1e200"], "omega"),
        (["wightman", "--omega", "1e200"], "omega"),
    ],
)
def test_exit_two_where_a_rate_leaves_the_floats(argv, key, capsys):
    # lam^2 omega^3 over- or underflows: the rates overflowed (exit 3) or
    # vanished behind an error that named no flag
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key}: ") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["death-time", "--coupling-strength", "1e-150", "--oracle"],
        ["death-time", "--coupling", "td", "--coupling-strength", "1e150", "--oracle"],
        ["coeffs", "--omega", "1e-100", "--oracle"],
        ["coeffs", "--omega", "1e100", "--oracle"],
    ],
)
def test_rates_near_the_ends_of_the_floats_still_scan(argv, capsys):
    rows = _csv_rows(argv, capsys)
    assert rows and all(math.isfinite(float(x)) for r in rows for x in r.split(","))


@pytest.mark.parametrize(
    "argv", [["concurrence", "--tau", "0:1:2", "--oracle"], ["death-time", "--oracle"]]
)
def test_scans_of_one_coupling_check_only_its_rates(argv, capsys):
    # the td rates (~omega^3) underflow at omega = 1e-120, but these scans
    # meet only the monopole's, and their rate unit (1.6e-121) is normal
    argv = argv + ["--coupling", "udw"]
    rows = _csv_rows(argv + ["--omega", "1e-120"], capsys)
    assert rows and all(math.isfinite(float(x)) for r in rows for x in r.split(","))
    # in gamma_0 units the rows do not depend on omega
    for row, ref in zip(rows, _csv_rows(argv + ["--omega", "1"], capsys), strict=True):
        assert [float(x) for x in row.split(",")] == pytest.approx(
            [float(x) for x in ref.split(",")], rel=1e-9, abs=1e-12
        )
    # a td scan of the same omega meets the td rates, and stops there
    assert main(argv + ["--omega", "1e-120", "--coupling", "td"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: omega: ") and captured.out == ""


def _decade(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# log-uniform across the floats, or with lam^2 omega^3 within a few decades of
# the ends of the normal floats, where the speed might decide the check
_OMEGA_LAM = st.one_of(
    st.tuples(_decade(-323.0, 308.0), _decade(-323.0, 308.0)),
    st.tuples(
        _decade(-323.0, 308.0),
        st.one_of(st.floats(-312.0, -303.0), st.floats(303.0, 310.0)),
    ).map(lambda p: (10.0 ** min((p[1] - 2.0 * math.log10(p[0])) / 3.0, 308.0), p[0])),
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    omega_lam=_OMEGA_LAM,
    v_max=st.sampled_from([1e-300, 0.5, 0.99, 0.999999, 1.0 - 2.0**-53]),
    coupling=st.sampled_from(list(Coupling)),
    both=st.booleans(),
)
@example(omega_lam=(1e-103, 1.0), v_max=0.99, coupling=Coupling.DERIVATIVE, both=False)
def test_rates_checked_at_v_max_reject_what_both_ends_of_the_speed_range_reject(
    omega_lam, v_max, coupling, both
):
    omega, lam = omega_lam
    assume(0.0 < omega < math.inf and 0.0 < lam < math.inf)

    def rejects(omega, lam):
        # the reference: every checked coupling's rates at rest and at v_max
        try:
            for c in Coupling if both else (coupling,):
                for v in (0.0, v_max):
                    DetectorParams(omega, lam, v, c, v_max)
        except ValueError:
            return True
        return False

    # ScanConfig checks omega at lam = 1 first, then lam at omega
    expected = "omega" if rejects(omega, 1.0) else None
    expected = expected or ("coupling_strength" if rejects(omega, lam) else None)
    try:
        ScanConfig(
            coupling=coupling, omega=omega, coupling_strength=lam, v_max=v_max,
            velocity=(0.0,), both_couplings=both,  # a speed every v_max admits
        )
        key = None
    except ConfigError as exc:
        key = str(exc).split(":")[0]
    # a beta_omega the occupations overflow at is checked after the rates
    assert (None if key == "beta_omega" else key) == expected


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

    monkeypatch.setitem(cli._COMMANDS, "coeffs", cli._COMMANDS["coeffs"]._replace(run=fail))
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
    "--omega": _number(0.1, 10.0),
    "--coupling-strength": _number(0.1, 2.0),
    "--v-max": _number(0.5, 0.999),
    "--epsilon": _number(1e-4, 0.1),
    "--format": st.sampled_from(["csv", "json", "yaml"]),
}


@st.composite
def _argv(draw):
    argv = [draw(st.sampled_from(sorted(cli._COMMANDS)))]
    flags = st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=3, unique=True)
    for flag in draw(flags):
        argv += [flag, draw(_FLAG_VALUES[flag])]
    if draw(st.booleans()):
        argv.append("--oracle")
    return argv


def _printed_cells(text):
    # (column, value) for every cell of a CSV or JSON table
    if text.startswith("["):
        return [(k, float(x)) for row in json.loads(text) for k, x in row.items()]
    head, *rows = text.splitlines()
    return [(k, float(x)) for r in rows for k, x in zip(head.split(","), r.split(","))]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=_argv())
@example(argv=["death-time", "--coupling-strength", "4.579534295400053e-15", "--oracle"])
# an overflowing occupation printed nan and inf with exit 0
@example(argv=["coeffs", "--beta-omega", "1e-315"])
# n_td's v^2 Taylor branch overflowed to nan beside a finite n_udw
@example(argv=["coeffs", "--beta-omega", "1e-308", "--velocity", "0,1e-5"])
# flags before the subcommand; the window oracle's error sums overflowed (exit 3)
@example(argv=["--velocity", "0,0.5,0.99", "coeffs", "--beta-omega", "5.57e-309", "--oracle"])
def test_exit_code_contract_holds_for_any_flags(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                # wightman warns of separations inside the regulator (the
                # default grid in a cold bath); any other warning is an error
                if "wightman" in argv:
                    warnings.simplefilter("ignore", PoleProximityWarning)
                rc = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        assert exc.code == 2
        return
    assert rc in (0, 2, 3)
    if rc:
        assert err.getvalue() and not out.getvalue()
        return
    # a printed value is finite, bar the documented inf of a death time that never comes
    for key, x in _printed_cells(out.getvalue()):
        assert math.isfinite(x) or (x == math.inf and key.startswith("death_time")), (key, x)


def test_output_file_and_stdout_agree(tmp_path, capsys):
    args = ["coeffs", "--beta-omega", "1.0", "--velocity", "0.3"]
    assert main(args) == 0
    streamed = capsys.readouterr().out
    target = tmp_path / "out.csv"
    assert main(args + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == streamed


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_memory_follows_the_output_text(fmt, tmp_path):
    # a 10^5-row scan holds about its output text, not one list per row
    target = tmp_path / f"scan.{fmt}"
    argv = ["concurrence", "--beta-omega", "0.5,1,2,5", "--velocity", "0,0.2,0.4,0.6,0.8"]
    argv += ["--format", fmt, "--output", str(target), "--tau"]
    assert main(argv + ["0:5:3"]) == 0  # first use of what a scan loads
    tracemalloc.start()
    try:
        assert main(argv + ["0:5:5000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(target.read_text().splitlines()) == (100_001 if fmt == "csv" else 600_002)
    assert peak <= 1.5 * target.stat().st_size


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


def test_td_wightman_at_rest_where_beta_to_the_fourth_underflows(capsys):
    argv = ["wightman", "--coupling", "td", "--beta-omega", "1e-3", "--omega", "1e80"]
    rows = _csv_rows(argv + ["--velocity", "0", "--tau", "1:2:2"], capsys)
    assert len(rows) == 2
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


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


def test_uncertified_window_oracle_names_the_first_bad_cell(monkeypatch, capsys):
    # on a one-panel mesh (0.5, 0.99) is the first row the window oracles
    # cannot certify at beta_omega = 5, (50, 0.5) the first at 50
    from atombath import coefficients

    certified_gk21 = coefficients.certified_gk21
    monkeypatch.setattr(
        coefficients, "certified_gk21", lambda *a, **k: certified_gk21(*a, **{**k, "limit": 1})
    )
    for beta_omega, cell in (("5,50", "b=5.0, v=0.99"), ("50,5", "b=50.0, v=0.5")):
        argv = ["coeffs", "--beta-omega", beta_omega, "--velocity", "0,0.5,0.99", "--oracle"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"numerical failure: window quadrature for {cell} only reached")


def test_coeffs_oracle_in_a_frozen_bath(capsys):
    # the window quadrature formed x**2 past the overflow of a float, and the
    # v^2 Taylor branches formed inf*0 once 4*r or b*2 overflowed (1.7e308)
    argv = ["coeffs", "--beta-omega", "1e300,1.7e308", "--velocity", "0,0.5,0.9", "--oracle"]
    for row in _csv_rows(argv, capsys):
        n_udw, n_td, _, _, n_udw_q, n_td_q = map(float, row.split(",")[2:])
        assert n_udw == n_udw_q == 0.0 and n_td == n_td_q == 0.0


@pytest.mark.parametrize(
    "beta_omega, velocity",
    # the window oracle divided a rounded-away width by 2 v b: a float
    # division by zero (exit 3), and a nan with exit 0
    [("1e-150", "1e-300"), ("1e-300", "1e-17")],
)
def test_coeffs_oracle_at_a_width_that_rounds_away(beta_omega, velocity, capsys):
    argv = ["coeffs", "--beta-omega", beta_omega, "--velocity", velocity, "--oracle"]
    (row,) = _csv_rows(argv, capsys)
    n_udw, n_td, _, _, n_udw_q, n_td_q = map(float, row.split(",")[2:])
    assert n_udw_q == pytest.approx(n_udw, rel=1e-12, abs=0.0)
    assert n_td_q == pytest.approx(n_td, rel=1e-12, abs=0.0)


def test_coeffs_oracle_in_the_hottest_baths(capsys):
    # the window mean's integrand is ~1/(beta_omega*red), past the largest
    # float: the GK21 error sums overflowed to nan (exit 3)
    argv = ["coeffs", "--beta-omega", "5.57e-309,1e-308,2e-308", "--velocity", "0,0.5,0.99"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _csv_rows(argv + ["--oracle"], capsys)
    assert len(rows) == 9
    for row in rows:
        values = [float(x) for x in row.split(",")]
        assert all(math.isfinite(x) for x in values), row
        n_udw, n_td, _, _, n_udw_q, n_td_q = values[2:]
        assert n_udw_q == pytest.approx(n_udw, rel=1e-10, abs=0.0), row
        assert n_td_q == pytest.approx(n_td, rel=1e-10, abs=0.0), row


def test_coeffs_oracle_in_cold_baths_warns_nothing_and_agrees(capsys):
    # the closed forms cut n to 0 past beta_omega*red = 700, and scipy warned
    # of roundoff on the subnormal integrand at (1000, 0.3)
    argv = ["coeffs", "--beta-omega", "700,1000", "--velocity", "0,0.3,0.9,0.99", "--oracle"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _csv_rows(argv, capsys)
    assert capsys.readouterr().err == ""
    assert len(rows) == 8
    for row in rows:
        n_udw, n_td, _, _, n_udw_q, n_td_q = map(float, row.split(",")[2:])
        for closed, oracle in ((n_udw, n_udw_q), (n_td, n_td_q)):
            if closed >= sys.float_info.min:
                assert oracle == pytest.approx(closed, rel=1e-10, abs=0.0), row
            else:
                assert oracle == pytest.approx(closed, rel=0.0, abs=1e-320), row
    assert float(rows[5].split(",")[2]) > 0.0  # (1000, 0.3): subnormal, not 0


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
@pytest.mark.parametrize(
    "flags",
    [["--tau", "0:1e308:3"], ["--coupling-strength", "1e-153", "--tau", "0:100:3"]],
)
def test_exit_two_where_the_tau_grid_overflows_over_the_rate_unit(flags, oracle, capsys):
    # --oracle gave a numpy RuntimeWarning and a math domain error naming no key
    argv = ["concurrence", "--beta-omega", "1", "--velocity", "0"] + flags + oracle
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tau: ") and captured.out == ""


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("beta_omega", ["1e-315", "5e-324"])
def test_exit_two_where_the_occupation_overflows(command, beta_omega, capsys):
    # coeffs printed nan and inf rows with exit 0, or divided by zero (exit 3)
    assert main([command, "--beta-omega", f"0.5,{beta_omega}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: beta_omega: ") and captured.out == ""


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
