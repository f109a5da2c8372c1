"""Command line front end.

Four subcommands scan the library over grids of bath temperature,
detector speed and (proper) time: ``concurrence`` for entanglement
curves, ``coeffs`` for the rate and occupation tables, ``death-time``
for disentanglement times, ``wightman`` for correlation profiles.
Parameters merge from three layers: built-in defaults, then a flat
``key = value`` config file, then command line flags.  Output is CSV or
JSON with floats fixed to 12 significant digits, so repeated runs are
byte identical.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain, product
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _np as np
from .coefficients import (
    BathParams,
    Coupling,
    DEFAULT_V_MAX,
    DetectorParams,
    LindbladCoefficients,
    _beta_omega,
    _window_occupations,
    gamma_td,
    gamma_udw,
    lindblad_coefficients,
    n_td,
    n_udw,
    rate_unit,
)
from .correlations import (
    PoleProximityWarning,
    wightman_derivative,
    wightman_derivative_fd,
    wightman_moving,
    wightman_moving_quadrature,
)
from .dynamics import shared_state
from .entanglement import (
    concurrence,
    concurrence_closed_form,
    sudden_death_time,
    sudden_death_time_bisection,
)
from .specfun import QuadratureError

__all__ = ["ConfigError", "ScanConfig", "parse_config", "emit_config", "main"]


class ConfigError(ValueError):
    """Configuration file or flag value is unusable."""


# the largest tau grid a scan builds; far above any plotted curve
_MAX_STEPS = 10**6
# states per batched Wootters evaluation in a concurrence --oracle scan;
# bounds the oracle's stacks whatever the grid length
_ORACLE_SLICE = 1024


@dataclass(frozen=True)
class ScanConfig:
    """Fully resolved scan parameters shared by all subcommands.

    ``tau`` is a ``(start, stop, steps)`` grid of dimensionless times
    (``gamma_0 tau``); the ``wightman`` subcommand reads the same field
    as its grid of proper-time separations.  Physical parameters are
    checked by the library's own parameter types; ``epsilon`` is checked
    where the ``wightman`` subcommand uses it.
    """

    coupling: Coupling = Coupling.UDW
    beta_omega: tuple[float, ...] = (0.5, 1.0, 5.0)
    velocity: tuple[float, ...] = (0.0, 0.5, 0.9)
    tau: tuple[float, float, int] = (0.0, 5.0, 51)
    omega: float = 1.0
    coupling_strength: float = 1.0
    v_max: float = DEFAULT_V_MAX
    epsilon: float | None = None
    oracle: bool = False
    format: str = "csv"
    output: str | None = None
    both_couplings: bool = True  # check both couplings' rates, not only coupling's

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        start, stop, steps = self.tau
        if not (0.0 <= start < stop < math.inf and 2 <= steps <= _MAX_STEPS):
            raise ConfigError(
                "tau grid needs 0 <= start < stop < inf and "
                f"2 <= steps <= {_MAX_STEPS}, got {self.tau!r}"
            )
        for key in ("beta_omega", "velocity"):
            if not getattr(self, key):
                raise ConfigError(f"{key} needs at least one value")
        self._check("coupling", lambda c: DetectorParams(1.0, 1.0, 0.0, c))
        self._check("v_max", lambda x: DetectorParams(1.0, 1.0, 0.0, v_max=x))
        self._check("velocity", lambda x: DetectorParams(1.0, 1.0, x, v_max=self.v_max))
        self._check("omega", lambda x: self._rates(x, 1.0))
        self._check("coupling_strength", lambda x: self._rates(self.omega, x))
        # the occupations' own check: it also rejects a beta_omega they overflow at
        self._check("beta_omega", lambda x: _beta_omega(BathParams(x / self.omega), self.omega))

    def _rates(self, omega: float, lam: float) -> None:
        # DetectorParams checks the rates the scan meets, at v_max alone: the rate
        # unit is the same at every speed, and gamma_td never falls as v rises
        for coupling in Coupling if self.both_couplings else (self.coupling,):
            DetectorParams(omega, lam, self.v_max, coupling, self.v_max)

    def _check(self, key: str, build) -> None:
        # the library type's own check, re-raised as a config error naming the key
        value = getattr(self, key)
        for x in value if isinstance(value, tuple) else (value,):
            try:
                build(x)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}") from None


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} expects a comma separated list of numbers")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_grid(key: str, raw: str) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key} expects start:stop:steps, got {raw!r}")
    start, stop = (_parse_float(key, p) for p in parts[:2])
    try:
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"{key} steps must be an integer, got {parts[2]!r}") from None
    return start, stop, steps


def _parse_coupling(key: str, raw: str) -> Coupling:
    try:
        return Coupling(raw.strip().lower())
    except ValueError:
        raise ConfigError(
            f"{key} must be one of {sorted(c.value for c in Coupling)}, got {raw!r}"
        ) from None


def _parse_bool(key: str, raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("true", "false"):
        return val == "true"
    raise ConfigError(f"{key} must be true or false, got {raw!r}")


def _parse_text(key: str, raw: str) -> str:
    return raw.strip()


def _emit_list(values: tuple[float, ...]) -> str:
    return ", ".join(repr(x) for x in values)


# key -> (parse, emit, metavar, help).  Each key is a config-file key and
# a --flag (underscores as dashes) read by the same parser; a None
# metavar makes the flag a switch that stands for "true".
_KEYS = {
    "coupling": (_parse_coupling, lambda c: c.value, "udw|td", "field coupling"),
    "beta_omega": (_parse_float_list, _emit_list, "LIST", "comma separated beta*omega"),
    "velocity": (_parse_float_list, _emit_list, "LIST", "comma separated speeds"),
    "tau": (
        _parse_grid,
        lambda g: f"{g[0]!r}:{g[1]!r}:{g[2]}",
        "START:STOP:STEPS",
        "time grid in 1/gamma_0 units (separation grid for wightman)",
    ),
    "omega": (_parse_float, repr, "X", "level splitting"),
    "coupling_strength": (_parse_float, repr, "X", "coupling constant"),
    "v_max": (_parse_float, repr, "X", "largest admissible speed"),
    "epsilon": (_parse_float, repr, "X", "correlation regulator"),
    "oracle": (
        _parse_bool, lambda b: str(b).lower(), None, "append brute-force cross-check columns"
    ),
    "format": (_parse_text, str, "csv|json", "output format"),
    "output": (_parse_text, str, "PATH", "write here instead of stdout"),
}


def parse_config(text: str) -> ScanConfig:
    """Parse flat ``key = value`` text into a :class:`ScanConfig`.

    ``#`` starts a comment anywhere on a line; blank lines are skipped.
    Unknown keys and unparsable values are errors carrying the line
    number.  Unspecified keys keep their defaults.
    """
    return ScanConfig(**_parse_config_values(text))


def _parse_config_values(text: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _KEYS[key][0](key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return values


def emit_config(cfg: ScanConfig) -> str:
    """Render a config back to text; ``parse_config`` round-trips it.

    A value that would not survive the trip is a :class:`ConfigError`
    naming its key: one holding ``#`` (a comment) or a line break, or one
    with leading or trailing whitespace (stripped on parsing).
    """
    lines = []
    for key, (_, emit, _, _) in _KEYS.items():
        value = getattr(cfg, key)
        if value is None:
            continue
        text = emit(value)
        if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
            raise ConfigError(f"{key}: {text!r} cannot be written to a config file")
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def _grid(spec: tuple[float, float, int]) -> list[float]:
    start, stop, steps = spec
    width = (stop - start) / (steps - 1)
    return [start + i * width for i in range(steps)]


def _scan(cfg: ScanConfig):
    # a scan's parameter objects, each built once: a bath per beta_omega, and
    # a detector per speed that every beta_omega shares
    baths = [(bw, BathParams(beta=bw / cfg.omega)) for bw in cfg.beta_omega]
    dets = [
        DetectorParams(cfg.omega, cfg.coupling_strength, v, cfg.coupling, cfg.v_max)
        for v in cfg.velocity
    ]
    return baths, dets


def _run_concurrence(cfg: ScanConfig):
    grid = _grid(cfg.tau)
    baths, dets = _scan(cfg)
    # the rate unit depends on neither beta_omega nor v: one check, before any block
    unit = rate_unit(dets[0])
    if not cfg.tau[1] / unit < math.inf:
        raise ConfigError(f"tau: stop {cfg.tau[1]!r} over the rate unit {unit!r} overflows")
    taus = [t / unit for t in grid]
    for (bw, bath), det in product(baths, dets):
        coeffs = lindblad_coefficients(det, bath)
        columns = [concurrence_closed_form(coeffs, taus)]
        if cfg.oracle:
            columns.append(list(_wootters(coeffs, taus)))
        yield (bw, det.velocity), grid, columns


def _wootters(coeffs: LindbladCoefficients, taus: list[float]):
    # Wootters concurrence of the evolved pair along the grid: one stacked
    # state and one batched eigensolve per slice of _ORACLE_SLICE points
    for lo in range(0, len(taus), _ORACLE_SLICE):
        tau = np.array(taus[lo : lo + _ORACLE_SLICE])
        yield from concurrence(shared_state(coeffs, tau)).tolist()


def _run_coeffs(cfg: ScanConfig):
    baths, dets = _scan(cfg)
    # the occupations and rates read no coupling, so one detector per speed
    # serves both; the rate columns depend on v alone, so every block shares
    # them, and the rate units on neither beta_omega nor v
    rates = []
    for coupling, gamma in ((Coupling.UDW, gamma_udw), (Coupling.DERIVATIVE, gamma_td)):
        unit = rate_unit(DetectorParams(cfg.omega, cfg.coupling_strength, 0.0, coupling, cfg.v_max))
        rates.append([gamma(det) / unit for det in dets])
    for bw, bath in baths:
        columns = [[n(det, bath) for det in dets] for n in (n_udw, n_td)] + rates
        if cfg.oracle:
            # both window oracles over the whole block: a failure names the
            # first bad speed in row order
            columns += _window_occupations(_beta_omega(bath, cfg.omega), cfg.velocity)
        yield (bw,), cfg.velocity, columns


def _run_death_time(cfg: ScanConfig):
    baths, dets = _scan(cfg)
    unit = rate_unit(dets[0])
    times = (sudden_death_time, sudden_death_time_bisection)[: 2 if cfg.oracle else 1]
    for bw, bath in baths:
        coeffs = (lindblad_coefficients(det, bath) for det in dets)  # speed by speed, as for coeffs
        yield (bw,), cfg.velocity, list(zip(*[[t(c) * unit for t in times] for c in coeffs]))


def _run_wightman(cfg: ScanConfig):
    if cfg.coupling is Coupling.UDW:
        closed, oracle = wightman_moving, wightman_moving_quadrature
    else:
        closed, oracle = wightman_derivative, wightman_derivative_fd
    grid = _grid(cfg.tau)
    baths, dets = _scan(cfg)
    for (bw, bath), det in product(baths, dets):
        checks = [oracle(grid, det, bath, cfg.epsilon)] if cfg.oracle else []
        ws = closed(grid, det, bath, cfg.epsilon)
        _finite(bw, det.velocity, grid, ws, *checks)
        # + 0.0: no -0 at the pole
        columns = [[w.real for w in ws], [w.imag + 0.0 for w in ws]]
        for column in checks:
            columns += [[o.real for o in column], [o.imag for o in column]]
        yield (bw, det.velocity), grid, columns


def _finite(bw: float, v: float, grid: list[float], *columns: list[complex]) -> None:
    # a non-finite W is a numerical failure (exit 3), never a printed row; the
    # error names the first, row by row and the closed form's first in a row
    if not all(all(map(cmath.isfinite, column)) for column in columns):
        bad = ((s, w) for s, *row in zip(grid, *columns) for w in row if not cmath.isfinite(w))
        s, w = next(bad)
        raise ArithmeticError(f"W = {w!r} is not finite at beta_omega={bw!r}, v={v!r}, s={s!r}")


# one block of output: its prefix values, its axis (the scan's tau or s grid,
# or its speeds; one object shared by every block of a scan) and one list of
# values per remaining column, one value per axis point
_Block = tuple[tuple[float, ...], Sequence[float], Sequence]


class _Command(NamedTuple):
    help: str
    run: Callable[[ScanConfig], Iterator[_Block]]
    cols: tuple[str, ...]
    oracle_cols: tuple[str, ...]  # appended by --oracle
    defaults: dict = {}  # ScanConfig values that replace the built-in defaults (read only)


# subcommand -> how it scans and what it prints
_COMMANDS = {
    "concurrence": _Command(
        "entanglement of the evolved pair on a time grid",
        _run_concurrence,
        ("beta_omega", "velocity", "tau_gamma0", "concurrence"),
        ("concurrence_wootters",),
        {"both_couplings": False},  # the scan meets only coupling's rates
    ),
    "coeffs": _Command(
        "occupation numbers and rates over the scan grid",
        _run_coeffs,
        ("beta_omega", "velocity", "n_udw", "n_td", "gamma_udw_ratio", "gamma_td_ratio"),
        ("n_udw_quadrature", "n_td_quadrature"),
    ),
    "death-time": _Command(
        "disentanglement times over the scan grid",
        _run_death_time,
        ("beta_omega", "velocity", "death_time_gamma0"),
        ("death_time_bisection",),
        {"both_couplings": False},
    ),
    "wightman": _Command(
        "field correlation profiles along the worldline",
        _run_wightman,
        ("beta_omega", "velocity", "s", "re_w", "im_w"),
        ("re_w_oracle", "im_w_oracle"),
        # a separation axis, so the grid must not start at the pole
        {"tau": (0.1, 3.0, 30)},
    ),
}


# the text json writes for the non-finite values: inf as a string, nan as NaN
_JSON_NON_FINITE = {"inf": '"inf"', "-inf": '"-inf"', "nan": "NaN"}
# the {:.12} texts render_json rewrites, anchored on a key's closing '": ' and
# the line end so that only values match; e-308 also takes a few normals, which
# come back unchanged
_JSON_REPR_DIFFERS = r'": (-?[\d.]+e(?:\+1[1-5]|-30[89]|-3[12]\d)|-?inf|nan)(?=,?\n)'


def render_csv(cols: tuple[str, ...], blocks: Iterable[_Block]) -> list[str]:
    """The header line, then one line of ``%.11e`` values per row.

    Returns the text as pieces: the header, then one per block.  A block
    is one ``%`` of its row template, repeated per row, over the axis
    text and the value columns; its prefix is already in the template.
    """
    pieces = [",".join(cols) + "\n"]
    for fields, n, values in _layout(blocks, ".11e", "%s", "%.11e"):
        pieces.append((",".join(fields) + "\n") * n % tuple(values))
    return pieces


def render_json(cols: tuple[str, ...], blocks: Iterable[_Block]) -> list[str]:
    """The text of ``json.dumps(table, indent=2)`` for one object per row.

    Returns the text as pieces: one per block, then one that closes the
    list.  Each float is the shortest ``repr`` of its 12-significant-digit
    value; inf and -inf are the strings ``"inf"`` and ``"-inf"``, nan is
    ``NaN``.  ``cols`` are distinct, every row holds one float per column,
    and every axis holds at least one point.

    A piece is one ``str.format`` of one object template per row, each
    value written once as ``{:.12}``.  For a normal double that text is
    already the ``repr``: no other decimal of 12 digits or fewer rounds
    to the same double.  The two differ only for exponents +11 to +15
    (``.12`` turns to exponent form there, ``repr`` at +16), subnormals
    (fewer digits round-trip) and inf/nan.  One ``re.sub`` rewrites
    those, in the pre-rendered prefix and axis text as well, but runs
    only on a piece whose block holds a value outside the tame range: a
    block whose every value is 0, or finite with 1e-300 < |x| < 1e10,
    is left as formatted.
    """
    keys = [json.dumps(c).replace("{", "{{").replace("}", "}}") for c in cols]
    pieces = []
    for fields, n, values, tame in _layout(blocks, ".12", "{}", "{:.12}", _tame):
        row = "  {{\n" + ",\n".join([f"    {k}: {f}" for k, f in zip(keys, fields)]) + "\n  }}"
        text = ",\n".join([row] * n).format(*values)
        if not tame:
            # a string pattern: re's cache compiles it on the first call, not at import
            text = re.sub(_JSON_REPR_DIFFERS, _json_repr, text)
        pieces.append((",\n" if pieces else "[\n") + text)
    pieces.append("\n]\n" if pieces else "[]\n")
    return pieces


def _layout(
    blocks: Iterable[_Block],
    spec: str,
    slot: str,
    value: str,
    test: Callable[[Sequence[float]], bool] | None = None,
):
    # each block as the format fields of its rows, its row count and the
    # values that fill them: the prefix rendered into the fields with spec,
    # the axis rendered with spec once per scan and filled in at slot; given
    # a test of a list of numbers, each block also with whether its prefix,
    # its axis (tested once per scan) and each of its columns pass it
    shared = axis_text = None
    for prefix, axis, columns in blocks:
        if axis is not shared:
            shared, axis_text = axis, [format(s, spec) for s in axis]
            axis_passes = test and test(axis)
        fields = [format(x, spec) for x in prefix] + [slot] + [value] * len(columns)
        laid = fields, len(axis), chain.from_iterable(zip(axis_text, *columns))
        if test is None:
            yield laid
        else:
            yield *laid, axis_passes and test(prefix) and all(map(test, columns))


def _tame(xs: Sequence[float]) -> bool:
    # whether every x is 0 or finite with 1e-300 < |x| < 1e10, a range where
    # {:.12} writes x as repr does, with a margin on either side; a nan or
    # an inf leaves the sum of the magnitudes not below inf
    mags = list(map(abs, xs))
    tiniest = min(filter(None, mags), default=1.0)  # zeros are tame
    return sum(mags) < math.inf and max(mags, default=0.0) < 1e10 and tiniest > 1e-300


def _json_repr(match: re.Match) -> str:
    text = repr(float(match[1]))
    return '": ' + _JSON_NON_FINITE.get(text, text)


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atombath",
        description="Thermal relaxation and entanglement loss of a moving atom.",
        epilog="commands:\n" + "".join(f"  {n:<13}{c.help}\n" for n, c in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to scan (see below)")
    # defaults stay None: only flags the user passed override the config file
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    for key, (_, _, metavar, help_text) in _KEYS.items():
        kind = {"metavar": metavar} if metavar else {"action": "store_const", "const": "true"}
        parser.add_argument("--" + key.replace("_", "-"), help=help_text, **kind)
    return parser


def _config_from_args(args: argparse.Namespace) -> ScanConfig:
    values = dict(_COMMANDS[args.command].defaults)
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        values.update(_parse_config_values(text))
    for key, (parse, _, _, _) in _KEYS.items():
        raw = getattr(args, key)
        if raw is not None:
            values[key] = parse(key, raw)
    return ScanConfig(**values)


def _numerical_failures() -> tuple[type[Exception], ...]:
    # what exits 3: PoleProximityWarning counts where warnings are errors, and
    # numpy's LinAlgError is looked up, not imported: only a loaded numpy raises one
    numpy = sys.modules.get("numpy")
    linalg = () if numpy is None else (numpy.linalg.LinAlgError,)
    return (QuadratureError, ArithmeticError, PoleProximityWarning) + linalg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        command = _COMMANDS[args.command]
        cols = command.cols + (command.oracle_cols if cfg.oracle else ())
        render = render_csv if cfg.format == "csv" else render_json
        # every block is rendered before any is written: a failure while
        # computing one (exit 2 or 3) must leave stdout empty
        pieces = render(cols, command.run(cfg))
        if cfg.output is None:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except OSError as exc:
                # a reader that closed the pipe (`| head`): as in the Python
                # docs' note on SIGPIPE, stdout then points at os.devnull, so
                # the exit-time flush of what is still buffered cannot fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise ConfigError(f"cannot write output: {exc}") from None
        else:
            try:
                with open(cfg.output, "w") as out:
                    out.writelines(pieces)
            except OSError as exc:
                raise ConfigError(f"cannot write output file {cfg.output}: {exc}") from None
    # LinAlgError subclasses ValueError, so this clause must come first
    except _numerical_failures() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # ConfigError, and the parameter checks of the library's own types
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
