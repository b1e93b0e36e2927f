"""Property test of the command line over random settings.

Every subcommand, given random settings from the settings table, exits 0 or
with its documented error code, never 3 (an internal error).  Every number it
prints and every JSON or CSV artifact it writes is finite: JSON is read with
no NaN or Infinity constant.  Tier-1 turns warnings into errors, so an
overflow that only warns exits 3 here.  Sizes stay small: built-in patterns,
at most 3 trials, 301 sweep points and a half-width of 14.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flexdog.cli import EXIT_CONFIG, EXIT_OK, SETTINGS, main
from flexdog.imageio import PATTERN_NAMES
from test_pipeline_properties import positive

CLI_SETTINGS = settings(max_examples=120, derandomize=True, database=None, deadline=None)
INTS = {
    "half_width": st.integers(0, 14),
    "bits": st.integers(0, 60),
    "parallelism": st.integers(-1, 8),
    "seed": st.one_of(st.integers(-3, 1000), st.integers(-2**63, 2**64)),
}
NOT_DRAWN = ("input", "index", "calibrate", "out_dir")  # files and paths
# the smallest float, one whose square is subnormal, one whose square is near
# the largest float, and one near the largest float
EDGES = st.sampled_from([5e-324, 1e-160, 1e154, 1e308])


def number(draw, nominal, sign=1.0):
    """Mostly within three decades of ``nominal``; else anywhere in
    1e-320..1e308, one of EDGES, or a non-finite or nonpositive value; times
    ``sign``."""
    if draw(st.integers(0, 9)) == 0:
        return repr(sign * draw(EDGES))
    nominal_exp = math.floor(math.log10(nominal)) if nominal else -2
    return repr(sign * positive(draw, nominal_exp, -320, 308))


def option(draw, setting):
    name = "--" + setting.name.replace("_", "-")
    if setting.kind is bool:
        return name
    if isinstance(setting.kind, tuple):
        value = draw(st.sampled_from(setting.kind))
    elif setting.kind is int:
        value = draw(INTS[setting.name])
    else:
        value = number(draw, setting.default)
    return f"{name}={value}"


@st.composite
def command_line(draw):
    command = draw(st.sampled_from(["run", "montecarlo", "deviation", "perf"]))
    if command == "perf":
        argv = [command, *(str(draw(st.integers(-1, 5000))) for _ in range(2))]
    else:
        argv = [command, f"--input=pattern:{draw(st.sampled_from(PATTERN_NAMES))}"]
    argv += [option(draw, s) for s in SETTINGS.values()
             if s.name not in NOT_DRAWN and draw(st.integers(0, 3)) == 0]
    if command == "montecarlo":
        argv.append(f"--trials={draw(st.integers(0, 3))}")
        if draw(st.booleans()):
            levels = (number(draw, 0.05) for _ in range(draw(st.integers(1, 3))))
            argv.append(f"--levels={','.join(levels)}")
        argv.append(f"--sweep-param={draw(st.sampled_from(['gamma', 'gain', 'sensor']))}")
    elif command == "deviation":
        lo, hi = (number(draw, 1.3, draw(st.sampled_from([1.0, -1.0]))) for _ in range(2))
        argv += [f"--sweep-lo={lo}", f"--sweep-hi={hi}", f"--points={draw(st.integers(0, 301))}",
                 f"--reference={draw(st.sampled_from(['fitted-gaussian', 'eq4-gaussian']))}"]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli"))


def _no_constant(name):
    raise ValueError(f"JSON constant {name}")


def assert_finite(value, where):
    try:
        number = float(value)
    except ValueError:
        return
    assert math.isfinite(number), f"{value} in {where}"


def assert_finite_outputs(out_dir, stdout):
    """Every number on stdout and in the JSON and CSV artifacts is finite."""
    for token in stdout.split():
        assert_finite(token.rstrip(",:"), "stdout")
    for path in Path(out_dir).glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
    for path in Path(out_dir).glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.reader(f):
                for cell in row:
                    assert_finite(cell, path.name)


@CLI_SETTINGS
@given(command_line())
def test_every_command_line_exits_0_or_2(out_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(dir=out_dir) as run_dir:  # this run's artifacts only
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--out-dir", run_dir])
        assert code in (EXIT_OK, EXIT_CONFIG), err.getvalue()
        assert_finite_outputs(run_dir, out.getvalue())
