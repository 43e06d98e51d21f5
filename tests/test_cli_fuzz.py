"""Fuzz gate for the CLI: every input either succeeds with finite output that
fits its schema or fails with one `error:` line.

Hypothesis draws a command with states, modifiers and numeric flags that
include +-inf, nan, +-0, 1e+-308 and integers far beyond int64, and calls
main in-process. It asserts that the exit code is 0, 2 or 3; that an error
prints exactly one `error: ` line and nothing on stdout; and that stdout is
strict JSON (no NaN or Infinity), CSV whose every cell is a finite number, or
text without a non-finite value. An exception escaping main, which would be
a traceback from the installed script, fails the test, and so does any NumPy
RuntimeWarning, which pyproject.toml turns into an error.

Size flags stay small (--steps <= 50, --resolution <= 20, --samples <= 50)
or exceed cli.MAX_ROWS, which is refused before anything is allocated.
"""
import contextlib
import io
import json
import math
import re
import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from ctxscope import cli
from ctxscope.contexts import INTERIOR_LABELS
from ctxscope.reference import NAMED_STATES

HUGE_INTS = [str(2 ** 63), str(2 ** 64), "9" * 30, "-" + "9" * 30]
EDGE_NUMBERS = ["inf", "-inf", "nan", "0", "-0", "0.0", "-0.0", "1e308", "-1e308", "1e-308", "-1e-308",
                "5e-324", "1e309", "1e-11", "1", *HUGE_INTS]
NUMBERS = st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats().map(repr), st.integers(-10, 10 ** 6).map(str))


def floats(low: float, high: float) -> st.SearchStrategy[str]:
    return st.floats(low, high).map(repr)


def size(limit: int) -> st.SearchStrategy[str]:
    """A size flag: small, non-positive, malformed, or beyond cli.MAX_ROWS."""
    return st.one_of(st.integers(1, limit).map(str),
                     st.sampled_from(["0", "-1", "1e3", "nan", "", str(cli.MAX_ROWS + 1), *HUGE_INTS]))


def value(valid: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Mostly a valid value, else any number or edge case, so that most draws get past validation."""
    return st.one_of(valid, valid, NUMBERS)


def flag(name: str, valid: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    """--name=value, or nothing; the = form lets a negative value through argparse."""
    return st.one_of(st.just([]), value(valid).map(lambda v: [f"{name}={v}"]))


def joined(*parts: st.SearchStrategy[list[str]]) -> st.SearchStrategy[list[str]]:
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1).map(str), st.sampled_from(["-1", str(2 ** 64), "1e3", "nan"]))
LABELS = st.one_of(st.sampled_from(INTERIOR_LABELS), st.sampled_from(INTERIOR_LABELS),
                   st.sampled_from(["1", "x", ""]))
STATE = st.one_of(
    st.sampled_from(sorted(NAMED_STATES)),
    st.sampled_from([" nf ", "V0 ", "BASIS2", "nope", "", "1,0,0"]),
    st.lists(value(floats(-1.0, 1.0)), min_size=6, max_size=6).map(",".join),
    st.lists(st.sampled_from(["0", "-0", "5e-324", "1e308", "1"]), min_size=6, max_size=6).map(",".join),
).map(lambda s: [f"--state={s}"])
MODIFIERS = st.lists(st.one_of(
    LABELS.map(lambda label: ["--block", label]),
    st.tuples(LABELS, value(floats(-10.0, 10.0))).map(lambda p: [f"--phase={p[0]}:{p[1]}"]),
    st.tuples(LABELS, value(floats(0.0, 1.0))).map(lambda p: [f"--attenuate={p[0]}:{p[1]}"]),
), max_size=3).map(lambda mods: [arg for mod in mods for arg in mod])
RATE = flag("--rate", floats(1.0, 1e4))
DURATION = flag("--duration", floats(1e-2, 1e2))
SEED = flag("--seed", SEEDS)


def fmt(*choices: str) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), st.sampled_from([*choices, "xml"]).map(lambda f: [f"--format={f}"]))


COMMANDS = st.one_of(
    joined(st.just(["run"]), STATE, MODIFIERS, fmt("json", "csv")),
    joined(st.just(["witness"]), STATE, fmt("json", "text")),
    *(joined(st.just([command]), STATE, flag("--target", LABELS), flag("--from", floats(0.0, 6.28)),
             flag("--to", floats(0.0, 6.28)), flag("--steps", size(50)),
             flag("--visibility", floats(0.0, 1.0)), RATE, DURATION, SEED)
      for command in ("phase-scan", "trans-scan")),
    joined(st.just(["sweep"]), flag("--resolution", size(20)), SEED),
    joined(st.just(["sweep", "--complex"]), flag("--samples", size(50)), SEED),
    joined(st.just(["sample"]), STATE, MODIFIERS, RATE, DURATION, flag("--setting", floats(-10.0, 10.0)),
           SEED, fmt("json", "csv")),
)


@st.composite
def counts_csv(draw) -> str:
    """A counts CSV for fit: well formed, or with edge values in any cell."""
    header = draw(st.sampled_from([cli.COUNTS_CSV_HEADER] * 4 + ["setting,n1,n2,n3", ""]))
    if draw(st.booleans()):
        duration = draw(floats(1e-2, 1e2))
        setting, cell = floats(-10.0, 10.0), st.integers(0, 10 ** 6).map(str)
        last = st.just(duration)
    else:
        setting = cell = last = NUMBERS
    rows = draw(st.lists(st.tuples(setting, cell, cell, cell, last), max_size=12))
    return "".join(line + "\n" for line in [header, *map(",".join, rows)])


def _reject(token: str) -> float:
    raise AssertionError(f"non-finite JSON constant {token}")


def _finite(text: str) -> float:
    value = float(text)
    assert math.isfinite(value), text
    return value


def assert_schema(argv: list[str], out: str) -> None:
    """Stdout of a successful call: strict JSON, finite CSV, or finite text."""
    command = argv[0]
    fmt = next((arg.split("=", 1)[1] for arg in argv if arg.startswith("--format=")), "json")
    assert out.endswith("\n")
    if command in ("phase-scan", "trans-scan", "sweep") or fmt == "csv":
        header, *rows = out[:-1].split("\n")
        if command == "sweep":
            trailer = rows.pop()
            assert trailer.startswith("# max_witness=")
            for field in trailer[2:].split(" "):
                _finite(field.split("=", 1)[1])
        width = len(header.split(","))
        assert rows
        for row in rows:
            cells = row.split(",")
            assert len(cells) == width, row
            for cell in cells:
                _finite(cell)
    elif fmt == "text":
        # the first line echoes --state as given
        assert not re.search(r"nan|inf", out.split("\n", 1)[1], re.IGNORECASE), out
    else:
        json.loads(out, parse_constant=_reject, parse_float=_finite)


def call(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_outcome(argv: list[str], code: int, out: str, err: str) -> None:
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == ""
        assert_schema(argv, out)
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(COMMANDS)
def test_every_command_gives_schema_output_or_one_error_line(argv):
    assert_outcome(argv, *call(argv))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(counts_csv(), st.sampled_from(["Nf", "Bf", "V0", "V1"]))
def test_fit_gives_schema_output_or_one_error_line(text, model):
    argv = ["fit", "--input", "-", f"--model={model}"]
    assert_outcome(argv, *call(argv, text))
