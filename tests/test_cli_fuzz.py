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

`fit` also runs every counts CSV through csv_module_reader, the reader it
had before one array pass replaced it, and must give the same exit code,
stdout and stderr.
"""
import contextlib
import csv
import io
import json
import math
import re
import sys
from unittest import mock

import pytest
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
             flag("--to", floats(0.0, 6.28)), flag("--steps", size(50)), visibility, RATE, DURATION, SEED)
      for command, visibility in (("phase-scan", flag("--visibility", floats(0.0, 1.0))), ("trans-scan", st.just([])))),
    joined(st.just(["sweep"]), flag("--resolution", size(20)), SEED),
    joined(st.just(["sweep", "--complex"]), flag("--samples", size(50)), SEED),
    joined(st.just(["sample"]), STATE, MODIFIERS, RATE, DURATION, flag("--setting", floats(-10.0, 10.0)),
           SEED, fmt("json", "csv")),
)


@st.composite
def counts_csv(draw) -> str:
    """A counts CSV for fit: mostly the header, then at least three rows of one
    duration, with up to three cells replaced by any number, an edge case, a
    negative, a zero or a non-number, so that most draws reach the row rules."""
    header = draw(st.sampled_from([cli.COUNTS_CSV_HEADER] * 8 + ["setting,n1,n2,n3", ""]))
    duration = draw(floats(1e-2, 1e2))
    cell = st.integers(0, 10 ** 6).map(str)
    rows = draw(st.lists(st.tuples(floats(-10.0, 10.0), cell, cell, cell, st.just(duration)).map(list),
                         min_size=3, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 4))] = draw(st.one_of(NUMBERS, st.sampled_from(["-1", "0", "x", ""])))
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
        # the first line echoes the state's label
        assert not re.search(r"nan|inf", out.split("\n", 1)[1], re.IGNORECASE), out
    else:
        json.loads(out, parse_constant=_reject, parse_float=_finite)


def call(argv: list[str], stdin: str | bytes = "") -> tuple[int, str, str]:
    """main(argv) in-process. Text stdin is an io.StringIO; bytes sit under a
    strict UTF-8 text layer that splits lines at LF, as sys.stdin's does."""
    out, err = io.StringIO(), io.StringIO()
    stream = io.StringIO(stdin) if isinstance(stdin, str) else \
        io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", newline="\n")
    with mock.patch.object(sys, "stdin", stream), \
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


# fit's model: a named state in any spelling or not, a basis state, or six parts as STATE draws them
MODELS = st.one_of(st.sampled_from(["Nf", "Bf", "V0", "V1", " nf ", "V0 ", "NF"]),
                   st.sampled_from(["basis1", "basis2", "basis3", "BASIS2"]),
                   st.lists(value(floats(-1.0, 1.0)), min_size=6, max_size=6).map(",".join))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(counts_csv(), MODELS)
def test_fit_gives_schema_output_or_one_error_line(text, model):
    argv = ["fit", "--input", "-", f"--model={model}"]
    code, out, err = call(argv, text)
    assert_outcome(argv, code, out, err)
    if code == 0:
        # a named state is echoed by its NAMED_STATES key, six amplitude parts as given
        fitted = json.loads(out)["model"]
        if fitted in NAMED_STATES:
            assert fitted.casefold() == model.strip().casefold(), (model, fitted)
        else:
            assert fitted == model and model.count(",") == 5, (model, fitted)


def csv_module_reader(path: str) -> tuple[list[float], list[list[float]]]:
    """The counts reader `fit` had before one array pass replaced it: the csv
    module over the whole text, then float() cell by cell. Kept as the
    reference that the array pass must agree with; like `fit` since, it quotes
    a broken row's cells up to 80 characters and then "..."."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or [cell.strip() for cell in rows[0][1]] != cli.COUNTS_CSV_HEADER.split(","):
        raise ValueError(f"input must start with header {cli.COUNTS_CSV_HEADER!r}")
    settings, counts, duration = [], [], None
    for lineno, row in rows[1:]:
        if len(row) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(row)}")
        quoted = str(row) if len(str(row)) <= 80 else str(row)[:80] + "..."
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field in {quoted}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"line {lineno}: non-finite field in {quoted}")
        if any(v < 0 for v in values[1:4]):
            raise ValueError(f"line {lineno}: counts must be non-negative")
        if not values[4] > 0:
            raise ValueError(f"line {lineno}: duration must be positive")
        if duration is not None and values[4] != duration:
            raise ValueError(f"line {lineno}: duration {values[4]:g} differs from the first row's {duration:g}")
        settings.append(values[0])
        counts.append(values[1:4])
        duration = values[4]
    if not settings:
        raise ValueError("input has no data rows")
    return settings, counts


# Left out of the differential CSVs: the quote, which only the csv module
# honours; the line breaks that only str.splitlines knows; and NUL, which the
# csv module of Python 3.10 refuses. Surrogates cannot be written as UTF-8.
NOT_COMPARED = '"\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
ODD_CELLS = ["", " ", "\t", " 7 ", "\u3000 8", "1_000", "\u0661\u0662", "\u0663.\u0665", "\uff17", "+nan", "infinity",
             "-Infinity", "9" * 30, "1e309", "0x10", "two", "1e", "--1"]
CELLS = st.one_of(NUMBERS, st.integers(0, 10 ** 6).map(str), st.sampled_from(ODD_CELLS),
                  st.text(st.characters(exclude_characters=NOT_COMPARED + "\n\r", exclude_categories=("Cs",)),
                          max_size=6))


def _replace_cell(row: list[str], index: int, cell: str) -> str:
    return ",".join(row[:index] + [cell] + row[index + 1:])


@st.composite
def ragged_csv(draw) -> str:
    """Five-cell rows of one duration, with up to three lines inserted that are
    blank, whitespace-only, ragged, or a row with one cell replaced; each line
    ends with LF, CRLF or CR."""
    duration = draw(st.sampled_from(["1.0", "100.000000000", "2", " 5 "]))
    good = st.tuples(floats(-10.0, 10.0), *[st.integers(0, 10 ** 6).map(str)] * 3, st.just(duration)).map(list)
    defect = st.one_of(
        st.sampled_from(["", " ", "\t", " \t "]),
        st.lists(CELLS, min_size=1, max_size=7).map(",".join),
        st.builds(_replace_cell, good, st.integers(0, 4), CELLS),
        st.builds(_replace_cell, good, st.sampled_from([1, 2, 3]), st.sampled_from(["-1", "-0.5", "-0", "inf"])),
        st.builds(_replace_cell, good, st.just(4), st.sampled_from(["0", "-1", "0.5", "7", "1e-300", "nan"])),
    )
    lines = [",".join(row) for row in draw(st.lists(good, max_size=12))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(defect))
    header = draw(st.sampled_from([cli.COUNTS_CSV_HEADER] * 8 + [" setting , n1,n2 ,n3,duration\t", "setting,n1,n2",
                                                                  "setting,n1,n2,n3,duration,"]))
    text = "".join(line + draw(LINE_ENDS) for line in [header, *lines])
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


# the fuzz gate's counts CSVs, one in four, with their line ends varied
FIT_CSVS = st.one_of(*[ragged_csv()] * 3,
                     counts_csv().flatmap(lambda text: LINE_ENDS.map(lambda end: text.replace("\n", end))))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fit") / "counts.csv"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(FIT_CSVS, st.sampled_from(["Nf", "Bf", "V0"]))
def test_fit_reads_every_csv_as_the_csv_module_reader_did(csv_path, text, model):
    csv_path.write_bytes(text.encode("utf-8"))
    argv = ["fit", "--input", str(csv_path), f"--model={model}"]
    with mock.patch.object(cli, "_read_counts_csv", lambda path: [csv_module_reader(path)]):
        expected = call(argv)
    assert call(argv) == expected
    # io.StringIO is read without newline translation; CR and CRLF still end lines
    assert call(["fit", "--input", "-", f"--model={model}"], text) == expected


def fit_at_block_sizes(argv: list[str], text: str | bytes) -> list[tuple[int, str, str]]:
    """fit's result with the reader's blocks at 65,536 lines (as shipped), then at 3 and at 2."""
    results = [call(argv, text)]
    for rows in (3, 2):
        with mock.patch.object(cli, "CSV_BLOCK_ROWS", rows):
            results.append(call(argv, text))
    return results


def outcome(result: tuple[int, str, str]) -> tuple:
    """Exit code and error line, and for a fit its model and setting count: all
    that the block size may not change. The fitted numbers move in their last
    bits, as R is folded in other slices."""
    code, out, err = result
    return code, err, *((json.loads(out)["model"], json.loads(out)["settings"]) if code == 0 else ())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(FIT_CSVS, st.sampled_from(["Nf", "Bf", "V0"]))
def test_fit_does_not_depend_on_the_reader_block_size(csv_path, text, model):
    csv_path.write_bytes(text.encode("utf-8"))
    for argv, stdin in ((["fit", "--input", str(csv_path), f"--model={model}"], ""),
                        (["fit", "--input", "-", f"--model={model}"], text)):
        whole, *small = map(outcome, fit_at_block_sizes(argv, stdin))
        assert small == [whole, whole], (text, whole, small)


HEADER = cli.COUNTS_CSV_HEADER + "\n"
ROWS = [f"{k},{10 + k},20,{30 + k},1\n" for k in range(8)]


@pytest.mark.parametrize("lines, err", [
    # at 3 lines a block, line 4 opens the second block; at 2, line 5 opens the third
    ([HEADER, *ROWS[:2], "2,1,x,3,1\n", *ROWS[2:]], "line 4: non-numeric field in ['2', '1', 'x', '3', '1']"),
    ([HEADER, *ROWS[:3], "3,1,x,3,1\n", *ROWS[3:]], "line 5: non-numeric field in ['3', '1', 'x', '3', '1']"),
    ([HEADER, ROWS[0], "1,1,2,3\n", *ROWS], "line 3: expected 5 fields, got 4"),
    ([HEADER, *ROWS, "9,1,2,3,1\n", "9,1,2,3,2\n"], "line 11: duration 2 differs from the first row's 1"),
    ([HEADER, *ROWS[:2], "5,1,2,3,7\n"], "line 4: duration 7 differs from the first row's 1"),
    ([HEADER, "\n", "\n", "\n", *ROWS, "\n", "\n", "7,1,2,-3,1\n"], "line 15: counts must be non-negative"),
    ([HEADER], "input has no data rows"),
    (["\n"] * 4 + [HEADER, "\n", "\n"], "input has no data rows"),
    (["\n"] * 5, "input must start with header 'setting,n1,n2,n3,duration'"),
    ([], "input must start with header 'setting,n1,n2,n3,duration'"),
    (["\n"] * 4 + ["setting,n1\n", *ROWS], "input must start with header 'setting,n1,n2,n3,duration'"),
], ids=["error opens the second block", "error opens the third block", "error in the header's block",
        "duration in a later block", "duration opens the second block", "blank lines around a boundary",
        "header only", "blank lines and header", "blank lines only", "empty", "header in a later block"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_reader_errors_name_the_same_line_at_every_block_size(csv_path, lines, err, end):
    text = "".join(lines).replace("\n", end)
    csv_path.write_bytes(text.encode("utf-8"))
    for argv, stdin in ((["fit", "--input", str(csv_path), "--model", "Nf"], ""),
                        (["fit", "--input", "-", "--model", "Nf"], text)):
        assert fit_at_block_sizes(argv, stdin) == [(2, "", f"error: {err}\n")] * 3


BYTE_ROWS = [row.encode() for row in ROWS]


@pytest.mark.parametrize("lines, err", [
    ([HEADER.encode(), *BYTE_ROWS, b"\xff"], "line 10: byte 0xff is not UTF-8"),
    ([HEADER.encode(), *BYTE_ROWS[:2], b"2,12,20,32,1\xff\n", *BYTE_ROWS[3:]], "line 4: byte 0xff is not UTF-8"),
    ([b"\xff\xfe" + HEADER.encode(), *BYTE_ROWS], "line 1: byte 0xff is not UTF-8"),
    ([HEADER.encode(), b"\n", b"\n", *BYTE_ROWS[:3], b"3,1,\xe2\x82,3,1\n"], "line 7: byte 0xe2 is not UTF-8"),
    ([HEADER.encode(), BYTE_ROWS[0], b"1,1,2,3\n", b"2,1,2,3,1\xff\n"], "line 3: expected 5 fields, got 4"),
    ([HEADER.encode(), BYTE_ROWS[0], b"1,1,2,3,1\xff\n", b"2,1,2,3\n"], "line 3: byte 0xff is not UTF-8"),
], ids=["0xff as a last line", "0xff ending a row", "UTF-16 byte order mark", "cut multi-byte sequence",
        "an earlier broken row first", "before a broken row"])
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_a_byte_that_is_not_utf8_names_its_line_at_every_block_size(csv_path, lines, err, end):
    # stdin is read as UTF-8 like a file, even where its text layer decodes strictly
    data = b"".join(lines).replace(b"\n", end)
    csv_path.write_bytes(data)
    for argv, stdin in ((["fit", "--input", str(csv_path), "--model", "Nf"], ""),
                        (["fit", "--input", "-", "--model", "Nf"], data)):
        assert fit_at_block_sizes(argv, stdin) == [(2, "", f"error: {err}\n")] * 3


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_blank_lines_at_block_boundaries_leave_the_fit_as_it_is(csv_path, end):
    text = "".join([HEADER, "\n", *ROWS[:3], "\n", "\n", *ROWS[3:], "\n"]).replace("\n", end)
    csv_path.write_bytes(text.encode("utf-8"))
    for argv, stdin in ((["fit", "--input", str(csv_path), "--model", "Nf"], ""),
                        (["fit", "--input", "-", "--model", "Nf"], text)):
        (code, out, err), *small = fit_at_block_sizes(argv, stdin)
        assert (code, err, json.loads(out)["settings"]) == (0, "", 8)
        for ports in (json.loads(other[1])["ports"] for other in small):
            for port, expected in zip(ports, json.loads(out)["ports"]):
                assert port == pytest.approx(expected, rel=1e-13, abs=1e-15)
