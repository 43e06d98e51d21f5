"""Command-line surface for the interferometer simulator.

Subcommands: check, run, witness, phase-scan, trans-scan, sweep, sample,
fit, reproduce. Exit codes: 0 success, 1 failed self-check, 2 usage or
input-schema error, 3 numerical degeneracy while fitting. A reader that
closes the pipe early ends the installed script by SIGPIPE, as it ends `cat`.

Each command checks its arguments, then returns its exit status and its
output as byte chunks, produced as they are written so that tables stream;
`main` writes them to --out and turns every refusal, a broken stream
included, into an exit code and one `error:` line where stderr can take it.
A table whose first block is full (CSV_BLOCK_ROWS rows) has its CSV
formatted on one worker thread, one block at a time, while the calling
thread computes the next block; a shorter table is formatted on the calling
thread, with no thread started.

Outputs are deterministic for fixed flags: CSV uses the fixed
headers below with nine-decimal floats and LF line endings, JSON uses
alphabetically ordered keys.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import io
import itertools
import math
import os
import re
import signal
import stat
import sys
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import interferometer, stats
from .core import haar_state_blocks, normalize, real_grid_blocks
from .interferometer import build_network, evaluate_states, run
from .reference import FRINGE_MODELS, MEASURED, NAMED_STATES
from .selfcheck import run_all_checks

IDEAL_CSV_HEADER = "setting,p1,p2,p3,survival"
COUNTS_CSV_HEADER = "setting,n1,n2,n3,duration"

DEFAULT_RATE = 1000.0
DEFAULT_DURATION = 100.0
DEFAULT_STEPS = 25
CSV_BLOCK_ROWS = 65_536  # most rows in one block of any table: sweep states or scan settings
# Most rows one sweep or scan may produce: about 8 s at the ~0.5 us per
# sweep row measured on a 2-CPU VM. Larger --resolution**2, --samples or
# --steps exit 2 before anything is allocated.
MAX_ROWS = 16_000_000
SWEEP_METRICS = ("witness", "gain", "pf", "pd1", "pd2")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach main as ValueError, so
    that they print as one `error:` line like every other usage error."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # an argument that starts with a minus and a digit, inf or nan (-1e-3, -.5,
        # -1,0,0,0,0,0, -inf, -NaN) is a value, not a flag: no ctxscope option
        # starts with a digit, -i or -n
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _f9(x: float) -> str:
    x = float(x)
    if abs(x) < 1e-12:
        x = 0.0
    return f"{x:.9f}"


def _digit_rows(out: np.ndarray, n: np.ndarray) -> None:
    """Write the unsigned integers n as zero-padded ASCII digits down the rows
    of the uint8 array out, one row per digit; n must be below 10**len(out)."""
    for row in out[::-1]:
        q = n // 10
        row[:] = n - q * 10 + 48
        n = q


def _ascii_rows(block: list[np.ndarray], sizes: list[np.ndarray | None]) -> bytes:
    """The rows of a block of float and integer columns, as _f9 and "%d" print
    them cell by cell. sizes[i] is |block[i]| for a float column, every value
    below 2**53 / 1e9 so that |x| * 1e9 rounds to an exact int64, and None for
    an integer column; the float arrays are overwritten.

    Each output column is one byte row of a uint8 buffer, transposed at the
    end. A field is a sign byte if its column holds a negative value, as many
    digits as the column's largest integer part needs, a point and nine
    digits for floats, and a separator. NUL stands for a missing sign and for
    leading zeros, and the NULs are removed last. A float prints from
    n = rint(y), y = |x| * 1e9 rounded, which is the correctly rounded
    nine-decimal value unless y is exactly a half-integer: rounding is
    monotonic and every half-integer below 2**52 is a double, so the product
    cannot cross one without landing on it (from 2**52 to 2**53, y is an
    integer that already rounds half to even). Those cells take n from
    "%.9f" one by one. A cell with |x| < 1e-12 has n = 0 and no sign, which
    is _f9's snap to zero; any other negative float keeps its sign even when
    it rounds to zero, as "%.9f" does."""
    rows = len(block[0])
    # An odd number of 64-byte lines per byte row: with a stride of exactly
    # 64 KiB every byte of an output row maps to the same cache sets.
    stride = ((rows + 63) // 64 | 1) * 64
    buf = np.empty((sum(19 if a is not None else 22 for a in sizes), stride), dtype=np.uint8)[:, :rows]
    pos = 0
    for c, y in zip(block, sizes):
        frac = None
        if y is not None:
            y *= 1e9
            n = np.rint(y)
            y -= n
            tie = np.abs(y, out=y) == 0.5
            n = n.astype(np.int64)
            for i in np.flatnonzero(tie):
                n[i] = int(("%.9f" % abs(c[i])).replace(".", ""))
            whole = n // 10 ** 9
            whole, frac = whole.astype(np.uint32), (n - whole * 10 ** 9).astype(np.uint32)
            negative = c <= -1e-12
        else:
            whole = np.abs(c).astype(np.uint64)
            negative = c < 0
        if negative.any():
            buf[pos] = np.where(negative, ord("-"), 0)
            pos += 1
        count = len(str(whole.max()))
        _digit_rows(buf[pos:pos + count], whole)
        for k in range(1, count):
            buf[pos + count - 1 - k][whole < 10 ** k] = 0
        pos += count
        if frac is not None:
            buf[pos] = ord(".")
            _digit_rows(buf[pos + 1:pos + 10], frac)
            pos += 10
        buf[pos] = ord(",")
        pos += 1
    buf[pos - 1] = ord("\n")
    return buf[:pos].T.tobytes().replace(b"\0", b"")


def _format_block(block: Sequence[Sequence[float]]) -> bytes:
    """The rows of one block of columns, from one |x| pass per float column:
    by _ascii_rows, or cell by cell with "%" when a float has magnitude
    2**53 / 1e9 or more (or is not finite); the bytes are the same either way."""
    block = [np.asarray(c) for c in block]
    sizes = [np.abs(c) if c.dtype.kind == "f" else None for c in block]
    if all(np.all(a < 2.0 ** 53 / 1e9) for a in sizes if a is not None):
        return _ascii_rows(block, sizes)
    row = ",".join("%d" if a is None else "%.9f" for a in sizes) + "\n"
    block = [c if a is None else np.where(a < 1e-12, 0.0, c) for c, a in zip(block, sizes)]
    values = itertools.chain.from_iterable(zip(*(c.tolist() for c in block)))
    return ((row * len(block[0])) % tuple(values)).encode()


def _csv(header: str, blocks: Iterable[Sequence[Sequence[float]]]) -> Iterator[bytes]:
    """The header, then the rows of each block of columns, one chunk per block
    in order, as ASCII bytes. Float columns print as _f9 does (|x| < 1e-12
    snapped to 0, then "%.9f"), integer columns as "%d". Producers keep each
    block to at most CSV_BLOCK_ROWS rows and fill every block but the last.

    A first block shorter than CSV_BLOCK_ROWS is then the whole table, and
    this thread formats it (and any block a producer still yields after it)
    with no thread started and nothing imported. Otherwise one worker thread
    formats block k (_format_block) while this thread takes block k + 1 from
    the producer and then hands on block k's bytes, so at most one block is
    being formatted. An exception from the producer or the formatter reaches
    the caller as it was raised, and the worker is joined before this
    generator ends, fails or is closed."""
    yield (header + "\n").encode()
    blocks = iter(blocks)
    block = next(blocks, None)
    if block is None:
        return
    if len(block[0]) < CSV_BLOCK_ROWS:
        yield _format_block(block)
        yield from map(_format_block, blocks)
        return
    from concurrent.futures import ThreadPoolExecutor  # imports logging, which only a long table needs

    with ThreadPoolExecutor(1, thread_name_prefix="ctxscope-csv") as worker:
        pending = worker.submit(_format_block, block)
        for block in blocks:  # drops the submitted block once the next one is taken
            chunk = pending.result()
            pending = worker.submit(_format_block, block)
            yield chunk
        yield pending.result()


def _text(lines: Iterable[str]) -> bytes:
    """Lines joined with LF and a final LF, UTF-8 encoded."""
    return ("\n".join(lines) + "\n").encode()


def _write(out: str, chunks: Iterable[bytes]) -> None:
    """The one sink: a binary one, writing chunks as they are produced.

    Stdout ("-") takes the bytes on its binary buffer after any pending text
    is flushed, and flushes it after the last chunk or a failure part way; a
    replacement stdout without one (such as io.StringIO) gets them decoded as
    UTF-8, and None (a script started with stdout closed) is refused. A file
    is written under a temporary name in its own directory and moved over
    `out` only after the last chunk, so a call that fails part way leaves
    `out` as it was. A device or pipe (such as /dev/null) is written in
    place, since there is nothing to replace, and so is a path that ends in a
    separator: it names a directory, and open() refuses it as the shell does
    (realpath would drop the separator).
    Commands validate before they return, because stdout cannot be taken
    back once the first chunk is written.
    """
    if out == "-":
        if sys.stdout is None:
            raise OSError(errno.EBADF, "stdout is closed")
        sink = getattr(sys.stdout, "buffer", None)
        if sink is None:
            sys.stdout.writelines(chunk.decode() for chunk in chunks)
            return
        sys.stdout.flush()
        try:
            sink.writelines(chunks)
        finally:
            sink.flush()
        return
    if out.endswith(("/", os.sep)) or (os.path.exists(out) and not os.path.isfile(out)):
        with open(out, "wb") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(out)
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with open(fd, "wb") as fh:
            fh.writelines(chunks)
        if os.path.exists(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_rows(flag: str, value: int, minimum: int, rows: int) -> None:
    """Refuse a size flag below `minimum` or one that asks for more than MAX_ROWS rows."""
    if value < minimum:
        raise ValueError(f"{flag} must be at least {minimum}")
    if rows > MAX_ROWS:
        raise ValueError(f"{flag} {value} asks for {rows} rows; at most {MAX_ROWS} are allowed")


def _json_dump(obj: object) -> bytes:
    import json  # only the JSON commands need it
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def _check_seed(args: argparse.Namespace) -> int:
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {args.seed}")
    return args.seed


_NAMED_LOOKUP = {name.casefold(): name for name in NAMED_STATES}


def _parse_state(spec: str) -> tuple[str, np.ndarray]:
    """A spec's label and normalized vector: a name in any case or padding is
    labelled by its NAMED_STATES key, six amplitude parts by the spec as typed,
    so these may hold no line break, though float() would skip one."""
    name = _NAMED_LOOKUP.get(spec.strip().casefold())
    if name is not None:
        return name, NAMED_STATES[name]
    if "".join(spec.splitlines()) != spec:
        raise ValueError(f"state must be on one line, got {spec!r}")
    parts = spec.split(",")
    if len(parts) != 6:
        raise ValueError(
            f"state must be one of {sorted(NAMED_STATES)} or six comma-separated "
            f"re,im amplitude parts, got {spec!r}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"state amplitudes must be numeric, got {spec!r}") from None
    vec = np.array(values).view(complex)
    if not np.any(vec):
        raise ValueError("state amplitudes must not all be zero")
    return spec, normalize(vec)


def _parse_modifiers(args: argparse.Namespace) -> list[interferometer.Modifier]:
    mods = [interferometer.block(label) for label in args.block or []]
    for flag, modifier in (("--phase", interferometer.phase_shift), ("--attenuate", interferometer.attenuate)):
        for spec in getattr(args, flag[2:]) or []:
            label, sep, raw = spec.partition(":")
            if not sep:
                raise ValueError(f"{flag} needs the form LABEL:VALUE, got {spec!r}")
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"{flag} value must be numeric, got {spec!r}") from None
            mods.append(modifier(label, value))
    return mods


QUOTED_ROW_CHARS = 80  # an error quotes at most this much of the row's cell list, then "..."
# A byte that is not UTF-8, as the surrogateescape error handler decodes it.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _raise_first_broken_row(rows: Iterable[tuple[int, str]], first: float | None) -> NoReturn:
    """Raise the first rule that a (line number, row) pair breaks, in order:
    five fields, each read by float(), all finite, counts not negative, duration
    positive and equal to the first row's, `first` (None before the first row)."""
    for number, row in rows:
        cells = row.split(",")
        quoted = str(cells) if len(str(cells)) <= QUOTED_ROW_CHARS else str(cells)[:QUOTED_ROW_CHARS] + "..."
        values = None
        with contextlib.suppress(ValueError):
            values = [float(cell) for cell in cells]
        if len(cells) != 5:
            message = f"expected 5 fields, got {len(cells)}"
        elif values is None:
            message = f"non-numeric field in {quoted}"
        elif not all(map(math.isfinite, values)):
            message = f"non-finite field in {quoted}"
        elif min(values[1:4]) < 0:
            message = "counts must be non-negative"
        elif not values[4] > 0:
            message = "duration must be positive"
        elif first is not None and values[4] != first:
            message = f"duration {values[4]:g} differs from the first row's {first:g}"
        else:
            first = values[4]
            continue
        raise ValueError(f"line {number}: {message}")
    raise AssertionError("the array pass refused a block whose rows keep every rule")


def _read_counts_csv(path: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Float settings, shape (n,), and counts, shape (n, 3), of a counts CSV,
    in blocks of at most CSV_BLOCK_ROWS lines, each yielded once it is checked.

    The file, or stdin for "-", is read as UTF-8 whatever the locale, a leading
    byte-order mark skipped, and with universal newlines, so that CR-ended lines
    come in blocks too. Stdin's bytes pass through a text layer of the reader's
    own, detached when it is done, so an in-process caller's sys.stdin keeps its
    settings; bytes that the caller's text layer already buffered are not seen,
    and a stdin without a binary buffer (such as io.StringIO) is read as it is.
    Lines end where str.splitlines ends them (LF, CRLF and CR among others), and
    blank ones are skipped. The first is COUNTS_CSV_HEADER, cells stripped; one
    array pass accepts a block whose later lines are rows that keep every rule
    of _raise_first_broken_row, which walks any other block row by row. The
    error names the first line that breaks a rule or holds a byte that is not
    UTF-8."""
    try:
        if path != "-":
            fh = open(path, "r", encoding="utf-8-sig", errors="surrogateescape")
            release = fh.close
        elif sys.stdin is None:  # the script started with stdin closed
            raise OSError(errno.EBADF, "stdin is closed")
        elif hasattr(sys.stdin, "buffer"):
            fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig", errors="surrogateescape")
            release = fh.detach  # closing it would close the caller's stdin
        else:  # a replacement that holds text, such as io.StringIO
            fh, release = sys.stdin, lambda: None
    except (OSError, ValueError) as exc:  # ValueError: a stdin that the caller closed
        raise ValueError(f"cannot read {path!r}: {exc}") from None
    before, header, first = 0, None, None  # lines in earlier blocks; the first row's duration
    try:
        # a block ends where a line does, so its lines are those of the whole text
        for text in iter(lambda: "".join(itertools.islice(fh, CSV_BLOCK_ROWS)), ""):
            lines = text.splitlines()
            undecoded = None if text.isascii() else _UNDECODED.search(text)
            if undecoded:  # the lines before its line are checked first
                del lines[len(text[:undecoded.end()].splitlines()) - 1:]
            start, before = before, before + len(lines)
            rows = [line for line in lines if line]
            if header is None and rows:
                header, *rows = rows
                if [cell.strip() for cell in header.split(",")] != COUNTS_CSV_HEADER.split(","):
                    raise ValueError(f"input must start with header {COUNTS_CSV_HEADER!r}")
            table = None  # stays None unless every row is five cells that float() reads
            with contextlib.suppress(ValueError):  # maxsplit 4 leaves a sixth cell on the fifth: refused
                cells = itertools.chain.from_iterable(row.split(",", 4) for row in rows)
                table = np.fromiter(map(float, cells), float).reshape(len(rows), 5)
            if table is None or not (np.isfinite(table).all() and (table[:, 1:4] >= 0).all() and (table[:, 4] > 0).all()
                                     and (table[:, 4] == (table[:1, 4] if first is None else first)).all()):
                numbers = [k for k, line in enumerate(lines, start + 1) if line][-len(rows):]  # those of the rows
                _raise_first_broken_row(zip(numbers, rows), first)
            first = table[0, 4] if first is None and len(table) else first
            yield table[:, 0], table[:, 1:4]
            if undecoded:
                raise ValueError(f"line {before + 1}: byte {ord(undecoded.group()) - 0xDC00:#04x} is not UTF-8")
    finally:
        release()
    if first is None:  # no data row, and perhaps no header either
        raise ValueError(f"input must start with header {COUNTS_CSV_HEADER!r}" if header is None
                         else "input has no data rows")


def _check_counts_duration(duration: float) -> None:
    """Refuse a duration, already checked positive, that the counts CSV would print as zero."""
    if _f9(duration) == "0.000000000":
        raise ValueError(f"--duration {duration:g} would print as 0.000000000 in the counts CSV")


def cmd_check(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    results = run_all_checks()
    lines = [f"{'ok' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results]
    failures = [r for r in results if not r.passed]
    lines.append(f"first failure: {failures[0].name}" if failures else "all checks passed")
    return 1 if failures else 0, [_text(lines)]


def _distribution(probs: Sequence[float]) -> dict[str, float]:
    p1, p2, p3 = (float(p) for p in probs)
    return {"p1": p1, "p2": p2, "p3": p3, "survival": p1 + p2 + p3}


def cmd_run(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    _, psi = _parse_state(args.state)
    mods = _parse_modifiers(args)
    fields = _distribution(run(build_network(), psi, mods))
    if args.format == "csv":
        return 0, _csv(",".join(fields), [[[v] for v in fields.values()]])
    return 0, [_json_dump({
        **fields,
        "modifiers": [f"{m.action}:{m.target}" + (f":{m.value!r}" if m.action != "block" else "")
                      for m in mods],
        "state": psi.view(float).tolist(),
    })]


def cmd_witness(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    label, psi = _parse_state(args.state)
    metrics = {k: v[0] for k, v in evaluate_states(build_network(), psi[None, :]).items()}
    free, blocked = _distribution(metrics["free"]), _distribution(metrics["blocked"])
    payload = {
        "blocked": blocked,
        "free": free,
        "gain_port3": float(metrics["gain"]),
        "p_d1": float(metrics["pd1"]),
        "p_d2": float(metrics["pd2"]),
        "p_f": float(metrics["pf"]),
        "state": psi.view(float).tolist(),
        "witness_direct": float(metrics["witness"]),
        "witness_from_outputs": float(metrics["witness_outputs"]),
    }
    if args.format == "text":
        lines = [
            f"state: {label}",
            f"P(f)={_f9(payload['p_f'])}  P(D1)={_f9(payload['p_d1'])}  P(D2)={_f9(payload['p_d2'])}",
            f"witness (interior paths):  {_f9(payload['witness_direct'])}",
            f"witness (output side):     {_f9(payload['witness_from_outputs'])}",
            f"gain at port 3 blocking f: {_f9(payload['gain_port3'])}",
            "free output:    " + "  ".join(_f9(v) for v in metrics["free"]),
            "blocked output: " + "  ".join(_f9(v) for v in metrics["blocked"])
            + f"  (survival {_f9(blocked['survival'])})",
        ]
        return 0, [_text(lines)]
    return 0, [_json_dump(payload)]


def _run_scan(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    _check_rows("--steps", args.steps, 1, args.steps)
    _, psi = _parse_state(args.state)
    interferometer._check_target(args.target)
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ValueError("--from and --to must be finite")
    if not math.isfinite(args.stop - args.start):
        raise ValueError("--to minus --from must be finite")
    # trans-scan's theta is the phase of an interferometric attenuator, valid in
    # [0, 2 pi]: amplitude transmission sin(theta / 2), so 0 blocks the path and
    # pi leaves it untouched. The grid lies between its ends; one step is --from.
    ends = (args.start, args.stop if args.steps > 1 else args.start)
    if args.kind == "transmittance" and (min(ends) < 0.0 or max(ends) > 2.0 * math.pi + 1e-12):
        raise ValueError("transmittance settings must lie in [0, 2*pi]")
    # bound and checked on an ideal scan too, before the grid is built
    seed = _check_seed(args)
    visibility = 1.0 if args.visibility is None else args.visibility
    stats._check_visibility(visibility)
    rate = DEFAULT_RATE if args.rate is None else args.rate
    duration = DEFAULT_DURATION if args.duration is None else args.duration
    noisy = any(getattr(args, flag) is not None for flag in ("visibility", "rate", "duration"))
    if noisy:  # no mean exceeds the budget drawn here at p = 1; the defaults pass both checks
        stats.draw_counts(1.0, rate, duration, seed)
        _check_counts_duration(duration)
    rng = np.random.default_rng(seed)
    # the top index times the step may round past the largest double; linspace
    # then overwrites that last setting with --to, so every setting is finite
    with np.errstate(over="ignore"):
        grid = np.linspace(args.start, args.stop, args.steps)
    network = build_network()
    if args.kind == "phase":
        coefficients = interferometer.fringe_coefficients(network, psi, args.target)

    def blocks() -> Iterator[list[np.ndarray]]:
        for start in range(0, len(grid), CSV_BLOCK_ROWS):
            settings = grid[start:start + CSV_BLOCK_ROWS]
            if args.kind == "phase":
                values = stats.fringe(settings, coefficients, visibility)
            else:
                factors = np.sin(settings / 2.0)[:, None]
                values = interferometer.propagate(network, psi[None, :], [args.target], factors)[:, 0]
            if noisy:
                values = stats.draw_counts(values, rate, duration, rng)
                last = np.full(len(settings), duration)
            else:
                last = values.sum(axis=1)
            yield [settings, *values.T, last]

    return 0, _csv(COUNTS_CSV_HEADER if noisy else IDEAL_CSV_HEADER, blocks())


def _sweep_csv(lead: tuple[str, ...], blocks: Iterable[tuple[list, np.ndarray]]) -> Iterator[bytes]:
    """Sweep CSV from (lead columns, states) blocks, evaluated one block at a
    time. The trailer names the first row whose witness prints as the largest:
    mirror rows (beta and pi/2 - beta at one alpha) tie up to rounding, and
    comparing rint(witness * 1e9) keeps the last bit from choosing between them."""
    best, where = -math.inf, ""

    def rows() -> Iterator[list[np.ndarray]]:
        nonlocal best, where
        network = build_network()
        for columns, states in blocks:
            metrics = evaluate_states(network, states)
            nines = np.rint(metrics["witness"] * 1e9)
            top = int(np.argmax(nines))
            if nines[top] > np.rint(best * 1e9):
                best = metrics["witness"][top]
                where = " ".join(f"{name}={_f9(c[top]) if c.dtype.kind == 'f' else c[top]}"
                                 for name, c in zip(lead, columns))
            yield [*columns, *(metrics[k] for k in SWEEP_METRICS)]

    yield from _csv(",".join(lead + SWEEP_METRICS), rows())
    yield f"# max_witness={_f9(best)} {where}\n".encode()


def cmd_sweep(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    _check_rows("--resolution", args.resolution, 2, args.resolution ** 2)
    _check_rows("--samples", args.samples, 1, args.samples)
    seed = _check_seed(args)
    if args.complex:
        haar = haar_state_blocks(args.samples, seed, CSV_BLOCK_ROWS)
        lead = ("index",)
        blocks = (([np.arange(start, start + len(states))], states)
                  for start, states in zip(range(0, args.samples, CSV_BLOCK_ROWS), haar))
    else:
        grid = real_grid_blocks(args.resolution, CSV_BLOCK_ROWS)
        lead = ("alpha", "beta")
        blocks = (([alphas, betas], states) for alphas, betas, states in grid)
    return 0, _sweep_csv(lead, blocks)


def cmd_sample(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    _, psi = _parse_state(args.state)
    mods = _parse_modifiers(args)
    if not math.isfinite(args.setting):
        raise ValueError("--setting must be finite")
    dist = run(build_network(), psi, mods)
    seed = _check_seed(args)
    counts = stats.draw_counts(dist, args.rate, args.duration, seed).tolist()
    if args.format == "csv":
        _check_counts_duration(args.duration)
        columns = [[args.setting], *([c] for c in counts), [args.duration]]
        return 0, _csv(COUNTS_CSV_HEADER, [columns])
    return 0, [_json_dump({
        "counts": counts,
        "duration": args.duration,
        "rate": args.rate,
        "seed": seed,
        "setting": args.setting,
    })]


def cmd_fit(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    label, model = _parse_state(args.model)
    coefficients = interferometer.fringe_coefficients(build_network(), model)
    n, ports = stats.fit_fringe(_read_counts_csv(args.input), coefficients)
    return 0, [_json_dump({
        "model": label,
        "ports": [p._asdict() for p in ports],
        "settings": n,
    })]


def cmd_reproduce(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    network = build_network()
    header = f"{'state':<6} {'quantity':<20} {'simulated':>13} {'reference':>11} {'|delta|':>12}"
    lines = ["benchmark reproduction: simulator vs published measured values", "", header, "-" * len(header)]
    worst = dict.fromkeys(("probabilities", "gains", "witnesses"), 0.0)
    names = ("Nf", "Bf", "V0")
    metrics = evaluate_states(network, np.array([NAMED_STATES[name] for name in names]))
    for n, name in enumerate(names):
        measured = MEASURED[name]
        fringe = interferometer.fringe_coefficients(network, NAMED_STATES[name])[:2]
        # (quantity, simulated, published, group); the fringe rows, in no group, print nine reference decimals
        rows = [
            *((f"{side} p{i + 1}", metrics[side][n][i], getattr(measured, side)[i], "probabilities")
              for side in ("free", "blocked") for i in range(3)),
            ("gain port3", metrics["gain"][n], measured.gain, "gains"),
            ("witness direct", metrics["witness"][n], measured.witness, "witnesses"),
            ("witness outputs", metrics["witness_outputs"][n], measured.witness, "witnesses"),
            *((f"fringe {term}{i + 1}", simulated[i], published[i], None)
              for i in range(3) for term, simulated, published in zip("ab", fringe, FRINGE_MODELS[name])),
        ]
        for quantity, simulated, published, group in rows:
            delta = abs(simulated - published)
            lines.append(f"{name:<6} {quantity:<20} {simulated:>13.9f} "
                         f"{published:>11.{3 if group else 9}f} {delta:>12.9f}")
            if group:
                worst[group] = max(worst[group], delta)
        vis = measured.visibilities
        lines += [f"{name:<6} reported fitted visibilities (experiment-specific): "
                  f"V1={vis[0]:.2f} V2={vis[1]:.2f} V3={vis[2]:.2f}", ""]
    lines.append("max |delta|: " + ", ".join(f"{group} {delta:.9f}" for group, delta in worst.items()))
    return 0, [_text(lines)]


def _out_path(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must be a path, or - for stdout")
    return value


def _add_state(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--state", required=True,
        help="named state (Nf, Bf, V0, basis1, basis2, basis3) or six comma-separated "
             "re,im amplitude parts; normalized on load",
    )


def _add_seed(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


def _add_modifiers(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--block", action="append", metavar="LABEL",
                    help="absorb all amplitude in an interior path (repeatable)")
    sp.add_argument("--phase", action="append", metavar="LABEL:RAD",
                    help="apply a phase to an interior path (repeatable)")
    sp.add_argument("--attenuate", action="append", metavar="LABEL:TAU",
                    help="scale an interior path amplitude by tau in [0,1] (repeatable)")


def _add_scan_grid(sp: argparse.ArgumentParser, stop_default: float) -> None:
    sp.add_argument("--target", default="f", help="interior path to modify (default f)")
    sp.add_argument("--from", dest="start", type=float, default=0.0,
                    help="first setting in radians (default 0)")
    sp.add_argument("--to", dest="stop", type=float, default=stop_default,
                    help=f"last setting in radians (default {stop_default:.6f})")
    sp.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                    help=f"number of settings (default {DEFAULT_STEPS})")
    sp.add_argument("--rate", type=float, default=None,
                    help=f"detected photons per second (default {DEFAULT_RATE:g} when sampling)")
    sp.add_argument("--duration", type=float, default=None,
                    help=f"integration time per setting in seconds (default {DEFAULT_DURATION:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctxscope",
        description="Simulate the five-splitter three-path interferometer, its "
                    "contextuality witness, and counterfactual gain.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("check", help="run the structural self-check suites")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("run", help="propagate one state, optionally with modifiers")
    _add_state(sp)
    _add_modifiers(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("witness", help="witness, gain, and output distributions for a state")
    _add_state(sp)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("phase-scan", help="sweep a phase shifter in an interior path")
    _add_state(sp)
    _add_scan_grid(sp, 2.0 * math.pi)
    sp.add_argument("--visibility", type=float, default=None,
                    help="fringe visibility for noisy counts (default 1.0 when sampling)")
    _add_seed(sp)
    sp.set_defaults(func=_run_scan, kind="phase")

    sp = sub.add_parser("trans-scan", help="sweep a tunable absorber in an interior path")
    _add_state(sp)
    _add_scan_grid(sp, math.pi)
    _add_seed(sp)
    sp.set_defaults(func=_run_scan, kind="transmittance", visibility=None)

    sp = sub.add_parser("sweep", help="map witness and gain over the real state octant")
    sp.add_argument("--resolution", type=int, default=101,
                    help="grid points per axis (default 101)")
    sp.add_argument("--complex", action="store_true",
                    help="sample seeded Haar-random complex states instead of the real grid")
    sp.add_argument("--samples", type=int, default=10_000,
                    help="number of random states with --complex (default 10000)")
    _add_seed(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("sample", help="Poisson counts for one detection run")
    _add_state(sp)
    _add_modifiers(sp)
    sp.add_argument("--rate", type=float, default=DEFAULT_RATE,
                    help=f"detected photons per second (default {DEFAULT_RATE:g})")
    sp.add_argument("--duration", type=float, default=DEFAULT_DURATION,
                    help=f"integration time in seconds (default {DEFAULT_DURATION:g})")
    sp.add_argument("--setting", type=float, default=0.0,
                    help="setting value recorded with the counts (default 0)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    _add_seed(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("fit", help="fit fringe visibilities to a counts CSV")
    sp.add_argument("--input", required=True, help="counts CSV path, or - for stdin")
    sp.add_argument("--model", required=True,
                    help="state whose theory fringe on f the data follows: a named state or six "
                         "comma-separated re,im amplitude parts, as --state takes them")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("reproduce", help="regenerate every benchmark number next to the published values")
    sp.set_defaults(func=cmd_reproduce)

    # last in every subcommand's --help
    for sp in sub.choices.values():
        sp.add_argument("--out", type=_out_path, default="-", help="output path, or - for stdout (default)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status, chunks = args.func(args)
        _write(args.out, chunks)
        return status
    except (ValueError, OSError) as exc:
        if sys.stderr is not None:  # print(file=None) would write to stdout
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr, flush=True)
        return 3 if isinstance(exc, stats.DegenerateDesignError) else 2


def entry() -> NoReturn:
    """The installed script: os._exit with main()'s status on sys.argv.

    os._exit skips the interpreter's teardown (module cleanup, the last
    collection, freeing NumPy's memory and OpenBLAS's threads), which takes
    25-40 ms of a short call, and it skips the atexit and threading exit
    handlers that concurrent.futures and logging register for a table whose
    first block is full (the only one with a CSV worker). Nothing is left for
    any of it to do: main returns only after its last chunk is flushed, an
    --out file is closed and renamed, the CSV worker is shut down and joined
    and any error line is flushed, and ctxscope logs nothing.
    --help and uncaught exceptions leave through the interpreter's usual exit."""
    # Python ignores SIGPIPE; its default action ends the script quietly under `| head`
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    os._exit(main())


if __name__ == "__main__":
    entry()
