"""Golden outputs: the CLI's CSV/text bytes and JSON values stay put.

The hashes and JSON payloads below were recorded from the release before the
rank-1 propagation kernel replaced the stage-by-stage loop; the two sweeps
longer than one CSV block and the sample CSV were recorded from the release
before the block-wise CSV emitter replaced the per-cell writers, and the
phase scan at 1e300 from the release before the emitter formatted digits
with NumPy (its settings take the emitter's per-cell "%" path). The four
sampled entries (the noisy phase-scan, the sampled trans-scan, the sample CSV
and the sample JSON counts) were re-recorded when the counting layer switched
to exact Poisson draws from one seeded NumPy stream per call. CSV and text
outputs must match byte for byte. JSON outputs must keep the same keys and
every number within 1e-14, which leaves room for the kernel's last-bit
rounding but nothing more. The fit JSONs of three seeded noisy scans were
recorded from the release before `fit` read its counts in one array pass,
and must match byte for byte. Three entries were re-recorded when the
kernel's overlaps became three explicit complex products instead of BLAS
calls: `check` (a 1e-15 residue it prints moved in its last digits), the
300-point sweep (its trailer now names the first of two mirror rows whose
witnesses print alike) and the fit of the 10^5-step Bf scan (16th digit).
The three fit JSONs were re-recorded when `fit` came to fold its counts into
one QR factor block by block (numbers within 1.5e-14 of the least-squares
solve before), and `check` when its identity suite moved from 10^4 Haar
states to the nine states that fix a Hermitian form. The three sampled
phase scans either side of one CSV block were recorded from the release
before a table whose first block is short came to be formatted on the
calling thread.
"""
import hashlib
import io
import itertools
import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxscope import cli
from ctxscope.cli import main

STATE = "0.3,0.1,-0.7,0.2,0.5,-0.4"

HASHED = {
    ("check",): "f0416d58e21d934f2a97b23317e90ac1c5528c3d09d2d530770e23b785e84453",
    ("reproduce",): "53bbee6f7c52db6532025431f5179cd2899b765158c79ac52bcc07c15c132666",
    ("witness", "--state", "Bf", "--format", "text"):
        "25a9a232a1235b20996f8617015681998f33ce99d3668815cbfb3d31efba81c2",
    ("run", "--state", STATE, "--block", "D2", "--phase", "f:1.1", "--attenuate", "S1:0.6",
     "--format", "csv"):
        "80ced26e8873fd2b0805489363e22a4da401b0e2e13b87680cd31a335b0cb5be",
    ("phase-scan", "--state", "Nf", "--steps", "9"):
        "b3e05b683bfcefdd56bf2b24da99f1f85f29a7ddec8b9bcc03e7d224aec6929d",
    ("phase-scan", "--state", "V0", "--steps", "7", "--visibility", "0.9", "--rate", "500",
     "--duration", "2", "--seed", "3"):
        "409900ae9a27766adc43a84ec295d34c43019b89531d983c7c77888bd1088eb6",
    ("trans-scan", "--state", "Bf", "--target", "D2", "--steps", "7"):
        "98de9fc34307e97dfccfd8e9ad575be8348d895c6328c3199a2d43f85143a943",
    ("trans-scan", "--state", "Nf", "--target", "S2", "--steps", "5", "--rate", "200",
     "--duration", "1", "--seed", "11"):
        "91441c2df7d0196c3d4bb0c9a442c8e11d131c8ae3b92ba641b43cb2be941f59",
    ("sweep", "--resolution", "101"):
        "98097313040ad34f14037f645bd7c84ff31ff516634ea3a61be15a2a95929187",
    ("sweep", "--complex", "--samples", "2000", "--seed", "4"):
        "c0972dee1016f22b7c2cc019700cd55a052362352629dae96cc99203ddc041c9",
    ("sweep", "--resolution", "300"):
        "988ab3c3c0ef1e2c95ffe68c2d01e5e784c167f119e86ed26e0b538cfc98d58b",
    ("sweep", "--seed", "5", "--complex", "--samples", "70000"):
        "c48ee9d59330aa7bc2725519e8222522fcc47998b3c97f0bb9d501dde9261769",
    ("sample", "--state", "V0", "--rate", "37.5", "--duration", "2", "--setting", "0.25",
     "--seed", "9", "--format", "csv"):
        "e6873e1646dea4678c2f76854f9a5df819e9ea0153a14bbe99fa7fdaf4b5f163",
    ("phase-scan", "--from", "1e300", "--to", "1e300", "--state", "Nf", "--steps", "2"):
        "cb7129438a24988681bba9eab76fea2780b91585d32c1247826b68fdce081622",
}

JSON = {
    ("run", "--state", STATE, "--block", "D2", "--phase", "f:1.1", "--attenuate", "S1:0.6"): {
        "modifiers": ["block:D2", "phase:f:1.1", "attenuate:S1:0.6"],
        "p1": 0.18586538461538454,
        "p2": 0.49964889048097416,
        "p3": 0.18586538461538454,
        "state": [0.294174202707276, 0.09805806756909202, -0.686406472983644,
                  0.19611613513818404, 0.49029033784546006, -0.3922322702763681],
        "survival": 0.8713796597117434,
    },
    ("witness", "--state", "V0"): {
        "blocked": {"p1": 0.111111111111111, "p2": 0.1111111111111111,
                    "p3": 0.44444444444444425, "survival": 0.6666666666666663},
        "free": {"p1": 0.44444444444444425, "p2": 0.44444444444444453,
                 "p3": 0.111111111111111, "survival": 0.9999999999999998},
        "gain_port3": 0.33333333333333326,
        "p_d1": 0.05555555555555554,
        "p_d2": 0.05555555555555554,
        "p_f": 0.3333333333333333,
        "state": [0.6666666666666666, 0.0, 0.6666666666666666, 0.0, 0.3333333333333333, 0.0],
        "witness_direct": 0.22222222222222227,
        "witness_from_outputs": 0.2222222222222222,
    },
    ("sample", "--state", "Bf", "--block", "f", "--phase", "D2:0.5", "--seed", "5"): {
        "counts": [19475, 16345, 61818],
        "duration": 100.0,
        "rate": 1000.0,
        "seed": 5,
        "setting": 0.0,
    },
}


# A 10^5-step scan, and 5,001-step scans (the benchmark's length) at the
# default photon budget and at a low one; each is fitted with its own state.
FIT_HASHED = {
    ("Bf", "--steps", "100000", "--visibility", "0.9", "--seed", "1"):
        "ab684a252c0ee0ee3662292712c5392eb0371d4bf9e9539506c4f5f469cb19ae",
    ("V0", "--steps", "5001", "--visibility", "0.7", "--seed", "2"):
        "10d9675e8b0baf8d3593681769eb2a3fbb9be38f8389cd325c79b23eae65cba4",
    ("Nf", "--steps", "5001", "--visibility", "0.8", "--rate", "5.5", "--duration", "5", "--seed", "3"):
        "1eac6b666d1f348a33fa2e1d72356aad95b7224858622296aef2f1e46a4b6746",
}


def cli_output(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def assert_close(actual, expected, where="") -> None:
    """Same structure and keys; numbers within 1e-14, everything else equal."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        assert type(actual) is type(expected), where
        assert actual == pytest.approx(expected, abs=1e-14, rel=0), where
    else:
        assert actual == expected, where


@pytest.mark.parametrize("argv", list(HASHED), ids=lambda argv: " ".join(argv[:3]))
def test_csv_and_text_outputs_are_byte_identical(capsys, argv):
    digest = hashlib.sha256(cli_output(capsys, argv).encode("utf-8")).hexdigest()
    assert digest == HASHED[argv]


@pytest.mark.parametrize("argv", list(JSON), ids=lambda argv: " ".join(argv[:3]))
def test_json_outputs_keep_keys_and_values(capsys, argv):
    assert_close(json.loads(cli_output(capsys, argv)), JSON[argv])


@pytest.mark.parametrize("scan", list(FIT_HASHED), ids=lambda scan: " ".join(scan[:3]))
def test_fit_json_is_byte_identical(capsys, tmp_path, scan):
    state, *flags = scan
    path = tmp_path / "scan.csv"
    assert main(["phase-scan", "--state", state, *flags, "--out", str(path)]) == 0
    out = cli_output(capsys, ["fit", "--input", str(path), "--model", state])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIT_HASHED[scan]


def blocks(columns, rows: int) -> list[list[np.ndarray]]:
    """The columns cut into blocks of at most `rows` rows, as the table producers yield them."""
    return [[c[start:start + rows] for c in columns] for start in range(0, len(columns[0]), rows)]


def test_csv_emitter_matches_per_cell_f9():
    x = np.array([-0.0, 5e-13, -5e-13, 1e-12, -1e-12, -5e-10, 0.1234567895, -2.5])
    n = np.array([0, 7, -3, 10**15, 42, 1, 2, 3], dtype=np.int64)
    chunks = list(cli._csv("x,y,n", blocks([x, x[::-1], n], 3)))
    rows = [",".join([cli._f9(a), cli._f9(b), str(int(c))]) + "\n" for a, b, c in zip(x, x[::-1], n)]
    assert len(chunks) == 1 + 3
    assert b"".join(chunks) == ("x,y,n\n" + "".join(rows)).encode()


# Cells where nine-decimal rounding is hard to get right: negatives that round
# to zero, exact and near ties at the ninth decimal, and large magnitudes.
HARD_CELLS = [-4e-10, -5e-10, 9.9999999995, 0.1234567895, 123456.7890123455]
EXACT_LIMIT = 2.0 ** 53 / 1e9


def _tie(k: int, side: int) -> float:
    """(k + 0.5) / 1e9, or its neighbour one ulp below (side -1) or above (side 1)."""
    x = (k + 0.5) / 1e9
    return x if side == 0 else float(np.nextafter(x, side * math.inf))


EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e300, -1e300,
              math.nan, math.inf, -math.inf,
              *(float(np.nextafter(x, to)) for x in (1e-12, -1e-12, EXACT_LIMIT)
                for to in (-math.inf, 0.0, math.inf)),
              1e-12, -1e-12, EXACT_LIMIT, -EXACT_LIMIT, *HARD_CELLS]
FLOAT_CELLS = st.one_of(
    st.sampled_from(EDGE_CELLS),
    st.builds(_tie, st.integers(-10 ** 16, 10 ** 16), st.sampled_from([-1, 0, 1])),
    st.floats(min_value=-1e7, max_value=1e7),
    st.floats(allow_nan=False, allow_infinity=False),
)


def per_cell_rows(columns) -> str:
    return "".join(
        ",".join(cli._f9(v) if c.dtype.kind == "f" else "%d" % v for v, c in zip(row, columns)) + "\n"
        for row in zip(*columns))


@st.composite
def tables(draw):
    rows = draw(st.integers(1, 12))
    cells = st.lists(FLOAT_CELLS, min_size=rows, max_size=rows)
    ints = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=rows, max_size=rows)
    return [np.array(draw(cells)) if kind == "f" else np.array(draw(ints), dtype=np.int64)
            for kind in draw(st.lists(st.sampled_from("fi"), min_size=1, max_size=4))]


@settings(max_examples=400, deadline=None)
@given(tables(), st.integers(1, 5))
def test_csv_emitter_is_byte_identical_to_per_cell_formatting(columns, block_rows):
    data = b"".join(cli._csv("h", blocks(columns, block_rows)))
    assert data == ("h\n" + per_cell_rows(columns)).encode()


def test_csv_emitter_full_block_and_remainder():
    rng = np.random.default_rng(7)
    rows = 70_000
    wide = rng.uniform(-99.0, 99.0, rows)
    ties = np.array([_tie(int(k), int(side)) for k, side in
                     zip(rng.integers(-10 ** 10, 10 ** 10, rows), rng.integers(-1, 2, rows))])
    small = rng.standard_normal(rows) * 1e-9
    n = rng.integers(-2 ** 63, 2 ** 63 - 1, rows, dtype=np.int64)
    chunks = list(cli._csv("h", blocks([wide, ties, small, n], cli.CSV_BLOCK_ROWS)))
    assert len(chunks) == 1 + 2
    assert b"".join(chunks) == ("h\n" + per_cell_rows([wide, ties, small, n])).encode()


def _around_ties(k: int) -> list[float]:
    """(k + 0.5) / 1e9 and the three doubles on either side of it."""
    x = (k + 0.5) / 1e9
    return [x + step * float(np.spacing(x)) for step in range(-3, 4)]


def test_csv_emitter_hard_cells():
    x = np.array(HARD_CELLS + [-v for v in HARD_CELLS])
    n = np.array([0, 1, -1, 2 ** 63 - 1, -2 ** 63, 10 ** 18, 99, 100, 999, 1000], dtype=np.int64)
    data = b"".join(cli._csv("x,n", [[x, n]]))
    assert data == ("x,n\n" + per_cell_rows([x, n])).encode()
    assert data.splitlines()[1:3] == [b"-0.000000000,0", b"-0.000000001,1"]
    # From 2**49 / 1e9 up, |x| * 1e9 can round to exactly a half-integer (a
    # tie for rint) while x itself lies off it; up to 2**53 / 1e9 the block
    # formatter must still print those cells and their neighbours as "%.9f" does.
    big = np.array([v for k in (2 ** 49 + 3, 2 ** 50 + 12_345, 2 ** 51 + 7, 2 ** 52 - 2, 2 ** 52 + 9,
                                2 ** 53 - 9) for v in _around_ties(k)])
    assert np.all((2 ** 49 / 1e9 <= big) & (big < EXACT_LIMIT))
    assert np.count_nonzero(big * 1e9 % 1.0 == 0.5) >= 4
    big = np.concatenate([big, -big])
    data = b"".join(cli._csv("x", [[big]]))
    assert data == ("x\n" + per_cell_rows([big])).encode()


def two_row_blocks(count: int) -> list[list[np.ndarray]]:
    """`count` blocks of two rows, each a float column and an integer column."""
    rng = np.random.default_rng(count)
    return blocks([rng.uniform(-5.0, 5.0, 2 * count), rng.integers(-10 ** 6, 10 ** 6, 2 * count)], 2)


def chunks_of(table) -> list[bytes]:
    return [per_cell_rows(block).encode() for block in table]


def slow_formatter(monkeypatch, fail_at=None, error=None) -> list[int]:
    """Replace cli._ascii_rows by one that sleeps 20 ms per block, so a worker
    is still running when the caller moves on, and raises `error` on call `fail_at`."""
    real, calls = cli._ascii_rows, []

    def formatter(block, sizes):
        calls.append(len(block[0]))
        time.sleep(0.02)
        if len(calls) == fail_at:
            raise error
        return real(block, sizes)

    monkeypatch.setattr(cli, "_ascii_rows", formatter)
    return calls


class TestCsvWorker:
    """_csv formats each block on a worker thread while the next is computed."""

    @pytest.fixture(autouse=True)
    def full_two_row_blocks(self, request, monkeypatch):
        # A table whose first block is full goes to the worker, so two-row
        # blocks must be full. main's sweeps fill their own blocks already;
        # cut into 45,000 two-row blocks, the 300-point sweep would take 40 s.
        if request.node.name != "test_no_thread_outlives_main":
            monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 2)

    def test_many_tiny_blocks_come_out_in_order(self):
        table, start = two_row_blocks(45), threading.active_count()
        assert list(cli._csv("x,n", iter(table))) == [b"x,n\n", *chunks_of(table)]
        assert threading.active_count() == start

    def test_one_block_is_formatted_at_a_time(self, monkeypatch):
        busy, overlaps = [], []
        real = cli._ascii_rows

        def formatter(block, sizes):
            busy.append(1)
            overlaps.append(len(busy))
            time.sleep(0.005)
            busy.pop()
            return real(block, sizes)

        monkeypatch.setattr(cli, "_ascii_rows", formatter)
        table = two_row_blocks(12)
        assert list(cli._csv("x,n", iter(table))) == [b"x,n\n", *chunks_of(table)]
        assert overlaps == [1] * 12

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_producer_error_after_k_blocks_reaches_the_caller(self, capfd, monkeypatch, k):
        slow_formatter(monkeypatch)
        error, table, chunks = RuntimeError("producer failed"), two_row_blocks(k), []

        def producer():
            yield from table
            raise error

        start = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            for chunk in cli._csv("x,n", producer()):
                chunks.append(chunk)
        assert caught.value is error
        # block k - 1 was being formatted when the producer failed
        assert chunks == [b"x,n\n", *chunks_of(table[:-1])]
        assert threading.active_count() == start
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_formatter_error_reaches_the_caller_and_prints_nothing(self, capfd, monkeypatch, fail_at):
        error = ValueError("formatter failed")
        calls = slow_formatter(monkeypatch, fail_at, error)
        start = threading.active_count()
        with pytest.raises(ValueError) as caught:
            list(cli._csv("x,n", iter(two_row_blocks(10))))
        assert caught.value is error
        assert len(calls) == fail_at
        assert threading.active_count() == start
        assert capfd.readouterr() == ("", "")

    def test_one_worker_thread_formats_the_whole_table(self, monkeypatch):
        threads, real = [], cli._ascii_rows

        def formatter(block, sizes):
            threads.append(threading.current_thread())
            return real(block, sizes)

        monkeypatch.setattr(cli, "_ascii_rows", formatter)
        table = two_row_blocks(12)
        assert list(cli._csv("x,n", iter(table))) == [b"x,n\n", *chunks_of(table)]
        assert len(threads) == 12
        assert len(set(threads)) == 1 and threads[0] is not threading.current_thread()

    def test_a_keyboard_interrupt_in_the_formatter_reaches_the_caller(self, capfd, monkeypatch):
        error = KeyboardInterrupt()
        calls = slow_formatter(monkeypatch, 3, error)
        start = threading.active_count()
        with pytest.raises(KeyboardInterrupt) as caught:
            list(cli._csv("x,n", iter(two_row_blocks(10))))
        assert caught.value is error
        assert len(calls) == 3
        assert threading.active_count() == start
        assert capfd.readouterr() == ("", "")

    def test_closing_a_half_read_table_joins_the_worker(self, monkeypatch):
        slow_formatter(monkeypatch)
        table, start = two_row_blocks(10), threading.active_count()
        csv = cli._csv("x,n", iter(table))
        assert [next(csv) for _ in range(4)] == [b"x,n\n", *chunks_of(table[:3])]
        csv.close()
        assert threading.active_count() == start

    def test_no_thread_outlives_main(self, monkeypatch, capsys):
        start = threading.active_count()
        assert main(["sweep", "--resolution", "300", "--out", os.devnull]) == 0
        assert threading.active_count() == start

        class ClosedAfterOneBlock(io.StringIO):
            # the reader goes away while the worker formats the second block
            class buffer:
                @staticmethod
                def writelines(chunks):
                    list(itertools.islice(chunks, 2))
                    raise BrokenPipeError(32, "Broken pipe")

                @staticmethod
                def flush():
                    pass

        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 1000)
        slow_formatter(monkeypatch)
        monkeypatch.setattr(sys, "stdout", ClosedAfterOneBlock())
        assert main(["sweep", "--resolution", "100"]) == 2
        assert threading.active_count() == start
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestCsvCallingThread:
    """_csv formats a table whose first block is short on the calling thread."""

    @pytest.fixture(autouse=True)
    def no_thread_starts(self, monkeypatch):
        def start(thread):
            raise AssertionError(f"a thread was started: {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", start)

    @pytest.mark.parametrize("count", [0, 1, 12], ids=["no block", "one block", "blocks after a short first block"])
    def test_every_block_comes_out_in_order_from_this_thread(self, monkeypatch, count):
        threads, real = [], cli._ascii_rows

        def formatter(block, sizes):
            threads.append(threading.current_thread())
            return real(block, sizes)

        monkeypatch.setattr(cli, "_ascii_rows", formatter)
        table = two_row_blocks(count)
        assert list(cli._csv("x,n", iter(table))) == [b"x,n\n", *chunks_of(table)]
        assert threads == [threading.current_thread()] * count

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_producer_error_after_k_blocks_reaches_the_caller(self, capfd, k):
        error, table, chunks = RuntimeError("producer failed"), two_row_blocks(k), []

        def producer():
            yield from table
            raise error

        with pytest.raises(RuntimeError) as caught:
            for chunk in cli._csv("x,n", producer()):
                chunks.append(chunk)
        assert caught.value is error
        # every block the producer gave was formatted and handed on before it failed
        assert chunks == [b"x,n\n", *chunks_of(table)]
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("error", [ValueError("formatter failed"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_formatter_error_reaches_the_caller_as_raised(self, capfd, monkeypatch, error, fail_at):
        calls = slow_formatter(monkeypatch, fail_at, error)
        chunks = []
        with pytest.raises(type(error)) as caught:
            for chunk in cli._csv("x,n", iter(two_row_blocks(10))):
                chunks.append(chunk)
        assert caught.value is error
        assert len(calls) == fail_at and len(chunks) == fail_at
        assert capfd.readouterr() == ("", "")


# Every table producer, with its row count.
PRODUCERS = [
    (("phase-scan", "--state", "V0", "--steps", "20"), 20),
    (("phase-scan", "--state", "V0", "--steps", "21", "--visibility", "0.9", "--seed", "1"), 21),
    (("trans-scan", "--state", "Nf", "--steps", "20"), 20),
    (("trans-scan", "--state", "Nf", "--steps", "22", "--rate", "1000", "--seed", "2"), 22),
    (("sweep", "--resolution", "5"), 25),
    (("sweep", "--complex", "--samples", "23", "--seed", "1"), 23),
    (("run", "--state", "Nf", "--block", "f", "--format", "csv"), 1),
    (("sample", "--state", "V0", "--seed", "3", "--format", "csv"), 1),
]


@pytest.mark.parametrize("argv, rows", PRODUCERS, ids=[" ".join(argv) for argv, _ in PRODUCERS])
def test_every_block_but_the_last_is_full(monkeypatch, argv, rows):
    # _csv formats a short first block as the whole table, so each producer
    # must fill every block but its last
    sizes, real = [], cli._format_block

    def formatter(block):
        sizes.append(len(block[0]))
        return real(block)

    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(cli, "_format_block", formatter)
    assert cli.main([*argv, "--out", os.devnull]) == 0
    assert sum(sizes) == rows
    assert sizes[:-1] == [7] * (len(sizes) - 1) and 0 < sizes[-1] <= 7


# Sampled scans one row short of a CSV block, one block and one row more: the
# first is formatted on the calling thread, the other two by the worker.
BOUNDARY_HASHED = {
    65_535: "27824b612165e07e8ed5bb05c428c9782c1b70e505d67831726fb5e42fef187d",
    65_536: "37f0a60a17ccdbd92d872f22f2e09ce454194fe5a15c20f2832c2ebd69647434",
    65_537: "b8a04acd0d333dff9b0a6aeca302dcc6c9ab8ed1f184a8386f6b205f66a0bb8e",
}


@pytest.mark.parametrize("steps", list(BOUNDARY_HASHED))
def test_sampled_scan_either_side_of_one_block_is_byte_identical(capsys, steps):
    out = cli_output(capsys, ["phase-scan", "--state", "V0", "--steps", str(steps), "--visibility", "0.9",
                              "--seed", "4"])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BOUNDARY_HASHED[steps]
