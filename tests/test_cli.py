import contextlib
import errno
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import numpy as np

from ctxscope import cli, interferometer, stats
from ctxscope.cli import main
from ctxscope.reference import MEASURED
from ctxscope.selfcheck import CheckResult

SRC = Path(__file__).resolve().parents[1] / "src"
COMPLEX_STATE = "0.3,0.1,-0.7,0.2,0.5,-0.4"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def usage_error(capsys, *argv) -> str:
    """Run argv, assert exit 2 with nothing on stdout and one stderr line; return that line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def run_entry(*argv) -> subprocess.CompletedProcess:
    """Run argv through entry() in a fresh interpreter, as the installed script does."""
    return subprocess.run(
        [sys.executable, "-c", "from ctxscope.cli import entry; entry()", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


class TestCheck:
    def test_passes_on_fresh_build(self, capsys):
        code, out = run_cli(capsys, "check")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("ok  ") == 5

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_all_checks", lambda: [CheckResult("broken", False, "injected")])
        code, out = run_cli(capsys, "check")
        assert code == 1
        assert out == "FAIL  broken: injected\nfirst failure: broken\n"


class TestRun:
    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "run", "--state", "Nf", "--block", "f")
        assert code == 0
        payload = json.loads(out)
        assert payload["p3"] == pytest.approx(16 / 27, abs=1e-12)
        assert payload["survival"] == pytest.approx(8 / 9, abs=1e-12)

    def test_json_keys_sorted(self, capsys):
        _, out = run_cli(capsys, "run", "--state", "Nf")
        keys = list(json.loads(out))
        assert keys == sorted(keys)

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "run", "--state", "Nf", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "p1,p2,p3,survival"
        assert lines[1] == "0.333333333,0.333333333,0.333333333,1.000000000"

    def test_explicit_amplitudes_are_normalized(self, capsys):
        code, out = run_cli(capsys, "run", "--state", "2,0,2,0,1,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["p1"] == pytest.approx(4 / 9, abs=1e-12)

    def test_phase_modifier(self, capsys):
        code, out = run_cli(capsys, "run", "--state", "Nf", "--phase", f"f:{math.pi}")
        payload = json.loads(out)
        assert payload["p3"] == pytest.approx(25 / 27, abs=1e-12)

    def test_duplicate_modifier_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "run", "--state", "Nf", "--block", "f", "--phase", "f:1.0")
        assert code == 2

    def test_bad_state_is_usage_error(self, capsys):
        assert run_cli(capsys, "run", "--state", "nope")[0] == 2
        assert run_cli(capsys, "run", "--state", "0,0,0,0,0,0")[0] == 2
        assert run_cli(capsys, "run", "--state", "1,2,3")[0] == 2

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    def test_huge_and_tiny_amplitudes_normalize_exactly(self, capsys, scale):
        code, out = run_cli(capsys, "run", "--state", f"{scale},0,{scale},0,0,0")
        assert code == 0
        _, unit = run_cli(capsys, "run", "--state", "1,0,1,0,0,0")
        payload, expected = json.loads(out), json.loads(unit)
        assert payload.keys() == expected.keys()
        for key in ("p1", "p2", "p3", "survival"):
            assert payload[key] == pytest.approx(expected[key], abs=1e-14)
        assert payload["state"] == pytest.approx(expected["state"], abs=1e-14)

    @pytest.mark.parametrize("command, state, unit", [
        ("witness", "1e-320,0,0,0,0,0", "1,0,0,0,0,0"),
        ("run", "0,1e-310,0,0,0,0", "0,1,0,0,0,0"),
    ])
    def test_subnormal_amplitudes_print_the_unit_state_output(self, command, state, unit):
        tiny, expected = (run_entry(command, "--state", spec) for spec in (state, unit))
        assert (tiny.returncode, tiny.stderr) == (0, "")
        assert tiny.stdout == expected.stdout

    def test_unknown_flag_exits_2(self, capsys):
        assert usage_error(capsys, "run", "--state", "Nf", "--bogus") == (
            "error: unrecognized arguments: --bogus\n")

    def test_non_numeric_state_part_is_usage_error(self, capsys):
        assert "state amplitudes must be numeric" in usage_error(capsys, "run", "--state", "1,0,x,0,0,0")

    @pytest.mark.parametrize("spec, message", [("f", "needs the form LABEL:VALUE"), ("f:x", "must be numeric")])
    def test_malformed_phase_is_usage_error(self, capsys, spec, message):
        assert message in usage_error(capsys, "run", "--state", "Nf", "--phase", spec)

    def test_out_into_missing_directory_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "run.json"
        assert str(out) in usage_error(capsys, "run", "--state", "Nf", "--out", str(out))
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_is_refused_and_creates_nothing(self, capsys, monkeypatch, tmp_path):
        # '' would name the working directory: a temporary file beside it, then a failed move
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(cli, "evaluate_states", lambda *args: pytest.fail("evaluated the state"))
        assert usage_error(capsys, "witness", "--state", "Nf", "--out", "") == (
            "error: argument --out: must be a path, or - for stdout\n")
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert list(work.iterdir()) == []

    def test_out_with_a_trailing_slash_leaves_an_existing_file_as_it_was(self, capsys, monkeypatch, tmp_path):
        # the slash names a directory; `echo > kept.txt/` is refused the same way
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kept.txt").write_bytes(b"kept\n")
        assert "kept.txt/" in usage_error(capsys, "witness", "--state", "V0", "--out", "kept.txt/")
        assert (tmp_path / "kept.txt").read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]

    def test_out_with_a_trailing_slash_creates_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert "sub/" in usage_error(capsys, "sweep", "--resolution", "3", "--out", "sub/")
        assert list(tmp_path.iterdir()) == []


class TestWitness:
    def test_balanced_state(self, capsys):
        code, out = run_cli(capsys, "witness", "--state", "Nf")
        payload = json.loads(out)
        assert code == 0
        assert payload["witness_direct"] == pytest.approx(1 / 9, abs=1e-12)
        assert payload["witness_from_outputs"] == pytest.approx(1 / 9, abs=1e-12)
        assert payload["gain_port3"] == pytest.approx(7 / 27, abs=1e-12)
        assert payload["p_f"] == pytest.approx(1 / 9, abs=1e-12)
        assert payload["blocked"]["survival"] == pytest.approx(8 / 9, abs=1e-12)

    def test_boundary_state(self, capsys):
        _, out = run_cli(capsys, "witness", "--state", "Bf")
        payload = json.loads(out)
        assert payload["witness_direct"] == pytest.approx(-2 / 51, abs=1e-12)
        assert payload["gain_port3"] == pytest.approx(19 / 153, abs=1e-12)

    def test_single_rail(self, capsys):
        _, out = run_cli(capsys, "witness", "--state", "basis1")
        payload = json.loads(out)
        assert payload["witness_direct"] == pytest.approx(-1 / 6, abs=1e-12)

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "witness", "--state", "V0", "--format", "text")
        assert code == 0
        assert "witness (interior paths):  0.222222222" in out

    @pytest.mark.parametrize("state, label", [(" v0 ", "V0"), ("BASIS2", "basis2"), (" 1, 0,0,0,0,0", " 1, 0,0,0,0,0")])
    def test_text_format_echoes_the_state_label(self, capsys, state, label):
        # a named state by its canonical name, six amplitude parts as typed
        code, out = run_cli(capsys, "witness", f"--state={state}", "--format", "text")
        assert code == 0 and out.startswith(f"state: {label}\n")

    @pytest.mark.parametrize("state", ["1,0,0,0,0,\n0", "1,0,0,0,0,0\n", "1,0\r,0,0,0,0", "1,0,0,\u20280,0,0"])
    def test_six_parts_with_a_line_break_are_refused(self, capsys, state):
        # float() skips the line break, which the state: line would then print
        assert "state must be on one line" in usage_error(capsys, "witness", f"--state={state}", "--format", "text")

    def test_text_format_prints_no_negative_zero(self, capsys):
        # this state's output-side witness is a rounding residue below zero
        code, out = run_cli(capsys, "witness", "--state=-1,1,0,2,0.5,0", "--format", "text")
        assert code == 0
        assert "witness (output side):     0.000000000\n" in out
        assert "-0.000000000" not in out


class TestScans:
    def test_ideal_phase_scan_schema_and_values(self, capsys):
        code, out = run_cli(capsys, "phase-scan", "--state", "Nf", "--steps", "13")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "setting,p1,p2,p3,survival"
        assert len(lines) == 14
        row_pi = lines[7].split(",")
        assert float(row_pi[0]) == pytest.approx(math.pi, abs=1e-9)
        assert row_pi[3] == "0.925925926"
        assert all(line.split(",")[4] == "1.000000000" for line in lines[1:])

    def test_phase_scan_byte_stable(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(["phase-scan", "--state", "Nf", "--steps", "25",
                         "--visibility", "1.0", "--seed", "5", "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noisy_phase_scan_uses_counts_schema(self, capsys):
        code, out = run_cli(capsys, "phase-scan", "--state", "Nf", "--steps", "13",
                            "--rate", "1000", "--duration", "100", "--seed", "3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "setting,n1,n2,n3,duration"
        first = lines[1].split(",")
        assert first[4] == "100.000000000"
        counts = [int(c) for c in first[1:4]]
        mu = 1e5 / 3
        assert all(abs(c - mu) < 5 * math.sqrt(mu) for c in counts)

    @pytest.fixture
    def quarter_turns_only(self, monkeypatch):
        """Fail any propagate call other than fringe_coefficients' four factors."""
        kernel = interferometer.propagate

        def spy(network, states, targets, factors):
            if not np.array_equal(factors, [[1.0], [-1.0], [1j], [-1j]]):
                pytest.fail("propagated the scan grid")
            return kernel(network, states, targets, factors)

        monkeypatch.setattr(interferometer, "propagate", spy)

    @pytest.mark.parametrize("grid", [("--steps", "4"), ("--from", "0.5", "--steps", "9")])
    def test_noisy_phase_scan_runs_on_grids_without_zero_and_pi(self, capsys, quarter_turns_only, grid):
        code, out = run_cli(capsys, "phase-scan", "--state", "V0", *grid, "--visibility", "0.9", "--seed", "1")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "setting,n1,n2,n3,duration"
        assert len(lines) == 1 + int(grid[-1])

    @pytest.mark.parametrize("noise", [(), ("--rate", "50", "--seed", "2")], ids=["ideal", "rate"])
    def test_no_phase_scan_propagates_its_grid(self, capsys, quarter_turns_only, noise):
        code, out = run_cli(capsys, "phase-scan", "--state", COMPLEX_STATE, "--target", "D2", "--steps", "31", *noise)
        assert code == 0
        assert len(out.splitlines()) == 32

    @pytest.mark.parametrize("command, state", [("phase-scan", COMPLEX_STATE), ("trans-scan", COMPLEX_STATE),
                                                ("phase-scan", "V0"), ("trans-scan", "Bf")],
                             ids=["phase-scan complex", "trans-scan complex", "phase-scan V0", "trans-scan Bf"])
    def test_sampled_scan_draws_from_the_ideal_table(self, capsys, monkeypatch, command, state):
        tables, drawn = [], []
        csv, draw = cli._csv, stats.draw_counts

        def keep_table(header, blocks):
            blocks = list(blocks)
            tables.append(blocks)
            return csv(header, blocks)

        def keep_probs(probs, *args):
            drawn.append(probs)
            return draw(probs, *args)

        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 100)
        monkeypatch.setattr(cli, "_csv", keep_table)
        monkeypatch.setattr(stats, "draw_counts", keep_probs)
        grid = ("--state", state, "--target", "S1", "--from", "0.1", "--to", "3.1", "--steps", "301")
        assert run_cli(capsys, command, *grid)[0] == 0
        assert run_cli(capsys, command, *grid, "--rate", "100", "--seed", "4")[0] == 0
        ideal = np.concatenate([np.column_stack(block[1:4]) for block in tables[0]])
        # the noise flags' check draws once at probability 1, then each block draws once
        budget_check, *blocks = drawn
        assert np.ndim(budget_check) == 0 and len(blocks) == 4 == len(tables[1])
        assert np.array_equal(np.concatenate(blocks), ideal)

    @pytest.mark.parametrize("command, noise", [
        ("phase-scan", ()), ("phase-scan", ("--visibility", "0.9", "--seed", "1")),
        ("trans-scan", ()), ("trans-scan", ("--rate", "1000", "--seed", "2")),
    ], ids=["phase-scan ideal", "phase-scan noisy", "trans-scan ideal", "trans-scan sampled"])
    def test_scan_bytes_do_not_depend_on_the_block_size(self, capsys, monkeypatch, command, noise):
        argv = (command, "--state", "V0", "--steps", "1000", *noise)
        code, whole = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
        assert (code, run_cli(capsys, *argv)) == (0, (0, whole))

    def test_span_up_to_the_largest_double_scans_without_a_warning(self, capsys):
        # RuntimeWarnings are errors under pytest, so an overflow warning fails this call
        code, out = run_cli(capsys, "phase-scan", "--state", "Bf", "--to=1.7976931348623157e+308", "--steps", "25")
        assert code == 0
        assert out.splitlines()[-1].startswith("179769313486231570814527423731704356798070567525844996598917")

    def test_trans_scan_starts_at_blocked_distribution(self, capsys):
        code, out = run_cli(capsys, "trans-scan", "--state", "Nf", "--steps", "5")
        lines = out.splitlines()
        assert code == 0
        first = lines[1].split(",")
        assert first[1] == "0.148148148"
        assert first[2] == "0.148148148"
        assert first[3] == "0.592592593"
        last = lines[-1].split(",")
        assert last[3] == "0.333333333"
        assert last[4] == "1.000000000"

    def test_transmittance_domain_check(self, capsys):
        for bound in ("--from=-0.1", "--to=6.3"):
            assert usage_error(capsys, "trans-scan", "--state", "Nf", bound) == (
                "error: transmittance settings must lie in [0, 2*pi]\n")

    @pytest.mark.parametrize("start, stop", [
        (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi + 1e-12), (0.0, 2.0 * math.pi + 2e-12), (-0.0, 1.0),
        (-0.0, -0.0), (-1e-300, 1.0), (2.0 * math.pi, 0.0), (2.0 * math.pi + 1e-12, -0.0),
        (2.0 * math.pi + 2e-12, 0.0), (1.0, -1e-300), (3.0, 3.0), (7.0, 7.0),
    ])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_transmittance_domain_is_checked_on_the_grid_ends(self, capsys, start, stop, steps):
        """The check on --from and --to refuses exactly the spans whose grid leaves [0, 2 pi]."""
        grid = np.linspace(start, stop, steps)
        outside = bool(np.any(grid < 0.0) or np.any(grid > 2.0 * math.pi + 1e-12))
        code = main(["trans-scan", "--state", "Nf", f"--from={start!r}", f"--to={stop!r}", f"--steps={steps}"])
        captured = capsys.readouterr()
        assert (code, captured.err) == ((2, "error: transmittance settings must lie in [0, 2*pi]\n")
                                        if outside else (0, ""))

    def test_trans_scan_rejects_visibility_noise(self, capsys):
        assert usage_error(capsys, "trans-scan", "--state", "Nf", "--visibility", "0.9") == (
            "error: unrecognized arguments: --visibility 0.9\n")

    def test_trans_scan_poisson_sampling(self, capsys):
        code, out = run_cli(capsys, "trans-scan", "--state", "Nf", "--steps", "5",
                            "--rate", "1000", "--duration", "100", "--seed", "9")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "setting,n1,n2,n3,duration"

    def test_bad_steps_is_usage_error(self, capsys):
        assert run_cli(capsys, "phase-scan", "--state", "Nf", "--steps", "0")[0] == 2

    @pytest.mark.parametrize("command", ["phase-scan", "trans-scan"])
    def test_input_rail_target_is_usage_error(self, capsys, command):
        assert run_cli(capsys, command, "--state", "Nf", "--target", "1", "--steps", "3")[0] == 2

    @pytest.mark.parametrize("command", ["phase-scan", "trans-scan"])
    def test_bad_target_is_refused_before_the_grid_is_built(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli.np, "linspace", lambda *args: pytest.fail("built the grid"))
        assert usage_error(capsys, command, "--state", "Nf", "--target", "1", "--steps", "3") == (
            "error: modifier target must be an interior path, got '1'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--state", "Nf", "--phase", "f:nan", "--format", "csv"),
        ("run", "--state", "Nf", "--attenuate", "D2:inf"),
        ("sample", "--state", "Nf", "--phase", "S1:-inf"),
        ("phase-scan", "--state", "Nf", "--to", "nan", "--steps", "3"),
        ("phase-scan", "--state", "Nf", "--from", "inf", "--steps", "3"),
        ("trans-scan", "--state", "Nf", "--to", "nan", "--steps", "3"),
        ("sample", "--state", "Nf", "--setting", "nan", "--format", "csv"),
        ("phase-scan", "--state", "Nf", "--from=-1e308", "--to=1e308", "--steps=3"),
        ("phase-scan", "--state", "Nf", "--visibility", "0.9", "--from=-1e308", "--to=1e308", "--steps=3"),
        ("trans-scan", "--state", "Nf", "--from=-1e308", "--to=1e308", "--steps=3"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:5]),
)
def test_non_finite_modifier_or_setting_is_one_line_usage_error(capsys, argv):
    usage_error(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("phase-scan", "--state", "Nf", "--from=-1e308", "--to=1e308", "--steps=3"),
        ("sample", "--state", "Nf", "--seed", "1e308"),
        ("phase-scan", "--state", "Nf", "--steps", "3", "--from", "-inf"),
        ("phase-scan", "--state", "Nf", "--steps", "3", "--seed", "-1"),
        ("sweep", "--resolution", "2", "--samples", "0"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_usage_errors_are_one_line_in_a_fresh_process(argv):
    proc = run_entry(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, flag, value", [
    (("phase-scan", "--state", "Nf", "--steps", "3"), "--from", "-1e-3"),
    (("phase-scan", "--state", "Nf", "--steps", "3"), "--to", "-1e300"),
    (("phase-scan", "--state", "Nf", "--steps", "3", "--to=1e308"), "--from", "-1e308"),
    (("sample", "--state", "Nf", "--format", "csv"), "--setting", "-2e5"),
    (("phase-scan", "--state", "Nf", "--steps", "3"), "--rate", "-1e3"),
    (("witness",), "--state", "-1,0,0,0,0,0"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_a_value_that_starts_with_a_minus_and_a_digit_is_a_value(capsys, argv, flag, value):
    expected = main([*argv, f"{flag}={value}"]), capsys.readouterr()
    assert "expected one argument" not in expected[1].err
    assert (main([*argv, flag, value]), capsys.readouterr()) == expected


@pytest.mark.parametrize("argv, message", [
    (("phase-scan", "--state", "Nf", "--steps", "3", "--from", "-inf"), "--from and --to must be finite"),
    (("phase-scan", "--state", "Nf", "--steps", "3", "--to", "-Infinity"), "--from and --to must be finite"),
    (("phase-scan", "--state", "Nf", "--steps", "3", "--from", "-NaN"), "--from and --to must be finite"),
    (("witness", "--state", "-inf,0,0,0,0,0"), "state amplitudes must be finite"),
    (("sample", "--state", "Nf", "--setting", "-inf"), "--setting must be finite"),
], ids=lambda value: " ".join(value[-2:]) if isinstance(value, tuple) else None)
def test_a_value_that_starts_with_a_minus_and_inf_or_nan_is_a_value(capsys, argv, message):
    assert usage_error(capsys, *argv) == f"error: {message}\n"


def test_a_flag_where_a_value_belongs_is_still_a_missing_value(capsys):
    assert usage_error(capsys, "phase-scan", "--state", "Nf", "--to", "--state", "Nf") == (
        "error: argument --to: expected one argument\n")
    assert usage_error(capsys, "phase-scan", "--state", "Nf", "--from=-1e308", "--to=1e308", "--steps=3") == (
        "error: --to minus --from must be finite\n")


# sha256 of each --help at COLUMNS=80, recorded before --out was added to
# every subcommand in one loop; fit's was recorded again when --model came to
# take any state. Python 3.13's argparse pads the command list to the longest
# name, which moves the top-level help alone: it has its own digest there.
HELP_SHA256 = {
    (): "b83055f52c28cc71603d954304d49a5071b759c04214a2f87860fecb1992d99c" if sys.version_info >= (3, 13)
        else "9d7445cd82ae56f246316def16047bcdda9886c73fdd95c32ec19d33476de2b5",
    ("check",): "e3ce000f543c2e58a689eb64166e140150fbe7e2c0fbd5e393cd415f9928c165",
    ("run",): "fe5ab3d1d26ca50e2f97526d8a605635564efbaef9008d2253d2fcdefe8e6fd2",
    ("witness",): "9b7ed6c686d484c49aebdcc76f0b06737e6c6688c7c9eb5982e77e68f5ba82aa",
    ("phase-scan",): "92ba9a8ed910467bc76280a85820eb13abce153a2c68acf39cc0d0a299f4c408",
    ("trans-scan",): "0244d50035f48faad6b06d4c27812db86c41c193bca09dabfdb6f83a8a90aea2",
    ("sweep",): "919800de29fedeb84927d7724709a38d2bd1644e57608f2cc43b61df48e3badc",
    ("sample",): "0f8d9b8195bf0fa325e497c4aac3907237487e359618b7722b048b29e451a90d",
    ("fit",): "c12ab247af4d6cbde76ebd67c07893444571f67936539b01ad7dbc0624e13c0a",
    ("reproduce",): "f76bb0902513aaff5ead65d08e7a51c4d9b2d0e2b60dc9e6cc664305937afcba",
}


def test_help_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        with pytest.raises(SystemExit) as err:
            main([*command, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("argv", [("phase-scan", "--state", "Nf", "--steps", "1000000"),
                                  ("sweep", "--resolution", "1001")], ids=lambda argv: argv[0])
def test_closed_pipe_ends_the_script_by_sigpipe(argv):
    """A reader that stops after one line ends the script as it ends `cat`:
    killed by SIGPIPE, with nothing on stderr."""
    with subprocess.Popen([sys.executable, "-c", "from ctxscope.cli import entry; entry()", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": str(SRC)}) as proc:
        assert proc.stdout.readline().startswith((b"setting,", b"alpha,"))
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


MAIN_CODE = "from ctxscope.cli import main; raise SystemExit(main())"
ENTRY_CODE = "from ctxscope.cli import entry; entry()"
MODULE_CODE = "import runpy; runpy.run_module('ctxscope.cli', run_name='__main__')"  # as python -m ctxscope.cli


def run_fresh(code: str, *argv, cwd=None, redirect: str = "", stdin=None) -> tuple[int, bytes, bytes]:
    """Status, stdout and stderr of code run on argv in a fresh interpreter,
    started by a shell with the redirection applied if one is given, such as
    ">&-" to start it with stdout closed, and reading `stdin` (a file) if one
    is given. Stdout is buffered, as the installed script's is:
    PYTHONUNBUFFERED would write every chunk at once and hide a byte lost at
    exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    command = [sys.executable, "-c", code, *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    proc = subprocess.run(command, stdin=stdin, capture_output=True, timeout=60, cwd=cwd,
                          env={**env, "PYTHONPATH": str(SRC)})
    return proc.returncode, proc.stdout, proc.stderr


FLAT_COUNTS = "setting,n1,n2,n3,duration\n" + "0.5,10,20,30,1\n" * 4


@pytest.mark.parametrize("argv, status", [
    (("check",), 0),
    (("run", "--state", "Nf", "--block", "f", "--format", "csv"), 0),
    (("witness", "--state", "Nf"), 0),
    (("witness", "--state", "V0", "--format", "text"), 0),
    (("phase-scan", "--state", "Nf", "--steps", "25"), 0),
    (("trans-scan", "--state", "V0", "--steps", "25", "--rate", "1000", "--seed", "2"), 0),
    (("sweep", "--resolution", "101"), 0),
    (("sweep", "--complex", "--samples", "100", "--seed", "3"), 0),
    (("sample", "--state", "Nf", "--seed", "42"), 0),
    (("fit", "--input", "scan.csv", "--model", "Nf"), 0),
    (("reproduce",), 0),
    (("--help",), 0),
    (("fit", "--help"), 0),
    (("witness", "--state", "nope"), 2),
    (("fit", "--input", "flat.csv", "--model", "Nf"), 3),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_entry_exits_with_the_bytes_and_status_of_main(tmp_path, argv, status):
    """entry() ends the process with os._exit once its output is flushed; a
    fresh process must end with what main() under the usual exit gives, run
    as the installed script and as python -m ctxscope.cli alike."""
    assert main(["phase-scan", "--state", "Nf", "--steps", "101", "--visibility", "0.9", "--seed", "1",
                 "--out", str(tmp_path / "scan.csv")]) == 0
    (tmp_path / "flat.csv").write_text(FLAT_COUNTS)
    expected = run_fresh(MAIN_CODE, *argv, cwd=tmp_path)
    assert expected[0] == status
    assert expected[1] or expected[2]
    assert run_fresh(ENTRY_CODE, *argv, cwd=tmp_path) == expected
    assert run_fresh(MODULE_CODE, *argv, cwd=tmp_path) == expected


# Tables whose first CSV block is full, so that the worker thread formats it, with their line counts.
LONG_TABLES = [
    # two CSV blocks and the trailer line, which is still in stdout's buffer when main() returns
    (("sweep", "--resolution", "300"), 300 * 300 + 2),
    (("sweep", "--complex", "--samples", "70000", "--seed", "1"), 70_000 + 2),
    (("phase-scan", "--state", "V0", "--steps", "65537", "--visibility", "0.9", "--seed", "4"), 65_537 + 1),
]


def test_entry_writes_a_table_to_stdout_and_to_out_alike(tmp_path):
    for argv, lines in LONG_TABLES:
        expected = run_fresh(MAIN_CODE, *argv)
        assert expected[0] == 0 and expected[1].count(b"\n") == lines
        assert run_fresh(ENTRY_CODE, *argv) == expected
        assert run_fresh(ENTRY_CODE, *argv, "--out", str(tmp_path / "table.csv")) == (0, b"", b"")
        assert (tmp_path / "table.csv").read_bytes() == expected[1]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def set_blas_threads(monkeypatch, **chosen) -> None:
    """Leave only the chosen BLAS thread variables in the environment that fresh children inherit."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in chosen.items():
        monkeypatch.setenv(name, value)


def test_blas_threads_do_not_change_the_bytes(monkeypatch, tmp_path):
    # a sweep of two full CSV blocks and a part, and fit of more than one reader block,
    # print the same bytes with the one BLAS thread ctxscope starts as with a pool the user chose
    sweep = ("sweep", "--resolution", "363")
    assert 363 * 363 > 2 * cli.CSV_BLOCK_ROWS
    counts = tmp_path / "counts.csv"
    assert main(["phase-scan", "--state", "V0", "--steps", "65537", "--visibility", "0.9", "--seed", "5",
                 "--out", str(counts)]) == 0
    fit = ("fit", "--input", str(counts), "--model", "V0")
    set_blas_threads(monkeypatch)
    expected = [run_fresh(ENTRY_CODE, *sweep), run_fresh(ENTRY_CODE, *fit)]
    assert expected[0][0] == 0 and expected[0][1].count(b"\n") == 363 * 363 + 2
    assert expected[1][0] == 0 and json.loads(expected[1][1])["settings"] == 65_537
    set_blas_threads(monkeypatch, OPENBLAS_NUM_THREADS="2")
    assert [run_fresh(ENTRY_CODE, *sweep), run_fresh(ENTRY_CODE, *fit)] == expected


# The OS threads of a fresh interpreter after `imports`, and whether its environment is as it started.
THREADS_CODE = """import os
before = dict(os.environ)
{imports}
print(len(os.listdir("/proc/self/task")), dict(os.environ) == before)"""


def threads_after(imports: str) -> tuple[int, bool]:
    status, out, err = run_fresh(THREADS_CODE.format(imports=imports))
    assert (status, err) == (0, b"")
    threads, unchanged = out.split()
    return int(threads), unchanged == b"True"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task (Linux)")
class TestBlasThreads:
    def test_ctxscope_starts_openblas_single_threaded(self, monkeypatch):
        set_blas_threads(monkeypatch)
        assert threads_after("import ctxscope.cli") == (1, True)

    @pytest.mark.parametrize("chosen, imports", [
        ({"OPENBLAS_NUM_THREADS": "2"}, "import ctxscope.cli"),
        ({"OMP_NUM_THREADS": "2"}, "import ctxscope.cli"),
        ({}, "import numpy; import ctxscope.cli"),
    ], ids=["OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2", "numpy imported first"])
    def test_a_pool_chosen_elsewhere_is_numpys_own(self, monkeypatch, chosen, imports):
        set_blas_threads(monkeypatch, **chosen)
        assert threads_after(imports) == threads_after("import numpy")


class Device(io.RawIOBase):
    """A raw stream that keeps every byte written to it, or that refuses every
    write as a full disk does."""

    def __init__(self, full: bool = False) -> None:
        super().__init__()
        self.data, self.full = bytearray(), full

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        if self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.data += b
        return len(b)


class Exited(BaseException):
    """Raised in place of os._exit, which would end the test process."""


def entry_status(monkeypatch, argv) -> int:
    """entry() on argv, with os._exit raising its status instead of ending the test process."""
    monkeypatch.setattr(sys, "argv", ["ctxscope", *argv])

    def record(status):
        raise Exited(status)

    monkeypatch.setattr(os, "_exit", record)
    handler = signal.getsignal(signal.SIGPIPE)
    try:
        with pytest.raises(Exited) as exited:
            cli.entry()
    finally:
        signal.signal(signal.SIGPIPE, handler)
    return exited.value.args[0]


def entry_in_process(monkeypatch, argv, stdout: Device) -> tuple[int, bytes, bytes]:
    """entry_status(), then what reached stdout and stderr. Both are buffered
    text layers over Device streams that keep up to 64 KiB unwritten until
    they are flushed, so a byte left unflushed at the exit is missing."""
    stderr = Device()
    for name, device in (("stdout", stdout), ("stderr", stderr)):
        monkeypatch.setattr(sys, name, io.TextIOWrapper(io.BufferedWriter(device, 1 << 16), encoding="utf-8"))
    return entry_status(monkeypatch, argv), bytes(stdout.data), bytes(stderr.data)


class TestEntryExit:
    """entry() passes main()'s status to os._exit, once main() has flushed stdout and stderr."""

    def test_after_a_16_block_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 64)
        sizes = spy_evaluate(monkeypatch)
        argv, start = ("sweep", "--resolution", "32"), threading.active_count()
        expected = run_cli(capsys, *argv)
        assert len(sizes) == 16
        status, out, err = entry_in_process(monkeypatch, argv, Device())
        assert (status, out.decode(), err) == (*expected, b"")
        assert threading.active_count() == start

    def test_after_a_producer_error_mid_table(self, capsys, monkeypatch):
        def fail_eighth(first_row, metrics):
            if first_row == 7 * 64:
                raise ValueError("injected failure")

        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 64)
        sizes = spy_evaluate(monkeypatch, fail_eighth)
        argv, start = ("sweep", "--resolution", "32"), threading.active_count()
        assert main(list(argv)) == 2
        expected = capsys.readouterr()
        assert expected.out.count("\n") > 6 * 64 and expected.err == "error: injected failure\n"
        sizes.clear()
        status, out, err = entry_in_process(monkeypatch, argv, Device())
        assert (status, out.decode(), err.decode()) == (2, expected.out, expected.err)
        assert threading.active_count() == start

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_after_a_write_to_a_full_device(self, monkeypatch):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 64)
        start = threading.active_count()
        status, out, err = entry_in_process(monkeypatch, ("sweep", "--resolution", "32", "--out", "/dev/full"),
                                            Device())
        assert (status, out, err) == (2, b"", b"error: [Errno 28] No space left on device\n")
        assert threading.active_count() == start

    def test_a_flush_that_fails_is_one_error_line(self, monkeypatch):
        # the JSON waits in stdout's buffer until _write flushes it to a full disk
        start = threading.active_count()
        status, out, err = entry_in_process(monkeypatch, ("witness", "--state", "Nf"), Device(full=True))
        assert (status, out, err) == (2, b"", b"error: [Errno 28] No space left on device\n")
        assert threading.active_count() == start

    @pytest.mark.parametrize("closed", ["stdout", "stderr"])
    def test_a_stream_closed_at_start_is_not_flushed(self, monkeypatch, tmp_path, closed):
        # Python sets sys.stdout or sys.stderr to None when the script starts with that descriptor closed
        monkeypatch.setattr(sys, closed, None)
        assert entry_status(monkeypatch, ("witness", "--state", "Nf", "--out", str(tmp_path / "w.json"))) == 0
        assert json.loads((tmp_path / "w.json").read_text())["p_f"] > 0


class TestBrokenStreams:
    """A stream that is closed or full ends main() with its status and at most one error line."""

    def test_a_closed_stdout_is_one_error_line(self, capsys, monkeypatch):
        # Python sets sys.stdout to None when the script starts with it closed
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["witness", "--state", "V0", "--out", "-"]) == 2
        assert capsys.readouterr().err == "error: [Errno 9] stdout is closed\n"

    def test_a_closed_stdin_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert usage_error(capsys, "fit", "--input", "-", "--model", "V0") == (
            "error: cannot read '-': [Errno 9] stdin is closed\n")

    def test_a_stdin_the_caller_closed_names_its_path(self, capsys, monkeypatch):
        # closing sys.stdin closes its binary buffer too, which a text layer refuses with ValueError
        stdin = open(os.devnull, encoding="utf-8")  # a text layer on a buffered file, as sys.stdin is
        stdin.close()
        monkeypatch.setattr(sys, "stdin", stdin)
        assert usage_error(capsys, "fit", "--input", "-", "--model", "Nf") == (
            "error: cannot read '-': I/O operation on closed file\n")

    @pytest.mark.parametrize("argv, status", [(("witness", "--state", "Xf"), 2),
                                              (("fit", "--input", "flat.csv", "--model", "Nf"), 3)],
                             ids=["usage error", "degenerate fit"])
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    def test_an_unwritable_stderr_keeps_the_status(self, capsys, monkeypatch, tmp_path, argv, status, stderr):
        (tmp_path / "flat.csv").write_text(FLAT_COUNTS)
        monkeypatch.chdir(tmp_path)
        device = Device(full=True)
        # line-buffered, as the script's stderr is: the error line reaches the full device at once
        monkeypatch.setattr(sys, "stderr", None if stderr == "closed" else
                            io.TextIOWrapper(io.BufferedWriter(device), encoding="utf-8", line_buffering=True))
        assert main(list(argv)) == status
        assert capsys.readouterr().out == ""
        device.full = False  # lets the wrapper flush what it holds when it is collected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("redirect, argv, status, err", [
    (">&-", ("witness", "--state", "V0"), 2, b"error: [Errno 9] stdout is closed\n"),
    ("<&-", ("fit", "--input", "-", "--model", "Nf"), 2, b"error: cannot read '-': [Errno 9] stdin is closed\n"),
    ("2>&-", ("witness", "--state", "Xf"), 2, b""),
    ("2>/dev/full", ("witness", "--state", "Xf"), 2, b""),
    ("2>&-", ("fit", "--input", "flat.csv", "--model", "Nf"), 3, b""),
    ("2>/dev/full", ("fit", "--input", "flat.csv", "--model", "Nf"), 3, b""),
    (">/dev/full", ("witness", "--state", "Nf"), 2, b"error: [Errno 28] No space left on device\n"),
], ids=["stdout closed", "stdin closed", "usage error, stderr closed", "usage error, stderr full",
        "degenerate fit, stderr closed", "degenerate fit, stderr full", "stdout full"])
def test_a_broken_stream_is_a_status_in_a_fresh_process(tmp_path, redirect, argv, status, err):
    (tmp_path / "flat.csv").write_text(FLAT_COUNTS)
    assert run_fresh(ENTRY_CODE, *argv, cwd=tmp_path, redirect=redirect) == (status, b"", err)


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--state", "Nf", "--rate", "inf"),
        ("sample", "--state", "Nf", "--rate", "1e308", "--duration", "10"),
        ("sample", "--state", "Nf", "--duration", "inf", "--format", "csv"),
        ("phase-scan", "--state", "V0", "--visibility", "0.9", "--rate", "inf"),
        ("trans-scan", "--state", "Nf", "--rate", "1e200", "--duration", "1e200"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:]),
)
def test_infinite_photon_budget_is_one_line_usage_error(capsys, argv):
    assert "rate * duration must be finite" in usage_error(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("phase-scan", "--state", "V0", "--rate", "1e300"),
        ("sample", "--state", "V0", "--rate", "1e300"),
        ("trans-scan", "--state", "Nf", "--target", "S2", "--rate", "1e300"),
    ],
    ids=lambda argv: argv[0],
)
def test_budget_beyond_int64_counts_is_one_line_usage_error(capsys, argv):
    assert "too large to count in int64" in usage_error(capsys, *argv)


def test_scan_refuses_a_budget_beyond_int64_even_where_every_mean_is_below_it(capsys):
    # every mean on this grid is below NumPy's Poisson limit, so they could be drawn; the budget is above it
    assert usage_error(capsys, "phase-scan", "--state", "V0", "--from", "0", "--to", "0.5", "--steps", "10",
                       "--rate", "1e17", "--duration", "95") == (
        "error: rate * duration = 9.5e+18 is too large to count in int64\n")


def test_counts_beyond_int64_in_a_later_block_print_no_table():
    # the first 65,536 settings keep every mean below NumPy's limit; later ones do not
    proc = run_entry("phase-scan", "--state", "V0", "--from", "5", "--to", "10", "--steps", "100000",
                     "--rate", "1e17", "--duration", "95")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: rate * duration = 9.5e+18 is too large to count in int64\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--state", "Nf", "--rate", "1e15", "--duration", "1e-10", "--format", "csv"),
        ("phase-scan", "--state", "Nf", "--steps", "3", "--rate", "1e15", "--duration", "1e-10"),
        ("trans-scan", "--state", "Nf", "--steps", "3", "--rate", "1e15", "--duration", "4e-10"),
    ],
    ids=lambda argv: argv[0],
)
def test_duration_printing_as_zero_in_counts_csv_is_one_line_usage_error(capsys, argv):
    assert "would print as 0.000000000 in the counts CSV" in usage_error(capsys, *argv)


def test_invalid_rate_is_reported_before_a_duration_printing_as_zero(capsys):
    err = usage_error(capsys, "sample", "--state", "Nf", "--rate", "-1", "--duration", "1e-10", "--format", "csv")
    assert "rate must be positive" in err


NOISE_FLAG_ERRORS = [
    (("trans-scan", "--visibility", "0.5"), "unrecognized arguments: --visibility 0.5"),
    (("phase-scan", "--visibility", "1.2"), "visibility must lie in [0, 1], got 1.2"),
    (("trans-scan", "--rate", "-1"), "rate must be positive, got -1.0"),
    (("phase-scan", "--rate", "-1"), "rate must be positive, got -1.0"),
    (("phase-scan", "--duration", "0"), "duration must be positive, got 0.0"),
    (("trans-scan", "--rate", "1e200", "--duration", "1e200"), "rate * duration must be finite, got 1e+200 * 1e+200"),
    (("phase-scan", "--rate", "5e-324", "--duration", "0.5"), "rate * duration underflows to 0, got 5e-324 * 0.5"),
    (("trans-scan", "--duration", "1e-11"), "--duration 1e-11 would print as 0.000000000 in the counts CSV"),
    (("phase-scan", "--duration", "1e-11"), "--duration 1e-11 would print as 0.000000000 in the counts CSV"),
    (("phase-scan", "--rate", "1000", "--seed", "-1"), "seed must fit in an unsigned 64-bit integer, got -1"),
]


@pytest.mark.parametrize("argv, message", NOISE_FLAG_ERRORS, ids=[" ".join(argv) for argv, _ in NOISE_FLAG_ERRORS])
def test_bad_noise_flags_are_refused_before_the_scan_runs(capsys, monkeypatch, argv, message):
    def ran(*args, **kwargs):
        raise AssertionError("the scan ran before its noise flags were checked")

    monkeypatch.setattr(interferometer, "propagate", ran)
    monkeypatch.setattr(interferometer, "fringe_coefficients", ran)
    monkeypatch.setattr(cli.np, "linspace", ran)
    assert usage_error(capsys, argv[0], "--state", "Nf", "--steps", "7", *argv[1:]) == f"error: {message}\n"


SEED_ERROR = "seed must fit in an unsigned 64-bit integer, got -1"
# Flags that the chosen mode does not read: an ideal scan draws no counts and a
# grid sweep no Haar states, a Haar sweep builds no grid. Each is still checked.
UNREAD_FLAG_ERRORS = [
    (("phase-scan", "--state", "Nf", "--steps", "2", "--seed", "-1"), SEED_ERROR),
    (("trans-scan", "--state", "Nf", "--steps", "2", "--seed", "-1"), SEED_ERROR),
    (("sweep", "--resolution", "2", "--seed", "-1"), SEED_ERROR),
    (("sweep", "--resolution", "2", "--samples", "0"), "--samples must be at least 1"),
    (("sweep", "--resolution", "2", "--samples", "16000001"),
     "--samples 16000001 asks for 16000001 rows; at most 16000000 are allowed"),
    (("sweep", "--complex", "--samples", "2", "--resolution", "1"), "--resolution must be at least 2"),
    (("sweep", "--complex", "--samples", "2", "--resolution", "4001"),
     "--resolution 4001 asks for 16008001 rows; at most 16000000 are allowed"),
]


@pytest.mark.parametrize("argv, message", UNREAD_FLAG_ERRORS, ids=[" ".join(argv) for argv, _ in UNREAD_FLAG_ERRORS])
def test_a_flag_the_mode_does_not_read_is_still_checked(capsys, argv, message):
    assert usage_error(capsys, *argv) == f"error: {message}\n"


def test_tiny_duration_still_samples_to_json(capsys):
    code, out = run_cli(capsys, "sample", "--state", "Nf", "--rate", "1e15", "--duration", "1e-10")
    assert code == 0
    assert json.loads(out)["duration"] == 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--state", "Nf", "--rate", "1e-300", "--duration", "1e-300"),
        ("phase-scan", "--state", "V0", "--steps", "3", "--rate", "5e-324", "--duration", "0.5"),
    ],
    ids=lambda argv: argv[0],
)
def test_underflowing_photon_budget_is_one_line_usage_error(capsys, argv):
    assert "rate * duration underflows to 0" in usage_error(capsys, *argv)


def test_large_finite_budget_still_counts(capsys):
    code, out = run_cli(capsys, "sample", "--state", "V0", "--rate", "1e17", "--duration", "100")
    assert code == 0
    counts = json.loads(out)["counts"]
    for count, mean in zip(counts, (1e19 * 4 / 9, 1e19 * 4 / 9, 1e19 / 9)):
        assert isinstance(count, int)
        assert abs(count - mean) < 1e-6 * mean


# Runs the CLI on its arguments and prints the child's peak RSS in KiB. Forked
# from a large process, a child's ru_maxrss starts at that process's high-water
# mark, so a small interpreter in between keeps the test process's out of it.
PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-c", "from ctxscope.cli import entry; entry()", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def peak_rss_mb(*argv) -> float:
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True, text=True, check=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    return int(proc.stdout) / 1024


@pytest.mark.parametrize("argv", [("phase-scan", "--state", "Nf", "--visibility", "0.9", "--seed", "1"),
                                  ("trans-scan", "--state", "V0")], ids=["noisy phase-scan", "ideal trans-scan"])
def test_scan_memory_does_not_grow_with_the_table(argv):
    # a scan holds its settings grid (8 MB per 10^6 steps) and one block of rows
    one, two = (peak_rss_mb(*argv, "--steps", str(steps), "--out", os.devnull) for steps in (10 ** 6, 2 * 10 ** 6))
    assert two - one < 30.0


def test_fit_memory_does_not_grow_with_the_input(tmp_path):
    # fit holds one block of lines and the 6x6 R factor, not the input (about 200 MB per 10^6 rows)
    peaks = []
    for steps in (10 ** 6, 2 * 10 ** 6):
        path = tmp_path / f"scan{steps}.csv"
        assert main(["phase-scan", "--state", "Nf", "--visibility", "0.9", "--seed", "1", "--steps", str(steps),
                     "--out", str(path)]) == 0
        peaks.append(peak_rss_mb("fit", "--input", str(path), "--model", "Nf", "--out", os.devnull))
        path.unlink()
    assert peaks[1] - peaks[0] < 30.0


def test_cli_import_does_not_load_scipy():
    subprocess.run(
        [sys.executable, "-c", "import ctxscope.cli, sys; assert 'scipy' not in sys.modules; "
                               "assert 'dataclasses' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )


def test_commands_without_a_table_do_not_load_concurrent_futures():
    # concurrent.futures imports logging; only the CSV emitter needs it
    subprocess.run(
        [sys.executable, "-c", "import contextlib, io, sys; from ctxscope.cli import main\n"
                               "with contextlib.redirect_stdout(io.StringIO()):\n"
                               "    assert main(['witness', '--state', 'Nf']) == 0\n"
                               "    assert main(['check']) == 0\n"
                               "assert 'concurrent.futures' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )


# Each table here is shorter than one CSV block and is formatted on the calling
# thread; a sweep of 70,000 states fills its first block and starts the worker.
ONE_BLOCK_TABLES = """import contextlib, io, os, sys
from ctxscope.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(['phase-scan', '--state', 'V0', '--steps', '5001', '--visibility', '0.9', '--seed', '1',
                 '--out', sys.argv[1]]) == 0
    assert main(['trans-scan', '--state', 'Nf', '--target', 'S2', '--steps', '5001', '--rate', '200',
                 '--seed', '11']) == 0
    assert main(['run', '--state', 'Nf', '--block', 'f', '--format', 'csv']) == 0
    assert main(['sample', '--state', 'V0', '--seed', '1', '--format', 'csv']) == 0
loaded = {'concurrent.futures', 'logging', 'json'} & set(sys.modules)
assert not loaded, sorted(loaded)
assert main(['sweep', '--complex', '--samples', '70000', '--out', os.devnull]) == 0
assert 'concurrent.futures' in sys.modules and 'json' not in sys.modules
"""


def test_a_one_block_table_loads_neither_concurrent_futures_nor_logging(tmp_path):
    subprocess.run(
        [sys.executable, "-c", ONE_BLOCK_TABLES, str(tmp_path / "scan.csv")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )


def test_cli_import_loads_no_archive_module():
    # `_write` keeps a file's mode with os.chmod; shutil would bring fnmatch and
    # the compression modules. -S keeps site's own imports out of the child.
    import numpy
    path = os.pathsep.join([os.path.dirname(os.path.dirname(numpy.__file__)), str(SRC)])
    subprocess.run(
        [sys.executable, "-S", "-c", "import sys, numpy, ctxscope.cli\n"
                                     "archives = {'shutil', 'fnmatch', 'bz2', 'lzma', 'zlib', '_compression'}\n"
                                     "assert not archives & set(sys.modules), sorted(archives & set(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=120,
    )


# A caller that runs fit on stdin in process, then prints its own stdin's settings.
FIT_STDIN_IN_PROCESS = """import sys
from ctxscope.cli import main
caller = sys.stdin.buffer.readline() if sys.argv[1:] == ["--caller-reads-a-line"] else b""
status = main(["fit", "--input", "-", "--model", "Nf"])
sys.stdout.flush()
print(caller, sys.stdin.encoding, sys.stdin.errors, file=sys.stderr)
sys.exit(status)
"""


@pytest.mark.parametrize("caller_line", [b"", b"a line the caller reads first\n"],
                         ids=["untouched", "caller read a line"])
def test_fit_from_stdin_leaves_the_callers_stdin_as_it_was(capsys, tmp_path, caller_line):
    # the reader wraps sys.stdin.buffer in a text layer of its own and detaches
    # it, so the caller's sys.stdin keeps the encoding it started with
    path = tmp_path / "scan.csv"
    assert main(["phase-scan", "--state", "Nf", "--steps", "7", "--seed", "2", "--rate", "50",
                 "--out", str(path)]) == 0
    _, from_file = run_cli(capsys, "fit", "--input", str(path), "--model", "Nf")
    argv = ["--caller-reads-a-line"] if caller_line else []
    proc = subprocess.run([sys.executable, "-c", FIT_STDIN_IN_PROCESS, *argv], input=caller_line + path.read_bytes(),
                          capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "latin-1"})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == from_file
    assert proc.stderr.decode() == f"{caller_line!r} iso8859-1 strict\n"


def test_fit_does_not_load_numpy_ma(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("setting,n1,n2,n3,duration\n"
                    + "".join(f"{phi},{10 + k},20,30,1.0\n" for k, phi in enumerate((0.0, 1.0, 2.0, 3.0))))
    # NumPy 1.x imports numpy.ma inside `import numpy`; there is nothing to test (exit 3).
    code = ("import sys, numpy; 'numpy.ma' in sys.modules and sys.exit(3); "
            "from ctxscope.cli import main; "
            f"assert main(['fit', '--input', {str(path)!r}, '--model', 'Nf']) == 0; "
            "assert 'numpy.ma' not in sys.modules")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=120,
    )
    if proc.returncode == 3:
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert proc.returncode == 0, proc.stderr.decode()


class TestSweep:
    def test_small_grid_schema_and_footer(self, capsys):
        code, out = run_cli(capsys, "sweep", "--resolution", "21")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "alpha,beta,witness,gain,pf,pd1,pd2"
        assert len(lines) == 2 + 21 * 21
        assert lines[-1].startswith("# max_witness=")
        footer_max = float(lines[-1].split("=")[1].split()[0])
        closed_form = (math.sqrt(33.0) - 3.0) / 12.0
        assert abs(footer_max - closed_form) < 5e-3

    def test_every_row_satisfies_witness_le_gain(self, capsys):
        _, out = run_cli(capsys, "sweep", "--resolution", "31")
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        some_gain_without_witness = False
        for row in rows:
            witness, gain = float(row[2]), float(row[3])
            assert witness <= gain + 1e-9
            if gain > 0.01 and witness < -0.01:
                some_gain_without_witness = True
        assert some_gain_without_witness

    def test_nested_grids_monotone_max(self, capsys):
        maxima = []
        for resolution in (26, 51, 101):
            _, out = run_cli(capsys, "sweep", "--resolution", str(resolution))
            maxima.append(float(out.splitlines()[-1].split("=")[1].split()[0]))
        assert maxima[0] <= maxima[1] <= maxima[2]

    def test_complex_mode(self, capsys):
        code, out = run_cli(capsys, "sweep", "--complex", "--samples", "500", "--seed", "8")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "index,witness,gain,pf,pd1,pd2"
        assert len(lines) == 2 + 500
        for line in lines[1:-1]:
            row = line.split(",")
            assert float(row[1]) <= float(row[2]) + 1e-9

    def test_resolution_too_small(self, capsys):
        assert run_cli(capsys, "sweep", "--resolution", "1")[0] == 2


def spy_evaluate(monkeypatch, edit=None):
    """Replace cli.evaluate_states by a wrapper that records each block's row
    count and may edit the metrics via edit(first_row, metrics)."""
    real, sizes = cli.evaluate_states, []

    def spy(network, states):
        metrics = real(network, states)
        if edit is not None:
            edit(sum(sizes), metrics)
        sizes.append(len(states))
        return metrics

    monkeypatch.setattr(cli, "evaluate_states", spy)
    return sizes


class TestSweepStreaming:
    @pytest.mark.parametrize("argv, rows", [
        (("sweep", "--resolution", "101"), 101 * 101),
        (("sweep", "--complex", "--samples", "2500", "--seed", "4"), 2500),
    ])
    def test_no_evaluation_sees_more_than_one_block(self, capsys, monkeypatch, argv, rows):
        _, whole = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 999)
        sizes = spy_evaluate(monkeypatch)
        code, streamed = run_cli(capsys, *argv)
        assert code == 0
        assert max(sizes) <= 999 and sum(sizes) == rows and len(sizes) == -(-rows // 999)
        assert streamed == whole

    @pytest.mark.parametrize("existing", [True, False])
    def test_failure_in_second_block_leaves_no_trace(self, capsys, monkeypatch, tmp_path, existing):
        out = tmp_path / "map.csv"
        if existing:
            out.write_bytes(b"earlier output\n")

        def fail_second(first_row, metrics):
            if first_row > 0:
                raise ValueError("injected failure")

        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 100)
        spy_evaluate(monkeypatch, fail_second)
        assert "injected failure" in usage_error(capsys, "sweep", "--resolution", "21", "--out", str(out))
        assert sorted(p.name for p in tmp_path.iterdir()) == (["map.csv"] if existing else [])
        if existing:
            assert out.read_bytes() == b"earlier output\n"

    def test_trailer_keeps_first_maximum_when_blocks_tie(self, capsys, monkeypatch):
        def tie(first_row, metrics):
            rows = first_row + np.arange(len(metrics["witness"]))
            metrics["witness"] = np.where(np.isin(rows, [2, 6]), 0.5, 0.0)

        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        spy_evaluate(monkeypatch, tie)
        code, out = run_cli(capsys, "sweep", "--complex", "--samples", "10", "--seed", "1")
        assert code == 0
        assert out.splitlines()[-1] == "# max_witness=0.500000000 index=2"

    def test_trailer_keeps_the_first_row_when_a_later_one_is_larger_by_an_ulp(self, capsys, monkeypatch):
        def tie(first_row, metrics):
            rows = first_row + np.arange(len(metrics["witness"]))
            metrics["witness"] = np.select([rows == 2, rows == 3, rows == 6], [0.3, np.nextafter(0.3, 1.0), 0.3])

        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        spy_evaluate(monkeypatch, tie)
        code, out = run_cli(capsys, "sweep", "--complex", "--samples", "10", "--seed", "1")
        assert code == 0
        assert out.splitlines()[-1] == "# max_witness=0.300000000 index=2"

    @pytest.mark.parametrize("block_rows", [1, 2])
    @pytest.mark.parametrize("pair", [(150, 149), (149, 150)])
    def test_trailer_names_the_first_of_a_mirror_pair(self, pair, block_rows):
        # At one alpha, beta and pi/2 - beta have the same witness up to
        # rounding; these two rows of the 300-point grid differ in the last
        # bit, one way with BLAS overlaps and the other way with explicit ones.
        axis = np.linspace(0.0, math.pi / 2.0, 300)
        alphas, betas = np.full(2, axis[250]), axis[list(pair)]
        states = np.column_stack([np.sin(alphas) * np.cos(betas), np.sin(alphas) * np.sin(betas),
                                  np.cos(alphas)]).astype(complex)
        blocks = [([alphas[i:i + block_rows], betas[i:i + block_rows]], states[i:i + block_rows])
                  for i in range(0, 2, block_rows)]
        lines = b"".join(cli._sweep_csv(("alpha", "beta"), blocks)).decode().splitlines()
        witness = {line.split(",")[2] for line in lines[1:3]}
        assert len(witness) == 1
        assert lines[-1] == f"# max_witness={witness.pop()} alpha=1.313374855 beta={cli._f9(betas[0])}"

    def test_rewrite_keeps_mode_and_device_is_written_in_place(self, tmp_path):
        out = tmp_path / "map.csv"
        out.write_text("earlier output\n")
        out.chmod(0o640)
        assert main(["sweep", "--resolution", "3", "--out", str(out)]) == 0
        assert out.read_text().startswith("alpha,beta,")
        assert out.stat().st_mode & 0o777 == 0o640
        assert main(["sweep", "--resolution", "3", "--out", os.devnull]) == 0


@pytest.mark.parametrize("argv", [
    ("sweep", "--complex", "--samples", "70000", "--seed", "2"),
    ("phase-scan", "--state", "V0", "--steps", "9"),
    ("witness", "--state", "Bf", "--format", "text"),
], ids=lambda argv: argv[0])
def test_stdout_without_a_binary_buffer_gets_the_same_text(capsys, monkeypatch, argv):
    # io.StringIO has no .buffer to take bytes, as when main() runs under
    # contextlib.redirect_stdout; the sink decodes the chunks for it instead
    _, expected = run_cli(capsys, *argv)
    replacement = io.StringIO()
    monkeypatch.setattr(sys, "stdout", replacement)
    assert main(list(argv)) == 0
    assert replacement.getvalue() == expected
    assert len(expected) > 100


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--resolution", "100000"),
        ("sweep", "--resolution", str(math.isqrt(cli.MAX_ROWS) + 1)),
        ("sweep", "--complex", "--samples", str(cli.MAX_ROWS + 1)),
        ("phase-scan", "--state", "Nf", "--steps", str(cli.MAX_ROWS + 1)),
        ("trans-scan", "--state", "Nf", "--steps", str(cli.MAX_ROWS + 1)),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_sizes_above_the_cap_exit_2_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def refuse(*args):
        raise AssertionError("work started for an oversized request")

    for name in ("build_network", "real_grid_blocks", "haar_state_blocks"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "table.csv"
    out.write_bytes(b"earlier output\n")
    assert "rows; at most" in usage_error(capsys, *argv, "--out", str(out))
    assert out.read_bytes() == b"earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_oversized_sweep_exits_2_without_traceback():
    proc = run_entry("sweep", "--resolution", "100000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestSample:
    def test_deterministic_json(self, capsys):
        code, out_a = run_cli(capsys, "sample", "--state", "Nf", "--seed", "42")
        _, out_b = run_cli(capsys, "sample", "--state", "Nf", "--seed", "42")
        assert code == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert sum(payload["counts"]) > 0
        assert payload["seed"] == 42

    def test_csv_schema(self, capsys):
        _, out = run_cli(capsys, "sample", "--state", "Nf", "--format", "csv", "--seed", "1")
        lines = out.splitlines()
        assert lines[0] == "setting,n1,n2,n3,duration"

    def test_seed_of_2_to_the_64_is_usage_error(self, capsys):
        assert "64-bit" in usage_error(capsys, "sample", "--state", "Nf", "--seed", str(2 ** 64))


@pytest.mark.parametrize("argv", [
    ("sample", "--state", "Nf"),
    ("phase-scan", "--state", "Nf", "--steps", "7", "--rate", "10"),
    ("trans-scan", "--state", "V0", "--steps", "7", "--rate", "10"),
    ("sweep", "--complex", "--samples", "5"),
], ids=lambda argv: argv[0])
def test_environment_does_not_change_the_bytes(capsys, monkeypatch, argv):
    # the seed comes from --seed, else 0; the CTXSCOPE_SEED variable that once set it is ignored
    monkeypatch.delenv("CTXSCOPE_SEED", raising=False)
    _, unset = run_cli(capsys, *argv)
    _, seed_0 = run_cli(capsys, *argv, "--seed", "0")
    monkeypatch.setenv("CTXSCOPE_SEED", "7")
    assert run_cli(capsys, *argv) == (0, unset) and unset == seed_0


class TestFit:
    def test_pipeline_recovers_visibility(self, capsys, tmp_path):
        scan_path = tmp_path / "scan.csv"
        assert main(["phase-scan", "--state", "Nf", "--steps", "13",
                     "--visibility", "1.0", "--seed", "6", "--out", str(scan_path)]) == 0
        code, out = run_cli(capsys, "fit", "--input", str(scan_path), "--model", "Nf")
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "Nf"
        for port in payload["ports"]:
            assert 0.97 <= port["visibility"] <= 1.03

    def test_noiseless_scaled_scan_recovers_unit_visibility(self, capsys, tmp_path):
        ideal_path = tmp_path / "ideal.csv"
        assert main(["phase-scan", "--state", "V0", "--steps", "13",
                     "--out", str(ideal_path)]) == 0
        counts_path = tmp_path / "counts.csv"
        lines = ideal_path.read_text().splitlines()
        out_lines = ["setting,n1,n2,n3,duration"]
        for line in lines[1:]:
            setting, p1, p2, p3, _ = line.split(",")
            scaled = [f"{float(p) * 1e6!r}" for p in (p1, p2, p3)]
            out_lines.append(",".join([setting, *scaled, "1.0"]))
        counts_path.write_text("\n".join(out_lines) + "\n")
        code, out = run_cli(capsys, "fit", "--input", str(counts_path), "--model", "V0")
        assert code == 0
        payload = json.loads(out)
        for port in payload["ports"]:
            assert port["visibility"] == pytest.approx(1.0, abs=1e-6)

    def test_model_coefficients_via_fit_b(self, capsys, tmp_path):
        # fitted b on exact data equals the model cosine coefficients
        ideal_path = tmp_path / "v0.csv"
        main(["phase-scan", "--state", "V0", "--steps", "13", "--out", str(ideal_path)])
        counts_path = tmp_path / "v0_counts.csv"
        rows = ideal_path.read_text().splitlines()
        body = ["setting,n1,n2,n3,duration"]
        for line in rows[1:]:
            cells = line.split(",")
            body.append(",".join([cells[0],
                                  *(f"{float(c) * 1e7!r}" for c in cells[1:4]), "1.0"]))
        counts_path.write_text("\n".join(body) + "\n")
        _, out = run_cli(capsys, "fit", "--input", str(counts_path), "--model", "V0")
        ports = json.loads(out)["ports"]
        assert [p["a"] for p in ports] == pytest.approx([2 / 9, 2 / 9, 5 / 9], abs=1e-6)
        assert [abs(p["b"]) for p in ports] == pytest.approx([2 / 9, 2 / 9, 4 / 9], abs=1e-6)

    @pytest.mark.parametrize("model", [COMPLEX_STATE, "basis2", " v0 ", " nf ", "NF"])
    def test_model_is_any_state(self, capsys, tmp_path, model):
        path = tmp_path / "scan.csv"
        assert main(["phase-scan", f"--state={model}", "--steps", "25", "--visibility", "0.8",
                     "--rate", "1e5", "--seed", "2", "--out", str(path)]) == 0
        code, out = run_cli(capsys, "fit", "--input", str(path), f"--model={model}")
        payload = json.loads(out)
        # a named state is echoed by its canonical name, six amplitude parts as typed
        assert code == 0 and payload["model"] == {" v0 ": "V0", " nf ": "Nf", "NF": "Nf"}.get(model, model)
        for port in payload["ports"]:
            assert abs(port["visibility"] - 0.8) < 5.0 * port["stderr"]

    def test_model_without_a_fringe_is_usage_error(self, capsys, tmp_path):
        # (1, -1, 0) is orthogonal to f, so a phase on f moves no port
        path = tmp_path / "scan.csv"
        assert main(["phase-scan", "--state", "Nf", "--steps", "5", "--visibility", "0.9", "--out", str(path)]) == 0
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "1,0,-1,0,0,0") == (
            "error: model fringe amplitude for port 1 must be positive\n")

    @pytest.mark.parametrize("source", ["two rows", "malformed", "missing"])
    def test_model_without_a_fringe_is_refused_before_the_input_is_read(self, capsys, tmp_path, monkeypatch, source):
        # two settings alone would exit 3 (no span of offset, cosine, sine), a
        # broken row or a missing file exit 2 with their own line
        path = tmp_path / "scan.csv"
        if source == "two rows":
            path = "-"
            monkeypatch.setattr(sys, "stdin", io.StringIO(f"{cli.COUNTS_CSV_HEADER}\n0,1,1,1,1\n1,1,1,1,1\n"))
        elif source == "malformed":
            path.write_text(f"{cli.COUNTS_CSV_HEADER}\n0,1,1,1\n")
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "1,0,-1,0,0,0") == (
            "error: model fringe amplitude for port 1 must be positive\n")

    def test_model_without_a_fringe_ends_an_endless_stdin_at_once(self):
        # the feeder fills the pipe's buffer (64 KiB on Linux), not one block of rows
        read, write = os.pipe()
        fed = []

        def feed():
            with open(write, "wb", buffering=0) as sink, contextlib.suppress(BrokenPipeError):
                fed.append(sink.write(f"{cli.COUNTS_CSV_HEADER}\n".encode()))
                while True:
                    fed.append(sink.write(b"0,1,1,1,1\n" * 1024))

        feeder = threading.Thread(target=feed)
        feeder.start()
        with open(read, "rb") as source:
            result = run_fresh(ENTRY_CODE, "fit", "--input", "-", "--model", "1,0,-1,0,0,0", stdin=source)
        feeder.join()
        assert result == (2, b"", b"error: model fringe amplitude for port 1 must be positive\n")
        assert sum(fed) < len(b"0,1,1,1,1\n") * cli.CSV_BLOCK_ROWS

    def test_unknown_model_is_refused_before_the_input_is_read(self, capsys, tmp_path):
        assert usage_error(capsys, "fit", "--input", str(tmp_path / "nope.csv"), "--model", "V1") == (
            "error: state must be one of ['Bf', 'Nf', 'V0', 'basis1', 'basis2', 'basis3'] or six "
            "comma-separated re,im amplitude parts, got 'V1'\n")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        assert run_cli(capsys, "fit", "--input", str(tmp_path / "nope.csv"), "--model", "Nf")[0] == 2

    def test_wrong_header_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phi,a,b,c\n0.0,1,2,3\n")
        assert run_cli(capsys, "fit", "--input", str(bad), "--model", "Nf")[0] == 2

    @pytest.mark.parametrize("row", ["0.5,nan,1,2,1.0", "inf,3,1,2,1.0", "0.5,3,1,2,-inf"])
    def test_non_finite_field_is_usage_error_with_line(self, capsys, tmp_path, row):
        path = tmp_path / "counts.csv"
        path.write_text(f"setting,n1,n2,n3,duration\n0.0,1,2,3,1.0\n\n{row}\n1.0,4,5,6,1.0\n")
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf").startswith(
            "error: line 4: non-finite field")

    def test_mixed_durations_are_usage_error_with_line(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        rows = [f"{phi},10,20,30,{duration}" for phi, duration in ((0.0, 1), (1.0, 7), (2.0, 9), (3.0, 1))]
        path.write_text("setting,n1,n2,n3,duration\n" + "\n".join(rows) + "\n")
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf").startswith(
            "error: line 3: duration 7 differs from the first row's 1")

    def test_non_finite_json_is_usage_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "scan.csv"
        assert main(["phase-scan", "--state", "Nf", "--steps", "7", "--rate", "50", "--out", str(path)]) == 0
        nan_port = stats.PortFit(math.nan, 0.0, 0.0, math.nan, math.inf)
        monkeypatch.setattr(stats, "fit_fringe", lambda *args: (7, (nan_port,) * 3))
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == (
            "error: Out of range float values are not JSON compliant: nan\n")

    @pytest.mark.parametrize("body, message", [
        ("0.0,1,2,3\n", "line 2: expected 5 fields, got 4"),
        ("0.0,1,two,3,1.0\n", "line 2: non-numeric field"),
        ("0.0,1,2,3,1.0\n1.0,1,-2,3,1.0\n", "line 3: counts must be non-negative"),
        ("".join(f"{phi},1,2,3,-5\n" for phi in (0.0, 1.0, 2.0, 3.0)), "line 2: duration must be positive"),
        ("", "input has no data rows"),
    ], ids=["four fields", "non-numeric", "negative count", "negative duration", "header only"])
    def test_malformed_counts_csv_is_usage_error(self, capsys, tmp_path, body, message):
        path = tmp_path / "counts.csv"
        path.write_text("setting,n1,n2,n3,duration\n" + body)
        assert message in usage_error(capsys, "fit", "--input", str(path), "--model", "Nf")

    @pytest.mark.parametrize("cell, quoted", [
        ("x" * 56, "['0', '1', '" + "x" * 56 + "', '3', '1']"),
        ("x" * 57, "['0', '1', '" + "x" * 57 + "', '3', '1'..."),
        ("1" * 140_000, "['0', '1', '" + "1" * 68 + "..."),
    ], ids=["80 characters", "81 characters", "140,000 digits"])
    def test_error_quotes_a_row_up_to_80_characters(self, capsys, tmp_path, cell, quoted):
        path = tmp_path / "counts.csv"
        path.write_text(f"setting,n1,n2,n3,duration\n0,1,{cell},3,1\n")
        kind = "non-numeric" if cell.startswith("x") else "non-finite"
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == (
            f"error: line 2: {kind} field in {quoted}\n")

    def test_reads_counts_from_stdin(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "scan.csv"
        assert main(["phase-scan", "--state", "Nf", "--steps", "7", "--seed", "2", "--rate", "50",
                     "--out", str(path)]) == 0
        _, from_file = run_cli(capsys, "fit", "--input", str(path), "--model", "Nf")
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        code, from_stdin = run_cli(capsys, "fit", "--input", "-", "--model", "Nf")
        assert code == 0
        assert from_stdin == from_file

    def test_a_leading_byte_order_mark_is_skipped(self, capsys, monkeypatch, tmp_path):
        # Excel's "CSV UTF-8" starts a file with the UTF-8 byte-order mark EF BB BF
        path = tmp_path / "scan.csv"
        assert main(["phase-scan", "--state", "V0", "--steps", "50", "--visibility", "0.9", "--seed", "1",
                     "--out", str(path)]) == 0
        _, plain = run_cli(capsys, "fit", "--input", str(path), "--model", "V0")
        data = b"\xef\xbb\xbf" + path.read_bytes()
        path.write_bytes(data)
        assert run_cli(capsys, "fit", "--input", str(path), "--model", "V0") == (0, plain)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"))
        assert run_cli(capsys, "fit", "--input", "-", "--model", "V0") == (0, plain)

    def test_cells_read_as_python_float_reads_them(self, tmp_path):
        cells = ["1_000", "\u0661\u0662", " 7 ", "\uff13.5", "9" * 30, "0.25e1", "+0", "-0.0"]
        rows = [f"{k},{a},{b},{c},2" for k, (a, b, c) in enumerate(zip(cells, cells[1:], cells[2:]))]
        path = tmp_path / "counts.csv"
        path.write_text("setting,n1,n2,n3,duration\n" + "\n".join(rows) + "\n", encoding="utf-8")
        [(settings, counts)] = cli._read_counts_csv(str(path))
        assert settings.dtype == counts.dtype == np.float64
        assert settings.tolist() == [float(k) for k in range(len(rows))]
        assert counts.tolist() == [[float(a), float(b), float(c)] for a, b, c in zip(cells, cells[1:], cells[2:])]

    @pytest.mark.parametrize("cell", ["+nan", "infinity", "-Infinity", "1e309", "NaN"])
    def test_non_finite_spellings_read_as_numbers(self, capsys, tmp_path, cell):
        path = tmp_path / "counts.csv"
        path.write_text(f"setting,n1,n2,n3,duration\n0,1,2,3,1\n1,4,{cell},6,1\n")
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == (
            f"error: line 3: non-finite field in ['1', '4', '{cell}', '6', '1']\n")

    def test_quotes_are_not_read_as_csv_quoting(self, capsys, tmp_path):
        # the one input whose reading changed when the csv module left: a
        # quoted cell is a cell that float() refuses, not the number inside
        path = tmp_path / "counts.csv"
        path.write_text('setting,n1,n2,n3,duration\n0,1,2,3,1\n1,"4",5,6,1\n')
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == (
            "error: line 3: non-numeric field in ['1', '\"4\"', '5', '6', '1']\n")
        path.write_text('"setting",n1,n2,n3,duration\n0,1,2,3,1\n')
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == (
            "error: input must start with header 'setting,n1,n2,n3,duration'\n")

    def test_first_broken_rule_is_named(self, capsys, tmp_path):
        # each line breaks one rule; the earliest line wins over the earlier rule
        broken = ["0.5,1,2,3", "0.5,1,x,3,1", "0.5,1,nan,3,1", "0.5,1,2,-3,1", "0.5,1,2,3,0", "0.5,1,2,3,0.5"]
        messages = ["expected 5 fields, got 4", "non-numeric field in ['0.5', '1', 'x', '3', '1']",
                    "non-finite field in ['0.5', '1', 'nan', '3', '1']", "counts must be non-negative",
                    "duration must be positive", "duration 0.5 differs from the first row's 1"]
        path = tmp_path / "counts.csv"
        for first in range(len(broken)):
            body = ["0,1,2,3,1", "", *broken[first:], *broken[:first]]
            path.write_text("setting,n1,n2,n3,duration\n" + "\n".join(body) + "\n")
            assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == (
                f"error: line 4: {messages[first]}\n")

    @pytest.mark.parametrize("row, message", [
        ("1,4\x1f,5,6,1", "non-numeric field in ['1', '4\\x1f', '5', '6', '1']"),
        ("1,4\x1e,5,6,1", "expected 5 fields, got 2"),  # str.splitlines ends a line at \x1e
    ], ids=["unit separator", "record separator"])
    def test_separator_cells(self, capsys, tmp_path, row, message):
        path = tmp_path / "counts.csv"
        path.write_text(f"setting,n1,n2,n3,duration\n0,1,2,3,1\n{row}\n", encoding="utf-8")
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == f"error: line 3: {message}\n"

    @pytest.mark.parametrize("row, message", [
        ("1,2,3,4", "expected 5 fields, got 4"),
        ("1,2,x,3,1", "non-numeric field in ['1', '2', 'x', '3', '1']"),
        ("1,2,nan,3,1", "non-finite field in ['1', '2', 'nan', '3', '1']"),
        ("1,2,-3,3,1", "counts must be non-negative"),
        ("1,2,3,3,0", "duration must be positive"),
        ("1,2,3,3,2", "duration 2 differs from the first row's 1"),
    ], ids=["fields", "numeric", "finite", "counts", "duration positive", "duration equal"])
    def test_a_full_block_broken_in_its_last_row_names_that_row(self, capsys, tmp_path, row, message):
        # the first block's lines are the header, 65,534 clean rows and the
        # broken one; a few clean rows follow in a second block
        assert cli.CSV_BLOCK_ROWS == 65_536
        path = tmp_path / "counts.csv"
        clean = [f"{k},1,2,3,1\n" for k in range(65_534)]
        path.write_text("setting,n1,n2,n3,duration\n" + "".join(clean) + row + "\n" + "".join(clean[:3]))
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == f"error: line 65536: {message}\n"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_reads_crlf_and_cr_lines_from_stdin(self, capsys, tmp_path, monkeypatch, end):
        # io.StringIO is read without newline translation, so its line ends reach the reader
        path = tmp_path / "scan.csv"
        assert main(["phase-scan", "--state", "Nf", "--steps", "7", "--seed", "2", "--rate", "50",
                     "--out", str(path)]) == 0
        _, from_file = run_cli(capsys, "fit", "--input", str(path), "--model", "Nf")
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text().replace("\n", end)))
        assert run_cli(capsys, "fit", "--input", "-", "--model", "Nf") == (0, from_file)

    def test_cr_lines_from_stdin_come_in_blocks(self, monkeypatch):
        # stdin is read with universal newlines, as a file is, so CR-ended
        # lines are not one line held whole
        text = "setting,n1,n2,n3,duration\r" + "".join(f"{k},1,2,3,1\r" for k in range(10))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="\n"))
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        assert [len(settings) for settings, _ in cli._read_counts_csv("-")] == [2, 3, 3, 2]

    def test_overflowing_row_totals_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("setting,n1,n2,n3,duration\n"
                        + "".join(f"{phi},1e308,1e308,1e308,1.0\n" for phi in (0.0, 1.0, 2.0, 3.0)))
        code = main(["fit", "--input", str(path), "--model", "Nf"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "error: every setting needs a finite total count\n"

    def test_degenerate_design_exits_3(self, capsys, tmp_path):
        two = tmp_path / "two.csv"
        two.write_text(
            "setting,n1,n2,n3,duration\n"
            "0.000000000,10,10,10,1.0\n"
            "3.141592654,10,10,10,1.0\n"
        )
        assert run_cli(capsys, "fit", "--input", str(two), "--model", "Nf")[0] == 3

    @pytest.mark.parametrize("edit, line", [
        (lambda data: data + b"\xff", 100003),
        (lambda data: b"\n".join(line + b"\xff" if k == 10 else line for k, line in enumerate(data.split(b"\n"))),
         11),
    ], ids=["0xff as a last line", "0xff ending line 11"])
    def test_a_byte_that_is_not_utf8_is_named_by_its_line(self, capsys, monkeypatch, tmp_path, edit, line):
        # a 100,001-row scan spans two reader blocks; stdin is read as UTF-8
        # even where its own text layer decodes strictly
        path = tmp_path / "scan.csv"
        assert main(["phase-scan", "--state", "Nf", "--steps", "100001", "--visibility", "0.9", "--seed", "1",
                     "--out", str(path)]) == 0
        data = edit(path.read_bytes())
        path.write_bytes(data)
        expected = f"error: line {line}: byte 0xff is not UTF-8\n"
        assert usage_error(capsys, "fit", "--input", str(path), "--model", "Nf") == expected
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"))
        assert usage_error(capsys, "fit", "--input", "-", "--model", "Nf") == expected


class TestReproduce:
    def test_deviations_within_documented_bounds(self, capsys):
        code, out = run_cli(capsys, "reproduce")
        assert code == 0
        deltas = {}
        for line in out.splitlines():
            cells = line.split()
            if len(cells) in (5, 6) and cells[0] in MEASURED and "visibilities" not in line:
                quantity = " ".join(cells[1:-3])
                deltas[(cells[0], quantity)] = float(cells[-1])
        assert deltas[("Nf", "witness direct")] <= 0.01
        assert deltas[("Bf", "witness direct")] <= 0.002
        assert deltas[("V0", "witness direct")] <= 0.01
        for state in MEASURED:
            assert deltas[(state, "gain port3")] <= 0.01
        nf_rows = [v for (s, q), v in deltas.items() if s == "Nf" and q.startswith("blocked")]
        assert max(nf_rows) <= 0.015
        # the published free-run triples deviate up to 0.0281 from ideal (V0 p3)
        free_rows = [v for (s, q), v in deltas.items() if q.startswith("free")]
        assert max(free_rows) <= 0.029
        fringe_rows = [v for (s, q), v in deltas.items() if q.startswith("fringe")]
        assert max(fringe_rows) <= 1e-12

    def test_writes_to_file(self, tmp_path):
        target = tmp_path / "report.txt"
        assert main(["reproduce", "--out", str(target)]) == 0
        assert "benchmark reproduction" in target.read_text()

