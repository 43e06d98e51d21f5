import json
import math

import pytest

from ctxscope import stats
from ctxscope.cli import main
from ctxscope.reference import MEASURED


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


class TestCheck:
    def test_passes_on_fresh_build(self, capsys):
        code, out = run_cli(capsys, "check")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("ok  ") == 5


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

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--state", "Nf", "--bogus"])
        assert err.value.code == 2


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

    def test_trans_scan_rejects_visibility_noise(self, capsys):
        code, _ = run_cli(capsys, "trans-scan", "--state", "Nf", "--visibility", "0.9")
        assert code == 2

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
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:5]),
)
def test_non_finite_modifier_or_setting_is_one_line_usage_error(capsys, argv):
    usage_error(capsys, *argv)


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

    def test_env_seed_default_and_flag_priority(self, capsys, monkeypatch):
        monkeypatch.setenv("CTXSCOPE_SEED", "42")
        _, from_env = run_cli(capsys, "sample", "--state", "Nf")
        monkeypatch.delenv("CTXSCOPE_SEED")
        _, from_flag = run_cli(capsys, "sample", "--state", "Nf", "--seed", "42")
        assert from_env == from_flag
        monkeypatch.setenv("CTXSCOPE_SEED", "7")
        _, flag_wins = run_cli(capsys, "sample", "--state", "Nf", "--seed", "42")
        assert flag_wins == from_flag

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CTXSCOPE_SEED", "not-a-number")
        assert run_cli(capsys, "sample", "--state", "Nf")[0] == 2


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
        monkeypatch.setattr(stats, "fit_fringe", lambda data, model: stats.FitResult((nan_port,) * 3))
        usage_error(capsys, "fit", "--input", str(path), "--model", "Nf")

    def test_degenerate_design_exits_3(self, capsys, tmp_path):
        two = tmp_path / "two.csv"
        two.write_text(
            "setting,n1,n2,n3,duration\n"
            "0.000000000,10,10,10,1.0\n"
            "3.141592654,10,10,10,1.0\n"
        )
        assert run_cli(capsys, "fit", "--input", str(two), "--model", "Nf")[0] == 3


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
