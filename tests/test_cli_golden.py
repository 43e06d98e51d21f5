"""Golden outputs: the CLI's CSV/text bytes and JSON values stay put.

The hashes and JSON payloads below were recorded from the release before the
rank-1 propagation kernel replaced the stage-by-stage loop; the two sweeps
longer than one CSV block and the sample CSV were recorded from the release
before the block-wise CSV emitter replaced the per-cell writers. CSV and text
outputs must match byte for byte. JSON outputs must keep the same keys and
every number within 1e-14, which leaves room for the kernel's last-bit
rounding but nothing more.
"""
import hashlib
import json

import numpy as np
import pytest

from ctxscope import cli
from ctxscope.cli import main

STATE = "0.3,0.1,-0.7,0.2,0.5,-0.4"

HASHED = {
    ("check",): "67c8e14102454f613b8172beab73b89df7daab59a7ff56ac63c2fec8adde9337",
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
        "bcfb958a2c5923af553d0e4ed1ddbda845392405d15f6951d7ca9831211dde9c",
    ("trans-scan", "--state", "Bf", "--target", "D2", "--steps", "7"):
        "98de9fc34307e97dfccfd8e9ad575be8348d895c6328c3199a2d43f85143a943",
    ("trans-scan", "--state", "Nf", "--target", "S2", "--steps", "5", "--rate", "200",
     "--duration", "1", "--seed", "11"):
        "f009169dc080d46d9607f9483fa66dfc4365755b51f5bde2488d4476ea21e5d5",
    ("sweep", "--resolution", "101"):
        "98097313040ad34f14037f645bd7c84ff31ff516634ea3a61be15a2a95929187",
    ("sweep", "--complex", "--samples", "2000", "--seed", "4"):
        "c0972dee1016f22b7c2cc019700cd55a052362352629dae96cc99203ddc041c9",
    ("sweep", "--resolution", "300"):
        "a1a65a05cac6789902b6d74e06bb396f14db145318d5c77c3f9ad54638e365f6",
    ("sweep", "--seed", "5", "--complex", "--samples", "70000"):
        "c48ee9d59330aa7bc2725519e8222522fcc47998b3c97f0bb9d501dde9261769",
    ("sample", "--state", "V0", "--rate", "37.5", "--duration", "2", "--setting", "0.25",
     "--seed", "9", "--format", "csv"):
        "5ccde16cbdc9d33485bb8f73c8cc06da1f4107188f4cac8c6e9ea062bfa71fda",
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
        "counts": [19460, 16451, 62369],
        "duration": 100.0,
        "rate": 1000.0,
        "seed": 5,
        "setting": 0.0,
    },
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


def test_csv_emitter_matches_per_cell_f9(monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
    x = np.array([-0.0, 5e-13, -5e-13, 1e-12, -1e-12, -5e-10, 0.1234567895, -2.5])
    n = np.array([0, 7, -3, 10**15, 42, 1, 2, 3], dtype=np.int64)
    chunks = list(cli._csv("x,y,n", [x, x[::-1], n]))
    rows = [",".join([cli._f9(a), cli._f9(b), str(int(c))]) + "\n" for a, b, c in zip(x, x[::-1], n)]
    assert len(chunks) == 1 + 3
    assert "".join(chunks) == "x,y,n\n" + "".join(rows)
