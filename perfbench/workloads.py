"""Seeded inputs for the three workloads and the checks on their outputs.

A workload is a list of cycles; a cycle is a list of CLI calls. Each call is
a plain dict: the argv the program receives, what the oracle checks, and
how many items it completes. The program only ever sees the argv and the
files earlier calls of the same cycle wrote. Cycles come in twin pairs: the
same kinds of call in the same order, each with its own states, seeds and
parameters, so the runner can keep the faster of two calls that do equal
work without repeating one input. The runner completes whole pairs, so
every run has the same mix of calls.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re

import numpy as np

import oracle

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("cli-interactive", "sweep-map", "fringe-pipeline")

#: Cycles generated per run; far more than a run completes, so a faster
#: program still measures for the full time.
PLAN_CYCLES = {"cli-interactive": 400, "sweep-map": 100, "fringe-pipeline": 200}
#: Cycles replayed by the traced run, fixed so its counts repeat exactly.
TRACE_CYCLES = {"cli-interactive": 2, "sweep-map": 1, "fringe-pipeline": 1}

NAMED = ("Nf", "Bf", "V0", "basis1", "basis2", "basis3")
FRINGE_STATES = ("Nf", "Bf", "V0")
COUNTS_HEADER = "setting,n1,n2,n3,duration"
#: Photons per second for the low budget, over 5 s: every port mean stays
#: below 30, so the sampler's inversion branch runs, while a setting's total
#: count is 0 with probability below e^-26, so `fit` always has data.
LOW_RATE = (5.2, 5.9)
JSON_TOL = 1e-12
TEXT_TOL = 2e-9  # nine printed decimals plus float error


def _fmt(x: float) -> str:
    return repr(float(x))


def _haar_parts(rng: random.Random) -> list[str]:
    return [_fmt(rng.gauss(0.0, 1.0)) for _ in range(6)]


def _state_arg(spec) -> str:
    """One --state=SPEC token: explicit parts may start with '-', which
    argparse would otherwise read as a flag."""
    return "--state=" + (spec if isinstance(spec, str) else ",".join(spec))


def _modifiers(rng: random.Random, most: int) -> list[list]:
    labels = rng.sample(oracle.INTERIOR, rng.randint(0, most))
    mods = []
    for label in labels:
        action = rng.choice(("block", "phase", "attenuate"))
        value = {"block": 0.0, "phase": rng.uniform(-math.pi, math.pi),
                 "attenuate": rng.uniform(0.0, 1.0)}[action]
        mods.append([action, label, float(_fmt(value))])
    return mods


def _modifier_argv(mods: list[list]) -> list[str]:
    argv = []
    for action, label, value in mods:
        argv += ["--block", label] if action == "block" else [f"--{action}", f"{label}:{_fmt(value)}"]
    return argv


def _any_state(rng: random.Random):
    return rng.choice(NAMED) if rng.random() < 0.5 else _haar_parts(rng)


def _interactive_cycle(rng: random.Random, cycle_index: int, scale: float) -> list[dict]:
    calls = []
    state = rng.choice(NAMED)
    calls.append({"argv": ["witness", _state_arg(state)], "check": {"kind": "witness", "state": state,
                                                                     "format": "json"}})
    state = _haar_parts(rng)
    calls.append({"argv": ["witness", _state_arg(state)],
                  "check": {"kind": "witness", "state": state, "format": "json"}})
    state = _any_state(rng)
    calls.append({"argv": ["witness", _state_arg(state), "--format", "text"],
                  "check": {"kind": "witness", "state": state, "format": "text"}})
    for fmt in ("json", "csv", "json"):
        state, mods = _any_state(rng), _modifiers(rng, 3)
        calls.append({"argv": ["run", _state_arg(state), *_modifier_argv(mods), "--format", fmt],
                      "check": {"kind": "run", "state": state, "mods": mods, "format": fmt}})
    for fmt in ("json", "csv"):
        state, mods = _any_state(rng), _modifiers(rng, 2)
        rate, duration = float(_fmt(rng.uniform(100.0, 2000.0))), float(_fmt(rng.uniform(1.0, 100.0)))
        seed, setting = rng.randrange(2 ** 32), float(_fmt(rng.uniform(0.0, 2 * math.pi)))
        calls.append({
            "argv": ["sample", _state_arg(state), *_modifier_argv(mods), "--rate", _fmt(rate),
                     "--duration", _fmt(duration), "--seed", str(seed), "--setting", _fmt(setting),
                     "--format", fmt],
            "check": {"kind": "sample", "state": state, "mods": mods, "rate": rate, "duration": duration,
                      "seed": seed, "setting": setting, "format": fmt},
        })
    calls.append({"argv": ["reproduce"], "check": {"kind": "reproduce"}})
    calls.append({"argv": ["check"], "check": {"kind": "check"}})
    usage = cycle_index // 2 % 3
    if usage == 0:
        argv = ["witness", "--state", rng.choice(("Xf", "V1", "nf0", "basis4"))]
    elif usage == 1:
        label = rng.choice(oracle.INTERIOR)
        argv = ["run", "--state", rng.choice(NAMED), "--block", label, "--phase", f"{label}:0.5"]
    else:
        argv = ["run", "--state", rng.choice(NAMED), "--phase", "f"]
    calls.append({"argv": argv, "check": {"kind": "usage"}})
    for call in calls:
        call["items"] = 1
    return calls


def _sweep_cycle(rng: random.Random, cycle_index: int, scale: float) -> list[dict]:
    resolution = max(2, round(1001 * math.sqrt(scale))) - cycle_index % 2  # twins differ
    calls = [{"argv": ["sweep", "--resolution", str(resolution), "--out", f"grid{cycle_index}.csv"],
              "check": {"kind": "sweep-real", "resolution": resolution, "out": f"grid{cycle_index}.csv"},
              "items": resolution * resolution}]
    # Several equal complex sweeps per cycle give the median many like samples.
    samples = max(1, round(100_000 * scale))
    for j in range(3):
        seed = rng.randrange(2 ** 32)
        out = f"haar{cycle_index}_{j}.csv"
        calls.append({"argv": ["sweep", "--complex", "--samples", str(samples), "--seed", str(seed),
                               "--out", out],
                      "check": {"kind": "sweep-complex", "samples": samples, "seed": seed, "out": out},
                      "items": samples})
    return calls


def _fringe_cycle(rng: random.Random, cycle_index: int, scale: float) -> list[dict]:
    steps = 2 * max(2, round(2500 * scale)) + 1  # odd, so the grid holds 0 and pi
    calls = []
    for regime in ("high", "low"):
        state = rng.choice(FRINGE_STATES)
        visibility = float(_fmt(rng.uniform(0.5, 1.0)))
        seed = rng.randrange(2 ** 32)
        out = f"scan{cycle_index}_{regime}.csv"
        argv = ["phase-scan", "--state", state, "--steps", str(steps), "--visibility", _fmt(visibility),
                "--seed", str(seed), "--out", out]
        if regime == "high":
            rate, duration = 1000.0, 100.0  # the CLI defaults, left implicit
        else:
            rate, duration = float(_fmt(rng.uniform(*LOW_RATE))), 5.0
            argv += ["--rate", _fmt(rate), "--duration", _fmt(duration)]
        calls.append({"argv": argv, "items": 0,
                      "check": {"kind": "phase-scan", "state": state, "visibility": visibility,
                                "steps": steps, "budget": rate * duration, "duration": duration,
                                "out": out}})
        calls.append({"argv": ["fit", "--input", out, "--model", state], "items": steps,
                      "check": {"kind": "fit", "visibility": visibility, "steps": steps}})
    state, target = rng.choice(FRINGE_STATES), rng.choice(oracle.INTERIOR)
    high = cycle_index // 2 % 2 == 0
    rate = 1000.0 if high else float(_fmt(rng.uniform(*LOW_RATE)))
    duration = 100.0 if high else 5.0
    seed = rng.randrange(2 ** 32)
    out = f"trans{cycle_index}.csv"
    calls.append({"argv": ["trans-scan", "--state", state, "--target", target, "--steps", str(steps),
                           "--rate", _fmt(rate), "--duration", _fmt(duration), "--seed", str(seed),
                           "--out", out],
                  "items": steps,
                  "check": {"kind": "trans-scan", "state": state, "target": target, "steps": steps,
                            "budget": rate * duration, "duration": duration, "out": out}})
    return calls


def plan(workload: str, seed: int, cycles: int | None = None, scale: float = 1.0) -> list[list[dict]]:
    """The seeded cycles of a workload; scale shrinks the sizes for smoke tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}:{scale!r}")
    count = PLAN_CYCLES[workload] if cycles is None else cycles
    make = {"cli-interactive": _interactive_cycle, "sweep-map": _sweep_cycle,
            "fringe-pipeline": _fringe_cycle}[workload]
    out = []
    for i in range(0, count, 2):
        twins = [make(rng, i, scale), make(rng, i + 1, scale)]
        if workload != "fringe-pipeline":  # there each fit reads the scan written before it
            order = list(range(len(twins[0])))
            rng.shuffle(order)
            twins = [[cycle[j] for j in order] for cycle in twins]
        out += twins
    return out[:count]


def input_hash(cycles: list[list[dict]]) -> str:
    return hashlib.sha256(json.dumps(cycles, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- checking


def _close(got, want, tol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def _parts(psi: np.ndarray) -> list[float]:
    return [float(v) for a in psi for v in (a.real, a.imag)]


def _numbers(line: str) -> list[float]:
    return [float(x) for x in re.findall(r"-?\d+\.\d+(?:e[-+]?\d+)?", line)]


def _check_witness(spec: dict, stdout: str) -> list[str]:
    psi = oracle.state(spec["state"])
    free = oracle.probabilities(psi)
    blocked = oracle.probabilities(psi, [("block", "f")])
    pf, pd1, pd2 = (float(oracle.path_probability(psi, k)) for k in ("f", "D1", "D2"))
    wit = float(oracle.witness(psi))
    gain = blocked[2] - free[2]
    if spec["format"] == "json":
        out = json.loads(stdout)
        got = [*(out["free"][k] for k in ("p1", "p2", "p3", "survival")),
               *(out["blocked"][k] for k in ("p1", "p2", "p3", "survival")),
               out["gain_port3"], out["p_f"], out["p_d1"], out["p_d2"], out["witness_direct"],
               out["witness_from_outputs"], *out["state"]]
        want = [*free, free.sum(), *blocked, blocked.sum(), gain, pf, pd1, pd2, wit,
                float(oracle.witness_from_outputs(free, blocked)), *_parts(psi)]
        return [] if _close(got, want, JSON_TOL) else ["witness json differs from the oracle"]
    lines = stdout.splitlines()
    if len(lines) != 7:
        return [f"witness text has {len(lines)} lines, expected 7"]
    got = [x for line in lines[1:] for x in _numbers(line)]
    want = [pf, pd1, pd2, wit, wit, gain, *free, *blocked, blocked.sum()]
    return [] if _close(got, want, TEXT_TOL) else ["witness text differs from the oracle"]


def _mod_tuples(mods: list[list]) -> list[tuple]:
    return [(action, label, value) for action, label, value in mods]


def _check_run(spec: dict, stdout: str) -> list[str]:
    psi = oracle.state(spec["state"])
    probs = oracle.probabilities(psi, _mod_tuples(spec["mods"]))
    want = [*probs, probs.sum()]
    if spec["format"] == "csv":
        lines = stdout.splitlines()
        if len(lines) != 2 or lines[0] != "p1,p2,p3,survival":
            return ["run csv has the wrong shape"]
        return [] if _close([float(x) for x in lines[1].split(",")], want, TEXT_TOL) else \
            ["run csv differs from the oracle"]
    out = json.loads(stdout)
    labels = sorted(f"{a}:{t}" + (f":{v!r}" if a != "block" else "") for a, t, v in spec["mods"])
    errors = [] if _close([out["p1"], out["p2"], out["p3"], out["survival"]], want, JSON_TOL) else \
        ["run json differs from the oracle"]
    if sorted(out["modifiers"]) != labels or not _close(out["state"], _parts(psi), JSON_TOL):
        errors.append("run json echoes the wrong modifiers or state")
    return errors


def _check_sample(spec: dict, stdout: str) -> list[str]:
    psi = oracle.state(spec["state"])
    means = np.clip(oracle.probabilities(psi, _mod_tuples(spec["mods"])), 0.0, 1.0) \
        * spec["rate"] * spec["duration"]
    if spec["format"] == "csv":
        lines = stdout.splitlines()
        if len(lines) != 2 or lines[0] != COUNTS_HEADER:
            return ["sample csv has the wrong shape"]
        cells = lines[1].split(",")
        counts = [int(c) for c in cells[1:4]]
        echoed = _close([float(cells[0]), float(cells[4])], [spec["setting"], spec["duration"]], TEXT_TOL)
    else:
        out = json.loads(stdout)
        counts = out["counts"]
        echoed = (out["seed"] == spec["seed"] and out["rate"] == spec["rate"]
                  and out["duration"] == spec["duration"] and out["setting"] == spec["setting"])
    errors = [] if echoed else ["sample echoes the wrong parameters"]
    if len(counts) != 3 or not all(oracle.counts_ok(counts, means)):
        errors.append(f"sample counts {counts} implausible for means {means.tolist()}")
    return errors


_REPRODUCE_ROW = re.compile(r"^(Nf|Bf|V0)\s+(.+?)\s+(-?\d+\.\d+)\s+(-?\d+\.\d+)\s+(\d+\.\d+)$")


def _check_reproduce(stdout: str) -> list[str]:
    want = {}
    for name in ("Nf", "Bf", "V0"):
        psi = oracle.state(name)
        free = oracle.probabilities(psi)
        blocked = oracle.probabilities(psi, [("block", "f")])
        offs, amps = oracle.fringe_coefficients(psi)
        for i in range(3):
            want[name, f"free p{i + 1}"] = free[i]
            want[name, f"blocked p{i + 1}"] = blocked[i]
            want[name, f"fringe a{i + 1}"] = offs[i]
            want[name, f"fringe b{i + 1}"] = amps[i]
        want[name, "gain port3"] = blocked[2] - free[2]
        want[name, "witness direct"] = oracle.witness(psi)
        want[name, "witness outputs"] = oracle.witness_from_outputs(free, blocked)
    got = {}
    for line in stdout.splitlines():
        match = _REPRODUCE_ROW.match(line)
        if match:
            got[match[1], match[2]] = float(match[3])
    if set(got) != set(want):
        return [f"reproduce rows differ: {sorted(set(got) ^ set(want))[:3]}"]
    bad = [key for key in want if abs(got[key] - want[key]) > TEXT_TOL]
    return [f"reproduce values differ from the oracle at {bad[:3]}"] if bad else []


def _check_selfcheck(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) < 2 or lines[-1] != "all checks passed" or not all(l.startswith("ok  ") for l in lines[:-1]):
        return ["check did not report every suite as passed"]
    return []


def _read_table(path: str, header: str) -> tuple[np.ndarray, list[str]]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        table = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 256))
        comments = [l.decode() for l in fh.read().splitlines() if l.startswith(b"#")]
    return table, comments


def _check_metrics(table: np.ndarray, states: np.ndarray) -> list[str]:
    if table.shape != (states.shape[0], 5):
        return [f"sweep metrics have shape {table.shape}, expected {(states.shape[0], 5)}"]
    worst = 0.0
    for lo in range(0, states.shape[0], 100_000):  # in chunks, to bound the checker's memory
        chunk = states[lo:lo + 100_000]
        free = oracle.probabilities(chunk)
        blocked = oracle.probabilities(chunk, [("block", "f")])
        want = np.column_stack([oracle.witness(chunk), blocked[:, 2] - free[:, 2],
                                *(oracle.path_probability(chunk, k) for k in ("f", "D1", "D2"))])
        worst = max(worst, float(np.max(np.abs(table[lo:lo + 100_000] - want))))
    return [] if worst <= TEXT_TOL else [f"sweep rows differ from the oracle by {worst:.3g}"]


def _check_sweep_real(spec: dict, path: str) -> list[str]:
    table, comments = _read_table(path, "alpha,beta,witness,gain,pf,pd1,pd2")
    axis = np.linspace(0.0, math.pi / 2.0, spec["resolution"])
    alphas, betas = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    states = np.column_stack([np.sin(alphas) * np.cos(betas), np.sin(alphas) * np.sin(betas),
                              np.cos(alphas)])
    if table.shape != (alphas.size, 7):
        return [f"sweep table has shape {table.shape}, expected {(alphas.size, 7)}"]
    errors = [] if _close(table[:, :2], np.column_stack([alphas, betas]), TEXT_TOL) else \
        ["sweep grid differs from the oracle"]
    errors += _check_metrics(table[:, 2:], states)
    top = float(oracle.witness(states).max())
    footer = _numbers(comments[-1]) if comments else []
    if len(footer) != 3 or abs(footer[0] - top) > TEXT_TOL:
        errors.append(f"sweep footer {comments[-1:]} does not report the maximum witness {top:.9f}")
    return errors


def _check_sweep_complex(spec: dict, path: str) -> list[str]:
    table, comments = _read_table(path, "index,witness,gain,pf,pd1,pd2")
    n = spec["samples"]
    if table.shape != (n, 6) or not np.array_equal(table[:, 0], np.arange(n)):
        return [f"complex sweep table has shape {table.shape}, expected {(n, 6)}"]
    states = oracle.haar_states(n, spec["seed"])
    errors = _check_metrics(table[:, 1:], states)
    top = float(oracle.witness(states).max())
    footer = _numbers(comments[-1]) if comments else []
    if not footer or abs(footer[0] - top) > TEXT_TOL:
        errors.append(f"complex sweep footer {comments[-1:]} misses the maximum witness {top:.9f}")
    return errors


def _check_counts_file(spec: dict, path: str, stop: float, mean_probs) -> list[str]:
    table, _ = _read_table(path, COUNTS_HEADER)
    steps = spec["steps"]
    if table.shape != (steps, 5):
        return [f"counts table has shape {table.shape}, expected {(steps, 5)}"]
    settings = np.linspace(0.0, stop, steps)
    errors = [] if _close(table[:, 0], settings, TEXT_TOL) else ["scan settings differ from the grid"]
    if not _close(table[:, 4], np.full(steps, spec["duration"]), TEXT_TOL):
        errors.append("scan duration column is wrong")
    counts = table[:, 1:4]
    means = np.clip(mean_probs(settings), 0.0, 1.0) * spec["budget"]
    bad = ~oracle.counts_ok(counts, means)
    if np.any(counts != np.round(counts)) or bad.any():
        errors.append(f"{int(bad.sum())} scan counts implausible for their Poisson means")
    return errors


def _check_phase_scan(spec: dict, path: str) -> list[str]:
    offs, amps = oracle.fringe_coefficients(oracle.state(spec["state"]))
    return _check_counts_file(
        spec, path, 2.0 * math.pi,
        lambda phi: offs + spec["visibility"] * amps * np.cos(phi)[:, None])


def _check_trans_scan(spec: dict, path: str) -> list[str]:
    psi = oracle.state(spec["state"])
    return _check_counts_file(
        spec, path, math.pi,
        lambda theta: oracle.probabilities(psi, [(np.sin(theta / 2.0), spec["target"])]))


def _check_fit(spec: dict, stdout: str) -> list[str]:
    out = json.loads(stdout)
    if out["settings"] != spec["steps"] or len(out["ports"]) != 3:
        return ["fit reports the wrong number of settings or ports"]
    bad = [i + 1 for i, port in enumerate(out["ports"])
           if not oracle.visibility_ok(port["visibility"], port["stderr"], spec["visibility"])]
    return [f"fitted visibility of ports {bad} is not within 5 stderr of {spec['visibility']}"] if bad else []


def check(call: dict, returncode: int, stdout: str, stderr: str, workdir: str) -> list[str]:
    """Problems with one call's result; an empty list means it is correct."""
    spec = call["check"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if spec["kind"] == "usage":
        lines = stderr.splitlines()
        if returncode != 2 or stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            return [f"usage error gave exit {returncode} and stderr {stderr!r}"]
        return []
    if returncode != 0 or stderr:
        return [f"exit {returncode} with stderr {stderr.strip()[:200]!r}"]
    path = os.path.join(workdir, spec["out"]) if "out" in spec else None
    try:
        if spec["kind"] == "witness":
            return _check_witness(spec, stdout)
        if spec["kind"] == "run":
            return _check_run(spec, stdout)
        if spec["kind"] == "sample":
            return _check_sample(spec, stdout)
        if spec["kind"] == "reproduce":
            return _check_reproduce(stdout)
        if spec["kind"] == "check":
            return _check_selfcheck(stdout)
        if spec["kind"] == "fit":
            return _check_fit(spec, stdout)
        if stdout:
            return ["output requested in a file also went to stdout"]
        if spec["kind"] == "sweep-real":
            return _check_sweep_real(spec, path)
        if spec["kind"] == "sweep-complex":
            return _check_sweep_complex(spec, path)
        if spec["kind"] == "phase-scan":
            return _check_phase_scan(spec, path)
        return _check_trans_scan(spec, path)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
