"""Command-line surface for the interferometer simulator.

Subcommands: check, run, witness, phase-scan, trans-scan, sweep, sample,
fit, reproduce. Exit codes: 0 success, 1 failed self-check, 2 usage or
input-schema error, 3 numerical degeneracy while fitting.

Outputs are deterministic for fixed flags and seed: CSV uses the fixed
headers below with nine-decimal floats and LF line endings, JSON uses
alphabetically ordered keys.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from typing import Iterator, Sequence

import numpy as np

from . import interferometer, stats
from .core import haar_random_states, normalize, real_amplitude_grid
from .interferometer import build_network, evaluate_states, run
from .reference import FRINGE_MODELS, MEASURED, NAMED_STATES
from .selfcheck import run_all_checks

IDEAL_CSV_HEADER = "setting,p1,p2,p3,survival"
COUNTS_CSV_HEADER = "setting,n1,n2,n3,duration"
ENV_SEED = "CTXSCOPE_SEED"

DEFAULT_RATE = 1000.0
DEFAULT_DURATION = 100.0
DEFAULT_STEPS = 25
CSV_BLOCK_ROWS = 65_536  # rows per chunk from _csv; bounds the formatting temporaries


class SchemaError(ValueError):
    """Malformed flag value or input file."""


def _f9(x: float) -> str:
    x = float(x)
    if abs(x) < 1e-12:
        x = 0.0
    return f"{x:.9f}"


def _csv(header: str, columns: Sequence[Sequence[float]]) -> Iterator[str]:
    """The header, then the rows in blocks of CSV_BLOCK_ROWS. Float columns
    print as _f9 does (|x| < 1e-12 snapped to 0, nine decimals), others as integers."""
    columns = [np.asarray(c) for c in columns]
    floating = [c.dtype.kind == "f" for c in columns]
    row = ",".join("%.9f" if f else "%d" for f in floating) + "\n"
    yield header + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
        block = [np.where(np.abs(c) < 1e-12, 0.0, c) if f else c for c, f in zip(block, floating)]
        values = itertools.chain.from_iterable(zip(*(c.tolist() for c in block)))
        yield (row * len(block[0])) % tuple(values)


def _write(out: str, *chunks: str) -> None:
    """The one sink: every chunk is formatted before the output is opened."""
    if out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def _json_dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        raw = os.environ.get(ENV_SEED)
        if raw is None:
            seed = 0
        else:
            try:
                seed = int(raw)
            except ValueError:
                raise SchemaError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise SchemaError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


_NAMED_LOOKUP = {name.casefold(): name for name in NAMED_STATES}


def _parse_state(spec: str) -> np.ndarray:
    name = _NAMED_LOOKUP.get(spec.strip().casefold())
    if name is not None:
        return NAMED_STATES[name]
    parts = spec.split(",")
    if len(parts) != 6:
        raise SchemaError(
            f"state must be one of {sorted(NAMED_STATES)} or six comma-separated "
            f"re,im amplitude parts, got {spec!r}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise SchemaError(f"state amplitudes must be numeric, got {spec!r}") from None
    vec = np.array([complex(values[0], values[1]),
                    complex(values[2], values[3]),
                    complex(values[4], values[5])])
    if not np.any(vec):
        raise SchemaError("state amplitudes must not all be zero")
    return normalize(vec)


def _state_parts(psi: np.ndarray) -> list[float]:
    return [float(v) for pair in ((a.real, a.imag) for a in psi) for v in pair]


def _split_pair(spec: str, flag: str) -> tuple[str, float]:
    label, sep, raw = spec.partition(":")
    if not sep:
        raise SchemaError(f"{flag} needs the form LABEL:VALUE, got {spec!r}")
    try:
        return label, float(raw)
    except ValueError:
        raise SchemaError(f"{flag} value must be numeric, got {spec!r}") from None


def _parse_modifiers(args: argparse.Namespace) -> list[interferometer.Modifier]:
    mods = []
    for label in args.block or []:
        mods.append(interferometer.block(label))
    for spec in args.phase or []:
        label, value = _split_pair(spec, "--phase")
        mods.append(interferometer.phase_shift(label, value))
    for spec in args.attenuate or []:
        label, value = _split_pair(spec, "--attenuate")
        mods.append(interferometer.attenuate(label, value))
    return mods


def _read_counts_csv(path: str) -> stats.FringeDataset:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path!r}: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or [cell.strip() for cell in rows[0][1]] != COUNTS_CSV_HEADER.split(","):
        raise SchemaError(f"input must start with header {COUNTS_CSV_HEADER!r}")
    settings, counts, durations = [], [], []
    for lineno, row in rows[1:]:
        if len(row) != 5:
            raise SchemaError(f"line {lineno}: expected 5 fields, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise SchemaError(f"line {lineno}: non-numeric field in {row}") from None
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"line {lineno}: non-finite field in {row}")
        if any(v < 0 for v in values[1:4]):
            raise SchemaError(f"line {lineno}: counts must be non-negative")
        if durations and values[4] != durations[0]:
            raise SchemaError(
                f"line {lineno}: duration {values[4]:g} differs from the first row's {durations[0]:g}")
        settings.append(values[0])
        counts.append(values[1:4])
        durations.append(values[4])
    if not settings:
        raise SchemaError("input has no data rows")
    return stats.FringeDataset(
        np.asarray(settings), np.asarray(counts), "counts",
        rate=None, duration=durations[0],
    )


def _noise_requested(args: argparse.Namespace) -> bool:
    return any(getattr(args, flag) is not None for flag in ("visibility", "rate", "duration"))


def cmd_check(args: argparse.Namespace) -> int:
    results = run_all_checks()
    lines = [f"{'ok' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results]
    failures = [r for r in results if not r.passed]
    if failures:
        lines.append(f"first failure: {failures[0].name}")
        _write(args.out, "\n".join(lines) + "\n")
        return 1
    lines.append("all checks passed")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    psi = _parse_state(args.state)
    mods = _parse_modifiers(args)
    dist = run(build_network(), psi, mods)
    if args.format == "csv":
        _write(args.out, *_csv("p1,p2,p3,survival", [[v] for v in (*dist, dist.survival)]))
    else:
        _write(args.out, _json_dump({
            "modifiers": [f"{m.action}:{m.target}" + (f":{m.value!r}" if m.action != "block" else "")
                          for m in mods],
            "p1": dist.p1,
            "p2": dist.p2,
            "p3": dist.p3,
            "state": _state_parts(psi),
            "survival": dist.survival,
        }))
    return 0


def _distribution(probs: np.ndarray) -> dict[str, float]:
    p1, p2, p3 = (float(p) for p in probs)
    return {"p1": p1, "p2": p2, "p3": p3, "survival": p1 + p2 + p3}


def cmd_witness(args: argparse.Namespace) -> int:
    psi = _parse_state(args.state)
    metrics = {k: v[0] for k, v in evaluate_states(build_network(), psi[None, :]).items()}
    free, blocked = _distribution(metrics["free"]), _distribution(metrics["blocked"])
    payload = {
        "blocked": blocked,
        "free": free,
        "gain_port3": float(metrics["gain"]),
        "p_d1": float(metrics["pd1"]),
        "p_d2": float(metrics["pd2"]),
        "p_f": float(metrics["pf"]),
        "state": _state_parts(psi),
        "witness_direct": float(metrics["witness"]),
        "witness_from_outputs": float(metrics["witness_outputs"]),
    }
    if args.format == "text":
        lines = [
            f"state: {args.state}",
            f"P(f)={payload['p_f']:.9f}  P(D1)={payload['p_d1']:.9f}  P(D2)={payload['p_d2']:.9f}",
            f"witness (interior paths):  {payload['witness_direct']:.9f}",
            f"witness (output side):     {payload['witness_from_outputs']:.9f}",
            f"gain at port 3 blocking f: {payload['gain_port3']:.9f}",
            "free output:    " + "  ".join(_f9(v) for v in metrics["free"]),
            "blocked output: " + "  ".join(_f9(v) for v in metrics["blocked"])
            + f"  (survival {_f9(blocked['survival'])})",
        ]
        _write(args.out, "\n".join(lines) + "\n")
    else:
        _write(args.out, _json_dump(payload))
    return 0


def _run_scan(args: argparse.Namespace, kind: str) -> int:
    psi = _parse_state(args.state)
    network = build_network()
    if args.steps < 1:
        raise SchemaError("--steps must be at least 1")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise SchemaError("--from and --to must be finite")
    grid = np.linspace(args.start, args.stop, args.steps)
    if kind == "phase":
        dataset = interferometer.phase_scan(network, psi, args.target, grid)
    else:
        dataset = interferometer.transmittance_scan(network, psi, args.target, grid)
    if _noise_requested(args):
        visibility = 1.0 if args.visibility is None else args.visibility
        rate = DEFAULT_RATE if args.rate is None else args.rate
        duration = DEFAULT_DURATION if args.duration is None else args.duration
        seed = _resolve_seed(args)
        if kind == "phase":
            dataset = stats.noisy_fringe(dataset, visibility, rate, duration, seed)
        else:
            if visibility != 1.0:
                raise SchemaError("--visibility models phase fringes; not valid for trans-scan")
            dataset = stats.sample_dataset(dataset, rate, duration, seed)
    if dataset.mode == "ideal":
        header, last = IDEAL_CSV_HEADER, dataset.values.sum(axis=1)
    else:
        header, last = COUNTS_CSV_HEADER, np.full(len(dataset), dataset.duration or 0.0)
    _write(args.out, *_csv(header, [dataset.settings, *dataset.values.T, last]))
    return 0


def cmd_phase_scan(args: argparse.Namespace) -> int:
    return _run_scan(args, "phase")


def cmd_trans_scan(args: argparse.Namespace) -> int:
    return _run_scan(args, "transmittance")


def _sweep_columns(states: np.ndarray) -> list[np.ndarray]:
    """witness, gain, pf, pd1, pd2; the output triples are freed before formatting."""
    metrics = evaluate_states(build_network(), states)
    return [metrics[k] for k in ("witness", "gain", "pf", "pd1", "pd2")]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.complex:
        if args.samples < 1:
            raise SchemaError("--samples must be at least 1")
        columns = _sweep_columns(haar_random_states(args.samples, _resolve_seed(args)))
        top = int(np.argmax(columns[0]))
        _write(args.out, *_csv("index,witness,gain,pf,pd1,pd2", [np.arange(args.samples), *columns]),
               f"# max_witness={_f9(columns[0][top])} index={top}\n")
    else:
        if args.resolution < 2:
            raise SchemaError("--resolution must be at least 2")
        alphas, betas, states = real_amplitude_grid(args.resolution)
        columns = _sweep_columns(states)
        top = int(np.argmax(columns[0]))
        trailer = f"# max_witness={_f9(columns[0][top])} alpha={_f9(alphas[top])} beta={_f9(betas[top])}\n"
        _write(args.out, *_csv("alpha,beta,witness,gain,pf,pd1,pd2", [alphas, betas, *columns]), trailer)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    psi = _parse_state(args.state)
    mods = _parse_modifiers(args)
    if not math.isfinite(args.setting):
        raise SchemaError("--setting must be finite")
    dist = run(build_network(), psi, mods)
    seed = _resolve_seed(args)
    record = stats.sample_counts(dist, args.rate, args.duration, seed, setting=args.setting)
    if args.format == "csv":
        columns = [[record.setting], *([c] for c in record.counts), [args.duration]]
        _write(args.out, *_csv(COUNTS_CSV_HEADER, columns))
    else:
        _write(args.out, _json_dump({
            "counts": list(record.counts),
            "duration": args.duration,
            "rate": args.rate,
            "seed": record.seed,
            "setting": record.setting,
        }))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    dataset = _read_counts_csv(args.input)
    offs, amps = interferometer.fringe_coefficients(build_network(), NAMED_STATES[args.model])
    result = stats.fit_fringe(dataset, list(zip(offs, amps)))
    _write(args.out, _json_dump({
        "model": args.model,
        "ports": [
            {"a": p.a, "b": p.b, "c": p.c, "stderr": p.stderr, "visibility": p.visibility}
            for p in result.ports
        ],
        "settings": int(dataset.settings.size),
    }))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    network = build_network()
    lines = ["benchmark reproduction: simulator vs published measured values", ""]
    header = f"{'state':<6} {'quantity':<20} {'simulated':>13} {'reference':>11} {'|delta|':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    dev_probs, dev_gains, dev_witness = 0.0, 0.0, 0.0

    def row(state: str, quantity: str, simulated: float, reference: float, ref_decimals: int = 3) -> float:
        delta = abs(simulated - reference)
        lines.append(
            f"{state:<6} {quantity:<20} {simulated:>13.9f} {reference:>11.{ref_decimals}f} {delta:>12.9f}"
        )
        return delta

    names = ("Nf", "Bf", "V0")
    metrics = evaluate_states(network, np.array([NAMED_STATES[name] for name in names]))
    for n, name in enumerate(names):
        free, blocked = metrics["free"][n], metrics["blocked"][n]
        measured = MEASURED[name]
        for i in range(3):
            dev_probs = max(dev_probs, row(name, f"free p{i + 1}", free[i], measured.free[i]))
        for i in range(3):
            dev_probs = max(dev_probs, row(name, f"blocked p{i + 1}", blocked[i], measured.blocked[i]))
        dev_gains = max(dev_gains, row(name, "gain port3", metrics["gain"][n], measured.gain))
        dev_witness = max(dev_witness, row(name, "witness direct", metrics["witness"][n], measured.witness))
        dev_witness = max(
            dev_witness,
            row(name, "witness outputs", metrics["witness_outputs"][n], measured.witness),
        )
        offs, amps = interferometer.fringe_coefficients(network, NAMED_STATES[name])
        model_offs, model_amps = FRINGE_MODELS[name]
        for i in range(3):
            row(name, f"fringe a{i + 1}", offs[i], model_offs[i], ref_decimals=9)
            row(name, f"fringe b{i + 1}", amps[i], model_amps[i], ref_decimals=9)
        vis = measured.visibilities
        lines.append(
            f"{name:<6} reported fitted visibilities (experiment-specific): "
            f"V1={vis[0]:.2f} V2={vis[1]:.2f} V3={vis[2]:.2f}"
        )
        lines.append("")
    lines.append(
        f"max |delta|: probabilities {dev_probs:.9f}, gains {dev_gains:.9f}, "
        f"witnesses {dev_witness:.9f}"
    )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _add_out(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="-", help="output path, or - for stdout (default)")


def _add_state(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--state", required=True,
        help="named state (Nf, Bf, V0, basis1, basis2, basis3) or six comma-separated "
             "re,im amplitude parts; normalized on load",
    )


def _add_seed(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help=f"RNG seed; defaults to ${ENV_SEED}, then 0")


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
    sp.add_argument("--visibility", type=float, default=None,
                    help="fringe visibility for noisy counts (default 1.0 when sampling)")
    sp.add_argument("--rate", type=float, default=None,
                    help=f"detected photons per second (default {DEFAULT_RATE:g} when sampling)")
    sp.add_argument("--duration", type=float, default=None,
                    help=f"integration time per setting in seconds (default {DEFAULT_DURATION:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxscope",
        description="Simulate the five-splitter three-path interferometer, its "
                    "contextuality witness, and counterfactual gain.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("check", help="run the structural self-check suites")
    _add_out(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("run", help="propagate one state, optionally with modifiers")
    _add_state(sp)
    _add_modifiers(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("witness", help="witness, gain, and output distributions for a state")
    _add_state(sp)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    _add_out(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("phase-scan", help="sweep a phase shifter in an interior path")
    _add_state(sp)
    _add_scan_grid(sp, 2.0 * math.pi)
    _add_seed(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_phase_scan)

    sp = sub.add_parser("trans-scan", help="sweep a tunable absorber in an interior path")
    _add_state(sp)
    _add_scan_grid(sp, math.pi)
    _add_seed(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_trans_scan)

    sp = sub.add_parser("sweep", help="map witness and gain over the real state octant")
    sp.add_argument("--resolution", type=int, default=101,
                    help="grid points per axis (default 101)")
    sp.add_argument("--complex", action="store_true",
                    help="sample seeded Haar-random complex states instead of the real grid")
    sp.add_argument("--samples", type=int, default=10_000,
                    help="number of random states with --complex (default 10000)")
    _add_seed(sp)
    _add_out(sp)
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
    _add_out(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("fit", help="fit fringe visibilities to a counts CSV")
    sp.add_argument("--input", required=True, help="counts CSV path, or - for stdin")
    sp.add_argument("--model", required=True, choices=("Nf", "Bf", "V0"),
                    help="which theory fringe the data follows")
    _add_out(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("reproduce", help="regenerate every benchmark number next to the published values")
    _add_out(sp)
    sp.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except stats.DegenerateDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
