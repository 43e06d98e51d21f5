"""Compare traced runs with the baseline figures of the ROADMAP re-anchor.

    python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 1   # for each workload
    python3 perfbench/crosscheck.py --seed N

Reads the records and spans those runs left in .perfbench_out/, prints one
line per figure, and gates on nothing: the reference figures are single
in-process measurements taken on another day, and traced times include the
wrappers' cost.
"""
from __future__ import annotations

import argparse
import json

import run
import tracer
import workloads

# (what, reference figure from the re-anchor table)
REFERENCE = {
    "import": "import ctxscope ~0.42 s wall, bare python ~0.05 s",
    "stats_import": "scipy.special ~0.20 s of the import",
    "sweep_format": "per-cell CSV formatting ~90% of a sweep call",
    "phase_scan": "phase_scan, 2001 settings, in-process: ~55-60 ms",
    "run_many": "run_many called once per scan setting",
}


def _load(workload: str, seed: int) -> tuple[dict, list[list]]:
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text(encoding="utf-8"))
    with open(run.ROOT / record["spans"], encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    return record, spans


def _duration(span: list) -> float:
    return span[tracer.END] - span[tracer.START]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    record, _ = _load("cli-interactive", args.seed)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    imports = record["imports_ms"]
    total_ms = imports.get("ctxscope.cli", 0.0)
    print(f"import: {REFERENCE['import']}; measured -X importtime cumulative for ctxscope.cli "
          f"{total_ms:.0f} ms, bare interpreter {metrics['setup.interpreter_s'] * 1e3:.0f} ms")
    print(f"stats import: {REFERENCE['stats_import']}; measured stats.import_ms "
          f"{metrics['stats.import_ms']:.0f} ms ({metrics['stats.import_ms'] / total_ms:.0%} of the import)")

    record, spans = _load("sweep-map", args.seed)
    own = tracer.self_times(spans)
    calls = [call for cycle in workloads.plan("sweep-map", args.seed, cycles=workloads.TRACE_CYCLES["sweep-map"])
             for call in cycle]
    for run_id, call in enumerate(calls):
        whole = sum(_duration(s) for s in spans if s[tracer.RUN] == run_id and s[tracer.NAME] == "cli.main")
        cli = sum(t for s, t in zip(spans, own) if s[tracer.RUN] == run_id and s[tracer.NAME].startswith("cli."))
        print(f"sweep format: {REFERENCE['sweep_format']}; measured cli self time {cli / whole:.0%} of "
              f"{whole:.2f} s for {' '.join(call['argv'][:-2])} ({call['items']} rows)")

    record, spans = _load("fringe-pipeline", args.seed)
    scans = [s for s in spans if s[tracer.NAME] == "interferometer.phase_scan"]
    per_2001 = sum(_duration(s) for s in scans) / sum(s[tracer.SIZE] for s in scans) * 2001
    print(f"phase scan: {REFERENCE['phase_scan']}; measured {per_2001 * 1e3:.0f} ms per 2001 settings "
          f"(traced, {len(scans)} scans)")
    calls = [call for cycle in workloads.plan("fringe-pipeline", args.seed,
                                              cycles=workloads.TRACE_CYCLES["fringe-pipeline"])
             for call in cycle]
    settings = sum(call["check"]["steps"] for call in calls if call["argv"][0] in ("phase-scan", "trans-scan"))
    fits = sum(1 for call in calls if call["argv"][0] == "fit")
    run_many_calls = record["metrics"]["interferometer.run_many_calls"]["value"]
    print(f"run_many: {REFERENCE['run_many']}; measured {run_many_calls} calls for {settings} scan settings "
          f"and {fits} fits (2 calls each): {'equal' if run_many_calls == settings + 2 * fits else 'DIFFERENT'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
