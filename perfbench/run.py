"""Benchmark for the ctxscope CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` this process runs one CLI child at a time (closed
loop, one client) until the calls have taken ``--seconds`` in total,
finishing the twin pair of cycles in progress, and reports the end-to-end
metrics over the faster call of each twin pair. With
``--trace 1`` it replays a fixed prefix of the same seeded inputs in one
child process through ``ctxscope.cli.main`` with every public function
wrapped, and reports per-layer metrics. Every output is checked against the
oracle in ``oracle.py``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Children get the caller's environment unchanged. This process only checks
# outputs between calls; one BLAS thread keeps idle worker threads from
# spinning on the CPUs while the next call runs.
CALLER_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import oracle  # noqa: E402 - after the BLAS thread limit
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MODULES = ("core", "contexts", "interferometer", "stats", "reference", "selfcheck", "cli")
END_TO_END = {"setup_s": "s", "call_p50_s": "s", "call_tail_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.interpreter_s": "s",
    **{f"{m}.import_ms": "ms" for m in MODULES},
    **{f"{layer}.{field}": unit for layer in tracer.LAYERS
       for field, unit in (("calls", "count"), ("self_s", "s"), ("raised", "count"))},
    "interferometer.run_many_calls": "count",
    "interferometer.states_per_call": "states/call",
    "interferometer.propagations_per_s": "1/s",
    "interferometer.build_network_calls": "count",
    "stats.sample_counts_calls": "count",
    "stats.draws_per_s": "1/s",
    "stats.fit_s": "s",
    "stats.fit_settings_per_s": "1/s",
    "core.haar_states_per_s": "1/s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "cli.rows_per_s": "1/s",
    "trace.overhead_s": "s",
}

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
#: Stop starting twin pairs after this much wall time, so a run ends within 180 s.
WALL_LIMIT_S = 120.0
CALL_TIMEOUT_S = 40.0
SETUP_CODE = "import ctxscope, ctxscope.cli; ctxscope.build_network()"
CLI_CODE = "from ctxscope.cli import entry; entry()"


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def program_env() -> dict:
    """Environment for children that import ctxscope from this checkout only."""
    if not (SRC / "ctxscope" / "cli.py").is_file():
        raise BenchError(f"no ctxscope sources under {SRC}; run from a full checkout")
    env = {k: v for k, v in CALLER_ENV.items() if k not in ("PYTHONPATH", "CTXSCOPE_SEED")}
    env["PYTHONPATH"] = str(SRC)
    probe = subprocess.run([sys.executable, "-c", "import ctxscope.cli; print(ctxscope.cli.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True)
    if probe.returncode != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"cannot import ctxscope from {SRC}: {probe.stderr.strip()[-300:]}")
    return env


def timed(argv: list[str], env: dict, cwd) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        proc = subprocess.CompletedProcess(argv, -9, "", f"killed after {CALL_TIMEOUT_S} s")
    return time.perf_counter() - start, proc


def median_wall(code: str, env: dict) -> float:
    walls = []
    for _ in range(SETUP_RUNS):
        wall, proc = timed([sys.executable, "-c", code], env, ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-300:]}")
        walls.append(wall)
    return statistics.median(walls)


def import_split(env: dict) -> dict[str, float]:
    """Median cumulative ``-X importtime`` per ctxscope module, in ms."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ctxscope.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1000.0
        runs.append(cumulative)
    names = {name for run in runs for name in run if name == "ctxscope" or name.startswith("ctxscope.")}
    return {name: statistics.median(run.get(name, 0.0) for run in runs) for name in sorted(names)}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size = (_read(base + name) for name in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "ctxscope").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "loadavg": list(os.getloadavg()),
    }


def tail(durations: list[float]) -> tuple[float, str]:
    """Highest of p99/p90/p75 with at least ten calls beyond it, else the maximum."""
    ordered = sorted(durations)
    n = len(ordered)
    for q in (99, 90, 75):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{q}"
    return ordered[-1], "max"


def _run_cycle(cycle: list[dict], env: dict, work: str) -> list[dict]:
    """Run each call of a cycle as a child process and check its output."""
    results = []
    for call in cycle:
        wall, proc = timed([sys.executable, "-c", CLI_CODE, *call["argv"]], env, work)
        problems = workloads.check(call, proc.returncode, proc.stdout, proc.stderr, work)
        results.append({"argv": call["argv"], "wall": wall, "items": call["items"], "problems": problems})
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    return results


def run_end_to_end(env: dict, workload: str, seed: int, seconds: float, scale: float) -> dict:
    cycles = workloads.plan(workload, seed, scale=scale)
    record = {"input_sha256": workloads.input_hash(cycles)}
    setup = median_wall(SETUP_CODE, env)
    calls, kept = [], []
    busy, start = 0.0, time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        for first, second in zip(cycles[::2], cycles[1::2]):
            pair = [_run_cycle(first, env, work), _run_cycle(second, env, work)]
            calls += pair[0] + pair[1]
            # Other tenants of a shared host only ever add time, so of two
            # calls doing equal work the faster is kept.
            kept += [min(a, b, key=lambda r: r["wall"]) for a, b in zip(*pair)]
            busy += sum(r["wall"] for r in pair[0] + pair[1])
            if busy >= seconds or time.perf_counter() - start > WALL_LIMIT_S:
                break
    walls = [r["wall"] for r in kept]
    failed = [r for r in calls if r["problems"]]
    tail_value, tail_rank = tail(walls)
    record.update({
        "calls": len(calls), "kept": len(kept), "busy_s": busy, "fail_ratio": len(failed) / len(calls),
        "call_tail_percentile": tail_rank, "errors": [{k: r[k] for k in ("argv", "problems")} for r in failed[:20]],
        "durations": [r["wall"] for r in calls],
    })
    metrics = {
        "setup_s": setup,
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail_value,
        "items_per_s": sum(r["items"] for r in kept if not r["problems"]) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return {"attempted": len(calls), "failed": len(failed), "metrics": metrics, "record": record}


def run_traced(env: dict, workload: str, seed: int, scale: float) -> dict:
    cycles = workloads.plan(workload, seed, cycles=workloads.TRACE_CYCLES[workload], scale=scale)
    calls = [call for cycle in cycles for call in cycle]
    record = {"input_sha256": workloads.input_hash(cycles)}
    interpreter = median_wall("pass", env)
    imports = import_split(env)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        plan_path = Path(work) / "plan.json"
        plan_path.write_text(json.dumps(cycles), encoding="utf-8")
        result_path = Path(work) / "result.json"
        proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(plan_path), str(result_path),
                               str(spans_path)], env=env, cwd=work, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"traced replay failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        errors = []
        for i, (call, out) in enumerate(zip(calls, result["outputs"])):
            problems = workloads.check(call, out["rc"], out["stdout"], out["stderr"], str(Path(work) / "traced"))
            if i in result["mismatched"]:
                problems.append("tracing changed the output")
            if problems:
                errors.append({"argv": call["argv"], "problems": problems})
    metrics = {"setup.interpreter_s": interpreter,
               **{f"{m}.import_ms": imports.get(f"ctxscope.{m}", 0.0) for m in MODULES},
               **result["metrics"]}
    record.update({"imports_ms": imports, "wrapped": result["wrapped"], "untraced_s": result["untraced_s"],
                   "traced_s": result["traced_s"], "spans": str(spans_path.relative_to(ROOT)),
                   "errors": errors[:20], "fail_ratio": len(errors) / len(calls)})
    return {"attempted": len(calls), "failed": len(errors), "metrics": metrics, "record": record}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result line plus a full record."""
    failures = oracle.self_check_failures()
    if failures:
        raise BenchError(f"oracle self-check failed: {failures}")
    env = program_env()
    OUT.mkdir(exist_ok=True)
    env_record = environment()
    if trace:
        result = run_traced(env, workload, seed, scale)
    else:
        result = run_end_to_end(env, workload, seed, seconds, scale)
    units = PER_LAYER if trace else END_TO_END
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    result["correct"] = result["failed"] == 0
    result["record"].update({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                             "environment": env_record})
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    record.update({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"inputs sha256 {record['input_sha256'][:16]}")
    print(f"env: commit {env['commit']} src {env['src_sha256'][:12]} python {env['python']} "
          f"numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']} cpu {env['cpu_model']!r} "
          f"caches {env['caches']} loadavg {env['loadavg']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<36} {record['fail_ratio']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    if not args.trace:
        print(f"  call_tail_s is {record['call_tail_percentile']} of {record['kept']} kept calls "
              f"(the faster of each twin pair, {record['calls']} run)")
    for error in record["errors"][:5]:
        print(f"  FAILED {' '.join(error['argv'])[:120]}: {error['problems']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
