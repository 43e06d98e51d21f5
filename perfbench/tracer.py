"""Traced in-process replay of a workload through ``ctxscope.cli.main``.

Run as ``python3 tracer.py PLAN RESULT SPANS`` with ctxscope importable and
the working directory set to a scratch directory. The plan is replayed twice:
once untraced, then again after every public function of every loaded
ctxscope module has been wrapped. Wrappers are matched by object identity,
so a name bound by ``from .interferometer import run_many`` in ``cli`` and
the module-global lookup inside ``phase_scan`` both reach the same wrapper.
Spans stay in memory and are written out at the end.

The metric arithmetic below imports nothing from ctxscope, so run.py
uses it directly.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import sys
import time
import types

LAYERS = ("core", "contexts", "interferometer", "stats", "selfcheck", "cli")
SAMPLING = ("stats.sample_counts", "stats.sample_dataset", "stats.noisy_fringe")

# Span fields, in the order they are stored.
NAME, START, END, PARENT, RUN, RAISED, SIZE = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: Work done by one call, read from its arguments.
SIZES = {
    "interferometer.run_many": lambda a, k: len(_arg(a, k, 1, "states")),
    "core.haar_random_states": lambda a, k: int(_arg(a, k, 0, "count")),
    "stats.fit_fringe": lambda a, k: len(_arg(a, k, 0, "data")),
    "interferometer.phase_scan": lambda a, k: len(_arg(a, k, 3, "grid")),
    "interferometer.transmittance_scan": lambda a, k: len(_arg(a, k, 3, "theta_grid")),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = -1

    def wrap(self, fn, name: str):
        spans, stack, size_of = self.spans, self.stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                size = size_of(args, kwargs) if size_of else 0
            except (TypeError, ValueError, KeyError, IndexError):
                size = 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, False, size]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> int:
        """Wrap every public function in every loaded ctxscope module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ctxscope" or n.startswith("ctxscope.")]
        wrappers: dict[int, tuple] = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and not value.__name__.startswith("_")
                        and (value.__module__ or "").startswith("ctxscope.")
                        and id(value) not in wrappers):
                    name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                    wrappers[id(value)] = (value, self.wrap(value, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        return len(wrappers)


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def replay(cli, calls: list[dict], tracer: Tracer | None = None) -> list[dict]:
    """Run each call through cli.main in this process; collect what it wrote."""
    results = []
    for run_id, call in enumerate(calls):
        if tracer is not None:
            tracer.run_id = run_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(call["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        stdout, stderr = out.getvalue(), err.getvalue()
        digest = hashlib.sha256(f"{rc}\0{stdout}\0{stderr}\0".encode())
        lines, size = stdout.count("\n"), len(stdout.encode())
        path = _out_path(call["argv"])
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
                    lines += block.count(b"\n")
                    size += len(block)
        results.append({"rc": rc, "stdout": stdout, "stderr": stderr, "digest": digest.hexdigest(),
                        "lines": lines, "bytes": size})
    return results


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def layer_metrics(spans: list[list], outputs: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer counts, self times and rates from spans of the traced replay."""
    index_layer = [span[NAME].split(".", 1)[0] for span in spans]
    self_time = self_times(spans)

    def total(values, names=None, layer=None):
        return sum(v for i, v in enumerate(values)
                   if (names is None or spans[i][NAME] in names)
                   and (layer is None or index_layer[i] == layer))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mine = [i for i, name in enumerate(index_layer) if name == layer]
        metrics[f"{layer}.calls"] = len(mine)
        metrics[f"{layer}.self_s"] = sum(self_time[i] for i in mine)
        metrics[f"{layer}.raised"] = sum(
            1 for i in mine if spans[i][RAISED]
            and (spans[i][PARENT] < 0 or index_layer[spans[i][PARENT]] != layer))
    ones = [1] * len(spans)
    sizes = [span[SIZE] for span in spans]
    durations = [span[END] - span[START] for span in spans]
    run_many = {"interferometer.run_many"}
    run_many_calls = total(ones, run_many)
    propagated = total(sizes, run_many)
    metrics["interferometer.run_many_calls"] = run_many_calls
    metrics["interferometer.states_per_call"] = rate(propagated, run_many_calls)
    metrics["interferometer.propagations_per_s"] = rate(propagated, metrics["interferometer.self_s"])
    metrics["interferometer.build_network_calls"] = total(ones, {"interferometer.build_network"})
    draws = 3 * total(ones, {"stats.sample_counts"})
    metrics["stats.sample_counts_calls"] = draws // 3
    metrics["stats.draws_per_s"] = rate(draws, total(self_time, set(SAMPLING)))
    fit = {"stats.fit_fringe"}
    metrics["stats.fit_s"] = total(durations, fit)
    metrics["stats.fit_settings_per_s"] = rate(total(sizes, fit), metrics["stats.fit_s"])
    haar = {"core.haar_random_states"}
    metrics["core.haar_states_per_s"] = rate(total(sizes, haar), total(durations, haar))
    rows = sum(o["lines"] for o in outputs)
    metrics["cli.rows_written"] = rows
    metrics["cli.bytes_written"] = sum(o["bytes"] for o in outputs)
    metrics["cli.rows_per_s"] = rate(rows, metrics["cli.self_s"])
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics


def main(argv: list[str]) -> int:
    plan_path, result_path, spans_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        calls = [call for cycle in json.load(fh) for call in cycle]
    import ctxscope.cli as cli  # noqa: PLC0415 - the program under test, from PYTHONPATH

    base = os.getcwd()
    timings = {}
    replays = {}
    tracer = Tracer()
    wrapped = 0
    for mode in ("untraced", "traced"):
        os.makedirs(mode)
        os.chdir(mode)
        if mode == "traced":
            wrapped = tracer.install()
        start = time.perf_counter()
        replays[mode] = replay(cli, calls, tracer if mode == "traced" else None)
        timings[mode] = time.perf_counter() - start
        os.chdir(base)
    shutil.rmtree("untraced")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    mismatched = [i for i, (a, b) in enumerate(zip(replays["untraced"], replays["traced"]))
                  if a["digest"] != b["digest"]]
    result = {
        "untraced_s": timings["untraced"],
        "traced_s": timings["traced"],
        "outputs": replays["traced"],
        "mismatched": mismatched,
        "wrapped": wrapped,
        "metrics": layer_metrics(tracer.spans, replays["traced"], timings["untraced"], timings["traced"]),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
