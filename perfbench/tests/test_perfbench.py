"""Tests of the benchmark itself: oracle, input generator, names, smoke runs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""
import json
import math

import numpy as np
import pytest

import oracle
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_oracle_matches_published_closed_forms():
    assert oracle.self_check_failures() == []
    names = [name for name, _, _ in oracle.self_check()]
    assert names == ["Nf witness", "V0 blocked p1", "V0 blocked p2", "V0 blocked p3",
                     "Bf blocked p1", "Bf blocked p2", "Bf blocked p3", "max witness"]


def test_oracle_paths_form_the_five_contexts():
    contexts = [("1", "2", "3"), ("1", "D1", "S1"), ("f", "P1", "S1"), ("f", "P2", "S2"), ("2", "D2", "S2")]
    for context in contexts:
        basis = np.array([oracle.PATHS[label] for label in context])
        assert np.max(np.abs(basis @ basis.T - np.eye(3))) < 1e-15


def test_oracle_applies_modifiers_in_stage_order():
    # f and D2 overlap, so blocking both depends on the order; listing order must not.
    psi = oracle.state("V0")
    forward = oracle.probabilities(psi, [("block", "f"), ("block", "D2")])
    backward = oracle.probabilities(psi, [("block", "D2"), ("block", "f")])
    assert np.allclose(forward, backward, atol=0)
    d2_then_f = np.abs(oracle.propagate(oracle.propagate(psi, [("block", "D2")]), [("block", "f")])) ** 2
    assert not np.allclose(forward, d2_then_f)


def test_oracle_output_identity_on_haar_states():
    states = oracle.haar_states(1000, 3)
    free = oracle.probabilities(states)
    blocked = oracle.probabilities(states, [("block", "f")])
    assert np.max(np.abs(oracle.witness(states) - oracle.witness_from_outputs(free, blocked))) < 1e-12


def test_count_tolerance_accepts_poisson_draws_and_rejects_outliers():
    rng = np.random.default_rng(5)
    means = np.array([0.0, 0.05, 1.0, 12.0, 29.9, 30.0, 1e3, 1e5])
    draws = rng.poisson(means, size=(20_000, means.size))
    assert oracle.counts_ok(draws, means).all()
    assert not oracle.counts_ok([1, 50, 0, 1e5 + 4e3], [0.0, 10.0, 60.0, 1e5]).any()


def test_visibility_tolerance():
    assert oracle.visibility_ok(0.93, 0.01, 0.95)
    assert not oracle.visibility_ok(0.80, 0.01, 0.95)
    assert not oracle.visibility_ok(float("nan"), 0.01, 0.95)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.plan(workload, 7, cycles=3)
    assert first == workloads.plan(workload, 7, cycles=3)
    assert workloads.input_hash(first) == workloads.input_hash(workloads.plan(workload, 7, cycles=3))
    assert workloads.input_hash(first) != workloads.input_hash(workloads.plan(workload, 8, cycles=3))
    for cycle in first:
        for call in cycle:
            assert all(not arg.startswith("/") and ".." not in arg for arg in call["argv"])


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_tail_uses_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, "p75")
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, "p90")
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, "max")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(workload):
    result = run.run(workload, seed=3, seconds=0.01, trace=False, scale=0.01)
    assert result["failed"] == 0, result["record"]["errors"]
    assert result["record"]["fail_ratio"] == 0
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_one_seed(workload):
    first = run.run(workload, seed=4, seconds=0.01, trace=True, scale=0.01)
    second = run.run(workload, seed=4, seconds=0.01, trace=True, scale=0.01)
    assert first["failed"] == 0, first["record"]["errors"]
    assert list(first["metrics"]) == list(run.PER_LAYER)
    counts = [name for name in run.PER_LAYER
              if name.endswith((".calls", "_calls", ".raised", "rows_written", "bytes_written"))]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["cli.calls"]["value"] > 0
