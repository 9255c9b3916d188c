"""Shape and determinism tests for the benchmark, at tiny sizes and without timing thresholds.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kronfft as kf  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "transform": {"sizes": (("fft", 3, 2, 0), ("qft", 3, 2, 0), ("fft", 2, 3, 0), ("fft", 2, 2, 3))},
    "certify": {"plans": (("fft", 3, 2), ("qft", 2, 3)), "circuit_qubits": 3},
    "qft-symbolic": {"qubits": (3, 4), "states": ((3, 2), (2, 3))},
}
COUNTS = (
    "tensor.apply_structured.calls",
    "tensor.term_passes",
    "tensor.bytes_computed",
    "factorize.kron_terms",
    "factorize.site_matrices",
    "cpstate.apply_op_cp.calls",
    "cpstate.terms_peak",
    "circuit.gates",
)


def tiny_run(name: str, trace: bool, seed: int = 3):
    return harness.run_workload(name, seed, 0.0, trace, TINY[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_has_its_unit(name, trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    report = tiny_run(name, trace)
    assert report.failed == 0, report.failures
    assert report.attempted >= 1
    assert {k: m["unit"] for k, m in report.metrics.items()} == expected
    for m in report.metrics.values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert {w["name"] for w in bench["workloads"]} == set(TINY)


def test_fft_apply_replay_is_bitwise_equal():
    rng = np.random.default_rng(0)
    for plan, cols in ((kf.fft_plan(3, 2), 0), (kf.qft_plan(3, 2), 0), (kf.fft_plan(2, 5), 2)):
        shape = (plan.dim, cols) if cols else (plan.dim,)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for inverse in (False, True):
            replayed = workloads.replay_fft_apply(Tracer(), plan, x, inverse)
            assert replayed.tobytes() == kf.fft_apply(plan, x, inverse).tobytes()


def test_verify_plan_replay_gives_the_same_certificate():
    for plan in (kf.fft_plan(3, 2), kf.qft_plan(2, 3), kf.fft_plan(2, 5)):
        assert workloads.replay_verify_plan(Tracer(), plan) == kf.verify_plan(plan)


def test_rank_experiment_replay_gives_the_same_trajectory():
    for n, d in ((3, 2), (2, 3), (4, 2)):
        state = kf.random_rank_one(n, d, seed=5)
        library = kf.qft_rank_experiment(n, d, state)
        residual, counts = workloads.replay_qft_rank_experiment(Tracer(), n, d, state)
        assert residual == library.residual
        assert counts == tuple(s.term_count for s in library.steps)


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_are_non_negative_and_within_the_parent(name):
    report = tiny_run(name, trace=True)
    spans = report.tracer.spans
    assert spans
    for s in spans:
        assert s.self_time >= 0
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert s.self_time <= parent.duration
            assert s.op == parent.op


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_exactly_on_one_seed(name):
    first = tiny_run(name, trace=True).metrics
    second = tiny_run(name, trace=True).metrics
    for key in COUNTS:
        assert first[key] == second[key], key
        assert isinstance(first[key]["value"], int)


def test_counts_follow_the_plan_structure():
    metrics = tiny_run("qft-symbolic", trace=True).metrics
    kinds = ("hadamard_or_fourier", "controlled_r", "swap")
    gates = sum(kf.qft_count_formulas(n)[k] for n in (3, 4) for k in kinds)
    assert metrics["circuit.gates"]["value"] == gates
    # Generic product states: the CP term count doubles per qubit control, 2**(n-1) at the end.
    assert metrics["cpstate.terms_peak"]["value"] == 4
    assert metrics["cpstate.apply_op_cp.calls"]["value"] == 6 + 3


def test_a_missed_tolerance_counts_as_failed_and_stays_in_the_sample(monkeypatch):
    monkeypatch.setattr(workloads, "TRANSFORM_TOL", -1.0)
    report = tiny_run("transform", trace=False)
    assert report.attempted == 2 * len(TINY["transform"]["sizes"])
    assert report.failed == report.attempted
    assert report.details["fail_ratio"] == 1.0
    assert report.details["samples"] == report.attempted


def test_an_exception_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken kernel")

    workload, _, _ = harness.set_up("certify", 3, Tracer(), TINY["certify"])
    monkeypatch.setattr(kf, "verify_plan", broken)
    phase = harness.run_phase(workload, 0.0)
    assert len(phase.latencies) == len(workload.ops)
    assert len(phase.failures) == len(TINY["certify"]["plans"])
    assert all("broken kernel" in f for f in phase.failures)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_op_has_a_positive_cost_in_reference_loops(name):
    workload, _, _ = harness.set_up(name, 3, Tracer(), TINY[name])
    assert workload.reference in harness.REFERENCE_LOOPS
    phase = harness.run_phase(workload, 0.0)
    assert phase.cycles == 1
    assert len(phase.costs) == len(phase.references) == len(phase.latencies)
    assert all(c > 0 for c in phase.costs) and all(r > 0 for r in phase.references)
    assert phase.ops_per_kref == pytest.approx(1e3 * len(phase.costs) / sum(phase.costs))


def test_tail_percentile_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(40)]
    assert harness.tail(latencies) == (29.0, 75.0, 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_exits_non_zero_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
