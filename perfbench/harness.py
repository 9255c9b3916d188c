"""Runs one workload: set-up, timed phases, oracle checks, metrics and the
environment stamp.

Load shape: one process, one caller, closed loop.  A timed phase runs whole
cycles of the workload's ops for about ``seconds`` of op time; checks,
``numpy.fft`` timings and the reference loop run between ops, outside the
timed region.  End-to-end metrics come from an untraced phase.  A traced run
splits its time between an untraced phase and a replay of the same ops under
spans, so the tracing overhead is the difference between the two phases'
throughput.

A host shared with other tenants can change speed by up to 40 % for seconds
to minutes at a time (seen on a 2-core Xeon share).  Every op is therefore
also timed in units of a fixed reference loop run beside it (see
``REFERENCE_LOOPS``): the bounded time metrics are those ratios, which the
host's speed cancels out of, and the wall-clock figures are printed with them.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import SETUP, Tracer
from workloads import BY_NAME

END_TO_END = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "vs_numpy_ratio": "x",
    "peak_rss_mb": "MiB",
}
#: Wall-clock counterparts, printed and kept in the report but not bounded:
#: on a shared host they move with other tenants' load.
WALL_CLOCK = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "reference_ms": "ms"}

LAYERS = ("tensor", "spectral", "factorize", "circuit", "cpstate")
#: Spans whose summed self time is reported as ``<name>.ms``.
TIMED_SPANS = (
    "tensor.apply_structured",
    "tensor.digit_reversal",
    "tensor.permutation_apply",
    "tensor.unitarity_residual",
    "spectral.dft_matrix",
    "factorize.plan_build",
    "factorize.plan_product",
    "factorize.plan_json",
    "circuit.lower_to_circuit",
    "circuit.circuit_json",
    "circuit.circuit_unitary",
    "cpstate.apply_op_cp",
    "cpstate.reverse_sites",
    "cpstate.dense_check",
)
#: Spans whose number is reported as ``<name>.calls``.
COUNTED_SPANS = ("tensor.apply_structured", "cpstate.apply_op_cp")
#: Metric -> (span name or None for any span, count key summed over those spans).
SUMMED_COUNTS = {
    "tensor.term_passes": ("tensor.apply_structured", "term_passes"),
    "tensor.bytes_computed": ("tensor.apply_structured", "bytes"),
    "spectral.dft_matrix.bytes_computed": ("spectral.dft_matrix", "bytes"),
    "factorize.plan_product.bytes_computed": ("factorize.plan_product", "bytes"),
    "factorize.kron_terms": (None, "kron_terms"),
    "factorize.site_matrices": (None, "site_matrices"),
    "circuit.gates": (None, "gates"),
}

PER_LAYER = {
    **{f"{name}.ms": "ms" for name in TIMED_SPANS},
    **{f"{name}.calls": "count" for name in COUNTED_SPANS},
    **{name: ("bytes" if key == "bytes" else "count") for name, (_, key) in SUMMED_COUNTS.items()},
    "cpstate.terms_peak": "count",
    "cpstate.terms_kept_ratio": "ratio",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "baseline.numpy_fft.ms": "ms",
    "trace.ops_per_kref_untraced": "1/kref",
    "trace.ops_per_kref_traced": "1/kref",
    "trace.overhead_pct": "%",
    "trace.replay_mismatches": "count",
}


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    #: Latencies by op key: one list per op type of the cycle.
    by_key: dict = field(default_factory=dict)
    #: Each latency over the mean of the reference-loop times just before and after the op.
    costs: list = field(default_factory=list)
    #: Costs by op key.
    costs_by_key: dict = field(default_factory=dict)
    #: Reference-loop seconds just after each op.
    references: list = field(default_factory=list)
    #: Op time over numpy.fft time on the same data, by op key, for ops with a numpy counterpart.
    ratios: dict = field(default_factory=dict)
    numpy_s: float = 0.0
    cycles: int = 0
    #: Op seconds of each cycle.
    cycle_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    mismatches: int = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy_s

    @property
    def ops_per_kref(self) -> float:
        """Ops per thousand reference loops of op time."""
        return 1e3 * len(self.costs) / sum(self.costs)


@dataclass
class Report:
    attempted: int
    failed: int
    metrics: dict
    details: dict
    failures: list
    tracer: Tracer


def best_time(fn):
    """Per-call seconds of ``fn`` and its first output.

    A call shorter than 50 ms is timed again in loops of at least 2 ms, and
    the best loop counts, so microsecond calls are not read off one timer tick.
    """
    start = perf_counter()
    out = fn()
    best = perf_counter() - start
    if best < 0.05:
        inner = max(1, int(2e-3 / max(best, 1e-7)))
        for _ in range(3):
            start = perf_counter()
            for _ in range(inner):
                fn()
            best = min(best, (perf_counter() - start) / inner)
    return best, out


_REF_RNG = np.random.default_rng(20030311)
_REF_MATRIX = _REF_RNG.standard_normal((4, 4))
_REF_VECTOR = _REF_RNG.standard_normal(1 << 14) + 1j * _REF_RNG.standard_normal(1 << 14)
_REF_PHASES = _REF_RNG.random(1 << 18)
#: 64 MiB, past the L2 and most of the L3; allocated on first use and kept.
_REF_STREAM: list = []
_REF_STREAM_LEN = 1 << 23


def _interpreter_work() -> None:
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + 3 * i
    for _ in range(40):
        np.kron(_REF_MATRIX[:2, :2], _REF_MATRIX) @ np.eye(8)
    np.fft.fft(_REF_VECTOR)


def _stream_work() -> None:
    if not _REF_STREAM:
        _REF_STREAM.append(np.ones(_REF_STREAM_LEN))
    np.multiply(_REF_STREAM[0], 1.0, out=_REF_STREAM[0])


def _exp_work() -> None:
    np.exp(2j * np.pi * _REF_PHASES)


#: Reference loops: fixed work owned by the benchmark, one per kind of work a
#: workload does.  The host's load slows interpreter-bound code, memory
#: streams and arithmetic by different shares, so each workload is timed
#: against the loop of its own kind.  ``interpreter`` (a dict loop, small
#: Kronecker products, a 2^14-point FFT; about 2 ms) serves ``transform`` and
#: ``qft-symbolic``; ``memory`` (a pass over 64 MiB and 2^18 complex
#: exponentials; about 10 ms each) serves ``certify``.  The second element is
#: the nominal seconds of one loop (the loop's time on the 2-core Xeon the
#: benchmark was sized on): a phase runs for ``seconds`` of op time counted in
#: loops of that length, so the number of cycles it runs depends on the
#: program and not on the host's speed at the time.
REFERENCE_LOOPS = {
    "interpreter": ((_interpreter_work,), 2.5e-3),
    "memory": ((_stream_work, _exp_work), 10e-3),
}


def reference_s(kind: str) -> float:
    """Seconds of one reference loop of ``kind``: the geometric mean over its
    parts of each part's median of three timings."""
    medians = []
    for work in REFERENCE_LOOPS[kind][0]:
        times = []
        for _ in range(3):
            start = perf_counter()
            work()
            times.append(perf_counter() - start)
        medians.append(statistics.median(times))
    return statistics.geometric_mean(medians)


def set_up(name: str, seed: int, tracer: Tracer, params: dict):
    """Build plans and inputs, then run one warm-up op per size.

    Returns the workload, the warm-up results by op key (the library results
    that traced replays are compared with) and the seconds it took.
    """
    start = perf_counter()
    workload = BY_NAME[name](seed, tracer, **params)
    references = {op.key: op.run(None) for op in workload.warmup}
    return workload, references, perf_counter() - start


def run_phase(workload, seconds: float, tracer: Tracer | None = None, references=None) -> Phase:
    """Run the whole number of cycles whose op time, in reference loops of
    their nominal length, comes nearest ``seconds`` (at least one cycle);
    check every result.

    A cycle of ``certify`` lasts about as long as a whole run, so stopping at
    the first cycle past ``seconds`` would run one or two cycles by chance.
    """
    phase = Phase()
    nominal_s = REFERENCE_LOOPS[workload.reference][1]
    while phase.cycles == 0 or (
        sum(phase.costs) * nominal_s * (1 + 0.5 / phase.cycles) < seconds
    ):
        begin = len(phase.latencies)
        for index, op in enumerate(workload.ops):
            op_id = f"{'traced' if tracer else 'untraced'}.{phase.cycles}.{index}"
            # Timed afresh: the previous op's checks and numpy.fft timing
            # (seconds on certify) lie between its reference loop and this op.
            before = reference_s(workload.reference)
            start = perf_counter()
            try:
                if tracer is None:
                    result = op.run(None)
                else:
                    tracer.op = op_id
                    with tracer.span(f"op.{op.kind}"):
                        result = op.run(tracer)
                error = None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            latency = perf_counter() - start
            after = reference_s(workload.reference)
            cost = 2 * latency / (before + after)
            phase.latencies.append(latency)
            phase.by_key.setdefault(op.key, []).append(latency)
            phase.costs.append(cost)
            phase.costs_by_key.setdefault(op.key, []).append(cost)
            phase.references.append(after)
            oracle = None
            if op.baseline is not None:
                numpy_s, oracle = best_time(op.baseline)
                phase.numpy_s += numpy_s
                phase.ratios.setdefault(op.key, []).append(latency / numpy_s)
            if error is None:
                error = op.check(result, oracle)
            if error is not None:
                phase.failures.append(f"{op_id} {op.kind} {op.key}: {error}")
            elif tracer is not None:
                if op.key not in references:
                    references[op.key] = op.run(None)
                if not op.same(result, references[op.key]):
                    phase.mismatches += 1
        phase.cycles += 1
        phase.cycle_s.append(sum(phase.latencies[begin:]))
    return phase


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile, samples beyond).  Below eleven samples no
    percentile qualifies; the maximum is returned with 0 samples beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def peak_rss_mb() -> float:
    """Peak resident memory, less the ``memory`` reference loop's buffer,
    which stays resident from before the first timed op to the end."""
    extra = sum(a.nbytes for a in _REF_STREAM)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - extra) / 2**20


def _per_cycle(total, cycles: int):
    value = total / cycles
    return int(value) if isinstance(total, int) and value.is_integer() else value


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer metrics from the spans, per cycle of the traced phase.

    A layer that only runs in set-up (the digit-reversal tables, and plan
    builds where the workload builds its plans up front) reports its set-up
    total instead.  ``<layer>.failed`` counts raising calls over the whole run.
    """
    spans = tracer.spans

    def scoped(select):
        chosen = [s for s in spans if s.op != SETUP and select(s)]
        if chosen:
            return chosen, cycles
        return [s for s in spans if s.op == SETUP and select(s)], 1

    out = {}
    for name in TIMED_SPANS:
        chosen, div = scoped(lambda s: s.name == name)
        out[f"{name}.ms"] = sum(s.self_time for s in chosen) * 1e3 / div
    for name in COUNTED_SPANS:
        chosen, div = scoped(lambda s: s.name == name)
        out[f"{name}.calls"] = _per_cycle(len(chosen), div)
    for metric, (name, key) in SUMMED_COUNTS.items():
        chosen, div = scoped(lambda s: key in s.counts and name in (None, s.name))
        out[metric] = _per_cycle(sum(s.counts[key] for s in chosen), div)
    cp, _ = scoped(lambda s: s.name == "cpstate.apply_op_cp")
    out["cpstate.terms_peak"] = max((s.counts["terms"] for s in cp), default=0)
    candidates = sum(s.counts["candidates"] for s in cp)
    out["cpstate.terms_kept_ratio"] = (
        sum(s.counts["kept"] for s in cp) / candidates if candidates else 0.0
    )
    for layer in LAYERS:
        out[f"{layer}.failed"] = sum(
            1 for s in spans if s.failed and s.name.startswith(layer + ".")
        )
    return out


def end_to_end(setups: list, phase: Phase) -> tuple[dict, dict, dict]:
    """End-to-end metrics of an untraced phase, their wall-clock counterparts
    and details.

    Every cycle runs each op type once, so the median over all ops falls on
    the cut between two op types and flips between them with single samples.
    The p50s are therefore the median of the per-type medians, and
    ``vs_numpy_ratio`` the geometric mean of the per-type median ratios.
    """
    cost, percentile, beyond = tail(phase.costs)
    latency, _, _ = tail(phase.latencies)
    p50 = {key: statistics.median(v) for key, v in phase.by_key.items()}
    p50_ref = {key: statistics.median(v) for key, v in phase.costs_by_key.items()}
    ratios = {key: statistics.median(v) for key, v in phase.ratios.items()}
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_kref": phase.ops_per_kref,
        "op_p50_ref": statistics.median(p50_ref.values()),
        "op_tail_ref": cost,
        "vs_numpy_ratio": statistics.geometric_mean(ratios.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    wall_clock = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(p50.values()) * 1e3,
        "op_tail_ms": latency * 1e3,
        "reference_ms": statistics.median(phase.references) * 1e3,
    }
    details = {
        "samples": len(phase.latencies),
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "cycles": phase.cycles,
        "timed_s": phase.busy_s,
        "cycle_s": phase.cycle_s,
        "setup_samples_s": setups,
        "op_p50_ref_by_type": {str(k): v for k, v in p50_ref.items()},
        "op_p50_ms_by_type": {str(k): v * 1e3 for k, v in p50.items()},
        "vs_numpy_ratio_by_type": {str(k): v for k, v in ratios.items()},
    }
    return metrics, wall_clock, details


def subprocess_setups(script: Path, name: str, seed: int, count: int) -> list:
    """Set-up seconds of ``count`` fresh processes, each built from cold caches."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(script), "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    params: dict | None = None,
    extra_setups=None,
) -> Report:
    """Run one workload.  ``extra_setups(count)`` returns more set-up samples
    for ``setup_s``; without it the median is over this process's set-up."""
    tracer = Tracer()
    workload, references, setup_s = set_up(name, seed, tracer, params or {})
    # A traced run splits its time between an untraced and a traced phase.
    untraced = run_phase(workload, seconds / 2 if trace else seconds)
    phases = [untraced]
    if trace:
        traced = run_phase(workload, seconds / 2, tracer, references)
        phases.append(traced)
        metrics = layer_metrics(tracer, traced.cycles)
        metrics["baseline.numpy_fft.ms"] = traced.numpy_s * 1e3 / traced.cycles
        metrics["trace.ops_per_kref_untraced"] = untraced.ops_per_kref
        metrics["trace.ops_per_kref_traced"] = traced.ops_per_kref
        metrics["trace.overhead_pct"] = 100 * (1 - traced.ops_per_kref / untraced.ops_per_kref)
        metrics["trace.replay_mismatches"] = traced.mismatches
        details = {"cycles": traced.cycles, "timed_s": traced.busy_s, "spans": len(tracer.spans)}
        units = PER_LAYER
    else:
        setups = [setup_s]
        if extra_setups is not None and workload.setup_repeats > 1:
            setups += extra_setups(workload.setup_repeats - 1)
        metrics, wall_clock, details = end_to_end(setups, untraced)
        details["wall_clock"] = {k: {"value": v, "unit": WALL_CLOCK[k]} for k, v in wall_clock.items()}
        units = END_TO_END
    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.latencies) for p in phases)
    details["fail_ratio"] = len(failures) / attempted
    return Report(
        attempted,
        len(failures),
        {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        details,
        failures,
        tracer,
    )


def _getconf(var: str):
    try:
        out = subprocess.run(["getconf", var], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, root: Path) -> dict:
    import kronfft

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "kronfft": kronfft.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "seed": seed,
        "commit": _commit(root),
    }
