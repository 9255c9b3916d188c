"""kronfft benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 20 --trace 0

Workloads: ``transform`` (``fft_apply`` against ``numpy.fft``), ``certify``
(``verify_plan`` and the lowered circuit's unitary against the DFT matrix) and
``qft-symbolic`` (QFT plan build, lowering and JSON round trips at n = 32..64,
plus the CP-state QFT).  The library is imported from ``src/`` of the
checkout, with BLAS and OpenMP pinned to one thread.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced replay.  Earlier
lines give the environment stamp, every metric with its unit and, with
``--trace 0``, the unbounded wall-clock figures (``ops_per_s``,
``op_p50_ms``, ``op_tail_ms``, ``reference_ms``); the full
report (and with ``--trace 1`` the spans) is written under ``perfbench/out/``.
The exit code is non-zero if any op failed its oracle check or the run could
not start (for instance without ``src/kronfft``).
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("transform", "certify", "qft-symbolic")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up and print {\"setup_s\": ...}; used for the setup_s median",
    )
    return p.parse_args(argv)


def import_library():
    """Import kronfft from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "kronfft" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no kronfft sources under {SRC}")
    sys.path.insert(0, str(SRC))
    kronfft = importlib.import_module("kronfft")
    if Path(kronfft.__file__).resolve().parent != SRC / "kronfft":
        raise SystemExit(f"benchmark: kronfft imported from {kronfft.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import harness  # imports numpy, so the thread pins below must come first

    if args.setup_only:
        from spans import Tracer

        _, _, setup_s = harness.set_up(args.workload, args.seed, Tracer(), {})
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = harness.environment(args.seed, ROOT)
    print(json.dumps({"env": env}))
    report = harness.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        extra_setups=lambda count: harness.subprocess_setups(
            Path(__file__).resolve(), args.workload, args.seed, count
        ),
    )
    for name, m in {**report.metrics, **report.details.get("wall_clock", {})}.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print(f"{'fail_ratio':40s} {report.details['fail_ratio']!r:>24} ratio")
    print(json.dumps({"details": report.details}))
    for failure in report.failures[:20]:
        print("FAILED", failure)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": report.attempted,
        "failed": report.failed,
        "failures": report.failures,
        "metrics": report.metrics,
        "details": report.details,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        report.tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }))
    return 1 if report.failed else 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
