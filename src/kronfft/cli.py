"""Command-line front end: factor, verify, circuit, simulate, rankgrowth.

Data goes to stdout (or ``--output``), diagnostics to stderr.  Identical
flags and seed produce byte-identical output; wall-clock columns are zeroed
unless ``--timing`` is given.

Exit codes: 0 success, 1 validation failure (residual over tolerance,
malformed or tampered input), 2 usage error, 3 dense-limit exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .tensor import DEFAULT_DENSE_LIMIT, DenseLimitError, _check_dense_sites
from .spectral import _dft_product
from . import factorize
from .factorize import (
    FactorizationPlan,
    PlanFormatError,
    fft_apply,
    fft_plan,
    plan_from_json,
    plan_to_json,
    qft_plan,
    verify_plan,
)
from .circuit import (
    CircuitFormatError,
    KEEP_SWAP,
    THREE_CNOT,
    count_gates,
    lower_to_circuit,
    qft_count_formulas,
    render_text,
    serialize,
)
from .cpstate import cp_basis_state, qft_rank_experiment, random_rank_one

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

DENSE_LIMIT_ENV = "KRONFFT_DENSE_LIMIT"


def _default_dense_limit() -> int:
    raw = os.environ.get(DENSE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{DENSE_LIMIT_ENV} must be an integer, got {raw!r}") from exc


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _add_shared(p: argparse.ArgumentParser, n_required: bool = True) -> None:
    p.add_argument("--n", type=int, required=n_required, help="number of sites")
    p.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
    p.add_argument(
        "--orientation",
        choices=factorize.ORIENTATIONS,
        default=factorize.TARGET_FIRST,
        help="where the projectors sit in controlled-R factors",
    )
    p.add_argument(
        "--dense-limit",
        type=int,
        default=None,
        help=f"dense dimension cap (default {DEFAULT_DENSE_LIMIT}, or ${DENSE_LIMIT_ENV})",
    )
    p.add_argument("--output", default=None, help="write data to a file instead of stdout")


def _dense_limit(args) -> int:
    return args.dense_limit if args.dense_limit is not None else _default_dense_limit()


def _build_plan(args) -> FactorizationPlan:
    if args.kind == factorize.FFT:
        return fft_plan(args.n, args.d)
    return qft_plan(args.n, args.d, args.orientation)


def _parse_digits(raw: str, d: int, n: int) -> list[int]:
    text = raw.strip()
    parts = text.split(",") if "," in text else list(text)
    try:
        digits = [int(p) for p in parts if p != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse basis digits from {raw!r}") from exc
    for dig in digits:
        if not 0 <= dig < d:
            raise ValueError(f"basis digit {dig} out of range for base {d}")
    if len(digits) != n:
        raise ValueError(f"expected {n} basis digits, got {len(digits)}")
    return digits


def _read_vector(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 're im', got {stripped!r}")
            try:
                values.append(complex(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a complex pair: {stripped!r}") from exc
    if not values:
        raise ValueError(f"{path}: vector file is empty")
    return np.array(values, dtype=complex)


def _format_vector(x: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([[v.real, v.imag] for v in x])
    return "\n".join(f"{v.real:.17g} {v.imag:.17g}" for v in x)


def cmd_factor(args) -> int:
    plan = _build_plan(args)
    if args.format == "json":
        _emit(plan_to_json(plan, indent=2), args.output)
        return EXIT_OK
    lines = [
        f"kind:        {plan.kind}",
        f"n:           {plan.n}",
        f"d:           {plan.d}",
        f"orientation: {plan.orientation}",
        f"factors ({len(plan.steps)}, in application order):",
    ]
    for i, step in enumerate(plan.steps):
        sites = ",".join(str(s + 1) for s in sorted(step.sites(plan.n)))
        label = step.label(plan.n)
        lines.append(f"  {i:4d}  {label:<16} terms={step.term_count(plan.d)}  sites={sites}")
    lines.append(f"reversal:    base-{plan.d} digit reversal on {plan.n} sites")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    limit = _dense_limit(args)
    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = plan_from_json(fh.read())
    elif args.n is None:
        args.usage_error("the following arguments are required: --n or --plan")
    else:
        # Before building: qft_plan(n) has n(n+1)/2 steps.
        factorize._check_plan_args(args.n, args.d)
        _check_dense_sites(args.n, args.d, limit)
        plan = _build_plan(args)
    report = verify_plan(plan, dense_limit=limit)
    ok = report.residual < args.tolerance
    if args.format == "json":
        doc = {
            "kind": plan.kind,
            "n": plan.n,
            "d": plan.d,
            "dim": report.dim,
            "residual": report.residual,
            "max_factor_unitarity": report.max_factor_unitarity,
            "tolerance": args.tolerance,
            "ok": ok,
        }
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        _emit(
            "\n".join(
                [
                    f"plan:                 {plan.kind} n={plan.n} d={plan.d} (dim {report.dim})",
                    f"residual:             {report.residual:.3e}",
                    f"max factor unitarity: {report.max_factor_unitarity:.3e}",
                    f"tolerance:            {args.tolerance:.3e}",
                    f"result:               {'ok' if ok else 'FAIL'}",
                ]
            ),
            args.output,
        )
    return EXIT_OK if ok else EXIT_FAIL


def _counts_lines(counts, formulas) -> list[str]:
    lines = [
        "gate counts:",
        f"  hadamard/fourier: {counts.hadamard_or_fourier} (formula n = {formulas['hadamard_or_fourier']})",
        f"  controlled-R:     {counts.controlled_r} (formula n(n-1)/2 = {formulas['controlled_r']})",
        f"  swap:             {counts.swap} (formula floor(n/2) = {formulas['swap']})",
        f"  cnot:             {counts.cnot}",
        f"  cnot, swaps expanded at 3 each: {formulas['cnot_constructive']}",
        f"  cnot, floor(3n/2) tabulation:   {formulas['cnot_table']}",
    ]
    if formulas["cnot_constructive"] != formulas["cnot_table"]:
        lines.append(
            "  note: floor(3n/2) disagrees with 3*floor(n/2) for odd n; "
            "the lowering emits the constructive count."
        )
    return lines


def cmd_circuit(args) -> int:
    plan = qft_plan(args.n, args.d, args.orientation)
    circ = lower_to_circuit(plan, swap_style=args.swap_style)
    counts = count_gates(circ)
    formulas = qft_count_formulas(args.n)
    if args.format == "json":
        doc = json.loads(serialize(circ))
        if args.counts:
            doc["counts"] = {
                "hadamard_or_fourier": counts.hadamard_or_fourier,
                "controlled_r": counts.controlled_r,
                "cnot": counts.cnot,
                "swap": counts.swap,
                "cnot_constructive": formulas["cnot_constructive"],
                "cnot_table": formulas["cnot_table"],
            }
        _emit(json.dumps(doc, indent=2), args.output)
        return EXIT_OK
    blocks = [render_text(circ)]
    if args.counts:
        blocks.append("\n".join(_counts_lines(counts, formulas)))
    _emit("\n\n".join(blocks), args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    limit = _dense_limit(args)
    # A bad n or d, then a bad input or basis, then the dense limit, all
    # before the plan is built.
    factorize._check_plan_args(args.n, args.d)
    if args.input is not None:
        x = _read_vector(args.input)
        if x.shape[0] != args.d**args.n:
            raise ValueError(f"input length {x.shape[0]} does not match d**n = {args.d**args.n}")
    else:
        digits = _parse_digits(args.basis, args.d, args.n) if args.basis else [0] * args.n
    if args.check:  # before any output, so a check past the dense limit writes nothing
        _check_dense_sites(args.n, args.d, limit)
    plan = _build_plan(args)
    if args.input is None:
        index = 0
        for dig in digits:
            index = index * args.d + dig
        x = np.zeros(plan.dim, dtype=complex)
        x[index] = 1.0
    if args.check:
        oracle = _dft_product(x, inverse=args.inverse, dense_limit=limit)
    y = fft_apply(plan, x, inverse=args.inverse)
    _emit(_format_vector(y, args.format), args.output)
    if args.check:
        diff = float(np.max(np.abs(y - oracle)))
        print(f"dense oracle max diff: {diff:.3e}", file=sys.stderr)
        if diff > args.tolerance:
            return EXIT_FAIL
    return EXIT_OK


def cmd_rankgrowth(args) -> int:
    limit = _dense_limit(args)
    prune = 0.0 if args.no_prune else args.prune
    basis = args.basis and cp_basis_state(_parse_digits(args.basis, args.d, args.n), args.d)
    _check_dense_sites(args.n, args.d, limit)  # before a generic state is drawn
    state = basis or random_rank_one(args.n, args.d, seed=args.seed)
    report = qft_rank_experiment(
        args.n,
        args.d,
        state,
        prune=prune,
        orientation=args.orientation,
        dense_limit=limit,
    )
    if args.format == "json":
        _emit(report.to_json(timing=args.timing, indent=2), args.output)
    elif args.format == "csv":
        _emit(report.to_csv(timing=args.timing), args.output)
        print(f"final dense residual: {report.residual:.3e}", file=sys.stderr)
    else:
        lines = [
            f"qft rank growth: n={args.n} d={args.d} orientation={args.orientation} "
            f"prune={prune:g} seed={args.seed}",
            "step  term_count  factor",
        ]
        for s in report.steps:
            lines.append(f"{s.step:4d}  {s.term_count:10d}  {s.factor_label}")
        lines.append(f"final dense residual: {report.residual:.3e}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if report.residual <= args.tolerance else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronfft",
        description="DFT matrix factorizations: FFT/QFT plans, circuits, and rank-1 state experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="construct a factorization plan")
    _add_shared(p)
    p.add_argument("--kind", choices=(factorize.FFT, factorize.QFT), default=factorize.QFT)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verify", help="check a plan against the dense DFT matrix")
    _add_shared(p, n_required=False)
    p.add_argument("--kind", choices=(factorize.FFT, factorize.QFT), default=factorize.QFT)
    p.add_argument("--plan", default=None, help="verify a plan JSON file instead of "
                   "building one; n and d come from the file, so --n is not needed")
    p.add_argument("--tolerance", type=float, default=1e-11)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify, usage_error=p.error)

    p = sub.add_parser("circuit", help="lower the QFT plan to a gate circuit")
    _add_shared(p)
    p.add_argument("--swap-style", choices=(KEEP_SWAP, THREE_CNOT), default=KEEP_SWAP)
    p.add_argument("--counts", action="store_true", help="append gate counts and formula values")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("simulate", help="transform a vector through a plan")
    _add_shared(p)
    p.add_argument("--kind", choices=(factorize.FFT, factorize.QFT), default=factorize.FFT)
    p.add_argument("--input", default=None, help="vector file, one 're im' pair per line")
    p.add_argument("--basis", default=None, help="basis-state digits, e.g. 010 or 0,1,0")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--check", action="store_true", help="compare against the dense DFT oracle")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rankgrowth", help="term-count trajectory of a QFT run on a rank-1 state")
    _add_shared(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prune", type=float, default=1e-14)
    p.add_argument("--no-prune", action="store_true", help="keep zero-weight terms")
    p.add_argument("--basis", default=None, help="use a basis state instead of a generic one")
    p.add_argument("--timing", action="store_true", help="report real per-step times")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.set_defaults(func=cmd_rankgrowth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DenseLimitError as exc:
        print(f"kronfft: dense limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (PlanFormatError, CircuitFormatError) as exc:
        print(f"kronfft: invalid document: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"kronfft: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
