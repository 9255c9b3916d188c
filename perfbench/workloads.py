"""The three benchmark workloads and the ops they cycle through.

Each workload builds its plans and inputs in set-up and returns one cycle of
ops in fixed round-robin order, so every run has the same composition.  An op
runs in one of two forms:

* untraced (``run(None)``): the public library call the workload measures;
* traced (``run(tracer)``): the same op replayed through the public calls it
  is made of, each under a span named ``<module>.<call>``.

Ops that are already a sequence of public calls run that sequence in both
forms.  The replay of ``fft_apply`` is bitwise equal to the library call; the
replays of ``verify_plan`` and ``qft_rank_experiment`` give the same residuals
and term trajectories.  Every op is checked against an oracle outside the
timed region.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

import kronfft as kf

from spans import NO_TRACE

#: Max-abs error allowed against ``numpy.fft`` for ``fft_apply``.
TRANSFORM_TOL = 1e-10
#: Max residual and per-factor unitarity allowed for a certificate.
CERTIFY_TOL = 1e-11
#: Max residual allowed for a CP-state QFT against the dense oracle.
RANK_TOL = 1e-10

#: transform sizes: (plan kind, n, d, columns; 0 for a single vector).
TRANSFORM_SIZES = (
    ("fft", 14, 2, 0),
    ("fft", 16, 2, 0),
    ("fft", 18, 2, 0),
    ("fft", 10, 3, 0),
    ("fft", 7, 5, 0),
    ("qft", 14, 2, 0),
    ("qft", 16, 2, 0),
    ("fft", 12, 2, 64),
)
#: certify plans (kind, n, d), then the qubit count of the lowered QFT circuit.
CERTIFY_PLANS = (
    ("fft", 12, 2),
    ("fft", 5, 5),
    ("fft", 7, 3),
    ("fft", 11, 2),
    ("qft", 10, 2),
    ("qft", 6, 3),
)
CERTIFY_CIRCUIT_QUBITS = 10
#: qft-symbolic: qubit counts of the symbolic ops, (n, d) of the CP-state ops.
SYMBOLIC_QUBITS = (32, 48, 64)
RANK_STATES = ((7, 2), (8, 2), (5, 3))


@dataclass(frozen=True)
class Op:
    kind: str
    #: Ops with equal keys run on the same input and give the same result.
    key: tuple
    run: Callable
    #: (result, oracle) -> error message, or None when the result is correct.
    check: Callable
    #: numpy call on the same data; its output is the oracle.  None: no numpy counterpart.
    baseline: Callable | None = None
    #: Whether a replayed result matches the library result for the same key.
    same: Callable = operator.eq


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    #: One op per size, run in set-up before timing starts.
    warmup: tuple[Op, ...]
    #: Set-ups per untraced run whose median is ``setup_s``.
    setup_repeats: int
    #: Kind of reference loop the ops are timed against (``harness.REFERENCE_LOOPS``).
    reference: str = "interpreter"


def plan_counts(plan) -> dict:
    return {
        "kron_terms": sum(len(f.terms) for f in plan.factors),
        "site_matrices": sum(len(t.factors) for f in plan.factors for t in f.terms),
    }


def _gate_count(circuit) -> dict:
    return {"gates": len(circuit.gates)}


def _label(plan) -> str:
    return f"{plan.kind}({plan.n},{plan.d})"


def _build_plan(tracer, kind: str, n: int, d: int):
    with tracer.span("factorize.plan_build") as s:
        plan = (kf.fft_plan if kind == "fft" else kf.qft_plan)(n, d)
    tracer.note(s, plan_counts, plan)
    return plan


def _first_reversals(tracer, plans) -> None:
    """Build each (n, d) digit-reversal table once, in set-up."""
    seen = set()
    for plan in plans:
        if (plan.n, plan.d) not in seen:
            seen.add((plan.n, plan.d))
            with tracer.span("tensor.digit_reversal"):
                plan.reversal


def _max_error(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _bitwise(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _apply_factors(tracer, plan, work):
    for f in plan.factors:
        passes = len(f.terms)
        with tracer.span(
            "tensor.apply_structured", term_passes=passes, bytes=2 * passes * work.nbytes
        ):
            work = kf.apply_structured(f, work)
    with tracer.span("tensor.permutation_apply"):
        return plan.reversal.apply(work)


# -- transform -----------------------------------------------------------------


def replay_fft_apply(tracer, plan, x, inverse: bool = False):
    """``fft_apply`` as its public calls: each factor, then the digit reversal."""
    x = np.asarray(x, dtype=complex)
    work = _apply_factors(tracer, plan, np.conj(x) if inverse else x)
    return np.conj(work) if inverse else work


def _fft_op(label: str, plan, x, inverse: bool) -> Op:
    def run(tracer):
        if tracer is None:
            return kf.fft_apply(plan, x, inverse=inverse)
        return replay_fft_apply(tracer, plan, x, inverse)

    def baseline():
        return (np.fft.ifft if inverse else np.fft.fft)(x, norm="ortho", axis=0)

    def check(y, oracle):
        if y.shape != oracle.shape:
            return f"shape {y.shape} != {oracle.shape}"
        err = _max_error(y, oracle)
        return None if err <= TRANSFORM_TOL else f"max error {err:.3e} > {TRANSFORM_TOL}"

    return Op("fft_apply", (label, inverse), run, check, baseline, _bitwise)


def transform(seed: int, tracer, sizes=TRANSFORM_SIZES) -> Workload:
    rng = np.random.default_rng(seed)
    cases = []
    for kind, n, d, cols in sizes:
        plan = _build_plan(tracer, kind, n, d)
        shape = (d**n, cols) if cols else (d**n,)
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        cases.append((_label(plan) + (f"x{cols}" if cols else ""), plan, x))
    _first_reversals(tracer, [plan for _, plan, _ in cases])
    # Two sweeps so that every size runs in both directions, alternating op by op.
    ops = tuple(
        _fft_op(label, plan, x, inverse=(k + sweep) % 2 == 1)
        for sweep in (0, 1)
        for k, (label, plan, x) in enumerate(cases)
    )
    return Workload(ops, ops[: len(cases)], setup_repeats=3)


# -- certify -------------------------------------------------------------------


def replay_verify_plan(tracer, plan):
    """``verify_plan`` as its public calls: the plan on the identity, the DFT
    matrix, and the unitarity residual of each factor."""
    dim = plan.dim
    with tracer.span("factorize.plan_product", bytes=dim * dim * 16):
        approx = _apply_factors(tracer, plan, np.eye(dim, dtype=complex))
    with tracer.span("spectral.dft_matrix", bytes=dim * dim * 16):
        dft = kf.dft_matrix(dim)
    approx -= dft
    del dft
    residual = float(np.max(np.abs(approx)))
    del approx
    unitarity = []
    for f in plan.factors:
        with tracer.span("tensor.unitarity_residual"):
            unitarity.append(kf.unitarity_residual(f))
    return kf.PlanVerification(dim, residual, tuple(unitarity))


def _dft_baseline(dim: int):
    return lambda: np.fft.fft(np.eye(dim, dtype=complex), axis=0, norm="ortho")


def _verify_op(plan) -> Op:
    def run(tracer):
        if tracer is None:
            return kf.verify_plan(plan)
        return replay_verify_plan(tracer, plan)

    def check(v, _oracle):
        if len(v.factor_unitarity) != len(plan.factors):
            return f"{len(v.factor_unitarity)} unitarity residuals for {len(plan.factors)} factors"
        worst = max(v.residual, v.max_factor_unitarity)
        return None if worst <= CERTIFY_TOL else f"residual {worst:.3e} > {CERTIFY_TOL}"

    return Op("verify_plan", ("verify", _label(plan)), run, check, _dft_baseline(plan.dim))


def _circuit_op(plan) -> Op:
    """Lower a QFT plan and check the circuit's dense unitary against the DFT matrix."""

    def run(tracer):
        tracer = tracer or NO_TRACE
        with tracer.span("circuit.lower_to_circuit") as s:
            circuit = kf.lower_to_circuit(plan)
        tracer.note(s, _gate_count, circuit)
        with tracer.span("circuit.circuit_unitary"):
            unitary = kf.circuit_unitary(circuit)
        with tracer.span("spectral.dft_matrix", bytes=plan.dim * plan.dim * 16):
            dft = kf.dft_matrix(plan.dim)
        return _max_error(unitary, dft)

    def check(err, _oracle):
        return None if err <= CERTIFY_TOL else f"circuit error {err:.3e} > {CERTIFY_TOL}"

    return Op("circuit_unitary", ("circuit", _label(plan)), run, check, _dft_baseline(plan.dim))


def certify(
    seed: int, tracer, plans=CERTIFY_PLANS, circuit_qubits=CERTIFY_CIRCUIT_QUBITS
) -> Workload:
    # The inputs are identity matrices, so the seed picks nothing here.
    built = {spec: _build_plan(tracer, *spec) for spec in plans}
    qft = built.get(("qft", circuit_qubits, 2))
    if qft is None:
        qft = _build_plan(tracer, "qft", circuit_qubits, 2)
    _first_reversals(tracer, built.values())
    ops = tuple(_verify_op(p) for p in built.values()) + (_circuit_op(qft),)
    # One set-up holds a full verification cycle, so it is not repeated.
    return Workload(ops, ops, setup_repeats=1, reference="memory")


# -- qft-symbolic ----------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicResult:
    plan_json: str
    loaded_plan: object
    circuit: object
    loaded_circuit: object
    counts: object


def _symbolic_op(n: int) -> Op:
    def run(tracer):
        tracer = tracer or NO_TRACE
        with tracer.span("factorize.plan_build") as s:
            plan = kf.qft_plan(n, 2)
        tracer.note(s, plan_counts, plan)
        with tracer.span("circuit.lower_to_circuit") as s:
            circuit = kf.lower_to_circuit(plan)
        tracer.note(s, _gate_count, circuit)
        with tracer.span("factorize.plan_json") as s:
            text = kf.plan_to_json(plan)
            loaded = kf.plan_from_json(text)
        tracer.note(s, plan_counts, loaded)
        with tracer.span("circuit.circuit_json"):
            loaded_circuit = kf.deserialize(kf.serialize(circuit))
        with tracer.span("circuit.count_gates"):
            counts = kf.count_gates(loaded_circuit)
        return SymbolicResult(text, loaded, circuit, loaded_circuit, counts)

    def check(r, _oracle):
        f = kf.qft_count_formulas(n)
        expected = kf.GateCounts(
            hadamard_or_fourier=f["hadamard_or_fourier"],
            controlled_r=f["controlled_r"],
            swap=f["swap"],
        )
        if r.counts != expected:
            return f"gate counts {r.counts} != formulas {expected}"
        if r.loaded_circuit != r.circuit:
            return "circuit JSON round trip changed the circuit"
        if kf.plan_to_json(r.loaded_plan) != r.plan_json:
            return "plan JSON round trip changed the plan"
        return None

    def same(a, b):
        return a.plan_json == b.plan_json and a.counts == b.counts

    return Op("qft_symbolic", ("symbolic", n), run, check, None, same)


def _cp_counts(candidates: int, kept: int) -> dict:
    return {"candidates": candidates, "kept": kept, "terms": kept}


def replay_qft_rank_experiment(tracer, n: int, d: int, state):
    """``qft_rank_experiment`` as its public calls.

    Returns ``(residual, term counts after each step)``, the digest the
    library's trajectory reduces to.
    """
    with tracer.span("cpstate.dense_check"):
        with tracer.span("spectral.dft_matrix", bytes=state.dim * state.dim * 16):
            dft = kf.dft_matrix(state.dim)
        expected = dft @ kf.cp_to_dense(state)
    with tracer.span("factorize.plan_build") as s:
        plan = kf.qft_plan(n, d, kf.TARGET_FIRST)
    tracer.note(s, plan_counts, plan)
    term_counts = []
    for f in plan.factors:
        with tracer.span("cpstate.apply_op_cp") as s:
            new = kf.apply_op_cp(f, state, 1e-14)
        tracer.note(s, _cp_counts, len(f.terms) * state.term_count, new.term_count)
        state = new
        term_counts.append(state.term_count)
    with tracer.span("cpstate.reverse_sites"):
        state = state.reverse_sites()
    term_counts.append(state.term_count)
    with tracer.span("cpstate.dense_check"):
        residual = _max_error(kf.cp_to_dense(state), expected)
    return residual, tuple(term_counts)


def _rank_op(n: int, d: int, state) -> Op:
    dense = kf.cp_to_dense(state)

    def run(tracer):
        if tracer is None:
            trajectory = kf.qft_rank_experiment(n, d, state)
            return trajectory.residual, tuple(s.term_count for s in trajectory.steps)
        return replay_qft_rank_experiment(tracer, n, d, state)

    def baseline():
        return np.fft.fft(dense, norm="ortho")

    def check(result, _oracle):
        residual, term_counts = result
        if len(term_counts) != n * (n + 1) // 2 + 1:
            return f"{len(term_counts)} trajectory steps for n={n}"
        return None if residual <= RANK_TOL else f"residual {residual:.3e} > {RANK_TOL}"

    return Op("qft_rank_experiment", ("rank", n, d), run, check, baseline)


def qft_symbolic(seed: int, tracer, qubits=SYMBOLIC_QUBITS, states=RANK_STATES) -> Workload:
    if len(qubits) != len(states):
        raise ValueError("qft-symbolic interleaves one symbolic op with one CP-state op")
    rng = np.random.default_rng(seed)
    rank_ops = [
        _rank_op(n, d, kf.random_rank_one(n, d, seed=int(rng.integers(2**31))))
        for n, d in states
    ]
    ops = tuple(
        op for pair in zip(map(_symbolic_op, qubits), rank_ops) for op in pair
    )
    return Workload(ops, ops, setup_repeats=3)


BY_NAME = {"transform": transform, "certify": certify, "qft-symbolic": qft_symbolic}
