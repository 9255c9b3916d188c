"""Gate-level circuit IR: lowering of QFT plans, simulation, counting,
equivalent-variant generation, text rendering, and JSON serialization.

Wire indices are 0-based everywhere in code and in serialized documents; the
text renderer labels wires q1..qn to match the usual circuit-diagram
convention.  Gates are applied left to right.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DEFAULT_DENSE_LIMIT,
    StructuredOperator,
    _apply_owned,
    _check_dense_sites,
    _check_states,
    basis_projector,
    embed_term,
    single_site_operator,
)
from .spectral import r_gate_power
from . import factorize
from .factorize import FactorizationPlan, PlanStep

HADAMARD = "hadamard"
FOURIER = "fourier"
PHASE = "phase"
NOT = "not"
CPHASE = "cphase"
CNOT = "cnot"
SWAP = "swap"

GATE_KINDS = (HADAMARD, FOURIER, PHASE, NOT, CPHASE, CNOT, SWAP)
_LEVELED = (PHASE, CPHASE)
_TWO_WIRE = (CPHASE, CNOT, SWAP)

KEEP_SWAP = "keep-swap"
THREE_CNOT = "three-cnot"

CIRCUIT_SCHEMA_VERSION = 1


class CircuitFormatError(ValueError):
    """A serialized circuit document is malformed."""


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, a target wire, and optionally a control wire and R level.

    A swap is symmetric; its second wire is stored in ``control``.
    """

    kind: str
    target: int
    control: int | None = None
    level: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in _TWO_WIRE:
            if self.control is None:
                raise ValueError(f"{self.kind} gate needs a second wire")
            if self.control == self.target:
                raise ValueError("control and target wires must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} gate takes no control wire")
        if self.kind in _LEVELED:
            if self.level is None or self.level < 1:
                raise ValueError(f"{self.kind} gate needs a positive R level")
        elif self.level is not None:
            raise ValueError(f"{self.kind} gate takes no level")

    @property
    def wires(self) -> tuple[int, ...]:
        return (self.target,) if self.control is None else (self.control, self.target)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on ``n`` wires of ``d`` levels each."""

    n: int
    d: int = 2
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n < 1 or self.d < 2:
            raise ValueError("circuits need n >= 1 wires of dimension d >= 2")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for w in g.wires:
                if not 0 <= w < self.n:
                    raise ValueError(f"wire {w} out of range for {self.n} wires")
            if g.kind == HADAMARD and self.d != 2:
                raise ValueError("hadamard is a qubit gate; use fourier for d > 2")

    @property
    def dim(self) -> int:
        return self.d**self.n


@dataclass(frozen=True)
class GateCounts:
    hadamard_or_fourier: int = 0
    controlled_r: int = 0
    cnot: int = 0
    swap: int = 0
    phase: int = 0
    not_x: int = 0

    @property
    def total(self) -> int:
        return (
            self.hadamard_or_fourier
            + self.controlled_r
            + self.cnot
            + self.swap
            + self.phase
            + self.not_x
        )


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic increment on a d-level site; the Pauli X for d = 2."""
    out = np.zeros((d, d), dtype=complex)
    for x in range(d):
        out[(x + 1) % d, x] = 1.0
    return out


def gate_unitary(g: Gate, n: int, d: int) -> StructuredOperator:
    """Embed a gate as an n-site structured operator.

    Controlled gates expand to d Kronecker terms: the basis projector E_l on
    the control paired with the l-th power of the target unitary (the SUM
    gate pattern for cnot when d > 2).  Hadamard/Fourier and controlled-R
    gates are the operators of the matching plan steps, labels included.
    """
    for w in g.wires:
        if not 0 <= w < n:
            raise ValueError(f"wire {w} out of range for {n} wires")
    if g.kind in (HADAMARD, FOURIER):
        if g.kind == HADAMARD and d != 2:
            raise ValueError("hadamard is a qubit gate; use fourier for d > 2")
        return factorize.FourierStep(g.target).operator(n, d)
    if g.kind == CPHASE:
        return factorize.CPhaseStep(g.control, g.target, g.level).operator(n, d)
    if g.kind == PHASE:
        return single_site_operator(n, d, g.target, r_gate_power(g.level, d, 1), f"r{g.level}")
    if g.kind == NOT:
        return single_site_operator(n, d, g.target, shift_matrix(d), NOT)
    if g.kind == CNOT:
        shifts = [np.linalg.matrix_power(shift_matrix(d), ell) for ell in range(d)]
        terms = tuple(
            embed_term(n, d, {g.control: basis_projector(ell, d), g.target: shift})
            for ell, shift in enumerate(shifts)
        )
        return StructuredOperator(n, d, terms, label=CNOT)
    # swap: sum over basis pairs of |a><b| (x) |b><a|; units[a, b] is |a><b|
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    terms = tuple(
        embed_term(n, d, {g.target: units[a, b], g.control: units[b, a]})
        for a in range(d)
        for b in range(d)
    )
    return StructuredOperator(n, d, terms, label=SWAP)


def _step_to_gate(step: PlanStep, d: int) -> Gate:
    if isinstance(step, factorize.FourierStep):
        return Gate(HADAMARD if d == 2 else FOURIER, target=step.site)
    if isinstance(step, factorize.CPhaseStep):
        return Gate(CPHASE, target=step.target, control=step.control, level=step.level)
    raise ValueError(f"plan step {step!r} is not a one- or two-site gate")


def lower_to_circuit(plan: FactorizationPlan, swap_style: str = KEEP_SWAP) -> Circuit:
    """Lower a QFT plan to gates: the plan steps in order, then the reversal.

    Each step becomes one Fourier/Hadamard or controlled-R gate with the
    step's sites and level, so both plan orientations lower faithfully and
    no factor operator is built.  The digit reversal becomes
    floor(n/2) SWAPs, which ``three-cnot`` expands into 3 CNOTs each (qubits
    only; the construction is not defined here for d > 2).
    """
    if plan.kind != factorize.QFT:
        raise ValueError("only QFT plans lower to circuits; FFT factors are not two-site gates")
    if swap_style not in (KEEP_SWAP, THREE_CNOT):
        raise ValueError(f"unknown swap style {swap_style!r}")
    if swap_style == THREE_CNOT and plan.d != 2:
        raise ValueError("the three-CNOT swap decomposition applies to qubits only")
    gates = [_step_to_gate(step, plan.d) for step in plan.steps]
    for i in range(plan.n // 2):
        a, b = i, plan.n - 1 - i
        if swap_style == KEEP_SWAP:
            gates.append(Gate(SWAP, target=a, control=b))
        else:
            gates.append(Gate(CNOT, target=b, control=a))
            gates.append(Gate(CNOT, target=a, control=b))
            gates.append(Gate(CNOT, target=b, control=a))
    return Circuit(plan.n, plan.d, tuple(gates))


def simulate_dense(
    c: Circuit, x: np.ndarray, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """Apply the circuit's gates in order to a dense state vector.

    A swap exchanges two digit axes of the state (a transpose, no
    arithmetic); every other gate goes through ``gate_unitary``.  The
    caller's ``x`` is never written: once a gate has produced a new state,
    diagonal gates scale that state in place.
    """
    _check_dense_sites(c.n, c.d, dense_limit)
    x = np.asarray(x, dtype=complex)
    _check_states(x, c.dim, "circuit")
    owned = False
    for g in c.gates:
        if g.kind == SWAP:
            digits = x.reshape((c.d,) * c.n + x.shape[1:])
            x = digits.swapaxes(g.target, g.control).reshape(x.shape)
        else:
            x = _apply_owned(gate_unitary(g, c.n, c.d), x, owned)
            owned = True
    return x


def circuit_unitary(c: Circuit, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense unitary of the whole circuit."""
    _check_dense_sites(c.n, c.d, dense_limit)
    return simulate_dense(c, np.eye(c.dim, dtype=complex), dense_limit=dense_limit)


def count_gates(c: Circuit) -> GateCounts:
    """Tally gates by kind."""
    tally = {kind: 0 for kind in GATE_KINDS}
    for g in c.gates:
        tally[g.kind] += 1
    return GateCounts(
        hadamard_or_fourier=tally[HADAMARD] + tally[FOURIER],
        controlled_r=tally[CPHASE],
        cnot=tally[CNOT],
        swap=tally[SWAP],
        phase=tally[PHASE],
        not_x=tally[NOT],
    )


def qft_count_formulas(n: int) -> dict[str, int]:
    """Closed-form QFT gate counts for n wires.

    ``cnot_constructive`` is what floor(n/2) SWAPs at 3 CNOTs each yield;
    ``cnot_table`` is the floor(3n/2) figure usually quoted.  They differ by
    one for odd n; the lowering emits the constructive count.
    """
    return {
        "hadamard_or_fourier": n,
        "controlled_r": n * (n - 1) // 2,
        "swap": n // 2,
        "cnot_constructive": 3 * (n // 2),
        "cnot_table": (3 * n) // 2,
    }


# -- equivalent-variant generation --------------------------------------------


def _flip(g: Gate) -> Gate:
    return Gate(CPHASE, target=g.control, control=g.target, level=g.level)


def _nth_permutation(n_items: int, index: int) -> list[int]:
    """The index-th permutation of range(n_items) in lexicographic order."""
    items = list(range(n_items))
    out = []
    f = math.factorial(n_items)
    for i in range(n_items, 0, -1):
        f //= i
        digit, index = divmod(index, f)
        out.append(items.pop(digit))
    return out


def _cphase_runs(c: Circuit) -> list[list[int]]:
    """Maximal stretches of consecutive controlled-R gates (these commute)."""
    runs, current = [], []
    for i, g in enumerate(c.gates):
        if g.kind == CPHASE:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def _build_variant(
    c: Circuit, cr_indices: list[int], runs: list[list[int]], mask: int, perms: tuple
) -> Circuit:
    gates = list(c.gates)
    for b, i in enumerate(cr_indices):
        if mask >> b & 1:
            gates[i] = _flip(gates[i])
    for run, perm in zip(runs, perms):
        reordered = [gates[run[j]] for j in perm]
        for pos, g in zip(run, reordered):
            gates[pos] = g
    return Circuit(c.n, c.d, tuple(gates))


def equivalent_variants(
    c: Circuit, policy: str = "both", seed: int = 0, limit: int = 256
) -> list[Circuit]:
    """Unitarily equal rewrites of a QFT-lowered circuit.

    ``swap-control-target`` flips control and target of controlled-R gates
    (matrix-equal by the reorder identity); ``shuffle-commuting`` permutes
    gates inside each run of consecutive controlled-R gates; ``both``
    combines them.  Enumeration is exhaustive when at most ``limit`` variants
    exist (flip masks in increasing order, then run permutations in
    lexicographic order); otherwise a seeded sample that always includes the
    original circuit is returned.
    """
    if policy not in ("swap-control-target", "shuffle-commuting", "both"):
        raise ValueError(f"unknown variant policy {policy!r}")
    do_flips = policy in ("swap-control-target", "both")
    do_shuffles = policy in ("shuffle-commuting", "both")
    cr_indices = [i for i, g in enumerate(c.gates) if g.kind == CPHASE]
    runs = _cphase_runs(c) if do_shuffles else []
    flip_total = 2 ** len(cr_indices) if do_flips else 1
    radices = [math.factorial(len(run)) for run in runs]
    total = flip_total
    for r in radices:
        total *= r

    def decode(index: int) -> tuple[int, tuple]:
        index, mask = divmod(index, flip_total) if do_flips else (index, 0)
        perms = []
        for run, radix in zip(runs, radices):
            index, p = divmod(index, radix)
            perms.append(tuple(_nth_permutation(len(run), p)))
        return mask, tuple(perms)

    if total <= limit:
        keys = [decode(i) for i in range(total)]
    else:
        rng = np.random.default_rng(seed)
        seen = {decode(0)}
        keys = [decode(0)]
        attempts = 0
        while len(keys) < limit and attempts < 50 * limit:
            attempts += 1
            mask = int(rng.integers(0, flip_total)) if do_flips else 0
            perms = tuple(tuple(rng.permutation(len(run))) for run in runs)
            key = (mask, perms)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return [_build_variant(c, cr_indices, runs, mask, perms) for mask, perms in keys]


# -- rendering -----------------------------------------------------------------


def _gate_cells(g: Gate, d: int) -> dict[int, str]:
    if g.kind == HADAMARD:
        return {g.target: "[H]"}
    if g.kind == FOURIER:
        return {g.target: f"[F{d}]"}
    if g.kind == PHASE:
        return {g.target: f"[R{g.level}]"}
    if g.kind == NOT:
        return {g.target: "[X]"}
    if g.kind == CPHASE:
        return {g.control: "@", g.target: f"[R{g.level}]"}
    if g.kind == CNOT:
        return {g.control: "@", g.target: "[X]"}
    return {g.target: "x", g.control: "x"}


def render_text(c: Circuit) -> str:
    """ASCII diagram: one row per wire, time left to right, controls joined
    to targets by vertical bars.  One-way; there is no diagram parser.
    """
    if c.n > 16:
        raise ValueError("text rendering is capped at 16 wires")
    cols = []
    for g in c.gates:
        cells = _gate_cells(g, c.d)
        span = (min(cells), max(cells))
        cols.append((cells, span))
    widths = [max(len(v) for v in cells.values()) for cells, _ in cols]
    label_width = len(f"q{c.n}: ")
    lines = []
    for w in range(c.n):
        row = f"q{w + 1}: ".ljust(label_width) + "--"
        for (cells, span), width in zip(cols, widths):
            if w in cells:
                cell = cells[w].center(width, "-")
            elif span[0] < w < span[1]:
                cell = "|".center(width, "-")
            else:
                cell = "-" * width
            row += cell + "--"
        lines.append(row)
        if w < c.n - 1:
            conn = " " * (label_width + 2)
            for (_, span), width in zip(cols, widths):
                ch = "|" if span[0] <= w < span[1] else " "
                conn += ch.center(width) + "  "
            lines.append(conn.rstrip())
    return "\n".join(lines)


# -- serialization -------------------------------------------------------------


def _gate_to_dict(g: Gate) -> dict:
    doc: dict = {"kind": g.kind, "target": g.target}
    if g.control is not None:
        doc["control"] = g.control
    if g.level is not None:
        doc["level"] = g.level
    return doc


def serialize(c: Circuit, indent: int | None = None) -> str:
    """Circuit as a JSON document: ``{version, n, d, gates: [...]}``, 0-based wires."""
    doc = {
        "version": CIRCUIT_SCHEMA_VERSION,
        "n": c.n,
        "d": c.d,
        "gates": [_gate_to_dict(g) for g in c.gates],
    }
    return json.dumps(doc, indent=indent)


def _gate_from_dict(doc) -> Gate:
    if not isinstance(doc, dict):
        raise CircuitFormatError("gate entry must be a JSON object")
    kind = doc.get("kind")
    if kind not in GATE_KINDS:
        raise CircuitFormatError(f"unknown gate kind {kind!r}")
    # ``type(...) is int`` rejects JSON booleans, which load as ``bool``.
    target = doc.get("target")
    if type(target) is not int:
        raise CircuitFormatError(f"gate target must be an integer, got {target!r}")
    control = doc.get("control")
    if control is not None and type(control) is not int:
        raise CircuitFormatError(f"gate control must be an integer, got {control!r}")
    level = doc.get("level")
    if level is not None and type(level) is not int:
        raise CircuitFormatError(f"gate level must be an integer, got {level!r}")
    try:
        return Gate(kind, target=target, control=control, level=level)
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from exc


def deserialize(text: str) -> Circuit:
    """Parse a circuit JSON document, validating kinds and wire indices."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"circuit document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("circuit document must be a JSON object")
    if doc.get("version") != CIRCUIT_SCHEMA_VERSION:
        raise CircuitFormatError(f"unsupported schema version {doc.get('version')!r}")
    n, d = doc.get("n"), doc.get("d")
    if type(n) is not int or type(d) is not int:
        raise CircuitFormatError("circuit document needs integer n and d")
    raw = doc.get("gates")
    if not isinstance(raw, list):
        raise CircuitFormatError("circuit gates must be a list")
    gates = tuple(_gate_from_dict(g) for g in raw)
    try:
        return Circuit(n, d, gates)
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from exc
