"""Gate-level circuit IR: lowering of QFT plans, simulation, counting,
equivalent-variant generation, text rendering, and JSON serialization.
A ``Gate`` is a step record of its kind (``factorize._LocalStep``).

Wire indices are 0-based everywhere in code and in serialized documents; the
text renderer labels wires q1..qn to match the usual circuit-diagram
convention.  Gates are applied left to right.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import astuple, dataclass

import numpy as np

from .tensor import DEFAULT_DENSE_LIMIT, StructuredOperator, _check_dense_sites, _check_states
from .tensor import _chain, _product_blocks
from .factorize import CNOT, CPHASE, FOURIER, HADAMARD, NOT, PHASE, SWAP, shift_matrix
from .factorize import QFT, FactorizationPlan, _LocalStep

GATE_KINDS = (HADAMARD, FOURIER, PHASE, NOT, CPHASE, CNOT, SWAP)
_LEVELED = (PHASE, CPHASE)
_TWO_WIRE = (CPHASE, CNOT, SWAP)
_INT_OR_NONE = frozenset((int, type(None)))

KEEP_SWAP = "keep-swap"
THREE_CNOT = "three-cnot"

CIRCUIT_SCHEMA_VERSION = 1


class CircuitFormatError(ValueError):
    """A serialized circuit document is malformed."""


@dataclass(frozen=True)
class Gate(_LocalStep):
    """One gate: a kind, a target wire, and optionally a control wire and R level.

    A swap is symmetric; its second wire is stored in ``control``.  Its
    operator is that of the plan step of its kind, if there is one.
    """

    kind: str
    target: int
    control: int | None = None
    level: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        plain = type(self.target) is int and type(self.control) in _INT_OR_NONE
        if not (plain and type(self.level) in _INT_OR_NONE):
            for name in ("target", "control", "level"):  # numpy integers become ints
                value = getattr(self, name)
                if isinstance(value, bool):
                    raise ValueError(f"gate {name} must be an integer, got {value!r}")
                object.__setattr__(self, name, value if value is None else operator.index(value))
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
        return sum(astuple(self))


def gate_unitary(g: Gate, n: int, d: int) -> StructuredOperator:
    """Embed a gate as an n-site structured operator: ``g.operator(n, d)``.

    Controlled gates expand to d Kronecker terms: the basis projector E_l on
    the control paired with the l-th power of the target unitary (the SUM
    gate pattern for cnot when d > 2).  A gate of a plan step's kind is that
    step's operator, label included; a cnot or swap declares a digit move.
    A wire outside ``0..n-1`` raises ``ValueError``, as does a hadamard when d > 2.
    """
    if g.kind == HADAMARD and d != 2:
        raise ValueError("hadamard is a qubit gate; use fourier for d > 2")
    return g.operator(n, d)


def lower_to_circuit(plan: FactorizationPlan, swap_style: str = KEEP_SWAP) -> Circuit:
    """Lower a QFT plan to gates: the plan steps in order, then the reversal.

    Each step becomes one Fourier/Hadamard or controlled-R gate with the
    step's sites and level, so both plan orientations lower faithfully and
    no factor operator is built.  The digit reversal becomes
    floor(n/2) SWAPs, which ``three-cnot`` expands into 3 CNOTs each (qubits
    only; the construction is not defined here for d > 2).
    """
    if plan.kind != QFT:
        raise ValueError("only QFT plans lower to circuits; FFT factors are not two-site gates")
    if swap_style not in (KEEP_SWAP, THREE_CNOT):
        raise ValueError(f"unknown swap style {swap_style!r}")
    if swap_style == THREE_CNOT and plan.d != 2:
        raise ValueError("the three-CNOT swap decomposition applies to qubits only")
    gates = []
    for step in plan.steps:
        if not isinstance(step, _LocalStep):
            raise ValueError(f"plan step {step!r} is not a one- or two-site gate")
        kind = HADAMARD if step.kind == FOURIER and plan.d == 2 else step.kind
        gates.append(Gate(kind, step.target, step.control, step.level))
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
    """Apply the circuit's gates in order to a dense state vector or column batch:
    ``tensor._chain`` over each gate's ``gate_unitary``, built once per call.
    The caller's ``x`` is never written: once a gate has produced a new state,
    diagonal gates scale that state in place."""
    _check_dense_sites(c.n, c.d, dense_limit)
    x = np.asarray(x, dtype=complex)
    _check_states(x, c.dim, "circuit")
    return _chain([gate_unitary(g, c.n, c.d) for g in c.gates], x, owned=False)


def circuit_unitary(c: Circuit, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense unitary of the whole circuit, formed as in ``plan_product`` on blocks
    of identity columns, each run through the gates' operators (built once per
    call) and copied into its output columns: the output is the only N x N
    array, and equals the whole identity's."""
    _check_dense_sites(c.n, c.d, dense_limit)
    ops = [gate_unitary(g, c.n, c.d) for g in c.gates]
    out = np.empty((c.dim, c.dim), dtype=complex)
    for start, block in _product_blocks(c.dim, ops):
        out[:, start : start + block.shape[1]] = block
    return out


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


def _build_variant(
    c: Circuit, cr_indices: list[int], runs: list[list[int]], mask: int, perms: tuple
) -> Circuit:
    gates = list(c.gates)
    for b, i in enumerate(cr_indices):
        if mask >> b & 1:
            g = gates[i]
            gates[i] = Gate(CPHASE, target=g.control, control=g.target, level=g.level)
    for run, perm in zip(runs, perms):  # a run is a stretch of consecutive indices
        gates[run[0] : run[-1] + 1] = [gates[run[j]] for j in perm]
    return Circuit(c.n, c.d, tuple(gates))


def equivalent_variants(
    c: Circuit, policy: str = "both", seed: int = 0, limit: int = 256
) -> list[Circuit]:
    """Unitarily equal rewrites of a QFT-lowered circuit, at most ``limit`` (>= 1).

    ``swap-control-target`` flips control and target of controlled-R gates
    (matrix-equal by the reorder identity); ``shuffle-commuting`` permutes
    gates inside each run of consecutive controlled-R gates; ``both``
    combines them.  Enumeration is exhaustive when at most ``limit`` variants
    exist: flip masks in increasing order vary fastest, then the first run's
    permutations in lexicographic order, then the next run's.  Otherwise a
    seeded sample that always includes the original circuit is returned.
    """
    if policy not in ("swap-control-target", "shuffle-commuting", "both"):
        raise ValueError(f"unknown variant policy {policy!r}")
    if limit < 1:
        raise ValueError(f"variant limit must be at least 1, got {limit!r}")
    do_flips = policy in ("swap-control-target", "both")
    do_shuffles = policy in ("shuffle-commuting", "both")
    cr_indices = [i for i, g in enumerate(c.gates) if g.kind == CPHASE]
    # Runs: maximal stretches of consecutive controlled-R gates (these commute).
    grouped = itertools.groupby(enumerate(c.gates), key=lambda item: item[1].kind == CPHASE)
    runs = [[i for i, _ in run] for is_cphase, run in grouped if is_cphase] if do_shuffles else []
    flip_total = 2 ** len(cr_indices) if do_flips else 1
    total = flip_total * math.prod(math.factorial(len(run)) for run in runs)

    if total <= limit:
        # ``product`` varies its last iterable fastest: runs reversed, masks last.
        orders = [itertools.permutations(range(len(run))) for run in reversed(runs)]
        product = itertools.product(*orders, range(flip_total))
        keys = [(mask, tuple(reversed(perms))) for *perms, mask in product]
    else:
        rng = np.random.default_rng(seed)
        keys = [(0, tuple(tuple(range(len(run))) for run in runs))]
        seen = set(keys)
        attempts = 0
        while len(keys) < limit and attempts < 50 * limit:
            attempts += 1
            if flip_total > 2**63:  # past int64: one random bit per controlled-R gate
                bits = rng.integers(0, 2, len(cr_indices))
                mask = sum(int(bit) << b for b, bit in enumerate(bits))
            else:
                mask = int(rng.integers(0, flip_total)) if do_flips else 0
            perms = tuple(tuple(rng.permutation(len(run))) for run in runs)
            key = (mask, perms)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return [_build_variant(c, cr_indices, runs, mask, perms) for mask, perms in keys]


# -- rendering -----------------------------------------------------------------


def _gate_cells(g: Gate, d: int) -> dict[int, str]:
    marks = {HADAMARD: "[H]", FOURIER: f"[F{d}]", NOT: "[X]", CNOT: "[X]", SWAP: "x"}
    cells = {g.target: marks.get(g.kind, f"[R{g.level}]")}  # else a phase kind
    if g.control is not None:
        cells[g.control] = "x" if g.kind == SWAP else "@"
    return cells


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
