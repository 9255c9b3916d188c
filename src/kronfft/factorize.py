"""FFT and QFT factorization plans for the DFT matrix.

A plan decomposes ``F_{d**n}`` into a digit-reversal permutation times a
product of structured factors, stored in application order (the first factor
in the list is the first one applied to a vector).  Two plan kinds exist:

* ``"fft"`` -- n radix-d butterfly stages; stage k acts on the trailing k+1
  sites and mixes a Fourier gate with the full twiddle diagonal.
* ``"qft"`` -- every butterfly stage is split further into one single-site
  Fourier factor plus k two-site controlled-phase factors, so each factor
  touches at most two sites.

The controlled-phase factors come in two matrix-equal orientations: the
projectors can sit on the block's first site (``"control-first"``) or on the
later site (``"target-first"``).

A plan is stored as a tuple of step records (``ButterflyStep``,
``FourierStep``, ``CPhaseStep``).  Serialisation and lowering read the
records; dense application builds their operators (``.factors``) on first
use, each with the kernel form its step declares.  Fourier and controlled-phase
steps share one account of each kind with circuit gates (``_LocalStep``).
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DEFAULT_DENSE_LIMIT,
    KronTerm,
    Permutation,
    StructuredOperator,
    _Move,
    _chain,
    _check_dense_sites,
    _check_states,
    _frozen_complex,
    _product_blocks,
    basis_projector,
    digit_reversal,
    identity,
    reverse_digits,
    unitarity_residual,
)
from .spectral import _dft_entries, _dft_roots, _phase_gate, fourier_gate, omega_diag

FFT = "fft"
QFT = "qft"
CONTROL_FIRST = "control-first"
TARGET_FIRST = "target-first"
ORIENTATIONS = (CONTROL_FIRST, TARGET_FIRST)

PLAN_SCHEMA_VERSION = 1

#: Kinds of one- and two-site steps (``_LocalStep``): plan steps and gates.
HADAMARD = "hadamard"
FOURIER = "fourier"
PHASE = "phase"
NOT = "not"
CPHASE = "cphase"
CNOT = "cnot"
SWAP = "swap"

class PlanFormatError(ValueError):
    """A serialized plan document is malformed."""


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic increment on a d-level site; the Pauli X for d = 2."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


@functools.lru_cache(maxsize=64)
def _shift_power(d: int, power: int) -> np.ndarray:
    """``shift_matrix(d)`` to the ``power``, as a shared read-only matrix."""
    return _frozen_complex(np.roll(identity(d), power, axis=0))


class _Step:
    """A step record lists its terms' stored ``(site, matrix)`` pairs in ``_pairs`` and
    declares in ``_form`` the ``(site, rows)`` that ``_compile`` would find, or a ``_Move``."""

    def operator(self, n: int, d: int) -> StructuredOperator:
        """The step as an operator with untested terms and its declared kernel form."""
        sites = self.sites(n)
        if not sites or len(set(sites)) < len(sites) or min(sites) < 0 or max(sites) >= n:
            raise ValueError(f"{self!r} does not fit on {n} sites")
        terms = tuple(KronTerm._trusted(n, d, pairs) for pairs in self._pairs(n, d))
        op = StructuredOperator(n, d, terms, self.label(n))
        op.__dict__["_form"] = self._form(n, d)
        return op


@dataclass(frozen=True)
class ButterflyStep(_Step):
    """Radix-d FFT stage ``stage``: acts on the trailing ``stage + 1`` sites."""

    stage: int

    def sites(self, n: int) -> tuple[int, ...]:
        return tuple(range(n - 1 - self.stage, n))

    def to_dict(self) -> dict:
        return {"op": "butterfly", "stage": self.stage}

    def label(self, n: int) -> str:
        return f"butterfly@{n - self.stage}"

    def term_count(self, d: int) -> int:
        return d

    def _pairs(self, n: int, d: int) -> list:
        """Identity on the leading sites, then the full radix block.

        The block merges the twiddle diagonal with the Fourier gate via the
        mixed-product identity, giving d Kronecker terms whose row supports
        are disjoint (two nonzeros per row when d = 2).
        """
        lead = n - 1 - self.stage  # 0-based site of the Fourier gate
        terms = []
        for level in range(d):
            fourier = _frozen_complex(basis_projector(level, d) @ fourier_gate(d))
            phases = ((lead + i, _phase_gate(i + 1, d, level)) for i in range(1, self.stage + 1))
            terms.append([(lead, fourier)] + [(i, r) for i, r in phases if r is not None])
        return terms

    def _form(self, n: int, d: int) -> tuple:
        # Term ``level`` owns row ``level`` on the Fourier site.
        return n - 1 - self.stage, list(np.eye(d, dtype=bool))


class _LocalStep(_Step):
    """A one- or two-site step of a ``kind``, on a ``target`` and (two-site kinds)
    a ``control`` wire, with an R ``level`` (phase kinds): plan steps and
    circuit gates share this one account of each kind's terms and form."""

    @property
    def wires(self) -> tuple[int, ...]:
        return (self.target,) if self.control is None else (self.control, self.target)

    def sites(self, n: int) -> tuple[int, ...]:
        return self.wires

    def label(self, n: int) -> str:
        if self.kind in (HADAMARD, FOURIER):
            return f"fourier@{self.target + 1}"
        if self.kind == PHASE:
            return f"r{self.level}"
        if self.kind == CPHASE:
            return f"cr{self.level}@{self.control + 1}>{self.target + 1}"
        return self.kind

    def term_count(self, d: int) -> int:
        return d * d if self.kind == SWAP else d if self.control is not None else 1

    def _pairs(self, n: int, d: int) -> list:
        """One-site kinds give one term.  A two-site kind gives one term per
        (control, target) matrix pair; ``None`` on the target is the identity."""
        if self.kind in (HADAMARD, FOURIER):
            return [[(self.target, fourier_gate(d))]]
        if self.kind == NOT:
            return [[(self.target, _shift_power(d, 1))]]
        if self.kind == PHASE:
            phase = _phase_gate(self.level, d, 1)
            return [[] if phase is None else [(self.target, phase)]]
        controls = [basis_projector(ell, d) for ell in range(d)]
        if self.kind == SWAP:  # |b><a| on the control with |a><b| on the target
            targets = list(identity(d * d).reshape(d * d, d, d))  # [a * d + b] is |a><b|
            controls = [targets[b * d + a] for a in range(d) for b in range(d)]
        elif self.kind == CNOT:  # E_l on the control with S^l on the target (the SUM gate)
            targets = [None, *(_shift_power(d, ell) for ell in range(1, d))]
        else:  # cphase: E_l on the control with R_level^l on the target
            targets = [_phase_gate(self.level, d, ell) for ell in range(d)]
        terms = [[(self.control, on_control)] for on_control in controls]
        for pairs, on_target in zip(terms, targets):
            if on_target is not None:
                pairs.insert(self.target > self.control, (self.target, on_target))  # site order
        return terms

    def _form(self, n: int, d: int) -> tuple | _Move:
        if self.kind in (PHASE, CPHASE):
            return None, None
        if self.control is None:  # one dense matrix owns every row of its site
            return self.target, [np.ones(d, dtype=bool)]
        return _digit_move(self.kind, d, *sorted(self.wires), self.control < self.target)


@functools.lru_cache(maxsize=256)
def _digit_move(kind: str, d: int, lo: int, hi: int, control_first: bool) -> _Move:
    """The ``_Move`` of a swap or a cnot on sites ``lo < hi``: digits ``(u, v)`` read a
    swap's ``(v, u)``, a cnot's ``(u, v - u)`` or, control higher, ``(u - v, v)`` mod d."""
    pairs = itertools.product(range(d), repeat=2)
    if kind == SWAP:
        moves = [((u, v), (v, u)) for u, v in pairs]
    elif control_first:
        moves = [((u, v), (u, (v - u) % d)) for u, v in pairs]
    else:
        moves = [((u, v), ((u - v) % d, v)) for u, v in pairs]
    return _Move(d, lo, hi, tuple((out, source) for out, source in moves if out != source))


@dataclass(frozen=True)
class FourierStep(_LocalStep):
    """The d x d Fourier gate on one site (0-based), the step's ``target``."""

    site: int

    kind = FOURIER
    control = level = None

    @property
    def target(self) -> int:
        return self.site

    def to_dict(self) -> dict:
        return {"op": "fourier", "site": self.site}


@dataclass(frozen=True)
class CPhaseStep(_LocalStep):
    """Controlled phase: sum over l of ``E_l`` on ``control`` with ``R_level**l`` on ``target``."""

    control: int
    target: int
    level: int

    kind = CPHASE

    def to_dict(self) -> dict:
        return {
            "op": "cphase", "level": self.level, "control": self.control, "target": self.target
        }


PlanStep = ButterflyStep | FourierStep | CPhaseStep


@dataclass(frozen=True, eq=False)
class FactorizationPlan:
    """Factored form of the DFT matrix: reversal times the factor product.

    ``steps`` are stored in application order; with ``factors`` their
    operators, the identity
    ``reversal @ factors[-1] @ ... @ factors[0] == dft_matrix(d**n)`` holds.
    """

    n: int
    d: int
    kind: str
    orientation: str
    steps: tuple[PlanStep, ...]

    @property
    def dim(self) -> int:
        return self.d**self.n

    @functools.cached_property
    def factors(self) -> tuple[StructuredOperator, ...]:
        """The steps as structured operators, built on first access and kept.

        Building, serialising and lowering never touch them.
        """
        return tuple(s.operator(self.n, self.d) for s in self.steps)

    @property
    def reversal(self) -> Permutation:
        """The digit-reversal permutation, built on each access.

        Its image has d**n entries and nothing keeps it.  ``fft_apply`` and
        ``plan_product`` reverse the digits by a transpose instead; symbolic
        work (gate counting, lowering) never builds it.
        """
        return digit_reversal(self.n, self.d)


@dataclass(frozen=True, eq=False)
class DiagonalDecomposition:
    """The twiddle diagonal on k+1 sites as a product of k two-site factors."""

    k: int
    d: int
    orientation: str
    factors: tuple[StructuredOperator, ...]


@dataclass(frozen=True)
class PlanVerification:
    """Numerical certificate for a plan at its full dense dimension."""

    dim: int
    residual: float
    factor_unitarity: tuple[float, ...]

    @property
    def max_factor_unitarity(self) -> float:
        return max(self.factor_unitarity) if self.factor_unitarity else 0.0


def _check_plan_args(n: int, d: int) -> None:
    if n < 1:
        raise ValueError("plans need at least one site")
    if d < 2:
        raise ValueError("local dimension must be at least 2")


def _check_orientation(orientation: str) -> None:
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")


def fft_plan(n: int, d: int = 2) -> FactorizationPlan:
    """Radix-d FFT factorization: n butterfly stages plus the digit reversal."""
    _check_plan_args(n, d)
    steps = tuple(ButterflyStep(k) for k in range(n - 1, -1, -1))
    return FactorizationPlan(n, d, FFT, CONTROL_FIRST, steps)


def qft_plan(n: int, d: int = 2, orientation: str = TARGET_FIRST) -> FactorizationPlan:
    """QFT factorization: one- and two-site factors only.

    Per butterfly stage the plan emits the single-site Fourier factor first,
    then the stage's controlled-phase factors in descending level order (they
    commute; this order matches the conventional circuit layout).
    """
    _check_plan_args(n, d)
    _check_orientation(orientation)
    steps = []
    for k in range(n - 1, -1, -1):
        b = n - k - 1  # 0-based site of this stage's Fourier gate
        steps.append(FourierStep(b))
        for i in range(k, 0, -1):
            if orientation == CONTROL_FIRST:
                steps.append(CPhaseStep(b, b + i, i + 1))
            else:
                steps.append(CPhaseStep(b + i, b, i + 1))
    return FactorizationPlan(n, d, QFT, orientation, tuple(steps))


def diagonal_decomposition(
    k: int, d: int = 2, orientation: str = CONTROL_FIRST
) -> DiagonalDecomposition:
    """Factor the twiddle diagonal on k+1 sites into k commuting two-site factors."""
    if k < 1:
        raise ValueError("diagonal decomposition needs k >= 1")
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    _check_orientation(orientation)
    factors = []
    for i in range(1, k + 1):
        if orientation == CONTROL_FIRST:
            control, target = 0, i
        else:
            control, target = i, 0
        factors.append(CPhaseStep(control, target, i + 1).operator(k + 1, d))
    return DiagonalDecomposition(k, d, orientation, tuple(factors))


def diagonal_target(k: int, d: int = 2, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Direct sum ``I (+) Omega_k (+) ... (+) Omega_k^(d-1)`` as a dense matrix."""
    _check_dense_sites(k + 1, d, dense_limit)
    dim = d**k
    out = np.zeros((dim * d, dim * d), dtype=complex)
    for level in range(d):
        block = omega_diag(k, d, level, dense_limit=dense_limit)
        out[level * dim : (level + 1) * dim, level * dim : (level + 1) * dim] = block
    return out


def decomposition_product(
    dd: DiagonalDecomposition, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """Dense product of the decomposition factors, in the stated i = 1..k order."""
    _check_dense_sites(dd.k + 1, dd.d, dense_limit)
    # Diagonal factors scale one whole identity in place; column blocks would add theirs.
    return _chain(dd.factors, np.eye(dd.d ** (dd.k + 1), dtype=complex))


def plan_product(plan: FactorizationPlan, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense matrix of ``reversal @ factors[-1] @ ... @ factors[0]``.

    Evaluated by applying each factor's kernel to blocks of identity columns,
    never by dense matrix-matrix products, and transposing each block's digit
    axes straight into the output's columns: the N x N output is the only
    array that large.  The result is the one the whole identity gives, bit
    for bit.
    """
    _check_dense_sites(plan.n, plan.d, dense_limit)
    out = np.empty((plan.dim, plan.dim), dtype=complex)
    digits = (plan.d,) * plan.n + (-1,)
    reverse = tuple(range(plan.n - 1, -1, -1)) + (plan.n,)
    for start, block in _product_blocks(plan.dim, plan.factors):
        cols = out[:, start : start + block.shape[1]].reshape(digits)  # a view
        cols[...] = block.reshape(digits).transpose(reverse)
    return out


def verify_plan(
    plan: FactorizationPlan,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    unitarity: bool = True,
) -> PlanVerification:
    """Certify a plan against the brute-force DFT matrix.

    Returns the max-abs entrywise residual of the plan product against
    ``dft_matrix(d**n)`` together with per-factor unitarity residuals.  The
    product is formed one block of identity columns at a time, as in
    ``plan_product``.  Instead of reversing a block's digits, the DFT entries
    of the digit-reversed rows and the block's columns, gathered from the
    same N roots as ``dft_matrix``, are subtracted from it in place.  Each
    entry meets the same DFT entry as in the whole matrices, so the residual
    is theirs, and no N x N array is built.
    """
    _check_dense_sites(plan.n, plan.d, dense_limit)
    rows = reverse_digits(np.arange(plan.dim), plan.n, plan.d)
    roots = _dft_roots(plan.dim)
    peaks = []
    for start, block in _product_blocks(plan.dim, plan.factors):
        block -= _dft_entries(roots, rows, slice(start, start + block.shape[1]))
        peaks.append(np.max(np.abs(block)))
    residual = float(np.max(peaks))
    factor_unitarity = ()
    if unitarity:
        factor_unitarity = tuple(
            unitarity_residual(f, dense_limit=dense_limit) for f in plan.factors
        )
    return PlanVerification(plan.dim, residual, factor_unitarity)


def fft_apply(plan: FactorizationPlan, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Transform a vector through the plan without expanding any factor.

    ``x`` must have shape ``(d**n,)`` or ``(d**n, m)``; in the second case each
    column is transformed.  Any other number of dimensions raises
    ``ValueError``.  The result equals ``apply_structured`` of each factor in
    turn followed by ``plan.reversal.apply``, bit for bit.

    The inverse transform conjugates on the way in and out, which applies the
    conjugate-transpose of the (symmetric) DFT matrix.
    """
    x = np.asarray(x, dtype=complex)
    _check_states(x, plan.dim, "plan")
    # The caller's array is never written; its conjugate is ours.
    work = _chain(plan.factors, np.conj(x) if inverse else x, owned=inverse)
    work = reverse_digits(work, plan.n, plan.d)
    return np.conj(work, out=work) if inverse else work


# -- plan serialization -------------------------------------------------------
#
# Plans serialize to the same JSON container shape as circuits ({"version",
# "n", "d", ...}); each step record writes the semantic parameters that
# rebuild its operator, with 0-based site indices.


def plan_to_dict(plan: FactorizationPlan) -> dict:
    return {
        "version": PLAN_SCHEMA_VERSION,
        "kind": plan.kind,
        "n": plan.n,
        "d": plan.d,
        "orientation": plan.orientation,
        "factors": [step.to_dict() for step in plan.steps],
    }


def plan_to_json(plan: FactorizationPlan, indent: int | None = None) -> str:
    return json.dumps(plan_to_dict(plan), indent=indent)


#: The plan kind each factor op belongs to.
_OP_KIND = {"butterfly": FFT, "fourier": QFT, "cphase": QFT}


# Integer fields are tested with ``type(value) is int``: JSON ``true`` and
# ``false`` load as ``bool``, a subclass of ``int``, and are not integers.


def _step_from_dict(kind: str, n: int, desc) -> PlanStep:
    if not isinstance(desc, dict):
        raise PlanFormatError("plan factor must be a JSON object")
    op = desc.get("op")
    if _OP_KIND.get(op, kind) != kind:
        raise PlanFormatError(f"factor op {op!r} does not belong in a {kind!r} plan")
    if op == "butterfly":
        stage = desc.get("stage")
        if type(stage) is not int or not 0 <= stage < n:
            raise PlanFormatError(f"butterfly stage {stage!r} out of range")
        return ButterflyStep(stage)
    if op == "fourier":
        site = desc.get("site")
        if type(site) is not int or not 0 <= site < n:
            raise PlanFormatError(f"fourier site {site!r} out of range")
        return FourierStep(site)
    if op == "cphase":
        control, target, level = desc.get("control"), desc.get("target"), desc.get("level")
        for name, wire in (("control", control), ("target", target)):
            if type(wire) is not int or not 0 <= wire < n:
                raise PlanFormatError(f"cphase {name} {wire!r} out of range")
        if control == target:
            raise PlanFormatError("cphase control and target must differ")
        if type(level) is not int or level < 1:
            raise PlanFormatError(f"cphase level {level!r} must be a positive integer")
        return CPhaseStep(control, target, level)
    raise PlanFormatError(f"unknown factor op {op!r}")


def plan_from_dict(doc: dict) -> FactorizationPlan:
    if not isinstance(doc, dict):
        raise PlanFormatError("plan document must be a JSON object")
    if doc.get("version") != PLAN_SCHEMA_VERSION:
        raise PlanFormatError(f"unsupported plan schema version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in (FFT, QFT):
        raise PlanFormatError(f"unknown plan kind {kind!r}")
    orientation = doc.get("orientation", CONTROL_FIRST)
    if orientation not in ORIENTATIONS:
        raise PlanFormatError(f"unknown orientation {orientation!r}")
    n, d = doc.get("n"), doc.get("d")
    if type(n) is not int or type(d) is not int or n < 1 or d < 2:
        raise PlanFormatError(f"invalid plan dimensions n={n!r}, d={d!r}")
    raw = doc.get("factors")
    if not isinstance(raw, list):
        raise PlanFormatError("plan factors must be a list")
    steps = tuple(_step_from_dict(kind, n, desc) for desc in raw)
    return FactorizationPlan(n, d, kind, orientation, steps)


def plan_from_json(text: str) -> FactorizationPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanFormatError(f"plan document is not valid JSON: {exc}") from exc
    return plan_from_dict(doc)
