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
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DEFAULT_DENSE_LIMIT,
    KronTerm,
    Permutation,
    StructuredOperator,
    _check_dense_limit,
    _check_states,
    apply_structured,
    basis_projector,
    digit_reversal,
    embed_term,
    identity,
    reverse_digits,
    single_site_operator,
    unitarity_residual,
)
from .spectral import dft_matrix, fourier_gate, omega_diag, r_gate_power

FFT = "fft"
QFT = "qft"
CONTROL_FIRST = "control-first"
TARGET_FIRST = "target-first"
ORIENTATIONS = (CONTROL_FIRST, TARGET_FIRST)

PLAN_SCHEMA_VERSION = 1


class PlanFormatError(ValueError):
    """A serialized plan document is malformed."""


@dataclass(frozen=True, eq=False)
class FactorizationPlan:
    """Factored form of the DFT matrix: reversal times the factor product.

    ``factors`` are stored in application order; as matrices the identity
    ``reversal @ factors[-1] @ ... @ factors[0] == dft_matrix(d**n)`` holds.
    """

    n: int
    d: int
    kind: str
    orientation: str
    factors: tuple[StructuredOperator, ...]

    @property
    def dim(self) -> int:
        return self.d**self.n

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


def _butterfly_factor(n: int, d: int, stage: int) -> StructuredOperator:
    """FFT stage: identity on the leading sites, then the full radix block.

    The block merges the twiddle diagonal with the Fourier gate via the
    mixed-product identity, giving d Kronecker terms whose row supports are
    disjoint (two nonzeros per row when d = 2).
    """
    if not 0 <= stage < n:
        raise ValueError(f"stage {stage} out of range for {n} sites")
    fd = fourier_gate(d)
    lead = stage + 1  # 0-based site of the Fourier gate is n - stage - 1
    terms = []
    for level in range(d):
        sites = {n - lead: basis_projector(level, d) @ fd}
        for i in range(1, stage + 1):
            sites[n - lead + i] = r_gate_power(i + 1, d, level)
        terms.append(embed_term(n, d, sites))
    return StructuredOperator(n, d, tuple(terms), label=f"butterfly@{n - stage}")


def _cphase_factor(
    n: int, d: int, control: int, target: int, level: int, label: str = ""
) -> StructuredOperator:
    """Two-site controlled-phase factor: projectors on control, R powers on target."""
    terms = tuple(
        embed_term(
            n,
            d,
            {
                control: basis_projector(ell, d),
                target: r_gate_power(level, d, ell),
            },
        )
        for ell in range(d)
    )
    if not label:
        label = f"cr{level}@{control + 1}>{target + 1}"
    return StructuredOperator(n, d, terms, label=label)


def fft_plan(n: int, d: int = 2) -> FactorizationPlan:
    """Radix-d FFT factorization: n butterfly stages plus the digit reversal."""
    _check_plan_args(n, d)
    factors = tuple(_butterfly_factor(n, d, k) for k in range(n - 1, -1, -1))
    return FactorizationPlan(n, d, FFT, CONTROL_FIRST, factors)


def qft_plan(n: int, d: int = 2, orientation: str = TARGET_FIRST) -> FactorizationPlan:
    """QFT factorization: one- and two-site factors only.

    Per butterfly stage the plan emits the single-site Fourier factor first,
    then the stage's controlled-phase factors in descending level order (they
    commute; this order matches the conventional circuit layout).
    """
    _check_plan_args(n, d)
    _check_orientation(orientation)
    fd = fourier_gate(d)
    factors = []
    for k in range(n - 1, -1, -1):
        b = n - k - 1  # 0-based site of this stage's Fourier gate
        factors.append(single_site_operator(n, d, b, fd, label=f"fourier@{b + 1}"))
        for i in range(k, 0, -1):
            if orientation == CONTROL_FIRST:
                control, target = b, b + i
            else:
                control, target = b + i, b
            factors.append(_cphase_factor(n, d, control, target, i + 1))
    return FactorizationPlan(n, d, QFT, orientation, tuple(factors))


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
        factors.append(_cphase_factor(k + 1, d, control, target, i + 1))
    return DiagonalDecomposition(k, d, orientation, tuple(factors))


def diagonal_target(k: int, d: int = 2, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Direct sum ``I (+) Omega_k (+) ... (+) Omega_k^(d-1)`` as a dense matrix."""
    dim = d**k
    _check_dense_limit(dim * d, dense_limit)
    out = np.zeros((dim * d, dim * d), dtype=complex)
    for level in range(d):
        block = omega_diag(k, d, level, dense_limit=dense_limit)
        out[level * dim : (level + 1) * dim, level * dim : (level + 1) * dim] = block
    return out


def decomposition_product(
    dd: DiagonalDecomposition, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """Dense product of the decomposition factors, in the stated i = 1..k order."""
    dim = dd.d ** (dd.k + 1)
    _check_dense_limit(dim, dense_limit)
    out = np.eye(dim, dtype=complex)
    for f in dd.factors:
        out = apply_structured(f, out)
    return out


def plan_product(plan: FactorizationPlan, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense matrix of ``reversal @ factors[-1] @ ... @ factors[0]``.

    Evaluated by structured application of each stored factor to the columns
    of the identity, never by dense matrix-matrix products.
    """
    _check_dense_limit(plan.dim, dense_limit)
    out = np.eye(plan.dim, dtype=complex)
    for f in plan.factors:
        out = apply_structured(f, out)
    return reverse_digits(out, plan.n, plan.d)


def verify_plan(
    plan: FactorizationPlan,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    unitarity: bool = True,
) -> PlanVerification:
    """Certify a plan against the brute-force DFT matrix.

    Returns the max-abs entrywise residual of the plan product against
    ``dft_matrix(d**n)`` together with per-factor unitarity residuals.
    """
    approx = plan_product(plan, dense_limit=dense_limit)
    approx -= dft_matrix(plan.dim, dense_limit=dense_limit)
    residual = float(np.max(np.abs(approx)))
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
    work = np.conj(x) if inverse else x
    for f in plan.factors:
        work = apply_structured(f, work)
    work = reverse_digits(work, plan.n, plan.d)
    return np.conj(work, out=work) if inverse else work


# -- plan serialization -------------------------------------------------------
#
# Plans serialize to the same JSON container shape as circuits ({"version",
# "n", "d", ...}); factor descriptors carry the semantic parameters needed to
# rebuild the operators, with 0-based site indices.


def _factor_descriptor(plan: FactorizationPlan, op: StructuredOperator) -> dict:
    if plan.kind == FFT:
        # The stage's Fourier gate site is the only non-identity site of the
        # level-0 term (its R powers are all identity).
        sites = _term_nonidentity_sites(op.terms[0], plan.d)
        if len(sites) != 1:
            raise ValueError(f"factor {op.label!r} is not a butterfly stage")
        return {"op": "butterfly", "stage": plan.n - 1 - sites[0]}
    if len(op.terms) == 1:
        return {"op": "fourier", "site": _single_dense_site(op)}
    control, target, level = _cphase_structure(op)
    return {"op": "cphase", "level": level, "control": control, "target": target}


def plan_to_dict(plan: FactorizationPlan) -> dict:
    return {
        "version": PLAN_SCHEMA_VERSION,
        "kind": plan.kind,
        "n": plan.n,
        "d": plan.d,
        "orientation": plan.orientation,
        "factors": [_factor_descriptor(plan, op) for op in plan.factors],
    }


def plan_to_json(plan: FactorizationPlan, indent: int | None = None) -> str:
    return json.dumps(plan_to_dict(plan), indent=indent)


def _descriptor_to_factor(n: int, d: int, desc: dict) -> StructuredOperator:
    op = desc.get("op")
    if op == "butterfly":
        stage = desc.get("stage")
        if not isinstance(stage, int) or not 0 <= stage < n:
            raise PlanFormatError(f"butterfly stage {stage!r} out of range")
        return _butterfly_factor(n, d, stage)
    if op == "fourier":
        site = desc.get("site")
        if not isinstance(site, int) or not 0 <= site < n:
            raise PlanFormatError(f"fourier site {site!r} out of range")
        return single_site_operator(n, d, site, fourier_gate(d), label=f"fourier@{site + 1}")
    if op == "cphase":
        control, target, level = desc.get("control"), desc.get("target"), desc.get("level")
        for name, wire in (("control", control), ("target", target)):
            if not isinstance(wire, int) or not 0 <= wire < n:
                raise PlanFormatError(f"cphase {name} {wire!r} out of range")
        if control == target:
            raise PlanFormatError("cphase control and target must differ")
        if not isinstance(level, int) or level < 1:
            raise PlanFormatError(f"cphase level {level!r} must be a positive integer")
        return _cphase_factor(n, d, control, target, level)
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
    if not isinstance(n, int) or not isinstance(d, int) or n < 1 or d < 2:
        raise PlanFormatError(f"invalid plan dimensions n={n!r}, d={d!r}")
    raw = doc.get("factors")
    if not isinstance(raw, list):
        raise PlanFormatError("plan factors must be a list")
    factors = tuple(_descriptor_to_factor(n, d, desc) for desc in raw)
    return FactorizationPlan(n, d, kind, orientation, factors)


def plan_from_json(text: str) -> FactorizationPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanFormatError(f"plan document is not valid JSON: {exc}") from exc
    return plan_from_dict(doc)


# -- factor structure inspection ----------------------------------------------


def _term_nonidentity_sites(term: KronTerm, d: int) -> list[int]:
    eye = identity(d)
    return [
        i
        for i, f in enumerate(term.factors)
        if f is not eye and not np.array_equal(f, eye)
    ]


def _single_dense_site(op: StructuredOperator) -> int:
    """Site index of the unique non-identity factor of a single-term operator."""
    sites = _term_nonidentity_sites(op.terms[0], op.local_dim)
    if len(op.terms) != 1 or len(sites) != 1:
        raise ValueError(f"operator {op.label!r} is not a single-site gate")
    return sites[0]


def _cphase_structure(op: StructuredOperator, atol: float = 1e-9) -> tuple[int, int, int]:
    """Recover (control, target, level) from a controlled-phase factor.

    The control is the site holding the basis projectors E_0..E_{d-1} (in term
    order); the target holds the matching R powers.  Raises ``ValueError``
    for anything that is not of this two-site shape within ``atol``.
    """
    d = op.local_dim
    if len(op.terms) != d:
        raise ValueError(f"operator {op.label!r} is not a controlled gate")

    def projector_site(site: int, exact: bool) -> bool:
        if exact:
            return all(
                t.factors[site] is basis_projector(ell, d)
                for ell, t in enumerate(op.terms)
            )
        return all(
            np.array_equal(t.factors[site], basis_projector(ell, d))
            for ell, t in enumerate(op.terms)
        )

    # The level-1 term is non-identity exactly on the control and target
    # sites, so only those two need the projector test.  Factors built by
    # this library share the cached projector objects, letting the exact
    # object scan succeed without any entry comparisons.
    candidates = _term_nonidentity_sites(op.terms[1], d)
    if not candidates:
        candidates = list(range(op.n_sites))
    control = next((s for s in candidates if projector_site(s, exact=True)), None)
    if control is None:
        control = next((s for s in candidates if projector_site(s, exact=False)), None)
    if control is None:
        raise ValueError(f"operator {op.label!r} has no projector site")
    eye = identity(d)
    targets = {
        i
        for t in op.terms
        for i, f in enumerate(t.factors)
        if i != control and f is not eye and not np.array_equal(f, eye)
    }
    if len(targets) != 1:
        raise ValueError(f"operator {op.label!r} does not act on exactly two sites")
    target = targets.pop()
    level = _match_r_level(op.terms[1].factors[target], d, atol=atol)
    for ell, t in enumerate(op.terms):
        expected = r_gate_power(level, d, ell)
        f = t.factors[target]
        if t.coefficient != 1 or (
            f is not expected and not np.allclose(f, expected, atol=atol)
        ):
            raise ValueError(f"operator {op.label!r} is not a controlled-R gate")
    return control, target, level


def _match_r_level(m: np.ndarray, d: int, atol: float = 1e-9) -> int:
    """Identify the level of a phase gate R_level from its first phase entry."""
    theta = np.angle(m[1, 1])
    if theta >= 0:
        theta -= 2 * np.pi
    level = round(np.log(2 * np.pi / -theta) / np.log(d))
    if level < 1:
        raise ValueError("matrix is not a phase gate of any integer level")
    expected = r_gate_power(level, d, 1)
    if m is not expected and not np.allclose(m, expected, atol=atol):
        raise ValueError("matrix is not a phase gate of any integer level")
    return int(level)
