"""Sum-of-rank-1 (canonical polyadic) state representation.

A state on n sites of dimension d is a weighted sum of rank-1 terms, each a
Kronecker product of per-site vectors.  The terms are stored as arrays: a
weight vector of shape ``(T,)`` and a site-vector array of shape
``(T, n, d)``.  Site vectors are kept unit-norm with magnitudes folded into
the term weight; a projector that annihilates a site vector zeroes the whole
term (the vector is replaced by a basis placeholder so the representation
stays well formed for the no-prune experiments).

Structured operators apply to all terms at once, as one batch of site-local
products over every (operator term, non-identity site) pair, so the cost
per term is independent of the global dimension; the price is that the
number of terms can grow with every controlled factor.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from .tensor import DEFAULT_DENSE_LIMIT, StructuredOperator, _check_dense_sites, _integer
from .spectral import _dft_product
from .factorize import (
    CONTROL_FIRST,
    TARGET_FIRST,
    diagonal_decomposition,
    qft_plan,
)


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """One weighted Kronecker product of unit-norm site vectors.

    The constructor normalizes: site-vector magnitudes are folded into the
    weight, and a zero site vector collapses the term to weight 0 (with the
    first basis vector as a placeholder so every stored vector stays unit).
    """

    weight: complex
    site_vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        weight = complex(self.weight)
        normalized = []
        for v in self.site_vectors:
            a = np.array(v, dtype=complex).reshape(-1)
            norm = np.linalg.norm(a)
            if norm == 0:
                weight = 0.0
                a = np.zeros_like(a)
                a[0] = 1.0
            else:
                a = a / norm
                weight *= norm
            a.setflags(write=False)
            normalized.append(a)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "site_vectors", tuple(normalized))

    @classmethod
    def _view(cls, weight: complex, vectors: np.ndarray) -> "RankOneTerm":
        """A term over the rows of a read-only, already normalized ``(n, d)`` array."""
        term = object.__new__(cls)
        object.__setattr__(term, "weight", weight)
        object.__setattr__(term, "site_vectors", tuple(vectors))
        return term


class CPState:
    """Weighted sum of rank-1 terms on n sites of local dimension d.

    ``weights`` (shape ``(T,)``) and ``vectors`` (shape ``(T, n, d)``) are
    read-only arrays; ``vectors[t, i]`` is the unit-norm vector of term t on
    site i.  ``terms`` gives the same terms as :class:`RankOneTerm` objects
    whose site vectors are views of ``vectors``, built on first access.
    """

    def __init__(self, n: int, d: int, terms):
        n, d = _integer(n, "state n"), _integer(d, "state d")
        if n < 1 or d < 2:
            raise ValueError("states need n >= 1 sites of dimension d >= 2")
        terms = tuple(terms)
        if not terms:
            raise ValueError("states carry at least one term")
        for t in terms:
            if len(t.site_vectors) != n:
                raise ValueError(f"term has {len(t.site_vectors)} sites, expected {n}")
            for v in t.site_vectors:
                if v.shape != (d,):
                    raise ValueError(f"site vector length {v.shape[0]} != {d}")
        weights = np.array([t.weight for t in terms], dtype=complex)
        vectors = np.array([t.site_vectors for t in terms], dtype=complex)
        self._set(n, d, weights, vectors)
        self.__dict__["terms"] = terms  # fills the cached property below

    @classmethod
    def _from_arrays(cls, n: int, d: int, weights: np.ndarray, vectors: np.ndarray) -> "CPState":
        """A state over arrays already in the stored form; they are made read-only."""
        s = object.__new__(cls)
        s._set(n, d, weights, vectors)
        return s

    def _set(self, n, d, weights, vectors) -> None:
        weights.setflags(write=False)
        vectors.setflags(write=False)
        self.__dict__.update(n=n, d=d, weights=weights, vectors=vectors)

    def __setattr__(self, name, value):
        raise AttributeError("CPState is immutable")

    def __repr__(self):
        return f"CPState(n={self.n}, d={self.d}, term_count={self.term_count})"

    @functools.cached_property
    def terms(self) -> tuple[RankOneTerm, ...]:
        return tuple(
            RankOneTerm._view(w, v) for w, v in zip(self.weights.tolist(), self.vectors)
        )

    @property
    def dim(self) -> int:
        return self.d**self.n

    @property
    def term_count(self) -> int:
        return self.weights.shape[0]

    def reverse_sites(self) -> "CPState":
        """Site order reversed per term: the digit-reversal permutation."""
        return CPState._from_arrays(self.n, self.d, self.weights, self.vectors[:, ::-1])


def cp_basis_state(digits, d: int = 2) -> CPState:
    """Computational basis state from its big-endian base-d digit string."""
    digits = list(digits)
    if not digits:
        raise ValueError("need at least one digit")
    vectors = []
    for dig in digits:
        if not 0 <= dig < d:
            raise ValueError(f"digit {dig} out of range for base {d}")
        v = np.zeros(d, dtype=complex)
        v[dig] = 1.0
        vectors.append(v)
    return CPState(len(digits), d, (RankOneTerm(1.0, tuple(vectors)),))


#: Least chance that one ``random_rank_one`` draw passes: at most about 10**4 draws a site.
_MIN_PASS = 1e-4


def random_rank_one(
    n: int, d: int = 2, seed: int = 0, min_component: float = 1e-6
) -> CPState:
    """Seeded generic rank-1 state: complex Gaussian site vectors, renormalized.

    Genericity is enforced by resampling any site vector with a component of
    magnitude <= ``min_component`` times its norm, so projector branches
    never vanish by accident.  A vector's normalised squared magnitudes are
    uniform on the simplex, so one draw passes with probability
    ``(1 - d * min_component**2)**(d - 1)``.  A ``min_component`` outside
    ``[0, 1/sqrt(d))``, or one for which that is under ``_MIN_PASS``, raises
    ``ValueError`` before any draw.
    """
    if not 0 <= min_component < d**-0.5 or (1 - d * min_component**2) ** (d - 1) < _MIN_PASS:
        raise ValueError(f"min_component {min_component} is not in [0, {d}**-0.5) or is too rare")
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(n):
        while True:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            if np.min(np.abs(v)) > min_component * np.linalg.norm(v):
                break
        vectors.append(v / np.linalg.norm(v))
    return CPState(n, d, (RankOneTerm(1.0, tuple(vectors)),))


def _normalize(vectors: np.ndarray):
    """Site-vector norms and unit vectors, as ``RankOneTerm`` forms them.

    ``vectors`` has shape ``S + (d,)``; returns the norms, of shape ``S``,
    and new unit vectors.  A zero vector has norm 0 and becomes the first
    basis vector.
    """
    norms = np.linalg.norm(vectors, axis=-1)
    zero = norms == 0
    vectors = vectors / np.where(zero, 1.0, norms)[..., None]
    vectors[zero] = np.eye(1, vectors.shape[-1])
    return norms, vectors


def _kron_rows(vectors: np.ndarray) -> np.ndarray:
    """Per term, the Kronecker product of its site vectors: ``(T, k, d) -> (T, d**k)``."""
    terms, sites, d = vectors.shape
    out = np.ones((terms, 1), dtype=complex)
    for i in range(sites):
        out = (out[:, :, None] * vectors[:, i, None, :]).reshape(terms, d ** (i + 1))
    return out


def cp_to_dense(s: CPState, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Materialize the state as a dense vector of length d**n.

    The leading and trailing halves of the sites are expanded per term, and
    one matrix product sums their outer products over the nonzero-weight
    terms, so the work arrays hold ``T * d**(n/2)`` entries, not ``T * d**n``.
    """
    _check_dense_sites(s.n, s.d, dense_limit)
    live = s.weights != 0
    half = s.n // 2
    left = _kron_rows(s.vectors[live, :half]) * s.weights[live, None]
    right = _kron_rows(s.vectors[live, half:])
    return (left.T @ right).reshape(s.dim)


def apply_op_cp(op: StructuredOperator, s: CPState, prune: float = 1e-14) -> CPState:
    """Apply a structured operator to every state term at once.

    Every (state term, operator term) pair yields one candidate output term,
    in state-term-major order: the state's site vectors with each
    non-identity factor of the operator term applied on its site, all such
    (operator term, site) products as one batch over the state terms.  Only
    those vectors are renormalised; the sites a term leaves out keep the
    state's unit vectors.  Terms whose weight magnitude falls below
    ``prune`` times the largest weight are dropped (the first candidate
    stays if none is left); ``prune = 0`` keeps everything, including zeros.
    """
    if (op.n_sites, op.local_dim) != (s.n, s.d):
        raise ValueError("operator and state site structures do not match")
    if not op.terms:
        raise ValueError("operator has no terms")
    return _apply_terms(s, [(t.coefficient, t.site_matrices) for t in op.terms], prune)


def _apply_terms(s: CPState, terms, prune: float) -> CPState:
    """``apply_op_cp``'s kernel on unchecked ``(coefficient, (site, matrix) pairs)`` terms."""
    vectors = np.repeat(s.vectors[:, None], len(terms), axis=1)
    norms = np.ones(vectors.shape[:-1])  # 1 on the untouched sites, whose vectors are unit
    touched = [(j, i, f) for j, (_, pairs) in enumerate(terms) for i, f in pairs]
    if touched:  # per pair, ``s.vectors[:, i] @ f.T`` as one (T, d) @ (d, d) product
        ids, sites, factors = zip(*touched)
        products = s.vectors[:, sites].swapaxes(0, 1) @ np.array(factors).swapaxes(1, 2)
        products_norms, products = _normalize(products)
        norms[:, ids, sites] = products_norms.T
        vectors[:, ids, sites] = products.swapaxes(0, 1)
    coefficients = np.array([c for c, _ in terms], dtype=complex)
    weights = (s.weights[:, None] * coefficients * norms.prod(axis=-1)).reshape(-1)
    vectors = vectors.reshape(-1, s.n, s.d)
    if prune > 0:
        magnitudes = np.abs(weights)
        wmax = magnitudes.max()
        keep = magnitudes >= prune * wmax if wmax > 0 else np.zeros(weights.shape, dtype=bool)
        if not keep.any():
            keep[0] = True
        if not keep.all():
            weights, vectors = weights[keep], vectors[keep]
    return CPState._from_arrays(s.n, s.d, weights, vectors)


def diagonal_cascade_cp(
    k: int,
    d: int,
    s: CPState,
    prune: float = 1e-14,
    orientation: str = CONTROL_FIRST,
) -> tuple[CPState, list[int]]:
    """Run the k twiddle-diagonal factors on a (k+1)-site state in order.

    Returns the final state and the term count recorded after each factor.
    """
    if s.n != k + 1 or s.d != d:
        raise ValueError(f"state must have {k + 1} sites of dimension {d}")
    decomposition = diagonal_decomposition(k, d, orientation)
    trajectory = []
    for f in decomposition.factors:
        s = apply_op_cp(f, s, prune)
        trajectory.append(s.term_count)
    return s, trajectory


def bipartition_rank(
    s: CPState,
    cut: int,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    rel_tol: float = 1e-10,
) -> int:
    """Numerical rank of the state's matricization across a site cut.

    ``cut`` is the number of leading sites on the left side; singular values
    above ``rel_tol`` times the largest one count toward the rank.
    """
    if not 1 <= cut < s.n:
        raise ValueError(f"cut must lie strictly inside 1..{s.n - 1}")
    dense = cp_to_dense(s, dense_limit=dense_limit)
    matrix = dense.reshape(s.d**cut, -1)
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] == 0:
        return 0
    return int(np.count_nonzero(svals > rel_tol * svals[0]))


def _merge_parallel(weights: np.ndarray, vectors: np.ndarray, tol: float):
    """Fold each term into the first earlier kept term whose site vectors are
    all parallel to its own, up to ``tol``; returns the kept weights and vectors."""
    kept: list[int] = []
    merged: list[complex] = []
    for t in range(weights.shape[0]):
        if kept:
            overlaps = np.einsum("knd,nd->kn", vectors[kept].conj(), vectors[t])
            hit = np.flatnonzero(np.all(np.abs(np.abs(overlaps) - 1.0) <= tol, axis=1))
            if hit.size:
                merged[hit[0]] += weights[t] * np.prod(overlaps[hit[0]])
                continue
        kept.append(t)
        merged.append(weights[t])
    return np.array(merged, dtype=complex), vectors[kept]


def compress(s: CPState, tol: float = 1e-12, svd: bool = True) -> CPState:
    """Cheap representation cleanup: never changes the dense state beyond ``tol``.

    Drops near-zero-weight terms and merges terms whose site vectors are
    pairwise parallel.  For two-site states the ``svd`` path re-expresses the
    state through its singular value decomposition, which is the minimal
    representation there; no general rank minimization is attempted.
    """
    magnitudes = np.abs(s.weights)
    wmax = magnitudes.max()
    keep = magnitudes > tol * wmax if wmax > 0 else np.arange(s.term_count) == 0
    weights, vectors = s.weights[keep], s.vectors[keep]
    if svd and s.n == 2:
        matrix = cp_to_dense(CPState._from_arrays(s.n, s.d, weights, vectors))
        u, svals, vh = np.linalg.svd(matrix.reshape(s.d, s.d))
        rank = np.flatnonzero((svals > tol * svals[0]) & (svals > 0))
        if rank.size:
            weights = svals[rank].astype(complex)
        else:
            rank, weights = [0], np.zeros(1, dtype=complex)
        norms, vectors = _normalize(np.stack([u[:, rank].T, vh[rank]], axis=1))
        weights = weights * np.prod(norms, axis=-1)
        return CPState._from_arrays(s.n, s.d, weights, vectors)
    weights, vectors = _merge_parallel(weights, vectors, tol)
    magnitudes = np.abs(weights)
    wmax = magnitudes.max()
    if wmax > 0:
        keep = magnitudes > tol * wmax
        weights, vectors = weights[keep], vectors[keep]
    return CPState._from_arrays(s.n, s.d, weights, vectors)


@dataclass(frozen=True)
class TrajectoryStep:
    step: int
    factor_label: str
    term_count: int
    elapsed_ms: float


@dataclass(frozen=True)
class RankTrajectory:
    """Term-count trajectory of a factor-by-factor QFT run, plus the dense check."""

    n: int
    d: int
    orientation: str
    prune: float
    steps: tuple[TrajectoryStep, ...]
    residual: float

    @property
    def max_term_count(self) -> int:
        return max(s.term_count for s in self.steps)

    def to_csv(self, timing: bool = True) -> str:
        lines = ["step,factor_label,term_count,elapsed_ms"]
        for s in self.steps:
            ms = s.elapsed_ms if timing else 0.0
            lines.append(f"{s.step},{s.factor_label},{s.term_count},{ms:.3f}")
        return "\n".join(lines)

    def to_json(self, timing: bool = True, indent: int | None = None) -> str:
        doc = {
            "n": self.n,
            "d": self.d,
            "orientation": self.orientation,
            "prune": self.prune,
            "residual": self.residual,
            "steps": [
                {
                    "step": s.step,
                    "factor_label": s.factor_label,
                    "term_count": s.term_count,
                    "elapsed_ms": round(s.elapsed_ms if timing else 0.0, 3),
                }
                for s in self.steps
            ],
        }
        return json.dumps(doc, indent=indent)


def qft_rank_experiment(
    n: int,
    d: int,
    state: CPState,
    prune: float = 1e-14,
    orientation: str = TARGET_FIRST,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> RankTrajectory:
    """Run the full QFT plan on a CP state, recording term counts per factor.

    Each step record's terms feed the ``apply_op_cp`` kernel directly, with
    the bits of ``apply_op_cp`` over ``plan.factors``.  The final state is
    checked densely against the brute-force DFT of the input, so the global
    dimension must stay within the dense limit.
    """
    if (state.n, state.d) != (n, d):
        raise ValueError("state does not match the requested site structure")
    expected = _dft_product(cp_to_dense(state, dense_limit=dense_limit), dense_limit=dense_limit)
    plan = qft_plan(n, d, orientation)
    steps = []
    for i, step in enumerate(plan.steps):
        start = time.perf_counter()
        state = _apply_terms(state, [(1, pairs) for pairs in step._pairs(n, d)], prune)
        elapsed = (time.perf_counter() - start) * 1e3
        steps.append(TrajectoryStep(i, step.label(n), state.term_count, elapsed))
    start = time.perf_counter()
    state = state.reverse_sites()
    elapsed = (time.perf_counter() - start) * 1e3
    steps.append(TrajectoryStep(len(plan.steps), "digit-reversal", state.term_count, elapsed))
    residual = float(
        np.max(np.abs(cp_to_dense(state, dense_limit=dense_limit) - expected))
    )
    return RankTrajectory(plan.n, plan.d, orientation, prune, tuple(steps), residual)
