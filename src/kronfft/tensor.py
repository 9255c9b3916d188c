"""Kronecker-product linear algebra: dense primitives, structured operators,
and base-d digit-reversal permutations.

Everything here works with plain complex ``numpy`` arrays.  Matrices of global
dimension ``d**n`` are represented either densely or as a
:class:`StructuredOperator`: a scaled sum of Kronecker products of site-local
``d x d`` matrices.  Structured operators can be applied to vectors (and
column batches) without ever materializing the full matrix.

All values are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass

import numpy as np

#: Largest global dimension d**n that dense materialization will accept by
#: default.  Every guarded function takes a ``dense_limit`` override.
DEFAULT_DENSE_LIMIT = 4096

#: Default absolute entrywise tolerance for matrix comparisons.
DEFAULT_ATOL = 1e-12


class DenseLimitError(Exception):
    """An operation would materialize a matrix beyond the dense limit."""


def _check_dense_limit(dim: int, dense_limit: int) -> None:
    if dim > dense_limit:
        raise DenseLimitError(
            f"dimension {dim} exceeds the dense limit {dense_limit}"
        )


def _check_dense_sites(n: int, d: int, dense_limit: int) -> None:
    """``_check_dense_limit(d**n, dense_limit)`` that never forms a huge ``d**n``.

    ``d**n >= 2**(n * (bits(d) - 1))``, so past ``2**65536`` bit lengths decide:
    that exceeds every finite float and any practical limit.  A dimension too
    long to print is named as the power.
    """
    huge = n * (d.bit_length() - 1) > 1 << 16
    if huge or d**n > dense_limit:
        dim = f"{d}**{n}"
        if not huge:
            with contextlib.suppress(ValueError):  # more digits than Python prints
                dim = str(d**n)
        raise DenseLimitError(f"dimension {dim} exceeds the dense limit {dense_limit}")


def _frozen_complex(a) -> np.ndarray:
    if isinstance(a, np.ndarray) and a.dtype == complex and not a.flags.writeable:
        return a
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def identity(dim: int) -> np.ndarray:
    """Read-only complex identity matrix, shared between callers."""
    return _frozen_complex(np.eye(dim))


def _is_identity(f: np.ndarray) -> bool:
    eye = identity(f.shape[0])
    return f is eye or np.array_equal(f, eye)


def _is_diagonal(f: np.ndarray) -> bool:
    return np.count_nonzero(f - np.diag(np.diagonal(f))) == 0


def kron(a, b) -> np.ndarray:
    """Kronecker product: block matrix with (i,j) block ``a[i,j] * b``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    return functools.reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors))


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal stacking of two square matrices."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("direct_sum requires square matrices")
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na + nb, na + nb), dtype=complex)
    out[:na, :na] = a
    out[na:, na:] = b
    return out


@functools.lru_cache(maxsize=64)
def basis_projector(index: int, d: int) -> np.ndarray:
    """Rank-1 projector onto the ``index``-th basis state of a d-level site.

    Returns a shared read-only matrix.
    """
    if not 0 <= index < d:
        raise ValueError(f"projector index {index} out of range for dimension {d}")
    out = np.zeros((d, d), dtype=complex)
    out[index, index] = 1.0
    return _frozen_complex(out)


def unitarity_residual_dense(m: np.ndarray) -> float:
    """Max-abs entry of ``m @ m^H - I``."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))


@dataclass(frozen=True, eq=False, init=False)
class KronTerm:
    """One scaled Kronecker-product term: ``coefficient * (f_1 (x) ... (x) f_n)``.

    The scalar coefficient is kept separate from the factors so projector
    terms and phase factors compose without renormalizing the factors.

    Only the non-identity factors are stored, as ``site_matrices``: read-only
    ``(site, matrix)`` pairs in increasing site order.  A site that is absent
    carries the identity.  ``KronTerm(c, factors)`` takes all ``n`` factors,
    which must share one square shape, and drops those equal to the identity.
    """

    coefficient: complex
    n_sites: int
    local_dim: int
    site_matrices: tuple[tuple[int, np.ndarray], ...]

    def __init__(self, coefficient: complex, factors):
        factors = tuple(factors)
        d = len(factors[0]) if factors else 0
        self._set(coefficient, len(factors), d, enumerate(factors))

    @classmethod
    def _sparse(cls, coefficient: complex, n: int, d: int, pairs) -> "KronTerm":
        """Term from ``(site, matrix)`` pairs in increasing site order, each site in range."""
        term = object.__new__(cls)
        term._set(coefficient, n, d, pairs)
        return term

    @classmethod
    def _trusted(cls, n: int, d: int, pairs) -> "KronTerm":
        """Unit term from read-only, non-identity pairs in site order, untested."""
        term = object.__new__(cls)
        term.__dict__.update(coefficient=1 + 0j, n_sites=n, local_dim=d, site_matrices=tuple(pairs))
        return term

    def _set(self, coefficient, n, d, pairs) -> None:
        # Each distinct matrix object is frozen and checked once; a shared
        # one may sit on several sites.  Entries hold ``f`` so its id stays
        # unique while the pairs are read.
        checked = {}
        stored = []
        for site, f in pairs:
            if id(f) not in checked:
                a = _frozen_complex(f)
                if a.shape != (d, d):
                    raise ValueError(f"Kronecker factors must be square {d} x {d} matrices")
                checked[id(f)] = (f, None if _is_identity(a) else a)
            a = checked[id(f)][1]
            if a is not None:
                stored.append((site, a))
        self.__dict__.update(
            coefficient=complex(coefficient), n_sites=n, local_dim=d, site_matrices=tuple(stored)
        )

    def factor(self, site: int) -> np.ndarray:
        """The matrix on ``site``: the stored one, or the shared identity."""
        return dict(self.site_matrices).get(site, identity(self.local_dim))

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """All ``n_sites`` factors, with ``identity(local_dim)`` on every absent site."""
        out = [identity(self.local_dim)] * self.n_sites
        for site, f in self.site_matrices:
            out[site] = f
        return tuple(out)

    @property
    def dim(self) -> int:
        return self.local_dim**self.n_sites


@dataclass(frozen=True, eq=False)
class StructuredOperator:
    """Sum of Kronecker-product terms over ``n_sites`` sites of dimension ``local_dim``.

    Site order is big-endian: factor 1 acts on the most significant base-d
    digit of the global index.
    """

    n_sites: int
    local_dim: int
    terms: tuple[KronTerm, ...]
    label: str = ""

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("operator needs at least one site")
        if self.local_dim < 1:
            raise ValueError("local dimension must be positive")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if (t.n_sites, t.local_dim) != (self.n_sites, self.local_dim):
                raise ValueError(
                    f"term has {t.n_sites} sites of dimension {t.local_dim}, expected "
                    f"{self.n_sites} of dimension {self.local_dim}"
                )

    @property
    def dim(self) -> int:
        return self.local_dim**self.n_sites

    @functools.cached_property
    def _kernel(self) -> _Kernel | None:
        # Built on first dense use and kept; None means applied term by term.
        # A plan step's operator declares its form ``(site, rows)`` in ``_form``.
        form = self.__dict__.get("_form")
        return _compile(self) if form is None else _assemble(self, *form)


def embed_term(
    n: int, d: int, sites: dict[int, np.ndarray], coefficient: complex = 1.0
) -> KronTerm:
    """Kronecker term that is identity everywhere except the given 0-based sites.

    Sites outside ``0..n-1`` are ignored.
    """
    pairs = sorted((i, m) for i, m in sites.items() if 0 <= i < n)
    return KronTerm._sparse(coefficient, n, d, pairs)


def single_site_operator(
    n: int, d: int, site: int, m: np.ndarray, label: str = ""
) -> StructuredOperator:
    """Operator acting as ``m`` on one site and identity elsewhere."""
    return StructuredOperator(n, d, (embed_term(n, d, {site: m}),), label=label)


def expand(op: StructuredOperator, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Materialize a structured operator as a dense matrix."""
    _check_dense_limit(op.dim, dense_limit)
    out = np.zeros((op.dim, op.dim), dtype=complex)
    for t in op.terms:
        out += t.coefficient * kron_all(t.factors)
    return out


def _apply_term(term: KronTerm, x: np.ndarray, d: int) -> np.ndarray:
    """``term`` applied to a state: each stored site matrix contracted in turn."""
    out = x
    for site, f in term.site_matrices:
        out = np.matmul(f, out.reshape(d**site, d, -1))
    return term.coefficient * out.reshape(x.shape)


def _check_states(x: np.ndarray, dim: int, what: str) -> None:
    """Accept a vector of shape ``(dim,)`` or a column batch of shape ``(dim, m)``."""
    if x.ndim not in (1, 2):
        raise ValueError(f"expected shape (N,) or (N, m), got {x.shape}")
    if x.shape[0] != dim:
        raise ValueError(f"vector length {x.shape[0]} does not match {what} dimension {dim}")


#: Trailing extents (times columns) up to this are applied as one GEMM by a
#: kernel's folded ``(d*rest)``-square block; a batched ``np.matmul`` would pay
#: its per-batch overhead on ``(d, d) @ (d, rest)`` products.
_SHORT_REST = 16


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A structured operator as one site contraction and one diagonal multiply.

    ``matrix`` (``None`` when the operator is diagonal) acts on ``site``.  The
    diagonal multiply views the state as ``grouping + (m,)``, whose axes are
    alternating runs of sites the diagonal depends on and sites it does not,
    and scales the slice ``box`` of that view by ``diagonal``; the diagonal is
    1 outside the box.  ``diagonal`` is ``None`` when it is 1 everywhere.

    The contraction is a batched ``np.matmul`` over the trailing extent
    ``rest`` (later sites times columns), then the diagonal pass.  When the
    diagonal depends only on ``site`` and later sites (every butterfly
    stage; a Fourier gate has none), ``block`` holds ``B^T`` for
    ``B = D (M (x) I_rest)`` at one column, the diagonal folded in.  A
    trailing extent of at most ``_SHORT_REST`` then views the state as a
    ``(d**site, d*rest)`` matrix ``X`` and applies ``I (x) B`` as one GEMM
    ``X B^T`` (by ``block (x) I_m`` for ``m`` columns), with no diagonal
    pass.  The GEMM sums products ``D m_ij x_j``, so an ``inf`` or ``nan``
    entry spreads to its whole block, and the last bits differ from scaling
    after the sum.  Without a block (a diagonal on a site before ``site``,
    only in user operators) every extent takes the batched ``np.matmul``.
    """

    site: int
    matrix: np.ndarray | None
    grouping: tuple[int, ...]
    box: tuple[slice, ...]
    diagonal: np.ndarray | None
    block: np.ndarray | None

    def apply(self, x: np.ndarray, owned: bool = False) -> np.ndarray:
        """Apply to a complex ``(N,)`` or ``(N, m)`` array, as a new array.  With no
        matrix, an ``owned`` array (one nothing else reads) is scaled in place
        instead, through a view that splits the leading axis."""
        m = x.size // len(x)
        if self.matrix is None:
            out = x if owned else x.copy()
            self.scale(out.reshape(len(x), m))
            return out
        d = self.matrix.shape[0]
        left = d**self.site
        rest = x.size // (left * d)
        if self.block is not None and rest <= _SHORT_REST:
            block = self.block if m == 1 else np.kron(self.block, identity(m))
            return (x.reshape(left, d * rest) @ block).reshape(x.shape)
        out = np.matmul(self.matrix, x.reshape(left, d, rest))
        return self.scale(out.reshape(len(x), m)).reshape(x.shape)

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Multiply an ``(N, m)`` array by the diagonal, in place."""
        if self.diagonal is not None:
            x.reshape(self.grouping + x.shape[1:])[self.box] *= self.diagonal
        return x


def _box(off: np.ndarray) -> tuple[slice, ...]:
    """Per axis of the boolean array ``off``, the smallest slice holding every True entry."""
    box = []
    for axis, size in enumerate(off.shape):
        if size == 1:
            box.append(slice(None))
            continue
        hit = off.swapaxes(0, axis).reshape(size, -1).any(axis=1).nonzero()[0]
        box.append(slice(hit[0], hit[-1] + 1))
    return tuple(box)


def _compile(op: StructuredOperator) -> _Kernel | None:
    """Reduce an operator to a ``_Kernel``, or ``None`` when it has no such form.

    Exact tests only: every non-identity factor is diagonal except on at most
    one site, and the terms' matrices on that site have disjoint nonzero
    rows.  Plan steps declare their form and skip these tests.
    """
    dense = {i for t in op.terms for i, f in t.site_matrices if not _is_diagonal(f)}
    if len(dense) > 1:
        return None
    if not dense:
        return _assemble(op)
    (site,) = dense
    rows = [np.any(t.factor(site) != 0, axis=1) for t in op.terms]
    if np.any(np.sum(rows, axis=0) > 1):
        return None
    return _assemble(op, site, rows)


def _assemble(op: StructuredOperator, site: int | None = None, rows=None) -> _Kernel:
    """The untested ``_Kernel`` of ``op = sum_t c_t (x)_i f_ti``.  Every ``f_ti``
    off ``site`` (everywhere, if ``site`` is None) is diagonal and ``f_t,site``
    is nonzero only in the rows ``rows[t]``, disjoint masks: so the operator is
    ``M = sum_t c_t f_t,site`` then the diagonal whose row-r slice is
    ``(x)_i f_ti`` of the owner of r."""
    n, d = op.n_sites, op.local_dim
    terms = [(t.coefficient, dict(t.site_matrices)) for t in op.terms]
    support = sorted(set().union(*(t for _, t in terms)))

    def diagonals(t: dict, sites) -> np.ndarray:
        # Entry (..., k) is out[...] * f[k, k] as in np.kron, one k at a time.
        out = np.ones((), dtype=complex)
        for i in sites:
            f = t.get(i, identity(d)).diagonal()
            out, prev = np.empty(out.shape + (d,), dtype=complex), out
            for k in range(d):
                np.multiply(prev, f[k], out=out[..., k])
        return out

    if site is None:
        site, matrix = 0, None
        diag = np.zeros((d,) * len(support), dtype=complex)
        for c, t in terms:
            diag += c * diagonals(t, support)
    else:
        matrix = sum(c * t.get(site, identity(d)) for c, t in terms)
        diag = np.ones((d,) * len(support), dtype=complex)
        by_row = np.moveaxis(diag, support.index(site), 0)
        others = [i for i in support if i != site]
        for (_, t), mask in zip(terms, rows):
            if any(i in t for i in others):  # otherwise its rows stay exactly 1
                by_row[mask] = diagonals(t, others)

    block = None
    rest = d ** (n - site - 1)
    if matrix is not None and rest <= _SHORT_REST and support[0] == site:
        # Row r of M (x) I_rest, formed as np.kron does, scaled by the
        # diagonal's entry r over the contraction site and the later ones.
        later = tuple(d if i in support else 1 for i in range(site, n))
        twiddles = np.broadcast_to(diag.reshape(later), (d,) * (n - site)).reshape(-1, 1)
        spread = np.multiply(matrix[:, None, :, None], identity(rest)[None, :, None, :])
        block = np.ascontiguousarray((twiddles * spread.reshape(d * rest, d * rest)).T)
    runs = [(inside, len(list(g))) for inside, g in itertools.groupby(i in support for i in range(n))]
    grouping = tuple(d**k for _, k in runs)
    off = diag != 1
    if not off.any():
        return _Kernel(site, matrix, grouping, (), None, block)
    shape = tuple(d**k if inside else 1 for inside, k in runs) + (1,)
    box = _box(off.reshape(shape))
    return _Kernel(site, matrix, grouping, box, diag.reshape(shape)[box], block)


def apply_structured(op: StructuredOperator, x: np.ndarray) -> np.ndarray:
    """Apply a structured operator to a vector without expanding it.

    ``x`` must have shape ``(op.dim,)`` or ``(op.dim, m)``; in the second case
    every column is transformed (so applying to the identity matrix yields the
    expanded operator).  Any other number of dimensions raises ``ValueError``.

    On its first call an operator is compiled, where its structure allows,
    into one contraction on a single site plus one diagonal multiply; the
    compiled form is kept on the operator.  A plan step's operator skips the
    structure tests and builds the form its step declares.  Other operators
    are applied term by term, each stored site matrix contracted in turn.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    _check_states(x, op.dim, "operator")
    return _apply_owned(op, x, owned=False)


def _apply_owned(op: StructuredOperator, work: np.ndarray, owned: bool = True) -> np.ndarray:
    """``apply_structured(op, work)`` for a complex ``work`` of a valid shape; an
    ``owned`` one (nothing else reads it) may be scaled in place."""
    kernel = op._kernel
    if kernel is not None:
        return kernel.apply(work, owned)
    return functools.reduce(np.add, (_apply_term(t, work, op.local_dim) for t in op.terms))


def compose(a: StructuredOperator, b: StructuredOperator) -> StructuredOperator:
    """Operator product ``a @ b`` via the mixed-product identity, term-pairwise."""
    n, d = a.n_sites, a.local_dim
    if (n, d) != (b.n_sites, b.local_dim):
        raise ValueError("operators act on different site structures")
    terms = []
    for s in a.terms:
        for t in b.terms:
            sites = sorted({i for i, _ in s.site_matrices + t.site_matrices})
            pairs = [(i, s.factor(i) @ t.factor(i)) for i in sites]
            terms.append(KronTerm._sparse(s.coefficient * t.coefficient, n, d, pairs))
    return StructuredOperator(n, d, tuple(terms))


def adjoint(op: StructuredOperator) -> StructuredOperator:
    """Conjugate transpose, taken factor by factor."""
    n, d = op.n_sites, op.local_dim
    terms = tuple(
        KronTerm._sparse(
            np.conj(t.coefficient), n, d, [(i, f.conj().T) for i, f in t.site_matrices]
        )
        for t in op.terms
    )
    return StructuredOperator(n, d, terms, label=op.label)


def unitarity_residual(op: StructuredOperator, dense_limit: int = DEFAULT_DENSE_LIMIT) -> float:
    """Max-abs entry of ``op @ op^H - I``, taken on the Gram operator's stored sites.

    The work holds ``d**(diagonal sites + 2 * dense sites) <= N**2`` entries
    (a plan factor has one dense site at most).  Past ``max(dense_limit**2,
    64)`` entries ``N`` itself exceeds the dense limit: ``DenseLimitError``.
    """
    gram = compose(op, adjoint(op))
    d = op.local_dim
    dense_sites = sorted(
        {i for t in gram.terms for i, f in t.site_matrices if not _is_diagonal(f)}
    )
    stored = {i for t in gram.terms for i, _ in t.site_matrices}
    diag_sites = sorted(stored.difference(dense_sites))
    if d ** (len(diag_sites) + 2 * len(dense_sites)) > max(dense_limit**2, 64):
        _check_dense_limit(op.dim, dense_limit)
    bdim = d ** len(dense_sites)
    ddim = d ** len(diag_sites)
    acc = np.zeros((ddim, bdim, bdim), dtype=complex)
    for t in gram.terms:
        diag_part = np.ones(1, dtype=complex)
        for i in diag_sites:
            diag_part = np.kron(diag_part, np.diagonal(t.factor(i)))
        dense_part = np.ones((1, 1), dtype=complex)
        for i in dense_sites:
            dense_part = np.kron(dense_part, t.factor(i))
        acc += t.coefficient * diag_part[:, None, None] * dense_part[None, :, :]
    acc -= np.eye(bdim)[None, :, :]
    return float(np.max(np.abs(acc)))


class Permutation:
    """Permutation sigma of {0..size-1}, built from its image sequence.

    As a matrix, ``P @ x`` gathers: ``(P x)[j] = x[sigma(j)]``.  For the
    digit-reversal permutations used here sigma is an involution, so this is
    the same as moving entry j to position sigma(j).  The image is held as a
    read-only index array; ``image`` returns it as a tuple of ints.
    """

    def __init__(self, image):
        index = np.array(image, dtype=np.intp)
        if (
            index.ndim != 1
            or np.any(index < 0)
            or np.any(np.bincount(index, minlength=index.size) != 1)
        ):
            raise ValueError("image is not a bijection on {0..size-1}")
        index.setflags(write=False)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @functools.cached_property
    def image(self) -> tuple[int, ...]:
        return tuple(self._index.tolist())

    @property
    def size(self) -> int:
        return self._index.size

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self._index, other._index)

    def __hash__(self):
        return hash(self._index.tobytes())

    def __repr__(self):
        return f"Permutation(image={self.image!r})"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Permute vector entries (or matrix rows): equivalent to ``to_matrix() @ x``."""
        x = np.asarray(x)
        if x.shape[0] != self.size:
            raise ValueError(f"vector length {x.shape[0]} does not match permutation size {self.size}")
        return x[self._index]

    def to_matrix(self) -> np.ndarray:
        return np.eye(self.size, dtype=complex)[self._index]


def reverse_digits(x: np.ndarray, n: int, d: int) -> np.ndarray:
    """Reorder the leading axis of ``x`` by the base-d digit reversal on n sites.

    Equals ``digit_reversal(n, d).apply(x)`` but is a transpose of the n
    digit axes, with no index table.
    """
    x = np.asarray(x)
    axes = tuple(range(n - 1, -1, -1)) + tuple(range(n, n + x.ndim - 1))
    return x.reshape((d,) * n + x.shape[1:]).transpose(axes).reshape(x.shape)


def digit_reversal(n: int, d: int) -> Permutation:
    """Base-d digit-reversal permutation on n sites (big-endian digits).

    ``sigma(j)`` reverses the n base-d digits of j; applying it twice gives
    back the identity.  Built on each call, as the digit reversal of
    ``arange(d**n)``.
    """
    if n < 1 or d < 2:
        raise ValueError("digit reversal needs n >= 1 sites of dimension d >= 2")
    return Permutation(reverse_digits(np.arange(d**n), n, d))


def permute_tensor_factors(p: Permutation, x):
    """Reverse the tensor-factor order of a state.

    For a dense vector this permutes entries by the digit-reversal
    permutation ``p``; for a sum-of-rank-1 state (anything exposing
    ``reverse_sites``) the per-term site vectors are reversed in place of any
    dense work.
    """
    if isinstance(x, np.ndarray):
        return p.apply(x)
    reverse = getattr(x, "reverse_sites", None)
    if reverse is not None:
        if p != digit_reversal(x.n, x.d):
            raise ValueError("permutation is not the digit reversal for this state")
        return reverse()
    raise TypeError(f"cannot permute tensor factors of {type(x).__name__}")
