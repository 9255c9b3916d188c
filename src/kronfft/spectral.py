"""Roots of unity, the DFT matrix, and the diagonal phase operators.

The forward transform convention is ``omega_N = exp(-2*pi*i/N)``; the inverse
transform is its conjugate and is exposed as a direction flag, not a second
code path.  All phase exponents are reduced modulo N before calling ``exp``
so phases stay O(1) accurate for large products ``k*j``.
"""
from __future__ import annotations

import functools

import numpy as np

from .tensor import DEFAULT_DENSE_LIMIT, _check_dense_sites, _frozen_complex, _is_identity

#: Rows of the DFT matrix that a streamed oracle gathers at once.
_ORACLE_ROWS = 64


def omega(modulus: int, power: int = 1) -> complex:
    """Root of unity ``exp(-2*pi*i*power/modulus)``, exponent reduced mod modulus."""
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    return complex(np.exp(-2j * np.pi * (power % modulus) / modulus))


def dft_matrix(
    size: int, inverse: bool = False, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """Unitary DFT matrix with entries ``omega_N^(k*j) / sqrt(N)``.

    Each entry is gathered from the N scaled roots ``omega_N^m / sqrt(N)``
    at ``m = k*j mod N``, so only N exponentials are evaluated.
    """
    if size < 1:
        raise ValueError("size must be a positive integer")
    _check_dense_sites(1, size, dense_limit)
    return _dft_entries(_dft_roots(size, inverse))


def _dft_roots(size: int, inverse: bool = False) -> np.ndarray:
    """The N scaled roots ``omega_N^m / sqrt(N)``, m = 0..N-1, that DFT entries take."""
    sign = 2j if inverse else -2j
    return np.exp(sign * np.pi * np.arange(size, dtype=np.int64) / size) / np.sqrt(size)


def _dft_entries(roots: np.ndarray, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Entries ``(k, j)`` of the DFT matrix whose scaled roots are ``roots``,
    for k in ``rows`` and j in ``cols`` (slices or index arrays).

    Entry ``(k, j)`` is ``roots[k*j mod N]``; only the exponents of these
    entries are formed, so a caller can stream the matrix in row or column
    blocks.  The matrix is symmetric, bit for bit.
    """
    idx = np.arange(roots.size, dtype=np.int64)
    exps = np.outer(idx[rows], idx[cols])
    exps %= roots.size
    return roots[exps]


def _dft_product(
    x: np.ndarray, inverse: bool = False, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """``dft_matrix(len(x), inverse) @ x`` for a vector ``x``, equal bit for bit
    at a fixed BLAS thread count, with the matrix streamed in row blocks."""
    _check_dense_sites(1, len(x), dense_limit)
    roots = _dft_roots(len(x), inverse)
    starts = range(0, len(x), _ORACLE_ROWS)
    return np.concatenate([_dft_entries(roots, slice(k, k + _ORACLE_ROWS)) @ x for k in starts])


def omega_diag(
    n: int, d: int = 2, power: int = 1, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """The ``power``-th power of the twiddle diagonal Omega_n.

    Returns the ``d**n x d**n`` diagonal matrix with entries
    ``omega_{d**(n+1)}^(j*power)`` for j = 0..d**n-1.
    """
    if n < 1 or d < 2:
        raise ValueError("omega_diag needs n >= 1 and d >= 2")
    if power < 0:
        raise ValueError("power must be nonnegative")
    _check_dense_sites(n, d, dense_limit)
    modulus = d ** (n + 1)
    exps = (np.arange(d**n, dtype=np.int64) * power) % modulus
    return np.diag(np.exp(-2j * np.pi * exps / modulus))


def r_gate(level: int, d: int = 2) -> np.ndarray:
    """Single-site phase gate ``diag(omega_{d**level}^m)`` for m = 0..d-1."""
    return r_gate_power(level, d, 1)


@functools.lru_cache(maxsize=4096)
def r_gate_power(level: int, d: int = 2, exponent: int = 1) -> np.ndarray:
    """Integer power of :func:`r_gate`, with exact mod-reduced phase exponents.

    Returns a shared read-only matrix.  Exponent arithmetic happens in exact
    integers, so arbitrarily high levels stay accurate.
    """
    if level < 1 or d < 2:
        raise ValueError("r_gate needs level >= 1 and d >= 2")
    # Every fraction rounds to 0.0 (1.0 if m * exponent < 0) once d**level >= 2**bits,
    # so a higher level takes the first such one and d**level stays small.
    bits = ((d - 1) * abs(exponent)).bit_length() + 1075
    modulus = d ** min(level, -(-bits // (d.bit_length() - 1)))
    fractions = [(m * exponent) % modulus / modulus for m in range(d)]
    return _frozen_complex(np.diag(np.exp(-2j * np.pi * np.array(fractions))))


@functools.lru_cache(maxsize=4096)
def _phase_gate(level: int, d: int, exponent: int) -> np.ndarray | None:
    """``r_gate_power``, or None where it equals the identity; tested once per gate."""
    gate = r_gate_power(level, d, exponent)
    return None if _is_identity(gate) else gate


@functools.lru_cache(maxsize=16)
def fourier_gate(d: int) -> np.ndarray:
    """The d x d DFT matrix as a shared read-only single-site gate."""
    return _frozen_complex(dft_matrix(d))


def omega_kron_factors(n: int, d: int = 2) -> list[np.ndarray]:
    """Phase gates ``[R_2, R_3, ..., R_{n+1}]`` whose Kronecker product is Omega_n."""
    if n < 1 or d < 2:
        raise ValueError("omega_kron_factors needs n >= 1 and d >= 2")
    return [r_gate(level, d) for level in range(2, n + 2)]


def exponent_matrix_render(size: int, mod: bool = False) -> str:
    """Integer grid of the DFT phase exponents ``k*j``, for docs and debugging.

    With ``mod`` the exponents are reduced modulo ``size``.  Rendering is
    capped at ``size <= 64``; this is display tooling, not a data format.
    """
    if size < 1:
        raise ValueError("size must be a positive integer")
    if size > 64:
        raise ValueError("exponent grids are rendered only up to size 64")
    idx = np.arange(size, dtype=np.int64)
    grid = np.outer(idx, idx)
    if mod:
        grid %= size
    width = len(str(int(grid.max())))
    return "\n".join(
        " ".join(str(int(v)).rjust(width) for v in row) for row in grid
    )
