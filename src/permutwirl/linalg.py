"""Dense complex-matrix kernel.

Everything operates on ``numpy`` arrays of dtype complex128.  Matrix
equality is always tolerance-based (max-abs entry difference), never
bitwise; use :func:`max_abs_diff`.

Bipartite operators use the row-major composite index ``i_A * d_B + i_B``,
the same convention as ``numpy.kron``.
"""

import numpy as np

from .errors import (
    ConvergenceError,
    DimMismatchError,
    NonSquareError,
    NotHermitianError,
)

# Default entrywise comparison tolerance; eigensolver residuals are held
# to the tighter EIGEN_TOL (reconstruction bound is d * EIGEN_TOL).
DEFAULT_TOL = 1e-10
EIGEN_TOL = 1e-12

SIDE_A = "A"
SIDE_B = "B"


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 array of finite entries.

    Raises:
        DimMismatchError: if the input is not 2-d.
        ValueError: if an entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a NaN or infinite entry")
    return m


def require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute difference between two matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def kron(a, b) -> np.ndarray:
    """Kronecker product, row-major block layout."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(a).conj().T


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    m = as_complex_matrix(a)
    require_square(m)
    return complex(np.trace(m))


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt inner product Tr(x^dagger y)."""
    xm = as_complex_matrix(x)
    ym = as_complex_matrix(y)
    if xm.shape != ym.shape:
        raise DimMismatchError(f"shape mismatch: {xm.shape} vs {ym.shape}")
    # vdot conjugates its first argument and sums entrywise products,
    # which is exactly Tr(x^dagger y) for row-major flattening.
    return complex(np.vdot(xm, ym))


def hermitian_eigen(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and orthonormal eigenvectors in the columns, so that
    ``a == V @ diag(w) @ V.conj().T`` within ``d * EIGEN_TOL``.

    Eigenvectors inside a degenerate cluster are arbitrary up to unitary
    mixing; compare spectral projectors, not raw columns.

    Raises:
        NotHermitianError: if ``max|a - a^dagger|`` exceeds ``tol``.
        ConvergenceError: if the underlying solver does not converge.
    """
    m = as_complex_matrix(a)
    require_square(m)
    dev = max_abs_diff(m, m.conj().T)
    if dev > tol:
        raise NotHermitianError(
            f"matrix is not Hermitian within tol={tol:g} (deviation {dev:.3e})"
        )
    # Symmetrize so roundoff in the input cannot leak into the solver.
    sym = 0.5 * (m + m.conj().T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(str(exc)) from exc
    return w, v


def split_dims(x: np.ndarray, dims) -> tuple[int, int]:
    """Validate that ``x`` is square with side ``dims[0] * dims[1]``."""
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 1 or d_b < 1:
        raise DimMismatchError(f"subsystem dimensions must be positive, got {dims}")
    d = require_square(x)
    if d != d_a * d_b:
        raise DimMismatchError(
            f"matrix side {d} does not equal product of dims {d_a}x{d_b}"
        )
    return d_a, d_b


def _check_side(side: str) -> str:
    s = str(side).upper()
    if s not in (SIDE_A, SIDE_B):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return s


def partial_trace(x, dims, side: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``side='A'`` removes the first (row-major outer) factor and returns a
    d_B x d_B matrix; ``side='B'`` removes the second factor.
    """
    m = as_complex_matrix(x)
    d_a, d_b = split_dims(m, dims)
    s = _check_side(side)
    t = m.reshape(d_a, d_b, d_a, d_b)
    if s == SIDE_A:
        return np.einsum("ijik->jk", t)
    return np.einsum("ijkj->ik", t)


def partial_transpose(x, dims, side: str) -> np.ndarray:
    """Transpose one factor of a bipartite operator (an involution)."""
    m = as_complex_matrix(x)
    d_a, d_b = split_dims(m, dims)
    s = _check_side(side)
    t = m.reshape(d_a, d_b, d_a, d_b)
    if s == SIDE_A:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return t.reshape(d_a * d_b, d_a * d_b)
