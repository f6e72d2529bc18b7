"""Dense complex-matrix kernel.

Everything operates on ``numpy`` arrays of dtype complex128.  Matrix
equality is always tolerance-based (max-abs entry difference), never
bitwise; use :func:`max_abs_diff`.  ``hs_inner``, ``max_abs_diffs``, the
eigensolvers and ``partial_transpose`` also take stacks ``(n, D, D)``.

Bipartite operators use the row-major composite index ``i_A * d_B + i_B``,
the same convention as ``numpy.kron``.
"""

import math

import numpy as np

from .errors import (
    ConvergenceError,
    DimMismatchError,
    NonSquareError,
    NotHermitianError,
)

# The one validation tolerance, for every guard; EIGEN_TOL gives the
# eigensolver reconstruction bound, d * EIGEN_TOL, that the tests check.
DEFAULT_TOL = 1e-10
EIGEN_TOL = 1e-12

# Every stacked loop (the brute-force oracle, the assistance sampler and the
# qubit sweep) works in blocks of at most this many complex entries (1 MiB),
# or one item when an item is larger, so its temporaries do not grow with
# the stack.  No output bit depends on it.
BLOCK_ENTRIES = 1 << 16

SIDE_A = "A"
SIDE_B = "B"


def as_complex_matrix(a, stack: bool = False) -> np.ndarray:
    """Coerce input to a complex128 array of finite entries: one 2-d matrix,
    or with ``stack=True`` any rank, which :func:`require_square` decides.

    Raises:
        DimMismatchError: if ``stack`` is False and the input is not 2-d.
        ValueError: if an entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=complex)
    if not stack and m.ndim != 2:
        raise DimMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a NaN or infinite entry")
    return m


def require_square(a: np.ndarray) -> int:
    """The one shape rule: the side, at least 1, of a square matrix or of each
    matrix of a 3-d stack (which may hold none); no other rank reaches numpy."""
    if a.ndim not in (2, 3):
        raise DimMismatchError(f"expected a 2-d matrix or a 3-d stack, got ndim={a.ndim}")
    if a.shape[-2] != a.shape[-1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise DimMismatchError(f"expected a matrix side of at least 1, got shape {a.shape}")
    return a.shape[-1]


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute difference between two matrices (or two
    stacks, over all of their matrices)."""
    return float(max_abs_diffs(a, b).max(initial=0.0))


def max_abs_diffs(a, b) -> np.ndarray:
    """Largest entrywise absolute difference of each pair of matrices of two
    stacks ``(n, D, D)``: one value per matrix, 0-d for two matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.abs(a - b).max(axis=(-2, -1), initial=0.0)


def hs_inner(x, y):
    """Hilbert-Schmidt inner product Tr(x^dagger y) of two matrices, or an
    ``(n,)`` array of them for each pair of matrices of two stacks ``(n, D, D)``.

    Each is one ``(1, D^2) @ (D^2, 1)`` product of the conjugate, which
    gives the bits of ``np.vdot`` under one or two BLAS threads.

    Raises:
        DimMismatchError: if the shapes differ or are not 2-d or 3-d.
        NonSquareError: if the matrices are not square.
        ValueError: if an entry is NaN or infinite.
    """
    xm = as_complex_matrix(x, stack=True)
    ym = as_complex_matrix(y, stack=True)
    if xm.shape != ym.shape:
        raise DimMismatchError(f"shape mismatch: {xm.shape} vs {ym.shape}")
    require_square(xm)
    lead, size = xm.shape[:-2], xm.shape[-2] * xm.shape[-1]
    out = (xm.conj().reshape(*lead, 1, size) @ ym.reshape(*lead, size, 1))[..., 0, 0]
    return out if lead else complex(out)


def hermitian_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    ``(n, D, D)`` in one solver call with the same bits as one call per matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and orthonormal eigenvectors in the columns, so that
    ``a == V @ diag(w) @ V.conj().T`` within ``d * EIGEN_TOL``.

    Eigenvectors inside a degenerate cluster are arbitrary up to unitary
    mixing; compare spectral projectors, not raw columns.  For eigenvalues
    alone, use :func:`hermitian_eigvals`, which computes no eigenvectors.

    Raises:
        NotHermitianError: if ``max|a - a^dagger|`` exceeds ``DEFAULT_TOL``.
        ConvergenceError: if the underlying solver does not converge.
    """
    return _hermitian_solve(np.linalg.eigh, a)


def hermitian_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a stack ``(n, D, D)``.

    One solver call for the whole stack, with the Hermiticity guard and
    the symmetrisation of :func:`hermitian_eigen`.

    Raises:
        NotHermitianError: if any ``max|a - a^dagger|`` exceeds ``DEFAULT_TOL``.
        ConvergenceError: if the underlying solver does not converge.
    """
    return _hermitian_solve(np.linalg.eigvalsh, a)


@np.errstate(over="ignore", invalid="ignore")
def _hermitian_solve(solver, a):
    # solver on the Hermitian part of a (of each matrix, for a stack), after
    # checking that a is Hermitian within DEFAULT_TOL: roundoff in the input
    # cannot leak into the solver, and adj is freed before the solver runs.
    # Entries near the float limit may overflow; the Hermiticity test here
    # and each caller's decision refuse inf and NaN, so numpy's warnings on
    # the way are noise.
    m = as_complex_matrix(a, stack=True)
    require_square(m)
    adj = m.conj().swapaxes(-1, -2)
    dev = max_abs_diff(m, adj)
    if dev > DEFAULT_TOL:
        raise NotHermitianError(
            f"matrix is not Hermitian within tol={DEFAULT_TOL:g} (deviation {dev:.3e})"
        )
    m = 0.5 * (m + adj)
    del adj
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(str(exc)) from exc


def split_dims(x: np.ndarray, dims) -> tuple[int, int]:
    """``(d_A, d_B)`` from ``dims`` checked by :func:`_check_dims` as two
    factors whose product is the side of ``x`` (or of each matrix of a
    stack); an ``x`` that is not square raises NonSquareError."""
    return _check_dims(dims, require_square(x), 2)


def _check_dims(dims, side: int | None, count: int | None = None) -> tuple[int, ...]:
    """The one subsystem-dimension rule: ``dims`` as a tuple of ints when
    they are a nonempty sequence of positive integers (a bool or a float is
    refused, never truncated), of ``count`` factors and with product ``side``
    (each when given); else DimMismatchError, naming what fails."""
    out = tuple(dims) if np.iterable(dims) else ()
    if not out or not all(
        isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1 for k in out
    ):
        raise DimMismatchError(
            f"dims must be a nonempty sequence of positive integers, got {dims!r}"
        )
    out = tuple(map(int, out))
    if count is not None and len(out) != count:
        raise DimMismatchError(f"expected {count} factor(s), got dims {out}")
    if side is not None and math.prod(out) != side:
        raise DimMismatchError(f"product of dims {out} does not equal matrix side {side}")
    return out


def _check_count(value, name: str, least: int, error: type[Exception]) -> int:
    """``value`` as an int when it is an integer of at least ``least`` (a
    bool, a float, NaN or an infinity is refused, never truncated); else
    ``error``, the class each caller raises for a count below its minimum."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return int(value)


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < np.inf:  # NaN included
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


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
    """Transpose one factor of a bipartite operator (an involution).

    Accepts one matrix ``(D, D)`` or a stack ``(n, D, D)``, transposed
    matrix by matrix.
    """
    m = as_complex_matrix(x, stack=True)
    d_a, d_b = split_dims(m, dims)
    s = _check_side(side)
    t = m.reshape(*m.shape[:-2], d_a, d_b, d_a, d_b)
    # swap the row and column index of the transposed factor
    if s == SIDE_A:
        t = t.swapaxes(-4, -2)
    else:
        t = t.swapaxes(-3, -1)
    return t.reshape(m.shape)
