"""Quantum states, permutations, and the standard constant matrices.

Constructors return either plain arrays (operators) or validated
:class:`DensityMatrix` values.  All randomness is channelled through an
explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BlochOutsideBallError,
    DimensionTooLargeError,
    DimMismatchError,
    InvalidBellParamsError,
    NotHermitianError,
    NotPositiveError,
    TraceNotOneError,
    WeightOutOfRangeError,
)

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)

# Guard against runaway factorial enumeration.
MAX_ENUM_DIM = 10

# Validation defaults: Hermiticity/trace at 1e-10, positivity allows
# min eigenvalue down to -1e-10.  Eigensolver round trips sit near 1e-13,
# so this margin does not mask real violations.
VALIDATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: ``mat`` plus its subsystem dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.mat.shape[0]


def _normalize_dims(d: int, dims) -> tuple[int, ...]:
    if dims is None:
        return (d,)
    out = tuple(int(k) for k in dims)
    if any(k < 1 for k in out):
        raise DimMismatchError(f"dimensions must be positive, got {dims}")
    prod = 1
    for k in out:
        prod *= k
    if prod != d:
        raise DimMismatchError(f"product of dims {out} does not equal matrix side {d}")
    return out


def validate_density(m, dims=None, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return the state.

    Never repairs the input.  Use :func:`sanitize_density` to clamp tiny
    negative eigenvalues explicitly.  One row of
    :func:`validate_density_stack`, with messages that name no index.

    Raises:
        NotHermitianError, TraceNotOneError, NotPositiveError
    """
    mat = linalg.as_complex_matrix(m)
    d = linalg.require_square(mat)
    dims = _normalize_dims(d, dims)
    _check_densities(mat[None], tol, where=lambda i: "")
    return DensityMatrix(mat, dims)


def validate_density_stack(mats, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Check each matrix of an ``(n, D, D)`` stack as :func:`validate_density`
    does; return the stack as complex128.

    One Hermiticity reduction, one trace and one positivity check for the
    whole stack.  Hermiticity is checked on every matrix first, then the
    trace, then positivity; a refusal raises the error class
    :func:`validate_density` raises for the first matrix failing that
    check, and its message names that matrix's index.  Positivity is
    accepted by a Cholesky screen when it proves it (see
    :func:`_cholesky_proves_positive`); otherwise one eigenvalue call
    (``linalg.hermitian_eigvals``) decides, and writes every refusal.

    Raises:
        NotHermitianError, TraceNotOneError, NotPositiveError
    """
    stack = linalg.as_complex_matrix(mats, stack=True)
    if stack.ndim != 3:
        raise DimMismatchError(f"expected an (n, D, D) stack, got ndim={stack.ndim}")
    linalg.require_square(stack)
    _check_densities(stack, tol, where=lambda i: f"matrix {i}: ")
    return stack


def _check_densities(stack: np.ndarray, tol: float, where) -> None:
    # Refuse the first matrix of the stack that fails a check, with
    # where(index) ahead of the message.  `not (x <= tol)` refuses NaN too.
    # Positivity is accepted by _cholesky_proves_positive when it can;
    # otherwise the eigenvalues decide, and they alone refuse.
    adj = stack.conj().swapaxes(-1, -2)
    dev = linalg.max_abs_diffs(stack, adj)
    bad = np.flatnonzero(~(dev <= tol))
    if bad.size:
        i = bad[0]
        raise NotHermitianError(
            f"{where(i)}not Hermitian within {tol:g} (deviation {dev[i]:.3e})"
        )
    tr = np.trace(stack, axis1=-2, axis2=-1)
    bad = np.flatnonzero(~(np.abs(tr - 1.0) <= tol))
    if bad.size:
        i = bad[0]
        raise TraceNotOneError(
            f"{where(i)}trace is {complex(tr[i]):.12g}, expected 1 within {tol:g}"
        )
    if _cholesky_proves_positive(stack, adj, tol):
        return
    min_eig = linalg.hermitian_eigvals(stack, tol=tol)[:, 0]
    bad = np.flatnonzero(~(min_eig >= -tol))
    if bad.size:
        i = bad[0]
        raise NotPositiveError(
            f"{where(i)}min eigenvalue {min_eig[i]:.6e} below -{tol:g}",
            min_eigenvalue=float(min_eig[i]),
        )


def _cholesky_proves_positive(stack: np.ndarray, adj: np.ndarray, tol: float) -> bool:
    """True when a Cholesky factorisation proves that every matrix of the
    stack has its min eigenvalue above -tol; False proves nothing.

    The factor of a = h + (tol/2) I, with h the Hermitian part, is exact
    for a + E, and |E| is at most about (D + 1) eps tr(a) (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 10.3), in practice about
    D eps |a|.  The proof holds at every side D, so the screen is tried on
    every stack, but only where 4 D eps max(|a|_F, tr a) is below tol/4:
    a success then puts every min eigenvalue above -3 tol/4, and a large
    non-positive matrix goes to the eigenvalues.
    """
    d = stack.shape[-1]
    a = 0.5 * (stack + adj)
    diag = np.arange(d)
    a[:, diag, diag] += tol / 2
    scale = max(
        np.linalg.norm(a, axis=(-2, -1)).max(initial=0.0),
        np.trace(a, axis1=-2, axis2=-1).real.max(initial=0.0),
    )
    if not (4 * d * np.finfo(float).eps * scale < tol / 4):
        return False
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def sanitize_density(m, dims=None, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Clamp negative eigenvalues to zero, renormalize, then validate.

    Opt-in repair for states that failed positivity or trace checks by
    numerical noise; silent use would hide bugs, so no other constructor
    calls this.
    """
    mat = linalg.as_complex_matrix(m)
    d = linalg.require_square(mat)
    dims = _normalize_dims(d, dims)
    w, v = linalg.hermitian_eigen(mat, tol=tol)
    w = np.clip(w.real, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise NotPositiveError("matrix has no positive spectral weight")
    w /= total
    repaired = (v * w) @ v.conj().T
    return DensityMatrix(repaired, dims)


def qubit_from_bloch(r, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Qubit state 1/2 (I + r . sigma) for a Bloch vector inside the ball."""
    return DensityMatrix(qubit_stack_from_bloch([r], tol)[0], (2,))


def qubit_stack_from_bloch(vectors, tol: float = VALIDATION_TOL) -> np.ndarray:
    """The qubit states 1/2 (I + r . sigma), one per row r of ``vectors``.

    ``vectors`` is an ``(n, 3)`` array; the result is an ``(n, 2, 2)`` stack.

    Raises:
        BlochOutsideBallError: if any row lies outside the unit ball.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected Bloch vectors of shape (n, 3), got {v.shape}")
    r1, r2, r3 = v.T
    norm = np.sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    outside = ~(norm <= 1.0 + tol)  # NaN included
    if outside.any():
        raise BlochOutsideBallError(f"|r| = {norm[outside][0]:.12g} exceeds 1")
    mat = np.empty((len(v), 2, 2), dtype=complex)
    mat[:, 0, 0] = 1 + r3
    mat[:, 0, 1] = r1 - 1j * r2
    mat[:, 1, 0] = r1 + 1j * r2
    mat[:, 1, 1] = 1 - r3
    return 0.5 * mat


def bloch_of_qubit(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector (Tr rho sigma_k for k = 1..3) of a qubit state; one row
    of :func:`bloch_of_qubit_stack`."""
    if rho.dims != (2,):
        raise DimMismatchError(f"expected a single qubit, got dims {rho.dims}")
    return bloch_of_qubit_stack(rho.mat[None])[0]


def bloch_of_qubit_stack(mats) -> np.ndarray:
    """The Bloch vector of each qubit operator of an ``(n, 2, 2)`` stack.

    Returns an ``(n, 3)`` array whose k-th column is ``Re Tr(rho sigma_k)``,
    one stacked product and trace per Pauli matrix.  The operators are
    not validated.
    """
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (2, 2):
        raise DimMismatchError(f"expected an (n, 2, 2) stack, got shape {m.shape}")
    return np.stack(
        [np.trace(m @ s, axis1=-2, axis2=-1).real for s in PAULIS], axis=-1
    )


def _check_permutation(perm) -> tuple[int, ...]:
    p = tuple(int(i) for i in perm)
    d = len(p)
    if d == 0 or sorted(p) != list(range(d)):
        raise ValueError(f"not a permutation of 0..{d - 1}: {perm!r}")
    return p


def permutation_matrix(perm) -> np.ndarray:
    """0/1 matrix sending basis vector i to basis vector perm[i]."""
    p = _check_permutation(perm)
    d = len(p)
    mat = np.zeros((d, d), dtype=complex)
    mat[np.array(p), np.arange(d)] = 1.0
    return mat


def conjugate_by_permutation(x, perm) -> np.ndarray:
    """P x P^dagger via index gymnastics, avoiding explicit matrices; one row
    of :func:`conjugate_stack_by_permutations`."""
    return conjugate_stack_by_permutations(linalg.as_complex_matrix(x)[None], [perm])[0]


def conjugate_stack_by_permutations(mats, perms) -> np.ndarray:
    """``P_k x_k P_k^dagger`` for each matrix ``x_k`` of an ``(n, d, d)`` stack
    and each row ``perms[k]`` of an ``(n, d)`` array of permutations.

    One fancy-index gather for the whole stack: entry ``(i, j)`` of the
    k-th result is entry ``(inv_k[i], inv_k[j])`` of ``x_k``, with ``inv_k``
    the inverse of ``perms[k]``.

    Raises:
        DimMismatchError: if the stack and the permutations do not match.
        ValueError: if a row of ``perms`` is not a permutation of 0..d-1.
    """
    m = linalg.as_complex_matrix(mats, stack=True)
    d = linalg.require_square(m)
    p = np.asarray(perms)
    if m.ndim != 3 or p.shape != m.shape[:2]:
        raise DimMismatchError(
            f"expected an (n, d, d) stack and (n, d) permutations, got shapes "
            f"{m.shape} and {p.shape}"
        )
    if not (np.sort(p, axis=-1) == np.arange(d)).all():
        raise ValueError(f"a row of perms is not a permutation of 0..{d - 1}")
    inv = np.argsort(p, axis=-1)
    rows = np.arange(len(m))[:, None, None]
    return m[rows, inv[:, :, None], inv[:, None, :]]


def enumerate_permutations(d: int):
    """Yield all d! permutations of 0..d-1 in lexicographic order.

    The deterministic order makes brute-force group averages
    bit-reproducible in serial mode.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > MAX_ENUM_DIM:
        raise DimensionTooLargeError(
            f"refusing to enumerate {d}! permutations (limit d <= {MAX_ENUM_DIM})"
        )
    return itertools.permutations(range(d))


def all_ones_projector(d: int) -> np.ndarray:
    """The all-ones matrix; satisfies E @ E = d * E."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return np.ones((d, d), dtype=complex)


def maximally_coherent_state(d: int) -> DensityMatrix:
    """Rank-one projector onto the uniform superposition; all entries 1/d."""
    return DensityMatrix(all_ones_projector(d) / d, (d,))


def maximally_coherent_mixed_state(
    d: int, p: float, tol: float = VALIDATION_TOL
) -> DensityMatrix:
    """One-parameter family (1-p) I/d + p * uniform-superposition projector.

    Valid for p in [-1/(d-1), 1]; diagonal entries are 1/d and every
    off-diagonal entry is p/d.  At d = 1 every finite p gives [[1]], which
    has no off-diagonal.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    p = float(p)
    big = np.finfo(float).max
    lo, hi = (-1.0 / (d - 1), 1.0) if d > 1 else (-big, big)
    if not (lo - tol <= p <= hi + tol):  # NaN included
        raise WeightOutOfRangeError(f"weight {p:.12g} outside [{lo:.12g}, {hi:.12g}]")
    mat = np.full((d, d), p / d, dtype=complex)
    np.fill_diagonal(mat, 1.0 / d)
    return DensityMatrix(mat, (d,))


def maximally_entangled_state(d: int) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_i |ii>, as a d x d bipartite state."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(vec, vec.conj()), (d, d))


def bell_eigenvalues(t1: float, t2: float, t3: float) -> np.ndarray:
    """The four eigenvalues of the correlation-triple state, unsorted."""
    return 0.25 * np.array(
        [1 - t1 - t2 - t3, 1 - t1 + t2 + t3, 1 + t1 - t2 + t3, 1 + t1 + t2 - t3]
    )


def validate_bell_params(t1, t2, t3, tol: float = VALIDATION_TOL) -> None:
    for i, t in enumerate((t1, t2, t3), start=1):
        if not abs(t) <= 1.0 + tol:
            raise InvalidBellParamsError(f"|t{i}| = {abs(t):.12g} exceeds 1")
    for lam, label in zip(
        bell_eigenvalues(t1, t2, t3),
        ("1-t1-t2-t3", "1-t1+t2+t3", "1+t1-t2+t3", "1+t1+t2-t3"),
    ):
        if not lam >= -tol:
            raise InvalidBellParamsError(
                f"constraint {label} >= 0 violated (value {4 * lam:.12g})"
            )


def bell_diagonal_state(t1, t2, t3, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Two-qubit state 1/4 (I + sum_i t_i sigma_i x sigma_i)."""
    t1, t2, t3 = float(t1), float(t2), float(t3)
    validate_bell_params(t1, t2, t3, tol=tol)
    return DensityMatrix(bell_diagonal_stack([[t1, t2, t3]])[0], (2, 2))


def bell_diagonal_stack(triples) -> np.ndarray:
    """States 1/4 (I + sum_i t_i sigma_i x sigma_i), one per row of ``triples``.

    ``triples`` is an ``(n, 3)`` array; the result is an ``(n, 4, 4)``
    stack.  The triples are not validated; :func:`bell_diagonal_state`
    validates one triple and builds it here.
    """
    t = np.asarray(triples, dtype=float)
    mat = np.broadcast_to(np.eye(4, dtype=complex), (t.shape[0], 4, 4)).copy()
    for k, sigma in enumerate(PAULIS):
        mat += t[:, k, None, None] * np.kron(sigma, sigma)
    return 0.25 * mat


def random_density(d: int, rng: np.random.Generator, dims=None) -> DensityMatrix:
    """Full-rank random state G G^dagger / Tr, G with iid complex normals."""
    mat = random_density_stack(d, 1, rng)[0]
    return DensityMatrix(mat, _normalize_dims(d, dims))


def random_density_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of :func:`random_density`'s matrix as one ``(n, d, d)`` stack.

    Consumes the generator's stream as ``n`` sequential calls do, with the
    same bits.
    """
    g = _ginibre_stack(d, n, rng)
    mat = g @ g.conj().swapaxes(-1, -2)
    mat /= np.trace(mat, axis1=-2, axis2=-1).real[:, None, None]
    return mat


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian part of a complex Ginibre matrix."""
    return random_hermitian_stack(d, 1, rng)[0]


def random_hermitian_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of :func:`random_hermitian` as one ``(n, d, d)`` stack.

    Consumes the generator's stream as ``n`` sequential calls do, with the
    same bits.
    """
    g = _ginibre_stack(d, n, rng)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def _ginibre_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    # One draw for n matrices: each one's real block, then its imaginary block.
    g = rng.standard_normal((n, 2, d, d))
    return g[:, 0] + 1j * g[:, 1]


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    """Uniform point in the unit ball (direction from normals, radius cube root)."""
    v = rng.standard_normal(3)
    v /= math.sqrt(v.dot(v))
    return v * rng.random() ** (1.0 / 3.0)
