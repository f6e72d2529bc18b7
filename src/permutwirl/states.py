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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: ``mat`` plus its subsystem dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.mat.shape[0]


def validate_density(m, dims=None) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return the state.

    Each check allows ``linalg.DEFAULT_TOL``.  Never repairs the input.  Use
    :func:`sanitize_density` to clamp tiny negative eigenvalues explicitly.
    One row of :func:`validate_density_stack`, with messages that name no index.
    ``dims`` (default ``(D,)``) are checked first, by ``linalg._check_dims``.

    Raises:
        DimMismatchError, NotHermitianError, TraceNotOneError, NotPositiveError
    """
    mat = linalg.as_complex_matrix(m)
    d = linalg.require_square(mat)
    dims = linalg._check_dims((d,) if dims is None else dims, d)
    _check_densities(mat[None], where=lambda i: "")
    return DensityMatrix(mat, dims)


def validate_density_stack(mats) -> np.ndarray:
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
    _check_densities(stack, where=lambda i: f"matrix {i}: ")
    return stack


@np.errstate(over="ignore", invalid="ignore")
def _check_densities(stack: np.ndarray, where) -> None:
    # Refuse the first matrix of the stack that fails a check, with
    # where(index) ahead of the message.  `not (x <= tol)` refuses NaN too.
    # Positivity is accepted by _cholesky_proves_positive when it can;
    # otherwise the eigenvalues decide, and they alone refuse.  Entries near
    # the float limit may overflow to inf or NaN on the way, which these
    # decisions refuse, so numpy's warnings are noise.
    tol = linalg.DEFAULT_TOL
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
    min_eig = linalg.hermitian_eigvals(stack)[:, 0]
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


def sanitize_density(m, dims=None) -> DensityMatrix:
    """Clamp negative eigenvalues to zero, renormalize, then :func:`validate_density`.

    Opt-in repair for states that failed positivity or trace checks by
    numerical noise; silent use would hide bugs, so no other constructor
    calls this.
    """
    mat = linalg.as_complex_matrix(m)
    d = linalg.require_square(mat)
    dims = linalg._check_dims((d,) if dims is None else dims, d)
    w, v = linalg.hermitian_eigen(mat)
    w = np.clip(w.real, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise NotPositiveError("matrix has no positive spectral weight")
    w /= total
    repaired = (v * w) @ v.conj().T
    return validate_density(repaired, dims)


def qubit_from_bloch(r) -> DensityMatrix:
    """Qubit state 1/2 (I + r . sigma) for a Bloch vector inside the ball."""
    return DensityMatrix(qubit_stack_from_bloch([r])[0], (2,))


def qubit_stack_from_bloch(vectors) -> np.ndarray:
    """The qubit states 1/2 (I + r . sigma), one per row r of ``vectors``.

    ``vectors`` is an ``(n, 3)`` array; the result is an ``(n, 2, 2)`` stack.

    Raises:
        BlochOutsideBallError: if any row lies outside the unit ball.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected Bloch vectors of shape (n, 3), got {v.shape}")
    r1, r2, r3 = v.T
    with np.errstate(over="ignore"):  # a norm that overflows is inf, refused
        norm = np.sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    outside = ~(norm <= 1.0 + linalg.DEFAULT_TOL)  # NaN included
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
    linalg._check_dims(rho.dims, 2, 1)
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


def _check_permutations(perms, d: int) -> np.ndarray:
    """The one permutation rule: ``perms`` as an ``(n, d)`` array of an integer
    dtype, each row holding 0..d-1, d >= 1 by ``linalg._check_count`` (a bool,
    float, str or object array is refused, never truncated); else ValueError."""
    d = linalg._check_count(d, "dimension", 1, ValueError)
    p = np.asarray(perms)
    shaped = p.dtype.kind in "iu" and p.shape[1:] == (d,)
    if not (shaped and (np.sort(p, axis=-1) == np.arange(d)).all()):
        raise ValueError(f"not a permutation of 0..{d - 1} in each row: got {p.dtype} {p.shape}")
    return p


def permutation_matrix(perm) -> np.ndarray:
    """0/1 matrix sending basis vector i to basis vector perm[i]."""
    p = np.asarray(perm)
    d = p.size
    (p,) = _check_permutations(p[None], d)
    mat = np.zeros((d, d), dtype=complex)
    mat[p, np.arange(d)] = 1.0
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
        ValueError: if ``perms`` is not of an integer dtype or a row is not a
            permutation of 0..d-1.
    """
    m = linalg.as_complex_matrix(mats, stack=True)
    d = linalg.require_square(m)
    p = np.asarray(perms)
    if m.ndim != 3 or p.shape != m.shape[:2]:
        raise DimMismatchError(
            f"expected an (n, d, d) stack and (n, d) permutations, got shapes "
            f"{m.shape} and {p.shape}"
        )
    inv = np.argsort(_check_permutations(p, d), axis=-1)
    rows = np.arange(len(m))[:, None, None]
    return m[rows, inv[:, :, None], inv[:, None, :]]


def enumerate_permutations(d: int):
    """Yield all d! permutations of 0..d-1 in lexicographic order.

    The deterministic order makes brute-force group averages
    bit-reproducible in serial mode.
    """
    d = linalg._check_count(d, "dimension", 1, ValueError)
    if d > MAX_ENUM_DIM:
        raise DimensionTooLargeError(
            f"refusing to enumerate {d}! permutations (limit d <= {MAX_ENUM_DIM})"
        )
    return itertools.permutations(range(d))


def all_ones_projector(d: int) -> np.ndarray:
    """The all-ones matrix; satisfies E @ E = d * E."""
    d = linalg._check_count(d, "dimension", 1, ValueError)
    return np.ones((d, d), dtype=complex)


def maximally_coherent_state(d: int) -> DensityMatrix:
    """Rank-one projector onto the uniform superposition; all entries 1/d."""
    return maximally_coherent_mixed_state(d, 1.0)


def maximally_coherent_mixed_state(d: int, p: float) -> DensityMatrix:
    """One-parameter family (1-p) I/d + p * uniform-superposition projector.

    Diagonal entries are 1/d and every off-diagonal entry is p/d.  Valid
    when the eigenvalues (1 + (d - 1) p)/d and, at d >= 2, (1 - p)/d are
    at least ``-linalg.DEFAULT_TOL``, as :func:`validate_density` requires.
    At d = 1 every finite p gives [[1]], which has no off-diagonal.
    """
    d = linalg._check_count(d, "dimension", 1, ValueError)
    a = _family_off_diag(d, float(p) / d)
    return DensityMatrix(_fill((d, d), a, 1.0 / d), (d,))


def _family_off_diag(d: int, off_diag, diag=None) -> np.ndarray:
    """``off_diag`` as a float array, each entry a checked to give a state of
    diagonal c, ``diag`` (its own entry or one for all; 1/d by default): at
    d >= 2 its eigenvalues c + (d - 1) a and c - a are at least
    ``-linalg.DEFAULT_TOL``, as :func:`validate_density` requires.  At
    d = 1 the member is [[1]] whatever c is, and every finite a passes.

    Raises:
        WeightOutOfRangeError: if an entry fails, NaN and infinities included.
    """
    a = np.asarray(off_diag, dtype=float)
    c = np.asarray(1.0 / d if diag is None else diag, dtype=float)
    # 0 * inf at d = 1 is NaN and (d - 1) a may overflow to inf: both refused
    with np.errstate(over="ignore", invalid="ignore"):
        lowest = np.minimum(c + (d - 1) * a, c - a) if d > 1 else 1.0 + 0.0 * a
    bad = ~(lowest >= -linalg.DEFAULT_TOL)  # NaN included
    if bad.any():
        raise WeightOutOfRangeError(
            f"off-diagonal {a[bad][0]:.12g} gives eigenvalue {lowest[bad][0]:.6e} "
            f"below -{linalg.DEFAULT_TOL:g}"
        )
    return a


def _fill(shape, off_diag, diag) -> np.ndarray:
    # Matrices with constant off-diagonal and constant diagonal entries
    out = np.empty(shape, dtype=complex)
    out[...] = np.asarray(off_diag)[..., None, None]
    idx = np.arange(shape[-1])
    out[..., idx, idx] = np.asarray(diag)[..., None]
    return out


def maximally_entangled_state(d: int) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_i |ii>, as a d x d bipartite state."""
    d = linalg._check_count(d, "dimension", 1, ValueError)
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(vec, vec.conj()), (d, d))


def bell_eigenvalues(t1: float, t2: float, t3: float) -> np.ndarray:
    """The four eigenvalues of the correlation-triple state, unsorted."""
    return 0.25 * np.array(
        [1 - t1 - t2 - t3, 1 - t1 + t2 + t3, 1 + t1 - t2 + t3, 1 + t1 + t2 - t3]
    )


def validate_bell_params(t1, t2, t3) -> None:
    for i, t in enumerate((t1, t2, t3), start=1):
        if not abs(t) <= 1.0 + linalg.DEFAULT_TOL:
            raise InvalidBellParamsError(f"|t{i}| = {abs(t):.12g} exceeds 1")
    for lam, label in zip(
        bell_eigenvalues(t1, t2, t3),
        ("1-t1-t2-t3", "1-t1+t2+t3", "1+t1-t2+t3", "1+t1+t2-t3"),
    ):
        if not lam >= -linalg.DEFAULT_TOL:
            raise InvalidBellParamsError(
                f"constraint {label} >= 0 violated (value {4 * lam:.12g})"
            )


def bell_diagonal_state(t1, t2, t3) -> DensityMatrix:
    """Two-qubit state 1/4 (I + sum_i t_i sigma_i x sigma_i)."""
    t1, t2, t3 = float(t1), float(t2), float(t3)
    validate_bell_params(t1, t2, t3)
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
    """Full-rank random state G G^dagger / Tr, G with iid complex normals;
    ``dims`` (default ``(d,)``) pass ``linalg._check_dims`` before the draw."""
    dims = linalg._check_dims((d,) if dims is None else dims, d)
    return DensityMatrix(random_density_stack(d, 1, rng)[0], dims)


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
    d = linalg._check_count(d, "dimension", 1, ValueError)  # before the draw
    g = rng.standard_normal((n, 2, d, d))
    return g[:, 0] + 1j * g[:, 1]


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    """Uniform point in the unit ball (direction from normals, radius cube root)."""
    v = rng.standard_normal(3)
    v /= math.sqrt(v.dot(v))
    return v * rng.random() ** (1.0 / 3.0)
