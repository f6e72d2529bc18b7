"""The permutation-twirl channel.

The channel averages a matrix over conjugation by all d! permutation
matrices,

    T(x) = (1/d!) sum_pi  P_pi x P_pi^dagger,

and admits the closed form

    T(x) = Tr(x) I/d  +  Tr(x (E - I)) (E - I) / (d (d - 1)),

where E is the all-ones matrix.  This module provides both evaluation
routes (the brute force doubles as the oracle for every closed form),
the bipartite one-sided and two-sided actions, the channel's Choi matrix
with its explicit separable decomposition, and the collective twirl
(P x P on both factors), for which only the brute force is offered.

The one-sided twirl, the two-sided twirl and its coefficients come from
one orbit-mean pass: each entry is replaced by the mean of the entries
in its orbit under permutations of the twirled factors.

All twirl operations accept arbitrary square complex matrices; the maps
are linear on the full matrix algebra.  Density-specific helpers
validate separately.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, states
from .errors import (
    CertificateError,
    DimensionTooLargeError,
    DimMismatchError,
    NonRealSumError,
    ParamOutOfRangeError,
)
from .states import DensityMatrix

# Factorial guards for exact enumeration.
MAX_BRUTE_DIM = 9
MAX_COLLECTIVE_DIM = 7
MAX_TWO_SIDED_TERMS = 1_000_000

# Permutation batches are gathered in chunks to bound peak memory.
_CHUNK = 5000


@dataclass(frozen=True)
class TwirlSummary:
    """Scalar data of a twirled state.

    ``off_diag`` is the common off-diagonal entry of the output state and
    ``weight`` the mixing weight of the uniform-superposition projector in
    the output; they satisfy ``weight == dim * off_diag``.
    """

    dim: int
    off_diag: float
    weight: float


@dataclass(frozen=True)
class BipartiteTwirlCoefficients:
    """Expansion of a two-sided twirl in the invariant operator basis.

    The output equals

        c0 * I x I + c1 * I x (E_B - I) + c2 * (E_A - I) x I
                   + c3 * (E_A - I) x (E_B - I),

    with coefficients obtained by Hilbert-Schmidt projection onto those
    four mutually orthogonal operators.  ``overlap_a``, ``overlap_b`` and
    ``overlap_ab`` are the unnormalized overlaps of the input X with
    (E_A - I) x I, I x (E_B - I) and (E_A - I) x (E_B - I); dividing by
    the basis norms gives c2, c1 and c3 respectively.
    """

    dims: tuple[int, int]
    c0: complex
    c1: complex
    c2: complex
    c3: complex
    overlap_a: complex
    overlap_b: complex
    overlap_ab: complex


@dataclass(frozen=True)
class EntanglementBreakingCertificate:
    """Residual of the two-term separable decomposition of the Choi matrix."""

    d: int
    residual: float
    weights: tuple[float, float]
    tol: float


def _perm_index_array(d: int) -> np.ndarray:
    return np.array(list(states.enumerate_permutations(d)), dtype=np.intp)


def _average_over_index_maps(x: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Average x over re-indexings x[m, m] for each row m of ``maps``.

    Each row is a permutation of the matrix indices, so the average over a
    full (inverse-closed) set equals the average of P x P^dagger over the
    corresponding permutation matrices.  Accumulates everything and
    divides once at the end.
    """
    total = np.zeros_like(x)
    n = maps.shape[0]
    for start in range(0, n, _CHUNK):
        chunk = maps[start : start + _CHUNK]
        total += x[chunk[:, :, None], chunk[:, None, :]].sum(axis=0)
    return total / n


def twirl_bruteforce(x) -> np.ndarray:
    """Exact average over all d! permutation conjugations.

    Serves as the oracle for :func:`twirl_closed_form`.  Guarded at
    d <= MAX_BRUTE_DIM.
    """
    m = linalg.as_complex_matrix(x)
    d = linalg.require_square(m)
    if d > MAX_BRUTE_DIM:
        raise DimensionTooLargeError(
            f"brute-force twirl limited to d <= {MAX_BRUTE_DIM}, got {d}"
        )
    return _average_over_index_maps(m, _perm_index_array(d))


def twirl_closed_form(x) -> np.ndarray:
    """O(d^2) evaluation of the twirl.

    Output has constant diagonal Tr(x)/d and constant off-diagonal
    Tr(x (E - I)) / (d (d - 1)).  A 1 x 1 matrix is returned unchanged
    (the only permutation is trivial).
    """
    m = linalg.as_complex_matrix(x)
    d = linalg.require_square(m)
    if d == 1:
        return m.copy()
    tr = np.trace(m)
    off_sum = m.sum() - tr  # Tr(x E) - Tr(x)
    out = np.full((d, d), off_sum / (d * (d - 1)), dtype=complex)
    np.fill_diagonal(out, tr / d)
    return out


def twirl_params(rho: DensityMatrix, tol: float = linalg.DEFAULT_TOL) -> TwirlSummary:
    """Scalars characterizing the twirl of a monopartite state.

    ``off_diag`` is the mean of the off-diagonal entries,
    sum_{i != j} rho_ij / (d (d - 1)); Hermiticity forces the sum to be
    real.  ``weight = dim * off_diag``.
    """
    if len(rho.dims) != 1:
        raise DimMismatchError(f"expected a monopartite state, got dims {rho.dims}")
    d = rho.d
    if d == 1:
        return TwirlSummary(dim=1, off_diag=0.0, weight=0.0)
    off_sum = complex(rho.mat.sum() - np.trace(rho.mat))
    if abs(off_sum.imag) > tol:
        raise NonRealSumError(
            f"off-diagonal sum has imaginary part {off_sum.imag:.3e}; "
            "input is not Hermitian"
        )
    a = off_sum.real / (d * (d - 1))
    return TwirlSummary(dim=d, off_diag=a, weight=d * a)


def reconstruct_output_state(
    summary: TwirlSummary, tol: float = linalg.DEFAULT_TOL
) -> DensityMatrix:
    """Rebuild the twirled state from its scalar summary.

    Equal to the one-parameter maximally-coherent-mixed family at weight
    ``summary.weight``, and to the twirl of any state producing that
    summary.
    """
    d = summary.dim
    if d < 1:
        raise ParamOutOfRangeError(f"dimension must be >= 1, got {d}")
    if d == 1:
        return DensityMatrix(np.ones((1, 1), dtype=complex), (1,))
    lo = -1.0 / (d * (d - 1))
    hi = 1.0 / d
    if summary.off_diag < lo - tol or summary.off_diag > hi + tol:
        raise ParamOutOfRangeError(
            f"off-diagonal {summary.off_diag:.12g} outside [{lo:.12g}, {hi:.12g}]"
        )
    mat = np.full((d, d), summary.off_diag, dtype=complex)
    np.fill_diagonal(mat, 1.0 / d)
    return DensityMatrix(mat, (d,))


def _factor_orbits(d: int, permuted: bool):
    # Label of each index pair (i, j) of one factor, its number of runs and
    # its orbit sizes.  A permuted factor's orbits, i == j and i != j (empty
    # when d == 1), are split by the row i into d runs summed apart, as the
    # matmul-and-trace formula does; a fixed factor keeps every pair apart.
    if permuted:
        i = np.arange(d)[:, None]
        return 2 * i + (i != i.T), d, np.array([d, d * (d - 1)])
    return np.arange(d * d).reshape(d, d), 1, np.ones(d * d, dtype=np.intp)


def _orbit_mean(m: np.ndarray, dims: tuple[int, int], permuted: tuple[bool, bool]):
    """Replace each entry of ``m`` by its mean over the orbit of its indices.

    The group permutes each factor flagged in ``permuted`` independently
    and fixes the others.  Returns ``(out, sums, means)``, the last two
    indexed by orbit with the A factor's label major; an empty orbit has
    mean 0.
    """
    (lab_a, r_a, size_a), (lab_b, r_b, size_b) = map(_factor_orbits, dims, permuted)
    shape = (r_a, size_a.size, r_b, size_b.size)
    # composite label (run_a, orbit_a, run_b, orbit_b) of each entry
    labels = (lab_a[:, None, :, None] * r_b * size_b.size + lab_b[None, :, None, :]).ravel()
    runs = np.empty(shape, dtype=complex)
    runs.real = np.bincount(labels, m.real.ravel(), runs.size).reshape(shape)
    runs.imag = np.bincount(labels, m.imag.ravel(), runs.size).reshape(shape)
    sums = runs.sum(axis=(0, 2))
    means = sums / np.maximum(size_a[:, None] * size_b, 1)
    runs[...] = means[None, :, None, :]  # each run now holds its orbit's mean
    return runs.ravel()[labels].reshape(m.shape), sums.ravel(), means.ravel()


def _two_sided(m: np.ndarray, d_a: int, d_b: int):
    # Orbits 0-3 pair with I x I, I x (E_B - I), (E_A - I) x I and
    # (E_A - I) x (E_B - I): their sums are the overlaps, their means the
    # coefficients.
    out, sums, means = _orbit_mean(m, (d_a, d_b), (True, True))
    coeffs = BipartiteTwirlCoefficients(
        (d_a, d_b), *map(complex, means), *map(complex, sums[[2, 1, 3]])
    )
    return out, coeffs


def twirl_one_sided(x, dims, side: str) -> np.ndarray:
    """Closed-form twirl of one factor of a bipartite operator.

    For side A:

        (I/d_A) x Tr_A(x)
        + ((E_A - I) / (d_A (d_A - 1))) x Tr_A(x (E_A - I) x I).

    Side B applies the mirrored formula; both are orbit means of ``x``.
    """
    m = linalg.as_complex_matrix(x)
    d_a, d_b = linalg.split_dims(m, dims)
    side = linalg._check_side(side)
    permuted = (side == linalg.SIDE_A, side == linalg.SIDE_B)
    return _orbit_mean(m, (d_a, d_b), permuted)[0]


def twirl_one_sided_bruteforce(x, dims, side: str) -> np.ndarray:
    """Average over permutations of one factor only (oracle)."""
    m = linalg.as_complex_matrix(x)
    d_a, d_b = linalg.split_dims(m, dims)
    side = linalg._check_side(side)
    d_t = d_a if side == linalg.SIDE_A else d_b
    if d_t > MAX_BRUTE_DIM:
        raise DimensionTooLargeError(
            f"brute-force twirl limited to side dim <= {MAX_BRUTE_DIM}, got {d_t}"
        )
    perms = _perm_index_array(d_t)
    if side == linalg.SIDE_A:
        # composite index (i_a, i_b) -> (pi(i_a), i_b)
        maps = (perms[:, :, None] * d_b + np.arange(d_b)[None, None, :]).reshape(
            perms.shape[0], d_a * d_b
        )
    else:
        maps = (np.arange(d_a)[None, :, None] * d_b + perms[:, None, :]).reshape(
            perms.shape[0], d_a * d_b
        )
    return _average_over_index_maps(m, maps)


def twirl_two_sided_bruteforce(x, dims) -> np.ndarray:
    """Double enumeration over independent permutations of both factors."""
    m = linalg.as_complex_matrix(x)
    d_a, d_b = linalg.split_dims(m, dims)
    terms = math.factorial(d_a) * math.factorial(d_b)
    if terms > MAX_TWO_SIDED_TERMS:
        raise DimensionTooLargeError(
            f"two-sided brute force needs {terms} terms "
            f"(limit {MAX_TWO_SIDED_TERMS})"
        )
    perms_a = _perm_index_array(d_a)
    perms_b = _perm_index_array(d_b)
    # composite index (i_a, i_b) -> (pi(i_a), sigma(i_b)) for every pair
    maps = (
        perms_a[:, None, :, None] * d_b + perms_b[None, :, None, :]
    ).reshape(terms, d_a * d_b)
    return _average_over_index_maps(m, maps)


def bipartite_coefficients(x, dims) -> BipartiteTwirlCoefficients:
    """Invariant-basis coefficients of the two-sided twirl of ``x``.

    Computed by Hilbert-Schmidt projection of ``x`` onto the mutually
    orthogonal operators I x I, I x (E_B - I), (E_A - I) x I and
    (E_A - I) x (E_B - I); the twirl fixes each of them, so projecting
    the input and projecting the output agree.  A factor of dimension 1
    contributes zero off-diagonal coefficients.
    """
    m = linalg.as_complex_matrix(x)
    d_a, d_b = linalg.split_dims(m, dims)
    return _two_sided(m, d_a, d_b)[1]


def coefficients_to_matrix(coeffs: BipartiteTwirlCoefficients) -> np.ndarray:
    """Assemble the two-sided output from its invariant-basis coefficients."""
    d_a, d_b = coeffs.dims
    e_a = states.all_ones_projector(d_a) - np.eye(d_a)
    e_b = states.all_ones_projector(d_b) - np.eye(d_b)
    i_a = np.eye(d_a)
    i_b = np.eye(d_b)
    return (
        coeffs.c0 * np.kron(i_a, i_b)
        + coeffs.c1 * np.kron(i_a, e_b)
        + coeffs.c2 * np.kron(e_a, i_b)
        + coeffs.c3 * np.kron(e_a, e_b)
    )


def twirl_two_sided(x, dims) -> tuple[np.ndarray, BipartiteTwirlCoefficients]:
    """Twirl both factors independently.

    Returns the output matrix (side A twirl followed by side B twirl; the
    two commute) together with its invariant-basis coefficients, both
    from one pass over the entries of ``x``.
    """
    m = linalg.as_complex_matrix(x)
    d_a, d_b = linalg.split_dims(m, dims)
    return _two_sided(m, d_a, d_b)


def choi_matrix(d: int) -> DensityMatrix:
    """Choi state of the twirl: one-sided twirl of the maximally entangled state.

    Equals the separable mixture

        (1/d) F x F + (1 - 1/d) ((I - F)/(d - 1)) x ((I - F)/(d - 1)),

    where F projects onto the uniform superposition.
    """
    if d < 2:
        raise ParamOutOfRangeError(f"Choi matrix needs d >= 2, got {d}")
    omega = states.maximally_entangled_state(d)
    mat = twirl_one_sided(omega.mat, (d, d), linalg.SIDE_A)
    return DensityMatrix(mat, (d, d))


def entanglement_breaking_certificate(
    d: int, tol: float = 1e-12
) -> EntanglementBreakingCertificate:
    """Certify the Choi state against its explicit separable decomposition.

    Both sides are computed independently (closed-form one-sided twirl vs
    direct mixture assembly); the report carries the max-entry residual.

    Raises:
        CertificateError: residual exceeds ``tol`` (an implementation bug).
    """
    choi = choi_matrix(d).mat
    phi = states.maximally_coherent_state(d).mat
    rest = (np.eye(d) - phi) / (d - 1)
    w1 = 1.0 / d
    w2 = 1.0 - 1.0 / d
    decomposition = w1 * np.kron(phi, phi) + w2 * np.kron(rest, rest)
    residual = linalg.max_abs_diff(choi, decomposition)
    if residual > tol:
        raise CertificateError(
            f"separable decomposition residual {residual:.3e} exceeds {tol:g}"
        )
    return EntanglementBreakingCertificate(
        d=d, residual=residual, weights=(w1, w2), tol=tol
    )


def collective_twirl_bruteforce(x, d: int) -> np.ndarray:
    """Average of (P x P) X (P x P)^dagger over all d! permutations.

    No closed form is provided for this collective action; only the exact
    enumeration is offered, guarded at d <= MAX_COLLECTIVE_DIM.
    """
    m = linalg.as_complex_matrix(x)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > MAX_COLLECTIVE_DIM:
        raise DimensionTooLargeError(
            f"collective twirl limited to d <= {MAX_COLLECTIVE_DIM}, got {d}"
        )
    side = linalg.require_square(m)
    if side != d * d:
        raise DimMismatchError(f"matrix side {side} does not equal d^2 = {d * d}")
    perms = _perm_index_array(d)
    maps = (perms[:, :, None] * d + perms[:, None, :]).reshape(perms.shape[0], d * d)
    return _average_over_index_maps(m, maps)
