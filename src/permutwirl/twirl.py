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
(P x P on both factors).

The one-sided twirl, the two-sided twirl with its coefficients and the
collective twirl come from one orbit-mean pass: each entry is replaced
by the mean of the entries in its orbit under the permutations acting
on its factors, independently or together.  Their oracles, and the
single-system one, are brute-force enumerations of those groups,
independent of the orbit labels, under one work bound: at most
MAX_BRUTE_ENTRIES permutations times matrix entries.  Each oracle takes
a stack of matrices as well, and enumerates the group once for the
whole stack: the stack is held entries-major, so a permutation gathers
whole rows of the stack, and the permutations are added in one fixed
order, in chunks of 5000, whatever the side or stack: the bits depend on
the group alone, and a stacked call has the bits of one call per matrix.

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
    NonRealSumError,
    ParamOutOfRangeError,
)
from .states import DensityMatrix

# Work bound of the brute-force oracles: each of the prod(d!) permutations of
# the distinct groups gathers the D^2 entries of the matrix.  A factor above
# states.MAX_ENUM_DIM is refused before its factorial is computed.
MAX_BRUTE_ENTRIES = 1 << 26

# Permutations are summed in chunks of _CHUNK maps (the last one shorter) at
# every side; the chunks alone fix the order of addition.
_CHUNK = 5000

# Default residual bound of the Choi state's separable decomposition.
CERTIFICATE_TOL = 1e-12


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
    # The d! x d table of states.enumerate_permutations(d), in its
    # lexicographic order, built one size at a time: for each first element
    # f in turn, the rows of the smaller table relabelled to skip f.
    table = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, d + 1):
        first = np.arange(k)[:, None, None]
        grown = np.empty((k, len(table), k), dtype=np.intp)
        grown[..., 0] = first[..., 0]
        np.add(table, table >= first, out=grown[..., 1:])
        table = grown.reshape(-1, k)
    return table


def _bruteforce(m: np.ndarray, dims: tuple[int, ...], groups: tuple):
    """Average ``m``, one matrix or a stack ``(n, D, D)``, over all permutations
    of ``groups``, named as in :func:`_orbit_labels`: ``None`` fixes a factor,
    and factors that share a name share one permutation.

    Each group element re-indexes a matrix as ``m[g, g]`` by its composite index
    map ``g``; the elements form a full (inverse-closed) set, so their average
    is that of P x P^dagger over the permutation matrices.  Elements run first
    group major, in chunks of ``_CHUNK`` maps.  The stack is averaged in slabs
    of at most ``linalg.BLOCK_ENTRIES`` entries (at least one matrix), each
    held entries-major, ``(D^2, k)``, so a term gathers whole rows of the
    slab's k values, in blocks of at most ``linalg.BLOCK_ENTRIES`` entries (at
    least one term).  Each chunk sums its terms in order from 0, one reduction
    per block with the running sum as its first row, and the chunk sums are
    added in order: the bits depend on the group and ``_CHUNK`` only, not on
    the side, slabs or blocks, so each matrix has the bits of one call on it
    alone.
    """
    side = m.shape[-1]
    entries = side * side
    sizes = {g: d for d, g in zip(dims, groups) if g is not None}
    if max(sizes.values()) > states.MAX_ENUM_DIM or (
        math.prod(map(math.factorial, sizes.values())) * entries > MAX_BRUTE_ENTRIES
    ):
        raise DimensionTooLargeError(
            f"brute-force twirl permuting factors {tuple(sizes.values())} of dims "
            f"{tuple(dims)} refused: each must be <= {states.MAX_ENUM_DIM}, with "
            f"prod(d!) * D^2 <= {MAX_BRUTE_ENTRIES} gathered entries"
        )
    tables = {g: _perm_index_array(d) for g, d in sizes.items()}
    n = math.prod(len(t) for t in tables.values())
    flat = m.reshape(-1, entries)
    out = np.empty(flat.shape, dtype=complex)
    per_slab = max(1, linalg.BLOCK_ENTRIES // entries)
    for lo in range(0, len(flat), per_slab):
        # row e holds entry e of every matrix of the slab (a copy keeps an
        # ndarray subclass)
        cols = flat[lo : lo + per_slab].T.copy()
        block = min(_CHUNK, n, max(1, linalg.BLOCK_ENTRIES // cols.size))
        # row 0 carries the chunk's running sum into each block's reduction
        buf = np.empty((block + 1, *cols.shape), dtype=complex)
        total = np.zeros(cols.shape, dtype=complex)
        for maps in _chunk_maps(dims, groups, tables):
            # 0 + t0 + t1 + ... has the bits of t0 + t1 + ... once added to total
            chunk_sum = np.zeros_like(total)
            for first in range(0, len(maps), block):
                part = maps[first : first + block]
                index = (part[:, :, None] * side + part[:, None, :]).reshape(len(part), entries)
                buf[0] = chunk_sum
                # every index is in range; mode "clip" writes to out unbuffered
                cols.take(index, 0, out=buf[1 : len(part) + 1], mode="clip")
                np.add.reduce(buf[: len(part) + 1], axis=0, out=chunk_sum)
            total += chunk_sum
        np.divide(total.T, n, out=out[lo : lo + per_slab])
    return out.reshape(m.shape)


def _chunk_maps(dims: tuple[int, ...], groups: tuple, tables: dict):
    # Composite index map of each group element, first group major, in chunks
    # of _CHUNK maps, each chunk's maps built on their own
    shape = [len(t) for t in tables.values()]
    n = math.prod(shape)
    for start in range(0, n, _CHUNK):
        terms = np.unravel_index(np.arange(start, min(start + _CHUNK, n)), shape)
        rows = {g: t.take(i, 0) for (g, t), i in zip(tables.items(), terms)}
        maps, *rest = [
            rows[g] if g in rows else np.arange(d)[None] for d, g in zip(dims, groups)
        ]
        for factor in rest:
            # composite index (i, k) -> (maps(i), factor(k)) for each term
            maps = maps[..., None] * factor.shape[1] + factor[:, None]
            maps = maps.reshape(len(maps), -1)
        yield maps


def twirl_bruteforce(x) -> np.ndarray:
    """Exact average over all d! permutation conjugations.

    Serves as the oracle for :func:`twirl_closed_form`.  Guarded at
    d! d^2 <= MAX_BRUTE_ENTRIES (d <= 9).  ``x`` is one matrix ``(d, d)`` or
    a stack ``(n, d, d)``, with the same bits as one call per matrix.
    """
    m = linalg.as_complex_matrix(x, stack=True)
    return _bruteforce(m, (linalg.require_square(m),), (0,))


def _trace_and_off_sum(m: np.ndarray):
    # Tr(x) and Tr(x E) - Tr(x), the sum of the off-diagonal entries, of
    # each matrix of a stack
    tr = np.trace(m, axis1=-2, axis2=-1)
    return tr, m.sum(axis=(-2, -1)) - tr


def twirl_closed_form(x) -> np.ndarray:
    """O(d^2) evaluation of the twirl.

    Output has constant diagonal Tr(x)/d and constant off-diagonal
    Tr(x (E - I)) / (d (d - 1)).  A 1 x 1 matrix is returned unchanged
    (the only permutation is trivial).  ``x`` is one matrix ``(d, d)`` or a
    stack ``(n, d, d)``, twirled matrix by matrix with the same bits as one
    call per matrix.
    """
    m = linalg.as_complex_matrix(x, stack=True)
    d = linalg.require_square(m)
    if d == 1:
        return m.copy()
    tr, off_sum = _trace_and_off_sum(m)
    return states._fill(m.shape, off_sum / (d * (d - 1)), tr / d)


def off_diagonal_means(x) -> np.ndarray:
    """``twirl_params(rho).off_diag`` of each matrix of a stack ``(n, d, d)``.

    The mean of the off-diagonal entries, sum_{i != j} x_ij / (d (d - 1)),
    one per matrix (0-d for one matrix).  Hermiticity forces each sum to
    be real.  A 1 x 1 matrix has no off-diagonal entries: its sum, the
    entry minus itself, is 0.0 when the entry is finite and NaN when it
    is not, so it is refused as at every other size.

    Raises:
        NonRealSumError: if a sum's imaginary part exceeds d (d - 1) / 2 times
            ``linalg.DEFAULT_TOL``, the most its entry pairs, each Hermitian
            within that tolerance, add up to; or its real part is not finite.
    """
    m = np.asarray(x, dtype=complex)
    d = linalg.require_square(m)
    # every sum that is not finite is refused below, so numpy's warnings on
    # the way to it are noise
    with np.errstate(over="ignore", invalid="ignore"):
        off_sum = _trace_and_off_sum(m)[1]
    non_real = ~(np.abs(off_sum.imag) <= d * (d - 1) / 2 * linalg.DEFAULT_TOL)  # NaN included
    if non_real.any():
        raise NonRealSumError(
            f"off-diagonal sum has imaginary part {off_sum.imag[non_real][0]:.3e}; "
            "input is not Hermitian"
        )
    not_finite = ~np.isfinite(off_sum.real)
    if not_finite.any():
        raise NonRealSumError(f"off-diagonal sum is {off_sum.real[not_finite][0]}")
    return off_sum.real / max(d * (d - 1), 1)


def twirl_params(rho: DensityMatrix) -> TwirlSummary:
    """Scalars characterizing the twirl of a monopartite state.

    ``off_diag`` is the mean of the off-diagonal entries (see
    :func:`off_diagonal_means`).  ``weight = dim * off_diag``.  The summary
    holds no trace: :func:`reconstruct_output_state` rebuilds from it the
    trace-one member of the output family, not the kernel's output
    :func:`twirl_closed_form`, whose diagonal is Tr(rho)/d.
    """
    linalg._check_dims(rho.dims, rho.d, 1)
    a = float(off_diagonal_means(rho.mat))
    return TwirlSummary(dim=rho.d, off_diag=a, weight=rho.d * a)


def reconstruct_output_state(summary: TwirlSummary) -> DensityMatrix:
    """Rebuild the trace-one member of the output family from a summary.

    Equal to the one-parameter maximally-coherent-mixed family at weight
    ``summary.weight``, with diagonal exactly 1/d.  It is not the kernel's
    output: :func:`twirl_closed_form` gives the diagonal Tr(rho)/d, so the
    two agree up to rounding only on a state of trace one.  A state that
    validation accepts with a trace off 1 may rebuild to a member that is
    not a state within ``linalg.DEFAULT_TOL``, which
    :func:`output_state_stack` refuses.
    """
    mat = output_state_stack(summary.dim, summary.off_diag)
    return DensityMatrix(mat, (summary.dim,))


def output_state_stack(d: int, off_diag) -> np.ndarray:
    """The twirled states of dimension ``d`` with common off-diagonal entries
    ``off_diag``: the :func:`reconstruct_output_state` matrix of each entry,
    an ``(n, d, d)`` stack for ``n`` entries.

    At d = 1 every finite entry gives [[1]], which has no off-diagonal.

    Raises:
        ParamOutOfRangeError: if ``d`` is not an integer >= 1; its subclass
            WeightOutOfRangeError if an entry a is not finite or an eigenvalue,
            1/d + (d - 1) a or (at d >= 2) 1/d - a, is below ``-linalg.DEFAULT_TOL``.
    """
    d = linalg._check_count(d, "dimension", 1, ParamOutOfRangeError)
    a = states._family_off_diag(d, off_diag)
    return states._fill((*a.shape, d, d), a, 1.0 / d)


def _orbit_labels(dims: tuple[int, ...], groups: tuple):
    # Label of each raveled entry and its radix: (run, orbit) of each group in
    # factor order.  groups[k] names factor k's permutation; None fixes it.  An
    # orbit has one bit per slot pair (rows, then columns) that differs; a run is
    # the first slot's value, summed apart to keep the one-sided formula's bits.
    # A fixed factor's (row, col) is its orbit, in one run.
    n, index = len(dims), np.indices((*dims, *dims), sparse=True)
    labels, radix = 0, []
    for k, (d, g) in enumerate(zip(dims, groups)):
        if g is None:
            label, radix_k = index[k] * d + index[n + k], (1, d * d)
        elif g in groups[:k]:
            continue
        else:
            slots = [index[j + c] for c in (0, n) for j in range(n) if groups[j] == g]
            pairs = [(p, q) for i, p in enumerate(slots) for q in slots[i + 1 :]]
            label, radix_k = slots[0], (d, 1 << len(pairs))
            for p, q in pairs:
                label = label * 2 + (p != q)
        labels = labels * math.prod(radix_k) + label
        radix += radix_k
    return labels.ravel(), radix


def _orbit_mean(m: np.ndarray, dims: tuple[int, ...], groups: tuple):
    """Replace each entry of ``m``, one matrix or a stack ``(n, D, D)``, by the
    mean of its orbit under ``groups``.  Returns ``(out, sums, means)``, the last
    two per orbit after any stack index, first group major; an empty orbit has
    mean 0."""
    labels, radix = _orbit_labels(dims, groups)
    shape, runs_at = (math.prod(m.shape[:-2]), *radix), tuple(range(1, len(radix), 2))
    sizes = np.bincount(labels, minlength=math.prod(radix)).reshape(shape[1:])
    labels = (np.arange(shape[0])[:, None] * math.prod(radix) + labels).ravel()
    runs = np.empty(shape, dtype=complex)
    runs.real = np.bincount(labels, m.real.ravel(), runs.size).reshape(shape)
    runs.imag = np.bincount(labels, m.imag.ravel(), runs.size).reshape(shape)
    sums = runs.sum(axis=runs_at, keepdims=True)
    means = sums / np.maximum(sizes[None].sum(axis=runs_at, keepdims=True), 1)
    runs[...] = means  # each run now holds its orbit's mean
    out = runs.ravel()[labels].reshape(m.shape)
    return out, sums.reshape(*m.shape[:-2], -1), means.reshape(*m.shape[:-2], -1)


def twirl_one_sided(x, dims, side: str) -> np.ndarray:
    """Closed-form twirl of one factor of a bipartite operator.

    For side A:

        (I/d_A) x Tr_A(x)
        + ((E_A - I) / (d_A (d_A - 1))) x Tr_A(x (E_A - I) x I).

    Side B applies the mirrored formula; both are orbit means of ``x``.
    ``x`` is one matrix ``(D, D)`` or a stack ``(n, D, D)``; a stack is
    twirled matrix by matrix in one pass, with the same output bits as
    one call per matrix.
    """
    m = linalg.as_complex_matrix(x, stack=True)
    d_a, d_b = linalg.split_dims(m, dims)
    groups = (0, None) if linalg._check_side(side) == linalg.SIDE_A else (None, 0)
    return _orbit_mean(m, (d_a, d_b), groups)[0]


def twirl_one_sided_bruteforce(x, dims, side: str) -> np.ndarray:
    """Average over permutations of one factor only (oracle), of one matrix
    or of each matrix of a stack ``(n, D, D)``."""
    m = linalg.as_complex_matrix(x, stack=True)
    groups = (0, None) if linalg._check_side(side) == linalg.SIDE_A else (None, 0)
    return _bruteforce(m, linalg.split_dims(m, dims), groups)


def twirl_two_sided_bruteforce(x, dims) -> np.ndarray:
    """Double enumeration over independent permutations of both factors, of
    one matrix or of each matrix of a stack ``(n, D, D)``."""
    m = linalg.as_complex_matrix(x, stack=True)
    return _bruteforce(m, linalg.split_dims(m, dims), (0, 1))


def bipartite_coefficients(x, dims) -> BipartiteTwirlCoefficients:
    """Invariant-basis coefficients of the two-sided twirl of ``x``.

    Computed by Hilbert-Schmidt projection of ``x`` onto the mutually
    orthogonal operators I x I, I x (E_B - I), (E_A - I) x I and
    (E_A - I) x (E_B - I); the twirl fixes each of them, so projecting
    the input and projecting the output agree.  A factor of dimension 1
    contributes zero off-diagonal coefficients.  The one-matrix row of
    :func:`twirl_two_sided`.
    """
    return twirl_two_sided(linalg.as_complex_matrix(x), dims)[1]


def coefficients_to_matrix(coeffs: BipartiteTwirlCoefficients) -> np.ndarray:
    """Assemble the two-sided output from its invariant-basis coefficients.

    Coefficients that are ``(n,)`` arrays, as a stacked :func:`twirl_two_sided`
    returns them, give an ``(n, D, D)`` stack with the same bits as one call
    per matrix.
    """
    d_a, d_b = coeffs.dims
    e_a = states.all_ones_projector(d_a) - np.eye(d_a)
    e_b = states.all_ones_projector(d_b) - np.eye(d_b)
    i_a = np.eye(d_a)
    i_b = np.eye(d_b)
    c0, c1, c2, c3 = (
        np.asarray(c)[..., None, None] for c in (coeffs.c0, coeffs.c1, coeffs.c2, coeffs.c3)
    )
    return (
        c0 * np.kron(i_a, i_b)
        + c1 * np.kron(i_a, e_b)
        + c2 * np.kron(e_a, i_b)
        + c3 * np.kron(e_a, e_b)
    )


def twirl_two_sided(x, dims) -> tuple[np.ndarray, BipartiteTwirlCoefficients]:
    """Twirl both factors independently.

    Returns the output matrix (side A twirl followed by side B twirl; the
    two commute) together with its invariant-basis coefficients, both
    from one pass over the entries of ``x``.  ``x`` is one matrix or a
    stack ``(n, D, D)``; for a stack the output is a stack with the same
    bits as one call per matrix, and each coefficient an ``(n,)`` array.
    """
    m = linalg.as_complex_matrix(x, stack=True)
    d_a, d_b = linalg.split_dims(m, dims)
    # Orbits 0-3 pair with I x I, I x (E_B - I), (E_A - I) x I and
    # (E_A - I) x (E_B - I): their sums are the overlaps, their means the
    # coefficients.
    out, sums, means = _orbit_mean(m, (d_a, d_b), (0, 1))
    per_orbit = np.concatenate([means, sums[..., [2, 1, 3]]], -1).T
    coeffs = BipartiteTwirlCoefficients(
        (d_a, d_b), *(complex(c) if c.ndim == 0 else c for c in per_orbit)
    )
    return out, coeffs


def choi_matrix(d: int) -> DensityMatrix:
    """Choi state of the twirl: one-sided twirl of the maximally entangled state.

    Equals the separable mixture

        (1/d) F x F + (1 - 1/d) ((I - F)/(d - 1)) x ((I - F)/(d - 1)),

    where F projects onto the uniform superposition.
    """
    d = linalg._check_count(d, "dimension", 2, ParamOutOfRangeError)
    omega = states.maximally_entangled_state(d)
    mat = twirl_one_sided(omega.mat, (d, d), linalg.SIDE_A)
    return DensityMatrix(mat, (d, d))


def entanglement_breaking_certificate(
    d: int, tol: float = CERTIFICATE_TOL
) -> EntanglementBreakingCertificate:
    """Certify the Choi state against its explicit separable decomposition.

    Both sides are computed independently (closed-form one-sided twirl vs
    direct mixture assembly); the report carries the max-entry residual.

    Raises:
        CertificateError: residual exceeds ``tol`` (an implementation bug).
    """
    linalg._check_tol(tol)
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


def _collective_matrix(x, d: int) -> np.ndarray:
    m = linalg.as_complex_matrix(x, stack=True)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    linalg._check_dims((d, d), linalg.require_square(m))
    return m


def collective_twirl(x, d: int) -> np.ndarray:
    """Average of (P x P) X (P x P)^dagger over all d! permutations.

    Each entry becomes the mean of its orbit: the index 4-tuples
    ``(i1, i2, j1, j2)`` with the same equality pattern, one of the set
    partitions of four slots (15 for d >= 4).  ``x`` is one matrix or a
    stack ``(n, d^2, d^2)``, with the same bits as one call per matrix.
    """
    return _orbit_mean(_collective_matrix(x, d), (d, d), (0, 0))[0]


def collective_twirl_bruteforce(x, d: int) -> np.ndarray:
    """Exact enumeration of the collective twirl (oracle).

    Serves as the oracle for :func:`collective_twirl`.  Guarded at
    d! d^4 <= MAX_BRUTE_ENTRIES (d <= 7).  ``x`` is one matrix or a stack
    ``(n, d^2, d^2)``, with the same bits as one call per matrix.
    """
    return _bruteforce(_collective_matrix(x, d), (d, d), (0, 0))
