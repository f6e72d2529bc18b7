"""Coherence measures and twirl-derived bounds.

Implements the l1-norm coherence (sum of off-diagonal magnitudes) and the
relative entropy of coherence S(diag(rho)) - S(rho) in nats, the lower
bounds obtained by twirling (the twirl is an incoherent operation, and
any coherence measure is monotone under it), and a sampling estimator for
the coherence of assistance

    C_a(rho) = max over pure-state decompositions of sum_k p_k C(psi_k),

which the twirl bounds from above: C_a(rho) <= C_a(twirl(rho)).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, states, twirl
from .errors import (
    DimensionTooLargeError,
    NotPositiveError,
    SampleCountError,
)
from .states import DensityMatrix

MEASURE_L1 = "l1"
MEASURE_REL_ENT = "relent"
MEASURES = (MEASURE_L1, MEASURE_REL_ENT)

# The assistance sampler keeps the eigenvalues above ASSIST_RANK_FLOOR:
# their number is the rank that sizes each sampled decomposition.
ASSIST_RANK_FLOOR = 1e-12

# Ensemble sizes used by the assistance sampler extend past the matrix
# dimension to explore decompositions of larger cardinality.
EXTRA_ENSEMBLE_SIZES = 2
# Largest ``samples`` of the assistance sampler, whose scores are held at
# once as one float array (76 MiB at the limit, 119 MiB peak RSS for
# ``coherence --assist`` on a d=3 state).
MAX_ASSIST_SAMPLES = 10_000_000


@dataclass(frozen=True)
class CoherenceReport:
    measure: str
    value: float
    lower_bound: float
    gap: float


@dataclass(frozen=True)
class AssistanceEstimate:
    """Max of the average pure-state coherence over sampled decompositions.

    A lower estimate of the coherence of assistance: the true quantity is
    a supremum, the estimate is the max over the sampled subset only.  For
    a fixed seed it is nondecreasing in the sample count.
    """

    measure: str
    value: float
    samples: int
    seed: int


def _check_measure(measure: str) -> str:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    return measure


def _xlogx(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def _entropy_of_probs(p: np.ndarray) -> np.ndarray:
    # Entropy of each probability vector along the last axis of p; entries
    # in [-DEFAULT_TOL, 0] count as zeros, as validation accepts them.
    p = np.asarray(p, dtype=float)
    bad = p[~(p >= -linalg.DEFAULT_TOL)]  # NaN included
    if bad.size:
        raise NotPositiveError(
            f"probability {bad.min():.3e} below -{linalg.DEFAULT_TOL:g}",
            min_eigenvalue=float(bad.min()),
        )
    return -_xlogx(np.clip(p, 0.0, None)).sum(axis=-1)


def _entropies(m: np.ndarray) -> np.ndarray:
    # von Neumann entropy of each matrix of a stack: one eigenvalue-only
    # solver call, with the same bits as one call per matrix
    return _entropy_of_probs(linalg.hermitian_eigvals(m))


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Keep only the diagonal; idempotent."""
    linalg._check_dims(rho.dims, rho.d, 1)
    return DensityMatrix(np.diag(np.diag(rho.mat)), rho.dims)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    linalg._check_dims(rho.dims, rho.d, 1)
    return float(_entropies(rho.mat))


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    linalg._check_dims(rho.dims, rho.d, 1)
    return float(l1_coherences(rho.mat))


def l1_coherences(mats) -> np.ndarray:
    """:func:`l1_coherence` of each matrix of a stack ``(n, d, d)``."""
    mags = np.abs(linalg.as_complex_matrix(mats, stack=True))
    return mags.sum(axis=(-2, -1)) - np.trace(mags, axis1=-2, axis2=-1)


def rel_ent_coherence(rho: DensityMatrix) -> float:
    """Entropy of the dephased state minus entropy of the state (nats)."""
    linalg._check_dims(rho.dims, rho.d, 1)
    return float(rel_ent_coherences(rho.mat))


def rel_ent_coherences(mats) -> np.ndarray:
    """:func:`rel_ent_coherence` of each matrix of a stack ``(n, d, d)``,
    with one ``linalg.hermitian_eigvals`` call."""
    m = linalg.as_complex_matrix(mats, stack=True)
    diag = np.diagonal(m, axis1=-2, axis2=-1).real
    return _entropy_of_probs(diag) - _entropies(m)


def l1_lower_bound(rho: DensityMatrix) -> float:
    """d (d - 1) |off_diag|: the l1 coherence of the twirled state, one row
    of :func:`l1_lower_bounds`.

    Tight whenever all off-diagonal entries are real with a uniform sign.
    """
    linalg._check_dims(rho.dims, rho.d, 1)
    return float(l1_lower_bounds(rho.mat))


def l1_lower_bounds(mats) -> np.ndarray:
    """:func:`l1_lower_bound` of each matrix of a stack ``(n, d, d)``."""
    m = np.asarray(mats, dtype=complex)
    d = m.shape[-1]
    return d * (d - 1) * np.abs(twirl.off_diagonal_means(m))


def rel_ent_lower_bound(rho: DensityMatrix) -> float:
    """Closed form for the relative entropy of coherence of the twirled
    state, one row of :func:`rel_ent_lower_bounds`.

    With w the mixing weight of the twirled state,

        (1 - 1/d) (1 - w) ln(1 - w) + (1/d) ((d - 1) w + 1) ln((d - 1) w + 1),

    evaluated with 0 ln 0 = 0 at the endpoints.  Agrees with computing
    the measure on the reconstructed output state directly.  1 - w and
    (d - 1) w + 1 are d times the eigenvalues of that state.  The family
    is checked at the twirled state's own diagonal, tr/d: an eigenvalue
    of the twirl below ``-linalg.DEFAULT_TOL`` raises WeightOutOfRangeError.
    The twirl is mixed-unitary, so its lowest eigenvalue is at least the
    input's, and no state that validation accepts is refused.
    """
    linalg._check_dims(rho.dims, rho.d, 1)
    return float(rel_ent_lower_bounds(rho.mat))


def rel_ent_lower_bounds(mats) -> np.ndarray:
    """:func:`rel_ent_lower_bound` of each matrix of a stack ``(n, d, d)``."""
    m = np.asarray(mats, dtype=complex)
    d = m.shape[-1]
    diag = np.trace(m, axis1=-2, axis2=-1).real / d
    w = d * states._family_off_diag(d, twirl.off_diagonal_means(m), diag)
    # Clamp endpoint noise so the log arguments stay nonnegative.
    u = np.maximum(0.0, 1.0 - w)
    v = np.maximum(0.0, (d - 1) * w + 1.0)
    return (1.0 - 1.0 / d) * _xlogx(u) + (1.0 / d) * _xlogx(v)


def coherence_report(rho: DensityMatrix, measure: str) -> CoherenceReport:
    """Measure value, its twirl lower bound, and the gap value - bound.

    On a state, 0 <= bound <= value <= ln d (relent) or d - 1 (l1).  On an
    input that validation accepts only within ``linalg.DEFAULT_TOL`` = tol
    (an eigenvalue in [-tol, 0), a trace off 1, entry pairs off Hermitian)
    nothing is clamped: a value or bound may leave that range by up to
    2 d^2 tol, and the relent gap may be negative by up to d^2 ln(1/tol) tol
    (about 23 d^2 tol; entropies move as x ln x near a zero eigenvalue).
    The l1 gap is >= 0 up to rounding.
    """
    if _check_measure(measure) == MEASURE_L1:
        value, bound = l1_coherence(rho), l1_lower_bound(rho)
    else:
        value, bound = rel_ent_coherence(rho), rel_ent_lower_bound(rho)
    return CoherenceReport(
        measure=measure, value=value, lower_bound=bound, gap=value - bound
    )


def _pure_l1_terms(w_cols: np.ndarray) -> np.ndarray:
    # For the unnormalized columns w_k of each (d, m) matrix of a stack:
    #   sum_k q_k C_l1(psi_k) = sum_k [ (sum_i |w_ik|)^2 - q_k ]
    # with q_k = sum_i |w_ik|^2.
    mags = np.abs(w_cols)
    return (mags.sum(axis=-2) ** 2).sum(axis=-1) - (mags**2).sum(axis=(-2, -1))


def _pure_rel_ent_terms(w_cols: np.ndarray) -> np.ndarray:
    # sum_k q_k S(diag(psi_k)); the states are pure, so S(psi_k) = 0.
    probs = np.abs(w_cols) ** 2
    q = probs.sum(axis=-2)
    total = -_xlogx(probs).sum(axis=(-2, -1))
    return total + _xlogx(q).sum(axis=-1)


def _assistance_scores(
    rho: DensityMatrix, measure: str, samples: int, seed: int
) -> np.ndarray:
    """The score of each sampled decomposition, in sample order.

    Sample i has ensemble size ``m = sizes[i % L]``, ``L = len(sizes)``, and
    draws its ``2 m r`` normals in order: the real ``(m, r)`` block, then
    the imaginary one.  So a cycle of L samples is one row of a
    ``(cycles, sum 2 m r)`` draw, which leaves the stream as one draw per
    sample would, and each size owns a fixed column slice of the row.  The
    cycles are drawn in blocks of at most ``linalg.BLOCK_ENTRIES`` member
    entries (the normals drawn for them take no more) or one cycle; within
    a block, the samples of each size are orthonormalised and scored as
    one stack, and the last block scores only the samples asked for.
    """
    rng = np.random.default_rng(seed)
    w, v = linalg.hermitian_eigen(rho.mat)
    keep = w > ASSIST_RANK_FLOOR
    lam = w[keep]
    b = v[:, keep] * np.sqrt(lam)
    rank = int(lam.size)
    sizes = np.arange(rank, rho.d + EXTRA_ENSEMBLE_SIZES + 1)
    term = _pure_l1_terms if measure == MEASURE_L1 else _pure_rel_ent_terms
    cols = np.cumsum([0, *(2 * rank * sizes)])  # size j: cols[j] .. cols[j + 1] - 1
    cycles = -(-samples // len(sizes))
    per_block = max(1, linalg.BLOCK_ENTRIES // (rho.d * int(sizes.sum())))
    scores = np.empty(samples)
    for c in range(0, cycles, per_block):
        normals = rng.standard_normal((min(per_block, cycles - c), int(cols[-1])))
        for j, size in enumerate(sizes):
            out = scores[j :: len(sizes)][c : c + len(normals)]
            if not out.size:  # the last cycle ends before size j
                break
            re_im = normals[: len(out), cols[j] : cols[j + 1]].reshape(-1, 2, size, rank)
            q, upper = np.linalg.qr(re_im[:, 0] + 1j * re_im[:, 1])
            phases = np.diagonal(upper, axis1=1, axis2=2)
            u = q * (phases / np.abs(phases)).conj()[:, None, :]
            out[:] = term(b @ u.conj().swapaxes(-1, -2))
    return scores


def assistance_estimate(
    rho: DensityMatrix, measure: str, samples: int, seed: int
) -> AssistanceEstimate:
    """Sampled lower estimate of the coherence of assistance.

    Every size-m decomposition of rho corresponds to an m x r isometry U
    (r = rank): the unnormalized members are the columns of B U^dagger
    where B = V sqrt(Lambda) from the eigendecomposition.  Ensemble sizes
    cycle through r, ..., d + EXTRA_ENSEMBLE_SIZES; isometries are Haar
    samples, drawn and scored as stacks in bounded blocks of whole cycles
    with the bits of one sample at a time (see ``_assistance_scores``).
    Deterministic given ``seed``.

    Raises:
        SampleCountError: if ``samples`` is not an integer >= 1.
        ValueError: if ``seed`` is not an integer >= 0.
        DimensionTooLargeError: if ``samples`` > MAX_ASSIST_SAMPLES (checked
            before any eigensolve or draw).
    """
    linalg._check_dims(rho.dims, rho.d, 1)
    measure = _check_measure(measure)
    samples = linalg._check_count(samples, "samples", 1, SampleCountError)
    seed = linalg._check_count(seed, "seed", 0, ValueError)
    if samples > MAX_ASSIST_SAMPLES:
        raise DimensionTooLargeError(
            f"samples {samples} exceeds the limit of {MAX_ASSIST_SAMPLES}: the "
            "scores of all samples are held at once"
        )
    scores = _assistance_scores(rho, measure, samples, seed)
    # np.max keeps a NaN score wherever it falls; built-in max drops it
    best = float(np.max(scores))
    return AssistanceEstimate(measure=measure, value=best, samples=samples, seed=seed)
