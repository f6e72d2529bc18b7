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

from . import linalg, twirl
from .errors import (
    DimMismatchError,
    NotPositiveError,
    ParamOutOfRangeError,
    SampleCountError,
)
from .states import DensityMatrix

MEASURE_L1 = "l1"
MEASURE_REL_ENT = "relent"
MEASURES = (MEASURE_L1, MEASURE_REL_ENT)

# Eigenvalues in (ENTROPY_EIG_FLOOR, 0] count as exact zeros for entropy
# purposes; anything more negative is treated as a genuine error.
ENTROPY_EIG_FLOOR = -1e-12

# The assistance sampler keeps the eigenvalues above ASSIST_RANK_FLOOR:
# their number is the rank that sizes each sampled decomposition.
ASSIST_RANK_FLOOR = 1e-12

# Ensemble sizes used by the assistance sampler extend past the matrix
# dimension to explore decompositions of larger cardinality.
EXTRA_ENSEMBLE_SIZES = 2


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


def _require_monopartite(rho: DensityMatrix) -> None:
    if len(rho.dims) != 1:
        raise DimMismatchError(f"expected a monopartite state, got dims {rho.dims}")


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


def _entropy_of_probs(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    bad = p[~(p >= ENTROPY_EIG_FLOOR)]  # NaN included
    if bad.size:
        raise NotPositiveError(
            f"probability {bad.min():.3e} below {ENTROPY_EIG_FLOOR:g}",
            min_eigenvalue=float(bad.min()),
        )
    return float(-_xlogx(np.clip(p, 0.0, None)).sum())


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Keep only the diagonal; idempotent."""
    _require_monopartite(rho)
    return DensityMatrix(np.diag(np.diag(rho.mat)), rho.dims)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    _require_monopartite(rho)
    w, _ = linalg.hermitian_eigen(rho.mat)
    return _entropy_of_probs(w)


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    _require_monopartite(rho)
    mags = np.abs(rho.mat)
    return float(mags.sum() - np.trace(mags))


def rel_ent_coherence(rho: DensityMatrix) -> float:
    """Entropy of the dephased state minus entropy of the state (nats)."""
    _require_monopartite(rho)
    diag = np.diag(rho.mat).real
    return _entropy_of_probs(diag) - von_neumann_entropy(rho)


def l1_lower_bound(rho: DensityMatrix) -> float:
    """d (d - 1) |off_diag|: the l1 coherence of the twirled state.

    Tight whenever all off-diagonal entries are real with a uniform sign.
    """
    summary = twirl.twirl_params(rho)
    return summary.dim * (summary.dim - 1) * abs(summary.off_diag)


def rel_ent_lower_bound(rho: DensityMatrix, tol: float = linalg.DEFAULT_TOL) -> float:
    """Closed form for the relative entropy of coherence of the twirled state.

    With w the mixing weight of the twirled state,

        (1 - 1/d) (1 - w) ln(1 - w) + (1/d) ((d - 1) w + 1) ln((d - 1) w + 1),

    evaluated with 0 ln 0 = 0 at the endpoints.  Agrees with computing
    the measure on the reconstructed output state directly.
    """
    summary = twirl.twirl_params(rho)
    d, w = summary.dim, summary.weight
    if d == 1:
        return 0.0
    lo = -1.0 / (d - 1)
    if not (lo - tol <= w <= 1.0 + tol):
        raise ParamOutOfRangeError(f"weight {w:.12g} outside [{lo:.12g}, 1]")
    # Clamp endpoint noise so the log arguments stay nonnegative.
    u = max(0.0, 1.0 - w)
    v = max(0.0, (d - 1) * w + 1.0)
    term_u = (1.0 - 1.0 / d) * (u * np.log(u) if u > 0 else 0.0)
    term_v = (1.0 / d) * (v * np.log(v) if v > 0 else 0.0)
    return float(term_u + term_v)


def coherence_value(rho: DensityMatrix, measure: str) -> float:
    measure = _check_measure(measure)
    if measure == MEASURE_L1:
        return l1_coherence(rho)
    return rel_ent_coherence(rho)


def coherence_lower_bound(rho: DensityMatrix, measure: str) -> float:
    measure = _check_measure(measure)
    if measure == MEASURE_L1:
        return l1_lower_bound(rho)
    return rel_ent_lower_bound(rho)


def coherence_report(rho: DensityMatrix, measure: str) -> CoherenceReport:
    """Measure value, its twirl lower bound, and the (nonnegative) gap."""
    value = coherence_value(rho, measure)
    bound = coherence_lower_bound(rho, measure)
    return CoherenceReport(
        measure=measure, value=value, lower_bound=bound, gap=value - bound
    )


def _haar_isometry(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """m x r matrix with Haar-distributed orthonormal columns (m >= r)."""
    g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    q, upper = np.linalg.qr(g)
    phases = np.diag(upper).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def _pure_l1_terms(w_cols: np.ndarray) -> float:
    # For unnormalized columns w_k: sum_k q_k C_l1(psi_k)
    #   = sum_k [ (sum_i |w_ik|)^2 - q_k ]  with q_k = sum_i |w_ik|^2.
    mags = np.abs(w_cols)
    return float((mags.sum(axis=0) ** 2).sum() - (mags**2).sum())


def _pure_rel_ent_terms(w_cols: np.ndarray) -> float:
    # sum_k q_k S(diag(psi_k)); the states are pure, so S(psi_k) = 0.
    probs = np.abs(w_cols) ** 2
    q = probs.sum(axis=0)
    total = -_xlogx(probs).sum()
    return float(total + _xlogx(q).sum())


def assistance_estimate(
    rho: DensityMatrix, measure: str, samples: int, seed: int
) -> AssistanceEstimate:
    """Sampled lower estimate of the coherence of assistance.

    Every size-m decomposition of rho corresponds to an m x r isometry U
    (r = rank): the unnormalized members are the columns of B U^dagger
    where B = V sqrt(Lambda) from the eigendecomposition.  Ensemble sizes
    cycle through r, ..., d + EXTRA_ENSEMBLE_SIZES; isometries are Haar
    samples.  Deterministic given ``seed``.
    """
    _require_monopartite(rho)
    measure = _check_measure(measure)
    if samples < 1:
        raise SampleCountError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    w, v = linalg.hermitian_eigen(rho.mat)
    keep = w > ASSIST_RANK_FLOOR
    lam = w[keep]
    b = v[:, keep] * np.sqrt(lam)
    rank = int(lam.size)
    sizes = list(range(rank, rho.d + EXTRA_ENSEMBLE_SIZES + 1))
    term = _pure_l1_terms if measure == MEASURE_L1 else _pure_rel_ent_terms
    scores = []
    for i in range(samples):
        m = sizes[i % len(sizes)]
        u = _haar_isometry(m, rank, rng)
        scores.append(term(b @ u.conj().T))
    # np.max keeps a NaN score wherever it falls; built-in max drops it
    best = float(np.max(scores))
    return AssistanceEstimate(measure=measure, value=best, samples=samples, seed=seed)
