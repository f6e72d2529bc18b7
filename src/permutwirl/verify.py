"""Self-check suite behind the ``verify`` CLI command.

Each check exercises one contract of the channel implementation (oracle
equivalence, channel axioms, output-state structure, coherence bounds,
bipartite closed forms, separability geometry).

Each check has one ``_CHECKS`` row, ``(check, draw, (name, tol), ...)``.
Its draw is a generator ``draw(dmax, samples, rng)`` of argument tuples,
one per stack (per d, per dims, or one in all).  The check is a function
of one tuple: it returns the stack's residuals as one array ``(n,)`` or
``(n, k)``, whose values go to the row's names in turn.  ``run_suite``
holds the one draw loop: it runs each check on each tuple as it is drawn,
concatenates the blocks in draw order and reduces each name's residuals
to the worst one.  Every draw shares one generator, so ``_CHECKS`` fixes
the draw order and every residual bit.  A stacked draw consumes the
stream as sequential draws would, so no residual depends on how a check
is vectorised, and a check draws nothing itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherence, entanglement, linalg, states, sweeps, twirl
from .errors import DimensionTooLargeError, PermutwirlError

DEFAULT_DMAX = 5
DEFAULT_SAMPLES = 100
DEFAULT_SEED = 20817
# Largest ``samples``: a check holds each d's sampled stack, the oracle's
# output stack and all of its residuals at once.  At the limit,
# ``verify --dmax 3`` peaks at 195 MiB RSS (102 MiB at ``--dmax 2``).
MAX_SAMPLES = 100_000
# Largest ``dmax``: the single-system oracle at d gathers d! d^2 entries.
MAX_DMAX = max(
    d
    for d in range(1, states.MAX_ENUM_DIM + 1)
    if math.factorial(d) * d * d <= twirl.MAX_BRUTE_ENTRIES
)

BIPARTITE_PAIRS = ((2, 2), (2, 3), (3, 3), (3, 4))
BIPARTITE_SAMPLES = 50
TWO_QUBIT_SAMPLES = 500
COHERENCE_SAMPLES = 1000
BLOCH_SAMPLES = 1000
BELL_GRID = 21
COLLECTIVE_SAMPLES = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tol: float
    passed: bool


def _hs_inners(xs, ys) -> np.ndarray:
    # linalg.hs_inner of each pair, Tr(x^dagger y), as one stacked
    # (1, D^2) @ (D^2, 1) product of the conjugate: the bits of np.vdot
    n = len(xs)
    return (xs.conj().reshape(n, 1, -1) @ ys.reshape(n, -1, 1)).ravel()


def _densities(dmax, samples, rng):
    return ((states.random_density_stack(d, samples, rng),) for d in range(2, dmax + 1))


def _coherence_densities(dmax, samples, rng):
    return _densities(min(dmax, 5), COHERENCE_SAMPLES, rng)


def _operators(dmax, samples, rng):
    # per d, samples densities, then samples Hermitian matrices
    for d in range(2, dmax + 1):
        dens = states.random_density_stack(d, samples, rng)
        yield (np.concatenate([dens, states.random_hermitian_stack(d, samples, rng)]),)


def _permuted_operators(dmax, samples, rng):
    # each _operators stack and one permutation per matrix: permuting the rows
    # of stacked identity maps consumes the stream as rng.permutation(d) does
    for (mats,) in _operators(dmax, samples, rng):
        perms = np.broadcast_to(np.arange(mats.shape[-1]), mats.shape[:2])
        yield mats, rng.permuted(perms, axis=1)


def _hermitian_pairs(dmax, samples, rng):
    for d in range(2, dmax + 1):
        pairs = states.random_hermitian_stack(d, 2 * samples, rng)
        yield pairs[0::2], pairs[1::2]


def _real_densities(dmax, samples, rng):
    for d in range(2, dmax + 1):
        # one draw for the stack consumes the stream as per-matrix draws do
        g = rng.uniform(0.0, 1.0, size=(samples, d, d))
        mats = g @ g.swapaxes(-1, -2)
        mats /= np.trace(mats, axis1=-2, axis2=-1)[:, None, None]
        yield (states.validate_density_stack(mats),)


def _bloch_vectors(dmax, samples, rng):
    return [(np.array([states.random_bloch(rng) for _ in range(BLOCH_SAMPLES)]),)]


def _qubit_pairs(dmax, samples, rng):
    return [(states.random_density_stack(4, BIPARTITE_SAMPLES, rng),)]


def _more_qubit_pairs(dmax, samples, rng):
    return [(states.random_density_stack(4, TWO_QUBIT_SAMPLES, rng),)]


def _bipartite_states(dmax, samples, rng):
    for dims in BIPARTITE_PAIRS:
        yield states.random_density_stack(dims[0] * dims[1], BIPARTITE_SAMPLES, rng), dims


def _collective_hermitians(dmax, samples, rng):
    for d in range(2, min(dmax, 5) + 1):
        yield states.random_hermitian_stack(d * d, COLLECTIVE_SAMPLES, rng), d


def _d_1_to_dmax(dmax, samples, rng):
    return ((d,) for d in range(1, dmax + 1))


def _d_2_to_6(dmax, samples, rng):
    return ((d,) for d in range(2, 7))


def _once(dmax, samples, rng):
    return [()]


def check_closed_form_matches_bruteforce(mats):
    return linalg.max_abs_diffs(twirl.twirl_bruteforce(mats), twirl.twirl_closed_form(mats))


def check_idempotence(mats):
    once = twirl.twirl_closed_form(mats)
    return linalg.max_abs_diffs(twirl.twirl_closed_form(once), once)


def check_unitality(d):
    eye = np.eye(d, dtype=complex)
    kernels = (twirl.twirl_closed_form, twirl.twirl_bruteforce)
    return [linalg.max_abs_diff(kernel(eye), eye) for kernel in kernels]


def check_self_adjointness(xs, ys):
    tx, ty = twirl.twirl_closed_form(xs), twirl.twirl_closed_form(ys)
    gap = _hs_inners(tx, ys) - _hs_inners(xs, ty)
    # np.hypot, not np.abs: it keeps the bits of abs() of one complex
    return np.hypot(gap.real, gap.imag)


def check_transpose_covariance(mats):
    transposed = twirl.twirl_closed_form(mats.swapaxes(-1, -2))
    return linalg.max_abs_diffs(twirl.twirl_closed_form(mats).swapaxes(-1, -2), transposed)


def check_permutation_invariance(mats, perms):
    outs = twirl.twirl_closed_form(mats)
    return linalg.max_abs_diffs(states.conjugate_stack_by_permutations(outs, perms), outs)


def check_trace_and_positivity(mats):
    out = twirl.twirl_closed_form(mats)
    trace_gap = np.trace(out, axis1=-2, axis2=-1) - 1.0
    w = linalg.hermitian_eigvals(out)
    # np.hypot, not np.abs: it keeps the bits of abs() of one complex
    return np.column_stack([np.hypot(trace_gap.real, trace_gap.imag), -w[:, 0]])


def check_qubit_bloch_image(r):
    image = states.bloch_of_qubit_stack(twirl.twirl_closed_form(states.qubit_stack_from_bloch(r)))
    expect = np.zeros_like(r)
    expect[:, 0] = r[:, 0]
    return np.max(np.abs(image - expect), axis=-1)


def check_output_state_reconstruction(mats):
    rebuilt = twirl.output_state_stack(mats.shape[-1], twirl.off_diagonal_means(mats))
    return linalg.max_abs_diffs(rebuilt, twirl.twirl_bruteforce(mats))


def check_output_state_eigenvalues(mats):
    d = mats.shape[-1]
    off_diag = twirl.off_diagonal_means(mats)
    weight = d * off_diag
    w = linalg.hermitian_eigvals(twirl.output_state_stack(d, off_diag))
    rest = (1 - weight) / d
    expect = np.sort(np.column_stack([weight + rest] + [rest] * (d - 1)), axis=-1)
    return np.max(np.abs(w - expect), axis=-1)


def check_parameter_bounds(mats):
    # -1/(d(d-1)) <= (d lmin - 1)/(d(d-1)) <= off_diag
    #             <= (d lmax - 1)/(d(d-1)) <= 1/d
    d = mats.shape[-1]
    denom = d * (d - 1)
    a = twirl.off_diagonal_means(mats)
    w = linalg.hermitian_eigvals(mats)
    lo = (d * w[:, 0] - 1.0) / denom
    hi = (d * w[:, -1] - 1.0) / denom
    return np.column_stack([-1.0 / denom - lo, lo - a, a - hi, hi - 1.0 / d])


def check_coherence_gap_l1(mats):
    return -(coherence.l1_coherences(mats) - coherence.l1_lower_bounds(mats))


def check_coherence_gap_relent(mats):
    return -(coherence.rel_ent_coherences(mats) - coherence.rel_ent_lower_bounds(mats))


def check_l1_bound_formula(mats):
    # The stacked bound against the formula on each state's scalar summary,
    # bit for bit (tol 0).
    d = mats.shape[-1]
    params = [twirl.twirl_params(states.DensityMatrix(mat, (d,))) for mat in mats]
    return np.abs(coherence.l1_lower_bounds(mats) - [d * (d - 1) * abs(p.off_diag) for p in params])


def check_relent_bound_eigen_route(mats):
    direct = coherence.rel_ent_lower_bounds(mats)
    rebuilt = twirl.output_state_stack(mats.shape[-1], twirl.off_diagonal_means(mats))
    return np.abs(direct - coherence.rel_ent_coherences(rebuilt))


def check_l1_tight_for_nonneg_real(mats):
    return np.abs(coherence.l1_coherences(mats) - coherence.l1_lower_bounds(mats))


def check_figure_curves():
    # rows: (l1 curve residual, relent ordering residual)
    r1, l1_rho, l1_star, relent_rho, relent_star = sweeps.qubit_sweep_rows(0.1, 0.1, 200).T
    return [
        (np.max(np.abs(l1_rho - np.sqrt(r1**2 + 0.01))), -np.min(np.diff(relent_rho))),
        (np.max(np.abs(l1_star - r1)), -np.min(np.diff(relent_star))),
        (0.0, -np.min(relent_rho - relent_star)),
    ]


def check_one_sided_bruteforce(mats, dims):
    # per matrix, the side A residual, then the side B one
    pairs = [
        (twirl.twirl_one_sided(mats, dims, s), twirl.twirl_one_sided_bruteforce(mats, dims, s))
        for s in (linalg.SIDE_A, linalg.SIDE_B)
    ]
    return np.column_stack([linalg.max_abs_diffs(*pair) for pair in pairs])


def check_two_sided_bruteforce(mats, dims):
    out, coeffs = twirl.twirl_two_sided(mats, dims)
    # per matrix, the oracle residual, then the coefficient one
    refs = (twirl.twirl_two_sided_bruteforce(mats, dims), twirl.coefficients_to_matrix(coeffs))
    return np.column_stack([linalg.max_abs_diffs(out, ref) for ref in refs])


def check_two_qubit_eigenvalue_formula(mats):
    out, cf = twirl.twirl_two_sided(mats, (2, 2))
    w = linalg.hermitian_eigvals(out)
    c0, c1, c2, c3 = cf.c0.real, cf.c1.real, cf.c2.real, cf.c3.real
    expect = np.column_stack(
        [c0 + c1 + c2 + c3, c0 + c1 - c2 - c3, c0 - c1 + c2 - c3, c0 - c1 - c2 + c3]
    )
    return np.max(np.abs(w - np.sort(expect, axis=-1)), axis=-1)


def check_two_qubit_outputs_separable(mats):
    one_sided = twirl.twirl_one_sided(mats, (2, 2), linalg.SIDE_A)
    two_sided = twirl.twirl_two_sided(mats, (2, 2))[0]
    outs = np.stack([one_sided, two_sided], axis=1).reshape(-1, 4, 4)
    min_eig = entanglement.min_pt_eigenvalues(outs, (2, 2))
    # for 2x2, PPT is separable_verdict's rule for SEPARABLE: each output
    # that is not PPT also yields 1.0
    not_ppt = np.count_nonzero(~(min_eig >= -entanglement.PPT_TOL))
    return np.concatenate([-min_eig, np.ones(not_ppt)])


def check_entanglement_breaking(d):
    cert = twirl.entanglement_breaking_certificate(d, tol=1e-12)
    return [cert.residual, abs(sum(cert.weights) - 1.0), *(-w for w in cert.weights)]


def check_choi_ppt(d):
    return [-entanglement.is_ppt(twirl.choi_matrix(d), tol=1e-12).min_eig_pt]


def check_bell_geometry():
    # one row: (octahedron/PPT disagreements, one-sided image residual)
    t, rho = sweeps.bell_lattice(BELL_GRID)
    member = entanglement.bell_octahedron_members(t, tol=1e-9)
    ppt = entanglement.min_pt_eigenvalues(rho, (2, 2)) >= -1e-9
    image = twirl.twirl_one_sided(rho, (2, 2), linalg.SIDE_A)
    segment = np.zeros_like(t)
    segment[:, 0] = t[:, 0]
    expect = states.bell_diagonal_stack(segment)
    return [(float(np.count_nonzero(member != ppt)), linalg.max_abs_diff(image, expect))]


def check_collective_bruteforce(xs, d):
    out = twirl.collective_twirl(xs, d)
    return linalg.max_abs_diffs(out, twirl.collective_twirl_bruteforce(xs, d))


# Each check with its draw and the (name, tol) of each result it measures,
# in run order; each name and its tolerance are written here only.
_CHECKS = (
    (check_closed_form_matches_bruteforce, _operators, ("closed_form_matches_bruteforce", 1e-10)),
    (check_idempotence, _operators, ("idempotence", 1e-10)),
    (check_unitality, _d_1_to_dmax, ("unitality", 1e-10)),
    (check_self_adjointness, _hermitian_pairs, ("self_adjointness", 1e-10)),
    (check_transpose_covariance, _operators, ("transpose_covariance", 1e-10)),
    (check_permutation_invariance, _permuted_operators, ("permutation_invariance", 1e-10)),
    (check_trace_and_positivity, _densities, ("trace_and_positivity_preserved", 1e-10)),
    (check_qubit_bloch_image, _bloch_vectors, ("qubit_bloch_image", 1e-12)),
    (check_output_state_reconstruction, _densities, ("output_state_reconstruction", 1e-12)),
    (check_output_state_eigenvalues, _densities, ("output_state_eigenvalues", 1e-10)),
    (check_parameter_bounds, _densities, ("parameter_bounds", 1e-10)),
    (check_coherence_gap_l1, _coherence_densities, ("coherence_gap_l1", 1e-10)),
    (check_coherence_gap_relent, _coherence_densities, ("coherence_gap_relent", 1e-10)),
    (check_l1_bound_formula, _densities, ("l1_bound_equals_formula", 0.0)),
    (check_relent_bound_eigen_route, _densities, ("relent_bound_eigen_route", 1e-9)),
    (check_l1_tight_for_nonneg_real, _real_densities, ("l1_bound_tight_for_nonneg_real", 1e-10)),
    (check_one_sided_bruteforce, _bipartite_states, ("one_sided_matches_bruteforce", 1e-10)),
    (check_two_sided_bruteforce, _bipartite_states, ("two_sided_matches_nested_bruteforce", 1e-10)),
    (check_two_qubit_eigenvalue_formula, _qubit_pairs, ("two_qubit_eigenvalue_formula", 1e-10)),
    (check_two_qubit_outputs_separable, _more_qubit_pairs, ("two_qubit_outputs_separable", 1e-10)),
    (check_entanglement_breaking, _d_2_to_6, ("entanglement_breaking_certificate", 1e-12)),
    (check_choi_ppt, _d_2_to_6, ("choi_matrix_ppt", 1e-12)),
    (
        check_figure_curves,
        _once,
        ("qubit_sweep_l1_curves", 1e-10),
        ("qubit_sweep_relent_ordering", 1e-10),
    ),
    (
        check_bell_geometry,
        _once,
        ("bell_octahedron_ppt_agreement", 0.0),
        ("bell_one_sided_image", 1e-12),
    ),
    (check_collective_bruteforce, _collective_hermitians, ("collective_matches_bruteforce", 1e-10)),
)


def _residuals(row, dmax: int, samples: int, rng) -> np.ndarray:
    """One ``_CHECKS`` row's residuals, one row of the result per name: its
    check on each drawn stack, concatenated in draw order."""
    check, draw, *measured = row
    blocks = [np.empty((0, len(measured)))]  # a draw may yield nothing (dmax = 1)
    for args in draw(dmax, samples, rng):
        blocks.append(np.asarray(check(*args), dtype=float).reshape(-1, len(measured)))
    return np.concatenate(blocks).T


def run_suite(
    dmax: int = DEFAULT_DMAX,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run every check; deterministic given (dmax, samples, seed).

    Each result's worst residual is the largest of 0.0 and its residuals,
    in one reduction: a NaN residual makes it NaN, and a worst of -0.0
    reads 0.0.  A check that raises is reported as failed with a NaN
    residual and its declared tol under each of its names in ``_CHECKS``,
    so the names and their order do not depend on how a check ended.
    """
    dmax = linalg._check_count(dmax, "dmax", 1, ValueError)
    samples = linalg._check_count(samples, "samples", 1, ValueError)
    if dmax > MAX_DMAX:
        raise ValueError(f"dmax must be <= {MAX_DMAX}, got {dmax}")
    if samples > MAX_SAMPLES:
        raise DimensionTooLargeError(
            f"samples {samples} exceeds the limit of {MAX_SAMPLES}: each check "
            "holds all of its sampled matrices and residuals at once"
        )
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for row in _CHECKS:
        measured = row[2:]
        try:
            columns = _residuals(row, dmax, samples, rng)
        except (PermutwirlError, ValueError, ArithmeticError):
            # A faulty kernel's NaN output makes later consumers (the
            # eigensolver, input validation) raise: report, do not stop.
            columns = np.full((len(measured), 1), math.nan)
        # np.max keeps a NaN wherever it is; + 0.0 turns a worst of -0.0 into 0.0
        worsts = np.max(columns, axis=1, initial=0.0) + 0.0
        for (name, tol), worst in zip(measured, worsts.tolist(), strict=True):
            results.append(CheckResult(name, worst, tol, worst <= tol))
    return results
