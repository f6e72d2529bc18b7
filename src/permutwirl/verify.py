"""Self-check suite behind the ``verify`` CLI command.

Each check exercises one contract of the channel implementation (oracle
equivalence, channel axioms, output-state structure, coherence bounds,
bipartite closed forms, separability geometry).

A check is a generator ``check(dmax, samples, rng)`` that yields its
residuals: one float per measured quantity, or one tuple per row when it
measures several results.  A check that measures a whole stack of
matrices at once may ``yield from`` its residual array.  It has one
``_CHECKS`` row, ``(check, (name, tol), ...)``, which names each result
and its tolerance.  ``run_suite`` reduces each result's residuals to the
worst one and compares it with the tolerance; a check holds no
accumulator and returns no tolerance.

The checks draw their random matrices one stack per dimension, and every
check shares one generator: a stacked draw consumes the stream as the
sequential draws would, so the draws and residuals do not depend on how
a check is vectorised.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherence, entanglement, linalg, states, sweeps, twirl
from .errors import DimensionTooLargeError, PermutwirlError

DEFAULT_DMAX = 5
DEFAULT_SAMPLES = 100
DEFAULT_SEED = 20817
# Largest ``samples``: a check holds each d's sampled stack and all of its
# residuals at once.  At the limit, ``verify --dmax 3`` peaks at 185 MiB RSS
# (101 MiB at ``--dmax 2``).
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


def _worst(*values) -> float:
    """The largest of ``values``, or NaN if any of them is NaN.

    Built-in ``max`` drops a NaN that is not its first argument, so a NaN
    residual would read as a pass.
    """
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _density_stacks(dmax: int, samples: int, rng):
    """Yield ``(d, stack)``: ``samples`` random densities, drawn as one stack,
    for each d in 2..dmax."""
    for d in range(2, dmax + 1):
        yield d, states.random_density_stack(d, samples, rng)


def _matrix_stacks(dmax: int, samples: int, rng):
    """Yield ``(d, stack)``: ``samples`` random densities, then ``samples``
    random Hermitian matrices, for each d in 2..dmax."""
    for d in range(2, dmax + 1):
        yield d, np.concatenate(
            [
                states.random_density_stack(d, samples, rng),
                states.random_hermitian_stack(d, samples, rng),
            ]
        )


def check_closed_form_matches_bruteforce(dmax, samples, rng):
    for _, mats in _matrix_stacks(dmax, samples, rng):
        for mat in mats:
            yield linalg.max_abs_diff(
                twirl.twirl_bruteforce(mat), twirl.twirl_closed_form(mat)
            )


def check_idempotence(dmax, samples, rng):
    for _, mats in _matrix_stacks(dmax, samples, rng):
        once = twirl.twirl_closed_form(mats)
        yield from linalg.max_abs_diffs(twirl.twirl_closed_form(once), once)


def check_unitality(dmax, samples, rng):
    for d in range(1, dmax + 1):
        eye = np.eye(d, dtype=complex)
        yield linalg.max_abs_diff(twirl.twirl_closed_form(eye), eye)
        yield linalg.max_abs_diff(twirl.twirl_bruteforce(eye), eye)


def check_self_adjointness(dmax, samples, rng):
    for d in range(2, dmax + 1):
        pairs = states.random_hermitian_stack(d, 2 * samples, rng)
        xs, ys = pairs[0::2], pairs[1::2]
        for x, y, tx, ty in zip(
            xs, ys, twirl.twirl_closed_form(xs), twirl.twirl_closed_form(ys)
        ):
            yield abs(linalg.hs_inner(tx, y) - linalg.hs_inner(x, ty))


def check_transpose_covariance(dmax, samples, rng):
    for _, mats in _matrix_stacks(dmax, samples, rng):
        yield from linalg.max_abs_diffs(
            twirl.twirl_closed_form(mats).swapaxes(-1, -2),
            twirl.twirl_closed_form(mats.swapaxes(-1, -2)),
        )


def check_permutation_invariance(dmax, samples, rng):
    for d, mats in _matrix_stacks(dmax, samples, rng):
        for out in twirl.twirl_closed_form(mats):
            tau = tuple(rng.permutation(d))
            yield linalg.max_abs_diff(states.conjugate_by_permutation(out, tau), out)


def check_trace_and_positivity(dmax, samples, rng):
    for _, mats in _density_stacks(dmax, samples, rng):
        out = twirl.twirl_closed_form(mats)
        trace_gap = np.trace(out, axis1=-2, axis2=-1) - 1.0
        w, _ = linalg.hermitian_eigen(out)
        # np.hypot, not np.abs: it keeps the bits of abs() of one complex
        rows = np.column_stack([np.hypot(trace_gap.real, trace_gap.imag), -w[:, 0]])
        yield from rows.ravel()


def check_qubit_bloch_image(dmax, samples, rng):
    r = np.array([states.random_bloch(rng) for _ in range(BLOCH_SAMPLES)])
    out = twirl.twirl_closed_form(states.qubit_stack_from_bloch(r))
    for r_k, out_k in zip(r, out):
        image = states.bloch_of_qubit(states.DensityMatrix(out_k, (2,)))
        yield np.max(np.abs(image - np.array([r_k[0], 0.0, 0.0])))


def check_output_state_reconstruction(dmax, samples, rng):
    for d, mats in _density_stacks(dmax, samples, rng):
        rebuilt = twirl.output_state_stack(d, twirl.off_diagonal_means(mats))
        for mat, rebuilt_k in zip(mats, rebuilt):
            yield linalg.max_abs_diff(rebuilt_k, twirl.twirl_bruteforce(mat))


def check_output_state_eigenvalues(dmax, samples, rng):
    for d, mats in _density_stacks(dmax, samples, rng):
        off_diag = twirl.off_diagonal_means(mats)
        weight = d * off_diag
        w, _ = linalg.hermitian_eigen(twirl.output_state_stack(d, off_diag))
        rest = (1 - weight) / d
        expect = np.sort(
            np.column_stack([weight + rest] + [rest] * (d - 1)), axis=-1
        )
        yield from np.max(np.abs(w - expect), axis=-1)


def check_parameter_bounds(dmax, samples, rng):
    # -1/(d(d-1)) <= (d lmin - 1)/(d(d-1)) <= off_diag
    #             <= (d lmax - 1)/(d(d-1)) <= 1/d
    for d, mats in _density_stacks(dmax, samples, rng):
        denom = d * (d - 1)
        a = twirl.off_diagonal_means(mats)
        w, _ = linalg.hermitian_eigen(mats)
        lo_chain = (d * w[:, 0] - 1.0) / denom
        hi_chain = (d * w[:, -1] - 1.0) / denom
        rows = np.column_stack(
            [-1.0 / denom - lo_chain, lo_chain - a, a - hi_chain, hi_chain - 1.0 / d]
        )
        yield from rows.ravel()


def check_coherence_gap_l1(dmax, samples, rng):
    for _, mats in _density_stacks(min(dmax, 5), COHERENCE_SAMPLES, rng):
        yield from -(coherence.l1_coherences(mats) - coherence.l1_lower_bounds(mats))


def check_coherence_gap_relent(dmax, samples, rng):
    for _, mats in _density_stacks(min(dmax, 5), COHERENCE_SAMPLES, rng):
        yield from -(coherence.rel_ent_coherences(mats) - coherence.rel_ent_lower_bounds(mats))


def check_l1_bound_formula(dmax, samples, rng):
    # The stacked bound against the formula on each state's scalar summary,
    # bit for bit (tol 0).
    for d, mats in _density_stacks(dmax, samples, rng):
        formula = [
            d * (d - 1) * abs(twirl.twirl_params(states.DensityMatrix(mat, (d,))).off_diag)
            for mat in mats
        ]
        yield from np.abs(coherence.l1_lower_bounds(mats) - formula)


def check_relent_bound_eigen_route(dmax, samples, rng):
    for d, mats in _density_stacks(dmax, samples, rng):
        direct = coherence.rel_ent_lower_bounds(mats)
        rebuilt = twirl.output_state_stack(d, twirl.off_diagonal_means(mats))
        yield from np.abs(direct - coherence.rel_ent_coherences(rebuilt))


def check_l1_tight_for_nonneg_real(dmax, samples, rng):
    for d in range(2, dmax + 1):
        mats = []
        for _ in range(samples):
            g = rng.uniform(0.0, 1.0, size=(d, d))
            mat = g @ g.T
            mat /= np.trace(mat)
            mats.append(states.validate_density(mat).mat)
        yield from np.abs(coherence.l1_coherences(mats) - coherence.l1_lower_bounds(mats))


def check_figure_curves(dmax, samples, rng):
    # rows: (l1 curve residual, relent ordering residual)
    arr = np.array(sweeps.qubit_sweep_rows(0.1, 0.1, 200))
    r1, l1_rho, l1_star = arr[:, 0], arr[:, 1], arr[:, 2]
    relent_rho, relent_star = arr[:, 3], arr[:, 4]
    yield np.max(np.abs(l1_rho - np.sqrt(r1**2 + 0.01))), -np.min(np.diff(relent_rho))
    yield np.max(np.abs(l1_star - r1)), -np.min(np.diff(relent_star))
    yield 0.0, -np.min(relent_rho - relent_star)


def check_one_sided_bruteforce(dmax, samples, rng):
    for dims in BIPARTITE_PAIRS:
        mats = states.random_density_stack(dims[0] * dims[1], BIPARTITE_SAMPLES, rng)
        sides = (linalg.SIDE_A, linalg.SIDE_B)
        outs = [twirl.twirl_one_sided(mats, dims, side) for side in sides]
        for k, mat in enumerate(mats):
            for side, out in zip(sides, outs):
                yield linalg.max_abs_diff(
                    out[k], twirl.twirl_one_sided_bruteforce(mat, dims, side)
                )


def check_two_sided_bruteforce(dmax, samples, rng):
    for dims in BIPARTITE_PAIRS:
        for mat in states.random_density_stack(dims[0] * dims[1], BIPARTITE_SAMPLES, rng):
            out, coeffs = twirl.twirl_two_sided(mat, dims)
            yield linalg.max_abs_diff(out, twirl.twirl_two_sided_bruteforce(mat, dims))
            yield linalg.max_abs_diff(out, twirl.coefficients_to_matrix(coeffs))


def check_two_qubit_eigenvalue_formula(dmax, samples, rng):
    mats = states.random_density_stack(4, BIPARTITE_SAMPLES, rng)
    out, cf = twirl.twirl_two_sided(mats, (2, 2))
    w, _ = linalg.hermitian_eigen(out)
    c0, c1, c2, c3 = cf.c0.real, cf.c1.real, cf.c2.real, cf.c3.real
    expect = np.sort(
        np.column_stack(
            [c0 + c1 + c2 + c3, c0 + c1 - c2 - c3, c0 - c1 + c2 - c3, c0 - c1 - c2 + c3]
        ),
        axis=-1,
    )
    yield from np.max(np.abs(w - expect), axis=-1)


def check_two_qubit_outputs_separable(dmax, samples, rng):
    mats = states.random_density_stack(4, TWO_QUBIT_SAMPLES, rng)
    one_sided = twirl.twirl_one_sided(mats, (2, 2), linalg.SIDE_A)
    two_sided = twirl.twirl_two_sided(mats, (2, 2))[0]
    outs = np.stack([one_sided, two_sided], axis=1).reshape(-1, 4, 4)
    min_eig = entanglement.min_pt_eigenvalues(outs, (2, 2))
    yield from -min_eig
    # for 2x2, PPT is separable_verdict's rule for SEPARABLE: each output
    # that is not PPT also yields 1.0
    yield from np.ones(np.count_nonzero(~(min_eig >= -entanglement.PPT_TOL)))


def check_entanglement_breaking(dmax, samples, rng):
    for d in range(2, 7):
        cert = twirl.entanglement_breaking_certificate(d, tol=1e-12)
        yield cert.residual
        yield abs(sum(cert.weights) - 1.0)
        yield from (-w for w in cert.weights)


def check_choi_ppt(dmax, samples, rng):
    for d in range(2, 7):
        yield -entanglement.is_ppt(twirl.choi_matrix(d), tol=1e-12).min_eig_pt


def check_bell_geometry(dmax, samples, rng):
    # one row: (octahedron/PPT disagreements, one-sided image residual)
    t, rho = sweeps.bell_lattice(BELL_GRID)
    member = entanglement.bell_octahedron_members(t, tol=1e-9)
    ppt = entanglement.min_pt_eigenvalues(rho, (2, 2)) >= -1e-9
    image = twirl.twirl_one_sided(rho, (2, 2), linalg.SIDE_A)
    segment = np.zeros_like(t)
    segment[:, 0] = t[:, 0]
    expect = states.bell_diagonal_stack(segment)
    yield float(np.count_nonzero(member != ppt)), linalg.max_abs_diff(image, expect)


def check_collective_bruteforce(dmax, samples, rng):
    for d in range(2, min(dmax, 5) + 1):
        for x in states.random_hermitian_stack(d * d, COLLECTIVE_SAMPLES, rng):
            yield linalg.max_abs_diff(
                twirl.collective_twirl(x, d), twirl.collective_twirl_bruteforce(x, d)
            )


# Each check with the (name, tol) of each result it measures, in run
# order; each name and its tolerance are written here only.
_CHECKS = (
    (check_closed_form_matches_bruteforce, ("closed_form_matches_bruteforce", 1e-10)),
    (check_idempotence, ("idempotence", 1e-10)),
    (check_unitality, ("unitality", 1e-10)),
    (check_self_adjointness, ("self_adjointness", 1e-10)),
    (check_transpose_covariance, ("transpose_covariance", 1e-10)),
    (check_permutation_invariance, ("permutation_invariance", 1e-10)),
    (check_trace_and_positivity, ("trace_and_positivity_preserved", 1e-10)),
    (check_qubit_bloch_image, ("qubit_bloch_image", 1e-12)),
    (check_output_state_reconstruction, ("output_state_reconstruction", 1e-12)),
    (check_output_state_eigenvalues, ("output_state_eigenvalues", 1e-10)),
    (check_parameter_bounds, ("parameter_bounds", 1e-10)),
    (check_coherence_gap_l1, ("coherence_gap_l1", 1e-10)),
    (check_coherence_gap_relent, ("coherence_gap_relent", 1e-10)),
    (check_l1_bound_formula, ("l1_bound_equals_formula", 0.0)),
    (check_relent_bound_eigen_route, ("relent_bound_eigen_route", 1e-9)),
    (check_l1_tight_for_nonneg_real, ("l1_bound_tight_for_nonneg_real", 1e-10)),
    (check_one_sided_bruteforce, ("one_sided_matches_bruteforce", 1e-10)),
    (check_two_sided_bruteforce, ("two_sided_matches_nested_bruteforce", 1e-10)),
    (check_two_qubit_eigenvalue_formula, ("two_qubit_eigenvalue_formula", 1e-10)),
    (check_two_qubit_outputs_separable, ("two_qubit_outputs_separable", 1e-10)),
    (check_entanglement_breaking, ("entanglement_breaking_certificate", 1e-12)),
    (check_choi_ppt, ("choi_matrix_ppt", 1e-12)),
    (
        check_figure_curves,
        ("qubit_sweep_l1_curves", 1e-10),
        ("qubit_sweep_relent_ordering", 1e-10),
    ),
    (
        check_bell_geometry,
        ("bell_octahedron_ppt_agreement", 0.0),
        ("bell_one_sided_image", 1e-12),
    ),
    (check_collective_bruteforce, ("collective_matches_bruteforce", 1e-10)),
)


def run_suite(
    dmax: int = DEFAULT_DMAX,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run every check; deterministic given (dmax, samples, seed).

    Each result's worst residual is ``_worst(0.0, *residuals)``, so NaN is
    kept and a zero worst reads 0.0.  A check that raises is reported as
    failed with a NaN residual and its declared tol under each of its
    names in ``_CHECKS``, so the names and their order do not depend on
    how a check ended.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if dmax > MAX_DMAX:
        raise ValueError(f"dmax must be <= {MAX_DMAX}, got {dmax}")
    if samples > MAX_SAMPLES:
        raise DimensionTooLargeError(
            f"samples {samples} exceeds the limit of {MAX_SAMPLES}: each check "
            "holds all of its sampled matrices and residuals at once"
        )
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for check, *measured in _CHECKS:
        try:
            rows = np.array(list(check(dmax, samples, rng)), dtype=float)
            columns = rows.reshape(-1, len(measured)).T
        except (PermutwirlError, ValueError, ArithmeticError):
            # A faulty kernel's NaN output makes later consumers (the
            # eigensolver, input validation) raise: report, do not stop.
            columns = np.full((len(measured), 1), math.nan)
        for (name, tol), column in zip(measured, columns, strict=True):
            worst = _worst(0.0, *column)
            results.append(CheckResult(name, worst, tol, worst <= tol))
    return results
