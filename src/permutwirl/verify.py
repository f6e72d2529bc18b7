"""Self-check suite behind the ``verify`` CLI command.

Each check exercises one contract of the channel implementation (oracle
equivalence, channel axioms, output-state structure, coherence bounds,
bipartite closed forms, separability geometry) and reports its worst
residual against a fixed tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherence, entanglement, linalg, states, sweeps, twirl
from .errors import PermutwirlError

DEFAULT_DMAX = 5
DEFAULT_SAMPLES = 100
DEFAULT_SEED = 20817

BIPARTITE_PAIRS = ((2, 2), (2, 3), (3, 3), (3, 4))
BIPARTITE_SAMPLES = 50
TWO_QUBIT_SAMPLES = 500
COHERENCE_SAMPLES = 1000
BLOCH_SAMPLES = 1000
BELL_GRID = 21


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tol: float
    passed: bool


# What a check measures: its worst residual and the tolerance it holds it to.
Measured = tuple[float, float]


def _worst(*values) -> float:
    """The largest of ``values``, or NaN if any of them is NaN.

    Built-in ``max`` drops a NaN that is not its first argument, so a NaN
    residual would read as a pass.
    """
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _result(name: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(
        name=name, max_residual=float(residual), tol=tol, passed=bool(residual <= tol)
    )


def _sample_matrices(d: int, samples: int, rng) -> list[np.ndarray]:
    mats = [states.random_density(d, rng).mat for _ in range(samples)]
    mats += [states.random_hermitian(d, rng) for _ in range(samples)]
    return mats


def check_closed_form_matches_bruteforce(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for mat in _sample_matrices(d, samples, rng):
            worst = _worst(
                worst,
                linalg.max_abs_diff(
                    twirl.twirl_bruteforce(mat), twirl.twirl_closed_form(mat)
                ),
            )
    return worst, 1e-10


def check_idempotence(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for mat in _sample_matrices(d, samples, rng):
            once = twirl.twirl_closed_form(mat)
            worst = _worst(
                worst, linalg.max_abs_diff(twirl.twirl_closed_form(once), once)
            )
    return worst, 1e-10


def check_unitality(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(1, dmax + 1):
        eye = np.eye(d, dtype=complex)
        worst = _worst(worst, linalg.max_abs_diff(twirl.twirl_closed_form(eye), eye))
        worst = _worst(worst, linalg.max_abs_diff(twirl.twirl_bruteforce(eye), eye))
    return worst, 1e-10


def check_self_adjointness(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for _ in range(samples):
            x = states.random_hermitian(d, rng)
            y = states.random_hermitian(d, rng)
            lhs = linalg.hs_inner(twirl.twirl_closed_form(x), y)
            rhs = linalg.hs_inner(x, twirl.twirl_closed_form(y))
            worst = _worst(worst, abs(lhs - rhs))
    return worst, 1e-10


def check_transpose_covariance(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for mat in _sample_matrices(d, samples, rng):
            worst = _worst(
                worst,
                linalg.max_abs_diff(
                    twirl.twirl_closed_form(mat).T, twirl.twirl_closed_form(mat.T)
                ),
            )
    return worst, 1e-10


def check_permutation_invariance(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for mat in _sample_matrices(d, samples, rng):
            tau = tuple(rng.permutation(d))
            out = twirl.twirl_closed_form(mat)
            worst = _worst(
                worst,
                linalg.max_abs_diff(states.conjugate_by_permutation(out, tau), out),
            )
    return worst, 1e-10


def check_trace_and_positivity(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for _ in range(samples):
            rho = states.random_density(d, rng)
            out = twirl.twirl_closed_form(rho.mat)
            worst = _worst(worst, abs(np.trace(out) - 1.0))
            w, _ = linalg.hermitian_eigen(out)
            worst = _worst(worst, 0.0, -float(w[0]))
    return worst, 1e-10


def check_qubit_bloch_image(dmax, samples, rng) -> Measured:
    worst = 0.0
    for _ in range(BLOCH_SAMPLES):
        r = states.random_bloch(rng)
        rho = states.qubit_from_bloch(r)
        out = states.DensityMatrix(twirl.twirl_closed_form(rho.mat), (2,))
        image = states.bloch_of_qubit(out)
        worst = _worst(worst, float(np.max(np.abs(image - np.array([r[0], 0.0, 0.0])))))
    return worst, 1e-12


def check_output_state_reconstruction(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for _ in range(samples):
            rho = states.random_density(d, rng)
            rebuilt = twirl.reconstruct_output_state(twirl.twirl_params(rho))
            worst = _worst(
                worst, linalg.max_abs_diff(rebuilt.mat, twirl.twirl_bruteforce(rho.mat))
            )
    return worst, 1e-12


def check_output_state_eigenvalues(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for _ in range(samples):
            rho = states.random_density(d, rng)
            summary = twirl.twirl_params(rho)
            rebuilt = twirl.reconstruct_output_state(summary)
            w, _ = linalg.hermitian_eigen(rebuilt.mat)
            expect = np.sort(
                np.array(
                    [summary.weight + (1 - summary.weight) / d]
                    + [(1 - summary.weight) / d] * (d - 1)
                )
            )
            worst = _worst(worst, float(np.max(np.abs(w - expect))))
    return worst, 1e-10


def check_parameter_bounds(dmax, samples, rng) -> Measured:
    # -1/(d(d-1)) <= (d lmin - 1)/(d(d-1)) <= off_diag
    #             <= (d lmax - 1)/(d(d-1)) <= 1/d
    worst = 0.0
    for d in range(2, dmax + 1):
        denom = d * (d - 1)
        for _ in range(samples):
            rho = states.random_density(d, rng)
            a = twirl.twirl_params(rho).off_diag
            w, _ = linalg.hermitian_eigen(rho.mat)
            lo_chain = (d * float(w[0]) - 1.0) / denom
            hi_chain = (d * float(w[-1]) - 1.0) / denom
            for violation in (
                -1.0 / denom - lo_chain,
                lo_chain - a,
                a - hi_chain,
                hi_chain - 1.0 / d,
            ):
                worst = _worst(worst, violation)
    return _worst(worst, 0.0), 1e-10


def _coherence_gap_check(measure, dmax, rng) -> Measured:
    worst = 0.0
    for d in range(2, min(dmax, 5) + 1):
        for _ in range(COHERENCE_SAMPLES):
            rho = states.random_density(d, rng)
            report = coherence.coherence_report(rho, measure)
            worst = _worst(worst, -report.gap)
    return _worst(worst, 0.0), 1e-10


def check_coherence_gap_l1(dmax, samples, rng) -> Measured:
    return _coherence_gap_check(coherence.MEASURE_L1, dmax, rng)


def check_coherence_gap_relent(dmax, samples, rng) -> Measured:
    return _coherence_gap_check(coherence.MEASURE_REL_ENT, dmax, rng)


def check_l1_bound_formula(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for _ in range(samples):
            rho = states.random_density(d, rng)
            summary = twirl.twirl_params(rho)
            formula = d * (d - 1) * abs(summary.off_diag)
            worst = _worst(worst, abs(coherence.l1_lower_bound(rho) - formula))
    return worst, 0.0


def check_relent_bound_eigen_route(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for _ in range(samples):
            rho = states.random_density(d, rng)
            direct = coherence.rel_ent_lower_bound(rho)
            rebuilt = twirl.reconstruct_output_state(twirl.twirl_params(rho))
            via_eigs = coherence.rel_ent_coherence(rebuilt)
            worst = _worst(worst, abs(direct - via_eigs))
    return worst, 1e-9


def check_l1_tight_for_nonneg_real(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, dmax + 1):
        for _ in range(samples):
            g = rng.uniform(0.0, 1.0, size=(d, d))
            mat = g @ g.T
            mat /= np.trace(mat)
            rho = states.validate_density(mat)
            report = coherence.coherence_report(rho, coherence.MEASURE_L1)
            worst = _worst(worst, abs(report.gap))
    return worst, 1e-10


def check_figure_curves(dmax, samples, rng) -> list[Measured]:
    rows = sweeps.qubit_sweep_rows(0.1, 0.1, 200)
    arr = np.array(rows)
    r1, l1_rho, l1_star = arr[:, 0], arr[:, 1], arr[:, 2]
    relent_rho, relent_star = arr[:, 3], arr[:, 4]
    worst_l1 = _worst(
        float(np.max(np.abs(l1_rho - np.sqrt(r1**2 + 0.01)))),
        float(np.max(np.abs(l1_star - r1))),
    )
    worst_mono = _worst(
        0.0,
        -float(np.min(np.diff(relent_rho))),
        -float(np.min(np.diff(relent_star))),
        -float(np.min(relent_rho - relent_star)),
    )
    return [
        (worst_l1, 1e-10),
        (worst_mono, 1e-10),
    ]


def check_one_sided_bruteforce(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d_a, d_b in BIPARTITE_PAIRS:
        for _ in range(BIPARTITE_SAMPLES):
            rho = states.random_density(d_a * d_b, rng, dims=(d_a, d_b))
            for side in (linalg.SIDE_A, linalg.SIDE_B):
                worst = _worst(
                    worst,
                    linalg.max_abs_diff(
                        twirl.twirl_one_sided(rho.mat, (d_a, d_b), side),
                        twirl.twirl_one_sided_bruteforce(rho.mat, (d_a, d_b), side),
                    ),
                )
    return worst, 1e-10


def check_two_sided_bruteforce(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d_a, d_b in BIPARTITE_PAIRS:
        for _ in range(BIPARTITE_SAMPLES):
            rho = states.random_density(d_a * d_b, rng, dims=(d_a, d_b))
            out, coeffs = twirl.twirl_two_sided(rho.mat, (d_a, d_b))
            worst = _worst(
                worst,
                linalg.max_abs_diff(
                    out, twirl.twirl_two_sided_bruteforce(rho.mat, (d_a, d_b))
                ),
            )
            worst = _worst(
                worst, linalg.max_abs_diff(out, twirl.coefficients_to_matrix(coeffs))
            )
    return worst, 1e-10


def check_two_qubit_eigenvalue_formula(dmax, samples, rng) -> Measured:
    worst = 0.0
    for _ in range(BIPARTITE_SAMPLES):
        rho = states.random_density(4, rng, dims=(2, 2))
        out, cf = twirl.twirl_two_sided(rho.mat, (2, 2))
        w, _ = linalg.hermitian_eigen(out)
        c0, c1, c2, c3 = cf.c0.real, cf.c1.real, cf.c2.real, cf.c3.real
        expect = np.sort(
            np.array(
                [c0 + c1 + c2 + c3, c0 + c1 - c2 - c3, c0 - c1 + c2 - c3, c0 - c1 - c2 + c3]
            )
        )
        worst = _worst(worst, float(np.max(np.abs(w - expect))))
    return worst, 1e-10


def check_two_qubit_outputs_separable(dmax, samples, rng) -> Measured:
    worst = 0.0
    for _ in range(TWO_QUBIT_SAMPLES):
        rho = states.random_density(4, rng, dims=(2, 2))
        one_sided = states.DensityMatrix(
            twirl.twirl_one_sided(rho.mat, (2, 2), linalg.SIDE_A), (2, 2)
        )
        two_sided = states.DensityMatrix(
            twirl.twirl_two_sided(rho.mat, (2, 2))[0], (2, 2)
        )
        for out in (one_sided, two_sided):
            report = entanglement.is_ppt(out)
            worst = _worst(worst, 0.0, -report.min_eig_pt)
            if entanglement.separable_verdict(out) is not entanglement.Verdict.SEPARABLE:
                worst = _worst(worst, 1.0)
    return worst, 1e-10


def check_entanglement_breaking(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, 7):
        cert = twirl.entanglement_breaking_certificate(d, tol=1e-12)
        worst = _worst(worst, cert.residual)
        worst = _worst(worst, abs(sum(cert.weights) - 1.0))
        worst = _worst(worst, 0.0, *(-w for w in cert.weights))
    return worst, 1e-12


def check_choi_ppt(dmax, samples, rng) -> Measured:
    worst = 0.0
    for d in range(2, 7):
        report = entanglement.is_ppt(twirl.choi_matrix(d), tol=1e-12)
        worst = _worst(worst, 0.0, -report.min_eig_pt)
    return worst, 1e-12


def check_bell_geometry(dmax, samples, rng) -> list[Measured]:
    t, rho = sweeps.bell_lattice(BELL_GRID)
    member = entanglement.bell_octahedron_members(t, tol=1e-9)
    ppt = entanglement.min_pt_eigenvalues(rho, (2, 2)) >= -1e-9
    disagreements = int(np.count_nonzero(member != ppt))
    image = twirl.twirl_one_sided(rho, (2, 2), linalg.SIDE_A)
    segment = np.zeros_like(t)
    segment[:, 0] = t[:, 0]
    expect = states.bell_diagonal_stack(segment)
    return [
        (float(disagreements), 0.0),
        (linalg.max_abs_diff(image, expect), 1e-12),
    ]


# Each check with the names of the results it measures, in run order; a
# check that raises is reported failed under all of its names.
_CHECKS = (
    (check_closed_form_matches_bruteforce, ("closed_form_matches_bruteforce",)),
    (check_idempotence, ("idempotence",)),
    (check_unitality, ("unitality",)),
    (check_self_adjointness, ("self_adjointness",)),
    (check_transpose_covariance, ("transpose_covariance",)),
    (check_permutation_invariance, ("permutation_invariance",)),
    (check_trace_and_positivity, ("trace_and_positivity_preserved",)),
    (check_qubit_bloch_image, ("qubit_bloch_image",)),
    (check_output_state_reconstruction, ("output_state_reconstruction",)),
    (check_output_state_eigenvalues, ("output_state_eigenvalues",)),
    (check_parameter_bounds, ("parameter_bounds",)),
    (check_coherence_gap_l1, ("coherence_gap_l1",)),
    (check_coherence_gap_relent, ("coherence_gap_relent",)),
    (check_l1_bound_formula, ("l1_bound_equals_formula",)),
    (check_relent_bound_eigen_route, ("relent_bound_eigen_route",)),
    (check_l1_tight_for_nonneg_real, ("l1_bound_tight_for_nonneg_real",)),
    (check_one_sided_bruteforce, ("one_sided_matches_bruteforce",)),
    (check_two_sided_bruteforce, ("two_sided_matches_nested_bruteforce",)),
    (check_two_qubit_eigenvalue_formula, ("two_qubit_eigenvalue_formula",)),
    (check_two_qubit_outputs_separable, ("two_qubit_outputs_separable",)),
    (check_entanglement_breaking, ("entanglement_breaking_certificate",)),
    (check_choi_ppt, ("choi_matrix_ppt",)),
    (check_figure_curves, ("qubit_sweep_l1_curves", "qubit_sweep_relent_ordering")),
    (check_bell_geometry, ("bell_octahedron_ppt_agreement", "bell_one_sided_image")),
)


def run_suite(
    dmax: int = DEFAULT_DMAX,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run every check; deterministic given (dmax, samples, seed).

    A check that raises is reported as failed with a NaN residual and tol
    under each of its names in ``_CHECKS``, so the names and their order
    do not depend on how a check ended.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if dmax > twirl.MAX_BRUTE_DIM:
        raise ValueError(f"dmax must be <= {twirl.MAX_BRUTE_DIM}, got {dmax}")
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for check, names in _CHECKS:
        try:
            out = check(dmax, samples, rng)
        except (PermutwirlError, ValueError, ArithmeticError):
            # A faulty kernel's NaN output makes later consumers (the
            # eigensolver, input validation) raise: report, do not stop.
            results += [
                CheckResult(name, max_residual=math.nan, tol=math.nan, passed=False)
                for name in names
            ]
            continue
        measured = out if isinstance(out, list) else [out]
        results += [
            _result(name, residual, tol)
            for name, (residual, tol) in zip(names, measured, strict=True)
        ]
    return results
