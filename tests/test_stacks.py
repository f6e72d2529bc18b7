"""Each stacked function against its scalar row, bit for bit.

A stacked path takes an ``(n, d, d)`` stack where the scalar path takes one
matrix; the two must give the same bits, row by row, and refuse a NaN row
with the same error class.
"""

from functools import partial

import numpy as np
import pytest

from permutwirl import coherence, entanglement, linalg, states, sweeps, twirl, verify
from permutwirl.errors import (
    NotHermitianError,
    NotPositiveError,
    PermutwirlError,
    TraceNotOneError,
)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint64) if a.ndim else a.reshape(1).view(np.uint64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("n", [1, 7, 100])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "stacked, single",
    [
        (states.random_density_stack, lambda d, rng: states.random_density(d, rng).mat),
        (states.random_hermitian_stack, states.random_hermitian),
    ],
    ids=["density", "hermitian"],
)
def test_random_stack_matches_sequential_draws(stacked, single, d, n):
    rng_stack, rng_seq = np.random.default_rng(d * 100 + n), np.random.default_rng(d * 100 + n)
    got = stacked(d, n, rng_stack)
    assert_same_bits(got, np.stack([single(d, rng_seq) for _ in range(n)]))
    assert rng_stack.bit_generator.state == rng_seq.bit_generator.state


def _densities(d):
    # random states of side d, a rank-1 pure state and the maximally
    # coherent state: every d = 1 row is the 1 x 1 state [[1]]
    rng = np.random.default_rng(40 + d)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    pure = np.outer(psi, psi.conj())
    return np.concatenate(
        [
            states.random_density_stack(d, 20, rng),
            [pure, states.maximally_coherent_state(d).mat],
        ]
    )


def _matrices(d):
    rng = np.random.default_rng(50 + d)
    return np.concatenate([_densities(d), states.random_hermitian_stack(d, 20, rng)])


DIMS = [1, 2, 3, 5, 8]


@pytest.mark.parametrize("d", DIMS)
def test_closed_form_stack_rows(d):
    mats = _matrices(d)
    for source in (mats, mats.swapaxes(-1, -2)):
        assert_same_bits(
            twirl.twirl_closed_form(source),
            np.stack([twirl.twirl_closed_form(m) for m in source]),
        )


@pytest.mark.parametrize("d", DIMS)
def test_hermitian_eigen_stack_rows(d):
    mats = _matrices(d)
    w, v = linalg.hermitian_eigen(mats)
    rows = [linalg.hermitian_eigen(m) for m in mats]
    assert_same_bits(w, np.stack([r[0] for r in rows]))
    assert_same_bits(v, np.stack([r[1] for r in rows]))
    assert_same_bits(
        linalg.hermitian_eigvals(mats), np.stack([linalg.hermitian_eigvals(m) for m in mats])
    )


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize(
    "stacked, scalar",
    [
        (coherence.l1_coherences, coherence.l1_coherence),
        (coherence.rel_ent_coherences, coherence.rel_ent_coherence),
        (coherence.l1_lower_bounds, coherence.l1_lower_bound),
        (coherence.rel_ent_lower_bounds, coherence.rel_ent_lower_bound),
        (twirl.off_diagonal_means, lambda rho: twirl.twirl_params(rho).off_diag),
    ],
    ids=["l1", "relent", "l1-bound", "relent-bound", "off-diag"],
)
def test_coherence_stack_rows(stacked, scalar, d):
    mats = _densities(d)
    want = [scalar(states.DensityMatrix(m, (d,))) for m in mats]
    assert_same_bits(stacked(mats), np.array(want))


@pytest.mark.parametrize("d", DIMS)
def test_output_state_stack_rows(d):
    rhos = [states.DensityMatrix(m, (d,)) for m in _densities(d)]
    summaries = [twirl.twirl_params(rho) for rho in rhos]
    got = twirl.output_state_stack(d, [s.off_diag for s in summaries])
    assert_same_bits(got, np.stack([twirl.reconstruct_output_state(s).mat for s in summaries]))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_bipartite_stack_rows(dims):
    mats = _densities(dims[0] * dims[1])
    out, coeffs = twirl.twirl_two_sided(mats, dims)
    rows = [twirl.twirl_two_sided(m, dims) for m in mats]
    assert_same_bits(out, np.stack([r[0] for r in rows]))
    for field in ("c0", "c1", "c2", "c3", "overlap_a", "overlap_b", "overlap_ab"):
        assert_same_bits(getattr(coeffs, field), np.array([getattr(r[1], field) for r in rows]))
    for side in ("A", "B"):
        reports = [entanglement.is_ppt(states.DensityMatrix(m, dims), side=side) for m in mats]
        assert_same_bits(
            entanglement.min_pt_eigenvalues(mats, dims, side),
            np.array([r.min_eig_pt for r in reports]),
        )


def test_qubit_stack_rows():
    rng = np.random.default_rng(61)
    r = [states.random_bloch(rng) for _ in range(50)] + [[0.0, -0.0, 0.0], [1.0, 0.0, 0.0]]
    assert_same_bits(
        states.qubit_stack_from_bloch(r), np.stack([states.qubit_from_bloch(v).mat for v in r])
    )


def test_max_abs_diffs_rows():
    a, b = _matrices(3), _matrices(3)[::-1]
    assert_same_bits(
        linalg.max_abs_diffs(a, b), np.array([linalg.max_abs_diff(x, y) for x, y in zip(a, b)])
    )


def _error_class(call):
    with pytest.raises((PermutwirlError, ValueError, ArithmeticError)) as caught:
        call()
    return caught.type


@pytest.mark.parametrize(
    "stacked, scalar",
    [
        (twirl.twirl_closed_form, lambda rho: twirl.twirl_closed_form(rho.mat)),
        (linalg.hermitian_eigen, lambda rho: linalg.hermitian_eigen(rho.mat)),
        (coherence.l1_coherences, coherence.l1_coherence),
        (coherence.rel_ent_coherences, coherence.rel_ent_coherence),
        (coherence.l1_lower_bounds, coherence.l1_lower_bound),
        (coherence.rel_ent_lower_bounds, coherence.rel_ent_lower_bound),
        (twirl.off_diagonal_means, twirl.twirl_params),
    ],
    ids=["closed-form", "eigen", "l1", "relent", "l1-bound", "relent-bound", "off-diag"],
)
@pytest.mark.parametrize("entry", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
def test_nan_row_raises_the_scalar_error_class(stacked, scalar, entry):
    mats = _densities(3)
    mats[5][entry] = np.nan
    want = _error_class(lambda: scalar(states.DensityMatrix(mats[5], (3,))))
    assert _error_class(lambda: stacked(mats)) is want


def _oracle_cases():
    # (id, oracle(x), side D): the single-system oracle for d = 1..7, both
    # one-sided oracles and the two-sided one on four pairs, and the
    # collective oracle for d = 1..5
    cases = [(f"single-{d}", twirl.twirl_bruteforce, d) for d in range(1, 8)]
    for dims in [(1, 3), (3, 1), (2, 3), (3, 4)]:
        side = dims[0] * dims[1]
        cases += [
            (f"A-{dims}", partial(twirl.twirl_one_sided_bruteforce, dims=dims, side="A"), side),
            (f"B-{dims}", partial(twirl.twirl_one_sided_bruteforce, dims=dims, side="B"), side),
            (f"two-{dims}", partial(twirl.twirl_two_sided_bruteforce, dims=dims), side),
        ]
    collective = twirl.collective_twirl_bruteforce
    return cases + [(f"collective-{d}", partial(collective, d=d), d * d) for d in range(1, 6)]


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("small", [False, True], ids=["default", "split"])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize(
    "oracle, side", [c[1:] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
)
def test_bruteforce_stack_rows(oracle, side, n, small, monkeypatch):
    if small:
        # 5 terms per chunk and at most 128 entries per gather: the terms
        # split into many chunks and, for most cases, each chunk into many
        # blocks
        monkeypatch.setattr(twirl, "_CHUNK", 5)
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 128)
    rng = np.random.default_rng(70 + side + n)
    xs = rng.standard_normal((n, side, side)) + 1j * rng.standard_normal((n, side, side))
    want = oracle(xs)
    assert_same_bits(np.stack([oracle(x) for x in xs]), want)
    # one-matrix slabs with one-term blocks, and one block of the whole stack
    # per chunk, sum in the same order
    for batch in (1, 1 << 40):
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", batch)
        assert_same_bits(oracle(xs), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_collective_stack_rows(d):
    xs = _matrices(d * d)
    assert_same_bits(
        twirl.collective_twirl(xs, d), np.stack([twirl.collective_twirl(x, d) for x in xs])
    )


@pytest.mark.parametrize("dims", [(1, 3), (2, 2), (2, 3), (3, 4)])
def test_coefficients_to_matrix_stack_rows(dims):
    mats = _densities(dims[0] * dims[1])
    coeffs = twirl.twirl_two_sided(mats, dims)[1]
    rows = [twirl.twirl_two_sided(m, dims)[1] for m in mats]
    assert_same_bits(
        twirl.coefficients_to_matrix(coeffs),
        np.stack([twirl.coefficients_to_matrix(c) for c in rows]),
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_conjugation_stack_rows(d):
    rng = np.random.default_rng(80 + d)
    mats = _matrices(d)
    perms = np.array([rng.permutation(d) for _ in mats])
    got = states.conjugate_stack_by_permutations(mats, perms)
    assert_same_bits(
        got, np.stack([states.conjugate_by_permutation(m, p) for m, p in zip(mats, perms)])
    )
    # and the index form of P x P^dagger, one matrix at a time
    inverses = [np.argsort(p) for p in perms]
    assert_same_bits(got, np.stack([m[np.ix_(inv, inv)] for m, inv in zip(mats, inverses)]))


def test_conjugation_stack_refuses_a_row_that_is_not_a_permutation():
    mats = _matrices(3)[:3]
    with pytest.raises(ValueError, match="not a permutation"):
        states.conjugate_stack_by_permutations(mats, [[0, 1, 2], [2, 1, 0], [0, 0, 2]])


def test_bloch_stack_rows():
    rng = np.random.default_rng(62)
    r = np.array([states.random_bloch(rng) for _ in range(50)] + [[0.0, -0.0, 0.0], [1.0, 0, 0]])
    qubits = states.qubit_stack_from_bloch(r)
    for stack in (qubits, twirl.twirl_closed_form(qubits)):
        assert_same_bits(
            states.bloch_of_qubit_stack(stack),
            np.stack([states.bloch_of_qubit(states.DensityMatrix(m, (2,))) for m in stack]),
        )


@pytest.mark.parametrize("d", DIMS)
def test_validate_density_stack_rows(d):
    mats = _densities(d)
    assert_same_bits(
        states.validate_density_stack(mats),
        np.stack([states.validate_density(m).mat for m in mats]),
    )


def _not_hermitian(m):
    m[0, 1] += 1e-3
    return m


def _not_unit_trace(m):
    return 1.5 * m


def _not_positive(m):
    # unit trace and Hermitian, with a negative eigenvalue
    return m + 0.5 * np.diag([1.0, -1.0, 0.0])


@pytest.mark.parametrize(
    "spoil, error, message",
    [
        (_not_hermitian, NotHermitianError, "not Hermitian within"),
        (_not_unit_trace, TraceNotOneError, "trace is"),
        (_not_positive, NotPositiveError, "min eigenvalue"),
    ],
    ids=["hermiticity", "trace", "positivity"],
)
def test_validate_density_stack_refuses_a_bad_row_past_row_0(spoil, error, message):
    mats = _densities(3)
    mats[5] = spoil(mats[5])
    with pytest.raises(error) as scalar:
        states.validate_density(mats[5])
    with pytest.raises(error) as stacked:
        states.validate_density_stack(mats)
    # the scalar row keeps its message; the stack names the bad matrix
    assert str(scalar.value).startswith(message)
    assert str(stacked.value) == f"matrix 5: {scalar.value}"
    if error is NotPositiveError:
        assert stacked.value.min_eigenvalue == scalar.value.min_eigenvalue < -0.1


# The per-matrix bodies of four checks before they were stacked, kept as
# their oracles: same draws, one matrix (or pair) at a time.


def _permutation_invariance_per_matrix(dmax, samples, rng):
    for d in range(2, dmax + 1):
        mats = [states.random_density(d, rng).mat for _ in range(samples)]
        mats += [states.random_hermitian(d, rng) for _ in range(samples)]
        for out in twirl.twirl_closed_form(np.array(mats)):
            inv = np.argsort(rng.permutation(d))
            yield linalg.max_abs_diff(out[np.ix_(inv, inv)], out)


def _qubit_bloch_image_per_matrix(dmax, samples, rng):
    r = np.array([states.random_bloch(rng) for _ in range(verify.BLOCH_SAMPLES)])
    out = twirl.twirl_closed_form(states.qubit_stack_from_bloch(r))
    for r_k, out_k in zip(r, out):
        image = np.array([np.trace(out_k @ s).real for s in states.PAULIS])
        yield np.max(np.abs(image - np.array([r_k[0], 0.0, 0.0])))


def _self_adjointness_per_pair(dmax, samples, rng):
    for d in range(2, dmax + 1):
        pairs = states.random_hermitian_stack(d, 2 * samples, rng)
        xs, ys = pairs[0::2], pairs[1::2]
        for x, y, tx, ty in zip(
            xs, ys, twirl.twirl_closed_form(xs), twirl.twirl_closed_form(ys)
        ):
            yield abs(linalg.hs_inner(tx, y) - linalg.hs_inner(x, ty))


def _l1_tight_for_nonneg_real_per_matrix(dmax, samples, rng):
    for d in range(2, dmax + 1):
        mats = []
        for _ in range(samples):
            g = rng.uniform(0.0, 1.0, size=(d, d))
            mat = g @ g.T
            mat /= np.trace(mat)
            mats.append(states.validate_density(mat).mat)
        yield from np.abs(coherence.l1_coherences(mats) - coherence.l1_lower_bounds(mats))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dmax, samples", [(6, 100), (3, 7), (2, 1)])
@pytest.mark.parametrize(
    "check, per_matrix",
    [
        (verify.check_permutation_invariance, _permutation_invariance_per_matrix),
        (verify.check_qubit_bloch_image, _qubit_bloch_image_per_matrix),
        (verify.check_l1_tight_for_nonneg_real, _l1_tight_for_nonneg_real_per_matrix),
        (verify.check_self_adjointness, _self_adjointness_per_pair),
    ],
    ids=["permutation-invariance", "bloch-image", "l1-tight", "self-adjointness"],
)
def test_stacked_checks_equal_per_matrix_loops(check, per_matrix, dmax, samples, seed):
    rng_stack, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    (row,) = [r for r in verify._CHECKS if r[0] is check]
    (got,) = verify._residuals(row, dmax, samples, rng_stack)
    want = np.array(list(per_matrix(dmax, samples, rng_loop)), dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng_stack.bit_generator.state == rng_loop.bit_generator.state


def test_spectrum_only_routes_compute_no_eigenvectors(monkeypatch):
    # every route that reads eigenvalues alone completes while the
    # eigenvector solver refuses to run
    def no_eigenvectors(*_, **__):
        raise AssertionError("hermitian_eigen called")

    monkeypatch.setattr(linalg, "hermitian_eigen", no_eigenvectors)
    results = verify.run_suite(6, 10, 1)
    assert len(results) == 27
    assert [r.name for r in results if not r.passed] == []
    rng = np.random.default_rng(61)
    rho = states.random_density(4, rng)
    coherence.coherence_report(rho, "relent")
    coherence.von_neumann_entropy(rho)
    entanglement.is_ppt(states.random_density(4, rng, dims=(2, 2)))
    sweeps.bell_sweep_rows(5)
    sweeps.qubit_sweep_rows(0.1, 0.1, 50)


def _rank_deficient_densities(d, rank, n, rng):
    # n states g g^dagger / Tr of the given rank, exactly Hermitian (so
    # symmetrising them changes no bit), with the nonzero spectrum of each:
    # that of its rank x rank Gram matrix g^dagger g / Tr, in closed form
    g = rng.standard_normal((n, d, rank)) + 1j * rng.standard_normal((n, d, rank))
    mats = g @ g.conj().swapaxes(-1, -2)
    mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    trace = np.trace(mats, axis1=-2, axis2=-1).real
    gram = g.conj().swapaxes(-1, -2) @ g / trace[:, None, None]
    if rank == 1:
        spectrum = np.ones((n, 1))
    else:
        a, b, c = gram[:, 0, 0].real, gram[:, 0, 1], gram[:, 1, 1].real
        root = np.sqrt((a - c) ** 2 + 4 * np.abs(b) ** 2)
        spectrum = np.column_stack([(a + c - root) / 2, (a + c + root) / 2])
    return mats / trace[:, None, None], spectrum


def _entropy_reference(p):
    p = np.clip(p, 0.0, None)
    return -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=-1)


def _rel_ent_reference(mats, spectrum):
    diag = np.diagonal(mats, axis1=-2, axis2=-1).real
    return _entropy_reference(diag) - _entropy_reference(spectrum)


def _assert_rel_ent_rows(mats, d):
    got = coherence.rel_ent_coherences(mats)
    rows = [coherence.rel_ent_coherence(states.DensityMatrix(m, (d,))) for m in mats]
    assert_same_bits(got, np.array(rows))
    return got


@pytest.mark.parametrize("d", range(2, 9))
def test_rel_ent_coherences_match_an_eigh_reference(d):
    mats = states.random_density_stack(d, 30, np.random.default_rng(70 + d))
    want = _rel_ent_reference(mats, np.linalg.eigh(mats)[0])
    np.testing.assert_allclose(_assert_rel_ent_rows(mats, d), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("d", range(2, 9))
def test_rel_ent_coherences_of_rank_deficient_states(d, rank):
    # A zero eigenvalue comes out of any solver as roundoff delta, and
    # x ln x moves by about delta |ln delta| there, so two solvers agree on
    # such states to about 2e-14 only.  Each state is held to its exact
    # value, no farther from it (within 1e-14) than an eigh reference is.
    mats, spectrum = _rank_deficient_densities(d, rank, 30, np.random.default_rng(90 + d))
    exact = _rel_ent_reference(mats, spectrum)
    got_err = np.abs(_assert_rel_ent_rows(mats, d) - exact)
    eigh_err = np.abs(_rel_ent_reference(mats, np.linalg.eigh(mats)[0]) - exact)
    assert (got_err <= eigh_err + 1e-14).all()
    assert got_err.max() < 1e-13


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_min_pt_eigenvalues_match_an_eigh_reference(dims):
    d_a, d_b = dims
    rng = np.random.default_rng(80 + d_a * d_b)
    mats = np.concatenate(
        [
            states.random_density_stack(d_a * d_b, 30, rng),
            _rank_deficient_densities(d_a * d_b, 1, 30, rng)[0],
        ]
    )
    t = mats.reshape(len(mats), d_a, d_b, d_a, d_b)
    for side, axes in (("A", (0, 3, 2, 1, 4)), ("B", (0, 1, 4, 3, 2))):
        pt = t.transpose(axes).reshape(mats.shape)
        got = entanglement.min_pt_eigenvalues(mats, dims, side)
        np.testing.assert_allclose(got, np.linalg.eigh(pt)[0][:, 0], rtol=0, atol=1e-14)
        reports = [entanglement.is_ppt(states.DensityMatrix(m, dims), side=side) for m in mats]
        assert_same_bits(got, np.array([r.min_eig_pt for r in reports]))
