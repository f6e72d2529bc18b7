import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from permutwirl import coherence, linalg, states, twirl
from permutwirl.errors import (
    DimensionTooLargeError,
    DimMismatchError,
    NonRealSumError,
    ParamOutOfRangeError,
)


def _random_matrices(d, n, rng):
    out = [states.random_density(d, rng).mat for _ in range(n)]
    out += [states.random_hermitian(d, rng) for _ in range(n)]
    return out


# ---------------------------------------------------------------- single system


def test_bruteforce_is_unital():
    for d in range(1, 6):
        np.testing.assert_allclose(twirl.twirl_bruteforce(np.eye(d)), np.eye(d))


def test_bruteforce_annihilates_traceless_diagonal():
    # plug into the closed form: trace 0 and zero total sum give the zero matrix
    out = twirl.twirl_bruteforce(states.SIGMA_3)
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)


def test_bruteforce_matches_closed_form():
    rng = np.random.default_rng(31)
    for d in range(2, 7):
        for mat in _random_matrices(d, 10, rng):
            assert linalg.max_abs_diff(
                twirl.twirl_bruteforce(mat), twirl.twirl_closed_form(mat)
            ) <= 1e-12


def test_bruteforce_matches_explicit_matrix_average():
    # literal definition: average P x P^dagger with explicit matrices
    rng = np.random.default_rng(33)
    d = 4
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    total = np.zeros((d, d), dtype=complex)
    for p in states.enumerate_permutations(d):
        mat = states.permutation_matrix(p)
        total += mat @ x @ mat.conj().T
    np.testing.assert_allclose(twirl.twirl_bruteforce(x), total / 24, atol=1e-13)


def test_one_sided_bruteforce_matches_explicit_matrix_average():
    rng = np.random.default_rng(34)
    d_a, d_b = 3, 2
    x = states.random_density(d_a * d_b, rng, dims=(d_a, d_b)).mat
    total = np.zeros_like(x)
    for p in states.enumerate_permutations(d_a):
        big = np.kron(states.permutation_matrix(p), np.eye(d_b))
        total += big @ x @ big.conj().T
    np.testing.assert_allclose(
        twirl.twirl_one_sided_bruteforce(x, (d_a, d_b), "A"), total / 6, atol=1e-14
    )


def test_two_sided_bruteforce_matches_explicit_matrix_average():
    rng = np.random.default_rng(36)
    d_a, d_b = 2, 3
    x = states.random_density(d_a * d_b, rng, dims=(d_a, d_b)).mat
    total = np.zeros_like(x)
    for p in states.enumerate_permutations(d_a):
        for q in states.enumerate_permutations(d_b):
            big = np.kron(states.permutation_matrix(p), states.permutation_matrix(q))
            total += big @ x @ big.conj().T
    np.testing.assert_allclose(
        twirl.twirl_two_sided_bruteforce(x, (d_a, d_b)), total / 12, atol=1e-14
    )


def test_collective_bruteforce_matches_explicit_matrix_average():
    rng = np.random.default_rng(35)
    d = 3
    x = states.random_hermitian(d * d, rng)
    total = np.zeros_like(x)
    for p in states.enumerate_permutations(d):
        mat = states.permutation_matrix(p)
        big = np.kron(mat, mat)
        total += big @ x @ big.conj().T
    np.testing.assert_allclose(
        twirl.collective_twirl_bruteforce(x, d), total / 6, atol=1e-13
    )


@pytest.mark.parametrize("d", range(1, 9))
def test_perm_index_array_lists_the_permutations(d):
    table = twirl._perm_index_array(d)
    want = np.array(list(states.enumerate_permutations(d)), dtype=np.intp)
    assert table.dtype == want.dtype
    np.testing.assert_array_equal(table, want)


def test_bruteforce_dimension_guard(monkeypatch):
    class TableBuilt(Exception):
        pass

    def no_table(d):
        raise TableBuilt(d)

    # every refusal comes before any permutation table is built
    with monkeypatch.context() as patch:
        patch.setattr(twirl, "_perm_index_array", no_table)
        with pytest.raises(DimensionTooLargeError):
            twirl.twirl_bruteforce(np.eye(10))
        # prod(d!) D^2 entries above MAX_BRUTE_ENTRIES = 2^26: a permuted
        # factor of 10 on either side (1.5e9), 3! 9! pairs at D = 27 (1.6e9),
        # 6! 6! pairs at D = 36 (6.7e8), 9! maps at D = 90 (2.9e9), and
        # 6! maps at D = 306 (6.74e7, just outside)
        for call in (
            lambda: twirl.twirl_one_sided_bruteforce(np.eye(20), (10, 2), "A"),
            lambda: twirl.twirl_one_sided_bruteforce(np.eye(20), (2, 10), "B"),
            lambda: twirl.twirl_two_sided_bruteforce(np.eye(27), (3, 9)),
            lambda: twirl.twirl_two_sided_bruteforce(np.eye(36), (6, 6)),
            lambda: twirl.twirl_one_sided_bruteforce(np.eye(90), (9, 10), "A"),
            lambda: twirl.twirl_one_sided_bruteforce(np.eye(306), (6, 51), "A"),
        ):
            with pytest.raises(DimensionTooLargeError):
                call()
        # 6! maps at D = 300 (6.48e7, just inside) pass the guard
        with pytest.raises(TableBuilt):
            twirl.twirl_one_sided_bruteforce(np.eye(300), (6, 50), "A")
    # a fixed factor counts only through D^2
    x = states.random_hermitian(20, np.random.default_rng(37))
    assert linalg.max_abs_diff(
        twirl.twirl_one_sided_bruteforce(x, (2, 10), "A"),
        twirl.twirl_one_sided(x, (2, 10), "A"),
    ) <= 1e-12


def test_gather_is_bounded_by_entries(monkeypatch):
    gathered = []

    class Spy(np.ndarray):
        # the oracle's entries-major copy of its input keeps the class, so
        # every gather from that copy passes through here
        def take(self, *args, **kwargs):
            out = np.asarray(super().take(*args, **kwargs))
            gathered.append(out.size)
            return out

    # at most 200 entries per gather: 8 terms at d = 5
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "BLOCK_ENTRIES", 200)
        x = np.arange(25, dtype=complex).reshape(5, 5).view(Spy)
        twirl._bruteforce(x, (5,), (0,))
    assert max(gathered) <= 200 and len(gathered) > 1 and sum(gathered) == 120 * 25
    # one gather over a stack of 64 at d = 6 holds at most linalg.BLOCK_ENTRIES
    gathered.clear()
    rng = np.random.default_rng(41)
    xs = rng.standard_normal((64, 6, 6)) + 1j * rng.standard_normal((64, 6, 6))
    out = twirl._bruteforce(xs.view(Spy), (6,), (0,))
    assert max(gathered) <= linalg.BLOCK_ENTRIES and len(gathered) > 1
    assert sum(gathered) == 720 * 36 * 64
    assert linalg.max_abs_diff(out, twirl.twirl_closed_form(xs)) <= 1e-12


def test_bruteforce_stack_guard(monkeypatch):
    class TableBuilt(Exception):
        pass

    def no_table(d):
        raise TableBuilt(d)

    # a stack of two is refused exactly when its matrix is, before any table
    # is built: the bound counts prod(d!) D^2 per matrix, not per stack
    accepted, refused = TableBuilt, DimensionTooLargeError
    calls = [
        (twirl.twirl_bruteforce, 9, (), accepted),
        (twirl.twirl_bruteforce, 10, (), refused),
        (twirl.twirl_one_sided_bruteforce, 300, ((6, 50), "A"), accepted),
        (twirl.twirl_one_sided_bruteforce, 306, ((6, 51), "A"), refused),
        (twirl.twirl_one_sided_bruteforce, 20, ((2, 10), "B"), refused),
        (twirl.twirl_two_sided_bruteforce, 25, ((5, 5),), accepted),
        (twirl.twirl_two_sided_bruteforce, 36, ((6, 6),), refused),
        (twirl.collective_twirl_bruteforce, 49, (7,), accepted),
        (twirl.collective_twirl_bruteforce, 64, (8,), refused),
    ]
    monkeypatch.setattr(twirl, "_perm_index_array", no_table)
    for oracle, side, args, outcome in calls:
        for x in (np.zeros((side, side)), np.zeros((2, side, side))):
            with pytest.raises(outcome):
                oracle(x, *args)


def test_bruteforce_maps_are_built_per_chunk(monkeypatch):
    # 4 maps per chunk: the whole (terms, D) map array outweighs every
    # gather, so the peak stays below its size only if each chunk's maps are
    # built on their own
    monkeypatch.setattr(twirl, "_CHUNK", 4)
    rng = np.random.default_rng(39)
    calls = [
        (lambda x: twirl.twirl_one_sided_bruteforce(x, (7, 10), "A"), 70, 5040),
        (lambda x: twirl.twirl_one_sided_bruteforce(x, (10, 7), "B"), 70, 5040),
        (lambda x: twirl.collective_twirl_bruteforce(x, 7), 49, 5040),
    ]
    for call, side, terms in calls:
        x = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        tracemalloc.start()
        try:
            out = call(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < terms * side * np.dtype(np.intp).itemsize
        assert np.isfinite(out).all()


def test_bruteforce_oracles_across_many_chunks(monkeypatch):
    # 5 maps per chunk: 24 chunks at d = 5, and a short last chunk in each
    # of the others
    monkeypatch.setattr(twirl, "_CHUNK", 5)
    rng = np.random.default_rng(38)
    x5, x9, x12 = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (5, 9, 12)
    )
    assert linalg.max_abs_diff(
        twirl.twirl_bruteforce(x5), twirl.twirl_closed_form(x5)
    ) <= 1e-12
    for side in ("A", "B"):
        assert linalg.max_abs_diff(
            twirl.twirl_one_sided_bruteforce(x12, (3, 4), side),
            twirl.twirl_one_sided(x12, (3, 4), side),
        ) <= 1e-12
    assert linalg.max_abs_diff(
        twirl.twirl_two_sided_bruteforce(x9, (3, 3)), twirl.twirl_two_sided(x9, (3, 3))[0]
    ) <= 1e-12
    perms = map(states.permutation_matrix, states.enumerate_permutations(3))
    pairs = [np.kron(p, p) for p in perms]
    literal = sum(big @ x9 @ big.T for big in pairs) / len(pairs)
    assert linalg.max_abs_diff(twirl.collective_twirl_bruteforce(x9, 3), literal) <= 1e-12


def _chunked_literal(xs, maps):
    # sum_g xs[..., g, g] / n, in chunks of twirl._CHUNK terms: each chunk
    # summed from 0 in order, the chunk sums added in order
    total = np.zeros(xs.shape, dtype=complex)
    for start in range(0, len(maps), twirl._CHUNK):
        chunk_sum = np.zeros(xs.shape, dtype=complex)
        for g in maps[start : start + twirl._CHUNK]:
            chunk_sum = chunk_sum + xs[..., g[:, None], g[None, :]]
        total = total + chunk_sum
    return total / len(maps)


def test_bruteforce_bits_are_a_literal_chunked_sum():
    # 5040 terms in chunks of 5000 and 40 at every side: a (7, 9) side-A
    # input at D = 63 and a stack of three at d = 7
    rng = np.random.default_rng(42)
    perms = twirl._perm_index_array(7)
    x = rng.standard_normal((63, 63)) + 1j * rng.standard_normal((63, 63))
    maps = (perms[:, :, None] * 9 + np.arange(9)).reshape(len(perms), 63)
    got = twirl.twirl_one_sided_bruteforce(x, (7, 9), "A")
    np.testing.assert_array_equal(got.view(np.uint64), _chunked_literal(x, maps).view(np.uint64))
    xs = rng.standard_normal((3, 7, 7)) + 1j * rng.standard_normal((3, 7, 7))
    got = twirl.twirl_bruteforce(xs)
    np.testing.assert_array_equal(got.view(np.uint64), _chunked_literal(xs, perms).view(np.uint64))


def test_closed_form_qubit_image():
    rho = states.qubit_from_bloch((0.6, 0.3, 0.2))
    out = twirl.twirl_closed_form(rho.mat)
    np.testing.assert_allclose(out, 0.5 * np.array([[1, 0.6], [0.6, 1]]), atol=1e-15)


def test_closed_form_fixes_maximally_coherent_state():
    phi = states.maximally_coherent_state(4)
    np.testing.assert_allclose(twirl.twirl_closed_form(phi.mat), phi.mat, atol=1e-15)


def test_closed_form_fixes_all_ones():
    # Tr E = 3 and Tr(E(E - I)) = 6 reproduce E itself
    e = states.all_ones_projector(3)
    np.testing.assert_allclose(twirl.twirl_closed_form(e), e, atol=1e-14)


def test_closed_form_dimension_one_is_identity():
    x = np.array([[2.5 + 1j]])
    np.testing.assert_array_equal(twirl.twirl_closed_form(x), x)


def test_closed_form_accepts_non_hermitian():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert linalg.max_abs_diff(
        twirl.twirl_bruteforce(x), twirl.twirl_closed_form(x)
    ) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_channel_properties(d):
    rng = np.random.default_rng(330 + d)
    for mat in _random_matrices(d, 10, rng):
        out = twirl.twirl_closed_form(mat)
        # idempotence
        assert linalg.max_abs_diff(twirl.twirl_closed_form(out), out) <= 1e-12
        # transpose covariance
        assert linalg.max_abs_diff(out.T, twirl.twirl_closed_form(mat.T)) <= 1e-12
        # invariance under any permutation conjugation
        tau = tuple(rng.permutation(d))
        assert linalg.max_abs_diff(
            states.conjugate_by_permutation(out, tau), out
        ) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_channel_self_adjoint(d):
    rng = np.random.default_rng(340 + d)
    for _ in range(20):
        x = states.random_hermitian(d, rng)
        y = states.random_hermitian(d, rng)
        lhs = linalg.hs_inner(twirl.twirl_closed_form(x), y)
        rhs = linalg.hs_inner(x, twirl.twirl_closed_form(y))
        assert abs(lhs - rhs) <= 1e-10


def test_twirl_params_maximally_mixed():
    summary = twirl.twirl_params(states.validate_density(np.eye(4) / 4))
    assert summary.off_diag == 0.0
    assert summary.weight == 0.0


def test_twirl_params_maximally_coherent():
    summary = twirl.twirl_params(states.maximally_coherent_state(3))
    assert summary.off_diag == pytest.approx(1 / 3, abs=1e-15)
    assert summary.weight == pytest.approx(1.0, abs=1e-15)


def test_twirl_params_qubit_bloch():
    # off-diagonal sum of a qubit is r1, so off_diag = r1/2 and weight = r1
    rho = states.qubit_from_bloch((0.44, -0.3, 0.1))
    summary = twirl.twirl_params(rho)
    assert summary.off_diag == pytest.approx(0.22, abs=1e-15)
    assert summary.weight == pytest.approx(0.44, abs=1e-15)


def test_twirl_params_weight_is_dim_times_off_diag():
    rng = np.random.default_rng(35)
    for d in (2, 3, 5):
        summary = twirl.twirl_params(states.random_density(d, rng))
        assert summary.weight == pytest.approx(d * summary.off_diag, abs=1e-15)


def test_twirl_params_rejects_non_real_sum():
    mat = np.array([[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
    with pytest.raises(NonRealSumError):
        twirl.twirl_params(states.DensityMatrix(mat, (2,)))


# ------------------------------------------------- validation at the edge
#
# Every consumer of a state must accept what validate_density accepts:
# eigenvalues down to -DEFAULT_TOL, and each entry pair Hermitian within it.

TOL = linalg.DEFAULT_TOL


def _edge_density(d, lam_min, placement):
    """A trace-one density whose smallest eigenvalue, lam_min, sits on the
    uniform superposition psi+ ("psi+"), on every vector orthogonal to it
    ("psi+ top", psi+ taking the rest), or on a random vector ("random")."""
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if placement != "random":
        g[:, 0] = 1.0
    q, _ = np.linalg.qr(g)
    if placement == "psi+ top":
        lam = np.concatenate([[1 - (d - 1) * lam_min], np.full(d - 1, lam_min)])
    else:
        lam = np.concatenate([[lam_min], np.full(d - 1, (1 - lam_min) / (d - 1))])
    rho = (q * lam) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def _pairwise_non_hermitian(d, dev):
    """I/d with each entry above the diagonal moved by i dev: every pair
    deviates from Hermitian by dev, and the off-diagonal sum has imaginary
    part d (d - 1) / 2 * dev."""
    return np.eye(d, dtype=complex) / d + 1j * dev * np.triu(np.ones((d, d)), 1)


EDGE_CASES = [
    (d, lam, placement)
    for d in (2, 3, 5)
    for lam in (-0.9 * TOL, -0.5 * TOL)
    for placement in ("psi+", "psi+ top", "random")
]


EDGE_MATS = [_edge_density(*case) for case in EDGE_CASES] + [
    _pairwise_non_hermitian(d, 0.9 * TOL) for d in (3, 5)
]
EDGE_IDS = [f"d{d}-{lam / TOL:g}tol-{where}" for d, lam, where in EDGE_CASES] + [
    "d3-pairwise",
    "d5-pairwise",
]
# the -0.9 tol cases scaled to trace 1 - 0.9 tol and 1 + 0.9 tol
TRACE_CASES = [
    (case, sign) for case in EDGE_CASES if case[1] == -0.9 * TOL for sign in (-1, 1)
]


@pytest.mark.parametrize(
    "mat",
    EDGE_MATS + [(1 + sign * 0.9 * TOL) * _edge_density(*case) for case, sign in TRACE_CASES],
    ids=EDGE_IDS
    + [
        f"d{d}-{lam / TOL:g}tol-{where}-trace1{'+-'[sign < 0]}0.9tol"
        for (d, lam, where), sign in TRACE_CASES
    ],
)
def test_every_consumer_accepts_what_validation_accepts(mat):
    rho = states.validate_density(mat)
    for measure in coherence.MEASURES:
        coherence.coherence_report(rho, measure)
    twirl.twirl_params(rho)
    bound = coherence.rel_ent_lower_bounds(mat[None])
    assert np.isfinite(bound).all() and bound[0] == coherence.rel_ent_lower_bound(rho)


@pytest.mark.parametrize("mat", EDGE_MATS, ids=EDGE_IDS)
def test_the_summary_of_an_accepted_trace_one_state_rebuilds_as_a_state(mat):
    # a summary holds no trace: the member it rebuilds has trace one
    rho = states.validate_density(mat)
    summary = twirl.twirl_params(rho)
    star = twirl.reconstruct_output_state(summary)
    family = states.maximally_coherent_mixed_state(rho.d, summary.weight)
    assert linalg.max_abs_diff(star.mat, family.mat) <= 1e-15
    states.validate_density(star.mat)


@pytest.mark.parametrize("d", [3, 5])
def test_off_diagonal_sum_may_hold_every_pairs_tolerance(d):
    bound = d * (d - 1) / 2 * TOL
    mat = _pairwise_non_hermitian(d, 0.9 * TOL)
    assert abs(mat.sum().imag) > TOL
    states.validate_density(mat)
    assert twirl.off_diagonal_means(mat) == pytest.approx(0.0, abs=1e-15)
    past = np.eye(d, dtype=complex) / d
    past[0, 1] = 1.01j * bound
    with pytest.raises(NonRealSumError):
        twirl.off_diagonal_means(past)


def test_twirl_params_requires_monopartite():
    rho = states.maximally_entangled_state(2)
    with pytest.raises(DimMismatchError):
        twirl.twirl_params(rho)


def test_reconstruct_endpoints():
    np.testing.assert_allclose(
        twirl.reconstruct_output_state(twirl.TwirlSummary(5, 0.0, 0.0)).mat,
        np.eye(5) / 5,
    )
    np.testing.assert_allclose(
        twirl.reconstruct_output_state(twirl.TwirlSummary(3, 1 / 3, 1.0)).mat,
        states.maximally_coherent_state(3).mat,
        atol=1e-15,
    )


def test_reconstruct_matches_bruteforce():
    rng = np.random.default_rng(36)
    for _ in range(10):
        rho = states.random_density(4, rng)
        rebuilt = twirl.reconstruct_output_state(twirl.twirl_params(rho))
        assert linalg.max_abs_diff(
            rebuilt.mat, twirl.twirl_bruteforce(rho.mat)
        ) <= 1e-12


def test_reconstruct_equals_mixed_state_family():
    rng = np.random.default_rng(37)
    rho = states.random_density(3, rng)
    summary = twirl.twirl_params(rho)
    family = states.maximally_coherent_mixed_state(3, summary.weight)
    assert linalg.max_abs_diff(
        twirl.reconstruct_output_state(summary).mat, family.mat
    ) <= 1e-15


def test_reconstruct_range_guard():
    with pytest.raises(ParamOutOfRangeError):
        twirl.reconstruct_output_state(twirl.TwirlSummary(3, 0.5, 1.5))
    with pytest.raises(ParamOutOfRangeError):
        twirl.reconstruct_output_state(twirl.TwirlSummary(3, -0.2, -0.6))


def test_off_diag_within_spectral_bounds():
    rng = np.random.default_rng(38)
    for d in (2, 3, 4, 5):
        denom = d * (d - 1)
        for _ in range(25):
            rho = states.random_density(d, rng)
            a = twirl.twirl_params(rho).off_diag
            w, _ = linalg.hermitian_eigen(rho.mat)
            assert -1 / denom - 1e-10 <= a <= 1 / d + 1e-10
            assert (d * w[0] - 1) / denom - 1e-10 <= a <= (d * w[-1] - 1) / denom + 1e-10


# ---------------------------------------------------------------- bipartite


def test_one_sided_on_product_input_acts_locally():
    rng = np.random.default_rng(39)
    rho_a = states.random_density(3, rng).mat
    rho_b = states.random_density(2, rng).mat
    got = twirl.twirl_one_sided(np.kron(rho_a, rho_b), (3, 2), "A")
    expected = np.kron(twirl.twirl_closed_form(rho_a), rho_b)
    assert linalg.max_abs_diff(got, expected) <= 1e-13
    got_b = twirl.twirl_one_sided(np.kron(rho_a, rho_b), (3, 2), "B")
    expected_b = np.kron(rho_a, twirl.twirl_closed_form(rho_b))
    assert linalg.max_abs_diff(got_b, expected_b) <= 1e-13


def test_one_sided_bell_diagonal_keeps_only_first_correlation():
    rho = states.bell_diagonal_state(0.4, -0.5, 0.3)
    got = twirl.twirl_one_sided(rho.mat, (2, 2), "A")
    expected = 0.25 * (np.eye(4) + 0.4 * np.kron(states.SIGMA_1, states.SIGMA_1))
    assert linalg.max_abs_diff(got, expected) <= 1e-14
    # the image is symmetric, so side B gives the same state
    got_b = twirl.twirl_one_sided(rho.mat, (2, 2), "B")
    assert linalg.max_abs_diff(got_b, expected) <= 1e-14


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (5, 4)])
def test_one_sided_matches_bruteforce(dims):
    rng = np.random.default_rng(400 + dims[0] * 10 + dims[1])
    for _ in range(5):
        rho = states.random_density(dims[0] * dims[1], rng, dims=dims)
        for side in ("A", "B"):
            assert linalg.max_abs_diff(
                twirl.twirl_one_sided(rho.mat, dims, side),
                twirl.twirl_one_sided_bruteforce(rho.mat, dims, side),
            ) <= 1e-12


def test_one_sided_minor_index_block_pattern():
    # twirling the minor (fastest) index averages every 2x2 sub-block:
    # entry pattern rho_11 + rho_22 on the first diagonal, halved
    rng = np.random.default_rng(41)
    rho = states.random_density(4, rng, dims=(2, 2)).mat
    got = twirl.twirl_one_sided(rho, (2, 2), "B")
    assert got[0, 0] == pytest.approx(0.5 * (rho[0, 0] + rho[1, 1]), abs=1e-14)
    assert got[0, 1] == pytest.approx(0.5 * (rho[0, 1] + rho[1, 0]), abs=1e-14)
    assert got[0, 2] == pytest.approx(0.5 * (rho[0, 2] + rho[1, 3]), abs=1e-14)
    assert got[0, 3] == pytest.approx(0.5 * (rho[0, 3] + rho[1, 2]), abs=1e-14)
    assert got[2, 0] == pytest.approx(0.5 * (rho[2, 0] + rho[3, 1]), abs=1e-14)
    # partial transpose over the twirled side leaves the output unchanged
    assert linalg.max_abs_diff(
        linalg.partial_transpose(got, (2, 2), "B"), got
    ) <= 1e-14


def test_one_sided_dim_mismatch():
    with pytest.raises(DimMismatchError):
        twirl.twirl_one_sided(np.eye(5), (2, 3), "A")


def test_one_sided_output_invariant_under_partial_transpose_of_twirled_side():
    rng = np.random.default_rng(49)
    for dims in ((2, 2), (3, 2)):
        rho = states.random_density(dims[0] * dims[1], rng, dims=dims)
        out = twirl.twirl_one_sided(rho.mat, dims, "A")
        assert linalg.max_abs_diff(
            linalg.partial_transpose(out, dims, "A"), out
        ) <= 1e-14


def test_one_sided_trivial_factor_is_identity():
    rng = np.random.default_rng(48)
    rho = states.random_density(3, rng, dims=(1, 3))
    np.testing.assert_array_equal(
        twirl.twirl_one_sided(rho.mat, (1, 3), "A"), rho.mat
    )
    got = twirl.twirl_one_sided(rho.mat, (1, 3), "B")
    assert linalg.max_abs_diff(got, twirl.twirl_closed_form(rho.mat)) <= 1e-14


def test_dimension_one_summary_round_trip():
    one = states.validate_density(np.ones((1, 1)))
    summary = twirl.twirl_params(one)
    assert summary == twirl.TwirlSummary(1, 0.0, 0.0)
    np.testing.assert_array_equal(
        twirl.reconstruct_output_state(summary).mat, one.mat
    )


def test_two_sided_fixes_maximally_mixed():
    out, coeffs = twirl.twirl_two_sided(np.eye(4) / 4, (2, 2))
    np.testing.assert_allclose(out, np.eye(4) / 4)
    assert coeffs.c0 == pytest.approx(0.25, abs=1e-15)
    for c in (coeffs.c1, coeffs.c2, coeffs.c3):
        assert abs(c) <= 1e-15


def test_two_sided_c0_for_any_density_input():
    rng = np.random.default_rng(42)
    for dims in ((2, 2), (2, 3), (3, 4)):
        rho = states.random_density(dims[0] * dims[1], rng, dims=dims)
        _, coeffs = twirl.twirl_two_sided(rho.mat, dims)
        assert coeffs.c0 == pytest.approx(1 / (dims[0] * dims[1]), abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_two_sided_matches_nested_bruteforce(dims):
    rng = np.random.default_rng(430 + dims[0] * 10 + dims[1])
    for _ in range(5):
        rho = states.random_density(dims[0] * dims[1], rng, dims=dims)
        out, coeffs = twirl.twirl_two_sided(rho.mat, dims)
        brute = twirl.twirl_two_sided_bruteforce(rho.mat, dims)
        assert linalg.max_abs_diff(out, brute) <= 1e-12
        assert linalg.max_abs_diff(out, twirl.coefficients_to_matrix(coeffs)) <= 1e-12


def test_two_sided_equals_one_sided_composition_either_order():
    rng = np.random.default_rng(44)
    rho = states.random_density(6, rng, dims=(2, 3))
    out, _ = twirl.twirl_two_sided(rho.mat, (2, 3))
    ab = twirl.twirl_one_sided(
        twirl.twirl_one_sided(rho.mat, (2, 3), "A"), (2, 3), "B"
    )
    ba = twirl.twirl_one_sided(
        twirl.twirl_one_sided(rho.mat, (2, 3), "B"), (2, 3), "A"
    )
    assert linalg.max_abs_diff(out, ab) <= 1e-14
    assert linalg.max_abs_diff(out, ba) <= 1e-13


def test_coefficient_conventions():
    # c1 pairs with I x (E_B - I) and carries the B-side overlap;
    # c2 pairs with (E_A - I) x I and carries the A-side overlap
    rng = np.random.default_rng(45)
    d_a, d_b = 2, 3
    rho = states.random_density(6, rng, dims=(d_a, d_b))
    coeffs = twirl.bipartite_coefficients(rho.mat, (d_a, d_b))
    assert coeffs.c1 == pytest.approx(
        coeffs.overlap_b / (d_a * d_b * (d_b - 1)), abs=1e-15
    )
    assert coeffs.c2 == pytest.approx(
        coeffs.overlap_a / (d_a * d_b * (d_a - 1)), abs=1e-15
    )
    assert coeffs.c3 == pytest.approx(
        coeffs.overlap_ab / (d_a * d_b * (d_a - 1) * (d_b - 1)), abs=1e-15
    )
    e_a = states.all_ones_projector(d_a) - np.eye(d_a)
    e_b = states.all_ones_projector(d_b) - np.eye(d_b)
    assert coeffs.overlap_a == pytest.approx(
        complex(np.trace(rho.mat @ np.kron(e_a, np.eye(d_b)))), abs=1e-15
    )
    assert coeffs.overlap_b == pytest.approx(
        complex(np.trace(rho.mat @ np.kron(np.eye(d_a), e_b))), abs=1e-15
    )


def test_two_qubit_eigenvalue_combinations():
    rng = np.random.default_rng(46)
    for _ in range(10):
        rho = states.random_density(4, rng, dims=(2, 2))
        out, cf = twirl.twirl_two_sided(rho.mat, (2, 2))
        w, _ = linalg.hermitian_eigen(out)
        c0, c1, c2, c3 = cf.c0.real, cf.c1.real, cf.c2.real, cf.c3.real
        expected = np.sort(
            [
                c0 + c1 + (c2 + c3),
                c0 + c1 - (c2 + c3),
                c0 - c1 + (c2 - c3),
                c0 - c1 - (c2 - c3),
            ]
        )
        np.testing.assert_allclose(w, expected, atol=1e-12)


def test_one_sided_bruteforce_rejects_unknown_side():
    for fn in (twirl.twirl_one_sided, twirl.twirl_one_sided_bruteforce):
        with pytest.raises(ValueError, match="side must be"):
            fn(np.eye(4), (2, 2), "C")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bipartite_twirls_reject_non_finite_input(bad):
    x = np.eye(4, dtype=complex) / 4
    x[1, 2] = bad
    for side in ("A", "B"):
        with pytest.raises(ValueError, match="NaN or infinite"):
            twirl.twirl_one_sided(x, (2, 2), side)
    with pytest.raises(ValueError, match="NaN or infinite"):
        twirl.twirl_two_sided(x, (2, 2))


@st.composite
def _bipartite_operators(draw):
    # non-Hermitian complex operators; factors of dimension 1 included
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    side = dims[0] * dims[1]
    parts = draw(
        hnp.arrays(np.float64, (2, side, side), elements=st.floats(-1.0, 1.0))
    )
    return parts[0] + 1j * parts[1], dims


@settings(max_examples=120, deadline=None)
@given(_bipartite_operators())
def test_orbit_mean_twirls_match_oracles(operator):
    x, dims = operator
    for side in ("A", "B"):
        assert linalg.max_abs_diff(
            twirl.twirl_one_sided(x, dims, side),
            twirl.twirl_one_sided_bruteforce(x, dims, side),
        ) <= 1e-12
    out, coeffs = twirl.twirl_two_sided(x, dims)
    assert linalg.max_abs_diff(out, twirl.twirl_two_sided_bruteforce(x, dims)) <= 1e-12
    assert linalg.max_abs_diff(out, twirl.coefficients_to_matrix(coeffs)) <= 1e-12
    assert twirl.bipartite_coefficients(x, dims) == coeffs


# ---------------------------------------------------------------- Choi matrix


def test_choi_matrix_d2_explicit():
    choi = twirl.choi_matrix(2)
    phi = states.maximally_coherent_state(2).mat
    rest = np.eye(2) - phi
    expected = 0.5 * np.kron(phi, phi) + 0.5 * np.kron(rest, rest)
    assert linalg.max_abs_diff(choi.mat, expected) <= 1e-14


def test_choi_matrix_is_a_state():
    for d in range(2, 6):
        choi = twirl.choi_matrix(d)
        assert choi.dims == (d, d)
        states.validate_density(choi.mat, dims=(d, d))


def test_choi_matrix_is_ppt():
    for d in range(2, 6):
        choi = twirl.choi_matrix(d)
        pt = linalg.partial_transpose(choi.mat, (d, d), "A")
        w, _ = linalg.hermitian_eigen(pt)
        assert w[0] >= -1e-12


def test_entanglement_breaking_certificate():
    for d in (2, 5):
        cert = twirl.entanglement_breaking_certificate(d)
        assert cert.residual <= 1e-12
        assert cert.weights[0] == pytest.approx(1 / d)
        assert cert.weights[1] == pytest.approx(1 - 1 / d)
        assert sum(cert.weights) == pytest.approx(1.0)
        assert min(cert.weights) >= 0


# ---------------------------------------------------------------- collective


COLLECTIVE_TWIRLS = [twirl.collective_twirl, twirl.collective_twirl_bruteforce]
COLLECTIVE_IDS = ["orbit_mean", "bruteforce"]


@pytest.mark.parametrize("fn", COLLECTIVE_TWIRLS, ids=COLLECTIVE_IDS)
def test_collective_twirl_fixes_identity(fn):
    np.testing.assert_allclose(fn(np.eye(9), 3), np.eye(9))


@pytest.mark.parametrize("fn", COLLECTIVE_TWIRLS, ids=COLLECTIVE_IDS)
def test_collective_twirl_fixes_swap(fn):
    d = 3
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    np.testing.assert_allclose(fn(swap, d), swap, atol=1e-14)


@pytest.mark.parametrize("fn", COLLECTIVE_TWIRLS, ids=COLLECTIVE_IDS)
def test_collective_twirl_output_is_invariant(fn):
    rng = np.random.default_rng(47)
    d = 4
    x = states.random_hermitian(d * d, rng)
    out = fn(x, d)
    tau = tuple(rng.permutation(d))
    pair = states.permutation_matrix(tau)
    big = np.kron(pair, pair)
    assert linalg.max_abs_diff(big @ out @ big.conj().T, out) <= 1e-12


def test_collective_twirl_guards():
    with pytest.raises(DimensionTooLargeError):
        twirl.collective_twirl_bruteforce(np.eye(64), 8)
    for fn in COLLECTIVE_TWIRLS:
        with pytest.raises(DimMismatchError):
            fn(np.eye(8), 3)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            fn(np.eye(1), 0)
    # the orbit mean has no dimension limit of its own
    x = states.random_hermitian(64, np.random.default_rng(48))
    out = twirl.collective_twirl(x, 8)
    assert linalg.max_abs_diff(twirl.collective_twirl(out, 8), out) <= 1e-12


@st.composite
def _collective_operators(draw):
    # non-Hermitian complex operators on C^d x C^d
    d = draw(st.integers(1, 5))
    parts = draw(
        hnp.arrays(np.float64, (2, d * d, d * d), elements=st.floats(-1.0, 1.0))
    )
    return parts[0] + 1j * parts[1], d


@settings(max_examples=60, deadline=None)
@given(_collective_operators())
def test_collective_twirl_matches_oracle(operator):
    x, d = operator
    assert linalg.max_abs_diff(
        twirl.collective_twirl(x, d), twirl.collective_twirl_bruteforce(x, d)
    ) <= 1e-12


@st.composite
def _bipartite_stacks(draw):
    # a stack of 1-5 non-Hermitian complex operators on one split
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    n = draw(st.integers(1, 5))
    side = dims[0] * dims[1]
    parts = draw(
        hnp.arrays(np.float64, (2, n, side, side), elements=st.floats(-1.0, 1.0))
    )
    return parts[0] + 1j * parts[1], dims


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=120, deadline=None)
@given(_bipartite_stacks())
def test_stacked_calls_match_per_matrix_calls_bitwise(stack):
    xs, dims = stack
    for side in ("A", "B"):
        for fn in (twirl.twirl_one_sided, linalg.partial_transpose):
            together = fn(xs, dims, side)
            apart = np.stack([fn(x, dims, side) for x in xs])
            assert together.shape == xs.shape
            np.testing.assert_array_equal(_bits(together), _bits(apart))
    # both sides permuted: the orbit means of the two-sided twirl
    together = twirl._orbit_mean(xs, dims, (0, 1))
    for k, x in enumerate(xs):
        for got, want in zip(together, twirl._orbit_mean(x, dims, (0, 1))):
            np.testing.assert_array_equal(_bits(got[k]), _bits(want))


def test_one_sided_rejects_bad_stacks():
    with pytest.raises(DimMismatchError):
        twirl.twirl_one_sided(np.zeros((2, 2, 4, 4)), (2, 2), "A")
    with pytest.raises(DimMismatchError):
        twirl.twirl_one_sided(np.zeros((3, 4, 4)), (2, 3), "A")
    bad = np.zeros((3, 4, 4), dtype=complex)
    bad[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        twirl.twirl_one_sided(bad, (2, 2), "B")



def _params_of(entries):
    m = np.array(entries, complex)
    return twirl.twirl_params(states.DensityMatrix(m, (len(m),)))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _params_of([[0.5, complex(0, np.nan)], [0, 0.5]]), NonRealSumError),
        (lambda: _params_of([[0.5, np.nan], [np.nan, 0.5]]), NonRealSumError),
        (
            lambda: twirl.reconstruct_output_state(twirl.TwirlSummary(3, np.nan, np.nan)),
            ParamOutOfRangeError,
        ),
        (lambda: _params_of([[0.5, np.inf], [np.inf, 0.5]]), NonRealSumError),
        (lambda: _params_of([[0.5, -np.inf], [-np.inf, 0.5]]), NonRealSumError),
        # an infinite sum past row 0 of a stack
        (
            lambda: twirl.off_diagonal_means(np.array([np.eye(2) / 2, [[0.5, np.inf], [np.inf, 0.5]]])),
            NonRealSumError,
        ),
        # a non-finite 1 x 1 entry is refused, as at every other size
        (lambda: _params_of([[np.nan]]), NonRealSumError),
        (lambda: twirl.off_diagonal_means([[np.inf]]), NonRealSumError),
        (lambda: coherence.l1_lower_bounds([[[np.nan]]]), NonRealSumError),
        (lambda: coherence.rel_ent_lower_bounds([[[np.nan]]]), NonRealSumError),
        (lambda: twirl.output_state_stack(1, np.nan), ParamOutOfRangeError),
    ],
    ids=[
        "params-imaginary-part",
        "params-real-part",
        "reconstruct-off-diag",
        "params-plus-inf",
        "params-minus-inf",
        "means-inf-past-row-0",
        "params-1x1-nan",
        "means-1x1-inf",
        "l1-bounds-1x1-nan",
        "rel-ent-bounds-1x1-nan",
        "output-state-1x1-nan",
    ],
)
def test_guards_reject_nan(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "entry", [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.25 - 0.25j, complex(1e308, -1e308)]
)
def test_one_by_one_finite_entries_give_zero_off_diagonal(entry):
    # the off-diagonal sum of a 1 x 1 matrix is its entry minus itself,
    # +0.0 for every finite entry
    m = np.full((2, 1, 1), entry, dtype=complex)
    np.testing.assert_array_equal(twirl.off_diagonal_means(m).view(np.uint64), [0, 0])
    assert float(twirl.off_diagonal_means(m[0])) == 0.0
    np.testing.assert_array_equal(coherence.l1_lower_bounds(m), [0.0, 0.0])
    np.testing.assert_array_equal(coherence.rel_ent_lower_bounds(m), [0.0, 0.0])
    out = twirl.output_state_stack(1, np.full(2, complex(entry).real))
    np.testing.assert_array_equal(out, np.ones((2, 1, 1)))
