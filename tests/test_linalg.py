import inspect
import io
import warnings

import numpy as np
import pytest

from permutwirl import coherence, entanglement, linalg, statefile, states, twirl
from permutwirl.errors import DimMismatchError, NonSquareError, NotHermitianError


def test_trace_of_density_is_one():
    rng = np.random.default_rng(9)
    rho = states.random_density(4, rng)
    assert abs(np.trace(rho.mat) - 1) <= 1e-12


def test_hs_inner():
    assert linalg.hs_inner(np.eye(2), np.eye(2)) == 2
    assert abs(linalg.hs_inner(states.SIGMA_1, states.SIGMA_2)) == 0
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    norm = linalg.hs_inner(a, a)
    assert abs(norm.imag) <= 1e-12 and norm.real >= 0
    with pytest.raises(DimMismatchError):
        linalg.hs_inner(np.eye(2), np.eye(3))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256])
def test_hs_inner_has_the_bits_of_vdot_and_each_stack_row_is_a_pair(d):
    rng = np.random.default_rng(100 + d)
    xs, ys = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
    pairs = [linalg.hs_inner(x, y) for x, y in zip(xs, ys)]
    assert all(type(z) is complex for z in pairs)
    want = np.array([complex(np.vdot(x, y)) for x, y in zip(xs, ys)])
    np.testing.assert_array_equal(np.array(pairs).view(np.uint64), want.view(np.uint64))
    stacked = linalg.hs_inner(xs, ys)
    assert stacked.shape == (3,)
    np.testing.assert_array_equal(stacked.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "x, y, error",
    [
        (np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), DimMismatchError),
        (np.zeros((2, 3, 3)), np.zeros((2, 2, 2)), DimMismatchError),
        (np.zeros((2, 3, 3)), np.zeros((3, 3)), DimMismatchError),
        (np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 3, 3)), DimMismatchError),
        (np.zeros((2, 3, 3)), np.full((2, 3, 3), np.nan), ValueError),
        (np.where(np.arange(8).reshape(2, 2, 2) == 5, np.inf, 0.0), np.zeros((2, 2, 2)), ValueError),
    ],
    ids=["length", "side", "stack-and-matrix", "4-d", "nan", "inf"],
)
def test_hs_inner_refuses_stacks(x, y, error):
    with pytest.raises(error):
        linalg.hs_inner(x, y)


def test_hermitian_eigen_pauli():
    w, _ = linalg.hermitian_eigen(states.SIGMA_1)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)


def test_hermitian_eigen_twirled_family():
    rho = states.maximally_coherent_mixed_state(3, 0.4)
    w, _ = linalg.hermitian_eigen(rho.mat)
    np.testing.assert_allclose(w, [0.2, 0.2, 0.6], atol=1e-10)


def test_hermitian_eigen_identity():
    w, _ = linalg.hermitian_eigen(np.eye(5))
    np.testing.assert_allclose(w, np.ones(5), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_hermitian_eigen_reconstruction(d):
    rng = np.random.default_rng(100 + d)
    a = states.random_hermitian(d, rng)
    w, v = linalg.hermitian_eigen(a)
    assert np.all(np.diff(w) >= 0)
    assert linalg.max_abs_diff(v.conj().T @ v, np.eye(d)) <= d * linalg.EIGEN_TOL
    assert linalg.max_abs_diff((v * w) @ v.conj().T, a) <= d * linalg.EIGEN_TOL


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_all_ones_quadratic_form_between_spectral_bounds():
    rng = np.random.default_rng(11)
    for d in (2, 4, 6):
        a = states.random_hermitian(d, rng)
        w, _ = linalg.hermitian_eigen(a)
        e = np.ones(d)
        form = (e @ a @ e).real
        assert d * w[0] - 1e-10 <= form <= d * w[-1] + 1e-10


def test_partial_trace_product_state():
    rng = np.random.default_rng(12)
    rho_a = states.random_density(2, rng).mat
    rho_b = states.random_density(3, rng).mat
    prod = np.kron(rho_a, rho_b)
    assert linalg.max_abs_diff(linalg.partial_trace(prod, (2, 3), "A"), rho_b) <= 1e-12
    assert linalg.max_abs_diff(linalg.partial_trace(prod, (2, 3), "B"), rho_a) <= 1e-12


def test_partial_trace_maximally_entangled_marginal():
    omega = states.maximally_entangled_state(2)
    got = linalg.partial_trace(omega.mat, (2, 2), "A")
    np.testing.assert_allclose(got, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_index_sum():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # oracle: explicit index sums in the i_A * d_B + i_B convention
    over_a = np.zeros((3, 3), dtype=complex)
    over_b = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(3):
            for jp in range(3):
                over_a[j, jp] += x[i * 3 + j, i * 3 + jp]
    for i in range(2):
        for ip in range(2):
            for j in range(3):
                over_b[i, ip] += x[i * 3 + j, ip * 3 + j]
    assert linalg.max_abs_diff(linalg.partial_trace(x, (2, 3), "A"), over_a) <= 1e-12
    assert linalg.max_abs_diff(linalg.partial_trace(x, (2, 3), "B"), over_b) <= 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimMismatchError):
        linalg.partial_trace(np.eye(5), (2, 3), "A")


def test_partial_transpose_product_state():
    rng = np.random.default_rng(14)
    rho_a = states.random_density(2, rng).mat
    rho_b = states.random_density(2, rng).mat
    prod = np.kron(rho_a, rho_b)
    got = linalg.partial_transpose(prod, (2, 2), "A")
    np.testing.assert_allclose(got, np.kron(rho_a.T, rho_b), atol=1e-12)


def test_partial_transpose_entangled_spectrum():
    omega = states.maximally_entangled_state(2)
    pt = linalg.partial_transpose(omega.mat, (2, 2), "A")
    w, _ = linalg.hermitian_eigen(pt)
    assert abs(w[0] - (-0.5)) <= 1e-12


def test_partial_transpose_involution():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for side in ("A", "B"):
        back = linalg.partial_transpose(
            linalg.partial_transpose(x, (2, 3), side), (2, 3), side
        )
        np.testing.assert_array_equal(back, x)


def test_partial_transpose_leaves_other_marginal():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # transposing side A does not change the trace over side A
    pt = linalg.partial_transpose(x, (2, 3), "A")
    assert linalg.max_abs_diff(
        linalg.partial_trace(pt, (2, 3), "A"), linalg.partial_trace(x, (2, 3), "A")
    ) <= 1e-12
    pt_b = linalg.partial_transpose(x, (2, 3), "B")
    assert linalg.max_abs_diff(
        linalg.partial_trace(pt_b, (2, 3), "B"), linalg.partial_trace(x, (2, 3), "B")
    ) <= 1e-12


def test_max_abs_diff_shape_check():
    with pytest.raises(DimMismatchError):
        linalg.max_abs_diff(np.eye(2), np.eye(3))


def test_hermitian_eigvals_stack_matches_hermitian_eigen():
    rng = np.random.default_rng(17)
    stack = np.stack([states.random_hermitian(5, rng) for _ in range(6)])
    got = linalg.hermitian_eigvals(stack)
    assert got.shape == (6, 5)
    for w, mat in zip(got, stack):
        np.testing.assert_allclose(w, linalg.hermitian_eigen(mat)[0], rtol=0, atol=1e-12)


def test_hermitian_eigvals_rejects_non_hermitian_member():
    stack = np.stack([np.eye(3, dtype=complex)] * 3)
    stack[1, 0, 2] = 1e-6
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eigvals(stack)
    with pytest.raises(NonSquareError):
        linalg.hermitian_eigvals(np.zeros((2, 3, 4)))


def test_only_four_public_functions_take_a_tol():
    # every other guard reads linalg.DEFAULT_TOL
    with_tol = {
        name
        for module in (linalg, states, statefile, twirl, coherence, entanglement)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and "tol" in inspect.signature(obj).parameters
    }
    assert with_tol == {
        "is_ppt",
        "bell_octahedron_member",
        "bell_octahedron_members",
        "entanglement_breaking_certificate",
    }


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0], ids=str)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: entanglement.is_ppt(states.bell_diagonal_state(-1, -1, -1), tol=tol),
        lambda tol: entanglement.bell_octahedron_member(0.25, 0.25, 0.25, tol=tol),
        lambda tol: entanglement.bell_octahedron_members([[1, 1, 1]], tol=tol),
        lambda tol: twirl.entanglement_breaking_certificate(3, tol=tol),
    ],
    ids=["is_ppt", "bell_octahedron_member", "bell_octahedron_members", "certificate"],
)
def test_a_tol_that_is_not_finite_and_nonnegative_is_refused(call, tol):
    with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol!r}"):
        call(tol)


def test_a_zero_tol_is_accepted():
    assert entanglement.is_ppt(states.maximally_entangled_state(2), tol=0.0).tol == 0.0
    assert entanglement.bell_octahedron_member(0.5, 0.25, 0.25, tol=0.0)


# ------------------------------------------------------------ the dims rule
#
# Every function that takes subsystem dimensions refuses, with
# DimMismatchError, the dims that a state-file load refuses: not a nonempty
# sequence of positive integers (a bool or a float is never truncated), the
# wrong number of factors, or a product other than the matrix side.

MIXED4 = np.eye(4) / 4


@pytest.mark.parametrize(
    "fn, args",
    [
        (twirl.twirl_one_sided, (MIXED4, (2, 2, 5), "A")),
        (twirl.twirl_one_sided, (MIXED4, (4,), "A")),
        (twirl.twirl_two_sided, (MIXED4, (2.9, 2))),
        (linalg.partial_trace, (MIXED4, (4, True), "B")),
        (states.validate_density, (MIXED4, (True, 4))),
        (states.validate_density, (MIXED4, (2.0, 2))),
        (states.validate_density, (MIXED4, 4)),
        (states.validate_density, (MIXED4, ())),
        (states.sanitize_density, (MIXED4, (4.0,))),
        (states.random_density, (0, np.random.default_rng(1))),
        (states.random_density, (4, np.random.default_rng(1), (2, 2.0))),
        (twirl.collective_twirl, (MIXED4, 2.0)),
        (twirl.collective_twirl, (MIXED4, "2")),
        (twirl.collective_twirl, (MIXED4, None)),
        (twirl.collective_twirl, (MIXED4, [2])),
        (twirl.collective_twirl_bruteforce, (MIXED4, "2")),
        (twirl.collective_twirl_bruteforce, (MIXED4, None)),
        (twirl.collective_twirl_bruteforce, (MIXED4, [2])),
        (entanglement.is_ppt, (states.DensityMatrix(MIXED4, (2, 2, 1)),)),
        (twirl.twirl_params, (states.DensityMatrix(MIXED4, (2, 2)),)),
        (coherence.l1_coherence, (states.DensityMatrix(MIXED4, (2, 2)),)),
        (coherence.l1_coherence, (states.DensityMatrix(MIXED4, (3,)),)),
    ],
    ids=[
        "one-sided-three-factors",
        "one-sided-one-factor",
        "two-sided-float",
        "partial-trace-bool",
        "validate-bool",
        "validate-float",
        "validate-not-a-sequence",
        "validate-empty",
        "sanitize-float",
        "random-d0",
        "random-float",
        "collective-float-d",
        "collective-str-d",
        "collective-none-d",
        "collective-list-d",
        "collective-oracle-str-d",
        "collective-oracle-none-d",
        "collective-oracle-list-d",
        "ppt-three-factors",
        "twirl-params-two-factors",
        "l1-two-factors",
        "l1-product",
    ],
)
def test_dims_rule_refuses(fn, args):
    with pytest.raises(DimMismatchError) as caught:
        fn(*args)
    assert caught.type is DimMismatchError


# Every public function that takes a matrix refuses a 0 x 0 one (and a stack
# of side 0) with DimMismatchError from ``linalg.require_square``, before
# numpy sees it: no warning, no reshape error, no empty sum read as 0.
EMPTY = np.zeros((0, 0))

ZERO_SIDE_CASES = {
    "closed-form": (twirl.twirl_closed_form, (EMPTY,)),
    "closed-form-stack": (twirl.twirl_closed_form, (np.zeros((3, 0, 0)),)),
    "bruteforce": (twirl.twirl_bruteforce, (EMPTY,)),
    "off-diag": (twirl.off_diagonal_means, (EMPTY,)),
    "one-sided": (twirl.twirl_one_sided, (EMPTY, (1, 1), "A")),
    "one-sided-oracle": (twirl.twirl_one_sided_bruteforce, (EMPTY, (1, 1), "B")),
    "two-sided": (twirl.twirl_two_sided, (EMPTY, (1, 1))),
    "two-sided-oracle": (twirl.twirl_two_sided_bruteforce, (EMPTY, (1, 1))),
    "coefficients": (twirl.bipartite_coefficients, (EMPTY, (1, 1))),
    "collective": (twirl.collective_twirl, (EMPTY, 1)),
    "collective-oracle": (twirl.collective_twirl_bruteforce, (EMPTY, 1)),
    "l1": (coherence.l1_coherences, (EMPTY,)),
    "relent": (coherence.rel_ent_coherences, (EMPTY,)),
    "l1-bound": (coherence.l1_lower_bounds, (EMPTY,)),
    "relent-bound": (coherence.rel_ent_lower_bounds, (EMPTY,)),
    "relent-bound-stack": (coherence.rel_ent_lower_bounds, (np.zeros((3, 0, 0)),)),
    "hs-inner": (linalg.hs_inner, (EMPTY, EMPTY)),
    "eigen": (linalg.hermitian_eigen, (EMPTY,)),
    "eigvals": (linalg.hermitian_eigvals, (EMPTY,)),
    "partial-trace": (linalg.partial_trace, (EMPTY, (1, 1), "A")),
    "partial-transpose": (linalg.partial_transpose, (EMPTY, (1, 1), "A")),
    "min-pt": (entanglement.min_pt_eigenvalues, (EMPTY, (1, 1))),
    "validate": (states.validate_density, (EMPTY,)),
    "validate-stack": (states.validate_density_stack, (np.zeros((3, 0, 0)),)),
    "sanitize": (states.sanitize_density, (EMPTY,)),
    "conjugate": (states.conjugate_by_permutation, (EMPTY, [])),
    "save-state": (statefile.save_state, (io.StringIO(), EMPTY, (1,))),
}


@pytest.mark.parametrize("fn, args", ZERO_SIDE_CASES.values(), ids=ZERO_SIDE_CASES)
def test_a_matrix_of_side_0_is_refused(fn, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimMismatchError, match="matrix side of at least 1"):
            fn(*args)


# The same rule decides rank: each of these functions refuses an argument
# that is neither a matrix nor a stack with DimMismatchError, and no
# IndexError or reduced array.
NOT_MATRICES = {"1-d": np.ones(2), "4-d": np.zeros((1, 1, 2, 2))}


@pytest.mark.parametrize("rank", NOT_MATRICES)
@pytest.mark.parametrize("fn, args", ZERO_SIDE_CASES.values(), ids=ZERO_SIDE_CASES)
def test_an_argument_of_rank_other_than_2_or_3_is_refused(fn, args, rank):
    args = [NOT_MATRICES[rank] if isinstance(a, np.ndarray) else a for a in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimMismatchError) as caught:
            fn(*args)
    assert caught.type is DimMismatchError


def test_dims_rule_reads_numpy_integers_as_ints():
    dims = states.validate_density(MIXED4, np.array([2, 2])).dims
    assert dims == (2, 2) and all(type(k) is int for k in dims)
    assert linalg.split_dims(MIXED4, (np.int64(4), 1)) == (4, 1)


def test_random_density_refusal_leaves_the_generator():
    rng = np.random.default_rng(3)
    with pytest.raises(DimMismatchError):
        states.random_density(4, rng, dims=(2, 3))
    np.testing.assert_array_equal(
        states.random_density(4, rng).mat, states.random_density(4, np.random.default_rng(3)).mat
    )
