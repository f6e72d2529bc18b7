import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutwirl import linalg, states
from permutwirl.errors import (
    BlochOutsideBallError,
    DimensionTooLargeError,
    InvalidBellParamsError,
    NotHermitianError,
    NotPositiveError,
    TraceNotOneError,
    WeightOutOfRangeError,
)


def test_pauli_constants():
    np.testing.assert_array_equal(states.SIGMA_1, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(states.SIGMA_2, [[0, -1j], [1j, 0]])
    np.testing.assert_array_equal(states.SIGMA_3, [[1, 0], [0, -1]])


def test_validate_density_accepts_maximally_mixed():
    rho = states.validate_density(np.eye(2) / 2)
    assert rho.dims == (2,)
    assert rho.d == 2


def test_validate_density_trace_error():
    with pytest.raises(TraceNotOneError):
        states.validate_density(states.SIGMA_3)


def test_validate_density_hermiticity_error():
    with pytest.raises(NotHermitianError):
        states.validate_density(np.array([[0.5, 0.5], [0.1, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_validate_density_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="NaN or infinite"):
        states.validate_density(np.array([[0.5, bad], [bad, 0.5]]))


def test_validate_density_positivity_error_reports_eigenvalue():
    # 2x2 formula: lambda_min = 0.5 - sqrt(0.1^2 + 0.55^2) < 0
    mat = np.array([[0.6, 0.55], [0.55, 0.4]])
    with pytest.raises(NotPositiveError) as excinfo:
        states.validate_density(mat)
    assert excinfo.value.min_eigenvalue == pytest.approx(
        0.5 - np.sqrt(0.3125), abs=1e-12
    )


def test_validate_density_never_repairs_but_sanitize_does():
    mat = np.diag([1.001, -0.001]).astype(complex)
    with pytest.raises(NotPositiveError):
        states.validate_density(mat)
    repaired = states.sanitize_density(mat)
    w, _ = linalg.hermitian_eigen(repaired.mat)
    assert w[0] >= 0
    assert abs(np.trace(repaired.mat) - 1) <= 1e-12


def test_qubit_from_bloch_center_and_pole():
    np.testing.assert_allclose(states.qubit_from_bloch((0, 0, 0)).mat, np.eye(2) / 2)
    np.testing.assert_allclose(
        states.qubit_from_bloch((1, 0, 0)).mat, np.full((2, 2), 0.5), atol=1e-15
    )


def test_qubit_from_bloch_general_entries():
    r1, r2, r3 = 0.3, -0.4, 0.5
    rho = states.qubit_from_bloch((r1, r2, r3)).mat
    expected = 0.5 * np.array(
        [[1 + r3, r1 - 1j * r2], [r1 + 1j * r2, 1 - r3]]
    )
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_qubit_from_bloch_rejects_outside_ball():
    with pytest.raises(BlochOutsideBallError):
        states.qubit_from_bloch((0.9, 0.5, 0.5))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-0.57, 0.57),
    st.floats(-0.57, 0.57),
    st.floats(-0.57, 0.57),
)
def test_bloch_round_trip(r1, r2, r3):
    rho = states.qubit_from_bloch((r1, r2, r3))
    back = states.bloch_of_qubit(rho)
    np.testing.assert_allclose(back, [r1, r2, r3], atol=1e-12)


def test_permutation_matrix_identity_and_swap():
    np.testing.assert_array_equal(states.permutation_matrix((0, 1, 2)), np.eye(3))
    np.testing.assert_array_equal(states.permutation_matrix((1, 0)), states.SIGMA_1)


def test_permutation_matrix_rejects_non_bijection():
    with pytest.raises(ValueError):
        states.permutation_matrix((0, 0, 2))


def test_permutation_composition_matches_matrix_product():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = tuple(rng.permutation(4))
        q = tuple(rng.permutation(4))
        prod = states.permutation_matrix(p) @ states.permutation_matrix(q)
        composed = states.permutation_matrix(states.compose_permutations(p, q))
        np.testing.assert_array_equal(prod, composed)


def test_permutation_inverse_is_transpose():
    rng = np.random.default_rng(22)
    for d in (2, 4, 6):
        p = tuple(rng.permutation(d))
        mat = states.permutation_matrix(p)
        np.testing.assert_array_equal(
            mat.T, states.permutation_matrix(states.invert_permutation(p))
        )
        np.testing.assert_array_equal(mat.conj().T, mat.T)


def test_conjugate_by_permutation_matches_matrices():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    p = tuple(rng.permutation(5))
    mat = states.permutation_matrix(p)
    expected = mat @ x @ mat.conj().T
    np.testing.assert_allclose(states.conjugate_by_permutation(x, p), expected, atol=1e-14)


def test_enumerate_permutations_counts():
    assert len(list(states.enumerate_permutations(1))) == 1
    perms = list(states.enumerate_permutations(3))
    assert len(perms) == 6
    assert len(set(perms)) == 6


def test_enumerate_permutations_matrix_sum():
    # each entry (i, j) is hit by exactly (d-1)! permutations
    total = sum(
        states.permutation_matrix(p) for p in states.enumerate_permutations(5)
    )
    np.testing.assert_allclose(total, 24 * np.ones((5, 5)), atol=0)


def test_enumerate_permutations_guard():
    with pytest.raises(DimensionTooLargeError):
        states.enumerate_permutations(11)


def test_all_ones_projector():
    np.testing.assert_array_equal(states.all_ones_projector(1), [[1]])
    e = states.all_ones_projector(3)
    np.testing.assert_allclose(e @ e, 3 * e, atol=0)


def test_all_ones_scaled_is_maximally_coherent():
    phi = states.validate_density(states.all_ones_projector(3) / 3)
    np.testing.assert_allclose(phi.mat, states.maximally_coherent_state(3).mat)


def test_maximally_coherent_state_entries():
    np.testing.assert_allclose(
        states.maximally_coherent_state(2).mat, np.full((2, 2), 0.5)
    )
    phi = states.maximally_coherent_state(3)
    np.testing.assert_allclose(phi.mat, np.full((3, 3), 1 / 3), atol=1e-15)
    w, _ = linalg.hermitian_eigen(phi.mat)
    np.testing.assert_allclose(w, [0, 0, 1], atol=1e-12)


def test_maximally_coherent_mixed_state_endpoints():
    np.testing.assert_allclose(
        states.maximally_coherent_mixed_state(4, 0.0).mat, np.eye(4) / 4
    )
    np.testing.assert_allclose(
        states.maximally_coherent_mixed_state(4, 1.0).mat,
        states.maximally_coherent_state(4).mat,
        atol=1e-15,
    )


def test_maximally_coherent_mixed_state_entries_and_spectrum():
    rho = states.maximally_coherent_mixed_state(3, 0.4)
    np.testing.assert_allclose(np.diag(rho.mat), np.full(3, 1 / 3), atol=1e-15)
    off = rho.mat[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, np.full(6, 0.4 / 3), atol=1e-15)
    w, _ = linalg.hermitian_eigen(rho.mat)
    np.testing.assert_allclose(w, [0.2, 0.2, 0.6], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.floats(0, 1))
def test_maximally_coherent_mixed_state_valid_over_range(d, u):
    # map u onto the full admissible weight interval
    p = -1 / (d - 1) + u * (1 + 1 / (d - 1))
    rho = states.maximally_coherent_mixed_state(d, p)
    states.validate_density(rho.mat)


def test_maximally_coherent_mixed_state_weight_guard():
    with pytest.raises(WeightOutOfRangeError):
        states.maximally_coherent_mixed_state(3, 1.1)
    with pytest.raises(WeightOutOfRangeError):
        states.maximally_coherent_mixed_state(3, -0.6)


def test_maximally_entangled_state():
    omega = states.maximally_entangled_state(3)
    assert omega.dims == (3, 3)
    assert abs(np.trace(omega.mat) - 1) <= 1e-15
    w, _ = linalg.hermitian_eigen(omega.mat)
    np.testing.assert_allclose(w[-1], 1.0, atol=1e-12)


def test_bell_diagonal_center_is_maximally_mixed():
    np.testing.assert_allclose(
        states.bell_diagonal_state(0, 0, 0).mat, np.eye(4) / 4
    )


def test_bell_diagonal_corner_is_rank_one():
    # evaluate the four eigenvalue expressions at (-1, -1, -1)
    lams = np.sort(states.bell_eigenvalues(-1, -1, -1))
    np.testing.assert_allclose(lams, [0, 0, 0, 1], atol=0)
    rho = states.bell_diagonal_state(-1, -1, -1)
    w, _ = linalg.hermitian_eigen(rho.mat)
    np.testing.assert_allclose(w, lams, atol=1e-12)
    # the rank-one vector is the antisymmetric Bell state
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    np.testing.assert_allclose(rho.mat, np.outer(singlet, singlet.conj()), atol=1e-12)


def test_bell_diagonal_generic_point():
    rho = states.bell_diagonal_state(0.5, 0.3, -0.2)
    states.validate_density(rho.mat, dims=(2, 2))
    assert abs(0.5) + abs(0.3) + abs(-0.2) == pytest.approx(1.0)


def test_bell_diagonal_rejects_outside_tetrahedron():
    with pytest.raises(InvalidBellParamsError):
        states.bell_diagonal_state(1, 1, 1)
    with pytest.raises(InvalidBellParamsError):
        states.bell_diagonal_state(1.5, 0, 0)


def test_random_density_is_valid():
    rng = np.random.default_rng(24)
    for d in (2, 3, 5):
        rho = states.random_density(d, rng)
        states.validate_density(rho.mat)


def test_random_bloch_stays_in_ball():
    rng = np.random.default_rng(25)
    for _ in range(200):
        assert np.linalg.norm(states.random_bloch(rng)) <= 1.0 + 1e-12
