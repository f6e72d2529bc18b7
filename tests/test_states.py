import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutwirl import coherence, linalg, states, sweeps, twirl, verify
from permutwirl.errors import (
    BlochOutsideBallError,
    CertificateError,
    DimensionTooLargeError,
    DimMismatchError,
    InvalidBellParamsError,
    NotHermitianError,
    NotPositiveError,
    ParamOutOfRangeError,
    PermutwirlError,
    SampleCountError,
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


def test_sanitize_density_validates_its_repair(monkeypatch):
    mat = np.diag([1.001, -0.001]).astype(complex)
    checked = []
    original = states._check_densities

    def spy(stack, *args, **kwargs):
        checked.append(stack.shape)
        return original(stack, *args, **kwargs)

    monkeypatch.setattr(states, "_check_densities", spy)
    repaired = states.sanitize_density(mat)
    assert checked == [(1, 2, 2)]
    # the repair spelled out: validating it changes no bit
    w, v = linalg.hermitian_eigen(mat)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    want = (v * w) @ v.conj().T
    assert (repaired.mat.view(np.uint64) == want.view(np.uint64)).all()


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


@pytest.mark.parametrize(
    "perm, message",
    [
        ([], r"^dimension must be >= 1, got 0$"),
        # a row that is not 1-d is refused naming the shape given
        ([[0, 1]], r"^not a permutation of 0\.\.1 in each row: got int\d+ \(1, 2\)$"),
    ],
    ids=["empty", "one-row-2-d"],
)
def test_permutation_matrix_refusals_name_what_was_given(perm, message):
    with pytest.raises(ValueError, match=message):
        states.permutation_matrix(perm)


def test_permutation_inverse_is_transpose():
    rng = np.random.default_rng(22)
    for d in (2, 4, 6):
        p = tuple(rng.permutation(d))
        mat = states.permutation_matrix(p)
        np.testing.assert_array_equal(
            mat.T, states.permutation_matrix(np.argsort(p))
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


def _random_bloch_by_norm(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)


def test_random_bloch_has_the_bits_of_the_norm_route():
    rng, oracle_rng = np.random.default_rng(26), np.random.default_rng(26)
    got = np.array([states.random_bloch(rng) for _ in range(5000)])
    want = np.array([_random_bloch_by_norm(oracle_rng) for _ in range(5000)])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _nan_bell_eigenvalues(monkeypatch):
    monkeypatch.setattr(states, "bell_eigenvalues", lambda *t: np.full(4, np.nan))


def _nan_hermiticity(monkeypatch):
    monkeypatch.setattr(linalg, "max_abs_diffs", lambda a, b: np.full(np.shape(a)[:-2], np.nan))


def _nan_trace(monkeypatch):
    # let a NaN diagonal pass as_complex_matrix and the Hermiticity guard
    monkeypatch.setattr(linalg, "as_complex_matrix", lambda m, **_: np.asarray(m, complex))
    monkeypatch.setattr(linalg, "max_abs_diffs", lambda a, b: np.zeros(np.shape(a)[:-2]))


def _nan_eigenvalues(monkeypatch):
    # the screen would accept the positive MIXED before any eigenvalue call
    monkeypatch.setattr(states, "_cholesky_proves_positive", lambda *_: False)
    monkeypatch.setattr(linalg, "hermitian_eigvals", lambda m, **_: np.full(np.shape(m)[:-1], np.nan))


MIXED = np.eye(2) / 2


@pytest.mark.parametrize(
    "patch, fn, args, error",
    [
        (None, states.qubit_from_bloch, ((np.nan, 0, 0),), BlochOutsideBallError),
        (None, states.maximally_coherent_mixed_state, (3, np.nan), WeightOutOfRangeError),
        (None, states.maximally_coherent_mixed_state, (1, np.nan), WeightOutOfRangeError),
        (None, states.maximally_coherent_mixed_state, (1, np.inf), WeightOutOfRangeError),
        (None, states.maximally_coherent_mixed_state, (1, -np.inf), WeightOutOfRangeError),
        (None, states.validate_bell_params, (np.nan, 0, 0), InvalidBellParamsError),
        (
            _nan_bell_eigenvalues,
            states.validate_bell_params,
            (0, 0, 0),
            InvalidBellParamsError,
        ),
        (_nan_hermiticity, states.validate_density, (MIXED,), NotHermitianError),
        (_nan_trace, states.validate_density, ([[np.nan, 0], [0, 0.5]],), TraceNotOneError),
        (_nan_eigenvalues, states.validate_density, (MIXED,), NotPositiveError),
    ],
    ids=[
        "bloch-norm",
        "coherent-mixed-weight",
        "coherent-mixed-weight-1x1-nan",
        "coherent-mixed-weight-1x1-inf",
        "coherent-mixed-weight-1x1-neg-inf",
        "bell-abs-t",
        "bell-eigenvalue",
        "density-hermiticity",
        "density-trace",
        "density-positivity",
    ],
)
def test_guards_reject_nan(monkeypatch, patch, fn, args, error):
    # each guard refuses a NaN with the error it raises for a finite violation
    if patch is not None:
        patch(monkeypatch)
    with pytest.raises(error):
        fn(*args)


MIXED3 = np.eye(3) / 3


def _perturbed_choi(monkeypatch):
    choi = twirl.choi_matrix
    monkeypatch.setattr(
        twirl, "choi_matrix", lambda d: states.DensityMatrix(choi(d).mat + 1e-9, (d, d))
    )


# Each count guard refuses what is not an integer with the class it raises
# for a count below its minimum, before any draw or allocation.
COUNT_GUARDS = [
    ("verify-dmax", verify.run_suite, lambda n: (n, 2), ValueError),
    ("verify-samples", verify.run_suite, lambda n: (2, n), ValueError),
    (
        "assist-samples",
        coherence.assistance_estimate,
        lambda n: (states.DensityMatrix(MIXED, (2,)), "l1", n, 1),
        SampleCountError,
    ),
    ("qubit-sweep-steps", sweeps.qubit_sweep_rows, lambda n: (0.1, 0.1, n), ParamOutOfRangeError),
    ("bell-grid", sweeps.bell_lattice, lambda n: (n,), ParamOutOfRangeError),
]
NOT_COUNTS = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf, "2.5": 2.5, "true": True}


@pytest.mark.parametrize(
    "patch, fn, args, error",
    [
        (None, linalg.split_dims, (np.eye(4), (0, 4)), DimMismatchError),
        (None, states.validate_density, (MIXED, (0, 2)), DimMismatchError),
        (None, states.validate_density, (MIXED, (3,)), DimMismatchError),
        (None, states.validate_density_stack, (MIXED,), DimMismatchError),
        (None, states.sanitize_density, (-np.eye(2),), NotPositiveError),
        (None, states.qubit_stack_from_bloch, ([0, 0, 0],), ValueError),
        (None, states.bloch_of_qubit, (states.DensityMatrix(MIXED3, (3,)),), DimMismatchError),
        (None, states.bloch_of_qubit_stack, (MIXED3[None],), DimMismatchError),
        (
            None,
            states.conjugate_stack_by_permutations,
            (np.zeros((2, 3, 3)), [[0, 1, 2]]),
            DimMismatchError,
        ),
        (None, states.enumerate_permutations, (0,), ValueError),
        (None, states.all_ones_projector, (0,), ValueError),
        (None, states.maximally_coherent_mixed_state, (0, 0.5), ValueError),
        (None, states.maximally_entangled_state, (0,), ValueError),
        (None, twirl.output_state_stack, (0, 0.0), ParamOutOfRangeError),
        (None, twirl.choi_matrix, (1,), ParamOutOfRangeError),
        (_perturbed_choi, twirl.entanglement_breaking_certificate, (3,), CertificateError),
        (None, sweeps.qubit_sweep_rows, (0.1, 0.1, 0), ParamOutOfRangeError),
        (None, verify.run_suite, (0,), ValueError),
    ]
    + [
        (None, fn, args(value), error)
        for _, fn, args, error in COUNT_GUARDS
        for value in NOT_COUNTS.values()
    ],
    ids=[
        "split-dims-non-positive",
        "dims-non-positive",
        "dims-product",
        "density-stack-ndim",
        "sanitize-no-weight",
        "bloch-stack-shape",
        "bloch-of-qutrit",
        "bloch-stack-of-qutrits",
        "conjugate-stack-shapes",
        "enumerate-d0",
        "all-ones-d0",
        "coherent-mixed-d0",
        "entangled-d0",
        "output-stack-d0",
        "choi-d1",
        "certificate-residual",
        "qubit-sweep-steps",
        "verify-dmax",
    ]
    + [f"{guard}-{kind}" for guard, *_ in COUNT_GUARDS for kind in NOT_COUNTS],
)
def test_refusals_raise_their_error_class(monkeypatch, patch, fn, args, error):
    # each refusal raises exactly its documented class
    if patch is not None:
        patch(monkeypatch)
    with pytest.raises(error) as caught:
        fn(*args)
    assert caught.type is error


@pytest.mark.parametrize("guard, fn, args, error", COUNT_GUARDS, ids=[g[0] for g in COUNT_GUARDS])
def test_count_guards_read_numpy_integers_as_ints(guard, fn, args, error):
    # a numpy integer too small keeps the integer message, and an accepted
    # one gives what the int gives
    with pytest.raises(error, match=r" must be >= [12], got 0$"):
        fn(*args(np.int64(0)))
    assert repr(fn(*args(np.int64(2)))) == repr(fn(*args(2)))


# Every dimension argument follows linalg._check_count and every permutation
# argument states._check_permutations: a value that is not one (a bool, a
# float, NaN or an infinity included) is refused with the class the function
# raises for a dimension below its minimum, before any draw, and a numpy
# integer (array) gives what the plain int (list) gives.
NOT_DIMENSIONS = {
    "0": 0,
    "minus-1": -1,
    "2.5": 2.5,
    "3.0": 3.0,
    "true": True,
    "nan": np.nan,
    "inf": np.inf,
    "minus-inf": -np.inf,
}
NOT_PERMUTATIONS = {
    "0.5-1": [0.5, 1],
    "1.9-0.2": [1.9, 0.2],
    "strings": ["1", "0"],
    "bools": [True, False],
    "floats": [0.0, 1.0],
    "2-d": [[0, 1], [1, 0]],
}
DIMENSION = (NOT_DIMENSIONS, (np.int64(3), 3))
PERMUTATION = (NOT_PERMUTATIONS, (np.array([1, 0], dtype=np.uint8), [1, 0]))
# (id, call(value, rng), its class, (the refused values, (accepted, plain)))
ARGUMENT_RULES = [
    ("enumerate", lambda d, rng: list(states.enumerate_permutations(d)), ValueError, DIMENSION),
    ("all-ones", lambda d, rng: states.all_ones_projector(d), ValueError, DIMENSION),
    ("coherent", lambda d, rng: states.maximally_coherent_state(d), ValueError, DIMENSION),
    (
        "coherent-mixed",
        lambda d, rng: states.maximally_coherent_mixed_state(d, 0.5),
        ValueError,
        DIMENSION,
    ),
    ("entangled", lambda d, rng: states.maximally_entangled_state(d), ValueError, DIMENSION),
    ("random-hermitian", states.random_hermitian, ValueError, DIMENSION),
    (
        "random-hermitian-stack",
        lambda d, rng: states.random_hermitian_stack(d, 2, rng),
        ValueError,
        DIMENSION,
    ),
    (
        "random-density-stack",
        lambda d, rng: states.random_density_stack(d, 2, rng),
        ValueError,
        DIMENSION,
    ),
    (
        "output-stack",
        lambda d, rng: twirl.output_state_stack(d, 0.0),
        ParamOutOfRangeError,
        DIMENSION,
    ),
    (
        "choi",
        lambda d, rng: twirl.choi_matrix(d),
        ParamOutOfRangeError,
        ({"1": 1, **NOT_DIMENSIONS}, DIMENSION[1]),
    ),
    (
        "permutation-matrix",
        lambda p, rng: states.permutation_matrix(p),
        ValueError,
        ({"empty": [], **NOT_PERMUTATIONS}, PERMUTATION[1]),
    ),
    (
        "conjugate-stack",
        lambda p, rng: states.conjugate_stack_by_permutations([[[1, 2], [3, 4]]], [p]),
        ValueError,
        PERMUTATION,
    ),
]


def _refusal(name, kind, error):
    # a 2-d row stacks into a 3-d array of rows, which no matrix stack
    # matches: conjugate_stack_by_permutations refuses that shape as before
    return DimMismatchError if (name, kind) == ("conjugate-stack", "2-d") else error


@pytest.mark.parametrize(
    "call, error, value",
    [
        (call, _refusal(name, kind, error), value)
        for name, call, error, (values, _) in ARGUMENT_RULES
        for kind, value in values.items()
    ],
    ids=[f"{name}-{kind}" for name, _, _, (values, _) in ARGUMENT_RULES for kind in values],
)
def test_arguments_that_are_not_counts_or_permutations_are_refused(call, error, value):
    rng = np.random.default_rng(90)
    before = rng.bit_generator.state
    with pytest.raises(error) as caught:
        call(value, rng)
    assert caught.type is error
    assert rng.bit_generator.state == before


def _comparable(out):
    if isinstance(out, states.DensityMatrix):
        return _comparable(out.mat), repr(out.dims)
    if isinstance(out, np.ndarray):
        return out.dtype, out.shape, out.tobytes()
    return repr(out)


@pytest.mark.parametrize(
    "call, accepted",
    [(call, accepted) for _, call, _, (_, accepted) in ARGUMENT_RULES],
    ids=[row[0] for row in ARGUMENT_RULES],
)
def test_arguments_accept_numpy_integers(call, accepted):
    value, plain = accepted
    got = call(value, np.random.default_rng(91))
    assert _comparable(got) == _comparable(call(plain, np.random.default_rng(91)))


# ------------------------------------------------------------ positivity screen
#
# At every side, a Cholesky screen may accept a density before any
# eigenvalue call.  Every decision and message must still be the one the
# eigenvalues alone give.

TOL = linalg.DEFAULT_TOL
# min eigenvalues placed around -TOL; the eigenvalues refuse the first,
# may go either way on the second, and refuse only the last of the rest
PLACEMENTS = [-1.001 * TOL, -TOL, -0.999 * TOL, -TOL / 2, 0.0, 1e-12, -1e-9]


def _density_with_min_eigenvalue(d, lam_min, seed):
    """U diag(lam) U^dagger with trace one and smallest eigenvalue lam_min."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    rest = rng.uniform(0.5, 1.5, d - 1)
    lam = np.concatenate([[lam_min], rest * (1 - lam_min) / rest.sum()])
    rho = (q * lam) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def _eigenvalue_refusal(stack, where=lambda i: ""):
    """(error class, message) of the positivity check by eigenvalues alone,
    or None when it accepts every matrix of the stack."""
    min_eig = linalg.hermitian_eigvals(stack)[:, 0]
    bad = np.flatnonzero(~(min_eig >= -TOL))
    if not bad.size:
        return None
    i = bad[0]
    return NotPositiveError, f"{where(i)}min eigenvalue {min_eig[i]:.6e} below -{TOL:g}"


def _refusal(fn, arg):
    try:
        fn(arg)
    except PermutwirlError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("d", [2, 3, 8, 16, 32, 64, 256])
def test_positivity_decisions_equal_the_eigenvalues_at_the_boundary(d):
    rhos = [_density_with_min_eigenvalue(d, lam, seed=d + k) for k, lam in enumerate(PLACEMENTS)]
    want = [_eigenvalue_refusal(rho[None]) for rho in rhos]
    refused = [w is not None for w in want]
    assert refused[0] and not any(refused[2:6]) and refused[6]
    assert [_refusal(states.validate_density, rho) for rho in rhos] == want
    # a stack is refused at its first bad matrix, past row 0
    stack = np.stack(rhos[2:])
    assert _refusal(states.validate_density_stack, stack) == _eigenvalue_refusal(
        stack, where=lambda i: f"matrix {i}: "
    )


@pytest.mark.parametrize(
    "lam_min, proved",
    [(-0.6 * TOL, False), (-0.4 * TOL, True), (1e-3, True)],
    ids=["-0.6tol", "-0.4tol", "1e-3"],
)
def test_cholesky_screen_proves_no_min_eigenvalue_below_minus_half_tol(lam_min, proved):
    rho = _density_with_min_eigenvalue(64, lam_min, seed=5)[None]
    part = linalg._hermitian_part(rho, lambda i: "")
    assert states._cholesky_proves_positive(part, TOL) is proved


def test_eigenvalues_after_a_failed_screen_keep_their_bits(monkeypatch):
    # every matrix is within tol of Hermitian, not on it, and matrix 2 is not
    # positive: the bits are those the fallback gave when validation formed
    # its own Hermitian part
    monkeypatch.setattr(states, "_cholesky_proves_positive", lambda *_: False)
    rng = np.random.default_rng(41)
    stack = states.random_density_stack(6, 4, rng)
    stack[2] += 0.25 * np.diag([1.0, -1.0, 0, 0, 0, 0])
    noise = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
    stack += 2e-11 * np.triu(noise, 1)
    with pytest.raises(NotPositiveError, match="^matrix 2: min eigenvalue -1.809885e-01 below") as caught:
        states.validate_density_stack(stack)
    assert caught.value.min_eigenvalue.hex() == "-0x1.72aa19ec2704cp-3"


def test_positive_densities_of_every_side_need_no_eigenvalues(monkeypatch):
    sides = []
    original = linalg.hermitian_eigvals

    def counted(a, *args, **kwargs):
        sides.append(np.shape(a)[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigvals", counted)
    for d in (2, 3, 31, 32, 64):
        states.validate_density(_density_with_min_eigenvalue(d, 1e-3, seed=d))
    assert sides == []


def test_large_non_positive_density_skips_the_screen(monkeypatch):
    # trace one and Hermitian, but |h|_F near 7e3: the factorisation's
    # rounding could hide a negative eigenvalue, so the eigenvalues decide
    rho = np.eye(32, dtype=complex) / 32
    rho[0, 1] = rho[1, 0] = 5e3
    factorised = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorised.append(a) or cholesky(a))
    refusal = _refusal(states.validate_density, rho)
    assert refusal is not None and refusal == _eigenvalue_refusal(rho[None])
    assert factorised == []
