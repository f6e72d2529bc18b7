import numpy as np
import pytest

from permutwirl import entanglement, states, twirl
from permutwirl.entanglement import Verdict
from permutwirl.errors import DimMismatchError


def test_product_state_is_ppt():
    rng = np.random.default_rng(61)
    prod = np.kron(states.random_density(2, rng).mat, states.random_density(2, rng).mat)
    rho = states.validate_density(prod, dims=(2, 2))
    report = entanglement.is_ppt(rho)
    assert report.is_ppt
    assert report.min_eig_pt >= -1e-12


def test_bell_state_violates_ppt():
    omega = states.maximally_entangled_state(2)
    report = entanglement.is_ppt(omega)
    assert not report.is_ppt
    assert report.min_eig_pt == pytest.approx(-0.5, abs=1e-12)


def test_ppt_verdict_independent_of_side():
    rng = np.random.default_rng(62)
    rho = states.random_density(6, rng, dims=(2, 3))
    a = entanglement.is_ppt(rho, side="A")
    b = entanglement.is_ppt(rho, side="B")
    assert a.is_ppt == b.is_ppt
    assert a.min_eig_pt == pytest.approx(b.min_eig_pt, abs=1e-12)


def test_is_ppt_requires_bipartite_dims():
    rho = states.validate_density(np.eye(4) / 4)
    with pytest.raises(DimMismatchError):
        entanglement.is_ppt(rho)


def test_boundary_flag_on_twirled_output():
    omega = states.maximally_entangled_state(2)
    out = twirl.twirl_one_sided(omega.mat, (2, 2), "A")
    report = entanglement.is_ppt(states.DensityMatrix(out, (2, 2)))
    assert report.is_ppt
    assert report.boundary


def test_separable_verdict_bell_state():
    assert entanglement.separable_verdict(states.maximally_entangled_state(2)) is Verdict.ENTANGLED


def test_separable_verdict_twirled_two_qubit():
    rng = np.random.default_rng(63)
    for _ in range(20):
        rho = states.random_density(4, rng, dims=(2, 2))
        one = states.DensityMatrix(twirl.twirl_one_sided(rho.mat, (2, 2), "A"), (2, 2))
        both = states.DensityMatrix(twirl.twirl_two_sided(rho.mat, (2, 2))[0], (2, 2))
        assert entanglement.separable_verdict(one) is Verdict.SEPARABLE
        assert entanglement.separable_verdict(both) is Verdict.SEPARABLE


def test_separable_verdict_qubit_qutrit_decides():
    rng = np.random.default_rng(64)
    prod = np.kron(states.random_density(2, rng).mat, states.random_density(3, rng).mat)
    rho = states.validate_density(prod, dims=(2, 3))
    assert entanglement.separable_verdict(rho) is Verdict.SEPARABLE


def test_separable_verdict_undecided_beyond_2x3():
    rng = np.random.default_rng(65)
    prod = np.kron(states.random_density(3, rng).mat, states.random_density(3, rng).mat)
    rho = states.validate_density(prod, dims=(3, 3))
    assert entanglement.separable_verdict(rho) is Verdict.UNDECIDED
    omega = states.maximally_entangled_state(3)
    assert entanglement.separable_verdict(omega) is Verdict.ENTANGLED


def test_octahedron_membership_examples():
    assert entanglement.bell_octahedron_member(0, 0, 0)
    assert not entanglement.bell_octahedron_member(-1, -1, -1)
    assert entanglement.bell_octahedron_member(0.5, 0.3, -0.2)


def test_octahedron_membership_matches_ppt_on_grid():
    axis = np.linspace(-1.0, 1.0, 9)
    checked = 0
    for t1 in axis:
        for t2 in axis:
            for t3 in axis:
                if states.bell_eigenvalues(t1, t2, t3).min() < -1e-12:
                    continue
                rho = states.bell_diagonal_state(t1, t2, t3)
                member = entanglement.bell_octahedron_member(t1, t2, t3, tol=1e-9)
                assert member == entanglement.is_ppt(rho, tol=1e-9).is_ppt
                checked += 1
    assert checked > 100


def test_min_pt_eigenvalues_match_is_ppt():
    rng = np.random.default_rng(29)
    for dims in ((2, 2), (2, 3)):
        d = dims[0] * dims[1]
        rhos = [states.random_density(d, rng, dims=dims) for _ in range(5)]
        rhos.append(states.maximally_entangled_state(2) if dims == (2, 2) else rhos[0])
        stack = np.stack([rho.mat for rho in rhos])
        for side in ("A", "B"):
            got = entanglement.min_pt_eigenvalues(stack, dims, side)
            want = [entanglement.is_ppt(rho, side=side).min_eig_pt for rho in rhos]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

