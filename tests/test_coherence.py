import numpy as np
import pytest

from permutwirl import coherence, linalg, states, twirl
from permutwirl.errors import (
    DimensionTooLargeError,
    DimMismatchError,
    NonRealSumError,
    NotPositiveError,
    ParamOutOfRangeError,
    SampleCountError,
)

LN2 = np.log(2.0)
LN3 = np.log(3.0)


def _binary_entropy(x):
    return float(-x * np.log(x) - (1 - x) * np.log(1 - x))


def test_dephase_keeps_diagonal_states():
    rho = states.validate_density(np.diag([0.7, 0.2, 0.1]).astype(complex))
    np.testing.assert_array_equal(coherence.dephase(rho).mat, rho.mat)


def test_dephase_maximally_coherent():
    got = coherence.dephase(states.maximally_coherent_state(3))
    np.testing.assert_allclose(got.mat, np.eye(3) / 3, atol=1e-15)


def test_dephase_qubit_zeroes_planar_components():
    rho = states.qubit_from_bloch((0.3, -0.2, 0.4))
    got = coherence.dephase(rho)
    np.testing.assert_allclose(
        states.bloch_of_qubit(got), [0.0, 0.0, 0.4], atol=1e-12
    )
    np.testing.assert_array_equal(coherence.dephase(got).mat, got.mat)


def test_entropy_pure_state_is_zero():
    assert coherence.von_neumann_entropy(states.maximally_coherent_state(4)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_entropy_maximally_mixed():
    rho = states.validate_density(np.eye(5) / 5)
    assert coherence.von_neumann_entropy(rho) == pytest.approx(np.log(5), abs=1e-12)


def test_entropy_twirled_family_value():
    # eigenvalues (0.6, 0.2, 0.2)
    rho = states.maximally_coherent_mixed_state(3, 0.4)
    expected = -0.6 * np.log(0.6) - 0.4 * np.log(0.2)
    assert coherence.von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)


def _nan_eigenvalues(monkeypatch):
    monkeypatch.setattr(linalg, "hermitian_eigen", lambda _: (np.array([np.nan, 1.0]), None))


@pytest.mark.parametrize(
    "patch, call",
    [
        (None, lambda: coherence._entropy_of_probs(np.array([np.nan, 0.5, 0.5]))),
        (None, lambda: coherence._entropy_of_probs(np.array([0.5, 0.5, np.nan]))),
        (
            _nan_eigenvalues,
            lambda: coherence.von_neumann_entropy(states.DensityMatrix(np.eye(2) / 2, (2,))),
        ),
    ],
    ids=["probs-first", "probs-last", "eigenvalue"],
)
def test_entropy_rejects_nan(monkeypatch, patch, call):
    # a NaN probability is refused like a negative one, not counted as 0
    if patch is not None:
        patch(monkeypatch)
    with pytest.raises(NotPositiveError):
        call()


def test_l1_coherence_values():
    assert coherence.l1_coherence(states.validate_density(np.eye(3) / 3)) == 0.0
    for d in (2, 3, 5):
        assert coherence.l1_coherence(states.maximally_coherent_state(d)) == pytest.approx(
            d - 1, abs=1e-12
        )
    rho = states.qubit_from_bloch((0.3, 0.4, 0.1))
    assert coherence.l1_coherence(rho) == pytest.approx(0.5, abs=1e-12)


def test_rel_ent_coherence_values():
    assert coherence.rel_ent_coherence(
        states.validate_density(np.diag([0.9, 0.1]).astype(complex))
    ) == pytest.approx(0.0, abs=1e-12)
    for d in (2, 4):
        assert coherence.rel_ent_coherence(
            states.maximally_coherent_state(d)
        ) == pytest.approx(np.log(d), abs=1e-12)
    rho = states.maximally_coherent_mixed_state(3, 0.4)
    expected = LN3 - (-0.6 * np.log(0.6) - 0.4 * np.log(0.2))
    assert coherence.rel_ent_coherence(rho) == pytest.approx(expected, abs=1e-12)


def test_measures_require_monopartite():
    rho = states.maximally_entangled_state(2)
    with pytest.raises(DimMismatchError):
        coherence.l1_coherence(rho)
    with pytest.raises(DimMismatchError):
        coherence.dephase(rho)


def test_l1_lower_bound_tight_at_fixed_point():
    phi = states.maximally_coherent_state(3)
    assert coherence.l1_lower_bound(phi) == pytest.approx(2.0, abs=1e-12)
    assert coherence.coherence_report(phi, "l1").gap == pytest.approx(0.0, abs=1e-12)


def test_l1_lower_bound_qubit_is_abs_r1():
    rho = states.qubit_from_bloch((0.37, 0.2, -0.4))
    assert coherence.l1_lower_bound(rho) == pytest.approx(0.37, abs=1e-12)


def test_l1_lower_bound_equals_twirled_coherence():
    rng = np.random.default_rng(51)
    for d in (2, 3, 4):
        rho = states.random_density(d, rng)
        star = states.DensityMatrix(twirl.twirl_closed_form(rho.mat), (d,))
        assert coherence.l1_lower_bound(rho) == pytest.approx(
            coherence.l1_coherence(star), abs=1e-12
        )
        summary = twirl.twirl_params(rho)
        assert coherence.l1_lower_bound(rho) == d * (d - 1) * abs(summary.off_diag)


def test_l1_bound_tight_for_uniform_sign_real_states():
    rng = np.random.default_rng(52)
    for d in (3, 4):
        g = rng.uniform(0.0, 1.0, size=(d, d))
        mat = g @ g.T
        mat /= np.trace(mat)
        rho = states.validate_density(mat)
        assert coherence.coherence_report(rho, "l1").gap == pytest.approx(0.0, abs=1e-10)
    # uniformly nonpositive off-diagonals are tight as well (diagonally
    # dominant, hence positive semidefinite)
    neg = np.array(
        [[0.5, -0.03, -0.05], [-0.03, 0.3, -0.02], [-0.05, -0.02, 0.2]]
    )
    rho_neg = states.validate_density(neg)
    assert coherence.coherence_report(rho_neg, "l1").gap == pytest.approx(
        0.0, abs=1e-10
    )


def test_l1_bound_strict_for_mixed_sign_real_state():
    mat = np.array([[0.5, 0.2, -0.1], [0.2, 0.3, 0.05], [-0.1, 0.05, 0.2]])
    rho = states.validate_density(mat)
    report = coherence.coherence_report(rho, "l1")
    assert report.gap > 1e-3


def test_rel_ent_lower_bound_endpoints():
    assert coherence.rel_ent_lower_bound(
        states.validate_density(np.eye(3) / 3)
    ) == pytest.approx(0.0, abs=1e-12)
    for d in (2, 3, 5):
        phi = states.maximally_coherent_state(d)
        assert coherence.rel_ent_lower_bound(phi) == pytest.approx(
            np.log(d), abs=1e-12
        )


def test_rel_ent_lower_bound_matches_eigenvalue_route():
    rng = np.random.default_rng(53)
    rho = states.maximally_coherent_mixed_state(3, 0.4)
    expected = LN3 - (-0.6 * np.log(0.6) - 0.4 * np.log(0.2))
    assert coherence.rel_ent_lower_bound(rho) == pytest.approx(expected, abs=1e-12)
    for d in (2, 3, 5):
        rho = states.random_density(d, rng)
        rebuilt = twirl.reconstruct_output_state(twirl.twirl_params(rho))
        assert coherence.rel_ent_lower_bound(rho) == pytest.approx(
            coherence.rel_ent_coherence(rebuilt), abs=1e-9
        )


def test_coherence_report_qubit_frozen_values():
    rho = states.qubit_from_bloch((0.6, 0.1, 0.1))
    report = coherence.coherence_report(rho, "l1")
    assert report.value == pytest.approx(np.sqrt(0.37), abs=1e-12)
    assert report.lower_bound == pytest.approx(0.6, abs=1e-12)
    assert report.gap == pytest.approx(np.sqrt(0.37) - 0.6, abs=1e-12)
    rel = coherence.coherence_report(rho, "relent")
    r = np.sqrt(0.38)
    assert rel.value == pytest.approx(
        _binary_entropy((1 + 0.1) / 2) - _binary_entropy((1 + r) / 2), abs=1e-12
    )
    assert rel.lower_bound == pytest.approx(
        LN2 - _binary_entropy((1 + 0.6) / 2), abs=1e-12
    )


@pytest.mark.parametrize("measure", coherence.MEASURES)
def test_gap_nonnegative_on_random_states(measure):
    rng = np.random.default_rng(54)
    for d in (2, 3, 5):
        for _ in range(50):
            rho = states.random_density(d, rng)
            assert coherence.coherence_report(rho, measure).gap >= -1e-10


@pytest.mark.parametrize("measure", coherence.MEASURES)
def test_measures_invariant_under_permutations(measure):
    rng = np.random.default_rng(55)
    for d in (3, 4):
        rho = states.random_density(d, rng)
        value = coherence.coherence_report(rho, measure).value
        for _ in range(5):
            tau = tuple(rng.permutation(d))
            rotated = states.DensityMatrix(
                states.conjugate_by_permutation(rho.mat, tau), (d,)
            )
            assert coherence.coherence_report(rotated, measure).value == pytest.approx(
                value, abs=1e-10
            )


@pytest.mark.parametrize("measure", coherence.MEASURES)
def test_measures_invariant_under_diagonal_phases(measure):
    rng = np.random.default_rng(56)
    d = 4
    rho = states.random_density(d, rng)
    value = coherence.coherence_report(rho, measure).value
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    mat = (phases[:, None] * rho.mat) * phases.conj()[None, :]
    rotated = states.DensityMatrix(mat, (d,))
    assert coherence.coherence_report(rotated, measure).value == pytest.approx(value, abs=1e-10)


def test_unknown_measure_rejected():
    rho = states.validate_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        coherence.coherence_report(rho, "l2")


# ------------------------------------------------------- assistance estimator


def test_assistance_pure_state_is_exact():
    phi = states.maximally_coherent_state(3)
    for n in (1, 7):
        est = coherence.assistance_estimate(phi, "l1", n, seed=2)
        assert est.value == pytest.approx(coherence.l1_coherence(phi), abs=1e-10)


def test_assistance_maximally_mixed_qubit_reaches_one():
    # the split into the two eigenstates of SIGMA_1 averages to coherence 1
    half = states.validate_density(np.eye(2) / 2)
    plus = np.array([1, 1]) / np.sqrt(2)
    explicit = 0.5 * coherence.l1_coherence(
        states.validate_density(np.outer(plus, plus))
    ) + 0.5 * coherence.l1_coherence(
        states.validate_density(np.outer([1, -1], [1, -1]) / 2)
    )
    assert explicit == pytest.approx(1.0, abs=1e-12)
    est = coherence.assistance_estimate(half, "l1", 2000, seed=3)
    assert 0.98 <= est.value <= 1.0 + 1e-9


def test_assistance_monotone_in_sample_count():
    rng = np.random.default_rng(57)
    rho = states.random_density(3, rng)
    values = [
        coherence.assistance_estimate(rho, "l1", n, seed=9).value
        for n in (1, 5, 20, 100, 300)
    ]
    assert values == sorted(values)


def test_assistance_deterministic_given_seed():
    rng = np.random.default_rng(58)
    rho = states.random_density(3, rng)
    a = coherence.assistance_estimate(rho, "relent", 50, seed=13)
    b = coherence.assistance_estimate(rho, "relent", 50, seed=13)
    assert a == b


def _assistance_scores_per_sample(rho, measure, samples, seed):
    # the per-sample loop that the stacked estimator replaced, kept as its
    # oracle: one Haar isometry drawn, orthonormalised and scored at a time
    rng = np.random.default_rng(seed)
    w, v = linalg.hermitian_eigen(rho.mat)
    keep = w > coherence.ASSIST_RANK_FLOOR
    b = v[:, keep] * np.sqrt(w[keep])
    rank = int(np.count_nonzero(keep))
    sizes = list(range(rank, rho.d + coherence.EXTRA_ENSEMBLE_SIZES + 1))
    scores = []
    for i in range(samples):
        m = sizes[i % len(sizes)]
        g = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        q, upper = np.linalg.qr(g)
        phases = np.diag(upper).copy()
        phases /= np.abs(phases)
        w_cols = b @ (q * phases.conj()).conj().T
        if measure == "l1":
            mags = np.abs(w_cols)
            scores.append(float((mags.sum(axis=0) ** 2).sum() - (mags**2).sum()))
        else:
            probs = np.abs(w_cols) ** 2
            total = -coherence._xlogx(probs).sum()
            scores.append(float(total + coherence._xlogx(probs.sum(axis=0)).sum()))
    return np.array(scores)


def _state_of_rank(d, rank, rng):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return states.DensityMatrix(mat / np.trace(mat).real, (d,))


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("rank", ["1", "2", "full"])
def test_assistance_scores_equal_per_sample_loop(monkeypatch, d, rank):
    r = d if rank == "full" else min(int(rank), d)
    rho = _state_of_rank(d, r, np.random.default_rng(100 * d + r))
    # 40 member entries per block leaves one cycle or a few in each block,
    # so the larger counts span many blocks and most end mid-cycle
    for block in (40, linalg.BLOCK_ENTRIES):
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
        for measure in coherence.MEASURES:
            for samples in (1, 2, 3, 7, 300, 1001):
                got = coherence._assistance_scores(rho, measure, samples, seed=d)
                want = _assistance_scores_per_sample(rho, measure, samples, seed=d)
                assert got.shape == (samples,)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("samples", [1, 5, 7, 13])
def test_assistance_scores_exactly_the_samples_asked_for(monkeypatch, samples):
    # a rank-1 d=4 state cycles through 6 ensemble sizes, so every count
    # here ends mid-cycle; no decomposition past the last is scored
    term = coherence._pure_l1_terms
    rows = []

    def counting(w_cols):
        rows.append(len(w_cols))
        return term(w_cols)

    monkeypatch.setattr(coherence, "_pure_l1_terms", counting)
    rho = _state_of_rank(4, 1, np.random.default_rng(4))
    for block in (40, linalg.BLOCK_ENTRIES):
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
        rows.clear()
        coherence._assistance_scores(rho, "l1", samples, seed=1)
        assert sum(rows) == samples


def _nan_on_second_call(term):
    calls = []

    def fake(w_cols):
        calls.append(None)
        return np.nan if len(calls) == 2 else term(w_cols)

    return fake


@pytest.mark.parametrize("measure", ["l1", "relent"])
def test_assistance_keeps_a_nan_score_that_is_not_first(monkeypatch, measure):
    name = "_pure_l1_terms" if measure == "l1" else "_pure_rel_ent_terms"
    monkeypatch.setattr(coherence, name, _nan_on_second_call(getattr(coherence, name)))
    rho = states.random_density(3, np.random.default_rng(60))
    assert np.isnan(coherence.assistance_estimate(rho, measure, 20, seed=5).value)


def test_assistance_at_least_average_of_any_sampled_split():
    # estimator value also stays above the trivial eigen-decomposition average
    rng = np.random.default_rng(59)
    rho = states.random_density(3, rng)
    w, v = linalg.hermitian_eigen(rho.mat)
    eigen_avg = sum(
        w[k] * coherence.l1_coherence(
            states.DensityMatrix(np.outer(v[:, k], v[:, k].conj()), (3,))
        )
        for k in range(3)
    )
    est = coherence.assistance_estimate(rho, "l1", 500, seed=4)
    assert est.value >= eigen_avg - 0.1


def test_assistance_upper_bounded_by_twirl_statistically():
    # matched sampling budgets; margin documents the statistical nature
    rng = np.random.default_rng(60)
    for i in range(5):
        rho = states.random_density(2, rng)
        star = twirl.reconstruct_output_state(twirl.twirl_params(rho))
        e_rho = coherence.assistance_estimate(rho, "l1", 400, seed=70 + i)
        e_star = coherence.assistance_estimate(star, "l1", 400, seed=70 + i)
        assert e_rho.value <= e_star.value + 0.05


def test_assistance_sample_count_guard(monkeypatch):
    rho = states.validate_density(np.eye(2) / 2)
    with pytest.raises(SampleCountError):
        coherence.assistance_estimate(rho, "l1", 0, seed=1)

    # an oversized count is refused before any eigensolve or draw
    def no_work(*args, **kwargs):
        raise AssertionError("sampled past the limit")

    monkeypatch.setattr(coherence, "_assistance_scores", no_work)
    monkeypatch.setattr(linalg, "hermitian_eigen", no_work)
    with pytest.raises(DimensionTooLargeError, match=str(coherence.MAX_ASSIST_SAMPLES)):
        coherence.assistance_estimate(rho, "l1", coherence.MAX_ASSIST_SAMPLES + 1, seed=1)


@pytest.mark.parametrize(
    "off_diag, error",
    [(None, NonRealSumError), (np.float64(np.nan), ParamOutOfRangeError)],
    ids=["nan-state", "nan-weight"],
)
def test_rel_ent_lower_bound_rejects_nan(monkeypatch, off_diag, error):
    rho = states.DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]], complex), (2,))
    if off_diag is not None:
        monkeypatch.setattr(twirl, "off_diagonal_means", lambda _: off_diag)
    with pytest.raises(error):
        coherence.rel_ent_lower_bound(rho)
