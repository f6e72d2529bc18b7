import itertools
import math

import numpy as np
import pytest

from permutwirl import coherence, entanglement, linalg, states, sweeps, twirl, verify
from permutwirl.errors import (
    DimensionTooLargeError,
    InvalidBellParamsError,
    ParamOutOfRangeError,
)


def _bell_rows_per_point(grid):
    # the per-point lattice walk that the stacked sweep replaced, kept as
    # its oracle
    axis = np.linspace(-1.0, 1.0, grid)
    rows = []
    for t1 in axis:
        for t2 in axis:
            for t3 in axis:
                if states.bell_eigenvalues(t1, t2, t3).min() < -1e-12:
                    continue
                rho = states.bell_diagonal_state(t1, t2, t3)
                member = entanglement.bell_octahedron_member(t1, t2, t3)
                before = entanglement.is_ppt(rho).is_ppt
                image = twirl.twirl_one_sided(rho.mat, (2, 2), linalg.SIDE_A)
                image_state = states.DensityMatrix(image, (2, 2))
                after = entanglement.is_ppt(image_state).is_ppt
                t1_image = float(
                    np.trace(image @ np.kron(states.SIGMA_1, states.SIGMA_1)).real
                )
                rows.append(
                    (
                        float(t1),
                        float(t2),
                        float(t3),
                        int(member),
                        int(before),
                        int(after),
                        t1_image,
                    )
                )
    return rows


def _worst(*values) -> float:
    # the largest of values, or NaN if any of them is NaN: built-in max
    # drops a NaN that is not its first argument
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _bell_geometry_per_point():
    # the per-point walk of the verify check, kept as its oracle
    axis = np.linspace(-1.0, 1.0, verify.BELL_GRID)
    disagreements = 0
    worst_image = 0.0
    for t1 in axis:
        for t2 in axis:
            for t3 in axis:
                if states.bell_eigenvalues(t1, t2, t3).min() < -1e-12:
                    continue
                rho = states.bell_diagonal_state(t1, t2, t3)
                member = entanglement.bell_octahedron_member(t1, t2, t3, tol=1e-9)
                ppt = entanglement.is_ppt(rho, tol=1e-9).is_ppt
                if member != ppt:
                    disagreements += 1
                image = twirl.twirl_one_sided(rho.mat, (2, 2), linalg.SIDE_A)
                expect = states.bell_diagonal_state(t1, 0.0, 0.0).mat
                worst_image = _worst(
                    worst_image, linalg.max_abs_diff(image, expect)
                )
    return float(disagreements), worst_image


@pytest.mark.parametrize("grid", [2, 3, 9, 21])
def test_bell_sweep_rows_equal_per_point_walk(grid):
    rows = sweeps.bell_sweep_rows(grid)
    assert rows == _bell_rows_per_point(grid)
    assert all(type(v) is float for row in rows for v in row[:3] + row[6:])
    assert all(type(v) is int for row in rows for v in row[3:6])


def test_bell_geometry_check_equals_per_point_walk():
    check = verify.check_bell_geometry
    (checks_row,) = [r for r in verify._CHECKS if r[0] is check]
    residuals = verify._residuals(checks_row, verify.DEFAULT_DMAX, verify.DEFAULT_SAMPLES, None)
    (row,) = [tuple(r) for r in residuals.T.tolist()]
    assert row == _bell_geometry_per_point()
    measured = checks_row[2:]
    assert all(residual <= tol for residual, (_, tol) in zip(row, measured, strict=True))


def test_bell_lattice_grid_guards():
    with pytest.raises(ParamOutOfRangeError):
        sweeps.bell_lattice(1)
    with pytest.raises(DimensionTooLargeError, match=str((sweeps.MAX_BELL_GRID + 1) ** 3)):
        sweeps.bell_lattice(sweeps.MAX_BELL_GRID + 1)


@pytest.mark.parametrize("grid", range(2, 12))
def test_bell_lattice_keeps_the_points_validation_accepts(grid):
    axis = np.linspace(-1.0, 1.0, grid)
    accepted = []
    for t in itertools.product(axis, repeat=3):
        try:
            states.validate_bell_params(*t)
        except InvalidBellParamsError:
            continue
        accepted.append(list(t))
    t, rho = sweeps.bell_lattice(grid)
    assert t.tolist() == accepted
    assert len(rho) == len(accepted)


@pytest.mark.parametrize("r2, r3", [(np.nan, 0.1), (0.1, np.nan), (np.nan, np.nan)])
def test_qubit_sweep_rejects_nan(r2, r3):
    with pytest.raises(ParamOutOfRangeError, match="r2\\^2 \\+ r3\\^2 = nan"):
        sweeps.qubit_sweep_rows(r2, r3, 5)


@pytest.mark.parametrize("r2, r3", [(np.nan, 0.1), (0.1, np.inf), (-np.inf, np.nan)])
def test_qubit_sweep_non_finite_message_makes_no_comparison(r2, r3):
    # NaN cannot exceed 1, and an infinite input is named as such
    with pytest.raises(ParamOutOfRangeError, match="must be finite") as caught:
        sweeps.qubit_sweep_rows(r2, r3, 5)
    assert "exceeds" not in str(caught.value)


def test_qubit_sweep_finite_overflow_still_exceeds_1():
    with pytest.raises(ParamOutOfRangeError, match="= inf exceeds 1"):
        sweeps.qubit_sweep_rows(1e200, 0.0, 5)


def _qubit_rows_per_point(r2, r3, steps):
    # the per-point walk that the stacked sweep replaced, kept as its oracle
    r1 = np.linspace(0.0, np.sqrt(max(0.0, 1.0 - r2 * r2 - r3 * r3)), steps)
    rows = []
    for x in r1:
        rho = states.qubit_from_bloch((x, r2, r3))
        star = states.DensityMatrix(twirl.twirl_closed_form(rho.mat), (2,))
        rows.append(
            [
                x,
                coherence.l1_coherence(rho),
                coherence.l1_coherence(star),
                coherence.rel_ent_coherence(rho),
                coherence.rel_ent_coherence(star),
            ]
        )
    return np.array(rows)


@pytest.mark.parametrize(
    "steps, block", [(1, None), (2, None), (200, None), (200, 7)]
)
@pytest.mark.parametrize("r2, r3", [(0.1, 0.1), (0.3, 0.4)])
def test_qubit_sweep_rows_equal_per_point_walk(monkeypatch, steps, block, r2, r3):
    if block is not None:  # blocks of 7 points: 200 rows split unevenly
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4 * block)
    rows = sweeps.qubit_sweep_rows(r2, r3, steps)
    assert rows.dtype == np.float64
    assert rows.shape == (steps, len(sweeps.QUBIT_SWEEP_COLUMNS))
    np.testing.assert_array_equal(
        rows.view(np.uint64), _qubit_rows_per_point(r2, r3, steps).view(np.uint64)
    )
