"""Where each tolerance guard draws its line.

Every row builds an input ``s * DEFAULT_TOL`` past the ideal value of one
guard.  At ``s = 0.5`` the guard must accept it; at ``s = 2`` it must
refuse it with its own error class and message.  So a guard whose
tolerance is loosened or tightened by any large factor fails a row.
"""

import numpy as np
import pytest

from permutwirl import coherence, linalg, states, sweeps, twirl
from permutwirl.errors import (
    BlochOutsideBallError,
    InvalidBellParamsError,
    NotHermitianError,
    NotPositiveError,
    TraceNotOneError,
    WeightOutOfRangeError,
)

TOL = linalg.DEFAULT_TOL


def _density_with(entry_00=0.5, entry_01=0.0):
    return states.validate_density(np.array([[entry_00, entry_01], [0.0, 0.5]]))


ROWS = {
    "density-trace-above": (
        lambda s: _density_with(entry_00=0.5 + s * TOL),
        TraceNotOneError,
        "trace is 1.0000000002+0j, expected 1 within 1e-10",
    ),
    "density-trace-below": (
        lambda s: _density_with(entry_00=0.5 - s * TOL),
        TraceNotOneError,
        "trace is 0.9999999998+0j, expected 1 within 1e-10",
    ),
    "density-hermiticity": (
        lambda s: _density_with(entry_01=s * TOL),
        NotHermitianError,
        "not Hermitian within 1e-10 (deviation 2.000e-10)",
    ),
    "bloch-ball": (
        lambda s: states.qubit_stack_from_bloch([[0.0, 0.0, 1.0 + s * TOL]]),
        BlochOutsideBallError,
        "|r| = 1.0000000002 exceeds 1",
    ),
    # the sweep's (0, r2, r3) goes to the same ball rule
    "qubit-sweep-ball": (
        lambda s: sweeps.qubit_sweep_rows(0.0, 1.0 + s * TOL, 1),
        BlochOutsideBallError,
        "|r| = 1.0000000002 exceeds 1",
    ),
    "entropy-floor": (
        lambda s: coherence._entropy_of_probs(np.array([-s * TOL, 1.0 + s * TOL])),
        NotPositiveError,
        "probability -2.000e-10 below -1e-10",
    ),
    # the output family at d = 2, a = 1/2 + s tol: eigenvalue 1/d - a = -s tol
    "family-upper-end": (
        lambda s: states.maximally_coherent_mixed_state(2, 1.0 + 2 * s * TOL),
        WeightOutOfRangeError,
        "off-diagonal 0.5000000002 gives eigenvalue -2.000000e-10 below -1e-10",
    ),
    # the output family at d = 3, eigenvalue 1/d + (d - 1) a = -s tol
    "family-lower-end": (
        lambda s: twirl.output_state_stack(3, [-(1.0 / 3 + s * TOL) / 2]),
        WeightOutOfRangeError,
        "off-diagonal -0.166666666767 gives eigenvalue -2.000000e-10 below -1e-10",
    ),
    # |t1| = 1 + s tol; its Bell eigenvalue (1 - t1) / 4 stays above -tol
    "bell-abs-t": (
        lambda s: states.validate_bell_params(1.0 + s * TOL, 0.0, 0.0),
        InvalidBellParamsError,
        "|t1| = 1.0000000002 exceeds 1",
    ),
    # every |t| <= 1, and the Bell eigenvalue (1 - t1 - t2 - t3) / 4 = -s tol
    "bell-eigenvalue": (
        lambda s: states.validate_bell_params(1.0, 1.0, -1.0 + 4 * s * TOL),
        InvalidBellParamsError,
        "constraint 1-t1-t2-t3 >= 0 violated (value -7.9999995517e-10)",
    ),
}


@pytest.mark.parametrize("name", ROWS)
def test_guard_accepts_half_a_tolerance_past_the_ideal(name):
    build, _, _ = ROWS[name]
    build(0.5)


@pytest.mark.parametrize("name", ROWS)
def test_guard_refuses_two_tolerances_past_the_ideal(name):
    build, error, message = ROWS[name]
    with pytest.raises(error) as caught:
        build(2.0)
    assert caught.type is error
    assert str(caught.value) == message
