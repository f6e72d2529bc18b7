"""CLI outputs do not depend on the BLAS thread count, or on the run."""

import numpy as np
import pytest

from permutwirl import statefile, states


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--dmax", 5, "--samples", 50, "--seed", 3),
        ("verify", "--dmax", 6, "--samples", 100, "--seed", 3),
        # d = 7..9 sum their permutations in 2 to 73 chunks
        ("verify", "--dmax", 9, "--samples", 3, "--seed", 7),
        # the PPT test's eigenvalues on 4x4 stacks, before and after the twirl
        ("sweep-bell", "--grid", 41),
    ],
    ids=["verify-d5", "verify-d6", "verify-d9", "sweep-bell-41"],
)
def test_output_does_not_depend_on_blas_threads(cli, args):
    assert cli(*args, threads=1).stdout == cli(*args, threads=2).stdout


def test_verify_output_is_deterministic(cli):
    args = ("verify", "--dmax", 4, "--samples", 20, "--seed", 1)
    assert cli(*args).stdout == cli(*args).stdout


def test_assistance_estimates_do_not_depend_on_blas_threads(cli, tmp_path):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    rank2 = g @ g.conj().T
    statefile.save_state(tmp_path / "rank2-d5.json", rank2 / np.trace(rank2).real, (5,))
    statefile.save_state(tmp_path / "d64.json", states.random_density(64, rng).mat, (64,))
    for args in (
        ("coherence", "rank2-d5.json", "--measure", "both", "--assist", 3000, 7, "--bits"),
        ("coherence", "d64.json", "--measure", "both", "--assist", 300, 7),
    ):
        assert cli(*args, threads=1).stdout == cli(*args, threads=2).stdout
