"""Positive-partial-transpose tests and separability verdicts."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, states
from .states import DensityMatrix

PPT_TOL = 1e-10


class Verdict(Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class PptReport:
    """Minimum partial-transpose eigenvalue and the resulting verdict.

    ``boundary`` marks states whose minimum eigenvalue lies within
    ``tol`` of zero: twirled outputs sit exactly on the boundary in
    degenerate cases, and they count as PPT.
    """

    min_eig_pt: float
    is_ppt: bool
    side: str
    boundary: bool
    tol: float


def is_ppt(rho: DensityMatrix, tol: float = PPT_TOL, side: str = "A") -> PptReport:
    """Partial-transpose the named side, take its eigenvalues, report.

    The verdict is independent of the side: the two partial transposes
    are full transposes of each other, hence isospectral.
    """
    linalg._check_tol(tol)
    min_eig = float(min_pt_eigenvalues(rho.mat, rho.dims, side))  # split_dims checks them
    return PptReport(
        min_eig_pt=min_eig,
        is_ppt=min_eig >= -tol,
        side=str(side).upper(),
        boundary=abs(min_eig) <= tol,
        tol=tol,
    )


def min_pt_eigenvalues(mats, dims, side: str = "A") -> np.ndarray:
    """Minimum partial-transpose eigenvalue of each matrix of a stack.

    The stacked ``is_ppt(rho).min_eig_pt`` for ``mats`` of shape
    ``(n, D, D)``: one ``linalg.hermitian_eigvals`` call for the whole
    stack, without eigenvectors, with the same bits as one call per matrix.
    """
    pt = linalg.partial_transpose(mats, dims, side)
    return linalg.hermitian_eigvals(pt)[..., 0]


def separable_verdict(rho: DensityMatrix) -> Verdict:
    """Peres-Horodecki verdict, from :func:`is_ppt` at ``PPT_TOL``.

    PPT is necessary for separability and sufficient only in 2x2 and 2x3
    systems, so for d_A * d_B <= 6 PPT decides separability; in larger
    systems a PPT state stays undecided.
    """
    report = is_ppt(rho)  # which refuses dims that are not two factors
    if not report.is_ppt:
        return Verdict.ENTANGLED
    if rho.d <= 6:
        return Verdict.SEPARABLE
    return Verdict.UNDECIDED


def bell_octahedron_member(t1, t2, t3, tol: float = PPT_TOL) -> bool:
    """Separability test |t1| + |t2| + |t3| <= 1 for correlation-triple states."""
    states.validate_bell_params(t1, t2, t3)
    return bool(bell_octahedron_members([[t1, t2, t3]], tol)[0])


def bell_octahedron_members(triples, tol: float = PPT_TOL) -> np.ndarray:
    """Octahedron test |t1| + |t2| + |t3| <= 1 for each row of ``triples``.

    ``triples`` is an ``(n, 3)`` array.  The triples are not validated;
    :func:`bell_octahedron_member` validates one triple and tests it here.
    """
    linalg._check_tol(tol)
    a = np.abs(np.asarray(triples, dtype=float))
    return a[:, 0] + a[:, 1] + a[:, 2] <= 1.0 + tol
