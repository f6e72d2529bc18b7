"""Parameter sweeps backing the CSV outputs."""

import math

import numpy as np

from . import coherence, entanglement, linalg, states, twirl
from .errors import DimensionTooLargeError, ParamOutOfRangeError

QUBIT_SWEEP_COLUMNS = ("r1", "l1_rho", "l1_star", "relent_rho", "relent_star")
BELL_SWEEP_COLUMNS = (
    "t1",
    "t2",
    "t3",
    "in_octahedron",
    "ppt_before",
    "ppt_after_one_sided",
    "t1_image",
)

# Largest ``steps`` for the qubit sweep, whose rows are all held at once
# as one float array (90 MiB peak RSS at the limit).
MAX_QUBIT_STEPS = 1_000_000

# Largest ``grid`` for the Bell lattice, which is held as arrays: grid^3
# points are allocated at once.
MAX_BELL_GRID = 101


def qubit_sweep_rows(r2: float, r3: float, steps: int) -> np.ndarray:
    """Coherence of a qubit and of its twirl along r1 at fixed (r2, r3).

    r1 runs over [0, sqrt(1 - r2^2 - r3^2)] in ``steps`` points, keeping
    the Bloch vector inside the ball, as the rows of a float ``(steps, 5)``
    array.  Each block of ``linalg.BLOCK_ENTRIES // 4`` states (four entries
    each) is one stack, twirled and measured in one call per column, with
    the bits of one per point; only the rows grow with ``steps``.

    Raises:
        ParamOutOfRangeError: if r2 or r3 is not finite,
            or ``steps`` is not an integer >= 1.
        BlochOutsideBallError: if the ball rule, within its tolerance, refuses (0, r2, r3).
        DimensionTooLargeError: if ``steps`` > MAX_QUBIT_STEPS (checked
            before any row is built).
    """
    r2, r3 = float(r2), float(r3)
    if not (math.isfinite(r2) and math.isfinite(r3)):
        raise ParamOutOfRangeError(
            f"r2^2 + r3^2 = {r2 * r2 + r3 * r3:.12g}: r2 = {r2:g} and r3 = {r3:g} must be finite"
        )
    states.qubit_stack_from_bloch([[0.0, r2, r3]])  # the ball rule, before steps
    steps = linalg._check_count(steps, "steps", 1, ParamOutOfRangeError)
    if steps > MAX_QUBIT_STEPS:
        raise DimensionTooLargeError(
            f"steps {steps} exceeds the limit of {MAX_QUBIT_STEPS} sweep rows"
        )
    r1 = np.linspace(0.0, np.sqrt(max(0.0, 1.0 - r2 * r2 - r3 * r3)), steps)
    rows = np.empty((steps, len(QUBIT_SWEEP_COLUMNS)))
    block = linalg.BLOCK_ENTRIES // 4
    for lo in range(0, steps, block):
        r1_block = r1[lo : lo + block]
        rho = states.qubit_stack_from_bloch(
            np.column_stack(
                [r1_block, np.full(len(r1_block), r2), np.full(len(r1_block), r3)]
            )
        )
        star = twirl.twirl_closed_form(rho)
        columns = (
            r1_block,
            coherence.l1_coherences(rho),
            coherence.l1_coherences(star),
            coherence.rel_ent_coherences(rho),
            coherence.rel_ent_coherences(star),
        )
        rows[lo : lo + block] = np.column_stack(columns)
    return rows


def bell_lattice(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The valid points of a ``grid``^3 lattice over [-1, 1]^3, and their states.

    Returns the correlation triples as an ``(n, 3)`` array, t1 major and
    t3 minor, and their states as an ``(n, 4, 4)`` stack.  A point is
    kept when its smallest Bell eigenvalue is at least
    ``-linalg.DEFAULT_TOL``, as in ``states.validate_bell_params``.

    Raises:
        ParamOutOfRangeError: if ``grid`` is not an integer >= 2.
        DimensionTooLargeError: if ``grid`` > MAX_BELL_GRID (checked
            before any allocation).
    """
    grid = linalg._check_count(grid, "grid", 2, ParamOutOfRangeError)
    if grid > MAX_BELL_GRID:
        raise DimensionTooLargeError(
            f"grid {grid} makes {grid**3} lattice points; the limit is "
            f"grid <= {MAX_BELL_GRID} ({MAX_BELL_GRID**3} points)"
        )
    axis = np.linspace(-1.0, 1.0, grid)
    t = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    lowest = states.bell_eigenvalues(t[:, 0], t[:, 1], t[:, 2]).min(axis=0)
    t = t[lowest >= -linalg.DEFAULT_TOL]
    return t, states.bell_diagonal_stack(t)


def bell_sweep_rows(grid: int) -> np.ndarray:
    """Octahedron membership vs PPT across the correlation-triple tetrahedron.

    Evaluates the valid points of :func:`bell_lattice` as one stack and
    records the one-sided twirl image, which lies on the (t1, 0, 0)
    segment, as the rows of a float ``(n, 7)`` array.  Booleans are 0.0/1.0.
    """
    t, rho = bell_lattice(grid)
    member = entanglement.bell_octahedron_members(t)
    before = entanglement.min_pt_eigenvalues(rho, (2, 2)) >= -entanglement.PPT_TOL
    image = twirl.twirl_one_sided(rho, (2, 2), linalg.SIDE_A)
    after = entanglement.min_pt_eigenvalues(image, (2, 2)) >= -entanglement.PPT_TOL
    t1_image = np.trace(
        image @ np.kron(states.SIGMA_1, states.SIGMA_1), axis1=1, axis2=2
    ).real
    return np.column_stack([t, member, before, after, t1_image])
