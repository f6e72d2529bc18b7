"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload drives permutwirl from outside, through ``cli.main(argv)``
or the public functions of ``permutwirl.twirl``.  Module attributes are
looked up at call time (``self.twirl.twirl_one_sided``), so a traced run
that swaps those attributes sees every call.

Inputs are made here from the workload seed with numpy's Generator, never
with the package's own random constructors, so a change to the package
cannot change what it is measured on.  The reference results that the
checks use come from masked means over the entry classes that each twirl
averages, not from the package's formulas.
"""

import contextlib
import gc
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

TOL = 1e-10
# Slack for the coherence range checks: eigenvalue round-off puts values
# a few ulps outside [0, max].
RANGE_SLACK = 1e-9

TWIRL_IO_DIMS = (16, 16)
KERNEL_DIMS = ((32, 32), (8, 128))
ASSIST_SAMPLES = 3000
# (dimension, rank) of the two coherence inputs: full rank, then deficient.
ASSIST_STATES = ((3, 3), (5, 2))
VERIFY_DMAX = 6
VERIFY_SAMPLES = 100
# The reference task's input is the same in every run, whatever --seed is.
REFERENCE_SEED = 0


class CheckFailed(Exception):
    """An op's output is wrong, or the op exited with a nonzero code."""


@dataclass
class OpResult:
    """What one op returned: exit codes, captured stdout/stderr, arrays."""

    codes: list
    stdout: str = ""
    stderr: str = ""
    arrays: list | None = None


def run_cli(cli, argvs) -> OpResult:
    """Run ``cli.main`` on each argv in turn, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [cli.main(argv) for argv in argvs]
    return OpResult(codes, out.getvalue(), err.getvalue())


class Log:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, workload, result) -> None:
        """Check one op's result; any exception, the op's or the check's, is a failed op."""
        self.attempted += 1
        try:
            if isinstance(result, Exception):
                raise CheckFailed(f"op raised {type(result).__name__}: {result}")
            workload.check(result)
        except Exception as exc:  # noqa: BLE001 - output that breaks the check is wrong output
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{type(exc).__name__}: {exc}")


def run_op(workload):
    """One op; an exception is returned, not raised, and counts as a failure."""
    try:
        return workload.op()
    except Exception as exc:  # noqa: BLE001 - any crash of the program is a failed op
        return exc


# ---------------------------------------------------------------- inputs


def random_density(rng, d: int, rank: int) -> np.ndarray:
    """G G^dagger / Tr with G a d x rank complex Ginibre matrix, exactly Hermitian."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def state_file_bytes(mat: np.ndarray, dims) -> bytes:
    """The package's documented state-file schema, written independently."""
    pairs = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    return (json.dumps({"dims": [int(k) for k in dims], "matrix": pairs}) + "\n").encode()


def read_state_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    pairs = np.asarray(doc["matrix"], dtype=float)
    d = int(math.isqrt(pairs.shape[0]))
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d), doc["dims"]


def write_inputs(workdir, inputs: dict) -> dict:
    """Write {name: bytes} into ``workdir``, made if missing; return {name: path}."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name, data in inputs.items():
        paths[name] = os.path.join(workdir, name)
        with open(paths[name], "wb") as fh:
            fh.write(data)
    return paths


# ---------------------------------------------------------- reference task


class Reference:
    """A fixed task, timed between ops, that an op's time is given as a multiple of.

    The host's speed changes in phases of seconds to minutes by as much as
    a third, and an op's time with it.  The reference task does the same
    kind of work as the ops, with the benchmark's own code and never the
    package's: it parses a D=256 state file with the json module, takes
    its eigenvalues with numpy, and serialises it again.  So it slows down
    with the host, but not with the program, and an op's time divided by
    the reference times taken just before and just after it keeps the
    program's cost and drops most of the host's phase.  It reads a file
    of the same size as cli-twirl-io's input: with a smaller one it tracked
    the host's phases less well.
    """

    def __init__(self, workdir: str):
        d = TWIRL_IO_DIMS[0] * TWIRL_IO_DIMS[1]
        mat = random_density(np.random.default_rng(REFERENCE_SEED), d, d)
        self.path = write_inputs(workdir, {"reference.json": state_file_bytes(mat, TWIRL_IO_DIMS)})["reference.json"]

    def __call__(self) -> float:
        """Run the task once; return its wall time in seconds."""
        gc.collect()
        t0 = perf_counter()
        mat, dims = read_state_file(self.path)
        np.linalg.eigvalsh(mat)
        state_file_bytes(mat, dims)
        return perf_counter() - t0


# ------------------------------------------------------------ references


def factor_means(x: np.ndarray, dims, side: str):
    """Means a one-factor twirl assigns, by masked averaging.

    Viewing x as x[a, b, a', b'] (side A twirled), the twirl replaces each
    entry by the mean over a of the entries with the same (b, b') and the
    same answer to "a == a'".  Returns the (b, b') arrays of the means for
    a == a' and for a != a'.  Side B swaps the roles of the factors.
    """
    d_a, d_b = dims
    t = x.reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        t = t.transpose(1, 0, 3, 2)
    k = t.shape[0]
    eq = np.eye(k, dtype=bool)[:, None, :, None]
    same = np.where(eq, t, 0).sum(axis=(0, 2)) / k
    diff = np.where(eq, 0, t).sum(axis=(0, 2)) / (k * (k - 1))
    return same, diff


def one_sided_deviation(out: np.ndarray, x: np.ndarray, dims, side: str) -> float:
    """Largest entry distance of ``out`` from the masked-mean one-sided twirl of x."""
    same, diff = factor_means(x, dims, side)
    d_a, d_b = dims
    t = np.asarray(out).reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        t = t.transpose(1, 0, 3, 2)
    eq = np.eye(t.shape[0], dtype=bool)[:, None, :, None]
    ref = np.where(eq, same[None, :, None, :], diff[None, :, None, :])
    return float(np.max(np.abs(t - ref)))


def closed_form_deviation(out: np.ndarray, x: np.ndarray) -> float:
    d = x.shape[0]
    return one_sided_deviation(out, x, (d, 1), "A")


def two_sided_classes(x: np.ndarray, dims) -> dict:
    """Sum and mean of x over the four classes a two-sided twirl averages.

    Keys name the invariant-basis coefficient each class mean equals:
    c0 (a == a', b == b'), c1 (a == a', b != b'), c2 (a != a', b == b'),
    c3 (a != a', b != b').
    """
    d_a, d_b = dims
    t = x.reshape(d_a, d_b, d_a, d_b)
    ea = np.eye(d_a, dtype=bool)[:, None, :, None]
    eb = np.eye(d_b, dtype=bool)[None, :, None, :]
    classes = {}
    for key, mask in (("c0", ea & eb), ("c1", ea & ~eb), ("c2", ~ea & eb), ("c3", ~ea & ~eb)):
        full = np.broadcast_to(mask, t.shape)
        total = complex(t[full].sum())
        classes[key] = (total, total / int(full.sum()))
    return classes


def two_sided_deviation(out: np.ndarray, classes: dict, dims) -> float:
    d_a, d_b = dims
    t = np.asarray(out).reshape(d_a, d_b, d_a, d_b)
    ea = np.eye(d_a, dtype=bool)[:, None, :, None]
    eb = np.eye(d_b, dtype=bool)[None, :, None, :]
    mean = {k: v[1] for k, v in classes.items()}
    ref = np.where(ea, np.where(eb, mean["c0"], mean["c1"]), np.where(eb, mean["c2"], mean["c3"]))
    return float(np.max(np.abs(t - ref)))


def coefficient_deviation(coeffs: dict, classes: dict) -> float:
    """Distance of reported coefficients and overlaps from the class means and sums.

    ``coeffs`` maps c0..c3 and overlap_a/overlap_b/overlap_ab to complex
    values.  Overlaps are sums over many entries, so they are compared
    relative to their size.
    """
    devs = [abs(coeffs[k] - classes[k][1]) for k in ("c0", "c1", "c2", "c3")]
    for name, key in (("overlap_a", "c2"), ("overlap_b", "c1"), ("overlap_ab", "c3")):
        ref = classes[key][0]
        devs.append(abs(coeffs[name] - ref) / max(1.0, abs(ref)))
    # np.max, unlike max(), keeps a NaN so that the check rejects it.
    return float(np.max(devs))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _require_codes(result: OpResult) -> None:
    _require(
        all(c == 0 for c in result.codes),
        f"exit codes {result.codes}: {result.stderr.strip()[:200]}",
    )


# ------------------------------------------------------------- workloads
#
# Each workload has the same five methods.  ``generate(seed)`` returns the
# inputs as {name: bytes} and depends on the seed alone; ``install`` puts
# them where the op reads them; ``op`` is the timed call into the package;
# ``check`` raises CheckFailed on a wrong result and runs outside the timed
# interval.  References are computed on the first check, so that set-up
# time holds only what the program's user would pay.

_COEFF_FIELDS = ("c0", "c1", "c2", "c3", "overlap_a", "overlap_b", "overlap_ab")


class CliTwirlIo:
    name = "cli-twirl-io"
    why = (
        "CLI twirl --side both on a 3 MB D=256 state file: state-file parse and "
        "serialise dominate, with one D=256 eigh in validation and a small twirl share"
    )

    def __init__(self, permutwirl):
        self.cli = permutwirl.cli
        self.classes = None

    def generate(self, seed: int) -> dict:
        d = TWIRL_IO_DIMS[0] * TWIRL_IO_DIMS[1]
        rng = np.random.default_rng(seed)
        return {"state.json": state_file_bytes(random_density(rng, d, d), TWIRL_IO_DIMS)}

    def install(self, inputs: dict, workdir: str, seed: int) -> None:
        self.in_path = write_inputs(workdir, inputs)["state.json"]
        self.out_path = os.path.join(workdir, "twirled.json")

    def sizes(self) -> dict:
        return {"dims": list(TWIRL_IO_DIMS), "state_file_bytes": os.path.getsize(self.in_path)}

    def op(self) -> OpResult:
        return run_cli(self.cli, [["twirl", self.in_path, "--side", "both", "--out", self.out_path]])

    def check(self, result: OpResult) -> None:
        _require_codes(result)
        if self.classes is None:
            self.classes = two_sided_classes(read_state_file(self.in_path)[0], TWIRL_IO_DIMS)
        doc = json.loads(result.stdout)
        dev = coefficient_deviation({k: complex(*doc[k]) for k in _COEFF_FIELDS}, self.classes)
        _require(dev <= TOL, f"printed coefficients off by {dev:.3e}")
        out, dims = read_state_file(self.out_path)
        _require(list(dims) == list(TWIRL_IO_DIMS), f"output dims {dims}")
        dev = two_sided_deviation(out, self.classes, TWIRL_IO_DIMS)
        _require(dev <= TOL, f"output state off by {dev:.3e}")


class LibKernels:
    # Runnable by name and by --workload all, but left out of BENCHMARK.json:
    # the gate's time budget (4 + 22 runs per workload within 3420 s) fits
    # runs long enough to be steady for two workloads only, and cli-verify
    # covers more layers than this one.
    name = "lib-kernels"
    why = (
        "closed, one-sided A and B, and two-sided twirl at D=1024 on dims (32,32) "
        "and (8,128) with no I/O: the twirl kernel does almost all the work"
    )

    def __init__(self, permutwirl):
        self.twirl = permutwirl.twirl
        self.classes = None

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {f"{a}x{b}": random_hermitian(rng, a * b).tobytes() for a, b in KERNEL_DIMS}

    def install(self, inputs: dict, workdir: str, seed: int) -> None:
        self.arrays = {}
        for a, b in KERNEL_DIMS:
            flat = np.frombuffer(inputs[f"{a}x{b}"], dtype=complex)
            self.arrays[(a, b)] = flat.reshape(a * b, a * b).copy()

    def sizes(self) -> dict:
        return {"dims": [list(d) for d in KERNEL_DIMS], "D": KERNEL_DIMS[0][0] * KERNEL_DIMS[0][1]}

    def op(self) -> OpResult:
        tw = self.twirl
        outs = []
        for dims, x in self.arrays.items():
            outs.append(tw.twirl_closed_form(x))
            outs.append(tw.twirl_one_sided(x, dims, "A"))
            outs.append(tw.twirl_one_sided(x, dims, "B"))
            outs.append(tw.twirl_two_sided(x, dims))
        return OpResult([0], arrays=outs)

    def check(self, result: OpResult) -> None:
        if self.classes is None:
            self.classes = {dims: two_sided_classes(x, dims) for dims, x in self.arrays.items()}
        outs = iter(result.arrays)
        for dims, x in self.arrays.items():
            closed, side_a, side_b, (two, coeffs) = next(outs), next(outs), next(outs), next(outs)
            devs = {
                "closed-form": closed_form_deviation(closed, x),
                "one-sided A": one_sided_deviation(side_a, x, dims, "A"),
                "one-sided B": one_sided_deviation(side_b, x, dims, "B"),
                "two-sided": two_sided_deviation(two, self.classes[dims], dims),
                "coefficients of the two-sided": coefficient_deviation(
                    {k: getattr(coeffs, k) for k in _COEFF_FIELDS}, self.classes[dims]
                ),
            }
            for what, dev in devs.items():
                _require(dev <= TOL, f"{what} twirl on dims {dims} off by {dev:.3e}")


class CliAssist:
    # Runnable by name and by --workload all, but left out of BENCHMARK.json:
    # host speed phases moved its per-run median by 0.17-0.26 (IQR/median
    # over ten 20 s runs), too close to the 0.25 bound to gate on.
    name = "cli-assist"
    why = (
        "CLI coherence --assist 3000 on a full-rank d=3 and a rank-2 d=5 state: "
        "the per-sample QR loop of the assistance estimator dominates"
    )

    def __init__(self, permutwirl):
        self.cli = permutwirl.cli
        self.first_stdout = None

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            f"d{d}_rank{r}.json": state_file_bytes(random_density(rng, d, r), (d,))
            for d, r in ASSIST_STATES
        }

    def install(self, inputs: dict, workdir: str, seed: int) -> None:
        paths = write_inputs(workdir, inputs)
        self.argvs = [
            ["coherence", paths[f"d{d}_rank{r}.json"], "--measure", "both",
             "--assist", str(ASSIST_SAMPLES), str(seed)]
            for d, r in ASSIST_STATES
        ]

    def sizes(self) -> dict:
        return {"states": [{"d": d, "rank": r} for d, r in ASSIST_STATES], "samples": ASSIST_SAMPLES}

    def op(self) -> OpResult:
        return run_cli(self.cli, self.argvs)

    def check(self, result: OpResult) -> None:
        _require_codes(result)
        docs = [json.loads(line) for line in result.stdout.splitlines()]
        _require(len(docs) == len(ASSIST_STATES), f"{len(docs)} JSON lines, expected {len(ASSIST_STATES)}")
        for (d, _), doc in zip(ASSIST_STATES, docs):
            for measure, top in (("l1", d - 1.0), ("relent", math.log(d))):
                report = doc["reports"][measure]
                est = doc["assist"]["estimates"][measure]
                values = {
                    "value": report["value"],
                    "lower_bound": report["lower_bound"],
                    "assistance of rho": est["rho"],
                    "assistance of the twirled rho": est["rho_star"],
                }
                for what, v in values.items():
                    _require(
                        isinstance(v, float) and -RANGE_SLACK <= v <= top + RANGE_SLACK,
                        f"d={d} {measure} {what} = {v!r} outside [0, {top:.6g}]",
                    )
        if self.first_stdout is None:
            self.first_stdout = result.stdout
        _require(result.stdout == self.first_stdout, "output differs from the first op of the run")


class CliVerify:
    name = "cli-verify"
    why = (
        "CLI verify --dmax 6 --samples 100: thousands of tiny-matrix calls, the "
        "opposite use of the layers that lib-kernels and cli-twirl-io load"
    )

    def __init__(self, permutwirl):
        self.cli = permutwirl.cli

    def generate(self, seed: int) -> dict:
        return {}

    def install(self, inputs: dict, workdir: str, seed: int) -> None:
        self.argv = ["verify", "--dmax", str(VERIFY_DMAX), "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]

    def sizes(self) -> dict:
        return {"dmax": VERIFY_DMAX, "samples": VERIFY_SAMPLES}

    def op(self) -> OpResult:
        return run_cli(self.cli, [self.argv])

    def check(self, result: OpResult) -> None:
        _require_codes(result)
        doc = json.loads(result.stdout)
        _require(doc.get("passed") is True, "verify reported passed != true")
        failed = [c["name"] for c in doc["checks"] if c["passed"] is not True]
        _require(not failed, f"failed checks {failed}")


WORKLOADS = {w.name: w for w in (CliTwirlIo, LibKernels, CliAssist, CliVerify)}
