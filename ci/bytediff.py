"""Byte-for-byte comparison of the CLI of two trees.

    python ci/bytediff.py --base REV [--threads 1 2]

Runs every ``permutwirl`` command on a seeded corpus with ``python -m
permutwirl.cli``, some with stdin or stdout closed, on the base tree and on
the tree that holds this script, and compares each run's stdout, stderr,
exit code and output file.  The base is ``git archive REV`` of this
repository, or a directory that holds a tree (its ``src/``).  Under
``--threads``, every run is made once per ``OPENBLAS_NUM_THREADS`` value,
and each tree is compared with the other at that count.

Prints one summary line (N runs, M identical) and a table of the runs that
moved; exits 0 when every run is identical and 1 otherwise.  The corpus is
written with ``json.dumps`` and numpy alone, so no input depends on either
tree's ``save_state``.  Uses the stdlib and numpy only.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEAD = Path(__file__).resolve().parent.parent
OUT = "out.dat"  # every run that writes a file writes it here, in its own tree's directory

DIMS = [(3,), (6,), (2, 2), (2, 3), (3, 4), (8, 8)]


# the shell redirection that closes each standard stream
_CLOSE = {"stdin": "<&-", "stdout": ">&-"}


def closing(argv: list[str], closed: str | None) -> list[str]:
    """``argv``, run with the standard stream ``closed`` names ("stdin" or
    "stdout") closed when given: through ``sh``, since ``preexec_fn`` is
    unsafe in the threads that run_tree runs in."""
    if closed is None:
        return argv
    return ["sh", "-c", f'exec "$@" {_CLOSE[closed]}', "sh", *argv]


@dataclass(frozen=True)
class Run:
    argv: tuple[str, ...]
    stdin: str | None = None  # a corpus file fed on standard input
    env: tuple[tuple[str, str], ...] = ()  # (name, value) pairs set for this run
    closed: str | None = None  # "stdin" or "stdout": the child starts with it closed

    @property
    def name(self) -> str:
        env = "".join(f"{key}={value} " for key, value in self.env)
        command = " ".join(self.argv) or "(no arguments)"
        stdin = "" if self.stdin is None else f" < {self.stdin}"
        return env + command + stdin + ("" if self.closed is None else f" {_CLOSE[self.closed]}")


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    out: bytes | None  # the bytes of OUT, None when the run wrote none

    def moved_parts(self, other: "Outcome") -> list[str]:
        return [
            part
            for part in ("stdout", "stderr", "code", "out")
            if getattr(self, part) != getattr(other, part)
        ]


def _doc_text(mat, dims, label=None, indent=None) -> str:
    doc = {
        "dims": list(dims),
        "matrix": [[z.real, z.imag] for z in np.asarray(mat, complex).ravel().tolist()],
    }
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, indent=indent)


def _density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2  # Hermitian to the bit
    return rho / np.trace(rho).real


def _tag(dims) -> str:
    return "x".join(map(str, dims))


# the refusal rows of tests/test_statefile.py::test_schema_violations
_NAN, _INF = float("nan"), float("inf")
SCHEMA_VIOLATIONS = [
    {"matrix": []},
    {"dims": [2]},
    {"dims": [0], "matrix": []},
    {"dims": [2], "matrix": [[1, 0]]},
    {"dims": [2], "matrix": [[1, 0], [0], [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], "x", [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], [True, 0], [0, 0], [1, 0]]},
    {"dims": [True], "matrix": [[1, 0]]},
    {"dims": [2], "matrix": [[1, 0]] * 4, "label": 5},
    {"dims": [2], "matrix": [[1.5, 0.0], [True, 0.5], [0.0, 0.0], [1.0, 0.0]]},
    {"dims": [2], "matrix": [[1.5, 0.0], [0.5, False], [0.0, 0.0], [1.0, 0.0]]},
    {"dims": [2], "matrix": [[1, 0], [0, 0, 0], [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1.0, 0.0, 0.0]] * 4},
    {"dims": [2], "matrix": [[1, 0], [[1, 2], [3, 4]], [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[[1.0], [0.0]]] * 4},
    {"dims": [2], "matrix": [[1, 0], [None, 0], [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], [_NAN, 0], [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], [0, 0], [0.5, _INF], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], [0, 0], [0, 0], [-_INF, 0]]},
    {"dims": [2], "matrix": [[1, 0], [_NAN, 0], "x", [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], "x", [_NAN, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], [10**400, 0], [0, 0], [1, 0]]},
    {"dims": [1], "matrix": [[0.5, -(10**400)]]},
    {"dims": [2], "matrix": [[1, 0], "12", [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], ["1", "2"], [0, 0], [1, 0]]},
    {"dims": [2], "matrix": [[1, 0], [0, 0], ["1.5", 0], [1, 0]]},
    {"dims": [1], "matrix": [[_NAN, 10**400]]},
    {"dims": [1], "matrix": [[True, 10**400]]},
]


def corpus() -> dict[str, str]:
    """The input files by name, seeded: the same text on every call."""
    rng = np.random.default_rng(11)
    files = {}
    for dims in DIMS:
        rho = _density(rng, math.prod(dims))
        files[f"d{_tag(dims)}.json"] = _doc_text(rho, dims, "l]] é")
        files[f"d{_tag(dims)}-indent.json"] = _doc_text(rho, dims, indent=1)
    files["d3-utf8.json"] = files["d3.json"].replace("\\u00e9", "é")  # é as its UTF-8 bytes
    files["op2x3.json"] = _doc_text(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), (2, 3))
    files["int2.json"] = '{"dims": [2], "matrix": [[1, 0], [0, 0], [0, 0], [0, 0]]}'
    # accepted: -0.9e-10 on psi+, 1 + 1.8e-10 on psi-, trace 1 + 0.9e-10
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
    files["edge2.json"] = _doc_text(-0.9e-10 * np.outer(plus, plus) + (1 + 1.8e-10) * np.outer(minus, minus), (2,))
    files["deep.json"] = '{"dims": [1], "matrix": ' + "[" * 100000 + "]" * 100000 + "}"
    files["dims-6x401.json"] = '{"dims": [' + ", ".join(["1" + "0" * 400] * 6) + '], "matrix": [[1, 0]]}'
    files["dims-5001.json"] = '{"dims": [1' + "0" * 5000 + '], "matrix": [[1, 0]]}'
    files["entry-5001.json"] = '{"dims": [1], "matrix": [[1' + "0" * 5000 + ", 0]]}"
    files["lone-cr.json"] = '{"dims": [1],\r"matrix": [[1, 0]],\r"x": ]}'
    # finite entries whose trace, or whose Hermitian part, overflows
    files["near-limit-diag.json"] = json.dumps({"dims": [2], "matrix": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]})
    files["near-limit-off.json"] = json.dumps({"dims": [2], "matrix": [[0.5, 0], [1e308, 0], [1e308, 0], [0.5, 0]]})
    for k, doc in enumerate(SCHEMA_VIOLATIONS):
        files[f"schema{k:02d}.json"] = json.dumps(doc)
    return files


def runs() -> list[Run]:
    """Every command and flag, on the corpus."""
    densities = [f"d{_tag(dims)}{form}.json" for dims in DIMS for form in ("", "-indent")]
    bipartite = [f"d{_tag(dims)}.json" for dims in DIMS if len(dims) == 2]
    mono = ["d3.json", "d3-indent.json", "d6.json", "d6-indent.json", "int2.json", "edge2.json"]
    out = []
    for f in [*densities, "int2.json", "edge2.json"]:
        out.append(Run(("twirl", f, "--out", OUT)))
    for f in ["d3.json", "d6.json", *bipartite, "op2x3.json"]:
        out.append(Run(("twirl", f, "--raw")))
    for f in [*bipartite, "d2x3-indent.json"]:
        for side in ("A", "B", "both"):
            for method in ("closed", "brute"):
                out.append(Run(("twirl", f, "--side", side, "--method", method, "--out", OUT)))
    for f in ["d3.json", "d6.json", "d2x2.json", "d2x3.json", "d8x8.json"]:
        out.append(Run(("twirl", f, "--method", "brute")))
    out += [
        Run(("twirl", "op2x3.json", "--raw", "--side", "both", "--out", OUT)),
        Run(("twirl", "op2x3.json", "--side", "A")),
        Run(("twirl", "d3.json", "--side", "A")),
        Run(("twirl", "-", "--side", "both", "--out", OUT), stdin="d2x2.json"),
        Run(("twirl", "-", "--side", "both", "--out", OUT), stdin="d3x4.json"),
        Run(("twirl", "-", "--out", "-"), stdin="d3.json"),
        Run(("twirl", "-", "--out", "-"), stdin="d3-utf8.json", env=(("PYTHONIOENCODING", "latin-1"),)),
        Run(("twirl", "-", "--raw"), stdin="op2x3.json"),
        Run(("twirl", "-", "--raw"), stdin="deep.json"),
        Run(("twirl", "missing.json")),
        Run(("twirl", "d3.json", "--out", "missing/out.dat")),  # no run makes missing/
    ]
    for f in ["deep.json", "dims-6x401.json", "dims-5001.json", "entry-5001.json", "lone-cr.json"]:
        out.append(Run(("twirl", f, "--raw")))
    out += [Run(("twirl", f"schema{k:02d}.json", "--raw")) for k in range(len(SCHEMA_VIOLATIONS))]
    for f in ["near-limit-diag.json", "near-limit-off.json"]:
        out += [Run(("twirl", f)), Run(("coherence", f))]
    for f in mono:
        for flags in (
            (),
            ("--measure", "l1"),
            ("--measure", "relent", "--bits"),
            ("--assist", "40", "3"),
            ("--measure", "l1", "--assist", "40", "3"),
            ("--measure", "relent", "--assist", "40", "3", "--bits"),
        ):
            out.append(Run(("coherence", f, *flags)))
    out += [
        Run(("coherence", "-", "--assist", "40", "3"), stdin="d3.json"),
        Run(("coherence", "d2x2.json")),
        Run(("coherence", "d8x8.json", "--assist", "40", "3")),
        Run(("coherence", "d3.json", "--assist", "5", "-1")),
        Run(("coherence", "d3.json", "--assist", "10000001", "7")),
        Run(("sweep-qubit",)),
        Run(("sweep-qubit", "--r2", "0.3", "--r3", "-0.2", "--steps", "77", "--out", OUT)),
        Run(("sweep-qubit", "--r2", "0.9", "--r3", "0.9")),
        Run(("sweep-qubit", "--r2", "1.00000000005", "--steps", "3")),
        Run(("sweep-qubit", "--r2", "1.00000000005", "--r3", "0", "--steps", "3")),
        Run(("sweep-qubit", "--r2", "1e200")),
        Run(("sweep-bell", "--grid", "2")),
        Run(("sweep-bell", "--grid", "21")),
        Run(("sweep-bell", "--grid", "41", "--out", OUT)),
        Run(("sweep-qubit", "--out", "missing/out.csv")),
        Run(("sweep-bell", "--grid", "2", "--out", "missing/out.csv")),
        Run(("verify", "--dmax", "3", "--samples", "10")),
        Run(("verify", "--dmax", "3", "--samples", "10"), env=(("PERMUTWIRL_SEED", "5"),)),
        Run(("verify", "--dmax", "3", "--samples", "10"), env=(("PERMUTWIRL_SEED", "-3"),)),
        Run(("verify", "--dmax", "3", "--samples", "10"), env=(("PERMUTWIRL_SEED", "x"),)),
        Run(("verify", "--dmax", "3", "--samples", "10", "--seed", "-1")),
        Run(("verify", "--dmax", "5", "--samples", "50", "--seed", "1")),
        Run(("verify", "--dmax", "9", "--samples", "3", "--seed", "7")),
    ]
    out += [Run(("verify", "--dmax", "6", "--samples", "100", "--seed", s)) for s in "123"]
    out += [Run(("twirl", "x.json", "--side", "Q")), Run(("verify", "--dmax", "1e3")), Run(())]
    out += [Run((command, "-"), stdin="d3.json", closed="stdin") for command in ("twirl", "coherence")]
    out += [
        Run(argv, closed="stdout")
        for argv in (
            ("twirl", "d3.json"),
            ("twirl", "d3.json", "--out", "-"),
            ("coherence", "d3.json"),
            ("sweep-bell",),
            ("sweep-qubit", "--out", "-"),
            ("sweep-qubit", "--steps", "77", "--out", OUT),
            ("verify", "--dmax", "3", "--samples", "10"),
            ("--help",),
        )
    ]
    return out


def _env(src: Path, threads: int, run_env=()) -> dict:
    unset = ("PERMUTWIRL_SEED", "PYTHONIOENCODING")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads), **dict(run_env))
    return env


def run_tree(tree: Path, work: Path, threads: int, plan: list[Run]) -> list[Outcome]:
    """Each run of ``plan`` on ``tree``, one at a time, in ``work``, which holds the corpus."""
    src = tree / "src"
    where = subprocess.run(
        [sys.executable, "-c", "import permutwirl; print(permutwirl.__file__)"],
        cwd=work, env=_env(src, threads), capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bytediff: {tree} imports permutwirl from {where}")
    outcomes = []
    for run in plan:
        stdin = (work / run.stdin).read_bytes() if run.stdin else b""
        done = subprocess.run(
            closing([sys.executable, "-m", "permutwirl.cli", *run.argv], run.closed),
            input=stdin, cwd=work, env=_env(src, threads, run.env),
            capture_output=True, timeout=600,
        )
        target = work / OUT
        out = target.read_bytes() if target.exists() else None
        target.unlink(missing_ok=True)
        outcomes.append(Outcome(done.returncode, done.stdout, done.stderr, out))
    return outcomes


def extract(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` in this repository, written under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(HEAD), "archive", rev], capture_output=True, check=False
    )
    if archive.returncode:
        raise SystemExit(f"bytediff: git archive {rev}: {archive.stderr.decode().strip()}")
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def compare(base: Path, work: Path, threads=(1,)) -> list[tuple[Run, int, Outcome, Outcome]]:
    """(run, thread count, base outcome, head outcome) of every run, the
    trees and thread counts run two at a time."""
    files = corpus()
    plan = runs()
    jobs = [(name, tree, t) for t in threads for name, tree in (("base", base), ("head", HEAD))]
    for name, _, t in jobs:
        d = work / f"{name}-t{t}"
        d.mkdir(parents=True)
        for fname, text in files.items():
            (d / fname).write_text(text, encoding="utf-8")
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            (name, t): pool.submit(run_tree, tree, work / f"{name}-t{t}", t, plan)
            for name, tree, t in jobs
        }
        got = {key: f.result() for key, f in futures.items()}
    return [
        (run, t, b, h)
        for t in threads
        for run, b, h in zip(plan, got["base", t], got["head", t], strict=True)
    ]


def report(results, label: str) -> str:
    """The summary line and the table of the runs that moved."""
    threads = sorted({t for _, t, _, _ in results})
    moved = [(run, t, b, h) for run, t, b, h in results if b != h]
    lines = [
        f"bytediff {label} -> working tree, threads {' '.join(map(str, threads))}: "
        f"{len(results)} runs, {len(results) - len(moved)} identical"
    ]
    if moved:
        lines += ["", "| threads | run | moved | exit |", "|---|---|---|---|"]
        for run, t, b, h in moved:
            exit_codes = f"{b.code}" if b.code == h.code else f"{b.code} → {h.code}"
            lines.append(f"| {t} | `{run.name}` | {', '.join(b.moved_parts(h))} | {exit_codes} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="a git revision, or a directory holding a tree")
    parser.add_argument("--threads", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        base = Path(args.base)
        if not base.is_dir():
            base = extract(args.base, Path(tmp) / "base")
        results = compare(base.resolve(), Path(tmp) / "work", tuple(args.threads))
    print(report(results, args.base))
    return 0 if all(b == h for _, _, b, h in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
