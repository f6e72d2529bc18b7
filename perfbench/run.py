"""Benchmark of permutwirl: one workload per process, closed loop, one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-twirl-io --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

A run generates the seeded inputs and warms up, then runs three cold
set-ups, each in a fresh interpreter (coldstart.py: import, one op, input
generation), for ``setup_s`` and ``peak_rss_mib``, then calls the
workload's op back to back for ``--seconds`` seconds, with a fixed
reference task timed before the first op and after each one, so that op
times are reported in units of the reference task's time.  Every
op's output is checked outside its timed interval.  With
``--trace 1`` the first half of the time runs untraced and the second
half traced, and the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
provenance and (traced runs) the spans go to ``perfbench/results/``.

The benchmark measures only its own processes: no machine-wide tracing,
no cache dropping, and no cgroup or kernel settings are touched.
"""

import os
import sys

# Pinned before numpy loads; recorded in every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
from coldstart import SRC, import_package  # noqa: E402
from workloads import WORKLOADS, Log, Reference, run_op, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_REPEATS = 3
# The tail is the percentile with TAIL_BEYOND samples beyond it, but never
# below TAIL_FLOOR: with fewer than TAIL_BEYOND / (1 - TAIL_FLOOR) = 100 ops
# the first would fall toward the median.  The level moves continuously
# with the op count, so the figure cannot jump when a run makes a few more
# or fewer ops.
TAIL_BEYOND = 10
TAIL_FLOOR = 0.9

SCOPE = (
    "measures only its own processes; no machine-wide tracing, no cache "
    "dropping, no cgroup or kernel settings touched"
)

# Op times in units of the reference task's time ("ref"); see workloads.Reference.
END_TO_END = {
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ops_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed and kept in the result file, but not gated: they move with the host's speed.
SECONDS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "reference_p50_s": "s",
}


def _git(*args) -> str | None:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance(seed: int, sizes: dict) -> dict:
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "inputs": sizes,
        "clients": 1,
        "loop": "closed",
        "scope": SCOPE,
    }


def set_up(name: str, seed: int, workdir: str, log: Log) -> dict:
    """SETUP_REPEATS cold set-ups, each in a fresh interpreter; report medians."""
    reps = []
    for k in range(SETUP_REPEATS):
        cold_dir = os.path.join(workdir, f"cold{k}")
        os.mkdir(cold_dir)
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), name, str(seed),
             os.path.join(workdir, "inputs"), cold_dir],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: cold set-up exited with code {proc.returncode}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        log.attempted += rep.pop("attempted")
        log.failed += rep.pop("failed")
        log.messages.extend(rep.pop("failures")[: 5 - len(log.messages)])
        reps.append(rep)
    return {
        "setup_s": statistics.median(r["import_s"] + r["generate_s"] + r["warmup_s"] for r in reps),
        "import_s": statistics.median(r["import_s"] for r in reps),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "repeats": reps,
    }


def timed_ops(workload, seconds: float, log: Log, reference: Reference, before_op=None):
    """Closed loop: the next op starts when the previous one and its check end.

    Returns the op times and the reference task's times: one before the
    first op and one after each op's check.
    """
    times = []
    deadline = perf_counter() + seconds
    refs = [reference()]
    while True:
        gc.collect()
        if before_op is not None:
            before_op()
        t0 = perf_counter()
        result = run_op(workload)
        times.append(perf_counter() - t0)
        log.check(workload, result)
        del result
        refs.append(reference())
        if perf_counter() >= deadline:
            return times, refs


def relative(times: list[float], refs: list[float]) -> list[float]:
    """Each op's time over the mean of the reference times just before and after it."""
    return [t / (0.5 * (before + after)) for t, before, after in zip(times, refs, refs[1:])]


def tail(times: list[float]) -> dict:
    """Op time at level max(TAIL_FLOOR, 1 - TAIL_BEYOND / n), interpolated between order statistics."""
    ordered = sorted(times)
    n = len(ordered)
    level = max(TAIL_FLOOR, 1.0 - TAIL_BEYOND / n)
    pos = (n - 1) * level
    i = int(pos)
    value = ordered[i] if i + 1 == n else ordered[i] + (pos - i) * (ordered[i + 1] - ordered[i])
    return {"value": value, "percentile": 100.0 * level, "samples": n}


def end_to_end(times: list[float], refs: list[float], setup: dict) -> dict:
    ratios = relative(times, refs)
    return {
        "op_p50_ref": statistics.median(ratios),
        "op_tail_ref": tail(ratios)["value"],
        "ops_per_ref": len(ratios) / sum(ratios),
        "setup_s": setup["setup_s"],
        "peak_rss_mib": setup["peak_rss_mib"],
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)["value"],
        "ops_per_s": len(times) / sum(times),
        "reference_p50_s": statistics.median(refs),
    }


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    permutwirl = import_package()
    workload = WORKLOADS[name](permutwirl)
    log = Log()
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{name}-", dir=RESULTS)
    try:
        inputs = workload.generate(seed)
        write_inputs(os.path.join(workdir, "inputs"), inputs)
        workload.install(inputs, workdir, seed)
        del inputs
        log.check(workload, run_op(workload))  # warm-up of this process, untimed
        setup = set_up(name, seed, workdir, log)
        record = {
            "workload": name,
            "why": workload.why,
            "seconds": seconds,
            "trace": int(trace),
            "provenance": provenance(seed, workload.sizes()),
            "setup": setup,
        }
        reference = Reference(workdir)
        if not trace:
            times, refs = timed_ops(workload, seconds, log, reference)
            metrics = end_to_end(times, refs, setup)
            record["op_times_s"] = times
            record["reference_times_s"] = refs
            record["tail"] = tail(relative(times, refs))
        else:
            plain = relative(*timed_ops(workload, seconds / 2, log, reference))
            tracer = spans.Tracer()
            with tracer.active():
                traced = relative(*timed_ops(workload, seconds / 2, log, reference, tracer.begin_op))
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            metrics = tracer.metrics(len(traced), setup["import_s"], overhead)
            record["op_times_ref"] = {"untraced": plain, "traced": traced}
            # Spans of the first traced op only: a cli-verify op alone has ~300k.
            write_json(RESULTS / f"{name}-seed{seed}-spans.json", {
                "workload": name,
                "seed": seed,
                "traced_ops": len(traced),
                "functions": tracer.functions(),
                "first_op_fields": ["index", "function", "start_s", "end_s", "parent"],
                "first_op_spans": tracer.op_spans(0),
            })
        record["attempted"] = log.attempted
        record["failed"] = log.failed
        record["error_rate"] = log.failed / log.attempted
        record["failures"] = log.messages
        record["metrics"] = metrics
        write_json(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def report(record: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the result line."""
    units = {k: unit for k, (unit, _) in spans.PER_LAYER.items()} if trace else END_TO_END
    print(f"workload {record['workload']}  seed {record['provenance']['seed']}  "
          f"blas_threads {BLAS_THREADS}  nproc {record['provenance']['nproc']}")
    for name, unit in units.items():
        print(f"  {name:32s} {record['metrics'][name]:.6g} {unit}")
    print(f"  {'error_rate':32s} {record['error_rate']:.6g} ({record['failed']}/{record['attempted']} ops)")
    if not trace:
        t = record["tail"]
        print(f"  op_tail_ref and op_tail_s are p{t['percentile']:.1f} of {t['samples']} timed ops")
        print("  in seconds, not gated:")
        for name, unit in SECONDS.items():
            print(f"  {name:32s} {record['metrics'][name]:.6g} {unit}")
    for message in record["failures"]:
        print(f"  failure: {message}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited with code {proc.returncode}")
            summary["correct"] = False
            continue
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        summary["workloads"][name] = result["metrics"]
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    trace = bool(args.trace)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, trace)
    record = run_workload(args.workload, args.seed, args.seconds, trace)
    print(json.dumps(report(record, trace)))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
