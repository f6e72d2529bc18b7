"""One cold set-up of a workload, in the fresh interpreter that runs this file.

run.py starts it, with the BLAS thread variables already set::

    python3 perfbench/coldstart.py <workload> <seed> <inputs-dir> <workdir>

It times ``import permutwirl.cli`` (numpy included, since nothing has
loaded it yet), installs the inputs that run.py generated into
``<inputs-dir>``, and times one op.  The process's peak RSS is read right
after that op, before the benchmark's own check and input generation
allocate anything, so it holds only the interpreter, the package, the
inputs and the op.  Then the op's output is checked and the seeded inputs
are generated again, timed, and compared with the ones on disk; a
difference exits with code 1.

Prints one JSON object: import_s, generate_s, warmup_s, peak_rss_mib,
attempted, failed, failures.
"""

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package():
    """Import permutwirl from this checkout's ``src``, or exit 2."""
    if not (SRC / "permutwirl" / "__init__.py").is_file():
        sys.stderr.write(f"error: no permutwirl package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import permutwirl
    import permutwirl.cli  # noqa: F401

    if Path(permutwirl.__file__).resolve().parent != SRC / "permutwirl":
        sys.stderr.write(f"error: imported permutwirl from {permutwirl.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return permutwirl


def digests(inputs: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in inputs.items()}


def main(argv) -> int:
    name, seed, inputs_dir, workdir = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    t0 = perf_counter()
    permutwirl = import_package()
    import_s = perf_counter() - t0

    from workloads import WORKLOADS, Log, run_op

    workload = WORKLOADS[name](permutwirl)
    inputs = {path.name: path.read_bytes() for path in sorted(inputs_dir.iterdir())}
    on_disk = digests(inputs)
    workload.install(inputs, workdir, seed)
    del inputs

    t0 = perf_counter()
    result = run_op(workload)
    warmup_s = perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    log = Log()
    log.check(workload, result)
    del result
    t0 = perf_counter()
    generated = workload.generate(seed)
    generate_s = perf_counter() - t0
    if digests(generated) != on_disk:
        raise SystemExit("error: inputs generated in a fresh interpreter differ from the run's")

    print(json.dumps({
        "import_s": import_s,
        "generate_s": generate_s,
        "warmup_s": warmup_s,
        "peak_rss_mib": peak_rss_mib,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.messages,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
