"""The CLI in a child process, for the checks that need a BLAS thread count
or a process's own peak memory.

Run with ``python -m pytest ci`` (Linux only: the sweep's peak is read
from ``/proc/self/status``).  Tier-1 does not collect this directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from bytediff import closing

import permutwirl

# the child imports the package this process imported, from any cwd
PACKAGE_ROOT = str(Path(permutwirl.__file__).resolve().parent.parent)
CLI = ("-m", "permutwirl.cli")


@pytest.fixture
def cli(tmp_path):
    """``cli(*args, threads=1, prog=CLI, stdin=b"", status=0, env=None, closed=None)``
    runs ``python -m permutwirl.cli args`` in ``tmp_path`` under
    ``OPENBLAS_NUM_THREADS=threads`` and the variables of ``env`` (a dict), with
    ``stdin`` on its standard input, or with the stream ``closed`` names
    ("stdin" or "stdout") closed, checks that it exits with ``status`` and
    returns the completed process (bytes)."""

    def run(*args, threads=1, prog=CLI, stdin=b"", status=0, env=None, closed=None):
        path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path, **(env or {})}
        argv = closing([sys.executable, *prog, *map(str, args)], closed)
        done = subprocess.run(argv, input=stdin, cwd=tmp_path, env=env, capture_output=True)
        assert done.returncode == status, (argv[1:], done.returncode, done.stderr.decode())
        return done

    return run
