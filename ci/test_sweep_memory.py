"""The qubit sweep at its step limit stays under 160 MiB of peak RSS."""

# The child reports its own high-water RSS: a child's RUSAGE_SELF and the
# parent's RUSAGE_CHILDREN both carry the size of the pytest process.
PEAK_AFTER_MAIN = """
import sys
from permutwirl import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_million_step_sweep_peak_rss(cli):
    sweep = ("sweep-qubit", "--steps", 1000000, "--out", "/dev/null")
    done = cli(*sweep, prog=("-c", PEAK_AFTER_MAIN))
    field, kib, unit = done.stderr.decode().split()
    assert (field, unit) == ("VmHWM:", "kB"), done.stderr
    peak_mib = int(kib) / 1024
    assert peak_mib < 160, f"sweep-qubit --steps 1000000: peak RSS {peak_mib:.1f} MiB"
