"""State files written by the CLI: JSON text, bit-exact round trips, a
one-sided oracle that does not depend on the BLAS thread count, and the
size limit, applied before the read."""

import io
import json
import os

import numpy as np
import pytest

from permutwirl import statefile, states


def _save(path, seed, dims):
    # every other diagonal entry gets a -0.0 imaginary part, which a load
    # must keep: a valid density holds -0.0 as well as +0.0
    rho = states.random_density(int(np.prod(dims)), np.random.default_rng(seed), dims=dims)
    mat = rho.mat.copy()
    every_other = np.arange(0, len(mat), 2)
    mat.imag[every_other, every_other] = -0.0
    statefile.save_state(path, mat, dims, label="ci")
    return mat


def _assert_round_trips(path):
    # the text is json.dumps's, and a load followed by a save gives it back
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text)) + "\n", path
    loaded = statefile.load_raw(path)
    again = io.StringIO()
    statefile.save_state(again, loaded.mat, loaded.dims, label=loaded.label)
    assert again.getvalue() == text, path


def test_d256_two_sided_twirl_file_round_trips(cli, tmp_path):
    mat = _save(tmp_path / "d256.json", 1, (16, 16))
    cli("twirl", "d256.json", "--side", "both", "--out", "d256-twirled.json")
    for name in ("d256.json", "d256-twirled.json"):
        _assert_round_trips(tmp_path / name)
    loaded = statefile.load_raw(tmp_path / "d256.json")
    np.testing.assert_array_equal(loaded.mat.view(np.uint64), mat.view(np.uint64))


def test_d64_both_load_routes_give_the_same_twirl_file(cli, tmp_path):
    # save_state's layout takes load_raw's whole-buffer route; the same
    # document written with indent=2 takes the tree route
    mat = _save(tmp_path / "d64.json", 2, (8, 8))
    text = (tmp_path / "d64.json").read_text(encoding="utf-8")
    indented = json.dumps(json.loads(text), indent=2)
    (tmp_path / "d64-indented.json").write_text(indented, encoding="utf-8")
    assert statefile._load_flat(text.encode()) is not None
    assert statefile._load_flat(indented.encode()) is None
    for name in ("d64", "d64-indented"):
        cli("twirl", f"{name}.json", "--side", "both", "--out", f"{name}-twirled.json")
        loaded = statefile.load_raw(tmp_path / f"{name}.json")
        np.testing.assert_array_equal(loaded.mat.view(np.uint64), mat.view(np.uint64))
    twirled = (tmp_path / "d64-twirled.json").read_bytes()
    assert twirled == (tmp_path / "d64-indented-twirled.json").read_bytes()


def test_d12_kernel_and_oracle_files_round_trip(cli, tmp_path):
    # the one-sided kernels and the two-sided oracle write files as well
    _save(tmp_path / "d12.json", 4, (3, 4))
    _assert_round_trips(tmp_path / "d12.json")
    for side, method in (("A", "closed"), ("B", "closed"), ("both", "brute")):
        out = f"d12-{side}-{method}.json"
        cli("twirl", "d12.json", "--side", side, "--method", method, "--out", out)
        _assert_round_trips(tmp_path / out)


def test_d63_one_sided_oracle_file(cli, tmp_path):
    # a one-sided oracle at D = 63 sums its 7! permutations in two chunks:
    # its file does not depend on BLAS threads and matches the kernel
    _save(tmp_path / "d63.json", 6, (7, 9))
    runs = {"brute-t1": ("brute", 1), "brute-t2": ("brute", 2), "closed": ("closed", 1)}
    for name, (method, threads) in runs.items():
        twirl = ("twirl", "d63.json", "--side", "A", "--method", method)
        cli(*twirl, "--out", f"d63-{name}.json", threads=threads)
    brute = tmp_path / "d63-brute-t1.json"
    assert brute.read_bytes() == (tmp_path / "d63-brute-t2.json").read_bytes()
    gap = np.abs(statefile.load_raw(brute).mat - statefile.load_raw(tmp_path / "d63-closed.json").mat)
    assert gap.max() <= 1e-12, gap.max()
    for path in (tmp_path / "d63.json", brute):
        _assert_round_trips(path)


_CANONICAL = b'{"dims": [1], "matrix": [[1.0, 0.0]]}\n'


@pytest.mark.parametrize(
    "data, message",
    [
        (
            b"\xef\xbb\xbf" + _CANONICAL,
            b"malformed JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
        ),
        (
            b'{"dims": [1], "matrix": [[1' + b"0" * 5000 + b", 0]]}\n",
            b"field 'matrix'[0] holds an integer too large for a float",
        ),
        (
            b'{"dims": [1], "matrix": ' + b"[" * 100000 + b"]" * 100000 + b"}",
            b"JSON nested too deeply to parse",
        ),
    ],
    ids=["bom", "5001-digit-int", "deep-nesting"],
)
@pytest.mark.parametrize("source", ["path", "stdin"])
def test_refused_file_exits_1_from_a_path_and_from_real_stdin(cli, tmp_path, data, message, source):
    # the real standard input, not a StringIO standing in for sys.stdin
    (tmp_path / "bad.json").write_bytes(data)
    if source == "path":
        done = cli("twirl", "--raw", "bad.json", status=1)
    else:
        done = cli("twirl", "--raw", "-", stdin=data, status=1)
    assert done.stdout == b""
    assert done.stderr == b"error: " + message + b"\n"


# (document, exit status): a label the flat route reads, a lone CR and a CRLF
# before a refusal, and a UTF-8-encoded lone surrogate
_ANY_ENCODING_ROWS = {
    "non-ascii-label": ('{"dims": [1], "matrix": [[1.0, 0.0]], "label": "\u00e9 \u00fc"}\n'.encode(), 0),
    "lone-cr": (b'{"dims": [1],\r"matrix": [[1, 0]],\r"x": ]}', 1),
    "crlf": (b'{"dims": [1],\r\n"matrix": [[1, 0]],\r\n"x": ]}', 1),
    "non-utf8-bytes": (b'{"dims": [1], "matrix": [[1, 0]], "label": "a\xed\xa0\x80"}', 1),
}


@pytest.mark.parametrize("data, status", _ANY_ENCODING_ROWS.values(), ids=list(_ANY_ENCODING_ROWS))
def test_real_stdin_gives_the_path_bytes_under_any_stdio_encoding(cli, tmp_path, data, status):
    # stdin is read as bytes, whatever encoding its text layer declares
    (tmp_path / "state.json").write_bytes(data)
    want = cli("twirl", "--raw", "state.json", "--out", "-", status=status)
    assert want.stderr.startswith(b"error: ") if status else want.stderr == b""
    for encoding in ("utf-8", "latin-1", "ascii"):
        env = {"PYTHONIOENCODING": encoding}
        done = cli("twirl", "--raw", "-", "--out", "-", stdin=data, status=status, env=env)
        assert (done.stdout, done.stderr) == (want.stdout, want.stderr), encoding


# The child reports its own high-water RSS on stdout, which a refusal leaves
# empty, so that stderr holds the error line alone.
PEAK_AFTER_MAIN = """
import sys
from permutwirl import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    sys.stdout.write(next(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_a_file_over_the_size_limit_is_refused_before_it_is_read(cli, tmp_path):
    # a sparse file one byte over the limit, which takes no disk space
    size = statefile.MAX_STATE_FILE_BYTES + 1
    (tmp_path / "over.json").touch()
    os.truncate(tmp_path / "over.json", size)
    done = cli("twirl", "over.json", prog=("-c", PEAK_AFTER_MAIN), status=2)
    limit = statefile.MAX_STATE_FILE_BYTES
    assert done.stderr == f"error: state file exceeds the limit of {limit} bytes\n".encode()
    field, kib, unit = done.stdout.decode().split()
    assert (field, unit) == ("VmHWM:", "kB"), done.stdout
    # the import alone takes about 30 MiB; a read of the file would add its size
    assert int(kib) * 1024 < 0.75 * size, f"peak RSS {int(kib) / 1024:.1f} MiB"
