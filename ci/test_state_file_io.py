"""State files written by the CLI: JSON text, bit-exact round trips, and a
one-sided oracle that does not depend on the BLAS thread count."""

import io
import json

import numpy as np

from permutwirl import statefile, states


def _save(path, seed, dims):
    rho = states.random_density(int(np.prod(dims)), np.random.default_rng(seed), dims=dims)
    statefile.save_state(path, rho.mat, rho.dims, label="ci")
    return rho


def _assert_round_trips(path):
    # the text is json.dumps's, and a load followed by a save gives it back
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text)) + "\n", path
    loaded = statefile.load_raw(path)
    again = io.StringIO()
    statefile.save_state(again, loaded.mat, loaded.dims, label=loaded.label)
    assert again.getvalue() == text, path


def test_d256_two_sided_twirl_file_round_trips(cli, tmp_path):
    rho = _save(tmp_path / "d256.json", 1, (16, 16))
    cli("twirl", "d256.json", "--side", "both", "--out", "d256-twirled.json")
    for name in ("d256.json", "d256-twirled.json"):
        _assert_round_trips(tmp_path / name)
    loaded = statefile.load_raw(tmp_path / "d256.json")
    np.testing.assert_array_equal(loaded.mat.view(np.uint64), rho.mat.view(np.uint64))


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
