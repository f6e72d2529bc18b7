import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutwirl import cli, coherence, linalg, statefile, states, sweeps, twirl, verify


def _write_state(tmp_path, name, rho):
    path = tmp_path / name
    statefile.save_state(path, rho.mat, rho.dims)
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_twirl_closed_form_qubit(tmp_path, capsys):
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.6, 0.3, 0.2)))
    out_path = str(tmp_path / "out.json")
    code, out, _ = _run(capsys, ["twirl", path, "--out", out_path])
    assert code == 0
    summary = json.loads(out)
    assert summary["off_diag"] == pytest.approx(0.3, abs=1e-12)
    assert summary["weight"] == pytest.approx(0.6, abs=1e-12)
    result = statefile.load_density(out_path)
    np.testing.assert_allclose(
        result.mat, 0.5 * np.array([[1, 0.6], [0.6, 1]]), atol=1e-14
    )


def test_twirl_brute_matches_closed(tmp_path, capsys):
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.6, 0.3, 0.2)))
    closed_path = str(tmp_path / "closed.json")
    brute_path = str(tmp_path / "brute.json")
    assert cli.main(["twirl", path, "--out", closed_path]) == 0
    assert cli.main(["twirl", path, "--method", "brute", "--out", brute_path]) == 0
    capsys.readouterr()
    closed = statefile.load_density(closed_path)
    brute = statefile.load_density(brute_path)
    assert linalg.max_abs_diff(closed.mat, brute.mat) <= 1e-12


def test_twirl_output_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(81)
    path = _write_state(tmp_path, "r.json", states.random_density(3, rng))
    out_path = str(tmp_path / "out.json")
    assert cli.main(["twirl", path, "--out", out_path]) == 0
    capsys.readouterr()
    first = statefile.load_density(out_path).mat
    again_path = str(tmp_path / "out2.json")
    statefile.save_state(again_path, first, (3,))
    np.testing.assert_array_equal(statefile.load_density(again_path).mat, first)


def test_twirl_both_sides_bell_diagonal(tmp_path, capsys):
    path = _write_state(tmp_path, "b.json", states.bell_diagonal_state(0.5, 0.3, -0.2))
    code, out, _ = _run(capsys, ["twirl", path, "--side", "both"])
    assert code == 0
    summary = json.loads(out)
    assert summary["c0"][0] == pytest.approx(0.25, abs=1e-12)
    assert summary["c0"][1] == pytest.approx(0.0, abs=1e-15)


def test_twirl_side_requires_bipartite_file(tmp_path, capsys):
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.1, 0, 0)))
    code, _, err = _run(capsys, ["twirl", path, "--side", "A"])
    assert code == cli.EXIT_INVALID
    assert "bipartite" in err


@pytest.mark.parametrize("dims", [(4,), (2, 2, 2)])
@pytest.mark.parametrize("side", ["A", "B", "both"])
def test_twirl_side_refuses_a_file_that_is_not_two_factors(tmp_path, capsys, dims, side):
    # the CLI's own factor-count check, ahead of the library's dims rule
    rho = states.random_density(math.prod(dims), np.random.default_rng(5), dims=dims)
    code, out, err = _run(capsys, ["twirl", _write_state(tmp_path, "s.json", rho), "--side", side])
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert _one_error_line(err), err
    assert f"--side {side}" in err


def test_twirl_side_none_keeps_three_factor_dims(tmp_path, capsys):
    rho = states.random_density(8, np.random.default_rng(5), dims=(2, 2, 2))
    out_path = tmp_path / "out.json"
    argv = ["twirl", _write_state(tmp_path, "s.json", rho), "--side", "none", "--out", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["dim"] == 8
    assert statefile.load_density(out_path).dims == (2, 2, 2)


def test_twirl_raw_mode_accepts_operators(tmp_path, capsys):
    path = str(tmp_path / "sigma3.json")
    statefile.save_state(path, states.SIGMA_3, (2,))
    out_path = str(tmp_path / "out.json")
    code, out, _ = _run(capsys, ["twirl", path, "--raw", "--out", out_path])
    assert code == 0
    assert json.loads(out)["raw"] is True
    result = statefile.load_raw(out_path)
    np.testing.assert_allclose(result.mat, np.zeros((2, 2)), atol=1e-15)


# the output each --side and --method pair writes, from the twirl functions
_TWIRL_KERNELS = {
    ("none", "closed"): lambda m, dims: twirl.twirl_closed_form(m),
    ("none", "brute"): lambda m, dims: twirl.twirl_bruteforce(m),
    ("A", "closed"): lambda m, dims: twirl.twirl_one_sided(m, dims, "A"),
    ("A", "brute"): lambda m, dims: twirl.twirl_one_sided_bruteforce(m, dims, "A"),
    ("B", "closed"): lambda m, dims: twirl.twirl_one_sided(m, dims, "B"),
    ("B", "brute"): lambda m, dims: twirl.twirl_one_sided_bruteforce(m, dims, "B"),
    ("both", "closed"): lambda m, dims: twirl.twirl_two_sided(m, dims)[0],
    ("both", "brute"): twirl.twirl_two_sided_bruteforce,
}


@pytest.mark.parametrize("raw", [False, True], ids=["density", "raw-operator"])
@pytest.mark.parametrize("side, method", list(_TWIRL_KERNELS))
def test_twirl_summary_and_output_of_each_side_and_method(tmp_path, capsys, side, method, raw):
    rng = np.random.default_rng(83)
    dims = (2, 3)
    if raw:  # neither Hermitian nor of unit trace
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    else:
        x = states.random_density(6, rng).mat
    path, out_path = str(tmp_path / "in.json"), str(tmp_path / "out.json")
    statefile.save_state(path, x, dims)
    mat = statefile.load_raw(path).mat
    argv = ["twirl", path, "--side", side, "--method", method, "--out", out_path]
    code, out, err = _run(capsys, argv + ["--raw"] * raw)
    assert (code, err) == (0, "")
    summary = json.loads(out)
    if side != "none":
        coeffs = twirl.twirl_two_sided(mat, dims)[1]
        assert summary.pop("dims") == list(coeffs.dims)
        assert summary == {
            f.name: [getattr(coeffs, f.name).real, getattr(coeffs, f.name).imag]
            for f in dataclasses.fields(coeffs)
            if f.name != "dims"
        }
    elif raw:
        assert summary == {"dims": list(dims), "raw": True}
    else:
        params = twirl.twirl_params(states.DensityMatrix(mat, (6,)))
        assert summary == {"dim": 6, "off_diag": params.off_diag, "weight": params.weight}
    written = statefile.load_raw(out_path)
    assert written.dims == dims
    want = _TWIRL_KERNELS[side, method](mat, dims)
    np.testing.assert_array_equal(written.mat.view(np.uint64), want.view(np.uint64))


def test_numpy_random_loads_only_with_a_draw(tmp_path):
    path = str(tmp_path / "in.json")
    statefile.save_state(path, np.eye(6) / 6, (2, 3))
    script = f"""
import contextlib, io, sys
from permutwirl import cli
seen = ["numpy.random" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["twirl", {path!r}, "--side", "both", "--out", {str(tmp_path / "out.json")!r}])]
    seen.append("numpy.random" in sys.modules)
    codes.append(cli.main(["verify", "--dmax", "2", "--samples", "2"]))
    seen.append("numpy.random" in sys.modules)
print(codes, seen)
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path_env}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0] [False, False, True]\n"


def test_twirl_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["twirl", str(bad)])
    assert code == cli.EXIT_INVALID
    assert "error" in err


@pytest.mark.parametrize(
    "entry, message",
    [("NaN", "not finite"), ("-Infinity", "not finite"), ("1" + "0" * 400, "too large")],
    ids=["nan", "minus-infinity", "integer-1e400"],
)
def test_non_finite_or_overflowing_entry_exit_code(tmp_path, capsys, entry, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2], "matrix": [[0.5, 0], [%s, 0], [0, 0], [0.5, 0]]}' % entry)
    for argv in (["twirl", str(bad)], ["twirl", str(bad), "--raw"], ["coherence", str(bad)]):
        code, out, err = _run(capsys, argv)
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert "matrix'[1]" in err and message in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "dims, side",
    [([1, 2], "A"), ([1, 2], "both"), ([2], "none")],
    ids=["side-A-summary", "both-sides", "whole-system"],
)
def test_twirl_overflowing_output_exit_code(tmp_path, capsys, dims, side):
    # finite entries whose sums overflow: nothing printed, no file written
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": dims, "matrix": [[1e308, 0.0]] * 4}))
    out_path = tmp_path / "out.json"
    argv = ["twirl", str(path), "--raw", "--side", side, "--out", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert "not finite" in err
    assert not out_path.exists()


def test_twirl_validation_error_exit_code(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    statefile.save_state(path, states.SIGMA_3, (2,))
    code, _, _ = _run(capsys, ["twirl", path])
    assert code == cli.EXIT_INVALID


def test_twirl_dimension_guard_exit_code(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    statefile.save_state(path, np.eye(10) / 10, (10,))
    code, out, _ = _run(capsys, ["twirl", path, "--method", "brute"])
    assert code == cli.EXIT_DIMENSION
    assert out == ""
    bipartite = str(tmp_path / "big_a.json")
    statefile.save_state(bipartite, np.eye(10) / 10, (10, 1))
    pair = str(tmp_path / "big_ab.json")
    statefile.save_state(pair, np.eye(36) / 36, (6, 6))
    for path, side in ((bipartite, "A"), (pair, "both")):
        code, out, err = _run(capsys, ["twirl", path, "--side", side, "--method", "brute"])
        assert code == cli.EXIT_DIMENSION
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_twirl_stdin_stdout(tmp_path, capsys, monkeypatch):
    rho = states.qubit_from_bloch((0.4, 0.0, 0.0))
    buf = io.StringIO()
    statefile.save_state(buf, rho.mat, rho.dims)
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    code, out, _ = _run(capsys, ["twirl", "-", "--out", "-"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    summary = json.loads(lines[0])
    assert summary["weight"] == pytest.approx(0.4, abs=1e-12)
    doc = json.loads(lines[1])
    assert doc["dims"] == [2]


def _real_density(d, lam_min, seed):
    """Q diag(lam) Q^T with trace one and smallest eigenvalue lam_min."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    lam = np.full(d, (1 - lam_min) / (d - 1))
    lam[0] = lam_min
    return (q * lam) @ q.T


TWIRL_BOTH = ["twirl", "--side", "both"]
COHERENCE_BOTH = ["coherence", "--measure", "both"]


@pytest.mark.parametrize(
    "d, dims, seed, argv, lam_min, expected",
    [
        (64, (8, 8), 2, TWIRL_BOTH, -2 * linalg.DEFAULT_TOL, cli.EXIT_INVALID),
        (4, (2, 2), 3, TWIRL_BOTH, -2 * linalg.DEFAULT_TOL, cli.EXIT_INVALID),
        (4, (2, 2), 3, TWIRL_BOTH, -linalg.DEFAULT_TOL / 2, cli.EXIT_OK),
        (4, (4,), 3, COHERENCE_BOTH, -2 * linalg.DEFAULT_TOL, cli.EXIT_INVALID),
        (4, (4,), 3, COHERENCE_BOTH, -linalg.DEFAULT_TOL / 2, cli.EXIT_OK),
    ],
    ids=["d64-twirl", "d4-twirl-refused", "d4-twirl", "c4-coherence-refused", "c4-coherence"],
)
def test_positivity_screen_exit_code_at_every_side(
    tmp_path, capsys, d, dims, seed, argv, lam_min, expected
):
    # refused below -tol and accepted above it, whatever the side
    path = str(tmp_path / "state.json")
    statefile.save_state(path, _real_density(d, lam_min, seed), dims)
    code, out, err = _run(capsys, [argv[0], path, *argv[1:]])
    assert code == expected, err
    if expected:
        assert out == "" and "min eigenvalue" in err


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["twirl", "coherence"])
@pytest.mark.parametrize("input_kind", ["missing", "directory"])
def test_unreadable_input_exit_code(tmp_path, capsys, command, input_kind):
    path = tmp_path / "missing.json" if input_kind == "missing" else tmp_path
    code, out, err = _run(capsys, [command, str(path)])
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert _one_error_line(err), err


@pytest.mark.parametrize(
    "argv",
    [["sweep-qubit", "--steps", "5"], ["sweep-bell", "--grid", "3"]],
    ids=["sweep-qubit", "sweep-bell"],
)
def test_sweep_out_in_missing_directory_exit_code(tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "x.csv"
    code, out, err = _run(capsys, argv + ["--out", str(target)])
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert _one_error_line(err), err


def test_twirl_out_in_missing_directory_exit_code(tmp_path, capsys):
    # the summary is printed before the state file is written
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.4, 0.0, 0.0)))
    target = tmp_path / "missing-dir" / "out.json"
    code, out, err = _run(capsys, ["twirl", path, "--out", str(target)])
    assert code == cli.EXIT_INVALID
    assert json.loads(out)["weight"] == pytest.approx(0.4, abs=1e-12)
    assert _one_error_line(err), err
    assert not target.parent.exists()


def test_coherence_maximally_coherent(tmp_path, capsys):
    path = _write_state(tmp_path, "phi.json", states.maximally_coherent_state(4))
    code, out, _ = _run(capsys, ["coherence", path])
    assert code == 0
    doc = json.loads(out)
    l1 = doc["reports"]["l1"]
    assert l1["value"] == pytest.approx(3.0, abs=1e-10)
    assert l1["lower_bound"] == pytest.approx(3.0, abs=1e-10)
    assert l1["gap"] == pytest.approx(0.0, abs=1e-10)


def test_coherence_incoherent_state(tmp_path, capsys):
    rho = states.validate_density(np.diag([0.6, 0.4]).astype(complex))
    path = _write_state(tmp_path, "inc.json", rho)
    code, out, _ = _run(capsys, ["coherence", path])
    doc = json.loads(out)
    assert code == 0
    for measure in ("l1", "relent"):
        for key in ("value", "lower_bound", "gap"):
            assert doc["reports"][measure][key] == pytest.approx(0.0, abs=1e-10)


def test_coherence_qubit_values_and_bits_flag(tmp_path, capsys):
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.6, 0.1, 0.1)))
    code, out, _ = _run(capsys, ["coherence", path, "--measure", "both"])
    doc = json.loads(out)
    assert doc["units"] == "nats"
    assert doc["reports"]["l1"]["value"] == pytest.approx(np.sqrt(0.37), abs=1e-10)
    assert doc["reports"]["l1"]["lower_bound"] == pytest.approx(0.6, abs=1e-10)
    code, out_bits, _ = _run(capsys, ["coherence", path, "--bits"])
    doc_bits = json.loads(out_bits)
    assert doc_bits["units"] == "bits"
    # entropic values scale by 1/ln 2; the l1 report does not
    assert doc_bits["reports"]["relent"]["value"] == pytest.approx(
        doc["reports"]["relent"]["value"] / np.log(2), abs=1e-10
    )
    assert doc_bits["reports"]["l1"]["value"] == pytest.approx(
        doc["reports"]["l1"]["value"], abs=1e-15
    )


def test_coherence_assist_reports_both_states(tmp_path, capsys):
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.3, 0.2, 0.5)))
    code, out, _ = _run(
        capsys, ["coherence", path, "--measure", "l1", "--assist", "300", "9"]
    )
    assert code == 0
    doc = json.loads(out)
    est = doc["assist"]["estimates"]["l1"]
    assert est["rho"] <= est["rho_star"] + 0.05
    assert doc["assist"]["samples"] == 300


def test_coherence_assist_nan_estimate_exit_code(tmp_path, capsys, monkeypatch):
    scores = iter([0.5, np.nan])
    monkeypatch.setattr(
        "permutwirl.coherence._pure_l1_terms", lambda w_cols: next(scores, 0.25)
    )
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.3, 0.2, 0.5)))
    code, out, err = _run(
        capsys, ["coherence", path, "--measure", "l1", "--assist", "5", "9"]
    )
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert "not finite" in err


def test_coherence_rejects_bipartite(tmp_path, capsys):
    path = _write_state(tmp_path, "omega.json", states.maximally_entangled_state(2))
    code, _, err = _run(capsys, ["coherence", path])
    assert code == cli.EXIT_INVALID
    assert "monopartite" in err


@pytest.mark.parametrize(
    "flags", [["--measure", "l1"], ["--measure", "relent"], ["--bits"]], ids=["l1", "relent", "bits"]
)
def test_assist_rho_star_is_the_estimate_on_the_twirl_out_file(tmp_path, capsys, flags):
    # one twirled state: rho_star scores the matrix that `twirl --out` writes
    rng = np.random.default_rng(31)
    scale = 1.0 / math.log(2.0) if "--bits" in flags else 1.0
    for d in (2, 3, 5):
        path = _write_state(tmp_path, f"d{d}.json", states.random_density(d, rng))
        twirled = str(tmp_path / f"d{d}-twirled.json")
        assert _run(capsys, ["twirl", path, "--out", twirled])[0] == 0
        code, out, err = _run(capsys, ["coherence", path, *flags, "--assist", "60", "4"])
        assert (code, err) == (0, "")
        loaded = statefile.load_density(twirled)
        star = states.DensityMatrix(loaded.mat, loaded.dims)
        estimates = json.loads(out)["assist"]["estimates"]
        assert list(estimates) == (["l1", "relent"] if "--bits" in flags else [flags[1]])
        for measure, est in estimates.items():
            want = coherence.assistance_estimate(star, measure, 60, 4).value
            if measure == coherence.MEASURE_REL_ENT:
                want *= scale
            got = np.float64(est["rho_star"])
            assert got.view(np.uint64) == np.float64(want).view(np.uint64), (d, measure)


def test_assist_on_an_accepted_state_at_the_output_family_edge(tmp_path, capsys):
    # -0.9e-10 on psi+ and 1 + 1.8e-10 on psi-: validation accepts it, and
    # the trace-one member of the output family is not a state within tol
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
    mat = -0.9e-10 * np.outer(plus, plus) + (1 + 1.8e-10) * np.outer(minus, minus)
    path = _write_state(tmp_path, "edge.json", states.validate_density(mat))
    code, out, err = _run(capsys, ["coherence", path, "--measure", "both", "--assist", "20", "7"])
    assert (code, err) == (0, "")
    assert set(json.loads(out)["assist"]["estimates"]) == {"l1", "relent"}


@pytest.mark.parametrize(
    "argv, env_seed, message",
    [
        (["verify", "--dmax", "2", "--samples", "2", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["verify", "--dmax", "2", "--samples", "2"], "-3", "PERMUTWIRL_SEED must be >= 0, got -3"),
        (["coherence", "{state}", "--assist", "5", "-1"], None, "seed must be >= 0, got -1"),
    ],
    ids=["verify-flag", "verify-env", "coherence-assist"],
)
def test_negative_seed_is_refused_by_name(tmp_path, capsys, monkeypatch, argv, env_seed, message):
    path = _write_state(tmp_path, "q.json", states.qubit_from_bloch((0.3, 0.2, 0.5)))
    if env_seed is None:
        monkeypatch.delenv("PERMUTWIRL_SEED", raising=False)
    else:
        monkeypatch.setenv("PERMUTWIRL_SEED", env_seed)
    code, out, err = _run(capsys, [a.format(state=path) for a in argv])
    assert (code, out, err) == (cli.EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dims": [1], "matrix": ' + "[" * 100000 + "]" * 100000 + "}", "JSON nested too deeply to parse"),
        (
            '{"dims": [' + ", ".join(["1" + "0" * 400] * 6) + '], "matrix": [[1, 0]]}',
            f"field 'matrix' must hold at least 10^{sys.get_int_max_str_digits()} [re, im] "
            "pairs for its dims, got 1",
        ),
        (
            '{"dims": [1' + "0" * 5000 + '], "matrix": [[1, 0]]}',
            f"field 'matrix' must hold at least 10^{sys.get_int_max_str_digits()} [re, im] "
            "pairs for its dims, got 1",
        ),
    ],
    ids=["deep-nesting", "six-401-digit-dims", "5001-digit-dims"],
)
@pytest.mark.parametrize("raw", [False, True], ids=["density", "raw"])
def test_extreme_document_prints_one_error_line(tmp_path, capsys, text, message, raw):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = _run(capsys, ["twirl", str(path), *(["--raw"] if raw else [])])
    assert (code, out, err) == (cli.EXIT_INVALID, "", f"error: {message}\n")


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_sweep_qubit_first_row_and_ordering(capsys):
    code, out, _ = _run(capsys, ["sweep-qubit", "--steps", "50"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == list("r1 l1_rho l1_star relent_rho relent_star".split())
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(0.1, abs=1e-10)
    assert first[2] == pytest.approx(0.0, abs=1e-12)
    for row in rows:
        r1, l1_rho, l1_star, re_rho, re_star = (float(v) for v in row)
        assert l1_rho >= l1_star - 1e-10
        assert re_rho >= re_star - 1e-10
        assert l1_rho == pytest.approx(np.sqrt(r1**2 + 0.01), abs=1e-9)


def test_sweep_qubit_flag_validation(capsys):
    code, _, err = _run(capsys, ["sweep-qubit", "--r2", "0.9", "--r3", "0.9"])
    assert code == cli.EXIT_INVALID
    assert "exceeds 1" in err


@pytest.mark.parametrize("flag", ["--r2", "--r3"])
def test_sweep_qubit_nan_flag_exit_code(capsys, flag):
    code, out, err = _run(capsys, ["sweep-qubit", flag, "nan"])
    assert code == cli.EXIT_INVALID
    assert out == ""
    # NaN makes no comparison with 1: its message names the bad input instead
    assert "r2^2 + r3^2 = nan: r2 = " in err and "must be finite" in err
    assert "exceeds" not in err


def test_sweep_qubit_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["sweep-qubit", "--steps", "20", "--out", str(a)]) == 0
    assert cli.main(["sweep-qubit", "--steps", "20", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_bell_rows(capsys):
    code, out, _ = _run(capsys, ["sweep-bell", "--grid", "3"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == list(
        "t1 t2 t3 in_octahedron ppt_before ppt_after_one_sided t1_image".split()
    )
    table = {tuple(float(v) for v in row[:3]): row for row in rows}
    corner = table[(-1.0, -1.0, -1.0)]
    assert corner[3] == "0" and corner[4] == "0" and corner[5] == "1"
    center = table[(0.0, 0.0, 0.0)]
    assert center[3] == "1" and center[4] == "1" and center[5] == "1"
    for key, row in table.items():
        assert float(row[6]) == pytest.approx(key[0], abs=1e-9)


def test_verify_small_run_exits_zero(capsys):
    code, out, _ = _run(capsys, ["verify", "--dmax", "3", "--samples", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "closed_form_matches_bruteforce" in names
    assert "bell_octahedron_ppt_agreement" in names


def test_verify_dmax_one_edge_case(capsys):
    code, out, _ = _run(capsys, ["verify", "--dmax", "1", "--samples", "2"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTWIRL_SEED", "777")
    code, out, _ = _run(capsys, ["verify", "--dmax", "2", "--samples", "2"])
    assert code == 0
    assert json.loads(out)["seed"] == 777


def _key_paths(doc, prefix=""):
    # every key of a parsed JSON document in the order of its text, a nested
    # one as a dotted path; a list's items are numbered
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        path = f"{prefix}{key}"
        if isinstance(doc, dict):
            yield path
        yield from _key_paths(value, path + ".")


_COEFF_KEYS = ["dims", "c0", "c1", "c2", "c3", "overlap_a", "overlap_b", "overlap_ab"]
_REPORT_KEYS = [
    f"reports.{m}{k}" for m in ("l1", "relent") for k in ("", ".value", ".lower_bound", ".gap")
]
_ASSIST_KEYS = ["assist", "assist.samples", "assist.seed", "assist.estimates"] + [
    f"assist.estimates.{m}{k}" for m in ("l1", "relent") for k in ("", ".rho", ".rho_star")
]


@pytest.mark.parametrize(
    "state, argv, want",
    [
        ("qubit", ["twirl"], ["dim", "off_diag", "weight"]),
        ("qubit", ["twirl", "--raw"], ["dims", "raw"]),
        ("bell", ["twirl", "--side", "both"], _COEFF_KEYS),
        ("bell", ["twirl", "--side", "A", "--raw"], _COEFF_KEYS),
        (
            "qubit",
            ["coherence", "--assist", "20", "1"],
            ["dim", "units", "reports", *_REPORT_KEYS, *_ASSIST_KEYS],
        ),
    ],
    ids=["twirl", "twirl-raw", "twirl-bipartite", "twirl-bipartite-raw", "coherence-assist"],
)
def test_json_keys_follow_the_result_field_order(tmp_path, capsys, state, argv, want):
    rho = {
        "qubit": states.qubit_from_bloch((0.3, 0.2, 0.5)),
        "bell": states.bell_diagonal_state(0.5, 0.3, -0.2),
    }[state]
    code, out, _ = _run(capsys, [argv[0], _write_state(tmp_path, "s.json", rho), *argv[1:]])
    assert code == 0
    assert list(_key_paths(json.loads(out))) == want


def test_verify_json_keys_follow_the_result_field_order(capsys):
    code, out, _ = _run(capsys, ["verify", "--dmax", "2", "--samples", "2"])
    assert code == 0
    doc = json.loads(out)
    keys = ("name", "max_residual", "tol", "passed")
    checks = [f"checks.{i}.{k}" for i in range(len(doc["checks"])) for k in keys]
    assert len(checks) > 40
    assert list(_key_paths(doc)) == ["dmax", "samples", "seed", "passed", "checks", *checks]


def test_verify_rejects_malformed_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTWIRL_SEED", "not-a-number")
    code, _, err = _run(capsys, ["verify", "--dmax", "2", "--samples", "2"])
    assert code == cli.EXIT_INVALID
    assert "PERMUTWIRL_SEED" in err


def test_verify_rejects_bad_flags(capsys):
    for dmax in ("12", "10"):
        code, _, err = _run(capsys, ["verify", "--dmax", dmax])
        assert code == cli.EXIT_INVALID
        assert "dmax" in err
    code, _, _ = _run(capsys, ["verify", "--samples", "0"])
    assert code == cli.EXIT_INVALID


def test_run_suite_dmax_limit_is_the_brute_force_bound():
    with pytest.raises(ValueError, match="dmax must be <= 9"):
        verify.run_suite(dmax=10)


def test_run_suite_importable_names():
    # the suite exposes stable check names for downstream tooling
    results = verify.run_suite(dmax=2, samples=2, seed=1)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert "entanglement_breaking_certificate" in names


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # negative control: corrupt the closed form and expect a named failure
    import permutwirl.twirl as twirl_module

    original = twirl_module.twirl_closed_form

    def corrupted(x):
        out = original(x)
        d = out.shape[0]
        if d >= 2:
            off = (np.asarray(x, dtype=complex).sum() - np.trace(x)) / (d * d)
            wrong = np.full((d, d), off, dtype=complex)
            np.fill_diagonal(wrong, np.trace(x) / d)
            return wrong
        return out

    monkeypatch.setattr(twirl_module, "twirl_closed_form", corrupted)
    code, out, err = _run(capsys, ["verify", "--dmax", "3", "--samples", "3"])
    assert code == cli.EXIT_VERIFY_FAILED
    doc = json.loads(out)
    assert doc["passed"] is False
    failing = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert "closed_form_matches_bruteforce" in failing
    assert "verification failed" in err


def _failing_checks(capsys):
    code, out, err = _run(capsys, ["verify", "--dmax", "3", "--samples", "3"])
    assert code == cli.EXIT_VERIFY_FAILED
    assert "verification failed" in err
    return {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}


@pytest.mark.parametrize(
    "name, shift, failing",
    [
        ("l1_coherences", -1.0, {"coherence_gap_l1", "l1_bound_tight_for_nonneg_real"}),
        (
            "l1_lower_bounds",
            1.0,
            {"coherence_gap_l1", "l1_bound_equals_formula", "l1_bound_tight_for_nonneg_real"},
        ),
        ("rel_ent_coherences", -1.0, {"coherence_gap_relent", "relent_bound_eigen_route"}),
        ("rel_ent_lower_bounds", 1.0, {"coherence_gap_relent", "relent_bound_eigen_route"}),
    ],
)
def test_verify_detects_a_faulty_coherence_stack(capsys, monkeypatch, name, shift, failing):
    # negative control: verify reaches each stacked coherence kernel through
    # its module attribute, so a shifted kernel fails the checks it feeds
    import permutwirl.coherence as coherence_module

    original = getattr(coherence_module, name)
    monkeypatch.setattr(coherence_module, name, lambda *a, **k: original(*a, **k) + shift)
    assert failing <= _failing_checks(capsys)


def test_verify_detects_a_faulty_stacked_eigensolver(capsys, monkeypatch):
    # negative control: shift the eigenvalues of stacks only; the checks
    # that solve one stack per (check, d) must fail
    import permutwirl.linalg as linalg_module

    original = linalg_module.hermitian_eigvals

    def shifted_on_stacks(a, *args, **kwargs):
        w = original(a, *args, **kwargs)
        return w - 1.0 if np.ndim(a) == 3 else w

    monkeypatch.setattr(linalg_module, "hermitian_eigvals", shifted_on_stacks)
    assert {
        "trace_and_positivity_preserved",
        "output_state_eigenvalues",
        "parameter_bounds",
        "two_qubit_eigenvalue_formula",
        "two_qubit_outputs_separable",
    } <= _failing_checks(capsys)


def test_verify_reports_nan_output_as_failure(capsys, monkeypatch):
    # a kernel returning NaN must fail its check, not vanish inside max()
    import permutwirl.twirl as twirl_module

    original = twirl_module.twirl_two_sided

    def nan_output(x, dims):
        out, coeffs = original(x, dims)
        return np.full_like(out, np.nan), coeffs

    monkeypatch.setattr(twirl_module, "twirl_two_sided", nan_output)
    results = {r.name: r for r in verify.run_suite(dmax=2, samples=2)}
    assert results["two_sided_matches_nested_bruteforce"].passed is False
    assert np.isnan(results["two_sided_matches_nested_bruteforce"].max_residual)
    assert results["closed_form_matches_bruteforce"].passed is True

    code, out, err = _run(capsys, ["verify", "--dmax", "2", "--samples", "2"])
    assert code == cli.EXIT_VERIFY_FAILED
    doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in JSON"))
    failed = {c["name"]: c for c in doc["checks"] if not c["passed"]}
    assert failed["two_sided_matches_nested_bruteforce"]["max_residual"] is None
    assert "verification failed: two_sided_matches_nested_bruteforce" in err


def _nan_past_row_0_of_closed_form(monkeypatch):
    # the closed form turns NaN in row 1 of each stack it returns, never in
    # row 0
    import permutwirl.twirl as twirl_module

    original = twirl_module.twirl_closed_form

    def nan_in_row_1(x):
        out = original(x)
        if out.ndim == 3 and len(out) > 1:
            out[1] = np.nan
        return out

    monkeypatch.setattr(twirl_module, "twirl_closed_form", nan_in_row_1)


def test_verify_keeps_a_nan_residual_that_is_not_first(monkeypatch):
    # the worst residual of the closed form's check must stay NaN after the
    # finite residual before it
    _nan_past_row_0_of_closed_form(monkeypatch)
    results = {r.name: r for r in verify.run_suite(dmax=2, samples=2, seed=1)}
    closed = results["closed_form_matches_bruteforce"]
    assert np.isnan(closed.max_residual)
    assert closed.passed is False


def test_closed_form_check_nan_is_not_its_first_residual(monkeypatch):
    # the fault above lands past the check's first residual, so the test
    # above cannot pass on a NaN that built-in max would keep anyway
    _nan_past_row_0_of_closed_form(monkeypatch)
    check = verify.check_closed_form_matches_bruteforce
    (row,) = [r for r in verify._CHECKS if r[0] is check]
    (residuals,) = verify._residuals(row, 2, 2, np.random.default_rng(1))
    assert np.isfinite(residuals[0])
    assert np.isnan(residuals[1])


def _worst(*values) -> float:
    # the largest of values, or NaN if any of them is NaN: built-in max
    # drops a NaN that is not its first argument
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


@pytest.mark.parametrize(
    "residuals",
    [[], [-0.0], [-1.0, -0.0], [-3.0, 1e-300], [0.5, np.nan, 0.25], [1.0, 2.0, np.nan], [np.inf, 1.0]],
)
def test_run_suite_reduces_residuals_as_worst_does(residuals, monkeypatch):
    # one reduction per result keeps _worst(0.0, *residuals): NaN wherever it
    # is, a 0.0 floor, and +0.0 (not -0.0) for a zero worst
    def draw(dmax, samples, rng):
        yield ()

    def check():
        return residuals

    monkeypatch.setattr(verify, "_CHECKS", ((check, draw, ("fake", 1.0)),))
    (result,) = verify.run_suite(dmax=2, samples=2, seed=1)
    want = _worst(0.0, *residuals)
    assert type(result.max_residual) is float
    if math.isnan(want):
        assert math.isnan(result.max_residual)
    else:
        assert math.copysign(1.0, result.max_residual) == 1.0
        assert result.max_residual == want
    assert result.passed is (want <= 1.0)


def test_each_result_reduces_as_many_residuals_as_its_draws_give():
    # the count of each name at run_suite(3, 2, 1), from the sizes of its
    # draws: a block dropped from a draw or a check changes a count
    dmax, samples = 3, 2
    per_d = samples * len(range(2, dmax + 1))
    operators = 2 * per_d
    bipartite = 2 * verify.BIPARTITE_SAMPLES * len(verify.BIPARTITE_PAIRS)
    small_d = len(range(2, min(dmax, 5) + 1))
    want = {
        "closed_form_matches_bruteforce": operators,
        "idempotence": operators,
        "unitality": 2 * dmax,
        "self_adjointness": per_d,
        "transpose_covariance": operators,
        "permutation_invariance": operators,
        "trace_and_positivity_preserved": 2 * per_d,
        "qubit_bloch_image": verify.BLOCH_SAMPLES,
        "output_state_reconstruction": per_d,
        "output_state_eigenvalues": per_d,
        "parameter_bounds": 4 * per_d,
        "coherence_gap_l1": verify.COHERENCE_SAMPLES * small_d,
        "coherence_gap_relent": verify.COHERENCE_SAMPLES * small_d,
        "l1_bound_equals_formula": per_d,
        "relent_bound_eigen_route": per_d,
        "l1_bound_tight_for_nonneg_real": per_d,
        "one_sided_matches_bruteforce": bipartite,
        "two_sided_matches_nested_bruteforce": bipartite,
        "two_qubit_eigenvalue_formula": verify.BIPARTITE_SAMPLES,
        # one per output, with no output refused as not PPT
        "two_qubit_outputs_separable": 2 * verify.TWO_QUBIT_SAMPLES,
        # per d = 2..6: the residual, the weight sum and the two weights
        "entanglement_breaking_certificate": 4 * 5,
        "choi_matrix_ppt": 5,
        "qubit_sweep_l1_curves": 3,
        "qubit_sweep_relent_ordering": 3,
        "bell_octahedron_ppt_agreement": 1,
        "bell_one_sided_image": 1,
        "collective_matches_bruteforce": verify.COLLECTIVE_SAMPLES * small_d,
    }
    rng = np.random.default_rng(1)
    got = {}
    for row in verify._CHECKS:
        columns = verify._residuals(row, dmax, samples, rng)
        for (name, _), column in zip(row[2:], columns, strict=True):
            got[name] = len(column)
    assert got == want
    assert list(got) == [r.name for r in verify.run_suite(dmax, samples, 1)]


# Draws whose kind holds no imaginary part; every other random stack is
# built from complex Ginibre matrices.
_REAL_DRAWS = (verify._real_densities,)


@pytest.mark.parametrize("row", verify._CHECKS, ids=lambda row: row[2][0])
def test_every_drawn_stack_is_generic(row):
    # each random stack is full rank, holds off-diagonal (and, where its
    # kind has them, imaginary) mass in every matrix, and repeats no row:
    # stacks of I/d and I would pass every check of the suite
    _, draw, *_ = row
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    stacks = [
        arg
        for args in draw(4, 3, rng)
        for arg in args
        if isinstance(arg, np.ndarray) and arg.dtype.kind in "fc"
    ]
    if rng.bit_generator.state == before:
        assert stacks == []
        return
    assert stacks
    for stack in stacks:
        assert len({entry.tobytes() for entry in stack}) == len(stack)
        if stack.ndim == 2:
            # Bloch vectors, one per row
            assert np.linalg.matrix_rank(stack) == stack.shape[1]
            continue
        d = stack.shape[-1]
        assert np.all(np.linalg.matrix_rank(stack) == d)
        assert np.all(np.abs(stack[:, ~np.eye(d, dtype=bool)]).max(axis=1) > 0)
        if draw not in _REAL_DRAWS:
            assert np.all(np.abs(stack.imag).max(axis=(1, 2)) > 0)


def test_verify_catches_an_oracle_wrong_past_its_first_row(monkeypatch):
    # each oracle is exact on row 0 of a stack and off by 1e-6 on every
    # other row: a stacked check that compared only its first row would pass
    import permutwirl.twirl as twirl_module

    def shifted_past_row_0(oracle):
        def faulty(x, *args):
            out = oracle(x, *args)
            if out.ndim == 3:
                out[1:] += 1e-6
            return out

        return faulty

    for name in (
        "twirl_bruteforce",
        "twirl_one_sided_bruteforce",
        "twirl_two_sided_bruteforce",
        "collective_twirl_bruteforce",
    ):
        monkeypatch.setattr(twirl_module, name, shifted_past_row_0(getattr(twirl_module, name)))
    results = {r.name: r for r in verify.run_suite(dmax=2, samples=2, seed=1)}
    for name in (
        "closed_form_matches_bruteforce",
        "output_state_reconstruction",
        "one_sided_matches_bruteforce",
        "two_sided_matches_nested_bruteforce",
        "collective_matches_bruteforce",
    ):
        assert results[name].passed is False
        assert results[name].max_residual >= 1e-6 * 0.99
    assert results["unitality"].passed is True


def test_verify_refuses_a_density_that_is_not_positive_past_row_0(capsys, monkeypatch):
    # the density validation's eigenvalues turn negative on row 1 of each
    # stack, never on row 0: a validation of row 0 alone would pass.  The
    # screen proves nothing, so the eigenvalues decide every stack.  Only
    # calls made while states._check_densities runs are shifted, so the
    # checks' own eigenvalues are kept.
    import permutwirl.linalg as linalg_module

    passing = [r.name for r in verify.run_suite(dmax=2, samples=2, seed=1)]
    original = linalg_module.hermitian_eigvals
    original_check = states._check_densities
    monkeypatch.setattr(states, "_cholesky_proves_positive", lambda *_: False)
    validating = []
    shifted = []

    def flagged_check(*args, **kwargs):
        validating.append(True)
        try:
            return original_check(*args, **kwargs)
        finally:
            validating.pop()

    def negative_on_row_1(a, *args, **kwargs):
        w = original(a, *args, **kwargs)
        if validating and w.ndim == 2 and len(w) > 1:
            w[1] -= 1.0
            shifted.append(len(w))
        return w

    monkeypatch.setattr(states, "_check_densities", flagged_check)
    monkeypatch.setattr(linalg_module, "hermitian_eigvals", negative_on_row_1)
    results = {r.name: r for r in verify.run_suite(dmax=2, samples=2, seed=1)}
    assert shifted
    tight = results["l1_bound_tight_for_nonneg_real"]
    assert np.isnan(tight.max_residual)
    assert tight.passed is False

    code, out, err = _run(capsys, ["verify", "--dmax", "2", "--samples", "2", "--seed", "1"])
    assert code == cli.EXIT_VERIFY_FAILED
    assert [c["name"] for c in json.loads(out)["checks"]] == passing
    assert "l1_bound_tight_for_nonneg_real" in err


def test_verify_oversized_samples_exit_code(capsys):
    samples = verify.MAX_SAMPLES + 1
    code, out, err = _run(capsys, ["verify", "--dmax", "2", "--samples", str(samples)])
    assert code == cli.EXIT_DIMENSION
    assert out == ""
    assert str(samples) in err and str(verify.MAX_SAMPLES) in err


def test_coherence_oversized_assist_exit_code(tmp_path, capsys):
    path = _write_state(tmp_path, "d3.json", states.random_density(3, np.random.default_rng(3)))
    samples = coherence.MAX_ASSIST_SAMPLES + 1
    code, out, err = _run(capsys, ["coherence", path, "--assist", str(samples), "7"])
    assert code == cli.EXIT_DIMENSION
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(samples) in err and str(coherence.MAX_ASSIST_SAMPLES) in err


def test_sweep_qubit_oversized_steps_exit_code(capsys):
    steps = sweeps.MAX_QUBIT_STEPS + 1
    code, out, err = _run(capsys, ["sweep-qubit", "--steps", str(steps)])
    assert code == cli.EXIT_DIMENSION
    assert out == ""
    assert str(steps) in err and str(sweeps.MAX_QUBIT_STEPS) in err


def test_console_entry_point_matches_main():
    assert cli.build_parser().prog == "permutwirl"
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])


def test_sweep_bell_oversized_grid_exit_code(capsys):
    grid = sweeps.MAX_BELL_GRID + 1
    code, out, err = _run(capsys, ["sweep-bell", "--grid", str(grid)])
    assert code == cli.EXIT_DIMENSION
    assert out == ""
    assert f"{grid**3} lattice points" in err


@pytest.mark.parametrize(
    "dims, side, message",
    [
        ([2], "none", "error: twirl output holds a value that is not finite\n"),
        ([1, 2], "both", "error: twirl output holds a value that is not finite\n"),
        ([1, 2], "A", "error: result is not finite: "),
    ],
    ids=["whole-system", "both-sides", "side-A-summary"],
)
def test_twirl_overflow_prints_only_the_error_line(tmp_path, capsys, dims, side, message):
    # numpy's overflow warnings must not reach stderr ahead of the error
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": dims, "matrix": [[1e308, 0.0]] * 4}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["twirl", str(path), "--raw", "--side", side])
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_verify_names_do_not_depend_on_how_checks_end(capsys, monkeypatch):
    # every check raises: each is reported failed under the names it
    # reports when it passes, in the same order
    import permutwirl.linalg as linalg_module
    import permutwirl.twirl as twirl_module

    passed_run = verify.run_suite(dmax=2, samples=2, seed=1)
    passing = [r.name for r in passed_run]

    def broken(*args, **kwargs):
        raise ValueError("injected fault")

    for name in ("as_complex_matrix", "max_abs_diff"):
        monkeypatch.setattr(linalg_module, name, broken)
    for name in ("twirl_one_sided", "twirl_params"):
        monkeypatch.setattr(twirl_module, name, broken)
    results = verify.run_suite(dmax=2, samples=2, seed=1)
    assert [r.name for r in results] == passing
    assert [r.tol for r in results] == [r.tol for r in passed_run]
    assert all(np.isnan(r.max_residual) and not r.passed for r in results)

    code, out, _ = _run(capsys, ["verify", "--dmax", "2", "--samples", "2", "--seed", "1"])
    assert code == cli.EXIT_VERIFY_FAILED
    assert [c["name"] for c in json.loads(out)["checks"]] == passing


@pytest.mark.parametrize(
    "argv, message",
    [
        (["twirl", "x", "--side", "Q"], "argument --side: invalid choice: 'Q'"),
        (["verify", "--dmax", "1e3"], "argument --dmax: invalid int value: '1e3'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["twirl-side-Q", "verify-dmax-1e3", "bare"],
)
def test_usage_error_is_one_line_and_exit_1(capsys, argv, message):
    # exit 2 stays the dimension guard's; a usage error is a parse error
    with pytest.raises(SystemExit) as caught:
        cli.main(argv)
    captured = capsys.readouterr()
    assert caught.value.code == cli.EXIT_INVALID
    assert captured.out == ""
    assert captured.err.startswith("error: " + message) and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        cli.main(argv)
    captured = capsys.readouterr()
    assert caught.value.code == 0
    assert captured.out.startswith("usage: permutwirl") and captured.err == ""


# ------------------------------------------------------------ the CLI contract
#
# Every argv ends in one exit code, 0 to 3 (SystemExit 0 for --help, 1 for a
# usage error), with stderr empty or one `error:` or `verification failed:`
# line, and no exception escaping.  The argv are drawn from a grammar over
# the five commands with odd values; the state files include the extremes of
# depth and digit count.

_HUGE = "1" + "0" * 30
# the state-file size limit while the contract runs: above every document
# below but over-cap.json, so that no run reads a file of the real limit
_CONTRACT_LIMIT = 1 << 18
_CONTRACT_DOCS = {
    "d2.json": json.dumps(
        {"dims": [2], "matrix": [[0.5, 0], [0.25, -0.125], [0.25, 0.125], [0.5, 0]], "label": "é"}
    ).encode(),
    "d2x2.json": json.dumps(
        {"dims": [2, 2], "matrix": [[0.25 * (i % 5 == 0), 0] for i in range(16)]}
    ).encode(),
    "deep.json": b'{"dims": [1], "matrix": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    "dims-6x401.json": b'{"dims": [' + b", ".join([b"1" + b"0" * 400] * 6) + b'], "matrix": [[1, 0]]}',
    "dims-5001.json": b'{"dims": [1' + b"0" * 5000 + b'], "matrix": [[1, 0]]}',
    "entry-5001.json": b'{"dims": [1], "matrix": [[1' + b"0" * 5000 + b", 0]]}",
    "lone-cr.json": b'{"dims": [1],\r"matrix": [[1, 0]],\r"x": ]}',
    "latin-1.json": b'{"dims": [1], "matrix": [[1, 0]], "label": "\xe9"}',
    # finite entries whose trace, or whose Hermitian part, overflows
    "near-limit-diag.json": b'{"dims": [2], "matrix": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}',
    "near-limit-off.json": b'{"dims": [2], "matrix": [[0.5, 0], [1e308, 0], [1e308, 0], [0.5, 0]]}',
    "over-cap.json": b'{"dims": [1], "matrix": [[1, 0]]}' + b" " * _CONTRACT_LIMIT,
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("contract")
    for name, data in _CONTRACT_DOCS.items():
        (where / name).write_bytes(data)
    return where


def _odd(*usual):
    return st.sampled_from(usual) | st.sampled_from(["0", "-1", "2.5", "nan", "inf", _HUGE])


@st.composite
def _contract_argv(draw, where):
    """(argv, the bytes on stdin): each flag present or not, its value usual or odd."""

    def flag(name, values):
        return [name, draw(values)] if draw(st.booleans()) else []

    files = st.sampled_from([*(str(where / name) for name in _CONTRACT_DOCS), str(where / "missing.json")])
    files |= st.just("-")
    outs = st.sampled_from([str(where / "out.dat"), "-", str(where / "missing" / "out.dat")])
    command = draw(st.sampled_from(["twirl", "coherence", "sweep-qubit", "sweep-bell", "verify"]))
    if command == "twirl":
        argv = [command, draw(files), *flag("--side", st.sampled_from(["A", "B", "both", "none", "Q"]))]
        argv += flag("--method", st.sampled_from(["closed", "brute", "x"])) + flag("--out", outs)
        argv += ["--raw"] * draw(st.booleans())
    elif command == "coherence":
        argv = [command, draw(files), *flag("--measure", st.sampled_from(["l1", "relent", "both", "x"]))]
        if draw(st.booleans()):
            argv += ["--assist", draw(_odd("3", "40")), draw(_odd("7"))]
        argv += ["--bits"] * draw(st.booleans())
    elif command == "sweep-qubit":
        argv = [command, *flag("--r2", _odd("0.1", "0.9")), *flag("--r3", _odd("0.1", "-0.2"))]
        argv += flag("--steps", _odd("1", "7")) + flag("--out", outs)
    elif command == "sweep-bell":
        argv = [command, *flag("--grid", _odd("2", "3")), *flag("--out", outs)]
    else:  # verify's defaults take a tenth of a second, so both counts are drawn
        argv = [command, "--dmax", draw(_odd("2", "3")), "--samples", draw(_odd("1", "2"))]
        argv += flag("--seed", _odd("5"))
    if draw(st.integers(0, 9)) == 5:
        argv.insert(draw(st.integers(0, len(argv))), "--help")
    return argv, _CONTRACT_DOCS[draw(st.sampled_from(sorted(_CONTRACT_DOCS)))]


def _main_with_streams(argv, stdin_bytes, closed=None):
    """cli.main's outcome, stdout and stderr, with stdin a text wrapper over
    the bytes that declares latin-1, and ``sys.stdin`` or ``sys.stdout``
    None where ``closed`` names it, as in a process that began without it."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes), encoding="latin-1", newline="\n")
    sys.stdout, sys.stderr = out, err
    if closed is not None:
        setattr(sys, closed, None)
    try:
        outcome = cli.main(argv)
    except SystemExit as exc:
        outcome = ("SystemExit", exc.code)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return outcome, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_contract(contract_dir, data):
    argv, stdin_bytes = data.draw(_contract_argv(contract_dir), label="argv, stdin")
    closed = data.draw(st.sampled_from([None, None, None, "stdin", "stdout"]), label="closed")
    with mock.patch.object(statefile, "MAX_STATE_FILE_BYTES", _CONTRACT_LIMIT):
        outcome, _, err = _main_with_streams(argv, stdin_bytes, closed)
    if outcome == ("SystemExit", 0):
        assert "--help" in argv and err == ""
        return
    want = {
        ("SystemExit", cli.EXIT_INVALID): "error: ",
        cli.EXIT_OK: "",
        cli.EXIT_INVALID: "error: ",
        cli.EXIT_DIMENSION: "error: ",
        cli.EXIT_VERIFY_FAILED: "verification failed: ",
    }
    assert outcome in want, outcome
    if want[outcome]:
        assert err.startswith(want[outcome]) and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""


@pytest.mark.parametrize(
    "closed, argv",
    [
        ("stdin", ["twirl", "-"]),
        ("stdin", ["coherence", "-", "--assist", "3", "7"]),
        ("stdout", ["twirl", "d2.json"]),
        ("stdout", ["twirl", "d2.json", "--out", "-"]),
        ("stdout", ["coherence", "d2.json"]),
        ("stdout", ["sweep-bell", "--grid", "2"]),
        ("stdout", ["sweep-qubit", "--out", "-"]),
        ("stdout", ["verify", "--dmax", "2", "--samples", "1"]),
        ("stdout", ["--help"]),
    ],
)
def test_a_closed_stream_is_one_line_naming_it(contract_dir, monkeypatch, closed, argv):
    monkeypatch.chdir(contract_dir)
    outcome, out, err = _main_with_streams(argv, _CONTRACT_DOCS["d2.json"], closed)
    direction = "input" if closed == "stdin" else "output"
    assert (outcome, out, err) == (cli.EXIT_INVALID, "", f"error: standard {direction} is closed\n")


@pytest.mark.parametrize("source", ["path", "-"])
@pytest.mark.parametrize("command", ["twirl", "coherence"])
def test_a_state_file_over_the_size_limit_exits_2(contract_dir, monkeypatch, command, source):
    monkeypatch.setattr(statefile, "MAX_STATE_FILE_BYTES", _CONTRACT_LIMIT)
    path = str(contract_dir / "over-cap.json")
    argv = [command, path if source == "path" else "-"]
    outcome = _main_with_streams(argv, _CONTRACT_DOCS["over-cap.json"])
    assert outcome == (
        cli.EXIT_DIMENSION, "", f"error: state file exceeds the limit of {_CONTRACT_LIMIT} bytes\n"
    )


@pytest.mark.parametrize(
    "name, message",
    [
        ("near-limit-diag.json", "error: trace is inf+0j, expected 1 within 1e-10\n"),
        ("near-limit-off.json", "error: min eigenvalue nan below -1e-10\n"),
    ],
    ids=["trace", "hermitian-part"],
)
@pytest.mark.parametrize("command", ["twirl", "coherence"])
def test_near_limit_validation_prints_only_the_error_line(contract_dir, capsys, command, name, message):
    # numpy's overflow warnings on the way to the refusal must not reach stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _run(capsys, [command, str(contract_dir / name)])
    assert outcome == (cli.EXIT_INVALID, "", message)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
