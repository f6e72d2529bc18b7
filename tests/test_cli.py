import csv
import io
import itertools
import json
import warnings

import numpy as np
import pytest

from permutwirl import cli, linalg, statefile, states, sweeps, verify


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


def test_twirl_raw_mode_accepts_operators(tmp_path, capsys):
    path = str(tmp_path / "sigma3.json")
    statefile.save_state(path, states.SIGMA_3, (2,))
    out_path = str(tmp_path / "out.json")
    code, out, _ = _run(capsys, ["twirl", path, "--raw", "--out", out_path])
    assert code == 0
    assert json.loads(out)["raw"] is True
    result = statefile.load_raw(out_path)
    np.testing.assert_allclose(result.mat, np.zeros((2, 2)), atol=1e-15)


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
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert cli.main(["sweep-qubit", "--steps", "20", "--out", a]) == 0
    assert cli.main(["sweep-qubit", "--steps", "20", "--out", b]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


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


def test_verify_rejects_malformed_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTWIRL_SEED", "not-a-number")
    code, _, err = _run(capsys, ["verify", "--dmax", "2", "--samples", "2"])
    assert code == cli.EXIT_INVALID
    assert "PERMUTWIRL_SEED" in err


def test_verify_rejects_bad_flags(capsys):
    code, _, err = _run(capsys, ["verify", "--dmax", "12"])
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

    original = linalg_module.hermitian_eigen

    def shifted_on_stacks(a, *args, **kwargs):
        w, v = original(a, *args, **kwargs)
        return (w - 1.0, v) if np.ndim(a) == 3 else (w, v)

    monkeypatch.setattr(linalg_module, "hermitian_eigen", shifted_on_stacks)
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


def test_verify_keeps_a_nan_residual_that_is_not_first(monkeypatch):
    # the closed form turns NaN on its 3rd call only: the worst residual of
    # its check must stay NaN after the finite residuals before it
    import permutwirl.twirl as twirl_module

    original = twirl_module.twirl_closed_form
    calls = itertools.count(1)

    def nan_on_third_call(x):
        out = original(x)
        return np.full_like(out, np.nan) if next(calls) == 3 else out

    monkeypatch.setattr(twirl_module, "twirl_closed_form", nan_on_third_call)
    results = {r.name: r for r in verify.run_suite(dmax=2, samples=2, seed=1)}
    closed = results["closed_form_matches_bruteforce"]
    assert np.isnan(closed.max_residual)
    assert closed.passed is False


def test_verify_oversized_samples_exit_code(capsys):
    samples = verify.MAX_SAMPLES + 1
    code, out, err = _run(capsys, ["verify", "--dmax", "2", "--samples", str(samples)])
    assert code == cli.EXIT_DIMENSION
    assert out == ""
    assert str(samples) in err and str(verify.MAX_SAMPLES) in err


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
