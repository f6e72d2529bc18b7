"""Command-line interface.

Commands: ``twirl``, ``coherence``, ``sweep-qubit``, ``sweep-bell``,
``verify``.  Exit codes: 0 success, 1 validation or parse error,
2 dimension guard, 3 verification failure.  The environment variable
``PERMUTWIRL_SEED`` overrides the default seed where no ``--seed`` flag
is given.  File arguments accept '-' for stdin/stdout.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import coherence, statefile, states, sweeps, twirl, verify
from .errors import DimensionTooLargeError, PermutwirlError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DIMENSION = 2
EXIT_VERIFY_FAILED = 3

CSV_FLOAT_DIGITS = 12


def _print_json(doc) -> None:
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise PermutwirlError(f"result is not finite: {exc}") from exc
    sys.stdout.write(text + "\n")


def _json_float(value: float):
    # NaN and infinity are not JSON: a failed check's NaN reads as null
    return value if math.isfinite(value) else None


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _cmd_twirl(args) -> int:
    load = statefile.load_raw if args.raw else statefile.load_density
    loaded = load(args.input)
    mat, dims = loaded.mat, loaded.dims
    side = args.side
    if side != "none" and len(dims) != 2:
        raise PermutwirlError(
            f"--side {side} needs a bipartite state file, got dims {list(dims)}"
        )

    brute = args.method == "brute"
    # Finite entries near the float limit can overflow in the sums.  The
    # check below refuses such a result, so numpy's warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        if side == "none":
            out = twirl.twirl_bruteforce(mat) if brute else twirl.twirl_closed_form(mat)
            if args.raw:
                summary_doc = {"dims": list(dims), "raw": True}
            else:
                summary = twirl.twirl_params(states.DensityMatrix(mat, (mat.shape[0],)))
                summary_doc = {
                    "dim": summary.dim,
                    "off_diag": summary.off_diag,
                    "weight": summary.weight,
                }
        else:
            # the coefficients of every bipartite summary are the two-sided
            # twirl's; the output is the kernel or oracle that --side and
            # --method name
            out, coeffs = twirl.twirl_two_sided(mat, dims)
            if side != "both":
                one_sided = twirl.twirl_one_sided_bruteforce if brute else twirl.twirl_one_sided
                out = one_sided(mat, dims, side)
            elif brute:
                out = twirl.twirl_two_sided_bruteforce(mat, dims)
            summary_doc = _coeff_doc(coeffs)

    # Check the matrix here and the summary in _print_json, before any
    # output.
    if not np.isfinite(out).all():
        raise PermutwirlError("twirl output holds a value that is not finite")
    _print_json(summary_doc)
    if args.out is not None:
        statefile.save_state(args.out, out, dims, label=loaded.label)
    return EXIT_OK


def _coeff_doc(coeffs: twirl.BipartiteTwirlCoefficients) -> dict:
    return {
        "dims": list(coeffs.dims),
        "c0": _complex_pair(coeffs.c0),
        "c1": _complex_pair(coeffs.c1),
        "c2": _complex_pair(coeffs.c2),
        "c3": _complex_pair(coeffs.c3),
        "overlap_a": _complex_pair(coeffs.overlap_a),
        "overlap_b": _complex_pair(coeffs.overlap_b),
        "overlap_ab": _complex_pair(coeffs.overlap_ab),
    }


def _cmd_coherence(args) -> int:
    loaded = statefile.load_density(args.input)
    if len(loaded.dims) != 1:
        raise PermutwirlError(
            f"coherence needs a monopartite state, got dims {list(loaded.dims)}"
        )
    rho = states.DensityMatrix(loaded.mat, loaded.dims)
    measures = (
        list(coherence.MEASURES) if args.measure == "both" else [args.measure]
    )
    scale = 1.0 / math.log(2.0) if args.bits else 1.0

    def _convert(measure: str, value: float) -> float:
        return value * scale if measure == coherence.MEASURE_REL_ENT else value

    doc = {"dim": rho.d, "units": "bits" if args.bits else "nats", "reports": {}}
    for measure in measures:
        report = coherence.coherence_report(rho, measure)
        doc["reports"][measure] = {
            "value": _convert(measure, report.value),
            "lower_bound": _convert(measure, report.lower_bound),
            "gap": _convert(measure, report.gap),
        }
    if args.assist is not None:
        samples, seed = args.assist
        star = twirl.reconstruct_output_state(twirl.twirl_params(rho))
        doc["assist"] = {"samples": samples, "seed": seed, "estimates": {}}
        for measure in measures:
            est = coherence.assistance_estimate(rho, measure, samples, seed)
            est_star = coherence.assistance_estimate(star, measure, samples, seed)
            doc["assist"]["estimates"][measure] = {
                "rho": _convert(measure, est.value),
                "rho_star": _convert(measure, est_star.value),
            }
    _print_json(doc)
    return EXIT_OK


def _write_csv(target: str, header, rows) -> None:
    def _fmt(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{value:.{CSV_FLOAT_DIGITS}g}"

    def _emit(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if target == "-":
        _emit(sys.stdout)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _emit(fh)


def _cmd_sweep_qubit(args) -> int:
    rows = sweeps.qubit_sweep_rows(args.r2, args.r3, args.steps)
    # one row list at a time, not a list of every row
    _write_csv(args.out, sweeps.QUBIT_SWEEP_COLUMNS, map(np.ndarray.tolist, rows))
    return EXIT_OK


def _cmd_sweep_bell(args) -> int:
    rows = sweeps.bell_sweep_rows(args.grid)
    _write_csv(args.out, sweeps.BELL_SWEEP_COLUMNS, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("PERMUTWIRL_SEED", str(verify.DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError as exc:
            raise PermutwirlError(f"PERMUTWIRL_SEED must be an integer, got {env!r}") from exc
    results = verify.run_suite(dmax=args.dmax, samples=args.samples, seed=seed)
    doc = {
        "dmax": args.dmax,
        "samples": args.samples,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "max_residual": _json_float(r.max_residual),
                "tol": _json_float(r.tol),
                "passed": r.passed,
            }
            for r in results
        ],
    }
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    if not doc["passed"]:
        first = next(r.name for r in results if not r.passed)
        sys.stderr.write(f"verification failed: {first}\n")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutwirl",
        description="Permutation-twirl channel numerics: apply the channel, "
        "bound coherence, sweep figures, and self-verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_twirl = sub.add_parser("twirl", help="apply the twirl channel to a state file")
    p_twirl.add_argument("input", help="state file path or '-' for stdin")
    p_twirl.add_argument(
        "--side",
        choices=("A", "B", "both", "none"),
        default="none",
        help="bipartite side(s) to twirl; 'none' twirls the whole system",
    )
    p_twirl.add_argument("--method", choices=("closed", "brute"), default="closed")
    p_twirl.add_argument("--out", default=None, help="output state file or '-'")
    p_twirl.add_argument(
        "--raw", action="store_true", help="operator mode: skip density validation"
    )
    p_twirl.set_defaults(func=_cmd_twirl)

    p_coh = sub.add_parser("coherence", help="coherence measures and twirl bounds")
    p_coh.add_argument("input", help="state file path or '-' for stdin")
    p_coh.add_argument(
        "--measure", choices=("l1", "relent", "both"), default="both"
    )
    p_coh.add_argument(
        "--assist",
        nargs=2,
        type=int,
        metavar=("SAMPLES", "SEED"),
        default=None,
        help="also estimate coherence of assistance for the state and its twirl",
    )
    p_coh.add_argument(
        "--bits", action="store_true", help="report entropic values in bits"
    )
    p_coh.set_defaults(func=_cmd_coherence)

    p_sq = sub.add_parser("sweep-qubit", help="CSV sweep of qubit coherence vs r1")
    p_sq.add_argument("--r2", type=float, default=0.1)
    p_sq.add_argument("--r3", type=float, default=0.1)
    p_sq.add_argument("--steps", type=int, default=200)
    p_sq.add_argument("--out", default="-", help="CSV path or '-' for stdout")
    p_sq.set_defaults(func=_cmd_sweep_qubit)

    p_sb = sub.add_parser(
        "sweep-bell", help="CSV sweep over the correlation-triple tetrahedron"
    )
    p_sb.add_argument("--grid", type=int, default=21)
    p_sb.add_argument("--out", default="-", help="CSV path or '-' for stdout")
    p_sb.set_defaults(func=_cmd_sweep_bell)

    p_ver = sub.add_parser("verify", help="run the full self-check suite")
    p_ver.add_argument("--dmax", type=int, default=verify.DEFAULT_DMAX)
    p_ver.add_argument("--samples", type=int, default=verify.DEFAULT_SAMPLES)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionTooLargeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIMENSION
    except (PermutwirlError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
