"""Self-tests of the benchmark: output checks, seeded inputs, tracer hygiene.

Run from the root of a checkout with either of::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
    python3 -m pytest perfbench
"""

import hashlib
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import permutwirl  # noqa: E402
import permutwirl.cli  # noqa: E402,F401
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


class WorkdirCase(unittest.TestCase):
    def setUp(self):
        (HERE / "results").mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=HERE / "results")

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def installed(self, cls, seed=3):
        w = cls(permutwirl)
        w.install(w.generate(seed), self.workdir, seed)
        return w


class ChecksRejectCorruptedOutput(WorkdirCase):
    def test_cli_twirl_io(self):
        w = self.installed(workloads.CliTwirlIo)
        result = w.op()
        w.check(result)

        doc = json.loads(result.stdout)
        doc["c1"][0] += 1e-6
        bad = workloads.OpResult(result.codes, json.dumps(doc) + "\n")
        with self.assertRaises(CheckFailed):
            w.check(bad)

        with open(w.out_path, encoding="utf-8") as fh:
            state = json.load(fh)
        state["matrix"][17][1] += 1e-6
        with open(w.out_path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        with self.assertRaises(CheckFailed):
            w.check(result)

    def test_lib_kernels(self):
        w = self.installed(workloads.LibKernels)
        result = w.op()
        w.check(result)
        for k in range(len(result.arrays)):
            arrays = list(result.arrays)
            if isinstance(arrays[k], tuple):
                out, coeffs = arrays[k]
                arrays[k] = (out.copy(), coeffs)
                arrays[k][0][5, 9] += 1e-6
            else:
                arrays[k] = arrays[k].copy()
                arrays[k][5, 9] += 1e-6
            with self.subTest(output=k), self.assertRaises(CheckFailed):
                w.check(workloads.OpResult([0], arrays=arrays))

    def test_cli_assist(self):
        w = self.installed(workloads.CliAssist)
        result = w.op()
        w.check(result)
        w.check(w.op())  # a second op is bit-identical

        first, second = result.stdout.splitlines()
        doc = json.loads(first)
        doc["assist"]["estimates"]["l1"]["rho"] = 2.5  # above d - 1 = 2
        with self.assertRaises(CheckFailed):
            w.check(workloads.OpResult([0, 0], json.dumps(doc) + "\n" + second + "\n"))

        doc = json.loads(second)
        doc["reports"]["relent"]["value"] = float("nan")
        with self.assertRaises(CheckFailed):
            w.check(workloads.OpResult([0, 0], first + "\n" + json.dumps(doc) + "\n"))

        doc = json.loads(first)
        doc["reports"]["l1"]["value"] = np.nextafter(doc["reports"]["l1"]["value"], 0.0)
        with self.assertRaises(CheckFailed):
            w.check(workloads.OpResult([0, 0], json.dumps(doc) + "\n" + second + "\n"))

    def test_cli_verify(self):
        w = self.installed(workloads.CliVerify)
        w.argv = ["verify", "--dmax", "3", "--samples", "3", "--seed", "3"]
        result = w.op()
        w.check(result)

        doc = json.loads(result.stdout)
        doc["passed"] = False
        with self.assertRaises(CheckFailed):
            w.check(workloads.OpResult([0], json.dumps(doc)))
        with self.assertRaises(CheckFailed):
            w.check(workloads.OpResult([3], result.stdout))


class FailedOps(WorkdirCase):
    def test_any_exception_of_the_op_or_the_check_is_a_failed_op(self):
        w = self.installed(workloads.CliTwirlIo)
        result = w.op()
        Path(w.out_path).unlink()  # the check's read raises FileNotFoundError
        log = workloads.Log()
        log.check(w, result)
        log.check(w, RuntimeError("op crashed"))
        self.assertEqual((log.attempted, log.failed), (2, 2))
        self.assertTrue(log.messages[0].startswith("FileNotFoundError"))


class Tail(unittest.TestCase):
    def test_level_is_ten_beyond_but_at_least_p90(self):
        for n in (1, 15, 99, 100, 101, 1000):
            self.assertEqual(run.tail([float(k) for k in range(n)])["percentile"], 100.0 * max(0.9, 1.0 - 10 / n))
        self.assertEqual(run.tail([float(k) for k in range(1000)])["value"], 989.01)

    def test_one_more_op_moves_the_tail_by_less_than_one_spacing(self):
        for n in (20, 99, 100, 150):
            self.assertLess(abs(run.tail(list(map(float, range(n + 1))))["value"]
                                - run.tail(list(map(float, range(n))))["value"]), 1.0)


class RelativeTimes(WorkdirCase):
    def test_each_op_is_divided_by_the_mean_of_the_references_around_it(self):
        self.assertEqual(run.relative([1.0, 3.0], [0.5, 1.5, 1.5]), [1.0, 2.0])

    def test_reference_task_never_calls_the_package(self):
        reference = workloads.Reference(self.workdir)
        tracer = spans.Tracer()
        with tracer.active():
            self.assertGreater(reference(), 0.0)
        self.assertEqual(len(tracer.funcs), 0)

    def test_reference_input_is_the_same_in_every_run(self):
        first = Path(workloads.Reference(self.workdir).path).read_bytes()
        second = Path(workloads.Reference(tempfile.mkdtemp(dir=self.workdir)).path).read_bytes()
        self.assertEqual(first, second)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for cls in (workloads.CliTwirlIo, workloads.LibKernels, workloads.CliAssist):
            w = cls(permutwirl)
            with self.subTest(workload=cls.name):
                # Digests, so that a failure does not diff megabytes of input.
                first, again, other = (
                    {k: hashlib.sha256(v).hexdigest() for k, v in w.generate(seed).items()}
                    for seed in (11, 11, 12)
                )
                self.assertTrue(first)
                self.assertEqual(first, again)
                self.assertEqual(first.keys(), other.keys())
                for name in first:
                    self.assertNotEqual(first[name], other[name])

    def test_verify_passes_the_seed_to_the_program(self):
        w = workloads.CliVerify(permutwirl)
        w.install(w.generate(11), "", 11)
        self.assertEqual(w.argv[-2:], ["--seed", "11"])


class TracerHygiene(unittest.TestCase):
    def snapshot(self, tracer):
        return {
            (layer, name): fn
            for layer, module in tracer.modules.items()
            for name, fn in vars(module).items()
            if callable(fn)
        }

    def test_wrapping_is_undone(self):
        tracer = spans.Tracer()
        before = self.snapshot(tracer)
        x = np.eye(6, dtype=complex)
        with tracer.active():
            self.assertIsNot(permutwirl.twirl.twirl_two_sided, before[("twirl", "twirl_two_sided")])
            permutwirl.twirl.twirl_two_sided(x, (2, 3))
        recorded = len(tracer.funcs)
        self.assertGreater(recorded, 0)
        self.assertEqual(self.snapshot(tracer), before)
        for (layer, name), fn in before.items():
            self.assertIs(getattr(tracer.modules[layer], name), fn)

        permutwirl.twirl.twirl_two_sided(x, (2, 3))
        self.assertEqual(len(tracer.funcs), recorded, "untraced call recorded a span")

    def test_wrapping_is_undone_after_an_error(self):
        tracer = spans.Tracer()
        before = self.snapshot(tracer)
        with self.assertRaises(permutwirl.errors.DimMismatchError):
            with tracer.active():
                permutwirl.twirl.twirl_two_sided(np.eye(6), (2, 2))
        self.assertEqual(self.snapshot(tracer), before)
        self.assertEqual(tracer.stack, [])

    def test_self_times_add_up_to_the_root_spans(self):
        tracer = spans.Tracer()
        rng = np.random.default_rng(0)
        with tracer.active():
            for _ in range(3):
                tracer.begin_op()
                permutwirl.twirl.twirl_two_sided(workloads.random_hermitian(rng, 12), (3, 4))
        funcs, dur, self_t = tracer.arrays()
        roots = np.asarray(tracer.parents) < 0
        self.assertEqual(int(roots.sum()), 3)
        self.assertTrue(np.all(self_t >= 0))
        self.assertAlmostEqual(float(self_t.sum()), float(dur[roots].sum()), places=9)
        metrics = tracer.metrics(3, 0.1, 0.0)
        self.assertEqual(list(metrics), list(spans.PER_LAYER))
        self.assertEqual(metrics["twirl.calls"], len([f for f in funcs if tracer.names[f].startswith("twirl.")]) / 3)
        self.assertEqual(metrics["trace.spans"], len(funcs) / 3)
        self.assertEqual(len(tracer.op_spans(2)), len(funcs) / 3)


if __name__ == "__main__":
    unittest.main()
