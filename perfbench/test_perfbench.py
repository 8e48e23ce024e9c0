"""Self-tests of the benchmark, on tiny configurations that finish in seconds.

Run from the repository root:  python3 -m unittest discover -s perfbench -v
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY_COEFFS = run.Workload(
    (("coeffs", "--radius", "1"),),
    run._ids("coeffs", "m-closed-vs-brute", "n-interval-vs-brute", "m-vs-n", "parity-consistency"),
)
TINY_COEFFS_ONLY = run.Workload(
    (("coeffs", "--radius", "1"),), run._ids("coeffs", "m-closed-vs-brute", "m-vs-n"), only=True
)
TINY_CHAIN = run.Workload(
    (("chain", "--deg-u", "2", "--deg-v", "2", "--satake", "2,3,5"),),
    run._ids("chain", "local-vs-mult-m", "mult-m-vs-mult-n", "mult-n-vs-pieri", "pieri-vs-lfactor",
             "normalization", "specialization-pt0", "lfactor-closed"),
)

# A child that returns a wrong value from a traced function, then runs as usual.
WRONG_N_BRUTE = (
    "import sys\n"
    "sys.path.insert(0, %r)\n"
    "import rslocal.coeffs as coeffs\n"
    "real = coeffs.n_brute\n"
    "coeffs.n_brute = lambda *a, **k: real(*a, **k) + 1\n"
    "import child\n"
    "sys.exit(child.main(sys.argv[1:]))\n" % str(HERE)
)


def bench(workload, trace, out_dir, child_cmd=run.CHILD, seed=0):
    """Run the benchmark's main on one tiny workload; return (exit code, result, lines)."""
    buf = io.StringIO()
    argv = ["--workload", "tiny", "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, {"tiny": workload}, child_cmd, Path(out_dir))
    lines = buf.getvalue().splitlines()
    return code, json.loads(lines[-1]), lines


def report(check_ids, status="pass"):
    doc = {
        "version": 1,
        "config": {"suite": "x"},
        "checks": [
            {"id": cid, "params": {}, "status": status, "elapsed_ms": 3} for cid in check_ids
        ],
    }
    return json.dumps(doc) + "\n"


class SelfTime(unittest.TestCase):
    def test_nested_call(self):
        # origin, outer starts, inner starts, inner ends, outer ends
        ticks = iter([0, 0, 10, 40, 100])
        tracer = Tracer(clock=lambda: next(ticks, 0))
        inner = tracer.wrap("t.inner", lambda: 1)
        outer = tracer.wrap("t.outer", lambda: inner() + 1)
        self.assertEqual(outer(), 2)
        got = {n: (s.calls, s.self_ns, s.total_ns) for n, s in tracer.stats.items()}
        self.assertEqual(got, {"t.outer": (1, 70, 100), "t.inner": (1, 30, 30)})
        exported = tracer.export_spans()
        names, spans = exported["names"], exported["spans"]
        self.assertEqual([names[s[0]] for s in spans], ["t.outer", "t.inner"])
        self.assertEqual([s[3] for s in spans], [-1, 0])

    def test_recursion_counts_total_once(self):
        ticks = iter([0, 0, 5, 15, 20])
        tracer = Tracer(clock=lambda: next(ticks, 0))
        def fact(n):
            return 1 if n <= 1 else n * wrapped(n - 1)

        wrapped = tracer.wrap("t.fact", fact)
        self.assertEqual(wrapped(2), 2)
        st = tracer.stats["t.fact"]
        self.assertEqual((st.calls, st.self_ns, st.total_ns), (2, 20, 20))


class Scaling(unittest.TestCase):
    def test_at_reference(self):
        slow = [2 * run.PROBE_REF_S, 4 * run.PROBE_REF_S]  # the CPU ran at a third of its speed
        self.assertAlmostEqual(run.at_reference(6.0, slow), 2.0)
        self.assertEqual(run.at_reference(6.0, []), 6.0)  # no probe: the wall time


class Wrapping(unittest.TestCase):
    def test_every_binding_is_wrapped(self):
        code = (
            "import rslocal, rslocal.characters as c, rslocal.series as s\n"
            "from tracer import Tracer\n"
            "real = c.product_char\n"
            "Tracer().install()\n"
            "assert c.product_char.__wrapped__ is real and s.product_char is c.product_char\n"
            "assert s.tensor_decompose is c.tensor_decompose is rslocal.tensor_decompose\n"
            "assert c.tensor_decompose.__wrapped__\n"
            "for method in (c.LaurentPoly.evaluate, c.LaurentPoly.__mul__, s.BiSeries.__mul__):\n"
            "    assert method.__wrapped__\n"
        )
        env = dict(run.child_env(), PYTHONPATH="%s:%s" % (run.SRC, HERE))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class Grading(unittest.TestCase):
    ids = ("s/a", "s/b", "s/c")

    def test_all_pass(self):
        checks, failed = run.grade(self.ids, report(self.ids), 1, [0])
        self.assertEqual(failed, {})
        self.assertEqual(set(checks), set(self.ids))

    def test_dropped_expected_id_fails(self):
        _, failed = run.grade(self.ids, report(self.ids[:2]), 1, [1])
        self.assertEqual(failed, {"s/c": "missing from the report"})

    def test_bad_exit_without_failed_check_fails_all(self):
        _, failed = run.grade(self.ids, report(self.ids), 1, [1])
        self.assertEqual(set(failed), set(self.ids))

    def test_digest_ignores_timing_only(self):
        def digests(text):
            checks, _ = run.grade(self.ids, text, 1, [0])
            return {cid: c["digest"] for cid, c in checks.items()}

        base = digests(report(self.ids))
        retimed = report(self.ids).replace('"elapsed_ms": 3', '"elapsed_ms": 9')
        changed = report(self.ids).replace('"params": {}', '"params": {"n": 1}')
        self.assertEqual(digests(retimed), base)
        changed_checks, _ = run.grade(self.ids, changed, 1, [0])
        self.assertEqual(set(run.compare(self.ids, changed_checks, base)), set(self.ids))


class EndToEnd(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.OUT)

    def tearDown(self):
        self.tmp.cleanup()

    def test_passing_run(self):
        code, result, _ = bench(TINY_COEFFS, 0, self.tmp.name)
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(set(result["metrics"]), {n for n, _, _ in run.END_TO_END})

    def test_wrong_value_fails_the_run(self):
        wrong = (sys.executable, "-c", WRONG_N_BRUTE)
        code, result, lines = bench(TINY_COEFFS, 0, self.tmp.name, wrong)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        failed = [line for line in lines if line.startswith("FAILED")]
        self.assertTrue(any("n-interval-vs-brute" in line for line in failed))

    def test_only_runs_the_expected_checks(self):
        code, result, _ = bench(TINY_COEFFS_ONLY, 0, self.tmp.name)
        self.assertEqual((code, result["correct"]), (0, True))
        argvs = [list(TINY_COEFFS_ONLY.argvs[0]) + ["--format", "json"]]
        job = {"argvs": argvs, "mode": "run", "trace": False, "only": run.only(TINY_COEFFS_ONLY)}
        got = run.spawn(job, run.CHILD, run.time.monotonic() + 60, Path(self.tmp.name))
        checks, failed = run.grade(TINY_COEFFS_ONLY.expected, got.stdout, 1, got.record["codes"])
        self.assertEqual((set(checks), failed), (set(TINY_COEFFS_ONLY.expected), {}))
        self.assertTrue(got.probes)  # the child's CPU was probed while it ran
        self.assertGreater(got.record["peak_kb"], 0)

    def test_traced_runs_repeat(self):
        runs = [bench(TINY_CHAIN, 1, self.tmp.name) for _ in range(2)]
        for code, result, _ in runs:
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {n for n, _, _ in run.PER_LAYER})
        counts = [
            {n: m["value"] for n, m in result["metrics"].items() if n.endswith(".calls")}
            for _, result, _ in runs
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["series.character_value.calls"], 0)
        self.assertGreater(counts[0]["characters.product_char.calls"], 0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        for key, want in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            got = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
            self.assertEqual(got, list(want))

    def test_workloads_cover_every_suite_once(self):
        suites = [argv[0] for w in run.WORKLOADS.values() for argv in w.argvs]
        every = ["characters", "pieri", "coeffs", "padic", "orbits", "chain"]
        self.assertEqual(sorted(suites), sorted(every))
        # every check of verify all but the three q = 3 orbit checks, each once
        self.assertEqual(len(run.ALL_CHECKS), 35)
        self.assertEqual(len(set(run.ALL_CHECKS)), 35)
        self.assertFalse([cid for cid in run.ALL_CHECKS if cid.endswith("-q3")])


if __name__ == "__main__":
    unittest.main()
