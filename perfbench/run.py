"""Verdict benchmark for rslocal: how long ``verify`` takes to give its verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload {orbits,chain,sweeps} --seed N --seconds S --trace {0,1}

Each verdict runs in a fresh interpreter (child.py), one at a time: a
closed loop with one client.  A run at ``--seed N`` runs ``verify`` at the
seeds k*N .. k*N+k-1 in turn (k is the workload's ``seeds``), each passed
through as ``verify``'s ``--seed``.  With ``--trace 0`` the run first
times start-up in several short-lived processes, then runs whole verdicts,
each seed once and then more while the next should end within
``--seconds``.  It reports the medians of the verdict and start-up times,
each scaled to a reference CPU speed by probes taken while it ran (see
``at_reference``), and the median peak memory.  With ``--trace 1`` it runs one
verdict with every layer wrapped by tracer.Tracer and reports the
per-layer metrics.

Every verdict is graded: a check counts as failed when it is missing from
the report, its status is not ``pass``, its process exits nonzero, or its
report (``elapsed_ms`` stripped) differs from another verdict of the same
workload, seed and source, whether untraced or traced.  Passing untraced
verdicts are remembered in ``.perfbench_out/verdicts.json`` in the checkout.  The
last line of standard output is one JSON object; the exit status is 0 only
when no check failed.  See RATIONALE.md for the choice of workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = (sys.executable, str(HERE / "child.py"))

SETUP_PROBES = 10
# A run must end within 180 s; children still running after this are killed.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    argvs: tuple  # ``verify`` argument lists, run in this order in one process
    expected: tuple  # check ids the reports must hold, each with status "pass"
    only: bool = False  # run only the expected checks and skip the suites' others
    # A run at --seed N runs ``verify`` at the seeds seeds*N + j, j < seeds, in turn.
    seeds: int = 3


def _ids(suite: str, *names: str) -> tuple:
    return tuple("%s/%s" % (suite, n) for n in names)


WORKLOADS = {
    # The q = 3 checks (about 57 s) are left out: see RATIONALE.md, Sizing.
    "orbits": Workload(
        (("orbits",),),
        _ids("orbits", "gamma5", "flag-count-q2", "orbit-split-q2", "stab5-q2", "h-order-q2",
             "orbit-predicates-q2"),
        only=True,
    ),
    "chain": Workload(
        (("chain", "--deg-u", "5", "--deg-v", "5"),),
        _ids("chain", "local-vs-mult-m", "mult-m-vs-mult-n", "mult-n-vs-pieri", "pieri-vs-lfactor",
             "normalization", "specialization-pt0", "specialization-pt1", "specialization-pt2",
             "specialization-pt3", "specialization-pt4", "lfactor-closed"),
    ),
    "sweeps": Workload(
        (("characters",), ("pieri",), ("coeffs", "--radius", "6"), ("padic", "--prime", "2")),
        _ids("characters", "dim-vs-trace", "weyl-invariance", "decompose-roundtrip",
             "sym-closed-vs-adams", "tensor-dim-conservation")
        + _ids("pieri", "rule-vs-tensor-oracle", "series-positivity")
        + _ids("coeffs", "m-closed-vs-brute", "n-interval-vs-brute", "m-vs-n", "parity-consistency")
        + _ids("padic", "max-kernel-integral", "psi-kernel-integral", "det-closed-vs-minors",
               "section-levi", "section-k-invariance", "fpsi-closed-vs-brute",
               "torus-reconstruction"),
        # peak_rss_mb follows the random supports of characters/decompose-roundtrip
        seeds=6,
    ),
}

END_TO_END = (
    ("verdict_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics, named <layer>.<function>.<kind>.
_CALLS_SELF = (
    "symplectic.enumerate_flags", "symplectic.orbit_decompose", "symplectic.stab5_check",
    "symplectic.group_closure", "symplectic.orbit_predicates", "symplectic.flag_apply",
    "symplectic.rref_q", "symplectic.mat_mul_q", "symplectic.mat_inv_q",
    "characters.LaurentPoly.evaluate", "characters.char_B2", "characters.decompose",
    "characters.LaurentPoly.__mul__",
    "series.specialize", "series.BiSeries.__mul__",
    "coeffs.m_closed", "coeffs.m_brute", "coeffs.n_interval", "coeffs.n_brute",
    "padic.mat_mul", "padic.bottom_minor_norm", "padic.det_norms_closed", "padic.fpsi_brute",
    "padic.fprime_section",
)
_CALLS = ("characters.product_char", "series.character_value", "padic.valuation")
_SELF = ("characters.pieri_tensor", "series.lfactor_closed")
_TOTAL = (
    "characters.tensor_decompose", "series.lfactor_product_series", "series.local_integral_series",
    "series.mult_series", "series.pieri_product_series", "padic.torus_term_sum",
)
# ratio name -> (function, counter); the base is the function's call count
_RATIOS = {
    "characters.product_char.built_ratio": ("characters.product_char", "distinct"),
    "series.character_value.distinct_ratio": ("series.character_value", "distinct"),
    "coeffs.n_brute.nonzero_ratio": ("coeffs.n_brute", "nonzero"),
}
ALL_CHECKS = tuple(cid for w in WORKLOADS.values() for cid in w.expected)


def check_metric(cid: str) -> str:
    return "suites.check.%s.s" % cid.replace("/", ".")


def _per_layer() -> tuple:
    out = []
    for fn in _CALLS_SELF:
        out += [(fn + ".calls", "count", "lower"), (fn + ".self_s", "s", "lower")]
    out += [(fn + ".calls", "count", "lower") for fn in _CALLS]
    out += [(fn + ".self_s", "s", "lower") for fn in _SELF]
    out += [(fn + ".total_s", "s", "lower") for fn in _TOTAL]
    out += [(name, "ratio", "higher") for name in _RATIOS]
    out += [(check_metric(cid), "s", "lower") for cid in ALL_CHECKS]
    out += [
        ("suites.cpu_s", "s", "lower"),
        ("suites.unattributed_s", "s", "lower"),
        ("suites.trace_overhead_ratio", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# Child processes.


# Each CPU of a shared virtual machine is a thread of the host.  A busy
# neighbour slows it by up to 1.8x, for milliseconds to minutes, each CPU on
# its own, so wall time alone measures the neighbour as much as the program.
# So each child is bound to the CPU that is fastest just before it starts,
# and that CPU is probed with a fixed sliver of work while the child runs.
# A wall time times PROBE_REF_S over the mean probe of its window is the
# time at the reference speed.  See RATIONALE.md, Spread.

CPUS = tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else ()
PROBE_EVERY_S = 0.025
PROBE_REF_S = 250e-6  # the probe on an idle CPU of an Intel Xeon with Python 3.11
_FRACTIONS = tuple(Fraction(3 * i + 1, 7 * i + 2) for i in range(64))


def probe_s(cpu: int | None = None) -> float:
    """Time a fixed sliver of exact arithmetic (about 0.3 ms), like the program's inner loops."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(60):
        acc += _FRACTIONS[i % 64] * _FRACTIONS[i * 7 % 64]
        seen[i % 13, i % 5] = acc
    return time.perf_counter() - start


def fastest_cpu() -> int | None:
    """The CPU that probes fastest just now; None when there is only one."""
    if len(CPUS) < 2:
        return None
    fastest = {}
    try:
        for _ in range(3):
            for cpu in CPUS:
                fastest[cpu] = min(fastest.get(cpu, math.inf), probe_s(cpu))
    finally:
        os.sched_setaffinity(0, CPUS)
    return min(fastest, key=fastest.get)


def at_reference(wall_s: float, probes: list) -> float:
    """``wall_s`` at the reference speed, given the probes taken in its window."""
    return wall_s * PROBE_REF_S / statistics.mean(probes) if probes else wall_s


def child_env() -> dict:
    """The environment of every child: no character cache, fixed hash seed."""
    env = dict(os.environ)
    env.pop("RSLOCAL_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Spawned:
    spawn: float  # time.monotonic() just before the process was started
    record: dict | None  # what child.py wrote, None if it wrote nothing
    exit_code: int
    rusage: object
    stdout: str
    cpu: int | None  # the CPU the child was bound to
    probes: list  # speed probes of that CPU while the child ran


def spawn(job: dict, child_cmd, deadline: float, out_dir: Path) -> Spawned:
    """Start one child, wait for it (killing it at the deadline), collect its output.

    The child runs on the CPU that is fastest just before it starts; this
    process waits on the others and probes the child's CPU now and then.
    """
    cpu = fastest_cpu()
    others = set(CPUS) - {cpu}
    probes = []
    tag = "%d-%d" % (os.getpid(), time.monotonic_ns())
    job = dict(job, src=str(SRC), record=str(out_dir / ("record-%s.json" % tag)))
    stdout_path = out_dir / ("stdout-%s.txt" % tag)
    with open(stdout_path, "w", encoding="utf-8") as stdout:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # the child inherits it
        start = time.monotonic()
        proc = subprocess.Popen(
            [*child_cmd, json.dumps(job)], stdout=stdout, env=child_env(), cwd=str(ROOT)
        )
        pid = 0
        try:
            while True:
                if cpu is not None:
                    os.sched_setaffinity(0, others)
                time.sleep(PROBE_EVERY_S)
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    print("child killed at the run's time limit", file=sys.stderr)
                    break
                probes.append(probe_s(cpu))
        finally:
            if not pid:  # the deadline passed, or this process is being stopped
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if cpu is not None:
                os.sched_setaffinity(0, CPUS)
    record = None
    record_path = Path(job["record"])
    if record_path.exists():
        try:
            record = json.loads(record_path.read_text(encoding="utf-8"))
        except ValueError:  # a child killed while writing it
            pass
        record_path.unlink()
    text = stdout_path.read_text(encoding="utf-8")
    stdout_path.unlink()
    return Spawned(start, record, proc.returncode, rusage, text, cpu, probes)


# ---------------------------------------------------------------------------
# Grading.


def grade(expected, stdout: str, n_reports: int, codes) -> tuple[dict, dict]:
    """Parse the JSON reports of one verdict.

    Returns (checks, failed): ``checks`` maps each reported id to its status,
    digest (of the report without ``elapsed_ms``) and ``elapsed_ms``;
    ``failed`` maps each failed expected id to the reason.
    """
    checks = {}
    docs = []
    decoder = json.JSONDecoder()
    pos = 0
    try:
        while stdout[pos:].strip():
            pos += len(stdout[pos:]) - len(stdout[pos:].lstrip())
            doc, pos = decoder.raw_decode(stdout, pos)
            docs.append(doc)
        for doc in docs:
            head = {"version": doc["version"], "config": doc["config"]}
            for check in doc["checks"]:
                body = {k: v for k, v in check.items() if k != "elapsed_ms"}
                digest = hashlib.sha256(
                    json.dumps([head, body], sort_keys=True).encode()
                ).hexdigest()
                checks[check["id"]] = {
                    "status": check["status"],
                    "digest": digest,
                    "elapsed_ms": check.get("elapsed_ms", 0),
                }
    except (ValueError, KeyError, TypeError) as exc:
        return {}, {cid: "unreadable report: %s" % exc for cid in expected}
    failed = {}
    for cid in expected:
        if cid not in checks:
            failed[cid] = "missing from the report"
        elif checks[cid]["status"] != "pass":
            failed[cid] = "status %s" % checks[cid]["status"]
    if codes is None or len(codes) != n_reports or any(codes) or len(docs) != n_reports:
        if not failed:  # a bad exit that no failed check explains fails them all
            why = "exit codes %r, %d of %d reports" % (codes, len(docs), n_reports)
            failed = {cid: why for cid in expected}
    return checks, failed


def compare(expected, checks: dict, reference: dict) -> dict:
    """Expected ids whose digest differs from a reference verdict's."""
    return {
        cid: "report differs from another verdict at this seed"
        for cid in expected
        if cid in checks and cid in reference and checks[cid]["digest"] != reference[cid]
    }


def report_sha256(checks: dict) -> str:
    text = json.dumps(sorted((cid, c["digest"]) for cid, c in checks.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Verdicts, remembered per source tree.


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rslocal").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class VerdictBook:
    """Untraced verdicts of this source tree, kept in the checkout between runs."""

    def __init__(self, out_dir: Path, workload: Workload, seed: int):
        self.path = out_dir / "verdicts.json"
        self.key = hashlib.sha256(
            json.dumps([source_digest(), workload.argvs, seed]).encode()
        ).hexdigest()

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}

    def get(self) -> dict | None:
        return self._load().get(self.key)

    def put(self, entry: dict):
        book = self._load()
        book[self.key] = entry
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


@dataclass
class Verdict:
    setup_s: float
    verdict_s: float
    peak_rss_mb: float
    cpu_s: float
    checks: dict
    failed: dict
    trace: dict | None
    run_s: float  # from the end of set-up to the last report
    cpu: int | None
    probes: list


def only(workload: Workload) -> list | None:
    return list(workload.expected) if workload.only else None


def run_verdict(workload: Workload, seed: int, trace: bool, child_cmd, deadline, out_dir,
                spans_path=None) -> Verdict:
    argvs = [list(a) + ["--format", "json", "--seed", str(seed)] for a in workload.argvs]
    job = {"argvs": argvs, "mode": "run", "trace": trace, "only": only(workload),
           "spans": str(spans_path) if spans_path else None}
    got = spawn(job, child_cmd, deadline, out_dir)
    rec = got.record or {}
    checks, failed = grade(workload.expected, got.stdout, len(argvs),
                           rec.get("codes") if got.exit_code == 0 else None)
    setup = rec.get("setup") or got.spawn
    done = rec.get("done") or time.monotonic()
    ru = got.rusage
    return Verdict(
        setup_s=setup - got.spawn,
        verdict_s=done - got.spawn,
        peak_rss_mb=(rec.get("peak_kb") or ru.ru_maxrss) / 1024.0,
        cpu_s=ru.ru_utime + ru.ru_stime,
        checks=checks,
        failed=failed,
        trace=rec.get("trace"),
        run_s=done - setup,
        cpu=got.cpu,
        probes=got.probes,
    )


def setup_probe(workload: Workload, seed: int, child_cmd, deadline,
                out_dir) -> tuple[float, list] | None:
    """Time start-up alone; return (seconds, speed probes of its window) or None."""
    argvs = [list(workload.argvs[0]) + ["--format", "json", "--seed", str(seed)]]
    job = {"argvs": argvs, "mode": "setup", "trace": False, "only": only(workload)}
    got = spawn(job, child_cmd, deadline, out_dir)
    if got.exit_code != 0 or not got.record or got.record.get("setup") is None:
        return None
    return got.record["setup"] - got.spawn, got.probes


# ---------------------------------------------------------------------------
# Metrics.


def layer_metrics(trace: dict, traced: Verdict, reference: dict) -> dict:
    fns = trace["functions"]

    def stat(fn, key):
        return fns.get(fn, {}).get(key, 0)

    values = {}
    for fn in _CALLS_SELF:
        values[fn + ".calls"] = stat(fn, "calls")
        values[fn + ".self_s"] = stat(fn, "self_s")
    for fn in _CALLS:
        values[fn + ".calls"] = stat(fn, "calls")
    for fn in _SELF:
        values[fn + ".self_s"] = stat(fn, "self_s")
    for fn in _TOTAL:
        values[fn + ".total_s"] = stat(fn, "total_s")
    for name, (fn, counter) in _RATIOS.items():
        calls = stat(fn, "calls")
        values[name] = stat(fn, counter) / calls if calls else 0.0
    for cid in ALL_CHECKS:
        values[check_metric(cid)] = reference["elapsed_ms"].get(cid, 0) / 1000.0
    values["suites.cpu_s"] = reference["cpu_s"]
    values["suites.unattributed_s"] = traced.run_s - trace["covered_s"]
    values["suites.trace_overhead_ratio"] = (
        at_reference(traced.verdict_s, traced.probes) / reference["verdict_s"]
    )
    return values


def _summary(values) -> str:
    vals = sorted(values)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return "%d; q1 %.4f, median %.4f, q3 %.4f" % (len(vals), q1, statistics.median(vals), q3)


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "python %s, nproc %d, cpu %s" % (platform.python_version(), os.cpu_count() or 0, cpu)


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# One run.


def verify_seeds(workload: Workload, seed: int) -> list:
    return [workload.seeds * seed + j for j in range(workload.seeds)]


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        child_cmd=CHILD, out_dir: Path = OUT) -> tuple[dict, list]:
    """Run one workload; return (result object, human-readable lines)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    lines = ["machine: %s" % machine(),
             "workload %s, seed %d, trace %d, loadavg before: %s" % (name, seed, trace, loadavg())]
    vseeds = verify_seeds(workload, seed)
    books = {s: VerdictBook(out_dir, workload, s) for s in vseeds}
    failures = []  # (verdict label, check id, reason), one per failed check of a verdict
    attempted = 0
    verdicts = []

    def verdict(label: str, vseed: int, traced: bool, reference: dict | None,
                spans_path=None) -> Verdict:
        nonlocal attempted
        v = run_verdict(workload, vseed, traced, child_cmd, deadline, out_dir, spans_path)
        attempted += len(workload.expected)
        if reference is not None:
            for cid, why in compare(workload.expected, v.checks, reference).items():
                v.failed.setdefault(cid, why)
        failures.extend((label, cid, why) for cid, why in sorted(v.failed.items()))
        return v

    def untraced(vseed: int):
        book = books[vseed]
        known = book.get()
        v = verdict("verdict %d (verify seed %d)" % (len(verdicts), vseed), vseed, False,
                    known["digests"] if known else None)
        if known is None and not v.failed:
            book.put({
                "digests": {cid: c["digest"] for cid, c in v.checks.items()},
                "elapsed_ms": {cid: c["elapsed_ms"] for cid, c in v.checks.items()},
                "verdict_s": at_reference(v.verdict_s, v.probes),
                "cpu_s": v.cpu_s,
            })
        verdicts.append(v)

    metrics = {}
    if trace:
        vseed = vseeds[0]
        if books[vseed].get() is None:
            untraced(vseed)
        reference = books[vseed].get()
        spans_path = out_dir / ("spans-%s-seed%d.json" % (name, vseed))
        v = verdict("traced (verify seed %d)" % vseed, vseed, True,
                    reference["digests"] if reference else None, spans_path)
        if reference is not None and v.trace is not None:
            values = layer_metrics(v.trace, v, reference)
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
            lines += ["%s %r %s" % (n, values[n], u) for n, u, _ in PER_LAYER]
            lines.append("spans: %s" % spans_path)
        lines.append("report sha256 (traced): %s" % report_sha256(v.checks))
    else:
        start = time.monotonic()
        setups = []  # (seconds, probes)
        setup_probe(workload, vseeds[0], child_cmd, deadline, out_dir)  # warms the file cache
        for i in range(SETUP_PROBES):
            got = setup_probe(workload, vseeds[i % len(vseeds)], child_cmd, deadline, out_dir)
            if got is not None:
                setups.append(got)
        # Every verify seed once, then more verdicts while the next should end in time.
        while len(verdicts) < len(vseeds) or time.monotonic() - start + statistics.median(
            v.verdict_s for v in verdicts
        ) < seconds:
            untraced(vseeds[len(verdicts) % len(vseeds)])
        setups += [(v.setup_s, v.probes) for v in verdicts]
        samples = {
            "verdict_s": [at_reference(v.verdict_s, v.probes) for v in verdicts],
            "setup_s": [at_reference(t, probes) for t, probes in setups],
            "peak_rss_mb": [v.peak_rss_mb for v in verdicts],
        }
        for n, u, _ in END_TO_END:
            value = statistics.median(samples[n])
            metrics[n] = {"value": value, "unit": u}
            lines.append("%s %r %s (median of %s)" % (n, value, u, _summary(samples[n])))
        lines.append("wall verdict_s %r s (median of %s)" % (
            statistics.median(v.verdict_s for v in verdicts),
            _summary([v.verdict_s for v in verdicts])))
        lines.append("wall setup_s %r s (median of %s)" % (
            statistics.median(t for t, _ in setups), _summary([t for t, _ in setups])))
        lines.append("verdicts on cpu %s; mean probe %s us; fastest probe %.1f us" % (
            " ".join(str(v.cpu) for v in verdicts),
            " ".join("%.1f" % (statistics.mean(v.probes) * 1e6) for v in verdicts if v.probes),
            min((t for v in verdicts for t in v.probes), default=0.0) * 1e6))
        lines.append("cpu_s %r s (median)" % statistics.median(v.cpu_s for v in verdicts))
        for vseed, v in zip(vseeds, verdicts):  # the first verdicts take the seeds in turn
            lines.append("report sha256 (verify seed %d): %s" % (vseed, report_sha256(v.checks)))
    lines.append("fail_ratio %r ratio (%d failed of %d attempted checks)"
                 % (len(failures) / attempted, len(failures), attempted))
    lines += ["FAILED %s %s: %s" % f for f in failures]
    lines.append("loadavg after: %s" % loadavg())
    correct = not failures and bool(metrics)
    result = {
        "correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }
    return result, lines


def main(argv=None, workloads=WORKLOADS, child_cmd=CHILD, out_dir: Path = OUT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument(
        "--seed", type=int, default=0,
        help="verify runs at the seeds k*N .. k*N+k-1 in turn (k = 3, or 6 on sweeps)",
    )
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="measure whole verdicts for at least this long"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rslocal" / "cli.py").is_file():
        print("no rslocal sources under %s" % SRC, file=sys.stderr)
        return 2
    result, lines = run(args.workload, workloads[args.workload], args.seed, args.seconds,
                        bool(args.trace), child_cmd, out_dir)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Turn a stop request into SystemExit, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
