"""One verdict in a fresh interpreter, started by run.py.

Usage: python3 child.py JOB_JSON

The job names the ``verify`` argument lists to run through
``rslocal.cli.main`` one after another in this process, the source
directory the package must come from, the check ids to run (``only``;
null runs every check of the suites), the mode, and where to write the
timing record.  Modes:

* ``run``   - run every argument list; reports go to standard output.
* ``setup`` - stop each run at the start of the first check, to time start-up.

With ``"trace": true`` the layers are wrapped by tracer.Tracer first.
Times are ``time.monotonic()`` readings, which on Linux share one clock
with the parent process, so the parent subtracts its spawn time.
"""

import json
import os
import sys
import time


def peak_kb():
    """Peak resident memory of this program since it started, in KiB, or None.

    The ``ru_maxrss`` that ``wait4`` reports also counts the parent's
    memory, which the child borrows between ``vfork`` and ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


def main(argv) -> int:
    job = json.loads(argv[0])
    import rslocal.cli as cli

    where = os.path.realpath(os.path.dirname(cli.__file__))
    want = os.path.realpath(os.path.join(job["src"], "rslocal"))
    if where != want:
        print("rslocal imported from %s, expected %s" % (where, want), file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if job.get("only") is not None:
        import rslocal.suites as suites

        wanted = frozenset(job["only"])
        run_check = suites._run_check

        def selected_run_check(reports, check_id, params, fn):
            if check_id in wanted:
                run_check(reports, check_id, params, fn)

        suites._run_check = selected_run_check

    marks = {}
    run_suite = cli.run_suite

    def timed_run_suite(cfg):
        marks.setdefault("setup", time.monotonic())
        if job["mode"] == "setup":
            return []
        return run_suite(cfg)

    cli.run_suite = timed_run_suite
    codes = []
    for args in job["argvs"]:
        codes.append(cli.main(args))
        if job["mode"] == "setup":
            break
    sys.stdout.flush()
    done = time.monotonic()
    record = {"setup": marks.get("setup"), "done": done, "codes": codes, "peak_kb": peak_kb()}
    if tracer is not None:
        record["trace"] = tracer.export()
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.export_spans(), fh, separators=(",", ":"))
    with open(job["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
