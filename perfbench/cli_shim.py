"""Traced stand-in for `python -m padiclab.cli ARGS...`.

Times interpreter start (from PERFBENCH_SPAWN_NS, the parent's monotonic
clock just before spawning), the numpy import and the rest of the
padiclab import, then runs the CLI with the tracer installed.  The span
report goes to stderr as one line "PERFBENCH_TRACE {json}"; stdout and
the exit code are the CLI's own.
"""

import os
import sys
import time

START_NS = time.monotonic_ns()
t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401
t1 = time.perf_counter_ns()
import padiclab.cli  # noqa: E402
t2 = time.perf_counter_ns()

import json  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    tr = tracing.Tracer()
    tr.install()
    tr.op = int(os.environ.get("PERFBENCH_OP", "0"))
    try:
        code = padiclab.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        spawn_ns = START_NS - int(os.environ.get("PERFBENCH_SPAWN_NS", START_NS))
        tr.counters.update({"cli.processes": 1, "cli.spawn_ns": spawn_ns,
                            "cli.import_numpy_ns": t1 - t0, "cli.import_ns": t2 - t1})
        report = {"rows": tr.rows(), "counters": tr.counters, "missing": tr.missing}
        sys.stderr.write(tr.REPORT_TAG + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
