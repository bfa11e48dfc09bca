"""padiclab benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a padiclab checkout (the library is read from
./src).  Workloads: cli-oneshot, modp-batch, series-kernels; see
perfbench/NOTES.md for what each stands for.

A run does a fixed amount of work: the ops that take about S seconds at
the seed commit (workloads.ops_per_run).  --trace 0 measures the
end-to-end metrics: set-up time (median of SETUP_REPEATS fresh
interpreters, half of them before the ops and half after), with the ops
in a fresh worker process between.  --trace 1 runs the same ops three
times, each in a fresh process: untraced, traced, untraced; it reports
the per-layer metrics of the traced run and the tracing overhead.  The
run pins itself and every process it starts to one CPU, and all timings
are corrected for the host's speed (measure.py).  Every op's output is
checked; the last line of stdout is {"correct", "attempted", "failed",
"metrics"}.  A short human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import measure
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 8
# Every worker must end by this many seconds after the run started.
DEADLINE_S = 170
START = time.monotonic()


class BenchError(Exception):
    pass


def worker(root, *args) -> dict:
    """Run worker.py in its own process group; on the deadline the whole
    group (CLI children included) is killed and waited for."""
    cmd = [sys.executable, WORKER] + [str(a) for a in args]
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - START)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker passed the {DEADLINE_S} s deadline: {' '.join(cmd)}")
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def pin_to_one_cpu():
    """Keep this process and every process it starts on one of the CPUs it
    may use.  The reference host's CPUs change speed independently of each
    other, so the host-speed correction holds only if the reference kernel
    and the timed work share a CPU.  Where affinity cannot be set, the run
    goes on unpinned."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def setup_times(root, workload, seed, repeats) -> list:
    """Wall times, corrected for the host's speed, of fresh interpreters
    that import padiclab and draw the workload's first input."""
    times, refs = [], [measure.reference()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        worker(root, "--workload", workload, "--seed", seed, "--setup-only")
        times.append(time.perf_counter() - t0)
        refs.append(measure.reference())
    return measure.corrected(times, refs)


def end_to_end(res, setup_s) -> dict:
    m = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
        "latency_tail_ms": (res["latency_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "correct_share": (1 - res["failed"] / res["attempted"], "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(traced, before, after) -> dict:
    """The traced run's layers; the overhead compares it with the mean of
    the untraced runs made just before and after it, so that a host
    drifting in speed during the three runs largely cancels."""
    values = dict(traced["layers"])
    values["trace.overhead"] = traced["busy_s"] / ((before["busy_s"] + after["busy_s"]) / 2)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.layer_metric_names()}


def summary(workload, res, runs):
    n, failed = res["attempted"], res["failed"]
    lines = [f"{workload}: {n} ops in {res['busy_s']:.2f} s of op time "
             f"({res['raw_busy_s']:.2f} s before the host-speed correction), "
             f"failed_share {failed / n:.4f} ({failed}/{n})",
             f"  latency tail = p{res['tail_percentile']} of {n} samples",
             f"  input properties: {json.dumps(res['props'])}"]
    for r in runs:
        if r.get("missing"):
            lines.append(f"  missing (not traced): {', '.join(r['missing'])}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "padiclab", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a padiclab checkout "
                         "(no src/padiclab here)\n")
        return 2
    pin_to_one_cpu()
    common = ["--workload", args.workload, "--seed", args.seed,
              "--ops", workloads.ops_per_run(args.workload, args.seconds)]
    try:
        if args.trace:
            before = worker(root, *common)
            traced = worker(root, *common, "--traced")
            after = worker(root, *common)
            runs, metrics = [traced, before, after], per_layer(traced, before, after)
        else:
            setup = [args.workload, args.seed]
            times = setup_times(root, *setup, SETUP_REPEATS // 2)
            res = worker(root, *common)
            times += setup_times(root, *setup, SETUP_REPEATS - SETUP_REPEATS // 2)
            runs, metrics = [res], end_to_end(res, statistics.median(times))
    except (BenchError, KeyError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    sys.stderr.write(summary(args.workload, runs[0], runs))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
