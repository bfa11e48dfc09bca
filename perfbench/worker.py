"""Run one workload in a fresh process and print its raw results as one
JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --ops K
        [--traced] [--setup-only]

Run from the root of a checkout; the library is imported from ./src.
One client, closed loop: each op starts when the previous one ended, and
the run ends after K ops.  The reference kernel (measure.reference) is
timed before the first op and after each one, and the op times are
corrected for the host's speed.  --setup-only imports the library,
draws the first input and exits: the set-up that setup_s times.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import padiclab  # noqa: F401  (the library import is part of set-up)

    import measure
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    first = next(inputs)
    if args.setup_only:
        return 0

    tr = tracing.Tracer() if args.traced else None
    runner = wl.runner(root, tracer=tr)
    if tr is not None:
        tr.install()

    durations, oks, props = [], [], Counter()
    refs = [measure.reference()]
    shown = 0
    for i, spec in enumerate(itertools.islice(itertools.chain([first], inputs), args.ops)):
        if tr is not None:
            tr.op = i
            tr.enter("op")
        t0 = time.perf_counter()
        try:
            ok, p = runner.run(spec)
        except Exception:           # a raising op counts as failed; keep going
            ok, p = False, {}
            if shown < 3:
                shown += 1
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.exit()
        refs.append(measure.reference())
        durations.append(dt)
        oks.append(bool(ok))
        props.update(f"{k}={v}" for k, v in p.items())

    fixed = measure.corrected(durations, refs)
    busy = sum(fixed)
    ok_fixed = [d for d, ok in zip(fixed, oks) if ok] or fixed
    p50, tail_pct, tail = measure.latency_summary(ok_fixed)
    result = {
        "attempted": len(oks),
        "failed": oks.count(False),
        "busy_s": busy,
        "raw_busy_s": sum(durations),
        "ops_per_s": oks.count(True) / busy,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_percentile": tail_pct,
        "peak_rss_mb": peak_rss_mb(),
        "props": dict(sorted(props.items())),
    }
    if tr is not None:
        result["layers"] = tracing.layer_metrics(tr, props)
        result["missing"] = tr.missing
        out_dir = os.path.join(root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"columns": ["op", "name", "parent", "calls", "busy_ns", "self_ns"],
                       "rows": tr.rows(), "counters": tr.counters}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
