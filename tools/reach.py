"""A reach census of src/padiclab: every function that no user path calls,
the list that the tier-1 gate tests/test_reach.py checks.

    python tools/reach.py

runs, in this one process and under sys.setprofile from before the
first padiclab import (so import-time calls count):

- every command of tests/data/cli_pinned.json and perfbench/golden.json,
  through padiclab.cli.main;
- each property suite at 3 trials, seed 1;
- the demos under demos/;
- the first pass of each perfbench workload's seed-1 inputs: the first
  12 ops of cli-oneshot (a galois solve for each stratum, each followed
  by a cheap command; through cli.main, not in a fresh process), one op
  per stratum of modp-batch and the whole class order of series-kernels.

It then prints each function of src/padiclab/*.py (every def, nested
and methods included) whose code never ran, as file:line, qualified
name and its lines (decorators, docstring and body), and the totals.
Stdout of the paths runs to os.devnull.  Stdlib only, and outside
pytest's testpaths: tests/test_reach.py runs it in a subprocess and
fails on each function printed here that its allow-list does not name
with a reason, and on each allow-list entry that a path now reaches.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import importlib
import itertools
import json
import os
import runpy
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "padiclab")
TRIALS = 3
SEED = 1


def functions():
    """{(path, first line): (qualified name, lines)} for every def in
    src/padiclab; the first line is the code object's, the first
    decorator's where there is one."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = (prefix + child.name, child.end_lineno - first + 1)
                walk(child, path, prefix + child.name + ".<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            walk(ast.parse(fh.read()), path, "")
    return out


def user_paths():
    """Run every user path listed in the module docstring."""
    # not `from padiclab.cli import ...`, whose lookup of __path__ would
    # count as a call of cli.__getattr__
    cli = importlib.import_module("padiclab.cli")
    with open(os.path.join(ROOT, "tests", "data", "cli_pinned.json")) as fh:
        commands = list(json.load(fh))
    with open(os.path.join(ROOT, "perfbench", "golden.json")) as fh:
        commands += list(json.load(fh))
    commands += [f"suite {name} --trials {TRIALS} --seed {SEED}" for name in cli.SUITE_NAMES]
    for command in commands:
        cli.main(shlex.split(command))
    for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        runpy.run_path(demo, run_name="__main__")
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    passes = {"cli-oneshot": 2 * len(workloads.STRATA), "modp-batch": len(workloads.STRATA),
              "series-kernels": sum(workloads.SERIES_MIX.values())}
    for name, ops in passes.items():
        wl = workloads.WORKLOADS[name]
        runner = None if name == "cli-oneshot" else wl.runner(ROOT)
        for spec in itertools.islice(wl.inputs(SEED), ops):
            if runner is None:
                cli.main(spec["argv"])
            else:
                runner.run(spec)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        sys.setprofile(profile)
        try:
            user_paths()
        finally:
            sys.setprofile(None)
    defs = functions()
    missed = sorted(key for key in defs if key not in reached)
    for path, line in missed:
        name, size = defs[path, line]
        print(f"{os.path.relpath(path, ROOT)}:{line} {name} {size}")
    print(f"unreached: {len(missed)} of {len(defs)} functions, "
          f"{sum(defs[key][1] for key in missed)} of {sum(n for _, n in defs.values())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
