"""A reach census of src/padiclab: every function that no user path calls,
and every statement of a reached function that no user path runs, the
lists that the tier-1 gate tests/test_reach.py checks.

    python tools/reach.py

runs, in this one process and under sys.settrace from before the first
padiclab import (so import-time calls count), with line events only in
frames of src/padiclab:

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
Then, for each reached function, each statement of its body (nested
statements included, docstrings and the bodies of nested defs not) that
never ran, as file:line, qualified name, class and the statement's first
line, and the totals per class.  A statement ran when a line of its own
ran: a simple statement's lines, a compound statement's header (from its
first decorator to the line before its body).  Its class is `raise`,
`counter` (a check-failure counter of suites: `NAME += 1`, `NAME = False`,
`continue` or `pass` in the body of an `if` or an `except`, which runs
only when a property fails) or `other`.  Stdout of the paths runs to os.devnull.  Stdlib only,
and outside pytest's testpaths: tests/test_reach.py runs it in a
subprocess and fails on each function and each `other` statement printed
here that its allow-lists do not name with a reason, and on each entry
that a path now reaches.
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
CLASSES = ("raise", "counter", "other")


def _is_counter(stmt) -> bool:
    """`NAME += 1`, `NAME = False`, `continue` or `pass`."""
    if isinstance(stmt, ast.AugAssign):
        return (isinstance(stmt.op, ast.Add) and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Constant) and stmt.value.value == 1)
    if isinstance(stmt, ast.Assign):
        return (len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant) and stmt.value.value is False)
    return isinstance(stmt, (ast.Continue, ast.Pass))


def _statements(fn, lines, counters):
    """[(lines, first line, class, text)] of each statement of fn's body,
    the docstring and nested defs' bodies left out."""
    out = []

    def visit(body, guarded):
        for i, stmt in enumerate(body):
            if (i == 0 and body is fn.body and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
            inner = getattr(stmt, "body", None)
            last = max(first, inner[0].lineno - 1) if inner else stmt.end_lineno
            if isinstance(stmt, ast.Raise):
                kind = "raise"
            elif counters and guarded and _is_counter(stmt):
                kind = "counter"
            else:
                kind = "other"
            text = " ".join(lines[stmt.lineno - 1][stmt.col_offset:].split())
            out.append((range(first, last + 1), stmt.lineno, kind, text))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), isinstance(stmt, ast.If))
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body, True)

    visit(fn.body, False)
    return out


def functions():
    """{(path, first line): (qualified name, lines, statements)} for every
    def in src/padiclab; the first line is the code object's, the first
    decorator's where there is one."""
    out = {}

    def walk(node, path, prefix, lines):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".", lines)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                stmts = _statements(child, lines, os.path.basename(path) == "suites.py")
                out[path, first] = (prefix + child.name, child.end_lineno - first + 1, stmts)
                walk(child, path, prefix + child.name + ".<locals>.", lines)
            else:
                walk(child, path, prefix, lines)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        walk(ast.parse(source), path, "", source.splitlines())
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


def trace(defs):
    """({(path, first line)} of the defs that ran, {path: {line}} of the
    lines that ran in src/padiclab) over user_paths().  Only the frames of
    a def of src/padiclab get line events, and a def's stop once each of
    its statements has run (checked at its 1st, 2nd, 4th, ... call)."""
    reached, hits = set(), {}
    # id(code) -> None (no line events) or [calls, statements not yet run,
    # line tracer]; each code is kept in `seen`, so that no id is reused
    state, seen = {}, []

    def call(frame, event, arg):
        code = frame.f_code
        entry = state.get(id(code), 0)
        if entry is None:
            return None
        if entry == 0:
            seen.append(code)
            key = (code.co_filename, code.co_firstlineno)
            if key not in defs:
                state[id(code)] = None
                return None
            reached.add(key)
            add = hits.setdefault(key[0], set()).add

            def line(frame, event, arg):
                add(frame.f_lineno)
                return line

            entry = state[id(code)] = [0, [s[0] for s in defs[key][2]], line]
        entry[0] += 1
        if not entry[0] & (entry[0] - 1):
            ran = hits[code.co_filename]
            entry[1] = [lines for lines in entry[1] if not any(n in ran for n in lines)]
            if not entry[1]:
                state[id(code)] = None
                return None
        return entry[2]

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        sys.settrace(call)
        try:
            user_paths()
        finally:
            sys.settrace(None)
    return reached, hits


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    defs = functions()
    reached, hits = trace(defs)
    missed = sorted(key for key in defs if key not in reached)
    for path, line in missed:
        name, size, _ = defs[path, line]
        print(f"{os.path.relpath(path, ROOT)}:{line} {name} {size}")
    print(f"unreached: {len(missed)} of {len(defs)} functions, "
          f"{sum(defs[key][1] for key in missed)} of {sum(d[1] for d in defs.values())} lines")
    totals, count = dict.fromkeys(CLASSES, 0), 0
    for path, first in sorted(reached & defs.keys()):
        name, _, stmts = defs[path, first]
        ran = hits.get(path, ())
        for lines, line, kind, text in stmts:
            count += 1
            if not any(n in ran for n in lines):
                totals[kind] += 1
                print(f"{os.path.relpath(path, ROOT)}:{line} {name} {kind} {text}")
    print(f"unreached statements: {sum(totals.values())} of {count} in reached functions, "
          + ", ".join(f"{totals[kind]} {kind}" for kind in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
