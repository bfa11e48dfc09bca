"""A seeded mutation census of one padiclab module.

    python tools/mutants.py gf --sites 24 --seed 0

Each mutant changes one site of src/padiclab/<module>.py: one binary or
augmented operator swapped (+ <-> -, * -> +, // -> *, % -> //, ** -> *,
<< <-> >>, & <-> |), one comparison swapped (< <-> <=, > <-> >=,
== <-> !=), or one int constant raised by 1.  The sites are drawn from
every such site with random.Random(seed).  Each mutant runs the module's
mapped test files first (MAPPED, else tests/test_<module>.py), and one
that passes them runs all of tier-1.

The mutants are made in a copy of the checkout in a temporary directory;
the checkout itself is never written, except for the report, MUTANTS.json
at its root, one section per module: per site the module, line,
mutation and verdict (killed, survived, or equivalent with a one-line
reason).  A survivor already judged equivalent in the report, at the
same line text and mutation, keeps that verdict and reason; any other
survivor is reported as survived.  A test run that outlasts twice the
same run unmutated plus a fixed margin of MARGIN seconds counts as a kill
(a hang): unmutated tier-1 has varied by about a quarter between runs
(120-152 s), so a run past 2x + MARGIN is not noise, and a mutant that
loops forever costs one such bound, not ten times the run.  Stdlib only,
and outside pytest's testpaths.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT = os.path.join(ROOT, "MUTANTS.json")
MAPPED = {"gf": ["tests/test_gf.py", "tests/test_modp_fast_paths.py",
                 "tests/test_digit_codecs.py"],
          "calculus": ["tests/test_series.py"],
          "logtrunc": ["tests/test_logtrunc.py", "tests/test_refusals.py",
                       "tests/test_acceptance.py", "tests/test_value_classes.py"],
          "padic": ["tests/test_padic.py", "tests/test_value_classes.py"],
          "perfseries": ["tests/test_perfseries.py", "tests/test_fixed_point_kernels.py",
                         "tests/test_lattice_codes.py", "tests/test_perf_precision_codes.py",
                         "tests/test_refusals.py", "tests/test_rings.py",
                         "tests/test_sparse_series.py", "tests/test_value_classes.py",
                         "tests/test_witt.py", "tests/test_acceptance.py"],
          "series": ["tests/test_series.py", "tests/test_sparse_series.py",
                     "tests/test_height_kernels.py", "tests/test_lattice_codes.py",
                     "tests/test_matrix.py", "tests/test_phimod.py", "tests/test_refusals.py",
                     "tests/test_rings.py", "tests/test_digit_codecs.py",
                     "tests/test_modp_fast_paths.py", "tests/test_perfseries.py",
                     "tests/test_witt.py", "tests/test_galrep.py", "tests/test_splitting.py",
                     "tests/test_value_classes.py", "tests/test_acceptance.py"],
          "taumod": ["tests/test_taumod.py", "tests/test_galois_act.py"]}
TIER1 = ["--continue-on-collection-errors"]
MARGIN = 60

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
          ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
          ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd}
COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%",
          ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&",
          ast.BitOr: "|", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!="}


def _char_col(lines, row, byte_col):
    """ast's UTF-8 byte offset on line row (1-based) as a character offset."""
    return len(lines[row - 1].encode()[:byte_col].decode())


def sites(source: str) -> list:
    """Every mutable site as (row, col, old, new): the text at (row, col),
    in characters, and its replacement; f-strings are skipped."""
    tree, lines = ast.parse(source), source.splitlines(keepends=True)
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type == tokenize.OP]
    skip = {id(n) for js in ast.walk(tree) if isinstance(js, ast.JoinedStr)
            for n in ast.walk(js)}

    def op_after(node, symbol):
        """The operator token symbol (or symbol=) first after node ends."""
        start = (node.end_lineno, _char_col(lines, node.end_lineno, node.end_col_offset))
        tok = next(t for t in tokens if t.start >= start and t.string != ")")
        assert tok.string in (symbol, symbol + "="), (tok, symbol)
        return tok.start, tok.string

    out = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
            left = node.left if isinstance(node, ast.BinOp) else node.target
            (row, col), old = op_after(left, SYMBOL[type(node.op)])
            new = SYMBOL[BINARY[type(node.op)]] + ("=" if old.endswith("=") else "")
            out.append((row, col, old, new))
        elif isinstance(node, ast.Compare):
            for left, op in zip([node.left, *node.comparators], node.ops):
                if type(op) in COMPARE:
                    (row, col), old = op_after(left, SYMBOL[type(op)])
                    out.append((row, col, old, SYMBOL[COMPARE[type(op)]]))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            row = node.lineno
            col = _char_col(lines, row, node.col_offset)
            end = _char_col(lines, row, node.end_col_offset)
            out.append((row, col, lines[row - 1][col:end], str(node.value + 1)))
    return sorted(set(out))


def mutate(source: str, site) -> str:
    row, col, old, new = site
    lines = source.splitlines(keepends=True)
    line = lines[row - 1]
    assert line[col:col + len(old)] == old, (site, line)
    lines[row - 1] = line[:col] + new + line[col + len(old):]
    return "".join(lines)


def run_tests(work, args, timeout):
    """True when pytest passes args in the copy; False on a failure or a
    timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="a module of src/padiclab, without .py")
    ap.add_argument("--sites", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    rel = os.path.join("src", "padiclab", args.module + ".py")
    with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
        source = fh.read()
    everywhere = sites(source)
    drawn = sorted(random.Random(args.seed).sample(everywhere, args.sites))
    mapped = MAPPED.get(args.module, [f"tests/test_{args.module}.py"])
    report = {}
    if os.path.exists(REPORT):
        with open(REPORT) as fh:
            report = json.load(fh)
    judged = {(e["mutation"], e["text"]): e["reason"]
              for e in report.get(args.module, {}).get("mutants", [])
              if e["verdict"] == "equivalent"}
    work = tempfile.mkdtemp(prefix="mutants-")
    try:
        shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench"))
        target = os.path.join(work, rel)
        timeout = {}
        for name, tests in (("mapped", mapped), ("tier-1", TIER1)):
            t0 = time.perf_counter()
            if not run_tests(work, tests, None):
                sys.stderr.write(f"mutants: {name} fails unmutated: {' '.join(tests)}\n")
                return 1
            timeout[name] = 2 * (time.perf_counter() - t0) + MARGIN
        entries = []
        for site in drawn:
            row, _, old, new = site
            text = source.splitlines()[row - 1].strip()
            mutation = f"{old} -> {new}"
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutate(source, site))
            verdict, by = "survived", None
            if not run_tests(work, mapped, timeout["mapped"]):
                verdict, by = "killed", "mapped"
            elif not run_tests(work, TIER1, timeout["tier-1"]):
                verdict, by = "killed", "tier-1"
            entry = {"module": args.module, "line": row, "mutation": mutation, "text": text,
                     "verdict": verdict, "killed_by": by}
            if verdict == "survived" and (mutation, text) in judged:
                entry.update(verdict="equivalent", reason=judged[mutation, text])
            entries.append(entry)
            sys.stderr.write(f"{rel}:{row} {mutation}: {entry['verdict']}\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    killed = sum(e["verdict"] == "killed" for e in entries)
    report[args.module] = {
        "command": f"python tools/mutants.py {args.module} --sites {args.sites} --seed {args.seed}",
        "mapped_tests": mapped, "sites_in_module": len(everywhere),
        "killed": killed, "drawn": len(entries), "mutants": entries}
    with open(REPORT, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{args.module}: {killed} of {len(entries)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
