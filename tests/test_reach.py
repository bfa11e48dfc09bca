"""Every function of src/padiclab runs on a user path: a pinned or golden
command, a property suite, a demo or a benchmark's first pass, the paths
tools/reach.py runs.  A function that none reaches is deleted, given a
user path, or listed here with its reason.  A new unreached function
fails this test until one of the three is done, and so does a listed
function that a user path now reaches.

One level down, the same holds for the statements of each reached
function that are neither raises nor check-failure counters of the
suites (tools/reach.py classes them): each runs on a user path, is
deleted, or is listed in STATEMENTS, keyed by file, qualified name and
the statement's first line, not by line number.  Two statements of one
function with the same first line share an entry.

The value dunders (__eq__, __hash__, __repr__) of the classes that
test_own_dunders lists, and Frozen's guards against assignment, are
covered by one rule, not listed one by one: no command prints a repr or
hashes a value, and the guards run only when a caller breaks the rule
they enforce.  The counters are covered by the tool's own rule: they run
only when a property fails.

tools/reach.py runs in a subprocess (about 7 s), so that no state of
this process, a cached field or a loaded module, counts as reached."""

import pathlib
import re
import subprocess
import sys

import pytest
from test_own_dunders import ALLOWED as VALUE_CLASSES
from test_own_dunders import DUNDERS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GUARDS = {"Frozen.__setattr__", "Frozen.__delattr__"}

ALLOWED = {
    ("cli.py", "_parse_config_file"): "it needs a file path: CI runs the pinned commands "
                                      "from runner.temp, so none can name one, and "
                                      "tests/test_cli.py drives it instead",
    ("cli.py", "__getattr__"): "perfbench/test_perfbench.py reads cli.generate_laws through "
                               "it; it goes with ROADMAP item 2",
    ("rings.py", "QRing.inv"): "TruncSeries.inverse over Q: test_sparse_series.py's Q cases "
                               "run the recurrence inverse on a ring with no reduction",
}

NOT_IMPLEMENTED = ("an operand of a foreign type: the operator protocol's reply, which "
                   "no command gives")
STATEMENTS = {
    ("__init__.py", "Fields.__eq__", "return NotImplemented"): NOT_IMPLEMENTED,
    ("__init__.py", "Fields.__eq__", "return False"):
        "no user path compares two unequal values of one Fields class",
    ("cli.py", "_command", "return None"):
        "no subcommand named (--, or flags only): argparse then exits the process, which "
        "no in-process path can pin; tests/test_cli.py drives both",
    ("cli.py", "main", "base.update(_parse_config_file(args.config))"):
        "--config needs a file with content; see _parse_config_file in ALLOWED",
    ("cli.py", "main", 'sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\\n")'):
        "exit 3 is a library defect, which no input reaches; tests/test_gf.py makes one",
    ("cli.py", "main", "return 3"): "as the internal-error line above",
    ("gf.py", "_mulmod", "return ((u[0] * v[0]) % p,)"):
        "every field product of degree 1 takes FFElt's own one-step path; "
        "tests/test_fixed_point_kernels.py uses this branch as the degree-1 reference",
    ("gf.py", "FFElt.__mul__", "return NotImplemented"): NOT_IMPLEMENTED,
    ("gf.py", "FFElt.__pow__", "return self.inverse() ** (-n)"):
        "x ** -n, the inverse's power: no user path asks one, and padic.power would loop "
        "forever on a negative exponent",
    ("gf.py", "FFElt.__eq__", "other = self.field.el(other)"):
        "== against an int: no user path compares an element with an int",
    ("gf.py", "FFElt.__eq__", "return NotImplemented"): NOT_IMPLEMENTED,
    ("padic.py", "PadicInt.__eq__", "return NotImplemented"): NOT_IMPLEMENTED,
    ("perfseries.py", "solve_additive",
     "x0 = monomial(a.field, a.D, a.jmax, va / p, roots[0], rem.prec / p)"):
        "a root at the balance point needs a field larger than F_p: over F_p the leading "
        "coefficient of U is 1, the only (p-1)-st power, and x^p - x = a0 != 0 has none; "
        "series solvev solves over F_p, tests/test_perfseries.py over F_9",
    ("series.py", "SparseSeries.__eq__", "return NotImplemented"): NOT_IMPLEMENTED,
    ("suites.py", "run_incwitt", "if not witt.in_maximal_ideal(y):"):
        "a shallow vector that divides: no seeded draw does (seeds 1-12 tried at 20 trials)",
    ("witt.py", "WittVector.__eq__", "return NotImplemented"): NOT_IMPLEMENTED,
    ("witt.py", "in_maximal_ideal", "return False"):
        "a quotient coordinate of valuation exactly 0: as run_incwitt's entry above",
}

LINE = re.compile(r"src/padiclab/(\S+):\d+ (\S+) \d+")
STATEMENT = re.compile(r"src/padiclab/(\S+):\d+ (\S+) (raise|counter|other) (.+)")


def unreached(output):
    """{(file, qualified name)} of each `path:line qualname size` line of
    tools/reach.py's output, and {(file, qualified name, text): class}
    of each `path:line qualname class text` line; each part must end in
    its totals."""
    lines = output.splitlines()
    split = next((i for i, line in enumerate(lines) if line.startswith("unreached: ")), None)
    assert split is not None and lines[-1].startswith("unreached statements: "), output
    functions, statements = set(), {}
    for line in lines[:split]:
        match = LINE.fullmatch(line)
        assert match, line
        functions.add(match.groups())
    for line in lines[split + 1:-1]:
        match = STATEMENT.fullmatch(line)
        assert match, line
        path, name, kind, text = match.groups()
        statements[path, name, text] = kind
    return functions, statements


def others(output):
    """The keys of the unreached statements of class other."""
    return {key for key, kind in unreached(output)[1].items() if kind == "other"}


def by_rule(qualname):
    cls, _, name = qualname.rpartition(".")
    return qualname in GUARDS or (cls in VALUE_CLASSES and name in DUNDERS)


@pytest.fixture(scope="module")
def census():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                         capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_every_unreached_function_is_listed(census):
    missed = unreached(census)[0]
    assert sorted(key for key in missed if key not in ALLOWED and not by_rule(key[1])) == [], \
        census


def test_no_listed_function_is_reached(census):
    assert sorted(ALLOWED.keys() - unreached(census)[0]) == [], census


def test_every_unreached_other_statement_is_listed(census):
    assert sorted(others(census) - STATEMENTS.keys()) == [], census


def test_no_listed_statement_runs(census):
    assert sorted(STATEMENTS.keys() - others(census)) == [], census


def test_every_entry_states_its_reason():
    assert all(reason.strip() for reason in (*ALLOWED.values(), *STATEMENTS.values()))
    assert not [key for key in ALLOWED if by_rule(key[1])]


def test_the_parser_reads_each_line_and_the_rule_covers_only_value_dunders():
    output = ("src/padiclab/gf.py:132 FFElt.__sub__ 2\n"
              "src/padiclab/cli.py:45 __getattr__ 6\n"
              "unreached: 2 of 417 functions, 8 of 3704 lines\n"
              "src/padiclab/gf.py:66 _mulmod other return ((u[0] * v[0]) % p,)\n"
              "src/padiclab/suites.py:40 run_qanalogue counter bad += 1\n"
              "src/padiclab/witt.py:70 _p_divexact raise raise ArithmeticError(\"x\")\n"
              "unreached statements: 3 of 2473 in reached functions, 1 raise, 1 counter, "
              "1 other\n")
    assert unreached(output) == (
        {("gf.py", "FFElt.__sub__"), ("cli.py", "__getattr__")},
        {("gf.py", "_mulmod", "return ((u[0] * v[0]) % p,)"): "other",
         ("suites.py", "run_qanalogue", "bad += 1"): "counter",
         ("witt.py", "_p_divexact", 'raise ArithmeticError("x")'): "raise"})
    assert others(output) == {("gf.py", "_mulmod", "return ((u[0] * v[0]) % p,)")}
    assert by_rule("FFElt.__hash__") and by_rule("Frozen.__delattr__")
    assert not (by_rule("FFElt.__sub__") or by_rule("Zmod.__repr__")
                or by_rule("Frozen.__init__"))
