"""Every function of src/padiclab runs on a user path: a pinned or golden
command, a property suite, a demo or a benchmark's first pass, the paths
tools/reach.py runs.  A function that none reaches is deleted, given a
user path, or listed here with its reason.  A new unreached function
fails this test until one of the three is done, and so does a listed
function that a user path now reaches.

The value dunders (__eq__, __hash__, __repr__) of the classes that
test_own_dunders lists, and Frozen's guards against assignment, are
covered by one rule, not listed one by one: no command prints a repr or
hashes a value, and the guards run only when a caller breaks the rule
they enforce.

tools/reach.py runs in a subprocess (about 5 s), so that no state of
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
    ("gf.py", "FFElt.__sub__"): "the coefficient-ring protocol of rings.py requires it",
    ("rings.py", "QRing.inv"): "the coefficient-ring protocol of rings.py requires it",
}

LINE = re.compile(r"src/padiclab/(\S+):\d+ (\S+) \d+")


def unreached(output):
    """{(file, qualified name)} of each `path:line qualname size` line of
    tools/reach.py's output; the last line must be its totals."""
    lines = output.splitlines()
    assert lines and lines[-1].startswith("unreached: "), output
    found = set()
    for line in lines[:-1]:
        match = LINE.fullmatch(line)
        assert match, line
        found.add(match.groups())
    return found


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
    missed = unreached(census)
    assert sorted(key for key in missed if key not in ALLOWED and not by_rule(key[1])) == [], \
        census


def test_no_listed_function_is_reached(census):
    assert sorted(ALLOWED.keys() - unreached(census)) == [], census


def test_every_entry_states_its_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert not [key for key in ALLOWED if by_rule(key[1])]


def test_the_parser_reads_each_line_and_the_rule_covers_only_value_dunders():
    output = ("src/padiclab/gf.py:132 FFElt.__sub__ 2\n"
              "src/padiclab/cli.py:45 __getattr__ 6\n"
              "unreached: 2 of 417 functions, 8 of 3704 lines\n")
    assert unreached(output) == {("gf.py", "FFElt.__sub__"), ("cli.py", "__getattr__")}
    assert by_rule("FFElt.__hash__") and by_rule("Frozen.__delattr__")
    assert not (by_rule("FFElt.__sub__") or by_rule("Zmod.__repr__")
                or by_rule("Frozen.__init__"))
