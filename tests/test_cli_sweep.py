"""Exit-code sweep over every (command, op) that build_parser lists.

Each example calls cli.main in-process with a few of the subcommand's
flags set to small ints or short strings.  Whatever the input, the exit
status is 0, 1 or 2 and nothing prints a traceback: exit 3 reports a
defect, such as a handler that lost one of its function-local imports
(a NameError) in some branch.  No result value holds a float literal:
the library is exact, so one would be a value computed off its domain.
An input error that one of NUMBERS causes names the flag that carried
it, as "input error: --flag: ...".
"""

import argparse
import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab.cli import build_parser, main

INTS = st.integers(-2, 12)
# numbers that int() refuses, or reads as 0 however it is signed
NUMBERS = ["3/2", "2/1", "1.5", "-0"]
TEXTS = st.sampled_from(["", "x", "1,2", "1;2", "0:1"] + NUMBERS)
# file I/O and the help text are no library branch; --trials is fixed at 2
SKIP = {"--help", "--out", "--config", "--trials"}
# Two flags set a cost exponential in their value: the Witt length
# (generate_laws(p, n) costs about p^(n^2 - 1) ns, refused past 2^31) and
# the order m of log_m, a sum of p^m terms.  They are drawn from a smaller range.
CAPS = {"--wittlen": st.integers(-2, 3), "--m": st.integers(-2, 3)}
FLOAT = re.compile(r"\d\.\d|\d[eE][-+]?\d")


def _ops():
    """(command, op, its own flags, the shared flags) for each op."""
    parser = build_parser()
    shared = {opt for a in parser._actions for opt in a.option_strings}
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        op = next(a for a in sub._actions if not a.option_strings)
        flags = [a for a in sub._actions if a.option_strings
                 and not SKIP & set(a.option_strings)]
        own = [a for a in flags if not shared & set(a.option_strings)]
        common = [a for a in flags if shared & set(a.option_strings)]
        for choice in op.choices:
            yield pytest.param(name, choice, own, common, id=f"{name}-{choice}")


def _argv(flag):
    opt = flag.option_strings[-1]
    if flag.nargs == 0:
        return st.just([opt])
    if flag.choices:
        values = st.sampled_from(flag.choices)
    elif opt in CAPS:
        values = CAPS[opt].map(str)
    elif flag.type is int:
        values = INTS.map(str)
    else:
        values = st.one_of(TEXTS, INTS.map(str))
    return values.map(lambda v: [opt, v])


def _exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _values(text):
    """The result values of a JSON or CSV document."""
    if text.startswith("{"):
        return [r["value"] for r in json.loads(text)["results"]]
    return [line.split(",")[1] for line in text.splitlines()[1:]]


def _some(flags, n):
    return st.lists(st.sampled_from(flags), unique=True, max_size=n) if flags else st.just([])


@pytest.mark.parametrize("command, op, own, common", list(_ops()))
@settings(max_examples=8)
@given(data=st.data())
def test_every_subcommand_exits_0_1_or_2(command, op, own, common, data):
    chosen = data.draw(_some(own, 3)) + data.draw(_some(common, 2))
    argv = [command, op, "--trials", "2"]
    for flag in chosen:
        argv += data.draw(_argv(flag))
    code, out, err = _exit(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    carriers = [opt for opt, v in zip(argv, argv[1:]) if v in NUMBERS and v in err]
    if code == 2 and err.startswith("input error: ") and carriers:
        assert any(err.startswith(f"input error: {opt}: ") for opt in carriers), (argv, err)
    assert not any(FLOAT.search(v) for v in _values(out)), (argv, out)
