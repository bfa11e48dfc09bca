"""Every narrative demo runs to the end and prints its pinned output.

tests/data/demos_pinned.json holds each demo's stdout.  Demo 08 drives
BivarSeries, galois_act and the tau-order through the library API, which
the command line does not reach.  A change that alters a demo's output on
purpose regenerates the file with `python tests/test_demos.py` and says
why.
"""

import json
import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
PINNED = os.path.join(os.path.dirname(__file__), "data", "demos_pinned.json")
NAMES = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


def run(name):
    return subprocess.run([sys.executable, os.path.join(DEMOS, name)], capture_output=True,
                          text=True)


@pytest.fixture(scope="module")
def pinned():
    with open(PINNED) as fh:
        return json.load(fh)


def test_the_pinned_demos_are_the_present_ones(pinned):
    assert sorted(pinned) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_runs(name, pinned):
    r = run(name)
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    assert r.stdout == pinned[name]


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        json.dump({name: run(name).stdout for name in NAMES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
