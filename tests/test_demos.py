"""Every narrative demo runs to the end."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(name):
    r = subprocess.run([sys.executable, os.path.join(DEMOS, name)], capture_output=True,
                       text=True)
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
