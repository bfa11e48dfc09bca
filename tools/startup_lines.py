"""The padiclab modules each perfbench/golden.json command loads, and
their total source lines: what one process compiles when it runs with
no bytecode cache (PYTHONDONTWRITEBYTECODE=1, as the benchmark and CI do).

    python tools/startup_lines.py [ROOT]

prints one Markdown table row per command for the checkout at ROOT
(default: the checkout holding this file).  Each command runs in a
fresh interpreter through padiclab.cli.main, its document written to
os.devnull.  The script reports and checks nothing.
"""

import json
import os
import shlex
import subprocess
import sys

PROBE = """
import os, sys
from padiclab.cli import main
main({argv!r} + ["--out", os.devnull])
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "padiclab"))
"""


def lines(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def main(root):
    src = os.path.join(root, "src")
    with open(os.path.join(root, "perfbench", "golden.json")) as fh:
        commands = list(json.load(fh))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    print("| command | padiclab modules loaded | source lines |")
    print("|---|---|---|")
    for command in commands:
        probe = PROBE.format(argv=shlex.split(command))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        modules = out.split()
        names = [m.partition(".")[2] for m in modules]      # "" for the package
        total = sum(lines(os.path.join(src, "padiclab", (n or "__init__") + ".py"))
                    for n in names)
        print(f"| `{command}` | {' '.join(n or 'padiclab' for n in names)} | {total} |")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
