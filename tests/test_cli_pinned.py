"""Byte-identity of the command line against pinned documents.

tests/data/cli_pinned.json holds stdout and the exit status of the 11
property suites at --trials 6 --seed 5, of the README's example
commands, of the tau commands at several truncations and of two
precision examples, of `series solvev` at p = 5, on lattices too
coarse for the solution (precisions off the lattice) and in a field
too small, of two answers the perturbation oracles mended, and of the
two Witt-vector suites at their default trials over three seeds.  A change that alters any of them on purpose
regenerates the file with `python tests/test_cli_pinned.py` and says why.
"""

import contextlib
import io
import json
import os
import shlex

import pytest

from padiclab.cli import SUITE_NAMES, main

PINNED = os.path.join(os.path.dirname(__file__), "data", "cli_pinned.json")
README = [
    "ramif bound-gk --p 3 --e 1 --n 1 --h 1 --tame",
    "ramif bound-sst --r 2 --n 1 --e 1 --p 3",
    'galois solve --p 3 --q 3 --matrix "2" --M 20',
    "logm value --p 3 --N 3 --matrix 4 --m 1",
    "series solvev --p 3 --n 2 --coeffs 0,1,1 --M 10 --jmax 5",
    "witt laws --p 3 --wittlen 2",
    "phimod cyclotomic --p 3 --e 2 --m 1",
    "suite logm --p 3 --m 2 --trials 200 --seed 7",
]
TAU = [f"tau order --p 3 --W {W}" for W in (4, 9, 12, 28)] + [
    "tau order --p 5 --W 26",
    "tau order --p 7 --W 12",
    "tau commutation --trials 10 --seed 4",
    "tau commutation --p 5 --W 8 --trials 4 --seed 9",
]
# each runs a step whose correction is zero at its precision, which must
# still spend that precision
PRECISION = [
    "--p 3 --n 3 --M 11 series weierstrass --coeffs 0,0,0,0,3,21,0,18,8,0,26",
    "series solvev --p 3 --n 3 --coeffs 0,1,1 --M 10 --jmax 5",
]
# the lattice 1/(D p^jmax) Z: a coarse one caps a coordinate's
# precision at the depth it can hold, off the lattice
SOLVEV = [
    "series solvev --p 5 --n 2 --coeffs 1,1,2 --M 8 --jmax 3",
    "series solvev --p 5 --n 3 --coeffs 0,1,1 --M 6 --jmax 1",
    "series solvev --p 5 --n 3 --coeffs 0,0,1,3 --M 7 --jmax 2",
    "series solvev --p 3 --n 3 --coeffs 0,1,1 --M 10 --jmax 1",
    "series solvev --p 3 --n 4 --coeffs 0,2,1 --M 9 --jmax 2",
]
# decided since the perturbation oracles: a pivot u^3 below the block's
# precision 5, and lambda for an E with a middle term, whose factors are
# 1 + O(u^(p^k)), not 1 + O(u^(e p^k))
ORACLES = [
    "phimod uheight --p 3 --M 5 --matrix 0:0:0:1",
    "series lambda --p 3 --E 3,3,1 --M 12",
]
WITT_SUITES = [f"suite {name} --seed {seed}"
               for name in ("existv", "incwitt") for seed in (1, 2, 9)]
COMMANDS = [f"suite {name} --trials 6 --seed 5" for name in SUITE_NAMES] + README + TAU + \
    PRECISION + SOLVEV + ORACLES + WITT_SUITES


def run(command):
    """The exit status and stdout of `padiclab COMMAND`, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def pinned():
    with open(PINNED) as fh:
        return json.load(fh)


def test_the_pinned_commands_are_the_listed_ones(pinned):
    assert sorted(pinned) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_byte_identical_to_the_pinned_document(command, pinned):
    assert run(command) == pinned[command]


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        json.dump({c: run(c) for c in COMMANDS}, fh, indent=1, sort_keys=True)
        fh.write("\n")
