"""Byte-identity of the command line against pinned documents.

tests/data/cli_pinned.json holds stdout and the exit status of the 11
property suites at --trials 6 --seed 5, of the README's example
commands, of the tau commands at several truncations and of two
precision examples, of `series solvev` at p = 5, on lattices too
coarse for the solution (precisions off the lattice) and in a field
too small, of two answers the perturbation oracles mended, of the two
Witt-vector suites at their default trials over three seeds, and of
three log_m commands whose 1 - A vanishes mod p, and of four galois
commands through gf's two-byte digits, an embedding and the solutions
of x^p - a x = b over an extension, of one command for each op that
none of these runs, and of the one user path of two library functions
(tests/test_reach.py), of five commands whose flag values start
with a dash or that galois refuses for its --n, of one heightdiv
whose det vanishes at its truncation, and of the one user path of
statements of the library (tools/reach.py's statement census).  A change that alters
any of them on purpose regenerates the file with
`python tests/test_cli_pinned.py` and says why.
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
# log_m where 1 - A = 0 mod p, so only the terms below the valuation
# cut are summed
LOGM_CUT = [
    "logm value --p 5 --N 9 --matrix 26 --m 3",
    'logm value --p 3 --N 9 --matrix "10,9,0;0,1,18;9,0,28" --m 3',
    "suite logm --p 5 --m 3 --trials 20 --seed 3",
]
# gf's wider paths: two-byte digits in fp_reduce and in a Kronecker
# folding (p = 17 and 23), an embedding into F_(5^12), and the solutions
# of x^p - a x = b over an extension
GF_PATHS = [
    "galois solve --p 17 --q 17 --matrix 3 --M 8",
    "galois rank1 --p 23 --c 5 --a 1 --M 6",
    'galois solve --p 5 --q 125 --matrix "7,1;0,3" --M 6',
    "galois rank1 --p 3 --q 9 --a 1 --c 5",
]
WITT_SUITES = [f"suite {name} --seed {seed}"
               for name in ("existv", "incwitt") for seed in (1, 2, 9)]
# one command for each op that no other pinned document runs
OPS = [
    "witt add --p 3 --wittlen 2 --x 1,2 --y 2,2",
    "witt mul --p 3 --wittlen 2 --x 2,1 --y 2,2",
    "witt tozmod --p 3 --wittlen 3 --x 1,2,1",
    "witt fromzmod --p 5 --wittlen 2 --value 17",
    'series newton --points "0,3;1,1;2,2;4,0"',
    'ramif herbrand --jumps "1,9;2,3"',
    "ramif bound-ginf --p 3 --h 2 --n 2",
    "ramif bound-converse --p 3 --e 2 --h 1",
    "ramif bound-tau --p 3 --h 2 --cprime 1",
    "ramif gamma --p 3 --e 2 --s 4 --c0 1",
    "ramif phi-kinf --p 3 --e 2 --s 3",
    'phimod etale --p 3 --matrix "0:1,1;1,0"',
    'phimod heightdiv --p 3 --M 8 --matrix "0:1,1;1,0" --U 0,1',
    'phimod stabilize --p 3 --matrix "0:1,1;1,0"',
    'logm bounded --p 3 --N 6 --matrix "4,3;0,1" --m 2 --c 1',
    'logm rdc --p 3 --N 6 --matrix "1,3;0,1" --t 1 --i 2',
    "padic exp --p 3 --N 8 --x 3",
    "padic qinverse --p 3 --N 8 --b 5 --qq 4",
    "padic chitau --p 3 --N 8 --chig 4 --qq 4",
]
# the only user path of a library function: the cyclotomic module over
# Z/9, whose Eisenstein unit Zmod.inv inverts, and a bound-gk whose log
# branch n + log_p(h/e) is below 1/(p-1), the bound BoundExpr.exact builds
REACH = [
    "phimod cyclotomic --p 3 --n 2 --e 2 --m 1",
    "ramif bound-gk --p 3 --e 2 --n 1 --h 1 --tame",
]
# refusals and values of the flags: galois reads torsion level 1 only,
# and a value that starts with a dash reaches its flag's check
FLAGS = [
    "galois solve --p 3 --n 2 --matrix 2",
    "ramif herbrand --jumps -1,9",
    'series newton --points "-1,2;-1,3"',
    "series weierstrass --p 3 --n 2 --coeffs -3,1",
    "logm value --p 3 --N 4 --matrix -2 --m 1",
]
# the Indeterminate record of heightdiv: det G = u is 0 at --M 1, so
# invertibility is not visible
UNDECIDED = ["phimod heightdiv --p 3 --M 1 --matrix 0:1 --U 1"]
# the only user path of statements of the library (tools/reach.py): a
# series inverse over Z/9 (the Newton lift) and over F_9, and a sum of
# products over F_9; solve_additive at its balance point, refused, and
# the fixed-point solver's lattice cap; bound-gk at an exact log_3(h);
# gamma's clamp with its warning; a rank-1 solve at a = 0; the csv
# writer, the --out writer and its output error (/dev/null is on every
# POSIX host); --strict's exit 1; is_bounded with a second power, False
# at its first, and at c >= m; a config error; a logm suite at m = 1;
# and, at p = 2^32 + 15, gf's widest digits and galrep's cap
STATEMENTS = [
    "--p 3 --n 2 phimod heightdiv --matrix 1:1 --U 1,1",
    "--p 3 --q 9 phimod heightdiv --matrix 1:1 --U 1,1",
    '--p 3 --q 9 phimod heightdiv --M 8 --matrix "0:1,1;1,0" --U 0,1',
    "--p 3 --n 2 --M 6 --jmax 1 series solvev --coeffs 0,4,0",
    "--p 3 --n 3 --M 6 --jmax 1 series solvev --coeffs 1,0,1",
    "ramif bound-gk --p 3 --e 1 --n 1 --h 3 --tame",
    "ramif gamma --s 0 --c0 5",
    "--p 3 galois rank1 --a 0 --c 2",
    "--format csv padic valuation --p 3 --x 54",
    "--out /dev/null padic valuation --p 3 --x 54",
    "--out /dev/null/doc.json padic valuation --p 3 --x 54",
    "--strict --p 3 phimod etale --matrix 0",
    'logm bounded --p 3 --N 6 --matrix "1,1;0,1" --m 2',
    "logm bounded --p 3 --N 6 --matrix 2 --m 2",
    "logm bounded --p 3 --N 6 --matrix 4 --m 1 --c 1",
    "padic valuation --p 4 --x 3",
    "suite logm --p 3 --m 1 --trials 2 --seed 1",
    "galois rank1 --p 4294967311 --c 5 --a 1 --M 2",
]
COMMANDS = [f"suite {name} --trials 6 --seed 5" for name in SUITE_NAMES] + README + TAU + \
    PRECISION + SOLVEV + ORACLES + LOGM_CUT + GF_PATHS + WITT_SUITES + OPS + REACH + FLAGS + \
    UNDECIDED + STATEMENTS


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
