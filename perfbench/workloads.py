"""The three benchmark workloads: seeded inputs, one operation each, and
the check of every output.

An input ("spec") is plain data drawn from the seed; the library sees
only these generated inputs.  Each workload provides

    inputs(seed)  -> endless iterator of specs
    Runner(root)  -> .run(spec) returning (ok, props)

where ``ok`` says whether the output passed its check and ``props``
holds deterministic properties of the input, such as the splitting
degree s, that the benchmark reports as counts.

The seed draws the matrices and series.  The order in which input
classes (d, q, splitting degree, kernel family) come is fixed, the same
for every seed, so runs of different seeds meet the same mix in the same
order and their figures compare.

Library calls go through module attributes (``galrep.solve_unit_root``),
never through names bound at import, so the tracer's wrappers see them.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import namedtuple

P = 3                       # every mod-p input lives in characteristic 3
GALOIS_M = 20               # u-adic truncation for the mod-p functor ops
HEIGHT_M = 24
TAU_W = 12
LOGM_M = 3

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# Number of A in GL_d(F_3) whose power A^f has multiplicative order s.
# For a constant unit-root matrix A over F_q, q = 3^f, the residue
# equation splits first over F_(q^s) with s = order(A^f).  For a uniform
# non-constant G over F_q the splitting degree is the order of
# N = G0 sigma(G0) ... sigma^(f-1)(G0), and by Lang's theorem (Shintani
# descent) it follows the f = 1 row for either q.  Exact counts by
# enumeration; the benchmark's tests recompute them.
SPLIT_COUNTS = {
    (1, 1): {1: 1, 2: 1},
    (1, 2): {1: 2},
    (2, 1): {1: 1, 2: 13, 3: 8, 4: 6, 6: 8, 8: 12},
    (2, 2): {1: 14, 2: 6, 3: 16, 4: 12},
    (3, 1): {1: 1, 2: 235, 3: 728, 4: 1404, 6: 2600, 8: 2808, 13: 1728, 26: 1728},
    (3, 2): {1: 236, 2: 1404, 3: 3328, 4: 2808, 13: 3456},
}
STRATA = [(d, f) for d in (1, 2, 3) for f in (1, 2)]   # f: q = 3^f

# Systematic-sampling offset: the first draw of every stratum comes from
# its largest splitting degree, so each run builds its largest fields in
# the first pass and pays the same first-use construction.
QUOTA_OFFSET = 0.95
STRUCTURE_SEED = "perfbench-structure"
RARE_CLASS_TRIES = 5000


# --- sequencing --------------------------------------------------------


def cycled(rng: random.Random, items):
    """Endless stream of ``items``, each pass in a fresh order from
    ``rng``, so every prefix holds each item equally often up to one pass."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def van_der_corput(n: int) -> float:
    """n-th point of the base-2 van der Corput sequence in [0, 1)."""
    x, denom = 0.0, 1.0
    while n:
        denom *= 2
        n, bit = divmod(n, 2)
        x += bit / denom
    return x


def quota_classes(counts: dict):
    """Endless stream of classes by systematic sampling: the j-th class is
    the one whose slice of the cumulative distribution of ``counts``
    holds (QUOTA_OFFSET + vdc(j)) mod 1.  Every prefix of length 2^k follows
    the law of ``counts`` to within one draw per class."""
    total = sum(counts.values())
    keys = sorted(counts)
    for j in itertools.count():
        x = (QUOTA_OFFSET + van_der_corput(j)) % 1.0 * total
        acc = 0
        for k in keys:
            acc += counts[k]
            if x < acc:
                yield k
                break


# --- small fields F_3, F_9 on the library's integer codes --------------


class SmallField:
    """F_(3^f), f <= 2, on codes c0 + 3 c1 modulo x^2 + m1 x + m0: the
    element coding of padiclab's ``gf.field(3, f)``; ``modulus`` is
    (m0, m1) for f = 2 and unused for f = 1.  Pure table lookups,
    so drawing inputs never runs the library's arithmetic."""

    def __init__(self, f: int, modulus):
        self.f = f
        self.q = P ** f
        m0, m1 = modulus if f == 2 else (0, 0)

        def mul(a, b):
            if f == 1:
                return a * b % P
            a0, a1, b0, b1 = a % P, a // P, b % P, b // P
            hi = a1 * b1
            return (a0 * b0 - hi * m0) % P + P * ((a0 * b1 + a1 * b0 - hi * m1) % P)

        def add(a, b):
            if f == 1:
                return (a + b) % P
            return (a % P + b % P) % P + P * ((a // P + b // P) % P)

        r = range(self.q)
        self.mul = [[mul(a, b) for b in r] for a in r]
        self.add = [[add(a, b) for b in r] for a in r]
        self.neg = [next(b for b in r if add(a, b) == 0) for a in r]
        self.frob = [mul(mul(a, a), a) for a in r]

    def mat_mul(self, A, B):
        d, add, mul = len(A), self.add, self.mul
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = 0
                for t in range(d):
                    acc = add[acc][mul[A[i][t]][B[t][j]]]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def det(self, A):
        d, add, mul, neg = len(A), self.add, self.mul, self.neg
        if d == 1:
            return A[0][0]
        if d == 2:
            return add[mul[A[0][0]][A[1][1]]][neg[mul[A[0][1]][A[1][0]]]]
        acc = 0
        for j in range(3):
            minor = [[A[i][k] for k in range(3) if k != j] for i in (1, 2)]
            term = mul[A[0][j]][self.det(minor)]
            acc = add[acc][neg[term] if j == 1 else term]
        return acc

    def order(self, A) -> int:
        """Multiplicative order of an invertible A; at most 26 for every
        matrix the workloads draw (SPLIT_COUNTS)."""
        d = len(A)
        ident = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        acc = A
        for k in range(1, 101):
            if acc == ident:
                return k
            acc = self.mat_mul(acc, A)
        raise ValueError("matrix has no small order")

    def splitting_degree(self, G0) -> int:
        """Order of N = G0 sigma(G0) ... sigma^(f-1)(G0)."""
        N = G0
        for _ in range(self.f - 1):
            N = self.mat_mul(N, tuple(tuple(self.frob[a] for a in row) for row in G0))
        return self.order(N)

    def random_matrix(self, rng, d):
        return tuple(tuple(rng.randrange(self.q) for _ in range(d)) for _ in range(d))

    def draw_unit_root(self, rng, d, s, split=None):
        """A uniform invertible d x d matrix whose splitting degree
        (``split``, by default that of a non-constant G with this G0) is s,
        by rejection; a class too rare to hit in RARE_CLASS_TRIES draws
        takes the last invertible draw instead."""
        split = split or self.splitting_degree
        last = None
        for _ in range(RARE_CLASS_TRIES):
            A = self.random_matrix(rng, d)
            if not self.det(A):
                continue
            last = A
            if split(A) == s:
                return A
        return last


F3 = SmallField(1, None)


def mat_pow(F: SmallField, A, k: int):
    out = tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))
    for _ in range(k):
        out = F.mat_mul(out, A)
    return out


def charpoly_mod3(A):
    """Coefficients of det(xI - A) over F_3, low degree first (d <= 3)."""
    d = len(A)
    tr = sum(A[i][i] for i in range(d))
    det = F3.det(A)
    if d == 1:
        return [(-tr) % P, 1]
    if d == 2:
        return [det, (-tr) % P, 1]
    minors = sum(A[i][i] * A[j][j] - A[i][j] * A[j][i]
                 for i in range(3) for j in range(i + 1, 3))
    return [(-det) % P, minors % P, (-tr) % P, 1]


def matrix_arg(A) -> str:
    return ";".join(",".join(str(x) for x in row) for row in A)


def _results(stdout: str) -> dict:
    doc = json.loads(stdout)
    return {r["name"]: r["value"] for r in doc["results"]}


# --- cli-oneshot -----------------------------------------------------

# The cheap half: the README examples other than `galois solve` (the
# galois half covers it) and one call of each other cheap subcommand.
# Every one must print the seed commit's stdout byte for byte (golden.json,
# the ROADMAP invariant); where an independent oracle exists its results
# are checked against it as well.
CHEAP_COMMANDS = [
    ("ramif bound-gk --p 3 --e 1 --n 1 --h 1 --tame", {"bound": "7/2"}),
    ("ramif bound-sst --r 2 --n 1 --e 1 --p 3", {"bound": "8/3"}),
    ("logm value --p 3 --N 3 --matrix 4 --m 1", {"logm": "((15,),)"}),
    ("series solvev --p 3 --n 2 --coeffs 0,1,1 --M 10 --jmax 5",
     {"residual-zero": "True"}),
    ("witt laws --p 3 --wittlen 2", None),
    ("phimod cyclotomic --p 3 --e 2 --m 1", {"etale": "True", "uheight": "2"}),
    ("suite logm --p 3 --m 2 --trials 200 --seed 7", "all-pass"),
    ("series lambda --p 3 --e 1 --M 20", None),
    ("phimod uheight --p 3 --matrix 1:1,0;0,0:1", {"uheight": "1"}),
    ("tau order --p 3", None),
    ("padic log --p 3 --N 8 --x 4", None),
    ("padic qanalogue --p 3 --N 8 --a 5 --qq 4",
     {"qanalogue": str((4 ** 5 - 1) // 3 % 3 ** 7)}),
    ("padic valuation --p 3 --N 8 --x 54", {"valuation": "3"}),
]


def cli_inputs(seed: int):
    """Galois solves on constant matrices over {0,1,2} (d and q in turn,
    splitting degree by quota) alternating with cheap commands."""
    rng = random.Random(f"cli-oneshot:{seed}")
    order = random.Random(STRUCTURE_SEED)
    strata = cycled(order, STRATA)
    cheap = cycled(order, range(len(CHEAP_COMMANDS)))
    quotas = {k: quota_classes(SPLIT_COUNTS[k]) for k in STRATA}
    for i in itertools.count():
        if i % 2 == 0:
            d, f = next(strata)
            A = F3.draw_unit_root(rng, d, next(quotas[(d, f)]),
                                  split=lambda A: F3.order(mat_pow(F3, A, f)))
            yield {"kind": "galois", "A": A, "f": f,
                   "argv": ["galois", "solve", "--p", str(P), "--q", str(P ** f),
                            "--matrix", matrix_arg(A), "--M", str(GALOIS_M)]}
        else:
            cmd, expect = CHEAP_COMMANDS[next(cheap)]
            yield {"kind": "cheap", "argv": cmd.split(), "expect": expect}


def check_galois(spec, stdout: str):
    """Solution count p^d, extension degree order(A^f) and charpoly(A^f)
    mod p; returns (ok, s)."""
    res = _results(stdout)
    Af = mat_pow(F3, spec["A"], spec["f"])
    s = int(res["extension-degree"])
    ok = (int(res["solutions"]) == P ** len(Af) and s == F3.order(Af)
          and list(ast.literal_eval(res["charpoly"])) == charpoly_mod3(Af))
    return ok, s


def check_cheap(spec, stdout: str, golden: dict) -> bool:
    if stdout != golden[" ".join(spec["argv"])]:
        return False
    expect, res = spec["expect"], _results(stdout)
    if expect == "all-pass":
        return bool(res) and all(v == "pass" for v in res.values())
    return all(res.get(k) == v for k, v in (expect or {}).items())


class CliRunner:
    """Each op is one fresh `python -m padiclab.cli ...` process, run to
    completion before the next.  With a tracer the child runs
    cli_shim.py, and its span report is merged into the tracer."""

    def __init__(self, root: str, tracer=None):
        self.root = root
        with open(GOLDEN_PATH) as fh:
            self.golden = json.load(fh)
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run(self, spec):
        if self.tracer is not None:
            argv = [sys.executable, os.path.join(HERE, "cli_shim.py")] + spec["argv"]
            env = dict(self.env, PERFBENCH_OP=str(self.tracer.op),
                       PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
        else:
            argv = [sys.executable, "-m", "padiclab.cli"] + spec["argv"]
            env = self.env
        proc = subprocess.run(argv, env=env, cwd=self.root, capture_output=True,
                              text=True, timeout=170)
        if self.tracer is not None:
            tag = self.tracer.REPORT_TAG
            for line in proc.stderr.splitlines():
                if line.startswith(tag):
                    report = json.loads(line[len(tag):])
                    self.tracer.merge(report)
                    self.tracer.missing = sorted(set(self.tracer.missing)
                                                 | set(report["missing"]))
        if proc.returncode != 0:
            return False, {}
        if spec["kind"] == "galois":
            ok, s = check_galois(spec, proc.stdout)
            return ok, {"s": s}
        return check_cheap(spec, proc.stdout, self.golden), {}


# --- modp-batch ------------------------------------------------------


def modp_inputs(seed: int):
    """Non-constant unit-root G over F_3 or F_9: 6 uniform coefficients
    per entry, M = 20, d and q in turn, splitting degree by quota.
    Entries are codes of the library's F_9, whose modulus is read once."""
    from padiclab import gf
    rng = random.Random(f"modp-batch:{seed}")
    fields = {1: F3, 2: SmallField(2, gf.field(P, 2).modulus)}
    strata = cycled(random.Random(STRUCTURE_SEED), STRATA)
    quotas = {k: quota_classes(SPLIT_COUNTS[(k[0], 1)]) for k in STRATA}
    while True:
        d, f = next(strata)
        F = fields[f]
        G0 = F.draw_unit_root(rng, d, next(quotas[(d, f)]))
        codes = [[[G0[i][j]] + [rng.randrange(F.q) for _ in range(5)] for j in range(d)]
                 for i in range(d)]
        yield {"kind": "modp", "f": f, "d": d, "codes": codes,
               "s": F.splitting_degree(G0),
               "pick": (rng.randrange(P ** d), rng.randrange(P ** d))}


def check_modp(spec, S, sols, act) -> bool:
    """|T(M)| = p^d, s is the order of N = G0 sigma(G0)..., the sum of
    two solutions is a solution, and the action has a monic degree-d
    characteristic polynomial."""
    d = spec["d"]
    if S.cardinality != P ** d or len(sols) != P ** d or S.s != spec["s"]:
        return False
    a, b = (sols[i] for i in spec["pick"])
    summed = [x + y for x, y in zip(a, b)]
    if not any(all((x - y).is_zero() for x, y in zip(summed, t)) for t in sols):
        return False
    cp = act.char_poly()
    return len(cp) == d + 1 and cp[-1] == 1


class ModpRunner:
    """solve_unit_root, then SolutionSet.solutions, then frobenius_action;
    fields are built on first use and reused for the rest of the run."""

    def __init__(self, root: str, tracer=None):
        from padiclab import galrep, gf
        from padiclab.rings import FFRing
        from padiclab.series import TruncSeries
        self.galrep, self.gf, self.FFRing, self.TS = galrep, gf, FFRing, TruncSeries

    def run(self, spec):
        ring = self.FFRing(self.gf.field(P, spec["f"]))
        fld = ring.field
        G = [[self.TS(ring, {e: fld.from_code(c) for e, c in enumerate(entry)}, GALOIS_M)
              for entry in row] for row in spec["codes"]]
        S = self.galrep.solve_unit_root(G)
        sols = S.solutions()
        act = self.galrep.frobenius_action(S)
        return check_modp(spec, S, sols, act), {"s": S.s}


# --- series-kernels --------------------------------------------------

# Ops of each family per pass, set so each family takes a comparable
# share of the time at the seed commit (tau-mutant alone costs ~0.5 s).
SERIES_MIX = {"height": 12, "fixed": 48, "tau": 6, "tau-mutant": 1, "logm": 96,
              "logm-hand": 2}


def series_inputs(seed: int):
    """Seeded c05/c07/c08/c09 kernels: u-heights (F_3, M = 24, d <= 3),
    Frobenius fixed points for (p, n) in {(3, 2), (5, 1)}, tau-commutation
    with W = 12, and log_m additivity for p in {3, 5}, m = 3."""
    rng = random.Random(f"series-kernels:{seed}")
    order = random.Random(STRUCTURE_SEED)
    kinds = cycled(order, [k for k, w in SERIES_MIX.items() for _ in range(w)])
    height_d = cycled(order, (1, 2, 3))
    # e = 1, 2: Eisenstein U (p-constant term, deep fixed point);
    # e = 0: shallow U = u(1 + ...), whose solver divides by a unit.
    fixed_pne = cycled(order, [(p, n, e) for p, n in ((3, 2), (5, 1)) for e in (0, 1, 2)])
    logm_pd = cycled(order, [(p, d) for p in (3, 5) for d in (1, 2, 3)])
    for kind in kinds:
        if kind == "height":
            d = next(height_d)
            while True:
                W = [[[rng.randrange(P) for _ in range(6)] for _ in range(d)]
                     for _ in range(d)]
                if F3.det([[(W[i][j][0] + (i == j)) % P for j in range(d)]
                           for i in range(d)]):
                    break
            spec = {"d": d, "W": W, "D": [rng.randrange(4) for _ in range(d)]}
        elif kind == "fixed":
            p, n, e = next(fixed_pne)
            if e:
                coeffs = ([p * rng.randrange(1, p)]
                          + [p * rng.randrange(p) for _ in range(e - 1)] + [1])
            else:
                coeffs = [0, 1] + [rng.randrange(p ** n) for _ in range(2)]
            spec = {"p": p, "n": n, "coeffs": coeffs, "scale": rng.randrange(2, p + 1)}
        elif kind in ("tau", "tau-mutant"):
            spec = {"chi": 1 + P * rng.randrange(P ** 7),
                    "x": [[(rng.randrange(6), rng.randrange(P)) for _ in range(3)]
                          for _ in range(3)]}
        elif kind == "logm":
            p, d = next(logm_pd)
            N = LOGM_M + 6
            spec = {"p": p, "N": N,
                    "base": [[int(i == j) + p * rng.randrange(p ** (N - 1))
                              for j in range(d)] for i in range(d)],
                    "j": rng.randrange(1, 6), "k": rng.randrange(1, 6)}
        else:
            spec = {}
        spec["kind"] = kind
        yield spec


def check_height(h_snf, h_member) -> bool:
    return h_member is not None and h_snf == h_member


def check_residual(res) -> bool:
    return all(c.is_zero() for c in res.coords)


def check_logm_hand(value) -> bool:
    return value[0][0] == 15


class SeriesRunner:
    """Kernels over prime fields and Z/p^n only: no extension field."""

    def __init__(self, root: str, tracer=None):
        from padiclab import gf, gskel, logtrunc, perfseries, phimod, taumod, witt
        from padiclab.rings import FFRing, Zmod
        from padiclab.series import TruncSeries
        self.gf, self.gskel, self.logtrunc = gf, gskel, logtrunc
        self.perfseries, self.phimod, self.taumod, self.witt = perfseries, phimod, taumod, witt
        self.FFRing, self.Zmod, self.TS = FFRing, Zmod, TruncSeries
        self._tau_mods = None

    def run(self, spec):
        return getattr(self, "_" + spec["kind"].replace("-", "_"))(spec), {}

    def _height(self, spec):
        TS, phimod = self.TS, self.phimod
        r3 = self.FFRing(self.gf.field(P))
        d = spec["d"]
        W = [[TS(r3, {e: r3.field.el(c) for e, c in enumerate(entry)}, HEIGHT_M)
              for entry in row] for row in spec["W"]]
        for i in range(d):
            W[i][i] = W[i][i] + TS.one(r3, HEIGHT_M)
        D = [[TS.monomial(r3, spec["D"][i], r3.one, HEIGHT_M) if i == j
              else TS.zero(r3, HEIGHT_M) for j in range(d)] for i in range(d)]
        L = phimod.PhiLattice(phimod.PhiModule(P, P, 1, phimod.mat_mul(D, W)))
        member = next((h for h in range(7) if phimod.height_divides(
            L, TS.monomial(r3, h, r3.one, HEIGHT_M))), None)
        return check_height(phimod.u_height(L), member)

    def _fixed(self, spec):
        from fractions import Fraction
        p, n = spec["p"], spec["n"]
        field = self.gf.field(p)
        U = self.TS(self.Zmod(p, n), dict(enumerate(spec["coeffs"])), 10)
        V = self.perfseries.solve_frobenius_fixed(U, field, n, jmax=6, prec=Fraction(10))
        ring = self.perfseries.PerfRing(field, p - 1, 6, Fraction(10))
        V2 = self.witt.from_int(spec["scale"], p, n, ring) * V
        return all(check_residual(self.perfseries.frobenius_fixed_residual(U, x, ring, n))
                   for x in (V, V2))

    def _tau_fixture(self):
        """The module of the tau suite and its mutated control, built on
        first use."""
        if self._tau_mods is None:
            taumod, F = self.taumod, self.gf.field(P)
            tau = self.gskel.elt(P, 8, 1, 1)
            M = taumod.trivial_restriction_module([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1,
                                                  F, tau, TAU_W)
            Tbad = [row[:] for row in M.T]
            Tbad[0][1] = Tbad[0][1] + taumod.BivarSeries(F, {(1, 0): F.one}, TAU_W)
            self._tau_mods = (M, taumod.PhiTauModP(P, 3, M.G, Tbad, tau, 6))
        return self._tau_mods

    def _tau_x(self, spec):
        F = self.gf.field(P)
        return [self.taumod.BivarSeries(F, {(e, 0): F.el(c) for e, c in coords}, TAU_W)
                for coords in spec["x"]]

    def _tau(self, spec):
        M, _ = self._tau_fixture()
        g = self.gskel.elt(P, 8, 0, spec["chi"])
        return self.taumod.check_commutation(M, g, self._tau_x(spec)) is True

    def _tau_mutant(self, spec):
        _, Mbad = self._tau_fixture()
        g = self.gskel.elt(P, 8, 0, 4)
        return self.taumod.check_commutation(Mbad, g, self._tau_x(spec)) is False

    def _logm(self, spec):
        lt = self.logtrunc
        p, N = spec["p"], spec["N"]
        mod = p ** N
        base = lt.BoundedOp.of(p, N, spec["base"])
        a = lt.BoundedOp.of(p, N, lt.mpow(base.mat, spec["j"], mod))
        b = lt.BoundedOp.of(p, N, lt.mpow(base.mat, spec["k"], mod))
        ab = lt.BoundedOp.of(p, N, lt.mmul(a.mat, b.mat, mod))
        la, lb, lab = (lt.log_m(x, LOGM_M) for x in (a, b, ab))
        return lt.congruent_mod(lab, la.add(lb), LOGM_M - 1)

    def _logm_hand(self, spec):
        lt = self.logtrunc
        return check_logm_hand(lt.log_m(lt.BoundedOp.of(3, 3, [[4]]), 1).value_mod(3))


# --- registry --------------------------------------------------------

# A run does a fixed amount of work: whole passes of the class order, about
# ``rate`` x --seconds ops.  For cli-oneshot and series-kernels ``rate`` is
# the ops per second measured at the seed commit on the reference host, so
# a run takes about --seconds.  modp-batch is not linear: its first pass
# builds every field cold, up to F_(3^52) (about 18 s), and the warm passes
# after it take about 1.3 s each.  Its ``rate`` gives 13 passes at
# --seconds 20, enough warm ops for steady latency figures; such a run
# takes about 33 s (measured ops_per_s about 2.4).
# Fixed work keeps every run's mix the same however fast the host is.
Workload = namedtuple("Workload", "inputs runner per_pass rate")

WORKLOADS = {
    "cli-oneshot": Workload(cli_inputs, CliRunner, 2, 2.2),
    "modp-batch": Workload(modp_inputs, ModpRunner, len(STRATA), 3.9),
    "series-kernels": Workload(series_inputs, SeriesRunner, sum(SERIES_MIX.values()), 66.0),
}


def ops_per_run(name: str, seconds: float) -> int:
    w = WORKLOADS[name]
    return w.per_pass * max(1, round(w.rate * seconds / w.per_pass))
