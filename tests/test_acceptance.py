"""Acceptance gate: twelve exact-arithmetic criteria, one test each.

Every criterion prints one PASS/FAIL line (visible with -s); trial
counts and constants are the stated ones, nothing is sampled down.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction as F


from padiclab import galrep, gf, gskel, matrix, padic, perfseries, phimod, ramif, taumod, witt
from padiclab.errors import NotDivisible
from padiclab.logtrunc import (BoundedOp, congruent_mod, log_m, madd, mmul,
                               mpow, mscale, rdc_valuation_check)
from padiclab.padic import PadicInt
from padiclab.rings import FFRing, Zmod
from padiclab.series import (EisensteinPoly, TruncSeries, kisin_lambda,
                             lambda_residual, n_nabla_commutation_defect)
from padiclab.suites import SUITES, incwitt_fixture


def report(num, ok, label):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {label}"
    print(line)
    assert ok, line


def test_c01_qanalogue_bijection():
    rng = random.Random(101)
    failures = 0
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        n = 8
        w = rng.choice([1, 1, 1, 2])
        unit = rng.randrange(1, p ** (n - w))
        if unit % p == 0:
            unit += 1
        q = PadicInt(p, n, 1 + p ** w * unit)
        a = PadicInt(p, n, rng.randrange(p ** n))
        qa = padic.q_analogue(a, q)
        back = padic.q_analogue_inverse(qa, q)
        if back != a.lower_precision(back.prec):
            failures += 1
        if (qa - a).residue % p != 0:
            failures += 1
        if (a - 1).lower_precision(qa.prec).valuation() != (qa - 1).valuation():
            failures += 1
    report(1, failures == 0,
           f"q-analogue bijection, 1000 draws over p in {{3,5,7}}, {failures} failures")


def test_c02_cocycle_group_model():
    rng = random.Random(102)
    p, n = 3, 8

    def unit(lo=1):
        c = rng.randrange(lo, p ** n)
        return c + 1 if c % p == 0 else c

    bad = 0
    for _ in range(1000):
        g, h = (gskel.elt(p, n, rng.randrange(p ** n), unit()) for _ in range(2))
        prod = gskel.mul(g, h)
        if prod.c != g.c + g.chi * h.c or prod.chi != g.chi * h.chi:
            bad += 1
    tau = gskel.elt(p, n, 1, 1 + p * rng.randrange(p ** (n - 2)))
    bad_rel = 0
    for _ in range(1000):
        g = gskel.elt(p, n, 0, unit())
        a = gskel.chi_tau(g, tau)
        lhs = gskel.mul(g, tau)
        rhs = gskel.mul(gskel.pow(tau, a), gskel.conj_into_Ginf(g, tau))
        if lhs.c != rhs.c or lhs.chi != rhs.chi:
            bad_rel += 1
    tau1 = gskel.elt(p, n, 1, 1)
    bad_alt = 0
    for _ in range(1000):
        x = gskel.mul(gskel.pow(tau1, rng.randrange(p ** n)),
                      gskel.elt(p, n, 0, unit()))
        y = gskel.mul(gskel.pow(tau1, rng.randrange(p ** n)),
                      gskel.elt(p, n, 0, unit()))
        ax, gx = gskel.decompose(x, tau1)
        ay, gy = gskel.decompose(y, tau1)
        a_new = ax + ay * gx.chi
        psi = gskel.mul(gskel.mul(gskel.pow(tau1, -(ay * gx.chi)), gx),
                        gskel.pow(tau1, ay))
        combined = gskel.mul(gskel.pow(tau1, a_new), gskel.mul(psi, gy))
        direct = gskel.mul(x, y)
        if combined.c != direct.c or combined.chi != direct.chi:
            bad_alt += 1
    report(2, bad == bad_rel == bad_alt == 0,
           f"cocycle law/extension relation/semidirect law x1000 each "
           f"({bad},{bad_rel},{bad_alt} failures)")


class _ZxF9:
    """Z[x]/(lift of the F_9 modulus): the p-torsion-free ghost oracle."""

    def __init__(self, f9):
        self.f9 = f9
        self.mod = tuple(int(c) for c in f9.modulus)  # non-leading coeffs

    def mul(self, a, b):
        m0, m1 = self.mod
        raw = [a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[1] * b[1]]
        return (raw[0] - raw[2] * m0, raw[1] - raw[2] * m1)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def pow(self, a, k):
        out = (1, 0)
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def divexact(self, a, k):
        assert a[0] % k == 0 and a[1] % k == 0
        return (a[0] // k, a[1] // k)

    def reduce(self, a):
        return self.f9.from_fp((a[0] % 3, a[1] % 3))


def test_c03_witt_laws():
    ok_iso = True
    for (p, n) in ((3, 2), (3, 3), (5, 2)):
        ring = FFRing(gf.field(p))
        mod = p ** n
        for a in range(mod):
            for b in range(mod):
                wa = witt.from_zmod(a, p, n, ring)
                wb = witt.from_zmod(b, p, n, ring)
                if witt.to_zmod(wa + wb) != (a + b) % mod or \
                        witt.to_zmod(wa * wb) != (a * b) % mod:
                    ok_iso = False
    rng = random.Random(103)
    F9 = gf.field(3, 2)
    R9 = FFRing(F9)
    zx = _ZxF9(F9)
    p, n = 3, 2
    bad = 0
    for _ in range(1000):
        xs = [F9.random(rng) for _ in range(n)]
        ys = [F9.random(rng) for _ in range(n)]
        lx = [tuple(int(c) for c in v.coeffs) for v in xs]
        ly = [tuple(int(c) for c in v.coeffs) for v in ys]

        def ghost(coords):
            return [tuple(map(sum, zip(*(
                [tuple(q * e for e in zx.pow(coords[i], p ** (k - i)))
                 for i, q in ((i, p ** i) for i in range(k + 1))]))))
                for k in range(n)]

        def solve_back(targets):
            sol = []
            for k in range(n):
                acc = targets[k]
                for i in range(k):
                    contrib = zx.pow(sol[i], p ** (k - i))
                    acc = zx.add(acc, tuple(-(p ** i) * e for e in contrib))
                sol.append(zx.divexact(acc, p ** k))
            return sol

        for opname in ("add", "mul"):
            gx, gy = ghost(lx), ghost(ly)
            if opname == "add":
                target = [zx.add(a, b) for a, b in zip(gx, gy)]
                got = witt.WittVector(p, R9, xs) + witt.WittVector(p, R9, ys)
            else:
                target = [zx.mul(a, b) for a, b in zip(gx, gy)]
                got = witt.WittVector(p, R9, xs) * witt.WittVector(p, R9, ys)
            want = [zx.reduce(c) for c in solve_back(target)]
            if list(got.coords) != want:
                bad += 1
    report(3, ok_iso and bad == 0,
           f"Witt ring isos exhaustive + ghost oracle x1000 over F9 ({bad} failures)")


def test_c04_incwitt_witness():
    rng = random.Random(104)
    p, n, h = 3, 2, 1
    field, ring, Z = incwitt_fixture()
    m = F(h * p ** n, p - 1)
    assert m == F(9, 2)
    lat = (p - 1) * p ** ring.jmax
    pos = 0
    for _ in range(100):
        coords = []
        for _ in range(n):
            c = {F(rng.randrange(int(m * lat) + 1, int((m + 4) * lat)), lat):
                 field.random(rng) for _ in range(6)}
            coords.append(perfseries.PerfSeries(field, p - 1, ring.jmax, c, ring.prec))
        x = witt.WittVector(p, ring, coords)
        try:
            y = witt.witt_divide(x, Z)
            if (Z * y) == x and witt.in_maximal_ideal(y):
                pos += 1
        except NotDivisible:
            pass
    neg = 0
    for _ in range(100):
        coords = []
        for _ in range(n):
            lo = rng.randrange(1, int((m - 1) * lat) - 1)
            c = {F(lo, lat): field.random_nonzero(rng)}
            for _ in range(4):
                c[F(rng.randrange(lo, int((m + 2) * lat)), lat)] = field.random(rng)
            coords.append(perfseries.PerfSeries(field, p - 1, ring.jmax, c, ring.prec))
        x = witt.WittVector(p, ring, coords)
        try:
            y = witt.witt_divide(x, Z)
            if not witt.in_maximal_ideal(y):
                neg += 1
        except NotDivisible:
            neg += 1
    report(4, pos == 100 and neg == 100,
           f"ideal inclusion witness: {pos}/100 deep divisible, "
           f"{neg}/100 shallow rejected (threshold 9/2)")


def test_c05_frobenius_fixed_point():
    rng = random.Random(105)
    ok = True
    for (p, n) in ((3, 2), (5, 1)):
        field = gf.field(p)
        for _ in range(20):
            e = rng.choice([1, 2])
            coeffs = [p * rng.randrange(1, p)] + \
                     [p * rng.randrange(p) for _ in range(e - 1)] + [1]
            U = TruncSeries(Zmod(p, n), dict(enumerate(coeffs)), 10)
            V = perfseries.solve_frobenius_fixed(U, field, n, jmax=6, prec=F(10))
            ring = perfseries.PerfRing(field, p - 1, 6, F(10))
            res = perfseries.frobenius_fixed_residual(U, V, ring, n)
            if not all(c.is_zero() for c in res.coords):
                ok = False
            V2 = witt.from_int(rng.randrange(2, p + 1), p, n, ring) * V
            res2 = perfseries.frobenius_fixed_residual(U, V2, ring, n)
            if not all(c.is_zero() for c in res2.coords):
                ok = False
    report(5, ok, "phi(V) = UV residuals vanish at truncation, 20 Eisenstein draws "
                  "per (p,n) in {(3,2),(5,1)}, scalings included")


def test_c06_modp_functor():
    rng = random.Random(106)
    bases = [FFRing(gf.field(3)), FFRing(gf.field(3, 2))]
    ok_card = ok_lin = True
    for _ in range(50):
        d = rng.choice([1, 2, 3])
        base = rng.choice(bases)
        while True:
            G = [[TruncSeries(base, {e: base.field.random(rng) for e in range(6)}, 20)
                  for _ in range(d)] for _ in range(d)]
            G0 = [[a.coeffs.get(0, base.field.zero) for a in row] for row in G]
            try:
                galrep.ff_mat_inv(G0)
                break
            except ZeroDivisionError:
                continue
        S = galrep.solve_unit_root(G)
        if S.cardinality != 3 ** d:
            ok_card = False
            continue
        sols = S.solutions()
        s1, s2 = rng.choice(sols), rng.choice(sols)
        summed = tuple(a + b for a, b in zip(s1, s2))
        if not any(all((x - y).is_zero() for x, y in zip(summed, t)) for t in sols):
            ok_lin = False
    ok_rt = True
    for _ in range(20):
        d = rng.choice([1, 2, 3])
        while True:
            A = [[rng.randrange(3) for _ in range(d)] for _ in range(d)]
            if matrix.det(A) % 3:
                break
        act = galrep.frobenius_action(
            galrep.solve_unit_root(galrep.unramified_to_phimod(A, 3)))
        if galrep.charpoly_mod_p(act.matrix, 3) != galrep.charpoly_mod_p(A, 3):
            ok_rt = False
    report(6, ok_card and ok_lin and ok_rt,
           "|T(M)| = p^d on 50 unit-root draws (d <= 3, q in {3,9}, M = 20), "
           "F_p-linear, unramified round trip preserves char poly")


def test_c07_heights():
    rng = random.Random(107)
    M = 24
    r3 = FFRing(gf.field(3))
    ok = True
    for _ in range(50):
        d = rng.choice([1, 2])
        while True:
            W = [[TruncSeries(r3, {e: r3.field.random(rng) for e in range(7)}, M)
                  for _ in range(d)] for _ in range(d)]
            for i in range(d):
                W[i][i] = W[i][i] + TruncSeries.one(r3, M)
            if phimod.mat_det(W).valuation() == 0:
                break
        D = [[TruncSeries.monomial(r3, rng.randrange(4), r3.one, M) if i == j
              else TruncSeries.zero(r3, M) for j in range(d)] for i in range(d)]
        L = phimod.PhiLattice(phimod.PhiModule(3, 3, 1, phimod.mat_mul(D, W)))
        h_snf = phimod.u_height(L)
        h_mem = next((h for h in range(7) if phimod.height_divides(
            L, TruncSeries.monomial(r3, h, r3.one, M))), None)
        if h_snf != h_mem:
            ok = False
    E = EisensteinPoly(3, (3, 0, 1))
    cyc = phimod.u_height(phimod.PhiLattice(phimod.cyclotomic_module(1, 1, E))) == E.e
    report(7, ok and cyc,
           "SNF u-height = brute-force membership height on 50 rank-<=2 draws; "
           "cyclotomic twist has u-height e")


def test_c08_phitau_example1():
    rng = random.Random(108)
    p, N, W = 3, 8, 12
    F3 = gf.field(3)
    tau = gskel.elt(p, N, 1, 1)
    M = taumod.trivial_restriction_module([[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                                          1, F3, tau, W)

    def sample_x():
        return [taumod.BivarSeries(F3, {(rng.randrange(0, 6), 0): F3.random(rng)
                                        for _ in range(3)}, W) for _ in range(3)]

    good = sum(taumod.check_commutation(
        M, gskel.elt(p, N, 0, 1 + p * rng.randrange(p ** (N - 1))), sample_x())
        for _ in range(50))
    Tbad = [row[:] for row in M.T]
    Tbad[0][1] = Tbad[0][1] + taumod.BivarSeries(F3, {(1, 0): F3.one}, W)
    Mbad = taumod.PhiTauModP(p, 3, M.G, Tbad, tau, 6)
    mut = not taumod.check_commutation(Mbad, gskel.elt(p, N, 0, 4), sample_x())
    report(8, good == 50 and mut,
           f"tau-commutation {good}/50 on the order-p module (d=3, W=12); "
           f"mutated matrix detected: {mut}")


def test_c09_logm_congruences():
    rng = random.Random(109)
    ok = True
    for p in (3, 5):
        for m in (1, 2, 3):
            n = m + 6
            mod = p ** n
            for _ in range(200):
                d = rng.choice([1, 2, 3])
                base = BoundedOp.of(p, n, [[(1 if i == j else 0) +
                                            p * rng.randrange(p ** (n - 1))
                                            for j in range(d)] for i in range(d)])
                a = BoundedOp.of(p, n, mpow(base.mat, rng.randrange(1, 6), mod))
                b = BoundedOp.of(p, n, mpow(base.mat, rng.randrange(1, 6), mod))
                ab = BoundedOp.of(p, n, mmul(a.mat, b.mat, mod))
                la = log_m(a, m)
                if m > 1:
                    if not congruent_mod(log_m(ab, m), la.add(log_m(b, m)), m - 1):
                        ok = False
                    pert = mscale(mpow(a.mat, rng.randrange(3), mod),
                                  p ** m * rng.randrange(p), mod)
                    b2 = BoundedOp.of(p, n, madd(a.mat, pert, mod))
                    if not congruent_mod(la, log_m(b2, m), m - 1):
                        ok = False
                    nexp = rng.choice(list(range(p ** m + 1)) + [1 + p ** 2])
                    an = BoundedOp.of(p, n, mpow(a.mat, nexp, mod))
                    if not congruent_mod(log_m(an, m), la.scale_int(nexp), m - 1):
                        ok = False
    rdc_ok = True
    triples = 0
    while triples < 100:
        a, b, c = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        f = [[1, a, b], [0, 1, c], [0, 0, 1]]
        t = rng.choice([0, 1])
        i = rng.randrange(1, 26)
        if not rdc_valuation_check(f, 3, 40, t, i):
            rdc_ok = False
        triples += 1
    hand = log_m(BoundedOp.of(3, 3, [[4]]), 1).value_mod(3) == ((15,),)
    report(9, ok and rdc_ok and hand,
           "log_m congruences mod p^(m-1) for p in {3,5}, m <= 3, 200 trials each; "
           "nilpotent estimate on 100 triples; hand value 15 mod 27")


def test_c10_lambda_nnabla():
    from padiclab.rings import QRing
    rng = random.Random(110)
    p, M = 3, 30
    ok = True
    for e in (1, 2):
        E = EisensteinPoly(p, tuple([p] + [0] * (e - 1) + [1]))
        lam = kisin_lambda(E, M)
        if not lambda_residual(E, lam).is_zero() or lam.coeffs.get(0) != 1:
            ok = False
        QR = QRing(p)
        for _ in range(100):
            f = TruncSeries(QR, {k: F(rng.randrange(-9, 9)) for k in range(12)}, 14)
            if not n_nabla_commutation_defect(f, E).is_zero():
                ok = False
    report(10, ok, "(E/p) phi(lambda) = c lambda and the twisted derivation "
                   "commutation, e in {1,2}, M = 30, 100 random f each")


def test_c11_ramification():
    ok = True
    for (p, e) in ((3, 1), (3, 2), (5, 1)):
        f = ramif.phi_Kinf(e, p, 6)
        for s in range(1, 6):
            if f(1 + F(e * p ** s, p - 1)) != 1 + e * (s + F(1, p - 1)):
                ok = False
        inv = f.inverse()
        for x in (F(1), F(9, 4), F(31, 3)):
            if inv(f(x)) != x:
                ok = False
    rng = random.Random(111)
    for _ in range(200):
        p, e = rng.choice([(3, 1), (3, 2), (5, 1)])
        den = rng.randrange(1, 7)
        if not ramif.phi_Kinf_closed_form_ok(e, p, rng.randrange(1, 5),
                                             rng.randrange(0, den), den):
            ok = False
    vals = (str(ramif.bound_GK(1, 1, 1, 3, tame=True)) == "7/2"
            and ramif.bound_Ginf(1, 1, 3) == F(3, 2)
            and ramif.bound_semistable(2, 1, 1, 3) == F(8, 3))
    jumps = [(1, 9), (F(3, 2), 3), (4, 3)]
    hphi = ramif.herbrand_phi(jumps)
    hpsi = hphi.inverse()
    herb = all(hpsi(hphi(F(k, 7))) == F(k, 7) for k in range(0, 120, 3))
    report(11, ok and vals and herb,
           "breakpoint images s <= 5 for (p,e) in {(3,1),(3,2),(5,1)}, closed form, "
           "constants 7/2 / 3/2 / 8/3, inversion on all fixtures")


def test_c12_cli_determinism():
    cmd = [sys.executable, "-m", "padiclab.cli"]
    ok = True
    details = []
    for name in sorted(SUITES):
        args = cmd + ["suite", name, "--trials", "6", "--seed", "5"]
        r1 = subprocess.run(args, capture_output=True, text=True)
        r2 = subprocess.run(args, capture_output=True, text=True)
        same = r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0
        passing = same and all(x["value"] == "pass"
                               for x in json.loads(r1.stdout)["results"])
        if not passing:
            ok = False
            details.append(name)
    report(12, ok, "all 11 CLI suites byte-identical across reruns and passing"
           + (f" (failed: {details})" if details else ""))
