"""Seeded property suites over the whole library.

Each suite draws its randomness from one Random(seed) and emits a list
of result records {name, value, exact, precision, anchor}; rerunning
with the same configuration and seed reproduces the records byte for
byte.  The CLI exposes them under `padiclab suite <name>`.  Each suite
imports the modules it runs when it is called, so a process that runs
one suite loads no other suite's modules.
"""

from __future__ import annotations

import random

from . import record


def _passfail(name, ok, detail, anchor):
    return record(name, "pass" if ok else f"FAIL: {detail}", True, "exact", anchor)


def run_qanalogue(trials: int, seed: int):
    from . import padic
    from .padic import PadicInt
    rng = random.Random(seed)
    prec = 8
    bad = 0
    for _ in range(trials):
        p = rng.choice([3, 5, 7])
        w = rng.choice([1, 1, 1, 2])
        unit = rng.randrange(1, p ** (prec - w))
        if unit % p == 0:
            unit += 1
        q = PadicInt(p, prec, 1 + p ** w * unit)
        a = PadicInt(p, prec, rng.randrange(p ** prec))
        b = PadicInt(p, prec, rng.randrange(p ** prec))
        qa = padic.q_analogue(a, q)
        back = padic.q_analogue_inverse(qa, q)
        if back != a.lower_precision(back.prec):
            bad += 1
            continue
        if (qa - a).residue % p != 0:
            bad += 1
            continue
        va = (a - 1).lower_precision(qa.prec).valuation()
        vq = (qa - 1).valuation()
        if va != vq:
            bad += 1
            continue
        lhs = padic.q_analogue(a + b, q)
        rhs = padic.q_analogue(a, q) + padic.pow_unit(q, a) * padic.q_analogue(b, q)
        if lhs != rhs:
            bad += 1
    return [_passfail(f"qanalogue bijection+cocycle x{trials}", bad == 0,
                      f"{bad} failures", "qanalogue-roundtrip")]


def run_cocycle(trials: int, seed: int):
    from . import gskel
    rng = random.Random(seed)
    p, prec = 3, 8

    def rand_elt():
        chi = rng.randrange(1, p ** prec)
        while chi % p == 0:
            chi = rng.randrange(1, p ** prec)
        return gskel.elt(p, prec, rng.randrange(p ** prec), chi)

    bad_mul = bad_rel = bad_alt = 0
    tau = gskel.elt(p, prec, 1, 1 + p * rng.randrange(p ** (prec - 2)))
    tau1 = gskel.elt(p, prec, 1, 1)
    for _ in range(trials):
        g, h, k = rand_elt(), rand_elt(), rand_elt()
        if gskel.mul(gskel.mul(g, h), k).c != gskel.mul(g, gskel.mul(h, k)).c:
            bad_mul += 1
        lhs = gskel.mul(g, h)
        if lhs.c != g.c + g.chi * h.c:
            bad_mul += 1
        gi = gskel.elt(p, prec, 0, g.chi.residue)
        a = gskel.chi_tau(gi, tau)
        rel = gskel.mul(gskel.pow(tau, a), gskel.conj_into_Ginf(gi, tau))
        direct = gskel.mul(gi, tau)
        if rel.c != direct.c or rel.chi != direct.chi:
            bad_rel += 1
        # alternate presentation with the chi(tau) = 1 fixture
        x, y = rand_elt(), rand_elt()
        ax, gx = gskel.decompose(x, tau1)
        ay, gy = gskel.decompose(y, tau1)
        a_new = ax + ay * gx.chi
        psi_b_gx = gskel.mul(gskel.mul(gskel.pow(tau1, -(ay * gx.chi)), gx),
                             gskel.pow(tau1, ay))
        combined = gskel.mul(gskel.pow(tau1, a_new), gskel.mul(psi_b_gx, gy))
        direct2 = gskel.mul(x, y)
        if combined.c != direct2.c or combined.chi != direct2.chi:
            bad_alt += 1
    return [
        _passfail(f"cocycle law x{trials}", bad_mul == 0, f"{bad_mul}", "cocycle-law"),
        _passfail(f"extension relation x{trials}", bad_rel == 0, f"{bad_rel}",
                  "tau-conjugation"),
        _passfail(f"semidirect presentation x{trials}", bad_alt == 0, f"{bad_alt}",
                  "semidirect-law"),
    ]


def run_witt(trials: int, seed: int):
    from . import gf, witt
    from .rings import FFRing, IntRing
    rng = random.Random(seed)
    out = []
    for (p, n) in ((3, 2), (3, 3), (5, 2)):
        ring = FFRing(gf.field(p))
        ok = True
        for a in range(p ** n):
            for b in range(p ** n):
                wa = witt.from_zmod(a, p, n, ring)
                wb = witt.from_zmod(b, p, n, ring)
                if witt.to_zmod(wa + wb) != (a + b) % p ** n:
                    ok = False
                if witt.to_zmod(wa * wb) != (a * b) % p ** n:
                    ok = False
        out.append(_passfail(f"W_{n}(F_{p}) = Z/{p}^{n} exhaustive", ok, "iso",
                             "witt-zmod-iso"))
    zint = IntRing()
    bad = 0
    for _ in range(trials):
        x = witt.WittVector(3, zint, [rng.randrange(200) for _ in range(2)])
        y = witt.WittVector(3, zint, [rng.randrange(200) for _ in range(2)])
        gs = witt.ghost_components(x + y)
        gx, gy = witt.ghost_components(x), witt.ghost_components(y)
        if any(a != b + c for a, b, c in zip(gs, gx, gy)):
            bad += 1
        gm = witt.ghost_components(x * y)
        if any(a != b * c for a, b, c in zip(gm, gx, gy)):
            bad += 1
    out.append(_passfail(f"ghost additivity/multiplicativity x{trials}", bad == 0,
                         f"{bad}", "witt-ghost"))
    return out


def incwitt_fixture():
    """U = u(1+u) over Z/9, V with phi(V)=UV, and Z = UV."""
    from fractions import Fraction
    from . import gf, perfseries
    from .rings import Zmod
    from .series import TruncSeries
    p, n, prec, jmax = 3, 2, Fraction(12), 4
    field = gf.field(p)
    U = TruncSeries(Zmod(p, n), {1: 1, 2: 1}, int(prec))
    V = perfseries.solve_frobenius_fixed(U, field, n, jmax=jmax, prec=prec)
    ring = perfseries.PerfRing(field, p - 1, jmax, prec)
    Z = perfseries.zmod_series_to_witt(U, ring, n) * V
    return field, ring, Z


def run_incwitt(trials: int, seed: int):
    from fractions import Fraction
    from . import perfseries, witt
    from .errors import NotDivisible
    rng = random.Random(seed)
    p, n, h = 3, 2, 1
    field, ring, Z = incwitt_fixture()
    m = Fraction(h * p ** n, p - 1)
    lat = (p - 1) * p ** ring.jmax
    pos = neg = 0
    for _ in range(trials):
        coords = []
        for _ in range(n):
            c = {Fraction(rng.randrange(int(m * lat) + 1, int((m + 4) * lat)), lat):
                 field.random(rng) for _ in range(6)}
            coords.append(perfseries.PerfSeries(field, p - 1, ring.jmax, c, ring.prec))
        x = witt.WittVector(p, ring, coords)
        try:
            y = witt.witt_divide(x, Z)
            if (Z * y) == x and witt.in_maximal_ideal(y):
                pos += 1
        except NotDivisible:
            pass
    for _ in range(trials):
        coords = []
        for _ in range(n):
            lo = rng.randrange(1, int((m - 1) * lat) - 1)
            c = {Fraction(lo, lat): field.random_nonzero(rng)}
            for _ in range(4):
                c[Fraction(rng.randrange(lo, int((m + 2) * lat)), lat)] = field.random(rng)
            coords.append(perfseries.PerfSeries(field, p - 1, ring.jmax, c, ring.prec))
        x = witt.WittVector(p, ring, coords)
        try:
            y = witt.witt_divide(x, Z)
            if not witt.in_maximal_ideal(y):
                neg += 1
        except NotDivisible:
            neg += 1
    return [
        _passfail(f"deep vectors divisible x{trials}", pos == trials, f"{pos}",
                  "wittideal-inclusion"),
        _passfail(f"shallow vectors rejected x{trials}", neg == trials, f"{neg}",
                  "wittideal-negative"),
    ]


def run_existv(trials: int, seed: int):
    from fractions import Fraction
    from . import gf, perfseries, witt
    from .rings import Zmod
    from .series import TruncSeries
    rng = random.Random(seed)
    out = []
    for (p, n) in ((3, 2), (5, 1)):
        field = gf.field(p)
        bad = 0
        for _ in range(trials):
            e = rng.choice([1, 2])
            coeffs = [p * rng.randrange(1, p)] + \
                     [p * rng.randrange(p) for _ in range(e - 1)] + [1]
            U = TruncSeries(Zmod(p, n), dict(enumerate(coeffs)), 10)
            V = perfseries.solve_frobenius_fixed(U, field, n, jmax=6, prec=Fraction(10))
            ring = perfseries.PerfRing(field, p - 1, 6, Fraction(10))
            res = perfseries.frobenius_fixed_residual(U, V, ring, n)
            if not all(c.is_zero() for c in res.coords):
                bad += 1
                continue
            V2 = witt.from_int(rng.randrange(1, p), p, n, ring) * V
            res2 = perfseries.frobenius_fixed_residual(U, V2, ring, n)
            if not all(c.is_zero() for c in res2.coords):
                bad += 1
        out.append(_passfail(f"phi(V)=UV residuals (p={p},n={n}) x{trials}", bad == 0,
                             f"{bad}", "frobenius-fixed-point"))
    return out


def run_fontaine(trials: int, seed: int):
    from . import galrep, gf, matrix
    from .rings import FFRing
    from .series import TruncSeries
    rng = random.Random(seed)
    fields = [FFRing(gf.field(3)), FFRing(gf.field(3, 2))]
    bad_card = bad_lin = 0
    for _ in range(trials):
        d = rng.choice([1, 2, 3])
        base = rng.choice(fields)
        while True:
            G = [[TruncSeries(base, {e: base.field.random(rng) for e in range(6)}, 20)
                  for _ in range(d)] for _ in range(d)]
            try:
                galrep.ff_mat_inv(galrep._residue_matrix(G))
                break
            except ZeroDivisionError:
                continue
        S = galrep.solve_unit_root(G)
        if S.cardinality != 3 ** d:
            bad_card += 1
            continue
        sols = S.solutions()
        s1, s2 = rng.choice(sols), rng.choice(sols)
        summed = tuple(a + b for a, b in zip(s1, s2))
        if not any(all((x - y).is_zero() for x, y in zip(summed, t)) for t in sols):
            bad_lin += 1
    bad_rt = 0
    for _ in range(max(trials // 2, 5)):
        d = rng.choice([1, 2])
        while True:
            A = [[rng.randrange(3) for _ in range(d)] for _ in range(d)]
            if matrix.det(A) % 3:
                break
        act = galrep.frobenius_action(galrep.solve_unit_root(galrep.unramified_to_phimod(A, 3)))
        if galrep.charpoly_mod_p(act.matrix, 3) != galrep.charpoly_mod_p(A, 3):
            bad_rt += 1
    return [
        _passfail(f"|T(M)| = p^d x{trials}", bad_card == 0, f"{bad_card}",
                  "modp-functor-cardinality"),
        _passfail("F_p-linearity of solutions", bad_lin == 0, f"{bad_lin}",
                  "modp-functor-linearity"),
        _passfail("unramified round trip char poly", bad_rt == 0, f"{bad_rt}",
                  "unramified-roundtrip"),
    ]


def run_heights(trials: int, seed: int):
    from . import gf, phimod
    from .calculus import EisensteinPoly
    from .rings import FFRing
    from .series import TruncSeries
    rng = random.Random(seed)
    M = 24
    r3 = FFRing(gf.field(3))
    bad = 0
    for _ in range(trials):
        d = rng.choice([1, 2])
        while True:
            W = [[TruncSeries(r3, {e: r3.field.random(rng) for e in range(6)}, M)
                  for _ in range(d)] for _ in range(d)]
            for i in range(d):
                W[i][i] = W[i][i] + TruncSeries.one(r3, M)
            if phimod.mat_det(W).valuation() == 0:
                break
        D = [[TruncSeries.monomial(r3, rng.randrange(4), r3.one, M) if i == j
              else TruncSeries.zero(r3, M) for j in range(d)] for i in range(d)]
        L = phimod.PhiLattice(phimod.PhiModule(3, 3, 1, phimod.mat_mul(D, W)))
        h_snf = phimod.u_height(L)
        h_oracle = None
        for h in range(7):
            if phimod.height_divides(L, TruncSeries.monomial(r3, h, r3.one, M)):
                h_oracle = h
                break
        if h_snf != h_oracle:
            bad += 1
    E = EisensteinPoly(3, (3, 0, 1))
    c1 = phimod.cyclotomic_module(1, 1, E)
    cyc_ok = phimod.u_height(phimod.PhiLattice(c1)) == E.e
    return [
        _passfail(f"SNF height = membership height x{trials}", bad == 0, f"{bad}",
                  "uheight-oracle"),
        _passfail("cyclotomic(1) has u-height e", cyc_ok, "", "cyclotomic-height"),
    ]


def run_tau(trials: int, seed: int):
    from . import gskel, taumod
    rng = random.Random(seed)
    p, N, W = 3, 8, 12
    M = taumod.cycle_module(p, N, W)
    bad = taumod.commutation_failures(M, trials, rng)
    mut = not taumod.check_commutation(taumod.corrupted(M), gskel.elt(p, N, 0, 4),
                                       taumod.sample_element(M, rng))
    return [
        _passfail(f"tau-commutation x{trials}", bad == 0, f"{bad}", "tau-commutation"),
        _passfail("mutated tau-matrix detected", mut, "", "tau-mutation-control"),
    ]


def run_logm(trials: int, seed: int, p: int = 3, m: int = 2):
    from . import logtrunc
    rng = random.Random(seed)
    N = m + 6
    mod = p ** N
    bad_mult = bad_cont = bad_puis = 0
    for _ in range(trials):
        d = rng.choice([1, 2, 3])
        base = logtrunc.BoundedOp.of(
            p, N, [[(1 if i == j else 0) + p * rng.randrange(p ** (N - 1))
                    for j in range(d)] for i in range(d)])
        j, k = rng.randrange(1, 6), rng.randrange(1, 6)
        a = logtrunc.BoundedOp.of(p, N, logtrunc.mpow(base.mat, j, mod))
        b = logtrunc.BoundedOp.of(p, N, logtrunc.mpow(base.mat, k, mod))
        ab = logtrunc.BoundedOp.of(p, N, logtrunc.mmul(a.mat, b.mat, mod))
        la, lb, lab = logtrunc.log_m(a, m), logtrunc.log_m(b, m), logtrunc.log_m(ab, m)
        if m > 1 and not logtrunc.congruent_mod(lab, la.add(lb), m - 1):
            bad_mult += 1
        pert = logtrunc.mscale(logtrunc.mpow(a.mat, rng.randrange(3), mod),
                               p ** m * rng.randrange(p), mod)
        b2 = logtrunc.BoundedOp.of(p, N, logtrunc.madd(a.mat, pert, mod))
        if m > 1 and not logtrunc.congruent_mod(la, logtrunc.log_m(b2, m), m - 1):
            bad_cont += 1
        nexp = rng.choice(list(range(p ** m + 1)) + [1 + p ** 2])
        an = logtrunc.BoundedOp.of(p, N, logtrunc.mpow(a.mat, nexp, mod))
        if m > 1 and not logtrunc.congruent_mod(logtrunc.log_m(an, m),
                                                la.scale_int(nexp), m - 1):
            bad_puis += 1
    hand = logtrunc.log_m(logtrunc.BoundedOp.of(3, 3, [[4]]), 1)
    hand_ok = hand.value_mod(3)[0][0] == 15
    f = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    rdc_ok = all(logtrunc.rdc_valuation_check(f, 3, 8, 1, i) for i in range(1, 7))

    def congruence(name, bad, anchor):
        name = f"{name} mod p^{m - 1} x{trials}"
        if m > 1:
            return _passfail(name, bad == 0, f"{bad}", anchor)
        return record(name, "skipped: congruence mod p^(m-1) is vacuous", True, "exact", anchor)

    return [
        congruence("log additivity", bad_mult, "logm-multiplicative"),
        congruence("log continuity", bad_cont, "logm-continuity"),
        congruence("log of powers", bad_puis, "logm-powers"),
        _passfail("hand value log_1((4)) = 15 mod 27", hand_ok, "", "logm-hand-value"),
        _passfail("nilpotent valuation estimate", rdc_ok, "", "nilpotent-log-estimate"),
    ]


def run_lambda(trials: int, seed: int):
    from fractions import Fraction
    from .calculus import EisensteinPoly, kisin_lambda, lambda_residual, \
        n_nabla_commutation_defect
    from .rings import QRing
    from .series import TruncSeries
    rng = random.Random(seed)
    p, M = 3, 30
    out = []
    for e in (1, 2):
        E = EisensteinPoly(p, tuple([p] + [0] * (e - 1) + [1]))
        lam = kisin_lambda(E, M)
        res_ok = lambda_residual(E, lam).is_zero() and lam.coeffs.get(0) == 1
        bad = 0
        QR = QRing(p)
        for _ in range(trials):
            f = TruncSeries(QR, {k: Fraction(rng.randrange(-9, 9))
                                 for k in range(0, 12)}, 14)
            if not n_nabla_commutation_defect(f, E).is_zero():
                bad += 1
        out.append(_passfail(f"lambda fixed point (e={e})", res_ok, "", "lambda-identity"))
        out.append(_passfail(f"derivation twisted commutation (e={e}) x{trials}",
                             bad == 0, f"{bad}", "nnabla-commutation"))
    return out


def run_ramif(trials: int, seed: int):
    from fractions import Fraction
    from . import ramif
    rng = random.Random(seed)
    checks = [
        ("bound-gk tame(3,1,1,1)", str(ramif.bound_GK(1, 1, 1, 3, tame=True)), "7/2"),
        ("bound-ginf(1,1,3)", str(ramif.bound_Ginf(1, 1, 3)), "3/2"),
        ("bound-sst(2,1,1,3)", str(ramif.bound_semistable(2, 1, 1, 3)), "8/3"),
    ]
    out = [_passfail(nm, got == want, f"{got} != {want}", "ramif-constants")
           for nm, got, want in checks]
    ok_break = True
    for (p, e) in ((3, 1), (3, 2), (5, 1)):
        phi = ramif.phi_Kinf(e, p, 6)
        for s in range(1, 6):
            lam = 1 + Fraction(e * p ** s, p - 1)
            if phi(lam) != 1 + e * (s + Fraction(1, p - 1)):
                ok_break = False
    out.append(_passfail("breakpoint images", ok_break, "", "phi-kinf-breakpoints"))
    bad = 0
    jumps = [(1, 9), (Fraction(3, 2), 3), (3, 3)]
    hphi = ramif.herbrand_phi(jumps)
    hpsi = hphi.inverse()
    for _ in range(trials):
        x = Fraction(rng.randrange(0, 500), rng.randrange(1, 50))
        if hpsi(hphi(x)) != x or hphi(hpsi(x)) != x:
            bad += 1
    out.append(_passfail(f"herbrand inversion x{trials}", bad == 0, f"{bad}",
                         "herbrand-inverse"))
    return out


SUITES = {
    "qanalogue": run_qanalogue,
    "cocycle": run_cocycle,
    "witt": run_witt,
    "incwitt": run_incwitt,
    "existv": run_existv,
    "fontaine": run_fontaine,
    "heights": run_heights,
    "tau": run_tau,
    "logm": run_logm,
    "lambda": run_lambda,
    "ramif": run_ramif,
}


def run_suite(name: str, trials: int, seed: int, **kw):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](trials, seed, **kw)
