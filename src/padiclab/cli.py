"""Batch command surface.

Every invocation emits one machine-readable document

    {"command": ..., "config": {...},
     "results": [{"name", "value", "exact", "precision", "anchor"}, ...]}

as canonical JSON (sorted keys) or a flat CSV projection; identical
configuration and seed give byte-identical output.  Exit status 2 on
configuration errors, 1 when --strict is set and a result is
indeterminate or failing, 3 when one of the library's self-checks fails
(an internal defect, reported in one line on stderr).  A library
warning, such as a clamped bound, is one line "warning: ..." on stderr.

Start-up loads and builds only what a subcommand runs: at import this
module loads argparse, io, json and warnings from the standard library
and errors and padic from the package, and each handler imports the
rest of its modules when it is called.  main builds the parser of the
one subcommand its argv names (build_parser(argv)): all nine names, the
arguments of that one; without argv, or when no subcommand can be read
from it, every subcommand's.  WittVector, from_zmod, generate_laws and
to_zmod, names of this module, load witt on first use (PEP 562).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings

from . import Fields, padic, record
from .errors import Indeterminate, PadicLabError
from .padic import PadicInt

# sorted(suites.SUITES), named here so that build_parser loads no suite
SUITE_NAMES = ("cocycle", "existv", "fontaine", "heights", "incwitt", "lambda",
               "logm", "qanalogue", "ramif", "tau", "witt")


WITT_NAMES = ("WittVector", "from_zmod", "generate_laws", "to_zmod")


def __getattr__(name):
    """witt's names, loaded when first asked for: only `witt` runs them."""
    if name in WITT_NAMES:
        from . import witt
        return getattr(witt, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RunConfig(Fields):
    """RunConfig(**values): each flag of FIELDS, by keyword, else its
    default.  FIELDS orders the flags in --help."""

    FIELDS = (
        ("p", 3),
        ("q", 0),           # 0 means q = p
        ("e", 1),
        ("n", 1),
        ("N", 8),           # p-adic working precision
        ("M", 20),          # u-adic truncation
        ("W", 12),          # bivariate truncation: terms u^i eta^j with i + j < W
        ("wittlen", 2),
        ("D", 0),           # 0 means p - 1
        ("jmax", 4),
        ("seed", 0),
        ("trials", 100),
    )
    _fields = tuple(name for name, _ in FIELDS)

    def __init__(self, **values):
        unknown = values.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"RunConfig has no field {min(unknown)!r}")
        super().__init__(*(values.get(name, default) for name, default in self.FIELDS))

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def validate(self):
        padic.check_odd_prime(self.p)
        if self.q == 0:
            self.q = self.p
        padic.degree(self.q, self.p)
        for fname in ("e", "n", "N", "M", "W", "wittlen", "jmax", "trials"):
            if getattr(self, fname) <= 0:
                raise ValueError(f"{fname} must be positive")
        if self.D < 0:
            raise ValueError("D must be positive, or 0 for p - 1")

    @property
    def lattice_D(self):
        return self.D if self.D else self.p - 1


def _parse_config_file(path: str) -> dict:
    names = set(RunConfig._fields)
    out, first = {}, {}
    with open(path) as fh:
        for at, line in enumerate(fh, 1):
            key, eq, val = map(str.strip, line.partition("="))
            if not (key or eq) or key.startswith("#"):
                continue
            if key not in names:
                raise ValueError(f"unknown config key {key!r} in {path}")
            if key in first:
                raise ValueError(f"{path}:{at}: {key} given twice (first on line {first[key]})")
            first[key] = at
            try:
                out[key] = int(val)
            except ValueError as exc:
                raise ValueError(f"{path}:{at}: {key}: {exc}") from None
    return out


def _ints(text: str, entry=int):
    """The list "a,b,..." with each entry read by entry."""
    return [entry(t) for t in text.split(",")]


def _read(args, flag: str, parse=_ints):
    """parse(args.<flag>); a ValueError or ZeroDivisionError names --flag."""
    try:
        return parse(getattr(args, flag))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"--{flag}: {exc}") from None


def _parse_matrix(text: str, entry=int):
    """The square matrix "a,b;c,d" with each entry read by entry; the
    one check of every --matrix.  ValueError on any other shape."""
    rows = [_ints(row, entry) for row in text.split(";")]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"matrix {text!r} is not square")
    return rows


def _parse_pairs(text: str, entries=(int, int)):
    """The pairs "a,b;c,d;..." with a read by entries[0], b by entries[1];
    ValueError naming the pair when one is not two entries."""
    pairs = []
    for pair in text.split(";"):
        ab = pair.split(",")
        if len(ab) != 2:
            raise ValueError(f"{pair!r} is not two numbers a,b")
        pairs.append((entries[0](ab[0]), entries[1](ab[1])))
    return pairs


# --- subcommand handlers -> list of result dicts ---


# padic ops after valuation: op -> (function, the flags of its PadicInt
# arguments, anchor), each answering (residue, O(p^prec))
PADIC_OPS = {
    "log": (padic.log_unit, ("x",), "padic-log"),
    "exp": (padic.exp_unit, ("x",), "padic-exp"),
    "qanalogue": (padic.q_analogue, ("a", "qq"), "qanalogue"),
    "qinverse": (padic.q_analogue_inverse, ("b", "qq"), "qanalogue-inverse"),
    "chitau": (padic.chi_tau, ("chig", "qq"), "chi-tau"),
}


def _cmd_padic(args, cfg: RunConfig):
    p, N = cfg.p, cfg.N
    if args.op == "valuation":
        v = padic.valuation(PadicInt(p, N, args.x))
        return [record("valuation", "inf" if v == padic.INFINITY else int(v),
                        precision=f"O({p}^{N})", anchor="padic-valuation")]
    fn, flags, anchor = PADIC_OPS[args.op]
    r = fn(*(PadicInt(p, N, getattr(args, a)) for a in flags))
    return [record(args.op, r.residue, precision=f"O({p}^{r.prec})", anchor=anchor)]


def _cmd_witt(args, cfg: RunConfig):
    from .witt import WittVector, from_zmod, generate_laws, to_zmod
    p, n = cfg.p, cfg.wittlen
    if args.op == "laws":
        table = generate_laws(p, n)
        out = []
        for k, poly in enumerate(table.sum_polys):
            out.append(record(f"S{k}", _poly_str(poly, n), anchor="witt-laws"))
        for k, poly in enumerate(table.prod_polys):
            out.append(record(f"P{k}", _poly_str(poly, n), anchor="witt-laws"))
        return out
    from . import gf
    from .rings import FFRing
    ring = FFRing(gf.field(p))

    def vector(flag):
        """The --wittlen F_p codes of --flag; zero when it is omitted."""
        code = _field_code(ring.field)
        coords = _read(args, flag, lambda t: [code(0)] * n if t is None else _ints(t, code))
        if len(coords) != n:
            raise ValueError(f"--{flag}: {len(coords)} coordinates, --wittlen is {n}")
        return WittVector(p, ring, coords)

    if args.op in ("add", "mul"):
        x, y = vector("x"), vector("y")
        z = x + y if args.op == "add" else x * y
        return [record(args.op, [ring.field.code(c) for c in z.coords],
                        anchor="witt-ring")]
    if args.op == "tozmod":
        return [record("tozmod", to_zmod(vector("x")), anchor="witt-zmod-iso")]
    if args.op == "fromzmod":
        z = from_zmod(args.value, p, n, ring)
        return [record("fromzmod", [ring.field.code(c) for c in z.coords],
                        anchor="witt-zmod-iso")]


def _poly_str(poly, n):
    names = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    terms = []
    for mono, coeff in poly:
        vars_ = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                         for i, e in enumerate(mono) if e)
        terms.append(f"{coeff}" + (f"*{vars_}" if vars_ else ""))
    return " + ".join(terms) if terms else "0"


def _eisenstein(args, cfg):
    from .calculus import EisensteinPoly
    if args.E:
        return EisensteinPoly(cfg.p, _read(args, "E"))
    return EisensteinPoly(cfg.p, tuple([cfg.p] + [0] * (cfg.e - 1) + [1]))


def _cmd_series(args, cfg: RunConfig):
    from .rings import Zmod
    from .series import TruncSeries
    p = cfg.p
    if args.op == "lambda":
        from .calculus import kisin_lambda
        lam = kisin_lambda(_eisenstein(args, cfg), cfg.M)
        return [record(f"u^{k}", lam.coeffs.get(k, lam.ring.zero),
                       precision=f"O(u^{cfg.M})", anchor="lambda-series")
                for k in range(min(cfg.M, 12))]
    if args.op == "newton":
        from .calculus import newton_polygon
        np_ = _read(args, "points", lambda t: newton_polygon(_parse_pairs(t)))
        return [record("newton", [[str(s), m] for s, m in np_], anchor="newton-polygon")]
    if args.op == "weierstrass":
        from .calculus import weierstrass
        ring = Zmod(p, cfg.n)
        f = TruncSeries(ring, dict(enumerate(_read(args, "coeffs"))), cfg.M)
        unit, dist = weierstrass(f)
        return [
            record("distinguished", sorted(dist.coeffs.items()),
                    precision=f"O(u^{dist.prec})", anchor="weierstrass"),
            record("unit", sorted(unit.coeffs.items())[:8],
                    precision=f"O(u^{unit.prec})", anchor="weierstrass"),
        ]
    if args.op == "solvev":
        from fractions import Fraction
        from . import gf, perfseries
        U = TruncSeries(Zmod(p, cfg.n), dict(enumerate(_read(args, "coeffs"))), cfg.M)
        field = gf.field(p)
        V = perfseries.solve_frobenius_fixed(U, field, cfg.n, D=cfg.lattice_D,
                                             jmax=cfg.jmax, prec=Fraction(cfg.M))
        res = perfseries.frobenius_fixed_residual(U, V, V.ring, cfg.n)
        out = [record("residual-zero", res.is_zero(), anchor="frobenius-fixed-point")]
        for i, c in enumerate(V.coords):
            out.append(record(f"V[{i}] support", [str(e) for e, _ in c.terms()[:8]],
                               precision=f"O(u^{c.prec})", anchor="frobenius-fixed-point"))
        return out


def _cmd_phimod(args, cfg: RunConfig):
    from . import phimod
    from .rings import module_ring
    from .series import TruncSeries
    p, q, M = cfg.p, cfg.q, cfg.M
    ring = module_ring(p, q, cfg.n)
    if args.op == "cyclotomic":
        E = _eisenstein(args, cfg)
        mod = phimod.cyclotomic_module(args.m, cfg.n, E, q=q, prec=M)
        out = [record("etale", phimod.is_etale(mod), anchor="cyclotomic-module")]
        if cfg.n == 1 and args.m >= 0:
            out.append(record("uheight", phimod.u_height(phimod.PhiLattice(mod)),
                               anchor="cyclotomic-height"))
        return out
    # a coefficient is an F_q code at n = 1, a residue mod p^n at n >= 2
    coeff = _field_code(ring.field) if cfg.n == 1 else lambda t: ring.of_int(int(t))

    def series(entry):
        """An entry of --matrix: its coefficients "c0:c1:...", low degree first."""
        return TruncSeries(ring, {e: coeff(c) for e, c in enumerate(entry.split(":"))}, M)

    mod = phimod.PhiModule(p, q, cfg.n, _read(args, "matrix", lambda t: _parse_matrix(t, series)))
    if args.op == "etale":
        return [record("etale", phimod.is_etale(mod), anchor="etale-test")]
    if args.op == "uheight":
        h = phimod.u_height(phimod.PhiLattice(mod))
        return [record("uheight", h, anchor="uheight")]
    if args.op == "heightdiv":
        U = TruncSeries(ring, dict(enumerate(_read(args, "U", lambda t: _ints(t, coeff)))), M)
        try:
            r = phimod.height_divides(mod, U)
            return [record("height-divides", r, anchor="height-divides")]
        except Indeterminate as exc:
            return [record("height-divides", f"indeterminate: {exc}", exact=False,
                            precision=f"O(u^{M})", anchor="height-divides")]
    if args.op == "stabilize":
        L = phimod.stabilize_lattice(mod)
        return [record("stable-basis-valuation",
                        L.basis[0][0].valuation(), anchor="stabilize-lattice")]


def _field_code(field):
    """The reader of an F_q code, an int or its text."""
    def read(code):
        if not 0 <= (code := int(code)) < field.order:
            raise ValueError(f"entry {code} is not an F_{field.order} code")
        return field.from_code(code)
    return read


def _cmd_galois(args, cfg: RunConfig):
    from . import galrep
    from .rings import module_ring
    from .series import TruncSeries
    p, q = cfg.p, cfg.q
    ring = module_ring(p, q, 1)
    field = ring.field
    if args.op == "solve":
        G = [[TruncSeries(ring, {0: c}, cfg.M) for c in row]
             for row in _read(args, "matrix", lambda t: _parse_matrix(t, _field_code(field)))]
        S = galrep.solve_unit_root(G)
        act = galrep.frobenius_action(S)
        return [
            record("solutions", S.cardinality, anchor="modp-functor-cardinality"),
            record("extension-degree", S.s, anchor="modp-functor"),
            record("action", str(act.matrix), anchor="unramified-action"),
            record("charpoly", list(act.char_poly()), anchor="unramified-action"),
        ]
    if args.op == "rank1":
        from fractions import Fraction
        S = galrep.solve_rank1(args.a, _read(args, "c", _field_code(field)), field, prec=cfg.M)
        return [
            record("solutions", S.cardinality, anchor="rank1-solutions"),
            record("tame-exponent", str(Fraction(args.a, p - 1)),
                    anchor="rank1-tame-character"),
        ]


def _cmd_logm(args, cfg: RunConfig):
    from . import logtrunc
    p, N = cfg.p, cfg.N
    A = logtrunc.BoundedOp.of(p, N, _read(args, "matrix", _parse_matrix))
    if args.op == "value":
        L = logtrunc.log_m(A, args.m)
        return [record("logm", L.value_mod(L.certified),
                        precision=f"O({p}^{L.certified})", anchor="logm-value")]
    if args.op == "bounded":
        return [record("bounded", logtrunc.is_bounded(A, args.m, args.c),
                        anchor="lambda-bounded")]
    if args.op == "rdc":
        r = logtrunc.rdc_valuation_check(_read(args, "matrix", _parse_matrix), p, N,
                                         args.t, args.i)
        return [record("rdc", r, anchor="nilpotent-log-estimate")]


def _cmd_ramif(args, cfg: RunConfig):
    from fractions import Fraction
    from . import ramif
    p, e, n = cfg.p, cfg.e, cfg.n
    if args.op == "bound-gk":
        b = ramif.bound_GK(args.h, n, e, p, s0=args.s0, c0=args.c0,
                           tame=args.tame, refined=args.refined)
        return [record("bound", b, exact=b.is_exact(), anchor="bound-gk")]
    if args.op == "bound-ginf":
        return [record("bound", ramif.bound_Ginf(args.h, n, p), anchor="bound-ginf")]
    if args.op == "bound-sst":
        return [record("bound", ramif.bound_semistable(args.r, n, e, p),
                        anchor="bound-semistable")]
    if args.op == "bound-converse":
        thr, hb = ramif.bound_converse(args.h, e, p)
        return [record("threshold", thr, exact=thr.is_exact(), anchor="bound-converse"),
                record("height-bound", hb, anchor="bound-converse")]
    if args.op == "bound-tau":
        return [record("s0", ramif.bound_tau_congruence(args.h, args.cprime, p),
                        anchor="tau-congruence-depth")]
    if args.op == "gamma":
        return [record("depth", ramif.gamma_lower_bound(args.s, e, args.c0 or 0),
                        anchor="gamma-depth")]
    if args.op == "phi-kinf":
        f = ramif.phi_Kinf(e, p, args.s)
        return [record("vertices", [[str(a), str(b)] for a, b in f.vertices],
                        anchor="phi-kinf"),
                record("final-slope", f.final_slope, anchor="phi-kinf")]
    if args.op == "herbrand":
        def order(text):
            if (o := Fraction(text)).denominator != 1:
                raise ValueError(f"group order {o} is not an integer")
            return o
        f = _read(args, "jumps", lambda t: ramif.herbrand_phi(_parse_pairs(t, (Fraction, order))))
        return [record("vertices", [[str(a), str(b)] for a, b in f.vertices],
                        anchor="herbrand"),
                record("concave", f.is_concave(), anchor="herbrand")]


def _cmd_tau(args, cfg: RunConfig):
    import random as _random

    from . import taumod
    M = taumod.cycle_module(cfg.p, cfg.N, cfg.W)
    if args.op == "order":
        return [record("order-exponent", M.tau_order_exponent(), anchor="tau-order")]
    if args.op == "commutation":
        bad = taumod.commutation_failures(M, cfg.trials, _random.Random(cfg.seed))
        return [record("commutation-failures", bad, anchor="tau-commutation")]


def _cmd_suite(args, cfg: RunConfig):
    from . import suites
    kwargs = {}
    if args.name == "logm":
        kwargs = {"p": cfg.p, "m": 2 if args.m is None else args.m}
    elif args.m is not None:
        raise ValueError(f"--m: only suite logm reads it, not suite {args.name}")
    return suites.run_suite(args.name, cfg.trials, cfg.seed, **kwargs)


# ---------------------------------------------------------------------------


def _padic_args(sp):
    sp.add_argument("op", choices=["valuation", *PADIC_OPS])
    sp.add_argument("--x", type=int, default=0)
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--b", type=int, default=0)
    sp.add_argument("--qq", type=int, default=1, help="the unit q")
    sp.add_argument("--chig", type=int, default=1)
    sp.set_defaults(func=_cmd_padic)


def _witt_args(sp):
    sp.add_argument("op", choices=["laws", "add", "mul", "tozmod", "fromzmod"])
    sp.add_argument("--x", help="--wittlen F_p codes c0,c1,...; zero when omitted")
    sp.add_argument("--y", help="--wittlen F_p codes c0,c1,...; zero when omitted")
    sp.add_argument("--value", type=int, default=0)
    sp.set_defaults(func=_cmd_witt)


def _series_args(sp):
    sp.add_argument("op", choices=["lambda", "newton", "weierstrass", "solvev"])
    sp.add_argument("--E", default="", help="Eisenstein coefficients low..high")
    sp.add_argument("--points", default="", help="i,v;i,v;... pairs")
    sp.add_argument("--coeffs", default="0", help="series coefficients low..high")
    sp.set_defaults(func=_cmd_series)


def _phimod_args(sp):
    sp.add_argument("op", choices=["etale", "uheight", "heightdiv", "stabilize",
                                   "cyclotomic"])
    sp.add_argument("--matrix", default="1",
                    help="series entries c0:c1:...; coefficients are F_q codes "
                         "at n = 1, residues mod p^n at n >= 2")
    sp.add_argument("--U", default="1", help="coefficients of U for heightdiv, "
                                             "read as --matrix coefficients")
    sp.add_argument("--m", type=int, default=1, help="cyclotomic twist")
    sp.add_argument("--E", default="")
    sp.set_defaults(func=_cmd_phimod)


def _galois_args(sp):
    sp.add_argument("op", choices=["solve", "rank1"])
    sp.add_argument("--matrix", default="1", help="constant F_q matrix, codes")
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--c", type=int, default=1, help="nonzero F_q code")
    sp.set_defaults(func=_cmd_galois)


def _tau_args(sp):
    sp.add_argument("op", choices=["order", "commutation"])
    sp.set_defaults(func=_cmd_tau)


def _logm_args(sp):
    sp.add_argument("op", choices=["value", "bounded", "rdc"])
    sp.add_argument("--matrix", default="1")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--c", type=int, default=0)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--i", type=int, default=1)
    sp.set_defaults(func=_cmd_logm)


def _ramif_args(sp):
    sp.add_argument("op", choices=["bound-gk", "bound-ginf", "bound-sst",
                                   "bound-converse", "bound-tau", "gamma",
                                   "phi-kinf", "herbrand"])
    sp.add_argument("--h", type=int, default=1)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--s", type=int, default=3)
    sp.add_argument("--s0", type=int, default=None)
    sp.add_argument("--c0", type=int, default=None)
    sp.add_argument("--cprime", type=int, default=0)
    sp.add_argument("--tame", action="store_true")
    sp.add_argument("--refined", action="store_true")
    sp.add_argument("--jumps", default="1,3")
    sp.set_defaults(func=_cmd_ramif)


def _suite_args(sp):
    sp.add_argument("name", choices=SUITE_NAMES)
    sp.add_argument("--m", type=int, default=None)
    sp.set_defaults(func=_cmd_suite)


# each subcommand and the function that fills its parser, in --help order
COMMANDS = {"padic": _padic_args, "witt": _witt_args, "series": _series_args,
            "phimod": _phimod_args, "galois": _galois_args, "tau": _tau_args,
            "logm": _logm_args, "ramif": _ramif_args, "suite": _suite_args}

def _command(argv, valued):
    """The subcommand that argv names, as argparse reads it: the first
    word that is neither a flag nor the value of one of the top-level
    flags valued, which take the next word unless written --flag=value.
    None when there is no argv, or the word is no subcommand or follows --."""
    words = iter(argv or ())
    for word in words:
        if word == "--":
            return None
        if not word.startswith("-"):
            return word if word in COMMANDS else None
        if word in valued:
            next(words, None)
    return None


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given the argv of one
    command, a parser that reads that argv alike and fills only the
    subcommand it names: the other subparsers keep their names, so the
    top-level help and errors are the same, and stay empty."""
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--config", help="key=value config file; flags override")
    shared.add_argument("--out", help="write the document to FILE instead of stdout")
    shared.add_argument("--format", choices=("json", "csv"))
    shared.add_argument("--strict", action="store_true",
                        help="exit 1 on indeterminate or failing results")
    for name in RunConfig._fields:
        shared.add_argument(f"--{name}", type=int)
    # no abbreviations anywhere: they read ramif's --s as --strict, tau's --c as --config
    top = argparse.ArgumentParser(prog="padiclab", parents=[shared], allow_abbrev=False,
                                  description="exact p-adic semilinear algebra, batch mode")
    sub = top.add_subparsers(dest="command", required=True)
    named = _command(argv, {opt for a in shared._actions if a.nargs != 0
                            for opt in a.option_strings})
    for name, fill in COMMANDS.items():
        if named in (None, name):
            fill(sub.add_parser(name, parents=[shared], allow_abbrev=False))
        else:
            sub.add_parser(name, add_help=False, allow_abbrev=False)
    return top


def _emit(doc: dict, fmt: str, out: str | None) -> str:
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        buf.write("name,value,exact,precision,anchor\n")
        for r in doc["results"]:
            vals = [str(r[k]).replace(",", ";") for k in
                    ("name", "value", "exact", "precision", "anchor")]
            buf.write(",".join(vals) + "\n")
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    strict = getattr(args, "strict", False)
    try:
        base = {}
        if getattr(args, "config", None):
            base.update(_parse_config_file(args.config))
        for name in RunConfig._fields:
            v = getattr(args, name, None)
            if v is not None:
                base[name] = v
        cfg = RunConfig(**base)
        cfg.validate()
    except (ValueError, OSError, TypeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            results = args.func(args, cfg)
        for w in caught:
            sys.stderr.write(f"warning: {w.message}\n")
    except PadicLabError as exc:
        results = [record("error", f"{type(exc).__name__}: {exc}", exact=False,
                           precision="n/a", anchor="error")]
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except Exception as exc:
        # the library's own checks raise ArithmeticError: a defect, not
        # bad input, as is any other exception that gets this far
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    doc = {"command": args.command + " " + getattr(args, "op", getattr(args, "name", "")),
           "config": cfg.as_dict(), "results": results}
    try:
        _emit(doc, fmt, out)
    except OSError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return 2
    if strict and any((not r["exact"]) or str(r["value"]).startswith("FAIL")
                      or r["anchor"] == "error" for r in results):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
