"""The library's value classes against the dataclasses they replaced,
kept here as references.

Each reference is the old definition: its fields in order, defaults,
__post_init__ checks and the __eq__, __hash__ and __repr__ it wrote
itself.  For every class, equal and unequal arguments give the same ==
as the reference, the same repr and the same refusals of bad input;
frozen classes give the same hash (or the same TypeError) and refuse
assignment and deletion; RunConfig keeps the field order, defaults and
dict of the reference, which set the order of its flags in --help and
the keys of a document's "config".  The ring adapters compare as the
__eq__ each once wrote itself, kept here as functions.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction as F

import pytest

from padiclab import (calculus, cli, galrep, gf, gskel, logtrunc, padic, perfseries, ramif,
                      rings, taumod, witt)
from padiclab.errors import PrecisionError
from padiclab.padic import check_odd_prime

# --- the references ----------------------------------------------------


@dataclass
class RunConfig:
    p: int = 3
    q: int = 0          # 0 means q = p
    e: int = 1
    n: int = 1
    N: int = 8          # p-adic working precision
    M: int = 20         # u-adic truncation
    W: int = 12         # bivariate truncation: terms u^i eta^j with i + j < W
    wittlen: int = 2
    D: int = 0          # 0 means p - 1
    jmax: int = 4
    seed: int = 0
    trials: int = 100


@dataclass(frozen=True)
class PadicInt:
    p: int
    prec: int
    residue: int

    def __post_init__(self):
        check_odd_prime(self.p)
        if self.prec < 1:
            raise PrecisionError("precision exhausted")
        object.__setattr__(self, "residue", self.residue % self.p ** self.prec)

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.p, self.prec, other)
        if not isinstance(other, PadicInt) or other.p != self.p:
            return NotImplemented
        n = min(self.prec, other.prec)
        q = self.p ** n
        return self.residue % q == other.residue % q

    def __hash__(self):
        return hash((self.p, self.residue % self.p))

    def __repr__(self):
        return f"{self.residue} + O({self.p}^{self.prec})"


@dataclass(frozen=True)
class WittLawTable:
    p: int
    n: int
    sum_polys: tuple
    prod_polys: tuple
    frob_polys: tuple


@dataclass(frozen=True)
class GaloisElt:
    c: padic.PadicInt
    chi: padic.PadicInt

    def __post_init__(self):
        if self.c.p != self.chi.p:
            raise ValueError("mismatched primes")
        if not self.chi.is_unit():
            raise ValueError("chi must be a unit")

    def __repr__(self):
        return f"({self.c.residue}, {self.chi.residue})@{self.c.p}^{min(self.c.prec, self.chi.prec)}"


@dataclass(frozen=True)
class BoundedOp:
    p: int
    prec: int
    mat: tuple


@dataclass(frozen=True)
class ScaledMatrix:
    p: int
    mat: tuple
    scale: int
    certified: int


@dataclass(frozen=True)
class PLFunction:
    vertices: tuple
    final_slope: F

    def __post_init__(self):
        xs = [v[0] for v in self.vertices]
        if not xs:
            raise ValueError("need at least one vertex")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("vertex abscissas must increase strictly")

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self.vertices == other.vertices and self.final_slope == other.final_slope


@dataclass(frozen=True)
class BoundExpr:
    r0: F
    r1: F
    x: F
    p: int


@dataclass(frozen=True)
class PhiTauModP:
    p: int
    d: int
    G: list
    T: list
    tau: gskel.GaloisElt
    order_cap: int = 6


@dataclass
class SolutionSet:
    base_field: gf.GF
    field: gf.GF
    s: int
    d: int
    prec: int
    basis: list
    all: list = field(default=None, compare=False, repr=False)   # a cache, not a value


@dataclass
class GaloisActionRep:
    p: int
    matrix: list


# --- the arguments -------------------------------------------------------
# Each function returns argument tuples, built afresh on every call: the
# first, then each field of the first changed in turn (more than once
# where the class reads it specially).


def _elt(p, prec, c, chi):
    return gskel.GaloisElt(padic.PadicInt(p, prec, c), padic.PadicInt(p, prec, chi))


def padic_args():
    return [(3, 4, 7), (5, 4, 7), (3, 2, 7), (3, 4, 8), (3, 4, 7 + 81), (3, 4, 10), (3, 6, 7)]


def witt_args():
    base = (3, 2, (((1, 0), 1),), (((0, 1), 2),), (((2,), 1),))
    return [base, (5, *base[1:]), (3, 3, *base[2:]), (*base[:2], (), *base[3:]),
            (*base[:3], (((1, 1), 1),), base[4]), (*base[:4], ())]


def galois_elt_args():
    P = padic.PadicInt
    return [(P(3, 4, 1), P(3, 4, 4)), (P(3, 4, 2), P(3, 4, 4)), (P(3, 4, 1), P(3, 4, 7)),
            (P(3, 2, 1), P(3, 4, 4)), (P(3, 4, 1 + 27), P(3, 4, 4))]


def bounded_op_args():
    m = ((1, 3), (0, 1))
    return [(3, 4, m), (5, 4, m), (3, 5, m), (3, 4, ((1, 3), (0, 2)))]


def scaled_matrix_args():
    m = ((1, 3), (0, 1))
    return [(3, m, 1, 2), (5, m, 1, 2), (3, ((2, 3), (0, 1)), 1, 2), (3, m, 0, 2), (3, m, 1, 3)]


def pl_args():
    v = ((F(0), F(0)), (F(1), F(1)))
    return [(v, F(1, 2)), (((F(0), F(0)), (F(2), F(1))), F(1, 2)), (v, F(1, 3)),
            (((F(0), F(0)), (F(1), F(1)), (F(3), F(2))), F(1, 2))]


def bound_args():
    return [(F(1), F(2), F(3), 3), (F(2), F(2), F(3), 3), (F(1), F(1, 2), F(3), 3),
            (F(1), F(2), F(4, 3), 3), (F(1), F(2), F(3), 5)]


def phitau_args():
    tau = _elt(3, 4, 1, 1)
    return [(3, 1, [[1]], [[2]], tau), (3, 1, [[1]], [[2]], tau, 6), (5, 1, [[1]], [[2]], tau),
            (3, 2, [[1]], [[2]], tau), (3, 1, [[2]], [[2]], tau), (3, 1, [[1]], [[1]], tau),
            (3, 1, [[1]], [[2]], _elt(3, 4, 1, 4)), (3, 1, [[1]], [[2]], tau, 3)]


def phitau_hashable_args():
    """Tuple matrices, which the reference hashes."""
    tau = _elt(3, 4, 1, 1)
    return [(3, 1, ((1,),), ((2,),), tau), (3, 1, ((1,),), ((2,),), tau, 5),
            (3, 1, ((1,),), ((1,),), tau), (3, 1, ((1,),), ((2,),), _elt(3, 4, 2, 1))]


def solution_set_args():
    F3, F9 = gf.field(3), gf.field(3, 2)
    base = (F3, F9, 2, 1, 4, [(1,), (2,)])
    return [base, (*base, None), (*base, [(0,)]), (F9, *base[1:]), (F3, F3, *base[2:]),
            (F3, F9, 3, *base[3:]), (F3, F9, 2, 2, *base[4:]), (*base[:4], 5, base[5]),
            (*base[:5], [(1,)])]


def action_args():
    return [(3, [[1, 1], [0, 1]]), (5, [[1, 1], [0, 1]]), (3, [[1, 0], [0, 1]])]


FROZEN = [
    (padic.PadicInt, PadicInt, padic_args),
    (witt.WittLawTable, WittLawTable, witt_args),
    (gskel.GaloisElt, GaloisElt, galois_elt_args),
    (logtrunc.BoundedOp, BoundedOp, bounded_op_args),
    (logtrunc.ScaledMatrix, ScaledMatrix, scaled_matrix_args),
    (ramif.PLFunction, PLFunction, pl_args),
    (ramif.BoundExpr, BoundExpr, bound_args),
    (taumod.PhiTauModP, PhiTauModP, phitau_args),
    (taumod.PhiTauModP, PhiTauModP, phitau_hashable_args),
]
MUTABLE = [
    (galrep.SolutionSet, SolutionSet, solution_set_args),
    (galrep.GaloisActionRep, GaloisActionRep, action_args),
]
PAIRS = FROZEN + MUTABLE


def _id(case):
    return f"{case[0].__name__}-{case[2].__name__}"


def _outcome(thunk):
    """thunk's value, or the type and text of the exception it raised."""
    try:
        return thunk()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", PAIRS, ids=_id)
def test_equality_matches_the_reference(case):
    cls, ref, args = case
    ours = [cls(*a) for a in args()]
    theirs = [ref(*a) for a in args()]
    again = [cls(*a) for a in args()]
    for i, j in itertools.product(range(len(ours)), repeat=2):
        assert (ours[i] == again[j]) == (theirs[i] == theirs[j]), (i, j)
        assert (ours[i] != again[j]) == (theirs[i] != theirs[j]), (i, j)
    assert all(x == y for x, y in zip(ours, again))
    # not equal to another class, as the reference is not
    assert ours[0] != theirs[0] and ours[0] != object()


@pytest.mark.parametrize("case", PAIRS, ids=_id)
def test_repr_matches_the_reference(case):
    cls, ref, args = case
    for a, b in zip(args(), args()):
        assert repr(cls(*a)) == repr(ref(*b))


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_frozen_classes_hash_and_refuse_assignment_as_the_reference(case):
    cls, ref, args = case
    for a, b in zip(args(), args()):
        ours, theirs = cls(*a), ref(*b)
        assert _outcome(lambda: hash(ours)) == _outcome(lambda: hash(theirs))
        for f in fields(ref):
            with pytest.raises(AttributeError):
                setattr(ours, f.name, getattr(ours, f.name))
            with pytest.raises(AttributeError):
                delattr(ours, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(theirs, f.name, getattr(theirs, f.name))
        assert tuple(getattr(ours, f.name) for f in fields(ref)) == \
            tuple(getattr(theirs, f.name) for f in fields(ref))


@pytest.mark.parametrize("case", MUTABLE, ids=_id)
def test_mutable_classes_are_unhashable_and_assignable_as_the_reference(case):
    cls, ref, args = case
    ours, theirs = cls(*args()[0]), ref(*args()[0])
    with pytest.raises(TypeError):
        hash(ours)
    with pytest.raises(TypeError):
        hash(theirs)
    for f in fields(ref):
        setattr(ours, f.name, 7)
        setattr(theirs, f.name, 7)
    assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("cls, ref, args", [
    (padic.PadicInt, PadicInt, (4, 2, 1)),
    (padic.PadicInt, PadicInt, (9, 2, 1)),
    (padic.PadicInt, PadicInt, (3, 0, 1)),
    (gskel.GaloisElt, GaloisElt, (padic.PadicInt(3, 2, 1), padic.PadicInt(5, 2, 1))),
    (gskel.GaloisElt, GaloisElt, (padic.PadicInt(3, 2, 1), padic.PadicInt(3, 2, 3))),
    (ramif.PLFunction, PLFunction, ((), F(1))),
    (ramif.PLFunction, PLFunction, (((F(1), F(0)), (F(1), F(2))), F(1))),
    (ramif.PLFunction, PLFunction, (((F(2), F(0)), (F(1), F(2))), F(1))),
    (logtrunc.BoundedOp, BoundedOp, (3, 4)),
    (taumod.PhiTauModP, PhiTauModP, (3, 1, [[1]], [[1]])),
])
def test_bad_arguments_are_refused_as_by_the_reference(cls, ref, args):
    ours, theirs = _outcome(lambda: cls(*args)), _outcome(lambda: ref(*args))
    assert type(ours) is tuple and ours[0] is theirs[0]
    if ours[0] is not TypeError:        # the arity message names the signature
        assert ours == theirs


def test_padic_unit_keeps_its_check():
    assert padic.PadicUnit(3, 4, 7) == padic.PadicInt(3, 4, 7)
    with pytest.raises(ValueError, match="is not a unit mod 3"):
        padic.PadicUnit(3, 4, 6)
    with pytest.raises(AttributeError):
        padic.PadicUnit(3, 4, 7).residue = 1


# --- RunConfig -----------------------------------------------------------


def test_run_config_fields_in_the_reference_order_with_its_defaults():
    assert cli.RunConfig.FIELDS == tuple((f.name, f.default) for f in fields(RunConfig))
    assert cli.RunConfig._fields == tuple(f.name for f in fields(RunConfig))


def test_help_lists_the_config_flags_in_field_order():
    text = cli.build_parser().format_help()
    at = [text.index(f"--{f.name} {f.name.upper()}") for f in fields(RunConfig)]
    assert at == sorted(at)


RUN_CONFIGS = [{}, *({f.name: f.default + 2} for f in fields(RunConfig)), {"p": 5, "N": 3}]


def test_run_config_matches_the_reference():
    for a, b in itertools.product(RUN_CONFIGS, repeat=2):
        assert (cli.RunConfig(**a) == cli.RunConfig(**b)) == (RunConfig(**a) == RunConfig(**b))
    for kw in RUN_CONFIGS:
        ours, theirs = cli.RunConfig(**kw), RunConfig(**kw)
        assert list(ours.as_dict().items()) == list(asdict(theirs).items())
        assert repr(ours) == repr(theirs)
    ours = cli.RunConfig()
    ours.validate()
    assert ours.as_dict() == {**asdict(RunConfig()), "q": 3}
    with pytest.raises(TypeError):
        hash(cli.RunConfig())
    with pytest.raises(TypeError):
        cli.RunConfig(pp=5)
    with pytest.raises(TypeError):
        RunConfig(pp=5)


def test_run_config_lattice_default():
    assert cli.RunConfig(p=5).lattice_D == 4 and cli.RunConfig(p=5, D=2).lattice_D == 2


def test_solution_set_of_a_solve_equals_itself_rebuilt():
    F9 = gf.field(3, 2)
    from padiclab.rings import FFRing
    from padiclab.series import TruncSeries
    ring = FFRing(F9)
    G = [[TruncSeries(ring, {0: F9.from_code(c)}, 6) for c in row] for row in ((1, 1), (0, 1))]
    S = galrep.solve_unit_root(G)
    T = galrep.SolutionSet(S.base_field, S.field, S.s, S.d, S.prec, list(S.basis))
    assert S == T
    S.solutions()
    assert S == T and S.all is not None and T.all is None
    assert T.solutions() == S.all and S == T


def test_solution_set_equality_and_repr_do_not_read_its_cache():
    """solutions() fills the cache all of one of two equal sets: they stay
    equal, and neither repr changes."""
    F3 = gf.field(3)
    from padiclab.rings import FFRing
    from padiclab.series import TruncSeries
    ring = FFRing(F3)
    G = [[TruncSeries(ring, {0: F3.el(c)}, 5) for c in row] for row in ((2, 1), (0, 1))]
    S1, S2 = galrep.solve_unit_root(G), galrep.solve_unit_root(G)
    shown = repr(S1)
    assert S1 == S2 and repr(S2) == shown
    assert len(S1.solutions()) == 9
    assert S1 == S2 and S2 == S1 and not S1 != S2
    assert repr(S1) == repr(S2) == shown
    # a cache given at construction is no field either
    assert galrep.SolutionSet(*[getattr(S1, f) for f in S1._fields], all=[]) == S2


# --- the ring adapters ---------------------------------------------------
# Each reference is the __eq__ the ring wrote itself; Fields gives == now.


def zmod_eq(a, b):
    return isinstance(b, rings.Zmod) and (a.p, a.n) == (b.p, b.n)


def qring_eq(a, b):
    return isinstance(b, rings.QRing) and a.p == b.p


def ffring_eq(a, b):
    return isinstance(b, rings.FFRing) and a.field is b.field


def perfring_eq(a, b):
    return isinstance(b, perfseries.PerfRing) and a.field is b.field \
        and (a.D, a.jmax, a.prec) == (b.D, b.jmax, b.prec)


# a second F_3, apart from gf.field's: a ring over it differs from one over
# gf.field(3), as a ring's field compares by identity
OTHER_F3 = gf.GF(3)


def ring_args():
    """(reference, ring) pairs, built afresh on every call."""
    F3, F9, F27 = gf.field(3), gf.field(3, 2), gf.field(3, 3)
    P = perfseries.PerfRing
    return [*((zmod_eq, rings.Zmod(p, n)) for p, n in ((3, 1), (3, 2), (5, 1), (5, 2))),
            *((qring_eq, rings.QRing(p)) for p in (3, 5)),
            *((ffring_eq, rings.FFRing(f)) for f in (F3, F9, F27, gf.field(5), OTHER_F3)),
            *((perfring_eq, r) for r in (P(F3, 2, 1, 4), P(F3, 2, 1, F(4)), P(F3, 2, 1, F(8)),
                                         P(F3, 1, 1, 4), P(F3, 2, 2, 4), P(F9, 2, 1, 4),
                                         P(OTHER_F3, 2, 1, 4), P(F3, 2, 1, F(9, 2))))]


def test_ring_equality_matches_the_eq_it_replaced():
    again = [ring for _, ring in ring_args()]
    for (ref, x), y in itertools.product(ring_args(), again):
        assert (x == y) == ref(x, y), (x, y)
        assert (x != y) == (not ref(x, y)), (x, y)
    assert all(x == x and x != object() for x in again)
    # each of the 19 equals its rebuilt self, and prec 4 equals prec F(4) both ways
    assert sum(ref(x, y) for (ref, x), y in itertools.product(ring_args(), again)) == 21


def test_rings_are_unhashable_and_print_their_fields():
    for _, ring in ring_args():
        with pytest.raises(TypeError):
            hash(ring)
    assert repr(rings.FFRing(gf.field(3, 2))) == "FFRing(field=F9)"
    assert repr(rings.Zmod(3, 2)) == "Zmod(p=3, n=2)"
    assert repr(rings.QRing(5)) == "QRing(p=5)"
    assert repr(perfseries.PerfRing(gf.field(3), 2, 1, 4)) == \
        "PerfRing(field=F3, D=2, jmax=1, prec=Fraction(4, 1))"
    assert rings.IntRing() == rings.IntRing() and repr(rings.IntRing()) == "IntRing()"


def test_eisenstein_poly_is_frozen_on_p_and_coeffs():
    E = calculus.EisensteinPoly(3, [3, 0, 1])
    assert E == calculus.EisensteinPoly(3, (3, 0, 1)) and hash(E) == hash((3, (3, 0, 1)))
    assert E != calculus.EisensteinPoly(3, (6, 0, 1)) != calculus.EisensteinPoly(5, (5, 0, 1))
    assert E.e == 2 and repr(E) == "EisensteinPoly(p=3, coeffs=(3, 0, 1))"
    for name in ("p", "coeffs", "e"):
        with pytest.raises(AttributeError):
            setattr(E, name, 1)
    for bad in ((1,), (3, 0, 2), (3, 1, 1), (9, 0, 1)):
        with pytest.raises(ValueError):
            calculus.EisensteinPoly(3, bad)
