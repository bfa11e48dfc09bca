"""Value semantics have one home, padiclab.Fields and padiclab.Frozen: a
class of the library writes its own __eq__, __hash__ or __repr__ only
where the bases cannot give it, and each such class is listed here with
its reason.  A class that can list its fields and take Fields' ==,
Frozen's hash or Fields' repr does, and a new hand-written one fails
this test until it is listed."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padiclab"
DUNDERS = {"__eq__", "__hash__", "__repr__"}

ALLOWED = {
    "Fields": "the base: == on the fields, and Name(field=value, ...)",
    "Frozen": "the base: the hash of the tuple of fields",
    "PadicInt": "== at the lower precision, a hash mod p, and the repr r + O(p^N)",
    "FFElt": "slots on the hot path of every field product",
    "WittVector": "slots on the hot path of every Witt law",
    "SparseSeries": "== at the lower precision, and the one repr of every series",
    "GF": "prints as its tag, so a ring prints as FFRing(field=F9)",
    "GaloisElt": "the repr (c, chi)@p^N, which the bases cannot give",
    "PhiModule": "a repr of rank, level and q, not of the matrix G",
    "PhiLattice": "a repr of rank and level, not of the basis",
}


def own_dunders(path):
    """(class, name) for each __eq__, __hash__ or __repr__ that a class
    body defines or assigns, classes at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            else:
                names = []
            yield from ((node.name, name) for name in names if name in DUNDERS)


def test_only_the_listed_classes_write_their_own_value_dunders():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    found = {cls for path in paths for cls, _ in own_dunders(path)}
    assert sorted(found - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - found) == []


def test_the_guard_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class A:\n    def __eq__(self, other):\n        pass\n"
                     "class B(A):\n    __hash__ = None\n    __repr__: object = repr\n"
                     "def f():\n    class C:\n        __repr__ = object.__repr__\n"
                     "class D:\n    def g(self):\n        def __eq__():\n            pass\n"
                     "    __init__ = __str__ = None\n")
    assert sorted(own_dunders(probe)) == [("A", "__eq__"), ("B", "__hash__"),
                                          ("B", "__repr__"), ("C", "__repr__")]
