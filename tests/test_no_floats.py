"""padiclab is exact: no module of the library writes a float literal or
calls float(), so a precision or valuation can only turn into a float
through a division, which the Fraction-typed readers of the series
tests guard."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padiclab"


def float_sites(path):
    """(line, what) for each float or complex literal and float() call."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, repr(node.value)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            yield node.lineno, "float()"


def test_the_library_has_no_float_literal_or_float_call():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [(p.name, *site) for p in paths for site in float_sites(p)] == []


def test_the_guard_sees_both_kinds(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 0.5\ny = float(3)\nz = 2j\n")
    assert list(float_sites(probe)) == [(1, "0.5"), (2, "float()"), (3, "2j")]
