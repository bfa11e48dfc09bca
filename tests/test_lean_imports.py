"""No module of the library imports dataclasses: it loads inspect, ast,
dis and tokenize, which cost every CLI process about 7 ms at start-up
with no bytecode cache.  The value classes derive from padiclab.Fields
and padiclab.Frozen instead."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padiclab"


def dataclass_imports(path):
    """The line of each import of dataclasses, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                for a in node.names):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "dataclasses":
            yield node.lineno


def test_the_library_does_not_import_dataclasses():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [(p.name, line) for p in paths for line in dataclass_imports(p)] == []


def test_the_guard_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import dataclasses\nfrom dataclasses import dataclass\n"
                     "def f():\n    import dataclasses as dc\nimport os, dataclasses.x\n"
                     "from .dataclasses import y\n")
    assert sorted(dataclass_imports(probe)) == [1, 2, 4, 5]
