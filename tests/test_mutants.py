"""tools/mutants.py draws its sites from code that runs: an annotation of
a module with `from __future__ import annotations` is never evaluated, so
a mutant there could only survive, at the cost of a tier-1 run."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def at(source, text, symbol):
    """(row, col) of symbol inside the first line holding text."""
    for row, line in enumerate(source.splitlines(), 1):
        if text in line:
            return row, line.index(text) + text.index(symbol)
    raise AssertionError(text)


def test_no_site_is_drawn_from_perfseries_annotations():
    source = (ROOT / "src" / "padiclab" / "perfseries.py").read_text()
    drawn = {(row, col) for row, col, _, _ in mutants.sites(source)}
    for text in ("D: int | None", "jmax: int | None"):
        assert at(source, text, "|") not in drawn, text


def test_annotations_are_skipped_only_where_they_never_run():
    body = ("def f(a: 1 | 2, *b: 3 | 4) -> 5 | 6:\n"
            "    return a + 1\n"
            "\n"
            "\n"
            "x: 7 | 8 = 9\n")
    lazy = "from __future__ import annotations\n" + body
    assert {(old, new) for _, _, old, new in mutants.sites(lazy)} == \
        {("+", "-"), ("1", "2"), ("9", "10")}
    # evaluated when f and x are defined: every | and int is a site
    eager = mutants.sites(body)
    assert sum(old == "|" for _, _, old, _ in eager) == 4
    assert sorted(old for _, _, old, _ in eager if old.isdigit()) == \
        sorted([str(k) for k in range(1, 10)] + ["1"])
