import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from padiclab import galrep, gf, padic
from padiclab.cli import COMMANDS, SUITE_NAMES, build_parser, main

CMD = [sys.executable, "-m", "padiclab.cli"]


def run(args):
    return subprocess.run(CMD + args, capture_output=True, text=True)


def test_bound_gk_example():
    r = run(["ramif", "bound-gk", "--p", "3", "--e", "1", "--n", "1", "--h", "1",
             "--tame"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["results"][0]["value"] == "7/2"
    assert doc["results"][0]["exact"] is True


def test_galois_solve_example():
    r = run(["galois", "solve", "--p", "3", "--q", "3", "--matrix", "2", "--M", "20"])
    vals = {x["name"]: x["value"] for x in json.loads(r.stdout)["results"]}
    assert vals["solutions"] == "3"
    assert vals["action"] == "[[2]]"


@pytest.mark.parametrize("matrix, action", [
    ("0,1;1,0", "[[1, 0], [0, 2]]"),
    ("1,1;0,1", "[[1, 1], [0, 1]]"),
])
def test_galois_solve_pins_the_canonical_basis(matrix, action):
    # the residue basis least in code order fixes the action matrix itself,
    # not only its conjugacy class
    r = run(["galois", "solve", "--p", "3", "--q", "3", "--matrix", matrix])
    assert r.returncode == 0, r.stderr
    vals = {x["name"]: x["value"] for x in json.loads(r.stdout)["results"]}
    assert vals["action"] == action


@pytest.mark.parametrize("args, values", [
    # p = 17: every packed F_p vector of the solver has two-byte digits
    (["--p", "17", "--q", "289", "--M", "3", "--matrix", "3,1;1,5"],
     {"solutions": "289", "extension-degree": "8", "action": "[[4, 0], [0, 15]]",
      "charpoly": "[9, 15, 1]"}),
    (["--p", "5", "--q", "25", "--M", "4", "--matrix", "2,1;1,1"],
     {"solutions": "25", "extension-degree": "5", "action": "[[4, 3], [2, 3]]",
      "charpoly": "[1, 3, 1]"}),
])
def test_galois_solve_beyond_p_3(args, values):
    r = run(["galois", "solve"] + args)
    assert r.returncode == 0, r.stderr
    assert {x["name"]: x["value"] for x in json.loads(r.stdout)["results"]} == values


def test_failed_self_check_exits_3_in_one_line(monkeypatch, capsys):
    from padiclab import galrep

    def fail(*args):
        raise ArithmeticError("the trivialisation Q fails G0 phi(Q) = Q G")

    monkeypatch.setattr(galrep, "_check_solutions", fail)
    assert main(["galois", "solve", "--p", "3", "--q", "3", "--matrix", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ArithmeticError: the trivialisation Q fails G0 phi(Q) = Q G\n"


def test_any_escaping_exception_exits_3_in_one_line(monkeypatch, capsys):
    def fail(*args):
        raise KeyError("lost")

    monkeypatch.setattr(galrep, "_trivialisation", fail)
    assert main(["galois", "solve", "--p", "3", "--q", "3", "--matrix", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: KeyError: 'lost'\n"


def test_logm_hand_value():
    r = run(["logm", "value", "--p", "3", "--N", "3", "--matrix", "4", "--m", "1"])
    assert "15" in json.loads(r.stdout)["results"][0]["value"]


def test_schema_fields():
    r = run(["padic", "valuation", "--p", "3", "--N", "4", "--x", "9"])
    doc = json.loads(r.stdout)
    assert set(doc) == {"command", "config", "results"}
    rec = doc["results"][0]
    assert set(rec) == {"name", "value", "exact", "precision", "anchor"}
    assert rec["value"] == "2"


def test_csv_projection():
    r = run(["--format", "csv", "ramif", "bound-ginf", "--h", "1", "--n", "1",
             "--p", "3"])
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "name,value,exact,precision,anchor"
    assert lines[1].startswith("bound,3/2")


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=5\nN=6\n")
    r = run(["--config", str(cfg), "padic", "valuation", "--x", "25"])
    assert json.loads(r.stdout)["results"][0]["value"] == "2"
    r2 = run(["--config", str(cfg), "padic", "valuation", "--x", "25", "--p", "3"])
    assert json.loads(r2.stdout)["results"][0]["value"] == "0"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # a misspelt key was dropped and the run went on at p = 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pp=5\n")
    assert main(["--config", str(cfg), "padic", "valuation", "--x", "25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config key 'pp'")


@pytest.mark.parametrize("text, line, value", [("p = 3/1\n", 1, "'3/1'"),
                                               ("# p\n\nN = 4\np =\n", 4, "''")])
def test_a_config_value_that_is_no_int_names_file_line_and_key(tmp_path, capsys, text, line,
                                                               value):
    # each once answered only "invalid literal for int() with base 10: ..."
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "padic", "valuation", "--x", "25"]) == 2
    assert capsys.readouterr().err == (f"config error: {cfg}:{line}: p: invalid literal for "
                                       f"int() with base 10: {value}\n")


def test_a_config_key_given_twice_is_refused(tmp_path, capsys):
    # the second p once won silently, and the run went on at p = 7
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\n# p = 3\nN = 6\np = 7\n")
    assert main(["--config", str(cfg), "padic", "valuation", "--x", "25"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:4: p given twice (first on line 1)\n"


def test_config_error_exit_2():
    assert run(["padic", "valuation", "--p", "4"]).returncode == 2
    assert run(["padic", "valuation", "--p", "9"]).returncode == 2


def test_huge_composite_p_is_a_config_error(capsys):
    # the trial division's bound was the float p ** 0.5, which overflows
    p = 10 ** 400 + 1  # 353 divides it
    assert main(["padic", "valuation", "--p", str(p), "--x", "3"]) == 2
    assert capsys.readouterr().err == f"config error: p must be an odd prime, got {p}\n"


def test_large_prime_p_is_accepted_at_once(capsys):
    # 10^18 + 3 is prime; trial division to its square root took 10^9 steps
    start = time.perf_counter()
    assert main(["padic", "valuation", "--p", str(10 ** 18 + 3), "--x", "3"]) == 0
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out)["results"][0]["value"] == "0"


def test_p_beyond_the_proven_bound_is_a_config_error(capsys):
    p = padic.PSI_13   # no base proves it composite
    assert main(["padic", "valuation", "--p", str(p), "--x", "3"]) == 2
    assert capsys.readouterr().err == (f"config error: p = {p} is not below {p}, the bound up "
                                       "to which 13 Miller-Rabin bases prove primality\n")


def test_strict_mode_flags_errors():
    # u^2 + anything is fine; a non-etale input trips strict mode
    r = run(["--strict", "phimod", "heightdiv", "--matrix", "0",
             "--U", "1", "--p", "3"])
    assert r.returncode in (1, 2)


def test_suite_deterministic_and_passing():
    args = ["suite", "ramif", "--trials", "40", "--seed", "11"]
    r1, r2 = run(args), run(args)
    assert r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    assert doc["results"] and all(x["value"] == "pass" for x in doc["results"])


def test_out_file(tmp_path):
    out = tmp_path / "doc.json"
    r = run(["--out", str(out), "ramif", "bound-sst", "--r", "2", "--n", "1",
             "--e", "1", "--p", "3"])
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(out.read_text())["results"][0]["value"] == "8/3"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_exits_2_in_one_line(tmp_path, fmt, where):
    out = tmp_path / "no" / "such" / "doc" if where == "missing" else tmp_path
    r = run(["--format", fmt, "padic", "valuation", "--p", "3", "--x", "9", "--out", str(out)])
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("output error: ") and r.stderr.count("\n") == 1, r.stderr


def test_main_inprocess():
    # entry point callable without a subprocess
    assert main(["ramif", "bound-tau", "--h", "9", "--cprime", "1", "--p", "3",
                 "--out", "/dev/null"]) == 0


def test_series_solvev():
    r = run(["series", "solvev", "--p", "3", "--n", "2", "--coeffs", "0,1,1",
             "--M", "10", "--jmax", "5"])
    doc = json.loads(r.stdout)
    assert doc["results"][0]["name"] == "residual-zero"
    assert doc["results"][0]["value"] == "True"


def test_negative_lattice_denominator_exit_2():
    # D = -2 reached the solver as a negative lattice and failed to converge
    base = ["series", "solvev", "--p", "3", "--n", "2", "--coeffs", "3,0,1", "--M", "10", "--D"]
    bad = run(base + ["-2"])
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr == "config error: D must be positive, or 0 for p - 1\n"
    assert _value(run(base + ["2"])) == "True"


@pytest.mark.parametrize("args", [["--q", "3"], ["--q", "9"], ["--n", "2"]])
def test_heightdiv_refuses_U_divisible_by_p(args):
    # in characteristic p, U divisible by p means U = 0; n = 1 answered True
    r = run(["phimod", "heightdiv", "--p", "3", "--U", "0"] + args)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "input error: U must not be divisible by p\n"


def test_galois_solve_reads_fq_codes():
    base = ["galois", "solve", "--p", "3", "--q", "9", "--M", "20", "--matrix"]
    gen, one = run(base + ["4"]), run(base + ["1"])
    assert gen.returncode == one.returncode == 0
    assert gen.stdout != one.stdout
    bad = run(base + ["9"])
    assert bad.returncode == 2 and "input error" in bad.stderr


@pytest.mark.parametrize("args", [
    ["logm", "value", "--matrix", "4,1;0"],
    ["logm", "rdc", "--matrix", "1,0;0"],
    ["galois", "solve", "--matrix", "1,2;3"],
    ["galois", "solve", "--matrix", ""],
    ["phimod", "uheight", "--matrix", "1:1,0;0"],
    ["phimod", "etale", "--matrix", "1,x;0,1"],
])
def test_malformed_matrix_exit_2(args):
    r = run(args)
    assert r.returncode == 2
    assert "input error" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ["logm", "value", "--matrix", "4", "--m", "-1"],
    ["logm", "bounded", "--matrix", "4", "--m", "-1"],
    ["logm", "rdc", "--matrix", "4", "--t", "-1"],
    ["logm", "rdc", "--matrix", "4", "--i", "-2"],
    ["suite", "logm", "--m", "-1", "--trials", "2"],
])
def test_negative_logm_orders_exit_2(args):
    # p ** -1 is a float, which range() and pow() refused: exit 3
    r = run(args)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("input error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ["logm", "value", "--p", "3", "--N", "40", "--matrix", "4", "--m", "30"],
    ["logm", "bounded", "--p", "3", "--N", "40", "--matrix", "4", "--m", "30"],
    ["suite", "logm", "--m", "30"],
    ["logm", "value", "--p", "3", "--N", "40", "--matrix", "4", "--m", "11"],
])
def test_logm_orders_past_the_term_bound_exit_2_at_once(args):
    # 3^30 terms ran with no bound; 3^11 = 177147 > logtrunc.MAX_LOG_TERMS
    start = time.perf_counter()
    r = run(args)
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("input error: ") and "MAX_LOG_TERMS" in r.stderr


@pytest.mark.parametrize("flag, m", [(["--m", "0"], 0), (["--m", "1"], 1), ([], 2)])
def test_suite_logm_reads_m(capsys, flag, m):
    # --m 0 was read as unset and ran m = 2
    assert main(["suite", "logm", "--trials", "2"] + flag) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["name"] == f"log additivity mod p^{m - 1} x2"


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "logm"])
def test_only_suite_logm_reads_m(capsys, name):
    # suite heights --m 3 once ran, its --m unread, and exited 0
    assert main(["suite", name, "--m", "3", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --m: only suite logm reads it, not suite {name}\n"


@pytest.mark.parametrize("m, value", [
    (0, "skipped: congruence mod p^(m-1) is vacuous"),
    (1, "skipped: congruence mod p^(m-1) is vacuous"),
    (2, "pass")])
def test_suite_logm_skips_vacuous_congruences(capsys, m, value):
    assert main(["suite", "logm", "--trials", "3", "--seed", "1", "--m", str(m)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["value"] for r in results[:3]] == [value] * 3
    assert [r["value"] for r in results[3:]] == ["pass", "pass"]


@pytest.mark.parametrize("args", [
    ["mul", "--x", "1,2,1", "--y", "2,2,0"],            # three coordinates, --wittlen 2
    ["add", "--x", "1,2", "--y", "1"],
    ["tozmod", "--x", "1,2", "--wittlen", "3"],
    ["add", "--x", "5,0", "--y", "0,0"],                # 5 is not an F_3 code
    ["mul", "--x", "1,-1", "--y", "0,0"],
    ["tozmod", "--x", "3,0"]])
def test_witt_vectors_take_wittlen_f_p_codes(capsys, args):
    assert main(["witt"] + args) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("args, value", [
    (["mul", "--x", "1,2,1", "--y", "2,2,0", "--wittlen", "3"], "[2, 0, 0]"),
    (["add", "--x", "1,2,1", "--wittlen", "3"], "[1, 2, 1]"),   # --y omitted: zero
    (["mul", "--p", "5", "--x", "4,4"], "[0, 0]"),
    (["tozmod", "--wittlen", "3"], "0")])
def test_witt_vectors_at_wittlen(capsys, args, value):
    assert main(["witt"] + args) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["value"] == value


def _value(r):
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)["results"][0]["value"]


def test_phimod_reads_fq_codes_at_n1():
    # 3 is not an F_3 code; 3 = 0 in F_3 was read as a nonzero int
    bad = run(["phimod", "etale", "--p", "3", "--matrix", "3"])
    assert bad.returncode == 2 and "input error" in bad.stderr
    assert _value(run(["phimod", "etale", "--p", "3", "--matrix", "0"])).startswith(
        "Indeterminate: ")
    # code 4 is 1 + x in F_9, no longer read mod 3 as 1: det(4,1;1,1) = x
    base = ["phimod", "etale", "--p", "3", "--q", "9", "--matrix"]
    assert _value(run(base + ["4,1;1,1"])) == "True"
    assert _value(run(base + ["1,1;1,1"])).startswith("Indeterminate: ")
    assert run(base + ["9"]).returncode == 2
    # at n = 2 entries are residues mod p^n: 3 + u is a Laurent unit
    r = run(["phimod", "etale", "--p", "3", "--n", "2", "--matrix", "3:1"])
    assert _value(r) == "True"


def test_phimod_has_no_constant_flag():
    # one-coefficient series entries are the constants
    r = run(["phimod", "etale", "--constant", "--matrix", "1"])
    assert r.returncode == 2 and "unrecognized arguments: --constant" in r.stderr


def test_logm_value_refuses_an_order_beyond_the_precision():
    # log_m certifies N - (m - 1) digits, none at m > N: an error record,
    # not a value "mod p^(N - m + 1)" below 1
    r = run(["logm", "value", "--p", "3", "--N", "3", "--matrix", "4", "--m", "5"])
    assert r.returncode == 0
    assert _value(r) == "PrecisionError: log_m of order 5 certifies no digit at precision 3"
    r = run(["logm", "value", "--p", "3", "--N", "3", "--matrix", "4", "--m", "3"])
    assert json.loads(r.stdout)["results"][0]["precision"] == "O(3^1)"


def test_phimod_has_no_dimension_cap():
    ident = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
    r = run(["phimod", "uheight", "--p", "3", "--M", "12", "--matrix", ident])
    assert _value(r) == "0"


def test_galois_rank1_reads_fq_code():
    # code 3 is x in F_9, a nonzero element; it was read mod 3 as 0
    base = ["galois", "rank1", "--p", "3", "--q", "9", "--a", "1", "--c"]
    r = run(base + ["3"])
    assert r.returncode == 0, r.stderr
    vals = {x["name"]: x["value"] for x in json.loads(r.stdout)["results"]}
    assert vals["solutions"] == "3"
    bad = run(base + ["9"])
    assert bad.returncode == 2 and "input error" in bad.stderr
    assert "Traceback" not in bad.stderr


def test_galois_rank1_degree_is_bounded_by_p_minus_1_only():
    # 5 has order 22 in F_23^x: the root lies in F_(23^22), not below
    r = run(["galois", "rank1", "--p", "23", "--c", "5", "--a", "1"])
    assert r.returncode == 0, r.stderr
    vals = {x["name"]: x["value"] for x in json.loads(r.stdout)["results"]}
    assert vals == {"solutions": "23", "tame-exponent": "1/22"}
    assert galrep.solve_rank1(1, 5, gf.field(23)).s == 22
    # 3 has order 30 in F_31^x, and F_(31^30) is larger than gf.MAX_ORDER
    assert 31 ** 30 > gf.MAX_ORDER
    r = run(["galois", "rank1", "--p", "31", "--c", "3", "--a", "1"])
    assert r.returncode == 0, r.stderr
    assert _value(r).startswith("ExtensionCapExceeded: ")


@pytest.mark.parametrize("p, c", [("1009", "11"), ("10007", "5")])
def test_galois_rank1_past_the_field_limit_is_refused_at_once(p, c):
    t0 = time.perf_counter()
    r = run(["galois", "rank1", "--p", p, "--c", c, "--a", "1"])
    assert time.perf_counter() - t0 < 2.0
    assert r.returncode == 0, r.stderr
    assert _value(r).startswith("ExtensionCapExceeded: ")


@pytest.mark.parametrize("p, wittlen", [("3", "5"), ("17", "3")])
def test_witt_laws_past_the_cost_bound_exit_2_at_once(p, wittlen):
    t0 = time.perf_counter()
    r = run(["witt", "laws", "--p", p, "--wittlen", wittlen])
    assert time.perf_counter() - t0 < 2.0
    assert r.returncode == 2 and "input error" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_import_leaves_numpy_out():
    r = subprocess.run([sys.executable, "-c",
                        "import sys, padiclab.cli; assert 'numpy' not in sys.modules"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _modules(code):
    """The modules a fresh interpreter holds after running code."""
    probe = "import sys; print(*sorted(sys.modules))"
    r = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return set(r.stdout.splitlines()[-1].split())


def _loaded(code):
    """The padiclab modules a fresh interpreter holds after running code."""
    return {m for m in _modules(code) if m.startswith("padiclab")}


def _modules_after_cli(*argv):
    return _modules("from padiclab.cli import main\n"
                    f"assert main({list(argv)!r} + ['--out', {os.devnull!r}]) == 0")


def _after_cli(*argv):
    return {m for m in _modules_after_cli(*argv) if m.startswith("padiclab")}


def test_package_import_loads_no_submodule():
    assert _loaded("import padiclab") == {"padiclab"}


def test_witt_laws_loads_only_its_modules():
    assert _after_cli("witt", "laws") == {"padiclab", "padiclab.cli", "padiclab.errors",
                                          "padiclab.padic", "padiclab.witt"}


def test_suite_logm_loads_only_its_modules():
    # the suites import their modules inside each suite
    assert _after_cli("suite", "logm", "--trials", "2") == {
        "padiclab", "padiclab.cli", "padiclab.errors", "padiclab.padic", "padiclab.suites",
        "padiclab.logtrunc", "padiclab.matrix"}


def test_series_lambda_loads_the_calculus():
    assert "padiclab.calculus" in _after_cli("series", "lambda")


def test_galois_solve_leaves_the_other_subcommands_unloaded():
    loaded = _after_cli("galois", "solve", "--matrix", "1,1;0,1")
    assert "padiclab.galrep" in loaded
    assert not loaded & {f"padiclab.{m}" for m in ("suites", "perfseries", "taumod",
                                                    "ramif", "logtrunc", "phimod")}


# one run of each subcommand that runs neither witt nor a dataclass
LEAN_COMMANDS = [
    ("galois", "solve", "--matrix", "1,1;0,1"),
    ("phimod", "uheight", "--matrix", "1,0;0,1"),
    ("padic", "log", "--x", "4"),
    ("ramif", "bound-gk", "--h", "1", "--tame"),
    ("logm", "value", "--matrix", "1,3;0,1", "--m", "2"),
    ("tau", "commutation", "--trials", "3"),
    ("series", "lambda"),
]


@pytest.mark.parametrize("argv", LEAN_COMMANDS, ids=" ".join)
def test_commands_load_neither_witt_nor_dataclasses(argv):
    # dataclasses alone cost a process 7 ms, through inspect, ast, dis and tokenize
    assert not _modules_after_cli(*argv) & {"padiclab.witt", "dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [("padic", "log", "--x", "4"), ("witt", "laws"),
                                  ("logm", "value", "--matrix", "1,3;0,1", "--m", "2"),
                                  ("galois", "solve", "--matrix", "1,1;0,1"),
                                  ("phimod", "uheight", "--matrix", "1,0;0,1"),
                                  ("tau", "order")],
                         ids=" ".join)
def test_commands_without_rationals_load_no_fractions(argv):
    # nor the series calculus (Fractions throughout) nor the suites
    assert not _modules_after_cli(*argv) & {"fractions", "decimal", "padiclab.calculus",
                                            "padiclab.suites"}


def test_cli_resolves_the_witt_names_on_first_use():
    code = """
from padiclab import cli
import sys
assert "padiclab.witt" not in sys.modules
assert cli.generate_laws is sys.modules["padiclab.witt"].generate_laws
assert cli.WittVector.__module__ == "padiclab.witt"
"""
    assert "padiclab.witt" in _loaded(code)
    from padiclab import cli
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_suites_do_not_load_the_command_line():
    assert "padiclab.cli" not in _loaded("from padiclab import suites")


def test_submodules_resolve_on_first_use():
    code = """
import padiclab
assert padiclab.galrep.__name__ == "padiclab.galrep"
ns = {}
exec("from padiclab import *", ns)
assert sorted(k for k in ns if k != "__builtins__") == sorted(padiclab.__all__)
assert len(padiclab.__all__) == 14
"""
    assert _loaded(code) >= {f"padiclab.{m}" for m in ("galrep", "gf", "ramif", "witt")}
    import padiclab
    with pytest.raises(AttributeError):
        padiclab.no_such_module


def test_suite_names_are_the_suites():
    from padiclab import cli, suites
    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))


def _sample_value(action):
    """An argv value for the option and the value it should parse to."""
    if action.nargs == 0:
        return [], action.const
    if action.choices:
        return [action.choices[-1]], action.choices[-1]
    if action.type is int:
        return ["7"], 7
    return ["x1"], "x1"


def test_every_subcommand_option_round_trips():
    """Each option of each subcommand, spelled out in full after it,
    reaches the namespace.  The top-level parser once read ramif's --s
    as an ambiguous abbreviation of --strict and --seed and exited 2."""
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        pos = [a for a in sub._actions if not a.option_strings]
        head = [name] + [a.choices[0] for a in pos]
        for action in sub._actions:
            for opt in action.option_strings:
                if opt in ("-h", "--help"):
                    continue
                argv, want = _sample_value(action)
                args = parser.parse_args(head + [opt] + argv)
                assert getattr(args, action.dest) == want, (name, opt)


def test_a_zero_denominator_names_jumps():
    # Fraction("1/0") raises ZeroDivisionError, which no reader caught
    r = run(["ramif", "herbrand", "--jumps", "1/0,3"])
    assert r.returncode == 2
    assert r.stderr == "input error: --jumps: Fraction(1, 0)\n"


def test_a_library_warning_is_one_line_on_stderr(capsys):
    # 1 + e s - c0 = -1: gamma_lower_bound clamps the depth at 0 and warns,
    # which in-process under an error filter once exited 3
    assert main(["ramif", "gamma", "--s", "3", "--c0", "5"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["results"][0]["value"] == "0"
    assert err == "warning: c0 exceeds 1 + e*s; clamping the depth at 0\n"


@pytest.mark.parametrize("op, s, name", [("phi-kinf", "4", "final-slope"), ("gamma", "5", "depth")])
def test_ramif_reads_its_s(op, s, name):
    r = run(["ramif", op, "--s", s])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["results"][-1]["name"] == name


@pytest.mark.parametrize("flag, argv", [
    ("--points", ["series", "newton", "--points", "1"]),
    ("--jumps", ["ramif", "herbrand", "--jumps", "1"]),
])
def test_a_pair_list_with_a_single_value_names_its_flag(flag, argv):
    # each exited 2 with "not enough values to unpack (expected 2, got 1)"
    r = run(argv)
    assert r.returncode == 2
    assert r.stderr == f"input error: {flag}: '1' is not two numbers a,b\n"


@pytest.mark.parametrize("points, index", [("0,1;0,1", 0), ("1,0;0,1;1,5", 1)])
def test_a_repeated_newton_index_names_points(points, index):
    # each exited 2 with "input error: Fraction(..., 0)", a division by x2 - x1 = 0
    r = run(["series", "newton", "--points", points])
    assert r.returncode == 2
    assert r.stderr == f"input error: --points: index {index} given twice\n"


def test_a_fractional_group_order_names_jumps():
    # int(o) once read --jumps 1,3/2 as 1,1 and exited 0
    r = run(["ramif", "herbrand", "--jumps", "1,3/2"])
    assert r.returncode == 2
    assert r.stderr == "input error: --jumps: group order 3/2 is not an integer\n"


def test_every_proper_prefix_of_a_subcommand_flag_exits_2():
    """No subcommand reads an abbreviation: each proper prefix of each of
    its flags, given a value the flag would take, is an unrecognized
    argument, unless the prefix is a flag of its own.  The subparsers
    once read tau's --c as --config and galois solve's --mat as
    --matrix."""
    parser = build_parser()
    for name, sub in _subparsers(parser).choices.items():
        head = [name] + [a.choices[0] for a in sub._actions if not a.option_strings]
        flags = sub._option_string_actions
        for opt, action in flags.items():
            argv, _ = _sample_value(action)
            for k in range(3, len(opt)):
                if opt[:k] not in flags:
                    code, _, err = _parse(parser, head + [opt[:k]] + argv)
                    assert code == 2 and "unrecognized arguments" in err, (name, opt[:k])


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _parse(parser, argv):
    """The namespace parser reads from argv, or, when it exits, the exit
    status and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _parser_cases():
    from test_cli_sweep import _ops
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "tests", "data", "cli_pinned.json")) as fh:
        commands = list(json.load(fh))
    with open(os.path.join(root, "perfbench", "golden.json")) as fh:
        commands += list(json.load(fh))
    cases = [shlex.split(c) for c in dict.fromkeys(commands)]
    cases += [list(param.values[:2]) for param in _ops()]
    cases += [["--help"], ["-h", "galois"]] + [[name, "--help"] for name in COMMANDS]
    cases += [[], ["bogus", "solve"], ["--bogus", "galois", "solve"],
              ["--out", "suite", "galois", "solve"], ["--config=run.cfg", "galois", "solve"],
              ["--config", "run.cfg", "--strict", "tau", "order"], ["--", "tau", "order"],
              ["--p", "3", "--p"], ["--p", "galois", "solve"], ["tau", "order", "--bogus"]]
    return cases


@pytest.mark.parametrize("argv", _parser_cases(), ids=" ".join)
def test_the_one_command_parser_reads_argv_as_the_full_parser(argv):
    """build_parser(argv) fills only the subcommand argv names, found by
    skipping each top-level flag's value: it gives build_parser()'s
    namespace, or exits with its status and prints what it prints."""
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


def test_the_one_command_parser_fills_only_its_subcommand():
    assert list(_subparsers(build_parser()).choices) == list(COMMANDS)
    for argv in (["galois", "solve"], ["--out", "suite", "--p", "5", "galois", "solve"]):
        subs = _subparsers(build_parser(argv)).choices
        assert list(subs) == list(COMMANDS)
        assert [name for name, sp in subs.items() if sp._actions] == ["galois"]
