import argparse
import json
import subprocess
import sys

import pytest

from padiclab import galrep, gf
from padiclab.cli import build_parser, main

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


def test_config_error_exit_2():
    assert run(["padic", "valuation", "--p", "4"]).returncode == 2
    assert run(["padic", "valuation", "--p", "9"]).returncode == 2


def test_strict_mode_flags_errors():
    # u^2 + anything is fine; a non-etale input trips strict mode
    r = run(["--strict", "phimod", "heightdiv", "--matrix", "0", "--constant",
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
    ["phimod", "etale", "--constant", "--matrix", "1,x;0,1"],
])
def test_malformed_matrix_exit_2(args):
    r = run(args)
    assert r.returncode == 2
    assert "input error" in r.stderr and "Traceback" not in r.stderr


def _value(r):
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)["results"][0]["value"]


def test_phimod_reads_fq_codes_at_n1():
    # 3 is not an F_3 code; 3 = 0 in F_3 was read as a nonzero int
    bad = run(["phimod", "etale", "--p", "3", "--matrix", "3"])
    assert bad.returncode == 2 and "input error" in bad.stderr
    assert _value(run(["phimod", "etale", "--p", "3", "--matrix", "0"])) == "False"
    # code 4 is 1 + x in F_9, no longer read mod 3 as 1: det(4,1;1,1) = x
    base = ["phimod", "etale", "--p", "3", "--q", "9", "--constant", "--matrix"]
    assert _value(run(base + ["4,1;1,1"])) == "True"
    assert _value(run(base + ["1,1;1,1"])) == "False"
    assert run(base + ["9"]).returncode == 2
    # at n = 2 entries are residues mod p^n: 3 + u is a Laurent unit
    r = run(["phimod", "etale", "--p", "3", "--n", "2", "--matrix", "3:1"])
    assert _value(r) == "True"


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
    # 3 has order 30 in F_31^x: the root lies in F_(31^30), not below
    r = run(["galois", "rank1", "--p", "31", "--c", "3", "--a", "1"])
    assert r.returncode == 0, r.stderr
    vals = {x["name"]: x["value"] for x in json.loads(r.stdout)["results"]}
    assert vals == {"solutions": "31", "tame-exponent": "1/30"}
    assert galrep.solve_rank1(1, 3, gf.field(31)).s == 30


def test_cli_import_leaves_numpy_out():
    r = subprocess.run([sys.executable, "-c",
                        "import sys, padiclab.cli; assert 'numpy' not in sys.modules"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


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


@pytest.mark.parametrize("op, s, name", [("phi-kinf", "4", "final-slope"), ("gamma", "5", "depth")])
def test_ramif_reads_its_s(op, s, name):
    r = run(["ramif", op, "--s", s])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["results"][-1]["name"] == name
