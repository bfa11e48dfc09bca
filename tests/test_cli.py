import json
import subprocess
import sys

import pytest

from padiclab.cli import main

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
