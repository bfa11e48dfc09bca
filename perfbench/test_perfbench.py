"""Tests of the benchmark itself (not of the library).

    python -m pytest perfbench/test_perfbench.py -q

Run from the root of the checkout.
"""

import itertools
import json
import os
import subprocess
import sys
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def first(workload, seed, n):
    return list(itertools.islice(wl.WORKLOADS[workload].inputs(seed), n))


# --- inputs ------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    n = 40
    assert first(workload, 7, n) == first(workload, 7, n)
    assert first(workload, 7, n) != first(workload, 8, n)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_class_order_is_the_same_for_every_seed(workload):
    def classes(seed):
        return [(s["kind"], s.get("d"), s.get("f"), len(s.get("A") or ()))
                for s in first(workload, seed, 60)]
    assert classes(1) == classes(2)


@pytest.mark.parametrize("d,f", wl.STRATA)
def test_split_counts_match_enumeration(d, f):
    counts = {}
    for flat in product(range(3), repeat=d * d):
        A = tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d))
        if wl.F3.det(A):
            s = wl.F3.order(wl.mat_pow(wl.F3, A, f))
            counts[s] = counts.get(s, 0) + 1
    assert counts == wl.SPLIT_COUNTS[(d, f)]


def test_quota_prefix_follows_the_law():
    counts = wl.SPLIT_COUNTS[(3, 1)]
    total = sum(counts.values())
    drawn = list(itertools.islice(wl.quota_classes(counts), 64))
    for s, c in counts.items():
        assert abs(drawn.count(s) - 64 * c / total) <= 1


def test_small_field_matches_library():
    from padiclab import gf
    F9 = gf.field(3, 2)
    small = wl.SmallField(2, F9.modulus)
    for a, b in product(range(9), repeat=2):
        x, y = F9.from_code(a), F9.from_code(b)
        assert small.mul[a][b] == F9.code(x * y)
        assert small.add[a][b] == F9.code(x + y)
    assert all(small.frob[a] == F9.code(F9.from_code(a) ** 3) for a in range(9))


def test_modp_inputs_have_their_splitting_degree():
    from padiclab import galrep, gf
    from padiclab.rings import FFRing
    from padiclab.series import TruncSeries
    for spec in first("modp-batch", 3, 6):
        if spec["d"] == 3:
            continue            # the d = 3 draws build large fields: slow
        ring = FFRing(gf.field(3, spec["f"]))
        G = [[TruncSeries(ring, {e: ring.field.from_code(c) for e, c in enumerate(ent)}, 20)
              for ent in row] for row in spec["codes"]]
        assert galrep.solve_unit_root(G).s == spec["s"]


# --- statistics --------------------------------------------------------


@pytest.mark.parametrize("n,pct", [(5, 50), (19, 50), (20, 50), (39, 50), (40, 75),
                                   (99, 75), (100, 90), (199, 90), (200, 95),
                                   (999, 95), (1000, 99), (9999, 99), (10000, 99.9)])
def test_tail_percentile_rule(n, pct):
    assert measure.tail_percentile(n) == pct


def test_latency_summary_estimates_median_and_tail():
    lat = list(range(40, 0, -1))          # 40 samples: p75, 10 beyond rank 30
    p50, pct, tail = measure.latency_summary(lat)
    # On 1..n the Harrell-Davis estimate of percentile p is n p + 1/2.
    assert pct == 75
    assert p50 == pytest.approx(20.5) and tail == pytest.approx(30.5)


def test_harrell_davis_moves_smoothly_across_a_gap():
    a, b = [1] * 50 + [100] * 50, [1] * 51 + [100] * 49
    # The sample median jumps from 50.5 to 1 when one op changes sides.
    assert abs(measure.harrell_davis(a, 50) - measure.harrell_davis(b, 50)) < 10
    assert measure.harrell_davis([5.0], 50) == pytest.approx(5.0)


def test_host_speed_correction_rescales_to_the_reference_speed():
    ref = measure.REFERENCE_S
    # The kernel took twice its reference time around the interval: the
    # host ran at half speed, so the interval counts half.
    assert measure.corrected([3.0], [2 * ref, 2 * ref]) == pytest.approx([1.5])
    # Short intervals take the two samples that bracket them; the long one
    # (10 s) also those of its neighbours, within 10 s of it.
    fixed = measure.corrected([0.1, 10.0, 0.1], [ref, 3 * ref, ref, 4 * ref])
    assert fixed == pytest.approx([0.1 / 2, 10.0 / 2.25, 0.1 / 2.5])
    assert measure.reference() > 0


def test_ops_per_run_is_whole_passes_near_the_nominal_rate():
    assert wl.ops_per_run("cli-oneshot", 20) == 44
    assert wl.ops_per_run("modp-batch", 20) == 78
    assert wl.ops_per_run("series-kernels", 20) == 8 * sum(wl.SERIES_MIX.values())
    assert wl.ops_per_run("modp-batch", 0.01) == len(wl.STRATA)


# --- tracing -----------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer(clock=FakeClock([0, 10, 40, 50, 60, 100]))
    tr.op = 0
    tr.enter("outer")
    tr.enter("inner")
    tr.exit()
    tr.enter("inner")
    tr.exit()
    tr.exit()
    tot = tr.totals()
    assert tot["outer"] == [1, 100, 60]
    assert tot["inner"] == [2, 40, 40]
    assert tr.calls_under("inner", "outer") == 2


def test_recursive_busy_time_counts_outermost_call():
    tr = tracing.Tracer(clock=FakeClock([0, 10, 30, 100]))
    tr.enter("f")
    tr.enter("f")
    tr.exit()
    tr.exit()
    assert tr.totals()["f"] == [2, 100, 100]


def test_install_wraps_every_binding_and_reports_missing():
    from padiclab import cli, galrep, gf
    orig_solve, orig_add = galrep.solve_unit_root, gf.FFElt.__add__
    tr = tracing.Tracer()
    tr.install(tracing.TARGETS + [tracing._t("gf", "no_such_function")])
    try:
        assert galrep.solve_unit_root is not orig_solve
        assert gf.FFElt.__radd__ is gf.FFElt.__add__ is not orig_add
        assert cli.generate_laws is sys.modules["padiclab.witt"].generate_laws
        assert tr.missing == ["gf.no_such_function"]
        F = gf.field(3)
        tr.op = 0
        _ = 1 + F.one                               # __radd__ goes through the wrapper
        assert tr.totals()["gf.FFElt.__add__"][0] == 1
    finally:
        tr.uninstall()
    assert galrep.solve_unit_root is orig_solve and gf.FFElt.__add__ is orig_add


# --- output checks -------------------------------------------------------


def galois_spec():
    return next(s for s in first("cli-oneshot", 1, 12) if s["kind"] == "galois")


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "padiclab.cli"] + argv, env=env,
                          capture_output=True, text=True, check=True).stdout


def edit_result(stdout, name, value):
    doc = json.loads(stdout)
    for r in doc["results"]:
        if r["name"] == name:
            r["value"] = value
    return json.dumps(doc)


def test_galois_check_rejects_wrong_count_and_charpoly():
    spec = galois_spec()
    out = run_cli(spec["argv"])
    assert wl.check_galois(spec, out)[0]
    assert not wl.check_galois(spec, edit_result(out, "solutions", "2"))[0]
    s = int(json.loads(edit_result(out, "x", ""))["results"][1]["value"])
    assert not wl.check_galois(spec, edit_result(out, "extension-degree", str(s + 1)))[0]
    cp = wl.charpoly_mod3(wl.mat_pow(wl.F3, spec["A"], spec["f"]))
    cp[0] = (cp[0] + 1) % 3
    assert not wl.check_galois(spec, edit_result(out, "charpoly", str(cp)))[0]


@pytest.mark.parametrize("cmd,expect", wl.CHEAP_COMMANDS)
def test_cheap_checks_pass_now_and_reject_a_changed_output(cmd, expect):
    with open(wl.GOLDEN_PATH) as fh:
        golden = json.load(fh)
    spec = {"kind": "cheap", "argv": cmd.split(), "expect": expect}
    out = run_cli(spec["argv"])
    assert wl.check_cheap(spec, out, golden)
    doc = json.loads(out)
    doc["results"][-1]["value"] = "FAIL: injected"
    bad = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert not wl.check_cheap(spec, bad, golden)


class FakeSet:
    def __init__(self, card, s):
        self.cardinality, self.s = card, s


class FakeAction:
    def __init__(self, cp):
        self._cp = cp

    def char_poly(self):
        return self._cp


def test_modp_check_rejects_wrong_outputs():
    from padiclab import galrep, gf
    from padiclab.rings import FFRing
    from padiclab.series import TruncSeries
    spec = next(s for s in first("modp-batch", 2, 12) if s["d"] == 2 and s["s"] <= 4)
    ring = FFRing(gf.field(3, spec["f"]))
    G = [[TruncSeries(ring, {e: ring.field.from_code(c) for e, c in enumerate(ent)}, 20)
          for ent in row] for row in spec["codes"]]
    S = galrep.solve_unit_root(G)
    sols, act = S.solutions(), galrep.frobenius_action(S)
    assert wl.check_modp(spec, S, sols, act)
    assert not wl.check_modp(spec, FakeSet(27, S.s), sols, act)
    assert not wl.check_modp(spec, FakeSet(9, S.s + 1), sols, act)
    assert not wl.check_modp(spec, S, sols, FakeAction((1, 1)))
    one = TruncSeries.one(FFRing(S.field), S.prec)
    shifted = [tuple(x + one for x in t) for t in sols]     # not closed under sums
    spec_pick = dict(spec, pick=(1, 2))
    assert not wl.check_modp(spec_pick, S, shifted, act)


def test_series_checks_reject_wrong_outputs():
    assert wl.check_height(2, 2) and not wl.check_height(2, 1)
    assert not wl.check_height(0, None)
    assert wl.check_logm_hand(((15,),)) and not wl.check_logm_hand(((14,),))

    class Res:
        def __init__(self, zero):
            self.coords = [type("C", (), {"is_zero": lambda self, z=zero: z})()]
    assert wl.check_residual(Res(True)) and not wl.check_residual(Res(False))


def test_tau_mutant_control_fails_on_unmutated_module():
    runner = wl.SeriesRunner(ROOT)
    spec = next(s for s in first("series-kernels", 1, 200) if s["kind"] == "tau-mutant")
    assert runner.run(spec)[0]
    M, _ = runner._tau_fixture()
    runner._tau_mods = (M, M)                          # the control is no longer mutated
    assert not runner.run(spec)[0]


def test_worker_counts_wrong_and_raising_ops_as_failed(monkeypatch, capsys):
    import worker

    def inputs(seed):
        for i in itertools.count():
            yield {"kind": "fake", "i": i}

    class Runner:
        def __init__(self, root, tracer=None):
            pass

        def run(self, spec):
            if spec["i"] == 3:
                raise ArithmeticError("injected")
            return spec["i"] != 5, {"s": 2}

    monkeypatch.setitem(wl.WORKLOADS, "fake", wl.Workload(inputs, Runner, 1, 1.0))
    monkeypatch.chdir(ROOT)
    assert worker.main(["--workload", "fake", "--seed", "1", "--ops", "10"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (res["attempted"], res["failed"]) == (10, 2)
    assert res["props"] == {"s=2": 9}


# --- per-layer coverage ---------------------------------------------------

CONSTRUCTION = ("gf.GF.__init__", "gf.extension", "gf.GF.register_embedding",
                "gf.fields_fp_degree_sum")


def should_move_on(metric):
    """The workload on which the per-layer table says a metric moves."""
    if metric.startswith("cli."):
        return ["cli-oneshot"]
    if metric.startswith(CONSTRUCTION):
        return ["cli-oneshot", "modp-batch"]
    if metric.startswith("galrep.charpoly_mod_p") or metric.startswith(
            ("galrep.extension_attempts", "galrep.splitting")):
        return ["cli-oneshot", "modp-batch"]
    if metric.startswith(("gf.", "galrep.")):
        return ["modp-batch"]
    if metric.startswith(("series.", "phimod.", "perfseries.", "witt.", "taumod.",
                          "logtrunc.")):
        return ["series-kernels"]
    return []                   # prop.s.* and trace.overhead: workload facts


# Enough ops for every layer of each workload to show, and quick.
COVERAGE_OPS = {"cli-oneshot": 2, "modp-batch": 4,
                "series-kernels": sum(wl.SERIES_MIX.values())}


@pytest.fixture(scope="module")
def traced_layers():
    out = {}
    for workload, ops in COVERAGE_OPS.items():
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               "--workload", workload, "--seed", "1", "--ops", str(ops),
                               "--traced"], cwd=ROOT, capture_output=True, text=True,
                              check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["failed"] == 0 and res["missing"] == []
        out[workload] = res["layers"]
    return out


def test_every_layer_metric_is_nonzero_where_it_should_move(traced_layers):
    names = [n for n, _ in tracing.layer_metric_names() if n != "trace.overhead"]
    for workload, layers in traced_layers.items():
        assert sorted(layers) == sorted(names)
    zero = [(m, w) for m in names for w in should_move_on(m)
            if not traced_layers[w][m]]
    assert zero == []


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        tracing.layer_metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_worker_past_the_deadline_is_killed(monkeypatch, tmp_path):
    import run
    script = tmp_path / "slow.py"
    script.write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(run, "WORKER", str(script))
    monkeypatch.setattr(run, "DEADLINE_S", 0)
    with pytest.raises(run.BenchError):
        run.worker(ROOT)
