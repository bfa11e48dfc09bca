"""Per-layer spans recorded from outside the library.

The tracer wraps named public functions of padiclab at every binding:
the defining module or class, each padiclab module that imported the
function by name (``from .gf import ...``), and each class attribute
aliasing it (``__radd__ = __add__``).  A call records a span: its name,
the name of the enclosing span, its duration and its self time (duration
minus the time its child spans cover).  Spans are aggregated in memory
per (op id, name, parent name), so a hot kernel costs one dict update per
call, not one record.

A name that no longer resolves is listed in ``missing`` and skipped; it
never stops a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, namedtuple

Target = namedtuple("Target", "module qualname self_time")


def _t(module, qualname, self_time=False):
    return Target("padiclab." + module, qualname, self_time)


# The layers of the per-layer table.  Metric names are
# "<module>.<qualname>.calls" / ".busy_ms", plus ".self_ms" where marked.
TARGETS = [
    _t("cli", "main"),
    # gf: construction
    _t("gf", "GF.__init__"),
    _t("gf", "extension"),
    _t("gf", "GF.register_embedding"),
    # gf: arithmetic
    _t("gf", "FFElt.__mul__", True),
    _t("gf", "FFElt.__add__", True),
    _t("gf", "FFElt.__pow__", True),
    _t("gf", "FFElt.inverse", True),
    _t("gf", "GF.frob_p"),
    _t("gf", "fp_kernel"),
    _t("gf", "fp_rref"),
    # galrep
    _t("galrep", "solve_unit_root", True),
    _t("galrep", "frobenius_action"),
    _t("galrep", "SolutionSet.solutions"),
    _t("galrep", "ff_vec_mat"),
    _t("galrep", "ff_mat_inv"),
    _t("galrep", "charpoly_mod_p"),
    # series
    _t("series", "TruncSeries.__mul__", True),
    _t("series", "TruncSeries.__add__", True),
    _t("series", "TruncSeries.inverse"),
    # phimod
    _t("phimod", "mat_det"),
    _t("phimod", "mat_adjugate"),
    _t("phimod", "snf_u_exponents"),
    _t("phimod", "height_divides"),
    _t("phimod", "PhiLattice.__init__"),
    # perfseries / witt
    _t("perfseries", "PerfSeries.__mul__", True),
    _t("perfseries", "PerfSeries.inverse"),
    _t("perfseries", "solve_frobenius_fixed"),
    _t("perfseries", "solve_additive"),
    _t("witt", "eval_law"),
    _t("witt", "generate_laws"),
    # taumod / logtrunc
    _t("taumod", "BivarSeries.__mul__", True),
    _t("taumod", "galois_act"),
    _t("taumod", "binom_power"),
    _t("taumod", "check_commutation"),
    _t("logtrunc", "log_m"),
    _t("logtrunc", "mmul", True),
]


def target_name(t: Target) -> str:
    return t.module.split(".", 1)[1] + "." + t.qualname


def _on_field_built(tracer, args, result):
    tracer.counters["gf.fields_fp_degree_sum"] += args[0].fp_degree


def _on_solved(tracer, args, result):
    tracer.counters["galrep.splitting_degree_sum"] += result.s
    tracer.counters["galrep.splitting_degree_max"] = max(
        tracer.counters.get("galrep.splitting_degree_max", 0), result.s)


HOOKS = {"gf.GF.__init__": _on_field_built, "galrep.solve_unit_root": _on_solved}


class Tracer:
    """Span aggregation.  ``clock`` returns integer nanoseconds."""

    REPORT_TAG = "PERFBENCH_TRACE "     # prefixes a traced CLI child's report on stderr

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.op = None
        self.spans = {}         # (op, name, parent) -> [calls, busy_ns, self_ns]
        self.counters = Counter()
        self.missing = []
        self._stack = []        # [name, start_ns, child_ns]
        self._depth = {}
        self._restore = []

    # --- spans ---

    def enter(self, name):
        self._stack.append([name, self.clock(), 0])
        self._depth[name] = self._depth.get(name, 0) + 1

    def exit(self):
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self._depth[name] -= 1
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.op, name, parent)
        row = self.spans.get(key)
        if row is None:
            row = self.spans[key] = [0, 0, 0]
        row[0] += 1
        if self._depth[name] == 0:      # busy time counts the outermost call
            row[1] += dur
        row[2] += dur - child

    def wrap(self, name, fn, on_return):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    # --- installation ---

    def install(self, targets=TARGETS):
        """Wrap every target at each of its bindings in padiclab."""
        for t in targets:
            try:
                owner = importlib.import_module(t.module)
                *path, attr = t.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target_name(t))
                continue
            name = target_name(t)
            wrapped = self.wrap(name, orig, HOOKS.get(name))
            for holder in _holders():
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    # --- results ---

    def rows(self):
        return [[op, name, parent, *row] for (op, name, parent), row in self.spans.items()]

    def merge(self, report):
        """Add a child process's rows and counters."""
        for op, name, parent, calls, busy, self_ns in report["rows"]:
            row = self.spans.setdefault((op, name, parent), [0, 0, 0])
            row[0] += calls
            row[1] += busy
            row[2] += self_ns
        for key, val in report["counters"].items():
            if key.endswith("_max"):
                self.counters[key] = max(self.counters.get(key, 0), val)
            else:
                self.counters[key] += val

    def totals(self):
        """name -> [calls, busy_ns, self_ns] over all ops and parents."""
        out = {}
        for (_, name, _), row in self.spans.items():
            acc = out.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
        return out

    def calls_under(self, name, parent):
        return sum(row[0] for (_, n, par), row in self.spans.items()
                   if n == name and par == parent)


def _holders():
    """padiclab modules and the classes they define."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "padiclab" and not modname.startswith("padiclab."):
            continue
        out.append(mod)
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__ == modname:
                out.append(val)
    return out


SPLIT_CLASSES = (1, 2, 3, 4, 6, 8, 13, 26)
CLI_TIMINGS = ("cli.spawn", "cli.import", "cli.import_numpy")


def layer_metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them,
    with its unit."""
    out = []
    for t in TARGETS:
        name = target_name(t)
        out += [(f"{name}.calls", "count"), (f"{name}.busy_ms", "ms")]
        if t.self_time:
            out.append((f"{name}.self_ms", "ms"))
    out += [(f"{c}_ms", "ms") for c in CLI_TIMINGS]
    out += [("gf.fields_fp_degree_sum", "count"),
            ("galrep.extension_attempts_per_solve", "ratio"),
            ("galrep.splitting_degree_sum", "count"),
            ("galrep.splitting_degree_max", "count")]
    out += [(f"prop.s.{s}", "count") for s in SPLIT_CLASSES]
    out.append(("trace.overhead", "ratio"))
    return out


def layer_metrics(tracer: Tracer, props: dict) -> dict:
    """Per-layer values from a traced run; ``props`` counts ops by their
    splitting degree.  trace.overhead is filled in by the caller."""
    tot = tracer.totals()
    out = {}
    for t in TARGETS:
        name = target_name(t)
        calls, busy, self_ns = tot.get(name, (0, 0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_ms"] = busy / 1e6
        if t.self_time:
            out[f"{name}.self_ms"] = self_ns / 1e6
    procs = tracer.counters.get("cli.processes", 0)
    for c in CLI_TIMINGS:      # mean per CLI process
        out[f"{c}_ms"] = tracer.counters.get(f"{c}_ns", 0) / 1e6 / procs if procs else 0.0
    solves = tot.get("galrep.solve_unit_root", (0,))[0]
    attempts = tracer.calls_under("gf.extension", "galrep.solve_unit_root")
    out["gf.fields_fp_degree_sum"] = tracer.counters.get("gf.fields_fp_degree_sum", 0)
    out["galrep.extension_attempts_per_solve"] = attempts / solves if solves else 0.0
    out["galrep.splitting_degree_sum"] = tracer.counters.get("galrep.splitting_degree_sum", 0)
    out["galrep.splitting_degree_max"] = tracer.counters.get("galrep.splitting_degree_max", 0)
    for s in SPLIT_CLASSES:
        out[f"prop.s.{s}"] = props.get(f"s={s}", 0)
    return out
