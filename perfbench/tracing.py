"""Spans at the boundaries between ssnsdp's modules, for the traced run.

The package binds imported names at import time, so a span wraps the name
in the importing module (ssnsdp.solver.kkt_residual is the name the solve
loop calls), or the method on its class.  A wrapped name that no longer
exists raises MissingName when the spans are installed: a renamed function
must stop the traced run, not read as a layer that costs nothing.

Spans stay in memory until the run ends.  Each records its name, start,
end, the span it was called from and the operation it belongs to.
"""

import functools
import importlib
import time

# (owner, attribute, span name); the owner is a module or "module:Class".
SPANS = (
    # the five phases of a Newton step, as the solve loop calls them
    ("ssnsdp.solver", "_correct_with_decomps", "solver.correct"),
    ("ssnsdp.solver", "kkt_residual", "solver.residual"),
    ("ssnsdp.solver", "_make_backend", "solver.build"),
    ("ssnsdp.solver", "_direction", "solver.step"),
    ("ssnsdp.solver:_DenseBackend", "sigma_min", "solver.sigma"),
    ("ssnsdp._reduced:ReducedNewtonOperator", "sigma_min", "solver.sigma"),
    ("ssnsdp._reduced:WoodburyNewtonOperator", "sigma_min", "solver.sigma"),
    # linalg_sym, where other modules call it
    ("ssnsdp.solver", "eig_sym", "linalg_sym.eig"),
    ("ssnsdp.kkt", "eig_sym", "linalg_sym.eig"),
    ("ssnsdp.linalg_sym", "eig_sym", "linalg_sym.eig"),
    ("ssnsdp._reduced", "_svec_rotation_rows", "linalg_sym.rotation_rows"),
    ("ssnsdp.linalg_sym", "_svec_rotation_rows", "linalg_sym.rotation_rows"),
    ("ssnsdp._reduced", "svec", "linalg_sym.svec_smat"),
    ("ssnsdp._reduced", "smat", "linalg_sym.svec_smat"),
    ("ssnsdp.problem", "svec", "linalg_sym.svec_smat"),
    ("ssnsdp.problem", "smat", "linalg_sym.svec_smat"),
    ("ssnsdp.catalog", "svec", "linalg_sym.svec_smat"),
    ("ssnsdp.catalog", "smat", "linalg_sym.svec_smat"),
    # kkt: dense assembly and the dense singular value
    ("ssnsdp.solver", "assemble_U", "kkt.assemble"),
    ("ssnsdp.conditions", "assemble_U", "kkt.assemble"),
    ("ssnsdp.conditions", "min_singular_value", "kkt.min_sv"),
    # _reduced: structured builds, Lanczos, factorized solves
    ("ssnsdp._reduced:WoodburyNewtonOperator", "_build",
     "reduced.woodbury_build"),
    ("ssnsdp._reduced:ReducedNewtonOperator", "_build",
     "reduced.reduced_build"),
    ("ssnsdp._reduced", "_lanczos_sigma_min", "reduced.lanczos"),
    ("ssnsdp._reduced:ReducedNewtonOperator", "solve", "reduced.solve"),
    ("ssnsdp._reduced:ReducedNewtonOperator", "solve_t", "reduced.solve_t"),
    ("ssnsdp._reduced:WoodburyNewtonOperator", "solve", "reduced.solve"),
    ("ssnsdp._reduced:WoodburyNewtonOperator", "solve_t", "reduced.solve_t"),
    # conditions, as regularity_report calls it
    ("ssnsdp.conditions", "check_w_soc", "conditions.check"),
    ("ssnsdp.conditions", "check_s_sosc", "conditions.check"),
    ("ssnsdp.conditions", "check_w_srcq", "conditions.check"),
    ("ssnsdp.conditions", "check_cn", "conditions.check"),
    ("ssnsdp.conditions", "_newton_sigma", "conditions.newton_sigma"),
    ("ssnsdp.conditions", "_constraint_rows", "conditions.constraint_rows"),
    ("ssnsdp.conditions", "_curvature_matrix", "conditions.curvature"),
    # set-up: problem builds and starts, as the benchmark calls them
    ("ssnsdp.catalog", "catalog", "catalog.build"),
    ("ssnsdp.catalog", "example7_start", "problem.start"),
    ("ssnsdp.problem", "perturbed_start", "problem.start"),
)

# Counted, not spanned: a span here would be a sixth child of the solve
# loop, and its time belongs to the loop's own bookkeeping.
REUSE = ("ssnsdp.solver", "reuse_compatible")

# the spans whose result size is recorded, in bytes
SIZED = {"linalg_sym.rotation_rows"}

PHASES = ("solver.correct", "solver.residual", "solver.build", "solver.step",
          "solver.sigma")


class MissingName(LookupError):
    """A name the traced run wraps is gone from the package."""


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    if cls:
        if cls not in vars(obj):
            raise MissingName(f"{module}.{cls} no longer exists")
        obj = vars(obj)[cls]
    return obj


class Tracer:
    """Installs the spans, records them, and takes them out again."""

    def __init__(self, spans=SPANS, reuse=REUSE):
        self.spans = []    # [name, start, end, parent, op, nbytes]
        self.reuses = []   # op index of every factorization reuse
        self.ops = []      # kind of each operation, by op index
        self.op = -1       # running operation; -1 outside any
        self._stack = []
        self._undo = []
        self._table = spans
        self._reuse = reuse

    def install(self):
        try:
            for path, attr, name in self._table:
                self._patch(path, attr,
                            functools.partial(self._spanned, name))
            self._patch(*self._reuse, self._counted)
        except MissingName:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _patch(self, path, attr, make):
        owner = _owner(path)
        if attr not in vars(owner):
            raise MissingName(f"{path.replace(':', '.')}.{attr} no longer "
                              "exists; update perfbench/tracing.py")
        fn = vars(owner)[attr]
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def _call(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if name in SIZED:
            rec[5] = out.nbytes
        return out, rec

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)[0]
        return traced

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out:
                self.reuses.append(self.op)
            return out
        return counted

    def run(self, kind, fn, *args):
        """Call fn as one operation of the given kind, under a root span
        named after the kind; returns (result, seconds)."""
        self.op = len(self.ops)
        self.ops.append(kind)
        try:
            out, rec = self._call(kind, fn, args, {})
        finally:
            self.op = -1
        return out, rec[2] - rec[1]

    def dump(self):
        """Spans as JSON-ready rows: the name as an index into "names",
        start and end in nanoseconds from the first span."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round((a - t0) * 1e9), round((b - t0) * 1e9),
                 parent, op, nbytes]
                for name, a, b, parent, op, nbytes in self.spans]
        return {"fields": ["name", "start_ns", "end_ns", "parent", "op",
                           "nbytes"],
                "names": names, "ops": self.ops, "spans": rows}


def _nested_in_same(spans, rec):
    """True when rec runs inside another span of its own name."""
    parent = rec[3]
    while parent != -1:
        if spans[parent][0] == rec[0]:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, rounds):
    """Per-layer metrics of the timed operations ("solve" and "report").

    Times are inclusive: a span's children count in it.  The one self
    time, solver.loop_self_s, is the solve minus its five phases.  solver.*
    metrics are per solve, conditions.* per report, the layers under them
    per round, and catalog.* and problem.* per set-up.
    """
    spans, ops = tracer.spans, tracer.ops
    solves = sum(k == "solve" for k in ops)
    reports = sum(k == "report" for k in ops)
    if not solves or not reports or not rounds:
        raise ValueError("layer metrics need timed solves and reports")
    time_of, calls = {}, {}
    rotation_bytes = 0
    phase = dict.fromkeys(PHASES, 0.0)
    phase_calls = dict.fromkeys(PHASES, 0)
    lanczos_applies = 0
    solve_time = report_time = 0.0
    for rec in spans:
        name, t0, t1, parent, op, nbytes = rec
        kind = ops[op] if op >= 0 else "setup"
        dt = t1 - t0
        if kind == "setup" and name in ("catalog.build", "problem.start"):
            time_of[name] = time_of.get(name, 0.0) + dt
            continue
        if kind not in ("solve", "report"):
            continue
        if parent == -1 and name == kind:
            if kind == "solve":
                solve_time += dt
            else:
                report_time += dt
            continue
        if name in phase and kind == "solve":
            if spans[parent][0] != "solve":
                raise RuntimeError(f"{name} ran inside {spans[parent][0]}, "
                                   "not directly in the solve loop")
            phase[name] += dt
            phase_calls[name] += 1
            continue
        if _nested_in_same(spans, rec):
            continue
        time_of[name] = time_of.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0) + 1
        if name in SIZED:
            rotation_bytes = max(rotation_bytes, nbytes)
        if name == "reduced.solve_t" and spans[parent][0] == "reduced.lanczos":
            lanczos_applies += 1
    reuses = sum(ops[op] == "solve" for op in tracer.reuses)

    def per_round(name):
        return time_of.get(name, 0.0) / rounds

    def count_per_round(name):
        return calls.get(name, 0) / rounds

    m = {}
    m["solver.solve_s"] = (solve_time / solves, "s/solve")
    for name in PHASES:
        m[name + "_s"] = (phase[name] / solves, "s/solve")
    m["solver.loop_self_s"] = (
        (solve_time - sum(phase.values())) / solves, "s/solve")
    m["solver.newton_steps"] = (phase_calls["solver.step"] / solves,
                                "count/solve")
    m["solver.builds"] = (phase_calls["solver.build"] / solves, "count/solve")
    m["solver.reuses"] = (reuses / solves, "count/solve")
    m["linalg_sym.eig_s"] = (per_round("linalg_sym.eig"), "s/round")
    m["linalg_sym.eig_calls"] = (count_per_round("linalg_sym.eig"),
                                 "count/round")
    m["linalg_sym.rotation_rows_s"] = (per_round("linalg_sym.rotation_rows"),
                                       "s/round")
    m["linalg_sym.rotation_rows_peak_mb"] = (rotation_bytes / 1e6, "MB")
    m["linalg_sym.svec_smat_s"] = (per_round("linalg_sym.svec_smat"),
                                   "s/round")
    m["linalg_sym.svec_smat_calls"] = (count_per_round("linalg_sym.svec_smat"),
                                       "count/round")
    m["kkt.assemble_s"] = (per_round("kkt.assemble"), "s/round")
    m["kkt.assemble_calls"] = (count_per_round("kkt.assemble"), "count/round")
    m["kkt.min_sv_s"] = (per_round("kkt.min_sv"), "s/round")
    m["reduced.woodbury_build_s"] = (per_round("reduced.woodbury_build"),
                                     "s/round")
    m["reduced.reduced_build_s"] = (per_round("reduced.reduced_build"),
                                    "s/round")
    m["reduced.lanczos_s"] = (per_round("reduced.lanczos"), "s/round")
    m["reduced.lanczos_applies"] = (lanczos_applies / rounds, "count/round")
    m["reduced.solve_s"] = (
        per_round("reduced.solve") + per_round("reduced.solve_t"), "s/round")
    m["reduced.solve_calls"] = (
        count_per_round("reduced.solve") + count_per_round("reduced.solve_t"),
        "count/round")
    m["conditions.report_s"] = (report_time / reports, "s/report")
    m["conditions.checks_s"] = (
        time_of.get("conditions.check", 0.0) / reports, "s/report")
    m["conditions.newton_sigma_s"] = (
        time_of.get("conditions.newton_sigma", 0.0) / reports, "s/report")
    m["conditions.constraint_rows_calls"] = (
        calls.get("conditions.constraint_rows", 0) / reports, "count/report")
    m["conditions.curvature_calls"] = (
        calls.get("conditions.curvature", 0) / reports, "count/report")
    m["catalog.build_s"] = (time_of.get("catalog.build", 0.0), "s")
    m["problem.start_s"] = (time_of.get("problem.start", 0.0), "s")
    return m
