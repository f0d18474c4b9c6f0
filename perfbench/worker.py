"""One benchmark process: set up a workload, then time it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only]

run.py starts this script and reads its standard output: the line "ready"
when set-up is over, then, unless --setup-only, one JSON line with the
timed phase's results.  Set-up is imports, the catalog builds, the starts,
and one untimed warm-up solve and report per case.  The timed phase runs
whole rounds (see workloads.py) until --seconds have passed.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# One BLAS and OpenMP thread: on a two-vCPU machine, ex5 60/40 solves took
# 1.40-2.01 s with OpenBLAS's default two threads and 0.95-1.29 s with one.
# Set before numpy loads, for this process only.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# at most this many fault messages are kept in a result
MAX_FAULTS = 20


def import_package():
    """Import ssnsdp from this checkout's src/, and nowhere else."""
    init = SRC / "ssnsdp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run the benchmark from "
                         "a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ssnsdp
    if Path(ssnsdp.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported ssnsdp from {ssnsdp.__file__}, "
                         f"not from {init}")


def machine_facts():
    """nproc, the BLAS and its thread count, and the library versions."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def round_ops(cases):
    """One round: a solve from every start of every case, then one report
    per case that has one."""
    ops = [("solve", case, z0) for case in cases for z0 in case.starts]
    ops += [("report", case, None) for case in cases if case.report]
    return ops


def perform(kind, case, z0):
    import ssnsdp.conditions
    import ssnsdp.solver
    if kind == "solve":
        return ssnsdp.solver.ssn_solve(case.problem, z0, case.params)
    return ssnsdp.conditions.regularity_report(case.problem, case.ref_point)


def judge(kind, case, out):
    """(completed, faults): an operation completes when a solve converges
    or a report returns; faults are the checks its answer fails."""
    from checks import check_report, check_solve
    if kind == "solve":
        if out.status != "converged":
            return False, [f"{case.name} solve stopped: {out.status}"]
        faults = check_solve(out, case.name, case.variant, case.ref)
    else:
        faults = check_report(out, case.name)
    return True, [f"{case.name} {kind}: {f}" for f in faults]


class Tally:
    """Outcome of every timed operation, and the time of each that
    completed."""

    def __init__(self):
        self.times = {"solve": [], "report": []}
        self.attempted = {"solve": 0, "report": 0}
        self.failed = 0
        self.wrong = 0
        self.faults = []

    def record(self, kind, seconds, completed, faults):
        self.attempted[kind] += 1
        if completed:
            self.times[kind].append(seconds)
        if not completed or faults:
            self.failed += 1
        if completed and faults:
            self.wrong += 1
        self.faults.extend(faults[:MAX_FAULTS - len(self.faults)])


def run_op(tracer, tally, kind, case, z0, warmup=False):
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = perform(kind, case, z0)
            seconds = time.perf_counter() - t0
        else:
            # warm-up operations stay out of the layer metrics
            label = "warmup" if warmup else kind
            out, seconds = tracer.run(label, perform, kind, case, z0)
    except Exception as err:  # a raising operation fails; the run goes on
        tally.record(kind, None, False,
                     [f"{case.name} {kind} raised {err!r}"])
        return
    completed, faults = judge(kind, case, out)
    tally.record(kind, seconds, completed, faults)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_package()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    cases = workloads.build(args.workload, args.seed)
    warm = Tally()
    for case in cases:
        run_op(tracer, warm, "solve", case, case.starts[0], warmup=True)
        if case.report:
            run_op(tracer, warm, "report", case, None, warmup=True)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = round_ops(cases)
    tally = Tally()
    rounds = 0
    t0 = time.perf_counter()
    while True:
        for kind, case, z0 in ops:
            run_op(tracer, tally, kind, case, z0)
        rounds += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    wall = time.perf_counter() - t0

    times = tally.times
    result = {
        "attempted": sum(tally.attempted.values()), "failed": tally.failed,
        "wrong": tally.wrong, "faults": tally.faults, "rounds": rounds,
        "solves": tally.attempted["solve"],
        "reports": tally.attempted["report"],
        "solve_s_p50": (statistics.median(times["solve"])
                        if times["solve"] else None),
        "report_s_p50": (statistics.median(times["report"])
                         if times["report"] else None),
        "wall_s": wall / rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "machine": machine_facts(),
    }
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer, rounds)
        RESULTS.mkdir(exist_ok=True)
        name = f"trace-{args.workload}-seed{args.seed}.json"
        with open(RESULTS / name, "w") as f:
            json.dump(tracer.dump(), f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
