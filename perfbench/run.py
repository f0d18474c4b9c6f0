"""Benchmark of the corrected semismooth Newton solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics: set-up time, the median time of one solve and of one report, the
time of one round of the timed phase, and peak memory.  With --trace 1 it
prints the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with "correct", "attempted", "failed"
and "metrics".  See perfbench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("ex5-woodbury", "ex1-reduced", "dense-cutoff", "tiny-catalog")

# set-up is timed this many times per run, each in a fresh process, and
# reported as the median: one sample varied by 19% from run to run
SETUP_SAMPLES = 3
# a worker that has not finished set-up by then is stopped
SETUP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s_p50": "s", "report_s_p50": "s",
                    "wall_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def run_worker(args, setup_only):
    """(set-up seconds, result or None) of one worker process.

    Set-up is timed from just before the process starts to its "ready"
    line, so it includes interpreter start and imports.
    """
    t0 = time.perf_counter()
    proc = start_worker(args, setup_only)
    limit = SETUP_TIMEOUT_S + (0 if setup_only else 3.0 * args.seconds + 60)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"worker stopped in set-up: {line.strip()!r}")
        lines = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup, None
    if not lines:
        raise WorkerError("worker printed no result")
    return setup, json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Time ssnsdp solves and reports on a fixed workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ssnsdp" / "__init__.py").is_file():
        print(f"error: no ssnsdp package under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    # the traced run reports no set-up time, so it takes one sample
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = [run_worker(args, setup_only=True)[0] for _ in range(extra)]
        setup, result = run_worker(args, setup_only=False)
    except (WorkerError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(setup)

    m = result["machine"]
    print(f"machine: nproc {m['nproc']} (usable {m['cpus_usable']}), "
          f"BLAS {m['blas']} threads {m['blas_threads']}, "
          f"Python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} "
          f"rounds, {result['solves']} solves, {result['reports']} reports, "
          f"{result['failed']} of {result['attempted']} operations failed")
    for fault in result["faults"]:
        print(f"  fault: {fault}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        values = dict(result, setup_s=statistics.median(setups))
        if values["solve_s_p50"] is None or values["report_s_p50"] is None:
            print("error: no solve or no report completed", file=sys.stderr)
            return 1
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, v in metrics.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")

    summary = {"correct": result["wrong"] == 0,
               "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as f:
        json.dump(dict(summary, setup_samples_s=setups, worker=result), f,
                  indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
