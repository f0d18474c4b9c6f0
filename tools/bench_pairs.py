"""Gather paired benchmark runs of two checkouts into one BENCH_<name>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR NAME [--out FILE]

Each directory is a checkout in which `python3 perfbench/run.py ...
--trace 0` has run; its results sit in perfbench/results/<workload>-
seed<N>-trace0.json.  A run of one side pairs with the run of the other
side on the same workload and seed.  For every end-to-end metric that the
change's BENCHMARK.json declares, the file records each side's median and
quartiles over the paired runs, the seeds, and how many pairs the change
won (ties count for neither side).  "gain" is true when the change won at
least nine tenths of the pairs and the medians differ by more than the
parent's quartile spread.  "regressed" is true when the change's median
is worse than the parent's by more than the metric's declared bound, as
a share of the parent's median; the top-level "regressions" lists each
such "<workload>/<metric>".  "unresolved" is true when either side's
quartile spread is wider than the bound times the parent's median, so
the runs cannot tell a change of that size, unless every change run is
better than every parent run; the top-level "unresolved" lists each such
"<workload>/<metric>".  Each side also records whether every run
was correct, how many operations failed, the machine facts of its runs,
and each run's timed length in seconds (rounds times the wall time of a
round).  The tool exits 1, naming the workloads, when the two runs of a
pair differ in timed length by more than a factor of RUN_LENGTH_RATIO:
runs of different lengths are not a pair.  The top-level "bytecode"
records, per side, whether src/ssnsdp/__pycache__ holds bytecode when the
tool runs, and one warning line goes to stderr when the sides differ: a
worker that finds the bytecode skips compiling the package, which lowers
setup_s and peak_rss_mb.  One warning line also goes to stderr for each
workload whose runs, of either side, record more than one set of
machine facts: times taken on two machines are no pair.  The top-level
"host" records the CPU model and MemTotal of the host the tool runs on,
read from /proc/cpuinfo and /proc/meminfo (null where either is
missing); one warning line goes to stderr when the newest BENCH_*.json
of the change checkout that records a host, by the number in its name,
names another CPU model: times from two hosts do not compare across
files.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

RESULT = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")
RUN_LENGTH_RATIO = 1.5
# where /proc is read from; a test points it at a fake root
ROOT = Path("/")


def load_runs(checkout):
    """{(workload, seed): result} of one checkout's untraced runs."""
    runs = {}
    for path in sorted((Path(checkout) / "perfbench" / "results").glob("*")):
        m = RESULT.fullmatch(path.name)
        if m:
            with open(path) as f:
                runs[m["workload"], int(m["seed"])] = json.load(f)
    return runs


def holds_bytecode(checkout):
    """True when the checkout's src/ssnsdp/__pycache__ holds bytecode."""
    cache = Path(checkout) / "src" / "ssnsdp" / "__pycache__"
    return any(cache.glob("*.pyc"))


def proc_field(name, key):
    """The value of the first "key: value" line of ROOT/proc/<name>, or
    None when the file or the line is missing."""
    try:
        lines = (ROOT / "proc" / name).read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        k, sep, v = line.partition(":")
        if sep and k.strip() == key:
            return v.strip()
    return None


def host_facts():
    return {"cpu_model": proc_field("cpuinfo", "model name"),
            "mem_total": proc_field("meminfo", "MemTotal")}


def newest_host(checkout, skip):
    """(file name, host record) of the newest BENCH_*.json in checkout that
    records a host, by the number in its name, skipping the file skip;
    None when none does."""
    def number(path):
        m = re.search(r"\d+", path.stem)
        return int(m[0]) if m else -1

    paths = sorted(Path(checkout).glob("BENCH_*.json"), key=number)
    for path in reversed(paths):
        if path.resolve() == skip.resolve():
            continue
        try:
            host = json.loads(path.read_text()).get("host")
        except (OSError, ValueError, AttributeError):
            continue
        if host:
            return path.name, host
    return None


def run_length(run):
    """Timed length of one run in seconds."""
    return run["worker"]["rounds"] * run["worker"]["wall_s"]


def side(runs, metric):
    values = [r["metrics"][metric]["value"] for r in runs]
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "quartiles": [q1, q3], "values": values}


def compare(parent, change, metrics):
    """Per-workload summary of the runs both sides made; metrics maps each
    name to (sign, bound), sign 1 when lower is better and -1 otherwise."""
    out = {}
    for workload in sorted({w for w, _ in parent.keys() & change.keys()}):
        seeds = sorted(s for w, s in parent.keys() & change.keys()
                       if w == workload)
        pr = [parent[workload, s] for s in seeds]
        cr = [change[workload, s] for s in seeds]
        entry = {"seeds": seeds, "metrics": {}}
        for name, (sign, bound) in metrics.items():
            p, c = side(pr, name), side(cr, name)
            wins = sum(sign * (b - a) < 0
                       for a, b in zip(p["values"], c["values"]))
            spread = p["quartiles"][1] - p["quartiles"][0]
            widest = max(spread, c["quartiles"][1] - c["quartiles"][0])
            worse = sign * (c["median"] - p["median"])
            separated = max(sign * v for v in c["values"]) < min(
                sign * v for v in p["values"])
            entry["metrics"][name] = {
                "parent": p, "change": c, "wins": wins,
                "gain": bool(wins >= 0.9 * len(seeds)
                             and abs(c["median"] - p["median"]) > spread),
                "regressed": bool(worse > bound * abs(p["median"])),
                "unresolved": bool(widest > bound * abs(p["median"])
                                   and not separated)}
        for label, rs in (("parent", pr), ("change", cr)):
            entry[label] = {
                "all_correct": all(r["correct"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "attempted": sum(r["attempted"] for r in rs),
                "run_s": [run_length(r) for r in rs],
                "machine": [json.loads(m) for m in sorted(
                    {json.dumps(r["worker"]["machine"], sort_keys=True)
                     for r in rs})]}
        out[workload] = entry
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("name")
    p.add_argument("--out", help="output file (default BENCH_<name>.json)")
    args = p.parse_args(argv)
    with open(Path(args.change) / "BENCHMARK.json") as f:
        declared = json.load(f)["end_to_end"]
    metrics = {m["name"]: (1 if m["better"] == "lower" else -1, m["bound"])
               for m in declared}
    bytecode = {"parent": holds_bytecode(args.parent),
                "change": holds_bytecode(args.change)}
    if bytecode["parent"] != bytecode["change"]:
        only = "parent" if bytecode["parent"] else "change"
        print(f"warning: only the {only} checkout holds bytecode in "
              f"src/ssnsdp/__pycache__; setup_s and peak_rss_mb depend on "
              f"it", file=sys.stderr)
    workloads = compare(load_runs(args.parent), load_runs(args.change),
                        metrics)
    if not workloads:
        print("error: no workload has runs on both sides", file=sys.stderr)
        return 1
    for w, entry in workloads.items():
        machines = {json.dumps(m, sort_keys=True)
                    for label in ("parent", "change")
                    for m in entry[label]["machine"]}
        if len(machines) > 1:
            print(f"warning: the runs of {w} record {len(machines)} "
                  f"different machines; times from two machines are no "
                  f"pair", file=sys.stderr)
    mixed = [w for w, entry in workloads.items()
             if any(max(a, b) > RUN_LENGTH_RATIO * min(a, b)
                    for a, b in zip(entry["parent"]["run_s"],
                                    entry["change"]["run_s"]))]
    if mixed:
        print(f"error: paired runs differ in timed length by more than a "
              f"factor of {RUN_LENGTH_RATIO}: {', '.join(mixed)}",
              file=sys.stderr)
        return 1
    flagged = {key: [f"{w}/{name}" for w, entry in workloads.items()
                     for name, m in entry["metrics"].items() if m[key]]
               for key in ("regressed", "unresolved")}
    out = Path(args.out or f"BENCH_{args.name}.json")
    host = host_facts()
    last = newest_host(args.change, out)
    if last and last[1].get("cpu_model") != host["cpu_model"]:
        print(f"warning: this host's CPU is {host['cpu_model']!r}, "
              f"{last[0]} was taken on {last[1].get('cpu_model')!r}; "
              f"times from two hosts do not compare", file=sys.stderr)
    with open(out, "w") as f:
        json.dump({"name": args.name, "regressions": flagged["regressed"],
                   "unresolved": flagged["unresolved"],
                   "bytecode": bytecode, "host": host,
                   "workloads": workloads}, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
