"""Tests of the benchmark itself: its checks catch wrong answers, its output
names every metric BENCHMARK.json declares, and its traced run stops when a
wrapped name is gone.

    python3 -m pytest -q perfbench/tests

The output test runs every workload for one second, plain and traced, and
takes about a minute on two cores.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny():
    return workloads.build("tiny-catalog", seed=0)


def test_same_seed_same_inputs():
    a = workloads.build("tiny-catalog", seed=4)
    b = workloads.build("tiny-catalog", seed=4)
    c = workloads.build("tiny-catalog", seed=5)
    va = [z.to_vector() for case in a for z in case.starts]
    vb = [z.to_vector() for case in b for z in case.starts]
    vc = [z.to_vector() for case in c for z in case.starts]
    assert all(np.array_equal(x, y) for x, y in zip(va, vb))
    assert not all(np.array_equal(x, y) for x, y in zip(va, vc))


def test_right_answers_pass(tiny):
    orders = []
    for case in tiny:
        for z0 in case.starts:
            out = worker.perform("solve", case, z0)
            assert worker.judge("solve", case, out) == (True, [])
            orders.append(checks.observed_order(
                [row.f_norm for row in out.trace]))
        if case.report:
            rep = worker.perform("report", case, None)
            assert worker.judge("report", case, rep) == (True, [])
    # the order check runs on most tiny-catalog traces
    assert sum(o is not None for o in orders) >= len(orders) // 2


def test_start_returned_unchanged_fails(tiny):
    case = tiny[0]
    out = worker.perform("solve", case, case.starts[0])
    out.z_final = case.starts[0]
    completed, faults = worker.judge("solve", case, out)
    assert completed and any("from the KKT point" in f for f in faults)


def test_shifted_reference_fails():
    case = workloads.build("tiny-catalog", seed=0)[1]
    x, xi, gamma = case.ref
    case.ref = (x + 1e-6, xi, gamma)
    tally = worker.Tally()
    worker.run_op(None, tally, "solve", case, case.starts[0])
    assert (tally.failed, tally.wrong) == (1, 1)
    # a report at a point that is not a KKT point raises: failed, not wrong
    worker.run_op(None, tally, "report", case, None)
    assert (tally.failed, tally.wrong) == (2, 1)
    assert tally.attempted == {"solve": 1, "report": 1}
    assert len(tally.times["solve"]) == 1 and not tally.times["report"]


def test_wrong_report_fails(tiny):
    case = tiny[0]
    rep = worker.perform("report", case, None)
    rep.cn.holds = not rep.cn.holds
    assert any(f.startswith("cn ") for f in checks.check_report(rep, "ex3"))
    rep = worker.perform("report", case, None)
    rep.u0_sigma_min = 0.0
    assert any("U0 certificate" in f
               for f in checks.check_report(rep, "ex3"))


def test_hand_derived_values():
    assert checks.hand_sigma("ex5", "U0") == pytest.approx(0.6180339887)
    assert checks.hand_sigma("ex1", "UI") == pytest.approx(0.3273629,
                                                           abs=1e-7)
    assert checks.hand_sigma("ex3", "U0") is None


def test_observed_order():
    f = [1e-1, 1e-3, 1e-6, 1e-12, 1e-16]
    assert checks.observed_order(f) == pytest.approx(2.0)
    assert checks.observed_order([1.0, 1e-14]) is None
    assert checks.observed_order([1e-3, 1e-4]) == pytest.approx(4 / 3)


def test_missing_name_fails_loudly():
    import ssnsdp.solver
    original = ssnsdp.solver.kkt_residual
    spans = (("ssnsdp.solver", "kkt_residual", "solver.residual"),
             ("ssnsdp.solver", "no_such_function", "solver.gone"))
    with pytest.raises(tracing.MissingName, match="no_such_function"):
        tracing.Tracer(spans=spans).install()
    # what was wrapped before the failure is restored
    assert ssnsdp.solver.kkt_residual is original
    with pytest.raises(tracing.MissingName, match="NoSuchClass"):
        tracing.Tracer(spans=(("ssnsdp.solver:NoSuchClass", "solve",
                               "x"),)).install()
    with pytest.raises(tracing.MissingName, match="reuse_gone"):
        tracing.Tracer(spans=(),
                       reuse=("ssnsdp.solver", "reuse_gone")).install()


def test_every_wrapped_name_exists():
    t = tracing.Tracer()
    t.install()
    t.uninstall()


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_declared_workloads_run():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_output_names_every_metric(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        out = _run(workload, trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared}
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(math.isfinite(v) for v in values.values())
        if trace:
            phases = sum(values[p + "_s"] for p in tracing.PHASES)
            assert values["solver.loop_self_s"] > 0
            assert phases + values["solver.loop_self_s"] == pytest.approx(
                values["solver.solve_s"], rel=1e-9)
        else:
            assert all(v > 0 for v in values.values())


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny-catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout
