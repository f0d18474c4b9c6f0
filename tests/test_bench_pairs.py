"""tools/bench_pairs.py on synthetic benchmark result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
MACHINE = {"nproc": 2, "blas": "openblas", "python": "3.11"}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root, workload, seed, solve_s, rss_mb, correct=True, failed=0,
              run_s=25.0, machine=MACHINE):
    results = root / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    run = {"correct": correct, "attempted": 10, "failed": failed,
           "metrics": {"solve_s_p50": {"value": solve_s, "unit": "s"},
                       "peak_rss_mb": {"value": rss_mb, "unit": "MB"}},
           "worker": {"machine": machine, "rounds": 4,
                      "wall_s": run_s / 4}}
    (results / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps(run))


def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (change).mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "solve_s_p50", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    for seed, (p, c) in enumerate([(2.0, 1.0), (2.2, 1.1), (1.8, 0.9),
                                   (2.1, 2.5)], start=5):
        write_run(parent, "w", seed, p, 100.0)
        write_run(change, "w", seed, c, 100.0 + seed - 6)
    # unpaired runs and traced runs are ignored
    write_run(parent, "w", 9, 9.0, 1.0)
    write_run(change, "other", 5, 1.0, 1.0)
    (change / "perfbench" / "results" / "w-seed5-trace1.json").write_text("{}")
    return parent, change


def test_pairs_by_workload_and_seed(bench_pairs, tmp_path):
    parent, change = checkouts(tmp_path)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main([str(parent), str(change), "t",
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["name"] == "t"
    assert bench["regressions"] == [] and bench["unresolved"] == []
    assert list(bench["workloads"]) == ["w"]
    w = bench["workloads"]["w"]
    assert w["seeds"] == [5, 6, 7, 8]
    solve = w["metrics"]["solve_s_p50"]
    assert solve["parent"]["median"] == pytest.approx(2.05)
    assert solve["parent"]["quartiles"] == pytest.approx([1.95, 2.125])
    assert solve["change"]["median"] == pytest.approx(1.05)
    assert solve["wins"] == 3
    assert solve["gain"] is False      # 3 wins of 4 pairs is under 9/10
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 1 and rss["gain"] is False  # one tie, two losses
    assert solve["regressed"] is False and rss["regressed"] is False
    for label in ("parent", "change"):
        assert w[label] == {"all_correct": True, "failed": 0,
                            "attempted": 40, "machine": [MACHINE],
                            "run_s": [25.0] * 4}


def test_gain_needs_every_pair_and_a_median_gap(bench_pairs, tmp_path):
    parent, change = checkouts(tmp_path)
    write_run(change, "w", 8, 1.05, 100.0)
    out = tmp_path / "BENCH_t.json"
    bench_pairs.main([str(parent), str(change), "t", "--out", str(out)])
    solve = json.loads(out.read_text())["workloads"]["w"]["metrics"][
        "solve_s_p50"]
    assert solve["wins"] == 4
    assert solve["gain"] is True


@pytest.mark.parametrize("rss, regressed", [(109.0, False), (111.0, True)])
def test_regressed_past_the_bound(bench_pairs, tmp_path, rss, regressed):
    # parent median 100 MB, bound 0.1: worse than 110 MB is a regression
    parent, change = checkouts(tmp_path)
    for seed, solve_s in enumerate([1.0, 1.1, 0.9, 2.5], start=5):
        write_run(change, "w", seed, solve_s, rss)
    out = tmp_path / "BENCH_t.json"
    bench_pairs.main([str(parent), str(change), "t", "--out", str(out)])
    bench = json.loads(out.read_text())
    assert bench["workloads"]["w"]["metrics"]["peak_rss_mb"][
        "regressed"] is regressed
    assert bench["regressions"] == (["w/peak_rss_mb"] if regressed else [])


@pytest.mark.parametrize("parent_s, change_s, unresolved", [
    # the change's quartiles span 1.75 - 1.1 s, wider than 0.25 x 2.05 s
    ([2.0, 2.2, 1.8, 2.1], [1.0, 1.2, 2.5, 2.0], True),
    # as wide, but every change run is faster than every parent run
    ([2.0, 2.2, 1.8, 2.1], [0.2, 1.7, 0.4, 1.5], False),
    # the parent's quartiles are the wide ones
    ([1.0, 3.0, 2.0, 4.0], [2.0, 2.1, 2.2, 2.3], True),
    # both within the bound, the change no better
    ([2.0, 2.2, 1.8, 2.1], [2.1, 2.1, 2.0, 2.2], False)])
def test_spread_wider_than_the_bound_is_unresolved(
        bench_pairs, tmp_path, parent_s, change_s, unresolved):
    parent, change = checkouts(tmp_path)
    for seed, (p, c) in enumerate(zip(parent_s, change_s), start=5):
        write_run(parent, "w", seed, p, 100.0)
        write_run(change, "w", seed, c, 100.0)
    out = tmp_path / "BENCH_t.json"
    bench_pairs.main([str(parent), str(change), "t", "--out", str(out)])
    bench = json.loads(out.read_text())
    metrics = bench["workloads"]["w"]["metrics"]
    assert metrics["solve_s_p50"]["unresolved"] is unresolved
    assert metrics["peak_rss_mb"]["unresolved"] is False
    assert bench["unresolved"] == (["w/solve_s_p50"] if unresolved else [])
    assert bench["regressions"] == []


def test_no_common_runs_is_an_error(bench_pairs, tmp_path, capsys):
    parent, change = checkouts(tmp_path)
    for f in (parent / "perfbench" / "results").glob("*"):
        f.unlink()
    assert bench_pairs.main([str(parent), str(change), "t",
                             "--out", str(tmp_path / "x.json")]) == 1
    assert "no workload" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("run_s, code", [(37.0, 0), (38.0, 1)])
def test_pairs_of_different_length_are_an_error(bench_pairs, tmp_path,
                                                capsys, run_s, code):
    # parent runs last 25 s; a change run past 1.5 times that is no pair
    parent, change = checkouts(tmp_path)
    write_run(change, "w", 6, 1.1, 100.0, run_s=run_s)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main([str(parent), str(change), "t",
                             "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert "timed length" in err and err.rstrip().endswith(": w")
        assert not out.exists()
    else:
        assert err == ""
        assert json.loads(out.read_text())["workloads"]["w"]["change"][
            "run_s"] == [25.0, 37.0, 25.0, 25.0]


def write_bytecode(checkout):
    cache = checkout / "src" / "ssnsdp" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "solver.cpython-311.pyc").write_bytes(b"\0")


@pytest.mark.parametrize("cached", [(), ("parent",), ("change",),
                                    ("parent", "change")])
def test_bytecode_is_recorded_and_a_difference_warned(bench_pairs, tmp_path,
                                                      capsys, cached):
    parent, change = checkouts(tmp_path)
    dirs = {"parent": parent, "change": change}
    for label in cached:
        write_bytecode(dirs[label])
    # a cache directory without bytecode holds none
    for label in set(dirs) - set(cached):
        (dirs[label] / "src" / "ssnsdp" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main([str(parent), str(change), "t",
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["bytecode"] == {label: label in cached for label in dirs}
    assert bench["workloads"]["w"]["metrics"]["solve_s_p50"]["wins"] == 3
    err = capsys.readouterr().err
    if len(cached) == 1:
        assert err.count("\n") == 1 and err.startswith("warning:")
        assert f"only the {cached[0]} checkout" in err
    else:
        assert err == ""


@pytest.mark.parametrize("moved", [None, "parent", "change", "side"])
def test_a_machine_difference_is_warned(bench_pairs, tmp_path, capsys,
                                        moved):
    """One run of a side on another machine: one warning line names the
    workload, and the file records both machines and is otherwise the
    same.  Every run of one side on another machine warns the same."""
    parent, change = checkouts(tmp_path)
    other = dict(MACHINE, nproc=4)
    if moved in ("parent", "change"):
        c = {"parent": 2.2, "change": 1.1}[moved]
        write_run(tmp_path / moved, "w", 6, c, 100.0, machine=other)
    elif moved == "side":
        # the whole change side ran on the other machine
        for seed, c in enumerate([1.0, 1.1, 0.9, 2.5], start=5):
            write_run(change, "w", seed, c, 100.0 + seed - 6, machine=other)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main([str(parent), str(change), "t",
                             "--out", str(out)]) == 0
    err = capsys.readouterr().err
    w = json.loads(out.read_text())["workloads"]["w"]
    assert w["metrics"]["solve_s_p50"]["wins"] == 3
    if moved is None:
        assert err == ""
        return
    assert err.count("\n") == 1 and err.startswith("warning:")
    assert "runs of w record 2 different machines" in err
    if moved == "side":
        assert w["parent"]["machine"] == [MACHINE]
        assert w["change"]["machine"] == [other]
    else:
        assert len(w[moved]["machine"]) == 2 and other in w[moved]["machine"]
