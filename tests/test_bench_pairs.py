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


def write_run(root, workload, seed, solve_s, rss_mb, correct=True, failed=0):
    results = root / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    run = {"correct": correct, "attempted": 10, "failed": failed,
           "metrics": {"solve_s_p50": {"value": solve_s, "unit": "s"},
                       "peak_rss_mb": {"value": rss_mb, "unit": "MB"}},
           "worker": {"machine": MACHINE}}
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
    assert bench["regressions"] == []
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
                            "attempted": 40, "machine": [MACHINE]}


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


def test_no_common_runs_is_an_error(bench_pairs, tmp_path, capsys):
    parent, change = checkouts(tmp_path)
    for f in (parent / "perfbench" / "results").glob("*"):
        f.unlink()
    assert bench_pairs.main([str(parent), str(change), "t",
                             "--out", str(tmp_path / "x.json")]) == 1
    assert "no workload" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
