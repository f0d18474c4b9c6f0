"""tools/cli_compare.py on small synthetic output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_compare.py"
RUN = {"status": "converged", "iterations": 4,
       "trace": [{"k": 0, "f_norm": 0.38260929656067844,
                  "sigma_min": 0.3775165750734789},
                 {"k": 1, "f_norm": 3.065854818526925e-15,
                  "sigma_min": float("nan")}]}


@pytest.fixture(scope="module")
def cli_compare():
    spec = importlib.util.spec_from_file_location("cli_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(root, run=RUN, csv="item,value\nw_soc,inf\n", codes=None):
    (root / "inputs").mkdir(parents=True)
    (root / "inputs" / "start.json").write_text('{"x": [1.0, 2.0]}\n')
    (root / "run-format-json").write_text(json.dumps(run))
    (root / "check-format-csv").write_text(csv)
    (root / "exit_codes.txt").write_text(
        codes or "run-format-json 0\ncheck-format-csv 0\n")
    return root


def edited(run, *keys, value):
    """A copy of run with the entry at keys set to value."""
    run = json.loads(json.dumps(run))
    node = run
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return run


def test_same_outputs_pass(cli_compare, tmp_path, capsys):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b")
    assert cli_compare.compare(a, b) == []
    assert cli_compare.main([str(a), str(b)]) == 0
    assert "4 files" in capsys.readouterr().out


def test_floats_in_the_last_digits_pass(cli_compare, tmp_path):
    """The rounding that a change of factorization leaves behind: a
    relative change of 2e-16 and an absolute one of 2e-17 at the floor."""
    run = edited(RUN, "trace", 0, "sigma_min", value=0.37751657507347897)
    run["trace"][1]["f_norm"] = 3.0840011952430593e-15
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", run=run)
    assert cli_compare.compare(a, b) == []


@pytest.mark.parametrize("keys,value", [
    (("status",), "max_iter"),
    (("iterations",), 5),
    (("iterations",), 4.0),
    (("trace", 0, "sigma_min"), 0.37751657),
    (("trace", 1, "f_norm"), 3.2e-13),
    (("trace", 1, "sigma_min"), 0.0),
    (("trace",), []),
])
def test_a_real_change_fails(cli_compare, tmp_path, keys, value):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", run=edited(RUN, *keys, value=value))
    diffs = cli_compare.compare(a, b)
    assert len(diffs) == 1 and diffs[0].startswith("run-format-json: $.")
    assert cli_compare.main([str(a), str(b)]) == 1


def test_csv_and_exit_codes_compare_bytes(cli_compare, tmp_path):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", csv="item,value\nw_soc,inf \n",
                      codes="run-format-json 0\ncheck-format-csv 2\n")
    assert cli_compare.compare(a, b) == [
        "check-format-csv: bytes differ", "exit_codes.txt: bytes differ"]


CSV = "item,value\nui_sigma_min,{}\nw_soc,true\n"


def test_csv_floats_in_the_last_digits_pass(cli_compare, tmp_path):
    """A CSV cell that reads as a float on both sides takes the JSON
    float rule: 3e-16 relative is rounding."""
    a = write_outputs(tmp_path / "a", csv=CSV.format("0.327362939871023"))
    b = write_outputs(tmp_path / "b", csv=CSV.format("0.32736293987102294"))
    assert cli_compare.compare(a, b) == []


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("0.3273", "0.3274"),
    lambda text: text.replace("true", "false"),
    lambda text: text + "extra,1.0\n",
], ids=["float", "flag", "extra-row"])
def test_a_real_csv_change_fails(cli_compare, tmp_path, edit):
    text = CSV.format("0.3273")
    a = write_outputs(tmp_path / "a", csv=text)
    b = write_outputs(tmp_path / "b", csv=edit(text))
    assert cli_compare.compare(a, b) == ["check-format-csv: bytes differ"]


def test_file_sets_must_match(cli_compare, tmp_path):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b")
    (a / "inputs" / "start.json").unlink()
    (b / "extra-format-table").write_text("x\n")
    assert cli_compare.compare(a, b) == [
        f"extra-format-table: only in {b}",
        f"inputs/start.json: only in {b}"]
