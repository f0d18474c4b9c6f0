"""End-to-end tests of the command-line interface (in-process, plus one
`python -m ssnsdp` subprocess run)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ssnsdp
import ssnsdp._reduced as reduced_mod
import ssnsdp.cli as cli_mod
from ssnsdp.catalog import catalog
from ssnsdp.cli import main
from ssnsdp.problem import BlockSymMatrix, KktPoint, NlsdpProblem, save_qsdp

RUN_KEYS = {"iterations", "params", "problem", "seed", "status"}
ROW_KEYS = {"correction_shift", "dist", "f_norm", "k", "newton_residual",
            "sigma_min"}
PARAM_KEYS = {"correction", "delta", "max_iter", "tol", "variant"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def ex3_qsdp(tmp_path):
    problem, sol = catalog("ex3")
    path = tmp_path / "ex3.json"
    save_qsdp(path, dict(problem.qsdp_data, name="ex3file"))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({
        "x": sol.z_bar.x.tolist(),
        "xi": [],
        "Gamma": [b.tolist() for b in sol.z_bar.Gamma.blocks],
    }))
    return str(path), str(point)


# ---------------------------------------------------------------------------
# run subcommand


def test_run_converges_on_catalog_example(capsys):
    code, out, _ = run_cli(capsys, "run", "--example", "ex3",
                           "--perturb", "10", "--seed", "1")
    assert code == 0
    assert "status: converged" in out
    assert "fitted order" in out
    assert out.endswith("\n")


def test_run_json_schema(capsys):
    code, out, _ = run_cli(capsys, "run", "--example", "ex3",
                           "--perturb", "10", "--seed", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == RUN_KEYS
    assert payload["problem"] == "ex3"
    assert payload["status"] == "converged"
    assert set(payload["params"]) == PARAM_KEYS
    assert payload["params"]["variant"] == "U0"
    assert payload["params"]["correction"] is True
    for row in payload["iterations"]:
        assert set(row) == ROW_KEYS
        assert row["dist"] is not None  # known solution: distance recorded
    fs = [row["f_norm"] for row in payload["iterations"]]
    assert fs[-1] < 1e-10


def test_run_csv_round_trips_floats(capsys):
    code, out, _ = run_cli(capsys, "run", "--example", "ex3",
                           "--perturb", "10", "--seed", "1",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,f_norm,dist,sigma_min,correction_shift," \
                       "newton_residual"
    code2, out2, _ = run_cli(capsys, "run", "--example", "ex3",
                             "--perturb", "10", "--seed", "1",
                             "--format", "json")
    rows = json.loads(out2)["iterations"]
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert int(cells[0]) == row["k"]
        assert float(cells[1]) == row["f_norm"]  # repr() round-trip is exact
        assert float(cells[3]) == row["sigma_min"]


def test_run_output_is_reproducible(tmp_path, capsys):
    outs = []
    for i in range(2):
        f = tmp_path / f"run{i}.json"
        code, out, _ = run_cli(capsys, "run", "--example", "ex4_dual",
                               "--perturb", "10", "--seed", "3",
                               "--format", "json", "--output", str(f))
        assert code == 0
        assert out == ""  # --output diverts everything from stdout
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]


def test_run_singular_exit_code(capsys):
    code, out, _ = run_cli(capsys, "run", "--example", "ex7",
                           "--start-eps", "0.05", "--variant", "ui",
                           "--delta", "0.2", "--no-correction")
    assert code == 3
    assert "singular_system" in out


def test_run_corrected_from_degenerate_start(capsys):
    code, out, _ = run_cli(capsys, "run", "--example", "ex7",
                           "--start-eps", "0.05", "--variant", "ui",
                           "--delta", "0.2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert len(payload["iterations"]) == 2  # one Newton step


def test_run_max_iter_exit_code(capsys):
    code, out, _ = run_cli(capsys, "run", "--example", "ex3",
                           "--perturb", "10", "--seed", "1",
                           "--max-iter", "1")
    assert code == 4
    assert "max_iter" in out


def blowup_catalog(name, **kwargs):
    """A one-variable problem whose wrong Hessian makes the first Newton
    step explode, with its start as the known solution."""
    problem = NlsdpProblem(
        name="blowup", x_dim=1, eq_dim=0, cone_blocks=[1],
        f=lambda x: float(0.5 * x @ x),
        grad_f=lambda x: x.copy(),
        h=lambda x: np.zeros(0),
        jac_h=lambda x, v: np.zeros(0),
        jac_h_adj=lambda x, w: np.zeros(1),
        g=lambda x: BlockSymMatrix([np.array([[x[0]]])]),
        jac_g=lambda x, v: BlockSymMatrix([np.array([[v[0]]])]),
        jac_g_adj=lambda x, W: np.array([W.blocks[0][0, 0]]),
        hess_lagrangian=lambda x, xi, Gamma, v: 1e-8 * v,
    )
    z0 = KktPoint(np.array([1.0]), np.zeros(0), BlockSymMatrix.zeros([1]))
    return problem, SimpleNamespace(z_bar=z0)


def test_run_diverged_prints_nan_sigma(monkeypatch, capsys):
    # a diverged row builds no Newton matrix: its sigma_min is unknown
    monkeypatch.setattr(cli_mod, "catalog", blowup_catalog)
    argv = ("run", "--example", "ex3", "--delta", "0.25")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 4
    last = out.splitlines()[-1].split(",")
    assert float(last[1]) > 1e6
    assert last[3] == "nan"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 4
    assert '"status": "diverged"' in out
    assert '"sigma_min": NaN' in out


@pytest.mark.parametrize("magnitude", ["inf", "nan"])
def test_run_non_finite_perturbation_exit_2(magnitude, capsys):
    code, out, err = run_cli(capsys, "run", "--example", "ex3",
                             "--perturb", magnitude)
    assert code == 2
    assert out == ""
    assert err == "error: --perturb must be finite\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("magnitude", ["1e160", "1e200", "1e308"])
@pytest.mark.parametrize("example", [
    ("ex3",), ("ex5", "--l1", "6", "--l2", "4"),
    ("ex1", "--l1", "6", "--l2", "4", "--variant", "ui")],
    ids=["ex3", "ex5", "ex1-ui"])
def test_run_overflowing_start_diverges_quietly(magnitude, example, capsys):
    """A start whose residual overflows reads diverged at k = 0, with
    no floating-point warning on the way."""
    code, out, err = run_cli(capsys, "run", "--example", *example,
                             "--perturb", magnitude, "--format", "json")
    assert code == 4
    assert err == ""
    payload = json.loads(out)
    assert payload["status"] == "diverged"
    assert [row["k"] for row in payload["iterations"]] == [0]


@pytest.mark.filterwarnings("error")
def test_run_with_overflowing_correction_shift_is_quiet(capsys):
    """delta = 1e300 clips eigenvalues near 1e200, whose sum of squares
    overflows; the shift is their norm, finite, and the run still reads
    diverged at k = 0 with no floating-point warning."""
    code, out, err = run_cli(capsys, "run", "--example", "ex3",
                             "--delta", "1e300", "--perturb", "1e200",
                             "--format", "json")
    assert code == 4
    assert err == ""
    payload = json.loads(out)
    assert payload["status"] == "diverged"
    (row,) = payload["iterations"]
    assert 1e200 < row["correction_shift"] < 1e201


def test_run_qsdp_file_with_point(ex3_qsdp, capsys):
    qsdp, point = ex3_qsdp
    code, out, _ = run_cli(capsys, "run", "--qsdp", qsdp,
                           "--point", point, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"] == "ex3file"
    assert payload["status"] == "converged"
    # no reference solution for file problems: distances are null
    assert all(row["dist"] is None for row in payload["iterations"])


def test_run_point_accepts_svec_encoding(tmp_path, capsys):
    problem, sol = catalog("ex3")
    point = tmp_path / "p.json"
    point.write_text(json.dumps({
        "x": sol.z_bar.x.tolist(),
        "xi": [],
        "gamma_svec": sol.z_bar.Gamma.svec().tolist(),
    }))
    code, out, _ = run_cli(capsys, "run", "--example", "ex3",
                           "--point", str(point))
    assert code == 0
    assert "status: converged" in out


# ---------------------------------------------------------------------------
# configuration errors (exit code 2)


@pytest.mark.parametrize("argv", [
    ("run",),                                          # no problem source
    ("run", "--example", "ex3", "--qsdp", "x.json"),   # both sources
    ("run", "--qsdp", "/nonexistent/q.json", "--perturb", "1"),
    ("run", "--example", "ex3", "--start-eps", "0.05"),  # ex7-only flag
    ("run", "--example", "ex7", "--start-eps", "0.5"),   # out of range
    ("run", "--example", "ex3", "--l1", "4"),          # ex3 takes no sizes
    ("check", "--example", "ex3", "--l1", "4"),
    ("run", "--example", "ex5", "--delta", "-1"),      # bad solver params
    ("run", "--example", "ex5", "--max-iter", "-2"),
    ("run", "--example", "ex5", "--tol", "nan"),
    ("run", "--example", "ex5", "--tol", "inf"),       # "converges" at k = 0
    ("run", "--example", "ex5", "--delta", "inf"),     # clips every eigenvalue
    ("run", "--example", "ex5", "--delta", "nan"),
    ("run", "--example", "ex3", "--eta", "0.5"),       # no inexact mode
    ("run", "--example", "ex3", "--tau", "1"),
    ("run", "--example", "ex3", "--eta", "0.1"),
    # argparse's own errors print one line too, not the usage block
    ("run", "--example", "ex5", "--l1", "abc"),
    ("run", "--example", "ex3", "--variant", "x"),
    ("run", "--example", "ex3", "--delta", "-inf"),    # read as a flag
    ("run", "--example", "nope"),
    ("solve", "--example", "ex3"),
    (),
    ("run", "--example", "ex5", "--l1", "0", "--l2", "0"),  # bad sizes
    ("run", "--example", "ex5", "--l1", "-3"),
    ("check", "--example", "ex1", "--l1", "0", "--l2", "0"),
    ("run", "--example", "ex3", "--perturb", "1", "--seed", "-1"),
    ("run", "--example", "ex3", "--output", "/nonexistent/dir/out.csv"),
    # malformed files, as _malformed_files writes them
    ("check", "--qsdp", "qsdp_list.json"),
    ("check", "--qsdp", "qsdp_blocks_int.json"),
    ("check", "--qsdp", "qsdp_Q_object.json"),
    ("run", "--example", "ex3", "--point", "point_list.json"),
    ("check", "--example", "ex3", "--point", "point_Gamma_int.json"),
    ("run", "--example", "ex3", "--point", "point_x_object.json"),
    ("check", "--example", "ex3", "--point", "point_svec_object.json"),
])
def test_config_errors_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, raw in _malformed_files().items():
        Path(name).write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("-h",), ("run", "-h"), ("check", "--help")])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ssnsdp")
    # every step is an exact solve: no inexact-mode flags are offered
    assert "--eta" not in out and "--tau" not in out


def _malformed_files():
    """QSDP and point files of the wrong JSON type somewhere, by name."""
    problem, sol = catalog("ex3")
    point = {"x": sol.z_bar.x.tolist(), "xi": [],
             "Gamma": [b.tolist() for b in sol.z_bar.Gamma.blocks]}
    return {
        "qsdp_list.json": [1, 2],
        "qsdp_blocks_int.json": dict(problem.qsdp_data, cone_blocks=5),
        "qsdp_Q_object.json": dict(problem.qsdp_data, Q={"a": 1}),
        "point_list.json": [1, 2],
        "point_Gamma_int.json": dict(point, Gamma=5),
        "point_x_object.json": dict(point, x={"a": 1}),
        "point_svec_object.json": {"x": point["x"], "xi": [],
                                   "gamma_svec": {"a": 1}},
    }


@pytest.mark.parametrize("argv,message", [
    (("--delta", "-1"), "error: delta must be positive\n"),
    (("--l1", "-3"), "error: bad parameters for ex5: l1 must be at least 1"),
], ids=["delta", "l1"])
def test_config_errors_name_the_argument(argv, message, capsys):
    code, out, err = run_cli(capsys, "run", "--example", "ex5", *argv)
    assert code == 2
    assert err.startswith(message)
    assert "Traceback" not in err
    assert out == ""


def test_run_qsdp_needs_explicit_start(ex3_qsdp, capsys):
    qsdp, _ = ex3_qsdp
    code, _, err = run_cli(capsys, "run", "--qsdp", qsdp)
    assert code == 2
    assert "no start point" in err
    code, _, err = run_cli(capsys, "run", "--qsdp", qsdp, "--perturb", "1")
    assert code == 2
    assert "known solution" in err


def test_run_rejects_conflicting_starts(ex3_qsdp, capsys):
    _, point = ex3_qsdp
    code, _, err = run_cli(capsys, "run", "--example", "ex3",
                           "--point", point, "--perturb", "1")
    assert code == 2
    assert "mutually exclusive" in err


def test_point_dimension_mismatch_exit_2(tmp_path, capsys):
    point = tmp_path / "bad.json"
    point.write_text(json.dumps({"x": [1.0, 2.0], "xi": [],
                                 "gamma_svec": [0.0, 0.0, 0.0, 0.0]}))
    code, _, err = run_cli(capsys, "run", "--example", "ex3",
                           "--point", str(point))
    assert code == 2
    assert "dimensions" in err


def ex3_point(tmp_path, edit):
    """The ex3 solution as a --point file, after edit(raw) on its JSON."""
    _, sol = catalog("ex3")
    raw = {"x": sol.z_bar.x.tolist(), "xi": [],
           "Gamma": [b.tolist() for b in sol.z_bar.Gamma.blocks]}
    edit(raw)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(raw))
    return str(path)


def set_x0_nan(raw):
    raw["x"][0] = float("nan")


def set_gamma_inf(raw):
    raw["Gamma"][1][0][0] = float("inf")


@pytest.mark.parametrize("edit", [set_x0_nan, set_gamma_inf])
def test_point_with_non_finite_entry_exit_2(tmp_path, capsys, edit):
    point = ex3_point(tmp_path, edit)
    code, out, err = run_cli(capsys, "run", "--example", "ex3",
                             "--point", point)
    field = "x" if edit is set_x0_nan else "Gamma"
    assert code == 2
    assert err == f"error: point {point} has a non-finite entry in {field}\n"
    assert out == ""


def test_point_with_asymmetric_gamma_exit_2(tmp_path, capsys):
    def skew(raw):
        raw["Gamma"][0][0][1] = 1e-3

    point = ex3_point(tmp_path, skew)
    code, out, err = run_cli(capsys, "check", "--example", "ex3",
                             "--point", point)
    assert code == 2
    assert err == f"error: point {point}: Gamma block 0 is not symmetric\n"
    assert out == ""


@pytest.mark.parametrize("gamma_svec", [None, 0.0, [[0.0, 0.0, 0.0]]],
                         ids=["null", "scalar", "nested"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_point_with_non_vector_gamma_svec_exit_2(tmp_path, capsys,
                                                 gamma_svec, command):
    """gamma_svec that is not a flat list is a bad point file, not an
    IndexError from indexing a 0-d array."""
    def replace(raw):
        del raw["Gamma"]
        raw["gamma_svec"] = gamma_svec

    point = ex3_point(tmp_path, replace)
    code, out, err = run_cli(capsys, command, "--example", "ex3",
                             "--point", point)
    assert code == 2
    assert err == (f"error: cannot load point {point}: svec vector must be "
                   "one-dimensional\n")
    assert out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key,value", [
    ("Q", "nan"), ("c", "inf"), ("H", "-inf"), ("p", "nan"), ("G", "inf"),
    ("q", "nan")])
@pytest.mark.parametrize("command", [("run", "--perturb", "1"), ("check",)],
                         ids=["run", "check"])
def test_qsdp_with_non_finite_entry_exit_2(tmp_path, capsys, key, value,
                                           command):
    """ex2's data (it has equality rows) with one entry of an array made
    non-finite, written as JSON's NaN / Infinity."""
    problem, _ = catalog("ex2")
    data = dict(problem.qsdp_data)
    a = np.array(data[key], dtype=float)
    a.flat[0] = float(value)
    data[key] = a.tolist()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, command[0], "--qsdp", str(path),
                             *command[1:])
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot load {path}: qsdp {key} has a "
                   "non-finite entry\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("example", ["ex4_primal", "ex4_dual"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_non_finite_eps_exit_2(capsys, example, eps, command):
    code, out, err = run_cli(capsys, command, "--example", example,
                             "--eps", eps)
    assert code == 2
    assert out == ""
    assert err == f"error: bad parameters for {example}: eps must be finite\n"


def test_point_symmetric_to_rounding_is_accepted(tmp_path, capsys):
    def nudge(raw):
        raw["Gamma"][0][0][1] = 1e-15

    point = ex3_point(tmp_path, nudge)
    code, _, err = run_cli(capsys, "run", "--example", "ex3",
                           "--point", point)
    assert code == 0
    assert err == ""


# ---------------------------------------------------------------------------
# check subcommand


def test_check_reports_conditions(capsys):
    code, out, _ = run_cli(capsys, "check", "--example", "ex3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"problem", "conditions", "u0_sigma_min",
                            "ui_sigma_min", "clarke_mid_sigma_min",
                            "theorem_consistent", "warnings"}
    assert set(payload["conditions"]) == {"w_soc", "s_sosc", "w_srcq", "cn"}
    for c in payload["conditions"].values():
        assert set(c) == {"holds", "margin"}
    assert payload["conditions"]["cn"]["holds"] is True
    assert payload["theorem_consistent"] is True
    assert payload["warnings"] == []
    # U0 is nonsingular here, so no Clarke midpoint probe is needed
    assert payload["clarke_mid_sigma_min"] is None


def test_check_clarke_midpoint_when_both_variants_singular(capsys):
    code, out, _ = run_cli(capsys, "check", "--example", "ex2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["u0_sigma_min"] <= 1e-8
    assert payload["ui_sigma_min"] <= 1e-8
    assert payload["clarke_mid_sigma_min"] is not None
    assert payload["clarke_mid_sigma_min"] > 1e-8
    mid = repr(payload["clarke_mid_sigma_min"])
    code, out, _ = run_cli(capsys, "check", "--example", "ex2",
                           "--format", "csv")
    assert code == 0
    assert f"clarke_mid_sigma_min,,{mid}\n" in out
    code, out, _ = run_cli(capsys, "check", "--example", "ex2",
                           "--format", "table")
    assert code == 0
    assert "  clarke midpoint sigma_min " in out


def test_check_table_and_csv(capsys):
    code, out, _ = run_cli(capsys, "check", "--example", "ex5",
                           "--l1", "6", "--l2", "4")
    assert code == 0
    assert "w_soc" in out and "holds" in out
    assert "theorem_consistent: yes" in out
    code, out, _ = run_cli(capsys, "check", "--example", "ex5",
                           "--l1", "6", "--l2", "4", "--format", "csv")
    assert code == 0
    assert out.startswith("item,holds,value\n")


def test_unconverged_sigma_prints_nan(monkeypatch, capsys, tmp_path):
    # above 30 unknowns, sigma_min comes from Lanczos wherever the Newton
    # matrix does not split into closed-form blocks, and one apply cannot
    # converge it: ex5 6/4 (110 unknowns) given as a QSDP file with one
    # off-diagonal pair added to its diagonal Q, which no closed form
    # reads (c moves with it, so the point stays a KKT point), and the
    # first row of an ex5 30/20 run from a start far from the solution
    monkeypatch.setattr(reduced_mod, "_LANCZOS_MAX_APPLIES", 1)
    problem, sol = catalog("ex5", l1=6, l2=4)
    N = problem.x_dim
    c = problem.grad_f(np.zeros(N))
    pair = np.zeros((N, N))
    pair[0, 1] = pair[1, 0] = 0.5
    path = tmp_path / "ex5.json"
    save_qsdp(path, {
        "x_dim": N, "eq_dim": 0, "cone_blocks": [10],
        "Q": (np.diag(problem.grad_f(np.ones(N)) - c) + pair).tolist(),
        "c": (c - pair @ sol.z_bar.x).tolist(), "H": [], "p": [],
        "G": np.eye(N).tolist(), "q": [0.0] * N})
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"x": sol.z_bar.x.tolist(), "xi": [],
                                 "gamma_svec": [0.0] * N}))
    qsdp = ("--qsdp", str(path), "--point", str(point))
    code, out, _ = run_cli(capsys, "check", *qsdp, "--format", "csv")
    assert code == 0
    assert "u0_sigma_min,,nan\n" in out
    code, out, _ = run_cli(capsys, "check", *qsdp, "--format", "json")
    assert code == 0
    assert '"u0_sigma_min": NaN' in out
    sizes = ("--example", "ex5", "--l1", "30", "--l2", "20")
    code, out, _ = run_cli(capsys, "run", *sizes, "--perturb", "10",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "nan"


def test_check_rejects_non_kkt_point(tmp_path, capsys):
    point = tmp_path / "off.json"
    point.write_text(json.dumps({"x": [2.0, 1.0, 0.5], "xi": [],
                                 "gamma_svec": [0.0, 0.0, 0.0, 0.0]}))
    code, _, err = run_cli(capsys, "check", "--example", "ex3",
                           "--point", str(point))
    assert code == 2
    assert "KKT" in err


@pytest.mark.filterwarnings("error")
def test_check_huge_finite_residual_is_quiet(tmp_path, capsys):
    """At eps = 1e300 the residual at x = (1, 0, 0) has an entry of
    1e300: its sum of squares overflows, its norm does not."""
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"x": [1.0, 0.0, 0.0], "xi": [],
                                 "Gamma": [[[0.0, 0.0], [0.0, 0.0]],
                                           [[0.0]]]}))
    code, out, err = run_cli(capsys, "check", "--example", "ex4_primal",
                             "--eps", "1e300", "--point", str(point))
    assert code == 2
    assert out == ""
    assert err == ("error: point does not satisfy the KKT system "
                   "(residual 1.000e+300); sector-based checks need a "
                   "solution\n")


@pytest.mark.parametrize("command,target", [("run", "catalog"),
                                            ("check", "regularity_report")])
def test_out_of_memory_is_one_line(command, target, monkeypatch, capsys):
    """An allocation that fails, in building a problem or in its report,
    exits 2 with one line on stderr and no traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")

    monkeypatch.setattr(cli_mod, target, exhausted)
    code, out, err = run_cli(capsys, command, "--example", "ex3")
    assert code == 2
    assert out == ""
    assert err == ("error: out of memory: Unable to allocate 1.49 GiB for "
                   "an array\n")
    assert "Traceback" not in err


def test_check_is_reproducible(tmp_path, capsys):
    outs = []
    for i in range(2):
        f = tmp_path / f"check{i}.json"
        code, _, _ = run_cli(capsys, "check", "--example", "ex4_dual",
                             "--format", "json", "--output", str(f))
        assert code == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# module entry point and logging


def test_module_invocation_and_debug_log():
    # The minimal env has no PYTHONPATH: point the child at the directory
    # this suite imported ssnsdp from (src/ or site-packages), so it runs
    # the code under test.  PYTHONDONTWRITEBYTECODE keeps the child from
    # writing a __pycache__ into that package.
    package_root = os.path.dirname(os.path.dirname(ssnsdp.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ssnsdp", "run", "--example", "ex7",
         "--start-eps", "0.05", "--variant", "ui", "--delta", "0.2"],
        capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "SSN_SDP_LOG": "DEBUG",
             "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0
    assert "status: converged" in proc.stdout
    assert "DEBUG:ssnsdp" in proc.stderr


# ---------------------------------------------------------------------------
# tools/cli_outputs.py


def cli_outputs_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_outputs_commands_parse():
    """Every command of the byte-identity list parses; a renamed flag or a
    dropped choice fails here, not in a comparison of two checkouts."""
    tool = cli_outputs_tool()
    assert len(tool.COMMANDS) == 187
    names = {tool.output_name(cmd) for cmd in tool.COMMANDS}
    assert len(names) == 187
    parser = cli_mod._parser()
    for cmd in tool.COMMANDS:
        args = parser.parse_args(cmd + ["--output", "out"])
        assert {args.qsdp, args.point} <= {None, *tool.INPUTS}


def test_cli_outputs_inputs_load(tmp_path, capsys):
    """The harness's input files give a converged run and two reports,
    the second with CN and W-SRCQ failing on dependent rows."""
    tool = cli_outputs_tool()
    tool.write_inputs(tmp_path)
    qsdp, solution, start, dep_qsdp, dep_point = (
        str(tmp_path / name) for name in tool.INPUTS[:5])
    code, out, _ = run_cli(capsys, "check", "--qsdp", qsdp,
                           "--point", solution)
    assert code == 0 and "theorem_consistent: yes" in out
    code, out, _ = run_cli(capsys, "run", "--qsdp", qsdp, "--point", start)
    assert code == 0 and "fitted order" in out
    code, out, _ = run_cli(capsys, "check", "--qsdp", dep_qsdp,
                           "--point", dep_point)
    assert code == 0 and "problem: dependent_rows" in out
    assert "w_srcq  fails" in out and "cn      fails" in out
    assert "theorem_consistent: yes" in out


def test_cli_outputs_ends_with_the_exit_code_tally(tmp_path, capsys,
                                                  monkeypatch):
    """The summary line counts the commands and each exit code it saw."""
    tool = cli_outputs_tool()
    monkeypatch.setattr(tool, "COMMANDS", [
        ["check", "--example", "ex2", "--format", "json"],
        ["run", "--example", "ex3", "--perturb", "1", "--seed", "2",
         "--max-iter", "1", "--format", "csv"],
        ["run", "--example", "ex3", "--variant", "UI", "--point",
         "ex3.start_svec.json", "--format", "csv"],
        ["run", "--example", "ex3", "--variant", "UI", "--point",
         "ex3.start.json", "--format", "csv"]])
    tool.main([str(tmp_path)])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == (f"outputs in {tmp_path}: 4 commands "
                    "(1 exit 0, 2 exit 3, 1 exit 4)")


@pytest.mark.parametrize("name", ["ex1", "ex5"])
def test_cli_outputs_qsdp_twin_checks_as_the_catalog(tmp_path, capsys, name):
    """The harness's dense-matrix QSDP twin of a catalog problem at 6/4
    gives, at its solution, the catalog's check JSON in every field but
    the problem's name."""
    tool = cli_outputs_tool()
    tool.write_inputs(tmp_path)
    reports = []
    for source in (["--qsdp", str(tmp_path / f"{name}.qsdp.json"), "--point",
                    str(tmp_path / f"{name}.solution.json")],
                   ["--example", name, "--l1", "6", "--l2", "4"]):
        code, out, _ = run_cli(capsys, "check", *source, "--format", "json")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0].pop("problem") == f"{name}_qsdp"
    assert reports[1].pop("problem") == name
    assert reports[0] == reports[1]


def test_cli_outputs_start_reads_the_same_as_gamma_svec(tmp_path):
    """The harness's start with its multiplier as gamma_svec gives the
    run of the start with Gamma, byte for byte: UI stops singular."""
    tool = cli_outputs_tool()
    tool.write_inputs(tmp_path)
    outs = []
    for name in ("ex3.start.json", "ex3.start_svec.json"):
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--example", "ex3", "--variant", "UI",
                     "--point", str(tmp_path / name), "--format", "csv",
                     "--output", str(out)]) == 3
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
