"""Write the output of a fixed list of `ssnsdp` commands, one file each.

    PYTHONPATH=<checkout>/src python3 tools/cli_outputs.py OUTDIR

Runs every command of COMMANDS in-process, through ssnsdp.cli.main with
--output, into OUTDIR/<command words joined by "-">, and records each
command's exit code in OUTDIR/exit_codes.txt.  Commands that read a file
name one of INPUTS; the files are written first, by the checkout under
test, into OUTDIR/inputs, and the output name keeps only the bare file
name.  It prints the package directory it imported, so a run shows which
checkout it measured, and ends with the count of commands and of each
exit code seen.  Every output is deterministic, so two checkouts agree
byte for byte exactly when `diff -r` of their OUTDIRs is empty.
"""

import argparse
import collections
import json
from pathlib import Path

EXAMPLES = ("ex1", "ex2", "ex3", "ex4_primal", "ex4_dual", "ex5", "ex7")

# ex3 as a QSDP file, its solution, and a start perturbed from it; a QSDP
# with dependent equality rows and its KKT point; the same start with its
# multiplier as gamma_svec; then ex1 and ex5 at 6/4 as QSDP files of dense
# matrices (qsdp_twin), each with its solution and a start
INPUTS = ("ex3.qsdp.json", "ex3.solution.json", "ex3.start.json",
          "dependent.qsdp.json", "dependent.point.json",
          "ex3.start_svec.json",
          "ex1.qsdp.json", "ex1.solution.json", "ex1.start.json",
          "ex5.qsdp.json", "ex5.solution.json", "ex5.start.json")
TWINS = (("ex1", "UI", INPUTS[6:9]), ("ex5", "U0", INPUTS[9:12]))


def dependent_rows():
    """QSDP data with equality rows H = [h; 3h], h = s (1, 0.3 s, 0.7) at
    s = 5, and its KKT point (x*, 0, 0): x* = (1, 0, 1), Q = I, c = -x*,
    G = I, q = 0, p = H x*, one cone block of order 2.  The rows are
    dependent, so CN and W-SRCQ fail there, and both Newton matrices are
    singular."""
    s = 5.0
    x = [1.0, 0.0, 1.0]
    h = [s, 0.3 * s * s, 0.7 * s]
    H = [h, [3.0 * v for v in h]]
    eye = [[float(i == j) for j in range(3)] for i in range(3)]
    data = {"name": "dependent_rows", "x_dim": 3, "eq_dim": 2,
            "cone_blocks": [2], "Q": eye, "c": [-v for v in x], "H": H,
            "p": [sum(a * b for a, b in zip(row, x)) for row in H],
            "G": eye, "q": [0.0] * 3}
    return data, {"x": x, "xi": [0.0, 0.0], "Gamma": [[[0.0, 0.0],
                                                       [0.0, 0.0]]]}


def qsdp_twin(name):
    """(data, solution) for the catalog's name at 6/4 as QSDP data, every
    matrix dense, read off at x = 0 as a QSDP file holds them."""
    import numpy as np
    from ssnsdp.catalog import catalog
    from ssnsdp.problem import jac_h_matrix_of, to_dense
    problem, sol = catalog(name, l1=6, l2=4)
    x = np.zeros(problem.x_dim)
    data = {"name": f"{name}_qsdp", "x_dim": problem.x_dim,
            "eq_dim": problem.eq_dim, "cone_blocks": problem.cone_blocks,
            "Q": to_dense(problem.hess_matrix_fn(x, None, None)),
            "c": problem.grad_f(x),
            "H": to_dense(jac_h_matrix_of(problem, x)),
            "p": -np.asarray(problem.h(x), dtype=float),
            "G": to_dense(problem.jac_g_matrix), "q": -problem.g(x).svec()}
    return data, sol


def write_point(path, z):
    """z as a point file, its multiplier as Gamma."""
    raw = {"x": z.x.tolist(), "xi": z.xi.tolist(),
           "Gamma": [b.tolist() for b in z.Gamma.blocks]}
    path.write_text(json.dumps(raw) + "\n")


def write_inputs(indir):
    """Write the INPUTS files into indir with the imported package."""
    from ssnsdp.catalog import catalog
    from ssnsdp.problem import perturbed_start, save_qsdp
    problem, sol = catalog("ex3")
    save_qsdp(indir / INPUTS[0], problem.qsdp_data)
    start = perturbed_start(sol.z_bar, 0.5, seed=3)
    write_point(indir / INPUTS[1], sol.z_bar)
    write_point(indir / INPUTS[2], start)
    raw = {"x": start.x.tolist(), "xi": start.xi.tolist(),
           "gamma_svec": start.Gamma.svec().tolist()}
    (indir / INPUTS[5]).write_text(json.dumps(raw) + "\n")
    data, point = dependent_rows()
    save_qsdp(indir / INPUTS[3], data)
    (indir / INPUTS[4]).write_text(json.dumps(point) + "\n")
    for name, _, (qsdp, solution, start) in TWINS:
        data, sol = qsdp_twin(name)
        save_qsdp(indir / qsdp, data)
        write_point(indir / solution, sol.z_bar)
        write_point(indir / start, perturbed_start(sol.z_bar, 0.3, seed=1))


def _commands():
    out = []
    for ex in EXAMPLES:
        for fmt in ("json", "csv", "table"):
            out.append(["check", "--example", ex, "--format", fmt])
    for ex in ("ex1", "ex5"):
        for l1, l2 in ((30, 20), (6, 4)):
            out.append(["check", "--example", ex, "--l1", str(l1),
                        "--l2", str(l2), "--format", "json"])
    for ex in ("ex3", "ex4_primal", "ex4_dual", "ex7"):
        for variant in ("U0", "UI"):
            for seed in range(5):
                out.append(["run", "--example", ex, "--variant", variant,
                            "--perturb", "0.3", "--seed", str(seed),
                            "--format", "csv"])
    for ex, l1, l2 in (("ex1", 8, 5), ("ex5", 8, 5), ("ex1", 30, 20)):
        for variant in ("U0", "UI"):
            for seed in range(2):
                out.append(["run", "--example", ex, "--l1", str(l1),
                            "--l2", str(l2), "--variant", variant,
                            "--perturb", "1", "--seed", str(seed),
                            "--format", "json"])
    # the uncorrected iteration classifies the spectrum of iterates the
    # correction would have snapped
    for ex in ("ex2", "ex3", "ex4_primal", "ex4_dual", "ex7"):
        for variant in ("U0", "UI"):
            for seed in range(5):
                out.append(["run", "--example", ex, "--variant", variant,
                            "--no-correction", "--perturb", "0.3", "--seed",
                            str(seed), "--format", "csv"])
    for eps in ("0.001", "0.01", "0.05", "0.09"):
        for variant in ("U0", "UI"):
            for mode in ([], ["--no-correction"]):
                out.append(["run", "--example", "ex7", "--variant", variant,
                            *mode, "--start-eps", eps, "--format", "csv"])
    for ex in ("ex1", "ex5"):
        for variant in ("U0", "UI"):
            for seed in range(2):
                out.append(["run", "--example", ex, "--l1", "8", "--l2", "5",
                            "--variant", variant, "--no-correction",
                            "--perturb", "1", "--seed", str(seed),
                            "--format", "json"])
    qsdp, solution, start, dep_qsdp, dep_point, start_svec = INPUTS[:6]
    for fmt in ("json", "csv", "table"):
        out.append(["check", "--qsdp", qsdp, "--point", solution,
                    "--format", fmt])
        out.append(["check", "--qsdp", dep_qsdp, "--point", dep_point,
                    "--format", fmt])
        out.append(["check", "--example", "ex3", "--point", solution,
                    "--format", fmt])
        out.append(["run", "--qsdp", qsdp, "--point", start,
                    "--format", fmt])
    out.append(["run", "--example", "ex3", "--variant", "UI", "--point",
                start, "--format", "csv"])
    for ex in ("ex3", "ex4_primal", "ex4_dual", "ex7"):
        for variant in ("U0", "UI"):
            out.append(["run", "--example", ex, "--variant", variant,
                        "--perturb", "1", "--seed", "2", "--format",
                        "table"])
    # ex5 at 1/4: 10 of its 15 Hessian entries are not 1, so the Woodbury
    # core has more rows than half the unknowns
    for variant in ("U0", "UI"):
        for seed in range(2):
            out.append(["run", "--example", "ex5", "--l1", "1", "--l2", "4",
                        "--variant", variant, "--perturb", "0.3", "--seed",
                        str(seed), "--format", "csv"])
    out.append(["check", "--example", "ex5", "--l1", "1", "--l2", "4",
                "--format", "json"])
    # exit 4: the step cap; a residual norm that overflows at k = 0; and
    # ex4_dual at eps 0.01 from the ex3 start, where every row clips the
    # same eigenvalue and the residual stalls
    out.append(["run", "--example", "ex3", "--perturb", "1", "--seed", "2",
                "--max-iter", "1", "--format", "csv"])
    out.append(["run", "--example", "ex3", "--perturb", "1e200", "--format",
                "csv"])
    out.append(["run", "--example", "ex4_dual", "--eps", "0.01", "--point",
                start, "--format", "csv"])
    out.append(["run", "--example", "ex3", "--variant", "UI", "--point",
                start_svec, "--format", "csv"])
    # ex5 8/5 under U0 from magnitude 10: two rows build a dense
    # alpha-gamma Woodbury core and the last a Kronecker core
    for seed in range(2):
        out.append(["run", "--example", "ex5", "--l1", "8", "--l2", "5",
                    "--variant", "U0", "--perturb", "10", "--seed", str(seed),
                    "--format", "json"])
    # dense-matrix twins of catalog problems: the report must read as the
    # catalog's, and the run takes the catalog's backend
    for _, variant, (twin, twin_solution, twin_start) in TWINS:
        out.append(["check", "--qsdp", twin, "--point", twin_solution,
                    "--format", "json"])
        out.append(["run", "--qsdp", twin, "--point", twin_start,
                    "--variant", variant, "--format", "csv"])
    return out


COMMANDS = _commands()


def output_name(argv):
    return "-".join(arg.lstrip("-") for arg in argv)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args(argv)
    import ssnsdp
    from ssnsdp.cli import main as cli_main
    print(f"ssnsdp from {Path(ssnsdp.__file__).resolve().parent}")
    indir = args.outdir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    write_inputs(indir)
    codes = []
    tally = collections.Counter()
    for cmd in COMMANDS:
        name = output_name(cmd)
        argv = [str(indir / a) if a in INPUTS else a for a in cmd]
        code = cli_main(argv + ["--output", str(args.outdir / name)])
        codes.append(f"{name} {code}\n")
        tally[code] += 1
    (args.outdir / "exit_codes.txt").write_text("".join(codes))
    counts = ", ".join(f"{n} exit {code}" for code, n in sorted(tally.items()))
    print(f"outputs in {args.outdir}: {len(COMMANDS)} commands ({counts})")


if __name__ == "__main__":
    main()
