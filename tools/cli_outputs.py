"""Write the output of a fixed list of `ssnsdp` commands, one file each.

    PYTHONPATH=<checkout>/src python3 tools/cli_outputs.py OUTDIR

Runs every command of COMMANDS in-process, through ssnsdp.cli.main with
--output, into OUTDIR/<command words joined by "-">, and records each
command's exit code in OUTDIR/exit_codes.txt.  It prints the package
directory it imported, so a run shows which checkout it measured.  The
CSV and JSON outputs are deterministic, so two checkouts agree byte for
byte exactly when `diff -r` of their OUTDIRs is empty.
"""

import argparse
from pathlib import Path

EXAMPLES = ("ex1", "ex2", "ex3", "ex4_primal", "ex4_dual", "ex5", "ex7")


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
    # the uncorrected and the inexact iterations classify the spectrum of
    # iterates the correction would have snapped
    for mode in (["--no-correction"], ["--eta", "0.5"]):
        for ex in ("ex2", "ex3", "ex4_primal", "ex4_dual", "ex7"):
            for variant in ("U0", "UI"):
                for seed in range(5):
                    out.append(["run", "--example", ex, "--variant", variant,
                                *mode, "--perturb", "0.3", "--seed",
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
    args.outdir.mkdir(parents=True, exist_ok=True)
    codes = []
    for cmd in COMMANDS:
        name = output_name(cmd)
        code = cli_main(cmd + ["--output", str(args.outdir / name)])
        codes.append(f"{name} {code}\n")
    (args.outdir / "exit_codes.txt").write_text("".join(codes))
    print(f"{len(COMMANDS)} commands, outputs in {args.outdir}")


if __name__ == "__main__":
    main()
