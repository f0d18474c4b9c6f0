"""Command-line front end.

Two subcommands: `run` drives the corrected (or classical) Newton solver
on a catalog example or a QSDP file and prints the iteration trace;
`check` evaluates the regularity conditions at a KKT point.  Output is a
plain table, CSV, or JSON; identical configurations produce byte
identical CSV/JSON.  Exit codes: 0 success/converged, 2 configuration
or non-KKT errors, 3 singular Newton system, 4 out of iterations or
diverged.  Set SSN_SDP_LOG=DEBUG (or another level name) for progress
logging on stderr.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from .catalog import catalog, catalog_names
from .problem import BlockSymMatrix, KktPoint, load_qsdp, perturbed_start
from .conditions import regularity_report
from .solver import SolverParams, classical_ssn_solve, fitted_order, ssn_solve


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a _ConfigError, so it prints the
    one-line message every other configuration error prints; the
    subcommand parsers are of this class too."""

    def error(self, message):
        raise _ConfigError(message)


def _parser():
    p = _Parser(
        prog="ssnsdp",
        description="Corrected semismooth Newton solver for NLSDP KKT "
                    "systems, with regularity-condition checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--example", choices=catalog_names(),
                       help="catalog problem name")
        q.add_argument("--qsdp", metavar="FILE",
                       help="QSDP problem file (JSON)")
        q.add_argument("--l1", type=int, help="first block size (ex1, ex5)")
        q.add_argument("--l2", type=int, help="second block size (ex1, ex5)")
        q.add_argument("--eps", type=float,
                       help="data perturbation (ex4_primal, ex4_dual)")
        q.add_argument("--point", metavar="FILE",
                       help="JSON point {x, xi, Gamma|gamma_svec}")
        q.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        q.add_argument("--output", metavar="FILE",
                       help="write to file instead of stdout")

    r = sub.add_parser("run", help="run the Newton iteration")
    common(r)
    r.add_argument("--variant", choices=("u0", "ui", "U0", "UI"),
                   default="u0", help="surrogate derivative")
    r.add_argument("--delta", type=float, default=0.5,
                   help="correction radius")
    r.add_argument("--tol", type=float, default=1e-10)
    r.add_argument("--max-iter", type=int, default=50)
    r.add_argument("--no-correction", action="store_true",
                   help="plain semismooth Newton, no spectrum correction")
    r.add_argument("--perturb", type=float, metavar="MAG",
                   help="start from a random perturbation of the known "
                        "solution with this magnitude")
    r.add_argument("--seed", type=int, default=0,
                   help="seed for --perturb")
    r.add_argument("--start-eps", type=float, metavar="EPS",
                   help="parametric near-solution start (ex7 only)")

    c = sub.add_parser("check", help="evaluate regularity conditions")
    common(c)
    return p


def _build_problem(args):
    if (args.example is None) == (args.qsdp is None):
        raise _ConfigError("exactly one of --example or --qsdp is required")
    if args.example is not None:
        kw = {}
        if args.l1 is not None:
            kw["l1"] = args.l1
        if args.l2 is not None:
            kw["l2"] = args.l2
        if args.eps is not None:
            kw["eps"] = args.eps
        try:
            return catalog(args.example, **kw)
        except (TypeError, ValueError) as e:
            raise _ConfigError(
                f"bad parameters for {args.example}: {e}") from e
    try:
        return load_qsdp(args.qsdp), None
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise _ConfigError(f"cannot load {args.qsdp}: {e}") from e


def _load_point(path, problem):
    try:
        with open(path) as fh:
            raw = json.load(fh)
        x = np.asarray(raw["x"], dtype=float)
        xi = np.asarray(raw.get("xi", []), dtype=float)
        if "gamma_svec" in raw:
            Gamma = BlockSymMatrix.from_svec(
                problem.cone_blocks,
                np.asarray(raw["gamma_svec"], dtype=float))
        else:
            Gamma = BlockSymMatrix(
                [np.asarray(b, dtype=float) for b in raw["Gamma"]])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise _ConfigError(f"cannot load point {path}: {e}") from e
    if x.shape != (problem.x_dim,) or xi.shape != (problem.eq_dim,) \
            or [b.shape for b in Gamma.blocks] \
            != [(n, n) for n in problem.cone_blocks]:
        raise _ConfigError(f"point dimensions do not match {problem.name}")
    if not all(np.all(np.isfinite(a)) for a in [x, xi] + Gamma.blocks):
        raise _ConfigError(f"point {path} has a non-finite entry")
    for i, B in enumerate(Gamma.blocks):
        if np.max(np.abs(B - B.T)) > 1e-12 * max(1.0, np.max(np.abs(B))):
            raise _ConfigError(f"point {path}: Gamma block {i} is not "
                               "symmetric")
    return KktPoint(x, xi, Gamma)


def _build_start(args, problem, solution):
    given = [args.point is not None,
             args.perturb is not None,
             args.start_eps is not None]
    if sum(given) > 1:
        raise _ConfigError(
            "--point, --perturb and --start-eps are mutually exclusive")
    if args.point is not None:
        return _load_point(args.point, problem)
    if args.start_eps is not None:
        if args.example != "ex7":
            raise _ConfigError("--start-eps only applies to ex7")
        from .catalog import example7_start
        try:
            return example7_start(args.start_eps)
        except ValueError as e:
            raise _ConfigError(str(e)) from e
    if args.perturb is not None:
        if solution is None:
            raise _ConfigError(
                "--perturb needs a problem with a known solution")
        if not np.isfinite(args.perturb):
            raise _ConfigError("--perturb must be finite")
        return perturbed_start(solution.z_bar, args.perturb, args.seed)
    if solution is None:
        raise _ConfigError(
            "no start point: give --point, --perturb or --start-eps")
    return solution.z_bar.copy()


def _fmt(x):
    return "{:.2e}".format(x)


def _run_payload(problem, args, result):
    rows = []
    for t in result.trace:
        rows.append({
            "k": t.k,
            "f_norm": t.f_norm,
            "dist": t.dist_to_solution,
            "sigma_min": t.sigma_min,
            "correction_shift": t.correction_shift,
            "newton_residual": t.newton_residual,
        })
    return {
        "problem": problem.name,
        "params": {
            "variant": args.variant.upper(),
            "delta": args.delta,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "correction": not args.no_correction,
        },
        "seed": args.seed,
        "status": result.status,
        "iterations": rows,
    }


_RUN_COLS = ("k", "f_norm", "dist", "sigma_min", "correction_shift",
             "newton_residual")


def _format_run(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"
    rows = payload["iterations"]
    if fmt == "csv":
        lines = [",".join(_RUN_COLS)]
        for r in rows:
            lines.append(",".join(
                "" if r[c] is None else
                (str(r[c]) if c == "k" else repr(float(r[c])))
                for c in _RUN_COLS))
        return "\n".join(lines) + "\n"
    # table
    head = (f"problem: {payload['problem']}   "
            f"variant: {payload['params']['variant']}   "
            f"delta: {payload['params']['delta']:g}")
    order = fitted_order([r["f_norm"] for r in rows])
    lines = [head,
             f"status: {payload['status']}   iterations: {len(rows) - 1}"]
    if order is not None:
        lines.append(f"fitted order (final residual phase): {order:.2f}")
    lines.append("")
    widths = (4, 12, 12, 12, 12, 12)
    hdr = "".join(c.rjust(w) for c, w in zip(
        ("k", "f_norm", "dist", "sigma_min", "shift", "newton_res"),
        widths))
    lines.append(hdr)
    for r in rows:
        cells = [str(r["k"]).rjust(widths[0])]
        for c, w in zip(_RUN_COLS[1:], widths[1:]):
            cells.append(("-" if r[c] is None else _fmt(r[c])).rjust(w))
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def _check_payload(problem, report):
    conds = {}
    for name in ("w_soc", "s_sosc", "w_srcq", "cn"):
        r = getattr(report, name)
        conds[name] = {"holds": r.holds, "margin": r.margin}
    return {
        "problem": problem.name,
        "conditions": conds,
        "u0_sigma_min": report.u0_sigma_min,
        "ui_sigma_min": report.ui_sigma_min,
        "clarke_mid_sigma_min": report.clarke_mid_sigma_min,
        "theorem_consistent": not report.warnings,
        "warnings": list(report.warnings),
    }


def _format_check(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["item,holds,value"]
        for name in ("w_soc", "s_sosc", "w_srcq", "cn"):
            c = payload["conditions"][name]
            lines.append(f"{name},{str(c['holds']).lower()},"
                         f"{repr(float(c['margin']))}")
        lines.append(f"u0_sigma_min,,{repr(float(payload['u0_sigma_min']))}")
        lines.append(f"ui_sigma_min,,{repr(float(payload['ui_sigma_min']))}")
        if payload["clarke_mid_sigma_min"] is not None:
            lines.append("clarke_mid_sigma_min,,"
                         f"{repr(float(payload['clarke_mid_sigma_min']))}")
        return "\n".join(lines) + "\n"
    lines = [f"problem: {payload['problem']}"]
    for name in ("w_soc", "s_sosc", "w_srcq", "cn"):
        c = payload["conditions"][name]
        flag = "holds" if c["holds"] else "fails"
        lines.append(f"  {name:<7} {flag}   margin {_fmt(c['margin'])}")
    lines.append(f"  u0_sigma_min {_fmt(payload['u0_sigma_min'])}")
    lines.append(f"  ui_sigma_min {_fmt(payload['ui_sigma_min'])}")
    if payload["clarke_mid_sigma_min"] is not None:
        lines.append("  clarke midpoint sigma_min "
                     f"{_fmt(payload['clarke_mid_sigma_min'])}")
    lines.append("theorem_consistent: "
                 + ("yes" if payload["theorem_consistent"] else "no"))
    for w in payload["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def _emit(text, args):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise _ConfigError(f"cannot write {args.output}: {e}") from e
    else:
        sys.stdout.write(text)


def cmd_run(args):
    try:
        params = SolverParams(
            variant=args.variant.upper(), delta=args.delta, tol=args.tol,
            max_iter=args.max_iter)
    except ValueError as e:
        raise _ConfigError(str(e)) from e
    if args.seed < 0:
        raise _ConfigError("--seed must be nonnegative")
    problem, solution = _build_problem(args)
    start = _build_start(args, problem, solution)
    z_bar = solution.z_bar if solution is not None else None
    solve = classical_ssn_solve if args.no_correction else ssn_solve
    result = solve(problem, start, params, z_bar=z_bar)
    _emit(_format_run(_run_payload(problem, args, result), args.format), args)
    return {"converged": 0, "singular_system": 3,
            "max_iter": 4, "diverged": 4}[result.status]


def cmd_check(args):
    problem, solution = _build_problem(args)
    if args.point is not None:
        z = _load_point(args.point, problem)
    elif solution is not None:
        z = solution.z_bar
    else:
        raise _ConfigError("no point to check: give --point or pick a "
                           "problem with a known solution")
    try:
        report = regularity_report(problem, z)
    except ValueError as e:
        raise _ConfigError(str(e)) from e
    _emit(_format_check(_check_payload(problem, report), args.format), args)
    return 0


def main(argv=None):
    level = os.environ.get("SSN_SDP_LOG")
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.INFO))
    try:
        args = _parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        return cmd_check(args)
    except _ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
