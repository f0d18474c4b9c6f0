"""Property test of the command line: no input gives a traceback.

Every command runs in process through ssnsdp.cli.main, with warnings
raised as errors.  Whatever the flags and file contents, the run ends
with a documented exit code, and a configuration error prints one line.
"""

import contextlib
import io
import json
import warnings

import pytest

from ssnsdp.catalog import catalog, catalog_names
from ssnsdp.cli import main

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

NUMBERS = ("0", "1", "-1", "0.5", "1e-300", "1e300", "nan", "inf", "-inf")
COUNTS = ("-1", "0", "1", "3")
# what one top-level field of a --qsdp or --point file is replaced by
BAD_VALUES = (None, 5, "s", [], {}, [float("nan")], [[1, 2], [3]])


def _ex3_files():
    problem, sol = catalog("ex3")
    z = sol.z_bar
    point = {"x": z.x.tolist(), "xi": [],
             "Gamma": [b.tolist() for b in z.Gamma.blocks]}
    svec_point = {"x": z.x.tolist(), "xi": [],
                  "gamma_svec": z.Gamma.svec().tolist()}
    return dict(problem.qsdp_data), (point, svec_point)


QSDP, POINTS = _ex3_files()


@st.composite
def mutated(draw, bases):
    """One of bases, as is or with one top-level field replaced."""
    raw = dict(draw(st.sampled_from(bases)))
    key = draw(st.none() | st.sampled_from(sorted(raw)))
    if key is not None:
        raw[key] = draw(st.sampled_from(BAD_VALUES))
    return raw


SIZES = tuple(str(n) for n in range(-2, 9))
# optional flags and their values; None marks a flag that takes none
FLAGS = {"--l1": SIZES, "--eps": NUMBERS, "--point": ("POINT",),
         "--format": ("json", "csv", "table")}
RUN_FLAGS = {"--variant": ("u0", "UI"), "--delta": NUMBERS,
             "--tol": NUMBERS, "--perturb": NUMBERS,
             "--start-eps": NUMBERS, "--max-iter": COUNTS, "--seed": COUNTS,
             "--no-correction": (None,)}


@st.composite
def command_lines(draw):
    """argv for ssnsdp, with "QSDP" and "POINT" standing for the files.
    ex1 and ex5 always get small sizes, since their defaults are large;
    a few optional flags, rather than all, keep most lines valid."""
    command = draw(st.sampled_from(["run", "check"]))
    if draw(st.booleans()):
        example = draw(st.sampled_from(catalog_names()))
        argv = [command, "--example", example]
        if example in ("ex1", "ex5"):
            argv += ["--l1", draw(st.sampled_from(SIZES)),
                     "--l2", draw(st.sampled_from(SIZES))]
    else:
        argv = [command, "--qsdp", "QSDP"]
    flags = dict(FLAGS, **RUN_FLAGS) if command == "run" else FLAGS
    for name in draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                              max_size=4)):
        if name in argv:
            continue
        value = draw(st.sampled_from(flags[name]))
        argv += [name] if value is None else [name, value]
    return argv


def test_cli_exits_with_a_documented_code(tmp_path):
    files = {"QSDP": str(tmp_path / "qsdp.json"),
             "POINT": str(tmp_path / "point.json")}

    @hyp.settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(argv=command_lines(), qsdp=mutated([QSDP]),
               point=mutated(POINTS))
    # argparse's own error: one line, not the usage block
    @hyp.example(argv=["run", "--example", "ex3", "--delta", "-inf"],
                 qsdp=QSDP, point=POINTS[0])
    # a finite residual of 1e300, whose sum of squares overflows
    @hyp.example(argv=["check", "--example", "ex4_primal", "--eps", "1e300",
                       "--point", "POINT"],
                 qsdp=QSDP,
                 point={"x": [1, 0, 0], "xi": [],
                        "Gamma": [[[0, 0], [0, 0]], [[0]]]})
    def check(argv, qsdp, point):
        for name, raw in (("QSDP", qsdp), ("POINT", point)):
            with open(files[name], "w") as fh:
                json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([files.get(a, a) for a in argv])
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")

    check()
