"""Property tests of the entry points: no input gives a traceback.

Every command runs in process through ssnsdp.cli.main, with warnings
raised as errors.  Whatever the flags and file contents, the run ends
with a documented exit code, and a configuration error prints one line.
The library entries ssn_solve, regularity_report and load_qsdp return a
result or raise a ValueError that names the malformed field.
"""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest

from ssnsdp.catalog import catalog, catalog_names
from ssnsdp.cli import main
from ssnsdp.conditions import regularity_report
from ssnsdp.problem import (BlockSymMatrix, KktPoint, NlsdpProblem,
                            _QSDP_KEYS, load_qsdp, perturbed_start)
from ssnsdp.solver import ssn_solve

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


# two small problems, one with equality rows, each with a start near its
# solution: (problem, start)
PROBLEMS = {name: catalog(name) for name in ("ex2", "ex3")}
STARTS = {name: perturbed_start(sol.z_bar, 0.1, 0)
          for name, (_, sol) in PROBLEMS.items()}


def _ex3(x=None, xi=None, blocks=None):
    """The ex3 start with the given fields in place of its own."""
    z = STARTS["ex3"]
    return KktPoint(z.x if x is None else np.asarray(x, dtype=float),
                    z.xi if xi is None else np.asarray(xi, dtype=float),
                    z.Gamma if blocks is None else BlockSymMatrix(blocks))


@st.composite
def bad_points(draw):
    """(problem name, field, point): a start with one field malformed by a
    wrong length, wrong block shapes, a non-finite entry, or (Gamma) an
    asymmetric block."""
    name = draw(st.sampled_from(sorted(STARTS)))
    problem, _ = PROBLEMS[name]
    z = STARTS[name].copy()
    x, xi, blocks = z.x, z.xi, z.Gamma.blocks
    defect = draw(st.sampled_from(("length", "shapes", "non-finite",
                                   "asymmetric")))
    if defect == "length":
        field = draw(st.sampled_from(("x", "xi")))
        want = problem.x_dim if field == "x" else problem.eq_dim
        v = np.zeros(draw(st.integers(0, 4).filter(lambda n: n != want)))
        x, xi = (v, xi) if field == "x" else (x, v)
    elif defect == "shapes":
        field = "Gamma"
        want = [(n, n) for n in problem.cone_blocks]
        shape = st.tuples(st.integers(1, 3), st.integers(1, 3))
        blocks = [np.zeros(s) for s in draw(
            st.lists(shape, max_size=3).filter(lambda s: s != want))]
    elif defect == "non-finite":
        field = draw(st.sampled_from(("x", "Gamma") + (("xi",) if xi.size
                                                        else ())))
        a = {"x": x, "xi": xi}.get(field)
        if a is None:
            a = draw(st.sampled_from(blocks))
        a.flat[draw(st.integers(0, a.size - 1))] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf)))
    else:
        field = "Gamma"
        B = draw(st.sampled_from([b for b in blocks if b.shape[0] > 1]))
        B[0, 1] += draw(st.sampled_from((1e-9, 1e-3, 1.0, 1e300)))
    return name, field, KktPoint(x, xi, BlockSymMatrix(blocks))


def test_library_names_a_malformed_point():
    @hyp.settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(case=bad_points())
    # an xi of length 2 on ex3, whose eq_dim is 0
    @hyp.example(case=("ex3", "xi", _ex3(xi=[0.0, 0.0])))
    # Gamma blocks of orders (3, 1) and a single 2 x 2 block on ex3 (2, 1)
    @hyp.example(case=("ex3", "Gamma",
                       _ex3(blocks=[np.zeros((3, 3)), np.zeros((1, 1))])))
    @hyp.example(case=("ex3", "Gamma", _ex3(blocks=[np.zeros((2, 2))])))
    # an asymmetric block, which used to run to max_iter
    @hyp.example(case=("ex3", "Gamma",
                       _ex3(blocks=[[[0.0, 1.0], [0.0, 0.0]], [[0.0]]])))
    # a reference point with x of length 1 and no Gamma blocks, which
    # broadcast into distances of a solve that read converged
    @hyp.example(case=("ex3", "x", KktPoint(np.zeros(1), np.zeros(0),
                                             BlockSymMatrix([]))))
    def check(case):
        name, field, z = case
        problem, _ = PROBLEMS[name]
        for entry in (ssn_solve, regularity_report,
                      lambda p, z: ssn_solve(p, STARTS[name], z_bar=z)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"\b{field}\b"):
                    entry(problem, z)

    check()


# a replaced dimension may surface as the shape of an array it sizes
NAMED = {"x_dim": {"x_dim", "Q", "c", "H", "G"}, "eq_dim": {"eq_dim", "H", "p"},
         "cone_blocks": {"cone_blocks", "G", "q"}}


@st.composite
def replaced_qsdp(draw):
    """(key, data): ex2's or ex3's QSDP data with one field replaced."""
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    key = draw(st.sampled_from(_QSDP_KEYS))
    data = dict(PROBLEMS[name][0].qsdp_data)
    data[key] = draw(st.sampled_from(BAD_VALUES))
    return key, data


def test_load_qsdp_names_the_field(tmp_path):
    path = tmp_path / "qsdp.json"

    @hyp.settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(case=replaced_qsdp())
    @hyp.example(case=("Q", dict(QSDP, Q=[[1, 2], [3]])))
    @hyp.example(case=("G", dict(QSDP, G=None)))
    @hyp.example(case=("c", dict(QSDP, c="abc")))
    def check(case):
        key, data = case
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                problem = load_qsdp(path)
            except ValueError as e:
                named = re.match(r"qsdp (\w+)", str(e))
                assert named and named.group(1) in NAMED.get(key, {key}), e
            else:
                assert isinstance(problem, NlsdpProblem)

    check()
