"""Every name that the benchmark's traced run wraps still exists, and a
traced report makes the spans its per-report metrics count.

perfbench/tracing.py wraps functions and methods of the package by name,
and raises MissingName when one is gone.  Installing and removing its
spans here makes a refactor that drops a wrapped name fail this suite,
not only the benchmark's own tests.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import ssnsdp.solver as solver_mod
from ssnsdp.catalog import catalog
from ssnsdp.conditions import regularity_report

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_installs():
    make_backend = solver_mod._make_backend
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert solver_mod._make_backend is not make_backend
    finally:
        tracer.uninstall()
    assert solver_mod._make_backend is make_backend


@pytest.mark.parametrize("name,params", [("ex5", {"l1": 6, "l2": 4}),
                                         ("ex3", {})])
def test_traced_report_spans(name, params):
    """Two Newton sigmas, one per variant, the rows of each, the curvature
    once, and the four checks."""
    problem, sol = catalog(name, **params)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.run("report", regularity_report, problem, sol.z_bar)
    finally:
        tracer.uninstall()
    spans = Counter(rec[0] for rec in tracer.spans
                    if rec[0].startswith("conditions."))
    assert spans == {"conditions.newton_sigma": 2,
                     "conditions.constraint_rows": 2,
                     "conditions.curvature": 1, "conditions.check": 4}
