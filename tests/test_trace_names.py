"""Every name that the benchmark's traced run wraps still exists.

perfbench/tracing.py wraps functions and methods of the package by name,
and raises MissingName when one is gone.  Installing and removing its
spans here makes a refactor that drops a wrapped name fail this suite,
not only the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

import ssnsdp.solver as solver_mod

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_installs():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    make_backend = solver_mod._make_backend
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver_mod._make_backend is not make_backend
    finally:
        tracer.uninstall()
    assert solver_mod._make_backend is make_backend
