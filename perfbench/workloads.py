"""The benchmark's workloads, made from a seed.

A workload is a list of cases.  A case is one catalog problem, the Newton
element the paper certifies for it, starts made from the seed inside the
region of local convergence, and the closed-form KKT point of checks.py.
One round of a workload solves from every start of every case, then runs
one regularity report per case that has one.  The package receives only
the generated starts and eps values, never the seed.
"""

import importlib
from dataclasses import dataclass

import numpy as np

from ssnsdp.problem import BlockSymMatrix, KktPoint
from ssnsdp.solver import SolverParams

from checks import reference_point

# The catalog and the start generators are called through their modules, so
# that the traced run's wrappers see these calls.  The package's __init__
# rebinds the name ssnsdp.catalog to the catalog function, hence importlib.
catalog_mod = importlib.import_module("ssnsdp.catalog")
problem_mod = importlib.import_module("ssnsdp.problem")


@dataclass
class Case:
    name: str
    problem: object
    params: SolverParams
    ref: tuple
    starts: list
    report: bool

    @property
    def variant(self):
        return self.params.variant

    @property
    def ref_point(self):
        x, xi, gamma = self.ref
        return KktPoint(x.copy(), xi.copy(), BlockSymMatrix(gamma))


def _case(name, sizes, variant, magnitude, count, rng, delta=0.5,
          report=True):
    problem, _ = catalog_mod.catalog(name, **sizes)
    ref = reference_point(name, problem.x_dim, problem.eq_dim,
                          problem.cone_blocks, l1=sizes.get("l1"))
    case = Case(name, problem, SolverParams(variant=variant, delta=delta),
                ref, [], report)
    seeds = rng.integers(0, 2**31, size=count)
    case.starts = [problem_mod.perturbed_start(case.ref_point, magnitude,
                                               int(s)) for s in seeds]
    return case


def _example7_family(count, rng):
    """example7_start(eps) starts: classical Newton is singular at each."""
    problem, _ = catalog_mod.catalog("ex7")
    ref = reference_point("ex7", problem.x_dim, problem.eq_dim,
                          problem.cone_blocks)
    eps = rng.uniform(1e-3, 0.09, size=count)
    starts = [catalog_mod.example7_start(float(e)) for e in eps]
    return Case("ex7", problem, SolverParams(variant="UI", delta=0.2), ref,
                starts, report=False)


def build(workload, seed):
    """Cases of a workload for one seed; the same seed gives the same
    inputs."""
    rng = np.random.default_rng(seed)
    if workload == "ex5-woodbury":
        return [_case("ex5", {"l1": 60, "l2": 40}, "U0", 10.0, 2, rng)]
    if workload == "ex1-reduced":
        return [_case("ex1", {"l1": 90, "l2": 60}, "UI", 1.0, 3, rng)]
    if workload == "dense-cutoff":
        return [_case("ex5", {"l1": 24, "l2": 10}, "U0", 10.0, 2, rng)]
    if workload == "tiny-catalog":
        # At magnitude 0.1, ex3 takes 2 or 3 steps and the ex4 pair 2 to 4;
        # both ex7 families take 1.  With these counts the median solve lies
        # well inside the three-step group, so the seed's mix of step counts
        # cannot tip it from one group to the next.
        return [_case("ex3", {}, "U0", 0.1, 15, rng),
                _case("ex4_dual", {}, "U0", 0.1, 15, rng),
                _case("ex4_primal", {}, "UI", 0.1, 15, rng),
                _case("ex7", {}, "UI", 0.1, 5, rng),
                _example7_family(5, rng)]
    raise ValueError(f"unknown workload {workload!r}")
