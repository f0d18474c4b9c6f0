"""Catalog of benchmark problems: reference solutions and metadata."""

import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ssnsdp.catalog import catalog, catalog_names, example7_start
from ssnsdp.kkt import kkt_residual
from ssnsdp.linalg_sym import svec_len

SMALL = [
    ("ex1", {"l1": 6, "l2": 4}),
    ("ex2", {}),
    ("ex3", {}),
    ("ex4_primal", {}),
    ("ex4_dual", {}),
    ("ex5", {"l1": 6, "l2": 4}),
    ("ex7", {}),
]


def test_catalog_names():
    assert catalog_names() == [
        "ex1", "ex2", "ex3", "ex4_dual", "ex4_primal", "ex5", "ex7"]


def test_catalog_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown example"):
        catalog("ex99")


def test_catalog_submodule_keeps_its_name():
    # the package must not rebind ssnsdp.catalog to the catalog function
    import ssnsdp.catalog as m
    assert inspect.ismodule(m)
    assert callable(m.catalog) and callable(m.example7_start)


@pytest.mark.parametrize("name", ["ex1", "ex5"])
@pytest.mark.parametrize("sizes,bad", [
    ({"l1": 0, "l2": 0}, "l1"),
    ({"l1": -3}, "l1"),
    ({"l1": 2, "l2": 0}, "l2"),
])
def test_sized_examples_reject_sizes_below_one(name, sizes, bad):
    with pytest.raises(ValueError, match=f"^{bad} must be at least 1"):
        catalog(name, **sizes)


@pytest.mark.parametrize("name,params", SMALL)
def test_reference_points_satisfy_kkt(name, params):
    problem, sol = catalog(name, **params)
    res = np.linalg.norm(kkt_residual(problem, sol.z_bar))
    assert res <= 1e-12, (name, res)


def test_reference_points_satisfy_kkt_at_scale():
    for name in ("ex1", "ex5"):
        problem, sol = catalog(name, l1=60, l2=40)
        assert np.linalg.norm(kkt_residual(problem, sol.z_bar)) <= 1e-12


def test_example1_dimensions():
    problem, sol = catalog("ex1", l1=60, l2=40)
    assert problem.x_dim == svec_len(100) == 5050
    assert problem.eq_dim == 60 * 40 + svec_len(40) == 3220
    assert problem.cone_blocks == [100]
    assert sol.z_bar.x.size == problem.x_dim
    assert sol.z_bar.xi.size == problem.eq_dim


def test_example5_dimensions_and_structure():
    problem, sol = catalog("ex5", l1=6, l2=4)
    assert problem.eq_dim == 0
    assert problem.cone_blocks == [10]
    # cone map is the identity on svec coordinates
    rng = np.random.default_rng(0)
    v = rng.standard_normal(problem.x_dim)
    assert_allclose(problem.jac_g(sol.z_bar.x, v).svec(), v, atol=1e-14)


@pytest.mark.parametrize("name,params,want", [
    ("ex1", {"l1": 6, "l2": 4}, np.inf),
    ("ex2", {}, np.inf),
    ("ex3", {}, 1.0),
    ("ex4_primal", {}, 1.0),
    ("ex4_dual", {}, 1.0),
    ("ex5", {"l1": 6, "l2": 4}, 1.0),
    ("ex7", {}, 1.0),
])
def test_correction_radius_bounds(name, params, want):
    _, sol = catalog(name, **params)
    assert sol.delta_max == want


@pytest.mark.parametrize("name,params", SMALL)
def test_expected_condition_metadata(name, params):
    _, sol = catalog(name, **params)
    assert set(sol.expected_conditions) == {"w_soc", "s_sosc", "w_srcq", "cn"}
    for v in sol.expected_conditions.values():
        assert isinstance(v, bool)


def test_example7_start_structure():
    z = example7_start(0.05)
    assert_allclose(z.x, [-0.05, 1.05, 0.0])
    assert_allclose(z.xi, [0.0, 0.05])
    assert_allclose(z.Gamma.blocks[2], [[-0.05]])
    # the cone argument picks up the wrong-signed active entries
    problem, _ = catalog("ex7")
    A = problem.g(z.x) + z.Gamma
    lam = sorted(float(b[0, 0]) for b in A.blocks)
    assert_allclose(lam, [-0.05, -0.05, 1.05])


@pytest.mark.parametrize("eps", [0.0, 0.1, -0.01, 1.0])
def test_example7_start_rejects_out_of_range(eps):
    with pytest.raises(ValueError):
        example7_start(eps)
