"""Tests for the problem containers, derivative audit and qsdp files."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ssnsdp.catalog import catalog
from ssnsdp.kkt import kkt_residual
from ssnsdp.linalg_sym import smat, svec
from ssnsdp.problem import (
    BlockSymMatrix,
    KktPoint,
    fd_check_derivatives,
    hess_matrix_of,
    jac_g_matrix_of,
    jac_h_matrix_of,
    load_qsdp,
    perturbed_start,
    qsdp_problem,
    save_qsdp,
    to_dense,
)


def rand_point(problem, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    G = BlockSymMatrix(
        [scale * 0.5 * (M + M.T) for M in
         (rng.standard_normal((n, n)) for n in problem.cone_blocks)])
    return KktPoint(scale * rng.standard_normal(problem.x_dim),
                    scale * rng.standard_normal(problem.eq_dim), G)


# ---------------------------------------------------------------------------
# containers


def test_blocksym_svec_roundtrip():
    rng = np.random.default_rng(0)
    orders = [3, 1, 2]
    blocks = [0.5 * (M + M.T) for M in
              (rng.standard_normal((n, n)) for n in orders)]
    B = BlockSymMatrix(blocks)
    v = B.svec()
    assert v.size == 6 + 1 + 3
    C = BlockSymMatrix.from_svec(orders, v)
    for a, b in zip(B.blocks, C.blocks):
        assert_allclose(a, b, atol=1e-14)


def test_blocksym_from_svec_rejects_bad_length():
    with pytest.raises(ValueError):
        BlockSymMatrix.from_svec([2, 1], np.zeros(3))


def test_blocksym_inner_matches_trace():
    rng = np.random.default_rng(1)
    A = BlockSymMatrix([np.eye(2), 0.5 * np.ones((1, 1))])
    M = rng.standard_normal((2, 2))
    B = BlockSymMatrix([0.5 * (M + M.T), 2.0 * np.ones((1, 1))])
    want = np.trace(A.blocks[0] @ B.blocks[0]) + np.trace(
        A.blocks[1] @ B.blocks[1])
    assert_allclose(A.inner(B), want)
    assert_allclose(A.svec() @ B.svec(), want)


def test_blocksym_arithmetic_and_norm():
    A = BlockSymMatrix([np.eye(2)])
    B = BlockSymMatrix([np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert_allclose((A + B).blocks[0], [[1.0, 1.0], [1.0, 1.0]])
    assert_allclose((A - B).blocks[0], [[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose((A * 3.0).blocks[0], 3.0 * np.eye(2))
    assert_allclose(B.norm(), np.sqrt(2.0))
    C = A.copy()
    C.blocks[0][0, 0] = 7.0
    assert A.blocks[0][0, 0] == 1.0


def test_kkt_point_vector_roundtrip():
    problem, sol = catalog("ex2")
    z = rand_point(problem, 2)
    d = np.arange(float(problem.total_dim))
    moved = z.add_vector(d)
    assert_allclose(moved.to_vector(), z.to_vector() + d, atol=1e-14)
    assert_allclose(z.distance_to(moved), np.linalg.norm(d))
    assert_allclose(z.norm(), np.linalg.norm(z.to_vector()))


# ---------------------------------------------------------------------------
# derivative audit


@pytest.mark.parametrize("name,params", [
    ("ex1", {"l1": 4, "l2": 3}),
    ("ex2", {}),
    ("ex3", {}),
    ("ex4_primal", {}),
    ("ex4_dual", {}),
    ("ex5", {"l1": 4, "l2": 3}),
    ("ex7", {}),
])
def test_fd_check_derivatives_on_catalog(name, params):
    """Evaluators must agree with finite differences and adjoint identities
    at the reference point and at random points."""
    problem, sol = catalog(name, **params)
    report = fd_check_derivatives(problem, sol.z_bar)
    assert report["ok"], report
    for seed in range(1, 5):
        z = rand_point(problem, seed)
        report = fd_check_derivatives(problem, z, seed=seed)
        assert report["ok"], (name, seed, report)


def test_fd_check_flags_broken_gradient():
    problem, sol = catalog("ex3")
    bad = dataclasses.replace(problem, grad_f=lambda x: problem.grad_f(x) + 0.01)
    report = fd_check_derivatives(bad, sol.z_bar)
    assert not report["ok"]
    assert report["grad_f"] > 1e-5


def test_matrix_helpers_match_column_assembly():
    """The stored Jacobian/Hessian matrices agree with assembling the
    operator column by column."""
    problem, sol = catalog("ex7")
    stripped = dataclasses.replace(problem, jac_h_matrix=None,
                                   jac_g_matrix=None, hess_matrix_fn=None)
    x, xi, G = sol.z_bar.x, sol.z_bar.xi, sol.z_bar.Gamma
    assert_allclose(jac_h_matrix_of(stripped, x),
                    to_dense(jac_h_matrix_of(problem, x)), atol=1e-14)
    assert_allclose(jac_g_matrix_of(stripped, x),
                    to_dense(jac_g_matrix_of(problem, x)), atol=1e-14)
    assert_allclose(hess_matrix_of(stripped, x, xi, G),
                    to_dense(hess_matrix_of(problem, x, xi, G)), atol=1e-14)


# ---------------------------------------------------------------------------
# perturbed starts


def test_perturbed_start_zero_magnitude_is_reference():
    problem, sol = catalog("ex3")
    z0 = perturbed_start(sol.z_bar, 0.0, seed=5)
    assert z0.distance_to(sol.z_bar) == 0.0


def test_perturbed_start_distance_counts_nonempty_groups():
    # ex2 has x, xi and Gamma groups; ex3 has no equality multipliers
    problem2, sol2 = catalog("ex2")
    z = perturbed_start(sol2.z_bar, 0.3, seed=6)
    assert_allclose(z.distance_to(sol2.z_bar), 0.3 * np.sqrt(3.0), rtol=1e-12)
    problem3, sol3 = catalog("ex3")
    z = perturbed_start(sol3.z_bar, 10.0, seed=6)
    assert_allclose(z.distance_to(sol3.z_bar), 10.0 * np.sqrt(2.0), rtol=1e-12)


def test_perturbed_start_is_deterministic():
    problem, sol = catalog("ex4_dual")
    a = perturbed_start(sol.z_bar, 1.0, seed=7)
    b = perturbed_start(sol.z_bar, 1.0, seed=7)
    assert a.distance_to(b) == 0.0
    c = perturbed_start(sol.z_bar, 1.0, seed=8)
    assert c.distance_to(a) > 0.0


# ---------------------------------------------------------------------------
# qsdp files


def test_qsdp_save_load_roundtrip_exact(tmp_path):
    problem, _ = catalog("ex3")
    data = dict(problem.qsdp_data)
    data["name"] = "roundtrip"
    path = tmp_path / "ex3.json"
    save_qsdp(path, data)
    loaded = load_qsdp(path)
    assert loaded.name == "roundtrip"
    for key in ("Q", "c", "H", "p", "G", "q"):
        a = np.asarray(problem.qsdp_data[key], dtype=float)
        b = np.asarray(loaded.qsdp_data[key], dtype=float)
        assert np.array_equal(a.ravel(), b.ravel()), key
    # a second save of the loaded data is byte-identical
    path2 = tmp_path / "again.json"
    save_qsdp(path2, dict(loaded.qsdp_data, name="roundtrip"))
    assert path.read_bytes() == path2.read_bytes()


def test_qsdp_loaded_problem_matches_builder():
    """ex3 rebuilt from its own schema data produces the same KKT residuals."""
    problem, sol = catalog("ex3")
    clone = qsdp_problem(problem.qsdp_data, name="clone")
    for seed in range(5):
        z = rand_point(problem, seed, scale=2.0)
        r1 = kkt_residual(problem, z)
        r2 = kkt_residual(clone, z)
        assert_allclose(r1, r2, atol=1e-14)


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.pop("Q"), "missing"),
    (lambda d: d.update(Q=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0]]), "symmetric"),
    (lambda d: d.update(c=[0.0]), "length"),
    (lambda d: d.update(x_dim=0), "positive"),
    (lambda d: d.update(cone_blocks=[]), "positive"),
    (lambda d: d.update(x_dim=3.7), "x_dim: expected an integer"),
    (lambda d: d.update(eq_dim=0.5), "eq_dim: expected an integer"),
    (lambda d: d.update(cone_blocks=[2.9, 1]),
     "cone_blocks: expected an integer"),
    (lambda d: d.update(x_dim="3"), "x_dim: expected an integer"),
    (lambda d: d.update(cone_blocks=5), "cone_blocks: expected a list"),
])
def test_qsdp_validation_errors(mutate, msg):
    problem, _ = catalog("ex3")
    data = dict(problem.qsdp_data)
    mutate(data)
    with pytest.raises(ValueError, match=msg):
        qsdp_problem(data)


def test_qsdp_data_must_be_an_object():
    with pytest.raises(ValueError, match="qsdp data: expected an object"):
        qsdp_problem([1, 2])


def test_qsdp_q_shape_error():
    problem, _ = catalog("ex3")
    data = dict(problem.qsdp_data)
    data["Q"] = np.eye(2).tolist()
    with pytest.raises(ValueError):
        qsdp_problem(data)


def test_save_qsdp_rejects_non_finite_data(tmp_path):
    problem, _ = catalog("ex3")
    data = dict(problem.qsdp_data)
    G = np.array(data["G"], dtype=float)
    G[2, 1] = np.inf
    data["G"] = G.tolist()
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="qsdp G has a non-finite entry"):
        save_qsdp(path, data)
    assert not path.exists()


def test_qsdp_numpy_data_round_trips_exactly(tmp_path):
    """numpy arrays and scalars, which qsdp_problem accepts, save as the
    lists they hold: the file is the one list data give, and it loads
    back bit for bit."""
    problem, _ = catalog("ex3")
    data = {k: np.asarray(v, dtype=float) / 3.0
            for k, v in problem.qsdp_data.items()
            if k in ("Q", "c", "H", "p", "G", "q")}
    data.update(x_dim=np.int64(problem.x_dim),
                eq_dim=np.int64(problem.eq_dim),
                cone_blocks=[np.int64(n) for n in problem.cone_blocks],
                name="numpy")
    path = tmp_path / "numpy.json"
    save_qsdp(path, data)
    loaded = load_qsdp(path)
    for key in ("Q", "c", "H", "p", "G", "q"):
        got = np.asarray(loaded.qsdp_data[key], dtype=float)
        assert np.array_equal(got.ravel(), data[key].ravel()), key
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in data.items()}
    lists.update(x_dim=problem.x_dim, eq_dim=problem.eq_dim,
                 cone_blocks=list(problem.cone_blocks))
    as_lists = tmp_path / "lists.json"
    save_qsdp(as_lists, lists)
    assert path.read_bytes() == as_lists.read_bytes()


def test_save_qsdp_that_does_not_serialize_leaves_no_file(tmp_path):
    problem, _ = catalog("ex3")
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_qsdp(path, dict(problem.qsdp_data, name=object()))
    assert not path.exists()


# ---------------------------------------------------------------------------
# the primal-dual pair


def test_example4_optimal_values_are_dual():
    """Optimal primal and dual objective values add up to half the squared
    data norm, and the dual matrix variable is the negated primal cone
    multiplier."""
    primal, psol = catalog("ex4_primal")
    dual, dsol = catalog("ex4_dual")
    fp = primal.f(psol.z_bar.x)
    fd = dual.f(dsol.z_bar.x)
    b = np.asarray(primal.qsdp_data["c"], dtype=float)[:2]
    assert_allclose(fp + fd, 0.5 * b @ b, rtol=1e-12)
    Y = smat(np.array([dsol.z_bar.x[0], dsol.z_bar.x[1], dsol.z_bar.x[2]]))
    assert_allclose(Y, -psol.z_bar.Gamma.blocks[0], atol=1e-12)


def test_example4_eps_variants_have_no_reference_solution():
    for name in ("ex4_primal", "ex4_dual"):
        problem, sol = catalog(name, eps=0.05)
        assert sol is None
        assert problem.x_dim == 3
