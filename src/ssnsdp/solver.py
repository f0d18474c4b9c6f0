"""Correction-augmented semismooth Newton iteration.

Each outer step first snaps the spectrum of every cone argument onto exact
activity (eigenvalues within delta of zero are removed from the multiplier,
leaving hard zeros), then takes one Newton step on the KKT map using the
chosen surrogate derivative.  The correction is what keeps the Newton
matrices nonsingular near degenerate solutions; without it the plain
iteration can hit singular matrices arbitrarily close to the solution.

Iteration traces record, per outer step: the residual norm, the distance
to a reference solution when one is supplied, the smallest singular value
of the Newton matrix, the size of the correction just applied, and the
achieved linear-solve residual.
"""

import logging
import math
import numbers

import numpy as np
from scipy.linalg.blas import dnrm2
from dataclasses import dataclass
from typing import Optional

from .linalg_sym import _classified, eig_sym
from .problem import BlockSymMatrix, KktPoint
from .kkt import (assemble_U, cone_decompositions, kkt_residual,
                  min_singular_value)
from ._reduced import (ReducedNewtonOperator, SingularSystemError,
                       WoodburyNewtonOperator, _factor_solve,
                       _factor_with_rcond, reuse_compatible,
                       separable_diagonal)

logger = logging.getLogger("ssnsdp")


@dataclass
class SolverParams:
    """Knobs of the corrected Newton iteration.

    variant selects the surrogate derivative ("U0" or "UI"); delta is the
    correction radius; tol is the residual norm target; max_iter caps the
    number of Newton steps.
    """

    variant: str = "U0"
    delta: float = 0.5
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.variant not in ("U0", "UI"):
            raise ValueError("variant must be 'U0' or 'UI'")
        for name in ("delta", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not isinstance(self.max_iter, numbers.Integral) \
                or self.max_iter < 0:
            raise ValueError("max_iter must be a nonnegative integer")


@dataclass
class IterationTrace:
    """One outer-iteration row; correction_shift is the multiplier change
    that produced this iterate, newton_residual the linear-solve residual
    of the step taken from it (0.0 on the final row, where no step is
    solved).  sigma_min is the smallest singular value of the Newton
    matrix: 0.0 when the matrix is flagged singular; nan when it is
    unknown rather than small, because the row is a diverged iterate,
    for which no matrix is built, or because the problem has more than
    _LANCZOS_BASIS (30) unknowns and the backend's Lanczos iteration did
    not converge.  Up to 30 unknowns the value is exact."""

    k: int
    f_norm: float
    dist_to_solution: Optional[float]
    sigma_min: float
    correction_shift: float
    newton_residual: float


@dataclass
class SolveResult:
    z_final: KktPoint
    status: str
    trace: list

    @property
    def iterations(self):
        return len(self.trace) - 1

    @property
    def converged(self):
        return self.status == "converged"


def correct(z, problem, delta):
    """Snap near-active spectrum of every cone argument to exact activity.

    Eigenvalues of g(x) + Gamma with magnitude <= delta are removed from
    the multiplier block (the primal point is untouched), so afterwards
    every eigenvalue is either exactly zero or exceeds delta in magnitude.
    Idempotent up to rounding.
    """
    out, _, _ = _correct_with_decomps(problem, z, delta)
    return out


def _correct_with_decomps(problem, z, delta):
    """Corrected point, total shift size, and decompositions of the new
    cone arguments (exact zeros in place of the clipped eigenvalues)."""
    gx = problem.g(z.x)
    new_blocks = []
    decomps = []
    clipped = []
    for Gb, Cb in zip(gx.blocks, z.Gamma.blocks):
        dec = eig_sym(Gb + Cb)
        clip = np.abs(dec.lam) <= delta
        lam_new = np.where(clip, 0.0, dec.lam)
        if np.any(clip):
            shift = (dec.P * (dec.lam * clip)) @ dec.P.T
            new_blocks.append(Cb - shift)
            clipped.append(dec.lam[clip])
        else:
            new_blocks.append(Cb.copy())
        decomps.append(_classified(dec.P, lam_new, 0.0))
    z_new = KktPoint(z.x.copy(), z.xi.copy(), BlockSymMatrix(new_blocks))
    # dnrm2 scales: a sum of squares overflows once an eigenvalue passes
    # 1.3e154, far from overflow of the norm itself
    size = float(dnrm2(np.concatenate(clipped))) if clipped else 0.0
    return z_new, size, decomps


class _DenseBackend:
    """Reference backend over the assembled Newton matrix: `matrix` is
    the array assemble_U returns, which the tests compare the solver's
    backends against; the solver never builds it.  It takes the
    arguments of _make_backend, so a test can put it in that function's
    place.  One LU factorization with the shared singularity verdict
    (_factor_with_rcond) serves the Newton step; sigma_min is 0.0 when that
    verdict reads singular and the full-SVD value otherwise."""

    def __init__(self, problem, z, variant, decomps):
        self.matrix = assemble_U(problem, z, variant, _decomps=decomps)
        self.dim = self.matrix.shape[0]
        self.reusable = False
        self._lu = _factor_with_rcond(self.matrix)
        self.singular = self._lu is None

    def solve(self, r):
        return _factor_solve(self._lu, r)

    def matvec(self, d):
        return self.matrix @ d

    def sigma_min(self):
        return 0.0 if self.singular else min_singular_value(self.matrix)


def _make_backend(problem, z, variant, decomps):
    """The Newton-matrix backend at z, at every problem size: the
    diagonal-plus-low-rank (Woodbury) form when the problem has one,
    else block elimination."""
    w = separable_diagonal(problem, z)
    if w is not None:
        return WoodburyNewtonOperator(problem, z, variant, decomps, w)
    return ReducedNewtonOperator(problem, z, variant, decomps)


def _direction(backend, Fvec):
    """The Newton step d with U d = -F: one exact solve with the
    backend's factorization."""
    return backend.solve(-Fvec)


def ssn_solve(problem, z0_hat, params=None, z_bar=None):
    """Corrected Newton iteration from a (possibly uncorrected) start.

    Statuses: "converged" (residual below tol), "singular_system",
    "max_iter", "diverged" (residual blew past 1e6 times its initial
    value or left the floating range).  The final trace row carries the
    Newton matrix's smallest singular value at the last iterate,
    converged or not; a diverged row builds no matrix and records nan.
    Raises ValueError, naming the field, when an entry of the start's x,
    xi or Gamma is not finite.
    """
    return _solve_loop(problem, z0_hat, params or SolverParams(), z_bar,
                       corrected=True)


def classical_ssn_solve(problem, z0, params=None, z_bar=None):
    """Same iteration without the correction step (for contrast runs)."""
    return _solve_loop(problem, z0, params or SolverParams(), z_bar,
                       corrected=False)


def _solve_loop(problem, z0, params, z_bar, corrected):
    for field, parts in (("x", [z0.x]), ("xi", [z0.xi]),
                         ("Gamma", z0.Gamma.blocks)):
        if not all(np.all(np.isfinite(a)) for a in parts):
            raise ValueError(f"start point has a non-finite entry in {field}")
    hat = z0
    trace = []
    f0 = None
    backend_prev = None
    z = z0
    status = "max_iter"
    for k in range(params.max_iter + 1):
        if corrected:
            z, shift, decomps = _correct_with_decomps(problem, hat,
                                                      params.delta)
        else:
            z, shift = hat, 0.0
            decomps = cone_decompositions(problem, z)
        # an iterate far out of range overflows here and reads diverged
        with np.errstate(over="ignore", invalid="ignore"):
            Fvec = kkt_residual(problem, z, _decomps=decomps)
            fn = float(np.linalg.norm(Fvec))
            dist = z.distance_to(z_bar) if z_bar is not None else None
        if f0 is None:
            f0 = fn
        diverged = not np.isfinite(fn) or fn > 1e6 * max(f0, 1e-300)
        if diverged:
            # no Newton system is built for a hopeless iterate
            backend, sigma = None, float("nan")
        elif backend_prev is not None and reuse_compatible(
                backend_prev, problem, z, decomps, params.variant):
            backend = backend_prev
            sigma = backend.sigma_min()
        else:
            backend = _make_backend(problem, z, params.variant, decomps)
            sigma = backend.sigma_min()
        row = IterationTrace(
            k=k, f_norm=fn, dist_to_solution=dist, sigma_min=sigma,
            correction_shift=shift, newton_residual=0.0)
        trace.append(row)
        logger.debug("k=%d f=%.3e sigma=%.3e shift=%.3e",
                     k, fn, sigma, shift)
        if fn < params.tol:
            status = "converged"
            break
        if diverged:
            status = "diverged"
            break
        if k == params.max_iter:
            status = "max_iter"
            break
        if backend.singular:
            status = "singular_system"
            break
        d = _direction(backend, Fvec)
        row.newton_residual = float(np.linalg.norm(backend.matvec(d) + Fvec))
        hat = z.add_vector(d)
        backend_prev = backend
    return SolveResult(z_final=z, status=status, trace=trace)


ORDER_WINDOW = (1e-12, 1e-2)


def fitted_order(trace):
    """Observed convergence order of the final residual phase.

    Collects consecutive residual pairs whose norms both lie inside
    ORDER_WINDOW, away from the initial transient and from the rounding
    floor.  Two or more pairs give the least-squares slope of
    log f_{k+1} against log f_k; a single pair gives the anchored ratio
    log f_{k+1} / log f_k.  Returns None when the window captures no
    pair, as happens when the iteration jumps straight from the
    transient to the floor.  Values near 2 indicate a quadratic tail.
    """
    f = np.array([float(getattr(row, "f_norm", row)) for row in trace])
    lo, hi = ORDER_WINDOW
    ok = (f > lo) & (f < hi)
    keep = [k for k in range(len(f) - 1) if ok[k] and ok[k + 1]]
    if not keep:
        return None
    xs = np.log(f[keep])
    ys = np.log(f[np.array(keep) + 1])
    if len(keep) == 1:
        return float(ys[0] / xs[0])
    return float(np.polyfit(xs, ys, 1)[0])
