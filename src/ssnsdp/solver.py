"""Correction-augmented semismooth Newton iteration.

Each outer step first snaps the spectrum of every cone argument onto exact
activity (eigenvalues within delta of zero are removed from the multiplier,
leaving hard zeros), then takes one Newton step on the KKT map using the
chosen surrogate derivative.  The correction is what keeps the Newton
matrices nonsingular near degenerate solutions; the classical iteration,
the same loop at radius 0 (only exact zeros clipped, no value changed), can
hit singular matrices arbitrarily close to the solution.

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

from .linalg_sym import SpectralDecomposition, eig_sym
from .problem import BlockSymMatrix, KktPoint, _validate_point
from .kkt import assemble_U, kkt_residual, min_singular_value
from ._reduced import (SingularSystemError, _factor_solve,
                       _factor_with_rcond, _make_backend, reuse_compatible)

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
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite real number")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if isinstance(self.max_iter, bool) \
                or not isinstance(self.max_iter, numbers.Integral) \
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
    _LANCZOS_BASIS (30) unknowns, the matrix does not split into small
    blocks, and the backend's Lanczos iteration did not converge.  The
    value is exact up to 30 unknowns, and at any size where the matrix
    splits into one 2x2 or 3x3 block per x coordinate
    (_reduced._split_blocks), as under UI on ex1 wherever V = I."""

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
    cone arguments: exact zeros in place of the clipped eigenvalues, and
    eig_sym's classes with the clipped run moved into beta, which is then
    the range between what stays of alpha and of gamma."""
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
        a, g = dec.alpha[~clip[dec.alpha]], dec.gamma[~clip[dec.gamma]]
        decomps.append(SpectralDecomposition(
            dec.P, lam_new, a, np.arange(a.size, dec.n - g.size), g))
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


def _direction(backend, Fvec):
    """The Newton step d with U d = -F: one exact solve with the
    backend's factorization."""
    return backend.solve(-Fvec)


def ssn_solve(problem, z0_hat, params=None, z_bar=None):
    """Corrected Newton iteration from any start, corrected or not.

    Statuses: "converged" (residual below tol), "singular_system",
    "max_iter", "diverged" (residual blew past 1e6 times its initial
    value or left the floating range).  The final trace row carries the
    Newton matrix's smallest singular value at the last iterate,
    converged or not; a diverged row builds no matrix and records nan.
    A solve holds at most one backend: the previous row's factorization
    is reused when reuse_compatible accepts it, and is otherwise freed
    before the next one is built.
    Raises ValueError, naming the field, when the start's x, xi or Gamma
    does not have the problem's dimensions, has a non-finite entry, or
    (Gamma) is not symmetric, and likewise for the reference point z_bar
    when one is given.
    """
    params = params or SolverParams()
    return _solve_loop(problem, z0_hat, params, z_bar, params.delta)


def classical_ssn_solve(problem, z0, params=None, z_bar=None):
    """Same iteration without the correction (for contrast runs): it is
    the correction at radius 0, and params.delta is not read."""
    return _solve_loop(problem, z0, params or SolverParams(), z_bar, 0.0)


def _solve_loop(problem, z0, params, z_bar, delta):
    """ssn_solve's iteration, every row corrected at radius delta."""
    _validate_point(problem, z0, "start point")
    if z_bar is not None:
        _validate_point(problem, z_bar, "reference point")
    hat = z0
    trace = []
    f0 = None
    backend = None
    z = z0
    status = "max_iter"
    for k in range(params.max_iter + 1):
        z, shift, decomps = _correct_with_decomps(problem, hat, delta)
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
        else:
            if not reuse_compatible(backend, problem, z, decomps,
                                    params.variant):
                # free the refused factorization before the next build, so
                # that a solve never holds two (a Woodbury core on ex5 at
                # 90/60 is 27 MB)
                backend = None
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
