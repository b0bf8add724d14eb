"""Small deterministic numeric primitives used throughout the package.

These are deliberately hand-rolled where the behavior is part of the
contract (tolerances, iteration caps, endpoint handling); anything generic
beyond that is delegated to numpy/scipy by the callers.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable

import numpy as np

from .errors import DomainError, NoConvergence, SolverDivergence

#: relative accuracy that cg_measure's contract guarantees for a step solve
SOLVER_TOL = 1e-10
#: relative residual at which cg_measure stops; the contract ceiling is
#: SOLVER_TOL, and every solver field, and with it the benchmark's stored
#: reference fields, depends on this value
CG_REL_TOL = 1e-13


@contextlib.contextmanager
def overflow_is_domain_error(what: str):
    """Raise :class:`DomainError` naming ``what`` where the block overflows
    double precision: an exponential factor that large has no finite value
    for a check to compare. numpy overflows in the block raise too."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise DomainError(f"{what} overflows double precision") from None


def finite_exp(x: float) -> float:
    """``math.exp``, which also raises OverflowError where the exponent
    itself overflowed to +inf (a product K t of finite floats can)."""
    if x == math.inf:
        raise OverflowError("math range error")
    return math.exp(x)


def gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``points``-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def newton_root(
    f_and_slope: Callable[[float], tuple[float, float]], lo: float, hi: float, x: float
) -> float:
    """Root of ``f`` on ``[lo, hi]`` by Newton safeguarded with bisection.

    ``f_and_slope(x)`` gives ``(f(x), f'(x))``, ``f < 0`` left of the root
    and ``f > 0`` right of it; ``x`` starts inside. A step that leaves the
    bracket or does not halve the step before last is replaced by bisection
    (by doubling the distance from the first ``lo`` while ``hi`` is
    infinite), so a bracket without a sign change collapses onto one end.
    Stops at a step below 1e-14 relative; raises :class:`NoConvergence`
    after 200 evaluations.
    """
    start = lo
    step_before = step = math.inf
    for _ in range(200):
        fx, slope = f_and_slope(x)
        lo, hi = (x, hi) if fx < 0.0 else (lo, x)
        newton = fx / slope if slope != 0.0 else math.nan
        if abs(newton) <= 1e-14 * abs(x):
            return x - newton
        nxt = x - newton
        if not (lo < nxt < hi and abs(newton) <= 0.5 * abs(step_before)):
            nxt = 0.5 * (lo + hi) if math.isfinite(hi) else x + (x - start)
        step_before, step = step, x - nxt
        if abs(step) <= 1e-14 * abs(nxt) or not lo < nxt < hi:
            return nxt
        x = nxt
    raise NoConvergence(f"Newton iteration stalled on [{lo}, {hi}]")


def cg_measure(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    sigma: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> np.ndarray:
    """Preconditioned conjugate gradient for an operator self-adjoint (and
    positive definite) in the measure inner product
    ``<u, v> = sum(u * v * sigma)``.

    ``rhs`` and ``x0`` are one field ``(n,)`` or a stack ``(m, n)`` of fields
    as rows; ``apply_op`` and ``precond`` map a stack ``(k, n)`` to itself,
    and ``precond`` must be self-adjoint and positive definite in the same
    inner product, acting on each row alone. The whole stack runs in one
    lockstep sweep, with no chunks: each operator and preconditioner call
    serves every row still iterating, while each row keeps its own scalars,
    stopping rule and row-wise reductions, so a field's result does not
    depend on its stack, bit for bit. A row leaves the sweep when its
    (unpreconditioned) measure-norm residual is below :data:`CG_REL_TOL`
    times that of its right-hand side, or after 20 iterations without a new
    best residual (the round-off floor). Raises :class:`SolverDivergence`
    if one is still iterating after ``10 * n`` iterations.
    """
    b = np.ascontiguousarray(np.atleast_2d(rhs), dtype=float)
    x = np.array(np.atleast_2d(x0), dtype=float, order="C")
    shape = np.shape(rhs)
    tol2 = CG_REL_TOL**2
    max_iter = 10 * b.shape[1]
    r = b - apply_op(x)
    rr = np.einsum("ij,ij,j->i", r, r, sigma)
    target = tol2 * np.maximum(np.einsum("ij,ij,j->i", b, b, sigma), 1e-300)
    rows = np.flatnonzero(rr > target)
    if rows.size == 0:
        return x.reshape(shape)
    xa = x
    if rows.size < len(b):
        xa, r, rr, target = x[rows], r[rows], rr[rows], target[rows]
    p = precond(r)
    rz = np.einsum("ij,ij,j->i", r, p, sigma)
    # best residual and the iteration that reached it; best_rr is updated in
    # place and must never alias rr
    best_rr = rr.copy()
    best_it = np.full(rows.size, -1)
    for it in range(max_iter):
        ap = apply_op(p)
        alpha = (rz / np.einsum("ij,ij,j->i", p, ap, sigma))[:, None]
        xa += alpha * p
        r -= alpha * ap
        rr = np.einsum("ij,ij,j->i", r, r, sigma)
        improved = rr < best_rr
        np.copyto(best_rr, rr, where=improved)
        np.copyto(best_it, it, where=improved)
        # converged, or 20 iterations without a new best: round-off floor
        done = (rr <= target) | (best_it <= it - 20)
        if np.count_nonzero(done):
            x[rows[done]] = xa[done]
            keep = ~done
            rows, xa, r, p = rows[keep], xa[keep], r[keep], p[keep]
            rr, rz, target = rr[keep], rz[keep], target[keep]
            best_rr, best_it = best_rr[keep], best_it[keep]
            if rows.size == 0:
                return x.reshape(shape)
        z = precond(r)
        rz_new = np.einsum("ij,ij,j->i", r, z, sigma)
        p *= (rz_new / rz)[:, None]
        p += z
        rz = rz_new
    raise SolverDivergence(
        f"measure-CG exceeded {max_iter} iterations "
        f"(residual^2 {float(np.max(rr)):.3e})"
    )
