"""Small deterministic numeric primitives used throughout the package.

These are deliberately hand-rolled where the behavior is part of the
contract (tolerances, iteration caps, endpoint handling); anything generic
beyond that is delegated to numpy/scipy by the callers.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable

import numpy as np

from .errors import DomainError, NoConvergence, SolverDivergence

#: golden ratio section used by the 1-d maximizer
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def elementwise(formula: Callable) -> Callable:
    """Extend a formula written on floats (its last argument) to arrays.

    A float goes straight through; anything else is mapped element by
    element through the same formula, so an array entry equals the float
    result bit for bit.
    """

    @functools.wraps(formula)
    def call(*args):
        if isinstance(args[-1], (float, int)):
            return formula(*args)
        mapped = np.vectorize(functools.partial(formula, *args[:-1]), otypes=[float])
        return mapped(args[-1])

    return call


@contextlib.contextmanager
def overflow_is_domain_error(what: str):
    """Raise :class:`DomainError` naming ``what`` where the block overflows
    double precision: an exponential factor that large has no finite value
    for a check to compare."""
    try:
        yield
    except OverflowError:
        raise DomainError(f"{what} overflows double precision") from None


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson quadrature of ``f`` on ``[a, b]``.

    The tolerance is relative to the accumulated integral (with an absolute
    floor of ``rel_tol`` so integrals near zero terminate). Raises
    :class:`NoConvergence` when the recursion depth is exhausted before the
    local error estimate falls under tolerance.
    """
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    scale = abs(b - a) * max(abs(f(a)), abs(f(b)), 1e-300)

    def recurse(x0, x2, f0, f1, f2, whole, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - whole
        tol = rel_tol * max(abs(whole), scale * 1e-3, 1e-300)
        if abs(err) <= 15.0 * tol or depth >= max_depth:
            if depth >= max_depth and abs(err) > 1e6 * tol:
                raise NoConvergence(
                    f"adaptive Simpson stalled on [{x0}, {x2}], err={err:.3e}"
                )
            return left + right + err / 15.0
        return recurse(x0, xm, f0, fl, f1, left, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 0)


def golden_section_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[a, b]`` by golden-section search.

    Returns ``(x_star, f(x_star))``. ``tol`` is an absolute tolerance on the
    bracket width, relative to ``max(1, |a|, |b|)``.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    width_tol = tol * max(1.0, abs(lo), abs(hi))
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > width_tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def expand_bracket_max(
    f: Callable[[float], float],
    start: float,
    step: float,
    max_expand: int = 200,
) -> tuple[float, float]:
    """Find ``[start, hi]`` containing the maximum of a concave ``f``.

    Marches right with geometrically growing steps until the function value
    drops below an earlier one, which brackets the maximizer for concave
    objectives. Raises :class:`NoConvergence` if no decrease is seen.
    """
    xs = [start, start + step]
    vals = [f(xs[0]), f(xs[1])]
    for _ in range(max_expand):
        if vals[-1] < vals[-2]:
            return xs[0], xs[-1]
        step *= 2.0
        xs.append(xs[-1] + step)
        vals.append(f(xs[-1]))
    raise NoConvergence("could not bracket maximum; objective keeps increasing")


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 400,
) -> float:
    """Bisection for a sign change of ``f`` on ``[lo, hi]``.

    ``tol`` is relative to ``max(1, |x|)``. The endpoints must straddle a
    sign change, otherwise ``ValueError`` is raised.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


#: working-set size, in array elements, of one lockstep CG sweep: m fields
#: on n nodes are solved in chunks of max(1, C // n). Small grids share the
#: per-iteration overhead of the sparse product and the FFT round trip
#: (1-d, n = 128, one implicit step of a random field: 0.025-0.035 ms per
#: field in chunks of 32, 0.44-0.61 ms alone); at 64^2 a field runs alone,
#: 4.1-5.7 ms per step. 2-core Xeon, one thread, numpy 2.4, scipy 1.17.
CG_BLOCK_ELEMENTS = 4096


def cg_measure(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    sigma: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray | None = None,
    rel_tol: float = 1e-13,
    max_iter: int | None = None,
) -> np.ndarray:
    """Preconditioned conjugate gradient for an operator self-adjoint (and
    positive definite) in the measure inner product
    ``<u, v> = sum(u * v * sigma)``.

    ``rhs`` and ``x0`` are one field ``(n,)`` or a stack ``(m, n)`` of fields
    as rows; ``apply_op`` and ``precond`` map a stack ``(k, n)`` to itself,
    and ``precond`` must be self-adjoint and positive definite in the same
    inner product, acting on each row alone. The m solves run in lockstep,
    each with its own scalars, stopping rule and row-wise reductions, so a
    field's result does not depend on its stack, bit for bit. A field stops
    when its (unpreconditioned) measure-norm residual is below ``rel_tol``
    (floored at 64 eps) times that of its right-hand side, or after 20
    iterations without a new best residual (the round-off floor). Raises
    :class:`SolverDivergence` if one is still iterating after ``max_iter``
    iterations (default ``10 * n``).
    """
    b = np.ascontiguousarray(np.atleast_2d(rhs), dtype=float)
    m, n = b.shape
    x = np.array(b if x0 is None else np.atleast_2d(x0), dtype=float, order="C")
    tol2 = max(rel_tol, 64.0 * np.finfo(float).eps) ** 2
    if max_iter is None:
        max_iter = 10 * n
    width = max(1, CG_BLOCK_ELEMENTS // n)
    for lo in range(0, m, width):
        chunk = slice(lo, lo + width)
        _cg_lockstep(apply_op, precond, b[chunk], sigma, x[chunk], tol2, max_iter)
    return x.reshape(np.shape(rhs))


def _cg_lockstep(apply_op, precond, b, sigma, x, tol2, max_iter) -> None:
    """Preconditioned measure-CG on the rows of ``b``, in place on the start
    rows ``x``; a row leaves the working set once it converges or stalls."""
    r = b - apply_op(x)
    rr = np.einsum("ij,ij,j->i", r, r, sigma)
    target = tol2 * np.maximum(np.einsum("ij,ij,j->i", b, b, sigma), 1e-300)
    rows = np.flatnonzero(rr > target)
    if rows.size == 0:
        return
    xa = x
    if rows.size < len(b):
        xa, r, rr, target = x[rows], r[rows], rr[rows], target[rows]
    p = precond(r)
    rz = np.einsum("ij,ij,j->i", r, p, sigma)
    # best residual and the iteration that reached it; best_rr is updated in
    # place and must never alias rr. No row can stall before stall_check.
    best_rr = rr.copy()
    best_it = np.full(rows.size, -1)
    stall_check = 19
    for it in range(max_iter):
        ap = apply_op(p)
        alpha = (rz / np.einsum("ij,ij,j->i", p, ap, sigma))[:, None]
        xa += alpha * p
        r -= alpha * ap
        rr = np.einsum("ij,ij,j->i", r, r, sigma)
        improved = rr < best_rr
        np.copyto(best_rr, rr, where=improved)
        np.copyto(best_it, it, where=improved)
        done = rr <= target
        if it >= stall_check:
            # 20 iterations without a new best: round-off floor reached
            done |= best_it <= it - 20
            stall_check = int(np.min(best_it)) + 20
        if np.count_nonzero(done):
            x[rows[done]] = xa[done]
            keep = ~done
            rows, xa, r, p = rows[keep], xa[keep], r[keep], p[keep]
            rr, rz, target = rr[keep], rz[keep], target[keep]
            best_rr, best_it = best_rr[keep], best_it[keep]
            stall_check = it + 1
            if rows.size == 0:
                return
        z = precond(r)
        rz_new = np.einsum("ij,ij,j->i", r, z, sigma)
        p *= (rz_new / rz)[:, None]
        p += z
        rz = rz_new
    raise SolverDivergence(
        f"measure-CG exceeded {max_iter} iterations "
        f"(residual^2 {float(np.max(rr)):.3e})"
    )
