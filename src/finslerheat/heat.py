"""Nonlinear heat flow by frozen-coefficient steps.

Each step freezes the differential du of the current iterate, assembles the
weighted diffusion operator with the dual tensor g*(du) (the Hessian of F*^2/2,
which is g^{ij} at the gradient legendre(du)), and advances by one implicit
Euler step. A quadratic norm (b = 0) has g*(du) = a^-1 for every du, so its
flow is linear: the step is built once per run and serves every step and the
final time. The assembly is a finite-volume stiffness built from face averages,
so two structural identities hold exactly by construction:

* the operator annihilates constants, and
* it is self-adjoint in the measure inner product.

In 2-d the cross terms of the tensor are carried by diagonal edges (the
standard 9-point box stencil): the tensor is split per face as
(g11 - |g12|, g22 - |g12|) on the axis edges plus |g12| on the diagonal or
antidiagonal edge matching the sign of g12. Strongly anisotropic tensors can
make axis weights negative, which is allowed: minimum-principle violations
are logged, never clamped.

With non-negative edge weights the step (Sigma + dt L)^-1 Sigma is the inverse
of an M-matrix: like the paper's linearised semigroup it is positive and
conserves mass. :attr:`Trajectory.certificate` reads that sign test from
each recorded step's weights, and :attr:`Trajectory.kernel_probe` probes a
step that fails it. It also reads the three identities that make any step
conserve mass and be self-adjoint in the measure: W = W^T, degree = W 1 and
the run's sigma. The sign test, the probe and the first two identities are
cached on the assembly, so a quadratic run reads each once. Every step, in
the solver and in transport alike, is one preconditioned measure-CG solve
(see DiffusionAssembly.advance). In 1-d the preconditioner is the exact
inverse of the step, from a tridiagonal LDL^T factor built once per
assembly, and CG starts at its solution: one operator application checks the
residual, and a field iterates only if that misses the tolerance. In 2-d the
preconditioner is the FFT inverse of the same step with every edge weight
replaced by its direction's mean, run on numpy.fft one axis at a time, and
CG starts at the right-hand side.

:func:`heat_flow` is the one step loop, with two consumers:
:func:`solve_heat_flow` records every step for the checks, and the ``solve``
verb keeps only u0 and the latest field. :meth:`Trajectory.transport` is
the one transport loop over recorded steps, and :meth:`Trajectory.sweep`
its one forward sweep of the whole record: the time-0 sources of
:data:`SWEPT_SOURCES` that the checks spanning the record read move
through it together, one block per step.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy import fft
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import DomainError, IndexRange, UnsupportedFamily
from .geometry import (
    CovectorField,
    MeasureField,
    ScalarField,
    _differential,
    _hessian_fields,
    differential_field,
)
from .metrics import MetricField
from .numerics import cg_measure, overflow_is_domain_error
from .reporting import DISCRETIZATION_C, InequalityReport, compare, write_json

#: the one time scheme, as ``trajectory.json`` and the run manifest name it
SCHEME = "implicit_euler"
#: a step with a negative edge weight is probed by unit spikes at the
#: endpoints of its this many edges of most negative first-order kernel
#: entry, dt W[i, j] / sigma_i (Trajectory.kernel_probe)
PROBE_EDGES = 4


def _log_sources(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """u Gamma(log u) and u log u at time 0, for a positive u_0."""
    u, _, f2 = traj.log_state(0)
    return u * f2, u * np.log(u)


#: the time-0 sources that the checks spanning the whole record read moved
#: to its end (:meth:`Trajectory.moved`), each formed from the record
SWEPT_SOURCES = {
    "laplacian": lambda traj: traj.delta_u(0),
    "log_gradient": lambda traj: _log_sources(traj)[0],
    "gradient": lambda traj: traj.assembly_at(0).carre_du_champ(traj.fields[0]),
    "entropy": lambda traj: _log_sources(traj)[1],
    "square": lambda traj: traj.fields[0] * traj.fields[0],
}


@dataclass
class DiffusionAssembly:
    """Frozen-coefficient diffusion operator at one time level.

    ``weights`` holds the symmetric off-diagonal edge weights; ``degree`` is
    the matching row sum, computed once by the same sparse product used in
    ``apply`` so that the operator kills constants exactly in floating
    point. ``apply`` evaluates A u = (W u - degree * u) / sigma. One
    assembly may serve many steps, so their times live in the record.
    """

    weights: sp.csr_matrix
    degree: np.ndarray
    sigma: np.ndarray
    dt: float
    kappa_max: float
    degenerate_nodes: int
    #: grid shape and (offset, mean edge weight) of each stencil direction,
    #: the constant-coefficient model behind the 2-d step preconditioner
    shape: tuple[int, ...]
    stencil: tuple[tuple[tuple[int, ...], float], ...]

    def _w(self, rows: np.ndarray) -> np.ndarray:
        """W applied to one field (n,) or to each row of a stack (m, n).

        Transposed back, the (n, m) result of the sparse product is an
        F-ordered view; the copy keeps the rows C-contiguous like every other
        stack of the step solve. On F-ordered rows the measure-weighted row
        reductions of :func:`cg_measure` ran about 4x slower (28 against 7 us
        per 64^2 field in a block of two; 2-core Xeon, one thread), which
        made a whole-block sweep of two fields slower than two sweeps.
        """
        return np.ascontiguousarray((self.weights @ rows.T).T)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply the frozen diffusion operator to one field (n,) or to a
        block (n, m) with fields as columns."""
        rows = values.T
        return ((self._w(rows) - self.degree * rows) / self.sigma).T

    def carre_du_champ(self, values: np.ndarray) -> np.ndarray:
        """Edge-based squared gradient (1/2)(A(u^2) - 2 u A u) of this
        operator, for one field or a block of columns; equals F^2 of the
        frozen gradient up to O(h^2)."""
        rows = values.T
        sq = rows * rows
        return (
            (self._w(sq) + self.degree * sq - 2.0 * rows * self._w(rows))
            / (2.0 * self.sigma)
        ).T

    def advance(self, values: np.ndarray) -> np.ndarray:
        """One implicit Euler step (Sigma + dt L)^-1 Sigma applied to one
        field (n,) or to a block (n, m) with fields as columns.

        The same routine drives both the nonlinear solve and the linearized
        transport, so re-running it on recorded data reproduces the solver
        trajectory bit for bit. Column j of a block result is bitwise the
        result for column j alone. In 1-d, CG starts at the exact LDL^T
        solve and only verifies it; in 2-d it starts at the right-hand side.
        """
        rows = np.asarray(values, dtype=float).T
        # W x and degree take the one rounded dt / sigma, so the residual of a
        # constant is the rounding of 1 + scale * degree and CG accepts it
        scale = self.dt / self.sigma
        diag = 1.0 + scale * self.degree

        def op(x):
            return diag * x - scale * self._w(x)

        precond = self._preconditioner()
        x0 = precond(np.atleast_2d(rows)) if len(self.shape) == 1 else rows
        return cg_measure(op, rows, self.sigma, precond, x0=x0).T

    def _preconditioner(self):
        """Preconditioner of the step operator I + dt * Sigma^-1 L: its
        exact inverse in 1-d, kept on the assembly after the first call, and
        the FFT model of :meth:`_fft_inverse` in 2-d. Either is self-adjoint
        and positive definite in the sigma inner product. Only the 1-d one
        is exact, so only there does :meth:`advance` start CG at its image
        of the right-hand side."""
        return self._fft_inverse() if len(self.shape) > 1 else self._exact_inverse

    @functools.cached_property
    def _exact_inverse(self):
        """Exact inverse r -> A^-1 Sigma r of the 1-d step, A = Sigma + dt L.

        A is tridiagonal plus the two periodic corners c = A[0, n-1]. With
        gamma = -A[0, 0], u = (gamma, 0, ..., 0, c) and v = (1, 0, ..., 0,
        c / gamma), B = A - u v^T has no corners and B - A is positive
        semi-definite, so B has an LDL^T factor (LAPACK dpttrf); Sherman-
        Morrison gives A^-1 y = x - z (v.x) / (1 + v.z) with x = B^-1 y,
        z = B^-1 u. The factor and z are about 3n floats. A non-finite or
        indefinite B raises DomainError, which :func:`heat_step` prefixes
        with the step's time and dt. LAPACK's dpttrs
        solves each right-hand side alone, so a row's result does not depend
        on its stack.
        """
        n, dt = self.shape[0], self.dt
        diag = self.sigma + dt * self.degree
        corner = -dt * self.weights.diagonal(1 - n)[0]
        gamma = -diag[0]
        diag[0] -= gamma
        diag[-1] -= corner * corner / gamma
        d, e, info = dpttrf(diag, -dt * self.weights.diagonal(1))
        if info or not np.isfinite(d).all():  # dpttrf lets NaN through
            raise DomainError("has no finite positive-definite factor")
        u = np.zeros((n, 1))
        u[0], u[-1] = gamma, corner
        z = dpttrs(d, e, u)[0][:, 0]
        ratio = corner / gamma
        z /= 1.0 + z[0] + ratio * z[-1]
        sigma = self.sigma

        def precond(r):
            x = dpttrs(d, e, (sigma * r).T, overwrite_b=1)[0].T
            x -= (x[:, :1] + ratio * x[:, -1:]) * z
            return x

        return precond

    @functools.cached_property
    def sign_test(self) -> tuple[int, float, tuple[int, int]]:
        """(count of negative edge weights, each edge once, the smallest
        weight, the nodes of its edge) of W: :class:`StepCertificate`'s."""
        w = self.weights
        e = int(np.argmin(w.data))
        row = int(np.searchsorted(w.indptr, e, side="right")) - 1
        rows = np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))
        negative = int(np.count_nonzero((w.data < 0.0) & (rows < w.indices)))
        return negative, float(w.data[e]), (row, int(w.indices[e]))

    @functools.cached_property
    def identities(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """W = W^T and degree = W 1, each as (largest defect, its nodes) in
        the matrix I + dt Sigma^-1 (D - W) the step inverts: dt |W[i, j] -
        W[j, i]| / sigma_i and dt |degree_i - (W 1)_i| / sigma_i, each 0
        where it holds bitwise."""
        w = self.weights
        every = np.arange(w.shape[0])
        rows = np.repeat(every, np.diff(w.indptr))
        scale = self.dt / self.sigma
        mirror = np.asarray(w[w.indices, rows]).ravel()  # W[j, i] at each stored (i, j)
        return (
            largest_defect(scale[rows] * np.abs(w.data - mirror), rows, w.indices),
            largest_defect(scale * np.abs(self.degree - w @ np.ones(every.size)), every),
        )

    @functools.cached_property
    def probe(self) -> KernelProbe:
        """The step's kernel probed by unit spikes at the endpoints of its
        :data:`PROBE_EDGES` edges of most negative first-order kernel entry,
        moved through the step alone: the smallest entry and the largest
        gain of their images (:attr:`Trajectory.kernel_probe`)."""
        sigma, w = self.sigma, self.weights.tocoo()
        upper = w.row < w.col
        rows, cols = w.row[upper], w.col[upper]
        # S[i, j] = dt W[i, j] / sigma_i to first order in dt: of an edge's
        # two entries, the one in the lighter node's row is the lower
        first_order = w.data[upper] / np.minimum(sigma[rows], sigma[cols])
        worst = np.argsort(first_order, kind="stable")[:PROBE_EDGES]
        nodes = np.unique(np.concatenate([rows[worst], cols[worst]]))
        spikes = np.zeros((sigma.size, nodes.size))
        spikes[nodes, np.arange(nodes.size)] = 1.0
        kernel = self.advance(spikes)
        i, j = np.unravel_index(np.argmin(kernel), kernel.shape)
        gains = np.sqrt(sigma @ kernel**2 / sigma[nodes])
        g = int(np.argmax(gains))
        return KernelProbe(
            float(kernel[i, j]), (int(i), int(nodes[j])), float(gains[g]), int(nodes[g]), False
        )

    def _fft_inverse(self):
        """Approximate inverse of the step operator I + dt * Sigma^-1 L.

        With every edge weight replaced by the mean of its stencil direction,
        mean(sigma) + dt * L is circulant on the torus, and a real FFT
        diagonalises it with symbol lambda(theta) = mean(sigma) + dt *
        sum_d 2 max(w_d, 0) (1 - cos theta.d). The diagonal scaling Dh =
        sqrt(mean(full) / full), full = sigma + dt * degree, restores the
        local size of the operator. The result M^-1 r = Dh F^-1[F(Sigma Dh r)
        / lambda] is self-adjoint and positive definite in the sigma inner
        product: the clip keeps lambda >= mean(sigma) > 0 even when
        anisotropy makes an axis weight negative. Dh and the symbol are
        built at the first application: a CG solve that accepts its start
        applies none.

        The transform runs as 1-d numpy.fft passes, the column pass in place
        on the half spectrum of the row pass: ``rfftn``/``irfftn`` allocate
        at every pass, and scipy.fft would load scipy.special into every
        process. Each row of a stack is transformed alone, as
        :func:`cg_measure` requires.
        """
        shape, dt = self.shape, self.dt

        @functools.cache
        def model():
            full = self.sigma + dt * self.degree
            dh = np.sqrt(np.mean(full) / full)
            offsets, weights = zip(*self.stencil)
            symbol = np.tensordot(np.maximum(weights, 0.0), _stencil_symbols(shape, offsets), 1)
            inv_lam = 1.0 / (np.mean(self.sigma) + dt * symbol)
            return dh, self.sigma * dh, inv_lam

        def precond(r):
            dh, sdh, inv_lam = model()
            spec = fft.rfft((sdh * r).reshape(-1, *shape))
            fft.fft(spec, axis=-2, out=spec)
            spec *= inv_lam
            fft.ifft(spec, axis=-2, out=spec)
            z = fft.irfft(spec, n=shape[-1]).reshape(r.shape)
            z *= dh
            return z

        return precond


@functools.lru_cache(maxsize=8)
def _stencil_symbols(shape: tuple[int, ...], offsets) -> np.ndarray:
    """2 (1 - cos theta.d) on the real-FFT half spectrum of a grid, for each
    stencil offset d: the symbol of a unit-weight edge family. Read-only,
    as every caller shares it."""
    freqs = [fft.fftfreq(n) for n in shape[:-1]] + [fft.rfftfreq(shape[-1])]
    theta = np.meshgrid(*(2.0 * np.pi * f for f in freqs), indexing="ij")
    symbols = np.stack(
        [2.0 * (1.0 - np.cos(sum(t * k for t, k in zip(theta, d)))) for d in offsets]
    )
    symbols.flags.writeable = False
    return symbols


def _face_average(grid, node_values: np.ndarray, axis_offsets) -> np.ndarray:
    """Average node quantity with its neighbor at the given offset."""
    arr = node_values.reshape(grid.shape + node_values.shape[1:])
    rolled = arr
    for ax, off in enumerate(axis_offsets):
        if off:
            rolled = np.roll(rolled, -off, axis=ax)
    return 0.5 * (arr + rolled).reshape(node_values.shape)


@functools.lru_cache(maxsize=8)
def _csr_pattern(shape: tuple[int, ...], offsets) -> tuple[np.ndarray, ...]:
    """(indptr, indices, order) of the symmetric edge matrix of a stencil:
    direction k puts w_k[i] at (i, j) and (j, i), j = i + ``offsets[k]``,
    and CSR entry e is entry ``order[e]`` of concatenate(w_0, w_1, ...).
    With at least 8 nodes per axis no entry repeats, so these are the
    arrays of ``coo_matrix(...).tocsr()``, rows sorted by column. Read-only,
    as every assembly on the grid shares them."""
    n = math.prod(shape)
    flat = np.arange(n)
    rows, cols, source = [], [], []
    for k, off in enumerate(offsets):
        nbr = np.roll(flat.reshape(shape), [-o for o in off], axis=tuple(range(len(shape))))
        rows += [flat, nbr.ravel()]
        cols += [nbr.ravel(), flat]
        source += [k * n + flat] * 2
    rows, cols, source = map(np.concatenate, (rows, cols, source))
    order = np.lexsort((cols, rows))
    per_row = 2 * len(offsets)
    pattern = (
        np.arange(0, per_row * n + 1, per_row, dtype=np.int32),
        cols[order].astype(np.int32),
        source[order],
    )
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def weighted_laplacian(
    metric: MetricField,
    measure: MeasureField,
    differential: CovectorField,
    dt: float = 0.0,
) -> DiffusionAssembly:
    """Assemble the diffusion operator with the dual tensor g*(du) of the
    frozen differential du. Degenerate nodes (``RandersNorm.degenerate_mask``)
    take a^-1, the inverse of the Riemannian part; the assembly records their
    count. A quadratic norm has g* = a^-1 at every node and no degenerate one.
    """
    grid = metric.grid
    if measure.grid != grid or differential.grid != grid:
        raise ValueError("metric, measure and differential live on different grids")
    desc = metric.descriptor
    mask = desc.degenerate_mask(differential.values) & (not desc.quadratic)
    ginv = desc.dual_tensor(differential.values, mask)
    rho = measure.density
    h_pow = grid.h ** (grid.dim - 2)

    face = functools.partial(_face_average, grid)
    # stencil direction -> face coefficient of its edges
    if grid.dim == 1:
        (g11,) = ginv
        edges = {(1,): face(g11, (1,)) * face(rho, (1,))}
        kappa_max = float(np.max(g11))
    else:
        g11, g12, g22 = ginv
        edges = {
            (1, 0): face(rho, (1, 0)) * (face(g11, (1, 0)) - np.abs(face(g12, (1, 0)))),
            (0, 1): face(rho, (0, 1)) * (face(g22, (0, 1)) - np.abs(face(g12, (0, 1)))),
            (1, 1): face(rho, (1, 1)) * np.maximum(face(g12, (1, 1)), 0.0),
            (1, -1): face(rho, (1, -1)) * np.maximum(-face(g12, (1, -1)), 0.0),
        }
        tr = g11 + g22
        det = g11 * g22 - g12**2
        kappa_max = float(np.max(0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4 * det, 0)))))

    weights = [coeff * h_pow for coeff in edges.values()]
    indptr, indices, order = _csr_pattern(grid.shape, tuple(edges))
    w_mat = sp.csr_matrix(
        (np.concatenate(weights)[order], indices, indptr),
        shape=(grid.n_nodes, grid.n_nodes),
    )
    degree = w_mat @ np.ones(grid.n_nodes)
    return DiffusionAssembly(
        weights=w_mat,
        degree=degree,
        sigma=measure.sigma,
        dt=dt,
        kappa_max=kappa_max,
        degenerate_nodes=int(np.count_nonzero(mask)),
        shape=grid.shape,
        stencil=tuple((d, float(np.mean(w))) for d, w in zip(edges, weights)),
    )


def heat_step(
    metric: MetricField,
    measure: MeasureField,
    u: ScalarField,
    dt: float,
    time: float = 0.0,
    assembly: DiffusionAssembly | None = None,
) -> tuple[ScalarField, DiffusionAssembly]:
    """Advance the nonlinear flow by one frozen-coefficient step from
    ``time``, with ``assembly`` (a quadratic norm's step, which does not
    depend on u) or else the assembly at du. A step too long for double
    precision raises DomainError: where the solve overflows, where its CG
    reductions overflow unflagged and leave a non-finite field, or where the
    1-d step has no finite factor."""
    if dt <= 0:
        raise ValueError("step size must be positive")
    what = f"the step at t = {time:g} with dt = {dt:g}"
    with overflow_is_domain_error(what):
        if assembly is None:
            assembly = weighted_laplacian(metric, measure, differential_field(u), dt)
        try:
            values = assembly.advance(u.values)
        except DomainError as exc:  # the 1-d factor's, which names no step
            raise DomainError(f"{what} {exc}") from None
    if not np.isfinite(values).all():
        raise DomainError(f"{what} gives a non-finite field")
    return ScalarField(u.grid, values), assembly


@dataclass(frozen=True)
class StepCertificate:
    """The sign test of one recorded step's edge weights W, and its identities.

    ``negative_weights`` counts the edges of negative weight, each once, and
    ``min_weight`` is the smallest weight, on the edge between ``nodes``
    (:attr:`DiffusionAssembly.sign_test`); ``time`` is the step's start, as
    recorded. ``assembly`` is the step and ``run_sigma`` the run's node
    weights, which :attr:`identities` reads.
    """

    step: int
    time: float
    negative_weights: int
    min_weight: float
    nodes: tuple[int, int]
    assembly: DiffusionAssembly = field(repr=False, compare=False)
    run_sigma: np.ndarray = field(repr=False, compare=False)

    @property
    def certified(self) -> bool:
        """W >= 0 on this step; a NaN weight certifies nothing."""
        return self.min_weight >= 0.0

    @functools.cached_property
    def identities(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """The step's W = W^T, sigma = the run's and degree = W 1, each as
        (largest defect, its nodes): the assembly's two
        (:attr:`DiffusionAssembly.identities`) and |sigma_i - run sigma_i| /
        sigma_i, 0 where it holds bitwise. Read at first use: a run without
        duality or conservative reads none."""
        symmetric, degree = self.assembly.identities
        sigma = self.run_sigma
        gap = np.abs(self.assembly.sigma - sigma) / sigma
        return symmetric, largest_defect(gap, np.arange(sigma.size)), degree


def largest_defect(gap: np.ndarray, *nodes: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """(gap[e], (nodes[0][e], ...)) at the largest entry e of ``gap``, or at
    its first NaN."""
    e = int(np.argmax(gap))
    return float(gap[e]), tuple(int(at[e]) for at in nodes)


@dataclass(frozen=True)
class KernelProbe:
    """What is known of one recorded step's kernel S: ``floor`` = S[nodes],
    its smallest entry known, and ``gain`` = ||S e_j|| / ||e_j||, its
    largest measure-L^2 gain known, on the unit spike e_j at node ``spike``.

    A certified step is ``proven``: S >= 0, and as a Markov kernel symmetric
    in the measure ||S|| <= 1, so the floor 0 and the gain 1 are bounds of
    the whole kernel. On another step both are read from probed spikes: a
    floor below 0 or a gain above 1 is a true violation, but a probe that
    finds none proves nothing.
    """

    floor: float
    nodes: tuple[int, int]
    gain: float
    spike: int
    proven: bool


@dataclass
class Trajectory:
    """Recorded nonlinear flow: times, solution fields, step assemblies.

    ``assemblies[k]`` advanced the solution from ``times[k]`` to
    ``times[k+1]``; an extra assembly at the final time is built lazily when
    a time derivative there is requested. A quadratic norm's run records
    its one step for every k and the final time alike. The time derivative
    at any recorded index is defined through the frozen spatial operator,
    du/dt := A_t u_t, never by differencing fields in time.
    """

    metric: MetricField
    measure: MeasureField
    times: list[float]
    fields: list[np.ndarray]
    assemblies: list[DiffusionAssembly]
    dt: float
    violations: list[dict] = field(default_factory=list)
    #: the sources :meth:`sweep` has moved, by name
    _moved: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def grid(self):
        return self.metric.grid

    @property
    def n_times(self) -> int:
        return len(self.times)

    def field_at(self, index: int) -> ScalarField:
        return ScalarField(self.grid, self.fields[self._check(index)])

    def index_of(self, t: float) -> int:
        # bound t before rounding: a huge t makes the step count inf
        if self.times[0] - self.dt <= t <= self.times[-1] + self.dt:  # NaN fails too
            k = int(round((t - self.times[0]) / self.dt))
            if 0 <= k < self.n_times and abs(self.times[k] - t) <= 0.49 * self.dt:
                return k
        raise IndexRange(f"time {t} not on the recorded grid")

    def assembly_at(self, index: int) -> DiffusionAssembly:
        index = self._check(index)
        if index == len(self.assemblies):
            # final time: a quadratic norm's one step serves it, any other
            # norm assembles once at the last recorded field
            if self.metric.descriptor.quadratic:
                extra = self.assemblies[-1]
            else:
                du = differential_field(self.field_at(index))
                extra = weighted_laplacian(self.metric, self.measure, du, self.dt)
            self.assemblies.append(extra)
        return self.assemblies[index]

    def transport(
        self, values: np.ndarray, start: int, end: int, adjoint: bool = False
    ) -> np.ndarray:
        """Apply the recorded steps start, ..., end - 1 (in reverse order
        when ``adjoint``) to one field (n,) or a block (n, m) of fields as
        columns, every field moving through each step in one call. This is
        the one transport loop: P_{start,end}, or its adjoint. The span must
        satisfy 0 <= start < end < n_times: recorded steps only, which a
        lazily built final-time assembly is not."""
        if not 0 <= start < end < self.n_times:
            raise IndexRange(f"span ({start}, {end}) needs 0 <= start < end < {self.n_times}")
        steps = range(start, end)
        x = np.array(values, dtype=float)
        for k in reversed(steps) if adjoint else steps:
            x = self.assemblies[k].advance(x)
        return x

    @functools.cached_property
    def certificate(self) -> list[StepCertificate]:
        """One :class:`StepCertificate` per recorded step, read once from
        its weights.

        A step is S = (I + dt Sigma^-1 (D - W))^-1 with D = W 1. Where
        W >= 0, the matrix inverted is a strictly diagonally dominant
        Z-matrix, so S >= 0 entrywise, and S 1 = 1. With Sigma S symmetric,
        every product of certified steps is then a Markov kernel, symmetric
        in the measure: positive, order preserving and an L^p contraction
        on every field and every span.
        """
        return [
            StepCertificate(k, self.times[k], *a.sign_test, a, self.measure.sigma)
            for k, a in enumerate(self.assemblies[: self.n_times - 1])
        ]

    @functools.cached_property
    def kernel_probe(self) -> list[KernelProbe]:
        """One :class:`KernelProbe` per recorded step. A certified step is
        proven, located at its smallest weight; another is probed
        (:attr:`DiffusionAssembly.probe`), once per distinct step."""
        return [
            KernelProbe(0.0, cert.nodes, 1.0, cert.nodes[1], True)
            if cert.certified
            else cert.assembly.probe
            for cert in self.certificate
        ]

    def grid_meta(self, **extra) -> dict:
        """The grid, step and metric family, then ``extra``, for reports."""
        return {
            "h": self.grid.h,
            "dt": self.dt,
            "dim": self.grid.dim,
            "nodes_per_axis": self.grid.nodes_per_axis,
            "family": self.metric.descriptor.family,
            **extra,
        }

    def delta_u(self, index: int) -> np.ndarray:
        """Spatial-operator value A_t u_t at a recorded index."""
        return self.assembly_at(index).apply(self.fields[self._check(index)])

    def log_state(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, A u, Gamma(log u)) at a recorded index, for a positive
        solution: dt log u is A u / u and F^2(grad log u) the assembly's
        carre du champ of log u. The one read of the log-based checks."""
        u = self.fields[self._check(index)]
        if not np.min(u) > 0.0:
            raise DomainError("solution must stay strictly positive")
        assembly = self.assembly_at(index)
        return u, assembly.apply(u), assembly.carre_du_champ(np.log(u))

    def sweep(self, names: Iterable[str]) -> None:
        """Move each named source of :data:`SWEPT_SOURCES` that is not yet
        moved through the whole record, all in one forward sweep, for
        :meth:`moved` to read. A source that cannot be formed, a log source
        of a u_0 that is not strictly positive, is left out: the check that
        reads it raises in its own turn."""
        sources = {}
        for name in dict.fromkeys(names):
            if name not in self._moved:
                with contextlib.suppress(DomainError):
                    sources[name] = SWEPT_SOURCES[name](self)
        self._sweep(sources)

    def moved(self, *names: str) -> list[np.ndarray]:
        """The named time-0 sources of :data:`SWEPT_SOURCES` moved through
        the whole record, read-only; those not yet moved go through one
        sweep of their own."""
        self._sweep({n: SWEPT_SOURCES[n](self) for n in names if n not in self._moved})
        return [self._moved[name] for name in names]

    def _sweep(self, sources: dict[str, np.ndarray]) -> None:
        """The one forward sweep: at each recorded step the sources move as
        one block through :meth:`transport`. Column j of a block is bitwise
        column j alone, so no moved source depends on its company. Before
        step k the ``square`` column loses that step's variance source
        2 dt Gamma_k(u_{k+1}) + dt^2 (A_k u_{k+1})^2 (see
        :func:`semigroup.variance_identity`)."""
        if not sources:
            return
        block = np.column_stack(list(sources.values()))
        square = list(sources).index("square") if "square" in sources else None
        for k in range(self.n_times - 1):
            if square is not None:
                step, x = self.assemblies[k], self.fields[k + 1]
                block[:, square] -= (
                    2.0 * step.dt * step.carre_du_champ(x) + (step.dt * step.apply(x)) ** 2
                )
            block = self.transport(block, k, k + 1)
        for name, column in zip(sources, block.T):
            moved = column.copy()
            moved.flags.writeable = False  # the checks share it
            self._moved[name] = moved

    def _check(self, index: int) -> int:
        if not 0 <= index < self.n_times:
            raise IndexRange(f"index {index} outside [0, {self.n_times})")
        return index

    def export(self, out_dir: str) -> None:
        """Write snapshot CSVs and a small JSON description.

        Each CSV is the text ``csv.writer`` would write, built as one string:
        the writer formats a float64 with ``str``, which is ``repr(float)``.
        Each coordinate of the axis that ``grid.coordinates()`` stacks is
        formatted once; nodes run in its C order.
        """
        os.makedirs(out_dir, exist_ok=True)
        grid = self.grid
        header = ",".join(["node"] + [f"x{i}" for i in range(grid.dim)] + ["u"])
        axis = [repr(x) + "," for x in (np.arange(grid.nodes_per_axis) * grid.h).tolist()]
        prefixes = [
            f"{i},{''.join(xs)}" for i, xs in enumerate(itertools.product(axis, repeat=grid.dim))
        ]
        names = {k: f"field_{self.times[k]:.6f}.csv" for k in (0, self.n_times - 1)}
        if max(map(len, names.values())) > 255:  # NAME_MAX of common file systems
            raise DomainError(f"time {self.times[-1]:g} is too large for a snapshot file name")
        for k, name in names.items():
            path = os.path.join(out_dir, name)
            rows = map(str.__add__, prefixes, map(repr, self.fields[k].tolist()))
            with open(path, "w", newline="") as fh:
                fh.write("\r\n".join([header, *rows, ""]))
        meta = {
            "scheme": SCHEME,
            "dt": self.dt,
            "h": self.grid.h,
            "nodes_per_axis": self.grid.nodes_per_axis,
            "dim": self.grid.dim,
            "times": [self.times[0], self.times[-1]],
            "metric_family": self.metric.descriptor.family,
            "violations": self.violations,
        }
        write_json(os.path.join(out_dir, "trajectory.json"), meta)


def heat_flow(
    metric: MetricField,
    measure: MeasureField,
    u0: ScalarField,
    t_final: float,
    dt: float,
    violations: list[dict],
) -> Iterator[tuple[float, np.ndarray, DiffusionAssembly]]:
    """The one step loop: yield (time, field, assembly) after each step of
    the flow from 0 to ``t_final``, the assembly being the step's own.

    The step count is rounded so the final time is hit exactly; each
    assembly's ``dt`` is that step. A quadratic norm's step does not depend
    on u, so its first assembly is yielded again at every step. Positivity
    and range monitors append to ``violations``; nothing is clamped. Mass
    is conserved to solver tolerance.
    """
    if t_final <= 0 or dt <= 0:
        raise ValueError("final time and step size must be positive")
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    lo0, hi0 = float(np.min(u0.values)), float(np.max(u0.values))
    drift_tol = 1e-9 * max(1.0, abs(lo0), abs(hi0))
    u, assembly = u0, None
    for k in range(n_steps):
        reuse = assembly if metric.descriptor.quadratic else None
        u, assembly = heat_step(metric, measure, u, dt_eff, k * dt_eff, reuse)
        t = (k + 1) * dt_eff
        lo, hi = float(np.min(u.values)), float(np.max(u.values))
        if lo0 > 0 and lo <= 0:
            violations.append({"time": t, "kind": "positivity", "magnitude": lo})
        if lo < lo0 - drift_tol or hi > hi0 + drift_tol:
            violations.append(
                {"time": t, "kind": "range", "magnitude": max(lo0 - lo, hi - hi0)}
            )
        yield t, u.values, assembly


def solve_heat_flow(
    metric: MetricField,
    measure: MeasureField,
    u0: ScalarField,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Run :func:`heat_flow` and record every step: the trajectory the
    checks transport fields through."""
    times, fields, assemblies, violations = [0.0], [u0.values.copy()], [], []
    for t, values, assembly in heat_flow(metric, measure, u0, t_final, dt, violations):
        times.append(t)
        fields.append(values)
        assemblies.append(assembly)
    return Trajectory(metric, measure, times, fields, assemblies, assembly.dt, violations)


@dataclass(frozen=True)
class BochnerResult:
    """Pointwise commutation residual and the dimensional inequality slack."""

    residual: ScalarField
    n_form_slack: ScalarField


def bochner_residual(
    metric: MetricField,
    measure: MeasureField,
    u: ScalarField,
    N: float = math.inf,
) -> BochnerResult:
    """Pointwise curvature-commutation residual for flat quadratic metrics.

    residual = A(F^2(grad u)/2) - d(Au)(grad u) - Hess f(grad u, grad u)
               - |Hess u|^2_HS

    which is O(h^2) for smooth data. F^2(grad u) = F*(du)^2 and grad u, the
    Legendre map of du, come from the norm; the operator is applied to
    F*(du)^2/2 once. The slack field replaces the Hessian norm by (Au)^2 / N
    and the drift term by its N-dimensional version; it is bounded below by
    -O(h^2). Critical points of u need no guard: a quadratic metric has
    g*(du) = a^-1 for every du, which is what the assembly uses. N = dim
    with a varying weight is a DomainError.
    """
    desc = metric.descriptor
    if not desc.quadratic:
        raise UnsupportedFamily("commutation residual needs a quadratic metric")
    grid = u.grid
    n = grid.dim
    if not N >= n:  # NaN fails too
        raise ValueError(f"need N >= dim = {n}")
    du = _differential(grid, u.values)
    fstar = desc.dual_norm(du)
    grad = desc.legendre(du)
    assembly = weighted_laplacian(metric, measure, CovectorField(grid, du))
    lap_energy = assembly.apply(0.5 * fstar**2)
    lap_u = assembly.apply(u.values)
    term_transport = np.einsum("ni,ni->n", _differential(grid, lap_u), grad)
    ric_inf = np.einsum("nij,ni,nj->n", _hessian_fields(grid, measure.f), grad, grad)
    hess_u = _hessian_fields(grid, u.values)
    hs = np.einsum("ik,nkl,lj,nji->n", desc.a_inv, hess_u, desc.a_inv, hess_u)
    residual = lap_energy - term_transport - ric_inf - hs

    df_grad = np.einsum("ni,ni->n", _differential(grid, measure.f), grad)
    if N == n and np.max(np.abs(df_grad)) > 1e-8 * max(1.0, float(np.max(fstar))):
        raise DomainError("N equal to the dimension needs a constant weight")
    # both drift and dimension terms vanish at N = inf
    ric_n = ric_inf - (0.0 if N == n else 1.0 / (N - n)) * df_grad**2
    slack = lap_energy - term_transport - ric_n - lap_u**2 / N
    return BochnerResult(ScalarField(grid, residual), ScalarField(grid, slack))


def bochner_report(
    metric: MetricField, measure: MeasureField, u: ScalarField, N: float
) -> InequalityReport:
    """The ``bochner-slack`` check: the N-form slack of
    :func:`bochner_residual` stays above -DISCRETIZATION_C h^2 times the
    residual scale.
    """
    result = bochner_residual(metric, measure, u, N)
    slack = result.n_form_slack.values
    res_max = float(np.max(np.abs(result.residual.values)))
    return compare(
        "bochner-slack",
        -slack,
        np.zeros_like(slack),
        DISCRETIZATION_C * u.grid.h**2 * max(1.0, res_max),
        f"{DISCRETIZATION_C:g} h^2 * residual scale",
        grid_meta={"h": u.grid.h, "max_abs_residual": res_max, "dim": u.grid.dim},
    )
