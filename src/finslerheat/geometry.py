"""Flat weighted tori: grids, fields, measures, curvature bounds, exact distance.

The torus is [0, L)^dim with periodic wrap-around and uniform spacing
h = L / nodes_per_axis. Fields are stored flat in C order; 2-d fields
reshape to (n, n) with axis 0 the x direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexRange, UnsupportedFamily
from .metrics import MetricField, reversibility


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a flat torus of side ``period``."""

    dim: int
    nodes_per_axis: int
    period: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise UnsupportedFamily(f"dimension {self.dim} not supported")
        if self.nodes_per_axis < 8:
            raise ValueError("need at least 8 nodes per axis")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def h(self) -> float:
        return self.period / self.nodes_per_axis

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.dim

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape ``(n_nodes, dim)``."""
        axes = [np.arange(self.nodes_per_axis) * self.h] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def flat_index(self, node) -> int:
        """Flat index of a node given flat or per axis."""
        return int(node) if np.isscalar(node) else self.ravel_index(node)

    def ravel_index(self, multi) -> int:
        multi = np.atleast_1d(multi) % self.nodes_per_axis
        if multi.shape != (self.dim,):
            raise IndexRange(f"index {multi} has wrong arity for dim {self.dim}")
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def axis_diff(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Centered difference along ``axis`` with periodic wrap."""
        arr = values.reshape(self.shape)
        out = (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2 * self.h)
        return out.ravel()

    def axis_second_diff(self, values: np.ndarray, axis: int) -> np.ndarray:
        arr = values.reshape(self.shape)
        out = (np.roll(arr, -1, axis=axis) - 2 * arr + np.roll(arr, 1, axis=axis)) / (
            self.h**2
        )
        return out.ravel()

    def cross_second_diff(self, values: np.ndarray) -> np.ndarray:
        """Mixed second difference d^2/dxdy (2-d only), 4-point centered."""
        arr = values.reshape(self.shape)
        out = (
            np.roll(np.roll(arr, -1, 0), -1, 1)
            - np.roll(np.roll(arr, -1, 0), 1, 1)
            - np.roll(np.roll(arr, 1, 0), -1, 1)
            + np.roll(np.roll(arr, 1, 0), 1, 1)
        ) / (4 * self.h**2)
        return out.ravel()


def _check_values(grid: TorusGrid, values: np.ndarray, comps: int | None) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    want = (grid.n_nodes,) if comps is None else (grid.n_nodes, comps)
    if values.shape != want:
        raise ValueError(f"field shape {values.shape}, expected {want}")
    return values


@dataclass(frozen=True)
class ScalarField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, None))

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "ScalarField":
        xy = grid.coordinates()
        return cls(grid, np.asarray([fn(*pt) for pt in xy], dtype=float))


@dataclass(frozen=True)
class VectorField:
    grid: TorusGrid
    values: np.ndarray  # (n_nodes, dim)

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_values(self.grid, self.values, self.grid.dim)
        )


@dataclass(frozen=True)
class CovectorField:
    grid: TorusGrid
    values: np.ndarray  # (n_nodes, dim)

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_values(self.grid, self.values, self.grid.dim)
        )


@dataclass(frozen=True)
class MeasureField:
    """Weighted measure exp(-f) dx, stored as per-node log-density ``f``.

    ``sigma`` are the node weights exp(-f) h^dim; integration against the
    measure is a plain dot product with them. ``density`` and ``sigma`` are
    computed once, read-only, and shared by every assembly on the measure.
    """

    grid: TorusGrid
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _check_values(self.grid, self.f, None))

    @functools.cached_property
    def density(self) -> np.ndarray:
        density = np.exp(-self.f)
        density.flags.writeable = False
        return density

    @functools.cached_property
    def sigma(self) -> np.ndarray:
        sigma = self.density * self.grid.h**self.grid.dim
        sigma.flags.writeable = False
        return sigma

    @classmethod
    def lebesgue(cls, grid: TorusGrid) -> "MeasureField":
        return cls(grid, np.zeros(grid.n_nodes))

    @classmethod
    def from_log_density(cls, grid: TorusGrid, fn) -> "MeasureField":
        return cls(grid, ScalarField.from_function(grid, fn).values)


#: a curvature bound |K| below this counts as zero: the flat (K = 0) forms
#: of the envelope, entropy and log-Sobolev checks apply to it
ZERO_CURVATURE = 1e-10


@dataclass(frozen=True)
class CurvatureBound:
    """Lower bound K with Ric_N(v) >= K F(v)^2 for all directions."""

    N: float
    K: float
    provenance: str  # "analytic" or "sampled"

    def __post_init__(self):
        if not self.N >= 1:  # NaN and -inf fail too
            raise ValueError("effective dimension must be >= 1 or inf")


def _hessian_fields(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Coordinate Hessian per node by centered differences, (n, d, d)."""
    d = grid.dim
    hess = np.empty((grid.n_nodes, d, d))
    for ax in range(d):
        hess[:, ax, ax] = grid.axis_second_diff(values, ax)
    if d == 2:
        cross = grid.cross_second_diff(values)
        hess[:, 0, 1] = cross
        hess[:, 1, 0] = cross
    return hess


def _differential(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    return np.stack(
        [grid.axis_diff(values, ax) for ax in range(grid.dim)], axis=-1
    )


def ricci_lower_bound(
    metric: MetricField,
    measure: MeasureField,
    N: float,
) -> CurvatureBound:
    """Certified lower curvature bound for the supported flat families.

    Constant-coefficient asymmetric norms with constant log-density have
    vanishing drift along straight lines, giving K = 0 exactly for any
    N in [dim, inf]. For a flat quadratic metric a, the minimum of
    Hess f(v, v) - (df(v))^2 / (N - dim) over a-unit v at a node is the
    smallest eigenvalue of C M C^T, with M = Hess f - df df / (N - dim) and
    C = inv(cholesky(a)); K is its minimum over the nodes of the sampled f.
    With N = dim and genuinely varying f the bound degenerates to -inf.
    """
    desc = metric.descriptor
    grid = metric.grid
    n = grid.dim
    if not N >= n:  # NaN and -inf fail too
        raise ValueError(f"need N >= dim = {n}")
    f = measure.f
    f_constant = float(np.ptp(f)) <= 1e-13 * max(1.0, float(np.max(np.abs(f))))

    if f_constant:
        return CurvatureBound(N, 0.0, "analytic")
    if desc.family in ("randers", "asym1d"):
        raise UnsupportedFamily("asymmetric families support constant-density measures only")
    if N == n:
        # nonvanishing drift with no room in the dimension term
        return CurvatureBound(N, -math.inf, "analytic")

    inv_gap = 0.0 if math.isinf(N) else 1.0 / (N - n)
    df = _differential(grid, f)
    m = _hessian_fields(grid, f) - inv_gap * (df[:, :, None] * df[:, None, :])
    c = np.linalg.inv(np.linalg.cholesky(desc.a))
    return CurvatureBound(N, float(np.linalg.eigvalsh(c @ m @ c.T).min()), "sampled")


def finsler_distance(
    metric: MetricField,
    source,
    target=None,
):
    """Exact asymmetric distance d_F(source, .) on the torus.

    Every supported norm is constant in space, so straight segments are
    geodesics (the flat case of Ohta-Sturm) and d_F(p, q) is the minimum
    over integer shifts k of F(x_q - x_p + k L). With c |v| <= F(v) <= C |v|,
    the wrapped displacement w (components in [-L/2, L/2)) gives
    F(w) <= C sqrt(dim) L/2, so a minimising v = w + k L has
    |v| <= (C/c) sqrt(dim) L/2 and |k_i| <= (C/c) sqrt(dim)/2 + 1/2, where
    C/c is the condition root of the Riemannian part times the
    reversibility. ``source``/``target`` are flat indices or per-axis
    tuples. Returns the full distance array when ``target`` is None.
    """
    grid = metric.grid
    desc = metric.descriptor
    n_ax = grid.nodes_per_axis
    multi = lambda flat: np.stack(np.unravel_index(flat, grid.shape), axis=-1)
    goal = np.arange(grid.n_nodes) if target is None else grid.flat_index(target)
    delta = multi(goal) - multi(grid.flat_index(source))
    wrapped = (delta + n_ax // 2) % n_ax - n_ax // 2  # per axis in [-n/2, n/2)
    eig = np.linalg.eigvalsh(desc.a)
    ratio = math.sqrt(eig[-1] / eig[0]) * reversibility(desc)
    radius = math.ceil(ratio * math.sqrt(grid.dim) / 2.0 + 0.5)
    k = np.arange(-radius, radius + 1)
    shifts = np.stack(np.meshgrid(*[k] * grid.dim, indexing="ij"), axis=-1)
    steps = wrapped[..., None, :] + n_ax * shifts.reshape(-1, grid.dim)
    dist = desc.norm(steps * grid.h).min(axis=-1)
    return dist if target is None else float(dist)


def differential_field(u: ScalarField) -> CovectorField:
    """Centered-difference differential du, a covector field."""
    return CovectorField(u.grid, _differential(u.grid, u.values))


def gradient_field(metric: MetricField, u: ScalarField) -> VectorField:
    """Metric gradient: the Legendre map of the centered differential, zero
    where it is degenerate."""
    return VectorField(u.grid, metric.descriptor.legendre(_differential(u.grid, u.values)))
