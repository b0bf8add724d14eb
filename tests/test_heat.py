"""Operator assembly, time stepping, trajectories, curvature commutation."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from finslerheat import (
    Asym1DNorm,
    CovectorField,
    DomainError,
    EuclideanNorm,
    IndexRange,
    LiYauProfile,
    MeasureField,
    MetricField,
    RandersNorm,
    RiemannianNorm,
    ScalarField,
    TorusGrid,
    UnsupportedFamily,
    alpha_phi,
    bochner_residual,
    check_exp_uu,
    check_log_sob_weak,
    gradient_estimate_check,
    gradient_field,
    heat_step,
    local_logsob_check,
    residual_linear,
    residual_psi,
    solve_heat_flow,
    weighted_laplacian,
)
from finslerheat import heat, numerics
from finslerheat.geometry import differential_field


def euclid_setup(nodes=64, dim=1):
    grid = TorusGrid(dim, nodes)
    metric = MetricField(grid, EuclideanNorm(dim))
    return grid, metric, MeasureField.lebesgue(grid)


def discrete_eigenvalue(mode: int, h: float) -> float:
    """Exact symbol of the 3-point second difference on a sine mode."""
    return -(2.0 - 2.0 * math.cos(2 * math.pi * mode * h)) / h**2


def shifted_sine(grid, amp=0.5, phase=0.3):
    x = grid.coordinates()[:, 0]
    return ScalarField(grid, 1.0 + amp * np.sin(2 * math.pi * x + phase))


# ---------------------------------------------------------------------------
# assembly structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "desc",
    [
        EuclideanNorm(2),
        RiemannianNorm(np.array([[4.0, 1.0], [1.0, 2.0]])),
        RandersNorm(np.eye(2), np.array([0.4, 0.1])),
    ],
    ids=lambda d: d.family,
)
def test_assembly_kernel_and_self_adjointness(desc):
    grid = TorusGrid(2, 16)
    metric = MetricField(grid, desc)
    measure = MeasureField.from_log_density(
        grid, lambda x, y: 0.2 * math.cos(2 * math.pi * x)
    )
    if desc.family == "randers":
        measure = MeasureField.lebesgue(grid)
    rng = np.random.default_rng(0)
    du = CovectorField(grid, rng.standard_normal((grid.n_nodes, 2)) + 0.2)
    asm = weighted_laplacian(metric, measure, du)
    ones = np.ones(grid.n_nodes)
    assert np.max(np.abs(asm.apply(ones))) <= 1e-12
    sig = measure.sigma
    for _ in range(5):
        f = rng.standard_normal(grid.n_nodes)
        g = rng.standard_normal(grid.n_nodes)
        lhs = float(np.sum(asm.apply(f) * g * sig))
        rhs = float(np.sum(f * asm.apply(g) * sig))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def coo_reference(metric, measure, du) -> sp.csr_matrix:
    """The edge matrix as a COO -> CSR conversion builds it: the face
    coefficient of each stencil direction d at (i, i + d) and (i + d, i)."""
    grid = metric.grid
    mask = metric.descriptor.degenerate_mask(du.values)
    ginv = metric.descriptor.dual_tensor(du.values, mask)
    rho = measure.density

    def face(values, d):
        return heat._face_average(grid, values, d)

    if grid.dim == 1:
        edges = {(1,): face(ginv[0], (1,)) * face(rho, (1,))}
    else:
        g11, g12, g22 = ginv
        edges = {
            (1, 0): face(rho, (1, 0)) * (face(g11, (1, 0)) - np.abs(face(g12, (1, 0)))),
            (0, 1): face(rho, (0, 1)) * (face(g22, (0, 1)) - np.abs(face(g12, (0, 1)))),
            (1, 1): face(rho, (1, 1)) * np.maximum(face(g12, (1, 1)), 0.0),
            (1, -1): face(rho, (1, -1)) * np.maximum(-face(g12, (1, -1)), 0.0),
        }
    node = np.arange(grid.n_nodes).reshape(grid.shape)
    rows, cols, data = [], [], []
    for d, coeff in edges.items():
        nbr = np.roll(node, [-o for o in d], axis=tuple(range(grid.dim))).ravel()
        w = coeff * grid.h ** (grid.dim - 2)
        rows += [node.ravel(), nbr]
        cols += [nbr, node.ravel()]
        data += [w, w]
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    ).tocsr()


@pytest.mark.parametrize("nodes", [8, 64])
@pytest.mark.parametrize(
    "desc",
    [
        Asym1DNorm(2.0, 1.0),
        RandersNorm(np.array([[1.3]]), np.array([0.4])),
        # strong anisotropy: negative axis weights
        RiemannianNorm(np.array([[0.5, 0.9], [0.9, 2.0]])),
        RandersNorm(np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([0.3, 0.1])),
    ],
    ids=lambda d: f"{d.family}-{d.dim}d",
)
def test_assembly_csr_arrays_equal_the_coo_conversion(desc, nodes):
    grid = TorusGrid(desc.dim, nodes)
    metric = MetricField(grid, desc)
    rng = np.random.default_rng(nodes)
    measure = MeasureField(grid, 0.3 * rng.standard_normal(grid.n_nodes))
    values = rng.standard_normal((grid.n_nodes, grid.dim))
    values[:3] = 0.0  # degenerate nodes take the Riemannian fallback
    du = CovectorField(grid, values)
    got = weighted_laplacian(metric, measure, du).weights
    want = coo_reference(metric, measure, du)
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes(), name
    if desc.family == "riemannian":
        assert np.any(got.data < 0.0)


def test_csr_pattern_is_shared_and_read_only():
    grid = TorusGrid(2, 16)
    metric = MetricField(grid, RandersNorm(np.eye(2), np.array([0.4, 0.1])))
    measure = MeasureField.lebesgue(grid)
    rng = np.random.default_rng(3)
    first, second = (
        weighted_laplacian(
            metric, measure, CovectorField(grid, rng.standard_normal((grid.n_nodes, 2)))
        ).weights
        for _ in range(2)
    )
    assert not np.shares_memory(first.data, second.data)
    for name in ("indices", "indptr"):
        arr = getattr(first, name)
        assert np.shares_memory(arr, getattr(second, name))
        with pytest.raises(ValueError):
            arr[0] = 1
    for arr in heat._csr_pattern(grid.shape, ((1, 0), (0, 1), (1, 1), (1, -1))):
        assert not arr.flags.writeable


def test_assembly_euclidean_is_three_point_stencil():
    grid, metric, measure = euclid_setup(32)
    du = CovectorField(grid, np.ones((grid.n_nodes, 1)))
    asm = weighted_laplacian(metric, measure, du)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid.n_nodes)
    stencil = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / grid.h**2
    np.testing.assert_allclose(asm.apply(u), stencil, atol=1e-9)


def test_assembly_diagonal_riemannian_eigenvalue():
    grid = TorusGrid(2, 16)
    metric = MetricField(grid, RiemannianNorm(np.diag([4.0, 1.0])))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u = np.sin(2 * math.pi * x)
    du = CovectorField(grid, np.ones((grid.n_nodes, 2)))
    asm = weighted_laplacian(metric, measure, du)
    # inverse tensor multiplies the x-stencil by exactly 1/4
    lam = 0.25 * discrete_eigenvalue(1, grid.h)
    np.testing.assert_allclose(asm.apply(u), lam * u, atol=1e-9)


def test_assembly_cross_terms_converge():
    a = np.array([[4.0, 1.0], [1.0, 2.0]])
    a_inv = np.linalg.inv(a)
    errs = []
    for nodes in (16, 32):
        grid = TorusGrid(2, nodes)
        metric = MetricField(grid, RiemannianNorm(a))
        measure = MeasureField.lebesgue(grid)
        pts = grid.coordinates()
        u = np.sin(2 * math.pi * pts[:, 0]) * np.sin(2 * math.pi * pts[:, 1])
        du = CovectorField(grid, np.ones((grid.n_nodes, 2)))
        asm = weighted_laplacian(metric, measure, du)
        # analytic constant-coefficient value with the full inverse tensor
        uxx = -((2 * math.pi) ** 2) * u
        uyy = uxx
        uxy = (2 * math.pi) ** 2 * np.cos(2 * math.pi * pts[:, 0]) * np.cos(
            2 * math.pi * pts[:, 1]
        )
        exact = a_inv[0, 0] * uxx + 2 * a_inv[0, 1] * uxy + a_inv[1, 1] * uyy
        errs.append(float(np.max(np.abs(asm.apply(u) - exact))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_assembly_weighted_drift_term():
    # A u = u'' - f' u' + O(h^2) for the weighted operator in one dimension
    grid, metric, _ = euclid_setup(128)
    x = grid.coordinates()[:, 0]
    measure = MeasureField(grid, 0.2 * np.cos(2 * math.pi * x))
    u = np.sin(2 * math.pi * x + 0.3)
    du = CovectorField(grid, np.ones((grid.n_nodes, 1)))
    asm = weighted_laplacian(metric, measure, du)
    upp = -((2 * math.pi) ** 2) * u
    up = 2 * math.pi * np.cos(2 * math.pi * x + 0.3)
    fp = -0.2 * 2 * math.pi * np.sin(2 * math.pi * x)
    exact = upp - fp * up
    gap = np.max(np.abs(asm.apply(u) - exact))
    assert gap <= 100 * grid.h**2 * (2 * math.pi) ** 2


def test_degenerate_nodes_get_the_inverse_riemannian_part():
    grid = TorusGrid(2, 12)
    desc = RandersNorm(np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([0.3, 0.1]))
    metric = MetricField(grid, desc)
    x, y = grid.coordinates().T
    xi = np.column_stack([1.5 + np.cos(2 * math.pi * x), np.sin(2 * math.pi * y)])
    zeros = [5, 40, 131]
    xi[zeros] = 0.0
    assert np.count_nonzero(np.all(xi == 0.0, axis=1)) == 3
    mask = desc.degenerate_mask(xi)
    assert np.array_equal(np.flatnonzero(mask), zeros)
    ginv = desc.dual_tensor(xi, mask)
    expected = desc.a_inv
    for g, (i, j) in zip(ginv, [(0, 0), (0, 1), (1, 1)]):
        np.testing.assert_allclose(g[mask], expected[i, j], rtol=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # r = 0 on the zero rows must not warn
        asm = weighted_laplacian(metric, MeasureField.lebesgue(grid), CovectorField(grid, xi))
    assert asm.degenerate_nodes == 3


def test_carre_du_champ_matches_quadratic_form():
    # Gamma(u) from the assembly against its defining combination
    grid, metric, measure = euclid_setup(32)
    rng = np.random.default_rng(2)
    du = CovectorField(grid, np.ones((grid.n_nodes, 1)))
    asm = weighted_laplacian(metric, measure, du)
    u = rng.standard_normal(grid.n_nodes)
    direct = 0.5 * (asm.apply(u * u) - 2.0 * u * asm.apply(u))
    np.testing.assert_allclose(asm.carre_du_champ(u), direct, atol=1e-8)
    assert np.min(asm.carre_du_champ(u)) >= -1e-12


# ---------------------------------------------------------------------------
# nonlinear operator
# ---------------------------------------------------------------------------


def nonlinear_laplacian(metric, measure, u):
    """The operator heat_step freezes: the assembly at du applied to u."""
    return weighted_laplacian(metric, measure, differential_field(u)).apply(u.values)


def test_nonlinear_laplacian_constant_field():
    grid, metric, measure = euclid_setup(32)
    u = ScalarField(grid, np.full(grid.n_nodes, 3.3))
    np.testing.assert_allclose(nonlinear_laplacian(metric, measure, u), 0.0)


def test_nonlinear_laplacian_asym1d_monotone_window():
    grid = TorusGrid(1, 256)
    metric = MetricField(grid, Asym1DNorm(2.0, 1.0))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u = ScalarField(grid, np.sin(2 * math.pi * x))
    out = nonlinear_laplacian(metric, measure, u)
    # where u is increasing the tensor is p_plus^2, so A u = u'' / 4
    rising = np.cos(2 * math.pi * x) > 0.2
    interior = rising & (np.roll(rising, 1)) & (np.roll(rising, -1))
    exact = -((2 * math.pi) ** 2) * np.sin(2 * math.pi * x) / 4.0
    gap = np.max(np.abs(out[interior] - exact[interior]))
    assert gap <= 100 * grid.h**2 * (2 * math.pi) ** 2


def test_nonlinear_laplacian_randers_translation_equivariance():
    grid = TorusGrid(2, 16)
    metric = MetricField(grid, RandersNorm(np.eye(2), np.array([0.4, 0.1])))
    measure = MeasureField.lebesgue(grid)
    rng = np.random.default_rng(3)
    pts = grid.coordinates()
    vals = np.sin(2 * math.pi * pts[:, 0]) + 0.7 * np.cos(2 * math.pi * pts[:, 1])
    out = nonlinear_laplacian(metric, measure, ScalarField(grid, vals))
    shifted = np.roll(vals.reshape(grid.shape), 1, axis=0).ravel()
    out_shifted = nonlinear_laplacian(metric, measure, ScalarField(grid, shifted))
    np.testing.assert_allclose(
        out_shifted, np.roll(out.reshape(grid.shape), 1, axis=0).ravel(), atol=1e-12
    )


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_heat_step_implicit_eigenfunction():
    grid, metric, measure = euclid_setup(64)
    x = grid.coordinates()[:, 0]
    u = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x))
    dt = 1e-3
    out, asm = heat_step(metric, measure, u, dt)
    lam = discrete_eigenvalue(1, grid.h)
    expected = 1.0 + 0.5 * np.sin(2 * math.pi * x) / (1.0 - dt * lam)
    np.testing.assert_allclose(out.values, expected, atol=1e-11)
    assert asm.dt == dt


@pytest.mark.parametrize("dt", [1e-3], ids=[heat.SCHEME])
def test_heat_step_keeps_constants(dt):
    grid, metric, measure = euclid_setup(32)
    u = ScalarField(grid, np.full(grid.n_nodes, 2.0))
    out, _ = heat_step(metric, measure, u, dt)
    np.testing.assert_allclose(out.values, 2.0, atol=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 20, 42])
@pytest.mark.parametrize("dt", [1e-3], ids=[heat.SCHEME])
def test_advance_block_columns_match_single_fields(dt, width):
    # 16^2 nodes with a 9-point Randers stencil; width 2 is the smallest
    # stack whose sparse product comes back F-ordered
    grid = TorusGrid(2, 16)
    metric = MetricField(
        grid, RandersNorm(np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([0.3, 0.1]))
    )
    measure = MeasureField.from_log_density(
        grid, lambda x, y: 0.2 * math.cos(2 * math.pi * x)
    )
    x, y = grid.coordinates().T
    u = 1.0 + 0.4 * np.sin(2 * math.pi * x + 0.3) + 0.2 * np.cos(2 * math.pi * y)
    du = differential_field(ScalarField(grid, u))
    asm = weighted_laplacian(metric, measure, du, dt=dt)
    block = np.random.default_rng(width).standard_normal((grid.n_nodes, width))
    out = asm.advance(block)
    assert out.shape == block.shape
    for j in range(width):
        assert np.array_equal(out[:, j], asm.advance(block[:, j]))


@pytest.mark.parametrize(
    "desc",
    [
        RandersNorm(np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([0.3, 0.1])),
        RiemannianNorm(np.array([[0.5, 0.9], [0.9, 2.0]])),
    ],
    ids=lambda d: d.family,
)
def test_step_preconditioner_is_symmetric_positive_in_measure(desc):
    grid = TorusGrid(2, 12)
    metric = MetricField(grid, desc)
    measure = MeasureField.from_log_density(
        grid, lambda x, y: 0.3 * math.cos(2 * math.pi * x) + 0.1 * math.sin(2 * math.pi * y)
    )
    x, y = grid.coordinates().T
    u = ScalarField(grid, np.sin(2 * math.pi * x) + 0.5 * np.cos(2 * math.pi * (x - y)))
    asm = weighted_laplacian(metric, measure, differential_field(u), dt=1e-3)
    if desc.family == "riemannian":
        # strong anisotropy: the y-axis edges carry negative weights
        assert min(w for _, w in asm.stencil) < 0.0
    # column i of the matrix is M^-1 applied to the unit field at node i
    mat = asm._preconditioner()(np.eye(grid.n_nodes)).T
    gram = measure.sigma[:, None] * mat
    np.testing.assert_allclose(gram, gram.T, rtol=0, atol=1e-12 * np.max(np.abs(gram)))
    assert np.min(np.linalg.eigvalsh(0.5 * (gram + gram.T))) > 0.0


def randers_2d_check_setup():
    """Metric, Lebesgue measure and initial field of the 64^2 Randers check
    setup."""
    grid = TorusGrid(2, 64)
    metric = MetricField(
        grid, RandersNorm(np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([0.3, 0.1]))
    )
    x, y = grid.coordinates().T
    u = 1.0 + 0.4 * np.sin(2 * math.pi * x + 0.3) + 0.2 * np.cos(2 * math.pi * (x + y))
    return metric, MeasureField.lebesgue(grid), ScalarField(grid, u)


def randers_2d_step_assembly():
    """Implicit step (dt 5e-4) of the 64^2 Randers check setup."""
    metric, measure, u = randers_2d_check_setup()
    return weighted_laplacian(metric, measure, differential_field(u), dt=5e-4)


def test_step_keeps_spike_fields_above_their_floor():
    # the paper's linearised semigroup is Markov; with non-negative edge
    # weights the implicit Euler step is the inverse of an M-matrix, so a
    # field >= c stays >= c. One Crank-Nicolson step (dt/2 on each side) of
    # the first assembly took these fields down to -0.68.
    traj = solve_heat_flow(*randers_2d_check_setup(), t_final=1e-2, dt=5e-4)
    assert all(np.min(a.weights.data) >= 0.0 for a in traj.assemblies)
    z = np.random.default_rng(0).standard_normal((traj.grid.n_nodes, 5))
    spikes = 1e-3 + (z > 2.5)
    floor = 1e-3 - 1e-12  # the step solve is exact to CG tolerance
    assert np.min(traj.assemblies[0].advance(spikes)) >= floor
    assert np.min(traj.transport(spikes, 0, traj.n_times - 1)) >= floor


def count_operator_applications(monkeypatch) -> list:
    """Route heat's step solve through a counter of operator calls."""
    calls = []

    def counting(apply_op, rhs, sigma, *args, **kwargs):
        def op(x):
            calls.append(1)
            return apply_op(x)

        return numerics.cg_measure(op, rhs, sigma, *args, **kwargs)

    monkeypatch.setattr(heat, "cg_measure", counting)
    return calls


def test_step_solve_is_preconditioned(monkeypatch):
    # one implicit step of a random field on the 64^2 Randers check setup;
    # unpreconditioned CG takes about 80 operator applications here
    asm = randers_2d_step_assembly()
    calls = count_operator_applications(monkeypatch)
    g = np.random.default_rng(0).standard_normal(asm.sigma.size)
    out = asm.advance(g)
    assert len(calls) <= 30
    residual = g - out + asm.dt * asm.apply(out)
    sig = asm.sigma
    assert np.sum(residual**2 * sig) <= 1e-24 * np.sum(g**2 * sig)


def test_step_solve_sweeps_a_block_in_one_lockstep(monkeypatch):
    # five fields alone take about 5 x 20 operator applications; one
    # lockstep sweep serves the whole block with each call
    asm = randers_2d_step_assembly()
    calls = count_operator_applications(monkeypatch)
    block = np.random.default_rng(5).standard_normal((asm.sigma.size, 5))
    out = asm.advance(block)
    assert len(calls) <= 30
    residual = block - out + asm.dt * asm.apply(out)
    sig = asm.sigma[:, None]
    assert np.all(np.sum(residual**2 * sig, 0) <= 1e-24 * np.sum(block**2 * sig, 0))
    stack = np.ascontiguousarray(block.T)
    assert asm._w(stack).flags.c_contiguous


@pytest.mark.parametrize("width", [1, 3, 15])
@pytest.mark.parametrize("nodes", [64, 12])
def test_step_preconditioner_acts_on_each_row_alone(nodes, width):
    # cg_measure applies the preconditioner to the stack of unconverged
    # rows, so the column-bitwise contract of advance needs a stack's rows
    # to equal the rows applied one at a time, bit for bit
    if nodes == 64:
        asm = randers_2d_step_assembly()
    else:
        grid = TorusGrid(2, nodes)
        desc = RandersNorm(np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([0.3, 0.1]))
        du = differential_field(shifted_sine(grid))
        asm = weighted_laplacian(MetricField(grid, desc), MeasureField.lebesgue(grid), du, dt=1e-3)
    precond = asm._preconditioner()
    stack = np.random.default_rng(width).standard_normal((width, asm.sigma.size))
    out = precond(stack)
    assert out.shape == stack.shape
    for j in range(width):
        assert out[j].tobytes() == precond(stack[j : j + 1])[0].tobytes()


def test_fft_preconditioner_is_built_at_first_application(monkeypatch):
    # a constant field is a fixed point of the step: CG accepts its start at
    # the first residual check and applies no preconditioner, so none is built
    asm = randers_2d_step_assembly()

    def unreachable(*args):
        raise AssertionError("preconditioner built")

    monkeypatch.setattr(heat, "_stencil_symbols", unreachable)
    ones = np.ones(asm.sigma.size)
    assert asm.advance(ones).tobytes() == ones.tobytes()


def randers_1d_assembly(nodes, dt, weighted=True, norm=None):
    """1-d Randers (b = 0.3) step at the criterion-7 initial field, with the
    weight f = 0.2 cos 2 pi x or the Lebesgue measure; ``norm`` replaces the
    metric."""
    grid = TorusGrid(1, nodes)
    metric = MetricField(grid, norm or RandersNorm(np.eye(1), np.array([0.3])))
    x = grid.coordinates()[:, 0]
    measure = (
        MeasureField(grid, 0.2 * np.cos(2 * math.pi * x))
        if weighted
        else MeasureField.lebesgue(grid)
    )
    u = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x + 0.3))
    return weighted_laplacian(metric, measure, differential_field(u), dt=dt)


@pytest.mark.parametrize("width", [1, 3, 200])
@pytest.mark.parametrize("dt", [1e-3], ids=[heat.SCHEME])
@pytest.mark.parametrize("family", ["randers", "weighted_euclidean"])
def test_advance_block_columns_match_single_fields_1d(family, dt, width):
    # the 1-d step is preconditioned by its tridiagonal LDL^T factor; widths
    # 1, 3 and 200 reach LAPACK's solve with one, a few and many columns
    if family == "randers":
        asm = randers_1d_assembly(32, dt, weighted=False)
    else:
        grid, metric, _ = euclid_setup(32)
        x = grid.coordinates()[:, 0]
        measure = MeasureField(grid, 0.2 * np.cos(2 * math.pi * x))
        du = differential_field(shifted_sine(grid))
        asm = weighted_laplacian(metric, measure, du, dt=dt)
    block = np.random.default_rng(width).standard_normal((32, width))
    out = asm.advance(block)
    assert out.shape == block.shape
    for j in range(width):
        assert np.array_equal(out[:, j], asm.advance(block[:, j]))


@pytest.mark.parametrize("norm", [None, Asym1DNorm(2.0, 1.0)], ids=["randers", "asym1d"])
@pytest.mark.parametrize("nodes", [8, 9, 128, 512])
def test_step_preconditioner_is_the_exact_step_inverse_in_1d(nodes, norm):
    # n = 8 is the smallest grid, where the periodic corners weigh most; the
    # measure is weighted
    dt = 5e-4
    asm = randers_1d_assembly(nodes, dt, norm=norm)
    eye = np.eye(nodes)
    step = eye - dt * asm.apply(eye)  # column i: I + dt Sigma^-1 L on node i
    precond = asm._preconditioner()
    np.testing.assert_allclose(precond(step.T), eye, rtol=0, atol=1e-12)
    mat = precond(eye).T
    gram = asm.sigma[:, None] * mat
    np.testing.assert_allclose(gram, gram.T, rtol=0, atol=1e-12 * np.max(np.abs(gram)))
    assert np.min(np.linalg.eigvalsh(0.5 * (gram + gram.T))) > 0.0


@pytest.mark.parametrize("weight", [math.nan, -1e6], ids=["nan", "indefinite"])
def test_1d_step_without_a_factor_raises_domain_error(weight):
    # a NaN weight passes dpttrf, which tests only d_i <= 0, and a large
    # negative one makes the step indefinite (info > 0): both once ended in
    # a traceback from cholesky_banded, and neither factor may be used
    asm = randers_1d_assembly(16, 1e-3)
    weights = asm.weights.tolil()
    weights[3, 4] = weights[4, 3] = weight
    weights = weights.tocsr()
    bad = heat.DiffusionAssembly(
        **{**vars(asm), "weights": weights, "degree": weights @ np.ones(16)}
    )
    with pytest.raises(DomainError, match="the step at t = 0 with dt = 0.001 has no finite"):
        bad.advance(np.ones(16))


def test_1d_step_solve_takes_one_operator_application(monkeypatch):
    # one implicit step on the criterion-7 setup (1-d Randers, n = 128,
    # dt = 5e-4) starts CG at the exact LDL^T solve, so the only operator
    # application is the residual that verifies it; the FFT model took
    # about 22 here
    asm = randers_1d_assembly(128, 5e-4, weighted=False)
    sig = asm.sigma
    rng = np.random.default_rng(0)
    calls = count_operator_applications(monkeypatch)
    for g in (rng.standard_normal(128), rng.standard_normal((128, 20))):
        calls.clear()
        out = asm.advance(g)
        assert len(calls) == 1
        residual = g - out + asm.dt * asm.apply(out)
        assert np.all(
            np.sum(residual.T**2 * sig, axis=-1) <= 1e-24 * np.sum(g.T**2 * sig, axis=-1)
        )


def test_heat_step_conserves_mass():
    grid, metric, _ = euclid_setup(64)
    measure = MeasureField.from_log_density(grid, lambda x: 0.3 * math.cos(2 * math.pi * x))
    u = shifted_sine(grid)
    out, _ = heat_step(metric, measure, u, 1e-3)
    mass = lambda f: np.sum(f.values * measure.sigma)
    assert mass(out) == pytest.approx(mass(u), abs=1e-10)


def test_heat_step_rejects_nonpositive_dt():
    grid, metric, measure = euclid_setup(32)
    u = shifted_sine(grid)
    with pytest.raises(ValueError):
        heat_step(metric, measure, u, -1e-3)


# ---------------------------------------------------------------------------
# full flows
# ---------------------------------------------------------------------------


def test_flow_constant_initial_stays_constant():
    grid, metric, measure = euclid_setup(32)
    u0 = ScalarField(grid, np.ones(grid.n_nodes))
    traj = solve_heat_flow(metric, measure, u0, t_final=0.02, dt=1e-3)
    for k in range(traj.n_times):
        np.testing.assert_allclose(traj.fields[k], 1.0, atol=1e-12)
    assert not traj.violations


def test_flow_matches_exact_series_with_refinement():
    errs = []
    for nodes in (32, 64):
        grid, metric, measure = euclid_setup(nodes)
        x = grid.coordinates()[:, 0]
        u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x))
        dt = 0.1 * grid.h**2
        t_final = 0.02
        traj = solve_heat_flow(metric, measure, u0, t_final, dt)
        exact = 1.0 + 0.5 * math.exp(-((2 * math.pi) ** 2) * t_final) * np.sin(
            2 * math.pi * x
        )
        errs.append(float(np.max(np.abs(traj.fields[-1] - exact))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_flow_mass_and_l2_decay():
    grid, metric, _ = euclid_setup(64)
    measure = MeasureField.from_log_density(grid, lambda x: 0.2 * math.cos(2 * math.pi * x))
    u0 = shifted_sine(grid)
    traj = solve_heat_flow(metric, measure, u0, t_final=0.05, dt=5e-4)
    m0 = np.sum(u0.values * measure.sigma)
    l2 = []
    for k in range(traj.n_times):
        assert np.sum(traj.fields[k] * measure.sigma) == pytest.approx(m0, rel=1e-9)
        l2.append(float(np.sum(traj.fields[k] ** 2 * measure.sigma)))
    assert np.all(np.diff(l2) <= 1e-12)


def test_flow_comparison_principle():
    grid, metric, measure = euclid_setup(64)
    rng = np.random.default_rng(4)
    x = grid.coordinates()[:, 0]
    base = 1.0 + 0.3 * np.sin(2 * math.pi * x) + 0.1 * np.cos(4 * math.pi * x)
    above = base + 0.05 * (1.0 + np.sin(6 * math.pi * x + rng.uniform()))
    tu = solve_heat_flow(metric, measure, ScalarField(grid, base), 0.03, 5e-4)
    tv = solve_heat_flow(metric, measure, ScalarField(grid, above), 0.03, 5e-4)
    for k in range(tu.n_times):
        assert np.all(tu.fields[k] <= tv.fields[k] + 1e-9)


def test_flow_range_monitor_records_no_false_positives():
    grid, metric, measure = euclid_setup(64)
    traj = solve_heat_flow(metric, measure, shifted_sine(grid), 0.05, 5e-4)
    assert traj.violations == []


def test_trajectory_index_lookup():
    grid, metric, measure = euclid_setup(32)
    traj = solve_heat_flow(metric, measure, shifted_sine(grid), 0.01, 1e-3)
    assert traj.index_of(0.0) == 0
    assert traj.index_of(0.004) == 4
    assert traj.index_of(0.0042) == 4  # within the half-step window
    with pytest.raises(IndexRange):
        traj.index_of(0.0045)  # dead zone between two recorded times
    with pytest.raises(IndexRange):
        traj.index_of(1.0)


def test_trajectory_export_roundtrip(tmp_path):
    grid, metric, measure = euclid_setup(32)
    traj = solve_heat_flow(metric, measure, shifted_sine(grid), 0.01, 1e-3)
    traj.export(str(tmp_path))
    meta = json.loads((tmp_path / "trajectory.json").read_text())
    assert meta["scheme"] == "implicit_euler"
    assert meta["times"] == [0.0, pytest.approx(0.01)]
    first = (tmp_path / "field_0.000000.csv").read_text().strip().splitlines()
    assert len(first) == grid.n_nodes + 1  # header plus one row per node


def test_trajectory_json_is_strict(tmp_path):
    # trajectory.json once bypassed the strict writer: a NaN monitor
    # magnitude came out as a bare NaN token
    grid, metric, measure = euclid_setup(32)
    traj = solve_heat_flow(metric, measure, shifted_sine(grid), 2e-3, 1e-3)
    traj.violations.append({"time": 2e-3, "kind": "range", "magnitude": math.nan})
    traj.export(str(tmp_path))

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    meta = json.loads((tmp_path / "trajectory.json").read_text(), parse_constant=reject)
    assert meta["violations"][-1]["magnitude"] == "nan"


A_2D = [[1.0, 0.2], [0.2, 0.8]]
#: each family with its reverse metric F_rev(v) = F(-v): b -> -b for Randers,
#: the slopes swapped for asym1d; a symmetric metric is its own reverse
REVERSIBLE_PAIRS = {
    "euclidean-1d": (EuclideanNorm(1), EuclideanNorm(1)),
    "riemannian-2d": (RiemannianNorm(A_2D), RiemannianNorm(A_2D)),
    "randers-1d": (RandersNorm(np.eye(1), [0.3]), RandersNorm(np.eye(1), [-0.3])),
    "randers-2d": (RandersNorm(A_2D, [0.3, 0.1]), RandersNorm(A_2D, [-0.3, -0.1])),
    "asym1d": (Asym1DNorm(2.0, 1.0), Asym1DNorm(1.0, 2.0)),
}


def symmetry_data(dim):
    """Grid, u0 and log-density f of the flow-symmetry tests: 32 nodes or
    16^2, f = 0.3 cos(2 pi x_last)."""
    grid = TorusGrid(dim, 32 if dim == 1 else 16)
    x = grid.coordinates()
    u0 = 1.0 + 0.4 * np.sin(2 * math.pi * (x[:, 0] + 0.3)) + 0.2 * np.cos(2 * math.pi * x.sum(1))
    return grid, u0, 0.3 * np.cos(2 * math.pi * x[:, -1])


def symmetry_flow(grid, desc, u0, f):
    """Every recorded field of 10 steps of dt 5e-4 under ``desc``."""
    metric = MetricField(grid, desc)
    run = solve_heat_flow(metric, MeasureField(grid, f), ScalarField(grid, u0), 5e-3, 5e-4)
    assert run.n_times == 11
    return run.fields


@pytest.mark.parametrize("norm, reverse", REVERSIBLE_PAIRS.values(), ids=REVERSIBLE_PAIRS.keys())
def test_flow_is_exactly_homogeneous_and_odd_under_the_reverse_metric(norm, reverse):
    # g*(du) is 0-homogeneous and g*_rev(-du) = g*(du), so the flow of 2 u0
    # is twice the flow of u0, and the flow of -u0 under the reverse metric
    # is minus it: every step is linear in u for frozen coefficients, and
    # scaling by 2 or -1 is exact in floating point
    grid, u0, f = symmetry_data(norm.dim)
    base = symmetry_flow(grid, norm, u0, f)
    for doubled, u in zip(symmetry_flow(grid, norm, 2.0 * u0, f), base):
        assert doubled.tobytes() == (2.0 * u).tobytes()
    for negated, u in zip(symmetry_flow(grid, reverse, -u0, f), base):
        assert negated.tobytes() == (-u).tobytes()
    if norm.b.any():
        # negative control: under the same asymmetric metric -u0 flows elsewhere
        flipped = symmetry_flow(grid, norm, -u0, f)
        gap = max(float(np.max(np.abs(v + u))) for v, u in zip(flipped, base))
        assert gap > 1e-2


@pytest.mark.parametrize(
    "norm", [norm for norm, _ in REVERSIBLE_PAIRS.values()], ids=REVERSIBLE_PAIRS.keys()
)
def test_flow_commutes_with_tripling_and_translation_at_round_off(norm):
    # the flow of 3 u0 is three times the flow of u0, and translating u0 and
    # f by 5 nodes along every axis translates the flow. Neither map is exact
    # in floating point (3 u rounds; a translation moves the periodic
    # corners of the 1-d factor and reorders sums), so each row is held to
    # 64 eps of the field scale at every recorded field
    grid, u0, f = symmetry_data(norm.dim)
    axes = tuple(range(grid.dim))

    def shift(values):
        return np.roll(values.reshape(grid.shape), 5, axis=axes).ravel()

    base = symmetry_flow(grid, norm, u0, f)
    rows = {
        "x3": (symmetry_flow(grid, norm, 3.0 * u0, f), [3.0 * u for u in base]),
        "translate": (symmetry_flow(grid, norm, shift(u0), shift(f)), [shift(u) for u in base]),
    }
    for name, (fields, expected) in rows.items():
        gap = max(float(np.max(np.abs(v - u))) for v, u in zip(fields, expected))
        scale = max(float(np.max(np.abs(u))) for u in expected)
        assert gap <= 64 * np.finfo(float).eps * scale, (name, gap / scale)


@pytest.mark.parametrize("dim", [1, 2])
def test_export_writes_the_csv_writer_bytes(tmp_path, dim):
    grid = TorusGrid(dim, 8)
    metric = MetricField(grid, EuclideanNorm(dim))
    u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * grid.coordinates()[:, 0]))
    traj = solve_heat_flow(metric, MeasureField.lebesgue(grid), u0, 2e-3, 1e-3)
    rng = np.random.default_rng(5)
    last = rng.standard_normal(grid.n_nodes) * 10.0 ** rng.integers(-320, 300, grid.n_nodes)
    last[:8] = [0.0, -0.0, np.nan, np.inf, 1e16, 1e-5, 5e-324, 0.1]
    traj.fields[-1] = last
    traj.export(str(tmp_path))
    coords = grid.coordinates()
    for k in (0, traj.n_times - 1):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["node"] + [f"x{i}" for i in range(dim)] + ["u"])
        for i in range(grid.n_nodes):
            writer.writerow([i, *coords[i], traj.fields[k][i]])
        path = tmp_path / f"field_{traj.times[k]:.6f}.csv"
        assert path.read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("last", [False, True])
def test_log_state_is_the_assembly_read_of_u(last):
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, RandersNorm(np.eye(1), np.array([0.3])))
    measure = MeasureField.from_log_density(grid, lambda x: 0.2 * math.cos(2 * math.pi * x))
    traj = solve_heat_flow(metric, measure, shifted_sine(grid), 0.01, 1e-3)
    k = traj.n_times - 1 if last else 0
    u, lap, f2 = traj.log_state(k)
    assembly = traj.assembly_at(k)
    assert u is traj.fields[k]
    assert lap.tobytes() == assembly.apply(u).tobytes()
    assert f2.tobytes() == assembly.carre_du_champ(np.log(u)).tobytes()


@pytest.fixture(scope="module")
def sign_changing_traj():
    # u0 = 0.5 sin(2 pi x) is negative on half the nodes at every recorded time
    grid, metric, measure = euclid_setup(32)
    u0 = ScalarField(grid, 0.5 * np.sin(2 * math.pi * grid.coordinates()[:, 0]))
    return solve_heat_flow(metric, measure, u0, 0.01, 1e-3)


def ones(traj):
    return ScalarField(traj.grid, np.ones(traj.grid.n_nodes))


LOG_CHECKS = {
    "residual_linear": lambda traj: residual_linear(
        traj, 0.01, alpha_phi(LiYauProfile.quadratic(), 0.0, 2.0, 0.01)
    ),
    "residual_psi": lambda traj: residual_psi(traj, 0.01, 2.0, -0.5),
    "check_exp_uu": lambda traj: check_exp_uu(traj, 0.004, 0.01, ones(traj), 2.0),
    "check_log_sob_weak": lambda traj: check_log_sob_weak(traj, 0.01, ones(traj), -0.5, 2.0),
    "gradient_estimate_check": lambda traj: gradient_estimate_check(traj, 0.0),
    "local_logsob_check": lambda traj: local_logsob_check(traj, 0.0),
}


@pytest.mark.parametrize("check", LOG_CHECKS)
def test_log_based_checks_share_the_one_positivity_guard(sign_changing_traj, check):
    with pytest.raises(DomainError, match="^solution must stay strictly positive$"):
        LOG_CHECKS[check](sign_changing_traj)


def test_time_derivative_commutes_with_gradient_energy():
    # centered time difference of F^2(grad u) against twice the
    # differential of Au paired with the gradient; measured constant is
    # about 9, asserted at 20
    grid, metric, measure = euclid_setup(64)
    u0 = ScalarField(grid, shifted_sine(grid).values)
    dt = 2e-4
    traj = solve_heat_flow(metric, measure, u0, 0.02, dt)
    k = traj.n_times // 2
    # F^2(grad u) = F*^2(du) by the Legendre identities
    em, ep = (
        metric.descriptor.dual_norm(differential_field(traj.field_at(j)).values) ** 2
        for j in (k - 1, k + 1)
    )
    lhs = (ep - em) / (2 * dt)
    au = traj.delta_u(k)
    grad = gradient_field(metric, traj.field_at(k)).values
    dau = differential_field(ScalarField(grid, au)).values
    rhs = 2.0 * np.einsum("ni,ni->n", dau, grad)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) <= 20.0 * scale * (dt + grid.h**2)


# ---------------------------------------------------------------------------
# curvature commutation residual
# ---------------------------------------------------------------------------


def test_bochner_residual_second_order():
    vals = []
    for nodes in (32, 64, 128):
        grid, metric, measure = euclid_setup(nodes)
        x = grid.coordinates()[:, 0]
        u = ScalarField(grid, np.sin(2 * math.pi * x + 0.3))
        out = bochner_residual(metric, measure, u)
        vals.append(float(np.max(np.abs(out.residual.values))))
    assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.15)
    assert vals[1] / vals[2] == pytest.approx(4.0, rel=0.15)


def test_bochner_equality_case_one_dimension():
    # with N = n = 1 and constant weight the slack is the residual itself
    grid, metric, measure = euclid_setup(64)
    x = grid.coordinates()[:, 0]
    u = ScalarField(grid, np.sin(2 * math.pi * x + 0.3))
    out = bochner_residual(metric, measure, u, N=1.0)
    scale = (2 * math.pi) ** 4
    assert np.max(np.abs(out.n_form_slack.values)) <= 50 * grid.h**2 * scale


def test_bochner_slack_nonnegative_for_finite_n():
    grid, metric, measure = euclid_setup(64)
    x = grid.coordinates()[:, 0]
    u = ScalarField(grid, np.sin(2 * math.pi * x + 0.3))
    for N in (2.0, 8.0, math.inf):
        out = bochner_residual(metric, measure, u, N=N)
        assert np.min(out.n_form_slack.values) >= -50 * grid.h**2 * (2 * math.pi) ** 4


def test_bochner_rejects_degenerate_and_wrong_family():
    grid, metric, measure = euclid_setup(32)
    x = grid.coordinates()[:, 0]
    # the gradient vanishes exactly at the quarter-period nodes; a quadratic
    # metric needs no guard there and the residual stays O(h^2)
    for nodes in (32, 64, 128):
        fine, fmetric, fmeasure = euclid_setup(nodes)
        wave = np.sin(2 * math.pi * fine.coordinates()[:, 0])
        out = bochner_residual(fmetric, fmeasure, ScalarField(fine, wave))
        assert np.all(np.isfinite(out.n_form_slack.values))
        assert np.max(np.abs(out.residual.values)) <= 0.6 * fine.h**2 * (2 * math.pi) ** 6
    rmetric = MetricField(grid, Asym1DNorm(2.0, 1.0))
    with pytest.raises(UnsupportedFamily):
        bochner_residual(
            rmetric, measure, ScalarField(grid, np.sin(2 * math.pi * x + 0.3))
        )
    weighted = MeasureField.from_log_density(grid, lambda t: 0.2 * math.cos(2 * math.pi * t))
    with pytest.raises(DomainError):
        bochner_residual(
            metric, weighted, ScalarField(grid, np.sin(2 * math.pi * x + 0.3)), N=1.0
        )
