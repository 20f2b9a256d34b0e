import numpy as np
import pytest

from svilab.errors import ConfigError
from svilab.grid import (
    DIRICHLET,
    NEUMANN,
    apply_gradient,
    apply_laplacian,
    boundary_inner,
    build_grid,
    inner,
    norm_l2,
    normal_derivative,
    seminorm_h1,
    stiffness_inner,
)
from svilab.pathsolver import ImplicitSolver

from matrices import implicit_matrix, laplacian_matrix


def test_build_grid_1d_spacing():
    g = build_grid(1, [1.0], 3, DIRICHLET)
    assert g.h[0] == pytest.approx(0.25)
    assert np.allclose(g.coords[0], [0.25, 0.5, 0.75])


def test_build_grid_2d_spacing():
    g = build_grid(2, [1.0, 2.0], 4, DIRICHLET)
    assert g.n_nodes == 16
    assert np.allclose(g.h, [0.2, 0.4])


def test_build_grid_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_grid(1, [1.0], 2, DIRICHLET)
    with pytest.raises(ConfigError):
        build_grid(3, [1.0, 1.0, 1.0], 8, DIRICHLET)
    with pytest.raises(ConfigError):
        build_grid(1, [-1.0], 8, DIRICHLET)
    # all violations are reported, not just the first
    try:
        build_grid(3, [-1.0], 2, "robin")
    except ConfigError as e:
        assert len(e.messages) >= 3


def test_build_grid_neumann_includes_boundary():
    g = build_grid(1, [1.0], 5, NEUMANN)
    assert g.h[0] == pytest.approx(0.25)
    assert np.allclose(g.coords[0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.boundary_mask.sum() == 2


def test_laplacian_zero_and_affine():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    assert np.all(apply_laplacian(g, g.zeros()) == 0.0)
    x = g.meshes()[0]
    u = 2.0 + 3.0 * x
    lap = apply_laplacian(g, u)
    # affine in the strict interior; boundary-adjacent rows see the 0 ghost
    assert np.allclose(lap[1:-1], 0.0, atol=1e-11)


def test_laplacian_sine_oracle():
    # oracle: d2/dx2 sin(pi x) = -pi^2 sin(pi x)
    g = build_grid(1, [1.0], 255, DIRICHLET)
    x = g.meshes()[0]
    u = np.sin(np.pi * x)
    lap = apply_laplacian(g, u)
    exact = -np.pi**2 * u
    assert np.max(np.abs(lap - exact) / np.abs(exact)) <= 1e-3


def test_gradient_affine_and_sine():
    g = build_grid(1, [1.0], 255, DIRICHLET)
    x = g.meshes()[0]
    assert np.allclose(apply_gradient(g, 3.0 * x)[0], 3.0, atol=1e-10)
    assert np.allclose(apply_gradient(g, np.full(g.n_nodes, 7.0))[0], 0.0, atol=1e-10)
    u = np.sin(np.pi * x)
    grad = apply_gradient(g, u)[0]
    exact = np.pi * np.cos(np.pi * x)
    # relative to the sup of the exact derivative (cos vanishes mid-domain)
    assert np.max(np.abs(grad - exact)) / np.max(np.abs(exact)) <= 1e-3


def test_gradient_2d_separable():
    g = build_grid(2, [1.0, 1.0], 41, DIRICHLET)
    X, Y = g.meshes()
    u = np.sin(np.pi * X) * np.cos(np.pi * Y)
    gx, gy = apply_gradient(g, u)
    ex = np.pi * np.cos(np.pi * X) * np.cos(np.pi * Y)
    ey = -np.pi * np.sin(np.pi * X) * np.sin(np.pi * Y)
    assert np.max(np.abs(gx - ex)) / np.max(np.abs(ex)) <= 5e-3
    assert np.max(np.abs(gy - ey)) / np.max(np.abs(ey)) <= 5e-3


def test_norms_constant_and_sine():
    g = build_grid(1, [1.0], 255, DIRICHLET)
    ones = np.ones(g.n_nodes)
    expect = np.sqrt(g.n * g.h[0])
    assert norm_l2(g, ones) == pytest.approx(expect)
    assert abs(norm_l2(g, ones) - 1.0) <= g.h[0]
    x = g.meshes()[0]
    u = np.sin(np.pi * x)
    # oracle: integral of sin^2 over (0,1) is 1/2
    assert norm_l2(g, u) ** 2 == pytest.approx(0.5, abs=1e-3)
    assert norm_l2(g, g.zeros()) == 0.0
    assert seminorm_h1(g, g.zeros()) == 0.0


def test_inner_symmetric_bilinear():
    g = build_grid(1, [2.0], 17, DIRICHLET)
    rng = np.random.default_rng(0)
    u, v, w = rng.normal(size=(3, g.n_nodes))
    assert inner(g, u, v) == pytest.approx(inner(g, v, u))
    assert inner(g, u + 2.0 * w, v) == pytest.approx(inner(g, u, v) + 2.0 * inner(g, w, v))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_symmetric_negative(bc, dim):
    g = build_grid(dim, [1.0] * dim, 9, bc)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u, v = rng.normal(size=(2, g.n_nodes))
        lu = apply_laplacian(g, u)
        lv = apply_laplacian(g, v)
        assert inner(g, lu, v) == pytest.approx(inner(g, u, lv), abs=1e-10)
        assert inner(g, lu, u) <= 1e-12
        # seminorm is the quadratic form of the (negated) weighted Laplacian
        assert seminorm_h1(g, u) ** 2 == pytest.approx(-inner(g, lu, u), rel=1e-12)


def test_quadratic_convergence_order():
    errs = []
    hs = []
    for n in (31, 63, 127, 255):
        g = build_grid(1, [1.0], n, DIRICHLET)
        x = g.meshes()[0]
        u = np.sin(np.pi * x)
        lap_err = np.max(np.abs(apply_laplacian(g, u) + np.pi**2 * u))
        grad_err = np.max(np.abs(apply_gradient(g, u)[0] - np.pi * np.cos(np.pi * x)))
        errs.append(max(lap_err, grad_err))
        hs.append(g.h[0])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_quadrature_positivity():
    g = build_grid(1, [1.0], 15, DIRICHLET)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.normal(size=g.n_nodes)
        assert (norm_l2(g, u) == 0.0) == bool(np.all(u == 0.0))


def test_boundary_norm():
    g = build_grid(1, [1.0], 9, NEUMANN)
    u = g.meshes()[0]  # values 0 at left, 1 at right
    assert boundary_inner(g, u, u) == pytest.approx(1.0)
    gd = build_grid(1, [1.0], 9, DIRICHLET)
    assert boundary_inner(gd, np.ones(gd.n_nodes), np.ones(gd.n_nodes)) == 0.0
    # 2D: constant 1 trace integrates to the perimeter
    g2 = build_grid(2, [1.0, 2.0], 17, NEUMANN)
    ones = np.ones(g2.n_nodes)
    assert boundary_inner(g2, ones, ones) == pytest.approx(6.0)


def test_size_mismatch_raises():
    g = build_grid(1, [1.0], 9, DIRICHLET)
    bad = np.zeros(5)
    for fn in (
        lambda: apply_laplacian(g, bad),
        lambda: apply_gradient(g, bad),
        lambda: norm_l2(g, bad),
        lambda: boundary_inner(g, bad, bad),
        lambda: inner(g, bad, bad),
    ):
        with pytest.raises(ValueError):
            fn()


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_operators_equal_per_row_calls(bc, dim):
    g = build_grid(dim, [1.0, 1.5][:dim], 9, bc)
    rng = np.random.default_rng(7)
    U = rng.normal(size=(2, 5, g.n_nodes))
    V = rng.normal(size=(2, 5, g.n_nodes))
    for got, one in (
        (inner(g, U, V), lambda u, v: inner(g, u, v)),
        (stiffness_inner(g, U, V), lambda u, v: stiffness_inner(g, u, v)),
        (stiffness_inner(g, U, U), lambda u, v: stiffness_inner(g, u, u)),
        (norm_l2(g, U), lambda u, v: norm_l2(g, u)),
        (seminorm_h1(g, U), lambda u, v: seminorm_h1(g, u)),
        (apply_laplacian(g, U), lambda u, v: apply_laplacian(g, u)),
        (boundary_inner(g, U, V), lambda u, v: boundary_inner(g, u, v)),
        (normal_derivative(g, U), lambda u, v: normal_derivative(g, u)),
    ):
        assert got.shape == U.shape[: got.ndim]
        assert np.array_equal(got, [[one(u, v) for u, v in zip(us, vs)]
                                    for us, vs in zip(U, V)])
    grads = apply_gradient(g, U)  # one component per axis, each shaped like U
    assert len(grads) == dim
    for axis, comp in enumerate(grads):
        assert np.array_equal(comp, [[apply_gradient(g, u)[axis] for u in us] for us in U])
    # a single field against a stack: the field is paired with every row
    assert np.array_equal(inner(g, U[0], V[0, 0]), [inner(g, u, V[0, 0]) for u in U[0]])
    assert np.array_equal(stiffness_inner(g, U[0], V[0, 0]),
                          [stiffness_inner(g, u, V[0, 0]) for u in U[0]])
    assert isinstance(inner(g, U[0, 0], V[0, 0]), float)
    assert isinstance(stiffness_inner(g, U[0, 0], V[0, 0]), float)
    bad = np.zeros((3, g.n_nodes + 1))
    for fn in (
        lambda: inner(g, bad, bad),
        lambda: inner(g, U[0], bad),
        lambda: norm_l2(g, bad),
        lambda: stiffness_inner(g, bad, bad),
        lambda: stiffness_inner(g, U[0], bad),
        lambda: seminorm_h1(g, bad),
        lambda: apply_laplacian(g, bad),
        lambda: apply_gradient(g, bad),
        lambda: boundary_inner(g, U[0], bad),
        lambda: normal_derivative(g, bad),
    ):
        with pytest.raises(ValueError):
            fn()


def _padded(g, U):
    """U, a reshaped field or stack, with one ghost layer on each grid axis:
    zero on Dirichlet grids, the inward neighbour mirrored on Neumann grids."""
    P = np.empty(U.shape[: U.ndim - g.dim] + tuple(n + 2 for n in g.shape))
    P[(..., *[slice(1, -1)] * g.dim)] = U
    for axis in range(g.dim):
        for side, inside in ((0, 2), (-1, -3)):
            ghost, mirror = [slice(None)] * g.dim, [slice(None)] * g.dim
            ghost[axis], mirror[axis] = side, inside
            P[(..., *ghost)] = 0.0 if g.bc_kind == DIRICHLET else P[(..., *mirror)]
    return P


def _padded_laplacian(g, u):
    """The stencil on a ghosted copy of u, the arithmetic of each node in
    the order apply_laplacian must keep."""
    U = g.reshape(u)
    P = _padded(g, U)
    out = 0.0
    for axis in range(g.dim):
        lo, hi = [slice(1, -1)] * g.dim, [slice(1, -1)] * g.dim
        lo[axis], hi[axis] = slice(0, -2), slice(2, None)
        out = out + (P[(..., *lo)] - 2.0 * U + P[(..., *hi)]) / g.h[axis] ** 2
    return out.reshape(u.shape)


def _padded_stiffness(g, u, v):
    """The Dirichlet form from the differences of ghosted copies of u and v."""
    dirichlet = g.bc_kind == DIRICHLET
    U, V = (_padded(g, g.reshape(f)) if dirichlet else g.reshape(f) for f in (u, v))
    total = 0.0
    for axis in range(g.dim):
        hi = [slice(1, -1) if dirichlet else slice(None)] * g.dim
        lo = list(hi)
        hi[axis], lo[axis] = slice(1, None), slice(None, -1)
        du = (U[(..., *hi)] - U[(..., *lo)]) / g.h[axis]
        dv = (V[(..., *hi)] - V[(..., *lo)]) / g.h[axis]
        w = g.h[axis]
        for ax in range(g.dim):
            if ax != axis:
                w = w * g.axis_weights(ax).reshape([g.n if a == ax else 1 for a in range(g.dim)])
        s = (w * du * dv).reshape(du.shape[: -g.dim] + (-1,)).sum(axis=-1)
        total = total + s
    return total


def _sliced_gradient(g, u):
    """The centered differences and one-sided ends on slices of u, axis by axis."""
    U = g.reshape(u)
    comps = []
    for axis in range(g.dim):
        def at(s):
            return (..., s) + (slice(None),) * (g.dim - 1 - axis)
        d = np.zeros_like(U)
        h = g.h[axis]
        d[at(slice(1, -1))] = (U[at(slice(2, None))] - U[at(slice(None, -2))]) / (2.0 * h)
        d[at(0)] = (-3.0 * U[at(0)] + 4.0 * U[at(1)] - U[at(2)]) / (2.0 * h)
        d[at(-1)] = (3.0 * U[at(-1)] - 4.0 * U[at(-2)] + U[at(-3)]) / (2.0 * h)
        comps.append(d.reshape(u.shape))
    return comps


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["field", "stack", "stack2"])
def test_stencils_match_ghosted_copies_bit_for_bit(bc, dim, lead):
    # the neighbours are shifts of the flat field and the ghost enters by the
    # same operation as a neighbour, so every node has the bits of the padded
    # stencil, signed zeros and subnormals too; likewise the stiffness form
    # and the gradient against their slice-by-slice forms
    g = build_grid(dim, [1.0, 1.5][:dim], 6, bc)
    rng = np.random.default_rng(11)
    u = rng.normal(size=lead + (g.n_nodes,))
    u[..., ::3] = 0.0
    u[..., 1::4] = -0.0
    u[..., 2::5] *= 1e-310
    v = rng.normal(size=u.shape)
    lap = apply_laplacian(g, u)
    assert lap.shape == u.shape
    assert np.array_equal(_bits(lap), _bits(_padded_laplacian(g, u)))
    assert (_bits(lap) != _bits(-0.0)).all()  # the sum over axes starts from +0.0
    # a Fortran-ordered stack and a strided view give the same bits
    for w in (np.asfortranarray(u), np.repeat(u, 2, axis=-1)[..., ::2]):
        assert np.array_equal(_bits(apply_laplacian(g, w)), _bits(lap))
    for a, b in ((u, v), (u, u)):
        assert np.array_equal(_bits(stiffness_inner(g, a, b)), _bits(_padded_stiffness(g, a, b)))
    assert np.array_equal(_bits(apply_gradient(g, u)), _bits(_sliced_gradient(g, u)))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("dim", [1, 2])
def test_matrix_matches_operator(bc, dim):
    g = build_grid(dim, [1.0, 1.5][:dim], 7, bc)
    L = laplacian_matrix(g)
    A = implicit_matrix(g, 2e-3, 0.75)
    rng = np.random.default_rng(3)
    u = rng.normal(size=g.n_nodes)
    assert np.allclose(L @ u, apply_laplacian(g, u), atol=1e-12)
    assert np.allclose(A @ u, ImplicitSolver(g, 2e-3, 0.75).apply(u), atol=1e-12)


def test_neumann_mass_conservation_identity():
    # weighted sum of the reflected Laplacian vanishes identically
    g = build_grid(1, [1.0], 33, NEUMANN)
    rng = np.random.default_rng(4)
    u = rng.normal(size=g.n_nodes)
    assert inner(g, apply_laplacian(g, u), np.ones(g.n_nodes)) == pytest.approx(0.0, abs=1e-10)
    g2 = build_grid(2, [1.0, 2.0], 9, NEUMANN)
    u2 = rng.normal(size=g2.n_nodes)
    assert inner(g2, apply_laplacian(g2, u2), np.ones(g2.n_nodes)) == pytest.approx(0.0, abs=1e-9)
