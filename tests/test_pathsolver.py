from dataclasses import replace

import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import cg as scipy_cg

from svilab import pathsolver
from svilab.errors import ConfigError, NumericalFailure, StabilityError
from svilab.grid import DIRICHLET, NEUMANN, build_grid, norm_l2
from svilab.noise import CoeffSpec, TimeGrid, parse_coefficient, sample_paths
from svilab.pathsolver import (
    BoundaryLift,
    ForcingSpec,
    InitialData,
    ImplicitSolver,
    ProblemSpec,
    SinePreconditioner,
    SolveConfig,
    _median,
    conjugate_gradients,
    direct_em_solve,
    identity,
    solve_path,
    step_interior,
    zero_coeffs,
)
from svilab.penalty import beta_eps
from svilab.transform import ReactionSpec

EMPTY = CoeffSpec(())


def coeffs1(text):
    return CoeffSpec((parse_coefficient(text, [1.0]),))


def zero_stack(grid, source=None):
    """zero_coeffs as the record of a stack of one state."""
    c = zero_coeffs(grid, source=source)
    return replace(c, **{k: v[None] for k, v in vars(c).items() if isinstance(v, np.ndarray)})


def march(grid, x, cfg, n_steps, source=None):
    solver = ImplicitSolver(grid, cfg.dt, cfg.theta)
    y = x[None]
    src = source if source is not None else grid.zeros()
    for _ in range(n_steps):
        y = step_interior(grid, y, zero_stack(grid, source=src), cfg, solver).y
    return y[0]


def test_step_zero_fixed_point():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    cfg = SolveConfig(dt=1e-3)
    solver = ImplicitSolver(g, cfg.dt, cfg.theta)
    y1, iters, resid = step_interior(g, g.zeros()[None], zero_stack(g), cfg, solver)[:3]
    assert np.all(y1 == 0.0)
    assert resid[0] <= cfg.newton_tol


def test_step_heat_eigen_decay_oracle():
    # oracle: sin(pi x) is an eigenvector of the discrete Laplacian with
    # lam_h = -4 sin^2(pi h / 2) / h^2, so one theta-step multiplies by
    # (1 + (1-theta) dt lam_h) / (1 - theta dt lam_h).
    for theta in (1.0, 0.5):
        g = build_grid(1, [1.0], 127, DIRICHLET)
        h = g.h[0]
        lam_h = -4.0 * np.sin(np.pi * h / 2.0) ** 2 / h**2
        dt = 2e-4
        cfg = SolveConfig(dt=dt, theta=theta)
        x = np.sin(np.pi * g.meshes()[0])
        y1 = step_interior(g, x[None], zero_stack(g), cfg, ImplicitSolver(g, dt, theta)).y[0]
        factor_h = (1.0 + (1.0 - theta) * dt * lam_h) / (1.0 - theta * dt * lam_h)
        assert np.allclose(y1, factor_h * x, atol=1e-12)
        # continuous-eigenvalue version agrees within spatial error
        factor_c = (1.0 - (1.0 - theta) * dt * np.pi**2) / (1.0 + theta * dt * np.pi**2)
        assert np.max(np.abs(y1 - factor_c * x)) <= 5.0 * dt * np.pi**4 * h**2


def steady_pinned_oracle(x, eps):
    # closed form of -y'' + y/eps = -1, y(0)=y(1)=0 (y < 0 everywhere):
    # y = -eps (1 - cosh((x-1/2)/sqrt(eps)) / cosh(1/(2 sqrt(eps))))
    s = np.sqrt(eps)
    return -eps * (1.0 - np.cosh((x - 0.5) / s) / np.cosh(0.5 / s))


def test_step_pinned_by_negative_forcing():
    g = build_grid(1, [1.0], 127, DIRICHLET)
    eps = 1e-3
    cfg = SolveConfig(dt=5e-3, eps=eps)
    y = march(g, g.zeros(), cfg, 400, source=np.full(g.n_nodes, -1.0))
    x = g.meshes()[0]
    expected = steady_pinned_oracle(x, eps)
    assert np.max(np.abs(y - expected)) <= 1e-4
    # interior plateau at -eps with multiplier -1
    mid = slice(g.n_nodes // 4, 3 * g.n_nodes // 4)
    assert np.allclose(y[mid], -eps, atol=1e-5)
    eta = np.minimum(y, 0.0) / eps
    assert np.allclose(eta[mid], -1.0, atol=1e-2)


@pytest.mark.parametrize("forcing", [ForcingSpec(), ForcingSpec("const", -1.0)],
                         ids=["zero", "const"])
def test_mu_cap_stops_the_march_without_overflow_warnings(forcing):
    # mu = 5000 W(t) passes the cap 0.25 early and e^{+-mu} overflows in
    # later rows of the same coefficient block, which the march never reaches
    g = build_grid(1, [1.0], 15, DIRICHLET)
    tg = TimeGrid(0.1, 20)
    cs = CoeffSpec((parse_coefficient("const(5000.0) * const(1.0)", [1.0]),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"at t=.*beyond the cap 0.25"):
            solve_path(g, tg, cs, ReactionSpec("linear", 1.0), forcing, InitialData("sine", 1.0),
                       SolveConfig(dt=tg.dt, mu_cap=0.25), sample_paths(tg, 1, seed=2))


def test_solve_path_zero_data():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.05, 50)
    cfg = SolveConfig(dt=tg.dt)
    paths = sample_paths(tg, 0, seed=0)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 0.0), cfg, paths)
    assert np.all(sol.y == 0.0)
    assert np.all(sol.X == 0.0)
    assert np.all(sol.eta == 0.0)


def test_solve_path_heat_decay_oracle():
    # separation of variables: y(t) = exp(-pi^2 t) sin(pi x)
    g = build_grid(1, [1.0], 255, DIRICHLET)
    tg = TimeGrid(0.1, 1000)
    cfg = SolveConfig(dt=tg.dt, theta=1.0)
    paths = sample_paths(tg, 0, seed=0)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 1.0), cfg, paths)
    x = g.meshes()[0]
    exact = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * x)
    assert np.max(np.abs(sol.y[-1] - exact)) <= 5e-3
    assert np.array_equal(sol.X, sol.y)  # mu = 0 throughout


def test_solve_path_factorized_noise_oracle():
    # m=1, mu_1 = c constant: y is deterministic with reaction c^2/2 and the
    # discrete recurrence on the sine eigenvector is exact; X = e^{c beta} y.
    c = 0.8
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.2, 200)
    cfg = SolveConfig(dt=tg.dt, theta=1.0)
    paths = sample_paths(TimeGrid(0.2, 1600), 1, seed=21)
    cs = coeffs1(f"const({c}) * const(1.0)")
    sol = solve_path(g, tg, cs, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 1.0), cfg, paths)
    h = g.h[0]
    lam_h = -4.0 * np.sin(np.pi * h / 2.0) ** 2 / h**2
    dt = tg.dt
    rho = (1.0 - dt * 0.5 * c * c) / (1.0 - dt * lam_h)
    x = np.sin(np.pi * g.meshes()[0])
    beta_T = paths.coarsen(8).values[0, -1]
    expected_X = np.exp(c * beta_T) * rho**tg.N * x
    assert np.max(np.abs(sol.X[-1] - expected_X)) <= 1e-10
    assert sol.diagnostics.refine_level == 0


def test_recover_multiplier_matches_and_sign():
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.2, 100)
    cfg = SolveConfig(dt=tg.dt, eps=1e-3)
    paths = sample_paths(tg, 0, seed=0)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec("const", -1.0),
                     InitialData("sine", 0.0), cfg, paths)
    eta = sol.eta
    assert np.array_equal(eta, beta_eps(sol.y, cfg.eps))
    assert np.all(eta <= 0.0)
    # penalized complementarity is exact: eta * max(y, 0) = 0 at every node
    assert np.all(eta * np.maximum(sol.y, 0.0) == 0.0)
    # pinned steady state: interior multiplier ~ -1 per the ODE oracle
    interior = slice(g.n_nodes // 4, 3 * g.n_nodes // 4)
    assert np.allclose(eta[-1][interior], -1.0, atol=1e-2)
    # positive trajectory leaves eta identically zero
    sol_pos = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                         InitialData("sine", 1.0), cfg, paths)
    assert np.all(sol_pos.eta == 0.0)


def test_positivity_preservation():
    # theta=1, f >= 0, x >= 0, no reaction/transport: M-matrix keeps y >= 0
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.1, 100)
    cfg = SolveConfig(dt=tg.dt, theta=1.0)
    paths = sample_paths(tg, 0, seed=0)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec("sine", 2.0),
                     InitialData("cone", 1.0), cfg, paths)
    assert np.min(sol.y) >= -1e-12


def test_penalty_dissipativity():
    # f = 0, F = 0, g = 0: the L2 norm is nonincreasing step to step
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.1, 100)
    cfg = SolveConfig(dt=tg.dt)
    paths = sample_paths(tg, 0, seed=0)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                     InitialData("cutoff", 1.0), cfg, paths)
    norms = [norm_l2(g, sol.y[k]) for k in range(tg.N + 1)]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


def test_newton_iteration_bound():
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.2, 100)
    cfg = SolveConfig(dt=tg.dt, eps=1e-4)
    paths = sample_paths(TimeGrid(0.2, 800), 1, seed=3)
    cs = coeffs1("const(0.5) * sin(1)")
    sol = solve_path(g, tg, cs, ReactionSpec("linear", 0.5), ForcingSpec("const", -2.0),
                     InitialData("sine", 0.5), cfg, paths)
    assert np.max(sol.diagnostics.newton_iters) <= g.n_nodes
    assert np.max(sol.diagnostics.residuals) <= cfg.newton_tol


def test_direct_em_matches_transform_when_deterministic():
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.1, 200)
    cfg = SolveConfig(dt=tg.dt)
    paths = sample_paths(tg, 0, seed=0)
    args = (g, tg, EMPTY, ReactionSpec("linear", 0.7), ForcingSpec("sine", 0.5),
            InitialData("sine", 1.0), cfg, paths)
    a = solve_path(*args)
    b = direct_em_solve(*args)
    assert np.max(np.abs(a.X[-1] - b.X[-1])) <= 1e-6
    assert np.all(direct_em_solve(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                                  InitialData("sine", 0.0), cfg, paths).X == 0.0)


def test_direct_em_self_convergence_in_dt():
    # positive regime, shared increments: the X gap shrinks when dt halves
    g = build_grid(1, [1.0], 31, DIRICHLET)
    cs = coeffs1("const(0.5) * sin(1)")
    master = sample_paths(TimeGrid(0.25, 2000), 1, seed=11)
    gaps = []
    for n_steps in (250, 500):
        tg = TimeGrid(0.25, n_steps)
        cfg = SolveConfig(dt=tg.dt)
        args = (g, tg, cs, ReactionSpec(), ForcingSpec(), InitialData("sine", 1.0), cfg, master)
        tr = solve_path(*args)
        em = direct_em_solve(*args)
        gaps.append(norm_l2(g, em.X[-1] - tr.X[-1]))
    assert gaps[1] < gaps[0]


def test_direct_em_stays_stable_in_contact_at_dt_above_two_eps():
    # dt = 10 eps with contact on 6% of the nodes: an explicit penalty
    # overshoots to X = -7.4 eps here, the implicit one keeps the penalized
    # depth eps |f| and stays within O(dt) of the transform route
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.1, 100)
    eps = 1e-4
    args = (g, tg, coeffs1("const(0.3) * sin(1)"), ReactionSpec(), ForcingSpec("const", -1.0),
            InitialData("sine", 0.2), SolveConfig(dt=tg.dt, eps=eps),
            sample_paths(TimeGrid(0.1, 800), 1, seed=5))
    em = direct_em_solve(*args)
    assert tg.dt > 2 * eps and np.any(em.eta < 0)
    assert em.X.min() >= -2 * eps
    assert norm_l2(g, em.X[-1] - solve_path(*args).X[-1]) <= tg.dt


def test_solve_path_retries_on_stiff_transport():
    # large coefficient gradient forces the guard to refine dt
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.2, 40)  # dt = 5e-3, h ~ 1/64: sup|g| > 3 triggers
    cfg = SolveConfig(dt=tg.dt)
    cs = coeffs1("const(1.5) * sin(2)")
    paths = sample_paths(TimeGrid(0.2, 40 * 8), 1, seed=5)
    sol = solve_path(g, tg, cs, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 1.0), cfg, paths)
    assert sol.diagnostics.refine_level >= 1
    assert sol.diagnostics.stability_margin <= 1.0
    assert sol.y.shape == (tg.N + 1, g.n_nodes)
    # with no headroom at all, the same problem is reported as a failure
    with pytest.raises(StabilityError):
        solve_path(g, tg, cs, ReactionSpec(), ForcingSpec(),
                   InitialData("sine", 1.0), cfg, paths.coarsen(8))


def test_solve_path_rejects_bad_input():
    g = build_grid(1, [1.0], 31, NEUMANN)
    tg = TimeGrid(0.1, 10)
    cfg = SolveConfig(dt=tg.dt)
    paths = sample_paths(tg, 0, seed=0)
    with pytest.raises(ConfigError):
        solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                   InitialData("sine", 1.0), cfg, paths)
    gd = build_grid(1, [1.0], 31, DIRICHLET)
    with pytest.raises(ConfigError):
        solve_path(gd, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                   InitialData("sine", 1.0), cfg, sample_paths(TimeGrid(0.1, 15), 0, seed=0))
    with pytest.raises(ConfigError):
        solve_path(gd, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                   np.full(gd.n_nodes, -1.0), cfg, paths)


def test_solve_path_2d_smoke():
    g = build_grid(2, [1.0, 1.0], 15, DIRICHLET)
    tg = TimeGrid(0.02, 20)
    cfg = SolveConfig(dt=tg.dt)
    paths = sample_paths(TimeGrid(0.02, 160), 1, seed=7)
    cs = CoeffSpec((parse_coefficient("const(0.5) * sin(1) * cos(1)", [1.0, 1.0]),))
    sol = solve_path(g, tg, cs, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 1.0), cfg, paths)
    assert sol.y.shape == (21, 225)
    assert np.isfinite(sol.y).all()
    # 2D heat decay sanity: both modes decay at ~2 pi^2
    X, Y = g.meshes()
    base = np.sin(np.pi * X) * np.sin(np.pi * Y)
    det = solve_path(g, tg, CoeffSpec(()), ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 1.0), cfg, sample_paths(tg, 0, seed=0))
    exact = np.exp(-2.0 * np.pi**2 * tg.T) * base
    assert np.max(np.abs(det.y[-1] - exact)) <= 5e-3


def scipy_cg_solve(M, b, x0, maxiter):
    """scipy's cg at the settings the in-house CG reproduces, raising as
    ImplicitSolver does."""
    x, info = scipy_cg(M, b, x0=x0, rtol=1e-12, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise NumericalFailure(f"conjugate gradients failed to converge (info={info})")
    return x


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def with_diag(A, d):
    """A + diag(d) as the 2D solve built it before it wrote A's diagonal in place."""
    M = A.copy()
    M.setdiag(M.diagonal() + d)
    return M


@pytest.fixture
def solver_2d():
    return ImplicitSolver(build_grid(2, [1.0, 1.5], 15, NEUMANN), 2e-3, 0.75)


def test_cg_matches_scipy_bits(solver_2d):
    rng = np.random.default_rng(3)
    n = solver_2d.n
    M = with_diag(solver_2d.A, np.where(rng.random(n) < 0.3, 40.0, 0.0))
    b = rng.normal(size=n)
    x0 = rng.normal(size=n)
    x0[::7] = -0.0
    x0_in = x0.copy()
    for start in (None, np.zeros(n), x0):
        got = conjugate_gradients(M, b, start, 20 * n, identity)
        assert same_bits(got, scipy_cg_solve(M, b, start, 20 * n))
    assert same_bits(x0, x0_in)  # x0 is not written


def test_cg_zero_rhs_returns_it(solver_2d):
    b = np.zeros(solver_2d.n)
    b[::3] = -0.0
    x0 = np.ones(solver_2d.n)
    for start in (None, x0):
        got = conjugate_gradients(solver_2d.A, b, start, 20 * solver_2d.n, identity)
        assert same_bits(got, scipy_cg_solve(solver_2d.A, b, start, 20 * solver_2d.n))
        assert same_bits(got, b) and got is not b


def test_cg_exhausted_cap_raises_scipy_message(solver_2d):
    b = np.random.default_rng(4).normal(size=solver_2d.n)
    with pytest.raises(NumericalFailure) as ref:
        scipy_cg_solve(solver_2d.A, b, None, 3)
    with pytest.raises(NumericalFailure) as got:
        conjugate_gradients(solver_2d.A, b, None, 3, identity)
    assert str(got.value) == str(ref.value) == \
        "conjugate gradients failed to converge (info=3)"


def test_cg_returns_the_iterate_of_its_last_update(solver_2d):
    # scipy's cg converges after k updates; a cap of k updates returns that
    # iterate, with scipy's bits, where scipy itself needs a cap of k + 1
    b = np.random.default_rng(4).normal(size=solver_2d.n)
    k = []
    scipy_cg(solver_2d.A, b, rtol=1e-12, atol=0.0, callback=k.append)
    assert same_bits(conjugate_gradients(solver_2d.A, b, None, len(k), identity),
                     scipy_cg_solve(solver_2d.A, b, None, len(k) + 1))
    with pytest.raises(NumericalFailure, match=f"info={len(k) - 1}"):
        conjugate_gradients(solver_2d.A, b, None, len(k) - 1, identity)


def test_implicit_solver_2d_stack_matches_scipy_bits(solver_2d):
    rng = np.random.default_rng(5)
    n = solver_2d.n
    A_data = solver_2d.A.data.copy()
    extra = np.zeros((4, n))
    extra[1] = np.where(rng.random(n) < 0.5, 2e-3 / 1e-4, 0.0)
    extra[3] = rng.random(n)
    b = rng.normal(size=(4, n))
    for x0 in (None, rng.normal(size=(4, n))):
        x, failures = solver_2d.solve(extra, b, x0=x0)
        assert not failures
        for row in range(4):
            want = scipy_cg_solve(with_diag(solver_2d.A, extra[row]), b[row],
                                  None if x0 is None else x0[row], 20 * n)
            assert same_bits(x[row], want), row
    # the rewritten diagonal lives in a copy: A, which `apply` uses, is untouched
    assert np.array_equal(solver_2d.A.data, A_data)


def dirichlet_2d(lengths=(1.0, 1.5), n=15):
    return ImplicitSolver(build_grid(2, list(lengths), n, DIRICHLET), 2e-3, 0.75)


def test_only_2d_dirichlet_solves_are_preconditioned(solver_2d, monkeypatch):
    dirichlet = dirichlet_2d()
    assert isinstance(dirichlet.precond, SinePreconditioner)
    assert solver_2d.precond is None  # Neumann
    assert ImplicitSolver(build_grid(1, [1.0], 15, DIRICHLET), 2e-3, 0.75).precond is None
    # the CG of a Neumann solve runs with the identity, of a Dirichlet one with the sine map
    seen = []
    cg = pathsolver.conjugate_gradients
    monkeypatch.setattr(pathsolver, "conjugate_gradients",
                        lambda *args: seen.append(args[-1]) or cg(*args))
    for solver in (solver_2d, dirichlet):
        solver.solve(np.zeros((1, solver.n)), np.ones((1, solver.n)))
    assert seen[0] is identity and seen[1] is not identity


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)], ids=["square", "rectangle"])
def test_sine_basis_diagonalises_the_implicit_matrix(lengths):
    solver = dirichlet_2d(lengths, n=9)
    S = np.kron(solver.precond.S, solver.precond.S)  # the sine basis of C-ordered fields
    assert np.allclose(S @ S, np.eye(solver.n), rtol=0.0, atol=1e-14)
    D = S @ solver.A.toarray() @ S
    lam = solver.precond.lam.reshape(-1)
    assert np.abs(D - np.diag(np.diag(D))).max() <= 1e-13 * lam.max()
    assert np.allclose(np.diag(D), lam, rtol=1e-13, atol=0.0)


def extra_diags(n, rng, dt=2e-3, eps=1e-4):
    """Extra diagonals of no contact, a constant one and half the nodes active."""
    return np.stack([np.zeros(n), np.full(n, dt / eps),
                     np.where(rng.random(n) < 0.5, dt / eps, 0.0)])


def test_preconditioned_solve_matches_dense_solve():
    solver = dirichlet_2d()
    rng = np.random.default_rng(6)
    n = solver.n
    extra = extra_diags(n, rng)
    b = rng.normal(size=(3, n))
    for x0 in (None, rng.normal(size=(3, n))):
        x, failures = solver.solve(extra, b, x0=x0)
        assert not failures
        for row in range(3):
            want = np.linalg.solve(solver.A.toarray() + np.diag(extra[row]), b[row])
            assert np.abs(x[row] - want).max() <= 1e-11 * np.abs(want).max(), row
            # the stopping test is on the unpreconditioned residual
            resid = b[row] - with_diag(solver.A, extra[row]) @ x[row]
            assert np.linalg.norm(resid) < 1e-12 * np.linalg.norm(b[row])


def test_preconditioned_cg_is_exact_for_a_constant_extra_diagonal():
    solver = dirichlet_2d()
    rng = np.random.default_rng(7)
    b = rng.normal(size=solver.n)
    for d in extra_diags(solver.n, rng)[:2]:
        M = with_diag(solver.A, d)
        for x0 in (None, rng.normal(size=solver.n)):
            x = conjugate_gradients(M, b, x0, 1, solver.precond.for_diag(d))
            assert np.linalg.norm(b - M @ x) < 1e-12 * np.linalg.norm(b)
        with pytest.raises(NumericalFailure):  # unpreconditioned, one update is too few
            conjugate_gradients(M, b, None, 1, identity)


def test_preconditioned_cg_exhausted_cap_raises_the_same_message():
    solver = dirichlet_2d()
    rng = np.random.default_rng(8)
    d = extra_diags(solver.n, rng)[2]
    M, b, precond = with_diag(solver.A, d), rng.normal(size=solver.n), solver.precond.for_diag(d)
    k = next(k for k in range(1, 20 * solver.n) if _converges(M, b, k, precond))
    assert 1 < k < 40
    with pytest.raises(NumericalFailure) as exc:
        conjugate_gradients(M, b, None, k - 1, precond)
    assert str(exc.value) == f"conjugate gradients failed to converge (info={k - 1})"


def _converges(M, b, maxiter, precond):
    try:
        conjugate_gradients(M, b, None, maxiter, precond)
    except NumericalFailure:
        return False
    return True


@pytest.mark.parametrize("n", [3969, 3844, 225, 224, 1, 2])
def test_sine_shift_is_the_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        # contact diagonals: zeros and one dt/eps value, some with a random part
        d = np.where(rng.random(n) < rng.random(), 2e-3 / 10.0 ** rng.integers(1, 6), 0.0)
        if rng.random() < 0.3:
            d = d + rng.random(n)
        assert same_bits(_median(d), np.median(d))


def test_boundary_lift_linear_profile():
    # steady check: with y(0,t) = r*t at the left ghost and f = 0, the
    # solution tends to the linear interpolant r*t*(1 - x) plus O(dt) lag
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.5, 2000)
    cfg = SolveConfig(dt=tg.dt, eps=1e-6)
    paths = sample_paths(tg, 0, seed=0)
    rate = 0.4
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 0.0), cfg, paths, boundary_lift=BoundaryLift(rate))
    x = g.meshes()[0]
    # quasi-steady oracle: y = r t (1-x) + v(x) with v'' = r(1-x), v(0)=v(1)=0
    v = rate * (x**2 / 2.0 - x**3 / 6.0 - x / 3.0)
    expect = rate * tg.T * (1.0 - x) + v
    assert np.max(np.abs(sol.y[-1] - expect)) <= 0.01 * rate * tg.T


def test_problem_spec_roundtrip():
    import pickle

    spec = ProblemSpec(coefficients=(parse_coefficient("const(0.5) * sin(1)", [1.0]),),
                       n=31, n_steps=50, T=0.05, seed=9)
    spec2 = pickle.loads(pickle.dumps(spec))
    a = spec.solve(3)
    b = spec2.solve(3)
    assert np.array_equal(a.y, b.y)


@pytest.mark.parametrize("kw", [{"newton_max": 0}, {"dt": float("nan")}, {"eps": float("nan")},
                                {"newton_tol": 0.0}, {"eps": (1e-3, 0.0)},
                                {"eps": (1e-3, float("nan"))}, {"eps": (-1e-3,)}, {"eps": ()}])
def test_solve_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        SolveConfig(**{"dt": 1e-3, **kw})
