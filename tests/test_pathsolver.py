import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg as scipy_cg

import svilab
from svilab import pathsolver
from svilab.errors import ConfigError, NewtonError, NumericalFailure, StabilityError
from svilab.grid import DIRICHLET, NEUMANN, build_grid, norm_l2
from svilab.noise import (CoeffSpec, PathStack, TimeGrid, parse_coefficient, sample_block,
                          sample_paths, space_fields)
from svilab.pathsolver import (
    ForcingSpec,
    InitialData,
    ImplicitSolver,
    ProblemSpec,
    SineBasis,
    SolveConfig,
    _march,
    _median,
    _one,
    _pick_refinement,
    conjugate_gradients,
    direct_em_batch,
    direct_em_solve,
    identity,
    solve_path,
    step_interior,
    zero_coeffs,
)
from svilab.penalty import beta_eps
from svilab.signorini import solve_signorini_path
from svilab.transform import ReactionSpec

from matrices import implicit_matrix

EMPTY = CoeffSpec(())


def coeffs1(text):
    return CoeffSpec((parse_coefficient(text, [1.0]),))


def zero_stack(grid, source=None):
    """zero_coeffs as the record of a stack of one state."""
    c = zero_coeffs(grid)
    if source is not None:
        c = replace(c, source=source)
    return replace(c, **{k: v[None] for k, v in vars(c).items() if isinstance(v, np.ndarray)})


def march(grid, x, cfg, n_steps, source=None):
    solver = ImplicitSolver(grid, cfg.dt, cfg.theta)
    y = x[None]
    src = source if source is not None else grid.zeros()
    for _ in range(n_steps):
        c = zero_stack(grid, source=src)
        y = step_interior(grid, y, y, c, c, cfg, solver).y
    return y[0]


def test_step_zero_fixed_point():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    cfg = SolveConfig(dt=1e-3)
    solver = ImplicitSolver(g, cfg.dt, cfg.theta)
    c = zero_stack(g)
    y0 = g.zeros()[None]
    y1, iters, resid = step_interior(g, y0, y0, c, c, cfg, solver)[:3]
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
        c = zero_stack(g)
        y1 = step_interior(g, x[None], x[None], c, c, cfg, ImplicitSolver(g, dt, theta)).y[0]
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
    beta_T = paths.values[0, -1]
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


@pytest.mark.parametrize("eps", [0.0, np.array([[1e-3], [-1e-3]])], ids=["scalar", "column"])
def test_newton_rejects_nonpositive_eps_before_solving(eps):
    solver = ImplicitSolver(build_grid(1, [1.0], 15, DIRICHLET), 1e-3, 1.0)
    solver.solve = lambda *args, **kwargs: pytest.fail("a linear solve ran before the eps check")
    rhs = -np.ones((2, solver.n))
    with pytest.raises(ValueError, match="eps must be positive"):
        pathsolver.newton_penalized_solve(solver, rhs, 1e-3, eps, rhs, 1e-10, 10)


def test_newton_checks_eps_once_per_solve(monkeypatch):
    solver = ImplicitSolver(build_grid(1, [1.0], 63, DIRICHLET), 1e-3, 1.0)
    calls = []
    check = pathsolver.penalty.check_eps
    monkeypatch.setattr(pathsolver.penalty, "check_eps",
                        lambda eps: calls.append(eps) or check(eps))
    rhs = np.sin(np.arange(2 * solver.n)).reshape(2, solver.n) - 0.5
    res = pathsolver.newton_penalized_solve(solver, rhs, 1e-3, np.array([[1e-4], [1e-5]]),
                                            np.zeros_like(rhs), 1e-10, 50)
    assert not res.failures and res.row_iters.min() >= 2
    assert len(calls) == 1


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _solo_newton(solver, rhs, dt_scale, eps, y0, tol, newton_max, linear_diag=None):
    """newton_penalized_solve of each row of the stack alone."""
    def row(a, i):
        return a[i:i + 1] if np.ndim(a) == 2 else a
    return [pathsolver.newton_penalized_solve(solver, rhs[i:i + 1], dt_scale, row(eps, i),
                                              y0[i:i + 1], tol, newton_max, row(linear_diag, i))
            for i in range(len(rhs))]


def _assert_rows_are_solo(res, solos, rows):
    for i in rows:
        (solo_y,), (solo_resid,), (solo_iters,) = solos[i].y, solos[i].residual, solos[i].row_iters
        assert not solos[i].failures and i not in res.failures
        assert np.array_equal(_bits(res.y[i]), _bits(solo_y))
        assert _bits(res.residual[i]) == _bits(solo_resid)
        assert res.row_iters[i] == solo_iters


def test_newton_row_with_a_nan_fails_alone():
    # a NaN residual is never <= tol, so its row goes on until the cap and
    # fails there; the other rows keep the bits of their solo solves
    g = build_grid(1, [1.0], 31, DIRICHLET)
    solver = ImplicitSolver(g, 1e-3, 1.0)
    rhs = np.array([np.sin(np.pi * g.meshes()[0]) - c for c in (0.5, 0.9, 0.1)])
    rhs[1, 7] = np.nan
    eps = np.array([[1e-3], [1e-4], [1e-5]])
    res = pathsolver.newton_penalized_solve(solver, rhs, 1e-3, eps, rhs, 1e-10, 12)
    assert list(res.failures) == [1]
    assert isinstance(res.failures[1], NewtonError)
    assert "did not converge in 12 iterations (last residual nan)" in str(res.failures[1])
    assert res.row_iters[1] == 12 and np.isnan(res.residual[1])
    _assert_rows_are_solo(res, _solo_newton(solver, rhs, 1e-3, eps, rhs, 1e-10, 12), [0, 2])
    assert res.iters == res.row_iters.sum()


def test_newton_rows_accepted_apart_keep_their_solo_bits():
    # Signorini's boundary penalty and Robin diagonal with one eps per row:
    # one row is accepted an iteration before the others, so the rest go on
    # as index copies of the stack
    g = build_grid(1, [1.0], 31, NEUMANN)
    dt, theta = 2e-3, 0.75
    solver = ImplicitSolver(g, dt, theta)
    dt_scale = dt * theta * g.flux_factor  # zero off the boundary
    x = g.meshes()[0]
    rhs = np.array([a * np.cos(np.pi * x) - b
                    for a, b in ((1.0, 0.2), (2.0, 0.1), (0.5, 1.5), (1.0, -1.0))])
    dmu = np.zeros_like(rhs)
    dmu[:, [0, -1]] = np.random.default_rng(3).normal(size=(4, 2))
    eps = np.array([[1e-2], [1e-4], [1e-6], [1e-3]])
    args = (solver, rhs, dt_scale, eps, np.ones_like(rhs), 1e-10, 50, dt_scale * dmu)
    res = pathsolver.newton_penalized_solve(*args)
    assert not res.failures
    assert len(set(res.row_iters.tolist())) > 1
    _assert_rows_are_solo(res, _solo_newton(*args), range(4))


def test_newton_row_whose_linear_solve_fails_leaves_the_others():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    solver = ImplicitSolver(g, 1e-3, 1.0)
    rhs = np.array([np.sin(np.pi * g.meshes()[0]) - c for c in (0.5, 0.9, 0.1)])
    solos = _solo_newton(solver, rhs, 1e-3, 1e-4, rhs, 1e-10, 20)
    solve_one = solver._solve_one
    broken = rhs[1, 0]

    def flaky(extra_diag, b, x0, active):
        if b[0] == broken:
            raise NumericalFailure("tridiagonal solve failed (info=3)")
        return solve_one(extra_diag, b, x0, active)

    solver._solve_one = flaky
    res = pathsolver.newton_penalized_solve(solver, rhs, 1e-3, 1e-4, rhs, 1e-10, 20)
    assert list(res.failures) == [1]
    assert str(res.failures[1]) == "tridiagonal solve failed (info=3)"
    assert res.row_iters[1] == 1
    _assert_rows_are_solo(res, solos, [0, 2])


def _block(rs=ReactionSpec(), em=False, bc=DIRICHLET):
    g = build_grid(1, [1.0], 15, bc)
    fields = space_fields(coeffs1("cos(0.5,2.0) * sin(1)"), g)
    stack = sample_block(TimeGrid(0.1, 20), 1, 5, [0, 1, 2])
    return pathsolver.coeff_block(g, fields, stack, range(3, 8), rs, ForcingSpec("const", -1.0),
                                  em)


ALWAYS = ("t", "rs", "mu", "source")
TRANSFORMED = ALWAYS + ("mu_tilde", "grad_mu", "lap_mu", "zero_order", "g", "g_sup")


def _carried(c):
    return {k for k, v in vars(c).items() if v is not None}


def test_coefficient_records_carry_what_their_rule_reads():
    # e^{+-mu} only for a nonzero reaction, their one reader
    plain = _block()
    assert _carried(plain) == set(TRANSFORMED)
    y = np.random.default_rng(1).normal(size=plain.mu.shape[1:])
    assert np.array_equal(plain.row(2).reaction(y), plain.zero_order[2] * y)
    rs = ReactionSpec("linear", 0.3)
    reacting = _block(rs)
    assert _carried(reacting) == set(TRANSFORMED) | {"exp_mu", "exp_neg_mu"}
    assert np.array_equal(reacting.exp_mu, np.exp(reacting.mu))
    assert np.array_equal(reacting.exp_neg_mu, np.exp(-reacting.mu))
    c = reacting.row(2)
    want = c.zero_order * y + np.exp(-c.mu) * rs.value(np.exp(c.mu) * y)
    assert np.array_equal(c.reaction(y), want)
    assert not np.array_equal(replace(c, exp_neg_mu=2.0 * c.exp_neg_mu).reaction(y), want)
    # a Neumann grid adds dmu/dnu; Euler-Maruyama's record is mu, the source and the noise
    assert _carried(_block(bc=NEUMANN)) == set(TRANSFORMED) | {"dmu_dnu"}
    em = _block(rs, em=True)
    assert _carried(em) == set(ALWAYS) | {"noise"}
    assert np.array_equal(em.mu, plain.mu) and np.array_equal(em.source, plain.source)


def test_record_rows_and_takes_pass_none_through():
    for blk in (_block(), _block(em=True)):
        row = blk.row(1)
        assert _carried(row) == _carried(blk) and row.t == blk.t[1]
        assert np.array_equal(row.mu, blk.mu[1])
        kept = row.take(np.array([0, 2]))
        assert _carried(kept) == _carried(blk)
        assert np.array_equal(kept.mu, blk.mu[1, [0, 2]])
        one = blk.take(np.array([1])).row(3).take(0)
        assert _carried(one) == _carried(blk)
        assert np.array_equal(one.source, blk.source[3, 1])


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
                   InitialData("sine", 1.0), cfg, replace(paths, tg=tg, values=paths.values[:, ::8]))


def test_march_restricts_a_finer_path_set_exactly():
    # a path set sampled 4 times finer than the run grid marches on its
    # strided values: the bits of the coarse path set with those values
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.1, 16)
    cs = CoeffSpec((parse_coefficient("cos(0.5,2.0) * sin(1)", [1.0]),
                    parse_coefficient("const(0.3) * cos(2)", [1.0])))
    fine = sample_paths(tg.refined(4), 2, seed=5)
    coarse = replace(fine, tg=tg, values=fine.values[:, ::4].copy())
    args = (g, tg, cs, ReactionSpec(), ForcingSpec("sine", 0.5), InitialData("sine", 1.0),
            SolveConfig(dt=tg.dt, eps=1e-3))
    got, want = solve_path(*args, fine), solve_path(*args, coarse)
    assert got.diagnostics.refine_level == want.diagnostics.refine_level == 0
    assert got.diagnostics.delta == want.diagnostics.delta
    for key in ("y", "eta", "mu"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key


def test_solve_path_rejects_bad_input():
    g = build_grid(1, [1.0], 31, NEUMANN)
    tg = TimeGrid(0.1, 10)
    cfg = SolveConfig(dt=tg.dt)
    paths = sample_paths(tg, 0, seed=0)
    with pytest.raises(ConfigError, match="solve_path needs a Dirichlet grid"):
        solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                   InitialData("sine", 1.0), cfg, paths)
    with pytest.raises(ConfigError, match="direct_em_solve needs a Dirichlet grid"):
        direct_em_solve(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                        InitialData("sine", 1.0), cfg, paths)
    gd = build_grid(1, [1.0], 31, DIRICHLET)
    with pytest.raises(ConfigError, match="solve_signorini_path needs a Neumann grid"):
        solve_signorini_path(gd, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                             InitialData("sine", 1.0), cfg, paths)
    with pytest.raises(ConfigError, match="must be sampled on the run grid"):
        solve_path(gd, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                   InitialData("sine", 1.0), cfg, sample_paths(TimeGrid(0.1, 15), 0, seed=0))
    with pytest.raises(ConfigError, match="initial data must be nonnegative"):
        solve_path(gd, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                   np.full(gd.n_nodes, -1.0), cfg, paths)
    with pytest.raises(ConfigError, match="initial data does not match the grid"):
        solve_path(gd, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                   np.ones(gd.n_nodes + 1), cfg, paths)
    with pytest.raises(ConfigError, match="coefficient count 1 != path component count 0"):
        solve_path(gd, tg, coeffs1("const(0.5) * sin(1)"), ReactionSpec(), ForcingSpec(),
                   InitialData("sine", 1.0), cfg, paths)


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


def matvec(M):
    """The product CG takes, for a sparse M."""
    return lambda p: M @ p


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def with_diag(A, d):
    """A + diag(d) of a CSR matrix A, a new matrix."""
    M = A.copy()
    M.setdiag(M.diagonal() + d)
    return M


NEUMANN_2D = ((1.0, 1.5), 15, 2e-3, 0.75)  # lengths, n, dt, theta


@pytest.fixture
def solver_2d():
    lengths, n, dt, theta = NEUMANN_2D
    return ImplicitSolver(build_grid(2, list(lengths), n, NEUMANN), dt, theta)


@pytest.fixture
def csr_2d():
    """A = I - dt theta L of the Neumann solver, as a CSR matrix of the tests'
    own for the scipy-bits CG tests."""
    lengths, n, dt, theta = NEUMANN_2D
    return sparse.csr_matrix(implicit_matrix(build_grid(2, list(lengths), n, NEUMANN), dt, theta))


def test_cg_matches_scipy_bits(csr_2d):
    rng = np.random.default_rng(3)
    n = csr_2d.shape[0]
    M = with_diag(csr_2d, np.where(rng.random(n) < 0.3, 40.0, 0.0))
    b = rng.normal(size=n)
    x0 = rng.normal(size=n)
    x0[::7] = -0.0
    x0_in = x0.copy()
    for start in (None, np.zeros(n), x0):
        got = conjugate_gradients(matvec(M), b, start, 20 * n, identity)
        assert same_bits(got, scipy_cg_solve(M, b, start, 20 * n))
        # a stop that declines reads each decade's iterate and changes no bit
        norms = []
        watched = conjugate_gradients(matvec(M), b, start, 20 * n, identity,
                                      lambda x, rnorm: norms.append(rnorm) or False)
        assert same_bits(watched, got)
        assert len(norms) >= 5 and all(b < a / 10.0 for a, b in zip(norms, norms[1:]))
    assert same_bits(x0, x0_in)  # x0 is not written


def test_cg_zero_rhs_returns_it(csr_2d):
    n = csr_2d.shape[0]
    b = np.zeros(n)
    b[::3] = -0.0
    x0 = np.ones(n)
    for start in (None, x0):
        got = conjugate_gradients(matvec(csr_2d), b, start, 20 * n, identity)
        assert same_bits(got, scipy_cg_solve(csr_2d, b, start, 20 * n))
        assert same_bits(got, b) and got is not b


def test_cg_exhausted_cap_raises_scipy_message(csr_2d):
    b = np.random.default_rng(4).normal(size=csr_2d.shape[0])
    with pytest.raises(NumericalFailure) as ref:
        scipy_cg_solve(csr_2d, b, None, 3)
    with pytest.raises(NumericalFailure) as got:
        conjugate_gradients(matvec(csr_2d), b, None, 3, identity)
    assert str(got.value) == str(ref.value) == \
        "conjugate gradients failed to converge (info=3)"


def test_cg_returns_the_iterate_of_its_last_update(csr_2d):
    # scipy's cg converges after k updates; a cap of k updates returns that
    # iterate, with scipy's bits, where scipy itself needs a cap of k + 1
    b = np.random.default_rng(4).normal(size=csr_2d.shape[0])
    k = []
    scipy_cg(csr_2d, b, rtol=1e-12, atol=0.0, callback=k.append)
    assert same_bits(conjugate_gradients(matvec(csr_2d), b, None, len(k), identity),
                     scipy_cg_solve(csr_2d, b, None, len(k) + 1))
    with pytest.raises(NumericalFailure, match=f"info={len(k) - 1}"):
        conjugate_gradients(matvec(csr_2d), b, None, len(k) - 1, identity)


def cell_weights(grid):
    """W: the trapezoid weights over the cell area h0 h1."""
    return grid.weights / np.prod(grid.h)


def test_implicit_solver_2d_stack_matches_scipy_bits(solver_2d):
    rng = np.random.default_rng(5)
    n = solver_2d.n
    w = cell_weights(solver_2d.grid)
    probe = rng.normal(size=n)
    A_probe = solver_2d.apply(probe)
    extra = np.zeros((4, n))
    extra[1] = np.where(rng.random(n) < 0.5, 2e-3 / 1e-4, 0.0)
    extra[3] = rng.random(n)
    b = rng.normal(size=(4, n))
    for x0 in (None, rng.normal(size=(4, n))):
        x, failures = solver_2d.solve(extra, b, x0=x0)
        assert not failures
        for row in range(4):
            # scipy's cg on W (A + diag d) x = W b, applied by the solver's stencil
            M = LinearOperator((n, n), dtype=float,
                               matvec=lambda p, d=extra[row]: w * (solver_2d.apply(p) + d * p))
            want = scipy_cg_solve(M, w * b[row], None if x0 is None else x0[row], 20 * n)
            assert same_bits(x[row], want), row
    # the solves leave A, which `apply` applies, as it was
    assert same_bits(solver_2d.apply(probe), A_probe)


def dirichlet_2d(lengths=(1.0, 1.5), n=15):
    return ImplicitSolver(build_grid(2, list(lengths), n, DIRICHLET), 2e-3, 0.75)


def dense_a(solver):
    """The test-local matrix of A of a `dirichlet_2d` solver."""
    return implicit_matrix(solver.grid, 2e-3, 0.75)


def test_only_2d_dirichlet_solves_are_preconditioned(solver_2d, monkeypatch):
    dirichlet = dirichlet_2d()
    assert isinstance(dirichlet.sine, SineBasis)
    assert solver_2d.sine is None  # Neumann
    assert ImplicitSolver(build_grid(1, [1.0], 15, DIRICHLET), 2e-3, 0.75).sine is None
    # no solver holds a sparse matrix: A is the grid's stencil alone
    one_d = ImplicitSolver(build_grid(1, [1.0], 15, NEUMANN), 2e-3, 0.75)
    for solver in (solver_2d, dirichlet, one_d):
        held = [*vars(solver).values(), *(vars(solver.sine) if solver.sine else {}).values()]
        assert not any(sparse.issparse(v) for v in held)
        assert not hasattr(solver, "A")
    # the CG of a Neumann solve runs with the identity, of a Dirichlet one with the
    # diagonal 1 / (lam + c) of the sine basis, c the median of a partial contact
    seen = []
    cg = pathsolver.conjugate_gradients
    monkeypatch.setattr(pathsolver, "conjugate_gradients",
                        lambda *args: seen.append(args[4]) or cg(*args))
    d = np.full(dirichlet.n, 7.0)
    d[: dirichlet.n // 3] = 0.0
    for solver in (solver_2d, dirichlet):
        solver.solve(d[None], np.ones((1, solver.n)))
    r = np.random.default_rng(9).normal(size=dirichlet.n)
    assert len(seen) == 2 and seen[0] is identity
    assert np.array_equal(seen[1](r), r / (dirichlet.sine.lam + 7.0).reshape(-1))


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)], ids=["square", "rectangle"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_cg_operator_is_symmetric_positive_definite(bc, lengths, monkeypatch):
    grid = build_grid(2, list(lengths), 9, bc)
    solver = ImplicitSolver(grid, 2e-3, 0.75)
    rng = np.random.default_rng(12)
    # contact inside, and values up to 1e3 on the outermost nodes, as a
    # boundary penalty and Robin diagonal put there
    d = np.where(rng.random(solver.n) < 0.3, 2e-3 / 1e-4, 0.0)
    outer = np.zeros(grid.shape, dtype=bool)
    outer[[0, -1], :] = outer[:, [0, -1]] = True
    d[outer.reshape(-1)] += rng.uniform(0.0, 1e3, size=np.count_nonzero(outer))
    ops = []
    cg = pathsolver.conjugate_gradients
    monkeypatch.setattr(pathsolver, "conjugate_gradients",
                        lambda op, *args: ops.append(op) or cg(op, *args))
    solver.solve(d[None], np.ones((1, solver.n)))
    M = np.column_stack([ops[0](e) for e in np.eye(solver.n)])  # column by column
    if bc == NEUMANN:
        assert np.array_equal(M, M.T)
        # W (A + diag d), with W the trapezoid weights over h0 h1
        w = cell_weights(grid)
        assert set(w.tolist()) == {1.0, 0.5, 0.25}
        assert np.array_equal(M, w[:, None] * (implicit_matrix(grid, 2e-3, 0.75) + np.diag(d)))
    else:
        # the sine-basis operator sums its box products in other orders than
        # its transpose does, so it is symmetric up to round-off
        assert np.abs(M - M.T).max() <= 1e-15 * np.abs(M).max()
    assert np.linalg.eigvalsh(M).min() > 0.0


@pytest.mark.parametrize("n", [3, 4, 31])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_1d_bands_are_the_matrix_bands(bc, n):
    grid = build_grid(1, [1.3], n, bc)
    solver = ImplicitSolver(grid, 0.7e-3, 0.75)
    A = implicit_matrix(grid, 0.7e-3, 0.75)
    for band, k in ((solver._lower, -1), (solver._main, 0), (solver._upper, 1)):
        assert same_bits(band, np.diag(A, k)), k


def fresh_python(code: str) -> str:
    """The stdout of `code` in a fresh interpreter that imports this svilab."""
    src = str(Path(svilab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_importing_svilab_loads_no_sparse_module():
    # the package applies A as a stencil, scipy.sparse and scipy.special serve only the
    # tests' oracles, and dgtsv comes from the LAPACK extension without its package
    code = ("import pkgutil, sys, svilab\n"
            "for m in pkgutil.iter_modules(svilab.__path__): __import__('svilab.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "import scipy.linalg.lapack\n"
            "print(scipy.linalg.lapack.dgtsv is svilab.pathsolver.dgtsv)")
    assert fresh_python(code).split("\n")[:2] == ["['scipy.linalg._flapack']", "True"]


# random diagonally dominant tridiagonal systems, several right-hand sides each
GTSV_BATCH = """
import hashlib, sys
import numpy as np
from svilab.pathsolver import dgtsv
rng = np.random.default_rng(4)
digest = hashlib.sha256()
for n in (2, 3, 31, 255):
    for _ in range(8):
        dl, du = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
        *_, x, info = dgtsv(dl, 2.0 + rng.uniform(0.0, 1.0, n), du, rng.normal(size=(n, 3)))
        assert info == 0
        digest.update(x.tobytes())
print('scipy.linalg' in sys.modules, digest.hexdigest())
"""


def test_dgtsv_falls_back_to_the_public_lapack_import():
    # no extension suffix finds the _flapack file, so the loader takes scipy.linalg.lapack
    fallback = ("import importlib.machinery\n"
                "importlib.machinery.EXTENSION_SUFFIXES = []\n" + GTSV_BATCH +
                "import scipy.linalg.lapack\n"
                "assert dgtsv is scipy.linalg.lapack.dgtsv\n")
    loaded, via_file = fresh_python(GTSV_BATCH).split()
    public, via_public = fresh_python(fallback).split()
    assert (loaded, public) == ("False", "True")
    assert via_file == via_public


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)], ids=["square", "rectangle"])
def test_sine_basis_diagonalises_the_implicit_matrix(lengths):
    solver = dirichlet_2d(lengths, n=9)
    S = np.kron(solver.sine.S, solver.sine.S)  # the sine basis of C-ordered fields
    assert np.allclose(S @ S, np.eye(solver.n), rtol=0.0, atol=1e-14)
    D = S @ dense_a(solver) @ S
    lam = solver.sine.lam.reshape(-1)
    assert np.abs(D - np.diag(np.diag(D))).max() <= 1e-13 * lam.max()
    assert np.allclose(np.diag(D), lam, rtol=1e-13, atol=0.0)
    v = np.random.default_rng(10).normal(size=solver.n)
    assert np.allclose(solver.sine.transform(v), S @ v, rtol=0.0, atol=1e-14 * np.abs(v).max())


def minority(n, kind, rng, value=2e-3 / 1e-4):
    """An extra diagonal on an n x n grid that differs from its median 0 on a
    minority set of nodes, and the bounding box of that set."""
    d = np.zeros((n, n))
    if kind == "blob":  # compact, in the interior
        i, j = np.indices((n, n))
        d[(i - 5) ** 2 + (j - 7) ** 2 <= 5] = value
        box = (slice(3, 8), slice(5, 10))
    elif kind == "corner":  # touches the edges i = 0 and j = 0 at their corner
        d[:4, :6] = value
        box = (slice(0, 4), slice(0, 6))
    elif kind == "edge":  # along the edge j = n - 1
        d[5:10, n - 1] = value
        box = (slice(5, 10), slice(n - 1, n))
    elif kind == "scattered":  # its box is the whole grid
        d[rng.random((n, n)) < 0.1] = value
        d[0, 3] = d[n - 1, 2] = d[4, 0] = d[6, n - 1] = value
        box = (slice(0, n), slice(0, n))
    else:  # one node
        d[7, 3] = value
        box = (slice(7, 8), slice(3, 4))
    # values off the majority's: the box weights them by d - c, not by one value
    d[d != 0.0] *= rng.uniform(0.5, 2.0, size=np.count_nonzero(d))
    return d.reshape(-1), box


KINDS = ["blob", "corner", "edge", "scattered", "node"]


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)], ids=["square", "rectangle"])
@pytest.mark.parametrize("kind", KINDS)
def test_box_operator_equals_the_dense_sine_matrix(kind, lengths):
    solver = dirichlet_2d(lengths)
    basis, n = solver.sine, solver.sine.shape[0]
    rng = np.random.default_rng(11)
    d, box = minority(n, kind, rng)
    # the set active on a majority of dt/eps, as the inactive set near a contact
    inactive = np.where(d == 0.0, 2e-3 / 1e-4, 0.0)
    S = np.kron(basis.S, basis.S)
    for diag, c in ((d, 0.0), (inactive, 2e-3 / 1e-4)):
        assert pathsolver._median(diag) == c  # the majority value
        assert basis.box((diag - c).reshape(n, n)) == box
        dense = S @ (dense_a(solver) + np.diag(diag)) @ S
        op, shift = basis.operator(diag)
        assert np.array_equal(shift, (basis.lam + c).reshape(-1))
        for _ in range(3):
            p = rng.normal(size=solver.n)
            want = dense @ p
            assert np.abs(op(p) - want).max() <= 1e-13 * np.abs(want).max()


def extra_diags(n, rng, dt=2e-3, eps=1e-4):
    """Extra diagonals of no contact, a constant one and half the nodes active."""
    return np.stack([np.zeros(n), np.full(n, dt / eps),
                     np.where(rng.random(n) < 0.5, dt / eps, 0.0)])


def test_preconditioned_solve_matches_dense_solve():
    solver = dirichlet_2d()
    rng = np.random.default_rng(6)
    n = solver.n
    extra = np.concatenate([extra_diags(n, rng),
                            [minority(15, kind, rng)[0] for kind in KINDS]])
    b = rng.normal(size=extra.shape)
    for x0 in (None, rng.normal(size=extra.shape)):
        x, failures = solver.solve(extra, b, x0=x0)
        assert not failures
        for row in range(len(extra)):
            M = dense_a(solver) + np.diag(extra[row])
            want = np.linalg.solve(M, b[row])
            assert np.abs(x[row] - want).max() <= 1e-11 * np.abs(want).max(), row
            # the stopping test is on the residual of the system, not the preconditioned one
            resid = b[row] - M @ x[row]
            assert np.linalg.norm(resid) < 1e-12 * np.linalg.norm(b[row])


def test_preconditioned_cg_is_exact_for_a_constant_extra_diagonal(monkeypatch):
    # a constant extra diagonal c, no contact or contact everywhere, is the
    # diagonal lam + c in the sine basis: solved by division, without CG
    solver = dirichlet_2d()
    basis = solver.sine
    boxes = []
    box = SineBasis.box
    monkeypatch.setattr(SineBasis, "box", lambda self, dev: boxes.append(box(self, dev))
                        or boxes[-1])
    rng = np.random.default_rng(7)
    b = rng.normal(size=solver.n)
    for d in extra_diags(solver.n, rng)[:2]:
        M = dense_a(solver) + np.diag(d)
        with monkeypatch.context() as m:
            m.setattr(pathsolver, "conjugate_gradients", None)  # not called
            for x0 in (None, rng.normal(size=solver.n)):
                for active in (None, np.ones(solver.n, dtype=bool)):
                    x = basis.solve(d, b, x0, 0, active)  # no CG update
                    assert np.linalg.norm(b - M @ x) < 1e-12 * np.linalg.norm(b)
        # no box product: the operator is its diagonal
        op, shift = basis.operator(d)
        assert op is None and np.array_equal(shift, (basis.lam + d[0]).reshape(-1))
        with pytest.raises(NumericalFailure):  # unpreconditioned, one update is too few
            conjugate_gradients(matvec(M), b, None, 1, identity)
    assert boxes == [None] * 10


def test_preconditioned_cg_exhausted_cap_raises_the_same_message():
    solver = dirichlet_2d()
    rng = np.random.default_rng(8)
    d, b = extra_diags(solver.n, rng)[2], rng.normal(size=solver.n)
    k = next(k for k in range(1, 20 * solver.n) if _converges(solver.sine, d, b, k))
    assert 1 < k < 40
    with pytest.raises(NumericalFailure) as exc:
        solver.sine.solve(d, b, None, k - 1)
    assert str(exc.value) == f"conjugate gradients failed to converge (info={k - 1})"


def _converges(basis, d, b, maxiter):
    try:
        basis.solve(d, b, None, maxiter)
    except NumericalFailure:
        return False
    return True


def test_early_stop_gives_the_next_active_set_of_the_tight_solve(cg_stops):
    # a solve handed `active` stops before CG_RTOL only when the solve to
    # CG_RTOL has the sign of its iterate at every node and a negative set
    # other than active; otherwise it returns the tight solve's bits
    solver = dirichlet_2d()
    basis, n = solver.sine, solver.n
    rng = np.random.default_rng(14)
    stopped = []
    for case in range(60):
        d = np.where(rng.random(n) < rng.uniform(0.1, 0.9), 2e-3 / 10.0 ** rng.integers(2, 6), 0.0)
        # a solution with nodes near zero, whose signs CG settles late
        want = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        want[rng.random(n) < 0.1] *= 10.0 ** -rng.integers(2, 9)
        b = (dense_a(solver) + np.diag(d)) @ want
        x0 = rng.normal(size=n) * np.abs(want).max() if case % 3 else None
        cg_stops.clear()
        tight = basis.solve(d, b, x0, 20 * n)
        assert not any(cg_stops)
        neg = tight < 0.0
        # the tight solve's set, that set with a few nodes flipped, or a random set
        active = neg ^ (rng.random(n) < rng.choice([0.0, 0.02, 0.5]))
        x = basis.solve(d, b, x0, 20 * n, active)
        early = any(cg_stops)
        if early:
            assert np.array_equal(x < 0.0, neg) and not np.array_equal(neg, active)
        else:
            assert same_bits(x, tight)
        stopped.append(early)
    assert any(stopped) and not all(stopped)


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
    # the interior step rule with the rate, as the Stefan reduction marches it
    sol = _one(_march(g, tg, EMPTY, ReactionSpec(), ForcingSpec(), InitialData("sine", 0.0), cfg,
                      PathStack.of(paths), _pick_refinement, partial(step_interior, g, lift=rate)))
    x = g.meshes()[0]
    # quasi-steady oracle: y = r t (1-x) + v(x) with v'' = r(1-x), v(0)=v(1)=0
    v = rate * (x**2 / 2.0 - x**3 / 6.0 - x / 3.0)
    expect = rate * tg.T * (1.0 - x) + v
    assert np.max(np.abs(sol.y[-1] - expect)) <= 0.01 * rate * tg.T


def test_the_first_stored_state_is_the_evaluated_initial_datum():
    # the energy checks read the datum x as sol.y[0]: bit for bit x.evaluate(grid)
    c1 = (parse_coefficient("const(0.5) * sin(1)", [1.0]),)
    specs = [
        ProblemSpec(n=31, T=0.05, n_steps=50, coefficients=c1, seed=3,
                    initial=InitialData("sine", 1.3)),
        ProblemSpec(n=31, bc_kind=NEUMANN, T=0.05, n_steps=50, coefficients=c1, seed=3,
                    initial=InitialData("cutoff", 0.9, radius=0.2)),
        ProblemSpec(dim=2, lengths=(1.0, 1.5), n=11, T=0.02, n_steps=10, seed=3,
                    coefficients=(parse_coefficient("const(0.5) * sin(1) * cos(2)",
                                                    [1.0, 1.5]),),
                    initial=InitialData("cone", 0.3, center=(0.3, 0.6), radius=0.4)),
        # the stiff transport of test_solve_path_retries_on_stiff_transport: refined
        ProblemSpec(n=63, T=0.2, n_steps=40, seed=5,
                    coefficients=(parse_coefficient("const(1.5) * sin(2)", [1.0]),),
                    initial=InitialData("cone", 0.7, center=(0.4,), radius=0.3)),
    ]
    for spec in specs:
        sol = spec.solve(0)
        assert sol.y[0].tobytes() == spec.initial.evaluate(sol.grid).tobytes()
    assert sol.diagnostics.refine_level >= 1
    g, tg, cs, cfg = specs[0].build()
    em = _one(direct_em_batch(g, tg, cs, ReactionSpec(), ForcingSpec(), specs[0].initial, cfg,
                              specs[0].sample([0])))
    assert em.y[0].tobytes() == specs[0].initial.evaluate(g).tobytes()


def test_initial_data_center_needs_one_value_per_axis():
    g1, g2 = build_grid(1, [1.0], 15, DIRICHLET), build_grid(2, [1.0, 2.0], 7, DIRICHLET)
    for kind in ("sine", "cone", "cutoff"):
        with pytest.raises(ConfigError, match=r"center needs 2 value\(s\) on a 2D grid, got 1"):
            InitialData(kind, 1.0, center=(0.5,)).evaluate(g2)
        with pytest.raises(ConfigError, match=r"center needs 1 value\(s\) on a 1D grid, got 2"):
            InitialData(kind, 1.0, center=(0.5, 0.5)).evaluate(g1)
    assert np.array_equal(InitialData("cone", 1.0, center=(0.5, 1.0)).evaluate(g2),
                          InitialData("cone", 1.0).evaluate(g2))
    # the sine datum and the sine forcing share one product of sine modes
    x, y = g2.meshes()
    want = 0.7 * np.sin(np.pi * x / 1.0) * np.sin(np.pi * y / 2.0)
    assert InitialData("sine", 0.7).evaluate(g2).tobytes() == want.tobytes()
    assert ForcingSpec("sine", 0.7).value(g2).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("mu_cap", [float("nan"), -1.0, 0.0, float("inf")])
def test_solve_config_rejects_mu_cap_outside_zero_to_inf(mu_cap):
    # a NaN cap would never trip and a cap <= 0 fails every path at t = 0
    with pytest.raises(ConfigError) as exc:
        SolveConfig(dt=1e-3, mu_cap=mu_cap, newton_max=0)
    assert exc.value.messages == ["newton_max must be >= 1, got 0",
                                  f"mu_cap must be > 0 and finite, got {mu_cap}"]
