import numpy as np
import pytest
from scipy.special import erf

from svilab.errors import ConfigError
from svilab.grid import DIRICHLET, build_grid
from svilab.noise import CoeffSpec, TimeGrid, parse_coefficient, sample_paths
from svilab.pathsolver import SolveConfig
from svilab.stefan import (
    StefanData,
    baiocchi_forward,
    build_svi_source,
    extract_free_boundary,
    similarity_oracle,
    solve_stefan_svi,
)

EMPTY = CoeffSpec(())


def test_build_svi_source():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    x = g.meshes()[0]
    # all solid
    sd = StefanData(theta0=np.zeros(g.n_nodes), rho=2.0)
    assert np.all(build_svi_source(sd, g) == -2.0)
    # bump on the left half
    theta0 = np.where(x < 0.5, 1.5, 0.0)
    sd2 = StefanData(theta0=theta0, rho=1.0)
    f0 = build_svi_source(sd2, g)
    assert np.all(f0[x < 0.5] == 1.5)
    assert np.all(f0[x >= 0.5] == -1.0)
    assert np.array_equal(f0 >= 0.0, sd2.liquid_mask)
    with pytest.raises(ConfigError):
        StefanData(theta0=np.full(g.n_nodes, -1.0), rho=1.0)
    with pytest.raises(ConfigError):
        StefanData(theta0=np.zeros(g.n_nodes), rho=0.0)


def test_all_solid_stays_pinned():
    # theta0 = 0: complementarity pins the state, eta absorbs -rho
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.1, 100)
    cfg = SolveConfig(dt=tg.dt, eps=1e-4)
    sd = StefanData(theta0=np.zeros(g.n_nodes), rho=1.0)
    sol, theta, fb = solve_stefan_svi(g, tg, EMPTY, sd, cfg, sample_paths(tg, 0, seed=0))
    assert np.max(np.abs(sol.y)) <= cfg.eps * sd.rho + 1e-12
    assert np.max(np.abs(theta[1:])) <= 2.0 * sd.rho  # transient of the first step only
    assert np.all(np.isnan(fb.fronts))
    assert np.all(fb.melted_measure == 0.0)
    # multiplier absorbs the source on the solid plateau (X-variables);
    # near the Dirichlet boundary it rolls off over the sqrt(eps) layer,
    # exactly as the steady cosh profile predicts
    x = g.meshes()[0]
    plateau = (x > 0.15) & (x < 0.85)
    eta_X = sol.eta_X[-1]
    assert np.allclose(eta_X[plateau], -sd.rho, atol=1e-6)
    assert np.all(eta_X <= 0.0)


def test_extract_free_boundary_ramp():
    # synthetic y(t, x) = max(t - x, 0): front at t - tol_fb
    g = build_grid(1, [1.0], 255, DIRICHLET)
    tg = TimeGrid(0.8, 8)
    x = g.meshes()[0]
    traj = np.maximum(tg.nodes[:, None] - x[None, :], 0.0)
    tol = 1e-3
    fb = extract_free_boundary(traj, tol, g, tg)
    for n, t in enumerate(tg.nodes):
        expected = t - tol
        if expected > x[0]:
            assert fb.fronts[n] == pytest.approx(expected, abs=g.h[0])
    assert fb.max_front_drop() <= 1e-12


def test_extract_free_boundary_empty_and_components():
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.1, 1)
    zero = np.zeros((2, g.n_nodes))
    fb = extract_free_boundary(zero, 1e-3, g, tg)
    assert np.all(np.isnan(fb.fronts)) and np.all(fb.melted_measure == 0.0)
    # two bumps: component count reported, anchored one wins
    x = g.meshes()[0]
    y = np.exp(-200 * (x - 0.25) ** 2) + 0.5 * np.exp(-200 * (x - 0.75) ** 2)
    traj = np.vstack([y, y])
    anchor = x < 0.3
    fb2 = extract_free_boundary(traj, 1e-2, g, tg, anchor_mask=anchor)
    assert fb2.n_components[0] == 2
    assert fb2.fronts[0] < 0.5  # the anchored (left) component's edge


def test_similarity_oracle_root_and_scaling():
    front, profile = similarity_oracle(1.0, 1.0)
    lam = front / 2.0
    assert abs(lam * np.exp(lam**2) * erf(lam) - 1.0 / np.sqrt(np.pi)) < 1e-10
    # sqrt(t) scaling is exact
    f1, _ = similarity_oracle(1.0, 0.25)
    f4, _ = similarity_oracle(1.0, 1.0)
    assert f4 == pytest.approx(2.0 * f1, rel=1e-12)
    # St -> 0: lambda -> 0
    f_small, _ = similarity_oracle(1e-6, 1.0)
    assert f_small < 1e-2
    # profile: theta_b at the wall, 0 beyond the front
    assert profile(0.0) == pytest.approx(1.0)
    assert profile(front + 0.1) == 0.0
    with pytest.raises(ConfigError):
        similarity_oracle(-1.0, 1.0)


def test_similarity_benchmark_front():
    # deterministic melting from a heated wall reproduces 2 lambda sqrt(T)
    st = 1.0
    g = build_grid(1, [1.0], 255, DIRICHLET)
    tg = TimeGrid(0.1, 1000)
    cfg = SolveConfig(dt=tg.dt, eps=1e-6)
    sd = StefanData(theta0=np.zeros(g.n_nodes), rho=1.0, heated_boundary_temp=st)
    sol, theta, fb = solve_stefan_svi(g, tg, EMPTY, sd, cfg, sample_paths(tg, 0, seed=0))
    front_exact, profile = similarity_oracle(st, tg.T)
    assert abs(fb.fronts[-1] - front_exact) <= 0.02 * front_exact
    assert fb.max_front_drop() <= g.h[0] / 2.0
    # recovered temperature tracks the similarity profile in the liquid bulk
    x = g.meshes()[0]
    bulk = x < 0.6 * front_exact
    assert np.max(np.abs(theta[-1][bulk] - profile(x[bulk]))) <= 0.05 * st
    assert np.min(theta[-1]) >= -1e-3


def test_temperature_positive_on_liquid_and_refinement_consistency():
    st = 1.0
    front_ref = None
    for n, nt in ((127, 500), (255, 1000)):
        g = build_grid(1, [1.0], n, DIRICHLET)
        tg = TimeGrid(0.1, nt)
        cfg = SolveConfig(dt=tg.dt, eps=1e-6)
        sd = StefanData(theta0=np.zeros(g.n_nodes), rho=1.0, heated_boundary_temp=st)
        sol, theta, fb = solve_stefan_svi(g, tg, EMPTY, sd, cfg, sample_paths(tg, 0, seed=0))
        # the first-step transient dips by ~ eps*rho/dt; later slices sit at
        # the steady penalty level
        assert np.min(theta) >= -2.0 * cfg.eps * sd.rho / tg.dt
        assert np.min(theta[5:]) >= -1e-3
        x = g.meshes()[0]
        liquid = sol.y[-1] > fb.tol_fb
        interior_liquid = liquid & (x < fb.fronts[-1] - 3 * g.h[0])
        assert np.all(theta[-1][interior_liquid] > 0.0)
        if front_ref is None:
            front_ref = fb.fronts[-1]
        else:
            assert abs(fb.fronts[-1] - front_ref) <= 0.01


def test_interior_melting_monotone_and_round_trip():
    # compactly supported hot region, no boundary heating
    g = build_grid(1, [1.0], 127, DIRICHLET)
    tg = TimeGrid(0.05, 500)
    cfg = SolveConfig(dt=tg.dt, eps=1e-6)
    x = g.meshes()[0]
    theta0 = 4.0 * np.clip(1.0 - np.abs(x - 0.35) / 0.15, 0.0, 1.0)
    sd = StefanData(theta0=theta0, rho=1.0)
    sol, theta, fb = solve_stefan_svi(g, tg, EMPTY, sd, cfg, sample_paths(tg, 0, seed=0))
    # y nondecreasing in time up to the penalty dip scale
    drops = np.diff(sol.y, axis=0).min()
    assert drops >= -(cfg.eps * sd.rho + 1e-9)
    assert fb.max_front_drop() <= g.h[0] / 2.0
    # melted region grows
    assert np.all(np.diff(fb.melted_measure) >= -1e-12)
    # Baiocchi round trip: y -> theta -> integral recovers y to O(dt)+tol_fb
    y_back = baiocchi_forward(theta, fb, g, tg, mu=sol.mu, liquid0_mask=sd.liquid_mask)
    err = np.max(np.abs(y_back[-1] - sol.y[-1]))
    assert err <= 10.0 * (tg.dt * np.max(theta0) + fb.tol_fb)


def test_round_trip_trivials():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.1, 10)
    zero = np.zeros((11, g.n_nodes))
    fb = extract_free_boundary(zero, 1e-3, g, tg)
    assert np.all(baiocchi_forward(zero, fb, g, tg) == 0.0)
    # theta = 1 on an initially liquid region with a frozen front: y = t there
    mask = g.meshes()[0] < 0.4
    theta = np.ones((11, g.n_nodes)) * mask
    y = baiocchi_forward(theta, fb, g, tg, liquid0_mask=mask)
    assert np.allclose(y[-1][mask], tg.T)
    assert np.all(y[-1][~mask] == 0.0)


def test_noisy_stefan_fronts_monotone():
    g = build_grid(1, [1.0], 127, DIRICHLET)
    tg = TimeGrid(0.05, 250)
    cfg = SolveConfig(dt=tg.dt, eps=1e-6)
    x = g.meshes()[0]
    theta0 = 4.0 * np.clip(1.0 - np.abs(x - 0.35) / 0.15, 0.0, 1.0)
    sd = StefanData(theta0=theta0, rho=1.0)
    cs = CoeffSpec((parse_coefficient("const(0.4) * sin(1)", [1.0]),))
    for pid in range(3):
        paths = sample_paths(TimeGrid(0.05, 2000), 1, seed=31, path_id=pid)
        sol, theta, fb = solve_stefan_svi(g, tg, cs, sd, cfg, paths)
        assert fb.max_front_drop() <= g.h[0]
        assert np.isfinite(sol.y).all()
