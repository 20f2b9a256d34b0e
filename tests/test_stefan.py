from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from svilab import verify
from svilab.cli import parse_config
from svilab.errors import ConfigError, NumericalFailure
from svilab.grid import DIRICHLET, NEUMANN, build_grid
from svilab.noise import CoeffSpec, TimeGrid, parse_coefficient, sample_block, sample_paths
from svilab.pathsolver import SolveConfig
from svilab.stefan import (
    StefanData,
    _reduction,
    baiocchi_forward,
    build_svi_source,
    extract_free_boundary,
    recover_temperature,
    similarity_oracle,
    solve_stefan_batch,
    solve_stefan_svi,
)

from test_batch import _assert_same

ROOT = Path(__file__).resolve().parent.parent

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


def test_the_reduction_rejects_a_grid_it_cannot_lift():
    tg = TimeGrid(0.1, 10)
    cfg = SolveConfig(dt=tg.dt)
    paths = sample_paths(tg, 0, seed=0)
    gn = build_grid(1, [1.0], 31, NEUMANN)
    with pytest.raises(ConfigError, match="the Stefan reduction lives on a Dirichlet grid"):
        solve_stefan_svi(gn, tg, EMPTY, StefanData(theta0=gn.zeros(), rho=1.0), cfg, paths)
    # the heated boundary's lift is a 1D ghost value; this is its only dimension check
    g2 = build_grid(2, [1.0, 1.0], 7, DIRICHLET)
    sd = StefanData(theta0=g2.zeros(), rho=1.0, heated_boundary_temp=1.0)
    with pytest.raises(ConfigError, match="the heated-boundary benchmark is 1D only"):
        solve_stefan_svi(g2, tg, EMPTY, sd, cfg, paths)


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


def _front_loop(traj_y, tol_fb, grid, tg, anchor_mask=None):
    """extract_free_boundary as it was: a per-step loop over the lists of melted runs."""
    n_t = traj_y.shape[0]
    fronts = np.full(n_t, np.nan)
    measure = np.zeros(n_t)
    n_comp = np.zeros(n_t, dtype=int)
    xs = grid.meshes()[0] if grid.dim == 1 else None
    for n in range(n_t):
        y = traj_y[n]
        melted = y > tol_fb
        measure[n] = float(np.sum(grid.weights[melted]))
        if grid.dim != 1:
            n_comp[n] = -1
            continue
        edges = np.flatnonzero(np.diff(np.concatenate([[0], melted.astype(np.int8), [0]])))
        runs = list(zip(edges[0::2].tolist(), edges[1::2].tolist()))
        n_comp[n] = len(runs)
        if not runs:
            continue
        if anchor_mask is not None and np.any(anchor_mask & melted):
            anchored = [r for r in runs if np.any(anchor_mask[r[0]:r[1]])]
            run = anchored[0] if anchored else runs[int(np.argmax([y[a:b].max() for a, b in runs]))]
        else:
            peak = int(np.argmax(y))
            run = next((r for r in runs if r[0] <= peak < r[1]), runs[0])
        last = run[1] - 1
        if last + 1 < grid.n_nodes:
            y0, y1 = y[last], y[last + 1]
            frac = (y0 - tol_fb) / (y0 - y1) if y0 != y1 else 0.0
            fronts[n] = xs[last] + frac * grid.h[0]
        else:
            fronts[n] = xs[last]
    return fronts, measure, n_comp


def _assert_front_is_the_loop(traj_y, tol_fb, grid, anchor_mask=None):
    tg = TimeGrid(1.0, 1)  # carried, not read
    fb = extract_free_boundary(traj_y, tol_fb, grid, tg, anchor_mask=anchor_mask)
    want = _front_loop(traj_y, tol_fb, grid, tg, anchor_mask)
    for key, arr in zip(("fronts", "melted_measure", "n_components"), want):
        got = getattr(fb, key)
        assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), key
    return fb


def test_free_boundary_equals_the_step_loop():
    rng = np.random.default_rng(29)
    with np.errstate(all="raise"):
        for case in range(1500):
            n = int(rng.integers(3, 40))
            g = build_grid(1, [float(rng.uniform(0.5, 3.0))], n, DIRICHLET)
            # one decimal, so peaks tie and neighbours share values
            traj = np.round(rng.normal(size=(int(rng.integers(1, 7)), n)), 1)
            tol = (0.0, 0.3, -0.1)[case % 3]
            anchor = (None, rng.random(n) < 0.3,
                      (rng.random(n) < 0.5) & ~(traj > tol).any(axis=0))[case // 3 % 3]
            _assert_front_is_the_loop(traj, tol, g, anchor)
        g2 = build_grid(2, [1.0, 1.5], 7, DIRICHLET)
        fb = _assert_front_is_the_loop(rng.normal(size=(5, g2.n_nodes)), 0.1, g2)
        assert np.isnan(fb.fronts).all() and (fb.n_components == -1).all()
    # the lab's own melts: the heated-wall benchmark and the noisy interior paths
    run = parse_config(ROOT / "configs" / "stefan_benchmark.cfg")
    g, tg, cs, cfg = run.spec.build()
    sd = StefanData(theta0=run.theta0.evaluate(g), rho=run.rho,
                    heated_boundary_temp=run.boundary_temp)
    *_, anchor, tol = _reduction(g, sd, cfg, None)
    ((sol, _),) = solve_stefan_batch(g, tg, cs, sd, cfg, run.spec.sample([0]))
    assert np.isfinite(_assert_front_is_the_loop(sol.y, tol, g, anchor).fronts[1:]).all()
    g, tg, cs, sd, cfg, paths = _noisy_interior()
    *_, anchor, tol = _reduction(g, sd, cfg, None)
    for sol, _ in solve_stefan_batch(g, tg, cs, sd, cfg, paths):
        _assert_front_is_the_loop(sol.y, tol, g, anchor)
    # two melted anchored runs: the first wins over the taller second
    g = build_grid(1, [1.0], 9, DIRICHLET)
    y = np.array([[0.0, 1.0, 0.5, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0]])
    anchor = np.isin(np.arange(9), (2, 6))
    fb = _assert_front_is_the_loop(y, 0.1, g, anchor)
    assert fb.fronts[0] == g.meshes()[0][2] + (0.5 - 0.1) / 0.5 * g.h[0]
    # an anchor that is not melted: the peak's run wins
    fb = _assert_front_is_the_loop(y, 0.1, g, np.arange(9) == 4)
    assert fb.fronts[0] == g.meshes()[0][6] + (3.0 - 0.1) / 3.0 * g.h[0]
    assert list(fb.n_components) == [2]


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



def scipy_erf_front(st, t):
    """The oracle's bisection with scipy.special.erf in place of math.erf."""
    def residual(lam):
        return lam * np.exp(lam * lam) * erf(lam) - st / np.sqrt(np.pi)

    lo, hi = 0.0, 1.0
    while residual(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            break
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 2.0 * (0.5 * (lo + hi)) * np.sqrt(t)


@pytest.mark.parametrize("t", [0.1, 0.25, 1.0])
@pytest.mark.parametrize("st", [1e-6, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0])
def test_similarity_front_is_the_scipy_erf_bisection(st, t):
    # math.erf and scipy's erf differ by an ulp on some inputs, far from the root
    # the residual's sign does not: the front, verify's reference, keeps its bits
    front, profile = similarity_oracle(st, t)
    assert front.hex() == scipy_erf_front(st, t).hex()
    x = np.linspace(0.0, front, 33)[:-1]
    lam = front / (2.0 * np.sqrt(t))
    expected = st * (1.0 - erf(x / (2.0 * np.sqrt(t))) / erf(lam))
    assert np.allclose(profile(x), expected, rtol=1e-13, atol=1e-15 * st)

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


def _baiocchi_loop(theta, fb, grid, tg, mu=None, liquid0_mask=None):
    """baiocchi_forward as one crossing update and one accumulation per time step."""
    z = theta if mu is None else np.exp(-mu) * theta
    xs = grid.meshes()[0]
    crossing = np.full(theta.shape[1], np.inf)
    if liquid0_mask is not None:
        crossing[liquid0_mask] = 0.0
    for n, f in enumerate(fb.fronts):
        if not np.isnan(f):
            crossing[(xs <= f) & (crossing == np.inf)] = tg.nodes[n]
    out, acc = np.zeros_like(theta), np.zeros(theta.shape[1])
    for n in range(1, theta.shape[0]):
        acc = acc + tg.dt * np.where(tg.nodes[n - 1] >= crossing, z[n], 0.0)
        out[n] = acc
    return out


def test_baiocchi_forward_equals_the_step_loop():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.1, 20)
    rng = np.random.default_rng(3)
    theta = rng.uniform(-0.5, 2.0, size=(tg.N + 1, g.n_nodes))
    theta[1, :5] = -0.0  # a -0.0 first contribution, which the loop's +0.0 start makes +0.0
    mu = rng.normal(scale=0.3, size=theta.shape)
    fronts = np.full(tg.N + 1, np.nan)
    fronts[4:] = np.linspace(0.1, 0.8, tg.N - 3)
    fronts[9] = 0.3  # a retreat: crossings keep their first time
    fb = replace(extract_free_boundary(theta, 1e-3, g, tg), fronts=fronts)
    mask = g.meshes()[0] < 0.2
    for kw in ({}, {"mu": mu}, {"liquid0_mask": mask}, {"mu": mu, "liquid0_mask": mask}):
        got = baiocchi_forward(theta, fb, g, tg, **kw)
        assert got.tobytes() == _baiocchi_loop(theta, fb, g, tg, **kw).tobytes(), kw
    assert not np.signbit(baiocchi_forward(theta, fb, g, tg, liquid0_mask=mask)[1, :5]).any()
    # a melt that the lab solved, with its own front and noise exponent
    gi, tgi, cfgi, sdi = verify._interior_melting()
    paths = sample_block(NOISY_TG, 1, 31, [0])
    sol, fbi = solve_stefan_batch(gi, tgi, CoeffSpec((parse_coefficient("const(0.4) * sin(1)",
                                                                        [1.0]),)),
                                  sdi, cfgi, paths)[0]
    theta = recover_temperature(sol)
    args = (theta, fbi, gi, tgi)
    assert (baiocchi_forward(*args, mu=sol.mu, liquid0_mask=sdi.liquid_mask).tobytes()
            == _baiocchi_loop(*args, mu=sol.mu, liquid0_mask=sdi.liquid_mask).tobytes())


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


NOISY_TG = TimeGrid(0.05, 4000)  # the sampling grid of the noisy interior melt


def _noisy_interior():
    """The noisy interior melt of the acceptance check and its three paths,
    one stack; path set pid of a solo solve is sample_paths(NOISY_TG, 1, 31, pid)."""
    g, tg, cfg, sd = verify._interior_melting()
    cs = CoeffSpec((parse_coefficient("const(0.4) * sin(1)", [1.0]),))
    return g, tg, cs, sd, cfg, sample_block(NOISY_TG, 1, 31, range(3))


def _assert_same_melt(got, want):
    (sol, fb), (sol0, theta0, fb0) = got, want
    _assert_same([sol], [sol0])  # y, eta, mu and the diagnostics
    assert np.array_equal(recover_temperature(sol), theta0)
    for key in ("fronts", "melted_measure", "n_components"):
        assert np.array_equal(getattr(fb, key), getattr(fb0, key), equal_nan=key == "fronts"), key
    assert fb.tol_fb == fb0.tol_fb and fb.tg == fb0.tg


def test_stefan_batch_equals_solo_solves():
    # every noisy front of the acceptance check is monotone, so its row reads
    # 0.0 whatever the march does: compare the solves themselves
    g, tg, cs, sd, cfg, paths = _noisy_interior()
    batch = solve_stefan_batch(g, tg, cs, sd, cfg, paths)
    assert len(batch) == len(paths.values)
    for pid, got in enumerate(batch):
        _assert_same_melt(got, solve_stefan_svi(g, tg, cs, sd, cfg,
                                                sample_paths(NOISY_TG, 1, 31, pid)))
        assert np.isfinite(got[1].fronts[-1])
    # the boundary lift and the front's anchor take the same route: the front
    # follows the first liquid bump, while y peaks in the taller second one
    gh = build_grid(1, [1.0], 31, DIRICHLET)
    tgh = TimeGrid(0.02, 50)
    cfgh = SolveConfig(dt=tgh.dt, eps=1e-5)
    x = gh.meshes()[0]
    bumps = np.clip(1.0 - np.abs(x - 0.3) / 0.1, 0.0, 1.0) + 4.0 * np.clip(
        1.0 - np.abs(x - 0.7) / 0.1, 0.0, 1.0)
    sdh = StefanData(theta0=bumps, rho=5.0, heated_boundary_temp=1.0)
    (got,) = solve_stefan_batch(gh, tgh, EMPTY, sdh, cfgh, sample_block(tgh, 0, 0, [0]),
                                tol_fb=1e-4)
    _assert_same_melt(got, solve_stefan_svi(gh, tgh, EMPTY, sdh, cfgh, sample_paths(tgh, 0, seed=0),
                                            tol_fb=1e-4))
    assert got[1].fronts[-1] < 0.5 < x[np.argmax(got[0].y[-1])]


def test_stefan_batch_failure_leaves_only_its_path():
    # |mu| = 0.4 |W(t)| sin(pi x) peaks at 0.080, 0.068 and 0.057 on the three
    # paths: a cap of 0.07 stops path 0 alone
    g, tg, cs, sd, cfg, paths = _noisy_interior()
    capped = replace(cfg, mu_cap=0.07)
    batch = solve_stefan_batch(g, tg, cs, sd, capped, paths)
    with pytest.raises(NumericalFailure) as solo:
        solve_stefan_svi(g, tg, cs, sd, capped, sample_paths(NOISY_TG, 1, 31, 0))
    assert type(batch[0]) is type(solo.value) and str(batch[0]) == str(solo.value)
    for pid in (1, 2):
        _assert_same_melt(batch[pid], solve_stefan_svi(g, tg, cs, sd, capped,
                                                       sample_paths(NOISY_TG, 1, 31, pid)))
