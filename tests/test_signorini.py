from dataclasses import replace

import numpy as np
import pytest

from svilab.errors import ConfigError
from svilab.grid import (DIRICHLET, NEUMANN, build_grid, inner, normal_derivative,
                         stiffness_inner)
from svilab.noise import CoeffSpec, TimeGrid, parse_coefficient, sample_block, sample_paths
from svilab.pathsolver import ForcingSpec, InitialData, SolveConfig, zero_coeffs
from svilab.penalty import beta_eps, graph_contains
from svilab.signorini import (
    C2_TARGET,
    PROBE_SAMPLES,
    _random_fields,
    apply_operator,
    assemble_coeffs,
    assemble_form_value,
    boundary_potential_check,
    mass,
    probe_form_constants,
    solve_signorini_path,
)
from svilab.transform import ReactionSpec

EMPTY = CoeffSpec(())


def neumann_setup(n=63, T=0.1, nt=100, eps=1e-3, **cfg_kw):
    g = build_grid(1, [1.0], n, NEUMANN)
    tg = TimeGrid(T, nt)
    cfg = SolveConfig(dt=tg.dt, eps=eps, **cfg_kw)
    return g, tg, cfg


def test_boundary_data_geometry():
    g = build_grid(2, [1.0, 2.0], 9, NEUMANN)
    hx, hy = g.h
    geom = g.flux_factor.reshape(g.shape)
    assert geom[4, 0] == pytest.approx(2.0 / hy)      # edge node, outward axis 1
    assert geom[0, 4] == pytest.approx(2.0 / hx)
    assert geom[0, 0] == pytest.approx(2.0 / hx + 2.0 / hy)
    assert np.all(geom[1:-1, 1:-1] == 0.0)
    # flux factor * node weight equals the boundary quadrature weight
    w = (g.flux_factor * g.weights)[g.boundary_mask]
    assert np.allclose(w, g.boundary_weights[g.boundary_mask])
    assert np.all(g.boundary_weights[~g.boundary_mask] == 0.0)
    gd = build_grid(1, [1.0], 9, DIRICHLET)
    assert not gd.flux_factor.any() and not gd.boundary_weights.any()
    # the probes' coefficient record is a Neumann grid's only
    with pytest.raises(ConfigError, match="need a Neumann grid"):
        assemble_coeffs(gd, EMPTY, ReactionSpec(), ForcingSpec(),
                        sample_block(TimeGrid(0.1, 10), 0, 0, [0]), 0, 30.0)


def test_normal_derivative_stencil():
    g = build_grid(1, [1.0], 63, NEUMANN)
    x = g.meshes()[0]
    # mu = x^2: dmu/dnu = -2x at x=0 -> 0, +2x at x=1 -> 2 (exact, quadratic)
    dn = normal_derivative(g, x * x)
    assert dn[0] == pytest.approx(0.0, abs=1e-12)
    assert dn[-1] == pytest.approx(2.0, abs=1e-10)
    assert np.all(dn[1:-1] == 0.0)
    # cos mode has vanishing normal derivative to O(h^2)
    dn2 = normal_derivative(g, np.cos(np.pi * x))
    assert abs(dn2[0]) <= 1e-2 and abs(dn2[-1]) <= 1e-2


def test_form_value_zero_field():
    g, tg, cfg = neumann_setup()
    coeffs = zero_coeffs(g)
    rng = np.random.default_rng(0)
    for _ in range(3):
        phi = rng.normal(size=g.n_nodes)
        assert assemble_form_value(g, coeffs, g.zeros(), phi, cfg.eps) == 0.0


def test_form_value_sine_oracle():
    # mu = 0, linear reaction: <A y, y> = int |y'|^2 + alpha int y^2
    alpha = 0.7
    g = build_grid(1, [1.0], 127, NEUMANN)
    coeffs = zero_coeffs(g, rs=ReactionSpec("linear", alpha))
    y = np.sin(np.pi * g.meshes()[0])
    val = assemble_form_value(g, coeffs, y, y, 1e-3)
    exact = np.pi**2 / 2.0 + alpha / 2.0
    assert val == pytest.approx(exact, rel=1e-3)


def test_form_matches_operator_route():
    # two assembly routes agree to machine precision
    g = build_grid(1, [1.0], 63, NEUMANN)
    tg = TimeGrid(0.1, 50)
    paths = sample_block(tg, 1, 3, [0])
    cs = CoeffSpec((parse_coefficient("const(0.8) * poly(0.5,0.3,-0.2)", [1.0]),))
    coeffs = assemble_coeffs(g, cs, ReactionSpec("linear", 0.5), ForcingSpec(), paths,
                             20, 30.0)
    rng = np.random.default_rng(1)
    eps = 1e-2
    for _ in range(5):
        y = rng.normal(size=g.n_nodes)
        phi = rng.normal(size=g.n_nodes)
        form = assemble_form_value(g, coeffs, y, phi, eps)
        op = inner(g, apply_operator(g, coeffs, y, eps), phi)
        assert form == pytest.approx(op, abs=1e-10)
    # 2D, with a corner-active field
    g2 = build_grid(2, [1.0, 1.5], 11, NEUMANN)
    cs2 = CoeffSpec((parse_coefficient("const(0.5) * poly(0.2,0.4,0.0) * cos(1)", [1.0, 1.5]),))
    paths2 = sample_block(tg, 1, 4, [0])
    coeffs2 = assemble_coeffs(g2, cs2, ReactionSpec(), ForcingSpec(), paths2,
                              10, 30.0)
    y = rng.normal(size=g2.n_nodes)
    phi = rng.normal(size=g2.n_nodes)
    form = assemble_form_value(g2, coeffs2, y, phi, eps)
    op = inner(g2, apply_operator(g2, coeffs2, y, eps), phi)
    assert form == pytest.approx(op, abs=1e-10)


def test_signorini_zero_data():
    g, tg, cfg = neumann_setup(nt=20, T=0.02)
    sol = solve_signorini_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                               InitialData("sine", 0.0), cfg, sample_paths(tg, 0, seed=0))
    assert np.all(sol.y == 0.0)


def test_signorini_mass_conservation():
    # pure-Neumann inactive regime (m=0, f=0, positive data): mass exact
    g, tg, cfg = neumann_setup(n=63, T=1.0, nt=400)
    x = InitialData("cutoff", 1.0, radius=0.2)
    sol = solve_signorini_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(), x, cfg,
                               sample_paths(tg, 0, seed=0))
    assert np.min(sol.y) >= -1e-12  # stays positive, penalty never fires
    masses = np.array([mass(g, sol.y[k]) for k in range(tg.N + 1)])
    assert np.max(np.abs(masses - masses[0])) <= 1e-6 * tg.T


def test_signorini_suction_eps_sweep():
    # negative forcing near the boundary: trace bounded below by -C eps
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        g, tg, cfg = neumann_setup(n=63, T=0.3, nt=300, eps=eps)
        f = ForcingSpec("edge", -2.0, width=0.15)
        sol = solve_signorini_path(g, tg, EMPTY, ReactionSpec(), f,
                                   InitialData("sine", 0.0), cfg,
                                   sample_paths(tg, 0, seed=0))
        eta_b = beta_eps(sol.y[:, g.boundary_mask], sol.diagnostics.eps)
        assert np.all(eta_b <= 0.0)
        trace_min = sol.y[:, g.boundary_mask].min()
        assert trace_min < 0.0  # the constraint actually engages
        ratios.append(-trace_min / eps)
        # boundary multiplier square-integral stays bounded across the sweep
        bw = np.array([1.0, 1.0])
        b_int = np.sum(eta_b[:-1] ** 2 * bw) * tg.dt
        assert np.isfinite(b_int)
    C = max(ratios)
    assert C <= 3.0 * ratios[0]  # stable linear scaling in eps
    # graph membership of the finest-eps limit proxy
    g, tg, cfg = neumann_setup(n=63, T=0.3, nt=300, eps=1e-6)
    sol = solve_signorini_path(g, tg, EMPTY, ReactionSpec(),
                               ForcingSpec("edge", -2.0, width=0.15),
                               InitialData("sine", 0.0), cfg, sample_paths(tg, 0, seed=0))
    eta_b = beta_eps(sol.y[:, g.boundary_mask], sol.diagnostics.eps)
    yb = sol.y[-1][g.boundary_mask]
    for r, e in zip(np.maximum(yb, 0.0), eta_b[-1]):
        assert graph_contains(r, e, tol_r=1e-3, tol_eta=np.inf if r <= 1e-3 else 1e-3)


def test_boundary_potential_check():
    g, tg, cfg = neumann_setup(n=63, T=0.3, nt=300, eps=1e-3)
    f = ForcingSpec("edge", -2.0, width=0.15)
    x = InitialData("sine", 0.0)
    sol = solve_signorini_path(g, tg, EMPTY, ReactionSpec(), f, x, cfg,
                               sample_paths(tg, 0, seed=0))
    ratio, ok = boundary_potential_check(sol)
    assert ok and ratio <= 1.0


def test_signorini_noisy_run_stable():
    g, tg, cfg = neumann_setup(n=31, T=0.1, nt=100)
    cs = CoeffSpec((parse_coefficient("const(0.4) * cos(1)", [1.0]),))
    paths = sample_paths(TimeGrid(0.1, 800), 1, seed=12)
    sol = solve_signorini_path(g, tg, cs, ReactionSpec(), ForcingSpec(),
                               InitialData("cutoff", 1.0, radius=0.2), cfg, paths)
    assert np.isfinite(sol.y).all()
    assert np.max(sol.diagnostics.newton_iters) <= g.n_nodes


def test_coercivity_probe_pure_dirichlet_form():
    # no mu, no reaction: <A y, y> = |grad y|^2 exactly: C2 ~ 1, C3 ~ 0
    g = build_grid(1, [1.0], 63, NEUMANN)
    coeffs = zero_coeffs(g)
    rep = probe_form_constants(g, coeffs, eps=1e30, seed=0)
    assert rep.c2 == pytest.approx(1.0, abs=1e-9)
    assert rep.c3 == pytest.approx(0.0, abs=1e-9)
    assert rep.violations == 0
    assert rep.c4 == pytest.approx(0.0, abs=1e-9)
    assert rep.c1 <= 1.0 + 1e-9  # Cauchy-Schwarz for the pure form


def test_coercivity_probe_monotone_penalty_helps():
    # adding the monotone boundary term can only increase <A y, y>
    g = build_grid(1, [1.0], 63, NEUMANN)
    coeffs = zero_coeffs(g)
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = rng.normal(size=g.n_nodes)
        without = assemble_form_value(g, coeffs, y, y, eps=1e30)
        with_pen = assemble_form_value(g, coeffs, y, y, eps=1e-3)
        assert with_pen >= without - 1e-12
    rep_pen = probe_form_constants(g, coeffs, eps=1e-3, seed=0)
    rep_off = probe_form_constants(g, coeffs, eps=1e30, seed=0)
    assert rep_pen.c2 >= rep_off.c2 - 1e-12


def test_coercivity_probe_constant_sample_closed_form():
    # y = const: the form value is reaction + boundary terms only
    alpha = 0.9
    g = build_grid(1, [1.0], 63, NEUMANN)
    coeffs = zero_coeffs(g, rs=ReactionSpec("linear", alpha))
    c = 1.7
    y = np.full(g.n_nodes, c)
    val = assemble_form_value(g, coeffs, y, y, eps=1e30)
    assert val == pytest.approx(alpha * c * c, rel=1e-12)  # alpha int y^2 = alpha c^2
    y_neg = np.full(g.n_nodes, -c)
    eps = 1e-2
    val_neg = assemble_form_value(g, coeffs, y_neg, y_neg, eps=eps)
    expected = alpha * c * c + 2.0 * (c / eps) * c  # two boundary points, weight 1
    assert val_neg == pytest.approx(expected, rel=1e-12)


def test_coercivity_probe_noisy_coefficients_no_violations():
    g = build_grid(1, [1.0], 63, NEUMANN)
    tg = TimeGrid(0.2, 100)
    paths = sample_block(tg, 1, 8, [0])
    cs = CoeffSpec((parse_coefficient("const(0.5) * cos(1)", [1.0]),))
    coeffs = assemble_coeffs(g, cs, ReactionSpec("linear", 0.3), ForcingSpec(), paths,
                             60, 30.0)
    rep = probe_form_constants(g, coeffs, eps=1e-3, seed=1)
    assert rep.violations == 0
    assert rep.c2 > 0.0


def _probe_loop(g, coeffs, eps, seed):
    """c1, c2, c3, c4 and the violations of probe_form_constants, by one form
    assembly per sample and per pair; c3_theory from the probe itself."""
    fields = _random_fields(g, np.random.default_rng(seed), PROBE_SAMPLES)
    c3_theory = probe_form_constants(g, coeffs, eps, seed=seed).c3_theory
    a_vals = np.array([assemble_form_value(g, coeffs, y, y, eps) for y in fields])
    s_vals = stiffness_inner(g, fields, fields)
    h_vals = inner(g, fields, fields)
    violations = int(np.sum(a_vals < C2_TARGET * s_vals - c3_theory * h_vals - 1e-9))
    c3 = float(max(0.0, np.max((C2_TARGET * s_vals - a_vals) / np.maximum(h_vals, 1e-300))))
    with np.errstate(divide="ignore"):
        c2 = float(min(1.0, np.min((a_vals + c3 * h_vals)
                                   / np.where(s_vals > 1e-12, s_vals, np.inf))))
    v_norms = np.sqrt(s_vals + h_vals)
    c1 = c4 = 0.0
    for i in range(0, PROBE_SAMPLES, 2):
        y, phi = fields[i], fields[i + 1]
        val = assemble_form_value(g, coeffs, y, phi, eps)
        c1 = max(c1, abs(val) / max(v_norms[i] * v_norms[i + 1], 1e-300))
        d = y - phi
        hd = inner(g, d, d)
        val = (assemble_form_value(g, coeffs, y, d, eps)
               - assemble_form_value(g, coeffs, phi, d, eps))
        if hd > 1e-14:
            c4 = max(c4, -val / hd)
    return [c1, c2, c3, c4, violations]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rs", [ReactionSpec(), ReactionSpec("linear", 0.3),
                                ReactionSpec("saturating", 0.7)])
def test_probe_on_stacks_equals_the_per_sample_loop(dim, rs):
    g = build_grid(dim, [1.0, 1.5][:dim], 63 if dim == 1 else 13, NEUMANN)
    text = "const(0.5) * cos(1)" + " * cos(2)" * (dim - 1)
    noisy = assemble_coeffs(g, CoeffSpec((parse_coefficient(text, [1.0, 1.5][:dim]),)), rs,
                            ForcingSpec(), sample_block(TimeGrid(0.2, 100), 1, 8, [0]), 60, 30.0)
    # a negative zero-order coefficient and outflux make the form non-monotone: c4 > 0
    unstable = replace(zero_coeffs(g, rs=rs), zero_order=np.full(g.n_nodes, -30.0),
                       dmu_dnu=np.full(g.n_nodes, -2.0))
    for coeffs, eps in ((noisy, 1e-3), (noisy, 1e30), (unstable, 1e30)):
        rep = probe_form_constants(g, coeffs, eps, seed=3)
        got = [rep.c1, rep.c2, rep.c3, rep.c4, rep.violations]
        assert [float(v).hex() for v in got] == [float(v).hex()
                                                 for v in _probe_loop(g, coeffs, eps, 3)]
    assert rep.c4 > 0.0


@pytest.mark.parametrize("dim, n", [(1, 63), (2, 15)])
def test_random_fields_in_one_draw_equal_the_per_sample_draws(dim, n):
    # per sample: four mode weights of scale 1/(1 + mode), then 0.1 x node noise
    g = build_grid(dim, [1.5, 1.0][:dim], n, NEUMANN)
    modes = [np.prod([np.cos(mode * np.pi * x / L) for x, L in zip(g.meshes(), g.lengths)],
                     axis=0) for mode in range(4)]
    for seed in (0, 5):
        rng = np.random.default_rng(seed)
        loop = np.empty((PROBE_SAMPLES, g.n_nodes))
        for i in range(PROBE_SAMPLES):
            f = np.zeros(g.n_nodes)
            for mode, term in enumerate(modes):
                f += rng.normal(scale=1.0 / (1 + mode)) * term
            loop[i] = f + 0.1 * rng.normal(size=g.n_nodes)
        got = _random_fields(g, np.random.default_rng(seed), PROBE_SAMPLES)
        assert got.tobytes() == loop.tobytes()
