import numpy as np
import pytest
from hypothesis import given, strategies as st

from svilab.errors import ConfigError
from svilab.grid import DIRICHLET, build_grid
from svilab.noise import TimeGrid, parse_coefficient, CoeffSpec, sample_paths, eval_mu, eval_mu_tilde, eval_mu_derivs, space_fields, PathStack
from svilab.pathsolver import PathSolution
from svilab.penalty import beta_eps
from svilab.transform import ReactionSpec, effective_reaction, effective_source, zero_order


def test_sign_preservation():
    # X = e^mu y of a path solution keeps the sign pattern of y
    rng = np.random.default_rng(1)
    mu = rng.normal(size=(5, 100))
    y = rng.normal(size=(5, 100))
    sol = PathSolution(grid=None, tg=None, y=y, eta=beta_eps(y, 1e-2), mu=mu, diagnostics=None)
    assert np.array_equal(np.sign(sol.X), np.sign(y))
    assert np.array_equal(np.sign(sol.eta_X), np.sign(sol.eta))


def test_cone_property_of_graph():
    # eta in beta(y) iff e^mu eta in beta(e^mu y): check on penalized pairs
    rng = np.random.default_rng(2)
    eps = 1e-2
    y = rng.normal(size=300)
    mu = rng.normal(size=300)
    eta = beta_eps(y, eps)
    emu = np.exp(mu)
    # positive scaling preserves sign pattern and the complementarity product
    assert np.array_equal(np.sign(emu * eta), np.sign(eta))
    assert np.array_equal((y > 0), (emu * y > 0))
    assert np.array_equal((emu * eta == 0.0), (eta == 0.0))


def test_effective_source():
    f = np.array([4.0, 4.0])
    assert np.array_equal(effective_source(np.zeros(2), f), f)
    assert np.all(effective_source(np.full(2, np.log(2.0)), f) == pytest.approx(2.0))
    assert np.all(effective_source(np.ones(2), np.zeros(2)) == 0.0)


def _reaction(rs, mu, mt, grad, lap, y):
    """effective_reaction from mu, mu~, grad mu and lap mu at one node."""
    return effective_reaction(rs, zero_order(mt, np.asarray(grad), lap), np.exp(mu), np.exp(-mu),
                              y)


def test_effective_reaction_trivial_linear():
    n = 50
    zero = np.zeros(n)
    y = np.linspace(-1, 1, n)
    rs = ReactionSpec("linear", 2.5)
    out = _reaction(rs, zero, zero, [zero], zero, y)
    assert np.allclose(out, 2.5 * y)


def test_effective_reaction_term_oracle():
    # F = 0: independently assemble the coefficient field and compare
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(1.0, 8)
    p = sample_paths(tg, 2, seed=9)
    ps = PathStack.of(p)
    cs = CoeffSpec((
        parse_coefficient("const(0.8) * sin(1)", [1.0]),
        parse_coefficient("cos(0.5,2.0) * poly(0.2,0.1,0.4)", [1.0]),
    ))
    fields = space_fields(cs, g)
    mu = eval_mu(fields, ps, range(5, 6))[0, 0]
    mt = eval_mu_tilde(fields, ps, range(5, 6))[0, 0]
    grad, lap, _ = (a[0, 0] for a in eval_mu_derivs(fields, ps, range(5, 6)))
    rng = np.random.default_rng(3)
    y = rng.normal(size=g.n_nodes)
    out = _reaction(ReactionSpec("zero"), mu, mt, grad, lap, y)
    coeff = mt - grad[0] ** 2 - lap
    assert np.allclose(out, coeff * y, rtol=1e-13)


def test_effective_reaction_linear_growth_bound():
    # |F_eff(t, y)| <= alpha_bar |y| pointwise, alpha_bar from sampled sups
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(1.0, 8)
    p = sample_paths(tg, 1, seed=10)
    ps = PathStack.of(p)
    cs = CoeffSpec((parse_coefficient("const(1.3) * sin(2)", [1.0]),))
    rs = ReactionSpec("saturating", 0.7)
    rng = np.random.default_rng(4)
    for idx in (2, 5, 8):
        fields = space_fields(cs, g)
        mu = eval_mu(fields, ps, range(idx, idx + 1))[0, 0]
        mt = eval_mu_tilde(fields, ps, range(idx, idx + 1))[0, 0]
        grad, lap, _ = (a[0, 0] for a in eval_mu_derivs(fields, ps, range(idx, idx + 1)))
        alpha_bar = rs.alpha + np.max(np.abs(mt)) + np.max(grad[0] ** 2 + np.abs(lap))
        y = rng.normal(size=g.n_nodes)
        out = _reaction(rs, mu, mt, grad, lap, y)
        assert np.all(np.abs(out) <= alpha_bar * np.abs(y) + 1e-12)


def test_effective_reaction_broadcasts_a_field_against_a_stack():
    rng = np.random.default_rng(6)
    c0, mu = rng.normal(size=(2, 20))
    Y = rng.normal(size=(3, 20))
    e, e_neg = np.exp(mu), np.exp(-mu)
    for rs in (ReactionSpec(), ReactionSpec("linear", 0.4), ReactionSpec("saturating", 0.9)):
        got = effective_reaction(rs, c0, e, e_neg, Y)
        assert np.array_equal(got, [effective_reaction(rs, c0, e, e_neg, y) for y in Y])
    # the field must broadcast to y's shape: a stack against one state does not
    for c, y in ((c0[:-1], Y), (np.stack([c0] * 2), Y), (np.stack([c0] * 3), Y[0])):
        with pytest.raises(ValueError):
            effective_reaction(ReactionSpec(), c, e, e_neg, y)


def test_effective_reaction_linear_in_y():
    n = 40
    rng = np.random.default_rng(5)
    mu, mt, gm, lm = rng.normal(size=(4, n))
    y1, y2 = rng.normal(size=(2, n))
    rs = ReactionSpec("linear", 1.1)
    f = lambda y: _reaction(rs, mu, mt, [gm], lm, y)
    assert np.allclose(f(2.0 * y1 + 3.0 * y2), 2.0 * f(y1) + 3.0 * f(y2), atol=1e-10)


def test_reaction_spec_validation():
    with pytest.raises(ConfigError):
        ReactionSpec("cubic", 1.0)
    with pytest.raises(ConfigError):
        ReactionSpec("linear", -1.0)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 3.0))
def test_reaction_lipschitz(r, rbar, alpha):
    for kind in ("zero", "linear", "saturating"):
        rs = ReactionSpec(kind, alpha)
        a = rs.value(np.array([r]))[0]
        b = rs.value(np.array([rbar]))[0]
        assert abs(a - b) <= alpha * abs(r - rbar) + 1e-12
        assert rs.value(np.array([0.0]))[0] == 0.0
