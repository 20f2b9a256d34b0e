import numpy as np
import pytest

from svilab.errors import ConfigError
from svilab.grid import DIRICHLET, NEUMANN, apply_gradient, apply_laplacian, build_grid
from svilab.noise import (
    BrownianPathSet,
    CoeffSpec,
    TimeGrid,
    eval_mu,
    eval_mu_derivs,
    eval_mu_tilde,
    eval_noise,
    parse_coefficient,
    path_sup,
    path_values,
    sample_paths,
    space_fields,
)


def spec_1d(*coeff_texts, length=1.0):
    return CoeffSpec(tuple(parse_coefficient(t, [length]) for t in coeff_texts))


def test_time_grid():
    tg = TimeGrid(1.0, 4)
    assert tg.dt == 0.25
    assert np.allclose(tg.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 4)
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 0)


def test_sampling_determinism_and_shapes():
    tg = TimeGrid(1.0, 64)
    a = sample_paths(tg, 3, seed=42, path_id=7)
    b = sample_paths(tg, 3, seed=42, path_id=7)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (3, 65)
    assert np.all(a.values[:, 0] == 0.0)
    # the value/increment invariant is exact
    assert np.array_equal(np.diff(a.values, axis=1), a.increments)
    # distinct keys give distinct paths
    c = sample_paths(tg, 3, seed=42, path_id=8)
    d = sample_paths(tg, 3, seed=43, path_id=7)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)
    # component streams are keyed, so a smaller m is a prefix
    e = sample_paths(tg, 2, seed=42, path_id=7)
    assert np.array_equal(e.values, a.values[:2])


@pytest.mark.parametrize("m", [0, 1, 3])
def test_path_values_are_the_sampled_values(m):
    tg = TimeGrid(0.5, 40)
    for pid in (0, 1, 17, 9999):
        values = path_values(tg, m, 8888, pid)
        paths = sample_paths(tg, m, seed=8888, path_id=pid)
        assert values.shape == (m, tg.N + 1) and values.dtype == paths.values.dtype
        assert np.array_equal(values, paths.values)
        assert np.array_equal(paths.increments, np.diff(values, axis=1))
        if m:  # component k is the Philox stream keyed (seed, path_id, k)
            ss = np.random.SeedSequence(entropy=8888, spawn_key=(pid, m - 1))
            inc = np.sqrt(tg.dt) * np.random.Generator(np.random.Philox(ss)).standard_normal(tg.N)
            assert np.array_equal(values[m - 1, 1:], np.cumsum(inc))


def test_path_values_reject_negative_m():
    tg = TimeGrid(1.0, 8)
    with pytest.raises(ConfigError) as direct:
        path_values(tg, -1, 1)
    with pytest.raises(ConfigError) as wrapped:
        sample_paths(tg, -1, seed=1)
    assert str(direct.value) == str(wrapped.value) == "m must be >= 0, got -1"


def test_sampling_empty():
    tg = TimeGrid(1.0, 8)
    p = sample_paths(tg, 0, seed=1)
    assert p.values.shape == (0, 9)
    assert path_sup(p) == 0.0


def test_variance_monte_carlo():
    # E beta(T)^2 = T within 3 standard errors over 1e4 paths
    tg = TimeGrid(1.0, 32)
    n = 10_000
    sq = np.empty(n)
    for pid in range(n):
        sq[pid] = sample_paths(tg, 1, seed=2024, path_id=pid).values[0, -1] ** 2
    se = np.sqrt(2.0) * 1.0 / np.sqrt(n)
    assert abs(sq.mean() - 1.0) <= 3 * se


def test_mean_is_centered():
    tg = TimeGrid(2.0, 16)
    n = 10_000
    vals = np.empty(n)
    for pid in range(n):
        vals[pid] = sample_paths(tg, 1, seed=7, path_id=pid).values[0, -1]
    se = np.sqrt(2.0) / np.sqrt(n)
    assert abs(vals.mean()) <= 3 * se


def test_coarsen_is_exact_restriction():
    tg = TimeGrid(1.0, 64)
    p = sample_paths(tg, 2, seed=5, path_id=0)
    c = p.coarsen(4)
    assert c.tg.N == 16
    assert np.array_equal(c.values, p.values[:, ::4])
    assert np.array_equal(np.diff(c.values, axis=1), c.increments)
    with pytest.raises(ValueError):
        p.coarsen(5)


def test_path_sup():
    tg = TimeGrid(1.0, 2)
    p = sample_paths(tg, 1, seed=0)
    manual = BrownianPathSet(
        tg=tg, m=1, seed=0, path_id=0,
        values=np.array([[0.0, 0.3, -0.7]]),
        increments=np.array([[0.3, -1.0]]),
    )
    assert path_sup(manual) == pytest.approx(0.7)
    assert path_sup(p) >= abs(p.values[0, -1])


def test_parse_coefficient_errors():
    with pytest.raises(ConfigError):
        parse_coefficient("const(1.0)", [1.0, 1.0])  # missing space factors
    with pytest.raises(ConfigError):
        parse_coefficient("ramp(1.0) * sin(1)", [1.0])
    with pytest.raises(ConfigError):
        parse_coefficient("const(1.0) * sin(1,2)", [1.0])
    with pytest.raises(ConfigError):
        parse_coefficient("const(x) * sin(1)", [1.0])


def test_eval_mu_trivial_cases():
    g = build_grid(1, [1.0], 15, DIRICHLET)
    tg = TimeGrid(1.0, 10)
    p = sample_paths(tg, 1, seed=3)
    cs0 = spec_1d("const(0.0) * const(1.0)")
    assert np.all(eval_mu(space_fields(cs0, g), [p], range(5, 6))[0, 0] == 0.0)
    cs = spec_1d("const(2.5) * const(1.0)")
    assert np.all(eval_mu(space_fields(cs, g), [p], range(0, 1))[0, 0] == 0.0)  # beta(0) = 0
    expect = 2.5 * p.values[0, 4]
    assert np.allclose(eval_mu(space_fields(cs, g), [p], range(4, 5))[0, 0], expect)
    with pytest.raises(ValueError):
        two = spec_1d("const(1.0) * const(1.0)", "const(1.0) * const(1.0)")
        eval_mu(space_fields(two, g), [p], range(4, 5))[0, 0]


def test_eval_mu_tilde():
    g = build_grid(1, [1.0], 15, DIRICHLET)
    tg = TimeGrid(1.0, 10)
    p = sample_paths(tg, 1, seed=4)
    # time-constant mu: mu~ = mu^2/2
    c = 1.7
    cs = spec_1d(f"const({c}) * const(1.0)")
    t = tg.nodes[6]
    assert np.allclose(eval_mu_tilde(space_fields(cs, g), [p], range(6, 7))[0, 0], 0.5 * c * c)
    # mu = t * b(xi): mu~ = b*beta(t) + t^2 b^2 / 2
    cs2 = spec_1d("linear(0.0,1.0) * sin(1)")
    x = g.meshes()[0]
    b = np.sin(np.pi * x)
    expect = b * p.values[0, 6] + 0.5 * t * t * b * b
    assert np.allclose(eval_mu_tilde(space_fields(cs2, g), [p], range(6, 7))[0, 0], expect)
    zero = space_fields(spec_1d("const(0.0) * const(1.0)"), g)
    assert np.all(eval_mu_tilde(zero, [p], range(6, 7))[0, 0] == 0.0)


def test_eval_mu_derivs_analytic():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(1.0, 10)
    p = sample_paths(tg, 1, seed=5)
    # spatially constant coefficient: all derivatives vanish
    fields = space_fields(spec_1d("const(2.0) * const(3.0)"), g)
    grad, lap, gvec = (a[0, 0] for a in eval_mu_derivs(fields, [p], range(3, 4)))
    assert np.all(grad[0] == 0.0) and np.all(lap == 0.0) and np.all(gvec[0] == 0.0)
    # sine mode: exact analytic derivatives
    cs = spec_1d("const(1.0) * sin(1)")
    grad, lap, gvec = (a[0, 0] for a in eval_mu_derivs(space_fields(cs, g), [p], range(3, 4)))
    x = g.meshes()[0]
    beta = p.values[0, 3]
    assert np.allclose(grad[0], np.pi * np.cos(np.pi * x) * beta)
    assert np.allclose(lap, -np.pi**2 * np.sin(np.pi * x) * beta)
    assert np.allclose(gvec[0], -2.0 * grad[0])


def test_analytic_derivs_match_grid_operators():
    # cross-check against the grid module's finite differences, O(h^2)
    g = build_grid(1, [1.0], 255, DIRICHLET)
    tg = TimeGrid(1.0, 8)
    p = sample_paths(tg, 2, seed=6)
    cs = spec_1d("const(0.7) * sin(2)", "linear(0.2,0.5) * poly(0.1,0.3,-0.2)")
    fields = space_fields(cs, g)
    mu = eval_mu(fields, [p], range(5, 6))[0, 0]
    grad, lap, _ = (a[0, 0] for a in eval_mu_derivs(fields, [p], range(5, 6)))
    fd_grad = apply_gradient(g, mu)[0]
    fd_lap = apply_laplacian(g, mu)
    scale = max(np.max(np.abs(grad[0])), 1e-12)
    assert np.max(np.abs(fd_grad - grad[0])) / scale <= 5e-4
    # Dirichlet ghost handling is wrong for a field not vanishing on the
    # boundary, so compare the Laplacian strictly inside
    scale = max(np.max(np.abs(lap)), 1e-12)
    assert np.max(np.abs(fd_lap[2:-2] - lap[2:-2])) / scale <= 5e-4


def test_delta_squared_band():
    # E delta^2 in [T, 4T]: lower bound E beta(T)^2, upper Doob's L2
    tg = TimeGrid(1.0, 256)
    n = 2000
    d2 = np.empty(n)
    for pid in range(n):
        d2[pid] = path_sup(sample_paths(tg, 1, seed=11, path_id=pid)) ** 2
    mean = d2.mean()
    assert 1.0 <= mean <= 4.0


@pytest.mark.parametrize("dim, texts", [
    (1, ("cos(0.5,2.0) * sin(2)", "linear(0.2,0.5) * poly(0.1,0.3,-0.2)", "const(0.7) * cos(1)")),
    (2, ("cos(0.4,3.0) * sin(1) * cos(2)", "linear(0.1,-0.6) * poly(0.2,0.4,0.1) * sin(1)")),
])
def test_block_rows_equal_one_row_blocks(dim, texts):
    lengths = [1.0, 1.5][:dim]
    g = build_grid(dim, lengths, 9, NEUMANN)
    fields = space_fields(CoeffSpec(tuple(parse_coefficient(t, lengths) for t in texts)), g)
    p, q = (sample_paths(TimeGrid(0.3, 12), len(texts), seed=21, path_id=i) for i in (0, 1))
    for fn in (eval_mu, eval_mu_tilde, eval_noise, lambda *a: eval_mu_derivs(*a)[0],
               lambda *a: eval_mu_derivs(*a)[1], lambda *a: eval_mu_derivs(*a)[2]):
        block = fn(fields, [p], range(3, 13))  # through the last node
        assert block.shape[:2] == (10, 1) and block.shape[-1] == g.n_nodes
        for i, n in enumerate(range(3, 13)):
            assert np.array_equal(block[i], fn(fields, [p], range(n, n + 1))[0])
        # each path of a stack gets what it gets alone
        both = fn(fields, [p, q], range(3, 13))
        assert np.array_equal(both[:, :1], block)
        assert np.array_equal(both[:, 1:], fn(fields, [q], range(3, 13)))
    # the noise factor of node n uses the increment to n + 1, and none at the last node
    last = eval_noise(fields, [p], range(12, 13))[0, 0]
    assert np.all(last == 0.0)
    one = eval_noise(fields, [p], range(4, 5))[0, 0]
    expect = sum(p.increments[k, 4] * c.time.value(4 * p.tg.dt) * fields.value[k]
                 for k, c in enumerate(fields.coefficients))
    assert np.allclose(one, expect, rtol=1e-14, atol=0.0)
