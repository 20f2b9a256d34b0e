import numpy as np
import pytest

import svilab
from svilab import noise
from svilab.errors import ConfigError
from svilab.grid import DIRICHLET, NEUMANN, apply_gradient, apply_laplacian, build_grid
from svilab.noise import (
    BrownianPathSet,
    CoeffSpec,
    PathStack,
    TimeGrid,
    eval_mu,
    eval_mu_derivs,
    eval_mu_tilde,
    eval_noise,
    parse_coefficient,
    path_sup,
    philox_key,
    sample_block,
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
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (3, 65)
    assert np.all(a.values[:, 0] == 0.0)
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
    for pid in (0, 1, 17, 9999, 2**32 - 1, 2**32 + 1):
        values = sample_paths(tg, m, seed=8888, path_id=pid).values
        assert values.shape == (m, tg.N + 1) and values.dtype == np.float64
        assert np.all(values[:, 0] == 0.0)
        for k in range(m):  # component k is the Philox stream keyed (seed, path_id, k)
            ss = np.random.SeedSequence(entropy=8888, spawn_key=(pid, k))
            inc = np.sqrt(tg.dt) * np.random.Generator(np.random.Philox(ss)).standard_normal(tg.N)
            assert np.array_equal(values[k, 1:], np.cumsum(inc))


def test_path_values_reject_negative_m():
    with pytest.raises(ConfigError) as exc:
        sample_paths(TimeGrid(1.0, 8), -1, seed=1)
    assert str(exc.value) == "m must be >= 0, got -1"


def test_sampling_empty():
    tg = TimeGrid(1.0, 8)
    p = sample_paths(tg, 0, seed=1)
    assert p.values.shape == (0, 9) and p.m == 0
    assert path_sup(PathStack.of(p)).tolist() == [0.0]


def test_variance_monte_carlo():
    # E beta(T)^2 = T within 3 standard errors over 1e4 paths
    tg = TimeGrid(1.0, 32)
    n = 10_000
    sq = sample_block(tg, 1, 2024, range(n)).values[:, 0, -1] ** 2
    se = np.sqrt(2.0) * 1.0 / np.sqrt(n)
    assert abs(sq.mean() - 1.0) <= 3 * se


def test_mean_is_centered():
    tg = TimeGrid(2.0, 16)
    n = 10_000
    vals = sample_block(tg, 1, 7, range(n)).values[:, 0, -1]
    se = np.sqrt(2.0) / np.sqrt(n)
    assert abs(vals.mean()) <= 3 * se


def _seed_sequence_key(seed, path_id, k):
    return np.random.SeedSequence(seed, spawn_key=(path_id, k)).generate_state(2, np.uint64)


def _random_int(rng, max_bits):
    """A nonnegative int of a random bit length up to max_bits."""
    bits = int(rng.integers(0, max_bits + 1))
    return int.from_bytes(rng.bytes(24), "little") >> (192 - bits)


def test_philox_key_is_the_seed_sequence_key():
    # seeds of 1 to 5 words (beyond the pool of 4), ids of 1 or 2 words, k of
    # 1 or 2 words: each (seed, k) keys an array of ids of mixed widths
    rng = np.random.default_rng(2026)
    pairs = [(_random_int(rng, 160), _random_int(rng, 3)) for _ in range(150)]
    pairs += [(0, 0), (2**32, 1), (2**64 - 1, 2**32), (2**128, 2**32 + 1)]
    assert sum(s >= 2**32 for s, _ in pairs) >= 100 and max(s for s, _ in pairs) >= 2**128
    assert sum(k >= 1 for _, k in pairs) >= len(pairs) // 2
    n_wide = 0
    for seed, k in pairs:
        ids = [_random_int(rng, 64) for _ in range(4)] + [0, 2**32 - 1, 2**32, 2**64 - 1]
        n_wide += sum(i >= 2**32 for i in ids)
        keys = philox_key(seed, np.array(ids, dtype=np.uint64), k)
        assert np.array_equal(keys, [_seed_sequence_key(seed, pid, k) for pid in ids])
    assert n_wide >= 2 * len(pairs) + 100


def test_philox_key_of_an_id_array_gives_each_id_its_words():
    rng = np.random.default_rng(7)
    for seed in (0, 8888, 2**40 + 3, 2**130 + 5):
        ids = [_random_int(rng, 64) for _ in range(60)] + [2**32 - 1, 2**32, 2**64 - 1]
        for k in (0, 2):
            keys = philox_key(seed, np.array(ids, dtype=np.uint64), k)
            assert keys.shape == (len(ids), 2) and keys.dtype == np.uint64
            want = [_seed_sequence_key(seed, pid, k) for pid in ids]
            assert np.array_equal(keys, want)
    with pytest.raises(ValueError):
        philox_key(-1, np.zeros(1, dtype=np.uint64), 0)
    with pytest.raises(ValueError):
        sample_block(TimeGrid(1.0, 4), 1, 0, [3, -1])


def test_block_ids_from_2_to_the_64_are_a_value_error():
    tg = TimeGrid(1.0, 4)
    for ids in ([2**64], [0, 2**64 + 5], range(2**64 - 1, 2**64 + 1),
                np.array([1, 2**64], dtype=object)):
        with pytest.raises(ValueError) as exc:
            sample_block(tg, 1, 0, ids)
        assert str(exc.value) == "a block's path ids must lie below 2**64"
    with pytest.raises(ValueError) as exc:
        sample_paths(tg, 1, 0, 2**64)
    assert str(exc.value) == "a block's path ids must lie below 2**64"
    top = sample_block(tg, 1, 0, [2**64 - 1])
    assert np.array_equal(top.values[0], sample_paths(tg, 1, 0, 2**64 - 1).values)


@pytest.mark.parametrize("ids", [[1.5], [0, 2.0], [[1, 2], [3, 4]], np.array([[1], [2]]),
                                 ["3"], np.array([0, 1.5], dtype=object)])
def test_block_ids_that_are_not_integers_are_a_type_error(ids):
    with pytest.raises(TypeError, match="a path id must be an integer, got "):
        sample_block(TimeGrid(1.0, 4), 1, 0, ids)


def test_block_ids_may_be_any_integer_sequence():
    tg = TimeGrid(1.0, 4)
    want = sample_block(tg, 2, 5, [0, 3, 2**40]).values
    for ids in (np.array([0, 3, 2**40]), np.array([0, 3, 2**40], dtype=np.uint64),
                np.array([0, 3, 2**40], dtype=object), (np.int32(0), np.uint8(3), 2**40)):
        assert np.array_equal(sample_block(tg, 2, 5, ids).values, want)
    for empty in ([], np.asarray([]), range(0)):
        assert sample_block(tg, 2, 5, empty).values.shape == (0, 2, 5)
    with pytest.raises(TypeError, match="a path id must be an integer, got 1.0"):
        sample_paths(tg, 1, 0, 1.0)


def test_sample_paths_draws_through_sample_block(monkeypatch):
    def raising(*args):
        raise RuntimeError("drawn by sample_block")

    monkeypatch.setattr(noise, "sample_block", raising)
    with pytest.raises(RuntimeError, match="drawn by sample_block"):
        sample_paths(TimeGrid(1.0, 4), 1, 0, 3)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_block_draws_equal_sample_paths(m):
    tg = TimeGrid(0.5, 40)
    ids = [0, 5, 17, 9999, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 4]  # crossing 2**32
    block = sample_block(tg, m, 8888, ids)
    assert isinstance(block, PathStack) and block.tg == tg and block.m == m
    assert block.values.shape == (len(ids), m, tg.N + 1)
    for row, pid in zip(block.values, ids):
        assert np.array_equal(row, sample_paths(tg, m, 8888, pid).values)
    assert np.array_equal(sample_block(tg, m, 8888, ids[::-1]).values, block.values[::-1])
    assert sample_block(tg, m, 8888, []).values.shape == (0, m, tg.N + 1)


def test_path_sup_of_a_stack_is_per_path():
    tg = TimeGrid(1.0, 64)
    for m in (0, 2):
        block = sample_block(tg, m, 3, range(6))
        sups = path_sup(block)
        assert sups.shape == (6,)
        assert sups.tolist() == [path_sup(PathStack.of(sample_paths(tg, m, 3, pid)))[0]
                                 for pid in range(6)]
    manual = PathStack(TimeGrid(1.0, 2), np.array([[[0.0, 0.3, -0.7]], [[0.0, 0.2, 0.1]]]))
    assert path_sup(manual).tolist() == [0.7, 0.2]


def test_stack_take_and_evaluator_count_check():
    tg = TimeGrid(1.0, 8)
    two = sample_paths(tg, 2, seed=1, path_id=1)
    s = sample_block(tg, 2, 1, [1, 2])
    assert s.values.shape == (2, 2, 9) and np.array_equal(s.values[0], two.values)
    assert np.array_equal(s.take(np.array([1])).values, s.values[1:])
    assert np.array_equal(PathStack.of(two).values, s.values[:1])
    g = build_grid(1, [1.0], 7, DIRICHLET)
    with pytest.raises(ValueError) as exc:  # a stack against fields of another count
        eval_mu(space_fields(spec_1d("const(1.0) * const(1.0)"), g), s, range(2))
    assert str(exc.value) == "coefficient count 1 does not match path count 2"


def test_path_sup():
    tg = TimeGrid(1.0, 2)
    p = sample_paths(tg, 1, seed=0)
    manual = BrownianPathSet(
        tg=tg, seed=0, path_id=0,
        values=np.array([[0.0, 0.3, -0.7]]),
    )
    assert manual.m == 1  # read from the values
    assert path_sup(PathStack.of(manual)).tolist() == [pytest.approx(0.7)]
    assert path_sup(PathStack.of(p))[0] >= abs(p.values[0, -1])


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
    ps = PathStack.of(p)
    cs0 = spec_1d("const(0.0) * const(1.0)")
    assert np.all(eval_mu(space_fields(cs0, g), ps, range(5, 6))[0, 0] == 0.0)
    cs = spec_1d("const(2.5) * const(1.0)")
    assert np.all(eval_mu(space_fields(cs, g), ps, range(0, 1))[0, 0] == 0.0)  # beta(0) = 0
    expect = 2.5 * p.values[0, 4]
    assert np.allclose(eval_mu(space_fields(cs, g), ps, range(4, 5))[0, 0], expect)
    with pytest.raises(ValueError):
        two = spec_1d("const(1.0) * const(1.0)", "const(1.0) * const(1.0)")
        eval_mu(space_fields(two, g), ps, range(4, 5))[0, 0]


def test_eval_mu_tilde():
    g = build_grid(1, [1.0], 15, DIRICHLET)
    tg = TimeGrid(1.0, 10)
    p = sample_paths(tg, 1, seed=4)
    ps = PathStack.of(p)
    # time-constant mu: mu~ = mu^2/2
    c = 1.7
    cs = spec_1d(f"const({c}) * const(1.0)")
    t = tg.nodes[6]
    assert np.allclose(eval_mu_tilde(space_fields(cs, g), ps, range(6, 7))[0, 0], 0.5 * c * c)
    # mu = t * b(xi): mu~ = b*beta(t) + t^2 b^2 / 2
    cs2 = spec_1d("linear(0.0,1.0) * sin(1)")
    x = g.meshes()[0]
    b = np.sin(np.pi * x)
    expect = b * p.values[0, 6] + 0.5 * t * t * b * b
    assert np.allclose(eval_mu_tilde(space_fields(cs2, g), ps, range(6, 7))[0, 0], expect)
    zero = space_fields(spec_1d("const(0.0) * const(1.0)"), g)
    assert np.all(eval_mu_tilde(zero, ps, range(6, 7))[0, 0] == 0.0)


def test_eval_mu_derivs_analytic():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(1.0, 10)
    p = sample_paths(tg, 1, seed=5)
    ps = PathStack.of(p)
    # spatially constant coefficient: all derivatives vanish
    fields = space_fields(spec_1d("const(2.0) * const(3.0)"), g)
    grad, lap, gvec = (a[0, 0] for a in eval_mu_derivs(fields, ps, range(3, 4)))
    assert np.all(grad[0] == 0.0) and np.all(lap == 0.0) and np.all(gvec[0] == 0.0)
    # sine mode: exact analytic derivatives
    cs = spec_1d("const(1.0) * sin(1)")
    grad, lap, gvec = (a[0, 0] for a in eval_mu_derivs(space_fields(cs, g), ps, range(3, 4)))
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
    ps = PathStack.of(p)
    cs = spec_1d("const(0.7) * sin(2)", "linear(0.2,0.5) * poly(0.1,0.3,-0.2)")
    fields = space_fields(cs, g)
    mu = eval_mu(fields, ps, range(5, 6))[0, 0]
    grad, lap, _ = (a[0, 0] for a in eval_mu_derivs(fields, ps, range(5, 6)))
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
    d2 = path_sup(sample_block(tg, 1, 11, range(n))) ** 2
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
        block = fn(fields, PathStack.of(p), range(3, 13))  # through the last node
        assert block.shape[:2] == (10, 1) and block.shape[-1] == g.n_nodes
        for i, n in enumerate(range(3, 13)):
            assert np.array_equal(block[i], fn(fields, PathStack.of(p), range(n, n + 1))[0])
        # each path of a stack gets what it gets alone
        both = fn(fields, sample_block(TimeGrid(0.3, 12), len(texts), 21, [0, 1]), range(3, 13))
        assert np.array_equal(both[:, :1], block)
        assert np.array_equal(both[:, 1:], fn(fields, PathStack.of(q), range(3, 13)))
    # the noise factor of node n uses the increment to n + 1, and none at the last node
    last = eval_noise(fields, PathStack.of(p), range(12, 13))[0, 0]
    assert np.all(last == 0.0)
    one = eval_noise(fields, PathStack.of(p), range(4, 5))[0, 0]
    expect = sum((p.values[k, 5] - p.values[k, 4]) * c.time.value(4 * p.tg.dt) * fields.value[k]
                 for k, c in enumerate(fields.coefficients))
    assert np.allclose(one, expect, rtol=1e-14, atol=0.0)


def test_every_export_resolves():
    # a name dropped from a module but left in its __all__ fails here
    for module in (svilab, noise):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
