import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from svilab.penalty import beta_eps, graph_contains, j_eps, resolvent

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_eps = st.floats(min_value=1e-6, max_value=10.0)


def test_resolvent_values():
    assert resolvent(5.0, 0.1) == 5.0
    assert resolvent(-3.0, 0.1) == 0.0
    assert resolvent(0.0, 0.1) == 0.0


def test_beta_eps_values():
    assert beta_eps(1.0, 0.1) == 0.0
    assert beta_eps(-0.2, 0.1) == pytest.approx(-2.0)


def test_beta_eps_resolvent_identity():
    rng = np.random.default_rng(0)
    r = rng.normal(scale=3.0, size=1000)
    for eps in (1e-2, 0.5, 2.0):
        assert np.allclose(beta_eps(r, eps), (r - resolvent(r, eps)) / eps)


def test_j_eps_values():
    assert j_eps(2.0, 0.1) == 0.0
    assert j_eps(-0.2, 0.1) == pytest.approx(0.2)


def test_j_eps_quadrature_oracle():
    # independent oracle: integrate beta_eps from 0 to r
    rng = np.random.default_rng(1)
    for r in rng.uniform(-5.0, 5.0, size=12):
        for eps in (0.05, 0.7):
            val, _ = quad(lambda s: beta_eps(s, eps), 0.0, r)
            assert j_eps(r, eps) == pytest.approx(val, abs=1e-8)


@pytest.mark.parametrize("fn", [resolvent, beta_eps, j_eps])
@pytest.mark.parametrize("eps", [0.0, -1e-3])
def test_nonpositive_eps_is_one_value_error(fn, eps):
    with pytest.raises(ValueError) as exc:
        fn(1.0, eps)
    assert str(exc.value) == f"eps must be positive, got {eps}"


def test_graph_contains():
    assert graph_contains(1.0, 0.0)
    assert graph_contains(0.0, -7.0)
    assert not graph_contains(-0.1, 0.0)
    assert not graph_contains(-0.1, -5.0)
    assert not graph_contains(1.0, -1.0)
    assert not graph_contains(0.0, 1.0)
    assert graph_contains(5e-4, -5e-4, tol_r=1e-3, tol_eta=1e-3)


@given(a=finite, b=finite, eps=small_eps)
def test_beta_eps_monotone(a, b, eps):
    assert (beta_eps(a, eps) - beta_eps(b, eps)) * (a - b) >= 0.0


@given(a=finite, b=finite, eps=small_eps)
def test_resolvent_nonexpansive(a, b, eps):
    assert abs(resolvent(a, eps) - resolvent(b, eps)) <= abs(a - b) + 1e-12


@given(r=finite, eps=small_eps)
def test_j_eps_nonnegative_and_zero_on_positive(r, eps):
    assert j_eps(r, eps) >= 0.0
    if r >= 0.0:
        assert j_eps(r, eps) == 0.0


def test_j_eps_convex_and_derivative():
    rng = np.random.default_rng(2)
    eps = 0.3
    for _ in range(50):
        a, b = rng.uniform(-4, 4, size=2)
        lam = rng.uniform()
        mid = j_eps(lam * a + (1 - lam) * b, eps)
        assert mid <= lam * j_eps(a, eps) + (1 - lam) * j_eps(b, eps) + 1e-12
    # derivative check away from the kink at 0
    for r in (-2.0, -0.5, 0.5, 2.0):
        d = 1e-7
        num = (j_eps(r + d, eps) - j_eps(r - d, eps)) / (2 * d)
        assert num == pytest.approx(beta_eps(r, eps), abs=1e-6)


def test_graph_limit():
    r = -0.3
    vals = [beta_eps(r, eps) for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < -1e3
    for eps in (1e-1, 1e-4):
        assert beta_eps(0.7, eps) == 0.0


def test_cauchy_difference_inequality():
    # resolvent identity behind the penalization Cauchy estimate:
    # (beta_e(a) - beta_e'(b)) (a - b) >= (e beta_e(a) - e' beta_e'(b)) (beta_e(a) - beta_e'(b))
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b = rng.uniform(-3, 3, size=2)
        e1, e2 = rng.uniform(1e-3, 1.0, size=2)
        ba, bb = beta_eps(a, e1), beta_eps(b, e2)
        lhs = (ba - bb) * (a - b)
        rhs = (e1 * ba - e2 * bb) * (ba - bb)
        assert lhs >= rhs - 1e-12
