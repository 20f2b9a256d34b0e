"""The obstacle graph, its resolvent, and the penalization.

The graph is the maximal monotone map with value 0 on the positive axis,
the whole negative half-line at 0, and empty below.  Its resolvent is the
projection onto [0, inf) and the penalization is

    beta_eps(r) = (r - max(r, 0)) / eps = min(r, 0) / eps,

with convex potential j_eps(r) = min(r, 0)^2 / (2 eps).  All functions
accept scalars or arrays.
"""

from __future__ import annotations

import numpy as np


def resolvent(r, eps: float):
    """Projection (1 + eps*graph)^{-1} r = max(r, 0)."""
    check_eps(eps)
    return np.maximum(r, 0.0)


def check_eps(eps) -> None:
    """Raise ValueError unless eps, a scalar or an array, is positive."""
    if np.less_equal(eps, 0).any():
        raise ValueError(f"eps must be positive, got {eps}")


def beta_eps(r, eps):
    """Penalized graph: min(r, 0)/eps; zero for r >= 0.  eps may be an
    array that broadcasts against r, such as one value per row of a stack.
    Checks eps by check_eps; `penalize` is the same map without the check."""
    check_eps(eps)
    return penalize(r, eps)


def penalize(r, eps):
    """beta_eps for an eps already checked, as Newton checks it once per
    solve rather than once per iteration."""
    return np.minimum(r, 0.0) / eps


def j_eps(r, eps: float):
    """Potential of beta_eps: min(r, 0)^2 / (2 eps)."""
    check_eps(eps)
    return np.minimum(r, 0.0) ** 2 / (2.0 * eps)


def graph_contains(r: float, eta: float, tol_r: float = 0.0, tol_eta: float = 0.0) -> bool:
    """Membership test for the graph: (r > 0, eta = 0) or (r = 0, eta <= 0).

    The graph is empty for r < 0.  Optional tolerances loosen the test for
    numerically recovered pairs.
    """
    if r > tol_r:
        return abs(eta) <= tol_eta
    if r >= -tol_r:
        return eta <= tol_eta
    return False
