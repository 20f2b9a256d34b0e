"""Exponential change of variables X = e^mu y and the coefficients of the
transformed equation.

Substituting X = e^mu y into the original equation and expanding by Ito's
formula leaves the path-wise parabolic problem

    dy/dt - lap y + F_eff(t, y) + g . grad y + beta(y)  contains  e^{-mu} f,

with F_eff(t, y) = e^{-mu} F(t, xi, e^mu y) + c0 y, the zero-order
coefficient c0 = mu~ - |grad mu|^2 - lap mu, and g = -2 grad mu.  The
e^{-mu} factor on the source is what makes the transformed solve agree with
a direct Euler-Maruyama integration of the original equation.

The coefficients depend on the Brownian path alone, so the solver evaluates
them for blocks of time nodes and checks the mu cap there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ReactionSpec:
    """Lipschitz reaction F with F(t, xi, 0) = 0; the catalog's F depends
    on its argument r alone.

    kinds: 'zero' (F = 0), 'linear' (F = alpha r), 'saturating'
    (F = alpha tanh r, slope alpha at 0).  alpha is the Lipschitz constant.
    """

    kind: str = "zero"
    alpha: float = 0.0

    def __post_init__(self):
        errors = []
        if self.kind not in ("zero", "linear", "saturating"):
            errors.append(f"kind must be zero|linear|saturating, got {self.kind!r}")
        if not 0 <= self.alpha < np.inf:
            errors.append(f"alpha must be finite and >= 0, got {self.alpha}")
        if errors:
            raise ConfigError(errors)

    def value(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "zero" or self.alpha == 0.0:
            return np.zeros_like(r)
        if self.kind == "linear":
            return self.alpha * r
        return self.alpha * np.tanh(r)


def effective_source(mu: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Source of the transformed equation: e^{-mu} f."""
    return np.exp(-mu) * f


def zero_order(mu_tilde: np.ndarray, grad_mu: np.ndarray, lap_mu: np.ndarray) -> np.ndarray:
    """mu~ - |grad mu|^2 - lap mu, the factor of y in F_eff; grad_mu holds
    one component per axis along its second-to-last axis."""
    # a square is never -0.0, so the sum of squares starts from the first
    # with the bits of a sum from a zero fill
    comps = [grad_mu[..., axis, :] for axis in range(grad_mu.shape[-2])]
    grad_sq = comps[0] * comps[0]
    for comp in comps[1:]:
        grad_sq += comp * comp
    return mu_tilde - grad_sq - lap_mu


def effective_reaction(rs: ReactionSpec, c0: np.ndarray, exp_mu: np.ndarray,
                       exp_neg_mu: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F_eff(t, y) = c0 y + e^{-mu} F(t, xi, e^mu y) with c0 = zero_order(...)
    and e^mu, e^{-mu} at the same node; ValueError unless c0 broadcasts to the
    shape of y, a field or a stack of them."""
    out = c0 * y  # numpy's ValueError when the shapes do not broadcast at all
    if out.shape != y.shape:
        raise ValueError("coefficient field size mismatch")
    if rs.kind != "zero" and rs.alpha != 0.0:
        out = out + exp_neg_mu * rs.value(exp_mu * y)
    return out
