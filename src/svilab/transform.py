"""Exponential change of variables X = e^mu y and the coefficients of the
transformed equation.

Substituting X = e^mu y into the original equation and expanding by Ito's
formula leaves the path-wise parabolic problem

    dy/dt - lap y + F_eff(t, y) + g . grad y + beta(y)  contains  e^{-mu} f,

with F_eff(t, y) = e^{-mu} F(t, xi, e^mu y) + mu~ y - (|grad mu|^2 + lap mu) y
and g = -2 grad mu.  The e^{-mu} factor on the source is what makes the
transformed solve agree with a direct Euler-Maruyama integration of the
original equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure

MU_CAP_DEFAULT = 30.0


@dataclass(frozen=True)
class ReactionSpec:
    """Lipschitz reaction F with F(t, xi, 0) = 0.

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

    def value(self, t: float, r: np.ndarray) -> np.ndarray:
        if self.kind == "zero" or self.alpha == 0.0:
            return np.zeros_like(r)
        if self.kind == "linear":
            return self.alpha * r
        return self.alpha * np.tanh(r)


def _check_cap(mu: np.ndarray, mu_cap: float):
    peak = float(np.max(np.abs(mu))) if mu.size else 0.0
    if peak > mu_cap:
        raise NumericalFailure(
            f"|mu| reached {peak:.3g}, beyond the overflow cap {mu_cap:.3g}; "
            "pathological path, aborting"
        )


def forward(mu: np.ndarray, y: np.ndarray, mu_cap: float = MU_CAP_DEFAULT) -> np.ndarray:
    """X = e^mu y, pointwise."""
    if mu.shape != y.shape:
        raise ValueError("mu and y size mismatch")
    _check_cap(mu, mu_cap)
    return np.exp(mu) * y


def inverse(mu: np.ndarray, X: np.ndarray, mu_cap: float = MU_CAP_DEFAULT) -> np.ndarray:
    """y = e^{-mu} X, pointwise inverse of forward."""
    if mu.shape != X.shape:
        raise ValueError("mu and X size mismatch")
    _check_cap(mu, mu_cap)
    return np.exp(-mu) * X


def effective_source(mu: np.ndarray, f: np.ndarray, mu_cap: float = MU_CAP_DEFAULT) -> np.ndarray:
    """Source of the transformed equation: e^{-mu} f."""
    return inverse(mu, f, mu_cap)


def effective_reaction(
    rs: ReactionSpec,
    mu: np.ndarray,
    mu_tilde: np.ndarray,
    grad_mu: list[np.ndarray],
    lap_mu: np.ndarray,
    t: float,
    y: np.ndarray,
    mu_cap: float = MU_CAP_DEFAULT,
) -> np.ndarray:
    """F_eff(t, y) = e^{-mu} F(t, xi, e^mu y) + mu~ y - (|grad mu|^2 + lap mu) y."""
    for f in (mu_tilde, lap_mu, y, *grad_mu):
        if f.shape != mu.shape:
            raise ValueError("coefficient field size mismatch")
    grad_sq = np.zeros_like(mu)
    for comp in grad_mu:
        grad_sq += comp * comp
    out = (mu_tilde - grad_sq - lap_mu) * y
    if rs.kind != "zero" and rs.alpha != 0.0:
        _check_cap(mu, mu_cap)
        emu = np.exp(mu)
        out = out + np.exp(-mu) * rs.value(t, emu * y)
    return out
