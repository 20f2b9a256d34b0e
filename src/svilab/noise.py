"""Brownian driving system and the noise coefficient catalog.

Paths are sampled from counter-based Philox streams keyed on
(seed, path_id, k), so distinct Brownian components and distinct paths are
independent and any subset can be regenerated reproducibly, in parallel.
sample_paths is that sampling: it returns the values beta_k(t_n) as the
BrownianPathSet the solvers take, and an Euler-Maruyama step takes its
increments as differences of those values.

Each coefficient is a separable product mu_k(t, xi) = a_k(t) * b_k(xi)
(one spatial factor per axis in 2D) drawn from a closed catalog with
analytic time derivative, gradient, and Laplacian, so the transformed
equation's coefficients are exact in space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid import Grid

__all__ = [
    "TimeGrid",
    "BrownianPathSet",
    "TimeFactor",
    "SpaceFactor",
    "Coefficient",
    "CoeffSpec",
    "SpaceFields",
    "space_fields",
    "sample_paths",
    "eval_mu",
    "eval_mu_tilde",
    "eval_mu_derivs",
    "eval_noise",
    "path_sup",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if self.T <= 0 or self.N < 1:
            raise ConfigError(f"time grid needs T > 0 and N >= 1, got T={self.T}, N={self.N}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)

    def refined(self, factor: int) -> "TimeGrid":
        return TimeGrid(self.T, self.N * factor)


@dataclass(frozen=True)
class BrownianPathSet:
    """Sampled values beta_k(t_n) of one realization: values has shape
    (m, N+1) with values[:, 0] = 0."""

    tg: TimeGrid
    m: int
    seed: int
    path_id: int
    values: np.ndarray

    def coarsen(self, factor: int) -> "BrownianPathSet":
        """Restrict the same realization to a time grid coarser by `factor`.

        Values are strided (exact), so the coarse set is the identical path
        evaluated on fewer nodes.
        """
        if factor == 1:
            return self
        if self.tg.N % factor != 0:
            raise ValueError(f"cannot coarsen N={self.tg.N} by factor {factor}")
        return replace(self, tg=TimeGrid(self.tg.T, self.tg.N // factor),
                       values=np.ascontiguousarray(self.values[:, ::factor]))


def sample_paths(tg: TimeGrid, m: int, seed: int, path_id: int = 0) -> BrownianPathSet:
    """m independent Brownian paths on the nodes of tg.

    The one definition of the sampling: component k of path path_id comes
    from the Philox stream keyed (seed, path_id, k), so identical arguments
    give bitwise-identical values.
    """
    if m < 0:
        raise ConfigError(f"m must be >= 0, got {m}")
    values = np.zeros((m, tg.N + 1))
    root = np.sqrt(tg.dt)
    for k in range(m):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_id, k))
        rng = np.random.Generator(np.random.Philox(ss))
        inc = root * rng.standard_normal(tg.N)
        values[k, 1:] = np.cumsum(inc)
    return BrownianPathSet(tg=tg, m=m, seed=seed, path_id=path_id, values=values)


def path_sup(paths: BrownianPathSet) -> float:
    """sup over components and grid times of |beta_k(t_n)| (delta of the run)."""
    if paths.m == 0:
        return 0.0
    return float(np.max(np.abs(paths.values)))


# ---------------------------------------------------------------------------
# coefficient catalog


@dataclass(frozen=True)
class TimeFactor:
    """a(t) from the closed catalog: const(c) | linear(c0, c1) | cos(c, omega)."""

    kind: str
    params: tuple[float, ...]

    def value(self, t: float) -> float:
        if self.kind == "const":
            return self.params[0]
        if self.kind == "linear":
            c0, c1 = self.params
            return c0 + c1 * t
        c, om = self.params
        return c * np.cos(om * t)

    def dt_value(self, t: float) -> float:
        if self.kind == "const":
            return 0.0
        if self.kind == "linear":
            return self.params[1]
        c, om = self.params
        return -c * om * np.sin(om * t)


@dataclass(frozen=True)
class SpaceFactor:
    """b(xi) on one axis: const(c) | poly(c0,c1,c2) | sin(mode) | cos(mode).

    Modes are sin(m*pi*xi/L) and cos(m*pi*xi/L) for the axis length L.
    """

    kind: str
    params: tuple[float, ...]
    length: float = 1.0

    def _freq(self) -> float:
        return self.params[0] * np.pi / self.length

    def value(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            return np.full_like(x, self.params[0])
        if self.kind == "poly":
            c0, c1, c2 = self.params
            return c0 + c1 * x + c2 * x * x
        w = self._freq()
        return np.sin(w * x) if self.kind == "sin" else np.cos(w * x)

    def d1(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            return np.zeros_like(x)
        if self.kind == "poly":
            _, c1, c2 = self.params
            return c1 + 2.0 * c2 * x
        w = self._freq()
        return w * np.cos(w * x) if self.kind == "sin" else -w * np.sin(w * x)

    def d2(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            return np.zeros_like(x)
        if self.kind == "poly":
            return np.full_like(x, 2.0 * self.params[2])
        w = self._freq()
        base = np.sin(w * x) if self.kind == "sin" else np.cos(w * x)
        return -w * w * base


@dataclass(frozen=True)
class Coefficient:
    """One mu_k = a(t) * prod_axes b_axis(xi_axis); C^2 by construction."""

    time: TimeFactor
    space: tuple[SpaceFactor, ...]

    def space_fields(self, xs: list[np.ndarray]):
        """(b, grad b, lap b) of the space factor at node coordinates xs."""
        vals = [b.value(x) for b, x in zip(self.space, xs)]
        value = np.ones(xs[0].shape)
        for v in vals:
            value = value * v
        grad, lap = [], np.zeros(xs[0].shape)
        for axis, (b, x) in enumerate(zip(self.space, xs)):
            d1, d2 = b.d1(x), b.d2(x)
            for other, v in enumerate(vals):
                if other != axis:
                    d1, d2 = d1 * v, d2 * v
            grad.append(d1)
            lap += d2
        return value, grad, lap


@dataclass(frozen=True)
class CoeffSpec:
    """The m noise coefficients; entry k matches Brownian component k."""

    coefficients: tuple[Coefficient, ...]

    @property
    def m(self) -> int:
        return len(self.coefficients)


_FACTOR_RE = re.compile(r"^\s*([a-z]+)\s*\(([^)]*)\)\s*$")

_TIME_ARITY = {"const": 1, "linear": 2, "cos": 2}
_SPACE_ARITY = {"const": 1, "poly": 3, "sin": 1, "cos": 1}


def _parse_factor(text: str, arity: dict, label: str):
    m = _FACTOR_RE.match(text)
    if not m:
        raise ConfigError(f"{label}: cannot parse factor {text!r} (expected kind(args))")
    kind, argstr = m.group(1), m.group(2)
    if kind not in arity:
        raise ConfigError(f"{label}: unknown factor kind {kind!r} (catalog: {sorted(arity)})")
    try:
        params = tuple(float(a) for a in argstr.split(",")) if argstr.strip() else ()
        if not np.all(np.isfinite(params)):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{label}: non-numeric or non-finite arguments in {text!r}")
    if len(params) != arity[kind]:
        raise ConfigError(f"{label}: {kind} takes {arity[kind]} argument(s), got {len(params)}")
    return kind, params


def parse_coefficient(text: str, lengths, label: str = "mu") -> Coefficient:
    """Parse 'time_factor * space_factor [* space_factor]' for dim axes.

    Example (1D): 'const(0.5) * sin(1)'; (2D): 'cos(1.0,2.0) * sin(1) * cos(2)'.
    """
    parts = [p for p in text.split("*")]
    dim = len(lengths)
    if len(parts) != 1 + dim:
        raise ConfigError(
            f"{label}: expected 1 time factor and {dim} space factor(s), got {len(parts)} factors"
        )
    tk, tp = _parse_factor(parts[0], _TIME_ARITY, label)
    space = []
    for axis, part in enumerate(parts[1:]):
        sk, sp = _parse_factor(part, _SPACE_ARITY, label)
        space.append(SpaceFactor(sk, sp, float(lengths[axis])))
    return Coefficient(TimeFactor(tk, tp), tuple(space))


# ---------------------------------------------------------------------------
# field evaluation


@dataclass(frozen=True)
class SpaceFields:
    """b_k, grad b_k and lap b_k of every coefficient at the grid nodes.

    They do not depend on time, so a solve builds them once and evaluates
    mu and its derivatives from them for a block of time nodes at a time.
    """

    coefficients: tuple[Coefficient, ...]
    value: np.ndarray  # (m, n_nodes)
    grad: np.ndarray   # (m, dim, n_nodes)
    lap: np.ndarray    # (m, n_nodes)

    @property
    def m(self) -> int:
        return len(self.coefficients)


def space_fields(cs: CoeffSpec, grid: Grid) -> SpaceFields:
    xs = grid.meshes()
    parts = [c.space_fields(xs) for c in cs.coefficients]
    return SpaceFields(
        coefficients=cs.coefficients,
        value=np.array([p[0] for p in parts]).reshape(cs.m, grid.n_nodes),
        grad=np.array([p[1] for p in parts]).reshape(cs.m, grid.dim, grid.n_nodes),
        lap=np.array([p[2] for p in parts]).reshape(cs.m, grid.n_nodes),
    )


def _path_rows(fields: SpaceFields, paths, rows: range):
    """t_n at the nodes n in rows, and the values there of a sequence of P
    path sets on one time grid: (m, len(rows), P)."""
    bad = [p.m for p in paths if p.m != fields.m]
    if bad:
        raise ValueError(f"coefficient count {fields.m} does not match path count {bad[0]}")
    if any(p.tg != paths[0].tg for p in paths):
        raise ValueError("path sets of one evaluation must share their time grid")
    vals = np.stack([p.values[:, rows.start:rows.stop] for p in paths], axis=-1)
    return np.arange(rows.start, rows.stop) * paths[0].tg.dt, vals


def _column(a, t: np.ndarray) -> np.ndarray:
    """a, a scalar or one value per time t, as a column against the paths."""
    return np.broadcast_to(a, t.shape)[:, None]


def _combine(fields: SpaceFields, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k weights[k] a_k(t) b_k, one row per time and path: weights
    (m, rows, P)."""
    out = np.zeros(weights.shape[1:] + fields.value.shape[1:])
    for k, c in enumerate(fields.coefficients):
        out += (weights[k] * _column(c.time.value(t), t))[..., None] * fields.value[k]
    return out


def eval_mu(fields: SpaceFields, paths, rows: range) -> np.ndarray:
    """mu(t_n, xi) = sum_k mu_k(t_n, xi) beta_k(t_n) at the nodes n in rows of
    a sequence of P path sets: shape (len(rows), P, n_nodes), the path axis
    after the row axis (likewise for the other evaluators)."""
    t, values = _path_rows(fields, paths, rows)
    return _combine(fields, values, t)


def eval_noise(fields: SpaceFields, paths, rows: range) -> np.ndarray:
    """sum_k mu_k(t_n, xi) (beta_k(t_{n+1}) - beta_k(t_n)) at the nodes n in
    rows, the noise factor of an Euler-Maruyama step; zero at the last node."""
    t, values = _path_rows(fields, paths, range(rows.start, rows.stop + 1))
    inc = np.diff(values, axis=1)  # one node past the block, none past the last node
    inc = np.pad(inc, ((0, 0), (0, len(rows) - inc.shape[1]), (0, 0)))
    return _combine(fields, inc, t[:len(rows)])


def eval_mu_tilde(fields: SpaceFields, paths, rows: range) -> np.ndarray:
    """mu~(t_n, xi) = sum_k (d_t mu_k * beta_k(t_n) + mu_k^2 / 2) at the nodes n
    in rows."""
    t, values = _path_rows(fields, paths, rows)
    out = np.zeros(values.shape[1:] + fields.value.shape[1:])
    for k, c in enumerate(fields.coefficients):
        b = fields.value[k]
        mu_k = _column(c.time.value(t), t)[..., None] * b
        out += (values[k] * _column(c.time.dt_value(t), t))[..., None] * b + 0.5 * mu_k * mu_k
    return out


def eval_mu_derivs(fields: SpaceFields, paths, rows: range):
    """Analytic (grad mu, lap mu, g = -2 grad mu) at the nodes n in rows:
    shapes (len(rows), P, dim, n_nodes), (len(rows), P, n_nodes) and that of
    grad."""
    t, values = _path_rows(fields, paths, rows)
    _, dim, n_nodes = fields.grad.shape
    grad = np.zeros(values.shape[1:] + (dim, n_nodes))
    lap = np.zeros(values.shape[1:] + (n_nodes,))
    for k, c in enumerate(fields.coefficients):
        scale = values[k] * _column(c.time.value(t), t)
        grad += scale[..., None, None] * fields.grad[k]
        lap += scale[..., None] * fields.lap[k]
    return grad, lap, -2.0 * grad
