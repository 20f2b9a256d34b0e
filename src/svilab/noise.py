"""Brownian driving system and the noise coefficient catalog.

Paths are sampled from counter-based Philox streams keyed on
(seed, path_id, k), so distinct Brownian components and distinct paths are
independent and any subset can be regenerated reproducibly, in parallel.
The stream of component k of a path is that of
Philox(SeedSequence(seed, spawn_key=(path_id, k))); philox_key computes the
keys of an array of ids in one vectorized pass of numpy's SeedSequence hash,
and one reused Philox, reset to each key, draws the normals.  sample_block
is the one sampler: it samples a block of paths, ids in [0, 2**64), into one
PathStack, the one form of a batch from sampling to the march.  sample_paths
is its block of one, as the BrownianPathSet the solo solvers take (a stack
of one to them, PathStack.of).  An Euler-Maruyama step takes its increments
as differences of the values.

The coefficient evaluators take a PathStack, the (P, m, N+1) values of
the P paths of a batch on one time grid, and read blocks of time rows of
it.  The values strided by a factor are the same realization on a grid
coarser by that factor, which is how a march restricts its stack to a run
grid.  Each coefficient is a separable product mu_k(t, xi) = a_k(t) * b_k(xi)
(one spatial factor per axis in 2D) drawn from a closed catalog with
analytic time derivative, gradient, and Laplacian, so the transformed
equation's coefficients are exact in space.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid import Grid

__all__ = [
    "TimeGrid",
    "BrownianPathSet",
    "PathStack",
    "TimeFactor",
    "SpaceFactor",
    "Coefficient",
    "CoeffSpec",
    "SpaceFields",
    "space_fields",
    "philox_key",
    "sample_block",
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
    seed: int
    path_id: int
    values: np.ndarray

    @property
    def m(self) -> int:
        return self.values.shape[0]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), written with
# explicit 32-bit masks so that one code hashes the seed's and k's words as
# Python ints and a uint64 array of path ids; uint64 products wrap, and the
# mask keeps their low word
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, hash_const):
    """numpy's hashmix: the mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _absorb(pool, hash_const, word):
    """Mix one entropy word beyond the pool into every pool word."""
    out = []
    for value in pool:
        h, hash_const = _hashmix(word, hash_const)
        out.append(_mix(value, h))
    return out, hash_const


def _int_words(n: int) -> list:
    """The 32-bit words numpy makes of a nonnegative int, least significant
    first; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int):
    """The pool and hash constant once the seed's words, zero-padded to the
    pool size as numpy does when a spawn key follows, are mixed in."""
    words = _int_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool, hash_const = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        h, hash_const = _hashmix(word, hash_const)
        pool.append(h)
    for src in range(_POOL_SIZE):  # every pool word into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], h)
    for word in words[_POOL_SIZE:]:
        pool, hash_const = _absorb(pool, hash_const, word)
    return tuple(pool), hash_const


def _key(seed: int, words) -> tuple:
    pool, hash_const = _seed_pool(seed)
    for word in words:
        pool, hash_const = _absorb(pool, hash_const, word)
    state, hash_const = [], _INIT_B  # generate_state(2, uint64): four words, two keys
    for value in pool:
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def philox_key(seed: int, path_ids: np.ndarray, k: int) -> np.ndarray:
    """The (P, 2) uint64 Philox keys of component k of the paths path_ids, a
    uint64 array: row i is SeedSequence(seed, spawn_key=(path_ids[i], k))
    .generate_state(2, uint64).  An id below 2**32 is one word of the spawn
    key and a larger one two, as numpy makes them."""
    seed = operator.index(seed)
    keys = np.empty((path_ids.size, 2), dtype=np.uint64)
    wide = path_ids > _MASK32
    for sel, n_words in ((~wide, 1), (wide, 2)):
        ids = path_ids[sel]
        if ids.size:
            words = [ids & _MASK32, ids >> 32][:n_words]
            keys[sel] = np.stack(_key(seed, words + _int_words(k)), axis=-1)
    return keys


# Every draw sets the whole state of this Philox first (its key, counter 0,
# an empty buffer), so no draw sees what an earlier one left behind.
_GENERATOR = np.random.Generator(np.random.Philox(0))


@dataclass(frozen=True)
class PathStack:
    """The values of P paths on one time grid in one array: values has
    shape (P, m, N+1), row i the values of the i-th path."""

    tg: TimeGrid
    values: np.ndarray

    @classmethod
    def of(cls, paths: BrownianPathSet) -> "PathStack":
        """The stack of one path set."""
        return cls(paths.tg, paths.values[None])

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def take(self, keep) -> "PathStack":
        """The stack of the path sets `keep` (an index array)."""
        return replace(self, values=self.values[keep])


def _path_id(path_id) -> int:
    try:
        return operator.index(path_id)
    except TypeError:
        raise TypeError(f"a path id must be an integer, got {path_id!r}") from None


def sample_block(tg: TimeGrid, m: int, seed: int, path_ids) -> PathStack:
    """m independent Brownian paths on the nodes of tg for each of path_ids,
    integer ids in [0, 2**64), in one pass: row i of the stack holds the
    (m, N+1) values of path path_ids[i], its component k the Philox stream
    keyed philox_key(seed, path_ids[i], k) with increments sqrt(dt) times
    standard normals, so a row is a function of its id alone."""
    if m < 0:
        raise ConfigError(f"m must be >= 0, got {m}")
    ids = [_path_id(i) for i in path_ids]
    if ids and min(ids) < 0:
        raise ValueError("expected non-negative integer")
    if ids and max(ids) >= 2**64:
        raise ValueError("a block's path ids must lie below 2**64")
    ids = np.array(ids, dtype=np.uint64)
    values = np.zeros((ids.size, m, tg.N + 1))
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k in range(m):
        for row, key in zip(values[:, k, 1:], philox_key(seed, ids, k).tolist()):
            state["state"]["key"] = key
            _GENERATOR.bit_generator.state = state
            _GENERATOR.standard_normal(out=row)
    inc = values[..., 1:]
    inc *= np.sqrt(tg.dt)
    np.cumsum(inc, axis=-1, out=inc)
    return PathStack(tg, values)


def sample_paths(tg: TimeGrid, m: int, seed: int, path_id: int = 0) -> BrownianPathSet:
    """The m Brownian paths of path id path_id: row 0 of sample_block's
    block of one, as the BrownianPathSet the solo solvers take."""
    values = sample_block(tg, m, seed, [path_id]).values[0]
    return BrownianPathSet(tg=tg, seed=seed, path_id=path_id, values=values)


def path_sup(stack: PathStack) -> np.ndarray:
    """sup over components and grid times of |beta_k(t_n)| (delta of the
    run), one value per path of the stack."""
    return np.abs(stack.values).max(axis=(1, 2), initial=0.0)


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


def _path_rows(fields: SpaceFields, stack: PathStack, rows: range):
    """t_n at the nodes n in rows, and the values there of a PathStack:
    (m, len(rows), P), a view."""
    if stack.m != fields.m:
        raise ValueError(f"coefficient count {fields.m} does not match path count {stack.m}")
    vals = np.moveaxis(stack.values[:, :, rows.start:rows.stop], 0, -1)
    return np.arange(rows.start, rows.stop) * stack.tg.dt, vals


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


def eval_mu(fields: SpaceFields, stack: PathStack, rows: range) -> np.ndarray:
    """mu(t_n, xi) = sum_k mu_k(t_n, xi) beta_k(t_n) at the nodes n in rows of
    the P paths of a stack: shape (len(rows), P, n_nodes), the path axis
    after the row axis (likewise for the other evaluators)."""
    t, values = _path_rows(fields, stack, rows)
    return _combine(fields, values, t)


def eval_noise(fields: SpaceFields, stack: PathStack, rows: range) -> np.ndarray:
    """sum_k mu_k(t_n, xi) (beta_k(t_{n+1}) - beta_k(t_n)) at the nodes n in
    rows, the noise factor of an Euler-Maruyama step; zero at the last node."""
    t, values = _path_rows(fields, stack, range(rows.start, rows.stop + 1))
    inc = np.diff(values, axis=1)  # one node past the block, none past the last node
    inc = np.pad(inc, ((0, 0), (0, len(rows) - inc.shape[1]), (0, 0)))
    return _combine(fields, inc, t[:len(rows)])


def eval_mu_tilde(fields: SpaceFields, stack: PathStack, rows: range) -> np.ndarray:
    """mu~(t_n, xi) = sum_k (d_t mu_k * beta_k(t_n) + mu_k^2 / 2) at the nodes n
    in rows."""
    t, values = _path_rows(fields, stack, rows)
    out = np.zeros(values.shape[1:] + fields.value.shape[1:])
    for k, c in enumerate(fields.coefficients):
        b = fields.value[k]
        mu_k = _column(c.time.value(t), t)[..., None] * b
        out += (values[k] * _column(c.time.dt_value(t), t))[..., None] * b + 0.5 * mu_k * mu_k
    return out


def eval_mu_derivs(fields: SpaceFields, stack: PathStack, rows: range):
    """Analytic (grad mu, lap mu, g = -2 grad mu) at the nodes n in rows:
    shapes (len(rows), P, dim, n_nodes), (len(rows), P, n_nodes) and that of
    grad."""
    t, values = _path_rows(fields, stack, rows)
    _, dim, n_nodes = fields.grad.shape
    grad = np.zeros(values.shape[1:] + (dim, n_nodes))
    lap = np.zeros(values.shape[1:] + (n_nodes,))
    for k, c in enumerate(fields.coefficients):
        scale = values[k] * _column(c.time.value(t), t)
        grad += scale[..., None, None] * fields.grad[k]
        lap += scale[..., None] * fields.lap[k]
    return grad, lap, -2.0 * grad
