"""Path-wise time integration: one march, three step rules.

`_march` carries a batch of Brownian paths over the time grid for every
solver; the single-path solvers are batches of one.  The state is a stack
with one row per path.  The march validates the initial datum and the path
sets, picks each path's run grid (paths at different halving levels march
apart), builds the time-independent coefficient fields once, evaluates the
coefficients of all its paths for blocks of consecutive run-grid nodes
(`coeff_block`), checks the mu cap there, stores the trajectories at
stride 2^level and fills each path's `Diagnostics`.
Every row gets the bits that its path gets alone, and a path that fails
leaves the batch with the error its own solve raises.  Only the step rule,
which reads row views of the blocks, differs:

- `step_interior` (solve_path) is the theta-scheme of the penalized
  transformed equation,

      (I - dt theta Lap) y1 + dt beta_eps(y1)
          = y0 + dt [ (1-theta) Lap y0 - F_eff(t, y0) - g . grad y0 + f~ ],

  with an optional BoundaryLift ghost value;
- `signorini.step_signorini` (solve_signorini_path) moves the penalty and
  a Robin diagonal to the boundary nodes of a Neumann grid;
- the Euler-Maruyama rule of direct_em_solve integrates the original
  equation for cross-checks: implicit Laplacian and penalty, explicit
  reaction and noise.

The Laplacian and the penalty are implicit, everything else explicit.  The
diagonal monotone penalty is resolved by a semismooth Newton / active set
iteration (nodes with y < 0 get dt/eps added to the diagonal), which
terminates finitely on this piecewise-linear system, row by row of the
stack, by the march's `ImplicitSolver(grid, dt, theta)`: tridiagonal LAPACK
solves in 1D; in 2D `conjugate_gradients`, an in-house CG on the 5-point
matrix, preconditioned on a Dirichlet grid by `SinePreconditioner`, the
inverse of A + c I in the type-I discrete sine basis that diagonalises
A = I - dt theta Lap, with c the median of the solve's extra diagonal, and on
a Neumann grid by the identity, which gives scipy's `cg` bits.  It tests the
unpreconditioned residual, |b - M x| < CG_RTOL |b|, after every update.

eps is one value for the batch or one per path.  The march carries it as a
column beside the state, one row per path, and the step rules, Newton and
beta_eps read each row's own value, so an eps sweep on one Brownian path is
one march over copies of that path.

The explicit transport term carries the stability restriction
dt * sup|g| / h <= 1.  Because g is a function of the Brownian path alone,
a bound of it picks each path's dt before marching: violating paths are run
at halved dt (up to MAX_HALVINGS) using a finer restriction of the same
path realization, then reported as failures.  A level is admitted only when
an upper bound of dt * sup|g| / h is at most 1, so no step of the march can
break the guard; the march records each path's largest margin
(`Diagnostics.stability_margin`) and checks nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgtsv

from . import grid as gridmod
from . import noise as noisemod
from . import penalty, transform
from .errors import ConfigError, NewtonError, NumericalFailure, StabilityError
from .grid import Grid
from .noise import BrownianPathSet, CoeffSpec, SpaceFields, TimeGrid
from .transform import ReactionSpec

MAX_HALVINGS = 3  # dt halvings a path may take to meet the transport guard


@dataclass(frozen=True)
class SolveConfig:
    """Numerical parameters of one path-wise solve."""

    dt: float
    theta: float = 1.0
    eps: float | tuple[float, ...] = 1e-3  # or one per path of a batch
    newton_tol: float = 1e-10
    newton_max: int = 100
    mu_cap: float = 30.0

    def __post_init__(self):
        errors = []
        if not self.dt > 0:
            errors.append(f"dt must be > 0, got {self.dt}")
        if not 0.5 <= self.theta <= 1.0:
            errors.append(f"theta must lie in [0.5, 1], got {self.theta}")
        eps = np.asarray(self.eps, dtype=float)
        if not (eps.size and np.all(eps > 0)):
            errors.append(f"eps must be > 0, got {self.eps}")
        if not self.newton_tol > 0:
            errors.append(f"newton_tol must be > 0, got {self.newton_tol}")
        if self.newton_max < 1:
            errors.append(f"newton_max must be >= 1, got {self.newton_max}")
        if errors:
            raise ConfigError(errors)


@dataclass(frozen=True)
class InitialData:
    """Nonnegative initial datum from a closed catalog.

    kinds: 'sine' (product of first sine modes), 'cone' (truncated cone of
    given radius), 'cutoff' (constant plateau times a linear cutoff).
    """

    kind: str = "sine"
    amplitude: float = 0.0
    center: tuple[float, ...] | None = None
    radius: float | None = None

    def __post_init__(self):
        errors = []
        if self.kind not in ("sine", "cone", "cutoff"):
            errors.append(f"kind must be sine|cone|cutoff, got {self.kind!r}")
        if not 0 <= self.amplitude < np.inf:
            errors.append(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.center is not None and not np.all(np.isfinite(self.center)):
            errors.append(f"center must be finite, got {self.center}")
        if self.radius is not None and not 0 < self.radius < np.inf:
            errors.append(f"radius must be finite and > 0, got {self.radius}")
        if errors:
            raise ConfigError(errors)

    def evaluate(self, grid: Grid) -> np.ndarray:
        xs = grid.meshes()
        if self.kind == "sine":
            out = np.full(grid.n_nodes, self.amplitude)
            for x, L in zip(xs, grid.lengths):
                out = out * np.sin(np.pi * x / L)
            return np.maximum(out, 0.0)
        center = self.center or tuple(L / 2.0 for L in grid.lengths)
        radius = self.radius if self.radius is not None else min(grid.lengths) / 4.0
        dist = np.zeros(grid.n_nodes)
        for x, c in zip(xs, center):
            dist += (x - c) ** 2
        dist = np.sqrt(dist)
        if self.kind == "cone":
            return self.amplitude * np.maximum(0.0, 1.0 - dist / radius)
        return self.amplitude * np.clip(2.0 * (1.0 - dist / radius), 0.0, 1.0)


@dataclass(frozen=True)
class ForcingSpec:
    """Deterministic forcing f(xi) from a closed catalog, constant in time:
    `coeff_block` evaluates it once per block of run-grid rows.

    kinds: 'zero', 'const', 'sine' (product of first sine modes), 'edge'
    (amplitude on the strip within `width` of the boundary), 'field'
    (explicit values).  `transformed` marks a source already living in the
    transformed variables, which then bypasses the e^{-mu} scaling (used by
    the Stefan reduction).
    """

    kind: str = "zero"
    amplitude: float = 0.0
    width: float = 0.1
    transformed: bool = False
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        errors = []
        if self.kind not in ("zero", "const", "sine", "edge", "field"):
            errors.append(f"kind must be zero|const|sine|edge|field, got {self.kind!r}")
        if self.kind == "field" and self.values is None:
            errors.append("kind 'field' needs explicit values")
        if not np.isfinite(self.amplitude):
            errors.append(f"amplitude must be finite, got {self.amplitude}")
        if not 0 <= self.width < np.inf:
            errors.append(f"width must be finite and >= 0, got {self.width}")
        if errors:
            raise ConfigError(errors)

    def value(self, grid: Grid) -> np.ndarray:
        if self.kind == "zero":
            return grid.zeros()
        if self.kind == "const":
            return np.full(grid.n_nodes, self.amplitude)
        if self.kind == "field":
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (grid.n_nodes,):
                raise ValueError("forcing field does not match the grid")
            return vals.copy()
        xs = grid.meshes()
        if self.kind == "sine":
            out = np.full(grid.n_nodes, self.amplitude)
            for x, L in zip(xs, grid.lengths):
                out = out * np.sin(np.pi * x / L)
            return out
        # edge: boundary strip of the given width
        dist = np.full(grid.n_nodes, np.inf)
        for x, L in zip(xs, grid.lengths):
            dist = np.minimum(dist, np.minimum(x, L - x))
        return np.where(dist < self.width, self.amplitude, 0.0)


@dataclass(frozen=True)
class BoundaryLift:
    """Time-linear Dirichlet value y(0, t) = rate * t at the left end (1D).

    Realized as the exact ghost-value correction at the boundary-adjacent
    node; only the Stefan similarity benchmark uses it.
    """

    rate: float


BLOCK_VALUES = 2**14  # coefficient values per field in one block of run-grid rows


@dataclass
class StepCoeffs:
    """Coefficients of the transformed equation at one run-grid node, or at
    a block of consecutive nodes, where t and every array have a leading
    row axis and `row(i)` is node i as a record of row views.  For a batch
    of paths every array has a path axis, after the row axis of a block, and
    `take(keep)` keeps the paths `keep` (an index array), or path `keep`
    alone without the path axis (an int)."""

    t: float
    rs: ReactionSpec
    mu: np.ndarray
    mu_tilde: np.ndarray
    grad_mu: np.ndarray  # (dim, n_nodes)
    lap_mu: np.ndarray
    zero_order: np.ndarray  # mu~ - |grad mu|^2 - lap mu
    exp_mu: np.ndarray
    exp_neg_mu: np.ndarray
    g: np.ndarray | None  # transport field -2 grad mu; None without noise
    g_sup: np.ndarray | None  # sup over nodes of |g_a|, per axis
    source: np.ndarray  # f~ = e^{-mu} f, or f itself when already transformed
    dmu_dnu: np.ndarray | None = None  # Neumann grids only
    noise: np.ndarray | None = None  # sum_k mu_k dbeta_k, Euler-Maruyama only

    def row(self, i: int) -> "StepCoeffs":
        return StepCoeffs(**{k: v if k == "rs" or v is None else v[i]
                             for k, v in vars(self).items()})

    def take(self, keep: np.ndarray) -> "StepCoeffs":
        axis = np.ndim(self.t)  # a block's rows come before its paths
        return StepCoeffs(**{k: v if k in ("t", "rs") or v is None else np.take(v, keep, axis)
                             for k, v in vars(self).items()})

    def reaction(self, y: np.ndarray) -> np.ndarray:
        return transform.effective_reaction(self.rs, self.zero_order, self.exp_mu,
                                            self.exp_neg_mu, y)


def zero_coeffs(grid: Grid, rs: ReactionSpec | None = None,
                source: np.ndarray | None = None) -> StepCoeffs:
    z, one = grid.zeros(), np.ones(grid.n_nodes)
    return StepCoeffs(t=0.0, rs=rs or ReactionSpec(), mu=z, mu_tilde=z,
                      grad_mu=np.zeros((grid.dim, grid.n_nodes)), lap_mu=z, zero_order=z,
                      exp_mu=one, exp_neg_mu=one, g=None, g_sup=None,
                      source=source if source is not None else z, dmu_dnu=z)


@dataclass
class Diagnostics:
    """Per-run numerical record (on the run-level time grid)."""

    newton_iters: np.ndarray
    residuals: np.ndarray
    stability_margin: float
    delta: float
    refine_level: int
    mu_sup: float
    cum_source_sq: np.ndarray  # left-endpoint quadrature of |f~|_2^2 at stored nodes
    eps: float


@dataclass
class PathSolution:
    """Trajectories of the transformed state y, the multiplier, and X."""

    grid: Grid
    tg: TimeGrid
    y: np.ndarray      # (N+1, n_nodes)
    eta: np.ndarray    # beta_eps(y), pointwise
    mu: np.ndarray     # mu(t_n, xi)
    diagnostics: Diagnostics

    @property
    def X(self) -> np.ndarray:
        return np.exp(self.mu) * self.y

    @property
    def eta_X(self) -> np.ndarray:
        """Multiplier in original variables, e^mu beta_eps(y)."""
        return np.exp(self.mu) * self.eta


# ---------------------------------------------------------------------------
# linear algebra: (A + diag(d)) x = b with A = I - dt*theta*L fixed


CG_RTOL = 1e-12  # CG stops once |b - M x| < CG_RTOL |b|


def conjugate_gradients(M: sparse.csr_matrix, b: np.ndarray, x0: np.ndarray | None,
                        maxiter: int, precond) -> np.ndarray:
    """x with M x = b by conjugate gradients from x0 (zeros when None), for
    symmetric positive definite M, preconditioned by precond(r) ~ M^-1 r.
    The iterate after each update is tested, the last one too, on the
    unpreconditioned residual: |b - M x| < CG_RTOL |b|.  With the identity,
    z = r, so every solve that converges makes the operations of
    scipy.sparse.linalg.cg(M, b, x0=x0, rtol=CG_RTOL, atol=0.0,
    maxiter=maxiter) and returns its bits, without scipy's operator
    wrappers; unlike scipy's, the iterate of the last permitted update
    counts.  Raises NumericalFailure when maxiter updates do not converge."""
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    bb = np.dot(b, b)
    if bb == 0.0:
        return b.copy()
    atol = CG_RTOL * math.sqrt(bb)
    r = b - M @ x if x.any() else b.copy()
    p = rho_prev = None
    for _ in range(maxiter):
        if math.sqrt(np.dot(r, r)) < atol:
            return x
        z = precond(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = M @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    if math.sqrt(np.dot(r, r)) < atol:
        return x
    raise NumericalFailure(f"conjugate gradients failed to converge (info={maxiter})")


def identity(r: np.ndarray) -> np.ndarray:
    return r  # the preconditioner of plain CG


def _median(d: np.ndarray) -> float:
    """np.median of a flat array, bit for bit, from one partition."""
    k, odd = d.size // 2, d.size % 2
    part = np.partition(d, k if odd else (k - 1, k))
    return part[k] if odd else (part[k - 1] + part[k]) / 2


class SinePreconditioner:
    """(A + c I)^-1 for A = I - dt theta L on a 2D Dirichlet grid.

    The orthonormal type-I sine matrix S (symmetric, S S = I) diagonalises
    the 5-point Laplacian with zero ghost values along each axis, so A maps
    a field R, reshaped to the grid, to S ((S R S) * lam) S, with lam[k, l]
    = 1 + dt theta (4/h0^2 sin^2(pi k / 2(n+1)) + 4/h1^2 sin^2(pi l / 2(n+1))).
    `for_diag(d)` is the map r -> S ((S R S) / (lam + c)) S, the inverse of
    A + c I with c the median of d, and so of A + diag(d) when d is constant.
    """

    def __init__(self, grid: Grid, dt: float, theta: float):
        n = grid.n
        k = np.arange(1, n + 1)
        self.S = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
        s2 = np.sin(0.5 * np.pi * k / (n + 1)) ** 2
        h0, h1 = grid.h
        self.lam = 1.0 + dt * theta * (4.0 / h0**2 * s2[:, None] + 4.0 / h1**2 * s2[None, :])
        self.shape = grid.shape

    def for_diag(self, extra_diag: np.ndarray):
        S, shape = self.S, self.shape
        inv = 1.0 / (self.lam + _median(extra_diag))

        def apply(r: np.ndarray) -> np.ndarray:
            return (S @ ((S @ r.reshape(shape) @ S) * inv) @ S).reshape(-1)

        return apply


class ImplicitSolver:
    """(A + diag(d)) x = b for A = I - dt theta L on `grid`; `precond` is the
    SinePreconditioner of a 2D Dirichlet grid, else None (the identity)."""

    def __init__(self, grid: Grid, dt: float, theta: float):
        L = gridmod.laplacian_csr(grid)
        self.A = (sparse.identity(grid.n_nodes, format="csr") - (dt * theta) * L).tocsr()
        self.dim = grid.dim
        self.n = grid.n_nodes
        self._main = self.A.diagonal().copy()
        sine = grid.dim == 2 and grid.bc_kind == gridmod.DIRICHLET
        self.precond = SinePreconditioner(grid, dt, theta) if sine else None
        if self.dim == 1:
            self._lower = self.A.diagonal(-1).copy()
            self._upper = self.A.diagonal(1).copy()
        else:
            # the CG matrix: a copy of A whose diagonal entries, at _diag_at in its
            # data, each solve overwrites with A's diagonal plus its own
            self._M = self.A.copy()
            rows = np.repeat(np.arange(self.n), np.diff(self._M.indptr))
            self._diag_at = np.flatnonzero(self._M.indices == rows)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """A y, of a field or of each row of a stack."""
        return (self.A @ y.T).T

    def solve(self, extra_diag: np.ndarray, b: np.ndarray, x0=None):
        """x with (A + diag(extra_diag[r])) x[r] = b[r] for each row r of a
        stack: LAPACK gtsv in 1D (what scipy's solve_banded calls for one sub-
        and one super-diagonal, without its argument checks), in one call for
        all rows without an extra diagonal; in 2D `conjugate_gradients` from
        x0, row by row, to |b - M x| < CG_RTOL |b|, preconditioned by the
        solver's SinePreconditioner for that row's extra diagonal on a
        Dirichlet grid, else by the identity, with the bits of scipy's `cg`.
        Returns x and the rows whose solve failed, each with its error
        (their rows of x are meaningless)."""
        x = np.zeros_like(b)
        rows = range(len(b))  # the rows solved one at a time
        if self.dim == 1:
            rows = np.flatnonzero(extra_diag.any(axis=-1)).tolist()
            if len(rows) < len(b):
                # A is an M-matrix, so this cannot fail; gtsv solves each of several
                # right-hand sides as it solves it alone, and the rows with an extra
                # diagonal are solved again below
                x = self._gtsv(self._main, b.T).T
        failures = {}
        for row in rows:
            try:
                x[row] = self._solve_one(extra_diag[row], b[row],
                                         None if x0 is None else x0[row])
            except NumericalFailure as exc:
                failures[row] = exc
        return x, failures

    def _gtsv(self, main: np.ndarray, b: np.ndarray) -> np.ndarray:
        *_, x, info = dgtsv(self._lower, main, self._upper, b)
        if info != 0:
            raise NumericalFailure(f"tridiagonal solve failed (info={info})")
        return x

    def _solve_one(self, extra_diag: np.ndarray, b: np.ndarray, x0) -> np.ndarray:
        if self.dim == 1:  # b as a column, which gtsv takes without a copy
            return self._gtsv(self._main + extra_diag, b[:, None])[:, 0]
        self._M.data[self._diag_at] = self._main + extra_diag
        precond = identity if self.precond is None else self.precond.for_diag(extra_diag)
        return conjugate_gradients(self._M, b, x0, 20 * self.n, precond)


class NewtonResult(NamedTuple):
    """The stack of solutions; the iterations summed over its rows; each
    row's final residual and iterations; and the rows that failed, each with
    the error its solve alone raises."""

    y: np.ndarray
    iters: int
    residual: np.ndarray
    row_iters: np.ndarray
    failures: dict[int, NumericalFailure]


def newton_penalized_solve(
    solver: ImplicitSolver,
    rhs: np.ndarray,
    dt_scale: float | np.ndarray,
    eps: float | np.ndarray,
    y_init: np.ndarray,
    newton_tol: float,
    newton_max: int,
    linear_diag: np.ndarray | None = None,
) -> NewtonResult:
    """Solve  (A + diag(linear_diag)) y + dt_scale * beta_eps(y) = rhs  by
    active-set Newton, for each row of a stack.

    dt_scale is the nonnegative coefficient in front of the penalty, a
    scalar or one per node (dt for the interior obstacle; the boundary
    geometric factor for Signorini, zero elsewhere).  eps is a scalar or a
    column with one value per row.  Finite termination:
    the system is piecewise linear with a monotone diagonal nonlinearity.  A
    row is accepted once its active set is stable and its residual is at
    most newton_tol * max(1, max|rhs|) over the row: round-off in the
    residual grows with the scale of the data, so an absolute bound fails
    on large data.  Every row keeps its own active set and tolerance and is
    solved until it is accepted, so it sees the iterates of its own solve.
    Rows that do not converge, or whose linear solve fails, go to
    `failures`.
    """
    y = np.array(y_init, dtype=float)  # a copy
    P = len(rhs)
    penalized = dt_scale > 0.0
    active = (y < 0.0) & penalized
    base = 0.0 if linear_diag is None else np.broadcast_to(linear_diag, rhs.shape)
    tol = newton_tol * np.maximum(1.0, np.abs(rhs).max(axis=-1, initial=0.0))
    iters = np.zeros(P, dtype=int)
    resid = np.zeros(P)
    failures = {}
    todo = np.arange(P)  # the rows not yet accepted
    for it in range(1, newton_max + 1):
        sel = todo if todo.size < P else slice(None)
        b = base if linear_diag is None else base[sel]
        e = eps[sel] if np.ndim(eps) else eps
        y_sel, bad = solver.solve(b + np.where(active[sel], dt_scale / e, 0.0), rhs[sel],
                                  x0=y[sel])
        y[sel] = y_sel
        new_active = (y_sel < 0.0) & penalized
        r = solver.apply(y_sel) + b * y_sel + dt_scale * penalty.beta_eps(y_sel, e) - rhs[sel]
        resid[sel] = np.abs(r).max(axis=-1, initial=0.0)
        iters[sel] = it
        going = ~((new_active == active[sel]).all(axis=-1) & (resid[sel] <= tol[sel]))
        for j, exc in bad.items():
            failures[int(todo[j])] = exc
            going[j] = False
        active[sel] = new_active
        todo = todo[going]
        if not todo.size:
            break
    for row in todo.tolist():
        failures[row] = NewtonError(
            f"semismooth Newton did not converge in {newton_max} iterations "
            f"(last residual {resid[row]:.3e})"
        )
    return NewtonResult(y, int(iters.sum()), resid, iters, failures)


# ---------------------------------------------------------------------------
# single step and full march


def _transport(grid: Grid, g: np.ndarray | None, y: np.ndarray) -> np.ndarray:
    """g . grad y, with g holding one component per axis along its
    second-to-last axis."""
    out = np.zeros_like(y)
    if g is None:
        return out
    for axis, dya in enumerate(gridmod.apply_gradient(grid, y)):
        out += g[..., axis, :] * dya
    return out


def step_interior(grid: Grid, y_n: np.ndarray, coeffs: StepCoeffs, cfg: SolveConfig,
                  solver: ImplicitSolver, lift: BoundaryLift | None = None,
                  t_next: float | None = None) -> NewtonResult:
    """One theta-step of the penalized interior obstacle problem, of each row
    of a stack of states, with coefficients stacked alike, by the march's
    ImplicitSolver(grid, cfg.dt, cfg.theta).

    A BoundaryLift enters as its ghost value at the theta-weighted time
    between coeffs.t and t_next.  Returns Newton's result.  The dt it is
    given meets the transport guard dt * sup|g| / h <= 1: refinement picked
    it.
    """
    if y_n.ndim != 2 or y_n.shape[1] != grid.n_nodes:
        raise ValueError("state size mismatch")
    source = coeffs.source
    if lift is not None:
        ghost = grid.zeros()
        ghost[0] = (cfg.theta * lift.rate * t_next
                    + (1.0 - cfg.theta) * lift.rate * coeffs.t) / grid.h[0] ** 2
        source = source + ghost
    explicit = (1.0 - cfg.theta) * gridmod.apply_laplacian(grid, y_n) if cfg.theta < 1.0 else 0.0
    rhs = y_n + cfg.dt * (explicit - coeffs.reaction(y_n)
                          - _transport(grid, coeffs.g, y_n) + source)
    return newton_penalized_solve(
        solver, rhs, cfg.dt, cfg.eps, y_n, cfg.newton_tol, cfg.newton_max
    )


def _coarsen_to(paths: BrownianPathSet, tg: TimeGrid) -> BrownianPathSet:
    if paths.tg.N % tg.N != 0 or abs(paths.tg.T - tg.T) > 1e-12 * max(1.0, tg.T):
        raise ConfigError(
            f"path set (N={paths.tg.N}, T={paths.tg.T}) must be sampled on the run grid "
            f"(N={tg.N}, T={tg.T}) or a refinement of it"
        )
    return paths.coarsen(paths.tg.N // tg.N)


def _transport_sup_bound(fields: SpaceFields, grid: Grid, paths: BrownianPathSet) -> np.ndarray:
    """Per-axis upper bound of sup_xi |g_a(t_n, xi)| over the path's nodes."""
    if fields.m == 0:
        return np.zeros(grid.dim)
    grad_sup = np.abs(fields.grad).max(axis=2)  # (m, dim)
    times = paths.tg.nodes
    a = np.array([np.broadcast_to(c.time.value(times), times.shape)
                  for c in fields.coefficients])
    return 2.0 * (np.abs(paths.values * a).T @ grad_sup).max(axis=0)


def _pick_refinement(grid: Grid, tg: TimeGrid, fields: SpaceFields,
                     paths: BrownianPathSet) -> tuple[int, BrownianPathSet]:
    """Smallest halving level satisfying the transport guard, or raise."""
    best_margin = np.inf
    for level in range(MAX_HALVINGS + 1):
        factor = 2**level
        if (tg.N * factor) > paths.tg.N or paths.tg.N % (tg.N * factor) != 0:
            break
        run_tg = tg.refined(factor)
        run_paths = _coarsen_to(paths, run_tg)
        bounds = _transport_sup_bound(fields, grid, run_paths)
        margin = max(
            (run_tg.dt * b / grid.h[axis] for axis, b in enumerate(bounds)), default=0.0
        )
        best_margin = min(best_margin, margin)
        if margin <= 1.0:
            return level, run_paths
    raise StabilityError(
        f"transport guard dt*sup|g|/h <= 1 unreachable within the retry budget "
        f"(best margin {best_margin:.3f}); supply a finer path set or smaller dt"
    )


def coeff_block(grid: Grid, fields: SpaceFields, paths, rows: range,
                rs: ReactionSpec, forcing: ForcingSpec, em: bool = False) -> StepCoeffs:
    """The coefficients at the nodes `rows` of `paths`, a sequence of path
    sets on one time grid: one row per node, with a path axis after it.

    A Neumann grid adds dmu/dnu; `em` adds the noise factor of the
    Euler-Maruyama rule.  Nodes beyond the mu cap are evaluated too, without
    overflow warnings: the march stops at the first.
    """
    t = np.arange(rows.start, rows.stop) * paths[0].tg.dt
    mu = noisemod.eval_mu(fields, paths, rows)
    mu_tilde = noisemod.eval_mu_tilde(fields, paths, rows)
    grad_mu, lap_mu, g = noisemod.eval_mu_derivs(fields, paths, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        exp_mu, exp_neg_mu = np.exp(mu), np.exp(-mu)
        if forcing.kind == "zero":
            source = np.zeros_like(mu)
        elif forcing.transformed:
            source = np.broadcast_to(forcing.value(grid), mu.shape)
        else:
            source = transform.effective_source(mu, forcing.value(grid))
    noisy = fields.m > 0
    return StepCoeffs(
        t=t, rs=rs, mu=mu, mu_tilde=mu_tilde, grad_mu=grad_mu, lap_mu=lap_mu,
        zero_order=transform.zero_order(mu_tilde, grad_mu, lap_mu),
        exp_mu=exp_mu, exp_neg_mu=exp_neg_mu,
        g=g if noisy else None, g_sup=np.abs(g).max(axis=-1) if noisy else None,
        source=source,
        dmu_dnu=gridmod.normal_derivative(grid, mu) if grid.bc_kind == gridmod.NEUMANN else None,
        noise=noisemod.eval_noise(fields, paths, rows) if em else None,
    )


def mu_cap_failure(peak: float, t: float, mu_cap: float) -> NumericalFailure:
    return NumericalFailure(f"|mu| reached {peak:.3g} at t={t:.4g}, beyond the cap {mu_cap}")


def _march(grid: Grid, tg: TimeGrid, cs: CoeffSpec, rs: ReactionSpec, forcing: ForcingSpec,
           x: InitialData | np.ndarray, cfg: SolveConfig, paths, refine, rule) -> list:
    """March a batch of Brownian paths, a sequence of path sets, from x with
    a step rule.

    Returns, per path, its PathSolution or the NumericalFailure that stopped
    it.  A path leaves the batch at its failure with the error its solve
    alone raises, and the others go on; every path gets the bits it gets in
    a batch of one.
    refine(grid, tg, fields, paths) returns a path's halving level and its
    path set on the run grid, or raises; it alone serves the transport
    guard.  Paths at different levels march as separate batches.  refine is
    None only for the Euler-Maruyama rule, which has no transport term: it
    marches on tg, its state is X = e^mu y, and its coefficient records
    hold the noise factor.  cfg.eps holds one value or one per path; each
    batch hands the rule a run SolveConfig whose eps is the column of its
    rows' values.
    rule(y, c, c_next, cfg, solver) advances the stack of states, one row
    per path, from run-grid node n to n + 1, given the coefficient records c
    and c_next of both nodes and the run's SolveConfig and ImplicitSolver,
    and returns newton_penalized_solve's result.  The returned trajectories
    hold y on the nodes of tg.
    """
    for p in paths:
        if cs.m != p.m:
            raise ConfigError(f"coefficient count {cs.m} != path component count {p.m}")
    run_paths = [_coarsen_to(p, tg) for p in paths]  # raises unless a path set refines tg
    x_field = x.evaluate(grid) if isinstance(x, InitialData) else np.asarray(x, dtype=float)
    if x_field.shape != (grid.n_nodes,):
        raise ConfigError("initial data does not match the grid")
    if np.min(x_field) < 0:
        raise ConfigError("initial data must be nonnegative")
    eps = np.asarray(cfg.eps, dtype=float)
    if eps.ndim == 0:
        eps = np.full(len(paths), eps)
    elif eps.shape != (len(paths),):
        raise ConfigError(f"eps holds {eps.size} values for a batch of {len(paths)} paths")

    em = refine is None  # the Euler-Maruyama march, the one without refinement
    fields = noisemod.space_fields(cs, grid)
    out = [None] * len(paths)
    levels = {}
    for i, p in enumerate(paths):
        try:
            level, run = refine(grid, tg, fields, p) if refine else (0, run_paths[i])
        except NumericalFailure as exc:
            out[i] = exc
            continue
        levels.setdefault(level, []).append((i, run))

    for level, members in levels.items():
        run = [r for _, r in members]
        P, stride, N, dt = len(run), 2**level, run[0].tg.N, run[0].tg.dt
        run_cfg = replace(cfg, dt=dt, eps=eps[[i for i, _ in members], None])
        solver = ImplicitSolver(grid, dt, cfg.theta)
        block_rows = max(2, BLOCK_VALUES // (P * grid.n_nodes))

        traj = np.zeros((P, tg.N + 1, grid.n_nodes))
        mu_traj = np.zeros_like(traj)
        cum_source = np.zeros((P, tg.N + 1))
        iters = np.zeros((P, N), dtype=int)
        resids = np.zeros((P, N))
        worst_margin, mu_sup, source_sq = np.zeros(P), np.zeros(P), np.zeros(P)
        failed = {}
        live = np.arange(P)  # the paths still marching, one per row of the state
        at = slice(None)  # their rows in the per-path arrays: all of them, until one fails
        y = np.repeat(x_field[None], P, axis=0)
        for lo in range(0, N + 1, block_rows):
            if not live.size:
                break
            rows = range(lo, min(lo + block_rows, N + 1))
            blk = coeff_block(grid, fields, [run[j] for j in live], rows, rs, forcing, em)
            peaks = np.abs(blk.mu).max(axis=-1)
            capped = peaks > cfg.mu_cap
            # a path fails at its first row beyond the cap, so no later row of it is used
            stop = int(np.where(capped.any(axis=0), capped.argmax(axis=0) + 1, len(rows)).max())
            mu_sup[live] = np.fmax(mu_sup[live], peaks.max(axis=0))
            # row i -> {path: its failure there}: a failed Newton step into node n
            # comes first, then the cap at n
            ends = {}
            with np.errstate(over="ignore", invalid="ignore"):  # rows past a path's cap
                if blk.g_sup is not None:  # the margins of the steps that start in this block
                    margins = (dt * blk.g_sup[:stop] / grid.h).max(axis=-1)[: N - lo]
                    worst_margin[live] = np.concatenate([worst_margin[live][None], margins]).max(0)
                # running quadrature of |f~|^2 before each row, summed in row order
                sq = dt * gridmod.inner(grid, blk.source[:stop], blk.source[:stop])
            for i, j in np.argwhere(capped[:stop]).tolist():
                ends.setdefault(i, {})[int(live[j])] = mu_cap_failure(peaks[i, j], blk.t[i],
                                                                      cfg.mu_cap)
            before = np.cumsum(np.concatenate([source_sq[live][None], sq]), axis=0)
            source_sq[live] = before[-1]
            keep = np.arange(-lo % stride, stop, stride)  # the rows on nodes of tg
            stored = np.ix_(live, (lo + keep) // stride)
            mu_traj[stored] = blk.mu[keep].swapaxes(0, 1)
            cum_source[stored] = before[keep].T
            for i, n in enumerate(rows[:stop]):
                c_next = blk.row(i)
                errors = {}
                if n > 0:  # the step from node n - 1, which may lie in the previous block
                    step = rule(y, c, c_next, run_cfg, solver)
                    y = step.y
                    iters[at, n - 1] = step.row_iters
                    resids[at, n - 1] = step.residual
                    errors = {int(live[j]): exc for j, exc in step.failures.items()}
                for j, exc in ends.get(i, {}).items():
                    if j in live:
                        errors.setdefault(j, exc)
                if errors:
                    failed.update(errors)
                    kept = np.flatnonzero(~np.isin(live, list(errors)))
                    live, y, blk, c_next = live[kept], y[kept], blk.take(kept), c_next.take(kept)
                    at = live
                    if not live.size:
                        break
                    run_cfg = replace(run_cfg, eps=run_cfg.eps[kept])
                if n % stride == 0:
                    traj[at, n // stride] = y
                c = c_next

        for j, (i, _) in enumerate(members):
            if j in failed:
                out[i] = failed[j]
                continue
            y_traj = np.exp(-mu_traj[j]) * traj[j] if em else traj[j]
            diag = Diagnostics(
                newton_iters=iters[j],
                residuals=resids[j],
                stability_margin=float(worst_margin[j]),
                delta=noisemod.path_sup(run[j]),
                refine_level=level,
                mu_sup=float(mu_sup[j]),
                cum_source_sq=cum_source[j],
                eps=float(eps[i]),
            )
            out[i] = PathSolution(grid=grid, tg=tg, y=y_traj, eta=penalty.beta_eps(y_traj, eps[i]),
                                  mu=mu_traj[j], diagnostics=diag)
    return out


def solved(outcomes: list) -> list:
    """The solutions of a batch, or raise its first failure in list order."""
    for out in outcomes:
        if isinstance(out, NumericalFailure):
            raise out
    return outcomes


def _one(outcomes: list) -> PathSolution:
    """The solution of a batch of one path, or raise its failure."""
    (out,) = solved(outcomes)
    return out


def solve_path_batch(grid: Grid, tg: TimeGrid, cs: CoeffSpec, rs: ReactionSpec,
                     forcing: ForcingSpec, x: InitialData | np.ndarray, cfg: SolveConfig,
                     paths, boundary_lift: BoundaryLift | None = None) -> list:
    """solve_path for a sequence of path sets in one march: per path its
    PathSolution or the NumericalFailure its solve_path raises."""
    if grid.bc_kind != gridmod.DIRICHLET:
        raise ConfigError("solve_path needs a Dirichlet grid")
    if boundary_lift is not None and grid.dim != 1:
        raise ConfigError("boundary lift is only supported in 1D")

    def rule(y, c, c_next, cfg, solver):
        return step_interior(grid, y, c, cfg, solver, boundary_lift, c_next.t)

    return _march(grid, tg, cs, rs, forcing, x, cfg, paths, _pick_refinement, rule)


def solve_path(
    grid: Grid,
    tg: TimeGrid,
    cs: CoeffSpec,
    rs: ReactionSpec,
    forcing: ForcingSpec,
    x: InitialData | np.ndarray,
    cfg: SolveConfig,
    paths: BrownianPathSet,
    boundary_lift: BoundaryLift | None = None,
) -> PathSolution:
    """March the penalized transformed equation along one Brownian path.

    `paths` must be sampled on `tg` or a refinement of it; retries at
    halved dt restrict the same realization.  The returned trajectories
    live on the nodes of `tg` regardless of the internal refinement.
    """
    return _one(solve_path_batch(grid, tg, cs, rs, forcing, x, cfg, [paths], boundary_lift))


def direct_em_batch(grid: Grid, tg: TimeGrid, cs: CoeffSpec, rs: ReactionSpec,
                    forcing: ForcingSpec, x: InitialData | np.ndarray, cfg: SolveConfig,
                    paths) -> list:
    """direct_em_solve for a sequence of path sets in one march: per path
    its PathSolution or the NumericalFailure its solve raises."""
    if grid.bc_kind != gridmod.DIRICHLET:
        raise ConfigError("direct_em_solve needs a Dirichlet grid")
    if forcing.transformed:
        raise ConfigError("direct_em_solve integrates the original equation; "
                          "forcing must live in the original variables")
    f = forcing.value(grid) if forcing.kind != "zero" else None

    def em_step(X, c, c_next, cfg, solver):
        explicit = (1.0 - cfg.theta) * gridmod.apply_laplacian(grid, X) if cfg.theta < 1.0 else 0.0
        drift = explicit - rs.value(X)
        if f is not None:
            drift = drift + f
        rhs = X + cfg.dt * drift + X * c.noise
        return newton_penalized_solve(solver, rhs, cfg.dt, cfg.eps, X,
                                      max(cfg.newton_tol, 1e-12), cfg.newton_max)

    # no refinement: the Euler-Maruyama rule has no transport term
    return _march(grid, tg, cs, rs, forcing, x, cfg, paths, None, em_step)


def direct_em_solve(
    grid: Grid,
    tg: TimeGrid,
    cs: CoeffSpec,
    rs: ReactionSpec,
    forcing: ForcingSpec,
    x: InitialData | np.ndarray,
    cfg: SolveConfig,
    paths: BrownianPathSet,
) -> PathSolution:
    """Euler-Maruyama on the original equation: implicit Laplacian and
    penalty, explicit reaction, noise X_n * sum_k mu_k(t_n) dbeta_k(n) at the
    left endpoint.  The implicit penalty keeps the step stable in contact
    at any dt, where an explicit one needs dt <= 2 eps.  Shares the Brownian increments of solve_path when handed the
    same path set."""
    return _one(direct_em_batch(grid, tg, cs, rs, forcing, x, cfg, [paths]))


# ---------------------------------------------------------------------------
# picklable problem description for ensembles and studies


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to reproduce one path-wise solve, picklable so
    ensembles can be distributed across worker processes."""

    dim: int = 1
    lengths: tuple[float, ...] = (1.0,)
    n: int = 63
    bc_kind: str = gridmod.DIRICHLET
    T: float = 0.25
    n_steps: int = 250
    theta: float = 1.0
    coefficients: tuple = ()
    seed: int = 0
    reaction: ReactionSpec = dc_field(default_factory=ReactionSpec)
    forcing: ForcingSpec = dc_field(default_factory=ForcingSpec)
    initial: InitialData = dc_field(default_factory=InitialData)
    eps: float | tuple[float, ...] = 1e-3  # or one per path of solve_paths
    newton_tol: float = 1e-10
    newton_max: int = 200
    mu_cap: float = 30.0
    headroom: int = 8

    def build(self):
        g = gridmod.build_grid(self.dim, list(self.lengths), self.n, self.bc_kind)
        tg = TimeGrid(self.T, self.n_steps)
        cs = CoeffSpec(tuple(self.coefficients))
        cfg = SolveConfig(tg.dt, self.theta, self.eps, self.newton_tol, self.newton_max,
                          self.mu_cap)
        return g, tg, cs, cfg

    def sample(self, path_id: int) -> BrownianPathSet:
        tg = TimeGrid(self.T, self.n_steps * self.headroom)
        return noisemod.sample_paths(tg, len(self.coefficients), self.seed, path_id)

    def solve(self, path_id: int) -> PathSolution:
        g, tg, cs, cfg = self.build()
        paths = self.sample(path_id)
        if self.bc_kind == gridmod.NEUMANN:
            from .signorini import solve_signorini_path

            return solve_signorini_path(g, tg, cs, self.reaction, self.forcing,
                                        self.initial, cfg, paths)
        return solve_path(g, tg, cs, self.reaction, self.forcing, self.initial, cfg, paths)

    def solve_paths(self, path_ids) -> list:
        """Per path id, its PathSolution or the NumericalFailure that its
        solve raises, from one march over all of them."""
        g, tg, cs, cfg = self.build()
        paths = [self.sample(pid) for pid in path_ids]
        if self.bc_kind == gridmod.NEUMANN:
            from .signorini import solve_signorini_batch

            return solve_signorini_batch(g, tg, cs, self.reaction, self.forcing,
                                         self.initial, cfg, paths)
        return solve_path_batch(g, tg, cs, self.reaction, self.forcing, self.initial, cfg,
                                paths)
