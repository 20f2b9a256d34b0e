"""Path-wise time integration: one march, three step rules.

`_march` carries a batch of Brownian paths, one `noise.PathStack` from
sampling to the march, over the time grid for every solver; the single-path
solvers are batches of one.  The state is a stack with one row per path.
The march validates the initial datum and the stack, picks every path's run
grid from one transport bound per halving level over that stack, builds
the time-independent coefficient fields once, and marches the paths of
each level apart on a strided slice of the stack.  It evaluates
the coefficients of all their paths for blocks of consecutive run-grid nodes
from that slice (`coeff_block`), checks the mu cap there, stores the
trajectories at stride 2^level and fills each path's `Diagnostics`.
Every row gets the bits that its path gets alone, and a path that fails
leaves the batch with the error its own solve raises.  Only the step rule
differs, and the march hands every rule the same arguments after its grid:
the stack of states, the coefficient records of the step's two nodes (row
views of the blocks), and the run's SolveConfig and ImplicitSolver:

- `step_interior` (solve_path) is the theta-scheme of the penalized
  transformed equation,

      (I - dt theta Lap) y1 + dt beta_eps(y1)
          = y0 + dt [ (1-theta) Lap y0 - F_eff(t, y0) - g . grad y0 + f~ ],

  with an optional ghost value for a left boundary value rising at a
  given rate (the Stefan reduction's lift);
- `signorini.step_signorini` (solve_signorini_path) moves the penalty and
  a Robin diagonal to the boundary nodes of a Neumann grid;
- the Euler-Maruyama rule of direct_em_solve integrates the original
  equation for cross-checks: implicit Laplacian and penalty, explicit
  reaction and noise.

The Laplacian and the penalty are implicit, everything else explicit.  The
diagonal monotone penalty is resolved by a semismooth Newton / active set
iteration (nodes with y < 0 get dt/eps added to the diagonal), which
terminates finitely on this piecewise-linear system, row by row of the
stack, by the march's `ImplicitSolver(grid, dt, theta)`.  It holds
A = I - dt theta Lap in one form, the stencil `grid.apply_laplacian`, and
solves with it: tridiagonal LAPACK solves on A's bands in 1D (dgtsv, from
scipy's LAPACK extension loaded without the scipy.linalg package); in 2D
`conjugate_gradients`, an in-house CG.  On a Dirichlet grid it runs in the
type-I discrete sine basis that diagonalises A (`SineBasis`): there the
system is the diagonal lam + c, with c the median of the solve's extra
diagonal, plus a correction confined to the bounding box of the nodes whose
extra diagonal differs from c, and the diagonal is the preconditioner; a
Newton iteration there may end its CG once its next active set is certain.
On a Neumann grid A is not symmetric, but W A is, with W the trapezoid
weights over h0 h1: CG runs with the identity on W (A + diag d) x = W b,
which is symmetric positive definite.  CG tests the residual of the system
it runs on, |b - M x| < CG_RTOL |b|, after every update.

eps is one value for the batch or one per path.  The march carries it as a
column beside the state, one row per path, and the step rules, Newton and
beta_eps read each row's own value, so an eps sweep on one Brownian path is
one march over copies of that path.

The explicit transport term carries the stability restriction
dt * sup|g| / h <= 1.  Because g is a function of the Brownian path alone,
a bound of it picks each path's dt before marching, one bound per level
over the paths of the batch that have none yet: violating paths are run at
halved dt (up to MAX_HALVINGS) using a finer restriction of the same path
realization, then reported as failures.  A level is admitted only when
an upper bound of dt * sup|g| / h is at most 1, so no step of the march can
break the guard; the march records each path's largest margin
(`Diagnostics.stability_margin`) and checks nothing more.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import grid as gridmod
from . import noise as noisemod
from . import penalty, transform
from .errors import ConfigError, NewtonError, NumericalFailure, StabilityError
from .grid import Grid
from .noise import BrownianPathSet, CoeffSpec, PathStack, SpaceFields, TimeGrid
from .transform import ReactionSpec

MAX_HALVINGS = 3  # dt halvings a path may take to meet the transport guard


def _flapack_from_file():
    """scipy's `scipy.linalg._flapack` extension, loaded from its file and
    entered in sys.modules under its own name, or None when no file is found
    or it does not load.  The scipy.linalg package's __init__ (~0.25 s of
    imports the lab never uses) does not run; a later `import scipy.linalg`
    finds the module in sys.modules and shares it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # finds scipy, does not import it
    for root in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
            except ImportError:
                return None
            sys.modules[name] = module
            return module
    return None


def _load_dgtsv():
    """LAPACK dgtsv: from the extension file, or, since `_flapack` is private
    scipy API, from the public scipy.linalg.lapack when that fails."""
    module = _flapack_from_file()
    if module is None:
        from scipy.linalg.lapack import dgtsv

        return dgtsv
    return module.dgtsv


dgtsv = _load_dgtsv()


@dataclass(frozen=True)
class SolveConfig:
    """Numerical parameters of one path-wise solve."""

    dt: float
    theta: float = 1.0
    eps: float | tuple[float, ...] = 1e-3  # or one per path of a batch
    newton_tol: float = 1e-10
    newton_max: int = 200
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
        if not 0 < self.mu_cap < np.inf:
            errors.append(f"mu_cap must be > 0 and finite, got {self.mu_cap}")
        if errors:
            raise ConfigError(errors)


def _sine_product(grid: Grid, amplitude: float) -> np.ndarray:
    """amplitude * prod over the axes of sin(pi x / L), the first sine mode."""
    out = np.full(grid.n_nodes, amplitude)
    for x, L in zip(grid.meshes(), grid.lengths):
        out = out * np.sin(np.pi * x / L)
    return out


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
        """The datum at the nodes; ConfigError unless a center has one value per axis."""
        if self.center is not None and len(self.center) != grid.dim:
            raise ConfigError(f"center needs {grid.dim} value(s) on a {grid.dim}D grid, "
                              f"got {len(self.center)}")
        if self.kind == "sine":
            return np.maximum(_sine_product(grid, self.amplitude), 0.0)
        center = self.center or tuple(L / 2.0 for L in grid.lengths)
        radius = self.radius if self.radius is not None else min(grid.lengths) / 4.0
        dist = np.zeros(grid.n_nodes)
        for x, c in zip(grid.meshes(), center):
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
    (amplitude on the strip within `width` of the boundary).
    """

    kind: str = "zero"
    amplitude: float = 0.0
    width: float = 0.1

    def __post_init__(self):
        errors = []
        if self.kind not in ("zero", "const", "sine", "edge"):
            errors.append(f"kind must be zero|const|sine|edge, got {self.kind!r}")
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
        if self.kind == "sine":
            return _sine_product(grid, self.amplitude)
        # edge: boundary strip of the given width
        dist = np.full(grid.n_nodes, np.inf)
        for x, L in zip(grid.meshes(), grid.lengths):
            dist = np.minimum(dist, np.minimum(x, L - x))
        return np.where(dist < self.width, self.amplitude, 0.0)


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


def zero_coeffs(grid: Grid, rs: ReactionSpec | None = None) -> StepCoeffs:
    z, one = grid.zeros(), np.ones(grid.n_nodes)
    return StepCoeffs(t=0.0, rs=rs or ReactionSpec(), mu=z, mu_tilde=z,
                      grad_mu=np.zeros((grid.dim, grid.n_nodes)), lap_mu=z, zero_order=z,
                      exp_mu=one, exp_neg_mu=one, g=None, g_sup=None, source=z, dmu_dnu=z)


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


def conjugate_gradients(matvec, b: np.ndarray, x0: np.ndarray | None, maxiter: int,
                        precond, stop=None) -> np.ndarray:
    """x with M x = b by conjugate gradients from x0 (zeros when None), for
    a symmetric positive definite M applied as matvec(p) = M p,
    preconditioned by precond(r) ~ M^-1 r.  The iterate after each update is
    tested, the last one too, on the unpreconditioned residual:
    |b - M x| < CG_RTOL |b|.  With the identity, z = r, so every solve that
    converges makes the operations of scipy.sparse.linalg.cg(M, b, x0=x0,
    rtol=CG_RTOL, atol=0.0, maxiter=maxiter) and returns its bits, without
    scipy's operator wrappers; unlike scipy's, the iterate of the last
    permitted update counts.  The bits are scipy's only where the products
    are too: the tests check them with matvec(p) = M @ p of a CSR matrix of
    their own, while `ImplicitSolver` applies stencils.  Raises
    NumericalFailure when maxiter updates do not converge.
    stop(x, rnorm), when given, is called with an unconverged iterate each
    time the norm rnorm of CG's recursive residual has fallen a decade below
    its value at the last call, or at x0 for the first; CG returns that x at
    once when it returns True.  It reads x and changes no operation of CG."""
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    bb = np.dot(b, b)
    if bb == 0.0:
        return b.copy()
    atol = CG_RTOL * math.sqrt(bb)
    r = b - matvec(x) if x.any() else b.copy()
    rnorm = math.sqrt(np.dot(r, r))
    mark = rnorm / 10.0  # the residual norm at which stop is called next
    p = rho_prev = None
    for _ in range(maxiter):
        if rnorm < atol:
            return x
        if stop is not None and rnorm < mark:
            if stop(x, rnorm):
                return x
            mark = rnorm / 10.0
        z = precond(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        rnorm = math.sqrt(np.dot(r, r))
    if rnorm < atol:
        return x
    raise NumericalFailure(f"conjugate gradients failed to converge (info={maxiter})")


def identity(r: np.ndarray) -> np.ndarray:
    return r  # the preconditioner of plain CG


def _median(d: np.ndarray) -> float:
    """np.median of a flat array, bit for bit, from one partition."""
    k, odd = d.size // 2, d.size % 2
    part = np.partition(d, k if odd else (k - 1, k))
    return part[k] if odd else (part[k - 1] + part[k]) / 2


class SineBasis:
    """(A + diag(d)) x = b for A = I - dt theta L on a 2D Dirichlet grid, by
    CG in the orthonormal type-I sine basis.

    The sine matrix S (symmetric, S S = I) diagonalises the 5-point
    Laplacian with zero ghost values along each axis, so the basis change
    T: R -> S R S of a field R, reshaped to the grid, is its own inverse and
    T A T is the diagonal lam[k, l] = 1 + dt theta (4/h0^2 sin^2(pi k /
    2(n+1)) + 4/h1^2 sin^2(pi l / 2(n+1))).  With c the median of d,

        T (A + diag d) T P = (lam + c) P + S[:, R] ((S[R, :] P S[:, C]) * (d - c)[R, C]) S[C, :],

    where R and C are the rows and columns of the bounding box of d != c, so
    the correction costs n^2 (|R| + |C|) + 2 n |R| |C| multiply-adds.  A
    constant d has no box: the system is the diagonal lam + c, solved by
    division.  Otherwise CG runs on this operator with the diagonal
    preconditioner 1 / (lam + c), which is CG on A + diag(d) preconditioned
    by the inverse of A + c I; T is orthonormal, so the stopping test
    |T b - (T M T) T x| < CG_RTOL |T b| is the one on M x = b up to round-off.
    """

    def __init__(self, grid: Grid, dt: float, theta: float):
        n = grid.n
        k = np.arange(1, n + 1)
        self.S = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
        s2 = np.sin(0.5 * np.pi * k / (n + 1)) ** 2
        h0, h1 = grid.h
        self.lam = 1.0 + dt * theta * (4.0 / h0**2 * s2[:, None] + 4.0 / h1**2 * s2[None, :])
        self.shape = grid.shape

    def transform(self, v: np.ndarray) -> np.ndarray:
        """T v = S V S of a flat field v; T T v = v."""
        return (self.S @ v.reshape(self.shape) @ self.S).reshape(-1)

    def box(self, dev: np.ndarray) -> tuple[slice, slice] | None:
        """The rows and columns of the bounding box of the nonzeros of dev,
        a field on the grid, or None when it has none."""
        rows = np.flatnonzero(dev.any(axis=1)).tolist()
        if not rows:
            return None
        cols = np.flatnonzero(dev.any(axis=0)).tolist()
        return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)

    def operator(self, extra_diag: np.ndarray):
        """The map p -> T (A + diag d) T p of flat fields, for d = extra_diag,
        or None when d is constant and the map is its diagonal part; and that
        diagonal part lam + c, flat."""
        c = _median(extra_diag)
        shift = self.lam + c
        flat = shift.reshape(-1)
        dev = (extra_diag - c).reshape(self.shape)
        box = self.box(dev)
        if box is None:
            return None, flat
        R, C = box
        SR, SC, D = self.S[R], self.S[C], dev[R, C]

        def apply(p: np.ndarray) -> np.ndarray:
            P = p.reshape(self.shape)
            out = SR.T @ ((SR @ P @ SC.T) * D) @ SC
            out += shift * P
            return out.reshape(-1)

        return apply, flat

    def solve(self, extra_diag: np.ndarray, b: np.ndarray, x0, maxiter: int,
              active: np.ndarray | None = None) -> np.ndarray:
        """x with (A + diag(extra_diag)) x = b by `conjugate_gradients` in the
        sine basis from x0 (zeros when None), in at most maxiter updates, or
        by division when extra_diag is constant.

        Given `active`, the nodes a Newton iteration solved as in contact, CG
        stops at an iterate x whose negative nodes are not `active` once the
        sign of every node is certain, and returns x: its negative nodes are
        the next active set, the one the solve to CG_RTOL gives.  The
        sine-basis matrix is lam + T diag(d) T with lam >= 1 and d >= 0, so
        every node of x lies within |r| of the exact solution, r being CG's
        residual, and the solve to CG_RTOL within CG_RTOL |b| of it; a sign
        is certain where |x| > |r| + 2 CG_RTOL |b|, the second CG_RTOL |b|
        covering the residuals' drift from b - M x and the transforms'
        round-off.  The check, one transform, runs at each decade that |r|
        falls, never at x0; once the certain signs are `active`'s, CG runs on
        to CG_RTOL, bit for bit as without `active`."""
        bh = self.transform(b)
        op, shift = self.operator(extra_diag)
        if op is None:
            return self.transform(bh / shift)
        stop, found = None, []
        if active is not None:
            margin = 2.0 * CG_RTOL * math.sqrt(np.dot(bh, bh))

            def stop(xh: np.ndarray, rnorm: float) -> bool:
                nonlocal active
                if active is None:  # the tight solve keeps active's set: converge
                    return False
                y = self.transform(xh)
                if not (np.abs(y) > rnorm + margin).all():
                    return False
                if ((y < 0.0) == active).all():
                    active = None
                    return False
                found.append(y)
                return True

        x = conjugate_gradients(op, bh, None if x0 is None else self.transform(x0), maxiter,
                                lambda r: r / shift, stop)
        return found[0] if found else self.transform(x)  # the certificate transformed found[0]


class ImplicitSolver:
    """(A + diag(d)) x = b for A = I - dt theta L on `grid`, with L the
    stencil `grid.apply_laplacian`, the one form of A: LAPACK gtsv on its
    bands in 1D, CG in the sine basis (`sine`, a SineBasis) on a 2D
    Dirichlet grid, and plain CG on the system weighted by the trapezoid
    weights on a 2D Neumann grid (`sine` None)."""

    def __init__(self, grid: Grid, dt: float, theta: float):
        self.grid = grid
        self.dim = grid.dim
        self.n = grid.n_nodes
        self.dt_theta = dt * theta
        self.sine = None
        if grid.dim == 1:
            # the bands of I - dt theta L: L is -2/h^2 on its diagonal and 1/h^2
            # beside it, 2/h^2 towards the inward neighbour of a reflected boundary
            h2 = grid.h[0] ** 2
            self._main = np.full(self.n, 1.0 - self.dt_theta * (-2.0 / h2))
            self._lower = np.full(self.n - 1, -(self.dt_theta * (1.0 / h2)))
            self._upper = self._lower.copy()
            if grid.bc_kind == gridmod.NEUMANN:
                self._upper[0] = self._lower[-1] = -(self.dt_theta * (2.0 / h2))
        elif grid.bc_kind == gridmod.DIRICHLET:
            self.sine = SineBasis(grid, dt, theta)
        else:
            # W: the trapezoid weights over h0 h1, 1 inside, 1/2 on edges and 1/4 at
            # corners, so W (A + diag d) is exactly symmetric
            self._w = grid.weights / np.prod(grid.h)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """A y, of a field or of each row of a stack."""
        return y - self.dt_theta * gridmod.apply_laplacian(self.grid, y)

    def solve(self, extra_diag: np.ndarray, b: np.ndarray, x0=None, active=None):
        """x with (A + diag(extra_diag[r])) x[r] = b[r] for each row r of a
        stack: LAPACK gtsv in 1D (what scipy's solve_banded calls for one sub-
        and one super-diagonal, without its argument checks), in one call for
        all rows without an extra diagonal; in 2D `conjugate_gradients` from
        x0, row by row.  On a Dirichlet grid it runs in the sine basis
        (`SineBasis.solve`) to |b - M x| < CG_RTOL |b|, up to round-off.  On a
        Neumann grid it runs with the identity preconditioner on the
        symmetric positive definite system W M x = W b, with W the trapezoid
        weights over h0 h1 (1 inside, 1/2 on edges, 1/4 at corners), to
        |W (b - M x)| < CG_RTOL |W b|.
        `active`, one boolean field per row, lets row r of a Dirichlet solve
        stop early (`SineBasis.solve`) once the negative nodes of its solve to
        CG_RTOL are certain and are not active[r].
        Returns x and the rows whose solve failed, each with its error (their
        rows of x are meaningless)."""
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
                x[row] = self._solve_one(extra_diag[row], b[row], None if x0 is None else x0[row],
                                         None if active is None else active[row])
            except NumericalFailure as exc:
                failures[row] = exc
        return x, failures

    def _gtsv(self, main: np.ndarray, b: np.ndarray) -> np.ndarray:
        *_, x, info = dgtsv(self._lower, main, self._upper, b)
        if info != 0:
            raise NumericalFailure(f"tridiagonal solve failed (info={info})")
        return x

    def _solve_one(self, extra_diag: np.ndarray, b: np.ndarray, x0, active) -> np.ndarray:
        if self.dim == 1:  # b as a column, which gtsv takes without a copy
            return self._gtsv(self._main + extra_diag, b[:, None])[:, 0]
        if self.sine is not None:
            return self.sine.solve(extra_diag, b, x0, 20 * self.n, active)
        w = self._w
        return conjugate_gradients(lambda p: w * (self.apply(p) + extra_diag * p), w * b, x0,
                                   20 * self.n, identity)


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
    On a 2D Dirichlet grid with every node penalized, every iteration but
    the last permitted one lets a linear solve stop once the next active
    set, the one of the solve to CG_RTOL, is certain (`SineBasis.solve`).
    It stops only where that set differs from the row's active set, so the
    row is not accepted whatever its residual, and every residual a row
    ends with comes from a solve to CG_RTOL.
    Rows that do not converge, or whose linear solve fails, go to
    `failures`.  Raises ValueError unless every eps is positive.
    """
    penalty.check_eps(eps)
    y = np.array(y_init, dtype=float)  # a copy
    P = len(rhs)
    penalized = dt_scale > 0.0
    active = (y < 0.0) & penalized
    # with every node penalized the next active set is the negative nodes, which
    # a sine-basis solve can certify before it converges
    certify = solver.sine is not None and bool(np.all(penalized))
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
        # the last permitted iteration solves to CG_RTOL: a NewtonError quotes its residual
        guess = active[sel] if certify and it < newton_max else None
        y_sel, bad = solver.solve(b + np.where(active[sel], dt_scale / e, 0.0), rhs[sel],
                                  x0=y[sel], active=guess)
        y[sel] = y_sel
        new_active = (y_sel < 0.0) & penalized
        r = solver.apply(y_sel) + b * y_sel + dt_scale * penalty.penalize(y_sel, e) - rhs[sel]
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


def _transport(grid: Grid, g: np.ndarray | None, y: np.ndarray) -> np.ndarray | float:
    """g . grad y, with g holding one component per axis along its
    second-to-last axis; 0.0 without noise (g None)."""
    if g is None:
        return 0.0
    out = np.zeros_like(y)
    for axis, dya in enumerate(gridmod.apply_gradient(grid, y)):
        out += g[..., axis, :] * dya
    return out


def step_interior(grid: Grid, y_n: np.ndarray, coeffs: StepCoeffs, coeffs_next: StepCoeffs,
                  cfg: SolveConfig, solver: ImplicitSolver,
                  lift: float | None = None) -> NewtonResult:
    """One theta-step of the penalized interior obstacle problem, of each row
    of a stack of states, with coefficients stacked alike, by the march's
    ImplicitSolver(grid, cfg.dt, cfg.theta).

    `lift`, a rate r, is the 1D Dirichlet value y(0, t) = r t at the left
    end: it enters as the exact ghost value at the boundary-adjacent node,
    at the theta-weighted time between coeffs.t and coeffs_next.t; the step
    reads nothing else of coeffs_next.  Returns Newton's result.  The dt it
    is given meets the transport guard dt * sup|g| / h <= 1: refinement
    picked it.
    """
    if y_n.ndim != 2 or y_n.shape[1] != grid.n_nodes:
        raise ValueError("state size mismatch")
    source = coeffs.source
    if lift is not None:
        ghost = grid.zeros()
        ghost[0] = (cfg.theta * lift * coeffs_next.t
                    + (1.0 - cfg.theta) * lift * coeffs.t) / grid.h[0] ** 2
        source = source + ghost
    explicit = (1.0 - cfg.theta) * gridmod.apply_laplacian(grid, y_n) if cfg.theta < 1.0 else 0.0
    rhs = y_n + cfg.dt * (explicit - coeffs.reaction(y_n)
                          - _transport(grid, coeffs.g, y_n) + source)
    return newton_penalized_solve(
        solver, rhs, cfg.dt, cfg.eps, y_n, cfg.newton_tol, cfg.newton_max
    )


def _pick_refinement(grid: Grid, tg: TimeGrid, fields: SpaceFields,
                     stack: PathStack) -> list:
    """Per path of the stack, the smallest halving level at which an upper
    bound of dt * sup|g| / h over its run-grid nodes is at most 1, or the
    StabilityError naming its best margin: one bound per level, over the
    paths still without a level."""
    out = [0] * len(stack.values)
    if fields.m == 0:
        return out
    grad_sup = np.abs(fields.grad).max(axis=2)  # (m, dim)
    pending = np.arange(len(out))
    best = np.full(len(out), np.inf)
    for level in range(MAX_HALVINGS + 1):
        run_tg = tg.refined(2**level)
        if not pending.size or stack.tg.N % run_tg.N:
            break
        times = run_tg.nodes
        a = np.array([np.broadcast_to(c.time.value(times), times.shape)
                      for c in fields.coefficients])
        values = stack.values[pending, :, :: stack.tg.N // run_tg.N]
        bounds = 2.0 * (np.abs(values * a).swapaxes(1, 2) @ grad_sup).max(axis=1)  # (P, dim)
        margins = (run_tg.dt * bounds / grid.h).max(axis=1)
        best[pending] = np.fmin(best[pending], margins)
        for i in pending[margins <= 1.0].tolist():
            out[i] = level
        pending = pending[margins > 1.0]
    for i in pending.tolist():
        out[i] = StabilityError(
            f"transport guard dt*sup|g|/h <= 1 unreachable within the retry budget "
            f"(best margin {best[i]:.3f}); supply a finer path set or smaller dt"
        )
    return out


def coeff_block(grid: Grid, fields: SpaceFields, stack: PathStack, rows: range,
                rs: ReactionSpec, forcing: ForcingSpec | np.ndarray,
                em: bool = False) -> StepCoeffs:
    """The coefficients at the nodes `rows` of the paths of `stack`: one row
    per node, with a path axis after it.  `forcing` as an array is a source
    already in the transformed variables, which skips the e^{-mu} scaling.

    A Neumann grid adds dmu/dnu; `em` adds the noise factor of the
    Euler-Maruyama rule.  Nodes beyond the mu cap are evaluated too, without
    overflow warnings: the march stops at the first.
    """
    t = np.arange(rows.start, rows.stop) * stack.tg.dt
    mu = noisemod.eval_mu(fields, stack, rows)
    mu_tilde = noisemod.eval_mu_tilde(fields, stack, rows)
    grad_mu, lap_mu, g = noisemod.eval_mu_derivs(fields, stack, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        exp_mu, exp_neg_mu = np.exp(mu), np.exp(-mu)
        if isinstance(forcing, np.ndarray):
            source = np.broadcast_to(forcing, mu.shape)
        elif forcing.kind == "zero":
            source = np.zeros_like(mu)
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
        noise=noisemod.eval_noise(fields, stack, rows) if em else None,
    )


def mu_cap_failure(peak: float, t: float, mu_cap: float) -> NumericalFailure:
    return NumericalFailure(f"|mu| reached {peak:.3g} at t={t:.4g}, beyond the cap {mu_cap}")


def _march(grid: Grid, tg: TimeGrid, cs: CoeffSpec, rs: ReactionSpec,
           forcing: ForcingSpec | np.ndarray, x: InitialData | np.ndarray, cfg: SolveConfig,
           paths: PathStack, refine, rule) -> list:
    """March a batch of Brownian paths, one PathStack, from x with a step
    rule; `forcing` is as `coeff_block` takes it.

    Returns, per path, its PathSolution or the NumericalFailure that stopped
    it.  A path leaves the batch at its failure with the error its solve
    alone raises, and the others go on; every path gets the bits it gets in
    a batch of one.
    The stack is sampled on tg or a refinement of it.  refine(grid, tg,
    fields, stack) returns, per path of the stack, its halving level or the
    StabilityError its solve raises; it alone serves the transport guard.
    The paths of one level march as one batch, on the stack's values
    strided to that level's run grid.  refine is None only for the
    Euler-Maruyama rule, which has no transport term: it marches on tg, its
    state is X = e^mu y, and its coefficient records hold the noise factor.
    cfg.eps holds one value or one per path; each batch hands the rule a
    run SolveConfig whose eps is the column of its rows' values.
    rule(y, c, c_next, cfg, solver), the one signature of every step rule
    (`step_interior` and `signorini.step_signorini` with the grid and any
    further option bound by `functools.partial`), advances the stack of
    states, one row per path, from run-grid node n to n + 1, given the
    coefficient records c and c_next of both nodes and the run's SolveConfig
    and ImplicitSolver, and returns newton_penalized_solve's result.  The
    returned trajectories hold y on the nodes of tg.
    """
    if cs.m != paths.m:
        raise ConfigError(f"coefficient count {cs.m} != path component count {paths.m}")
    if paths.tg.N % tg.N != 0 or abs(paths.tg.T - tg.T) > 1e-12 * max(1.0, tg.T):
        raise ConfigError(
            f"path sets (N={paths.tg.N}, T={paths.tg.T}) must be sampled on the run grid "
            f"(N={tg.N}, T={tg.T}) or a refinement of it"
        )
    x_field = x.evaluate(grid) if isinstance(x, InitialData) else np.asarray(x, dtype=float)
    if x_field.shape != (grid.n_nodes,):
        raise ConfigError("initial data does not match the grid")
    if np.min(x_field) < 0:
        raise ConfigError("initial data must be nonnegative")
    n_paths = len(paths.values)
    eps = np.asarray(cfg.eps, dtype=float)
    if eps.ndim == 0:
        eps = np.full(n_paths, eps)
    elif eps.shape != (n_paths,):
        raise ConfigError(f"eps holds {eps.size} values for a batch of {n_paths} paths")

    em = refine is None  # the Euler-Maruyama march, the one without refinement
    fields = noisemod.space_fields(cs, grid)
    # per path its level or its StabilityError, later its outcome
    out = refine(grid, tg, fields, paths) if refine else [0] * n_paths
    levels = {}
    for i, level in enumerate(out):
        if not isinstance(level, NumericalFailure):
            levels.setdefault(level, []).append(i)

    for level, members in levels.items():
        run_tg = tg.refined(2**level)
        # the members' values on the run grid, one row per live path
        stack = PathStack(run_tg, paths.values[members, :, :: paths.tg.N // run_tg.N])
        delta = noisemod.path_sup(stack)
        P, stride, N, dt = len(members), 2**level, run_tg.N, run_tg.dt
        run_cfg = replace(cfg, dt=dt, eps=eps[members, None])
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
            blk = coeff_block(grid, fields, stack, rows, rs, forcing, em)
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
                    stack = stack.take(kept)
                    at = live
                    if not live.size:
                        break
                    run_cfg = replace(run_cfg, eps=run_cfg.eps[kept])
                if n % stride == 0:
                    traj[at, n // stride] = y
                c = c_next

        for j, i in enumerate(members):
            if j in failed:
                out[i] = failed[j]
                continue
            y_traj = np.exp(-mu_traj[j]) * traj[j] if em else traj[j]
            diag = Diagnostics(
                newton_iters=iters[j],
                residuals=resids[j],
                stability_margin=float(worst_margin[j]),
                delta=float(delta[j]),
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
                     paths: PathStack) -> list:
    """solve_path for a stack of paths in one march: per path its
    PathSolution or the NumericalFailure its solve_path raises."""
    if grid.bc_kind != gridmod.DIRICHLET:
        raise ConfigError("solve_path needs a Dirichlet grid")
    return _march(grid, tg, cs, rs, forcing, x, cfg, paths, _pick_refinement,
                  partial(step_interior, grid))


def solve_path(
    grid: Grid,
    tg: TimeGrid,
    cs: CoeffSpec,
    rs: ReactionSpec,
    forcing: ForcingSpec,
    x: InitialData | np.ndarray,
    cfg: SolveConfig,
    paths: BrownianPathSet,
) -> PathSolution:
    """March the penalized transformed equation along one Brownian path.

    `paths` must be sampled on `tg` or a refinement of it; retries at
    halved dt restrict the same realization.  The returned trajectories
    live on the nodes of `tg` regardless of the internal refinement.
    """
    return _one(solve_path_batch(grid, tg, cs, rs, forcing, x, cfg, PathStack.of(paths)))


def direct_em_batch(grid: Grid, tg: TimeGrid, cs: CoeffSpec, rs: ReactionSpec,
                    forcing: ForcingSpec, x: InitialData | np.ndarray, cfg: SolveConfig,
                    paths: PathStack) -> list:
    """direct_em_solve for a stack of paths in one march: per path its
    PathSolution or the NumericalFailure its solve raises."""
    if grid.bc_kind != gridmod.DIRICHLET:
        raise ConfigError("direct_em_solve needs a Dirichlet grid")
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
    at any dt, where an explicit one needs dt <= 2 eps.  Handed the same path
    set, it sees the Brownian increments that solve_path's transform sees."""
    return _one(direct_em_batch(grid, tg, cs, rs, forcing, x, cfg, PathStack.of(paths)))


# ---------------------------------------------------------------------------
# picklable problem description for ensembles and studies


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to reproduce one path-wise solve, picklable so
    ensembles can be distributed across worker processes.  The solve's
    numerical parameters default to SolveConfig's, and the config schema
    reads its defaults from here."""

    dim: int = 1
    lengths: tuple[float, ...] = (1.0,)
    n: int = 63
    bc_kind: str = gridmod.DIRICHLET
    T: float = 0.25
    n_steps: int = 250
    theta: float = SolveConfig.theta
    coefficients: tuple = ()
    seed: int = 0
    reaction: ReactionSpec = dc_field(default_factory=ReactionSpec)
    forcing: ForcingSpec = dc_field(default_factory=ForcingSpec)
    initial: InitialData = dc_field(default_factory=InitialData)
    eps: float | tuple[float, ...] = SolveConfig.eps  # or one per path of solve_paths
    newton_tol: float = SolveConfig.newton_tol
    newton_max: int = SolveConfig.newton_max
    mu_cap: float = SolveConfig.mu_cap
    headroom: int = 8

    def build(self):
        g = gridmod.build_grid(self.dim, list(self.lengths), self.n, self.bc_kind)
        tg = TimeGrid(self.T, self.n_steps)
        cs = CoeffSpec(tuple(self.coefficients))
        cfg = SolveConfig(tg.dt, self.theta, self.eps, self.newton_tol, self.newton_max,
                          self.mu_cap)
        return g, tg, cs, cfg

    def sample(self, path_ids) -> PathStack:
        """The paths of an iterable of ids on the headroom grid, one row each."""
        return noisemod.sample_block(TimeGrid(self.T, self.n_steps * self.headroom),
                                     len(self.coefficients), self.seed, list(path_ids))

    def _marching(self):
        """The (solo, batch) march functions of bc_kind, interior or
        Signorini, and the seven leading arguments both take."""
        g, tg, cs, cfg = self.build()
        solvers = solve_path, solve_path_batch
        if self.bc_kind == gridmod.NEUMANN:
            from .signorini import solve_signorini_batch, solve_signorini_path

            solvers = solve_signorini_path, solve_signorini_batch
        return solvers, (g, tg, cs, self.reaction, self.forcing, self.initial, cfg)

    def solve(self, path_id: int) -> PathSolution:
        (solo, _), args = self._marching()
        tg = TimeGrid(self.T, self.n_steps * self.headroom)
        return solo(*args, noisemod.sample_paths(tg, len(self.coefficients), self.seed, path_id))

    def solve_paths(self, path_ids) -> list:
        """Per path id, its PathSolution or the NumericalFailure that its
        solve raises, from one march over all of them."""
        (_, batch), args = self._marching()
        return batch(*args, self.sample(path_ids))
