"""One-phase melting with a multiplicative stochastic heat source, reduced
to the interior obstacle problem by time-integrating the temperature.

The time-integrated variable y carries the source

    f0(xi) = theta0(xi) on {theta0 > 0},   -rho elsewhere,

starts from y(0) = 0, and is solved as a variational inequality with the
full source: on the still-solid set the multiplier absorbs -rho, so the
unknown-region indicator never needs to be known in advance.  Temperature
is recovered as theta = e^mu dy/dt (backward differences) and the free
boundary as the interface of {y > tol_fb}.

The classical fixed-boundary-temperature benchmark is obtained by heating
one end: the time-integrated variable then carries the boundary value
theta_b * t, supplied to the solver as an exact ghost-value lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import grid as gridmod
from .errors import ConfigError, NumericalFailure
from .grid import Grid
from .noise import BrownianPathSet, CoeffSpec, TimeGrid
from .pathsolver import (
    BoundaryLift,
    ForcingSpec,
    PathSolution,
    SolveConfig,
    _one,
    solve_path,  # noqa: F401  (bound here for perfbench's tracer, whose selftest wraps it)
    solve_path_batch,
)
from .transform import ReactionSpec


@dataclass(frozen=True)
class StefanData:
    """Initial temperature (nonnegative, compactly supported) and latent heat."""

    theta0: np.ndarray
    rho: float
    heated_boundary_temp: float = 0.0  # theta_b > 0 switches on the left reservoir

    def __post_init__(self):
        if self.rho <= 0:
            raise ConfigError(f"latent heat rho must be > 0, got {self.rho}")
        if np.min(self.theta0) < 0:
            raise ConfigError("theta0 must be nonnegative")
        if self.heated_boundary_temp < 0:
            raise ConfigError("heated boundary temperature must be >= 0")

    @property
    def liquid_mask(self) -> np.ndarray:
        """The initially melted set, {theta0 > 0} exactly."""
        return self.theta0 > 0.0


@dataclass
class FreeBoundary:
    """Interface of the melted region per time step.

    fronts: in 1D the interpolated front position of the anchored melted
    component (NaN while nothing is melted, and in 2D).  melted_measure:
    quadrature measure of {y > tol_fb}.  n_components flags disconnected
    positivity sets (reported, not an error).
    """

    tg: TimeGrid
    tol_fb: float
    fronts: np.ndarray
    melted_measure: np.ndarray
    n_components: np.ndarray

    def max_front_drop(self) -> float:
        """Largest retreat of the front below its running maximum."""
        f = self.fronts[~np.isnan(self.fronts)]
        if f.size == 0:
            return 0.0
        return float(np.max(np.maximum.accumulate(f) - f))


def build_svi_source(sd: StefanData, grid: Grid) -> np.ndarray:
    """f0 = theta0 on the initial liquid set, -rho on the solid set."""
    if sd.theta0.shape != (grid.n_nodes,):
        raise ConfigError("theta0 does not match the grid")
    return np.where(sd.liquid_mask, sd.theta0, -sd.rho)


def _components_1d(mask: np.ndarray):
    """Connected runs of True values: list of (start, stop) index pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(np.int8), [0]])))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def extract_free_boundary(traj_y: np.ndarray, tol_fb: float, grid: Grid,
                          tg: TimeGrid, anchor_mask: np.ndarray | None = None) -> FreeBoundary:
    """Per-step interface of {y > tol_fb}.

    In 1D the front is the upper edge of the connected melted component
    containing the anchor (default: the slice argmax), located by linear
    interpolation of the tol_fb crossing.  Disconnected positivity sets are
    reported through n_components.
    """
    n_t = traj_y.shape[0]
    fronts = np.full(n_t, np.nan)
    measure = np.zeros(n_t)
    n_comp = np.zeros(n_t, dtype=int)
    xs = grid.meshes()[0] if grid.dim == 1 else None
    for n in range(n_t):
        y = traj_y[n]
        melted = y > tol_fb
        measure[n] = float(np.sum(grid.weights[melted]))
        if grid.dim != 1:
            n_comp[n] = -1
            continue
        runs = _components_1d(melted)
        n_comp[n] = len(runs)
        if not runs:
            continue
        if anchor_mask is not None and np.any(anchor_mask & melted):
            anchored = [r for r in runs if np.any(anchor_mask[r[0]:r[1]])]
            run = anchored[0] if anchored else runs[int(np.argmax([y[a:b].max() for a, b in runs]))]
        else:
            peak = int(np.argmax(y))
            run = next((r for r in runs if r[0] <= peak < r[1]), runs[0])
        last = run[1] - 1
        x_last = xs[last]
        if last + 1 < grid.n_nodes:
            # linear interpolation to the tol_fb crossing
            y0, y1 = y[last], y[last + 1]
            frac = (y0 - tol_fb) / (y0 - y1) if y0 != y1 else 0.0
            fronts[n] = x_last + frac * grid.h[0]
        else:
            fronts[n] = x_last
    return FreeBoundary(tg=tg, tol_fb=tol_fb, fronts=fronts, melted_measure=measure,
                        n_components=n_comp)


def recover_temperature(sol: PathSolution) -> np.ndarray:
    """theta = e^mu dy/dt by first-order backward differencing;
    theta(0) is set to theta(dt) (the datum itself is not stored in y)."""
    dt = sol.tg.dt
    theta = np.empty_like(sol.y)
    theta[1:] = np.exp(sol.mu[1:]) * np.diff(sol.y, axis=0) / dt
    theta[0] = theta[1]
    return theta


def _reduction(grid: Grid, sd: StefanData, cfg: SolveConfig, tol_fb: float | None):
    """The melting problem as an obstacle solve: its source, boundary lift,
    front anchor and tol_fb (10 eps unless given)."""
    if grid.bc_kind != gridmod.DIRICHLET:
        raise ConfigError("the Stefan reduction lives on a Dirichlet grid")
    f0 = build_svi_source(sd, grid)
    forcing = ForcingSpec("field", transformed=True, values=tuple(f0))
    lift = None
    if sd.heated_boundary_temp > 0.0:
        if grid.dim != 1:
            raise ConfigError("the heated-boundary benchmark is 1D only")
        lift = BoundaryLift(rate=sd.heated_boundary_temp)
    if tol_fb is None:
        tol_fb = 10.0 * cfg.eps
    anchor = sd.liquid_mask if np.any(sd.liquid_mask) else None
    if anchor is None and lift is not None:
        anchor = np.zeros(grid.n_nodes, dtype=bool)
        anchor[0] = True
    return forcing, lift, anchor, tol_fb


def _melt(sol: PathSolution, tol_fb: float, anchor: np.ndarray | None):
    """(sol, its FreeBoundary)."""
    return sol, extract_free_boundary(sol.y, tol_fb, sol.grid, sol.tg, anchor_mask=anchor)


def solve_stefan_svi(
    grid: Grid,
    tg: TimeGrid,
    cs: CoeffSpec,
    sd: StefanData,
    cfg: SolveConfig,
    paths: BrownianPathSet,
    tol_fb: float | None = None,
):
    """Obstacle solve of the melting problem: returns (PathSolution of the
    time-integrated variable, temperature trajectory, FreeBoundary)."""
    sol, fb = _one(solve_stefan_batch(grid, tg, cs, sd, cfg, [paths], tol_fb))
    return sol, recover_temperature(sol), fb


def solve_stefan_batch(grid: Grid, tg: TimeGrid, cs: CoeffSpec, sd: StefanData,
                       cfg: SolveConfig, paths, tol_fb: float | None = None) -> list:
    """solve_stefan_svi for a sequence of path sets in one march: per path
    its (sol, fb) or the NumericalFailure its solve_stefan_svi raises; the
    temperature is recover_temperature(sol)."""
    forcing, lift, anchor, tol_fb = _reduction(grid, sd, cfg, tol_fb)
    outs = solve_path_batch(grid, tg, cs, ReactionSpec(), forcing, np.zeros(grid.n_nodes), cfg,
                            paths, boundary_lift=lift)
    return [out if isinstance(out, NumericalFailure) else _melt(out, tol_fb, anchor)
            for out in outs]


def baiocchi_forward(theta: np.ndarray, fb: FreeBoundary, grid: Grid, tg: TimeGrid,
                     mu: np.ndarray | None = None,
                     liquid0_mask: np.ndarray | None = None) -> np.ndarray:
    """Rebuild the time-integrated variable from the temperature:
    y(t, xi) = int_{l(xi)}^{t} e^{-mu} theta ds off the initial liquid set
    (l(xi) the crossing time read from the front), int_0^t on it.
    Left-endpoint quadrature; mutually inverse with recover_temperature up
    to O(dt) and the crossing-time threshold."""
    if grid.dim != 1:
        raise ConfigError("the forward time-integration needs 1D crossing times; "
                          "2D fronts carry only the melted measure")
    n_t, n_nodes = theta.shape
    z = theta if mu is None else np.exp(-mu) * theta
    xs = grid.meshes()[0]
    crossing = np.full(n_nodes, np.inf)
    if liquid0_mask is not None:
        crossing[liquid0_mask] = 0.0
    for n in range(n_t):
        f = fb.fronts[n]
        if not np.isnan(f):
            newly = (xs <= f) & (crossing == np.inf)
            crossing[newly] = tg.nodes[n]
    out = np.zeros_like(theta)
    acc = np.zeros(n_nodes)
    for n in range(1, n_t):
        t_left = tg.nodes[n - 1]
        contrib = np.where(t_left >= crossing, z[n], 0.0)
        acc = acc + tg.dt * contrib
        out[n] = acc
    return out


# ---------------------------------------------------------------------------
# classical similarity oracle (fixed boundary temperature, unit diffusivity)


def _transcendental(lam: float, stefan_number: float) -> float:
    return lam * np.exp(lam * lam) * erf(lam) - stefan_number / np.sqrt(np.pi)


def similarity_oracle(stefan_number: float, t: float):
    """Front and temperature profile of the classical one-phase melting
    problem with fixed boundary temperature theta_b = St * rho (rho = 1,
    unit diffusivity): front 2 lambda sqrt(t), lambda the bisection root of
    lambda e^{lambda^2} erf(lambda) = St / sqrt(pi) to 1e-12."""
    if stefan_number <= 0 or t <= 0:
        raise ConfigError("similarity oracle needs stefan_number > 0 and t > 0")
    lo, hi = 0.0, 1.0
    while _transcendental(hi, stefan_number) < 0.0:
        hi *= 2.0
        if hi > 64.0:
            raise ConfigError(f"stefan number {stefan_number} out of supported range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            break
        if _transcendental(mid, stefan_number) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    if abs(_transcendental(lam, stefan_number)) >= 1e-10:
        raise ConfigError("bisection failed to reach the residual target")
    front = 2.0 * lam * np.sqrt(t)

    def profile(x):
        x = np.asarray(x, dtype=float)
        theta = stefan_number * (1.0 - erf(x / (2.0 * np.sqrt(t))) / erf(lam))
        return np.where(x <= front, np.maximum(theta, 0.0), 0.0)

    return front, profile
