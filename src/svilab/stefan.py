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
theta_b * t, supplied to the interior step rule as an exact ghost-value
lift.  The reduction hands the march its source field and that lift
itself; the general solvers take neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import grid as gridmod
from .errors import ConfigError, NumericalFailure
from .grid import Grid
from .noise import BrownianPathSet, CoeffSpec, PathStack, TimeGrid
from .pathsolver import (
    PathSolution,
    SolveConfig,
    _march,
    _one,
    _pick_refinement,
    solve_path,  # noqa: F401  (bound here for perfbench's tracer, whose selftest wraps it)
    step_interior,
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

    fronts: in 1D the interpolated upper edge of the melted run that
    extract_free_boundary selects (NaN while nothing is melted, and in 2D).
    melted_measure: quadrature measure of {y > tol_fb}.  n_components flags
    disconnected positivity sets (reported, not an error).
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


def extract_free_boundary(traj_y: np.ndarray, tol_fb: float, grid: Grid,
                          tg: TimeGrid, anchor_mask: np.ndarray | None = None) -> FreeBoundary:
    """Per-step interface of {y > tol_fb}, every step at once.

    In 1D the front is the upper edge of one melted run: the run through the
    first melted anchor node, or, on a step where no anchor node is melted
    (or no anchor is given), the run through the step's peak.  The edge is
    the tol_fb crossing, interpolated linearly between the run's last node
    and the next, or that last node at the end of the grid.  The front is
    NaN on a step with nothing melted, and on every step in 2D.
    n_components counts the melted runs (-1 in 2D): disconnected positivity
    sets are reported, not an error.
    """
    melted = traj_y > tol_fb
    measure = np.array([np.sum(grid.weights[row]) for row in melted], dtype=float)
    n_t, n = melted.shape
    if grid.dim != 1:
        return FreeBoundary(tg=tg, tol_fb=tol_fb, fronts=np.full(n_t, np.nan),
                            melted_measure=measure, n_components=np.full(n_t, -1))
    node = np.where(melted, traj_y, -np.inf).argmax(axis=1)
    if anchor_mask is not None:
        hit = melted & anchor_mask
        node = np.where(hit.any(axis=1), hit.argmax(axis=1), node)
    # per step, the first unmelted index at or past each node (n if none)
    stop = np.minimum.accumulate(np.where(melted, n, np.arange(n))[:, ::-1], axis=1)[:, ::-1]
    steps = np.arange(n_t)
    last = stop[steps, node] - 1
    y0, y1 = traj_y[steps, last], traj_y[steps, np.minimum(last + 1, n - 1)]
    frac = np.divide(y0 - tol_fb, y0 - y1, out=np.zeros(n_t), where=y0 != y1)
    x_last = grid.meshes()[0][last]
    fronts = np.where(last + 1 < n, x_last + frac * grid.h[0], x_last)
    return FreeBoundary(tg=tg, tol_fb=tol_fb,
                        fronts=np.where(melted.any(axis=1), fronts, np.nan),
                        melted_measure=measure,
                        n_components=melted[:, 0] + np.sum(melted[:, 1:] > melted[:, :-1], axis=1))


def recover_temperature(sol: PathSolution) -> np.ndarray:
    """theta = e^mu dy/dt by first-order backward differencing;
    theta(0) is set to theta(dt) (the datum itself is not stored in y)."""
    dt = sol.tg.dt
    theta = np.empty_like(sol.y)
    theta[1:] = np.exp(sol.mu[1:]) * np.diff(sol.y, axis=0) / dt
    theta[0] = theta[1]
    return theta


def _reduction(grid: Grid, sd: StefanData, cfg: SolveConfig, tol_fb: float | None):
    """The melting problem as an obstacle solve: its source f0, already in the
    transformed variables; the rate of its boundary lift (None without a
    heated boundary); its front anchor; and tol_fb (10 eps unless given)."""
    if grid.bc_kind != gridmod.DIRICHLET:
        raise ConfigError("the Stefan reduction lives on a Dirichlet grid")
    f0 = build_svi_source(sd, grid)
    rate = None
    if sd.heated_boundary_temp > 0.0:
        if grid.dim != 1:
            raise ConfigError("the heated-boundary benchmark is 1D only")
        rate = sd.heated_boundary_temp
    if tol_fb is None:
        tol_fb = 10.0 * cfg.eps
    anchor = sd.liquid_mask if np.any(sd.liquid_mask) else None
    if anchor is None and rate is not None:
        anchor = np.zeros(grid.n_nodes, dtype=bool)
        anchor[0] = True
    return f0, rate, anchor, tol_fb


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
    sol, fb = _one(solve_stefan_batch(grid, tg, cs, sd, cfg, PathStack.of(paths), tol_fb))
    return sol, recover_temperature(sol), fb


def solve_stefan_batch(grid: Grid, tg: TimeGrid, cs: CoeffSpec, sd: StefanData,
                       cfg: SolveConfig, paths: PathStack, tol_fb: float | None = None) -> list:
    """solve_stefan_svi for a stack of paths in one march: per path its
    (sol, fb) or the NumericalFailure its solve_stefan_svi raises; the
    temperature is recover_temperature(sol)."""
    f0, rate, anchor, tol_fb = _reduction(grid, sd, cfg, tol_fb)
    outs = _march(grid, tg, cs, ReactionSpec(), f0, np.zeros(grid.n_nodes), cfg, paths,
                  _pick_refinement, partial(step_interior, grid, lift=rate))
    return [out if isinstance(out, NumericalFailure) else _melt(out, tol_fb, anchor)
            for out in outs]


def baiocchi_forward(theta: np.ndarray, fb: FreeBoundary, grid: Grid, tg: TimeGrid,
                     mu: np.ndarray | None = None,
                     liquid0_mask: np.ndarray | None = None) -> np.ndarray:
    """Rebuild the time-integrated variable from the temperature:
    y(t, xi) = int_{l(xi)}^{t} e^{-mu} theta ds off the initial liquid set
    (l(xi) the first node time whose front reaches xi), int_0^t on it.
    Left-endpoint quadrature, summed in time order by one cumulative sum
    from a +0.0 row; mutually inverse with recover_temperature up to O(dt)
    and the crossing-time threshold."""
    if grid.dim != 1:
        raise ConfigError("the forward time-integration needs 1D crossing times; "
                          "2D fronts carry only the melted measure")
    n_t, n_nodes = theta.shape
    z = theta if mu is None else np.exp(-mu) * theta
    reached = fb.fronts[:, None] >= grid.meshes()[0]  # a NaN front reaches no node
    crossing = np.where(reached.any(axis=0), tg.nodes[reached.argmax(axis=0)], np.inf)
    if liquid0_mask is not None:
        crossing[liquid0_mask] = 0.0
    contrib = tg.dt * np.where(tg.nodes[: n_t - 1, None] >= crossing, z[1:], 0.0)
    # the +0.0 start turns a -0.0 first contribution into +0.0
    return np.cumsum(np.concatenate([np.zeros((1, n_nodes)), contrib]), axis=0)


# ---------------------------------------------------------------------------
# classical similarity oracle (fixed boundary temperature, unit diffusivity)


_erf = np.vectorize(math.erf, otypes=[float])  # erf on arrays, without scipy.special


def _transcendental(lam: float, stefan_number: float) -> float:
    return lam * np.exp(lam * lam) * math.erf(lam) - stefan_number / np.sqrt(np.pi)


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
        theta = stefan_number * (1.0 - _erf(x / (2.0 * np.sqrt(t))) / math.erf(lam))
        return np.where(x <= front, np.maximum(theta, 0.0), 0.0)

    return front, profile
