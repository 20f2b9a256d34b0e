"""The boundary-constrained variant: Neumann-type grid with the unilateral
condition  dy/dnu + (dmu/dnu) y + beta(y) = 0  on the boundary.

Its solver is the shared march of `pathsolver` with the step rule
`step_signorini`; on a Neumann grid the march's coefficient blocks also hold
dmu/dnu at every node, which the rule needs at the new time level (the next
row, which may open the next block).  The discrete boundary geometry is the
grid's: `Grid.boundary_weights`, the ghost-flux factor `Grid.flux_factor`
(2/h summed over the outward axes) and `grid.normal_derivative`.

Boundary nodes are unknowns.  The penalized flux enters through the ghost
value of the reflected Laplacian: at a boundary node the second difference
along an outward axis picks up -(2/h) * [ (dmu/dnu) y + beta_eps(y) ].
With the half-cell quadrature weights this is exactly the discrete form

    <A_eps(t) y, phi> = int grad y . grad phi + (F_eff(t,y) + g.grad y) phi
                        + sum_bnd w_bnd (beta_eps(y) + dmu/dnu y) phi,

corner nodes applying both axis ghosts (their boundary weight is the
trapezoid weight (hx + hy)/2, and dmu/dnu averages the two one-sided axis
stencils).  The boundary beta_eps sits inside the same semismooth Newton
loop as the interior obstacle solver, restricted to boundary nodes, with
the Robin term dt theta (2/h) dmu/dnu on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from . import noise as noisemod
from .errors import ConfigError
from .grid import Grid
from .noise import BrownianPathSet, CoeffSpec, TimeGrid
from .pathsolver import (
    ForcingSpec,
    ImplicitSolver,
    InitialData,
    PathSolution,
    SolveConfig,
    StepCoeffs,
    _march,
    _one,
    _pick_refinement,
    _transport,
    coeff_block,
    mu_cap_failure,
    newton_penalized_solve,
)
from .penalty import beta_eps, j_eps
from .transform import ReactionSpec


def assemble_coeffs(grid: Grid, cs: CoeffSpec, rs: ReactionSpec, forcing: ForcingSpec,
                    paths: BrownianPathSet, n: int, mu_cap: float) -> StepCoeffs:
    """The march's coefficient record at node n of `paths` on a Neumann grid,
    for the probes; raises like the march when |mu| passes mu_cap there."""
    if grid.bc_kind != gridmod.NEUMANN:
        raise ConfigError("Signorini problems need a Neumann grid (boundary nodes included)")
    coeffs = coeff_block(grid, noisemod.space_fields(cs, grid), [paths], range(n, n + 1), rs,
                         forcing).row(0).take(0)
    peak = float(np.max(np.abs(coeffs.mu)))
    if peak > mu_cap:
        raise mu_cap_failure(peak, coeffs.t, mu_cap)
    return coeffs


def _laplacian_bc(grid: Grid, coeffs: StepCoeffs, y: np.ndarray, eps: float) -> np.ndarray:
    """lap_BC y: the penalized boundary flux folded into the Laplacian's
    ghost values, of a field or of each row of a stack."""
    flux = np.zeros_like(y)
    mask = grid.boundary_mask
    flux[..., mask] = coeffs.dmu_dnu[..., mask] * y[..., mask] + beta_eps(y[..., mask], eps)
    return gridmod.apply_laplacian(grid, y) - grid.flux_factor * flux


def apply_operator(grid: Grid, coeffs: StepCoeffs, y: np.ndarray, eps: float) -> np.ndarray:
    """Strong form of A_eps(t) y: -lap_BC y + F_eff(t, y) + g . grad y."""
    return (-_laplacian_bc(grid, coeffs, y, eps) + coeffs.reaction(y)
            + _transport(grid, coeffs.g, y))


def assemble_form_value(grid: Grid, coeffs: StepCoeffs, y: np.ndarray, phi: np.ndarray,
                        eps: float) -> float:
    """<A_eps(t) y, phi> by quadrature; agrees with inner(apply_operator, phi)
    to machine precision."""
    if y.shape != phi.shape or y.shape != (grid.n_nodes,):
        raise ValueError("field size mismatch in form assembly")
    value = gridmod.stiffness_inner(grid, y, phi)
    bulk = coeffs.reaction(y) + _transport(grid, coeffs.g, y)
    value += gridmod.inner(grid, bulk, phi)
    value += gridmod.boundary_inner(grid, beta_eps(y, eps) + coeffs.dmu_dnu * y, phi)
    return value


def step_signorini(grid: Grid, y_n: np.ndarray, coeffs: StepCoeffs, cfg: SolveConfig,
                   coeffs_new: StepCoeffs, solver: ImplicitSolver):
    """One theta-step of each row of a stack of states, by the march's
    ImplicitSolver(grid, cfg.dt, cfg.theta); the boundary condition is
    enforced at the new time level, with dmu/dnu from coeffs_new.  Returns
    Newton's result.  The dt it is given meets the transport guard:
    refinement picked it."""
    explicit = ((1.0 - cfg.theta) * _laplacian_bc(grid, coeffs, y_n, cfg.eps)
                if cfg.theta < 1.0 else 0.0)
    rhs = y_n + cfg.dt * (
        explicit - coeffs.reaction(y_n) - _transport(grid, coeffs.g, y_n)
        + coeffs.source
    )
    dt_scale = cfg.dt * cfg.theta * grid.flux_factor  # zero off the boundary
    return newton_penalized_solve(solver, rhs, dt_scale, cfg.eps, y_n, cfg.newton_tol,
                                  cfg.newton_max, linear_diag=dt_scale * coeffs_new.dmu_dnu)


def solve_signorini_batch(grid: Grid, tg: TimeGrid, cs: CoeffSpec, rs: ReactionSpec,
                          forcing: ForcingSpec, x: InitialData | np.ndarray, cfg: SolveConfig,
                          paths) -> list:
    """solve_signorini_path for a sequence of path sets in one march: per
    path its PathSolution or the NumericalFailure its solve raises."""
    if grid.bc_kind != gridmod.NEUMANN:
        raise ConfigError("solve_signorini_path needs a Neumann grid")

    def rule(y, c, c_next, cfg, solver):
        return step_signorini(grid, y, c, cfg, c_next, solver)

    return _march(grid, tg, cs, rs, forcing, x, cfg, paths, _pick_refinement, rule)


def solve_signorini_path(
    grid: Grid,
    tg: TimeGrid,
    cs: CoeffSpec,
    rs: ReactionSpec,
    forcing: ForcingSpec,
    x: InitialData | np.ndarray,
    cfg: SolveConfig,
    paths: BrownianPathSet,
) -> PathSolution:
    """March the boundary-penalized problem along one Brownian path."""
    return _one(solve_signorini_batch(grid, tg, cs, rs, forcing, x, cfg, [paths]))


def boundary_potential_check(sol: PathSolution, x, slack: float = 10.0,
                             abs_tol: float = 1e-12):
    """Discrete analogue of the boundary potential bound: for every t,
    int j_eps(y(t)) + int_0^t sum_bnd beta_eps^2 <= slack * (int j_eps(x)
    + int |f~|^2) + abs_tol.  Returns (worst_ratio_or_0, passed)."""
    g, tg = sol.grid, sol.tg
    eps = sol.diagnostics.eps
    x_field = x.evaluate(g) if isinstance(x, InitialData) else np.asarray(x, dtype=float)
    j_t = mass(g, j_eps(sol.y, eps))
    eta = beta_eps(sol.y, eps)
    b_sq = gridmod.boundary_inner(g, eta, eta)
    cum_b = np.concatenate([[0.0], np.cumsum(b_sq[:-1]) * tg.dt])
    lhs = j_t + cum_b
    rhs = slack * (mass(g, j_eps(x_field, eps)) + sol.diagnostics.cum_source_sq) + abs_tol
    ok = bool(np.all(lhs <= rhs))
    ratios = lhs / np.maximum(rhs, 1e-300)
    return float(ratios.max()), ok


def mass(grid: Grid, y: np.ndarray) -> float | np.ndarray:
    """Quadrature of a field, or of each row of a stack."""
    return gridmod.inner(grid, y, np.ones(grid.n_nodes))


# ---------------------------------------------------------------------------
# empirical operator bounds


@dataclass
class FormConstantsReport:
    """Fitted constants of the operator bounds on random samples.

    c2/c3: Garding pair, <A y, y> >= c2 |grad y|^2 - c3 |y|^2 (c2 the largest
    value valid with the fitted c3 at target c2 = 1/2).  c1: boundedness
    |<A y, phi>| <= c1 ||y||_V ||phi||_V.  c4: quasi-monotonicity defect.
    violations counts samples breaking the theory-side pair (1/2, c3_theory).
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c3_theory: float
    n_samples: int
    violations: int


def _random_fields(grid: Grid, rng: np.random.Generator, n: int) -> np.ndarray:
    modes = [np.prod([np.cos(mode * np.pi * x / L) for x, L in zip(grid.meshes(), grid.lengths)],
                     axis=0) for mode in range(4)]
    fields = np.empty((n, grid.n_nodes))
    for i in range(n):
        f = np.zeros(grid.n_nodes)
        for mode, term in enumerate(modes):
            f += rng.normal(scale=1.0 / (1 + mode)) * term
        fields[i] = f + 0.1 * rng.normal(size=grid.n_nodes)
    return fields


def probe_form_constants(grid: Grid, coeffs: StepCoeffs, eps: float,
                         n_samples: int = 128, seed: int = 0,
                         c2_target: float = 0.5) -> FormConstantsReport:
    if n_samples < 100:
        raise ValueError(f"probe needs n_samples >= 100, got {n_samples}")
    rng = np.random.default_rng(seed)
    fields = _random_fields(grid, rng, n_samples)
    ones = np.ones(grid.n_nodes)

    # theory-side c3 via the trace-interpolation mechanism, with slack 2
    sup_reac = coeffs.rs.alpha + float(np.max(np.abs(coeffs.mu_tilde)))
    sup_reac += float(np.max(sum(c * c for c in coeffs.grad_mu) + np.abs(coeffs.lap_mu)))
    sup_g = 0.0 if coeffs.g_sup is None else float(np.max(coeffs.g_sup))
    sup_dmu = float(np.max(np.abs(coeffs.dmu_dnu)))
    dim, min_l = grid.dim, min(grid.lengths)
    c3_theory = 2.0 * (sup_reac + sup_g**2 + sup_dmu * 2.0 * dim / min_l
                       + 16.0 * dim**2 * sup_dmu**2 + 4.0 * dim * sup_dmu)

    a_vals = np.array([assemble_form_value(grid, coeffs, y, y, eps) for y in fields])
    s_vals = gridmod.stiffness_inner(grid, fields, fields)
    h_vals = gridmod.inner(grid, fields, fields)
    violations = int(np.sum(a_vals < c2_target * s_vals - c3_theory * h_vals - 1e-9))
    c3_hat = float(max(0.0, np.max((c2_target * s_vals - a_vals) / np.maximum(h_vals, 1e-300))))
    with np.errstate(divide="ignore"):
        ratios = (a_vals + c3_hat * h_vals) / np.where(s_vals > 1e-12, s_vals, np.inf)
    c2_hat = float(min(1.0, np.min(ratios)))

    # boundedness and quasi-monotonicity on pairs of samples
    ys, phis = fields[0 : n_samples - 1 : 2], fields[1::2]
    v_norms = np.sqrt(s_vals + h_vals)
    c1 = 0.0
    for y, phi, ny, nphi in zip(ys, phis, v_norms[0::2], v_norms[1::2]):
        val = assemble_form_value(grid, coeffs, y, phi, eps)
        c1 = max(c1, abs(val) / max(ny * nphi, 1e-300))
    c4 = 0.0
    diffs = ys - phis
    for y, ybar, d, hd in zip(ys, phis, diffs, gridmod.inner(grid, diffs, diffs)):
        val = (assemble_form_value(grid, coeffs, y, d, eps)
               - assemble_form_value(grid, coeffs, ybar, d, eps))
        if hd > 1e-14:
            c4 = max(c4, -val / hd)

    return FormConstantsReport(c1=c1, c2=c2_hat, c3=c3_hat, c4=c4, c3_theory=c3_theory,
                               n_samples=n_samples, violations=violations)

