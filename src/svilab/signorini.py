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
from functools import partial

import numpy as np

from . import grid as gridmod
from . import noise as noisemod
from .errors import ConfigError
from .grid import Grid
from .noise import BrownianPathSet, CoeffSpec, PathStack, TimeGrid
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

POTENTIAL_TOL = 1e-12  # absolute allowance of the boundary potential bound
C2_TARGET = 0.5  # the Garding c2 at which the form probe fits c3 and counts violations
PROBE_SAMPLES = 128  # random fields of the form probe, taken in pairs for c1 and c4


def assemble_coeffs(grid: Grid, cs: CoeffSpec, rs: ReactionSpec, forcing: ForcingSpec,
                    paths: PathStack, n: int, mu_cap: float) -> StepCoeffs:
    """The march's coefficient record at node n of the first path of a
    stack on a Neumann grid, for the probes; raises like the march when |mu|
    passes mu_cap there."""
    if grid.bc_kind != gridmod.NEUMANN:
        raise ConfigError("Signorini problems need a Neumann grid (boundary nodes included)")
    coeffs = coeff_block(grid, noisemod.space_fields(cs, grid), paths, range(n, n + 1), rs,
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
                        eps: float) -> float | np.ndarray:
    """<A_eps(t) y, phi> by quadrature; agrees with inner(apply_operator, phi)
    to machine precision.  Of two fields, or per row of two equal-shape stacks."""
    if y.shape != phi.shape or y.shape[-1:] != (grid.n_nodes,):
        raise ValueError("field size mismatch in form assembly")
    value = gridmod.stiffness_inner(grid, y, phi)
    bulk = coeffs.reaction(y) + _transport(grid, coeffs.g, y)
    value += gridmod.inner(grid, bulk, phi)
    value += gridmod.boundary_inner(grid, beta_eps(y, eps) + coeffs.dmu_dnu * y, phi)
    return value


def step_signorini(grid: Grid, y_n: np.ndarray, coeffs: StepCoeffs, coeffs_next: StepCoeffs,
                   cfg: SolveConfig, solver: ImplicitSolver):
    """One theta-step of each row of a stack of states, by the march's
    ImplicitSolver(grid, cfg.dt, cfg.theta), with the arguments of
    `pathsolver.step_interior`; the boundary condition is enforced at the
    new time level, with dmu/dnu from coeffs_next.  Returns Newton's
    result.  The dt it is given meets the transport guard: refinement
    picked it."""
    explicit = ((1.0 - cfg.theta) * _laplacian_bc(grid, coeffs, y_n, cfg.eps)
                if cfg.theta < 1.0 else 0.0)
    rhs = y_n + cfg.dt * (
        explicit - coeffs.reaction(y_n) - _transport(grid, coeffs.g, y_n)
        + coeffs.source
    )
    dt_scale = cfg.dt * cfg.theta * grid.flux_factor  # zero off the boundary
    return newton_penalized_solve(solver, rhs, dt_scale, cfg.eps, y_n, cfg.newton_tol,
                                  cfg.newton_max, linear_diag=dt_scale * coeffs_next.dmu_dnu)


def solve_signorini_batch(grid: Grid, tg: TimeGrid, cs: CoeffSpec, rs: ReactionSpec,
                          forcing: ForcingSpec, x: InitialData | np.ndarray, cfg: SolveConfig,
                          paths: PathStack) -> list:
    """solve_signorini_path for a stack of paths in one march: per path its
    PathSolution or the NumericalFailure its solve raises."""
    if grid.bc_kind != gridmod.NEUMANN:
        raise ConfigError("solve_signorini_path needs a Neumann grid")
    return _march(grid, tg, cs, rs, forcing, x, cfg, paths, _pick_refinement,
                  partial(step_signorini, grid))


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
    return _one(solve_signorini_batch(grid, tg, cs, rs, forcing, x, cfg, PathStack.of(paths)))


def boundary_potential_check(sol: PathSolution, slack: float = 10.0):
    """Discrete analogue of the boundary potential bound: for every t,
    int j_eps(y(t)) + int_0^t sum_bnd beta_eps^2 <= slack * (int j_eps(x)
    + int |f~|^2) + POTENTIAL_TOL, with x the march's initial datum sol.y[0]
    and beta_eps(y) its sol.eta.  Returns (worst_ratio_or_0, passed)."""
    g, tg = sol.grid, sol.tg
    eps = sol.diagnostics.eps
    j_t = mass(g, j_eps(sol.y, eps))
    b_sq = gridmod.boundary_inner(g, sol.eta, sol.eta)
    cum_b = np.concatenate([[0.0], np.cumsum(b_sq[:-1]) * tg.dt])
    lhs = j_t + cum_b
    rhs = slack * (mass(g, j_eps(sol.y[0], eps)) + sol.diagnostics.cum_source_sq) + POTENTIAL_TOL
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
    """Fitted constants of the operator bounds on PROBE_SAMPLES random samples.

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
    violations: int


def _random_fields(grid: Grid, rng: np.random.Generator, n: int) -> np.ndarray:
    modes = [np.prod([np.cos(mode * np.pi * x / L) for x, L in zip(grid.meshes(), grid.lengths)],
                     axis=0) for mode in range(4)]
    # one draw, in the order of a per-sample loop of 4 mode weights then the
    # node noise; normal(scale=s) is s * standard_normal, so the bits are the loop's
    z = rng.standard_normal((n, len(modes) + grid.n_nodes))
    fields = np.zeros((n, grid.n_nodes))
    for mode, term in enumerate(modes):
        fields += (z[:, mode] * (1.0 / (1 + mode)))[:, None] * term
    return fields + 0.1 * z[:, len(modes):]


def probe_form_constants(grid: Grid, coeffs: StepCoeffs, eps: float,
                         seed: int = 0) -> FormConstantsReport:
    """The FormConstantsReport at one node's coefficients from PROBE_SAMPLES
    random fields drawn with `seed`, c1 and c4 from their (even, odd) pairs;
    the form is assembled once on the samples and once per stack of pairs."""
    rng = np.random.default_rng(seed)
    fields = _random_fields(grid, rng, PROBE_SAMPLES)

    # theory-side c3 via the trace-interpolation mechanism, with slack 2
    sup_reac = coeffs.rs.alpha + float(np.max(np.abs(coeffs.mu_tilde)))
    sup_reac += float(np.max(sum(c * c for c in coeffs.grad_mu) + np.abs(coeffs.lap_mu)))
    sup_g = 0.0 if coeffs.g_sup is None else float(np.max(coeffs.g_sup))
    sup_dmu = float(np.max(np.abs(coeffs.dmu_dnu)))
    dim, min_l = grid.dim, min(grid.lengths)
    c3_theory = 2.0 * (sup_reac + sup_g**2 + sup_dmu * 2.0 * dim / min_l
                       + 16.0 * dim**2 * sup_dmu**2 + 4.0 * dim * sup_dmu)

    a_vals = assemble_form_value(grid, coeffs, fields, fields, eps)
    s_vals = gridmod.stiffness_inner(grid, fields, fields)
    h_vals = gridmod.inner(grid, fields, fields)
    violations = int(np.sum(a_vals < C2_TARGET * s_vals - c3_theory * h_vals - 1e-9))
    c3_hat = float(max(0.0, np.max((C2_TARGET * s_vals - a_vals) / np.maximum(h_vals, 1e-300))))
    with np.errstate(divide="ignore"):
        ratios = (a_vals + c3_hat * h_vals) / np.where(s_vals > 1e-12, s_vals, np.inf)
    c2_hat = float(min(1.0, np.min(ratios)))

    # boundedness and quasi-monotonicity on pairs of samples
    ys, phis = fields[0::2], fields[1::2]
    v_norms = np.sqrt(s_vals + h_vals)
    vals = assemble_form_value(grid, coeffs, ys, phis, eps)
    c1 = float(np.max(np.abs(vals) / np.maximum(v_norms[0::2] * v_norms[1::2], 1e-300)))
    diffs = ys - phis
    hd = gridmod.inner(grid, diffs, diffs)
    vals = (assemble_form_value(grid, coeffs, ys, diffs, eps)
            - assemble_form_value(grid, coeffs, phis, diffs, eps))
    c4 = float(np.max(-vals / np.maximum(hd, 1e-14), initial=0.0, where=hd > 1e-14))

    return FormConstantsReport(c1=c1, c2=c2_hat, c3=c3_hat, c4=c4, c3_theory=c3_theory,
                               violations=violations)
