"""Numerical verification of everything the theory asserts: complementarity
of the recovered pair, path-wise energy bounds, the penalization Cauchy
rate, and Monte Carlo ensembles of path functionals.

Space-time norms use left-endpoint time quadrature, matching the explicit
side of the scheme; all reports are deterministic functions of the
trajectories.  A sample's mean, variance and confidence half-width follow
one rule, FunctionalStats.of, which the CLI and the acceptance battery share.

map_paths fans independent jobs out on one worker pool per process, forked
by the first call that needs it and reused by the calls after it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as gridmod
from .errors import NumericalFailure
from .grid import Grid
from .noise import TimeGrid
from .pathsolver import (
    InitialData,
    PathSolution,
    ProblemSpec,
    solve_path,  # noqa: F401  (bound here for perfbench's tracer, whose selftest wraps it)
    solved,
)

# stored trajectory values per field (y, eta, mu) in one batch of paths: 8 MiB
BATCH_VALUES = 2**20

FUNCTIONAL_NAMES = (
    "sup_y_l2_sq",
    "int_h1_sq",
    "int_beta_sq",
    "int_lap_sq",
    "delta_sq",
    "int_dydt_l2",
    "int_dydt_l2_sq",
    "energy_ratio",
    "multiplier_ratio",
)


# ---------------------------------------------------------------------------
# complementarity


@dataclass
class ComplementarityReport:
    """Pointwise complementarity of (X, eta) with the eta <= 0 convention.

    pairing is the space-time integral of X * (-eta).
    """

    min_X: float
    max_eta: float
    pairing: float


def complementarity_report(traj_X: np.ndarray, traj_eta: np.ndarray,
                           grid: Grid, tg: TimeGrid) -> ComplementarityReport:
    if traj_X.shape != traj_eta.shape or traj_X.shape[0] != tg.N + 1:
        raise ValueError("trajectories are not aligned")
    pairing_per_t = gridmod.inner(grid, traj_X, -traj_eta)
    return ComplementarityReport(
        min_X=float(traj_X.min()),
        max_eta=float(traj_eta.max()),
        pairing=float(np.sum(pairing_per_t[:-1]) * tg.dt),
    )


# ---------------------------------------------------------------------------
# energy estimates


@dataclass
class EnergyReport:
    """Discrete analogues of the a-priori bounds on one path.

    energy_ratio: max over time of [ |y(t)|_2^2 + int_0^t ||y||_{H1_0}^2 ]
    over [ |x|_2^2 + int_0^t |f~|_2^2 + delta^2 ].  multiplier_ratio bounds
    int (|beta_eps(y)|_2^2 + |lap y|_2^2) by the same data augmented with
    the initial datum's H1 norm (the constant in the estimate absorbs x).
    """

    energy_ratio: float
    multiplier_ratio: float


def _ratio(num: np.ndarray, den: np.ndarray) -> float:
    """max over entries of num / den, from 0: entries with num <= 1e-300 are
    skipped, any other with den <= 0 gives inf, and NaN quotients are ignored."""
    keep = ~(num <= 1e-300)
    if np.any(den[keep] <= 0.0):
        return np.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = num[keep] / den[keep]
    return float(np.max(q, initial=0.0, where=~np.isnan(q)))


def _step_norms(sol: PathSolution) -> tuple[np.ndarray, ...]:
    """|y|^2, |grad y|^2, |eta|^2 and |lap y|^2 at every stored node."""
    g = sol.grid
    lap = gridmod.apply_laplacian(g, sol.y)
    return (gridmod.inner(g, sol.y, sol.y), gridmod.stiffness_inner(g, sol.y, sol.y),
            gridmod.inner(g, sol.eta, sol.eta), gridmod.inner(g, lap, lap))


def energy_check(sol: PathSolution, x, norms=None) -> EnergyReport:
    """The source and delta are the march's, diagnostics.cum_source_sq and .delta.
    `norms`: the _step_norms of sol, when the caller already has them."""
    g = sol.grid
    tg = sol.tg
    x_field = x.evaluate(g) if isinstance(x, InitialData) else np.asarray(x, dtype=float)
    delta = sol.diagnostics.delta
    dt = tg.dt
    y_sq, h1_sq, eta_sq, lap_sq = norms if norms is not None else _step_norms(sol)
    cum_h1 = np.concatenate([[0.0], np.cumsum(h1_sq[:-1]) * dt])
    source_sq = sol.diagnostics.cum_source_sq

    x_sq = gridmod.inner(g, x_field, x_field)
    lhs = y_sq + cum_h1
    rhs = x_sq + source_sq + delta**2
    energy_ratio = _ratio(lhs, np.broadcast_to(np.atleast_1d(rhs), lhs.shape))

    cum_mult = np.concatenate([[0.0], np.cumsum((eta_sq + lap_sq)[:-1]) * dt])
    x_h1 = gridmod.seminorm_h1(g, x_field) ** 2
    rhs_mult = source_sq + tg.nodes * delta**2 + x_sq + x_h1
    multiplier_ratio = _ratio(cum_mult, rhs_mult)

    return EnergyReport(energy_ratio=energy_ratio, multiplier_ratio=multiplier_ratio)


# ---------------------------------------------------------------------------
# penalization Cauchy rate


@dataclass
class RateFit:
    """Log-log fit of errors against a swept parameter."""

    eps: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    fit_residual: float
    degenerate: bool = False

    def __post_init__(self):
        if not np.all(np.diff(self.eps) < 0):
            raise ValueError("eps values must be strictly decreasing")
        if not self.degenerate and np.any(self.errors <= 0):
            raise ValueError("errors must be positive for a rate fit")


def fit_rate(eps: np.ndarray, errors: np.ndarray) -> RateFit:
    eps = np.asarray(eps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.all(errors <= 1e-14):
        return RateFit(eps, errors, np.nan, np.nan, 0.0, degenerate=True)
    le, lv = np.log(eps), np.log(errors)
    slope, intercept = np.polyfit(le, lv, 1)
    resid = float(np.sqrt(np.mean((lv - (slope * le + intercept)) ** 2)))
    return RateFit(eps, errors, float(slope), float(intercept), resid)


def cauchy_rate_study(spec: ProblemSpec, eps_list, path_id: int = 0) -> RateFit:
    """Errors against the reference solve at eps_min/4 on one shared path.

    All member solves share the Brownian realization and the time step, in
    one march with one eps per row, the reference first; the sup-in-time L2
    distance to the reference is fitted log-log in eps.
    """
    eps_arr = np.array(sorted(set(float(e) for e in eps_list), reverse=True))
    if len(eps_arr) < 4:
        raise ValueError(f"need at least 4 eps values, got {len(eps_arr)}")
    sweep = (eps_arr[-1] / 4.0, *eps_arr.tolist())
    ref, *sols = solved(replace(spec, eps=sweep).solve_paths([path_id] * len(sweep)))
    errors = np.array([np.max(gridmod.norm_l2(ref.grid, sol.y - ref.y)) for sol in sols])
    return fit_rate(eps_arr, errors)


# ---------------------------------------------------------------------------
# ensembles


@dataclass
class FunctionalStats:
    mean: float
    variance: float
    ci_half_width: float

    @classmethod
    def of(cls, sample) -> "FunctionalStats":
        """The mean, the ddof-1 variance (0 for a single value) and the 95%
        half-width 1.96 sqrt(var / n) of a nonempty sample."""
        data = np.asarray(sample, dtype=float)
        var = float(data.var(ddof=1)) if data.size > 1 else 0.0
        return cls(float(data.mean()), var, float(1.96 * np.sqrt(var / data.size)))


@dataclass
class EnsembleStats:
    """Per-functional Monte Carlo statistics over path_id = 0..n_paths-1:
    n_paths paths were solved, failures maps each other id to its reason."""

    n_paths: int
    stats: dict[str, FunctionalStats]
    failures: dict[int, str] = field(default_factory=dict)
    empirical_C: dict[str, float] = field(default_factory=dict)

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    @property
    def failure_fraction(self) -> float:
        total = self.n_paths + self.n_failures
        return self.n_failures / total if total else 0.0

    @property
    def passed(self) -> bool:
        return self.n_paths >= 1 and self.failure_fraction <= 0.10


def path_functionals(sol: PathSolution, x) -> dict:
    """The monitored functionals of one trajectory (left-endpoint quadrature)."""
    dt = sol.tg.dt
    norms = _step_norms(sol)
    _, h1_sq, eta_sq, lap_sq = (a[:-1] for a in norms)
    dydt_l2 = gridmod.norm_l2(sol.grid, np.diff(sol.y, axis=0) / dt)
    report = energy_check(sol, x, norms=norms)
    return {
        "sup_y_l2_sq": float(norms[0].max()),
        "int_h1_sq": float(h1_sq.sum() * dt),
        "int_beta_sq": float(eta_sq.sum() * dt),
        "int_lap_sq": float(lap_sq.sum() * dt),
        "delta_sq": sol.diagnostics.delta ** 2,
        "int_dydt_l2": float(dydt_l2.sum() * dt),
        "int_dydt_l2_sq": float((dydt_l2**2).sum() * dt),
        "energy_ratio": report.energy_ratio,
        "multiplier_ratio": report.multiplier_ratio,
    }


def path_batches(spec: ProblemSpec, n_paths: int, workers: int = 1) -> list:
    """Jobs (spec, first_id, stop) covering path ids 0..n_paths-1 in
    contiguous batches: as many paths as BATCH_VALUES holds of one stored
    trajectory, at most ceil(n_paths / workers) so every worker gets one."""
    per_path = (spec.n_steps + 1) * spec.n**spec.dim
    size = max(1, min(-(-n_paths // workers), BATCH_VALUES // per_path))
    return [(spec, lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


# the worker pool map_paths reuses and its process count, once forked
_pool: tuple[ProcessPoolExecutor, int] | None = None


def shutdown_pool() -> None:
    """Shut the worker pool down; the next pooled call forks a new one."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[0], None
        pool.shutdown()


def map_paths(fn, jobs, workers: int = 1) -> list:
    """fn over the jobs, inline when min(workers, number of jobs) is 1 or
    less, else on the process's worker pool.  A pool forks all its
    processes at its first job and lives on for the calls after this one:
    it is forked with min(workers, number of jobs) processes, so none of
    them idles, and kept while it has at least that many and at most
    `workers`.  Its workers run the code as it stood when they were forked,
    and exit with the interpreter.  A call whose worker dies raises
    BrokenProcessPool and drops the pool.  Each call returns a list of
    results whose first item is a path id; all of them come back sorted by
    it."""
    global _pool
    jobs = list(jobs)
    size = min(workers, len(jobs))
    if size > 1:
        if _pool is not None and not size <= _pool[1] <= workers:
            shutdown_pool()
        if _pool is None:
            _pool = (ProcessPoolExecutor(max_workers=size), size)
        try:
            results = list(_pool[0].map(fn, jobs))
        except BrokenProcessPool:
            shutdown_pool()
            raise
    else:
        results = [fn(j) for j in jobs]
    return sorted((r for batch in results for r in batch), key=lambda r: r[0])


def _ensemble_worker(args):
    spec, first, stop = args
    ids = range(first, stop)
    return [(pid, None, str(sol)) if isinstance(sol, NumericalFailure)
            else (pid, path_functionals(sol, spec.initial), None)
            for pid, sol in zip(ids, spec.solve_paths(ids))]


def ensemble_run(spec: ProblemSpec, n_paths: int, workers: int = 1) -> EnsembleStats:
    """Monte Carlo over paths; failures are excluded and counted, and more
    than 10% of them marks the whole run as failed (stats still reported).
    Reduction is keyed by path_id, so the worker count never changes the
    result, and neither does the batch size."""
    if n_paths < 2:
        raise ValueError(f"ensemble needs n_paths >= 2, got {n_paths}")

    results = map_paths(_ensemble_worker, path_batches(spec, n_paths, workers), workers)
    rows = [vals for _, vals, _ in results if vals is not None]
    failures = {pid: err for pid, vals, err in results if vals is None}
    n_ok = len(rows)
    stats = {name: FunctionalStats.of([r[name] for r in rows]) if n_ok
             else FunctionalStats(np.nan, np.nan, np.nan) for name in FUNCTIONAL_NAMES}

    # empirical constant of the moment bound: mean / (|x|^2 + int |f|^2),
    # with the deterministic catalog forcing (time-constant)
    empirical = {}
    if n_ok:
        g, tg, _, _ = spec.build()
        x_field = spec.initial.evaluate(g)
        f_field = spec.forcing.value(g)
        denom = gridmod.inner(g, x_field, x_field) + tg.T * gridmod.inner(g, f_field, f_field)
        if denom > 0:
            for name in FUNCTIONAL_NAMES:
                if name.startswith(("sup_", "int_")):
                    empirical[name] = stats[name].mean / denom
    return EnsembleStats(n_paths=n_ok, stats=stats, failures=failures,
                         empirical_C=empirical)
