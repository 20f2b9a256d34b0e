"""The acceptance battery: one function per criterion, each returning rows
(check_name, value, threshold, passed) with every tolerance pinned here.

Run via the CLI's verify mode or directly from the test suite; both share
these implementations, so the gate has a single source of truth.  The checks
call the code they gate: criterion 4 reads the ensemble's per-path
functionals, and criterion 8 samples its paths through sample_block (the
lab's one sampler), reads them with path_sup and takes its
half-widths from FunctionalStats.of, the ensemble's statistics rule.

Every check takes `workers`.  The complementarity, energy,
transform-consistency, Signorini, Stefan and noise-statistics checks hand
their independent jobs to analysis.map_paths and reduce the results in job
order, so their rows do not depend on it; the determinism check runs its
ensemble on at least two workers.
"""

from __future__ import annotations

import filecmp
import tempfile
import textwrap
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (
    BATCH_VALUES,
    FunctionalStats,
    _ensemble_worker,
    cauchy_rate_study,
    complementarity_report,
    energy_check,
    map_paths,
    path_batches,
)
from .errors import ConfigError, NumericalFailure
from .grid import DIRICHLET, NEUMANN, build_grid, norm_l2
from .noise import (
    CoeffSpec,
    TimeGrid,
    parse_coefficient,
    path_sup,
    sample_block,
    sample_paths,
)
from .pathsolver import (
    ForcingSpec,
    InitialData,
    ProblemSpec,
    SolveConfig,
    direct_em_batch,
    direct_em_solve,  # noqa: F401  (bound here for perfbench's tracer, whose selftest wraps it)
    solve_path,  # noqa: F401  (likewise)
    solve_path_batch,
    solved,
)
from .signorini import assemble_coeffs, mass, probe_form_constants
from .stefan import (
    StefanData,
    baiocchi_forward,
    similarity_oracle,
    solve_stefan_batch,
    solve_stefan_svi,
)
from .transform import ReactionSpec


def _c1(text):
    return (parse_coefficient(text, [1.0]),)


# 1 --------------------------------------------------------------------------


def check_heat_oracle(workers: int = 1):
    """Deterministic heat decay against separation of variables."""
    sol = ProblemSpec(n=255, T=0.1, n_steps=1000, initial=InitialData("sine", 1.0)).solve(0)
    x = sol.grid.meshes()[0]
    err = float(np.max(np.abs(sol.y[-1] - np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * x))))
    return [("heat_oracle_sup_error", err, 5e-3, err <= 5e-3)]


# 2 --------------------------------------------------------------------------

EPS_SWEEP = (1e-2, 1e-3, 1e-4)


def _eps_sweep(spec: ProblemSpec) -> list:
    """The solutions of spec at each eps (diagnostics.eps) of EPS_SWEEP on path 0, in one march."""
    return solved(replace(spec, eps=EPS_SWEEP).solve_paths([0] * len(EPS_SWEEP)))


def _scaling_row(label: str, ratios):
    """One C across an eps sweep: the smaller-eps ratios stay within 3x of
    the coarsest-eps one (linear scaling in eps)."""
    worst = max(ratios) / max(ratios[0], 1e-12)
    return (label, worst, 3.0, worst <= 3.0)


def _complementarity_problem(label: str, spec: ProblemSpec):
    rows = []
    min_ratios, pair_ratios = [], []
    max_eta = -np.inf
    for sol in _eps_sweep(spec):
        rep = complementarity_report(sol.X, sol.eta_X, sol.grid, sol.tg)
        max_eta = max(max_eta, rep.max_eta)
        min_ratios.append(max(-rep.min_X, 0.0) / sol.diagnostics.eps)
        pair_ratios.append(abs(rep.pairing) / sol.diagnostics.eps)
    rows.append((f"comp_{label}_max_eta", max_eta, 1e-12, max_eta <= 1e-12))
    c_fit = max(max(min_ratios), max(pair_ratios))
    rows.append((f"comp_{label}_fitted_C", c_fit, np.inf, np.isfinite(c_fit)))
    rows.append(_scaling_row(f"comp_{label}_min_X_scaling", min_ratios))
    rows.append(_scaling_row(f"comp_{label}_pairing_scaling", pair_ratios))
    return rows


def check_complementarity(workers: int = 1):
    """Criterion 2 on a pinned and a noisy problem, one job each on up to
    `workers` processes, each job one eps-sweep march."""
    pinned = ProblemSpec(
        n=127, T=0.3, n_steps=300, coefficients=(), seed=0,
        forcing=ForcingSpec("const", -1.0), initial=InitialData("sine", 0.0),
    )
    noisy = ProblemSpec(
        n=127, T=0.3, n_steps=300, coefficients=_c1("const(0.5) * sin(1)"), seed=2121,
        forcing=ForcingSpec("const", -1.0),
        initial=InitialData("cone", 0.3, center=(0.3,), radius=0.2),
    )
    return map_paths(_rows, (partial(_complementarity_problem, "pinned", pinned),
                              partial(_complementarity_problem, "noisy", noisy)), workers)


# 3 --------------------------------------------------------------------------


def check_cauchy_rate(workers: int = 1):
    spec = ProblemSpec(
        n=127, T=0.3, n_steps=300, coefficients=_c1("const(0.5) * sin(1)"), seed=2222,
        forcing=ForcingSpec("const", -1.0),
        initial=InitialData("cone", 0.3, center=(0.3,), radius=0.2),
    )
    eps_list = (1e-1, 2.5e-2, 6.25e-3, 1.5625e-3)
    fit = cauchy_rate_study(spec, eps_list)
    if fit.degenerate:
        return [("cauchy_slope", np.nan, 0.45, False)]
    return [("cauchy_slope", fit.slope, 0.45, fit.slope >= 0.45),
            ("cauchy_fit_residual", fit.fit_residual, np.inf, True)]


# 4 --------------------------------------------------------------------------


def check_energy(workers: int = 1):
    """The energy and multiplier ratios of 100 paths, read from the
    ensemble's own per-path functionals; a failed path stops the check."""
    spec = ProblemSpec(
        n=63, T=0.25, n_steps=250, coefficients=_c1("const(0.5) * sin(1)"), seed=3333,
        initial=InitialData("sine", 1.0),
    )
    results = map_paths(_ensemble_worker, path_batches(spec, 100, workers), workers)
    for _, vals, err in results:
        if vals is None:
            raise NumericalFailure(err)
    worst_e = max(vals["energy_ratio"] for _, vals, _ in results)
    worst_m = max(vals["multiplier_ratio"] for _, vals, _ in results)
    rows = [
        ("energy_ratio_max_100paths", worst_e, 10.0, worst_e <= 10.0),
        ("multiplier_ratio_max_100paths", worst_m, 10.0, worst_m <= 10.0),
    ]
    # deterministic pure diffusion: the discrete energy identity is sharp
    diffusion = ProblemSpec(n=127, T=0.1, n_steps=500, initial=InitialData("sine", 1.0))
    sol = diffusion.solve(0)
    ratio = energy_check(sol).energy_ratio
    bound = 1.0 + 10.0 * sol.tg.dt
    rows.append(("energy_ratio_pure_diffusion", ratio, bound, ratio <= bound))
    return rows


# 5 --------------------------------------------------------------------------


def _consistency_worker(args):
    spec, first, stop = args
    masters = spec.sample(range(first, stop))
    marches = []  # transform, then EM, at n_steps and at 2 n_steps: a path's solo order
    for n_steps in (spec.n_steps, 2 * spec.n_steps):
        g, tg, cs, cfg = replace(spec, n_steps=n_steps).build()
        args_ = (g, tg, cs, spec.reaction, spec.forcing, spec.initial, cfg, masters)
        marches += [solve_path_batch(*args_), direct_em_batch(*args_)]
    per_path = list(zip(*marches))
    solved([out for outs in per_path for out in outs])  # what the solo solves would raise first
    rows = []
    for pid, (tr1, em1, tr2, em2) in zip(range(first, stop), per_path):
        rows.append((pid, norm_l2(g, em1.X[-1] - tr1.X[-1]), norm_l2(g, em2.X[-1] - tr2.X[-1])))
    return rows


def check_transform_consistency(workers: int = 1):
    """Direct Euler-Maruyama vs the transform route with shared increments:
    the T-time X gap shrinks by a factor in [1.5, 3] when dt halves,
    averaged over 100 paths.  Each job of contiguous path ids makes four
    batched marches, transform and EM at both dt, over the master paths of
    the whole job; jobs are sized on the finer march."""
    spec = ProblemSpec(
        n=63, T=0.25, n_steps=125, coefficients=_c1("const(0.3) * sin(2)"),
        seed=4444, initial=InitialData("sine", 1.0), headroom=8,
    )
    # every job carries this spec: its master paths have n_steps * headroom nodes
    fine = path_batches(replace(spec, n_steps=2 * spec.n_steps), 100, workers)
    jobs = [(spec, lo, stop) for _, lo, stop in fine]
    results = map_paths(_consistency_worker, jobs, workers)
    e1 = np.array([r[1] for r in results])
    e2 = np.array([r[2] for r in results])
    factor = float(e1.mean() / e2.mean())
    frac_decreasing = float(np.mean(e2 < e1))
    return [
        ("em_reduction_factor_lower", factor, 1.5, factor >= 1.5),
        ("em_reduction_factor_upper", factor, 3.0, factor <= 3.0),
        ("em_gap_decreases_fraction", frac_decreasing, 0.8, frac_decreasing >= 0.8),
    ]


# 6 --------------------------------------------------------------------------


def _signorini_trace():
    """The boundary trace stays >= -C eps across the sweep."""
    sweep = ProblemSpec(n=63, bc_kind=NEUMANN, T=0.3, n_steps=300,
                        forcing=ForcingSpec("edge", -2.0, width=0.15),
                        initial=InitialData("sine", 0.0))
    ratios = [max(-float(sol.y[:, sol.grid.boundary_mask].min()), 0.0) / sol.diagnostics.eps
              for sol in _eps_sweep(sweep)]
    return [("signorini_trace_fitted_C", max(ratios), np.inf, np.isfinite(max(ratios))),
            _scaling_row("signorini_trace_scaling", ratios)]


_SIGNORINI_MASS = ProblemSpec(n=63, bc_kind=NEUMANN, T=1.0, n_steps=400,
                              initial=InitialData("cutoff", 1.0, radius=0.2))


def _signorini_mass():
    """Mass conservation in the pure-Neumann inactive regime."""
    sol = _SIGNORINI_MASS.solve(0)
    masses = mass(sol.grid, sol.y)
    drift = float(np.max(np.abs(masses - masses[0]))) / sol.tg.T
    return [("signorini_mass_drift_per_time", drift, 1e-6, drift <= 1e-6)]


def _signorini_coercivity():
    """The form probe at moderate path sup, on the mass problem's grid."""
    g = _SIGNORINI_MASS.build()[0]
    paths = sample_block(TimeGrid(0.2, 100), 1, 8, [0])
    delta = float(path_sup(paths)[0])
    cs = CoeffSpec(_c1("const(0.5) * cos(1)"))
    coeffs = assemble_coeffs(g, cs, ReactionSpec("linear", 0.3), ForcingSpec(), paths, 60, 30.0)
    rep = probe_form_constants(g, coeffs, eps=1e-3, seed=1)
    return [("signorini_delta_moderate", delta, 2.0, delta <= 2.0),
            ("signorini_coercivity_violations", rep.violations, 0.0, rep.violations == 0),
            ("signorini_coercivity_c2", rep.c2, np.inf, rep.c2 > 0)]


def check_signorini(workers: int = 1):
    """Criterion 6 in three independent jobs, on up to `workers` processes:
    the trace sweep, the mass drift and the coercivity probe."""
    return map_paths(_rows, (_signorini_trace, _signorini_mass, _signorini_coercivity), workers)


# 7 --------------------------------------------------------------------------


def _stefan_similarity():
    """Heated-boundary front against the similarity solution."""
    st = 1.0
    g = build_grid(1, [1.0], 255, DIRICHLET)
    tg = TimeGrid(0.1, 1000)
    cfg = SolveConfig(dt=tg.dt, eps=1e-6)
    sd = StefanData(theta0=np.zeros(g.n_nodes), rho=1.0, heated_boundary_temp=st)
    ((_, fb),) = solved(solve_stefan_batch(g, tg, CoeffSpec(()), sd, cfg,
                                           sample_block(tg, 0, 0, [0])))
    front_exact, _ = similarity_oracle(st, tg.T)
    rel = abs(fb.fronts[-1] - front_exact) / front_exact
    return [("stefan_similarity_front_rel_error", rel, 0.02, rel <= 0.02),
            ("stefan_front_max_drop", fb.max_front_drop(), float(g.h[0]),
             fb.max_front_drop() <= g.h[0])]


def _interior_melting():
    """Grid, time grid, SolveConfig and StefanData of the interior melt."""
    gi = build_grid(1, [1.0], 127, DIRICHLET)
    tgi = TimeGrid(0.05, 500)
    x = gi.meshes()[0]
    theta0 = 4.0 * np.clip(1.0 - np.abs(x - 0.35) / 0.15, 0.0, 1.0)
    return gi, tgi, SolveConfig(dt=tgi.dt, eps=1e-6), StefanData(theta0=theta0, rho=1.0)


def _stefan_interior():
    """Interior melting: monotone front, Baiocchi round trip O(dt)."""
    gi, tgi, cfgi, sdi = _interior_melting()
    soli, thetai, fbi = solve_stefan_svi(gi, tgi, CoeffSpec(()), sdi, cfgi,
                                         sample_paths(tgi, 0, seed=0))
    y_back = baiocchi_forward(thetai, fbi, gi, tgi, mu=soli.mu, liquid0_mask=sdi.liquid_mask)
    err = float(np.max(np.abs(y_back[-1] - soli.y[-1])))
    scale = tgi.dt * float(np.max(sdi.theta0)) + fbi.tol_fb
    return [("stefan_roundtrip_over_dt_scale", err / scale, 10.0, err <= 10.0 * scale),
            ("stefan_front_max_drop_interior", fbi.max_front_drop(), float(gi.h[0]),
             fbi.max_front_drop() <= gi.h[0])]


def _stefan_noisy():
    """Interior melting on three noisy paths, in one march: monotone fronts."""
    gi, tgi, cfgi, sdi = _interior_melting()
    csn = CoeffSpec(_c1("const(0.4) * sin(1)"))
    paths = sample_block(TimeGrid(0.05, 4000), 1, 31, range(3))
    drops = [fbn.max_front_drop() for _, fbn in
             solved(solve_stefan_batch(gi, tgi, csn, sdi, cfgi, paths))]
    worst = float(max(drops))
    return [("stefan_front_max_drop_noisy", worst, float(gi.h[0]), worst <= gi.h[0])]


def check_stefan(workers: int = 1):
    """Criterion 7 in three independent jobs, on up to `workers` processes:
    the similarity benchmark, interior melting with its Baiocchi round trip,
    and three noisy paths in one batched march."""
    return map_paths(_rows, (_stefan_similarity, _stefan_interior, _stefan_noisy), workers)


# 8 --------------------------------------------------------------------------


def _noise_worker(args):
    """beta(T)^2 and sup |beta|^2 of the paths first..stop-1, sampled in
    blocks of at most BATCH_VALUES values."""
    tg, seed, first, stop = args
    size = max(1, BATCH_VALUES // (tg.N + 1))
    beta_T_sq, delta_sq = [], []
    for lo in range(first, stop, size):
        block = sample_block(tg, 1, seed, range(lo, min(lo + size, stop)))
        beta_T_sq.append(block.values[:, 0, -1] ** 2)
        delta_sq.append(path_sup(block) ** 2)
    return [(np.concatenate(beta_T_sq), np.concatenate(delta_sq))]


def check_noise_stats(workers: int = 1):
    """Criterion 8 on 10^4 Brownian paths, sampled in one contiguous block
    of path ids per worker; the statistics are taken in path-id order, so
    the worker count never changes them."""
    T = 1.0
    tg = TimeGrid(T, 256)
    n = 10_000
    size = -(-n // workers)
    blocks = map_paths(_noise_worker, [(tg, 8888, lo, min(lo + size, n))
                                       for lo in range(0, n, size)], workers)
    beta_T_sq = np.concatenate([b[0] for b in blocks])
    delta_sq = np.concatenate([b[1] for b in blocks])
    se = np.sqrt(2.0) * T / np.sqrt(n)
    dev = abs(float(beta_T_sq.mean()) - T) / se
    rows = [("noise_var_beta_T_dev_se", dev, 3.0, dev <= 3.0)]
    full = FunctionalStats.of(delta_sq)
    mean_d = full.mean
    rows.append(("noise_delta_sq_lower", mean_d / T, 1.0, mean_d >= T))
    rows.append(("noise_delta_sq_upper", mean_d / T, 4.0, mean_d <= 4.0 * T))
    # CLT scaling: quadrupling paths halves the half-width within 25%
    ratio = FunctionalStats.of(delta_sq[:2500]).ci_half_width / full.ci_half_width
    rows.append(("noise_ci_halving_lower", ratio, 1.5, ratio >= 1.5))
    rows.append(("noise_ci_halving_upper", ratio, 2.5, ratio <= 2.5))
    return rows


# 9 --------------------------------------------------------------------------

_DETERMINISM_CONFIG = textwrap.dedent(
    """
    [domain]
    n = 31
    [time]
    t = 0.05
    dt = 1e-3
    [noise]
    m = 1
    seed = 99
    mu1 = const(0.5) * sin(1)
    [forcing]
    kind = const
    amplitude = -0.5
    [initial]
    kind = sine
    amplitude = 0.5
    [run]
    mode = {mode}
    n_paths = {n_paths}
    workers = {workers}
    [output]
    dir = {out}
    """
)


def check_determinism(workers: int = 1):
    from .cli import dispatch, parse_config

    rows = []
    for mode, n_paths in (("run", 1), ("ensemble", 8)):
        with tempfile.TemporaryDirectory() as td:
            td = Path(td)
            conf = td / "run.cfg"
            conf.write_text(_DETERMINISM_CONFIG.format(
                mode=mode, n_paths=n_paths, workers=max(workers, 2), out=td / "default"
            ))
            ok_codes = True
            for tag in ("a", "b"):
                cfg = parse_config(conf)  # same file, same hash
                cfg.out_dir = td / tag
                if dispatch(cfg, quiet=True) != 0:
                    ok_codes = False
            if not ok_codes:
                rows.append((f"determinism_{mode}", 2.0, 0.0, False))
                continue
            names_a = sorted(p.name for p in (td / "a").glob("*.csv"))
            names_b = sorted(p.name for p in (td / "b").glob("*.csv"))
            same = bool(names_a) and names_a == names_b and all(
                filecmp.cmp(td / "a" / nm, td / "b" / nm, shallow=False)
                for nm in names_a
            )
            rows.append((f"determinism_{mode}", 0.0 if same else 1.0, 0.0, same))
    return rows


# ---------------------------------------------------------------------------


def _rows(part):
    """The rows of one independent part, a callable that returns rows: a job
    of map_paths, which joins them in part order, so the worker count never
    changes them."""
    return part()


CHECKS = {
    "heat_oracle": check_heat_oracle,
    "complementarity": check_complementarity,
    "cauchy_rate": check_cauchy_rate,
    "energy": check_energy,
    "transform_consistency": check_transform_consistency,
    "signorini": check_signorini,
    "stefan": check_stefan,
    "noise_stats": check_noise_stats,
    "determinism": check_determinism,
}


def run_checks(names=("all",), workers: int = 1, quiet: bool = False):
    selected = list(CHECKS) if "all" in names else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ConfigError(f"verify.checks: unknown checks {unknown}; catalog {sorted(CHECKS)}")
    rows = []
    for name in selected:
        for row in CHECKS[name](workers=workers):
            rows.append(row)
            if not quiet:
                label, value, threshold, ok = row
                print(f"{'PASS' if ok else 'FAIL'} {label}: value={value:.6g} "
                      f"threshold={threshold:.6g}")
    return rows
