"""Configuration-driven entry point.

Reads a line-oriented config ([section] headers, key = value pairs, #
comments), dispatches one of the run modes, and writes CSV artifacts with
deterministic seeds and fixed 17-significant-digit float formatting, so
identical configs produce byte-identical output.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification failure (verify mode).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import grid as gridmod
from .analysis import complementarity_report, energy_check, ensemble_run
from .errors import ConfigError, NumericalFailure
from .noise import Coefficient, parse_coefficient
from .pathsolver import ForcingSpec, InitialData, PathSolution, ProblemSpec, zero_coeffs
from .signorini import boundary_potential_check, build_boundary_data, probe_form_constants
from .stefan import StefanData, solve_stefan_svi
from .transform import ReactionSpec

MODES = ("run", "ensemble", "rate-eps", "rate-mesh", "stefan", "signorini", "verify")


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class RunConfig:
    """Validated run description (defaults already filled in)."""

    dim: int = 1
    lengths: tuple[float, ...] = (1.0,)
    n: int = 63
    bc: str = gridmod.DIRICHLET
    T: float = 0.1
    dt: float = 1e-3
    n_steps: int = 100
    theta: float = 1.0
    m: int = 0
    seed: int = 0
    coefficients: tuple[Coefficient, ...] = ()
    reaction: ReactionSpec = field(default_factory=ReactionSpec)
    eps_list: tuple[float, ...] = (1e-3,)
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    initial: InitialData = field(default_factory=InitialData)
    rho: float = 1.0
    theta0: InitialData = field(default_factory=InitialData)
    boundary_temp: float = 0.0
    tol_fb: float = 0.0
    mode: str = "run"
    n_paths: int = 1
    path_id: int = 0
    workers: int = 1
    slack: float = 10.0
    newton_tol: float = 1e-10
    newton_max: int = 200
    mu_cap: float = 30.0
    headroom: int = 8
    mesh_levels: int = 3
    verify_checks: tuple[str, ...] = ("all",)
    out_dir: Path = Path("out")
    config_sha: str = ""

    @property
    def eps(self) -> float:
        return self.eps_list[0]

    def problem_spec(self, eps: float | None = None, bc: str | None = None) -> ProblemSpec:
        return ProblemSpec(
            dim=self.dim, lengths=self.lengths, n=self.n, bc_kind=bc or self.bc,
            T=self.T, n_steps=self.n_steps, theta=self.theta,
            coefficients=self.coefficients, seed=self.seed,
            reaction=self.reaction, forcing=self.forcing, initial=self.initial,
            eps=eps if eps is not None else self.eps,
            newton_tol=self.newton_tol, newton_max=self.newton_max,
            mu_cap=self.mu_cap, headroom=self.headroom,
        )


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


_SCHEMA = {
    "domain": {"dim": int, "lengths": _floats, "n": int, "bc": str},
    "time": {"t": float, "dt": float, "theta": float},
    "noise": {"m": int, "seed": int},  # mu1..muK handled separately
    "reaction": {"kind": str, "alpha": float},
    "penalty": {"eps": _floats},
    "forcing": {"kind": str, "amplitude": float, "width": float},
    "initial": {"kind": str, "amplitude": float, "center": _floats, "radius": float},
    "stefan": {
        "rho": float, "theta0_kind": str, "theta0_amplitude": float,
        "theta0_center": _floats, "theta0_radius": float,
        "boundary_temp": float, "tol_fb": float,
    },
    "run": {
        "mode": str, "n_paths": int, "path_id": int, "workers": int, "slack": float,
        "newton_tol": float, "newton_max": int, "mu_cap": float, "headroom": int,
        "mesh_levels": int,
    },
    "verify": {"checks": str},
    "output": {"dir": str},
}


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem found.

    overrides maps (section, key) to a value that replaces the file's
    (the CLI flags) and is validated like it.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        parser.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config syntax: {exc}")

    errors: list[str] = []
    values: dict[str, dict] = {}
    mu_texts: dict[int, str] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        known = _SCHEMA[section]
        values[section] = {}
        for key, text in parser.items(section):
            if section == "noise" and key.startswith("mu"):
                try:
                    mu_texts[int(key[2:])] = text
                except ValueError:
                    errors.append(f"noise.{key}: coefficient keys are mu1..muK")
                continue
            if key not in known:
                errors.append(f"unknown key {section}.{key}")
                continue
            try:
                values[section][key] = known[key](text)
            except (ValueError, TypeError):
                errors.append(f"{section}.{key}: cannot parse value {text!r}")

    for (section, key), value in (overrides or {}).items():
        values.setdefault(section, {})[key] = value

    def get(section, key, default):
        return values.get(section, {}).get(key, default)

    cfg = RunConfig(config_sha=hashlib.sha256(raw).hexdigest())
    cfg.dim = get("domain", "dim", 1)
    cfg.lengths = get("domain", "lengths", (1.0,) * max(cfg.dim, 1))
    cfg.n = get("domain", "n", 63)
    cfg.bc = get("domain", "bc", gridmod.DIRICHLET).lower()
    cfg.T = get("time", "t", 0.1)
    cfg.dt = get("time", "dt", 1e-3)
    cfg.theta = get("time", "theta", 1.0)
    cfg.m = get("noise", "m", 0)
    cfg.seed = get("noise", "seed", 0)
    cfg.rho = get("stefan", "rho", 1.0)
    cfg.boundary_temp = get("stefan", "boundary_temp", 0.0)
    cfg.tol_fb = get("stefan", "tol_fb", 0.0)
    cfg.mode = get("run", "mode", "run").lower()
    cfg.n_paths = get("run", "n_paths", 1)
    cfg.path_id = get("run", "path_id", 0)
    cfg.workers = get("run", "workers", 1)
    cfg.slack = get("run", "slack", 10.0)
    cfg.newton_tol = get("run", "newton_tol", 1e-10)
    cfg.newton_max = get("run", "newton_max", 200)
    cfg.mu_cap = get("run", "mu_cap", 30.0)
    cfg.headroom = get("run", "headroom", 8)
    cfg.mesh_levels = get("run", "mesh_levels", 3)
    cfg.verify_checks = tuple(
        c.strip() for c in get("verify", "checks", "all").split(",") if c.strip()
    )
    cfg.out_dir = Path(get("output", "dir", "out"))

    if cfg.dim not in (1, 2):
        errors.append(f"domain.dim must be 1 or 2, got {cfg.dim}")
    if cfg.dim in (1, 2) and len(cfg.lengths) != cfg.dim:
        errors.append(f"domain.lengths needs {cfg.dim} value(s), got {len(cfg.lengths)}")
    if any(L <= 0 for L in cfg.lengths):
        errors.append("domain.lengths must be positive")
    if cfg.n < 3:
        errors.append(f"domain.n must be >= 3, got {cfg.n}")
    if cfg.bc not in (gridmod.DIRICHLET, gridmod.NEUMANN):
        errors.append(f"domain.bc must be dirichlet or neumann, got {cfg.bc!r}")
    if cfg.T <= 0:
        errors.append(f"time.t must be > 0, got {cfg.T}")
    if cfg.dt <= 0:
        errors.append(f"time.dt must be > 0, got {cfg.dt}")
    else:
        cfg.n_steps = max(1, int(round(cfg.T / cfg.dt)))
        if abs(cfg.n_steps * cfg.dt - cfg.T) > cfg.dt:
            errors.append(f"time.dt = {cfg.dt} does not divide t = {cfg.T} within one step")
    if not 0.5 <= cfg.theta <= 1.0:
        errors.append(f"time.theta must lie in [0.5, 1], got {cfg.theta}")
    if cfg.m < 0:
        errors.append(f"noise.m must be >= 0, got {cfg.m}")
    if cfg.seed < 0:
        errors.append(f"noise.seed must be >= 0, got {cfg.seed}")
    if cfg.mode not in MODES:
        errors.append(f"run.mode must be one of {', '.join(MODES)}; got {cfg.mode!r}")
    min_paths = 2 if cfg.mode == "ensemble" else 1
    if cfg.n_paths < min_paths:
        errors.append(f"run.n_paths must be >= {min_paths} in {cfg.mode} mode, got {cfg.n_paths}")
    if cfg.workers < 1:
        errors.append(f"run.workers must be >= 1, got {cfg.workers}")

    eps_list = get("penalty", "eps", (1e-3,))
    if any(e <= 0 for e in eps_list):
        errors.append("penalty.eps must be > 0")
    elif list(eps_list) != sorted(eps_list, reverse=True):
        errors.append("penalty.eps list must be strictly decreasing")
    else:
        cfg.eps_list = tuple(eps_list)

    coeffs = []
    for k in range(1, cfg.m + 1):
        if k not in mu_texts:
            errors.append(f"noise.mu{k} missing (m = {cfg.m})")
            continue
        try:
            coeffs.append(parse_coefficient(mu_texts[k], cfg.lengths, label=f"noise.mu{k}"))
        except ConfigError as exc:
            errors.extend(exc.messages)
    extra = sorted(set(mu_texts) - set(range(1, cfg.m + 1)))
    if extra:
        errors.append(f"noise.mu{extra[0]} given but m = {cfg.m}")
    cfg.coefficients = tuple(coeffs)

    try:
        cfg.reaction = ReactionSpec(get("reaction", "kind", "zero").lower(),
                                    get("reaction", "alpha", 0.0))
    except ConfigError as exc:
        errors.extend(f"reaction: {m}" for m in exc.messages)
    try:
        cfg.forcing = ForcingSpec(get("forcing", "kind", "zero").lower(),
                                  get("forcing", "amplitude", 0.0),
                                  get("forcing", "width", 0.1))
    except ConfigError as exc:
        errors.extend(f"forcing: {m}" for m in exc.messages)

    def initial_data(section, prefix, kind, label):
        center = get(section, f"{prefix}center", ()) or None
        if center is not None and len(center) != cfg.dim:
            errors.append(f"{section}.{prefix}center needs {cfg.dim} value(s), got {len(center)}")
        try:
            return InitialData(get(section, f"{prefix}kind", kind).lower(),
                               get(section, f"{prefix}amplitude", 0.0),
                               center, get(section, f"{prefix}radius", None))
        except ConfigError as exc:
            errors.extend(f"{label}: {m}" for m in exc.messages)
            return InitialData()

    cfg.initial = initial_data("initial", "", "sine", "initial")
    cfg.theta0 = initial_data("stefan", "theta0_", "cone", "stefan.theta0")
    if cfg.rho <= 0:
        errors.append(f"stefan.rho must be > 0, got {cfg.rho}")

    if cfg.mode == "rate-eps" and len(cfg.eps_list) < 4:
        errors.append("rate-eps mode needs at least 4 penalty.eps values")
    if cfg.mode == "signorini" and cfg.bc != gridmod.NEUMANN:
        errors.append("signorini mode needs domain.bc = neumann")
    if cfg.mode in ("rate-mesh", "stefan") and cfg.bc != gridmod.DIRICHLET:
        errors.append(f"{cfg.mode} mode needs domain.bc = dirichlet")

    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# CSV output


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


class CsvWriter:
    """Single writer per file; comment line carries provenance."""

    def __init__(self, out_dir: Path, config_sha: str):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.comment = f"# config_sha256={config_sha} version={__version__}\n"

    def write(self, name: str, header: list[str], rows) -> Path:
        path = self.out_dir / name
        with open(path, "w", newline="\n") as fh:
            fh.write(self.comment)
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return path


def trajectory_rows(sol: PathSolution):
    g = sol.grid
    xs = g.meshes()
    xi0 = xs[0]
    xi1 = xs[1] if g.dim == 2 else np.zeros(g.n_nodes)
    X = sol.X
    eta_X = sol.eta_X
    for n, t in enumerate(sol.tg.nodes):
        for j in range(g.n_nodes):
            yield (t, j, xi0[j], xi1[j], sol.y[n, j], X[n, j], eta_X[n, j])


def write_summary(writer: CsvWriter, checks):
    """summary.csv from (check_name, value, threshold, passed) rows."""
    writer.write("summary.csv", ["check_name", "value", "threshold", "status"],
                 [(name, value, threshold, "pass" if ok else "fail")
                  for name, value, threshold, ok in checks])


def write_trajectory(writer: CsvWriter, sol: PathSolution):
    writer.write("trajectory.csv", ["t", "node_index", "xi_0", "xi_1", "y", "X", "eta"],
                 trajectory_rows(sol))


# ---------------------------------------------------------------------------
# dispatch


def _mode_run(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    sol = cfg.problem_spec().solve(cfg.path_id)
    write_trajectory(writer, sol)
    rep = complementarity_report(sol.X, sol.eta_X, sol.grid, sol.tg)
    erep = energy_check(sol, cfg.initial, slack=cfg.slack)
    checks = [
        ("min_X", rep.min_X, -cfg.slack * cfg.eps, rep.min_X >= -cfg.slack * cfg.eps),
        ("max_eta", rep.max_eta, 1e-12, rep.max_eta <= 1e-12),
        ("pairing_abs", abs(rep.pairing), cfg.slack * cfg.eps,
         abs(rep.pairing) <= cfg.slack * cfg.eps),
        ("energy_ratio", erep.energy_ratio, cfg.slack, erep.energy_ratio <= cfg.slack),
        ("multiplier_ratio", erep.multiplier_ratio, cfg.slack,
         erep.multiplier_ratio <= cfg.slack),
        ("delta", sol.diagnostics.delta, np.inf, True),
        ("stability_margin", sol.diagnostics.stability_margin, 1.0,
         sol.diagnostics.stability_margin <= 1.0),
        ("refine_level", sol.diagnostics.refine_level, cfg.headroom, True),
        ("newton_iters_max", int(np.max(sol.diagnostics.newton_iters, initial=0)),
         sol.grid.n_nodes, True),
    ]
    write_summary(writer, checks)
    if not quiet:
        for name, value, threshold, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.6g} (threshold {threshold:.6g})")
    return 0


def _mode_ensemble(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    stats = ensemble_run(cfg.problem_spec(), cfg.n_paths, workers=cfg.workers)
    rows = [(name, fs.mean, fs.variance, fs.ci_half_width, stats.n_paths, stats.n_failures)
            for name, fs in stats.stats.items()]
    writer.write("stats.csv",
                 ["functional", "mean", "variance", "ci_half_width", "n_paths", "n_failures"],
                 rows)
    checks = [("failure_fraction", stats.failure_fraction, 0.10, stats.passed)]
    for name, c in sorted(stats.empirical_C.items()):
        checks.append((f"empirical_C_{name}", c, np.inf, True))
    write_summary(writer, checks)
    if not quiet:
        print(f"{'PASS' if stats.passed else 'FAIL'} ensemble: "
              f"{stats.n_paths} paths, {stats.n_failures} failures")
    return 0 if stats.passed else 2


def _rates_rows(eps_vals, errors):
    rows = []
    for i in range(len(eps_vals)):
        if i >= 1 and np.all(np.asarray(errors[: i + 1]) > 0):
            slope = np.polyfit(np.log(eps_vals[: i + 1]), np.log(errors[: i + 1]), 1)[0]
        else:
            slope = np.nan
        rows.append((eps_vals[i], errors[i], slope))
    return rows


def _mode_rate_eps(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    from .analysis import cauchy_rate_study

    fit = cauchy_rate_study(cfg.problem_spec(), cfg.eps_list, path_id=cfg.path_id)
    writer.write("rates.csv", ["eps", "error_l2", "slope_running"],
                 _rates_rows(fit.eps, fit.errors))
    if fit.degenerate:
        checks = [("cauchy_slope_degenerate", 0.0, 0.0, True)]
    else:
        checks = [("cauchy_slope", fit.slope, 0.45, fit.slope >= 0.45)]
    write_summary(writer, checks)
    if not quiet:
        label = "degenerate (obstacle inactive)" if fit.degenerate else f"slope {fit.slope:.3f}"
        print(f"rate-eps: {label}")
    return 0


def _mode_rate_mesh(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    # nested Dirichlet grids n -> 2n+1, shared time grid and path; error
    # against the finest level, written with h in the schema's eps column
    from dataclasses import replace

    ns = [cfg.n]
    for _ in range(cfg.mesh_levels):
        ns.append(2 * ns[-1] + 1)
    spec = cfg.problem_spec()
    sols = {n: replace(spec, n=n).solve(cfg.path_id) for n in ns}
    ref = sols[ns[-1]]
    hs, errors = [], []
    for n in ns[:-1]:
        stride = (ns[-1] + 1) // (n + 1)
        restricted = ref.y[-1][stride - 1 :: stride]
        diff = sols[n].y[-1] - restricted
        g = sols[n].grid
        hs.append(g.h[0])
        errors.append(float(np.sqrt(np.sum(g.weights * diff * diff))))
    writer.write("rates.csv", ["eps", "error_l2", "slope_running"], _rates_rows(hs, errors))
    if not quiet:
        print(f"rate-mesh: errors {['%.3e' % e for e in errors]}")
    return 0


def _mode_stefan(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    spec = cfg.problem_spec()
    g, tg, cs, scfg = spec.build()
    sd = StefanData(theta0=cfg.theta0.evaluate(g), rho=cfg.rho,
                    heated_boundary_temp=cfg.boundary_temp)
    tol_fb = cfg.tol_fb if cfg.tol_fb > 0 else None
    fronts = []
    measures = []
    last = None
    for pid in range(cfg.path_id, cfg.path_id + cfg.n_paths):
        paths = spec.sample(pid)
        sol, theta, fb = solve_stefan_svi(g, tg, cs, sd, scfg, paths, tol_fb=tol_fb)
        fronts.append(fb.fronts)
        measures.append(fb.melted_measure)
        last = (sol, theta, fb)
    fronts = np.array(fronts)
    measures = np.array(measures)
    if cfg.n_paths > 1:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices pre-melt
            mean_front = np.nanmean(fronts, axis=0)
    else:
        mean_front = fronts[0]
    mean_measure = measures.mean(axis=0)
    writer.write("front.csv", ["t", "front_position", "melted_measure"],
                 [(t, mean_front[n], mean_measure[n]) for n, t in enumerate(tg.nodes)])
    sol, theta, fb = last
    write_trajectory(writer, sol)
    checks = [("front_max_drop", fb.max_front_drop(), float(g.h[0]),
               fb.max_front_drop() <= g.h[0])]
    if cfg.n_paths > 1:
        finals = fronts[:, -1]
        finals = finals[~np.isnan(finals)]
        if finals.size:
            var = float(finals.var(ddof=1)) if finals.size > 1 else 0.0
            stats_rows = [
                ("front_at_T", float(finals.mean()), var,
                 float(1.96 * np.sqrt(var / finals.size)), int(finals.size),
                 int(cfg.n_paths - finals.size)),
                ("front_at_T_q25", float(np.quantile(finals, 0.25)), 0.0, 0.0, int(finals.size), 0),
                ("front_at_T_q75", float(np.quantile(finals, 0.75)), 0.0, 0.0, int(finals.size), 0),
            ]
            writer.write("stats.csv",
                         ["functional", "mean", "variance", "ci_half_width", "n_paths",
                          "n_failures"], stats_rows)
    write_summary(writer, checks)
    if not quiet:
        print(f"stefan: front(T) = {mean_front[-1]:.4f}, melted measure {mean_measure[-1]:.4f}")
    return 0


def _mode_signorini(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    spec = cfg.problem_spec(bc=gridmod.NEUMANN)
    sol = spec.solve(cfg.path_id)
    write_trajectory(writer, sol)
    g = sol.grid
    bd = build_boundary_data(g)
    trace_min = float(sol.y[:, g.boundary_mask].min())
    ratio, ok = boundary_potential_check(sol, cfg.initial, slack=cfg.slack)
    coeffs = zero_coeffs(g, rs=cfg.reaction)
    rep = probe_form_constants(g, coeffs, bd, cfg.eps, n_samples=128, seed=cfg.seed)
    checks = [
        ("boundary_trace_min", trace_min, cfg.slack * cfg.eps,
         trace_min >= -cfg.slack * cfg.eps),
        ("boundary_potential_ratio", ratio, cfg.slack, ok),
        ("coercivity_violations", rep.violations, 0, rep.violations == 0),
        ("coercivity_c2", rep.c2, np.inf, rep.c2 > 0),
        ("coercivity_c3", rep.c3, np.inf, True),
        ("boundedness_c1", rep.c1, np.inf, True),
        ("monotonicity_c4", rep.c4, np.inf, True),
    ]
    write_summary(writer, checks)
    if not quiet:
        for name, value, threshold, ok_ in checks:
            print(f"{'PASS' if ok_ else 'FAIL'} {name}: {value:.6g}")
    return 0


def _mode_verify(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    from .verify import run_checks

    rows = run_checks(cfg.verify_checks, workers=cfg.workers, quiet=quiet)
    write_summary(writer, rows)
    return 0 if all(ok for *_, ok in rows) else 3


def dispatch(cfg: RunConfig, quiet: bool = False) -> int:
    writer = CsvWriter(cfg.out_dir, cfg.config_sha)
    handlers = {
        "run": _mode_run,
        "ensemble": _mode_ensemble,
        "rate-eps": _mode_rate_eps,
        "rate-mesh": _mode_rate_mesh,
        "stefan": _mode_stefan,
        "signorini": _mode_signorini,
        "verify": _mode_verify,
    }
    try:
        return handlers[cfg.mode](cfg, writer, quiet)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        write_summary(writer, [("numerical_failure", 1.0, 0.0, False),
                               ("message: " + str(exc).replace(",", ";"), 0.0, 0.0, False)])
        if not quiet:
            print(f"FAIL numerical: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="svilab",
        description="Path-wise numerical laboratory for a stochastic obstacle problem "
                    "with multiplicative noise.",
    )
    ap.add_argument("--config", required=True, help="run configuration file")
    ap.add_argument("--seed", type=int, default=None, help="override [noise].seed")
    ap.add_argument("--paths", type=int, default=None, help="override [run].n_paths")
    ap.add_argument("--out", default=None, help="override [output].dir")
    ap.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = ap.parse_args(argv)

    overrides = {("noise", "seed"): args.seed, ("run", "n_paths"): args.paths}
    try:
        cfg = parse_config(args.config, {k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 1
    if args.out is not None:
        cfg.out_dir = Path(args.out)
    return dispatch(cfg, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
