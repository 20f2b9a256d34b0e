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
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from types import GeneratorType

import numpy as np

from . import __version__
from . import grid as gridmod
from .analysis import (FunctionalStats, cauchy_rate_study, energy_check, ensemble_run,
                       path_batches, solution_complementarity)
from .analysis import complementarity_report  # noqa: F401  (perfbench's tracer wraps it)
from .errors import ConfigError, NumericalFailure
from .floatfmt import WIDTH, g17_matrix, records, text_matrix
from .noise import parse_coefficient
from .pathsolver import ForcingSpec, InitialData, PathSolution, ProblemSpec, solved
from .signorini import assemble_coeffs, boundary_potential_check, probe_form_constants
from .stefan import StefanData, solve_stefan_batch
from .transform import ReactionSpec
from .verify import CHECKS, run_checks

MODES = ("run", "ensemble", "rate-eps", "rate-mesh", "stefan", "signorini", "verify")

# largest array a run may allocate, in float64 values (512 MiB)
MAX_ARRAY_VALUES = 2**26


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class RunConfig:
    """A validated run: the problem it solves and what its mode needs besides."""

    spec: ProblemSpec
    mode: str
    eps_list: tuple[float, ...]
    n_paths: int
    path_id: int
    workers: int
    slack: float
    mesh_levels: int
    verify_checks: tuple[str, ...]
    rho: float
    theta0: InitialData
    boundary_temp: float
    tol_fb: float
    out_dir: Path
    config_sha: str

    def problem_spec(self) -> ProblemSpec:
        """`spec`, for callers outside the package (perfbench reads it)."""
        return self.spec


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _names(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _positive(x) -> bool:
    return 0 < x < math.inf


def _at_least(lo):
    return lambda x: x >= lo


# (parser, default) of every key; lengths None means 1.0 per axis
_SCHEMA = {
    "domain": {"dim": (int, 1), "lengths": (_floats, None), "n": (int, 63),
               "bc": (str.lower, gridmod.DIRICHLET)},
    "time": {"t": (float, 0.1), "dt": (float, 1e-3), "theta": (float, ProblemSpec.theta)},
    "noise": {"m": (int, 0), "seed": (int, 0)},  # mu1..muK handled separately
    "reaction": {"kind": (str.lower, "zero"), "alpha": (float, 0.0)},
    "penalty": {"eps": (_floats, (ProblemSpec.eps,))},
    "forcing": {"kind": (str.lower, "zero"), "amplitude": (float, 0.0), "width": (float, 0.1)},
    "initial": {"kind": (str.lower, "sine"), "amplitude": (float, 0.0), "center": (_floats, ()),
                "radius": (float, None)},
    "stefan": {
        "rho": (float, 1.0), "theta0_kind": (str.lower, "cone"), "theta0_amplitude": (float, 0.0),
        "theta0_center": (_floats, ()), "theta0_radius": (float, None),
        "boundary_temp": (float, 0.0), "tol_fb": (float, 0.0),
    },
    "run": {
        "mode": (str.lower, "run"), "n_paths": (int, 1), "path_id": (int, 0), "workers": (int, 1),
        "slack": (float, 10.0), "newton_tol": (float, ProblemSpec.newton_tol),
        "newton_max": (int, ProblemSpec.newton_max), "mu_cap": (float, ProblemSpec.mu_cap),
        "headroom": (int, ProblemSpec.headroom), "mesh_levels": (int, 3),
    },
    "verify": {"checks": (_names, ("all",))},
    "output": {"dir": (str, "out")},
}

# (test, requirement) of single effective values
_RULES = {
    "domain.dim": (lambda x: x in (1, 2), "be 1 or 2"),
    "domain.lengths": (lambda x: all(map(_positive, x)), "be > 0 and finite"),
    "domain.n": (_at_least(3), "be >= 3"),
    "domain.bc": (lambda x: x in (gridmod.DIRICHLET, gridmod.NEUMANN),
                  "be dirichlet or neumann"),
    "time.t": (_positive, "be > 0 and finite"),
    "time.dt": (_positive, "be > 0 and finite"),
    "time.theta": (lambda x: 0.5 <= x <= 1.0, "lie in [0.5, 1]"),
    "noise.m": (_at_least(0), "be >= 0"),
    "noise.seed": (_at_least(0), "be >= 0"),
    "penalty.eps": (lambda x: x and all(map(_positive, x)), "be > 0 and finite"),
    "stefan.rho": (_positive, "be > 0 and finite"),
    "stefan.boundary_temp": (lambda x: 0 <= x < math.inf, "be >= 0 and finite"),
    "stefan.tol_fb": (lambda x: 0 <= x < math.inf, "be >= 0 and finite"),
    "run.mode": (lambda x: x in MODES, f"be one of {', '.join(MODES)}"),
    "run.path_id": (_at_least(0), "be >= 0"),
    "run.workers": (_at_least(1), "be >= 1"),
    "run.slack": (_positive, "be > 0 and finite"),
    "run.newton_tol": (_positive, "be > 0 and finite"),
    "run.newton_max": (_at_least(1), "be >= 1"),
    "run.mu_cap": (_positive, "be > 0 and finite"),
    "run.headroom": (_at_least(1), "be >= 1"),
    "run.mesh_levels": (_at_least(1), "be >= 1"),
    "verify.checks": (lambda x: x and set(x) <= {"all", *CHECKS},
                      f"name checks among all, {', '.join(CHECKS)}"),
}


def _size_errors(v: dict, n_steps: int) -> list[str]:
    """One error naming the keys that size an array of the run beyond
    MAX_ARRAY_VALUES: the stored trajectory, (n_steps + 1) x the nodes of the
    finest grid the mode builds, or the sampled path, m x (n_steps * headroom + 1)."""
    n, traj_keys = v["domain.n"], ["domain.n", "domain.dim", "time.t", "time.dt"]
    if v["run.mode"] == "rate-mesh":  # n -> 2n+1 per level; 64 levels are over already
        n = (n + 1) * 2 ** min(v["run.mesh_levels"], 64) - 1
        traj_keys.append("run.mesh_levels")
    over = [keys for size, keys in (
        ((n_steps + 1) * n ** v["domain.dim"], traj_keys),
        (v["noise.m"] * (n_steps * v["run.headroom"] + 1),
         ["noise.m", "time.t", "time.dt", "run.headroom"])) if size > MAX_ARRAY_VALUES]
    named = ", ".join(dict.fromkeys(k for keys in over for k in keys))
    return [f"{named}: an array of the run would hold more than {MAX_ARRAY_VALUES} "
            "float64 values (512 MiB)"] if over else []


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem found.

    overrides maps (section, key) to a value that replaces the file's (the
    CLI flags).  File values over defaults, then overrides, make one table
    of effective values; it is validated, hashed and becomes the run.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True,
                                       interpolation=None)
    try:
        parser.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config syntax: {exc}")

    errors: list[str] = []
    v = {f"{sec}.{key}": default for sec, keys in _SCHEMA.items()
         for key, (_, default) in keys.items()}
    mu_texts: dict[int, str] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, text in parser.items(section):
            if section == "noise" and key.startswith("mu"):
                try:
                    k = int(key[2:])
                except ValueError:
                    k = None
                if k is None or key != f"mu{k}":  # mu01 would stand in for mu1
                    errors.append(f"noise.{key}: coefficient keys are mu1..muK")
                else:
                    mu_texts[k] = text
                continue
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key {section}.{key}")
                continue
            try:
                v[f"{section}.{key}"] = _SCHEMA[section][key][0](text)
            except (ValueError, TypeError):
                errors.append(f"{section}.{key}: cannot parse value {text!r}")
    for (section, key), value in (overrides or {}).items():
        v[f"{section}.{key}"] = value
    dim, mode, m = v["domain.dim"], v["run.mode"], v["noise.m"]
    if v["domain.lengths"] is None:
        v["domain.lengths"] = (1.0,) * dim if dim in (1, 2) else ()

    for key, (ok, requirement) in _RULES.items():
        if not ok(v[key]):
            errors.append(f"{key} must {requirement}, got {v[key]!r}")
    lengths, T, dt, eps_list = v["domain.lengths"], v["time.t"], v["time.dt"], v["penalty.eps"]
    if dim in (1, 2) and len(lengths) != dim:
        errors.append(f"domain.lengths needs {dim} value(s), got {len(lengths)}")
    n_steps = 1
    if _positive(T) and _positive(dt):
        n_steps = max(1, round(T / dt)) if T / dt < math.inf else 0  # t / dt may overflow
        if abs(n_steps * dt - T) > 1e-9 * T:
            errors.append(f"time.dt = {dt} does not divide t = {T}")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        errors.append("penalty.eps list must be strictly decreasing")
    min_paths = 2 if mode == "ensemble" else 1
    if v["run.n_paths"] < min_paths:
        errors.append(f"run.n_paths must be >= {min_paths} in {mode} mode, "
                      f"got {v['run.n_paths']}")
    last_id = v["run.path_id"] + v["run.n_paths"] - 1  # sampled in blocks of uint64 ids
    if last_id >= 2**64:
        errors.append(f"run.path_id + run.n_paths - 1 must be below 2**64, got {last_id}")

    # the first missing key lies in 1..len(mu_texts) + 1 when any is missing
    missing = [k for k in range(1, min(m, len(mu_texts) + 1) + 1) if k not in mu_texts]
    if missing:
        errors.append(f"noise.mu{missing[0]} missing (m = {m})")
    extra = sorted(k for k in mu_texts if not 1 <= k <= m)
    if extra:
        errors.append(f"noise.mu{extra[0]} given but m = {m}")

    def make(cls, prefix, *args):
        try:
            return cls(*args)
        except ConfigError as exc:
            errors.extend(prefix + msg for msg in exc.messages)

    coeffs = tuple(make(parse_coefficient, "", mu_texts[k], lengths, f"noise.mu{k}")
                   for k in sorted(mu_texts) if 1 <= k <= m)
    reaction = make(ReactionSpec, "reaction.", v["reaction.kind"], v["reaction.alpha"])
    forcing = make(ForcingSpec, "forcing.", v["forcing.kind"], v["forcing.amplitude"],
                   v["forcing.width"])
    initial, theta0 = (
        make(InitialData, f"{sec}.{pre}", v[f"{sec}.{pre}kind"], v[f"{sec}.{pre}amplitude"],
             v[f"{sec}.{pre}center"] or None, v[f"{sec}.{pre}radius"])
        for sec, pre in (("initial", ""), ("stefan", "theta0_")))
    for key in ("initial.center", "stefan.theta0_center"):
        if v[key] and len(v[key]) != dim:
            errors.append(f"{key} needs {dim} value(s), got {len(v[key])}")

    bc = v["domain.bc"]
    if mode == "rate-eps" and len(eps_list) < 4:
        errors.append("rate-eps mode needs at least 4 penalty.eps values")
    if mode == "signorini" and bc != gridmod.NEUMANN:
        errors.append("signorini mode needs domain.bc = neumann")
    if mode in ("rate-eps", "rate-mesh", "stefan") and bc != gridmod.DIRICHLET:
        errors.append(f"{mode} mode needs domain.bc = dirichlet")
    if mode == "rate-mesh" and dim != 1:  # the restriction to coarse nodes is 1D
        errors.append("rate-mesh mode needs domain.dim = 1")
    if mode == "stefan" and v["stefan.boundary_temp"] > 0 and dim != 1:
        errors.append("stefan.boundary_temp > 0 needs domain.dim = 1")
    if not errors:  # sizes are computed from values that passed every other rule
        errors += _size_errors(v, n_steps)
    if errors:
        raise ConfigError(errors)

    # the hash covers what the run computes: every effective value but the output dir
    canonical = [f"{key}={value!r}" for key, value in v.items() if key != "output.dir"]
    canonical += [f"noise.mu{k}={''.join(text.split())}" for k, text in mu_texts.items()]
    spec = ProblemSpec(
        dim=dim, lengths=lengths, n=v["domain.n"], bc_kind=bc, T=T, n_steps=n_steps,
        theta=v["time.theta"], coefficients=coeffs, seed=v["noise.seed"], reaction=reaction,
        forcing=forcing, initial=initial, eps=eps_list[0], newton_tol=v["run.newton_tol"],
        newton_max=v["run.newton_max"], mu_cap=v["run.mu_cap"], headroom=v["run.headroom"])
    return RunConfig(
        spec=spec, mode=mode, eps_list=eps_list, n_paths=v["run.n_paths"],
        path_id=v["run.path_id"], workers=v["run.workers"], slack=v["run.slack"],
        mesh_levels=v["run.mesh_levels"], verify_checks=v["verify.checks"],
        rho=v["stefan.rho"], theta0=theta0, boundary_temp=v["stefan.boundary_temp"],
        tol_fb=v["stefan.tol_fb"], out_dir=Path(v["output.dir"]),
        config_sha=hashlib.sha256("\n".join(sorted(canonical)).encode()).hexdigest())


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
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"output.dir = {str(self.out_dir)!r} cannot be made a "
                              f"directory: {exc.strerror}")
        self.comment = f"# config_sha256={config_sha} version={__version__}\n"

    def write(self, name: str, header: list[str], rows) -> Path:
        """rows holds value tuples, one per line, or byte buffers of whole
        lines (bytes, or a 1-D uint8 array)."""
        path = self.out_dir / name
        try:
            with open(path, "wb") as fh:
                fh.write((self.comment + ",".join(header) + "\n").encode())
                for row in rows:
                    fh.write((",".join(map(_fmt, row)) + "\n").encode()
                             if isinstance(row, tuple) else row)
        except OSError as exc:  # a directory in the way, no permission, a full disk
            raise ConfigError(f"output.dir = {str(self.out_dir)!r}: cannot write {name}: "
                              f"{exc.strerror}")
        finally:
            if isinstance(rows, GeneratorType):  # ends a block writer's helper thread
                rows.close()
        return path


# rows per text block of trajectory.csv; a block holds whole time steps
# (at least one), so memory stays flat however long the trajectory is
_BLOCK_ROWS = 8192


def _block_steps(sol: PathSolution) -> int:
    return max(1, _BLOCK_ROWS // sol.grid.n_nodes)


def _trajectory_block(sol: PathSolution, nodes: np.ndarray, n0: int, steps: int) -> np.ndarray:
    """trajectory.csv lines of the time steps n0 to n0 + steps, as one byte
    array, equal to formatting each cell by _fmt.

    "%.17g" % x and format(x, ".17g") print a float alike, and "%d" % j is
    str(j).  `nodes` holds the node columns, formatted once as they repeat.
    The lines are the rows of one NUL-padded byte matrix, in which t, the
    node columns, each of the y, X and eta cells and each separator fill a
    fixed range of columns; one compaction M[M != 0] removes the padding, as
    no CSV text holds a NUL.  The cells are formatted by floatfmt.g17_matrix.
    They repeat (X has the bits of y where mu is 0, eta is mostly 0), so
    each distinct value of the block is formatted once, told apart by bit
    pattern: float equality would merge 0.0 with -0.0 and print "0" where
    "-0" is due.  X and eta are formed here, e^mu times y and times
    beta_eps(y) as PathSolution.X and eta_X form them, so a block holds only
    its own steps of them.  It reads `sol` and nothing else, so two threads
    may format two blocks at once.
    """
    g, nodes_n = sol.grid, sol.grid.n_nodes
    times = text_matrix(["%.17g," % t for t in sol.tg.nodes[n0:n0 + steps].tolist()])
    y = sol.y[n0:n0 + steps]
    e_mu = np.exp(sol.mu[n0:n0 + steps])
    # 1-D, so the inverse is 1-D on every numpy version
    cells = np.concatenate([y.ravel(), (e_mu * y).ravel(),
                            (e_mu * sol.eta[n0:n0 + steps]).ravel()], dtype=np.float64)
    bits, inverse = np.unique(cells.view(np.int64), return_inverse=True)
    text = records(g17_matrix(bits.view(np.float64)))
    fields = [("t", times.shape[1]), ("node", nodes.shape[1])]
    for name in ("y", "X", "eta"):
        fields += [(name, WIDTH), (name + " end", 1)]
    lines = np.empty((len(times), nodes_n), dtype=[(f, f"V{size}") for f, size in fields])
    lines["t"] = records(times)[:, None]
    lines["node"] = records(nodes)
    for i, (name, end) in enumerate(zip(("y", "X", "eta"), b",,\n")):
        cell = inverse[i * lines.size:(i + 1) * lines.size]
        lines[name] = np.take(text, cell).reshape(lines.shape)
        lines[name + " end"] = bytes([end])
    m = lines.view(np.uint8)
    return m[m != 0]


def _trajectory_blocks(sol: PathSolution):
    """trajectory.csv lines in blocks of whole time steps, in file order,
    formatted on two threads.

    A block's numpy passes (the dedupe, g17_matrix, the matrix assembly and
    its compaction) run over 10^4 to 10^6 elements and release the GIL, so
    one helper thread formats the odd blocks while this thread formats the
    even ones and hands each block on in turn.  The helper is at most one
    block ahead: at most two blocks are being formatted while one is
    written, so memory stays flat however long the trajectory is.  A single
    block is formatted here alone.  The helper is shut down when the
    generator ends, is closed or raises; an exception from either thread
    reaches the caller as it was raised.
    """
    g, nodes_n = sol.grid, sol.grid.n_nodes
    xs = g.meshes()
    xi1 = xs[1] if g.dim == 2 else np.zeros(nodes_n)
    nodes = text_matrix(["%d,%.17g,%.17g," % c for c in zip(range(nodes_n), xs[0].tolist(),
                                                            xi1.tolist())])
    steps = _block_steps(sol)
    starts = range(0, len(sol.tg.nodes), steps)
    if len(starts) == 1:
        yield _trajectory_block(sol, nodes, 0, steps)
        return
    helper = ThreadPoolExecutor(1)
    try:
        odd = helper.submit(_trajectory_block, sol, nodes, starts[1], steps)
        for k in range(0, len(starts), 2):
            yield _trajectory_block(sol, nodes, starts[k], steps)
            if k + 1 == len(starts):
                break
            done = odd
            if k + 3 < len(starts):  # the helper starts on its next block at once
                odd = helper.submit(_trajectory_block, sol, nodes, starts[k + 3], steps)
            yield done.result()
            del done  # written: free it before the next block is formatted
    finally:
        helper.shutdown(cancel_futures=True)


def write_summary(writer: CsvWriter, checks):
    """summary.csv from (check_name, value, threshold, passed) rows."""
    writer.write("summary.csv", ["check_name", "value", "threshold", "status"],
                 [(name, value, threshold, "pass" if ok else "fail")
                  for name, value, threshold, ok in checks])


def write_trajectory(writer: CsvWriter, sol: PathSolution):
    writer.write("trajectory.csv", ["t", "node_index", "xi_0", "xi_1", "y", "X", "eta"],
                 _trajectory_blocks(sol))


# ---------------------------------------------------------------------------
# dispatch


def _mode_run(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    spec = cfg.spec
    sol = spec.solve(cfg.path_id)
    write_trajectory(writer, sol)
    rep = solution_complementarity(sol, _block_steps(sol))
    with np.errstate(over="ignore"):  # a norm that overflows is inf, and its energy row fails
        erep = energy_check(sol)
    tol = cfg.slack * spec.eps
    checks = [
        ("min_X", rep.min_X, -tol, rep.min_X >= -tol),
        ("max_eta", rep.max_eta, 1e-12, rep.max_eta <= 1e-12),
        ("pairing_abs", abs(rep.pairing), tol, abs(rep.pairing) <= tol),
        ("energy_ratio", erep.energy_ratio, cfg.slack, erep.energy_ratio <= cfg.slack),
        ("multiplier_ratio", erep.multiplier_ratio, cfg.slack,
         erep.multiplier_ratio <= cfg.slack),
        ("delta", sol.diagnostics.delta, np.inf, True),
        ("stability_margin", sol.diagnostics.stability_margin, 1.0,
         sol.diagnostics.stability_margin <= 1.0),
        ("refine_level", sol.diagnostics.refine_level, spec.headroom, True),
        ("newton_iters_max", int(np.max(sol.diagnostics.newton_iters, initial=0)),
         sol.grid.n_nodes, True),
    ]
    write_summary(writer, checks)
    if not quiet:
        for name, value, threshold, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.6g} (threshold {threshold:.6g})")
    return 0


def _mode_ensemble(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    stats = ensemble_run(cfg.spec, cfg.n_paths, workers=cfg.workers)
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
        for path_id, reason in stats.failures.items():
            print(f"path {path_id} failed: {reason}", file=sys.stderr)
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
    fit = cauchy_rate_study(cfg.spec, cfg.eps_list, path_id=cfg.path_id)
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
    spec = cfg.spec
    ns = [spec.n]
    for _ in range(cfg.mesh_levels):
        ns.append(2 * ns[-1] + 1)
    sols = {n: replace(spec, n=n).solve(cfg.path_id) for n in ns}
    ref = sols[ns[-1]]
    hs, errors = [], []
    for n in ns[:-1]:
        stride = (ns[-1] + 1) // (n + 1)
        restricted = ref.y[-1][stride - 1 :: stride]
        diff = sols[n].y[-1] - restricted
        g = sols[n].grid
        hs.append(g.h[0])
        errors.append(gridmod.norm_l2(g, diff))
    writer.write("rates.csv", ["eps", "error_l2", "slope_running"], _rates_rows(hs, errors))
    if not quiet:
        print(f"rate-mesh: errors {['%.3e' % e for e in errors]}")
    return 0


def _mode_stefan(cfg: RunConfig, writer: CsvWriter, quiet: bool) -> int:
    spec = cfg.spec
    g, tg, cs, scfg = spec.build()
    sd = StefanData(theta0=cfg.theta0.evaluate(g), rho=cfg.rho,
                    heated_boundary_temp=cfg.boundary_temp)
    tol_fb = cfg.tol_fb if cfg.tol_fb > 0 else None
    # sums over the paths in path order, so the means are np.nanmean's and
    # np.mean's over all of them; one block of paths is held at a time
    front_sum, melted, measure_sum = np.zeros(tg.N + 1), np.zeros(tg.N + 1, int), np.zeros(tg.N + 1)
    finals = []
    for _, lo, stop in path_batches(spec, cfg.n_paths):
        paths = spec.sample(range(cfg.path_id + lo, cfg.path_id + stop))
        for sol, fb in solved(solve_stefan_batch(g, tg, cs, sd, scfg, paths, tol_fb)):
            front_sum += np.where(np.isnan(fb.fronts), 0.0, fb.fronts)
            melted += ~np.isnan(fb.fronts)
            measure_sum += fb.melted_measure
            finals.append(fb.fronts[-1])
    with np.errstate(invalid="ignore"):  # no path melted yet: NaN
        mean_front = front_sum / melted  # of one path: its fronts, bit for bit
    mean_measure = measure_sum / cfg.n_paths
    writer.write("front.csv", ["t", "front_position", "melted_measure"],
                 [(t, mean_front[n], mean_measure[n]) for n, t in enumerate(tg.nodes)])
    write_trajectory(writer, sol)  # of the last path
    checks = [("front_max_drop", fb.max_front_drop(), float(g.h[0]),
               fb.max_front_drop() <= g.h[0])]
    if cfg.n_paths > 1:
        finals = np.array(finals)
        finals = finals[~np.isnan(finals)]
        if finals.size:
            fs = FunctionalStats.of(finals)
            stats_rows = [
                ("front_at_T", fs.mean, fs.variance, fs.ci_half_width, int(finals.size),
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
    spec = cfg.spec
    sol = spec.solve(cfg.path_id)
    write_trajectory(writer, sol)
    g = sol.grid
    trace_min = float(sol.y[:, g.boundary_mask].min())
    ratio, ok = boundary_potential_check(sol, slack=cfg.slack)
    # the form at the run's coefficients where |mu| first peaks: stored node k
    # is node k * headroom of the sampled path
    k = int(np.argmax(np.abs(sol.mu).max(axis=1)))
    coeffs = assemble_coeffs(g, spec.build()[2], spec.reaction, spec.forcing,
                             spec.sample([cfg.path_id]), k * spec.headroom, spec.mu_cap)
    rep = probe_form_constants(g, coeffs, spec.eps, seed=spec.seed)
    tol = cfg.slack * spec.eps
    checks = [
        ("boundary_trace_min", trace_min, tol, trace_min >= -tol),
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
    rows = run_checks(cfg.verify_checks, workers=cfg.workers, quiet=quiet)
    write_summary(writer, rows)
    return 0 if all(ok for *_, ok in rows) else 3


def dispatch(cfg: RunConfig, quiet: bool = False) -> int:
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
        writer = CsvWriter(cfg.out_dir, cfg.config_sha)
        try:
            return handlers[cfg.mode](cfg, writer, quiet)
        except NumericalFailure as exc:  # its summary may fail to write, as a ConfigError
            write_summary(writer, [("numerical_failure", 1.0, 0.0, False),
                                   ("message: " + str(exc).replace(",", ";"), 0.0, 0.0, False)])
            if not quiet:
                print(f"FAIL numerical: {exc}", file=sys.stderr)
            return 2
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 1


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

    overrides = {("noise", "seed"): args.seed, ("run", "n_paths"): args.paths,
                 ("output", "dir"): args.out}
    try:
        cfg = parse_config(args.config, {k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 1
    return dispatch(cfg, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
