import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from svilab import analysis
from svilab.analysis import (
    FunctionalStats,
    RateFit,
    _ratio,
    _step_norms,
    cauchy_rate_study,
    complementarity_report,
    energy_check,
    ensemble_run,
    fit_rate,
    map_paths,
    path_batches,
    path_functionals,
    solution_complementarity,
)
from svilab.errors import NumericalFailure
from svilab.grid import (
    DIRICHLET,
    NEUMANN,
    apply_laplacian,
    build_grid,
    inner,
    seminorm_h1,
)
from svilab.noise import CoeffSpec, TimeGrid, parse_coefficient, sample_paths
from svilab.pathsolver import (
    ForcingSpec,
    InitialData,
    PathSolution,
    ProblemSpec,
    SolveConfig,
    solve_path,
)
from svilab.penalty import beta_eps
from svilab.transform import ReactionSpec
from svilab.verify import run_checks

EMPTY = CoeffSpec(())


def pinned_solution(eps=1e-3, n=63, nt=300, T=0.3):
    g = build_grid(1, [1.0], n, DIRICHLET)
    tg = TimeGrid(T, nt)
    cfg = SolveConfig(dt=tg.dt, eps=eps)
    paths = sample_paths(tg, 0, seed=0)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec("const", -1.0),
                     InitialData("sine", 0.0), cfg, paths)
    return g, tg, sol


def test_complementarity_zero_solution():
    g = build_grid(1, [1.0], 15, DIRICHLET)
    tg = TimeGrid(0.1, 10)
    Z = np.zeros((11, g.n_nodes))
    rep = complementarity_report(Z, Z, g, tg)
    assert rep.min_X == 0.0 and rep.max_eta == 0.0 and rep.pairing == 0.0


def test_complementarity_positive_run_pairs_exactly():
    g = build_grid(1, [1.0], 63, DIRICHLET)
    tg = TimeGrid(0.1, 100)
    cfg = SolveConfig(dt=tg.dt)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 1.0), cfg, sample_paths(tg, 0, seed=0))
    rep = complementarity_report(sol.X, sol.eta_X, g, tg)
    assert rep.pairing == 0.0  # beta_eps vanishes wherever y > 0
    assert rep.max_eta == 0.0
    assert rep.min_X >= 0.0


@pytest.mark.parametrize("steps", [1, 7, 100, 301, 1000])
def test_solution_complementarity_by_blocks_has_the_bits_of_the_whole_run(steps):
    g, tg, sol = pinned_solution()
    assert sol.eta.min() < 0 and not sol.mu.any()  # contact, and X has the bits of y
    mu = np.random.default_rng(3).standard_normal(sol.y.shape)
    y = sol.y.copy()
    y[5, 3], y[200, 0] = np.nan, -np.inf  # min_X propagates NaN as X.min() does
    for sol in (sol, PathSolution(g, tg, sol.y, sol.eta, mu, None),
                PathSolution(g, tg, y, sol.eta, mu, None)):
        whole = complementarity_report(sol.X, sol.eta_X, g, tg)
        blocks = solution_complementarity(sol, steps)
        assert np.array([*vars(blocks).values()]).tobytes() == \
            np.array([*vars(whole).values()]).tobytes(), (blocks, whole)


def test_complementarity_pinned_eps_sweep():
    # min X ~ -eps, |pairing| ~ C eps across the sweep
    ratios_min, ratios_pair, ratios_viol = [], [], []
    for eps in (1e-2, 1e-3, 1e-4):
        g, tg, sol = pinned_solution(eps=eps)
        rep = complementarity_report(sol.X, sol.eta_X, g, tg)
        assert rep.max_eta <= 1e-12
        ratios_min.append(-rep.min_X / eps)
        ratios_pair.append(abs(rep.pairing) / eps)
        # violation mass int int min(y,0)^2 tracks eps^2
        viol = sum(
            tg.dt * np.sum(g.weights * np.minimum(sol.y[n], 0.0) ** 2)
            for n in range(tg.N)
        )
        ratios_viol.append(viol / eps**2)
    # stable linear scaling: the fitted C from the coarsest eps covers all
    for ratios in (ratios_min, ratios_pair, ratios_viol):
        C = max(ratios)
        assert C < np.inf and C <= 3.0 * max(ratios[0], 1e-12)


def test_energy_check_zero_run():
    g, tg, _ = pinned_solution()
    cfg = SolveConfig(dt=tg.dt)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(),
                     InitialData("sine", 0.0), cfg, sample_paths(tg, 0, seed=0))
    rep = energy_check(sol)
    assert rep.energy_ratio == 0.0
    assert rep.energy_ratio <= 10.0 and rep.multiplier_ratio <= 10.0


def test_energy_check_heat_identity():
    # pure diffusion: discrete energy identity gives ratio <= 1 + 10 dt
    g = build_grid(1, [1.0], 127, DIRICHLET)
    tg = TimeGrid(0.1, 500)
    cfg = SolveConfig(dt=tg.dt, theta=1.0)
    x = InitialData("sine", 1.0)
    sol = solve_path(g, tg, EMPTY, ReactionSpec(), ForcingSpec(), x, cfg,
                     sample_paths(tg, 0, seed=0))
    rep = energy_check(sol)
    assert rep.energy_ratio <= 1.0 + 10.0 * tg.dt
    assert rep.multiplier_ratio <= 10.0
    assert rep.energy_ratio <= 10.0 and rep.multiplier_ratio <= 10.0


def test_energy_check_noisy_paths():
    spec = ProblemSpec(
        n=63, T=0.25, n_steps=250,
        coefficients=(parse_coefficient("const(0.5) * sin(1)", [1.0]),),
        seed=101, initial=InitialData("sine", 1.0),
    )
    for pid in range(5):
        sol = spec.solve(pid)
        rep = energy_check(sol)
        assert rep.energy_ratio <= 10.0 and rep.multiplier_ratio <= 10.0


def test_fit_rate_and_validation():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    errors = 3.0 * eps**0.75
    fit = fit_rate(eps, errors)
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert fit.fit_residual == pytest.approx(0.0, abs=1e-12)
    degenerate = fit_rate(eps, np.zeros(4))
    assert degenerate.degenerate
    with pytest.raises(ValueError):
        RateFit(np.array([1e-3, 1e-2]), np.array([1.0, 2.0]), 1.0, 0.0, 0.0)


def test_fit_rate_with_some_zero_errors_is_a_numerical_failure():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    with pytest.raises(NumericalFailure) as exc:
        fit_rate(eps, np.array([3e-2, 1e-3, 0.0, 0.0]))
    assert "is 0 at eps 0.001, 0.0001 but not at every eps" in str(exc.value)


def test_cauchy_rate_pinned_deterministic():
    # the pinned contact set gives e(eps) ~ eps: slope near 1, passes 0.45
    spec = ProblemSpec(
        n=63, T=0.3, n_steps=300, coefficients=(), seed=0,
        forcing=ForcingSpec("const", -1.0), initial=InitialData("sine", 0.0),
    )
    fit = cauchy_rate_study(spec, [1e-1, 1e-1 / 4, 1e-1 / 16, 1e-1 / 64])
    assert not fit.degenerate
    assert fit.slope >= 0.45
    assert fit.slope == pytest.approx(1.0, abs=0.15)


def test_cauchy_rate_obstacle_inactive_degenerate():
    spec = ProblemSpec(
        n=31, T=0.05, n_steps=50, coefficients=(), seed=0,
        initial=InitialData("sine", 1.0),
    )
    fit = cauchy_rate_study(spec, [1e-1, 1e-2, 1e-3, 1e-4])
    assert fit.degenerate


def test_ensemble_deterministic_problem_zero_variance():
    spec = ProblemSpec(n=31, T=0.05, n_steps=50, coefficients=(), seed=0,
                       initial=InitialData("sine", 1.0))
    stats = ensemble_run(spec, n_paths=8)
    assert stats.n_failures == 0
    for name, fs in stats.stats.items():
        assert fs.variance == pytest.approx(0.0, abs=1e-25), name
    assert stats.passed


def test_ensemble_statistics_and_reduction_order(monkeypatch):
    spec = ProblemSpec(
        n=31, T=0.1, n_steps=100,
        coefficients=(parse_coefficient("const(0.6) * sin(1)", [1.0]),),
        seed=77, initial=InitialData("sine", 1.0),
    )
    a = ensemble_run(spec, n_paths=12, workers=1)
    b = ensemble_run(spec, n_paths=12, workers=2)
    for name in a.stats:
        assert a.stats[name].mean == b.stats[name].mean, name
    # the batch split of the path ids changes nothing either
    assert [job[1:] for job in path_batches(spec, 12, 1)] == [(0, 12)]
    assert [job[1:] for job in path_batches(spec, 12, 2)] == [(0, 6), (6, 12)]
    splits = []
    for size in (5, 1):
        monkeypatch.setattr(analysis, "BATCH_VALUES", size * (spec.n_steps + 1) * spec.n)
        assert path_batches(spec, 12, 1)[0][1:] == (0, size)
        splits.append(ensemble_run(spec, n_paths=12, workers=1))
    for other in [b] + splits:
        assert other.n_paths == a.n_paths and other.failures == a.failures
        for name in a.stats:
            assert other.stats[name] == a.stats[name], name
    assert a.stats["delta_sq"].mean > 0
    assert "sup_y_l2_sq" in a.empirical_C
    assert a.stats["sup_y_l2_sq"].ci_half_width == pytest.approx(
        1.96 * np.sqrt(a.stats["sup_y_l2_sq"].variance / 12)
    )


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and its
    shutdown, runs inline."""

    sizes = []
    closed = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.sizes.append(max_workers)

    def shutdown(self):
        self.closed.append(self.max_workers)

    def map(self, fn, jobs):
        return map(fn, jobs)


def _echo(job):
    return [(job, -job)]


def _pid(job):
    return [(job, os.getpid())]


def _exit_on_one(job):
    if job == 1:
        os._exit(1)
    return [(job, job)]


@pytest.mark.usefixtures("fresh_pool")
@pytest.mark.parametrize("calls, sizes", [
    pytest.param([(64, 4)], [4], id="64-4-4"),  # (workers, jobs) of one call
    pytest.param([(2, 4)], [2], id="2-4-2"),
    pytest.param([(3, 2)], [2], id="3-2-2"),
    pytest.param([(64, 1)], [], id="64-1-None"),
    pytest.param([(1, 4)], [], id="1-4-None"),
    pytest.param([(8, 0)], [], id="8-0-None"),
    # configs/verify.cfg's sizes at 4 workers: one fork for 2, one for 4
    pytest.param([(4, 2), (4, 4), (4, 4), (4, 3), (4, 3), (4, 4), (4, 4), (4, 4)], [2, 4],
                 id="verify-cfg"),
    pytest.param([(64, 4), (64, 1), (64, 2), (4, 4)], [4], id="inline-keeps-pool"),
    pytest.param([(2, 4), (2, 4), (8, 2)], [2], id="reused"),
    pytest.param([(64, 4), (3, 2)], [4, 2], id="more-than-workers"),
    pytest.param([(3, 2), (64, 4)], [2, 4], id="fewer-than-size"),
])
def test_map_paths_forks_no_idle_workers(monkeypatch, calls, sizes):
    # a fork pool starts all max_workers processes at its first job, and the
    # process keeps one pool while it has from size to workers of them
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "closed", [])
    for workers, n_jobs in calls:
        jobs = iter(range(n_jobs - 1, -1, -1))  # any iterable, results in job order
        assert map_paths(_echo, jobs, workers) == [(j, -j) for j in reversed(range(n_jobs))]
    assert _InlinePool.sizes == sizes
    assert _InlinePool.closed == sizes[:-1]  # each replaced pool is shut down


@pytest.mark.usefixtures("fresh_pool")
def test_pooled_calls_share_their_workers():
    first = map_paths(_pid, range(4), 2)
    workers = {p.pid for p in multiprocessing.active_children()}
    second = map_paths(_pid, range(4), 2)
    assert len(workers) == 2 and os.getpid() not in workers
    assert {pid for _, pid in first + second} <= workers  # one fork for both calls
    assert {p.pid for p in multiprocessing.active_children()} == workers


@pytest.mark.usefixtures("fresh_pool")
def test_a_dead_worker_breaks_only_its_call():
    with pytest.raises(BrokenProcessPool):
        map_paths(_exit_on_one, range(3), 2)
    assert map_paths(_echo, range(5), 2) == [(j, -j) for j in range(5)]


def test_pool_workers_exit_with_the_interpreter():
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import multiprocessing\n"
            "from svilab.analysis import ensemble_run\n"
            "from svilab.pathsolver import ProblemSpec\n"
            "stats = ensemble_run(ProblemSpec(n=15, T=0.05, n_steps=20), 4, workers=2)\n"
            "assert stats.n_paths == 4\n"
            "print(*(p.pid for p in multiprocessing.active_children()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.usefixtures("fresh_pool")
def test_a_verify_pass_forks_one_pool(monkeypatch):
    # signorini and stefan each fan three parts out to two workers
    built = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", Counted)
    rows = run_checks(("signorini", "stefan"), workers=2, quiet=True)
    assert all(passed for *_, passed in rows)
    assert built == [2]


def test_ensemble_ci_scaling():
    # quadrupling the path count halves the CI half-width within 25%
    spec = ProblemSpec(
        n=15, T=0.1, n_steps=50,
        coefficients=(parse_coefficient("const(1.0) * const(1.0)", [1.0]),),
        seed=5, initial=InitialData("sine", 1.0),
    )
    small = ensemble_run(spec, n_paths=64)
    large = ensemble_run(spec, n_paths=256)
    hw_s = small.stats["delta_sq"].ci_half_width
    hw_l = large.stats["delta_sq"].ci_half_width
    assert 2.0 * 0.75 <= hw_s / hw_l <= 2.0 * 1.25


@pytest.mark.parametrize("forcing", [ForcingSpec(), ForcingSpec("const", -1.0)],
                         ids=["zero", "const"])
def test_ensemble_keeps_the_reason_each_path_failed(forcing):
    # mu = W(t), so the paths whose |W| passes the cap fail and the others do
    # not; the source e^-mu f must not check the cap before the march does
    spec = ProblemSpec(
        n=15, T=0.1, n_steps=20,
        coefficients=(parse_coefficient("const(1.0) * const(1.0)", [1.0]),),
        seed=3, forcing=forcing, initial=InitialData("sine", 1.0), mu_cap=0.25,
    )
    failed = []
    for pid in range(10):
        try:
            spec.solve(pid)
        except NumericalFailure:
            failed.append(pid)
    assert 0 < len(failed) < 10
    stats = ensemble_run(spec, n_paths=10, workers=2)
    assert sorted(stats.failures) == failed
    assert stats.n_failures == len(failed) and stats.n_paths == 10 - len(failed)
    assert all("beyond the cap 0.25" in reason for reason in stats.failures.values())


def _ratio_loop(num, den):
    """The per-entry loop _ratio replaces, kept as its reference."""
    out = 0.0
    for a, b in zip(num, den):
        if a <= 1e-300:
            continue
        if b <= 0.0:
            return np.inf
        out = max(out, a / b)
    return out


def test_ratio_matches_the_loop_on_special_values():
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-300, 2e-300, -1.0,
                     1e-310, 1.0, 3.5, 1e300, 1e-20])
    rng = np.random.default_rng(17)
    results = set()
    with np.errstate(all="ignore"):
        for size in [0, 1, 2, 3, 5, 8, 13] * 300:
            num = rng.choice(pool, size) * rng.choice([1.0, 0.7], size)
            den = rng.choice(pool, size) * rng.choice([1.0, 1.3], size)
            if rng.random() < 0.5:  # mostly positive denominators, so ratios get through
                den = np.abs(den) + rng.choice([0.0, 0.5], size)
            want, got = _ratio_loop(num, den), _ratio(num, den)
            assert type(got) is float and not np.isnan(got)
            assert got == want and np.signbit(got) == np.signbit(want), (num, den, got, want)
            results.add("inf" if got == np.inf else "zero" if got == 0.0 else "finite")
    assert results == {"inf", "zero", "finite"}


def test_ensemble_input_validation():
    spec = ProblemSpec(n=15, T=0.05, n_steps=10)
    with pytest.raises(ValueError):
        ensemble_run(spec, n_paths=1)


@pytest.mark.parametrize("size", [1, 2, 2500, 10_000])
def test_functional_stats_equal_the_formulas_they_replace(size):
    def bits(x):
        return np.float64(x).tobytes()

    sample = np.random.default_rng(size).lognormal(sigma=0.7, size=size)
    got = FunctionalStats.of(sample)
    # ensemble_run's: a list of per-path values
    data = np.array(list(sample))
    var = float(data.var(ddof=1)) if size > 1 else 0.0
    want = (float(data.mean()), var, 1.96 * np.sqrt(var / size))
    assert [bits(v) for v in (got.mean, got.variance, got.ci_half_width)] == [
        bits(v) for v in want]
    # the stefan mode's front_at_T row
    var = float(sample.var(ddof=1)) if sample.size > 1 else 0.0
    want = (float(sample.mean()), var, float(1.96 * np.sqrt(var / sample.size)))
    assert [bits(v) for v in (got.mean, got.variance, got.ci_half_width)] == [
        bits(v) for v in want]
    # criterion 8's half-width, defined from two values on
    if size > 1:
        assert bits(got.ci_half_width) == bits(1.96 * np.sqrt(sample.var(ddof=1) / sample.size))
    assert type(got.mean) is type(got.variance) is type(got.ci_half_width) is float


def test_path_functionals_keys():
    g, tg, sol = pinned_solution(nt=50, T=0.05)
    vals = path_functionals(sol)
    assert set(vals) == {
        "sup_y_l2_sq", "int_h1_sq", "int_beta_sq", "int_lap_sq", "delta_sq",
        "int_dydt_l2", "int_dydt_l2_sq", "energy_ratio", "multiplier_ratio",
    }
    assert vals["int_beta_sq"] > 0


@pytest.mark.parametrize("dim, bc", [(1, DIRICHLET), (2, DIRICHLET), (1, NEUMANN), (2, NEUMANN)])
def test_step_norms_match_per_row_operators(dim, bc):
    g = build_grid(dim, [1.0, 1.5][:dim], 13, bc)
    tg = TimeGrid(0.1, 6)
    y = np.random.default_rng(11).normal(size=(tg.N + 1, g.n_nodes))
    sol = PathSolution(grid=g, tg=tg, y=y, eta=beta_eps(y, 1e-2), mu=np.zeros_like(y),
                       diagnostics=None)
    expected = np.array([
        [inner(g, row, row) for row in sol.y],
        [seminorm_h1(g, row) ** 2 for row in sol.y],
        [inner(g, row, row) for row in sol.eta],
        [inner(g, lap, lap) for lap in (apply_laplacian(g, row) for row in sol.y)],
    ])
    got = np.array(_step_norms(sol))
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
