"""A batch of paths in one march gives every path the bits of its solve
alone: y, eta, mu, Newton counts and residuals by np.array_equal, and a
failing path leaves the batch with the error its own solve raises.  This
holds with one eps per path too, which makes an eps sweep one march."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from svilab import analysis, pathsolver, signorini, verify
from svilab.errors import ConfigError, NumericalFailure, StabilityError
from svilab.grid import DIRICHLET, NEUMANN, build_grid, norm_l2
from svilab.noise import CoeffSpec, TimeGrid, parse_coefficient, sample_paths
from svilab.pathsolver import (
    ForcingSpec,
    ImplicitSolver,
    InitialData,
    ProblemSpec,
    SolveConfig,
    _march,
    direct_em_batch,
    direct_em_solve,
    solve_path,
    solve_path_batch,
)
from svilab.signorini import solve_signorini_batch, solve_signorini_path
from svilab.transform import ReactionSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _solo(solve):
    try:
        return solve()
    except NumericalFailure as exc:
        return exc


def _assert_same(batch, solo):
    assert len(batch) == len(solo)
    for got, want in zip(batch, solo):
        if isinstance(want, NumericalFailure):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert isinstance(got, type(want))
        for key in ("y", "eta", "mu"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
        a, b = got.diagnostics, want.diagnostics
        for key in ("newton_iters", "residuals", "cum_source_sq"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), key
        for key in ("stability_margin", "delta", "refine_level", "mu_sup", "eps"):
            assert getattr(a, key) == getattr(b, key), key


@pytest.mark.parametrize("n", [3, 4, 31])
def test_gtsv_rows_equal_solve_banded(n):
    g = build_grid(1, [1.0], n, DIRICHLET)
    solver = ImplicitSolver(g, 0.7, 1.0)
    rng = np.random.default_rng(n)
    b = rng.normal(size=(6, n))
    extra = np.zeros((6, n))
    extra[1, 0] = 5.0  # rows 1, 3 and 4 carry an active diagonal
    extra[3] = np.where(rng.random(n) < 0.5, 1e3, 0.0)
    extra[4, -1] = 1e-3
    ab = np.zeros((3, n))
    ab[0, 1:] = solver._upper
    ab[2, :-1] = solver._lower
    want = []
    for d, rhs in zip(extra, b):
        ab[1] = solver._main + d
        want.append(solve_banded((1, 1), ab, rhs))
    x, failures = solver.solve(extra, b)
    assert np.array_equal(x, want) and not failures
    for d, rhs, w in zip(extra, b, want):
        x, failures = solver.solve(d[None], rhs[None])
        assert np.array_equal(x[0], w) and not failures


def test_linear_solve_reports_the_rows_that_fail():
    g = build_grid(1, [1.0], 3, DIRICHLET)
    solver = ImplicitSolver(g, 0.7, 1.0)
    b = np.ones((3, 3))
    extra = np.zeros((3, 3))
    extra[1] = -solver._main  # a zero diagonal: singular
    extra[2, 0] = 2.0
    x, failures = solver.solve(extra, b)
    assert list(failures) == [1] and isinstance(failures[1], NumericalFailure)
    for row in (0, 2):
        assert np.array_equal(x[row], solver.solve(extra[row:row + 1], b[row:row + 1])[0][0])


def test_batch_mixes_refine_levels():
    spec = ProblemSpec(
        n=31, T=0.2, n_steps=40, seed=5,
        coefficients=(parse_coefficient("const(1.5) * sin(2)", [1.0]),),
        reaction=ReactionSpec("saturating", 0.5), forcing=ForcingSpec("const", -1.0),
        initial=InitialData("sine", 0.5),
    )
    ids = range(6)
    solo = [spec.solve(pid) for pid in ids]
    assert {s.diagnostics.refine_level for s in solo} >= {0, 1, 2}
    _assert_same(spec.solve_paths(ids), solo)
    # one eps per path: each level's batch takes its own rows of the column
    eps = (1e-2, 1e-3, 1e-4) * 2
    _assert_same(replace(spec, eps=eps).solve_paths(ids),
                 [replace(spec, eps=e).solve(pid) for pid, e in zip(ids, eps)])


def test_2d_batch_with_contact():
    spec = ProblemSpec(
        dim=2, lengths=(1.0, 1.0), n=9, T=0.02, n_steps=20, seed=7,
        coefficients=(parse_coefficient("const(0.5) * sin(1) * cos(1)", [1.0, 1.0]),),
        reaction=ReactionSpec("linear", 0.3), forcing=ForcingSpec("const", -1.0),
        initial=InitialData("cone", 0.3, center=(0.3, 0.3), radius=0.3),
    )
    ids = range(3)
    solo = [spec.solve(pid) for pid in ids]
    assert all(np.any(s.eta < 0) for s in solo)
    _assert_same(spec.solve_paths(ids), solo)


def test_batch_failures_keep_their_solo_messages():
    # mu = 3 W(t): three paths pass the cap; with one Newton iteration a path
    # fails at its first contact, and the others never touch the obstacle
    spec = ProblemSpec(
        n=15, T=0.1, n_steps=20, seed=3,
        coefficients=(parse_coefficient("const(3.0) * const(1.0)", [1.0]),),
        forcing=ForcingSpec("const", -1.0), initial=InitialData("sine", 1.0),
        mu_cap=1.5, newton_max=1,
    )
    ids = range(12)
    solo = [_solo(lambda: spec.solve(pid)) for pid in ids]
    reasons = [str(s) for s in solo if isinstance(s, NumericalFailure)]
    assert sum("beyond the cap 1.5" in r for r in reasons) >= 1
    assert sum("did not converge in 1 iterations" in r for r in reasons) >= 1
    assert len(reasons) < len(solo)
    _assert_same(spec.solve_paths(ids), solo)
    _assert_same(spec.solve_paths(reversed(ids)), solo[::-1])
    # one eps per path: the same paths fail, each with its solo message at its eps
    sweep = tuple(10.0 ** -(2 + pid % 3) for pid in ids)
    mixed = [_solo(lambda: replace(spec, eps=e).solve(pid)) for pid, e in zip(ids, sweep)]
    assert [isinstance(s, NumericalFailure) for s in mixed] == [
        isinstance(s, NumericalFailure) for s in solo]
    _assert_same(replace(spec, eps=sweep).solve_paths(ids), mixed)
    _assert_same(replace(spec, eps=sweep[::-1]).solve_paths(reversed(ids)), mixed[::-1])


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("texts", [("const(3.5) * sin(2)",),
                                   ("const(2.5) * sin(2)", "cos(2.0,2.0) * sin(3)")],
                         ids=["m1", "m2"])
def test_refinement_alone_keeps_the_transport_guard(bc, texts):
    # _pick_refinement admits a level only when an upper bound of
    # dt * sup|g| / h is <= 1, so the exact margin of every step a path
    # marches is <= 1 too, and a path fails only when no level within the
    # retry budget meets the bound
    g = build_grid(1, [1.0], 31, bc)
    tg = TimeGrid(0.2, 40)
    cs = CoeffSpec(tuple(parse_coefficient(t, [1.0]) for t in texts))
    paths = [sample_paths(TimeGrid(0.2, 320), len(texts), seed=5, path_id=pid)
             for pid in range(16)]
    solve = solve_path_batch if bc == DIRICHLET else solve_signorini_batch
    out = solve(g, tg, cs, ReactionSpec(), ForcingSpec("const", -1.0), InitialData("sine", 0.5),
                SolveConfig(dt=tg.dt), paths)
    solved = [o for o in out if not isinstance(o, NumericalFailure)]
    failed = [o for o in out if isinstance(o, NumericalFailure)]
    assert failed and {s.diagnostics.refine_level for s in solved} >= {2, 3}
    assert all(s.diagnostics.stability_margin <= 1.0 for s in solved)
    for exc in failed:
        assert type(exc) is StabilityError
        assert "unreachable within the retry budget" in str(exc)


def test_signorini_batch_of_three():
    g = build_grid(1, [1.0], 31, NEUMANN)
    tg = TimeGrid(0.1, 50)
    args = (g, tg, CoeffSpec((parse_coefficient("const(0.4) * cos(1)", [1.0]),)),
            ReactionSpec("linear", 0.3), ForcingSpec("edge", -2.0, width=0.15),
            InitialData("cutoff", 1.0, radius=0.2), SolveConfig(dt=tg.dt, theta=0.75, eps=1e-3))
    paths = [sample_paths(TimeGrid(0.1, 400), 1, seed=12, path_id=pid) for pid in range(3)]
    solo = [solve_signorini_path(*args, p) for p in paths]
    assert any(np.any(s.eta < 0) for s in solo)  # the boundary constraint is active
    _assert_same(solve_signorini_batch(*args, paths), solo)


def test_em_batch_of_three():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.1, 50)
    args = (g, tg, CoeffSpec((parse_coefficient("cos(0.5,2.0) * sin(1)", [1.0]),)),
            ReactionSpec("linear", 0.3), ForcingSpec("sine", 0.5), InitialData("sine", 1.0),
            SolveConfig(dt=tg.dt, theta=0.75))
    paths = [sample_paths(TimeGrid(0.1, 200), 1, seed=11, path_id=pid) for pid in range(3)]
    _assert_same(direct_em_batch(*args, paths), [direct_em_solve(*args, p) for p in paths])


SWEEP = (1e-2, 1e-3, 1e-4)


@pytest.mark.parametrize("rule", ["interior", "signorini", "em"])
def test_eps_sweep_on_one_path_equals_solo_solves(rule):
    batch, solo_solve, bc, forcing = {
        "interior": (solve_path_batch, solve_path, DIRICHLET, ForcingSpec("const", -1.0)),
        "signorini": (solve_signorini_batch, solve_signorini_path, NEUMANN,
                      ForcingSpec("edge", -2.0, width=0.15)),
        "em": (direct_em_batch, direct_em_solve, DIRICHLET, ForcingSpec("const", -1.0)),
    }[rule]
    g = build_grid(1, [1.0], 31, bc)
    tg = TimeGrid(0.1, 50)
    args = (g, tg, CoeffSpec((parse_coefficient("const(0.4) * cos(1)", [1.0]),)),
            ReactionSpec("linear", 0.3), forcing, InitialData("cutoff", 1.0, radius=0.2))
    cfg = SolveConfig(dt=tg.dt, theta=0.75)
    path = sample_paths(TimeGrid(0.1, 400), 1, seed=12)
    solo = [solo_solve(*args, replace(cfg, eps=eps), path) for eps in SWEEP]
    assert all(np.any(s.eta < 0) for s in solo)  # in contact at every eps
    _assert_same(batch(*args, replace(cfg, eps=SWEEP), [path] * len(SWEEP)), solo)


def test_eps_needs_one_value_per_path():
    spec = ProblemSpec(n=15, T=0.01, n_steps=10)
    for eps in ((1e-3, 1e-4), (1e-3,) * 4, (1e-3,)):
        with pytest.raises(ConfigError, match="eps holds"):
            replace(spec, eps=eps).solve_paths(range(3))


def test_each_eps_sweep_is_one_march(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[6].eps)  # the SolveConfig
        return _march(*args, **kwargs)

    monkeypatch.setattr(pathsolver, "_march", counted)
    monkeypatch.setattr(signorini, "_march", counted)
    assert all(ok for *_, ok in verify.check_cauchy_rate())
    (eps,) = calls  # the reference at eps_min / 4 first, then the sweep
    assert eps == (1.5625e-3 / 4, 1e-1, 2.5e-2, 6.25e-3, 1.5625e-3)
    calls.clear()
    assert all(ok for *_, ok in verify.check_complementarity())
    assert calls == [verify.EPS_SWEEP] * 2  # one march for each of its two problems
    calls.clear()
    assert all(ok for *_, ok in verify.check_signorini())
    assert calls == [verify.EPS_SWEEP, 1e-3]  # the trace sweep, then the mass run


def _solo_gaps(spec, pid):
    """A path's consistency gaps from four solo solves on its master path:
    transform, then EM, at n_steps and at 2 n_steps."""
    master = spec.sample(pid)
    gaps = []
    for n_steps in (spec.n_steps, 2 * spec.n_steps):
        g, tg, cs, cfg = replace(spec, n_steps=n_steps).build()
        args = (g, tg, cs, spec.reaction, spec.forcing, spec.initial, cfg, master)
        tr = solve_path(*args)
        em = direct_em_solve(*args)
        gaps.append(norm_l2(g, em.X[-1] - tr.X[-1]))
    return pid, gaps[0], gaps[1]


def test_consistency_worker_gaps_equal_solo_solves():
    spec = ProblemSpec(
        n=31, T=0.2, n_steps=40, seed=5,
        coefficients=(parse_coefficient("const(1.5) * sin(2)", [1.0]),),
        reaction=ReactionSpec("saturating", 0.5), initial=InitialData("sine", 1.0),
    )
    solo = [_solo_gaps(spec, pid) for pid in range(7)]
    levels = {spec.solve(pid).diagnostics.refine_level for pid in range(7)}
    assert levels >= {0, 1, 2}  # the transform marches mix halving levels
    split = verify._consistency_worker((spec, 0, 3)) + verify._consistency_worker((spec, 3, 7))
    assert split == solo
    assert verify._consistency_worker((spec, 0, 7)) == solo


def test_transform_consistency_rows_do_not_depend_on_workers():
    one = verify.check_transform_consistency(workers=1)
    assert all(passed for *_, passed in one)
    # the values of four solo solves per path, each on the path's master path
    assert (one[0][1], one[2][1]) == (1.7671980670322074, 0.96)
    assert repr(verify.check_transform_consistency(workers=2)) == repr(one)


@pytest.mark.parametrize("check", [verify.check_stefan, verify.check_noise_stats])
def test_fanned_out_check_rows_do_not_depend_on_workers(check):
    one = check(workers=1)
    assert all(passed for *_, passed in one)
    assert repr(check(workers=2)) == repr(one)
    assert repr(check(workers=3)) == repr(one)


def test_consistency_worker_raises_the_solo_loops_first_failure():
    # the check's spec with mu = 0.3 W(t) sin(2 pi x) capped at 0.11: path 26
    # peaks at 0.104 on the n_steps grid and at 0.114 on the finer one, so it
    # fails only at 2 n_steps, while paths 27-31 fail already at n_steps and
    # path 32 passes
    spec = ProblemSpec(
        n=63, T=0.25, n_steps=125,
        coefficients=(parse_coefficient("const(0.3) * sin(2)", [1.0]),), seed=4444,
        initial=InitialData("sine", 1.0), headroom=8, mu_cap=0.11,
    )
    ids = range(26, 33)
    with pytest.raises(NumericalFailure) as solo:
        for pid in ids:
            _solo_gaps(spec, pid)
    with pytest.raises(NumericalFailure) as batched:
        verify._consistency_worker((spec, ids.start, ids.stop))
    assert str(batched.value) == str(solo.value)
    first_march = spec.solve_paths(ids)  # the transform route at n_steps
    assert not isinstance(first_march[0], NumericalFailure)
    assert all(isinstance(out, NumericalFailure) for out in first_march[1:-1])
    assert str(first_march[1]) != str(solo.value)
    _solo_gaps(spec, ids[-1])


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_ensemble_counts_every_newton_iteration():
    # the benchmark's tracer reads the iteration sum from Newton's second item
    spec = ProblemSpec(
        n=15, T=0.05, n_steps=25, seed=9,
        coefficients=(parse_coefficient("const(0.5) * sin(1)", [1.0]),),
        forcing=ForcingSpec("const", -4.0), initial=InitialData("sine", 0.2),
    )
    tracer = _load_spans().Tracer()
    with tracer:
        stats = analysis.ensemble_run(spec, 4, workers=1)
    assert stats.n_paths == 4
    iters = sum(int(spec.solve(pid).diagnostics.newton_iters.sum()) for pid in range(4))
    assert iters > 25 * 4  # contact takes extra iterations
    assert tracer.counts["pathsolver.newton_iters"] == iters
