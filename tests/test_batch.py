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

from svilab import analysis, noise, pathsolver, signorini, verify
from svilab.errors import ConfigError, NumericalFailure, StabilityError
from svilab.grid import DIRICHLET, NEUMANN, build_grid, norm_l2
from svilab.noise import (
    BrownianPathSet,
    CoeffSpec,
    PathStack,
    TimeGrid,
    parse_coefficient,
    sample_block,
    sample_paths,
)
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


def test_2d_batch_with_contact(cg_stops):
    # rows whose CG ends once their next active set is certain keep their solo bits
    spec = ProblemSpec(
        dim=2, lengths=(1.0, 1.0), n=9, T=0.02, n_steps=20, seed=7,
        coefficients=(parse_coefficient("const(0.5) * sin(1) * cos(1)", [1.0, 1.0]),),
        reaction=ReactionSpec("linear", 0.3), forcing=ForcingSpec("const", -1.0),
        initial=InitialData("cone", 0.3, center=(0.3, 0.3), radius=0.3),
    )
    ids = range(3)
    solo = [spec.solve(pid) for pid in ids]
    assert all(np.any(s.eta < 0) for s in solo)
    solo_stops = sum(cg_stops)
    _assert_same(spec.solve_paths(ids), solo)
    assert solo_stops >= 1 and sum(cg_stops) == 2 * solo_stops


def _contact_2d_spec(**kw):
    return ProblemSpec(
        dim=2, lengths=(1.0, 1.0), n=9, forcing=ForcingSpec("const", -0.4),
        initial=InitialData("cone", 1.0, center=(0.5, 0.5), radius=0.45), eps=1e-4, **kw)


def test_2d_batch_mixes_refine_levels():
    # each level's batch starts its Newton solves without a previous state,
    # as each path's solve alone does, whatever level, of whatever size,
    # marched before it
    spec = _contact_2d_spec(
        T=0.2, n_steps=20, seed=5,
        coefficients=(parse_coefficient("const(4.0) * sin(1) * sin(1)", [1.0, 1.0]),))
    ids = range(4)
    solo = [spec.solve(pid) for pid in ids]
    assert [s.diagnostics.refine_level for s in solo] == [2, 1, 0, 0]
    assert all(np.any(s.eta < 0) for s in solo)
    _assert_same(spec.solve_paths(ids), solo)
    _assert_same(spec.solve_paths(reversed(ids)), solo[::-1])


def test_2d_paths_that_fail_inside_a_coefficient_block_leave_the_stack():
    # mu = W(t) sin(pi x) sin(pi y) capped at 0.5: of paths 0-4 (seed 5),
    # paths 0 and 2 pass the cap inside a block of run-grid rows, away from
    # its seams, path 0 while others are in partial contact; their previous
    # states leave the batch with them, so the next steps start where the
    # other paths' solves alone start
    spec = _contact_2d_spec(
        T=0.25, n_steps=100, seed=5, mu_cap=0.5,
        coefficients=(parse_coefficient("const(1.0) * sin(1) * sin(1)", [1.0, 1.0]),))
    ids = range(5)
    block_rows = pathsolver.BLOCK_VALUES // (len(ids) * spec.n**2)
    over = np.abs(spec.sample(ids).values[:, 0, ::spec.headroom]) > spec.mu_cap
    first_over = [int(row.argmax()) if row.any() else None for row in over]
    assert first_over[1] is first_over[3] is first_over[4] is None
    assert 0 < first_over[0] % block_rows < block_rows - 1
    assert 0 < first_over[2] % block_rows < block_rows - 1
    assert first_over[0] // block_rows < first_over[2] // block_rows
    solo = [_solo(lambda: spec.solve(pid)) for pid in ids]
    assert [isinstance(s, NumericalFailure) for s in solo] == [True, False, True, False, False]
    in_contact = [(s.y[first_over[0]] < 0).sum() for s in solo[1::2] + solo[4:]]
    assert any(0 < nodes < spec.n**2 for nodes in in_contact)
    _assert_same(spec.solve_paths(ids), solo)


def test_a_failed_linear_solve_ends_only_its_path(monkeypatch):
    # a row whose linear solve fails leaves Newton with that error, not a
    # NewtonError, and leaves the batch; the other rows keep their solo bits
    spec = ProblemSpec(
        dim=2, lengths=(1.0, 1.0), n=9, T=0.02, n_steps=20, seed=7,
        coefficients=(parse_coefficient("const(0.5) * sin(1) * cos(1)", [1.0, 1.0]),),
        reaction=ReactionSpec("linear", 0.3), forcing=ForcingSpec("const", -1.0),
        initial=InitialData("cone", 0.3, center=(0.3, 0.3), radius=0.3),
    )
    ids = range(3)
    solo = [spec.solve(pid) for pid in ids]
    err = NumericalFailure("injected linear-solve failure")
    full_stacks = []
    solve = ImplicitSolver.solve

    def failing(self, extra_diag, b, x0=None, active=None):
        x, failures = solve(self, extra_diag, b, x0, active)
        if len(b) == len(ids):  # every path live and unaccepted: row j is path j
            full_stacks.append(None)
            if len(full_stacks) == 7:  # a Newton iteration a few steps into the march
                failures[1] = err
        return x, failures

    monkeypatch.setattr(ImplicitSolver, "solve", failing)
    out = spec.solve_paths(ids)
    assert len(full_stacks) == 7  # path 1 left the stack at the failure
    assert out[1] is err
    _assert_same([out[0], out[2]], [solo[0], solo[2]])


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


def test_paths_that_fail_inside_a_coefficient_block_leave_the_stack():
    # mu = W(t) capped at 0.5: of paths 1, 2, 3, 5 and 6 (seed 6), paths 2
    # and 5 pass the cap inside a block of run-grid rows, away from its
    # seams; the blocks after each failure are read from the path stack
    # without that path, and the other three keep their solo bits
    spec = ProblemSpec(
        n=63, T=0.25, n_steps=250, seed=6,
        coefficients=(parse_coefficient("const(1.0) * const(1.0)", [1.0]),),
        forcing=ForcingSpec("const", -1.0), initial=InitialData("sine", 1.0), mu_cap=0.5,
    )
    ids = [1, 2, 3, 5, 6]
    block_rows = pathsolver.BLOCK_VALUES // (len(ids) * spec.n)
    over = np.abs(spec.sample(ids).values[:, 0, ::spec.headroom]) > spec.mu_cap
    first_over = {pid: int(row.argmax()) if row.any() else None for pid, row in zip(ids, over)}
    assert first_over[1] is first_over[3] is first_over[6] is None
    assert 0 < first_over[2] % block_rows < block_rows - 1
    assert 0 < first_over[5] % block_rows < block_rows - 1
    assert first_over[2] // block_rows < first_over[5] // block_rows < spec.n_steps // block_rows
    solo = [_solo(lambda: spec.solve(pid)) for pid in ids]
    assert [isinstance(s, NumericalFailure) for s in solo] == [False, True, False, True, False]
    _assert_same(spec.solve_paths(ids), solo)


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
    paths = sample_block(TimeGrid(0.2, 320), len(texts), 5, range(16))
    quiet = paths.values[5] / 100  # one quiet path: level 0
    paths = replace(paths, values=np.insert(paths.values, 5, quiet, axis=0))
    batch, solo = ((solve_path_batch, solve_path) if bc == DIRICHLET
                   else (solve_signorini_batch, solve_signorini_path))
    args = (g, tg, cs, ReactionSpec(), ForcingSpec("const", -1.0), InitialData("sine", 0.5),
            SolveConfig(dt=tg.dt))
    out = batch(*args, paths)
    solved = [o for o in out if not isinstance(o, NumericalFailure)]
    failed = [o for o in out if isinstance(o, NumericalFailure)]
    assert failed and {s.diagnostics.refine_level for s in solved} >= {0, 2, 3}
    assert all(s.diagnostics.stability_margin <= 1.0 for s in solved)
    for exc in failed:
        assert type(exc) is StabilityError
        assert "unreachable within the retry budget" in str(exc)
    # every path, its level, margins and its own error's best margin included,
    # is the path of its solve alone
    _assert_same(out, [_solo(lambda: solo(*args, BrownianPathSet(paths.tg, 5, 0, v)))
                       for v in paths.values])


def test_signorini_batch_of_three():
    g = build_grid(1, [1.0], 31, NEUMANN)
    tg = TimeGrid(0.1, 50)
    args = (g, tg, CoeffSpec((parse_coefficient("const(0.4) * cos(1)", [1.0]),)),
            ReactionSpec("linear", 0.3), ForcingSpec("edge", -2.0, width=0.15),
            InitialData("cutoff", 1.0, radius=0.2), SolveConfig(dt=tg.dt, theta=0.75, eps=1e-3))
    solo = [solve_signorini_path(*args, sample_paths(TimeGrid(0.1, 400), 1, 12, pid))
            for pid in range(3)]
    assert any(np.any(s.eta < 0) for s in solo)  # the boundary constraint is active
    _assert_same(solve_signorini_batch(*args, sample_block(TimeGrid(0.1, 400), 1, 12, range(3))),
                 solo)


def test_em_batch_of_three():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.1, 50)
    args = (g, tg, CoeffSpec((parse_coefficient("cos(0.5,2.0) * sin(1)", [1.0]),)),
            ReactionSpec("linear", 0.3), ForcingSpec("sine", 0.5), InitialData("sine", 1.0),
            SolveConfig(dt=tg.dt, theta=0.75))
    solo = [direct_em_solve(*args, sample_paths(TimeGrid(0.1, 200), 1, 11, pid))
            for pid in range(3)]
    _assert_same(direct_em_batch(*args, sample_block(TimeGrid(0.1, 200), 1, 11, range(3))), solo)


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
    copies = sample_block(path.tg, 1, 12, [0] * len(SWEEP))
    _assert_same(batch(*args, replace(cfg, eps=SWEEP), copies), solo)


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
    master = sample_paths(TimeGrid(spec.T, spec.n_steps * spec.headroom),
                          len(spec.coefficients), spec.seed, pid)
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


def test_batches_sample_one_block(monkeypatch):
    # solve_paths and the consistency jobs draw their paths as one
    # sample_block stack, with the bits of the solo solves' path sets
    spec = ProblemSpec(
        n=31, T=0.2, n_steps=40, seed=5,
        coefficients=(parse_coefficient("const(1.5) * sin(2)", [1.0]),),
        reaction=ReactionSpec("saturating", 0.5), initial=InitialData("sine", 1.0),
    )
    solo = [spec.solve(pid) for pid in range(5)]
    gaps = [_solo_gaps(spec, pid) for pid in range(5)]

    def raising(*args, **kwargs):
        raise AssertionError("a batch drew a path through sample_paths")

    monkeypatch.setattr(noise, "sample_paths", raising)
    monkeypatch.setattr(verify, "sample_paths", raising)
    _assert_same(spec.solve_paths(range(5)), solo)
    assert verify._consistency_worker((spec, 0, 5)) == gaps
    assert spec.solve_paths([]) == []
    with pytest.raises(AssertionError, match="sample_paths"):
        spec.solve(0)


def test_march_checks_the_stacks_component_count():
    g = build_grid(1, [1.0], 15, DIRICHLET)
    tg = TimeGrid(0.1, 10)
    cs = CoeffSpec((parse_coefficient("const(0.5) * sin(1)", [1.0]),))
    args = (g, tg, cs, ReactionSpec(), ForcingSpec(), InitialData("sine", 1.0),
            SolveConfig(dt=tg.dt))
    for paths in (sample_block(tg, 2, 1, range(3)), sample_block(tg, 0, 1, [0])):
        with pytest.raises(ConfigError) as exc:
            solve_path_batch(*args, paths)
        assert str(exc.value) == f"coefficient count 1 != path component count {paths.m}"
    # a path set's component count is that of its values
    one_row = BrownianPathSet(tg, 0, 0, sample_block(tg, 1, 0, [0]).values[0])
    assert one_row.m == 1 and PathStack.of(one_row).m == 1
    cs2 = CoeffSpec(cs.coefficients * 2)
    with pytest.raises(ConfigError, match="coefficient count 2 != path component count 1"):
        solve_path(g, tg, cs2, *args[3:], one_row)


def test_transform_consistency_rows_do_not_depend_on_workers():
    one = verify.check_transform_consistency(workers=1)
    assert all(passed for *_, passed in one)
    # the values of four solo solves per path, each on the path's master path
    assert (one[0][1], one[2][1]) == (1.7671980670322074, 0.96)
    assert repr(verify.check_transform_consistency(workers=2)) == repr(one)


@pytest.mark.parametrize("check", [verify.check_complementarity, verify.check_signorini,
                                   verify.check_stefan, verify.check_noise_stats])
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
