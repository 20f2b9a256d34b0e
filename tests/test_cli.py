import configparser
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svilab import cli
from svilab.cli import (_SCHEMA, MODES, CsvWriter, RunConfig, dispatch, main, parse_config,
                        write_trajectory)
from svilab.errors import ConfigError
from svilab.noise import parse_coefficient
from svilab.pathsolver import (ForcingSpec, InitialData, PathSolution, ProblemSpec, SolveConfig,
                               zero_coeffs)
from svilab.signorini import assemble_coeffs, probe_form_constants

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = textwrap.dedent(
    """
    [domain]
    n = 31
    [time]
    t = 0.05
    dt = 1e-3
    [output]
    dir = {out}
    """
)

FULL = textwrap.dedent(
    """
    # full run with noise and forcing
    [domain]
    dim = 1
    lengths = 1.0
    n = 31
    bc = dirichlet

    [time]
    t = 0.05
    dt = 1e-3
    theta = 1.0

    [noise]
    m = 1
    seed = 7
    mu1 = const(0.5) * sin(1)   # inline comment

    [reaction]
    kind = linear
    alpha = 0.3

    [penalty]
    eps = 1e-3

    [forcing]
    kind = const
    amplitude = -0.5

    [initial]
    kind = sine
    amplitude = 0.5

    [run]
    mode = run

    [output]
    dir = {out}
    """
)


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL.format(out=tmp_path / "o")))
    assert cfg.spec.theta == 1.0
    assert cfg.slack == 10.0
    assert cfg.spec.eps == 1e-3
    assert cfg.mode == "run"
    assert cfg.spec.n_steps == 50


def test_solve_defaults_agree_everywhere():
    # a solve built from SolveConfig directly gets the budgets a config file gets
    solve, spec = SolveConfig(dt=1.0), ProblemSpec()
    schema = {key: _SCHEMA[sec][key][1] for sec, key in (
        ("time", "theta"), ("penalty", "eps"), ("run", "newton_tol"), ("run", "newton_max"),
        ("run", "mu_cap"))}
    for key, default in schema.items():
        if key == "eps":
            (default,) = default  # the schema holds a list of eps values
        assert getattr(solve, key) == getattr(spec, key) == default, key
        assert type(getattr(solve, key)) is type(getattr(spec, key)) is type(default), key


def test_validation_collects_all_errors(tmp_path):
    bad = textwrap.dedent(
        """
        [domain]
        dim = 3
        n = 2
        [time]
        t = -1.0
        [penalty]
        eps = -1
        [forcing]
        kind = vortex
        [run]
        mode = fly
        """
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, bad))
    msgs = "\n".join(exc.value.messages)
    assert "dim" in msgs
    assert "penalty.eps must be > 0" in msgs
    assert "vortex" in msgs
    assert "fly" in msgs
    assert len(exc.value.messages) >= 5


def test_unknown_keys_and_sections(tmp_path):
    bad = "[domain]\nn = 31\nshape = L\n[warp]\nspeed = 9\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, bad))
    msgs = "\n".join(exc.value.messages)
    assert "unknown key domain.shape" in msgs
    assert "unknown section [warp]" in msgs


def test_missing_coefficients(tmp_path):
    bad = "[noise]\nm = 2\nmu1 = const(1.0) * sin(1)\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, bad))
    assert any("mu2" in m for m in exc.value.messages)


def test_run_mode_zero_data(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, MINIMAL.format(out=out))), "--quiet"])
    assert code == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# config_sha256=")
    assert traj[1] == "t,node_index,xi_0,xi_1,y,X,eta"
    # zero initial data and no forcing: every state column is 0
    for line in traj[2:5]:
        cols = line.split(",")
        assert cols[4] == "0" and cols[5] == "0" and cols[6] == "0"
    summary = (out / "summary.csv").read_text()
    assert "fail" not in summary


def test_run_mode_full_and_exit_codes(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, FULL.format(out=out))), "--quiet"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.csv").exists()


CONTACT_2D = textwrap.dedent(
    """
    # 2D Dirichlet contact: the cone sinks under the forcing and touches the obstacle
    [domain]
    dim = 2
    lengths = 1.0, 1.0
    n = 15
    bc = dirichlet
    [time]
    t = 0.05
    dt = 1e-3
    [noise]
    m = 1
    seed = 21
    mu1 = const(0.5) * sin(1) * sin(1)
    [penalty]
    eps = 1e-4
    [forcing]
    kind = const
    amplitude = -1.0
    [initial]
    kind = cone
    amplitude = 0.3
    center = 0.3, 0.3
    radius = 0.2
    [output]
    dir = {out}
    """
)


def test_run_mode_2d_dirichlet_contact(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, CONTACT_2D.format(out=out))), "--quiet"]) == 0
    rows = [row.split(",") for row in (out / "summary.csv").read_text().splitlines()[2:]]
    assert rows and all(row[-1] == "pass" for row in rows)
    checks = {row[0]: float(row[1]) for row in rows}
    assert checks["newton_iters_max"] >= 2  # the active set moved within a step
    eta = [float(line.split(",")[6]) for line in
           (out / "trajectory.csv").read_text().splitlines()[2:]]
    assert min(eta) < 0.0  # contact


def test_byte_identical_reruns(tmp_path):
    conf = write(tmp_path, FULL.format(out=tmp_path / "ignored"))
    outs = []
    for tag in ("a", "b"):
        cfg = parse_config(conf)
        cfg.out_dir = tmp_path / tag
        assert dispatch(cfg, quiet=True) == 0
        outs.append(tmp_path / tag)
    for name in ("trajectory.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _cell(v) -> str:
    return str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g")


def per_cell_trajectory(sol) -> bytes:
    """trajectory.csv data formatted one cell at a time: the reference for the block writer."""
    g, X, eta = sol.grid, sol.X, sol.eta_X
    xs = g.meshes() + [np.zeros(g.n_nodes)]  # xi_1 is 0 in 1D
    return "".join(",".join(_cell(v) for v in (t, j, xs[0][j], xs[1][j], sol.y[n, j], X[n, j],
                                                eta[n, j])) + "\n"
                   for n, t in enumerate(sol.tg.nodes) for j in range(g.n_nodes)).encode()


def assert_trajectory_bytes(tmp_path, sol):
    write_trajectory(CsvWriter(tmp_path, "0" * 64), sol)
    data = (tmp_path / "trajectory.csv").read_bytes().split(b"\n", 2)[2]
    assert data == per_cell_trajectory(sol)


@pytest.mark.parametrize("dim, n, n_steps", [(1, 63, 300), (2, 9, 20)])
def test_trajectory_blocks_match_per_cell_format(tmp_path, dim, n, n_steps):
    coeff = "const(0.5) * sin(1)" + " * cos(1)" * (dim - 1)
    spec = ProblemSpec(dim=dim, lengths=(1.0,) * dim, n=n, T=0.1, n_steps=n_steps, seed=3,
                       coefficients=(parse_coefficient(coeff, [1.0] * dim),),
                       forcing=ForcingSpec("const", -2.0), initial=InitialData("sine", 0.5))
    sol = spec.solve(0)
    assert sol.eta.min() < 0  # the obstacle is active, so the eta column is not all zero
    assert_trajectory_bytes(tmp_path, sol)


# +0.0 and -0.0 in one block, NaNs with either sign bit, and other edge values
SPECIAL = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324, 1e300]


@pytest.mark.parametrize("dim, n, n_steps", [
    (1, 63, 300),  # 301 time steps are not a whole number of blocks
    (2, 91, 2),    # 8281 nodes: one time step is more rows than a block
])
def test_trajectory_blocks_match_per_cell_format_on_special_values(tmp_path, dim, n, n_steps):
    g, tg, _, _ = ProblemSpec(dim=dim, lengths=(1.0,) * dim, n=n, n_steps=n_steps).build()
    steps_per_block = max(1, cli._BLOCK_ROWS // g.n_nodes)
    assert (tg.N + 1) % steps_per_block or g.n_nodes > cli._BLOCK_ROWS
    rng = np.random.default_rng(5)
    shape = (tg.N + 1, g.n_nodes)
    y, eta, mu = rng.standard_normal(shape), rng.random(shape), rng.standard_normal(shape)
    for n0 in (0, steps_per_block, tg.N):  # first, second and last block
        y[n0, :len(SPECIAL)] = SPECIAL
        eta[n0, -len(SPECIAL):] = SPECIAL
        mu[n0, :len(SPECIAL)] = mu[n0, -len(SPECIAL):] = 0.0  # e^mu keeps them as they are
    sol = PathSolution(grid=g, tg=tg, y=y, eta=eta, mu=mu, diagnostics=None)
    assert np.signbit(sol.X[0, :4]).tolist() == [False, True, False, True]
    assert_trajectory_bytes(tmp_path, sol)


STEPS_63 = cli._BLOCK_ROWS // 63  # time steps in one block of a 1D n = 63 trajectory


def random_solution(n_steps: int, seed: int = 7) -> PathSolution:
    """A 1D n = 63 solution of random y, eta and mu with SPECIAL values in
    the first step of each block."""
    g, tg, _, _ = ProblemSpec(dim=1, lengths=(1.0,), n=63, n_steps=n_steps).build()
    assert g.n_nodes == 63
    rng = np.random.default_rng(seed)
    shape = (tg.N + 1, g.n_nodes)
    y, eta, mu = rng.standard_normal(shape), rng.random(shape), rng.standard_normal(shape)
    y[::STEPS_63, :len(SPECIAL)] = SPECIAL
    eta[::STEPS_63, -len(SPECIAL):] = SPECIAL
    mu[::STEPS_63, :len(SPECIAL)] = mu[::STEPS_63, -len(SPECIAL):] = 0.0
    return PathSolution(grid=g, tg=tg, y=y, eta=eta, mu=mu, diagnostics=None)


@pytest.mark.parametrize("blocks, last_steps", [
    (1, STEPS_63), (2, STEPS_63), (3, STEPS_63), (4, STEPS_63),
    (2, 5),  # a short last block formatted by the helper thread
    (3, 5),  # and by the calling thread
], ids=["1", "2", "3", "4", "2-short-last", "3-short-last"])
def test_trajectory_blocks_match_per_cell_format_for_each_block_count(tmp_path, blocks,
                                                                       last_steps):
    # the calling thread formats the even blocks, a helper thread the odd ones
    sol = random_solution((blocks - 1) * STEPS_63 + last_steps - 1)
    assert [len(b) > 0 for b in cli._trajectory_blocks(sol)] == [True] * blocks
    threads = threading.active_count()
    assert_trajectory_bytes(tmp_path, sol)
    assert threading.active_count() == threads


def test_trajectory_blocks_keep_their_bytes_when_the_threads_switch_often(tmp_path):
    # a switch interval of 1 us interleaves the two formatting threads at
    # nearly every bytecode, so shared state between them would show here
    sol = random_solution(6 * STEPS_63 + 4, seed=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert_trajectory_bytes(tmp_path, sol)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", [0, 1, 2, 3])
def test_a_block_that_fails_to_format_reaches_the_caller_and_ends_the_helper(
        tmp_path, monkeypatch, failing):
    sol = random_solution(4 * STEPS_63 - 1)
    block, raised = cli._trajectory_block, []

    def format_block(sol, nodes, n0, steps):
        if n0 == failing * steps:
            raised.append(FloatingPointError(f"block {failing} fails"))
            raise raised[0]
        return block(sol, nodes, n0, steps)

    monkeypatch.setattr(cli, "_trajectory_block", format_block)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"^block {failing} fails$") as exc:
        write_trajectory(CsvWriter(tmp_path, "0" * 64), sol)
    assert exc.value is raised[0]
    assert threading.active_count() == threads


def test_a_write_that_fails_mid_file_ends_the_helper(tmp_path, monkeypatch):
    sol = random_solution(4 * STEPS_63 - 1)
    sizes = []

    class FullDisk(io.BytesIO):
        def write(self, data):
            sizes.append(len(data))
            if len(sizes) == 3:  # the header, block 0, then block 1
                raise OSError(28, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(cli, "open", lambda path, mode: FullDisk(), raising=False)
    threads = threading.active_count()
    with pytest.raises(ConfigError) as exc:
        write_trajectory(CsvWriter(tmp_path, "0" * 64), sol)
    assert str(exc.value) == (f"output.dir = {str(tmp_path)!r}: cannot write trajectory.csv: "
                              "No space left on device")
    assert len(sizes) == 3 and threading.active_count() == threads


def test_trajectory_blocks_match_per_cell_format_when_x_repeats_y(tmp_path):
    # mu = 0 gives X the bits of y, and eta = 0 is one value in every block,
    # while y holds both zeros: a dedupe by float value would print one of
    # them with the other's sign
    g, tg, _, _ = ProblemSpec(dim=1, lengths=(1.0,), n=63, n_steps=300).build()
    shape = (tg.N + 1, g.n_nodes)
    y = np.random.default_rng(6).standard_normal(shape)
    y[::7, :len(SPECIAL)] = SPECIAL
    sol = PathSolution(grid=g, tg=tg, y=y, eta=np.zeros(shape), mu=np.zeros(shape),
                       diagnostics=None)
    assert np.array_equal(sol.X.view(np.int64), y.view(np.int64))
    assert not np.signbit(sol.eta_X).any()
    assert_trajectory_bytes(tmp_path, sol)


def test_2d_trajectory_bytes_match_lines_built_by_fmt(tmp_path):
    # a noisy 2D contact solve: xi_1 is nonzero, X differs from y, eta from 0
    spec = ProblemSpec(dim=2, lengths=(1.0, 1.0), n=15, T=0.05, n_steps=20, seed=11,
                       coefficients=(parse_coefficient("const(0.5) * sin(1) * cos(1)",
                                                       [1.0, 1.0]),),
                       forcing=ForcingSpec("const", -2.0), initial=InitialData("sine", 0.5))
    sol = spec.solve(0)
    g, X, eta = sol.grid, sol.X, sol.eta_X
    xi0, xi1 = g.meshes()
    assert xi1.any() and sol.mu.any() and eta.min() < 0
    lines = [",".join(map(cli._fmt, (t, j, xi0[j], xi1[j], sol.y[n, j], X[n, j], eta[n, j])))
             for n, t in enumerate(sol.tg.nodes) for j in range(g.n_nodes)]
    write_trajectory(CsvWriter(tmp_path, "0" * 64), sol)
    data = (tmp_path / "trajectory.csv").read_bytes().split(b"\n", 2)[2]
    assert data == ("\n".join(lines) + "\n").encode()


def test_trajectory_writer_memory_does_not_grow_with_the_steps(tmp_path):
    """The writer holds one block of X and eta at a time: its tracemalloc
    peak on heat.cfg's grid is the same at 1000 and at 2000 steps."""
    peaks = []
    for n_steps in (1000, 2000):
        g, tg, _, _ = ProblemSpec(dim=1, lengths=(1.0,), n=255, n_steps=n_steps).build()
        shape = (tg.N + 1, g.n_nodes)
        rng = np.random.default_rng(n_steps)
        sol = PathSolution(grid=g, tg=tg, y=rng.random(shape), eta=-rng.random(shape) * 1e-3,
                           mu=rng.standard_normal(shape), diagnostics=None)
        writer = CsvWriter(tmp_path / str(n_steps), "0" * 64)
        tracemalloc.start()
        try:
            write_trajectory(writer, sol)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_trajectory_writer_peak_at_n_and_2n_steps_differs_by_less_than_one_block(tmp_path):
    """Two threads format at most two blocks while a third is written, so
    the tracemalloc peak of write_trajectory on a 1D n = 255 solution is
    the same at N and at 2N steps, within one block's formatted bytes."""
    peaks, block = [], 0
    for n_steps in (1000, 2000):
        g, tg, _, _ = ProblemSpec(dim=1, lengths=(1.0,), n=255, n_steps=n_steps).build()
        shape = (tg.N + 1, g.n_nodes)
        rng = np.random.default_rng(n_steps + 1)
        sol = PathSolution(grid=g, tg=tg, y=rng.standard_normal(shape),
                           eta=-rng.random(shape), mu=rng.standard_normal(shape),
                           diagnostics=None)
        block = max(block, *map(len, cli._trajectory_blocks(sol)))
        writer = CsvWriter(tmp_path / str(n_steps), "0" * 64)
        tracemalloc.start()
        try:
            write_trajectory(writer, sol)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < block, (peaks, block)


def test_seed_and_paths_overrides(tmp_path):
    conf = write(tmp_path, FULL.format(out=tmp_path / "a"))
    assert main(["--config", str(conf), "--quiet", "--seed", "123",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a")
    b = (tmp_path / "b")
    assert not a.exists()  # --out redirected everything
    assert (b / "trajectory.csv").exists()


# a run whose path breaks the transport guard with no finer path to retry on
STIFF = textwrap.dedent(
    """
    [domain]
    n = 63
    [time]
    t = 0.2
    dt = 5e-3
    [noise]
    m = 1
    seed = 5
    mu1 = const(9.0) * sin(3)
    [initial]
    kind = sine
    amplitude = 1.0
    [run]
    mode = run
    headroom = 1
    [output]
    dir = {out}
    """
)


def test_stability_failure_exit_2(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, STIFF.format(out=out))), "--quiet"])
    assert code == 2
    summary = (out / "summary.csv").read_text()
    assert "numerical_failure" in summary and "fail" in summary


def test_newton_tolerance_scales_with_the_data(tmp_path):
    # an absolute residual bound of 1e-10 is below the round-off of data of size 1e7
    big = set_key(set_key(MINIMAL.format(out=tmp_path / "out"), "domain", "n", "7"),
                  "time", "t", "0.01")
    big = set_key(set_key(big, "initial", "kind", "sine"), "initial", "amplitude", "1e7")
    assert main(["--config", str(write(tmp_path, big)), "--quiet"]) == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[2:]
    assert rows and all(row.endswith(",pass") for row in rows)


def test_energy_rows_fail_when_their_norms_overflow(tmp_path):
    # y stays finite, near 1e305, but its squared norms and the source's overflow
    # to inf: the energy bounds are not met, not met vacuously at 0
    huge = set_key(set_key(MINIMAL.format(out=tmp_path / "out"), "domain", "n", "7"),
                   "time", "t", "0.01")
    huge = set_key(set_key(huge, "forcing", "kind", "const"), "forcing", "amplitude", "1e308")
    with np.errstate(over="ignore"):
        assert main(["--config", str(write(tmp_path, huge)), "--quiet"]) == 0
    rows = dict(row.split(",", 1) for row in
                (tmp_path / "out" / "summary.csv").read_text().splitlines()[2:])
    assert rows["energy_ratio"] == "inf,10,fail"
    assert rows["multiplier_ratio"] == "inf,10,fail"


def test_ensemble_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 15
        [time]
        t = 0.02
        dt = 1e-3
        [noise]
        m = 1
        seed = 3
        mu1 = const(0.5) * const(1.0)
        [initial]
        kind = sine
        amplitude = 1.0
        [run]
        mode = ensemble
        n_paths = 6
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[1] == "functional,mean,variance,ci_half_width,n_paths,n_failures"
    assert any(line.startswith("sup_y_l2_sq,") for line in stats)


def test_ensemble_mode_reports_why_paths_failed(tmp_path, capsys):
    conf = set_key(FULL.format(out=tmp_path / "out"), "run", "mode", "ensemble")
    conf = set_key(set_key(conf, "run", "n_paths", "6"), "run", "mu_cap", "0.05")
    assert main(["--config", str(write(tmp_path, conf))]) == 2
    reasons = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert reasons and all(line.startswith("path ") and "cap 0.05" in line for line in reasons)
    n_failures = int((tmp_path / "out" / "stats.csv").read_text().splitlines()[2].split(",")[-1])
    assert len(reasons) == n_failures
    assert main(["--config", str(write(tmp_path, conf)), "--quiet"]) == 2
    assert capsys.readouterr().err == ""


def test_rate_eps_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 31
        [time]
        t = 0.1
        dt = 1e-3
        [penalty]
        eps = 1e-1, 2.5e-2, 6.25e-3, 1.5625e-3
        [forcing]
        kind = const
        amplitude = -1.0
        [run]
        mode = rate-eps
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[1] == "eps,error_l2,slope_running"
    assert len(rates) == 6  # comment + header + 4 eps rows
    assert "cauchy_slope" in (out / "summary.csv").read_text()


def test_rate_eps_mode_with_an_exact_eps_fails_numerically_naming_it(tmp_path, capsys):
    # at eps 1e-200 the solve equals its eps/4 reference to the last bit
    conf = textwrap.dedent(
        """
        [domain]
        n = 7
        [time]
        t = 0.01
        dt = 1e-3
        [noise]
        m = 1
        mu1 = const(0.5) * sin(1)
        [penalty]
        eps = 0.1, 0.01, 0.001, 1e-200
        [forcing]
        kind = const
        amplitude = -1.0
        [run]
        mode = rate-eps
        [output]
        dir = {out}
        """
    ).format(out=tmp_path / "out")
    assert main(["--config", str(write(tmp_path, conf))]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("FAIL numerical: the error against the reference is 0 at eps 1e-200 ")
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[2] == "numerical_failure,1,0,fail" and "eps 1e-200" in summary[3]


def test_run_mode_norms_that_overflow_fail_their_rows_without_warnings(tmp_path):
    # the energy norms of a solution near the float limit overflow to inf: the
    # two energy rows fail on them, and no raw numpy warning reaches stderr
    conf = textwrap.dedent(
        """
        [domain]
        n = 7
        [time]
        t = 0.01
        dt = 1e-3
        [forcing]
        kind = const
        amplitude = 1e308
        [run]
        mode = run
        [output]
        dir = {out}
        """
    ).format(out=tmp_path / "out")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "svilab.cli", "--config", str(write(tmp_path, conf))],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert out.returncode == 0, out.stderr
    assert "Warning" not in out.stderr and out.stderr == ""
    assert "FAIL energy_ratio: inf" in out.stdout and "FAIL multiplier_ratio: inf" in out.stdout
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert "energy_ratio,inf,10,fail" in summary and "multiplier_ratio,inf,10,fail" in summary


def test_rate_mesh_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 15
        [time]
        t = 0.05
        dt = 1e-3
        [initial]
        kind = sine
        amplitude = 1.0
        [run]
        mode = rate-mesh
        mesh_levels = 2
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    rates = (out / "rates.csv").read_text().splitlines()
    rows = [r.split(",") for r in rates[2:]]
    errs = [float(r[1]) for r in rows]
    assert errs[1] < errs[0]  # finer grid, smaller error vs reference


def test_stefan_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 63
        [time]
        t = 0.05
        dt = 2e-4
        [penalty]
        eps = 1e-6
        [stefan]
        rho = 1.0
        boundary_temp = 1.0
        [run]
        mode = stefan
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    front = (out / "front.csv").read_text().splitlines()
    assert front[1] == "t,front_position,melted_measure"
    last = front[-1].split(",")
    assert float(last[1]) > 0.1  # the front moved


def test_signorini_mode(tmp_path):
    conf = textwrap.dedent(
        """
        [domain]
        n = 31
        bc = neumann
        [time]
        t = 0.1
        dt = 1e-3
        [forcing]
        kind = edge
        amplitude = -1.0
        width = 0.15
        [run]
        mode = signorini
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    summary = (out / "summary.csv").read_text()
    assert "boundary_trace_min" in summary
    assert "coercivity_violations" in summary


def test_signorini_mode_probes_the_runs_noise(tmp_path):
    # the shipped Signorini config with noise: its form rows are the probe at
    # the run's coefficients where |mu| first peaks, not at zero coefficients
    text = (ROOT / "configs" / "signorini.cfg").read_text().replace(
        "[run]", "[noise]\nm = 1\nmu1 = const(2.0) * cos(1)\n\n[run]")
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, text)), "--out", str(out), "--quiet"]) == 0
    rows = {name: float(value) for name, value, *_ in
            (row.split(",") for row in (out / "summary.csv").read_text().splitlines()[2:])}
    cfg = parse_config(write(tmp_path, text), {})
    spec = cfg.spec
    sol = spec.solve(cfg.path_id)
    k = int(np.argmax(np.abs(sol.mu).max(axis=1)))
    coeffs = assemble_coeffs(sol.grid, spec.build()[2], spec.reaction, spec.forcing,
                             spec.sample([cfg.path_id]), k * spec.headroom, spec.mu_cap)
    assert np.array_equal(coeffs.mu, sol.mu[k]) and np.abs(coeffs.mu).max() > 1.0
    noisy = probe_form_constants(sol.grid, coeffs, spec.eps, seed=spec.seed)
    zero = probe_form_constants(sol.grid, zero_coeffs(sol.grid, rs=spec.reaction), spec.eps,
                                seed=spec.seed)
    expected = {"coercivity_violations": noisy.violations, "coercivity_c2": noisy.c2,
                "coercivity_c3": noisy.c3, "boundedness_c1": noisy.c1,
                "monotonicity_c4": noisy.c4}
    assert {name: rows[name] for name in expected} == expected
    assert (noisy.c2, noisy.c3) != (zero.c2, zero.c3)


def test_verify_mode_subset(tmp_path):
    conf = textwrap.dedent(
        """
        [run]
        mode = verify
        [verify]
        checks = heat_oracle
        [output]
        dir = {out}
        """
    )
    out = tmp_path / "out"
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    assert code == 0
    summary = (out / "summary.csv").read_text()
    assert "heat_oracle_sup_error" in summary
    assert summary.count("fail") == 0


# small configs of the modes that print a report; section.key = value over MINIMAL
REPORTING = {
    "run": {"noise.m": "1", "noise.mu1": "const(0.5) * sin(1)", "forcing.kind": "const",
            "forcing.amplitude": "-0.5", "initial.amplitude": "0.5"},
    "rate-eps": {"penalty.eps": "1e-1, 2.5e-2, 6.25e-3, 1.5625e-3", "forcing.kind": "const",
                 "forcing.amplitude": "-1.0"},
    "rate-mesh": {"domain.n": "7", "initial.amplitude": "1.0", "run.mesh_levels": "2"},
    "stefan": {"time.t": "0.02", "penalty.eps": "1e-6", "stefan.boundary_temp": "1.0"},
    "signorini": {"domain.bc": "neumann", "forcing.kind": "edge", "forcing.amplitude": "-1.0",
                  "forcing.width": "0.15"},
    "verify": {"verify.checks": "heat_oracle"},
}


@pytest.mark.parametrize("mode", sorted(REPORTING))
def test_mode_prints_its_report(tmp_path, capsys, mode):
    # without --quiet: one PASS/FAIL line per summary row where the mode
    # prints its rows, else its one-line report, and never a traceback
    out = tmp_path / "out"
    conf = set_key(MINIMAL.format(out=out), "run", "mode", mode)
    for key, value in REPORTING[mode].items():
        conf = set_key(conf, *key.split("."), value)
    assert main(["--config", str(write(tmp_path, conf))]) == 0
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    lines = printed.out.splitlines()
    if mode in ("run", "signorini", "verify"):
        rows = [row.split(",") for row in (out / "summary.csv").read_text().splitlines()[2:]]
        assert rows and [line.split(":")[0] for line in lines] == [
            f"{status.upper()} {name}" for name, _, _, status in rows]
    else:
        assert len(lines) == 1 and lines[0].startswith(f"{mode}: ")


def test_import_loads_no_pool_machinery_and_no_generator():
    # a single-path run never forks and a run without noise never draws: the
    # pool machinery loads with the first pooled call, numpy.random with the
    # first draw of a path component
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import svilab.cli\n"
            "from svilab.noise import TimeGrid, sample_block\n"
            "def loaded():\n"
            "    return [m for m in ('concurrent.futures.process', 'numpy.random')\n"
            "            if m in sys.modules]\n"
            "print(*loaded(), sep=',')\n"
            "sample_block(TimeGrid(1.0, 4), 0, 1, [0, 1])\n"
            "print(*loaded(), sep=',')\n"
            "sample_block(TimeGrid(1.0, 4), 1, 1, [0])\n"
            "print(*loaded(), sep=',')\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["", "", "numpy.random", ""]


def test_missing_config_file():
    assert main(["--config", "/nonexistent/x.cfg", "--quiet"]) == 1


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
@pytest.mark.parametrize("by_flag", [True, False], ids=["out_flag", "output_dir"])
def test_output_dir_that_cannot_be_a_directory(tmp_path, capsys, below, by_flag):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below else blocker
    conf = write(tmp_path, MINIMAL.format(out=tmp_path / "out" if by_flag else out))
    code = main(["--config", str(conf), "--quiet"] + (["--out", str(out)] if by_flag else []))
    errors = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error: output.dir")
    assert str(out) in errors[0]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("conf, name", [(MINIMAL, "trajectory.csv"), (MINIMAL, "summary.csv"),
                                        (STIFF, "summary.csv")],
                         ids=["trajectory", "summary", "failure_summary"])
def test_output_file_that_is_a_directory(tmp_path, capsys, conf, name):
    # the solve runs, then its CSV cannot be opened: one config error line, exit 1
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = main(["--config", str(write(tmp_path, conf.format(out=out))), "--quiet"])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error: output.dir")
    assert str(out) in errors[0] and f"cannot write {name}" in errors[0]


@pytest.mark.parametrize("name", ["heat", "stefan_benchmark"])
def test_shipped_trajectory_matches_the_benchmark_digest(tmp_path, name):
    """trajectory.csv data of a shipped config hashes to the digest the
    benchmark gates on (sha256 after the provenance line)."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["trajectory"]
    assert main(["--config", str(ROOT / "configs" / f"{name}.cfg"), "--out", str(tmp_path),
                 "--quiet"]) == 0
    with open(tmp_path / "trajectory.csv", "rb") as fh:
        assert fh.readline().startswith(b"# config_sha256=")
        assert hashlib.sha256(fh.read()).hexdigest() == reference[name]


# sha256 of each CSV after its provenance line, per shipped config
SHIPPED_CSV_DIGESTS = {
    "signorini": {
        "summary.csv": "3f4c34510c2bdbda3a127b5ce337ec20a2d7ff997f910c49392ee09e348eb7dd",
        "trajectory.csv": "55f509a3406abc37570c2f9ae6d6e51647a6701b392b41b6341a0eb06c2513f0",
    },
    "pinned": {
        "summary.csv": "9d17ae3a1bf829acdd10b956a2f095a98360895935655dcbdd72951e1dc514c5",
        "trajectory.csv": "4eab216bf336766c72fae59660a925bf97142129fd91dfb45e66fef6f9358753",
    },
    "rate_eps": {
        "rates.csv": "624610ca07f3f433b9b813d91cd7f8241b2714d2f71a961e4293f50637b3e6a4",
        "summary.csv": "55ff04c4d19b3e10cdf37e3a7a1f63b766cf13047540abdf685b56f28f425365",
    },
}


def _csv_digests(out_dir):
    """sha256 of each CSV in out_dir after its provenance line."""
    digests = {}
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, "rb") as fh:
            assert fh.readline().startswith(b"# config_sha256=")
            digests[path.name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(SHIPPED_CSV_DIGESTS))
def test_shipped_csvs_match_their_digests(tmp_path, name):
    """Every CSV of a shipped config that the benchmark does not run keeps its
    bytes (after the provenance line)."""
    assert main(["--config", str(ROOT / "configs" / f"{name}.cfg"), "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert _csv_digests(tmp_path) == SHIPPED_CSV_DIGESTS[name]


# melting from a hot cone under multiplicative noise
NOISY_STEFAN = textwrap.dedent(
    """
    [domain]
    n = 127
    [time]
    t = 0.05
    dt = 1e-4
    [penalty]
    eps = 1e-6
    [noise]
    m = 1
    seed = 31
    mu1 = const(0.4) * sin(1)
    [stefan]
    theta0_kind = cone
    theta0_amplitude = 4.0
    theta0_center = 0.35
    theta0_radius = 0.15
    [run]
    mode = stefan
    [output]
    dir = {out}
    """
)

# sha256 of each CSV of NOISY_STEFAN after its provenance line, per n_paths
NOISY_STEFAN_DIGESTS = {
    1: {
        "front.csv": "b6a8fffdabcf06aa99f1449a20d6dc40fa50d89c4f6f1e96adc84adaba055d1b",
        "summary.csv": "864c0ba9b974ecdeb07ee6360513782544cc3ec6f627ec6d998f7c5a180922b9",
        "trajectory.csv": "e7058bbf1c43d0a2a6e06c612685eb2770d6452807ed7ceda31c9fd82b26ca29",
    },
    5: {
        "front.csv": "ed0b005ad691b6feef9b69080990373e0b455fc7c728ecdd5479b26d7325ac8c",
        "stats.csv": "dc0c9d210fe6db44be1d305847cc34c0d47218bbc22c6a1f23efcdbd3104f55b",
        "summary.csv": "864c0ba9b974ecdeb07ee6360513782544cc3ec6f627ec6d998f7c5a180922b9",
        "trajectory.csv": "e4e60bfbb505053ff30ae299d96954ec95e1d055338e2273570c555226704f16",
    },
}


@pytest.mark.parametrize("n_paths", sorted(NOISY_STEFAN_DIGESTS))
def test_noisy_stefan_csvs_match_their_digests(tmp_path, n_paths):
    out = tmp_path / "out"
    conf = write(tmp_path, NOISY_STEFAN.format(out=out))
    assert main(["--config", str(conf), "--paths", str(n_paths), "--quiet"]) == 0
    assert _csv_digests(out) == NOISY_STEFAN_DIGESTS[n_paths]


def test_stefan_mode_fails_with_the_lowest_failing_path(tmp_path, capsys):
    # under mu_cap 0.1, paths 0-2 of NOISY_STEFAN melt and paths 3 and 4 fail
    conf = set_key(NOISY_STEFAN.format(out=tmp_path / "out"), "run", "mu_cap", "0.1")
    path = write(tmp_path, conf)
    assert main(["--config", str(path), "--paths", "3", "--quiet"]) == 0
    out = tmp_path / "failed"
    assert main(["--config", str(path), "--paths", "5", "--out", str(out)]) == 2
    message = "|mu| reached 0.101 at t=0.0318, beyond the cap 0.1"  # path 3's
    assert capsys.readouterr().err.splitlines() == [f"FAIL numerical: {message}"]
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]
    assert (out / "summary.csv").read_text().splitlines()[1:] == [
        "check_name,value,threshold,status",
        "numerical_failure,1,0,fail",
        f"message: {message.replace(',', ';')},0,0,fail",
    ]


@pytest.mark.parametrize("flag, value, key, in_file", [
    ("--paths", "1", "run.n_paths", ("n_paths = 4", "n_paths = 1")),
    ("--seed", "-1", "noise.seed", ("seed = 7", "seed = -1")),
])
def test_overrides_validated_like_file_values(tmp_path, capsys, flag, value, key, in_file):
    conf = FULL.format(out=tmp_path / "out").replace("mode = run", "mode = ensemble\nn_paths = 4")
    code = main(["--config", str(write(tmp_path, conf)), "--quiet", flag, value])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config error:")]
    assert len(errors) == 1 and key in errors[0]
    assert not (tmp_path / "out").exists()
    # the same value written in the file gives the same message
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, conf.replace(*in_file), name="file.cfg"))
    assert [f"config error: {m}" for m in exc.value.messages] == errors


def set_key(text, section, key, value):
    """Config text with section.key set to value."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("key, value, mode", [
    ("time.t", "nan", "run"),
    ("time.t", "inf", "run"),
    ("time.dt", "nan", "run"),
    ("run.path_id", "-1", "run"),
    ("run.path_id", "18446744073709551616", "stefan"),  # blocks sample ids below 2**64
    ("run.newton_max", "0", "run"),
    ("initial.radius", "0", "run"),
    ("domain.lengths", "nan", "run"),
    ("penalty.eps", "nan", "run"),
    ("run.mu_cap", "-1", "run"),
    ("verify.checks", "bogus", "verify"),
    ("verify.checks", ",", "verify"),
    ("run.mesh_levels", "0", "rate-mesh"),
    ("run.slack", "nan", "run"),
    ("run.headroom", "0", "run"),
    ("noise.mu01", "const(9.0) * sin(1)", "run"),
    # arrays larger than cli.MAX_ARRAY_VALUES (FULL has m = 1 and dt = 1e-3)
    ("domain.n", "1000000000000", "run"),
    ("time.t", "1e6", "run"),
    ("run.headroom", "100000000000", "run"),
    ("run.mesh_levels", "60", "rate-mesh"),
])
def test_bad_value_is_one_config_error_naming_its_key(tmp_path, capsys, key, value, mode):
    out = tmp_path / "out"
    conf = set_key(FULL.format(out=out), "run", "mode", mode)
    conf = set_key(conf, *key.split("."), value)
    code = main(["--config", str(write(tmp_path, conf)), "--quiet"])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error:") and key in errors[0]
    assert not out.exists()


def test_forcing_kind_names_the_config_catalog(tmp_path, capsys):
    # the Stefan reduction's source field is no forcing kind a config can name
    conf = set_key(FULL.format(out=tmp_path / "out"), "forcing", "kind", "field")
    assert main(["--config", str(write(tmp_path, conf)), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: forcing.kind must be zero|const|sine|edge, got 'field'"]


@pytest.mark.parametrize("dt", ["0.03", "0.07", "1.0"])
def test_time_step_must_divide_the_horizon(tmp_path, capsys, dt):
    # round(t / dt) steps would silently run at another dt than the one asked for
    out = tmp_path / "out"
    conf = set_key(set_key(FULL.format(out=out), "time", "t", "0.1"), "time", "dt", dt)
    code = main(["--config", str(write(tmp_path, conf)), "--quiet"])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert code == 1
    assert errors == [f"config error: time.dt = {float(dt)} does not divide t = 0.1"]
    assert not out.exists()


@pytest.mark.parametrize("t, dt", [("0.05", "2e-4"), ("1.0", repr(1 / 3))])
def test_time_step_that_divides_the_horizon_is_accepted(tmp_path, t, dt):
    conf = set_key(set_key(FULL.format(out=tmp_path / "out"), "time", "t", t), "time", "dt", dt)
    spec = parse_config(write(tmp_path, conf)).spec
    assert spec.n_steps == round(float(t) / float(dt))


@pytest.mark.parametrize("mode, key, value, message", [
    ("rate-eps", "bc", "neumann", "rate-eps mode needs domain.bc = dirichlet"),
    ("rate-mesh", "dim", "2", "rate-mesh mode needs domain.dim = 1"),
])
def test_mode_rejects_a_domain_it_cannot_run(tmp_path, mode, key, value, message):
    conf = set_key(MINIMAL.format(out=tmp_path / "out"), "run", "mode", mode)
    conf = set_key(set_key(conf, "domain", key, value), "penalty", "eps", "0.1, 0.01, 1e-3, 1e-4")
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, conf))
    assert exc.value.messages == [message]


def test_config_hash_covers_the_effective_run(tmp_path):
    conf = write(tmp_path, FULL.format(out=tmp_path / "a"))
    base = parse_config(conf).config_sha
    assert parse_config(conf, {("noise", "seed"): 8}).config_sha != base
    assert parse_config(conf, {("noise", "seed"): 7}).config_sha == base  # the file's seed
    assert parse_config(conf, {("output", "dir"): str(tmp_path / "b")}).config_sha == base
    # whitespace, comments, spelled-out defaults and the output dir do not count
    edited = (FULL.format(out=tmp_path / "c").replace("t = 0.05", "t=5e-2   # shorter")
              .replace("const(0.5) * sin(1)", "const(0.5)*sin(1)")
              .replace("[run]", "# a comment\n[run]\npath_id = 0"))
    assert parse_config(write(tmp_path, edited, name="edited.cfg")).config_sha == base


def test_main_writes_the_overridden_hash(tmp_path):
    conf = str(write(tmp_path, FULL.format(out=tmp_path / "a")))
    heads = []
    for seed in ("7", "8"):
        assert main(["--config", conf, "--quiet", "--seed", seed, "--out",
                     str(tmp_path / seed)]) == 0
        heads.append((tmp_path / seed / "summary.csv").read_text().splitlines()[0])
    assert f"config_sha256={parse_config(conf).config_sha} " in heads[0]
    assert heads[1] != heads[0]


@pytest.mark.parametrize("path", sorted(ROOT.joinpath("configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_config_parses_and_builds(path):
    cfg = parse_config(path)
    cfg.spec.build()
    assert parse_config(path).config_sha == cfg.config_sha


_FUZZ_VALUES = ["nan", "inf", "-inf", "", ",", "0", "-1", "1", "2", "3", "1e-3", "0.5", "1e400",
                "99999999999999999999", "1.0, 2.0", "0.3,", "1,,2", "%", "x", "dirichlet",
                "neumann", "zero", "const", "sine", "cone", "cutoff", "edge", "field", "linear",
                "saturating", "all", "heat_oracle", *MODES]


@settings(max_examples=400, deadline=None)
@given(entries=st.lists(st.tuples(
           st.sampled_from([f"{sec}.{key}" for sec, keys in _SCHEMA.items() for key in keys]
                           + ["noise.mu1", "noise.mu2"]),
           st.one_of(st.sampled_from(_FUZZ_VALUES), st.integers(-5, 300).map(str),
                     st.floats(allow_nan=True, allow_infinity=True).map(repr),
                     st.sampled_from(["const(0.5) * sin(1)", "cos(1,2) * sin(1) * cos(2)",
                                      "const(nan) * sin(1)", "sin(1)"]))),
           max_size=12, unique_by=lambda e: e[0]),
       seed=st.none() | st.integers(-3, 10), paths=st.none() | st.integers(-3, 10))
def test_parse_config_accepts_or_raises_config_error(tmp_path_factory, entries, seed, paths):
    sections: dict[str, list[str]] = {}
    for key, value in entries:
        sec, name = key.split(".")
        sections.setdefault(sec, []).append(f"{name} = {value}")
    text = "".join(f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items())
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
    path.write_text(text)
    overrides = {k: v for k, v in ((("noise", "seed"), seed), (("run", "n_paths"), paths))
                 if v is not None}
    try:
        cfg = parse_config(path, overrides)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig) and len(cfg.config_sha) == 64


_DISPATCH_MODES = [m for m in MODES if m != "verify"]


@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(_DISPATCH_MODES), dim=st.sampled_from([1, 2]),
       n=st.integers(3, 7), neumann=st.booleans(), t=st.sampled_from(["0.01", "0.05"]),
       steps=st.integers(1, 5), eps=st.sampled_from(["1e-3", "1e-6"]),
       mu1=st.sampled_from(["", "const(0.5)", "cos(1,2)", "const(9.0)"]),
       initial=st.sampled_from(["0", "0.5", "1e7"]),
       forcing=st.sampled_from(["zero", "const", "edge"]), paths=st.integers(1, 3),
       headroom=st.sampled_from(["1", "8"]), stefan_temp=st.sampled_from(["0", "1"]))
def test_dispatch_exits_with_a_code_and_no_traceback(tmp_path_factory, mode, dim, n, neumann, t,
                                                    steps, eps, mu1, initial, forcing, paths,
                                                    headroom, stefan_temp):
    # each mode gets the boundary and eps list it needs; rate-mesh in 2D, ensemble with one
    # path and Stefan heating in 2D still end in config errors
    bc = {"signorini": "neumann", "run": "neumann" if neumann else "dirichlet",
          "ensemble": "neumann" if neumann else "dirichlet"}.get(mode, "dirichlet")
    if mode == "rate-eps":
        eps = "0.1, 0.01, 1e-3, 1e-4"
    noise = f"m = 1\nmu1 = {mu1} * sin(1)" + " * cos(2)" * (dim - 1) if mu1 else "m = 0"
    tmp = tmp_path_factory.mktemp("dispatch")
    out = tmp / "out"
    text = textwrap.dedent(f"""
        [domain]
        dim = {dim}
        n = {n}
        bc = {bc}
        [time]
        t = {t}
        dt = {float(t) / steps!r}
        [noise]
        {{noise}}
        [penalty]
        eps = {eps}
        [forcing]
        kind = {forcing}
        amplitude = -1.0
        [initial]
        amplitude = {initial}
        [stefan]
        theta0_amplitude = 0.5
        boundary_temp = {stefan_temp}
        [run]
        mode = {mode}
        n_paths = {paths}
        headroom = {headroom}
        mesh_levels = 1
        [output]
        dir = {out}
        """).format(noise=noise)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(write(tmp, text)), "--quiet"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert not out.exists()
