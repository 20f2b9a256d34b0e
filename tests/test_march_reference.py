"""Regression of the time march against recorded trajectories: the first
five cases from before the three solvers (interior, Signorini,
Euler-Maruyama) shared one march, the `seams_*` cases from before the
march evaluated its coefficients in blocks of run-grid rows, the 2D
`signorini_2d` and `contact_2d` cases from before the 2D linear solve left
scipy's `cg`.  Each `seams_*` run grid spans several blocks, so steps cross
block seams.  `signorini_2d` puts boundary contact and the Robin diagonal
through the 2D solve; `contact_2d` fills most of the domain with the active
set at eps = 1e-4, with several Newton iterations per step.

Every array must match bit for bit, compared by bit pattern (so a -0.0
where the record holds +0.0 fails), except `y` of the three 2D cases.  They
were recorded with unpreconditioned CG on the 5-point CSR matrix, and the
arithmetic of their solves has changed since.  The two Dirichlet cases,
`solve_2d` and `contact_2d`, now solve by CG in the sine basis, on the
operator of the system there with its diagonal as preconditioner, or by
division where the extra diagonal is constant; a Newton iteration whose
next active set is certain ends its CG early, from where the next
iteration starts.  The
Neumann case, `signorini_2d`, now solves by CG on the system multiplied by
the trapezoid weights, whose operator is exactly symmetric where the CSR
matrix was not, and with a stencil product in place of the CSR one.  Each
solve still stops at CG_RTOL on the residual of the system it runs on, so
their `y` must match to |dy| <= Y_RTOL_2D * max|y_ref| (`solve_2d` moved
by at most 3.6e-13, `contact_2d` by 1.4e-13, `signorini_2d` by 5.7e-13).
Their mu, source quadrature and refinement level stay exact, and so do the
Newton counts of `signorini_2d`.  Each Newton solve of the two Dirichlet
cases now starts from 2 y_n - y_{n-1} (`pathsolver.newton_start`), not
from y_n: a different first active set and CG x0 take fewer iterations to
the same tolerances, so their Newton counts were re-pinned from that march
(`solve_2d` 29 -> 24 in all, `contact_2d` 56 -> 47) and their y stays
within the bound above (5.3e-13 and 1.6e-13 of the CSR solves).  The other
arrays are not re-recorded: the solves on the CSR matrix are the oracle.

Record cases (all of them without names) from a checkout of the solver to
compare against; the file keeps the arrays of the cases not named:

    PYTHONPATH=<checkout>/src python tests/test_march_reference.py [case ...]
"""

import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from svilab.grid import DIRICHLET, NEUMANN, build_grid
from svilab import pathsolver
from svilab.noise import CoeffSpec, TimeGrid, parse_coefficient, sample_block, sample_paths
from svilab.pathsolver import (
    BLOCK_VALUES,
    ForcingSpec,
    InitialData,
    SineBasis,
    SolveConfig,
    _march,
    _one,
    _pick_refinement,
    direct_em_solve,
    solve_path,
    step_interior,
)
from svilab.signorini import solve_signorini_path
from svilab.transform import ReactionSpec

REFERENCE = Path(__file__).resolve().parent / "data" / "march_reference.npz"


def _cs(*texts, lengths=(1.0,)):
    return CoeffSpec(tuple(parse_coefficient(t, list(lengths)) for t in texts))


def _refined_1d():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.2, 40)
    return solve_path(g, tg, _cs("const(1.5) * sin(2)"), ReactionSpec("saturating", 0.5),
                      ForcingSpec("const", -1.0), InitialData("sine", 0.5),
                      SolveConfig(dt=tg.dt, eps=1e-3),
                      sample_paths(TimeGrid(0.2, 320), 1, seed=5))


def _solve_2d():
    g = build_grid(2, [1.0, 1.0], 9, DIRICHLET)
    tg = TimeGrid(0.02, 20)
    return solve_path(g, tg, _cs("const(0.5) * sin(1) * cos(1)", lengths=(1.0, 1.0)),
                      ReactionSpec("linear", 0.3), ForcingSpec("const", -1.0),
                      InitialData("cone", 0.3, center=(0.3, 0.3), radius=0.3),
                      SolveConfig(dt=tg.dt, eps=1e-3),
                      sample_paths(TimeGrid(0.02, 160), 1, seed=7))


def _lift():
    # the Stefan reduction's boundary lift, the interior step rule with its rate
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.05, 50)
    return _one(_march(g, tg, _cs("const(0.4) * sin(1)"), ReactionSpec(),
                       ForcingSpec("sine", -0.3), InitialData("sine", 0.0),
                       SolveConfig(dt=tg.dt, theta=0.5, eps=1e-6),
                       sample_block(TimeGrid(0.05, 400), 1, 31, [0]), _pick_refinement,
                       partial(step_interior, g, lift=0.4)))


def _signorini():
    g = build_grid(1, [1.0], 31, NEUMANN)
    tg = TimeGrid(0.1, 50)
    return solve_signorini_path(g, tg, _cs("const(0.4) * cos(1)"), ReactionSpec("linear", 0.3),
                                ForcingSpec("edge", -2.0, width=0.15),
                                InitialData("cutoff", 1.0, radius=0.2),
                                SolveConfig(dt=tg.dt, theta=0.75, eps=1e-3),
                                sample_paths(TimeGrid(0.1, 400), 1, seed=12))


def _em():
    g = build_grid(1, [1.0], 31, DIRICHLET)
    tg = TimeGrid(0.1, 50)
    return direct_em_solve(g, tg, _cs("cos(0.5,2.0) * sin(1)"), ReactionSpec("linear", 0.3),
                           ForcingSpec("sine", 0.5), InitialData("sine", 1.0),
                           SolveConfig(dt=tg.dt, theta=0.75),
                           sample_paths(TimeGrid(0.1, 200), 1, seed=11))


def _seams_1d():
    g = build_grid(1, [1.0], 127, DIRICHLET)
    tg = TimeGrid(0.1, 40)
    return solve_path(g, tg, _cs("cos(3.0,3.0) * sin(2)", "linear(0.5,2.0) * poly(0.1,0.5,-0.3)"),
                      ReactionSpec("saturating", 0.5), ForcingSpec("const", -8.0),
                      InitialData("sine", 0.5), SolveConfig(dt=tg.dt, eps=1e-3),
                      sample_paths(TimeGrid(0.1, 320), 2, seed=3))


def _seams_signorini():
    g = build_grid(1, [1.0], 127, NEUMANN)
    tg = TimeGrid(0.1, 40)
    return solve_signorini_path(g, tg, _cs("const(3.0) * cos(1)",
                                           "cos(0.3,5.0) * poly(0.2,-0.4,0.3)"),
                                ReactionSpec("linear", 0.3), ForcingSpec("edge", -2.0, width=0.15),
                                InitialData("cutoff", 1.0, radius=0.2),
                                SolveConfig(dt=tg.dt, theta=0.75, eps=1e-3),
                                sample_paths(TimeGrid(0.1, 320), 2, seed=3))


def _seams_em():
    g = build_grid(1, [1.0], 127, DIRICHLET)
    tg = TimeGrid(0.1, 140)
    return direct_em_solve(g, tg, _cs("cos(0.5,2.0) * sin(1)", "linear(0.3,-1.0) * poly(0.0,1.0,-1.0)"),
                           ReactionSpec("linear", 0.3), ForcingSpec("sine", 0.5),
                           InitialData("sine", 1.0), SolveConfig(dt=tg.dt, theta=0.75),
                           sample_paths(TimeGrid(0.1, 280), 2, seed=1))


def _signorini_2d():
    g = build_grid(2, [1.0, 1.0], 15, NEUMANN)
    tg = TimeGrid(0.05, 20)
    return solve_signorini_path(g, tg, _cs("const(0.5) * cos(1) * cos(1)", lengths=(1.0, 1.0)),
                                ReactionSpec("linear", 0.3), ForcingSpec("edge", -2.0, width=0.15),
                                InitialData("cutoff", 1.0, radius=0.3),
                                SolveConfig(dt=tg.dt, theta=0.75, eps=1e-3),
                                sample_paths(TimeGrid(0.05, 160), 1, seed=12))


def _contact_2d():
    g = build_grid(2, [1.0, 1.0], 31, DIRICHLET)
    tg = TimeGrid(0.05, 25)
    return solve_path(g, tg, _cs("const(0.5) * sin(1) * sin(1)", lengths=(1.0, 1.0)),
                      ReactionSpec(), ForcingSpec("const", -1.0),
                      InitialData("cone", 0.3, center=(0.3, 0.3), radius=0.2),
                      SolveConfig(dt=tg.dt, eps=1e-4),
                      sample_paths(TimeGrid(0.05, 200), 1, seed=21))


# name -> (solve, also compare the diagnostics of the transformed schemes)
CASES = {
    "refined_1d": (_refined_1d, True),
    "solve_2d": (_solve_2d, True),
    "lift": (_lift, True),
    "signorini": (_signorini, True),
    "em": (_em, False),
    "seams_1d": (_seams_1d, True),
    "seams_signorini": (_seams_signorini, True),
    "seams_em": (_seams_em, False),
    "signorini_2d": (_signorini_2d, True),
    "contact_2d": (_contact_2d, True),
}
# the cases whose y may move by CG's tolerance, and by how much relative to max|y_ref|
CG_MOVED = ("solve_2d", "contact_2d", "signorini_2d")
Y_RTOL_2D = 1e-11
# the fewest coefficient blocks each seams_* run grid must span
SEAMS = {"seams_1d": 3, "seams_signorini": 2, "seams_em": 2}


def _bits(a) -> np.ndarray:
    """The bit patterns of a float64 array, the array itself otherwise."""
    a = np.asarray(a)
    return a.view(np.int64) if a.dtype == np.float64 else a


def _record(sol) -> dict:
    d = sol.diagnostics
    return {"y": sol.y, "mu": sol.mu, "newton_iters": d.newton_iters,
            "refine_level": np.array(d.refine_level), "cum_source_sq": d.cum_source_sq}


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as data:
        return dict(data)


@pytest.mark.parametrize("name", sorted(CASES))
def test_march_matches_reference(name, reference):
    solve, transformed = CASES[name]
    got = _record(solve())
    # Euler-Maruyama recorded no Newton counts and no source quadrature
    keys = ("y", "mu", "cum_source_sq", "newton_iters", "refine_level") if transformed \
        else ("y", "mu")
    for key in keys:
        want = reference[f"{name}/{key}"]
        if key == "y" and name in CG_MOVED:
            assert got[key].shape == want.shape
            assert np.abs(got[key] - want).max() <= Y_RTOL_2D * np.abs(want).max(), key
        else:
            assert got[key].shape == want.shape, key
            assert np.array_equal(_bits(got[key]), _bits(want)), key


def test_reference_2d_cases_reach_contact():
    with np.load(REFERENCE) as data:
        y = data["signorini_2d/y"]
        boundary = build_grid(2, [1.0, 1.0], 15, NEUMANN).boundary_mask
        assert (y[:, boundary] < 0.0).any()
        assert data["signorini_2d/newton_iters"].max() >= 2
        assert (data["contact_2d/y"] < 0.0).any()
        assert (data["contact_2d/newton_iters"] >= 2).sum() >= 5


def test_contact_2d_corrects_on_a_box_smaller_than_the_grid(monkeypatch):
    # the sine-basis operator pays for the bounding box of the nodes off the
    # median extra diagonal: at least one partial-contact solve must not need
    # the whole grid
    boxes = []
    box = SineBasis.box
    monkeypatch.setattr(SineBasis, "box", lambda self, dev: boxes.append(box(self, dev))
                        or boxes[-1])
    sol = _contact_2d()
    n = sol.grid.n
    sizes = [(rows.stop - rows.start) * (cols.stop - cols.start)
             for rows, cols in filter(None, boxes)]
    assert sizes  # partial-contact solves
    assert min(sizes) < n * n


@pytest.mark.parametrize("name", ["solve_2d", "contact_2d"])
def test_dirichlet_2d_cases_stop_early_and_divide(name, monkeypatch, cg_stops):
    # the y these cases pin comes through both shortcuts of the sine-basis
    # solve: CG ended once Newton's next active set is certain, and the
    # division that solves a constant extra diagonal (an empty box)
    boxes = []
    box = SineBasis.box
    monkeypatch.setattr(SineBasis, "box", lambda self, dev: boxes.append(box(self, dev))
                        or boxes[-1])
    CASES[name][0]()
    assert sum(cg_stops) >= 1
    assert None in boxes


# the Newton counts the two Dirichlet cases pinned when each step started at y_n
NEWTON_FROM_Y_N = {"solve_2d": 29, "contact_2d": 56}


@pytest.mark.parametrize("name", sorted(NEWTON_FROM_Y_N))
def test_extrapolated_start_takes_fewer_newton_iterations(name, monkeypatch):
    # the same march with every Newton solve started at y_n: the counts pinned
    # before the extrapolated start, more than the march takes now, and a y
    # that differs from the march's by CG's tolerance alone
    sol = CASES[name][0]()
    monkeypatch.setattr(pathsolver, "newton_start", lambda solver, y, y_prev: y)
    from_y_n = CASES[name][0]()
    iters = sol.diagnostics.newton_iters.sum()
    assert from_y_n.diagnostics.newton_iters.sum() == NEWTON_FROM_Y_N[name] > iters
    assert np.abs(sol.y - from_y_n.y).max() <= Y_RTOL_2D * np.abs(from_y_n.y).max()


def test_reference_covers_refinement():
    with np.load(REFERENCE) as data:
        assert int(data["refined_1d/refine_level"]) >= 1
        assert int(data["seams_1d/refine_level"]) >= 1


@pytest.mark.parametrize("name", sorted(SEAMS))
def test_seams_span_several_blocks(name):
    sol = CASES[name][0]()
    run_rows = sol.tg.N * 2**sol.diagnostics.refine_level + 1
    block_rows = max(2, BLOCK_VALUES // sol.grid.n_nodes)
    assert -(-run_rows // block_rows) >= SEAMS[name]


if __name__ == "__main__":
    out = {}
    if REFERENCE.exists():
        with np.load(REFERENCE) as data:
            out = dict(data)
    for name in sys.argv[1:] or CASES:
        out.update({f"{name}/{key}": value for key, value in _record(CASES[name][0]()).items()})
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **out)
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes)", file=sys.stderr)
