"""Tests of the benchmark itself (about a minute).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import spans  # noqa: E402
import workloads  # noqa: E402

# the span every layer of the per-layer table is measured around, by the
# workload the table names for it
NAMED = {
    "ensemble": ["noise.sample", "noise.coeffs", "transform.coeffs", "pathsolver.refine",
                 "pathsolver.rhs", "pathsolver.newton", "pathsolver.linsolve",
                 "pathsolver.march", "analysis.post", "analysis.ensemble"],
    "trajectory": ["cli.parse", "cli.write", "stefan.front", "pathsolver.march"],
    "contact-2d": ["pathsolver.newton", "pathsolver.linsolve", "pathsolver.march",
                   "analysis.post"],
    "verify": ["noise.sample", "pathsolver.em", "signorini.coeffs"]
              + [f"verify.{c}" for c in spans.VERIFY_CHECKS],
}


def _traced_pass(name: str, seed: int = 0):
    out = SCRATCH / name
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, out)
    tracer = spans.Tracer()
    with tracer:
        outcome = wl.run(wl.trace_workers)
    return outcome, tracer


def test_wrappers_reach_every_binding():
    import svilab
    from svilab import analysis, cli, pathsolver, signorini, stefan, verify

    bindings = [(stefan, "solve_path"), (signorini, "newton_penalized_solve"),
                (cli, "energy_check"), (cli, "complementarity_report"),
                (analysis, "solve_path"), (verify, "solve_path"), (verify, "direct_em_solve"),
                (svilab, "solve_path"), (signorini, "_pick_refinement")]
    originals = [getattr(m, a) for m, a in bindings]
    checks = dict(verify.CHECKS)
    solve = pathsolver.ImplicitSolver.solve
    with spans.Tracer():
        for (mod, attr), orig in zip(bindings, originals):
            bound = getattr(mod, attr)
            assert bound is not orig and bound.__wrapped__ is orig, f"{mod.__name__}.{attr}"
        for key, fn in verify.CHECKS.items():
            assert fn.__wrapped__ is checks[key]
        assert pathsolver.ImplicitSolver.solve.__wrapped__ is solve
    for (mod, attr), orig in zip(bindings, originals):
        assert getattr(mod, attr) is orig
    assert verify.CHECKS == checks and pathsolver.ImplicitSolver.solve is solve


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    outer()
    stats = tracer.by_name()
    calls, total, own = stats["outer"]
    assert calls == 2 and stats["inner"][0] == 6
    assert abs(total - own - stats["inner"][1]) < 1e-12
    assert 0.0 < own < total


def test_every_layer_records_calls_on_its_workload():
    for name, expected in NAMED.items():
        outcome, tracer = _traced_pass(name)
        calls = {n: v[0] for n, v in tracer.by_name().items()}
        missing = [s for s in expected if calls.get(s, 0) < 1]
        assert not missing, f"{name}: no spans for {missing}"
        assert not outcome.failures, outcome.failures[:5]
        assert (tracer.counts["pathsolver.paths"] + workloads.WORKLOADS[name].untraced_solves
                == outcome.solves), name
        if name in ("trajectory", "contact-2d"):
            assert tracer.counts["pathsolver.traj_bytes"] > 0
        if name == "trajectory":
            assert tracer.counts["cli.write_bytes"] > 0


def test_exact_counters_repeat():
    runs = []
    for _ in range(2):
        _, tracer = _traced_pass("contact-2d", seed=3)
        runs.append(spans.layer_metrics(tracer.by_name(), tracer.counts))
    for name in spans.EXACT:
        assert runs[0][name] == runs[1][name], name


def test_declared_metrics_match_what_is_measured():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    by_name = {n: (1, 1.0, 1.0) for n in ("cli.write",)}
    measured = spans.layer_metrics(by_name, dict.fromkeys(spans.COUNTERS, 1))
    measured["analysis.fanout_efficiency"] = (1.0, "ratio")
    for m in bench["per_layer"]:
        assert measured[m["name"]][1] == m["unit"], m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_no_result_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for fname, fn in list(globals().items()):
        if fname.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {fname}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {fname}: {exc}")
    sys.exit(1 if failed else 0)
