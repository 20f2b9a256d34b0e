"""svilab benchmark: four workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the checkout's own `src/svilab` is
imported, never an installed copy.  Workloads (see BENCHMARK.json):

    ensemble    analysis.ensemble_run, noisy_ensemble.cfg problem, 100 paths, 2 workers
    trajectory  cli.main on configs/heat.cfg and configs/stefan_benchmark.cfg
    contact-2d  ProblemSpec.solve + complementarity_report, 2D n=63, eps 1e-3 and 1e-4
    verify      verify.run_checks(("all",)), 2 workers

`--trace 0` starts INTERPRETERS fresh interpreters one after another.  Each
sets up; while fewer than S seconds of passes have been measured, the next
one also runs untraced passes for S / INTERPRETERS seconds (at least one).
Passes inside one interpreter agreed within 1% while two interpreters of the
same 2D workload differed by 24%, so the measured time is spread over
interpreters.  It reports the end-to-end metrics:

    setup_s      median set-up time over all interpreters
    wall_s       median time of one pass
    paths_per_s  median of path solves per second over passes
    peak_rss_mb  largest RUSAGE_SELF maximum of a measuring interpreter (the
                 maximum over their pool children is printed apart)

Times are rescaled to a reference host speed by the probe described in
workloads.py: on a shared two-core VM whose speed drifted by up to 1.8x,
raw medians of 20 s runs spread by 15-27% from run to run.  The raw wall
clock, the highest percentile with ten samples beyond it and the spread over
passes are printed and recorded as well.

`--trace 1` runs one untraced pass at the traced worker count (one worker:
forked pool workers would drop their spans), for ensemble one more on its
two workers, then two traced passes, and reports the per-layer metrics.  Spans are recorded by wrappers that perfbench/spans.py installs
from outside; exact counters must agree between the two traced passes.

Each run prints every metric by name with its unit, then one JSON line.
Outputs, spans and a run record go to .bench_out/ in the checkout.  Every
process runs with one BLAS thread, so processes x threads stays within two
cores.  Failed operations (a path raising NumericalFailure, an output failing
its workload's gate, a failing verify row) are reported as `failed` out of
`attempted`; their ratio is printed as failure_fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_REF_S = 0.01  # workloads.PROBE_REF_S; this process does not import numpy
INTERPRETERS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its last stdout line as JSON."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the deadline")
    finally:
        # reap pool children a failed worker may have left in its session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    """Interquartile range over median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def tail(values: list[float]) -> tuple[int | None, float | None]:
    """Highest integer percentile with at least ten samples beyond it."""
    k = len(values)
    if k < 20:
        return None, None
    p = int(100 * (1 - 10 / k))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def commit_id() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    versions = {"python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {"commit": commit_id(), "nproc": len(os.sched_getaffinity(0)), **versions}


def host_setup(sample: dict) -> float:
    return sample["setup_s"] * PROBE_REF_S / sample["setup_probe_s"]


def end_to_end(runs: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    passes = [p for r in runs for p in r["passes"]]
    walls = [p["host_s"] for p in passes]
    rates = [p["solves"] / p["host_s"] for p in passes]
    setup = [host_setup(s) for s in setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "paths_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (max(r["rss_self_mb"] for r in runs), "MiB"),
    }
    p, value = tail(walls)
    raw = [sum(p["parts_s"]) for p in passes]
    extra = {
        "wall_s_samples": len(walls),
        "wall_s_tail": {"percentile": p, "value": value},
        "spread": {"setup_s": spread(setup), "wall_s": spread(walls),
                   "paths_per_s": spread(rates)},
        "peak_rss_children_mb": max(r["rss_children_mb"] for r in runs),
        "setup_samples": setup,
        "pass_walls": walls,
        "interpreter_medians": [statistics.median(p["host_s"] for p in r["passes"])
                                for r in runs],
        "raw": {"setup_s": [s["setup_s"] for s in setups], "pass_walls": raw,
                "wall_s": statistics.median(raw)},
    }
    return metrics, extra


LAYER_MAP = {
    "trajectory": "cli.write has the largest self time",
    "contact-2d": "pathsolver.linsolve has the largest self time",
    "ensemble": "analysis.post + noise.coeffs exceeds pathsolver.newton",
}
INCLUSIVE = {"pathsolver.em_s"}


def layer_map(workload: str, layers: dict) -> tuple[str, bool] | None:
    if workload not in LAYER_MAP:
        return None
    own = {k: v for k, (v, unit) in layers.items()
           if unit == "s" and k not in INCLUSIVE and not k.startswith("verify.")}
    if workload == "ensemble":
        holds = own["analysis.post_s"] + own["noise.coeffs_s"] > own["pathsolver.newton_s"]
    else:
        expected = "cli.write_s" if workload == "trajectory" else "pathsolver.linsolve_s"
        holds = max(own, key=own.get) == expected
    return LAYER_MAP[workload], holds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S

    for needed in (ROOT / "src" / "svilab" / "__init__.py", ROOT / "configs",
                   ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a svilab checkout",
                  file=sys.stderr)
            return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(out_dir / "tmp"),
               **dict.fromkeys(THREAD_VARS, "1"))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out_dir)]

    try:
        if args.trace:
            runs = [run_child(common + ["--trace", "1"], env, deadline)]
            setups = runs
        else:
            runs, setups, measured = [], [], 0.0
            for _ in range(INTERPRETERS):
                if measured < args.seconds:
                    setups.append(run_child(common + ["--seconds",
                                                      str(args.seconds / INTERPRETERS)],
                                            env, deadline))
                    runs.append(setups[-1])
                    measured += sum(sum(p["parts_s"]) for p in runs[-1]["passes"])
                else:
                    setups.append(run_child(common + ["--setup-only"], env, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir / "tmp", ignore_errors=True)

    passes = [p for r in runs for p in r["passes"]]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    res = runs[0]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "inputs": res["inputs"],
              "workers": res["workers"], "attempted": attempted, "failures": failures}
    if args.trace:
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        check = layer_map(args.workload, metrics)
        record.update(layers=res["layers"], layer_spread=res["layer_spread"],
                      span_calls=res["span_calls"], trace_workers=res["trace_workers"],
                      untraced_wall_s=res["untraced_wall_s"],
                      traced_wall_s=res["traced_wall_s"], overhead_s=res["overhead_s"],
                      layer_map=check and {"claim": check[0], "holds": check[1]})
    else:
        metrics, extra = end_to_end(runs, setups)
        record.update(metrics={k: v[0] for k, v in metrics.items()}, **extra)
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    env_rec = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={env_rec['commit']} "
          f"nproc={env_rec['nproc']} python={env_rec['python']} numpy={env_rec['numpy']} "
          f"scipy={env_rec['scipy']}")
    for name, (value, unit) in sorted(metrics.items()):
        note = ""
        if not args.trace and name in record["spread"]:
            note = f"  (spread {record['spread'][name]:.3f})"
        elif args.trace and name in record["layer_spread"]:
            note = f"  (spread {record['layer_spread'][name]:.3f})"
        print(f"{name} = {value:.6g} {unit}{note}")
    if args.trace:
        print(f"tracing overhead = {record['overhead_s']:.6g} s over "
              f"{record['untraced_wall_s']:.6g} s untraced at {record['trace_workers']} worker(s)")
        if record["layer_map"]:
            print(f"layer map: {record['layer_map']['claim']}: "
                  f"{'holds' if record['layer_map']['holds'] else 'CONTRADICTED'}")
    else:
        t = record["wall_s_tail"]
        print(f"wall_s raw median = {record['raw']['wall_s']:.6g} s over "
              f"{record['wall_s_samples']} passes; "
              + (f"p{t['percentile']} = {t['value']:.6g} s" if t["percentile"] else
                 "no percentile has ten samples beyond it"))
        print(f"peak_rss_children_mb = {record['peak_rss_children_mb']:.6g} MiB")
    print(f"failure_fraction = {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} of {attempted})")
    for f in failures[:20]:
        print(f"FAILED {f}")

    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
