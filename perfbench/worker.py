"""Run one workload in this (fresh) interpreter and print one JSON line.

    worker.py --workload W --seed N --out DIR --setup-only
    worker.py --workload W --seed N --out DIR --seconds S --trace 0|1

Set-up is timed from the top of this file: it covers importing svilab and
building the workload's problem, up to the first timed solve.  It is
followed by three probes (see workloads.probe) so that it too can be
rescaled to the reference host.  perfbench/run.py starts this script; it is
not meant to be run by hand.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

TRACED_PASSES = 2


def _pass(o: workloads.Outcome) -> dict:
    return {"parts_s": o.parts_s, "probes_s": o.probes_s, "host_s": o.host_s,
            "solves": o.solves, "attempted": o.attempted, "failures": o.failures}


def timed(wl, seconds: float, probe) -> list[dict]:
    """Untraced passes until `seconds` have elapsed (at least one)."""
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(_pass(wl.run(wl.workers, probe)))
        if time.perf_counter() - t_start >= seconds:
            return passes


def traced(wl, out_dir: Path, probe) -> dict:
    """An untraced pass at the traced worker count (and, for ensemble, one on
    its pool for analysis.fanout_efficiency, else 1), then TRACED_PASSES
    traced passes."""
    import spans

    base = wl.run(wl.trace_workers)
    passes = [_pass(base)]
    fanout = 1.0
    if wl.measures_fanout:
        pooled = wl.run(wl.workers, probe)
        passes.append(_pass(pooled))
        # raw wall clocks: the two passes ran back to back but under different probes
        fanout = sum(base.parts_s) / (wl.workers * sum(pooled.parts_s))
    layer_runs, span_calls = [], []
    for i in range(TRACED_PASSES):
        tracer = spans.Tracer()
        with tracer:
            o = wl.run(wl.trace_workers)
        by_name = tracer.by_name()
        layer_runs.append(spans.layer_metrics(by_name, tracer.counts))
        span_calls.append({n: v[0] for n, v in by_name.items()})
        passes.append(_pass(o))
        if tracer.counts["pathsolver.paths"] + wl.untraced_solves != o.solves:
            print(f"warning: {tracer.counts['pathsolver.paths']} path solves traced, "
                  f"{o.solves} counted per pass", file=sys.stderr)
        if i == TRACED_PASSES - 1:
            tracer.save(out_dir / f"spans-{wl.name}.npz")
    traced_walls = [p["host_s"] for p in passes[-TRACED_PASSES:]]

    layers, spread, repeat_failures = {}, {}, []
    for name, (_, unit) in layer_runs[0].items():
        values = [run[name][0] for run in layer_runs]
        if name in spans.EXACT and len(set(values)) != 1:
            repeat_failures.append(f"{name} did not repeat exactly: {values}")
        med = values[0] if len(set(values)) == 1 else statistics.median(values)
        layers[name] = [med, unit]
        spread[name] = (max(values) - min(values)) / med if med else 0.0
    passes[-1]["attempted"] += 1
    passes[-1]["failures"] += repeat_failures

    layers["analysis.fanout_efficiency"] = [fanout, "ratio"]
    return {
        "passes": passes,
        "layers": layers,
        "layer_spread": spread,
        "span_calls": span_calls[-1],
        "trace_workers": wl.trace_workers,
        "untraced_wall_s": base.host_s,
        "traced_wall_s": traced_walls,
        "overhead_s": statistics.median(traced_walls) - base.host_s,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out_dir = Path(args.out)

    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = time.perf_counter() - _T0
    setup_probe_s = statistics.median(workloads.probe() for _ in range(3))
    import svilab

    if not Path(svilab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"svilab imported from {svilab.__file__}, not from {SRC}")
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
    if not args.setup_only:
        result["inputs"] = wl.inputs()
        result["workers"] = wl.workers
        probe = workloads.PairedProbe() if wl.workers > 1 else workloads.probe
        try:
            if args.trace:
                result.update(traced(wl, out_dir, probe))
            else:
                result["passes"] = timed(wl, args.seconds, probe)
        finally:
            if wl.workers > 1:
                probe.close()
        kib = 1024.0
        result["rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib
        result["rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
