"""Record the outputs the benchmark gates against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: each functional's mean and variance of the
`ensemble` workload for every problem seed, and the data digests of the
`trajectory` workload's two trajectory.csv files.  Run it only on the commit
whose outputs are the reference; later commits are gated against that file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from svilab import analysis, cli  # noqa: E402


def main() -> int:
    cfg = cli.parse_config(workloads.CONFIGS / "noisy_ensemble.cfg")
    ensemble = {}
    for seed in range(workloads.ENSEMBLE_SEEDS):
        spec = replace(cfg.problem_spec(), seed=seed)
        stats = analysis.ensemble_run(spec, workloads.ENSEMBLE_PATHS, workers=2)
        if stats.n_failures:
            raise SystemExit(f"problem seed {seed}: {stats.n_failures} paths failed")
        ensemble[str(seed)] = {name: {"mean": fs.mean, "variance": fs.variance}
                               for name, fs in stats.stats.items()}
        print(f"ensemble seed {seed} recorded", flush=True)
    trajectory = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as td:
        for name in workloads.Trajectory.CONFIG_NAMES:
            out = Path(td) / name
            code = cli.main(["--config", str(workloads.CONFIGS / f"{name}.cfg"),
                             "--out", str(out), "--quiet"])
            if code != 0:
                raise SystemExit(f"{name}.cfg exited with {code}")
            trajectory[name] = workloads.data_digest(out / "trajectory.csv")
    workloads.REFERENCE.write_text(json.dumps(
        {"ensemble": ensemble, "trajectory": trajectory}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
