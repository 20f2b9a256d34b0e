"""The four benchmark workloads, each driven through svilab's public API.

A workload is built once per interpreter (that is its set-up) and then run
pass after pass.  `run` times only the workload's own work, part by part
(a config, a solve, a check; the whole pool call for `ensemble`), and then
gates its outputs; every path that raises NumericalFailure, every output
that fails its gate and every failing verify row counts as one failed
operation.

Each part is bracketed by `probe()`, a fixed piece of interpreter and
small-array work.  A shared two-core 2.1 GHz VM ran the same 2D solve in
anywhere from 0.36 to 0.63 s as its speed drifted over seconds to minutes,
and the probe slowed with it (correlation 0.88).
`Outcome.host_s` rescales each part to a host that runs the probe in
PROBE_REF_S, which cut the spread of 6 s window medians of a 2D solve from
11% to 2%.  A pass on two workers is probed on both cores at once
(PairedProbe), because keeping both busy slowed each by a varying 30% or so.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# ensemble inputs: the problem seed is --seed modulo this count, so that every
# seed has statistics recorded at the seed commit to gate against
ENSEMBLE_SEEDS = 32
ENSEMBLE_PATHS = 100
# tolerance on each functional's mean, relative to the mean, and on its
# variance, relative to the squared mean.  Per-path changes of 1e-12 relative
# (what a batched solver must meet) move either by ~1e-12 on those scales;
# relative to itself, a variance would amplify them by 1 / (coefficient of
# variation), which is 2.6e3 for int_dydt_l2.
ENSEMBLE_RTOL = 1e-9

CONTACT_EPS = (1e-3, 1e-4)
CONTACT_PATHS = 4
CONTACT_SEED = 2121

# path solves in one pass of the acceptance battery at the seed commit:
# heat_oracle 1, complementarity 6, cauchy_rate 5, energy 101,
# transform_consistency 400 (200 transform + 200 Euler-Maruyama),
# signorini 4, stefan 5, noise_stats 0, determinism 18 (2 run + 16 ensemble)
VERIFY_SOLVES = 540
# determinism's ensemble always runs on a pool (at least 2 workers), so its 16
# solves happen in forked children that a traced pass cannot see
VERIFY_UNTRACED_SOLVES = 16


PROBE_REF_S = 0.01
PROBE_REPEAT = 3  # the fastest of three, so an interrupt does not skew a part
_PROBE_ARRAY = np.arange(64.0)


def probe() -> float:
    """Seconds taken by a fixed mix of bytecode and small numpy operations."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i
    for _ in range(10_000):
        _PROBE_ARRAY * 2.0
    return time.perf_counter() - t0


def _probe_server(conn):
    while conn.recv():
        conn.send(probe())


class PairedProbe:
    """probe() run on both cores at once: here and in a helper process."""

    def __init__(self):
        ctx = multiprocessing.get_context("spawn")
        self._conn, remote = ctx.Pipe()
        self._proc = ctx.Process(target=_probe_server, args=(remote,))
        self._proc.start()
        remote.close()
        self()  # wait until the helper is up

    def __call__(self) -> float:
        self._conn.send(True)
        here = probe()
        return (here + self._conn.recv()) / 2

    def close(self):
        self._conn.send(False)
        self._proc.join(timeout=10)


class Workload:
    """Defaults; `workers` runs the untraced passes, `trace_workers` the traced."""

    workers = 1
    trace_workers = 1
    untraced_solves = 0  # solves per pass that a traced pass cannot see
    measures_fanout = False


@dataclass
class Outcome:
    """One pass: the wall clock of each part with the mean of the probes on
    either side of it, path solves and gated operations."""

    solves: int
    probe: Callable[[], float] = probe
    parts_s: list[float] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @contextmanager
    def part(self):
        before = min(self.probe() for _ in range(PROBE_REPEAT))
        t0 = time.perf_counter()
        yield
        self.parts_s.append(time.perf_counter() - t0)
        self.probes_s.append((before + min(self.probe() for _ in range(PROBE_REPEAT))) / 2)

    @property
    def host_s(self) -> float:
        """The pass's wall clock on a host that runs probe() in PROBE_REF_S."""
        return sum(t * PROBE_REF_S / p for t, p in zip(self.parts_s, self.probes_s))

    def gate(self, ok: bool, label: str):
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def data_digest(path: Path) -> str:
    """sha256 of a CSV after its provenance comment line.

    The comment carries the config hash and the package version, which a
    later change may legitimately alter; the data bytes must not change.
    """
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first.startswith(b"#"):
            h.update(first)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Ensemble(Workload):
    """analysis.ensemble_run on the noisy_ensemble.cfg problem (100 paths)."""

    name = "ensemble"
    workers = 2
    trace_workers = 1  # forked pool workers would drop their spans
    measures_fanout = True

    def __init__(self, seed: int, out_dir: Path):
        from svilab import analysis, cli

        self._analysis = analysis
        cfg = cli.parse_config(CONFIGS / "noisy_ensemble.cfg")
        self.problem_seed = seed % ENSEMBLE_SEEDS
        self.spec = replace(cfg.problem_spec(), seed=self.problem_seed)
        self.n_paths = ENSEMBLE_PATHS
        self.spec.build()
        self.reference = load_reference()["ensemble"][str(self.problem_seed)]

    def inputs(self) -> dict:
        return {"config": "configs/noisy_ensemble.cfg", "problem_seed": self.problem_seed,
                "n_paths": self.n_paths}

    def run(self, workers: int, probe=probe) -> Outcome:
        out = Outcome(self.n_paths, probe)
        with out.part():
            stats = self._analysis.ensemble_run(self.spec, self.n_paths, workers=workers)
        out.attempted = self.n_paths
        out.failures += [f"path failed ({stats.n_failures} of {self.n_paths})"] * stats.n_failures
        for fname, ref in self.reference.items():
            fs = stats.stats[fname]
            scale = abs(ref["mean"])
            for what, got, want, tol in (("mean", fs.mean, ref["mean"], scale),
                                         ("variance", fs.variance, ref["variance"], scale**2)):
                out.gate(abs(got - want) <= ENSEMBLE_RTOL * tol,
                         f"{fname} {what} {got!r} != reference {want!r}")
        return out


class Trajectory(Workload):
    """cli.main on the shipped heat.cfg and stefan_benchmark.cfg (CSV-bound)."""

    name = "trajectory"
    CONFIG_NAMES = ("heat", "stefan_benchmark")

    def __init__(self, seed: int, out_dir: Path):
        from svilab import cli

        self._cli = cli
        self.out_dir = out_dir
        self.configs = {n: CONFIGS / f"{n}.cfg" for n in self.CONFIG_NAMES}
        for path in self.configs.values():
            cli.parse_config(path)
        self.digests = load_reference()["trajectory"]

    def inputs(self) -> dict:
        return {"configs": [f"configs/{n}.cfg" for n in self.CONFIG_NAMES]}

    def run(self, workers: int, probe=probe) -> Outcome:
        outs = {n: self.out_dir / n for n in self.CONFIG_NAMES}
        for d in outs.values():
            shutil.rmtree(d, ignore_errors=True)
        out = Outcome(len(self.CONFIG_NAMES), probe)
        codes = {}
        for n in self.CONFIG_NAMES:
            with out.part():
                codes[n] = self._cli.main(["--config", str(self.configs[n]),
                                           "--out", str(outs[n]), "--quiet"])
        for n, d in outs.items():
            out.gate(codes[n] == 0, f"{n}: exit code {codes[n]}")
            if codes[n] != 0:
                continue
            digest = data_digest(d / "trajectory.csv")
            out.gate(digest == self.digests[n], f"{n}: trajectory.csv digest {digest}")
            with open(d / "summary.csv", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            for row in rows:
                out.gate(row["status"] == "pass", f"{n}: summary row {row['check_name']} fails")
            shutil.rmtree(d, ignore_errors=True)
        return out


class Contact2D(Workload):
    """ProblemSpec.solve + complementarity_report on a 2D noisy contact problem."""

    name = "contact-2d"

    def __init__(self, seed: int, out_dir: Path):
        from svilab import ForcingSpec, InitialData, ProblemSpec, analysis
        from svilab.noise import parse_coefficient

        self._analysis = analysis
        spec = ProblemSpec(
            dim=2, lengths=(1.0, 1.0), n=63, T=0.1, n_steps=100, seed=CONTACT_SEED,
            coefficients=(parse_coefficient("const(0.5) * sin(1) * sin(1)", [1.0, 1.0]),),
            forcing=ForcingSpec("const", -1.0),
            initial=InitialData("cone", 0.3, center=(0.3, 0.3), radius=0.2),
        )
        self.specs = [replace(spec, eps=eps) for eps in CONTACT_EPS]
        self.path_ids = [CONTACT_PATHS * seed + j for j in range(CONTACT_PATHS)]
        spec.build()

    def inputs(self) -> dict:
        return {"n": 63, "eps": list(CONTACT_EPS), "problem_seed": CONTACT_SEED,
                "path_ids": self.path_ids}

    def run(self, workers: int, probe=probe) -> Outcome:
        from svilab import NumericalFailure

        out = Outcome(len(self.path_ids) * len(self.specs), probe)
        results = []
        for pid in self.path_ids:
            for spec in self.specs:
                with out.part():
                    try:
                        sol = spec.solve(pid)
                        rep = self._analysis.complementarity_report(sol.X, sol.eta_X,
                                                                    sol.grid, sol.tg)
                        results.append((pid, spec.eps, rep, None))
                    except NumericalFailure as exc:
                        results.append((pid, spec.eps, None, str(exc)))
        # the run-mode thresholds of the CLI (slack 10)
        for pid, eps, rep, err in results:
            label = f"path {pid} eps {eps:g}"
            if rep is None:
                out.gate(False, f"{label}: {err}")
                continue
            out.gate(rep.min_X >= -10 * eps and rep.max_eta <= 1e-12
                     and abs(rep.pairing) <= 10 * eps,
                     f"{label}: min_X {rep.min_X:.3g} max_eta {rep.max_eta:.3g} "
                     f"pairing {rep.pairing:.3g}")
        return out


class Verify(Workload):
    """verify.run_checks: the nine-criterion acceptance battery."""

    name = "verify"
    workers = 2
    trace_workers = 1  # forked pool workers would drop their spans
    untraced_solves = VERIFY_UNTRACED_SOLVES

    def __init__(self, seed: int, out_dir: Path):
        from svilab import verify

        self._verify = verify

    def inputs(self) -> dict:
        return {"checks": "all", "solves_per_pass": VERIFY_SOLVES}

    def run(self, workers: int, probe=probe) -> Outcome:
        from svilab import NumericalFailure

        # check by check, in the order run_checks(("all",)) runs them
        out = Outcome(VERIFY_SOLVES, probe)
        rows = []
        for name in self._verify.CHECKS:
            with out.part():
                try:
                    rows += self._verify.run_checks((name,), workers=workers, quiet=True)
                except NumericalFailure as exc:
                    rows.append((f"{name} aborted: {exc}", None, None, False))
        for label, value, threshold, ok in rows:
            out.gate(bool(ok), f"{label}: value {value} threshold {threshold}")
        return out


WORKLOADS = {w.name: w for w in (Ensemble, Trajectory, Contact2D, Verify)}
