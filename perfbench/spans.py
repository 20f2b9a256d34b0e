"""Span tracer for the traced pass, installed from outside `svilab`.

A span records name, start, end, parent span and the path_id being solved.
Spans live in flat arrays while the pass runs and are written out once it
ends.  A layer's self time is its spans' durations minus the time their
child spans cover.

Wrappers are bound at every place a target function is reachable: the
defining module, every `svilab` module that imported it with
`from ... import`, and module-level dicts such as `verify.CHECKS`.
Patching only the defining module silently loses the calls made through
the other bindings (Stefan's solves, Signorini's Newton calls, the verify
checks).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _path_arg(index: int, key: str):
    """path_id from the argument at `index` (or keyword `key`)."""

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(key)

    return get


def _paths_arg(args, kwargs):
    """path_id of the BrownianPathSet handed to a march function."""
    paths = args[7] if len(args) > 7 else kwargs.get("paths")
    return None if paths is None else paths.path_id


def _count_newton(tracer, out):
    tracer.counts["pathsolver.newton_iters"] += int(out[1])


def _count_march(tracer, sol):
    c = tracer.counts
    c["pathsolver.paths"] += 1
    c["pathsolver.retried_paths"] += int(sol.diagnostics.refine_level > 0)
    # y, eta and mu are stored for every run-grid node: computed, not measured
    c["pathsolver.traj_bytes"] += 3 * (sol.tg.N + 1) * sol.grid.n_nodes * 8


def _count_write(tracer, path):
    tracer.counts["cli.write_bytes"] += path.stat().st_size


def _count_ensemble(tracer, stats):
    tracer.counts["analysis.path_failures"] += int(stats.n_failures)


VERIFY_CHECKS = (
    "heat_oracle", "complementarity", "cauchy_rate", "energy", "transform_consistency",
    "signorini", "stefan", "noise_stats", "determinism",
)

# (module, attribute, span name, path_id extractor, result hook)
TARGETS = [
    ("noise", "sample_paths", "noise.sample", _path_arg(3, "path_id"), None),
    ("noise", "eval_mu", "noise.coeffs", None, None),
    ("noise", "eval_mu_tilde", "noise.coeffs", None, None),
    ("noise", "eval_mu_derivs", "noise.coeffs", None, None),
    ("transform", "effective_reaction", "transform.coeffs", None, None),
    ("transform", "effective_source", "transform.coeffs", None, None),
    ("pathsolver", "_pick_refinement", "pathsolver.refine", None, None),
    ("pathsolver", "step_interior", "pathsolver.rhs", None, None),
    ("signorini", "step_signorini", "pathsolver.rhs", None, None),
    ("pathsolver", "newton_penalized_solve", "pathsolver.newton", None, _count_newton),
    ("pathsolver", "ImplicitSolver.solve", "pathsolver.linsolve", None, None),
    ("pathsolver", "solve_path", "pathsolver.march", _paths_arg, _count_march),
    ("signorini", "solve_signorini_path", "pathsolver.march", _paths_arg, _count_march),
    ("pathsolver", "direct_em_solve", "pathsolver.em", _paths_arg, _count_march),
    ("pathsolver", "ProblemSpec.solve", "pathsolver.problem", _path_arg(1, "path_id"), None),
    ("signorini", "assemble_coeffs", "signorini.coeffs", None, None),
    ("stefan", "extract_free_boundary", "stefan.front", None, None),
    ("analysis", "path_functionals", "analysis.post", None, None),
    ("analysis", "energy_check", "analysis.post", None, None),
    ("analysis", "complementarity_report", "analysis.post", None, None),
    ("analysis", "_ensemble_worker", "analysis.worker", lambda a, k: a[0][1], None),
    ("analysis", "ensemble_run", "analysis.ensemble", None, _count_ensemble),
    ("cli", "parse_config", "cli.parse", None, None),
    ("cli", "CsvWriter.write", "cli.write", None, _count_write),
] + [("verify", f"check_{c}", f"verify.{c}", None, None) for c in VERIFY_CHECKS]

COUNTERS = ("pathsolver.newton_iters", "pathsolver.paths", "pathsolver.retried_paths",
            "pathsolver.traj_bytes", "cli.write_bytes", "analysis.path_failures")


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.path = array("q")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._path_id = -1
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, path_of=None, on_result=None):
        nid = self._name_id(name)
        names, starts, ends, parents, paths = self.name, self.start, self.end, self.parent, self.path
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer_path = self._path_id
            if path_of is not None:
                pid = path_of(args, kwargs)
                if pid is not None:
                    self._path_id = int(pid)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            paths.append(self._path_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                self._path_id = outer_path
            if on_result is not None:
                on_result(self, out)
            return out

        return span

    def install(self):
        """Bind a wrapper wherever each target is reachable in `svilab`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import svilab.cli  # noqa: F401  (load every module that binds a target)
        import svilab.verify  # noqa: F401

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "svilab" or k.startswith("svilab."))]
        for mod_name, attr, span_name, path_of, on_result in TARGETS:
            owner = sys.modules[f"svilab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, span_name, path_of, on_result))
                self._restore.append((setattr, cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, span_name, path_of, on_result)
            for mod in modules:
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        self._restore.append((dict.__setitem__, ns, key, original))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._restore.append((dict.__setitem__, value, dkey, original))

    def uninstall(self):
        while self._restore:
            setter, obj, key, original = self._restore.pop()
            setter(obj, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # aggregation

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "path_id": np.frombuffer(self.path, dtype=np.int64),
        }

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total duration, self time)."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        own = dur - covered
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        selft = np.bincount(a["name"], weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(by_name: dict, counts: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced pass, as name -> (value, unit).

    `_s` metrics are self times, except `pathsolver.em_s` and
    `verify.<check>_s`, which are whole (inclusive) durations of an
    Euler-Maruyama solve or a check.
    """

    def calls(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[2] for n in names)

    steps = calls("pathsolver.newton")
    paths = counts["pathsolver.paths"]
    write_s = own("cli.write")
    m = {
        "noise.sample_s": (own("noise.sample"), "s"),
        "noise.sample_calls": (calls("noise.sample"), "count"),
        "noise.coeffs_s": (own("noise.coeffs"), "s"),
        "noise.coeffs_calls": (calls("noise.coeffs"), "count"),
        "transform.coeffs_s": (own("transform.coeffs"), "s"),
        "pathsolver.refine_s": (own("pathsolver.refine"), "s"),
        "pathsolver.retry_fraction": (counts["pathsolver.retried_paths"] / paths if paths else 0.0,
                                      "ratio"),
        "pathsolver.rhs_s": (own("pathsolver.rhs"), "s"),
        "pathsolver.newton_s": (own("pathsolver.newton"), "s"),
        "pathsolver.newton_iters": (counts["pathsolver.newton_iters"], "count"),
        "pathsolver.newton_iters_per_step": (
            counts["pathsolver.newton_iters"] / steps if steps else 0.0, "ratio"),
        "pathsolver.linsolve_s": (own("pathsolver.linsolve"), "s"),
        "pathsolver.linsolve_calls": (calls("pathsolver.linsolve"), "count"),
        "pathsolver.march_s": (own("pathsolver.march", "pathsolver.em"), "s"),
        "pathsolver.em_s": (total("pathsolver.em"), "s"),
        "pathsolver.traj_bytes": (counts["pathsolver.traj_bytes"], "computed-bytes"),
        "signorini.coeffs_s": (own("signorini.coeffs"), "s"),
        "stefan.front_s": (own("stefan.front"), "s"),
        "analysis.post_s": (own("analysis.post"), "s"),
        "analysis.path_failures": (counts["analysis.path_failures"], "count"),
        "cli.parse_s": (own("cli.parse"), "s"),
        "cli.write_s": (write_s, "s"),
        "cli.write_bytes": (counts["cli.write_bytes"], "computed-bytes"),
        "cli.write_mb_per_s": (counts["cli.write_bytes"] / 1e6 / write_s if write_s else 0.0,
                               "MB/s"),
    }
    for c in VERIFY_CHECKS:
        m[f"verify.{c}_s"] = (total(f"verify.{c}"), "s")
    return m


# counters that must repeat exactly between two traced passes of one run
EXACT = ("noise.sample_calls", "noise.coeffs_calls", "pathsolver.newton_iters",
         "pathsolver.linsolve_calls", "cli.write_bytes", "pathsolver.traj_bytes")
