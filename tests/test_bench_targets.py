"""Every function the benchmark's tracer wraps must exist in svilab.

perfbench/spans.py binds a span around each `(module, attribute)` of its
TARGETS, and perfbench/selftest.py checks that it reaches the bindings in
BINDINGS, names that svilab modules import from the defining one.  A renamed
or deleted target, or a dropped import, would only surface when a traced
benchmark run or its selftest fails, so this test resolves each one here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the bindings of perfbench/selftest.py::test_wrappers_reach_every_binding
BINDINGS = [
    ("stefan", "solve_path"), ("signorini", "newton_penalized_solve"), ("cli", "energy_check"),
    ("cli", "complementarity_report"), ("analysis", "solve_path"), ("verify", "solve_path"),
    ("verify", "direct_em_solve"), ("", "solve_path"), ("signorini", "_pick_refinement"),
]


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, *_ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_bench_target_resolves(module, attr):
    owner = importlib.import_module(f"svilab.{module}")
    if "." in attr:  # a method, wrapped on its class
        cls_name, meth = attr.split(".")
        fn = vars(getattr(owner, cls_name)).get(meth)
    else:
        fn = getattr(owner, attr, None)
    assert callable(fn), f"svilab.{module}.{attr}"


@pytest.mark.parametrize("module, attr", BINDINGS)
def test_bench_binding_resolves(module, attr):
    owner = importlib.import_module(f"svilab.{module}" if module else "svilab")
    assert callable(getattr(owner, attr, None)), f"svilab.{module}.{attr}"
