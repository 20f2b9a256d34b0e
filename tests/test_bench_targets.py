"""Every function the benchmark's tracer wraps must exist in svilab.

perfbench/spans.py binds a span around each `(module, attribute)` of its
TARGETS, and perfbench/selftest.py checks that it reaches the bindings in
BINDINGS, names that svilab modules import from the defining one.  A renamed
or deleted target, or a dropped import, would only surface when a traced
benchmark run or its selftest fails, so this test resolves each one here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

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


def _unused_imports():
    """(module, name) of every import in svilab marked `# noqa: F401`, the
    package itself as module ""."""
    found = set()
    for path in sorted((ROOT / "src" / "svilab").glob("*.py")):
        lines = path.read_text().splitlines()
        module = "" if path.stem == "__init__" else path.stem
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found |= {(module, alias.asname or alias.name) for alias in node.names
                          if "# noqa: F401" in lines[alias.lineno - 1]}
    return found


def test_every_unused_import_is_a_tracer_binding():
    # an import kept only for the tracer is one of BINDINGS, so it goes
    # when the binding does
    found = _unused_imports()
    assert found, "no tracer-only import found"
    assert found <= set(BINDINGS), sorted(found - set(BINDINGS))
