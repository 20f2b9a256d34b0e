"""Every function the benchmark's tracer wraps must exist in svilab.

perfbench/spans.py binds a span around each `(module, attribute)` of its
TARGETS.  A renamed or deleted target would only surface when a traced
benchmark run fails, so this test resolves each one here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
