"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion.  The check implementations live in svilab.verify and
are shared with the CLI's verify mode.

Each criterion's rows must also equal, by repr, the rows recorded in
ROWS_FILE, so a change that moves any value, threshold or verdict shows.
A change that moves a row on purpose records the file again and says why:

    PYTHONPATH=src python tests/test_acceptance.py --record
"""

import json
import sys
import time
from pathlib import Path

import pytest

from svilab import analysis
from svilab.errors import NewtonError, NumericalFailure
from svilab.pathsolver import ProblemSpec
from svilab.verify import CHECKS, check_energy

ROWS_FILE = Path(__file__).resolve().parent / "data" / "verify_rows.json"

RUNTIME_BUDGET_S = {
    "heat_oracle": 5.0,
    "complementarity": 60.0,
    "cauchy_rate": 120.0,
    "energy": 300.0,
    "transform_consistency": 300.0,
    "signorini": 120.0,
    "stefan": 120.0,
    "noise_stats": 60.0,
    "determinism": 120.0,
}

CRITERION = {
    "heat_oracle": "1: heat-equation oracle",
    "complementarity": "2: complementarity across the eps sweep",
    "cauchy_rate": "3: penalization Cauchy rate",
    "energy": "4: energy estimates on 100 paths",
    "transform_consistency": "5: direct EM vs transform route",
    "signorini": "6: Signorini variant",
    "stefan": "7: Stefan benchmark",
    "noise_stats": "8: noise statistics",
    "determinism": "9: byte-identical reruns",
}


def _recorded_rows() -> dict:
    return json.loads(ROWS_FILE.read_text())


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance_criterion(name):
    start = time.time()
    rows = CHECKS[name](workers=1)
    elapsed = time.time() - start
    ok = all(passed for *_, passed in rows)
    print(f"{'PASS' if ok else 'FAIL'} criterion {CRITERION[name]} "
          f"({elapsed:.1f}s, {len(rows)} checks)")
    for label, value, threshold, passed in rows:
        print(f"  {'pass' if passed else 'FAIL'} {label}: value={value:.6g} "
              f"threshold={threshold:.6g}")
    failed = [label for label, _, _, passed in rows if not passed]
    assert not failed, f"criterion {CRITERION[name]} failed: {failed}"
    assert elapsed <= RUNTIME_BUDGET_S[name], (
        f"criterion {CRITERION[name]} exceeded its runtime budget: "
        f"{elapsed:.1f}s > {RUNTIME_BUDGET_S[name]:.0f}s"
    )
    assert [repr(row) for row in rows] == _recorded_rows()[name]


def test_recorded_rows_cover_every_criterion():
    assert list(_recorded_rows()) == list(CHECKS)


@pytest.mark.usefixtures("fresh_pool")  # its workers are forked under the patch
@pytest.mark.parametrize("workers", [1, 2])
def test_energy_check_stops_at_the_first_failed_path(monkeypatch, workers):
    solve_paths = ProblemSpec.solve_paths

    def failing(self, ids):
        ids = list(ids)
        return [NewtonError(f"path {pid} failed on purpose") if pid in (17, 61) else sol
                for pid, sol in zip(ids, solve_paths(self, ids))]

    monkeypatch.setattr(ProblemSpec, "solve_paths", failing)
    with pytest.raises(NumericalFailure, match="^path 17 failed on purpose$") as exc:
        check_energy(workers=workers)
    assert type(exc.value) is NumericalFailure
    # both ids sit in one batch at one worker, in separate ones at two (the
    # check's problem stores as many values per path as the default one)
    batches = analysis.path_batches(ProblemSpec(), 100, workers)
    assert len({lo for _, lo, stop in batches for pid in (17, 61) if lo <= pid < stop}) == workers


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_acceptance.py --record")
    rows = {name: [repr(row) for row in check(workers=1)] for name, check in CHECKS.items()}
    ROWS_FILE.parent.mkdir(exist_ok=True)
    ROWS_FILE.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {ROWS_FILE}", file=sys.stderr)
