"""Golden outputs: rounds.csv and audit.csv of five short reference runs.

The files under tests/golden were written by the code these tests guard.
Headers and integer columns must match exactly; float columns match
within 1e-9 relative, so a different BLAS build cannot flake the test.
"""

import csv
import io
import math
import os

import pytest

from hpfl.experiment import rounds_csv_text, run_audit, run_experiment
from hpfl.scenario import Scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
ROUNDS = 12
SCENARIOS = {
    "desk": {},
    "mlp": {"model": "mlp", "hidden": 32},
    "quadratic": {"family": "quadratic"},
    "equal": {"allocation": "equal"},
    "floor": {"k": 10, "n_k": 8, "total_b": 2e6, "b_min": 2e4},
}
INT_COLUMNS = {"round", "A_eff", "runtime_us", "holds"}
REL_TOL = 1e-9


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _assert_matches(got_text, golden_name):
    with open(os.path.join(GOLDEN_DIR, golden_name)) as fh:
        want = _rows(fh.read())
    got = _rows(got_text)
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), "row count changed"
    header = want[0]
    for got_row, want_row in zip(got[1:], want[1:]):
        for col, g, w in zip(header, got_row, want_row):
            where = "%s round %s column %s" % (golden_name, want_row[0], col)
            if col in INT_COLUMNS:
                assert g == w, where
            else:
                assert math.isclose(float(g), float(w), rel_tol=REL_TOL), \
                    "%s: %s != %s" % (where, g, w)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_rounds_csv_matches_golden(name):
    scn = Scenario(rounds=ROUNDS, **SCENARIOS[name])
    _assert_matches(rounds_csv_text(run_experiment(scn).records),
                    os.path.join(name, "rounds.csv"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_audit_csv_matches_golden(name, tmp_path):
    scn = Scenario(rounds=ROUNDS, **SCENARIOS[name])
    run_audit(scn, out_dir=str(tmp_path))
    with open(tmp_path / "audit.csv") as fh:
        _assert_matches(fh.read(), os.path.join(name, "audit.csv"))
