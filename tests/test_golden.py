"""Golden outputs: rounds.csv, records.csv and audit.csv of five short
reference runs, and sweep.csv of a two-value rho sweep over the desk
defaults.

records.csv pins the selection bookkeeping of each round record: the
selection, the delivered versions, both staleness tuples, the cap flag
and the schedule objective.  Tuples are written space-separated.

The files under tests/golden were written by the code these tests guard.
Headers, integer and tuple columns must match exactly; float columns match
within 1e-9 relative, so a different BLAS build cannot flake the test.
"""

import csv
import functools
import io
import math
import os

import pytest

from hpfl.experiment import (rounds_csv_text, run_audit, run_experiment,
                             run_sweep)
from hpfl.scenario import Scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
ROUNDS = 12
SCENARIOS = {
    "desk": {},
    "mlp": {"model": "mlp", "hidden": 32},
    "quadratic": {"family": "quadratic"},
    "equal": {"allocation": "equal"},
    "floor": {"k": 10, "n_k": 8, "total_b": 2e6, "b_min": 4.5e4},
}
EXACT_COLUMNS = {"round", "A_eff", "runtime_us", "holds", "pi", "versions",
                 "staleness_used", "staleness_after", "capped"}
RECORD_FIELDS = ("round", "pi", "versions", "staleness_used",
                 "staleness_after", "capped", "objective")
REL_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _records(name):
    """Round records of the reference run ``name``, run once per session."""
    return tuple(run_experiment(
        Scenario(rounds=ROUNDS, **SCENARIOS[name])).records)


def _cell(value):
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(int(value))


def records_csv_text(records):
    """CSV text of the RECORD_FIELDS of each round record."""
    lines = [",".join(RECORD_FIELDS)]
    for rec in records:
        lines.append(",".join(_cell(getattr(rec, f)) for f in RECORD_FIELDS))
    return "\n".join(lines) + "\n"


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
            where = "%s row %s column %s" % (golden_name, want_row[0], col)
            if col in EXACT_COLUMNS:
                assert g == w, where
            else:
                assert math.isclose(float(g), float(w), rel_tol=REL_TOL), \
                    "%s: %s != %s" % (where, g, w)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_rounds_csv_matches_golden(name):
    _assert_matches(rounds_csv_text(_records(name)),
                    os.path.join(name, "rounds.csv"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_records_csv_matches_golden(name):
    _assert_matches(records_csv_text(_records(name)),
                    os.path.join(name, "records.csv"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_audit_csv_matches_golden(name, tmp_path):
    scn = Scenario(rounds=ROUNDS, **SCENARIOS[name])
    run_audit(scn, out_dir=str(tmp_path))
    with open(tmp_path / "audit.csv") as fh:
        _assert_matches(fh.read(), os.path.join(name, "audit.csv"))


def test_sweep_csv_matches_golden(tmp_path):
    run_sweep(Scenario(rounds=ROUNDS), "rho", (0.3, 0.7), out_dir=str(tmp_path))
    with open(tmp_path / "sweep.csv") as fh:
        _assert_matches(fh.read(), os.path.join("sweep", "sweep.csv"))
