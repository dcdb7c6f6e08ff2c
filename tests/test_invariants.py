"""Whole-run invariants over random small scenarios.

Every record of every run must keep the upload cap, the staleness budget
and the version order, and every bandwidth allocation must stay within
the budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpfl import hierarchy
from hpfl.experiment import run_experiment
from hpfl.scenario import Scenario

BUDGET_SLACK = 1e-9

scenarios = st.builds(
    Scenario,
    k=st.integers(1, 4),
    n_k=st.integers(1, 3),
    rounds=st.integers(1, 6),
    s_max=st.integers(0, 3),
    a_max=st.integers(1, 4),
    mode=st.sampled_from(["hpfl", "hfl"]),
    selection=st.sampled_from(["proposed", "full", "random"]),
    allocation=st.sampled_from(["progressive", "equal"]),
    n_train=st.just(8),
    n_eval=st.just(8),
    seed=st.integers(0, 10 ** 6),
)


def _budget_checked(allocator, used):
    def checked(problem):
        result = allocator(problem)
        assert result.used_b <= problem.total_b * (1.0 + BUDGET_SLACK)
        used.append(result.used_b)
        return result
    return checked


@settings(max_examples=30)
@given(scn=scenarios)
def test_every_record_keeps_the_invariants(scn):
    used = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("progressive_fill", "equal_split"):
            mp.setattr(hierarchy, name,
                       _budget_checked(getattr(hierarchy, name), used))
        records = run_experiment(scn).records
    assert len(records) == scn.rounds
    assert len(used) >= scn.rounds
    last_version = np.zeros(scn.k, dtype=int)
    for rec in records:
        assert rec.a_eff == sum(rec.pi) >= 1
        if scn.selection != "full":
            assert rec.a_eff <= scn.a_max
        assert max(rec.staleness_used) <= scn.s_max
        assert max(rec.staleness_after) <= scn.s_max
        assert max(rec.versions) <= rec.round
        for i, version in zip(np.flatnonzero(rec.pi), rec.versions):
            assert version >= last_version[i]
            last_version[i] = version
