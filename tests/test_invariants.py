"""Whole-run invariants over random small scenarios.

Every record of every run must keep the upload cap, the staleness budget
and the version order.  The recorded staleness is the age ``round -
version`` of each server, saturated at the budget, and the proposed
schedule uploads every server whose age has reached the budget, up to the
cap.  Each round makes one bandwidth allocation, over exactly the selected
servers, and its slowest server sets the round's latency.  Every
allocation must stay within the budget and give each payload link at
least the floor b_min, and a progressive fill must finish every server
that has a link above the floor at one common time.  The floor is drawn
up to the equal share of the budget over the links of the largest
selection a round can make (all servers under "full", else ``a_max`` of
them), so it binds in some runs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpfl import hierarchy
from hpfl.experiment import run_experiment
from hpfl.scenario import Scenario

BUDGET_SLACK = 1e-9
FLOOR_SLACK = 1e-9
FINISH_SPREAD = 1e-6


@st.composite
def scenarios(draw):
    scn = draw(st.builds(
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
    ))
    # a round solves over its selection only: at most min(a_max, k) servers,
    # all k under "full"
    largest = scn.k if scn.selection == "full" else min(scn.a_max, scn.k)
    share = scn.total_b / (largest * (scn.n_k + 1))
    return scn.replace(b_min=draw(st.floats(0.0, share)))


def _checked(name, calls):
    """The engine's allocator ``name``, asserting the allocation invariants.

    Every engine link carries a payload, because z_bits is positive.
    """
    allocator = getattr(hierarchy, name)

    def checked(problem):
        result = allocator(problem)
        assert result.used_b <= problem.total_b * (1.0 + BUDGET_SLACK)
        links = np.column_stack([result.b_ue, result.b_es])
        assert links.min() >= problem.b_min * (1.0 - FLOOR_SLACK)
        if name == "progressive_fill":
            lat = np.asarray(result.latencies)
            above = links.max(axis=1) > problem.b_min * (1.0 + FLOOR_SLACK)
            assert lat.max() <= np.min(lat[above], initial=np.inf) \
                * (1.0 + FINISH_SPREAD)
        calls.append((problem, result))
        return result
    return checked


def checked_run(scn):
    """Run scn with both allocators checked; returns (records, calls)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("progressive_fill", "equal_split"):
            mp.setattr(hierarchy, name, _checked(name, calls))
        records = run_experiment(scn).records
    return records, calls


# a floor equal to the share of the one selected server's four links fills
# the budget: every link sits at b_min
FLOOR_FILLS_BUDGET = Scenario(k=3, n_k=3, n_train=8, n_eval=8, s_max=0,
                              a_max=1, rounds=1, b_min=5e6 / 4)


@settings(max_examples=30)
@given(scn=scenarios())
@example(scn=FLOOR_FILLS_BUDGET)
def test_every_record_keeps_the_invariants(scn):
    records, calls = checked_run(scn)
    assert len(records) == scn.rounds
    assert len(calls) == scn.rounds
    for rec, (problem, result) in zip(records, calls):
        assert problem.ph.shape[0] == rec.a_eff
        assert rec.latency == np.max(result.latencies)
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


# s_max=0 forces every server left out of a round, three of them into a
# cap of one
FORCED_OVER_CAP = Scenario(k=4, n_k=1, n_train=8, n_eval=8, s_max=0, a_max=1,
                           rounds=4)
# a_max * (s_max + 1) = k: from round 2 on, a server falls due every round
DUE_IN_TURN = Scenario(k=3, n_k=1, n_train=8, n_eval=8, s_max=2, a_max=1,
                       rounds=6)


@settings(max_examples=50)
@given(scn=scenarios())
@example(scn=FORCED_OVER_CAP)
@example(scn=DUE_IN_TURN)
def test_staleness_and_forcing_follow_the_versions(scn):
    """Rebuild each server's version from the records and derive the rest.

    A server's version is the round after its last upload (0 before any);
    its age at round t is t - version, and it is due once the age reaches
    max(s_max, 1).
    """
    version = np.zeros(scn.k, dtype=int)
    due_age = max(scn.s_max, 1)
    for rec in run_experiment(scn).records:
        pi = np.asarray(rec.pi, dtype=bool)
        age = rec.round - version
        assert rec.versions == tuple(version[pi])
        assert rec.staleness_used == tuple(np.minimum(age[pi], scn.s_max))
        if scn.selection == "proposed":
            due = age >= due_age
            if due.sum() <= scn.a_max:
                assert pi[due].all()
            else:
                assert pi.sum() == scn.a_max and due[pi].all()
        version[pi] = rec.round + 1
        assert rec.staleness_after == tuple(
            np.minimum(rec.round + 1 - version, scn.s_max))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("over", [
    pytest.param(dict(k=10, n_k=8, total_b=2e6, b_min=4.5e4), id="k10-n8"),
    pytest.param(dict(b_min=2.1e5), id="desk"),
])
def test_floor_binding_runs_finish_together(over, seed):
    """Where the floor binds, every server still finishes at one time."""
    _, calls = checked_run(Scenario(rounds=12, seed=seed, **over))
    floored = 0
    for problem, result in calls:
        lat = np.asarray(result.latencies)
        assert lat.max() / lat.min() - 1.0 <= FINISH_SPREAD
        floored += min(result.b_ue.min(), result.b_es.min()) \
            <= problem.b_min * (1.0 + FLOOR_SLACK)
    assert floored
