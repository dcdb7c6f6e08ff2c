"""Threshold selection rule, upload cap, and baseline policies."""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpfl.scheduler import (
    apply_cap,
    baseline_select,
    net_scores,
    objective_value,
    schedule,
)
from oracles import (separable_objective_value, threshold_decisions,
                     two_class_cap)


def best_separable(importance, latency, rho, phi, max_size=None):
    """Exhaustive minimum of the separable objective over subsets."""
    k = len(importance)
    best = np.inf
    for r in range(k + 1):
        if max_size is not None and r > max_size:
            break
        for combo in itertools.combinations(range(k), r):
            pi = np.zeros(k, dtype=bool)
            pi[list(combo)] = True
            val = separable_objective_value(pi, importance, latency, rho, phi)
            best = min(best, val)
    return best


class TestThreshold:
    def test_arithmetic(self):
        imp = np.array([10.0, 2.0])
        lat = np.array([5.0, 5.0])
        scores = net_scores(imp, lat, rho=0.5, phi=1.0)
        assert scores[0] == 2.5 and scores[1] == -1.5
        mask = threshold_decisions(imp, lat, rho=0.5, phi=1.0)
        assert mask.tolist() == [True, False]

    def test_exact_tie_passes(self):
        mask = threshold_decisions([4.0], [4.0], rho=0.5, phi=1.0)
        assert mask[0]

    def test_rho_one_keeps_everything_useful(self):
        imp = np.array([3.0, 0.0, 7.0])
        lat = np.array([10.0, 10.0, 10.0])
        mask = threshold_decisions(imp, lat, rho=1.0, phi=1.0)
        assert mask.all()

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        imp = rng.uniform(0.0, 5.0, size=8)
        lat = rng.uniform(0.1, 3.0, size=8)
        base = threshold_decisions(imp, lat, rho=0.35, phi=0.7)
        for c in (1e-3, 7.0, 1e4):
            scaled = threshold_decisions(c * imp, c * lat, rho=0.35, phi=0.7)
            assert np.array_equal(base, scaled)

    def test_each_server_flips_at_most_once_in_rho(self):
        rng = np.random.default_rng(5)
        imp = rng.uniform(0.1, 5.0, size=6)
        lat = rng.uniform(0.1, 3.0, size=6)
        prev = np.zeros(6, dtype=bool)
        for rho in np.linspace(0.0, 1.0, 101):
            cur = threshold_decisions(imp, lat, rho, phi=1.0)
            assert np.all(cur >= prev)
            prev = cur
        assert prev.all()


class TestExhaustiveOptimality:
    def test_threshold_minimizes_separable_objective(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            imp = rng.uniform(0.0, 4.0, size=k)
            lat = rng.uniform(0.05, 2.0, size=k)
            rho = float(rng.uniform(0.1, 0.9))
            phi = float(rng.uniform(0.2, 2.0))
            pi = threshold_decisions(imp, lat, rho, phi)
            val = separable_objective_value(pi, imp, lat, rho, phi)
            best = best_separable(imp, lat, rho, phi)
            assert abs(val - best) <= 1e-12 * max(1.0, abs(best))

    def test_cap_keeps_the_best_bounded_subset(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            imp = rng.uniform(0.0, 4.0, size=k)
            lat = rng.uniform(0.05, 2.0, size=k)
            rho = float(rng.uniform(0.1, 0.9))
            phi = float(rng.uniform(0.2, 2.0))
            a_max = int(rng.integers(1, k + 1))
            scores = net_scores(imp, lat, rho, phi)
            pi, _ = apply_cap(scores >= 0.0, np.zeros(k, dtype=bool),
                              scores, np.zeros(k), a_max)
            assert pi.sum() <= a_max
            val = separable_objective_value(pi, imp, lat, rho, phi)
            best = best_separable(imp, lat, rho, phi, max_size=a_max)
            assert abs(val - best) <= 1e-12 * max(1.0, abs(best))


class TestCap:
    def test_forced_rank_ahead_of_better_scores(self):
        scores = np.array([0.1, 5.0, 4.0])
        forced = np.array([True, False, False])
        pi, capped = apply_cap(scores >= 0.0, forced, scores,
                               np.array([2.0, 0.0, 0.0]), a_max=1)
        assert pi.tolist() == [True, False, False]
        assert capped

    def test_staler_forced_first(self):
        scores = np.array([3.0, 1.0, 2.0])
        forced = np.ones(3, dtype=bool)
        pi, capped = apply_cap(forced, forced, scores,
                               np.array([1.0, 3.0, 2.0]), a_max=2)
        assert pi.tolist() == [False, True, True]
        assert capped

    def test_score_then_index_breaks_ties(self):
        scores = np.array([2.0, 2.0, 3.0, 2.0])
        mask = scores >= 0.0
        pi, _ = apply_cap(mask, np.zeros(4, dtype=bool), scores,
                          np.zeros(4), a_max=2)
        assert pi.tolist() == [True, False, True, False]


class TestSchedule:
    def test_round_trip_selection(self):
        imp = np.array([10.0, 0.1, 6.0])
        lat = np.array([1.0, 4.0, 1.5])
        pi, capped = schedule(imp, lat, np.zeros(3, dtype=bool), rho=0.5,
                              phi=1.0, a_max=2)
        assert pi.tolist() == [True, False, True]
        assert not capped

    def test_fallback_selects_single_best_scorer(self):
        imp = np.zeros(4)
        lat = np.array([3.0, 1.0, 2.0, 5.0])
        pi, capped = schedule(imp, lat, np.zeros(4, dtype=bool), rho=0.0,
                              phi=1.0, a_max=4)
        assert pi.tolist() == [False, True, False, False]
        assert not capped

    def test_forced_suppresses_fallback(self):
        imp = np.zeros(3)
        lat = np.array([3.0, 1.0, 2.0])
        forced = np.array([True, False, False])
        pi, _ = schedule(imp, lat, forced, rho=0.0, phi=1.0, a_max=3)
        assert pi.tolist() == [True, False, False]

    def test_cap_drops_weakest_passer(self):
        imp = np.array([5.0, 4.0, 3.0])
        lat = np.zeros(3)
        pi, capped = schedule(imp, lat, np.zeros(3, dtype=bool), rho=1.0,
                              phi=1.0, a_max=2)
        assert pi.tolist() == [True, True, False]
        assert capped


class TestObjectives:
    def test_max_form_arithmetic(self):
        pi = np.array([True, False, True])
        imp = np.array([2.0, 9.0, 3.0])
        lat = np.array([1.0, 0.5, 4.0])
        val = objective_value(pi, imp, lat, rho=0.25, phi=2.0)
        assert abs(val - (-0.25 * 2.0 * 5.0 + 0.75 * 4.0)) < 1e-15

    def test_separable_form_arithmetic(self):
        pi = np.array([True, True, False])
        imp = np.array([2.0, 9.0, 3.0])
        lat = np.array([1.0, 0.5, 4.0])
        val = separable_objective_value(pi, imp, lat, rho=0.25, phi=2.0)
        assert abs(val - (-0.25 * 2.0 * 11.0 + 0.75 * 1.5)) < 1e-15


class TestBaselines:
    def test_full_selects_everyone(self):
        assert baseline_select("full", 5, 3, np.random.default_rng(0)).all()

    def test_random_subset_size_and_determinism(self):
        a = baseline_select("random", 10, 4, np.random.default_rng(9))
        b = baseline_select("random", 10, 4, np.random.default_rng(9))
        assert a.sum() == 4
        assert np.array_equal(a, b)
        wide = baseline_select("random", 3, 7, np.random.default_rng(1))
        assert wide.all()


@settings(max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=7),
    rho=st.floats(min_value=0.05, max_value=0.95),
    phi=st.floats(min_value=0.1, max_value=3.0),
)
def test_threshold_exhaustive_property(seed, k, rho, phi):
    """Threshold decisions reach the exhaustive separable optimum."""
    rng = np.random.default_rng(seed)
    imp = rng.uniform(0.0, 5.0, size=k)
    lat = rng.uniform(0.01, 3.0, size=k)
    pi = threshold_decisions(imp, lat, rho, phi)
    val = separable_objective_value(pi, imp, lat, rho, phi)
    best = best_separable(imp, lat, rho, phi)
    assert val <= best + 1e-12 * max(1.0, abs(best))


# keys with ties, signed zeros, NaN and infinities
_KEYS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def cap_cases(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    masks = st.lists(st.booleans(), min_size=k, max_size=k)
    keys = st.lists(_KEYS, min_size=k, max_size=k)
    return (np.array(draw(masks)), np.array(draw(masks)),
            np.array(draw(keys)), np.array(draw(keys)),
            draw(st.integers(min_value=1, max_value=k + 1)))


@settings(max_examples=300)
@given(cap_cases())
def test_one_sort_cap_matches_the_two_order_cap(case):
    """apply_cap ranks its candidates in one sort; the two-order oracle
    ranks forced servers and plain passers apart and joins them."""
    pi, capped = apply_cap(*case)
    want_pi, want_capped = two_class_cap(*case)
    assert pi.dtype == want_pi.dtype
    assert pi.tolist() == want_pi.tolist() and capped == want_capped


@st.composite
def schedule_cases(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    values = st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=k,
                      max_size=k)
    return (np.array(draw(values)), np.array(draw(values)),
            np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k))),
            draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(st.floats(min_value=0.1, max_value=3.0)),
            draw(st.integers(min_value=1, max_value=k + 1)))


@settings(max_examples=300)
@given(schedule_cases())
# every score negative and nothing forced: the fallback picks the best
@example((np.zeros(4), np.array([3.0, 1.0, 1.0, 5.0]), np.zeros(4, bool),
          0.0, 1.0, 2))
def test_schedule_matches_the_two_order_cap(case):
    """schedule is the two-order cap of the threshold passers and the
    forced servers, or, when there are none, the single best scorer."""
    importance, latency, forced, rho, phi, a_max = case
    scores = net_scores(importance, latency, rho, phi)
    passes = scores >= 0.0
    if (passes | forced).any():
        want = two_class_cap(passes, forced, scores, np.zeros(len(scores)),
                             a_max)
    else:
        want = (np.arange(len(scores)) == np.argmax(scores), False)
    pi, capped = schedule(*case)
    assert pi.tolist() == want[0].tolist() and capped == want[1]
