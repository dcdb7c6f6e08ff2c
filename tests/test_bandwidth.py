"""Lambert-W solver, per-link deadline inversion, and allocators."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hpfl.bandwidth import (
    AllocationProblem,
    ESGroup,
    InfeasibleAllocationError,
    bisect_link_bandwidth,
    equal_split,
    lambert_w,
    power_limited_rate,
    progressive_fill,
    solve_link_bandwidth,
    tcom,
    uplink_rate,
)

N0 = 10.0 ** -20.4


def make_problem(rng, n_es, n_ue, total_b=5e6, b_min=1.0, with_es_link=True):
    groups = []
    for _ in range(n_es):
        h_ue = 10.0 ** rng.uniform(-9.0, -7.5, size=n_ue)
        grp = ESGroup(
            tcmp_ue=rng.uniform(0.005, 0.05, size=n_ue),
            ph_ue=0.01 * h_ue,
            ph_es=0.1 * 10.0 ** rng.uniform(-9.0, -7.5),
            z_ue=float(rng.uniform(2e5, 2e6)),
            z_es=float(rng.uniform(2e5, 2e6)) if with_es_link else 0.0,
        )
        groups.append(grp)
    return AllocationProblem(groups=tuple(groups), n0=N0, total_b=total_b,
                             b_min=b_min)


def ue_finish_times(grp, b_ue, n0):
    return grp.tcmp_ue + tcom(grp.z_ue, uplink_rate(b_ue, 1.0, grp.ph_ue, n0))


def group_latency(grp, b_ue, b_es, n0):
    g = float(np.max(ue_finish_times(grp, b_ue, n0)))
    return g + tcom(grp.z_es, uplink_rate(b_es, 1.0, grp.ph_es, n0))


class TestLambertW:
    def test_special_values(self):
        assert lambert_w(-1.0 / np.e) == -1.0
        assert abs(lambert_w(-2.0 * np.exp(-2.0)) + 2.0) < 1e-14
        assert abs(lambert_w(-np.log(2.0) / 2.0) + np.log(4.0)) < 1e-14

    def test_defining_identity_branch_minus1(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(-1.0 / np.e + 1e-12, -1e-12, size=400)
        w = lambert_w(z)
        assert np.all(w <= -1.0)
        assert np.all(np.abs(w * np.exp(w) - z) <= 1e-11 * np.abs(z))

    def test_matches_scipy_away_from_branch_point(self):
        rng = np.random.default_rng(7)
        zm = rng.uniform(-1.0 / np.e + 1e-8, -1e-10, size=300)
        ours = lambert_w(zm)
        ref = scipy.special.lambertw(zm, -1).real
        assert np.all(np.abs(ours - ref) <= 1e-9 * np.abs(ref))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)
        with pytest.raises(ValueError):
            lambert_w(0.1)
        with pytest.raises(ValueError):
            lambert_w(0.0)


class TestLinkSolver:
    def test_reference_instance(self):
        """p=0.01, h=1e-8, Z=1e6 bits, 1.0 s deadline."""
        b = solve_link_bandwidth(1e6, 0.01, 1e-8, N0, 1.0, who="ue")
        assert abs(b - 53041.32) < 0.01
        oracle = bisect_link_bandwidth(1e6, 0.01, 1e-8, N0, 1.0)
        assert abs(b - oracle) <= 1e-6 * oracle
        achieved = tcom(1e6, uplink_rate(b, 0.01, 1e-8, N0))
        assert abs(achieved - 1.0) <= 1e-9

    def test_matches_bisection_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = float(rng.uniform(1e5, 5e6))
            p = float(rng.uniform(0.005, 0.2))
            h = 10.0 ** rng.uniform(-9.0, -7.0)
            target = float(rng.uniform(0.05, 5.0))
            if z / target >= 0.99 * power_limited_rate(p, h, N0):
                continue
            b = solve_link_bandwidth(z, p, h, N0, target)
            oracle = bisect_link_bandwidth(z, p, h, N0, target)
            assert abs(b - oracle) <= 1e-6 * oracle
            achieved = tcom(z, uplink_rate(b, p, h, N0))
            assert abs(achieved - target) <= 1e-6 * target

    def test_identical_links_get_identical_bandwidth(self):
        b1 = solve_link_bandwidth(1e6, 0.01, 1e-8, N0, 0.5)
        b2 = solve_link_bandwidth(1e6, 0.01, 1e-8, N0, 0.5)
        assert b1 == b2

    def test_bandwidth_decreases_to_zero_as_deadline_grows(self):
        targets = 10.0 ** np.linspace(-0.5, 4.0, 40)
        bs = np.array([solve_link_bandwidth(1e6, 0.01, 1e-8, N0, t)
                       for t in targets])
        assert np.all(np.diff(bs) < 0.0)
        assert bs[-1] < 10.0
        assert bs[-1] > 0.0

    def test_zero_payload_needs_no_bandwidth(self):
        assert solve_link_bandwidth(0.0, 0.01, 1e-8, N0, 1.0) == 0.0

    def test_unreachable_deadline_raises_naming_link(self):
        with pytest.raises(InfeasibleAllocationError, match="ue 3"):
            solve_link_bandwidth(1e6, 0.01, 1e-8, N0, 1e-6, who="ue 3")
        with pytest.raises(InfeasibleAllocationError, match="not positive"):
            solve_link_bandwidth(1e6, 0.01, 1e-8, N0, 0.0)


class TestEqualSplit:
    def test_two_ues_share_the_ue_tier_equally(self):
        grp = ESGroup(tcmp_ue=np.array([0.01, 0.02]),
                      ph_ue=np.array([1e-10, 2e-10]),
                      ph_es=1e-9, z_ue=1e6, z_es=0.0)
        problem = AllocationProblem(groups=(grp,), n0=N0, total_b=5e6,
                                    b_min=1e3)
        res = equal_split(problem)
        b = np.atleast_1d(res.b_ue[0])
        assert b[0] == b[1] == 2.5e6
        assert res.b_es[0] == 0.0
        assert abs(res.used_b - 5e6) < 1e-6

    def test_total_equals_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            problem = make_problem(rng, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)))
            res = equal_split(problem)
            assert abs(res.used_b - problem.total_b) <= 1e-9 * problem.total_b

    def test_single_link_matches_progressive_fill(self):
        grp = ESGroup(tcmp_ue=np.array([0.01]), ph_ue=np.array([1e-10]),
                      ph_es=1e-9, z_ue=1e6, z_es=0.0)
        problem = AllocationProblem(groups=(grp,), n0=N0, total_b=5e6,
                                    b_min=1e3)
        eq = equal_split(problem)
        pf = progressive_fill(problem)
        assert abs(eq.achieved_o - pf.achieved_o) <= 1e-6 * eq.achieved_o
        assert abs(float(np.atleast_1d(pf.b_ue[0])[0]) - 5e6) <= 1e-6 * 5e6


class TestProgressiveFill:
    def test_single_path_receives_entire_budget(self):
        grp = ESGroup(tcmp_ue=np.array([0.02]), ph_ue=np.array([3e-10]),
                      ph_es=1e-9, z_ue=1e6, z_es=0.0)
        problem = AllocationProblem(groups=(grp,), n0=N0, total_b=5e6,
                                    b_min=1e3)
        res = progressive_fill(problem)
        assert abs(float(np.atleast_1d(res.b_ue[0])[0]) - 5e6) <= 1e-6 * 5e6
        assert abs(res.used_b - 5e6) <= 1e-6 * 5e6

    def test_identical_groups_split_equally(self):
        def grp():
            return ESGroup(tcmp_ue=np.array([0.01, 0.01]),
                           ph_ue=np.array([2e-10, 2e-10]),
                           ph_es=2e-9, z_ue=1e6, z_es=1e6)
        problem = AllocationProblem(groups=(grp(), grp()), n0=N0,
                                    total_b=5e6, b_min=1.0)
        res = progressive_fill(problem)
        tot0 = float(np.sum(res.b_ue[0])) + res.b_es[0]
        tot1 = float(np.sum(res.b_ue[1])) + res.b_es[1]
        assert abs(tot0 - tot1) <= 1e-5 * tot0
        assert abs(res.latencies[0] - res.latencies[1]) <= 1e-6 * res.latencies[0]
        b = np.atleast_1d(res.b_ue[0])
        assert abs(b[0] - b[1]) <= 1e-6 * b[0]

    def test_budget_exhausted_within_tolerance(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            problem = make_problem(rng, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)))
            res = progressive_fill(problem)
            assert res.used_b <= problem.total_b * (1.0 + 1e-9)
            assert res.used_b >= problem.total_b * (1.0 - 1e-6)

    def test_equal_finish_within_and_across_groups(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            problem = make_problem(rng, int(rng.integers(2, 4)),
                                   int(rng.integers(2, 4)))
            res = progressive_fill(problem)
            for gi, grp in enumerate(problem.groups):
                t = ue_finish_times(grp, np.atleast_1d(res.b_ue[gi]),
                                    problem.n0)
                assert np.max(t) - np.min(t) <= 1e-6 * np.max(t)
            spread = np.max(res.latencies) - np.min(res.latencies)
            assert spread <= 1e-6 * np.max(res.latencies)

    def test_never_beaten_by_equal_split(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            problem = make_problem(rng, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)),
                                   with_es_link=bool(rng.integers(0, 2)))
            eq = equal_split(problem)
            pf = progressive_fill(problem)
            assert pf.achieved_o <= eq.achieved_o * (1.0 + 1e-6)

    def test_more_bandwidth_never_hurts(self):
        rng = np.random.default_rng(43)
        problem = make_problem(rng, 3, 3, total_b=2e6)
        wide = AllocationProblem(groups=problem.groups, n0=problem.n0,
                                 total_b=4e6, b_min=problem.b_min)
        assert progressive_fill(wide).achieved_o <= \
            progressive_fill(problem).achieved_o * (1.0 + 1e-9)

    def test_moving_bandwidth_between_ues_worsens_the_group(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            problem = make_problem(rng, 2, 3)
            res = progressive_fill(problem)
            gi = int(rng.integers(0, len(problem.groups)))
            grp = problem.groups[gi]
            b = np.atleast_1d(res.b_ue[gi]).copy()
            base = float(np.max(ue_finish_times(grp, b, problem.n0)))
            i, j = rng.choice(b.shape[0], size=2, replace=False)
            eps = 1e-3 * b[i]
            b[i] -= eps
            b[j] += eps
            worse = float(np.max(ue_finish_times(grp, b, problem.n0)))
            assert worse > base * (1.0 + 1e-10)

    def test_allocations_respect_floor(self):
        rng = np.random.default_rng(53)
        problem = make_problem(rng, 3, 3, total_b=5e6, b_min=5e4)
        res = progressive_fill(problem)
        for gi, grp in enumerate(problem.groups):
            b = np.atleast_1d(res.b_ue[gi])
            if grp.z_ue > 0.0:
                assert np.all(b >= problem.b_min * (1.0 - 1e-9))
            if grp.z_es > 0.0:
                assert res.b_es[gi] >= problem.b_min * (1.0 - 1e-9)
        assert res.used_b <= problem.total_b * (1.0 + 1e-9)
        assert np.max(res.latencies) / np.min(res.latencies) - 1.0 <= 1e-6

    def test_servers_above_the_floor_finish_together(self):
        """A floor up to the equal share: servers with a link above it
        finish at the common latency, servers fully at it no later."""
        rng = np.random.default_rng(61)
        for _ in range(60):
            n_es, n_ue = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            base = make_problem(rng, n_es, n_ue,
                                total_b=float(rng.uniform(1e6, 2e7)))
            share = base.total_b / (n_es * (n_ue + 1))
            problem = AllocationProblem(groups=base.groups, n0=N0,
                                        total_b=base.total_b,
                                        b_min=float(rng.uniform(0.0, share)))
            res = progressive_fill(problem)
            lat = np.asarray(res.latencies)
            above = [max(np.max(b_ue), b_es) > problem.b_min * (1.0 + 1e-9)
                     for b_ue, b_es in zip(res.b_ue, res.b_es)]
            slowest_above = np.min(lat[above], initial=np.inf)
            assert lat.max() <= slowest_above * (1.0 + 1e-6)

    def test_floor_beyond_budget_is_infeasible(self):
        rng = np.random.default_rng(59)
        problem = make_problem(rng, 2, 3, total_b=1e5, b_min=5e4)
        with pytest.raises(InfeasibleAllocationError, match="floor"):
            progressive_fill(problem)
        with pytest.raises(InfeasibleAllocationError, match="floor"):
            equal_split(problem)

    def test_no_groups_is_infeasible(self):
        problem = AllocationProblem(groups=(), n0=N0, total_b=5e6, b_min=1e3)
        with pytest.raises(InfeasibleAllocationError):
            progressive_fill(problem)
        with pytest.raises(InfeasibleAllocationError):
            equal_split(problem)


def ragged_problem(b_min):
    """Groups of 3, 1, 2 and 4 UEs; one without UE and one without ES payload."""
    rng = np.random.default_rng(67)
    groups = tuple(
        ESGroup(tcmp_ue=rng.uniform(0.005, 0.05, size=n),
                ph_ue=0.01 * 10.0 ** rng.uniform(-9.0, -7.5, size=n),
                ph_es=0.1 * 10.0 ** rng.uniform(-9.0, -7.5),
                z_ue=z_ue, z_es=z_es)
        for n, z_ue, z_es in ((3, 1e6, 8e5), (1, 0.0, 1e6), (2, 5e5, 0.0),
                              (4, 1.2e6, 1e6)))
    return AllocationProblem(groups=groups, n0=N0, total_b=5e6, b_min=b_min)


@pytest.mark.parametrize("allocate", [equal_split, progressive_fill])
@pytest.mark.parametrize("b_min", [1.0, 2e5])
def test_result_contract_on_ragged_groups(allocate, b_min):
    """One UE bandwidth array per group, in the group's own length; no
    bandwidth on links without payload; latencies priced group by group."""
    problem = ragged_problem(b_min)
    res = allocate(problem)
    assert len(res.b_ue) == len(problem.groups)
    assert res.b_es.shape == (len(problem.groups),)
    for grp, b_ue, b_es, lat in zip(problem.groups, res.b_ue, res.b_es,
                                    res.latencies):
        assert b_ue.shape == grp.tcmp_ue.shape
        if grp.z_ue == 0.0:
            assert np.all(b_ue == 0.0)
        if grp.z_es == 0.0:
            assert b_es == 0.0
        assert lat == pytest.approx(group_latency(grp, b_ue, b_es, problem.n0),
                                    rel=1e-12)
    assert res.achieved_o == np.max(res.latencies)
    used = sum(float(np.sum(b)) for b in res.b_ue) + float(np.sum(res.b_es))
    assert res.used_b == pytest.approx(used, rel=1e-12)
    assert res.used_b <= problem.total_b * (1.0 + 1e-9)


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_es=st.integers(min_value=1, max_value=3),
    n_ue=st.integers(min_value=1, max_value=3),
    budget=st.floats(min_value=1e6, max_value=2e7),
)
def test_progressive_fill_invariants(seed, n_es, n_ue, budget):
    """Budget window, floor, group-equal finish, equal-split dominance."""
    rng = np.random.default_rng(seed)
    problem = make_problem(rng, n_es, n_ue, total_b=budget, b_min=1.0)
    res = progressive_fill(problem)
    assert res.used_b <= budget * (1.0 + 1e-9)
    assert res.used_b >= budget * (1.0 - 1e-6)
    for gi, grp in enumerate(problem.groups):
        b = np.atleast_1d(res.b_ue[gi])
        assert np.all(b >= problem.b_min * (1.0 - 1e-9))
        t = ue_finish_times(grp, b, problem.n0)
        assert np.max(t) - np.min(t) <= 1e-6 * np.max(t)
    assert res.achieved_o <= equal_split(problem).achieved_o * (1.0 + 1e-6)
