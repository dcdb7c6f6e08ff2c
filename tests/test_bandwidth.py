"""Lambert-W solver, per-link deadline inversion, and allocators."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpfl import bandwidth, hierarchy
from hpfl.bandwidth import (
    AllocationProblem,
    InfeasibleAllocationError,
    deadline_bandwidth,
    equal_split,
    progressive_fill,
    tcom,
    uplink_rate,
)
from hpfl.experiment import run_experiment
from hpfl.scenario import Scenario
from oracles import (bisect_link_bandwidth, power_limited_rate,
                     solve_link_bandwidth)

N0 = 10.0 ** -20.4


def make_problem(rng, n_es, n_ue, total_b=5e6, b_min=1.0):
    """n_es ESs of n_ue UEs each, their compute times, gains and the one
    payload every link uploads drawn from rng."""
    z = float(rng.uniform(2e5, 2e6))
    tcmp_ue, ph = np.empty((n_es, n_ue)), np.empty((n_es, n_ue + 1))
    for k in range(n_es):
        h_ue = 10.0 ** rng.uniform(-9.0, -7.5, size=n_ue)
        tcmp_ue[k] = rng.uniform(0.005, 0.05, size=n_ue)
        ph[k, :-1], ph[k, -1] = 0.01 * h_ue, 0.1 * 10.0 ** rng.uniform(-9.0, -7.5)
    return AllocationProblem(tcmp_ue, ph, z, N0, total_b, b_min)


def links(res):
    """(K, M+1) bandwidths of a result, each ES's own link last."""
    return np.column_stack([res.b_ue, res.b_es])


def ue_finish_times(problem, k, b_ue):
    return problem.tcmp_ue[k] + tcom(problem.z, uplink_rate(
        b_ue, problem.ph[k, :-1], problem.n0))


def server_latency(problem, k, b_ue, b_es):
    g = float(np.max(ue_finish_times(problem, k, b_ue)))
    return g + tcom(problem.z, uplink_rate(b_es, problem.ph[k, -1],
                                                  problem.n0))


def warm(z):
    """W_{-1} from the solution at a nearby point, as successive pricing
    calls of one solve start from the previous call's W."""
    return bandwidth._w_lower(z, bandwidth._w_lower(0.9 * np.asarray(z)))


class TestLambertW:
    """W_{-1} on (-1/e, 0), the branch deadline_bandwidth prices links with,
    from the series or asymptotic start and from a warm one."""

    STARTS = (bandwidth._w_lower, warm)

    def test_special_values(self):
        for w_lower in self.STARTS:
            assert abs(w_lower(-2.0 * np.exp(-2.0)) + 2.0) < 1e-14
            assert abs(w_lower(-np.log(2.0) / 2.0) + np.log(4.0)) < 1e-14

    def test_defining_identity_branch_minus1(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(-1.0 / np.e + 1e-12, -1e-12, size=400)
        for w_lower in self.STARTS:
            w = w_lower(z)
            assert np.all(w <= -1.0)
            assert np.all(np.abs(w * np.exp(w) - z) <= 1e-11 * np.abs(z))

    def test_matches_scipy_away_from_branch_point(self):
        rng = np.random.default_rng(7)
        zm = rng.uniform(-1.0 / np.e + 1e-8, -1e-10, size=300)
        ref = scipy.special.lambertw(zm, -1).real
        for w_lower in self.STARTS:
            assert np.all(np.abs(w_lower(zm) - ref) <= 1e-9 * np.abs(ref))


@settings(max_examples=200)
@given(z=st.floats(-1.0 / np.e + 1e-12, -1e-12),
       start=st.one_of(st.floats(-60.0, -1.0), st.floats(-1e300, -1.0)))
def test_w_lower_converges_from_any_start_on_the_branch(z, start):
    """A start anywhere on the branch, near the root or far from it (then
    Halley iteration falls back to the series or asymptotic start), ends
    within the 1e-12 residual and below -1."""
    with np.errstate(all="ignore"):     # as under deadline_bandwidth
        w = bandwidth._w_lower(np.array([z]), np.array([start]))
    assert w[0] <= -1.0
    assert abs(w[0] * np.exp(w[0]) - z) <= 1e-12 * abs(z)


class TestLinkSolver:
    def test_reference_instance(self):
        """p=0.01, h=1e-8, Z=1e6 bits, 1.0 s deadline."""
        b = solve_link_bandwidth(1e6, 0.01, 1e-8, N0, 1.0, who="ue")
        assert abs(b - 53041.32) < 0.01
        oracle = bisect_link_bandwidth(1e6, 0.01, 1e-8, N0, 1.0)
        assert abs(b - oracle) <= 1e-6 * oracle
        achieved = tcom(1e6, uplink_rate(b, 0.01 * 1e-8, N0))
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
            achieved = tcom(z, uplink_rate(b, p * h, N0))
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

    def test_closed_form_miss_raises_naming_link(self, monkeypatch):
        """A closed form off by 0.1% is reported, not replaced by bisection."""
        exact = bandwidth.deadline_bandwidth
        monkeypatch.setattr(bandwidth, "deadline_bandwidth",
                            lambda *args: 1.001 * exact(*args))
        with pytest.raises(RuntimeError, match=r"^ue 3: .* misses the deadline "
                           r"by 0\.000\d+ relative$") as err:
            solve_link_bandwidth(1e6, 0.01, 1e-8, N0, 1.0, who="ue 3")
        assert not isinstance(err.value, InfeasibleAllocationError)


class TestEqualSplit:
    def test_two_ues_share_the_ue_tier_equally(self):
        """Two UEs and their ES: each of the three links gets B / 3."""
        problem = AllocationProblem(
            tcmp_ue=np.array([[0.01, 0.02]]), ph=np.array([[1e-10, 2e-10, 1e-9]]),
            z=1e6, n0=N0, total_b=6e6, b_min=1e3)
        res = equal_split(problem)
        b = res.b_ue[0]
        assert b[0] == b[1] == res.b_es[0] == 2e6
        assert abs(res.used_b - 6e6) < 1e-6

    def test_total_equals_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            problem = make_problem(rng, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)))
            res = equal_split(problem)
            assert abs(res.used_b - problem.total_b) <= 1e-9 * problem.total_b

    def test_symmetric_path_matches_progressive_fill(self):
        """A UE that computes in no time and its ES, on equal gains: the
        two uploads are alike, so the equal split is min-max optimal."""
        problem = AllocationProblem(
            tcmp_ue=np.array([[0.0]]), ph=np.array([[1e-9, 1e-9]]),
            z=1e6, n0=N0, total_b=5e6, b_min=1e3)
        eq = equal_split(problem)
        pf = progressive_fill(problem)
        assert abs(eq.achieved_o - pf.achieved_o) <= 1e-6 * eq.achieved_o
        assert abs(pf.b_ue[0, 0] - 2.5e6) <= 1e-6 * 5e6


class TestProgressiveFill:
    def test_single_path_receives_entire_budget(self):
        """One UE and its ES spend all of B, split where the path's
        latency is least."""
        problem = AllocationProblem(
            tcmp_ue=np.array([[0.02]]), ph=np.array([[3e-10, 1e-9]]),
            z=1e6, n0=N0, total_b=5e6, b_min=1e3)
        res = progressive_fill(problem)
        assert abs(res.b_ue[0, 0] + res.b_es[0] - 5e6) <= 1e-6 * 5e6
        assert abs(res.used_b - 5e6) <= 1e-6 * 5e6
        best = scipy.optimize.minimize_scalar(
            lambda b: server_latency(problem, 0, np.array([b]), 5e6 - b),
            bounds=(1e3, 5e6 - 1e3), method="bounded",
            options={"xatol": 1e-3})
        assert abs(res.achieved_o - best.fun) <= 1e-9 * best.fun

    def test_identical_groups_split_equally(self):
        problem = AllocationProblem(
            tcmp_ue=np.full((2, 2), 0.01), ph=np.tile([2e-10, 2e-10, 2e-9], (2, 1)),
            z=1e6, n0=N0, total_b=5e6, b_min=1.0)
        res = progressive_fill(problem)
        tot0, tot1 = links(res).sum(axis=1)
        assert abs(tot0 - tot1) <= 1e-5 * tot0
        assert abs(res.latencies[0] - res.latencies[1]) <= 1e-6 * res.latencies[0]
        b = res.b_ue[0]
        assert abs(b[0] - b[1]) <= 1e-6 * b[0]

    def test_budget_exhausted_within_tolerance(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            problem = make_problem(rng, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)))
            res = progressive_fill(problem)
            assert res.used_b <= problem.total_b * (1.0 + 1e-9)
            assert res.used_b >= problem.total_b * (1.0 - 1e-9)

    def test_equal_finish_within_and_across_groups(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            problem = make_problem(rng, int(rng.integers(2, 4)),
                                   int(rng.integers(2, 4)))
            res = progressive_fill(problem)
            for k, b_ue in enumerate(res.b_ue):
                t = ue_finish_times(problem, k, b_ue)
                assert np.max(t) - np.min(t) <= 1e-6 * np.max(t)
            spread = np.max(res.latencies) - np.min(res.latencies)
            assert spread <= 1e-6 * np.max(res.latencies)

    def test_never_beaten_by_equal_split(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            problem = make_problem(rng, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)))
            eq = equal_split(problem)
            pf = progressive_fill(problem)
            assert pf.achieved_o <= eq.achieved_o * (1.0 + 1e-6)

    def test_more_bandwidth_never_hurts(self):
        rng = np.random.default_rng(43)
        problem = make_problem(rng, 3, 3, total_b=2e6)
        wide = dataclasses.replace(problem, total_b=4e6)
        assert progressive_fill(wide).achieved_o <= \
            progressive_fill(problem).achieved_o * (1.0 + 1e-9)

    def test_moving_bandwidth_between_ues_worsens_the_group(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            problem = make_problem(rng, 2, 3)
            res = progressive_fill(problem)
            k = int(rng.integers(0, problem.ph.shape[0]))
            b = res.b_ue[k].copy()
            base = float(np.max(ue_finish_times(problem, k, b)))
            i, j = rng.choice(b.shape[0], size=2, replace=False)
            eps = 1e-3 * b[i]
            b[i] -= eps
            b[j] += eps
            worse = float(np.max(ue_finish_times(problem, k, b)))
            assert worse > base * (1.0 + 1e-10)

    def test_allocations_respect_floor(self):
        rng = np.random.default_rng(53)
        problem = make_problem(rng, 3, 3, total_b=5e6, b_min=5e4)
        res = progressive_fill(problem)
        assert np.all(links(res) >= problem.b_min * (1.0 - 1e-9))
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
            problem = dataclasses.replace(
                base, b_min=float(rng.uniform(0.0, share)))
            res = progressive_fill(problem)
            lat = np.asarray(res.latencies)
            above = links(res).max(axis=1) > problem.b_min * (1.0 + 1e-9)
            slowest_above = np.min(lat[above], initial=np.inf)
            assert lat.max() <= slowest_above * (1.0 + 1e-6)

    def test_floor_that_fills_the_budget_is_the_equal_split(self):
        """b_min = B / L: every link sits at the floor, although the float
        sum of the L floors may exceed B by an ulp."""
        rng = np.random.default_rng(71)
        base = make_problem(rng, 3, 3)
        problem = dataclasses.replace(base, b_min=base.total_b / 12)
        res = progressive_fill(problem)
        np.testing.assert_allclose(links(res), problem.b_min, rtol=1e-9)
        assert res.used_b <= problem.total_b * (1.0 + 1e-9)
        np.testing.assert_array_equal(res.latencies,
                                      equal_split(problem).latencies)

    def test_floor_beyond_budget_is_infeasible(self):
        rng = np.random.default_rng(59)
        problem = make_problem(rng, 2, 3, total_b=1e5, b_min=5e4)
        with pytest.raises(InfeasibleAllocationError, match="floor"):
            progressive_fill(problem)
        with pytest.raises(InfeasibleAllocationError, match="floor"):
            equal_split(problem)

    def test_no_groups_is_infeasible(self):
        problem = AllocationProblem(np.zeros((0, 1)), np.ones((0, 2)),
                                    1e6, N0, 5e6, 1e3)
        with pytest.raises(InfeasibleAllocationError):
            progressive_fill(problem)
        with pytest.raises(InfeasibleAllocationError):
            equal_split(problem)


def ragged(rng, n_es, n_ue, z, total_b, b_min):
    """n_es ESs of n_ue UEs under uneven load: UE compute times from 0 to
    50 ms and UE gains over three decades, so the servers' finish times
    start far apart."""
    tcmp_ue = rng.uniform(0.0, 0.05, size=(n_es, n_ue))
    ph = np.column_stack([0.01 * 10.0 ** rng.uniform(-10.0, -7.0, (n_es, n_ue)),
                          0.1 * 10.0 ** rng.uniform(-9.0, -7.5, n_es)])
    return AllocationProblem(tcmp_ue, ph, z, N0, total_b, b_min)


def ragged_problem(b_min):
    """Four ESs of three UEs each under uneven load."""
    return ragged(np.random.default_rng(67), 4, 3, 1e6, 5e6, b_min)


@pytest.mark.parametrize("allocate", [equal_split, progressive_fill])
@pytest.mark.parametrize("b_min", [1.0, 2e5])
def test_result_contract_on_ragged_groups(allocate, b_min):
    """(K, M) UE and (K,) ES bandwidths, each at least the floor;
    latencies priced server by server."""
    problem = ragged_problem(b_min)
    res = allocate(problem)
    assert res.b_ue.shape == problem.tcmp_ue.shape
    assert res.b_es.shape == (problem.ph.shape[0],)
    assert np.all(links(res) >= problem.b_min * (1.0 - 1e-9))
    for k, (b_ue, b_es, lat) in enumerate(zip(res.b_ue, res.b_es,
                                              res.latencies)):
        assert lat == pytest.approx(server_latency(problem, k, b_ue, b_es),
                                    rel=1e-12)
    assert res.achieved_o == np.max(res.latencies)
    assert res.used_b == pytest.approx(float(np.sum(res.b_ue)) +
                                       float(np.sum(res.b_es)), rel=1e-12)
    assert res.used_b <= problem.total_b * (1.0 + 1e-9)
    assert res.budget_residual == problem.total_b - res.used_b


def silent_link(problem):
    """problem with the first UE link's power times gain at 0."""
    ph = problem.ph.copy()
    ph[0, 0] = 0.0
    return dataclasses.replace(problem, ph=ph)


@pytest.mark.parametrize("make", [
    silent_link, lambda problem: dataclasses.replace(problem, total_b=1e308)],
    ids=["zero-gain", "budget-1e308"])
def test_a_link_that_cannot_transmit_raises_before_any_warning(make):
    """A link with no rate at B (zero gain, or a budget so large that
    log2(1 + snr) rounds to 0) raises InfeasibleAllocationError, and no
    RuntimeWarning comes first (pyproject.toml makes one an error)."""
    with pytest.raises(InfeasibleAllocationError, match="cannot transmit"):
        progressive_fill(make(ragged_problem(1.0)))


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
    assert res.used_b >= budget * (1.0 - 1e-9)
    for k, b in enumerate(res.b_ue):
        assert np.all(b >= problem.b_min * (1.0 - 1e-9))
        t = ue_finish_times(problem, k, b)
        assert np.max(t) - np.min(t) <= 1e-6 * np.max(t)
    assert res.achieved_o <= equal_split(problem).achieved_o * (1.0 + 1e-6)


@st.composite
def ragged_problems(draw):
    """One to four ESs of 1 to 4 UEs under uneven load, a payload of 2e5 to
    2e6 bits, and a floor anywhere from 0 up to and including the equal
    share."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_es, n_ue = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    total_b = draw(st.floats(min_value=1e6, max_value=2e7))
    share = total_b / (n_es * (n_ue + 1))
    b_min = draw(st.one_of(st.just(share), st.floats(min_value=0.0,
                                                     max_value=share)))
    return ragged(rng, n_es, n_ue, draw(st.floats(2e5, 2e6)), total_b, b_min)


@settings(max_examples=200)
@given(problem=ragged_problems())
def test_progressive_fill_certificate(problem):
    """Every solve spends B to within 1e-9 B, is stationary to 1e-8, gives
    each link at least the floor, and beats the equal split."""
    res = progressive_fill(problem)
    assert abs(res.budget_residual) <= 1e-9 * problem.total_b
    assert 0.0 <= res.stationarity_residual <= 1e-8
    assert np.all(links(res) >= problem.b_min * (1.0 - 1e-9))
    assert res.achieved_o <= equal_split(problem).achieved_o * (1.0 + 1e-9)


# (ESs, UEs per ES) of 2, 3 or 4 links
FLOOR_LAYOUTS = [(1, 1), (1, 2), (2, 1)]


def floor_oracle(problem):
    """Least max latency over the splits of B that give each of the L links
    at least b_min: a grid over the shares of the spare B - L b_min, then
    Nelder-Mead from its best point, restarted from its own result until
    it stalls.  The shares sin^2 a_1, cos^2 a_1 sin^2 a_2, ..., cos^2 a_1
    ... cos^2 a_{L-1} cover the simplex, edges included, with the a_i
    free."""
    n = problem.ph.size
    spare = problem.total_b - n * problem.b_min

    def latency(angles):
        shares, rest = [], 1.0
        for a in angles:
            shares.append(rest * np.sin(a) ** 2)
            rest *= np.cos(a) ** 2
        b = (problem.b_min + spare * np.array(shares + [rest])).reshape(
            problem.ph.shape)
        return max(server_latency(problem, k, b[k, :-1], b[k, -1])
                   for k in range(problem.ph.shape[0]))

    axis = np.linspace(0.0, 0.5 * np.pi, 21 if n < 4 else 13)
    best = min((np.array(a) for a in itertools.product(axis, repeat=n - 1)),
               key=latency)
    fun = latency(best)
    for _ in range(10):
        res = scipy.optimize.minimize(
            latency, best, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
        if not res.fun < fun * (1.0 - 1e-12):
            break
        best, fun = res.x, float(res.fun)
    return fun


def floor_iterations(monkeypatch):
    """A list that gains one entry per Newton iteration that runs the
    floor's bookkeeping, bandwidth._floor_masks."""
    calls, masks = [], bandwidth._floor_masks

    def counted(*args):
        calls.append(1)
        return masks(*args)

    monkeypatch.setattr(bandwidth, "_floor_masks", counted)
    return calls


def test_min_max_optimal_with_a_binding_floor(monkeypatch):
    """With a floor of 0.5 to 0.99 of the equal share on 2, 3 or 4 links,
    one or two ESs, progressive_fill is within 1e-6 of the best split that
    keeps every link at the floor or above, the floor binds in some
    problems, two-server ones among them, and some Newton iteration runs
    the floor's bookkeeping."""
    floor_calls = floor_iterations(monkeypatch)
    rng = np.random.default_rng(83)
    worst_gap, binding, binding_pairs = 0.0, 0, 0
    for _ in range(40):
        n_es, n_ue = FLOOR_LAYOUTS[int(rng.integers(len(FLOOR_LAYOUTS)))]
        share = 5e6 / (n_es * (n_ue + 1))
        problem = ragged(rng, n_es, n_ue, rng.uniform(2e5, 2e6), 5e6,
                         rng.uniform(0.5, 0.99) * share)
        res = progressive_fill(problem)
        b = links(res)
        assert np.all(b >= problem.b_min * (1.0 - 1e-9))
        binds = bool(b.min() <= problem.b_min * (1.0 + 1e-9))
        binding += binds
        binding_pairs += binds and n_es == 2
        oracle = floor_oracle(problem)
        worst_gap = max(worst_gap, abs(res.achieved_o - oracle) / oracle)
    assert worst_gap <= 1e-6
    assert binding > 0 and binding_pairs > 0
    assert floor_calls


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("b_min", [1.0, 2e5])
def test_capped_solve_returns_a_feasible_iterate(monkeypatch, cap, b_min):
    """A solve stopped after `cap` iterations does not raise: it returns
    its latest iterate within the budget (the equal split if none was),
    with that iterate's own residuals and latencies."""
    monkeypatch.setattr(bandwidth, "_MAX_ITER", cap)
    problem = ragged_problem(b_min)
    res = progressive_fill(problem)
    assert res.used_b <= problem.total_b * (1.0 + 1e-12)
    assert res.budget_residual == problem.total_b - res.used_b
    assert res.work == 1 + cap * problem.ph.shape[0]
    assert np.all(links(res) >= problem.b_min * (1.0 - 1e-9))
    for k, (b_ue, b_es, lat) in enumerate(zip(res.b_ue, res.b_es,
                                              res.latencies)):
        assert lat == pytest.approx(server_latency(problem, k, b_ue, b_es),
                                    rel=1e-12)
    assert not res.stationarity_residual < 0.0
    monkeypatch.undo()
    assert progressive_fill(problem).achieved_o <= \
        res.achieved_o * (1.0 + 1e-9)


def priced_solves(monkeypatch, scn):
    """(deadline_bandwidth calls, work, servers) of each progressive_fill
    solve of a run of scn."""
    calls, solves = [0], []

    def counted(*args):
        calls[0] += 1
        return deadline_bandwidth(*args)

    def solve(problem):
        calls[0] = 0
        result = progressive_fill(problem)
        solves.append((calls[0], result.work, problem.ph.shape[0]))
        return result

    monkeypatch.setattr(bandwidth, "deadline_bandwidth", counted)
    monkeypatch.setattr(hierarchy, "progressive_fill", solve)
    run_experiment(scn)
    assert solves
    return solves


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_desk_solves_price_the_links_at_most_ten_times(monkeypatch, seed):
    """Each progressive_fill solve of a desk run makes at most ten
    deadline_bandwidth calls: a count, so it does not depend on the
    machine's speed."""
    solves = priced_solves(monkeypatch, Scenario(seed=seed))
    assert max(n_calls for n_calls, _, _ in solves) <= 10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_desk_solves_stay_on_smooth_pieces(monkeypatch, seed):
    """No link of a desk solve comes near b_min, so no Newton iteration
    runs the floor's bookkeeping."""
    floor_calls = floor_iterations(monkeypatch)
    assert priced_solves(monkeypatch, Scenario(seed=seed))
    assert not floor_calls


# the floor binds in a few solves of these runs
FLOOR_BINDS = dict(k=10, n_k=8, total_b=2e6, b_min=2e4)


@pytest.mark.parametrize("fields", [{}, FLOOR_BINDS], ids=["desk", "floor"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_newton_iteration_prices_the_links_once(monkeypatch, seed,
                                                     fields):
    """Every solve makes one deadline_bandwidth call per Newton iteration:
    its work is 1 plus one demand evaluation per server and iteration."""
    for n_calls, work, n_groups in priced_solves(
            monkeypatch, Scenario(seed=seed, **fields)):
        assert n_calls * n_groups == work - 1
