"""End-to-end acceptance checks for the whole package.

One test per headline claim, run in numeric order.  Each test prints a
single visible ``criterion N PASS/FAIL`` line with the measured numbers,
so a plain ``pytest -v`` run doubles as a short report.
"""

import itertools
import math
import time

import numpy as np
import scipy.optimize
import scipy.stats

from hpfl.bandwidth import (
    AllocationProblem,
    progressive_fill,
    tcom,
    uplink_rate,
)
from hpfl.experiment import prepare, run_audit, run_experiment, write_outputs
from hpfl.scenario import Scenario
from hpfl.scheduler import apply_cap, net_scores
from hpfl.meta import meta_grad, meta_loss
from hpfl.tasks import LogisticModel, QuadraticModel, QuadraticTask
from oracles import (
    bisect_link_bandwidth,
    hand_shard,
    power_limited_rate,
    separable_objective_value,
    solve_link_bandwidth,
    threshold_decisions,
)

N0 = 10.0 ** -20.4


def report(capsys, number, ok, detail):
    line = "criterion %d %s: %s" % (number, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    return line


def fd_grad(f, w, eps=1e-5):
    g = np.empty_like(w)
    for i in range(w.shape[0]):
        e = np.zeros_like(w)
        e[i] = eps
        g[i] = (f(w + e) - f(w - e)) / (2 * eps)
    return g


def random_logistic_triple(rng):
    dim = int(rng.integers(3, 6))
    n_classes = int(rng.integers(3, 5))
    n = int(rng.integers(10, 21))
    model = LogisticModel(dim, n_classes, l2=1e-3)
    shard = hand_shard(rng.standard_normal((n, dim)),
                       rng.integers(0, n_classes, size=n))
    w = model.init_params(rng, scale=0.5)
    alpha = float(rng.uniform(0.0, 0.1))
    return model, shard, w, alpha


def test_criterion_1_meta_gradient_accuracy(capsys):
    """Analytic meta-gradient vs finite differences and the quadratic closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2101)
    worst_fd = 0.0
    for _ in range(100):
        model, shard, w, alpha = random_logistic_triple(rng)
        got = meta_grad(model, w, shard, alpha)
        fd = fd_grad(lambda u: meta_loss(model, u, shard, alpha), w)
        rel = np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd))
        worst_fd = max(worst_fd, rel)

    worst_quad = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        m = rng.standard_normal((dim, dim))
        q = m @ m.T + 0.1 * np.eye(dim)
        a = rng.standard_normal(dim)
        model = QuadraticModel(dim)
        task = QuadraticTask(q=q, a=a)
        w = rng.standard_normal(dim)
        alpha = float(rng.uniform(0.0, 0.2))
        pre = np.eye(dim) - alpha * q
        expected = pre @ q @ pre @ (w - a)
        got = meta_grad(model, w, task, alpha)
        rel = np.linalg.norm(got - expected) / max(1.0, np.linalg.norm(expected))
        worst_quad = max(worst_quad, rel)

    elapsed = time.perf_counter() - t0
    ok = worst_fd <= 1e-4 and worst_quad <= 1e-10 and elapsed < 10.0
    detail = ("fd rel %.2e (<=1e-4), quadratic rel %.2e (<=1e-10), "
              "%.1f s (<10 s)" % (worst_fd, worst_quad, elapsed))
    report(capsys, 1, ok, detail)
    assert ok, detail


def test_criterion_2_single_learner_collapse(capsys):
    """A 1-server, 1-client, zero-staleness run is plain meta-gradient descent."""
    scn = Scenario(k=1, n_k=1, family="classification", model="logistic",
                   s_max=0, a_max=1, selection="full", allocation="equal",
                   rounds=100, seed=5)
    start = prepare(scn)
    shard = start.federation.train[0, 0]
    ref = [start.history[0]]
    w = start.history[0]
    for _ in range(scn.rounds):
        w = w - scn.beta * meta_grad(start.model, w, shard, scn.alpha)
        ref.append(w)

    engine = run_experiment(scn)
    worst = 0.0
    for t in range(scn.rounds + 1):
        diff = np.linalg.norm(engine.history[t] - ref[t])
        worst = max(worst, diff / max(1.0, np.linalg.norm(ref[t])))

    ok = worst <= 1e-10
    detail = "max per-round deviation %.2e over %d rounds (<=1e-10)" % (
        worst, scn.rounds)
    report(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_3_forced_schedule_staleness_trace(capsys):
    """A fixed 4-round, 2-of-4 selection pattern yields the expected staleness."""
    scn = Scenario(k=4, n_k=1, family="quadratic", dim=4, s_max=1, a_max=2,
                   allocation="equal", rounds=4, seed=3)
    plan = [
        np.array([1, 1, 0, 0], dtype=bool),
        np.array([0, 0, 1, 1], dtype=bool),
        np.array([0, 1, 0, 1], dtype=bool),
        np.array([1, 0, 1, 0], dtype=bool),
    ]
    # an engine before its first round, driven through the plan's rounds
    engine = run_experiment(scn.replace(rounds=0))
    for pi in plan:
        engine.run_round(forced_selection=pi)
    traces = tuple(
        tuple(rec.staleness_after[i] for rec in engine.records)
        for i in range(4)
    )
    expected = ((0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1))
    listed = {(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1)}
    sizes = [rec.a_eff for rec in engine.records]

    ok = (traces == expected and set(traces) == listed
          and all(s == 2 for s in sizes))
    detail = "per-server traces %s, selected sizes %s (want 2 each)" % (
        list(traces), sizes)
    report(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_4_threshold_matches_exhaustive(capsys):
    """Threshold selection ties the exhaustive optimum of the separable objective."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_free = 0.0
    worst_cap = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 11))
        imp = 10.0 ** rng.uniform(-2.0, 1.0, size=k)
        lat = 10.0 ** rng.uniform(-2.0, 1.0, size=k)
        rho = float(rng.uniform(0.05, 0.95))
        phi = float(10.0 ** rng.uniform(-1.0, 1.0))
        a_max = int(rng.integers(1, k + 1))
        scores = net_scores(imp, lat, rho, phi)

        masks = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
        values = -(masks @ scores)

        pi = threshold_decisions(imp, lat, rho, phi)
        got = separable_objective_value(pi, imp, lat, rho, phi)
        best = float(values.min())
        worst_free = max(worst_free, abs(got - best) / max(1.0, abs(best)))

        no_force = np.zeros(k, dtype=bool)
        pi_cap, _ = apply_cap(pi, no_force, scores, np.zeros(k), a_max)
        got_cap = separable_objective_value(pi_cap, imp, lat, rho, phi)
        best_cap = float(values[masks.sum(axis=1) <= a_max].min())
        worst_cap = max(worst_cap, abs(got_cap - best_cap) / max(1.0, abs(best_cap)))

    elapsed = time.perf_counter() - t0
    ok = worst_free <= 1e-12 and worst_cap <= 1e-12 and elapsed < 30.0
    detail = ("200 instances, K<=10: free gap %.1e, capped gap %.1e "
              "(<=1e-12), %.1f s (<30 s)" % (worst_free, worst_cap, elapsed))
    report(capsys, 4, ok, detail)
    assert ok, detail


# small allocation instances (at most 4 radio links) for the brute-force
# oracle: (ESs, UEs per ES)

LAYOUTS = [(1, 1), (1, 2), (1, 3), (2, 1)]


def random_small_problem(rng):
    """ESs of the drawn layout, every link uploading one drawn payload."""
    n_es, n_ue = LAYOUTS[int(rng.integers(len(LAYOUTS)))]
    tcmp_ue, ph = np.zeros((n_es, n_ue)), np.zeros((n_es, n_ue + 1))
    for k in range(n_es):
        h_ue = 10.0 ** rng.uniform(-9.0, -7.5, size=n_ue)
        tcmp_ue[k] = rng.uniform(0.005, 0.05, size=n_ue)
        ph[k, :-1], ph[k, -1] = 0.01 * h_ue, \
            0.1 * 10.0 ** rng.uniform(-9.0, -7.5)
    return AllocationProblem(tcmp_ue, ph, float(rng.uniform(2e5, 2e6)), N0,
                             5e6, 1.0)


def latency_of(problem, b):
    """Max ES latency of the link bandwidths b, flat in the (K, M+1) order."""
    t = tcom(problem.z, uplink_rate(b.reshape(problem.ph.shape), problem.ph,
                                    problem.n0))
    return float(np.max(np.max(problem.tcmp_ue + t[:, :-1], axis=1)
                        + t[:, -1]))


def brute_force_latency(problem):
    """Grid search over the bandwidth split, then simplex refinement from
    its best point, restarted from its own result until it stalls."""
    total, n = problem.total_b, problem.ph.size
    steps = {2: 60, 3: 40, 4: 24}[n]
    # every split of B into n positive multiples of B / steps
    grid = (np.diff([0, *cuts, steps]) * total / steps for cuts in
            itertools.combinations(range(1, steps), n - 1))
    best_b = min(grid, key=lambda b: latency_of(problem, b))
    best = latency_of(problem, best_b)

    def objective(x):
        b = np.append(x, total - np.sum(x))
        if np.any(b < problem.b_min):
            return 1e9
        return latency_of(problem, b)

    for _ in range(10):
        res = scipy.optimize.minimize(
            objective, best_b[:-1], method="Nelder-Mead",
            options={"xatol": total * 1e-7, "fatol": 1e-12, "maxiter": 4000})
        if not res.fun < best * (1.0 - 1e-12):
            break
        best, best_b = float(res.fun), np.append(res.x, total - res.x.sum())
    return best


def test_criterion_5_allocator_optimality(capsys):
    """Progressive filling vs brute force, closed-form link inversion, equal finish."""
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_finish = 0.0
    for _ in range(50):
        problem = random_small_problem(rng)
        sol = progressive_fill(problem)
        oracle = brute_force_latency(problem)
        worst_gap = max(worst_gap, abs(sol.achieved_o - oracle) / oracle)

        # equal finish times, within every server's clients and across servers
        for t_ue, ph, bu in zip(problem.tcmp_ue, problem.ph[:, :-1], sol.b_ue):
            if t_ue.size > 1:
                t = t_ue + tcom(problem.z, uplink_rate(bu, ph, problem.n0))
                worst_finish = max(worst_finish,
                                   (t.max() - t.min()) / t.max())
        lats = sol.latencies
        worst_finish = max(worst_finish, (lats.max() - lats.min()) / lats.max())

    rng2 = np.random.default_rng(77)
    worst_link = 0.0
    done = 0
    while done < 1000:
        z = float(rng2.uniform(1e5, 5e6))
        p = 0.01
        h = float(10.0 ** rng2.uniform(-9.0, -7.5))
        target = float(10.0 ** rng2.uniform(-2.0, 1.0))
        if z / target >= 0.99 * power_limited_rate(p, h, N0):
            continue
        closed = solve_link_bandwidth(z, p, h, N0, target)
        bisected = bisect_link_bandwidth(z, p, h, N0, target)
        worst_link = max(worst_link, abs(closed - bisected) / bisected)
        done += 1

    ok = worst_gap <= 0.005 and worst_link <= 1e-6 and worst_finish <= 1e-6
    detail = ("brute-force gap %.1e (<=5e-3), closed-form vs bisection %.1e "
              "(<=1e-6, 1000 links), finish-time spread %.1e (<=1e-6)"
              % (worst_gap, worst_link, worst_finish))
    report(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_6_descent_bound_audit(capsys):
    """Audit-grade runs keep every round inside the loss-drop bound."""
    scn = Scenario(family="quadratic", k=5, n_k=4, dim=8, rounds=50,
                   s_max=2, a_max=3, rho=0.5, allocation="equal")
    held = 0
    total = 0
    fracs = []
    for seed in range(10):
        _, rows, frac = run_audit(scn.replace(seed=seed))
        fracs.append(frac)
        held += sum(int(r["holds"]) for r in rows)
        total += len(rows)

    ok = all(f == 1.0 for f in fracs) and total == 500
    detail = "bound held in %d/%d rounds over 10 seeds x 50 rounds" % (
        held, total)
    report(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_7_rho_sweep_trends(capsys):
    """Latency and captured importance both rise with rho and fall over rounds."""
    base = Scenario(family="quadratic", k=6, n_k=2, dim=8, init_scale=6.0,
                    center_spread=0.3, ue_spread=0.05, eig_lo=0.5, eig_hi=2.0,
                    s_max=4, a_max=6, rounds=60, beta=0.08, z_bits=2.5e6,
                    phi_override=0.4, allocation="equal", seed=0)
    rhos = (0.4, 0.5, 0.6, 0.7, 0.8)

    def sweep(selection):
        lat, imp = [], []
        runs = {}
        for rho in rhos:
            res = run_experiment(base.replace(rho=rho, selection=selection))
            lat.append(float(np.mean([r.latency for r in res.records])))
            imp.append(float(np.mean([r.importance for r in res.records])))
            runs[rho] = res
        return lat, imp, runs

    lat_p, imp_p, runs_p = sweep("proposed")
    lat_f, imp_f, _ = sweep("full")
    lat_r, imp_r, _ = sweep("random")

    rho_arr = np.asarray(rhos)
    sp_lat = float(scipy.stats.spearmanr(rho_arr, lat_p).statistic)
    sp_imp = float(scipy.stats.spearmanr(rho_arr, imp_p).statistic)

    mid = runs_p[0.6].records
    rounds_axis = np.arange(len(mid))
    within_lat = float(scipy.stats.spearmanr(
        rounds_axis, [r.latency for r in mid]).statistic)
    within_imp = float(scipy.stats.spearmanr(
        rounds_axis, [r.importance for r in mid]).statistic)

    slope = lambda ys: float(np.polyfit(rho_arr, ys, 1)[0])
    s_lat_p, s_imp_p = slope(lat_p), slope(imp_p)
    flat = all(
        abs(slope(ys)) < 0.05 * abs(ref)
        for ys, ref in [(lat_f, s_lat_p), (lat_r, s_lat_p),
                        (imp_f, s_imp_p), (imp_r, s_imp_p)]
    )

    ok = (sp_lat >= 0.8 and sp_imp >= 0.8
          and within_lat <= -0.5 and within_imp <= -0.5 and flat)
    detail = ("sweep spearman lat %.2f imp %.2f (>=0.8), within-run lat %.2f "
              "imp %.2f (<=-0.5), baselines flat=%s" %
              (sp_lat, sp_imp, within_lat, within_imp, flat))
    report(capsys, 7, ok, detail)
    assert ok, detail


def sign_test_p(wins, n):
    """One-sided tail probability of >= wins successes in n fair coin flips."""
    return sum(math.comb(n, j) for j in range(wins, n + 1)) / 2.0 ** n


def test_criterion_8_mode_ordering(capsys):
    """Personalized beats non-personalized on accuracy; selection policies order on loss."""
    acc_base = Scenario(k=5, n_k=4, family="classification", model="logistic",
                        dim=8, n_classes=10, labels_per_ue=2, n_train=32,
                        n_eval=64, separation=2.0, noise=1.0, alpha=0.05,
                        beta=0.07, s_max=2, a_max=3, rho=0.5, rounds=30,
                        allocation="equal")
    diffs = []
    for seed in range(10):
        pers = run_experiment(acc_base.replace(seed=seed, mode="hpfl",
                                               selection="proposed"))
        plain = run_experiment(acc_base.replace(seed=seed, mode="hfl",
                                                selection="proposed"))
        diffs.append(pers.records[-1].acc - plain.records[-1].acc)
    wins = sum(1 for d in diffs if d > 0.0)
    non_tied = sum(1 for d in diffs if d != 0.0)
    p_value = sign_test_p(wins, non_tied) if non_tied else 1.0
    mean_diff = float(np.mean(diffs))

    loss_base = Scenario(k=6, n_k=1, family="classification",
                         model="logistic", dim=8, n_classes=10,
                         labels_per_ue=2, n_train=32, n_eval=64,
                         separation=2.0, noise=1.0, alpha=0.05, beta=3.0,
                         s_max=2, a_max=3, rho=0.8, rounds=60,
                         allocation="equal")
    ordered = 0
    for seed in range(10):
        finals = {}
        for selection in ("full", "proposed", "random"):
            res = run_experiment(loss_base.replace(seed=seed, mode="hpfl",
                                                   selection=selection))
            finals[selection] = res.records[-1].loss
        if finals["full"] <= finals["proposed"] <= finals["random"]:
            ordered += 1

    ok = mean_diff > 0.0 and p_value < 0.05 and ordered >= 8
    detail = ("accuracy gain mean %+0.4f, %d/%d wins, sign-test p=%.4f "
              "(<0.05); loss order full<=proposed<=random in %d/10 seeds "
              "(>=8)" % (mean_diff, wins, non_tied, p_value, ordered))
    report(capsys, 8, ok, detail)
    assert ok, detail


def test_criterion_9_byte_identical_outputs(capsys, tmp_path):
    """The same config and seed write byte-identical metrics files."""
    scn = Scenario(k=4, n_k=2, family="classification", model="logistic",
                   rounds=6, seed=11, selection="proposed",
                   allocation="progressive")
    paths = []
    for name in ("a", "b"):
        res = run_experiment(scn)
        out = tmp_path / name
        write_outputs(res, str(out))
        paths.append(out / "rounds.csv")
    first = paths[0].read_bytes()
    second = paths[1].read_bytes()

    ok = first == second and len(first) > 0
    detail = "two runs wrote identical rounds.csv (%d bytes)" % len(first)
    report(capsys, 9, ok, detail)
    assert ok, detail
