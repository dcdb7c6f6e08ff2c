"""Cloud step, staleness bookkeeping, round engine."""

import math

import numpy as np
import pytest

from hpfl import meta
from hpfl.experiment import prepare
from hpfl.hierarchy import global_update
from hpfl.scenario import Scenario


class TestGlobalUpdate:
    def test_zero_gradients_leave_model_alone(self):
        w = np.array([1.0, -2.0])
        out = global_update(w, np.zeros((3, 2)), np.ones(3, dtype=bool),
                            beta=0.5)
        assert np.array_equal(out, w)

    def test_single_arrival(self):
        mean_grads = np.array([[9.0, 9.0], [2.0, -4.0]])
        w = np.array([1.0, 1.0])
        out = global_update(w, mean_grads, np.array([False, True]), beta=0.25)
        assert out.tolist() == [0.5, 2.0]

    def test_double_sum_oracle(self):
        """Cloud step equals w - (beta/A) * sum_k mean_i grad_{k,i}."""
        rng = np.random.default_rng(7)
        dim, n_ue = 4, 3
        ue_grads = rng.normal(size=(3, n_ue, dim))
        selected = np.array([True, False, True])
        beta = 0.7
        w = rng.normal(size=dim)
        out = global_update(w, ue_grads.mean(axis=1), selected, beta)
        for j in range(dim):
            terms = [ue_grads[k, i, j] / n_ue
                     for k in (0, 2) for i in range(n_ue)]
            want = w[j] - beta / 2.0 * math.fsum(terms)
            assert abs(out[j] - want) <= 1e-12 * max(1.0, abs(want))


class TestAdvanceStaleness:
    """The post-round ageing: each server's age is ``t - version``."""

    def test_selected_server_syncs(self):
        scn = Scenario(k=2, n_k=1, s_max=3, a_max=2, rounds=0, seed=7)
        eng = prepare(scn)
        for _ in range(2):
            eng.run_round(forced_selection=np.array([False, True]))
        eng.run_round(forced_selection=np.array([True, False]))
        assert (eng.t - eng.version).tolist() == [0, 1]
        assert eng.version.tolist() == [3, 2]
        # the next refresh recomputes the servers of age 0
        assert np.flatnonzero(eng.t == eng.version).tolist() == [0]
        assert np.array_equal(eng.history[eng.version[0]], eng.w)
        assert np.array_equal(eng.history[eng.version[1]], eng.history[2])

    def test_staleness_accumulates_then_saturates(self):
        scn = Scenario(k=2, n_k=1, s_max=3, a_max=2, rounds=0, seed=7)
        eng = prepare(scn)
        after = [eng.run_round(forced_selection=np.array([True, False]))
                 .staleness_after[1] for _ in range(5)]
        assert after == [1, 2, 3, 3, 3]
        # the true age keeps growing past the saturated record, and a
        # server past the budget is in the next selection
        assert (eng.t - eng.version).tolist() == [0, 5]
        assert eng.run_round().pi[1] == 1

    def test_budget_reached_flags_forced_inclusion(self):
        """A server at the budget is flagged, then the scheduler picks it."""
        scn = Scenario(k=2, n_k=1, s_max=1, a_max=2, rounds=0, seed=7)
        eng = prepare(scn)
        eng.run_round(forced_selection=np.array([False, True]))
        assert (eng.t - eng.version).tolist() == [1, 0]
        assert eng.run_round().pi[0] == 1


class TestRoundEngine:
    def test_single_server_plain_mode_is_gradient_descent(self):
        """K=1, n=1, full selection, no staleness: textbook recursion."""
        scn = Scenario(k=1, n_k=1, mode="hfl", selection="full", s_max=0,
                       a_max=1, rounds=0, seed=3)
        eng = prepare(scn)
        w = eng.history[0]
        shard = eng.federation.train[0, 0]
        for _ in range(20):
            eng.run_round()
            w = w - scn.beta * meta.plain_grad(eng.model, w, shard)
        assert np.max(np.abs(eng.w - w)) <= 1e-10

    def test_full_sync_matches_mean_meta_gradient_recursion(self):
        scn = Scenario(k=3, n_k=2, selection="full", s_max=0, a_max=3,
                       rounds=0, seed=5)
        eng = prepare(scn)
        w = eng.history[0]
        for _ in range(5):
            eng.run_round()
            total = np.zeros_like(w)
            train = eng.federation.train
            for k in range(scn.k):
                grads = [meta.meta_grad(eng.model, w, train[k, j], scn.alpha)
                         for j in range(scn.n_k)]
                total += np.mean(grads, axis=0)
            w = w - scn.beta / 3.0 * total
        assert np.max(np.abs(eng.w - w)) <= 1e-10

    def test_forced_plan_controls_staleness(self):
        """Alternating uploads age the resting server, then refresh it."""
        scn = Scenario(k=2, n_k=1, s_max=2, a_max=2, rounds=0, seed=7)
        eng = prepare(scn)
        plan = [np.array([True, False]), np.array([False, True]),
                np.array([True, False]), np.array([True, True])]
        recs = [eng.run_round(forced_selection=pi) for pi in plan]
        assert [r.pi for r in recs] == [(1, 0), (0, 1), (1, 0), (1, 1)]
        assert [r.staleness_used for r in recs] == [(0,), (1,), (1,), (0, 1)]
        assert [r.versions for r in recs] == [(0,), (0,), (1,), (3, 2)]
        assert [r.staleness_after for r in recs] == \
            [(0, 1), (1, 0), (0, 1), (0, 0)]

    def test_stale_gradient_is_the_delivered_one(self):
        """An aged server uploads the update computed at its old base."""
        scn = Scenario(k=2, n_k=1, s_max=2, a_max=2, rounds=0, seed=11)
        eng = prepare(scn)
        w0 = eng.history[0]
        eng.run_round(forced_selection=np.array([True, False]))
        w1 = eng.w.copy()
        train = eng.federation.train
        stale = [meta.meta_grad(eng.model, w0, train[1, j], scn.alpha)
                 for j in range(scn.n_k)]
        fresh = [meta.meta_grad(eng.model, w1, train[0, j], scn.alpha)
                 for j in range(scn.n_k)]
        eng.run_round(forced_selection=np.array([True, True]))
        want = w1 - scn.beta / 2.0 * (np.mean(stale, axis=0)
                                      + np.mean(fresh, axis=0))
        assert np.max(np.abs(eng.w - want)) <= 1e-10

    def test_selection_and_staleness_invariants(self):
        scn = Scenario(k=5, n_k=2, s_max=2, a_max=3, rounds=0, seed=13)
        eng = prepare(scn)
        for _ in range(12):
            rec = eng.run_round()
            assert sum(rec.pi) <= scn.a_max
            assert sum(rec.pi) == rec.a_eff >= 1
            assert max(rec.staleness_used) <= scn.s_max
            assert all(0 <= v <= rec.round for v in rec.versions)
            assert rec.latency > 0.0
            assert rec.importance >= 0.0

    def test_runs_are_deterministic(self):
        scn = Scenario(k=4, n_k=2, rounds=0, seed=17)
        runs = []
        for _ in range(2):
            eng = prepare(scn)
            for _ in range(6):
                eng.run_round()
            runs.append((eng.w.copy(), eng.records))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("mode", ["hpfl", "hfl"])
    def test_poisoned_ue_is_named_in_the_first_round(self, mode):
        """NaN training data of one UE stops the round engine, naming it."""
        scn = Scenario(k=3, n_k=4, mode=mode, rounds=0, seed=19)
        eng = prepare(scn)
        eng.federation.train.x[2, 1, 0, 0] = np.nan
        with pytest.raises(meta.NonFiniteError, match=r" at es 2 ue 1$"):
            eng.run_round()

    @pytest.mark.parametrize("poisoned", [(1, 3), (2, 0)])
    def test_poisoned_ue_is_named_after_a_partial_refresh(self, poisoned):
        """Only server 1 refreshes in round 1; its rows keep their ES id.

        The evaluation adapts every UE before the refresh reuses that
        adaptation, so a poisoned UE of server 1 and one of server 2 are
        both caught by the evaluation.
        """
        scn = Scenario(k=3, n_k=4, rounds=0, seed=19)
        eng = prepare(scn)
        eng.run_round(forced_selection=np.array([False, True, False]))
        es, ue = poisoned
        eng.federation.train.x[es, ue, 0, 0] = np.nan
        with pytest.raises(meta.NonFiniteError,
                           match=r" at es %d ue %d$" % poisoned):
            eng.run_round()

    @pytest.mark.parametrize("model", ["logistic", "mlp"])
    def test_a_round_forms_each_training_state_once(self, model,
                                                    monkeypatch):
        """An hpfl round forms every UE's training logits once at w and
        once at its theta, round 0 (every server refreshes) included: the
        refresh reuses the evaluation's states and forms none."""
        scn = Scenario(k=4, n_k=3, n_train=6, n_eval=5, model=model,
                       hidden=4, s_max=2, a_max=2, rounds=0, seed=29)
        eng = prepare(scn)
        train, size = eng.federation.train, eng.model.n_params
        cls = type(eng.model)
        builder = cls._logits
        formed = []

        def recording(self, w, x):
            formed.append((np.array(w), x.shape))
            return builder(self, w, x)
        monkeypatch.setattr(cls, "_logits", recording)
        for _ in range(4):
            w = eng.w
            thetas = meta.adapt(eng.model, w, train,
                                scn.alpha).reshape(-1, size)
            formed.clear()
            eng.run_round()
            at_w = at_theta = 0
            for point, shape in formed:
                if shape[-2] != scn.n_train:    # the held-out shards
                    continue
                for ue in np.broadcast_to(point, shape[:-2] + (size,)
                                          ).reshape(-1, size):
                    at_w += np.array_equal(ue, w)
                    at_theta += (ue == thetas).all(axis=1).any()
            assert (at_w, at_theta) == (scn.k * scn.n_k, scn.k * scn.n_k)

    @pytest.mark.parametrize("mode", ["hpfl", "hfl"])
    @pytest.mark.parametrize("over,rtol", [
        pytest.param({}, 0.0, id="logistic"),
        pytest.param({"family": "quadratic"}, 0.0, id="quadratic"),
        pytest.param({"model": "mlp", "hidden": 16}, 0.0, id="mlp16"),
        pytest.param({"model": "mlp", "hidden": 32}, 1e-12, id="mlp32"),
    ])
    def test_refresh_equals_the_audits_gradient(self, mode, over, rtol):
        """Each refresh's server means are the objective's gradient at
        history[t] over the refreshed servers' UEs, as the audit computes
        it afresh: bit for bit while the inner dimensions are short, and
        within 1e-12 of the largest entry at hidden width 32, where the
        one shared-point product over every UE may be blocked otherwise."""
        scn = Scenario(mode=mode, rounds=0, seed=37, **over)
        eng = prepare(scn)
        for _ in range(6):
            eng.run_round()
        _, grad = meta.objective(mode)
        train = eng.federation.train
        assert len(eng.refreshed) == 6
        for t, (ids, mean) in enumerate(eng.refreshed):
            want = grad(eng.model, eng.history[t], train[ids],
                        scn.alpha).mean(axis=1)
            assert mean.shape == want.shape
            err = np.abs(mean - want).max()
            assert err <= rtol * np.abs(want).max(), (t, err)

    @pytest.mark.parametrize("mode", ["hpfl", "hfl"])
    def test_kernel_calls_per_round(self, mode, monkeypatch):
        """An hpfl round adapts once, for the evaluation and the refresh
        together: 2 grad calls and 1 hvp call, round 0 included.  An hfl
        round makes at most the refresh's grad call and no hvp call."""
        scn = Scenario(k=4, n_k=3, mode=mode, s_max=2, a_max=2, rounds=0,
                       seed=23)
        eng = prepare(scn)
        calls = {"grad": 0, "hvp": 0}

        def counting(name):
            method = getattr(eng.model, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return counted
        for name in calls:
            monkeypatch.setattr(eng.model, name, counting(name))
        for _ in range(6):
            calls.update(grad=0, hvp=0)
            eng.run_round()
            if mode == "hpfl":
                assert calls == {"grad": 2, "hvp": 1}
            else:
                assert calls["grad"] <= 1 and calls["hvp"] == 0
