"""Round engine for the two-tier personalized federation.

The cloud keeps the global model; each edge server (ES) keeps the stale
copy it received when last selected, and its UEs personalize that copy
with one meta-gradient step.  Every round the engine:

1. scores loss/accuracy of the entering global model,
2. recomputes local updates at edge servers whose base model changed,
   from the same adaptation of their UEs the scoring made,
3. draws this round's channel fading and prices every server's latency
   in closed form at the link share ``B / (min(a_max, K) (N+1))``, the
   even split over as many servers as a round accepts,
4. schedules the uploads on those prices and splits the bandwidth over
   the selected servers in one allocator solve, whose slowest server
   sets the round's latency,
5. applies the cloud step from the selected servers' (stale) aggregated
   meta-gradients scaled by beta over the number of arrivals,
6. hands the new model to the selected servers by setting their version
   to the new round; the rest keep theirs and so age by one.

A server's version is its only clock: its age is ``t - version``, the
rounds since it last received the global model.  The servers to
refresh are those of age 0, the servers of age at least
``max(s_max, 1)`` must upload, and the staleness saturated at ``s_max``
exists only in the round records.

Reported per-round importance is ``phi * sum of delivered squared
meta-gradient norms`` and the per-round bound value adds the constant
drift term ``nu`` on top, so descent accounting can be audited after
the fact against the recorded model trajectory.
"""

from dataclasses import dataclass

import numpy as np

from . import meta
from .bandwidth import AllocationProblem, equal_split, progressive_fill
from .network import (dbm_per_hz_to_w, es_latency, sample_channels, tcmp,
                      tcom, uplink_rate)
from .scheduler import baseline_select, objective_value, schedule

__all__ = [
    "AggregationError",
    "RoundRecord",
    "RoundEngine",
    "global_update",
]

BITS_PER_PARAM = 32.0


def _ue_name(index):
    """Error-message name of the UE at batch index (es, ue)."""
    return "es %d ue %d" % index


class AggregationError(RuntimeError):
    """An aggregation step was asked to run on an empty selection."""


def global_update(w, mean_grads, selected, beta):
    """Cloud step ``w - (beta/A) * sum of the A selected mean gradients``.

    ``mean_grads`` holds one aggregated meta-gradient per edge server as a
    (K, P) array; ``selected`` masks the A servers that upload.
    """
    picked = mean_grads[np.asarray(selected, dtype=bool)]
    if not picked.shape[0]:
        raise AggregationError("global update with an empty selection")
    return w - (beta / float(picked.shape[0])) * picked.sum(axis=0)


@dataclass(frozen=True)
class RoundRecord:
    """Everything observed during one cloud round."""

    round: int
    loss: float
    acc: float
    latency: float
    importance: float
    a_eff: int
    runtime_us: int
    bound_rhs: float
    pi: tuple
    staleness_used: tuple
    staleness_after: tuple
    versions: tuple
    objective: float
    capped: bool


class RoundEngine:
    """Drives the federation round by round and records what happened.

    ``prep`` carries the model, federation, topology and initial point w0;
    ``scenario`` supplies every other knob.  The cloud steps with ``beta``
    and schedules with ``phi_sched``; ``phi`` and ``nu`` only scale the
    reported importance and bound.

    Per-edge-server state is kept as arrays with one row per server:

    version      -- global round whose model the server works from, so its
                    base is ``history[version]`` and its age ``t - version``
    mean_grad    -- (K, P) mean UE meta-gradient at the base
    grad_norm_sq -- squared norm of mean_grad, the server's importance
    """

    def __init__(self, prep, scenario, beta, phi_sched, phi, nu):
        self.model = prep.model
        self.federation = prep.federation
        self.topology = prep.topology
        self.scenario = scenario
        self.beta = beta
        self.phi_sched = phi_sched
        self.phi = phi
        self.nu = nu
        self.n0 = dbm_per_hz_to_w(scenario.n0_dbm_hz)
        self.w = np.asarray(prep.w0, dtype=float).copy()
        self.t = 0
        self.history = [self.w.copy()]
        k = scenario.k
        self.version = np.zeros(k, dtype=int)
        self.mean_grad = np.zeros((k, self.w.size))
        self.grad_norm_sq = np.zeros(k)
        d_bits = np.full(scenario.n_k, float(self.federation.train.size)) \
            * self.model.dim * BITS_PER_PARAM
        self.tcmp_ue = tcmp(scenario.c_cycles, d_bits, scenario.cpu_hz)
        # one closed-form share prices every server alike, so the schedule
        # compares like with like and only the selection is ever solved for
        self.price_share = scenario.total_b / (
            min(scenario.a_max, k) * (scenario.n_k + 1))
        self._random_rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, 433]))
        _, self._grad = meta.objective(scenario.mode)

    def _refresh(self, ids, theta):
        """Recompute the UE updates of the servers ``ids`` of age 0.

        One call covers them all, the entering model broadcast over their
        UEs and adapted to ``theta`` by _evaluate.  Older servers keep
        full-batch gradients of an unchanged base, which are bit-identical,
        so they are skipped.  A non-finite squared norm raises
        NonFiniteError naming its server.
        """
        grads = self._grad(self.model,
                           np.broadcast_to(self.w, (ids.size, 1, self.w.size)),
                           self.federation.train[ids], self.scenario.alpha,
                           context=lambda i: _ue_name((ids[i[0]], i[1])),
                           theta=None if theta is None else theta[ids])
        self.mean_grad[ids] = mean = grads.mean(axis=1)
        with np.errstate(over="ignore"):    # an overflow raises below
            self.grad_norm_sq[ids] = meta._check_finite(
                (mean[:, None, :] @ mean[:, :, None])[:, 0, 0],
                "squared gradient norm", lambda i: "es %d" % ids[i[0]], False)

    def _evaluate(self):
        """Training objective and held-out accuracy of the entering model.

        Loss is the global objective at the current global model: the mean
        over UEs of the base training loss at theta, the adapted point
        (personalized mode) or the global model itself (conventional
        mode).  Accuracy scores each UE's held-out shard at its theta;
        task families without labels report accuracy 0.  Returns (loss,
        accuracy, the (K, N, P) adapted points or None in "hfl" mode).
        """
        train, eval_ = self.federation.train, self.federation.eval
        theta = None
        if self.scenario.mode == "hpfl":
            theta = meta.adapt(self.model, self.w, train, self.scenario.alpha,
                               context=_ue_name)
        at = self.w if theta is None else theta
        losses = meta.plain_loss(self.model, at, train, context=_ue_name)
        acc = 0.0
        if hasattr(eval_, "x"):
            pred = self.model.predict(at, eval_.x)
            acc = int(np.sum(pred == eval_.y)) / eval_.y.size
        return float(np.mean(losses)), float(acc), theta

    def _allocate(self, members, ph):
        """The round's one bandwidth split, over the servers masked by
        ``members``.

        ``ph`` (K, N+1) is this round's transmit power times channel gain,
        each server's own link last.  Returns (the slowest member's
        latency, solver work units).
        """
        p = self.scenario
        ph = ph[members]
        problem = AllocationProblem(
            tcmp_ue=np.broadcast_to(self.tcmp_ue, ph[:, :-1].shape), ph=ph,
            z=np.full(ph.shape, p.z_bits), n0=self.n0, total_b=p.total_b,
            b_min=p.b_min)
        result = (progressive_fill if p.allocation == "progressive"
                  else equal_split)(problem)
        return result.achieved_o, result.work

    def run_round(self, forced_selection=None):
        """Advance the federation by one cloud round and record it."""
        p = self.scenario
        k = p.k
        age = self.t - self.version
        loss, acc, theta = self._evaluate()
        # the servers that received the entering model worked this round
        # (at t = 0, all of them)
        self._refresh(np.flatnonzero(age == 0), theta)
        ph = np.append(np.full(p.n_k, p.p_ue), p.p_es) * sample_channels(
            self.topology, p.seed, self.t)
        latencies = es_latency(self.tcmp_ue, tcom(
            p.z_bits, uplink_rate(self.price_share, 1.0, ph, self.n0)))

        importance = self.grad_norm_sq
        capped = False
        if forced_selection is not None:
            pi = np.asarray(forced_selection, dtype=bool)
            if pi.shape != (k,) or not pi.any():
                raise ValueError("forced selection must pick at least one of "
                                 "%d servers" % k)
        elif p.selection == "proposed":
            # a server is due once its age reaches the budget; those of age
            # 0 were just handed the model, so s_max = 0 forces the rest
            due = age >= max(p.s_max, 1)
            pi, capped = schedule(importance, latencies, due, p.rho,
                                  self.phi_sched, p.a_max)
        else:
            pi = baseline_select(p.selection, k, p.a_max, self._random_rng)

        latency, work = self._allocate(pi, ph)

        staleness_used = tuple(int(s) for s in np.minimum(age[pi], p.s_max))
        versions = tuple(int(v) for v in self.version[pi])
        a_eff = int(pi.sum())
        captured = float(self.phi * importance[pi].sum())
        objective = objective_value(pi, importance, latencies, p.rho,
                                    self.phi_sched)

        self.w = global_update(self.w, self.mean_grad, pi, self.beta)
        self.t += 1
        self.history.append(self.w.copy())
        # uploaders receive the new model; the rest age by one
        self.version[pi] = self.t

        record = RoundRecord(
            round=self.t - 1,
            loss=loss,
            acc=acc,
            latency=latency,
            importance=captured,
            a_eff=a_eff,
            runtime_us=int(work + k),
            bound_rhs=captured + self.nu,
            pi=tuple(int(v) for v in pi),
            staleness_used=staleness_used,
            staleness_after=tuple(
                int(s) for s in np.minimum(self.t - self.version, p.s_max)),
            versions=versions,
            objective=float(objective),
            capped=bool(capped),
        )
        return record

    def run(self, rounds, forced_plan=None):
        """Run several rounds; forced_plan optionally fixes each selection."""
        records = []
        for r in range(rounds):
            forced = None if forced_plan is None else forced_plan[r]
            records.append(self.run_round(forced_selection=forced))
        return records
