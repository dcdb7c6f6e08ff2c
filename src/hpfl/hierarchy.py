"""Round engine for the two-tier personalized federation.

The cloud keeps the global model; each edge server (ES) keeps the stale
copy it received when last selected, and its UEs personalize that copy
with one meta-gradient step.  Every round the engine:

1. scores loss/accuracy of the entering global model,
2. recomputes local updates at edge servers whose base model changed,
   from their UEs' forward states that the scoring formed, once at the
   global model and once at each UE's adapted point theta,
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
from .constants import bound_constants
from .network import (dbm_per_hz_to_w, es_latency, sample_channels, tcmp,
                      tcom, uplink_rate)
from .scheduler import baseline_select, objective_value, schedule

__all__ = [
    "RoundRecord",
    "RoundEngine",
    "global_update",
]

BITS_PER_PARAM = 32.0


def _ue_name(index):
    """Error-message name of the UE at batch index (es, ue)."""
    return "es %d ue %d" % index


def global_update(w, mean_grads, selected, beta):
    """Cloud step ``w - (beta/A) * sum of the A selected mean gradients``.

    ``mean_grads`` holds one aggregated meta-gradient per edge server as a
    (K, P) array; ``selected`` masks the A >= 1 servers that upload.
    """
    picked = mean_grads[np.asarray(selected, dtype=bool)]
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

    A run is its engine: ``experiment.prepare`` builds it before round 0
    from the scenario, model, federation, (K, N+1) path-loss ``gain``,
    initial point w0, estimated ``constants`` and step size ``beta``, and
    ``run_experiment`` and ``run_audit`` return it with one RoundRecord
    per round in ``records``.  The engine derives the bound coefficients
    ``phi`` and ``nu`` from beta and the constants; they only scale the
    reported importance and bound.  It schedules with ``phi_sched``, which
    is ``phi`` unless the scenario's ``phi_override`` is at least 0.

    Per-edge-server state is kept as arrays with one row per server:

    version      -- global round whose model the server works from, so its
                    base is ``history[version]`` and its age ``t - version``
    mean_grad    -- (K, P) mean UE meta-gradient at the base
    grad_norm_sq -- squared norm of mean_grad, the server's importance

    ``history`` holds the model entering each round: a copy of w0, then
    each array global_update returns, kept as is because nothing writes
    a model in place.  Beside it, ``refreshed[t]`` is the ``(ids, mean)``
    pair of round t's refresh: the servers of age 0 and their
    (len(ids), P) mean UE meta-gradients at ``history[t]``.  The
    audit reads both; the run itself reads neither.
    """

    def __init__(self, scenario, model, federation, gain, w0, constants,
                 beta):
        self.scenario = scenario
        self.model = model
        self.federation = federation
        self.gain = gain
        self.constants = constants
        self.beta = beta
        self.phi, self.nu = bound_constants(
            beta, scenario.s_max, scenario.a_max, scenario.k,
            constants.meta_div_sq)
        self.phi_sched = (self.phi if scenario.phi_override < 0
                          else scenario.phi_override)
        self.n0 = dbm_per_hz_to_w(scenario.n0_dbm_hz)
        self.power = np.append(np.full(scenario.n_k, scenario.p_ue),
                               scenario.p_es)
        self.w = np.array(w0, dtype=float)
        self.t = 0
        self.history = [self.w]
        self.refreshed = []
        self.records = []
        k = scenario.k
        self.version = np.zeros(k, dtype=int)
        self.mean_grad = np.zeros((k, self.w.size))
        self.grad_norm_sq = np.zeros(k)
        # every UE's shard has one size, so every UE has one compute time
        d_bits = float(self.federation.train.size) * self.model.dim \
            * BITS_PER_PARAM
        self.tcmp_ue = tcmp(scenario.c_cycles, d_bits, scenario.cpu_hz)
        # one closed-form share prices every server alike, so the schedule
        # compares like with like and only the selection is ever solved for
        self.price_share = scenario.total_b / (
            min(scenario.a_max, k) * (scenario.n_k + 1))
        self._random_rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, 433]))
        _, self._grad = meta.objective(scenario.mode)

    def _refresh(self, ids, states):
        """Recompute the UE updates of the servers ``ids`` of age 0.

        One call covers them all, at the entering model, from the forward
        ``states`` of their UEs that _evaluate kept.  Older servers keep
        full-batch gradients of an unchanged base, which are bit-identical,
        so they are skipped.  A non-finite squared norm raises
        NonFiniteError naming its server.
        """
        grads = self._grad(self.model, self.w, self.federation.train[ids],
                           self.scenario.alpha,
                           context=lambda i: _ue_name((ids[i[0]], i[1])),
                           states=states)
        self.mean_grad[ids] = mean = grads.mean(axis=1)
        self.refreshed.append((ids, mean))
        with np.errstate(over="ignore"):    # an overflow raises below
            self.grad_norm_sq[ids] = meta._check_finite(
                (mean[:, None, :] @ mean[:, :, None])[:, 0, 0],
                "squared gradient norm", lambda i: "es %d" % ids[i[0]], False)

    def _evaluate(self, ids):
        """Training objective and held-out accuracy of the entering model.

        Loss is the global objective at the current global model: the mean
        over UEs of the base training loss at theta, the adapted point
        (personalized mode) or the global model itself (conventional
        mode).  Accuracy scores each UE's held-out shard at its theta;
        task families without labels report accuracy 0.  Every UE's
        training logits are formed once at w and, in "hpfl" mode, once at
        theta; of those forward states only the rows of the servers
        ``ids`` are kept.  Returns (loss, accuracy, states), states being
        ``(theta, state at w, state at theta)`` over the UEs of ``ids``,
        with theta and its state None in "hfl" mode.
        """
        train, eval_ = self.federation.train, self.federation.eval
        theta = at_w = None
        if self.scenario.mode == "hpfl":
            theta, at_w = meta.adapt(self.model, self.w, train,
                                     self.scenario.alpha, context=_ue_name,
                                     keep=ids)
        at = self.w if theta is None else theta
        losses, kept = meta.plain_loss(self.model, at, train,
                                       context=_ue_name, keep=ids)
        acc = 0.0
        if hasattr(eval_, "x1"):
            pred = self.model.predict(at, eval_.x1)
            acc = int(np.sum(pred == eval_.y)) / eval_.y.size
        states = ((None, kept, None) if theta is None
                  else (theta[ids], at_w, kept))
        return float(np.mean(losses)), float(acc), states

    def run_round(self, forced_selection=None):
        """Advance the federation by one cloud round, append its record to
        ``records`` and return it; ``forced_selection``, a (K,) mask,
        replaces the round's selection."""
        p = self.scenario
        k = p.k
        # a forced mask is checked before the round touches the engine
        pi = (None if forced_selection is None
              else np.asarray(forced_selection, dtype=bool))
        if pi is not None and (pi.shape != (k,) or not pi.any()):
            raise ValueError("forced selection must pick at least one of "
                             "%d servers" % k)
        age = self.t - self.version
        # the servers that received the entering model worked this round
        # (at t = 0, all of them)
        ids = np.flatnonzero(age == 0)
        loss, acc, states = self._evaluate(ids)
        self._refresh(ids, states)
        ph = self.power * sample_channels(self.gain, p.seed, self.t)
        latencies = es_latency(self.tcmp_ue, tcom(
            p.z_bits, uplink_rate(self.price_share, ph, self.n0)))

        importance = self.grad_norm_sq
        capped = False
        if pi is None and p.selection == "proposed":
            # a server is due once its age reaches the budget; those of age
            # 0 were just handed the model, so s_max = 0 forces the rest
            due = age >= max(p.s_max, 1)
            pi, capped = schedule(importance, latencies, due, p.rho,
                                  self.phi_sched, p.a_max)
        elif pi is None:
            pi = baseline_select(p.selection, k, p.a_max, self._random_rng)

        # the round's one bandwidth split, over the selected servers
        ph = ph[pi]
        result = (progressive_fill if p.allocation == "progressive"
                  else equal_split)(AllocationProblem(
                      tcmp_ue=np.full(ph[:, :-1].shape, self.tcmp_ue), ph=ph,
                      z=p.z_bits, n0=self.n0, total_b=p.total_b,
                      b_min=p.b_min))

        staleness_used = tuple(int(s) for s in np.minimum(age[pi], p.s_max))
        versions = tuple(int(v) for v in self.version[pi])
        a_eff = int(pi.sum())
        captured = float(self.phi * importance[pi].sum())
        objective = objective_value(pi, importance, latencies, p.rho,
                                    self.phi_sched)

        self.w = global_update(self.w, self.mean_grad, pi, self.beta)
        self.t += 1
        self.history.append(self.w)
        # uploaders receive the new model; the rest age by one
        self.version[pi] = self.t

        record = RoundRecord(
            round=self.t - 1,
            loss=loss,
            acc=acc,
            latency=result.achieved_o,
            importance=captured,
            a_eff=a_eff,
            runtime_us=int(result.work + k),
            bound_rhs=captured + self.nu,
            pi=tuple(int(v) for v in pi),
            staleness_used=staleness_used,
            staleness_after=tuple(
                int(s) for s in np.minimum(self.t - self.version, p.s_max)),
            versions=versions,
            objective=float(objective),
            capped=bool(capped),
        )
        self.records.append(record)
        return record
