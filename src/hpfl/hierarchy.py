"""Round engine for the two-tier personalized federation.

The cloud keeps the global model; each edge server (ES) keeps the stale
copy it received when last selected, and its UEs personalize that copy
with one meta-gradient step.  Every round the engine:

1. recomputes local updates at edge servers whose base model changed,
2. scores loss/accuracy of the entering global model,
3. draws this round's channel fading and allocates uplink bandwidth to
   the servers that worked during the round (the previous selection),
4. predicts per-server latency, schedules the uploads, and reallocates
   bandwidth to the servers that were actually selected,
5. applies the cloud step from the selected servers' (stale) aggregated
   meta-gradients scaled by beta over the number of arrivals,
6. hands the new model to the selected servers and ages the rest,
   saturating their recorded staleness at the staleness budget and
   marking them as must-select for the next round.

Reported per-round importance is ``phi * sum of delivered squared
meta-gradient norms`` and the per-round bound value adds the constant
drift term ``nu`` on top, so descent accounting can be audited after
the fact against the recorded model trajectory.
"""

from dataclasses import dataclass

import numpy as np

from . import meta
from .bandwidth import AllocationProblem, ESGroup, equal_split, progressive_fill
from .network import dbm_per_hz_to_w, es_latency, sample_channels, tcmp
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

    base         -- (K, P) global model copy each server works from
    version      -- global round at which that copy was issued
    staleness    -- rounds since refresh, saturated at ``s_max``
    forced       -- staleness budget exhausted; must upload next round
    dirty        -- base changed, local updates must be recomputed
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
        self.base = np.tile(self.w, (k, 1))
        self.version = np.zeros(k, dtype=int)
        self.staleness = np.zeros(k, dtype=int)
        self.forced = np.zeros(k, dtype=bool)
        self.dirty = np.ones(k, dtype=bool)
        self.mean_grad = np.zeros_like(self.base)
        self.grad_norm_sq = np.zeros(k)
        # before the first selection every server works and uploads
        self.work_set = np.ones(k, dtype=bool)
        d_bits = np.full(scenario.n_k, float(self.federation.train.size)) \
            * self.model.dim * BITS_PER_PARAM
        self.tcmp_ue = tcmp(scenario.c_cycles, d_bits, scenario.cpu_hz)
        # a server without bandwidth is priced at the even split of the
        # budget over every link of the federation
        self.idle_share = scenario.total_b / (k * (scenario.n_k + 1))
        self._random_rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, 433]))
        _, self._grad = meta.objective(scenario.mode)

    def _refresh(self):
        """Recompute the UE updates of every server whose base changed.

        One call covers all dirty servers, each server's base broadcast
        over its UEs.  Unselected servers keep full-batch gradients of an
        unchanged base, which are bit-identical, so they are skipped.
        """
        ids = np.flatnonzero(self.dirty)
        if not ids.size:
            return
        grads = self._grad(self.model, self.base[ids, None, :],
                           self.federation.train[ids], self.scenario.alpha,
                           context=lambda i: _ue_name((ids[i[0]], i[1])))
        mean = grads.mean(axis=1)
        self.mean_grad[ids] = mean
        self.grad_norm_sq[ids] = (mean[:, None, :] @ mean[:, :, None])[:, 0, 0]
        self.dirty[ids] = False

    def _evaluate(self):
        """Training objective and held-out accuracy of the entering model.

        Loss is the global objective at the current global model: the mean
        over UEs of the base training loss at theta, the adapted point
        (personalized mode) or the global model itself (conventional
        mode).  Accuracy scores each UE's held-out shard at its theta;
        task families without labels report accuracy 0.
        """
        train, eval_ = self.federation.train, self.federation.eval
        if self.scenario.mode == "hpfl":
            theta = meta.adapt(self.model, self.w, train, self.scenario.alpha,
                               context=_ue_name)
        else:
            theta = self.w
        losses = meta.plain_loss(self.model, theta, train, context=_ue_name)
        acc = 0.0
        if hasattr(eval_, "x"):
            pred = self.model.predict(theta, eval_.x)
            if pred is not None:
                acc = int(np.sum(pred == eval_.y)) / eval_.y.size
        return float(np.mean(losses)), float(acc)

    def _allocate(self, members, ph_ue, ph_es):
        """Bandwidth split over the servers masked by ``members``.

        ``ph_ue`` (K, N) and ``ph_es`` (K,) are this round's transmit power
        times channel gain.  Returns (per-ES latency array over the
        members, solver work units).
        """
        p = self.scenario
        groups = tuple(
            ESGroup(tcmp_ue=self.tcmp_ue, ph_ue=ph_ue[i], ph_es=float(ph_es[i]),
                    z_ue=p.z_bits, z_es=p.z_bits)
            for i in np.flatnonzero(members))
        problem = AllocationProblem(groups=groups, n0=self.n0,
                                    total_b=p.total_b, b_min=p.b_min)
        if p.allocation == "progressive":
            result = progressive_fill(problem)
        else:
            result = equal_split(problem)
        return result.latencies, result.work

    def run_round(self, forced_selection=None):
        """Advance the federation by one cloud round and record it."""
        p = self.scenario
        k = p.k
        self._refresh()
        loss, acc = self._evaluate()
        snapshot = sample_channels(self.topology, p.seed, self.t)
        ph_ue = p.p_ue * snapshot.h_ue
        ph_es = p.p_es * snapshot.h_es

        latencies = np.empty(k)
        latencies[self.work_set], work = self._allocate(self.work_set, ph_ue,
                                                        ph_es)
        idle = ~self.work_set
        if idle.any():
            z, share = p.z_bits, self.idle_share
            latencies[idle] = es_latency(self.tcmp_ue, ph_ue[idle],
                                         ph_es[idle], z, z, share, share,
                                         self.n0)

        importance = self.grad_norm_sq
        capped = False
        if forced_selection is not None:
            pi = np.asarray(forced_selection, dtype=bool)
            if pi.shape != (k,) or not pi.any():
                raise ValueError("forced selection must pick at least one of "
                                 "%d servers" % k)
        elif p.selection == "proposed":
            decision = schedule(importance, latencies, self.forced, p.rho,
                                self.phi_sched, p.a_max)
            pi = decision.pi
            capped = decision.capped
        else:
            pi = baseline_select(p.selection, k, p.a_max, self._random_rng)

        # servers picked outside the working set need bandwidth they never
        # had, so the physical round re-splits over the actual uploaders
        if not np.array_equal(pi, self.work_set):
            sel_lat, extra = self._allocate(pi, ph_ue, ph_es)
            work += extra
            latency = float(sel_lat.max())
        else:
            latency = float(latencies[pi].max())

        staleness_used = tuple(int(s) for s in self.staleness[pi])
        versions = tuple(int(v) for v in self.version[pi])
        a_eff = int(pi.sum())
        captured = float(self.phi * importance[pi].sum())
        objective = objective_value(pi, importance, latencies, p.rho,
                                    self.phi_sched)

        self.w = global_update(self.w, self.mean_grad, pi, self.beta)
        self.t += 1
        self.history.append(self.w.copy())
        # uploaders receive the new model; the rest age, saturating at the
        # budget, and must upload next round once it is reached
        self.base[pi] = self.w
        self.version[pi] = self.t
        self.dirty |= pi
        self.staleness = np.where(pi, 0, np.minimum(self.staleness + 1,
                                                    p.s_max))
        self.forced = ~pi & (self.staleness >= p.s_max)
        self.work_set = pi.copy()

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
            staleness_after=tuple(int(s) for s in self.staleness),
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
