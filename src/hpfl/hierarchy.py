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
from .network import dbm_per_hz_to_w, sample_channels, tcom, tcmp, uplink_rate
from .scheduler import baseline_select, objective_value, schedule

__all__ = [
    "AggregationError",
    "EdgeState",
    "RoundRecord",
    "RoundEngine",
    "global_update",
    "advance_staleness",
]

BITS_PER_PARAM = 32.0


def _ue_name(index):
    """Error-message name of the UE at batch index (es, ue)."""
    return "es %d ue %d" % index


class AggregationError(RuntimeError):
    """An aggregation step was asked to run on an empty or stale-less set."""


@dataclass
class EdgeState:
    """Mutable per-edge-server bookkeeping between cloud rounds.

    base          -- the global model copy the server currently works from
    version       -- global round index at which that copy was issued
    staleness     -- rounds since refresh, saturated at the budget
    force_pending -- staleness budget is exhausted; must upload next round
    needs_refresh -- base changed, local updates must be recomputed
    """

    es_id: int
    base: np.ndarray
    version: int = 0
    staleness: int = 0
    force_pending: bool = False
    needs_refresh: bool = True
    mean_grad: np.ndarray = None
    grad_norm_sq: float = 0.0


def global_update(w, edges, selected, beta):
    """Cloud step ``w - (beta/A) * sum of the A selected mean gradients``.

    Every selected server must carry a cached mean gradient (i.e. have
    been refreshed).
    """
    selected = np.asarray(selected, dtype=bool)
    picked = [edges[i] for i in np.flatnonzero(selected)]
    if not picked:
        raise AggregationError("global update with an empty selection")
    for es in picked:
        if es.mean_grad is None:
            raise AggregationError(
                "edge server %d was selected before ever computing an update"
                % es.es_id)
    total = np.zeros_like(w)
    for es in picked:
        total = total + es.mean_grad
    return w - (beta / float(len(picked))) * total


def advance_staleness(edges, selected, s_max, new_model, new_version):
    """Post-round ageing: selected servers sync, the rest grow staler.

    A selected server receives the new model and resets to staleness 0.
    An unselected server's recorded staleness saturates at ``s_max`` and
    it is flagged for forced inclusion once the budget is reached.
    """
    selected = np.asarray(selected, dtype=bool)
    for i, es in enumerate(edges):
        if selected[i]:
            es.base = new_model.copy()
            es.version = new_version
            es.staleness = 0
            es.force_pending = False
            es.needs_refresh = True
        else:
            es.staleness = min(es.staleness + 1, s_max)
            es.force_pending = es.staleness >= s_max


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
        k = len(self.federation)
        self.edges = [EdgeState(es_id=i, base=self.w.copy()) for i in range(k)]
        # before the first selection every server works and uploads
        self.work_set = np.ones(k, dtype=bool)
        self._random_rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, 433]))
        _, self._grad = meta.objective(scenario.mode)

    @property
    def k(self):
        return len(self.edges)

    def _refresh(self):
        """Recompute the UE updates of every server whose base changed.

        One call covers all dirty servers, each server's base broadcast
        over its UEs.  Unselected servers keep full-batch gradients of an
        unchanged base, which are bit-identical, so they are skipped.
        """
        dirty = [es for es in self.edges if es.needs_refresh]
        if not dirty:
            return
        ids = [es.es_id for es in dirty]
        bases = np.stack([es.base for es in dirty])[:, None, :]
        grads = self._grad(self.model, bases, self.federation.train[ids],
                           self.scenario.alpha,
                           context=lambda i: _ue_name((ids[i[0]], i[1])))
        for es, ue_grads in zip(dirty, grads):
            es.mean_grad = ue_grads.mean(axis=0)
            es.grad_norm_sq = float(es.mean_grad @ es.mean_grad)
            es.needs_refresh = False

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

    def _group_for(self, es_idx, snapshot):
        p = self.scenario
        train = self.federation.train
        d_bits = np.full(train.batch_shape[1], float(train.size)) \
            * self.model.dim * BITS_PER_PARAM
        return ESGroup(
            tcmp_ue=tcmp(p.c_cycles, d_bits, p.cpu_hz),
            ph_ue=p.p_ue * snapshot.h_ue[es_idx],
            ph_es=float(p.p_es * snapshot.h_es[es_idx]),
            z_ue=p.z_bits,
            z_es=p.z_bits,
        )

    def _allocate(self, member_mask, groups):
        """Bandwidth split over one set of working servers.

        Returns (member indices, per-ES latency array over the members,
        solver work units).
        """
        p = self.scenario
        members = np.flatnonzero(member_mask)
        problem = AllocationProblem(groups=tuple(groups[i] for i in members),
                                    n0=self.n0, total_b=p.total_b,
                                    b_min=p.b_min)
        if p.allocation == "progressive":
            result = progressive_fill(problem)
        else:
            result = equal_split(problem)
        return members, np.asarray(result.latencies, dtype=float), result.work

    def _counterfactual_latency(self, grp, share):
        """Latency estimate for a server that did not hold bandwidth.

        ``share`` is the reference price of adding it: the even split of
        the budget over every positive-payload link in the federation.
        """
        t_ue = grp.tcmp_ue + tcom(grp.z_ue, uplink_rate(share, 1.0, grp.ph_ue, self.n0))
        t_es = tcom(grp.z_es, uplink_rate(share, 1.0, grp.ph_es, self.n0))
        return float(np.max(t_ue) + t_es)

    def run_round(self, forced_selection=None):
        """Advance the federation by one cloud round and record it."""
        p = self.scenario
        self._refresh()
        loss, acc = self._evaluate()
        snapshot = sample_channels(self.topology, p.seed, self.t)
        groups = [self._group_for(i, snapshot) for i in range(self.k)]

        members, member_lat, work = self._allocate(self.work_set, groups)
        latencies = np.empty(self.k)
        latencies[members] = member_lat
        idle = np.flatnonzero(~self.work_set)
        if idle.size:
            share = p.total_b / sum(grp.n_links for grp in groups)
            for i in idle:
                latencies[i] = self._counterfactual_latency(groups[i], share)

        importance = np.array([es.grad_norm_sq for es in self.edges])
        forced = np.array([es.force_pending for es in self.edges])
        capped = False
        if forced_selection is not None:
            pi = np.asarray(forced_selection, dtype=bool)
            if pi.shape != (self.k,) or not pi.any():
                raise ValueError("forced selection must pick at least one of "
                                 "%d servers" % self.k)
        elif p.selection == "proposed":
            decision = schedule(importance, latencies, forced, p.rho,
                                self.phi_sched, p.a_max)
            pi = decision.pi
            capped = decision.capped
        else:
            pi = baseline_select(p.selection, self.k, p.a_max, self._random_rng)

        # servers picked outside the working set need bandwidth they never
        # had, so the physical round re-splits over the actual uploaders
        if not np.array_equal(pi, self.work_set):
            _, sel_lat, extra = self._allocate(pi, groups)
            work += extra
            latency = float(sel_lat.max())
        else:
            latency = float(latencies[pi].max())

        staleness_used = tuple(int(self.edges[i].staleness)
                               for i in np.flatnonzero(pi))
        versions = tuple(int(self.edges[i].version) for i in np.flatnonzero(pi))
        a_eff = int(pi.sum())
        captured = float(self.phi * importance[pi].sum())
        objective = objective_value(pi, importance, latencies, p.rho,
                                    self.phi_sched)

        self.w = global_update(self.w, self.edges, pi, self.beta)
        self.t += 1
        self.history.append(self.w.copy())
        advance_staleness(self.edges, pi, p.s_max, self.w, self.t)
        self.work_set = pi.copy()

        record = RoundRecord(
            round=self.t - 1,
            loss=loss,
            acc=acc,
            latency=latency,
            importance=captured,
            a_eff=a_eff,
            runtime_us=int(work + self.k),
            bound_rhs=captured + self.nu,
            pi=tuple(int(v) for v in pi),
            staleness_used=staleness_used,
            staleness_after=tuple(int(es.staleness) for es in self.edges),
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
