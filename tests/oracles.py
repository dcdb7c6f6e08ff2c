"""Reference implementations that tests compare the package against.

No run calls these: the allocator prices links with the broadcast
``bandwidth.deadline_bandwidth``, the scheduler applies its threshold
inline and ranks its cap in one sort, the estimator reuses one difference
buffer, the logistic HVP sums the classes without the product array, the
audit reuses the run's refreshed gradients and
``sample_topology`` prices the path loss once, as the gain array that
``prepare`` hands the engine.  They stay here as slow, obviously correct
oracles.
"""

import numpy as np

from hpfl import bandwidth
from hpfl.bandwidth import InfeasibleAllocationError
from hpfl.network import LN2, db_to_linear, tcom, uplink_rate
from hpfl.scheduler import net_scores
from hpfl.tasks import _pack


def power_limited_rate(p, h, n0):
    """Supremum of uplink_rate over bandwidth: p h / (N0 ln 2)."""
    return p * h / (n0 * LN2)


def _needed_rate(z_bits, p, h, n0, tcom_target, who):
    """z_bits / tcom_target, or InfeasibleAllocationError if out of reach."""
    if tcom_target <= 0.0:
        raise InfeasibleAllocationError(
            f"{who}: upload deadline {tcom_target!r} s is not positive")
    need, cap = z_bits / tcom_target, power_limited_rate(p, h, n0)
    if need >= cap:
        raise InfeasibleAllocationError(
            f"{who}: required rate {need:.6g} bit/s is not below the "
            f"power-limited ceiling {cap:.6g} bit/s")
    return need


def bisect_link_bandwidth(z_bits, p, h, n0, tcom_target, rel_tol=1e-12,
                          max_iter=300):
    """Reference solver: invert the rate formula by pure bisection."""
    need = _needed_rate(z_bits, p, h, n0, tcom_target, "link")
    hi = 1.0
    while uplink_rate(hi, p * h, n0) < need:
        hi *= 2.0
        if hi > 1e30:
            raise InfeasibleAllocationError("bandwidth bracket expansion failed")
    lo = 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if uplink_rate(mid, p * h, n0) < need:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def solve_link_bandwidth(z_bits, p, h, n0, tcom_target, who="link"):
    """Closed-form deadline bandwidth for one link, verified by residual.

    Raises InfeasibleAllocationError naming the link when the deadline
    cannot be met by any bandwidth, and RuntimeError naming the link when
    the closed form misses the deadline by more than 1e-9 relative.  It
    looks deadline_bandwidth up on the module, so a test can patch it.
    """
    if z_bits == 0.0 and tcom_target > 0.0:
        return 0.0
    _needed_rate(z_bits, p, h, n0, tcom_target, who)
    b = float(bandwidth.deadline_bandwidth(z_bits, p * h, n0, tcom_target))
    achieved = tcom(z_bits, uplink_rate(b, p * h, n0))
    miss = abs(achieved - tcom_target) / tcom_target
    if not miss <= 1e-9:
        raise RuntimeError(f"{who}: the closed-form bandwidth {b:.6g} Hz "
                           f"misses the deadline by {miss:.3g} relative")
    return b


def threshold_decisions(importance, latency, rho, phi):
    """Boolean mask of servers whose benefit meets the threshold.

    A server passes when ``rho*phi*I_k >= (1-rho)*O_k``; exact ties are
    treated as passes.
    """
    return net_scores(np.asarray(importance, dtype=float),
                      np.asarray(latency, dtype=float), rho, phi) >= 0.0


def separable_objective_value(pi, importance, latency, rho, phi):
    """Relaxed objective with a summed latency term instead of the max.

    ``-rho*phi*sum(pi*I) + (1-rho)*sum(pi*O)`` decomposes per server, which
    is what makes the threshold rule exact for it.
    """
    pi = np.asarray(pi, dtype=bool)
    imp = np.asarray(importance, dtype=float)
    lat = np.asarray(latency, dtype=float)
    return -rho * phi * float(imp[pi].sum()) + (1.0 - rho) * float(lat[pi].sum())


def two_class_cap(pass_mask, forced_mask, scores, staleness, a_max):
    """The upload cap as two orders joined: the forced servers (staler,
    then higher score, then lower index) ahead of the plain threshold
    passers (higher score, then lower index), the first ``a_max`` kept.
    Returns the mask and whether anything was dropped."""
    k = scores.shape[0]
    idx = np.arange(k)
    # lexsort uses the last key as primary
    forced_order = idx[forced_mask][
        np.lexsort((idx[forced_mask], -scores[forced_mask], -staleness[forced_mask]))
    ]
    plain = pass_mask & ~forced_mask
    plain_order = idx[plain][np.lexsort((idx[plain], -scores[plain]))]
    keep = np.concatenate([forced_order, plain_order])[:a_max]
    pi = np.zeros(k, dtype=bool)
    pi[keep] = True
    capped = keep.shape[0] < forced_order.shape[0] + plain_order.shape[0]
    return pi, capped


def estimator_maxima(grads, hvps, dists):
    """(grad_lip, grad_max, hess_lip, grad_div, hess_div) with one fresh
    ``np.linalg.norm`` per probe pair.

    ``grads`` is (probe, UE, P), ``hvps`` (probe, direction, UE, P) and
    ``dists`` the probes' pairwise distances; a pair closer than 1e-12 is
    skipped.  Neither stack is written.
    """
    grad_max = float(np.linalg.norm(grads, axis=2).max())
    grad_lip = 0.0
    hess_lip = 0.0
    for j in range(len(grads)):
        for jj in range(j + 1, len(grads)):
            dw = dists[j, jj]
            if dw < 1e-12:
                continue
            grad_lip = max(grad_lip, float(
                np.linalg.norm(grads[j] - grads[jj], axis=1).max() / dw))
            hess_lip = max(hess_lip, float(
                np.linalg.norm(hvps[j] - hvps[jj], axis=2).max() / dw))
    grad_div = float(np.sqrt(((grads - grads.mean(axis=1, keepdims=True)) ** 2)
                             .sum(axis=2).mean(axis=1).max()))
    hess_div = float(np.sqrt(((hvps - hvps.mean(axis=2, keepdims=True)) ** 2)
                             .sum(axis=3).mean(axis=2).max()))
    return grad_lip, grad_max, hess_lip, grad_div, hess_div


def product_class_sum_hvp(model, w, shard, v, p):
    """``LogisticModel.hvp`` at w handed the state p, its class sum taken
    as ``(p * rp).sum(axis=-2)`` over the whole product array."""
    rp = model._logits(v, shard.x)
    rp -= (p * rp).sum(axis=-2, keepdims=True)
    rp *= p
    h_w = rp @ shard.x / shard.size
    h_b = rp.mean(axis=-1)
    return _pack(h_b.shape[:-1], h_w, h_b) + model.l2 * v


def full_federation_grad_norms_sq(engine, versions, grad):
    """{v: squared norm of the global gradient at history[v]}, every UE of
    the federation evaluated afresh at every version."""
    out = {}
    for v in versions:
        g = grad(engine.model, engine.history[v], engine.federation.train,
                 engine.scenario.alpha)
        g = g.reshape(-1, engine.model.n_params).mean(axis=0)
        out[v] = float(g @ g)
    return out


def distance_channels(rng, k, n_k, d_ue_range, d_es_range, o_ue_db, o_es_db,
                      seed, round_index):
    """A round's (K, N+1) gains from the distances: sample_topology's draws
    from ``rng``, then ``o * d^-2 * fading`` per link kind, the path loss
    recomputed with each round's fading."""
    d_ue = rng.uniform(d_ue_range[0], d_ue_range[1], size=(k, n_k))
    d_es = rng.uniform(d_es_range[0], d_es_range[1], size=k)
    fading = np.random.default_rng(
        np.random.SeedSequence([int(seed), 211, int(round_index)]))
    h_ue = db_to_linear(o_ue_db) * d_ue ** -2.0 * fading.exponential(
        1.0, size=d_ue.shape)
    h_es = db_to_linear(o_es_db) * d_es ** -2.0 * fading.exponential(
        1.0, size=d_es.shape)
    return np.column_stack([h_ue, h_es])
