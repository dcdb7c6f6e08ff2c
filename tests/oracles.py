"""Reference implementations that tests compare the package against.

No run calls these: the allocator prices links with the broadcast
``bandwidth.deadline_bandwidth``, the scheduler applies its threshold
inline and ranks its cap in one sort, the estimator forms exactly only
the pairs' rows and slabs its Gram estimates cannot rule out, the logistic and MLP HVPs sum the classes without the product
array, the audit reuses the run's refreshed gradients and
``sample_topology`` prices the path loss once, as the gain array that
``prepare`` hands the engine.  The classifier kernels take their input
biases inside the products, on features beside a ones column, and the
federation is drawn a server at a time; the oracles below work on the
plain features and add every bias in its own pass.  They stay here as
slow, obviously correct oracles.
"""

import numpy as np

from hpfl import bandwidth
from hpfl.bandwidth import InfeasibleAllocationError
from hpfl.network import LN2, db_to_linear, tcom, uplink_rate
from hpfl.scheduler import net_scores
from hpfl.tasks import (TaskShard, _affine_grad, _class_argmax, _from_slabs,
                        _minus_onehot, _nll, _pack, _softmax, _t,
                        make_class_means)


def with_ones(x):
    """Features x (..., n, d) copied beside a trailing ones column, as
    (..., n, d + 1)."""
    x1 = np.ones(x.shape[:-1] + (x.shape[-1] + 1,))
    x1[..., :-1] = x
    return x1


def hand_shard(x, y):
    """A TaskShard built by hand from plain features x (..., n, d), copied
    beside their ones column, and labels y (..., n)."""
    return TaskShard(x1=with_ones(x), y=y)


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


def plain_class_logits(weights, bias, x):
    """``weights @ x' + bias`` (..., c, n) on plain features x (..., n, d),
    class-outermost, the bias added after the product.  At a shared point
    it is one product over every sample, else one stacked product a UE.
    The one product must keep m·n·k below 2^18, where OpenBLAS runs it on
    one thread, or its bits may depend on the thread count."""
    c, n = weights.shape[-2], x.shape[-2]
    if weights.ndim == 2:
        out = weights @ x.reshape(-1, x.shape[-1]).T
        out += bias[:, None]
        return _from_slabs(out.reshape((c,) + x.shape[:-2] + (n,)))
    out = np.empty((c,) + x.shape[:-2] + (n,))
    z = np.matmul(weights, _t(x), out=_from_slabs(out))
    z += bias[..., :, None]
    return z


def plain_logistic_kernels(model, w, shard, v):
    """``LogisticModel``'s (loss, grad, hvp, predict) at w, the HVP along v,
    from plain_class_logits on ``shard.x``, the HVP's class sum taken from
    the product array."""
    def logits(at):
        return plain_class_logits(*model._unpack(at), shard.x)

    reg = 0.5 * model.l2 * (w[..., None, :] @ w[..., :, None])[..., 0, 0]
    p = _softmax(logits(w))
    grad = _affine_grad(_minus_onehot(p, shard.y), shard.x, model.l2, w)
    rp = logits(v)
    rp -= (p * rp).sum(axis=-2, keepdims=True)
    rp *= p
    hvp = _affine_grad(rp, shard.x, model.l2, v)
    return (_nll(logits(w), shard.y) + reg, grad, hvp,
            _class_argmax(logits(w)))


def product_class_sum_hvp(model, w, shard, v, p):
    """``LogisticModel.hvp`` at w handed the state p, its class sum taken
    as ``(p * rp).sum(axis=-2)`` over the whole product array."""
    rp = model._forward(v, shard.x1)[1]
    rp -= (p * rp).sum(axis=-2, keepdims=True)
    rp *= p
    h_w = rp @ shard.x / shard.size
    h_b = rp.mean(axis=-1)
    return _pack(h_b.shape[:-1], h_w, h_b) + model.l2 * v


def plain_mlp_kernels(model, w, shard, v):
    """``MLPModel``'s (loss, grad, hvp, predict) at w, the HVP along v, on
    ``shard.x``: each hidden bias added or averaged in its own pass, the
    HVP's logit change C-ordered and its class sum ``(p * rd2).sum``."""
    n, x = shard.size, shard.x
    w1, b1, w2, b2 = model._unpack(w)
    v1, vb1, v2, vb2 = model._unpack(v)

    a1 = x @ _t(w1)
    a1 += b1[..., None, :]
    np.tanh(a1, out=a1)
    z2 = plain_class_logits(w2, b2, a1)
    predict = _class_argmax(z2)
    reg = 0.5 * model.l2 * (w[..., None, :] @ w[..., :, None])[..., 0, 0]
    loss = _nll(np.copy(z2), shard.y) + reg
    p = _softmax(z2)
    s1 = 1.0 - a1 * a1
    d2 = _minus_onehot(p, shard.y)
    d1 = _t(d2) @ w2
    d1 *= s1
    g_b1 = d1.mean(axis=-2)
    grad = _pack(g_b1.shape[:-1], _t(d1) @ x / n, g_b1, d2 @ a1 / n,
                 d2.mean(axis=-1)) + model.l2 * w

    ra1 = x @ _t(v1)
    ra1 += vb1[..., None, :]
    ra1 *= s1
    rd2 = v2 @ _t(a1) + w2 @ _t(ra1) + vb2[..., :, None]
    rd2 -= (p * rd2).sum(axis=-2, keepdims=True)
    rd2 *= p
    h_w2 = (rd2 @ a1 + d2 @ ra1) / n
    h_b2 = rd2.mean(axis=-1)
    t = a1 * ra1
    t *= _t(d2) @ w2
    t *= -2.0
    rd1 = _t(d2) @ v2 + _t(rd2) @ w2
    rd1 *= s1
    rd1 += t
    h_b1 = rd1.mean(axis=-2)
    hvp = _pack(h_b1.shape[:-1], _t(rd1) @ x / n, h_b1, h_w2,
                h_b2) + model.l2 * v
    return loss, grad, hvp, predict


def per_ue_classification_federation(rng, k, n_k, l, n_classes, dim,
                                     n_train, n_eval, separation, noise):
    """(train, eval) TaskShards of plain (k, n_k, n, dim) features, each
    UE's samples drawn and placed on their own: its labels, then its train
    and its eval draws straight into its view, scaled and shifted there."""
    means = make_class_means(rng, n_classes, dim, separation)
    stacks = [(np.empty((k, n_k, n, dim)), np.empty((k, n_k, n), np.int64))
              for n in (n_train, n_eval)]
    for k_idx in range(k):
        for j in range(n_k):
            labels = np.sort(rng.choice(n_classes, size=l, replace=False))
            for x, y in stacks:
                y[k_idx, j] = labels[rng.integers(0, len(labels),
                                                  size=x.shape[-2])]
                view = rng.standard_normal(out=x[k_idx, j])
                view *= noise
                view += means[y[k_idx, j]]
    return tuple(hand_shard(x, y) for x, y in stacks)


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
