"""Empirical smoothness/diversity constants and the drift-bound constants.

The per-round loss-change bound used for auditing needs five measured
quantities: a gradient Lipschitz constant, a gradient norm bound, a
Hessian Lipschitz constant, and two cross-client diversity bounds. None
of them is observable in closed form for general tasks, so they are
estimated as maxima over random probe points in a ball around a center
model. The two derived constants follow fixed formulas:

    meta_lip    = 4 * grad_lip + alpha * hess_lip * grad_max
    meta_div_sq = 3 * grad_max^2 * alpha^2 * hess_div^2 + 192 * grad_div^2

and the bound constants, for staleness bound S, target selected count A,
and K edge servers:

    phi = 5 * beta * S^2 / A
    nu  = 10 * beta * K * meta_div_sq / A + 5 * beta * S^2 * K * meta_div_sq / A
"""

from dataclasses import dataclass, asdict

import numpy as np

from .meta import NonFiniteError


_PROBE_RADIUS = 1.0     # of the ball the probes are drawn from
_N_DIRECTIONS = 3       # HVP directions at each probe
_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).smallest_subnormal


class EstimationError(RuntimeError):
    """Raised when the probe sample is too degenerate to estimate from."""


@dataclass(frozen=True)
class SmoothnessConstants:
    grad_lip: float
    grad_max: float
    hess_lip: float
    grad_div: float
    hess_div: float
    meta_lip: float
    meta_div_sq: float

    def to_dict(self):
        return asdict(self)


def _ball_probes(rng, dim, count, center, radius):
    u = rng.standard_normal((count, dim))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = rng.random((count, 1)) ** (1.0 / dim)
    return center + radius * radii * u / norms


def _probe(model, w, shards, dirs, grad_out, hvp_out):
    """Gradient and HVPs at w from one forward pass, freed on return."""
    state = model.forward(w, shards)
    grad_out[...] = model.grad(w, shards, state).reshape(grad_out.shape)
    for r, v in enumerate(dirs):
        hvp_out[r] = model.hvp(w, shards, v, state).reshape(hvp_out.shape[1:])


def _sq_dists(a, b, out):
    """Each row's squared distance ``||a - b||^2`` over the last axis, the
    difference squared in ``out``.

    The square root of their maximum is ``np.linalg.norm(a - b,
    axis=-1).max()``, bit for bit: the norm squares and sums each row the
    same way, and sqrt is monotone.
    """
    np.subtract(a, b, out=out)
    np.multiply(out, out, out=out)
    return out.sum(axis=-1)


def _candidates(est, scale, terms):
    """Mask of the entries of est whose exact value can be the largest
    along the last axis; scale is overwritten.

    Each exact value lies within ``err = 8 * terms * (u * scale + eta)`` of
    its estimate (u the unit roundoff, eta the smallest subnormal: each
    product or quotient that underflows is off by at most eta / 2).  An
    entry whose upper bound ``est + err`` is below the axis' best lower
    bound ``est - err`` cannot hold the maximum, and the entry that holds
    it always passes: its upper bound is at least its value, which is at
    least every other value and so every lower bound.  Rounding keeps
    this, because rounding is monotone and the factor 8 is twice what the
    bounds of _pair_estimates and _spread need.  A non-finite estimate gives no bound and is always
    a candidate, so NaN and inf reach the exact values as they would in a
    loop over every entry.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.multiply(scale, 8.0 * terms * _ROUNDOFF, out=scale)
        err += 8.0 * terms * _TINY
        other = ~np.isfinite(est)
        upper = est + err
        low = np.subtract(est, err, out=err)
        low[other] = -np.inf
        other |= upper >= low.max(axis=-1, keepdims=True)
        return other


def _pair_estimates(x, j, jj):
    """Estimates (pairs, rows) of the squared row distances ``||a - b||^2``
    of x (J, rows, P) at the probe pairs (j, jj), their scale ``||a||^2 +
    ||b||^2``, and every row's squared norm (J, rows).

    Each row's (probe, probe) Gram matrix comes from one batched product
    over a strided view of x, and an estimate is ``||a||^2 + ||b||^2 -
    2 a.b``.  In any summation order, FMA included, with gamma_k = k u /
    (1 - k u):
        |est - s| <= (2 gamma_P + 6u) (||a||^2 + ||b||^2), and the exact
        form's |s_np - s| <= gamma_(P+2) s <= 2 gamma_(P+2) (||a||^2 + ||b||^2),
    so _candidates' terms are P + 4.
    """
    rows = x.transpose(1, 0, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(rows, rows.transpose(0, 2, 1))
        norms = np.diagonal(gram, axis1=1, axis2=2).T.copy()
        scale = norms[j]
        scale += norms[jj]
        est = gram.transpose(1, 2, 0)[j, jj]
        est *= -2.0
        est += scale
    return est, scale, norms


def _pair_lip(x, dists):
    """The largest ``||x[j, row] - x[jj, row]|| / dists[j, jj]`` over the
    rows of x (J, rows, P) and the probe pairs j < jj not closer than
    1e-12, and the rows' squared norms (J, rows) it estimated on the way.

    Only the candidate rows of each pair (_pair_estimates, _candidates)
    are formed the exact way (_sq_dists), whole pairs at a time and never
    more rows at once than one pair has.  The quotients combine with
    Python's max in (j, jj) order, so a NaN quotient is dropped as in a
    plain loop.
    """
    j, jj = np.triu_indices(len(x), 1)
    far = ~(dists[j, jj] < 1e-12)
    j, jj = j[far], jj[far]
    est, scale, norms = _pair_estimates(x, j, jj)
    pair, row = np.nonzero(_candidates(est, scale, x.shape[-1] + 4))
    first = np.searchsorted(pair, np.arange(len(j) + 1))
    sq = np.empty(len(j))
    lo = 0
    for hi in range(1, len(j) + 1):
        if hi < len(j) and first[hi + 1] - first[lo] <= x.shape[1]:
            continue
        c = slice(first[lo], first[hi])
        a = x[j[pair[c]], row[c]]
        s = _sq_dists(a, x[jj[pair[c]], row[c]], a)
        sq[lo:hi] = np.maximum.reduceat(s, first[lo:hi] - first[lo])
        lo = hi
    lip = 0.0
    for q in (np.sqrt(sq) / dists[j, jj]).tolist():
        lip = max(lip, q)
    return lip, norms


def _norm_max(x, norms):
    """The largest row norm of x (J, rows, P), from estimates norms
    (J, rows) of its squares: they and the exact sums are both within
    gamma_P of the true squares, so _candidates' terms are P + 4."""
    flat = norms.reshape(-1)
    cand = _candidates(flat, flat.copy(), x.shape[-1] + 4).reshape(norms.shape)
    sq = []
    for rows, c in zip(x, cand):
        if c.any():
            a = rows[c]
            sq.append(np.multiply(a, a, out=a).sum(axis=-1).max())
    return float(np.sqrt(np.max(sq)))


def _spread(x, norms):
    """The largest root mean squared distance of a slab's rows from their
    mean, over the (J, R) slabs (U, P) of x (J, R, U, P), from estimates
    norms (J, R, U) of the rows' squared norms.

    A slab's value ``T = mean_u ||h_u - m||^2``, m its rows' computed mean,
    is estimated as ``mn - ||m||^2`` with ``mn = mean_u ||h_u||^2``.  Beside
    the norms' rounding this carries the mean's own: each entry of m is
    within gamma_U mean_u |h_u| of the true mean's, which moves ``mn -
    ||m||^2`` off T by at most gamma_U (mn + ||m||^2).  In all
        |est - T| <= (2 gamma_P + 2 gamma_U + u) (mn + ||m||^2), and the
        exact form's |T_np - T| <= (gamma_(P+2) + gamma_U) mn (1 + O(u)),
    so _candidates' terms are P + U + 4.  Only the candidate slabs are
    formed the exact way.
    """
    mean = x.mean(axis=2, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = norms.mean(axis=-1)
        sq_mean = np.einsum("...ip,...ip->...", mean, mean)
        est = scale - sq_mean
        scale += sq_mean
    cand = _candidates(est.reshape(-1), scale.reshape(-1),
                       x.shape[-1] + x.shape[-2] + 4)
    slabs = x.reshape((-1,) + x.shape[2:])
    means = mean.reshape((-1,) + mean.shape[2:])
    buf = np.empty(x.shape[2:])
    return float(np.sqrt(np.max([_sq_dists(slabs[s], means[s], buf).mean()
                                 for s in np.flatnonzero(cand)])))


def _maxima(grads, hvps, dists):
    """(grad_lip, grad_max, hess_lip, grad_div, hess_div) from the probes'
    (probe, UE, P) gradients and (probe, direction, UE, P) HVPs; neither
    stack is written.

    Each maximum has the bits of a loop that forms every value the exact
    way (tests/oracles.py::estimator_maxima): one batched Gram product per
    stack gives every row's squared norm and probe dot products, from
    which every value is estimated at once within a proven bound, and only
    the values that can be the maximum (_candidates) are formed exactly.
    A probe pair closer than 1e-12 gives no difference quotient.
    """
    n, _, p = grads.shape
    grad_lip, g_norms = _pair_lip(grads, dists)
    hess_lip, h_norms = _pair_lip(hvps.reshape(n, -1, p), dists)
    return (grad_lip, _norm_max(grads, g_norms), hess_lip,
            _spread(grads[:, None], g_norms[:, None]),
            _spread(hvps, h_norms.reshape(hvps.shape[:3])))


def estimate_constants(model, shards, alpha, probe_count, rng_seed, center):
    """Sampled maxima of the smoothness and diversity quantities.

    The probe_count probes lie in the radius-1 ball around center and take
    HVPs along the same 3 random directions.
    shards stacks every UE's training shard along its leading axes (a
    shard without batch axes counts as one UE); at each probe point one
    gradient call and one HVP call per direction share one forward pass.
    Deterministic given rng_seed. Raises EstimationError if all probe
    points coincide, and NonFiniteError naming a non-finite constant.
    """
    n_ue = int(np.prod(shards.batch_shape))
    dim = model.n_params
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), 17]))
    probes = _ball_probes(rng, dim, probe_count, center, _PROBE_RADIUS)

    dists = np.linalg.norm(probes[:, None, :] - probes[None, :, :], axis=2)
    if dists.max() < 1e-12:
        raise EstimationError("all probe points identical; cannot form difference quotients")

    dirs = rng.standard_normal((_N_DIRECTIONS, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    grads = np.empty((probe_count, n_ue, dim))
    hvps = np.empty((probe_count, _N_DIRECTIONS, n_ue, dim))
    for j, w in enumerate(probes):
        _probe(model, w, shards, dirs, grads[j], hvps[j])
    grad_lip, grad_max, hess_lip, grad_div, hess_div = _maxima(
        grads, hvps, dists)

    meta_lip = 4.0 * grad_lip + alpha * hess_lip * grad_max
    try:
        meta_div_sq = 3.0 * grad_max ** 2 * alpha ** 2 * hess_div ** 2 + 192.0 * grad_div ** 2
    except OverflowError:   # a float ** raises where a * returns inf
        meta_div_sq = np.inf
    constants = SmoothnessConstants(
        grad_lip=grad_lip, grad_max=grad_max, hess_lip=hess_lip,
        grad_div=grad_div, hess_div=hess_div,
        meta_lip=meta_lip, meta_div_sq=meta_div_sq)
    for name, value in constants.to_dict().items():
        if not np.isfinite(value):
            raise NonFiniteError("non-finite constant %s" % name)
    return constants


def bound_constants(beta, s, a, k, meta_div_sq):
    """The (phi, nu) pair of the per-round loss-change bound; S >= 0, A >= 1.

    Raises NonFiniteError naming phi or nu when either is not finite.
    """
    s_sq = float(s) * float(s)    # a float ** raises where a * returns inf
    phi = 5.0 * beta * s_sq / a
    nu = 10.0 * beta * k * meta_div_sq / a + 5.0 * beta * s_sq * k * meta_div_sq / a
    for name, value in (("phi", phi), ("nu", nu)):
        if not np.isfinite(value):
            raise NonFiniteError("non-finite constant %s" % name)
    return phi, nu
