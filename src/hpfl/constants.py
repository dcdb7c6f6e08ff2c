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


def _maxima(grads, hvps, dists):
    """(grad_lip, grad_max, hess_lip, grad_div, hess_div) from the probes'
    (probe, UE, P) gradients and (probe, direction, UE, P) HVPs.

    Every difference is written into one ``hvps.shape[1:]`` buffer, and
    hvps is overwritten by its deviations from the UE mean.  A probe pair
    closer than 1e-12 gives no difference quotient.
    """
    buf = np.empty(hvps.shape[1:])
    g_buf = buf[0]
    n = len(grads)
    grad_mean = grads.mean(axis=1, keepdims=True)
    norm_sq, div_sq = np.empty(n), np.empty(n)
    for j, g in enumerate(grads):
        norm_sq[j] = np.multiply(g, g, out=g_buf).sum(axis=1).max()
        div_sq[j] = _sq_dists(g, grad_mean[j], g_buf).mean()

    grad_lip = 0.0
    hess_lip = 0.0
    for j in range(n):
        for jj in range(j + 1, n):
            dw = dists[j, jj]
            if dw < 1e-12:
                continue
            grad_lip = max(grad_lip, float(
                np.sqrt(_sq_dists(grads[j], grads[jj], g_buf).max()) / dw))
            hess_lip = max(hess_lip, float(
                np.sqrt(_sq_dists(hvps[j], hvps[jj], buf).max()) / dw))

    # in place: the HVP stack is the largest array of a run
    hvps -= hvps.mean(axis=2, keepdims=True)
    hvps **= 2
    hess_div = float(np.sqrt(hvps.sum(axis=3).mean(axis=2).max()))
    return (grad_lip, float(np.sqrt(norm_sq.max())), hess_lip,
            float(np.sqrt(div_sq.max())), hess_div)


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
