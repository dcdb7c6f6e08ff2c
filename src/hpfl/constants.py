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


def estimate_constants(model, shards, alpha, probe_count=8, rng_seed=0,
                       center=None):
    """Sampled maxima of the smoothness and diversity quantities.

    The probe_count probes lie in the radius-1 ball around center (the
    origin if None) and take HVPs along the same 3 random directions.
    shards stacks every UE's training shard along its leading axes (a
    shard without batch axes counts as one UE); at each probe point one
    gradient call and one HVP call per direction share one forward pass.
    Deterministic given rng_seed. Raises EstimationError if all probe
    points coincide, and NonFiniteError naming a non-finite constant.
    """
    n_ue = int(np.prod(shards.batch_shape))
    dim = model.n_params
    if center is None:
        center = np.zeros(dim)
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

    grad_max = float(np.linalg.norm(grads, axis=2).max())

    grad_lip = 0.0
    hess_lip = 0.0
    for j in range(probe_count):
        for jj in range(j + 1, probe_count):
            dw = dists[j, jj]
            if dw < 1e-12:
                continue
            grad_lip = max(grad_lip, float(
                np.linalg.norm(grads[j] - grads[jj], axis=1).max() / dw))
            hess_lip = max(hess_lip, float(
                np.linalg.norm(hvps[j] - hvps[jj], axis=2).max() / dw))

    grad_mean = grads.mean(axis=1, keepdims=True)
    grad_div = float(np.sqrt(
        ((grads - grad_mean) ** 2).sum(axis=2).mean(axis=1).max()))
    # in place: the HVP stack is the largest array of a run
    hvps -= hvps.mean(axis=2, keepdims=True)
    hvps **= 2
    hess_div = float(np.sqrt(hvps.sum(axis=3).mean(axis=2).max()))

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
    """The (phi, nu) pair of the per-round loss-change bound; S >= 0, A >= 1."""
    phi = 5.0 * beta * s ** 2 / a
    nu = 10.0 * beta * k * meta_div_sq / a + 5.0 * beta * s ** 2 * k * meta_div_sq / a
    return phi, nu
