"""Personalized meta-objective, the plain objective, and the choice between them.

The per-UE objective evaluates the base loss at the adapted point
theta = w - alpha * grad(w), so its gradient carries a Hessian term:

    meta_grad(w) = (I - alpha * H(w)) @ grad(w - alpha * grad(w))

The Hessian is applied only through Hessian-vector products.
"""

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a loss, gradient, or update stops being finite."""


def _check_finite(arr, what, context):
    if not np.all(np.isfinite(arr)):
        where = f" at {context}" if context else ""
        raise NonFiniteError(f"non-finite {what}{where}")


def meta_loss(model, w, shard, alpha, context=""):
    """Base loss evaluated at the one-step adapted parameters."""
    g = model.grad(w, shard)
    _check_finite(g, "adaptation gradient", context)
    value = model.loss(w - alpha * g, shard)
    _check_finite(value, "meta loss", context)
    return value


def meta_grad(model, w, shard, alpha, context=""):
    """Exact gradient of meta_loss via two gradients and one HVP."""
    g1 = model.grad(w, shard)
    _check_finite(g1, "adaptation gradient", context)
    g2 = model.grad(w - alpha * g1, shard)
    _check_finite(g2, "adapted-point gradient", context)
    out = g2 - alpha * model.hvp(w, shard, g2)
    _check_finite(out, "meta gradient", context)
    return out


def plain_grad(model, w, shard, alpha=0.0, context=""):
    """Conventional gradient, signature-compatible with meta_grad."""
    g = model.grad(w, shard)
    _check_finite(g, "gradient", context)
    return g


def plain_loss(model, w, shard, alpha=0.0, context=""):
    """Conventional loss, signature-compatible with meta_loss."""
    value = model.loss(w, shard)
    _check_finite(value, "loss", context)
    return value


def objective(mode):
    """The (loss, grad) pair a run optimizes: meta in "hpfl", plain in "hfl".

    Returns this module's current functions, looked up when called.
    """
    if mode == "hpfl":
        return meta_loss, meta_grad
    return plain_loss, plain_grad


def adapt(model, w, shard, alpha):
    """One-step adapted parameters theta = w - alpha * grad(w)."""
    return w - alpha * model.grad(w, shard)
