"""Personalized meta-objective, the plain objective, and the choice between them.

The per-UE objective evaluates the base loss at the adapted point
theta = w - alpha * grad(w), so its gradient carries a Hessian term:

    meta_grad(w) = (I - alpha * H(w)) @ grad(w - alpha * grad(w))

The Hessian is applied only through Hessian-vector products, which is
the exact Hessian-vector-product form of Per-FedAvg (Fallah, Mokhtari &
Ozdaglar, arXiv:2002.07948).

Every function takes the models' leading-axis contract (see tasks.py):
given a stacked shard and a shared or per-UE ``w``, one call evaluates
all UEs at once, each UE adapting from its own gradient.  The finite
checks then cover every row; ``context`` is a string naming the call
site, or a callable that receives the batch index of the first
non-finite row and returns its name.
"""

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a loss, gradient, or update stops being finite."""


def _check_finite(arr, what, context, vectors=True):
    """Return arr, raising NonFiniteError at its first row not finite.

    A row is one parameter vector (the last axis) when ``vectors`` is
    true, and one value otherwise.
    """
    finite = np.isfinite(arr)
    if finite.all():
        return arr
    bad = ~finite.all(axis=-1) if vectors else ~finite
    if callable(context):
        context = context(tuple(int(i) for i in np.argwhere(bad)[0]))
    where = f" at {context}" if context else ""
    raise NonFiniteError(f"non-finite {what}{where}")


def adapt(model, w, shard, alpha, context="", keep=None):
    """One-step adapted parameters theta = w - alpha * grad(w).

    With ``keep`` it returns ``(theta, rows)``, the rows ``keep`` of the
    forward state at w (see tasks.py).
    """
    out = model.grad(w, shard, keep=keep)
    g = out if keep is None else out[0]
    theta = w - alpha * _check_finite(g, "adaptation gradient", context)
    return theta if keep is None else (theta, out[1])


def meta_loss(model, w, shard, alpha, context=""):
    """Base loss evaluated at the one-step adapted parameters."""
    value = model.loss(adapt(model, w, shard, alpha, context), shard)
    _check_finite(value, "meta loss", context, vectors=False)
    return value


def meta_grad(model, w, shard, alpha, context="", states=None):
    """Exact gradient of meta_loss via two gradients and one HVP.

    ``states`` is ``(theta, state at w, state at theta)`` over ``shard``,
    as the round engine keeps them from its evaluation.  Without it the
    adaptation gradient and the HVP share one forward state at ``w`` (see
    tasks.py).
    """
    if states is None:
        state_w = model.forward(w, shard)
        g = model.grad(w, shard, state_w)
        theta = w - alpha * _check_finite(g, "adaptation gradient", context)
        state_theta = None
    else:
        theta, state_w, state_theta = states
    g2 = model.grad(theta, shard, state_theta)
    _check_finite(g2, "adapted-point gradient", context)
    out = g2 - alpha * model.hvp(w, shard, g2, state_w)
    _check_finite(out, "meta gradient", context)
    return out


def plain_grad(model, w, shard, alpha=0.0, context="", states=None):
    """Conventional gradient, signature-compatible with meta_grad; of
    ``states`` it reads the state at w."""
    g = model.grad(w, shard, None if states is None else states[1])
    _check_finite(g, "gradient", context)
    return g


def plain_loss(model, w, shard, alpha=0.0, context="", keep=None):
    """Conventional loss, signature-compatible with meta_loss.

    With ``keep`` it returns ``(loss, rows)``, the rows ``keep`` of the
    forward state at w (see tasks.py).
    """
    out = model.loss(w, shard, keep=keep)
    value = out if keep is None else out[0]
    _check_finite(value, "loss", context, vectors=False)
    return out


def objective(mode):
    """The (loss, grad) pair a run optimizes: meta in "hpfl", plain in "hfl".

    Returns this module's current functions, looked up when called.
    """
    if mode == "hpfl":
        return meta_loss, meta_grad
    return plain_loss, plain_grad
