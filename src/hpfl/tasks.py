"""Synthetic task families and loss models with exact Hessian-vector products.

Two task families are provided:

* a 10-class Gaussian-mixture classification family, where each UE draws
  samples from a per-UE subset of ``l`` class labels (the heterogeneity
  level: more labels per UE means a harder personalized task), solved by
  either multinomial logistic regression or a one-hidden-layer tanh
  perceptron, and
* a quadratic family with per-UE curvature and optimum, used wherever a
  closed-form reference is wanted.

Data layout: a federation of K edge servers with N UEs each is stored
stacked, server-major.  Classification features are one ``(K, N, n, d)``
array and labels one ``(K, N, n)`` array; the quadratic family stacks
``q`` as ``(K, N, d, d)`` and ``a`` as ``(K, N, d)``.  Indexing a stack,
``federation.train[k, j]``, gives UE j of server k as views, never copies.
A quadratic shard has no samples; its ``size`` is ``dim``, the stand-in
sample count that the engine turns into compute bits and so into latency.

Every model exposes ``loss``, ``grad``, ``hvp`` and ``predict`` on flat
parameter vectors, and all four accept leading batch axes on the shard
(``x: (..., n, d)``, ``y: (..., n)``, ``q: (..., d, d)``, ``a: (..., d)``)
and on the parameters (``w, v: (..., P)``).  The parameters' batch axes
must broadcast to the shard's, so one call evaluates every UE at a shared
point, each UE at its own point or each server's point over its UEs; a
single shard at a single point is the case with no batch axes.  ``loss``
returns one value per batch entry, ``grad`` and ``hvp`` one ``(..., P)``
vector, ``predict`` one ``(..., n)`` label array.  Products are stacked
``np.matmul`` calls, so each UE's result is the same BLAS call a single
shard makes, bit for bit, with one exception: at a shared point
(parameters without batch axes) a classifier's logits are one product over
every sample of every shard.  Each entry is the same dot over the inner
dimension (``d``, or the MLP's hidden width), and while that is short (8
and 16 on x86-64 OpenBLAS) the bits are those of the stacked products,
unless a shard holds one sample: the stacked products are then
matrix-vector products, which BLAS sums in another order (2e-16 of the
largest logit at ``d = 8``).  From 32 on, BLAS may block the long product
differently, and entries can differ in the last bits (below 1e-15 of the
largest logit at 32 and 64 there).  The Hessian is never materialized.
Logits are class-major, ``(..., c, n)``, so the softmax runs down the
short class axis over all samples at once.  Its sums and means are plain
NumPy reductions, and ``predict`` takes the first class at the class max,
as ``np.argmax`` does.  ``forward(w, shard)`` returns the state that
``grad`` and ``hvp`` build at ``w`` unless handed it as ``state``, so a
gradient and its HVPs at one point share one forward pass, bit for bit.
The logistic state is the softmax ``p``; the MLP's is ``(w2, a1, s1, p)``,
its output weights, activations, tanh slope ``1 - a1**2`` and softmax, so
neither ``grad`` nor ``hvp`` recomputes the slope.  Handed ``keep``, an
index array on the first batch axis, ``loss`` and ``grad`` return
``(value, rows)``: rows is the state of ``shard[keep]`` copied out of the
one they form (``None`` for the quadratic), and ``loss`` divides out the
softmax on those rows only.

Buffers: the kernels overwrite only arrays they made themselves.
``_softmax`` and ``_nll`` work in place on the fresh logits they are
handed, ``grad`` subtracts the one-hot in place only from a state it made,
and the logistic ``hvp`` turns its own logit change into the probability
change.  A state passed in is never written: ``estimate_constants`` and
``meta_grad`` hand one state at w to ``grad`` and then to ``hvp``, and the
round engine hands the rows it kept from its evaluation, the state at w to
``hvp`` and the state at theta to ``grad``.

Memory layout: both classifiers' logits, and the logistic HVP's logit
change, keep the logical shape ``(..., c, n)`` but are stored
class-outermost, as ``(c, ..., n)`` in C order (``_class_logits``); so are
the softmax states and one-hot differences made from them.  Each class
max, class sum, label pick, one-hot step and, on wide slabs, the class
argmax then runs over whole contiguous slabs, one class of every UE and
sample at a time, and the values are those of the plain product, bit for
bit.  One exception to bit-equality: NumPy sums a stacked class-outermost
column class by class but a single shard's single-sample column, which is
contiguous, pairwise, so with one sample per shard and eight or more
classes a batched call of either classifier can differ in the last bits
from a single-shard call and from the same kernels on C-ordered logits.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TaskShard:
    """Classification samples: features x (..., n, d), labels y (..., n)."""

    x: np.ndarray
    y: np.ndarray

    @property
    def size(self):
        """Samples per shard."""
        return self.x.shape[-2]

    @property
    def batch_shape(self):
        return self.x.shape[:-2]

    def __getitem__(self, idx):
        """The shards at ``idx`` on the batch axes; views for basic indices."""
        return TaskShard(x=self.x[idx], y=self.y[idx])


@dataclass(frozen=True)
class QuadraticTask:
    """Quadratic objective 0.5 * (w - a)' Q (w - a) standing in for a shard.

    q is (..., d, d) and a is (..., d); ``size`` is d (see the module
    docstring).
    """

    q: np.ndarray
    a: np.ndarray

    @property
    def size(self):
        return self.a.shape[-1]

    @property
    def batch_shape(self):
        return self.a.shape[:-1]

    def __getitem__(self, idx):
        """The tasks at ``idx`` on the batch axes; views for basic indices."""
        return QuadraticTask(q=self.q[idx], a=self.a[idx])


@dataclass(frozen=True)
class Federation:
    """Every UE's train and eval shards, stacked with leading axes (K, N).

    ``federation.train[k, j]`` is the training shard of UE j of edge
    server k, as views into the stacked arrays.
    """

    train: object
    eval: object


def _t(m):
    """Transpose of the last two axes."""
    return np.swapaxes(m, -1, -2)


def _dot(u, v):
    """Inner product over the last axis, one BLAS dot per batch entry."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _pack(batch, *parts):
    """Flat (..., P) vector from matrices and vectors with batch axes."""
    return np.concatenate([p.reshape(batch + (-1,)) for p in parts], axis=-1)


def _from_slabs(a):
    """The (..., c, n) view of a (c, ..., n) array."""
    nd = a.ndim
    return a.transpose(tuple(range(1, nd - 1)) + (0, nd - 1))


def _slabs(z):
    """The (c, M) class slabs of ``z (..., c, n)``, a view because every
    logit array the kernels make is stored class-outermost."""
    nd = z.ndim
    slabs = z.transpose((nd - 2,) + tuple(range(nd - 2)) + (nd - 1,))
    return slabs.reshape(z.shape[-2], -1)


def _rows(z, keep):
    """A class-outermost copy of the rows ``z[keep]`` of a (..., c, n)
    array.  ``np.take`` copies in C order, so _slabs of the rows is still
    a view; ``z[keep]`` is not class-outermost, and a one-hot step through
    _slabs would write into a copy."""
    return _from_slabs(np.take(np.moveaxis(z, -2, 0), keep, axis=1))


def _class_logits(weights, bias, x):
    """``weights @ x' + bias`` as (..., c, n) logits, class axis outermost.

    weights is (..., c, d) and bias (..., c), their batch axes broadcasting
    to those of x (..., n, d).  The result has the logical shape of the
    plain expression, but it is laid out as (c, ..., n), so a reduction
    down the classes runs over whole contiguous slabs.  At a shared point
    (weights without batch axes) it is one product over every sample,
    ``weights @ x.reshape(-1, d)'``, which is already (c, ..., n); else it
    is one stacked product per batch entry, written into that layout, with
    the bits of the plain expression.  Each entry is the same length-d dot
    either way, but the one product's bits equal the stacked products'
    only for short d and more than one sample per shard (see the module
    docstring).
    """
    c, n = weights.shape[-2], x.shape[-2]
    if weights.ndim == 2:
        out = weights @ x.reshape(-1, x.shape[-1]).T
        out += bias[:, None]
        return _from_slabs(out.reshape((c,) + x.shape[:-2] + (n,)))
    nb = x.ndim - 2
    out = np.empty((c,) + x.shape[:-2] + (n,))
    z = np.matmul(weights, _t(x), out=_from_slabs(out))
    # add the bias in storage order, (c, ..., 1) against (c, ..., n)
    bias = bias.reshape((1,) * (nb + 1 - bias.ndim) + bias.shape + (1,))
    out += bias.transpose((nb,) + tuple(range(nb)) + (nb + 1,))
    return z


def _label_index(y):
    """Flat index of each sample's label class in the (c, y.size) class
    slabs of its logits."""
    return y.reshape(-1) * y.size + np.arange(y.size)


def _softmax(z):
    """Class-major softmax of logits ``z (..., c, n)``, in place in z."""
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)
    return z


def _nll(z, y, keep=None):
    """Mean negative log-likelihood of labels y (..., n) under logits z,
    which it overwrites.

    With ``keep`` it returns ``(nll, p)``, p the softmax rows ``keep`` on
    the first batch axis: the exponentials and class sums of the
    likelihood, divided on those rows only, so p is _softmax's, bit for bit.
    """
    z -= z.max(axis=-2, keepdims=True)
    picked = _slabs(z).reshape(-1).take(_label_index(y)).reshape(y.shape)
    norm = np.exp(z, out=z).sum(axis=-2, keepdims=True)
    nll = -(picked - np.log(norm[..., 0, :])).mean(axis=-1)
    if keep is None:
        return nll
    p = _rows(z, keep)
    p /= norm[keep]
    return nll, p


def _minus_onehot(p, y, out=None):
    """Class-major probabilities p minus the one-hot labels y (..., n).

    The difference is written to ``out`` (``p`` itself when the caller
    owns it), else to a copy of p in p's class-outermost layout.  Only the
    label entries of the class slabs are touched.
    """
    if out is None:
        out = np.copy(p)
    _slabs(out).reshape(-1)[_label_index(y)] -= 1.0
    return out


# below this many (UE, sample) columns NumPy's own argmax is faster
_SLAB_ARGMAX_MIN = 2048


def _class_argmax(z):
    """``z.argmax(axis=-2)``, the first class at the class max.

    On wide class slabs it compares each slab with the class max and counts
    the classes before the first hit; a column whose max is NaN takes
    NumPy's argmax, which picks its first NaN.
    """
    if z.size < _SLAB_ARGMAX_MIN * z.shape[-2]:
        return z.argmax(axis=-2)
    slabs = _slabs(z)
    top = slabs.max(axis=0)
    found = np.zeros(top.shape, dtype=bool)
    hits = np.zeros(top.shape, dtype=np.intp)
    for slab in slabs[:-1]:
        found |= slab == top
        hits += found
    # hits counts the classes k < c - 1 at or after the first max
    labels = np.subtract(len(slabs) - 1, hits, out=hits)
    nan = np.isnan(top)
    if nan.any():
        labels[nan] = slabs[:, nan].argmax(axis=0)
    return labels.reshape(z.shape[:-2] + z.shape[-1:])


class LogisticModel:
    """Multinomial logistic regression on a flat parameter vector.

    Parameters are packed as the weight matrix (n_classes x dim) followed
    by the bias vector (n_classes). The Hessian-vector product is exact:
    for each sample the softmax Hessian block is diag(p) - p p'.
    """

    def __init__(self, dim, n_classes, l2=0.0):
        self.dim = dim
        self.n_classes = n_classes
        self.l2 = float(l2)
        self.n_params = n_classes * dim + n_classes

    def _unpack(self, w):
        c, d = self.n_classes, self.dim
        return w[..., :c * d].reshape(w.shape[:-1] + (c, d)), w[..., c * d:]

    def _logits(self, w, x):
        """Class-major logits (..., c, n), class axis outermost in memory."""
        return _class_logits(*self._unpack(w), x)

    def init_params(self, rng, scale=1.0):
        c, d = self.n_classes, self.dim
        weights = rng.standard_normal(c * d) * (scale / np.sqrt(d))
        bias = np.zeros(c)
        return np.concatenate([weights, bias])

    def loss(self, w, shard, keep=None):
        z = self._logits(w, shard.x)
        reg = 0.5 * self.l2 * _dot(w, w)
        if keep is None:
            return _nll(z, shard.y) + reg
        nll, p = _nll(z, shard.y, keep)
        return nll + reg, p

    def forward(self, w, shard):
        """The state: class-major softmax probabilities (..., c, n)."""
        return _softmax(self._logits(w, shard.x))

    def grad(self, w, shard, state=None, keep=None):
        p = self.forward(w, shard) if state is None else state
        rows = None if keep is None else _rows(p, keep)
        delta = _minus_onehot(p, shard.y, out=p if state is None else None)
        g_w = delta @ shard.x / shard.size
        g_b = delta.mean(axis=-1)
        g = _pack(g_b.shape[:-1], g_w, g_b) + self.l2 * w
        return g if keep is None else (g, rows)

    def hvp(self, w, shard, v, state=None):
        p = self.forward(w, shard) if state is None else state
        rp = self._logits(v, shard.x)   # the logits are linear in w
        rp -= (p * rp).sum(axis=-2, keepdims=True)
        rp *= p
        h_w = rp @ shard.x / shard.size
        h_b = rp.mean(axis=-1)
        return _pack(h_b.shape[:-1], h_w, h_b) + self.l2 * v

    def predict(self, w, x):
        return _class_argmax(self._logits(w, x))


class MLPModel:
    """One-hidden-layer tanh perceptron with softmax output.

    The Hessian-vector product is computed with a hand-rolled forward-mode
    pass over the backward pass (double backprop), so it is exact up to
    floating point, not a finite-difference estimate.
    """

    def __init__(self, dim, hidden, n_classes, l2=0.0):
        self.dim = dim
        self.hidden = hidden
        self.n_classes = n_classes
        self.l2 = float(l2)
        self.n_params = hidden * dim + hidden + n_classes * hidden + n_classes

    def _unpack(self, w):
        d, h, c = self.dim, self.hidden, self.n_classes
        i, j, k = h * d, h * d + h, h * d + h + c * h
        batch = w.shape[:-1]
        return (w[..., :i].reshape(batch + (h, d)), w[..., i:j],
                w[..., j:k].reshape(batch + (c, h)), w[..., k:])

    def init_params(self, rng, scale=1.0):
        d, h, c = self.dim, self.hidden, self.n_classes
        w1 = rng.standard_normal(h * d) * (scale / np.sqrt(d))
        b1 = np.zeros(h)
        w2 = rng.standard_normal(c * h) * (scale / np.sqrt(h))
        b2 = np.zeros(c)
        return np.concatenate([w1, b1, w2, b2])

    def _logits(self, w, x):
        """Output weights, activations (..., n, h) and class-major logits,
        class axis outermost in memory."""
        w1, b1, w2, b2 = self._unpack(w)
        a1 = x @ _t(w1)
        a1 += b1[..., None, :]
        np.tanh(a1, out=a1)
        return w2, a1, _class_logits(w2, b2, a1)

    @staticmethod
    def _state(w2, a1, p, keep=slice(None)):
        """``(w2, a1, s1, p)`` of the rows ``keep``, p already those rows,
        with the tanh slope ``s1 = 1 - a1**2``."""
        a1 = a1[keep]
        s1 = a1 * a1
        np.subtract(1.0, s1, out=s1)
        return w2 if w2.ndim == 2 else w2[keep], a1, s1, p

    def forward(self, w, shard):
        """The state ``(w2, a1, s1, p)``: output weights, activations, the
        tanh slope ``s1 = 1 - a1**2`` and the class-major softmax."""
        w2, a1, z2 = self._logits(w, shard.x)
        return self._state(w2, a1, _softmax(z2))

    def loss(self, w, shard, keep=None):
        w2, a1, z2 = self._logits(w, shard.x)
        reg = 0.5 * self.l2 * _dot(w, w)
        if keep is None:
            return _nll(z2, shard.y) + reg
        nll, p = _nll(z2, shard.y, keep)
        return nll + reg, self._state(w2, a1, p, keep)

    def grad(self, w, shard, state=None, keep=None):
        n = shard.size
        w2, a1, s1, p = self.forward(w, shard) if state is None else state
        rows = None if keep is None else self._state(w2, a1, _rows(p, keep),
                                                     keep)
        d2 = _minus_onehot(p, shard.y, out=p if state is None else None)
        g_w2 = d2 @ a1 / n
        g_b2 = d2.mean(axis=-1)
        d1 = _t(d2) @ w2
        d1 *= s1
        g_w1 = _t(d1) @ shard.x / n
        g_b1 = d1.mean(axis=-2)
        g = _pack(g_b1.shape[:-1], g_w1, g_b1, g_w2, g_b2) + self.l2 * w
        return g if keep is None else (g, rows)

    def hvp(self, w, shard, v, state=None):
        n = shard.size
        x = shard.x
        w2, a1, s1, p = self.forward(w, shard) if state is None else state
        v1, vb1, v2, vb2 = self._unpack(v)
        d2 = _minus_onehot(p, shard.y)

        # the changes along v of a1, of the softmax and of the hidden error,
        # each built in place in an array this call made
        ra1 = x @ _t(v1)
        ra1 += vb1[..., None, :]
        ra1 *= s1
        rd2 = v2 @ _t(a1) + w2 @ _t(ra1) + vb2[..., :, None]
        rd2 -= (p * rd2).sum(axis=-2, keepdims=True)
        rd2 *= p

        h_w2 = (rd2 @ a1 + d2 @ ra1) / n
        h_b2 = rd2.mean(axis=-1)

        u = _t(d2) @ w2
        # the bits of u * (-2 * a1 * ra1): scaling by -2 is exact
        t = a1 * ra1
        t *= u
        t *= -2.0
        rd1 = _t(d2) @ v2 + _t(rd2) @ w2
        rd1 *= s1
        rd1 += t
        h_w1 = _t(rd1) @ x / n
        h_b1 = rd1.mean(axis=-2)
        return _pack(h_b1.shape[:-1], h_w1, h_b1, h_w2, h_b2) + self.l2 * v

    def predict(self, w, x):
        return _class_argmax(self._logits(w, x)[2])


class QuadraticModel:
    """Per-shard quadratic objective with exact derivatives.

    The shard must be a QuadraticTask. There is no classification
    semantics, so predict returns None and accuracy metrics report 0.
    """

    def __init__(self, dim):
        self.dim = dim
        self.n_params = dim

    def init_params(self, rng, scale=1.0):
        return rng.standard_normal(self.dim) * scale

    @staticmethod
    def _apply_q(shard, v):
        return (shard.q @ v[..., None])[..., 0]

    def loss(self, w, shard, keep=None):
        r = w - shard.a
        value = 0.5 * _dot(r, self._apply_q(shard, r))
        return value if keep is None else (value, None)

    def forward(self, w, shard):
        return None

    def grad(self, w, shard, state=None, keep=None):
        g = self._apply_q(shard, w - shard.a)
        return g if keep is None else (g, None)

    def hvp(self, w, shard, v, state=None):
        return self._apply_q(shard, v)

    def predict(self, w, x):
        return None


def make_class_means(rng, n_classes, dim, separation):
    """Class centers for the Gaussian mixture, scaled by the separation knob."""
    return separation * rng.standard_normal((n_classes, dim))


def _empty_shard(k, n_k, n_samples, dim):
    return TaskShard(x=np.empty((k, n_k, n_samples, dim)),
                     y=np.empty((k, n_k, n_samples), dtype=np.int64))


def _sample_into(rng, means, labels, noise, shard):
    """Fill one UE's shard view with samples of its labels, in place."""
    shard.y[...] = labels[rng.integers(0, len(labels), size=shard.size)]
    shard.x[...] = means[shard.y] + noise * rng.standard_normal(shard.x.shape)


def build_classification_federation(rng, k, n_k, l, n_classes, dim,
                                    n_train, n_eval, separation, noise):
    """Stacked Federation of k servers with n_k UEs each, Gaussian mixture.

    Each UE owns a label subset of size l drawn without replacement; its
    train and eval shards share that subset.  UEs are drawn one at a
    time, server-major, so each UE's samples do not depend on the layout.
    """
    means = make_class_means(rng, n_classes, dim, separation)
    train = _empty_shard(k, n_k, n_train, dim)
    eval_ = _empty_shard(k, n_k, n_eval, dim)
    for k_idx in range(k):
        for j in range(n_k):
            labels = np.sort(rng.choice(n_classes, size=l, replace=False))
            _sample_into(rng, means, labels, noise, train[k_idx, j])
            _sample_into(rng, means, labels, noise, eval_[k_idx, j])
    return Federation(train=train, eval=eval_)


def _random_spd(rng, dim, eig_lo, eig_hi):
    m = rng.standard_normal((dim, dim))
    q_mat, _ = np.linalg.qr(m)
    eigs = rng.uniform(eig_lo, eig_hi, size=dim)
    return (q_mat * eigs) @ q_mat.T


def build_quadratic_federation(rng, k, n_k, dim, eig_lo, eig_hi, es_spread,
                               ue_spread):
    """Stacked Federation of k servers with n_k UEs each, quadratic family.

    Each ES has its own optimum center; its UEs scatter around it, which
    gives nonzero gradient diversity across the hierarchy.  A UE's task
    serves as both its train and its eval shard.
    """
    task = QuadraticTask(q=np.empty((k, n_k, dim, dim)),
                         a=np.empty((k, n_k, dim)))
    for k_idx in range(k):
        center = es_spread * rng.standard_normal(dim)
        for j in range(n_k):
            task.q[k_idx, j] = _random_spd(rng, dim, eig_lo, eig_hi)
            task.a[k_idx, j] = center + ue_spread * rng.standard_normal(dim)
    return Federation(train=task, eval=task)
