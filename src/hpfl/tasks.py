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
stacked, server-major.  Classification features are one ``(K, N, n, d + 1)``
array ``x1``, each sample's d features beside a trailing column of exact
ones, and a shard's ``x`` is the view of its first d columns; labels are
one ``(K, N, n)`` array.  The quadratic family stacks ``q`` as
``(K, N, d, d)`` and ``a`` as ``(K, N, d)``.  Indexing a stack,
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
vector, ``predict`` one ``(..., n)`` label array; ``predict(w, x)`` takes
plain features or ``x1``.  Products are stacked
``np.matmul`` calls, so each UE's result is the same BLAS call a single
shard makes, bit for bit, with one exception: at a shared point
(parameters without batch axes) a classifier's logits are one product over
every sample of every shard.  Each entry is the same dot over the inner
dimension (``d + 1`` for the logistic logits, the hidden width for the
MLP's), and while that is short (``d = 8``, hidden 8 and 16, on x86-64
OpenBLAS) the bits are those of the stacked products, unless a shard
holds one sample: the stacked products are then matrix-vector products,
which BLAS sums in another order (2e-16 of the largest logit at
``d = 8``).  From 32 on, BLAS may block the long product
differently, and entries can differ in the last bits (below 1e-15 of the
largest logit at 32 and 64 there).  The one product is made in column
blocks whose m·n·k stays below 2^18 (``_shared_product``), the size up to
which OpenBLAS keeps a GEMM on one thread: split across threads, a GEMM
changes its bits under OpenBLAS's Haswell and Prescott kernels, so the
blocks give the same bits on any thread count, and each entry is the same
dot as in one product.  The Hessian is never materialized.
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
one they form, or that state itself when keep is every row (``None`` for
the quadratic), and ``loss`` divides out the softmax on those rows only.

Biases: each input-layer product takes its bias inside the GEMM, as the
last column of the weights against the ones column of ``x1``: the logistic
logits are ``[W | b] @ x1'``, the MLP's activations ``x1 @ [w1 | b1]'``
and its HVP's activation change ``x1 @ [v1 | vb1]'``, and the MLP's
hidden-bias gradient and HVP come out of the weight products
``d1' @ x1`` as their last column.  The added term is ``b * 1.0``, exact,
and BLAS's loop over the inner dimension and NumPy's mean down the sample
axis both add in order, so the bits are those of a separate bias pass
under OpenBLAS's SkylakeX, Haswell and Prescott kernels (checked at d = 8
and 20, hidden 8 to 32).  At d = 33 and 64 the SkylakeX kernels sum the
longer dot in another order, and logistic outputs move by about 1e-15
relative.  The output layer keeps its bias passes: ``b2`` and ``vb2`` are
added after their products, and the output-bias gradients stay means
along the contiguous sample axis, which NumPy sums pairwise.

Buffers: the kernels overwrite only arrays they made themselves, and the
logistic kernels make no logit-sized array they throw away.  ``_softmax``
and ``_nll`` work in place on the fresh logits they are handed; handed
every row, ``_nll`` divides those logits into the softmax it returns.
``grad`` subtracts the one-hot in place only from a state it made and
returns to no one, else from one copy.  The logistic ``hvp`` turns its own
logit change into the probability change, and takes the class sum of
``p * rp`` with one ``np.einsum`` over the class slabs, not from a product
array; the MLP ``hvp`` builds its logit change class-outermost from
stacked products and takes its class sum the same way.  Both logistic
kernels finish in their own output (``_affine_grad``): the weight product
divided in place, packed, and ``l2 * w`` added to the packed vector; the
MLP kernels divide their hidden-layer products in place.  A state passed
in is never written: ``estimate_constants`` and ``meta_grad`` hand one
state at w to ``grad`` and then to ``hvp``, and the round engine hands the
rows it kept from its evaluation, the state at w to ``hvp`` and the state
at theta to ``grad``.

Memory layout: both classifiers' logits, and both HVPs' logit changes,
keep the logical shape ``(..., c, n)`` but are stored class-outermost, as
``(c, ..., n)`` in C order (``_class_logits``); so are
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
    """Classification samples: features x (..., n, d), labels y (..., n).

    x1 (..., n, d + 1) holds the features beside a trailing ones column,
    and x is always the view of its first d columns.  Handed x alone, as a
    shard built by hand is, the constructor copies it into a new x1.
    """

    x: np.ndarray
    y: np.ndarray
    x1: np.ndarray = None

    def __post_init__(self):
        x1 = _with_ones(self.x) if self.x1 is None else self.x1
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x", x1[..., :-1])

    @property
    def size(self):
        """Samples per shard."""
        return self.x1.shape[-2]

    @property
    def batch_shape(self):
        return self.x1.shape[:-2]

    def __getitem__(self, idx):
        """The shards at ``idx`` on the batch axes; views for basic indices."""
        return TaskShard(x=None, y=self.y[idx], x1=self.x1[idx])


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


def _every_row(keep, n):
    """True when the index array ``keep`` is every row 0, ..., n - 1."""
    return len(keep) == n and np.array_equal(keep, np.arange(n))


def _rows(z, keep):
    """The rows ``z[keep]`` of a (..., c, n) array, class-outermost: z
    itself when keep is every row, else a copy.  ``np.take`` copies in C
    order, so _slabs of the rows is still a view; ``z[keep]`` is not
    class-outermost, and a one-hot step through _slabs would write into a
    copy."""
    if _every_row(keep, len(z)):
        return z
    return _from_slabs(np.take(np.moveaxis(z, -2, 0), keep, axis=1))


def _with_ones(x, d=None):
    """Features x (..., n, d) copied beside a trailing ones column, as
    (..., n, d + 1); x itself when it already has d + 1 columns."""
    if d is not None and x.shape[-1] == d + 1:
        return x
    x1 = np.ones(x.shape[:-1] + (x.shape[-1] + 1,))
    x1[..., :-1] = x
    return x1


def _beside(w, b):
    """``[w | b]`` (..., m, d + 1): weights (..., m, d) with their bias
    (..., m) as the last column, the matrix that multiplies features beside
    their ones column."""
    return np.concatenate([w, b[..., None]], axis=-1)


# OpenBLAS runs a GEMM on one thread while m·n·k stays at or below 2^18
_ONE_THREAD_MNK = 2 ** 18


def _shared_product(weights, x):
    """``weights @ x.reshape(-1, k)'`` (c, M) for weights (c, k) and x
    (..., n, k), in column blocks of near-equal width whose m·n·k stays
    below 2^18, so that OpenBLAS runs each on one thread and no thread
    count changes a bit.  Each entry is the same length-k dot as in one
    product.  While c·k stays below 2^16 no block is one column, which
    would be a matrix-vector call, unless the whole product is."""
    flat = x.reshape(-1, x.shape[-1])
    width = max(1, (_ONE_THREAD_MNK - 1) // weights.size)
    if len(flat) <= width:
        return np.matmul(weights, flat.T)
    out = np.empty((len(weights), len(flat)))
    blocks = -(-len(flat) // width)
    edges = np.arange(blocks + 1) * len(flat) // blocks
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.matmul(weights, flat[lo:hi].T, out=out[:, lo:hi])
    return out


def _stacked_logits(weights, x):
    """``weights @ x'`` (..., c, n), one stacked product per batch entry of
    x, written class-outermost, as (c, ..., n) in C order."""
    out = np.empty(weights.shape[-2:-1] + x.shape[:-1])
    return np.matmul(weights, _t(x), out=_from_slabs(out))


def _add_class_bias(z, bias):
    """``z += bias[..., :, None]`` on class-outermost logits z (..., c, n):
    a shared bias (c,) by NumPy's own broadcast, a batched one in storage
    order, (c, ..., 1) against (c, ..., n), which is faster there."""
    if bias.ndim == 1:
        z += bias[:, None]
        return
    bias = bias.reshape((1,) * (z.ndim - 1 - bias.ndim) + bias.shape + (1,))
    storage = np.moveaxis(z, -2, 0)
    storage += np.moveaxis(bias, -2, 0)


def _class_logits(weights, bias, x):
    """``weights @ x' + bias`` as (..., c, n) logits, class axis outermost.

    weights is (..., c, k) and bias (..., c) or None, their batch axes
    broadcasting to those of x (..., n, k).  The result has the logical
    shape of the plain expression, but it is laid out as (c, ..., n), so a
    reduction down the classes runs over whole contiguous slabs.  At a
    shared point (weights without batch axes) it is one product over every
    sample (_shared_product), which is already (c, ..., n); else it is one
    stacked product per batch entry, written into that layout, with the
    bits of the plain expression.  Each entry is the same length-k dot
    either way, but the one product's bits equal the stacked products'
    only for short k and more than one sample per shard (see the module
    docstring).
    """
    if weights.ndim == 2:
        out = _shared_product(weights, x)
        if bias is not None:
            out += bias[:, None]
        return _from_slabs(out.reshape(weights.shape[:1] + x.shape[:-1]))
    z = _stacked_logits(weights, x)
    if bias is not None:
        _add_class_bias(z, bias)
    return z


def _affine_grad(dz, x, l2, w):
    """The flat (..., P) gradient of an affine layer's weights and bias
    from its class-major logit gradient dz (..., c, n) and inputs x
    (..., n, d), mean over the samples, plus ``l2 * w``; each step writes
    into the array the one before made."""
    g_w = dz @ x
    g_w /= x.shape[-2]
    g = _pack(g_w.shape[:-2], g_w, dz.mean(axis=-1))
    g += l2 * w
    return g


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
    likelihood, divided on those rows only (in z itself when keep is every
    row), so p is _softmax's, bit for bit.
    """
    z -= z.max(axis=-2, keepdims=True)
    picked = _slabs(z).reshape(-1).take(_label_index(y)).reshape(y.shape)
    norm = np.exp(z, out=z).sum(axis=-2, keepdims=True)
    nll = -(picked - np.log(norm[..., 0, :])).mean(axis=-1)
    if keep is None:
        return nll
    p = _rows(z, keep)
    p /= norm if p is z else norm[keep]
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
        """Class-major logits (..., c, n), class axis outermost in memory:
        ``[W | b] @ x1'``, x1 the features beside their ones column."""
        return _class_logits(_beside(*self._unpack(w)), None,
                             _with_ones(x, self.dim))

    def init_params(self, rng, scale=1.0):
        c, d = self.n_classes, self.dim
        weights = rng.standard_normal(c * d) * (scale / np.sqrt(d))
        bias = np.zeros(c)
        return np.concatenate([weights, bias])

    def loss(self, w, shard, keep=None):
        z = self._logits(w, shard.x1)
        reg = 0.5 * self.l2 * _dot(w, w)
        if keep is None:
            return _nll(z, shard.y) + reg
        nll, p = _nll(z, shard.y, keep)
        return nll + reg, p

    def forward(self, w, shard):
        """The state: class-major softmax probabilities (..., c, n)."""
        return _softmax(self._logits(w, shard.x1))

    def grad(self, w, shard, state=None, keep=None):
        p = self.forward(w, shard) if state is None else state
        rows = None if keep is None else _rows(p, keep)
        # p is written only if this call made it and the rows are a copy
        own = state is None and rows is not p
        delta = _minus_onehot(p, shard.y, out=p if own else None)
        g = _affine_grad(delta, shard.x, self.l2, w)
        return g if keep is None else (g, rows)

    def hvp(self, w, shard, v, state=None):
        p = self.forward(w, shard) if state is None else state
        rp = self._logits(v, shard.x1)   # the logits are linear in w
        slabs = _slabs(rp)
        # the class sum of p * rp without the product array: einsum adds the
        # slabs' products in class order, as sum() adds down the outermost
        # axis, so the bits are the same
        slabs -= np.einsum("ij,ij->j", _slabs(p), slabs)
        rp *= p
        return _affine_grad(rp, shard.x, self.l2, v)

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
        a1 = _with_ones(x, self.dim) @ _t(_beside(w1, b1))
        np.tanh(a1, out=a1)
        return w2, a1, _class_logits(w2, b2, a1)

    @staticmethod
    def _state(w2, a1, p, keep=None):
        """``(w2, a1, s1, p)`` of the rows ``keep`` (all when None or every
        row, as views), p already those rows, with the tanh slope
        ``s1 = 1 - a1**2``."""
        if keep is not None and not _every_row(keep, len(a1)):
            a1 = a1[keep]
            w2 = w2 if w2.ndim == 2 else w2[keep]
        s1 = a1 * a1
        np.subtract(1.0, s1, out=s1)
        return w2, a1, s1, p

    def forward(self, w, shard):
        """The state ``(w2, a1, s1, p)``: output weights, activations, the
        tanh slope ``s1 = 1 - a1**2`` and the class-major softmax."""
        w2, a1, z2 = self._logits(w, shard.x1)
        return self._state(w2, a1, _softmax(z2))

    def loss(self, w, shard, keep=None):
        w2, a1, z2 = self._logits(w, shard.x1)
        reg = 0.5 * self.l2 * _dot(w, w)
        if keep is None:
            return _nll(z2, shard.y) + reg
        nll, p = _nll(z2, shard.y, keep)
        return nll + reg, self._state(w2, a1, p, keep)

    def grad(self, w, shard, state=None, keep=None):
        n = shard.size
        w2, a1, s1, p = self.forward(w, shard) if state is None else state
        kept = None if keep is None else _rows(p, keep)
        rows = (None if keep is None else (w2, a1, s1, p) if kept is p
                else self._state(w2, a1, kept, keep))
        # p is written only if this call made it and the rows are a copy
        own = state is None and kept is not p
        d2 = _minus_onehot(p, shard.y, out=p if own else None)
        g_w2 = d2 @ a1 / n
        g_b2 = d2.mean(axis=-1)
        d1 = _t(d2) @ w2
        d1 *= s1
        g1 = _t(d1) @ shard.x1   # [g_w1 | g_b1], the sample sums
        g1 /= n
        g = _pack(g1.shape[:-2], g1[..., :-1], g1[..., -1], g_w2,
                  g_b2) + self.l2 * w
        return g if keep is None else (g, rows)

    def hvp(self, w, shard, v, state=None):
        n = shard.size
        x1 = shard.x1
        w2, a1, s1, p = self.forward(w, shard) if state is None else state
        v1, vb1, v2, vb2 = self._unpack(v)
        d2 = _minus_onehot(p, shard.y)

        # the changes along v of a1, of the softmax and of the hidden error,
        # each built in place in an array this call made
        ra1 = x1 @ _t(_beside(v1, vb1))
        ra1 *= s1
        # class-outermost like p, from stacked products, so the class sum of
        # p * rd2 is one einsum over the slabs, as in the logistic hvp
        rd2 = _stacked_logits(v2, a1)
        rd2 += _stacked_logits(w2, ra1)
        _add_class_bias(rd2, vb2)
        slabs = _slabs(rd2)
        slabs -= np.einsum("ij,ij->j", _slabs(p), slabs)
        rd2 *= p

        h_w2 = rd2 @ a1
        h_w2 += d2 @ ra1
        h_w2 /= n
        h_b2 = rd2.mean(axis=-1)

        u = _t(d2) @ w2
        # the bits of u * (-2 * a1 * ra1): scaling by -2 is exact
        t = a1 * ra1
        t *= u
        t *= -2.0
        rd1 = _t(d2) @ v2
        rd1 += _t(rd2) @ w2
        rd1 *= s1
        rd1 += t
        h1 = _t(rd1) @ x1   # [h_w1 | h_b1], the sample sums
        h1 /= n
        return _pack(h1.shape[:-2], h1[..., :-1], h1[..., -1], h_w2,
                     h_b2) + self.l2 * v

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


def build_classification_federation(rng, k, n_k, l, n_classes, dim,
                                    n_train, n_eval, separation, noise):
    """Stacked Federation of k servers with n_k UEs each, Gaussian mixture.

    Each UE owns a label subset of size l drawn without replacement; its
    train and eval shards share that subset.  UEs are drawn one at a
    time, server-major, so each UE's samples do not depend on the layout.
    A server's normal draws go into one contiguous (n_k, n, dim) buffer
    per shard kind, which is then scaled and shifted into the stack: the
    values of ``means[y] + noise * z`` from the same draws.
    """
    means = make_class_means(rng, n_classes, dim, separation)
    # x1 is all ones until the features are drawn into it
    shards = [TaskShard(x=None, y=np.empty((k, n_k, n), dtype=np.int64),
                        x1=np.ones((k, n_k, n, dim + 1)))
              for n in (n_train, n_eval)]
    draws = [np.empty(s.x.shape[1:]) for s in shards]
    for k_idx in range(k):
        for j in range(n_k):
            labels = np.sort(rng.choice(n_classes, size=l, replace=False))
            for shard, z in zip(shards, draws):
                shard.y[k_idx, j] = labels[rng.integers(0, l, size=shard.size)]
                rng.standard_normal(out=z[j])
        for shard, z in zip(shards, draws):
            x = np.multiply(z, noise, out=shard.x[k_idx])
            x += means[shard.y[k_idx]]
    return Federation(*shards)


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
