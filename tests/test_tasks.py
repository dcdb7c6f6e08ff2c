"""Batched model calls agree with per-UE calls; the federation is stored once."""

import tracemalloc

import numpy as np
import pytest

from hpfl import meta
from hpfl.experiment import prepare
from hpfl.scenario import Scenario
from hpfl.tasks import (LogisticModel, MLPModel, QuadraticModel,
                        QuadraticTask, TaskShard, _add_class_bias,
                        _class_argmax, _class_logits, _from_slabs, _minus_onehot, _rows,
                        _shared_product, _t, build_classification_federation)
from oracles import (per_ue_classification_federation, plain_logistic_kernels,
                     plain_mlp_kernels, product_class_sum_hvp)

K, N, SAMPLES, DIM, CLASSES = 3, 4, 6, 5, 4


def _classification_stack(rng):
    return TaskShard(x=rng.standard_normal((K, N, SAMPLES, DIM)),
                     y=rng.integers(0, CLASSES, size=(K, N, SAMPLES)))


def _quadratic_stack(rng):
    m = rng.standard_normal((K, N, DIM, DIM))
    q = m @ np.swapaxes(m, -1, -2) + 0.1 * np.eye(DIM)
    return QuadraticTask(q=q, a=rng.standard_normal((K, N, DIM)))


CASES = {
    "logistic": (lambda: LogisticModel(DIM, CLASSES, l2=1e-2),
                 _classification_stack),
    "mlp": (lambda: MLPModel(DIM, 3, CLASSES, l2=1e-2), _classification_stack),
    "quadratic": (lambda: QuadraticModel(DIM), _quadratic_stack),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make_model, make_stack = CASES[request.param]
    rng = np.random.default_rng(31)
    model = make_model()
    stack = make_stack(rng)
    w = model.init_params(rng, scale=0.7)
    per_ue = w + 0.3 * rng.standard_normal((K, N, model.n_params))
    v = rng.standard_normal((K, N, model.n_params))
    return model, stack, w, per_ue, v


def _points(w, per_ue):
    """(batched parameters, parameters of UE (k, j)): shared, then per UE."""
    return [(w, lambda k, j: w), (per_ue, lambda k, j: per_ue[k, j])]


def _assert_rows_match(batched, single):
    """Row (k, j) of the batched result equals the single-shard call."""
    assert np.shape(batched)[:2] == (K, N)
    for k in range(K):
        for j in range(N):
            np.testing.assert_allclose(batched[k, j], single(k, j),
                                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("method", ["loss", "grad"])
def test_loss_and_grad_match_per_ue_calls(case, method):
    model, stack, w, per_ue, _ = case
    call = getattr(model, method)
    for batched_w, ue_w in _points(w, per_ue):
        _assert_rows_match(call(batched_w, stack),
                           lambda k, j: call(ue_w(k, j), stack[k, j]))


def test_hvp_matches_per_ue_calls(case):
    model, stack, w, per_ue, v = case
    for batched_w, ue_w in _points(w, per_ue):
        _assert_rows_match(
            model.hvp(batched_w, stack, v),
            lambda k, j: model.hvp(ue_w(k, j), stack[k, j], v[k, j]))
    # one direction shared by every UE
    _assert_rows_match(model.hvp(per_ue, stack, v[0, 0]),
                       lambda k, j: model.hvp(per_ue[k, j], stack[k, j], v[0, 0]))


def _copies(arrays):
    """Deep copies of a tuple of arrays, None or forward states."""
    return tuple(a if a is None else
                 tuple(np.copy(b) for b in a) if isinstance(a, tuple)
                 else np.copy(a) for a in arrays)


def _assert_unchanged(arrays, before):
    for got, want in zip(arrays, before):
        if isinstance(got, tuple):
            _assert_unchanged(got, want)
        elif got is None:
            assert want is None
        else:
            np.testing.assert_array_equal(got, want)


def test_shared_forward_state_gives_the_same_bits(case):
    """grad and then hvp handed one forward(w, s), as meta_grad and
    estimate_constants call them, equal the calls that build it, and leave
    every array of the state (the MLP's four), the point, the direction
    and the shard as they were, at a shared, per-UE and per-server point."""
    model, stack, w, per_ue, v = case
    shard = (stack.x, stack.y) if isinstance(stack, TaskShard) \
        else (stack.q, stack.a)
    for batched_w in (w, per_ue, per_ue[:, :1]):
        state = model.forward(batched_w, stack)
        inputs = (state, batched_w, v) + shard
        before = _copies(inputs)
        assert np.array_equal(model.grad(batched_w, stack, state),
                              model.grad(batched_w, stack))
        for direction in (v, v[0, 0]):
            assert np.array_equal(
                model.hvp(batched_w, stack, direction, state),
                model.hvp(batched_w, stack, direction))
        _assert_unchanged(inputs, before)


def _states(state):
    """A forward state as a tuple of arrays: the MLP's four, the logistic
    softmax alone, or none for the quadratic."""
    return () if state is None else state if isinstance(state, tuple) \
        else (state,)


@pytest.mark.parametrize("at", ["shared", "per-UE"])
def test_kept_state_rows_give_the_bits_of_the_rows_shards(case, at):
    """loss and grad handed ``keep`` return their plain value and the
    forward state of shard[keep], bit for bit, at non-contiguous rows; its
    softmax keeps the class-outermost layout, so grad and hvp from the
    rows equal the calls on shard[keep] that form their own state."""
    _assert_kept_rows(case, at, np.array([0, 2]))


@pytest.mark.parametrize("at", ["shared", "per-UE"])
def test_keeping_every_row_keeps_the_state_itself(case, at):
    """With every row kept, as at round 0 or under full selection, loss
    and grad hand back the state they formed instead of a copy of its
    rows, and the values and states keep their bits: grad's one-hot step
    does not reach the rows it returns."""
    _assert_kept_rows(case, at, np.arange(K))
    model, stack, w, per_ue, _ = case
    point = w if at == "shared" else per_ue
    state = model.forward(point, stack)
    _, rows = model.grad(point, stack, state, keep=np.arange(K))
    assert all(a is b for a, b in zip(_states(rows), _states(state)))


def _assert_kept_rows(case, at, ids):
    model, stack, w, per_ue, v = case
    point, rows_point = (w, w) if at == "shared" else (per_ue, per_ue[ids])
    sub = stack[ids]
    want = model.forward(rows_point, sub)
    for method in ("loss", "grad"):
        call = getattr(model, method)
        value, rows = call(point, stack, keep=ids)
        assert np.array_equal(value, call(point, stack))
        assert len(_states(rows)) == len(_states(want))
        for got, expected in zip(_states(rows), _states(want)):
            assert np.array_equal(got, expected)
        if rows is not None:
            p = _states(rows)[-1]
            assert np.moveaxis(p, -2, 0).flags.c_contiguous
        before = _copies((rows,))
        assert np.array_equal(model.grad(rows_point, sub, rows),
                              model.grad(rows_point, sub))
        assert np.array_equal(model.hvp(rows_point, sub, v[ids], rows),
                              model.hvp(rows_point, sub, v[ids]))
        _assert_unchanged((rows,), before)


def test_predict_matches_per_ue_calls(case):
    model, stack, w, per_ue, _ = case
    if isinstance(stack, QuadraticTask):
        assert model.predict(per_ue, None) is None
        return
    for batched_w, ue_w in _points(w, per_ue):
        got = model.predict(batched_w, stack.x)
        assert got.shape == (K, N, SAMPLES)
        for k in range(K):
            for j in range(N):
                assert np.array_equal(got[k, j],
                                      model.predict(ue_w(k, j), stack.x[k, j]))


def test_meta_grad_matches_per_ue_calls(case):
    model, stack, w, per_ue, _ = case
    alpha = 0.05
    # server bases broadcast over their UEs, as the round engine calls it
    bases = per_ue[:, :1, :]
    for batched_w, ue_w in _points(w, per_ue) + [(bases, lambda k, j: bases[k, 0])]:
        _assert_rows_match(
            meta.meta_grad(model, batched_w, stack, alpha),
            lambda k, j: meta.meta_grad(model, ue_w(k, j), stack[k, j], alpha))


def _plain_logistic(model, w, shard, v):
    """The logistic kernels as plain C-ordered expressions: logits,
    forward, loss, grad, hvp and predict."""
    def pack(*parts):
        batch = parts[-1].shape[:-1]
        return np.concatenate([q.reshape(batch + (-1,)) for q in parts], -1)

    (weights, bias), (v_w, v_b) = model._unpack(w), model._unpack(v)
    xt = np.swapaxes(shard.x, -1, -2)
    z = weights @ xt + bias[..., :, None]
    zs = z - z.max(axis=-2, keepdims=True)
    e = np.exp(zs)
    p = e / e.sum(axis=-2, keepdims=True)
    picked = np.take_along_axis(zs, shard.y[..., None, :], axis=-2)[..., 0, :]
    nll = -(picked - np.log(e.sum(axis=-2))).mean(axis=-1)
    loss = nll + 0.5 * model.l2 * (w[..., None, :] @ w[..., :, None])[..., 0, 0]
    delta = p - (shard.y[..., None, :] == np.arange(p.shape[-2])[:, None])
    grad = pack(delta @ shard.x / shard.size, delta.mean(axis=-1)) + model.l2 * w
    rz = v_w @ xt + v_b[..., :, None]
    rp = p * (rz - (p * rz).sum(axis=-2, keepdims=True))
    hvp = pack(rp @ shard.x / shard.size, rp.mean(axis=-1)) + model.l2 * v
    return z, p, loss, grad, hvp, z.argmax(axis=-2)


POINTS = {
    "shared": lambda w, per_ue: w,
    "per_ue": lambda w, per_ue: per_ue,
    # one point per server broadcast over its UEs, as the refresh passes it
    "per_server": lambda w, per_ue: per_ue[:, :1],
}


def _logistic_case(at):
    """(model, stack, point, direction) on the (K, N) stack."""
    rng = np.random.default_rng(47)
    model = LogisticModel(DIM, CLASSES, l2=1e-2)
    stack = _classification_stack(rng)
    w = model.init_params(rng, scale=0.7)
    per_ue = w + 0.3 * rng.standard_normal((K, N, model.n_params))
    v = rng.standard_normal((K, N, model.n_params))
    return model, stack, POINTS[at](w, per_ue), v


@pytest.mark.parametrize("at", sorted(POINTS))
def test_class_outermost_logistic_kernels_equal_the_plain_expressions(at):
    """Logits and state laid out class-outermost; every output bit for bit."""
    model, stack, w, v = _logistic_case(at)
    z, p, loss, grad, hvp, labels = _plain_logistic(model, w, stack, v)
    got_z, got_p = model._logits(w, stack.x), model.forward(w, stack)
    for got, want in [(got_z, z), (got_p, p), (model.loss(w, stack), loss),
                      (model.grad(w, stack), grad),
                      (model.hvp(w, stack, v), hvp),
                      (model.predict(w, stack.x), labels)]:
        np.testing.assert_array_equal(got, want)
    # the class axis is outermost in memory: (c, K, N, n) in C order
    assert np.moveaxis(got_z, -2, 0).flags.c_contiguous
    assert np.moveaxis(got_p, -2, 0).flags.c_contiguous


@pytest.mark.parametrize("at", sorted(POINTS))
def test_class_outermost_mlp_logits_equal_the_plain_expression(at):
    """The MLP's logits and softmax state have the logistic model's layout,
    class axis outermost, and the bits of the C-ordered expressions."""
    make_model, make_stack = CASES["mlp"]
    rng = np.random.default_rng(53)
    model, stack = make_model(), make_stack(rng)
    w = model.init_params(rng, scale=0.7)
    w = POINTS[at](w, w + 0.3 * rng.standard_normal((K, N, model.n_params)))
    w1, b1, w2, b2 = model._unpack(w)
    a1 = np.tanh(stack.x @ np.swapaxes(w1, -1, -2) + b1[..., None, :])
    z = w2 @ np.swapaxes(a1, -1, -2) + b2[..., :, None]
    e = np.exp(z - z.max(axis=-2, keepdims=True))
    p = e / e.sum(axis=-2, keepdims=True)
    got_z, got_p = model._logits(w, stack.x)[2], model.forward(w, stack)[-1]
    for got, want in [(got_z, z), (got_p, p)]:
        np.testing.assert_array_equal(got, want)
        # (c, K, N, n) in C order
        assert np.moveaxis(got, -2, 0).flags.c_contiguous


def _mlp_case(at):
    """(model, stack, point, direction) on the (K, N) stack."""
    make_model, make_stack = CASES["mlp"]
    rng = np.random.default_rng(59)
    model, stack = make_model(), make_stack(rng)
    w = model.init_params(rng, scale=0.7)
    w = POINTS[at](w, w + 0.3 * rng.standard_normal((K, N, model.n_params)))
    return model, stack, w, rng.standard_normal((K, N, model.n_params))


@pytest.mark.parametrize("at", sorted(POINTS))
def test_mlp_state_carries_the_tanh_slope(at):
    """forward's s1 is ``1.0 - a1 ** 2`` bit for bit."""
    model, stack, w, _ = _mlp_case(at)
    _, a1, s1, _ = model.forward(w, stack)
    np.testing.assert_array_equal(s1, 1.0 - a1 ** 2)


@pytest.mark.parametrize("at", sorted(POINTS))
def test_mlp_in_place_kernels_keep_the_bits_of_the_plain_expressions(at):
    """grad and hvp equal the same formulas written out of place, with
    ``1.0 - a1 ** 2`` recomputed, bit for bit."""
    model, stack, w, v = _mlp_case(at)
    n, x = stack.size, stack.x
    w2, a1, _, p = model.forward(w, stack)
    v1, vb1, v2, vb2 = model._unpack(v)
    d2 = _minus_onehot(p, stack.y)

    def pack(*parts):
        batch = parts[1].shape[:-1]
        return np.concatenate([q.reshape(batch + (-1,)) for q in parts], -1)

    d1 = (_t(d2) @ w2) * (1.0 - a1 ** 2)
    grad = pack(_t(d1) @ x / n, d1.mean(axis=-2), d2 @ a1 / n,
                d2.mean(axis=-1)) + model.l2 * w
    ra1 = (1.0 - a1 ** 2) * (x @ _t(v1) + vb1[..., None, :])
    rz2 = v2 @ _t(a1) + w2 @ _t(ra1) + vb2[..., :, None]
    rd2 = p * (rz2 - (p * rz2).sum(axis=-2, keepdims=True))
    u = _t(d2) @ w2
    ru = _t(d2) @ v2 + _t(rd2) @ w2
    rd1 = ru * (1.0 - a1 ** 2) + u * (-2.0 * a1 * ra1)
    hvp = pack(_t(rd1) @ x / n, rd1.mean(axis=-2),
               (rd2 @ a1 + d2 @ ra1) / n, rd2.mean(axis=-1)) + model.l2 * v
    np.testing.assert_array_equal(model.grad(w, stack), grad)
    np.testing.assert_array_equal(model.hvp(w, stack, v), hvp)


@pytest.mark.parametrize("batch, d", [
    pytest.param(batch, d, id=name + ("" if d == 8 else "-d%d" % d))
    for d in (8, 32)
    for name, batch in [("single", ()), ("desk", (5, 4)), ("large", (50, 20))]])
def test_shared_point_logits_are_the_per_ue_product(batch, d):
    """At a point without batch axes the logits are one product over every
    sample, already class-outermost.  Each entry is the same length-d dot
    as the per-UE stacked product and the plain expression: the same bits
    at d = 8, and within 1e-13 of the largest |logit| at d = 32, where
    OpenBLAS may block the one long product differently."""
    rng = np.random.default_rng(23)
    c = 10
    weights, bias = rng.standard_normal((c, d)), rng.standard_normal(c)
    x = rng.standard_normal(batch + (32, d))
    got = _class_logits(weights, bias, x)
    # a leading axis of one forces the stacked product, one BLAS call a UE
    per_ue = _class_logits(np.broadcast_to(weights, (1,) + batch + (c, d)),
                           np.broadcast_to(bias, (1,) + batch + (c,)),
                           x[None])[0]
    tol = 0.0 if d == 8 else 1e-13 * np.abs(got).max()
    for want in (per_ue, weights @ np.swapaxes(x, -1, -2) + bias[:, None]):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
    assert got.shape == batch + (c, 32)
    assert np.moveaxis(got, -2, 0).flags.c_contiguous


PLAIN_KERNELS = {
    "logistic": (lambda: LogisticModel(8, 10, l2=1e-2), plain_logistic_kernels),
    "mlp-h8": (lambda: MLPModel(8, 8, 10, l2=1e-2), plain_mlp_kernels),
    "mlp-h16": (lambda: MLPModel(8, 16, 10, l2=1e-2), plain_mlp_kernels),
    "mlp-h32": (lambda: MLPModel(8, 32, 10, l2=1e-2), plain_mlp_kernels),
}


@pytest.mark.parametrize("at", sorted(POINTS))
@pytest.mark.parametrize("name", sorted(PLAIN_KERNELS))
def test_biases_inside_the_products_keep_the_bits_of_the_plain_features(
        name, at):
    """loss, grad, hvp and predict with the input-layer biases taken inside
    the products, on features beside their ones column, equal the forms on
    plain features that add and average each bias in its own pass (and,
    for the MLP's HVP, form p * rd2), bit for bit, at d = 8 and 32 samples,
    along a direction per UE and one shared, as the estimator draws it."""
    make_model, plain = PLAIN_KERNELS[name]
    rng = np.random.default_rng(71)
    model = make_model()
    stack = TaskShard(x=rng.standard_normal((K, N, 32, 8)),
                      y=rng.integers(0, 10, size=(K, N, 32)))
    w = model.init_params(rng, scale=0.7)
    point = POINTS[at](w, w + 0.3 * rng.standard_normal((K, N, model.n_params)))
    v = rng.standard_normal((K, N, model.n_params))
    for direction in (v, v[0, 0]):
        loss, grad, hvp, labels = plain(model, point, stack, direction)
        for got, want in [(model.loss(point, stack), loss),
                          (model.grad(point, stack), grad),
                          (model.hvp(point, stack, direction), hvp),
                          (model.predict(point, stack.x1), labels),
                          (model.predict(point, stack.x), labels)]:
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bias_shape", [(10,), (K, 1, 10), (K, N, 10)],
                         ids=["shared", "per_server", "per_ue"])
def test_class_bias_adds_as_the_plain_expression(bias_shape):
    """A shared bias takes NumPy's broadcast and a batched one the storage
    order; on class-outermost (K, N, 10, 32) logits both equal
    ``z + bias[..., :, None]``, bit for bit."""
    rng = np.random.default_rng(23)
    z = _from_slabs(rng.standard_normal((10, K, N, 32)))
    bias = rng.standard_normal(bias_shape)
    want = z + bias[..., :, None]
    _add_class_bias(z, bias)
    assert (z == want).all()


@pytest.mark.parametrize("columns", [2, 2912, 2 * 2912 + 1, 12800])
def test_shared_product_runs_in_one_thread_blocks(monkeypatch, columns):
    """The shared-point product is made of GEMMs whose m·n·k stays below
    2^18, where OpenBLAS uses one thread, and none of them is one column
    wide: 2912 columns is the widest block at (10, 9), so 5825 columns
    would leave one behind in blocks of that width."""
    rng = np.random.default_rng(columns)
    weights = rng.standard_normal((10, 9))
    x = rng.standard_normal((1, columns, 9))
    calls = []
    matmul = np.matmul

    def recorded(a, b, **kwargs):
        calls.append(a.shape + b.shape[1:])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    got = _shared_product(weights, x)
    monkeypatch.undo()
    assert all(m * k * n < 2 ** 18 and n >= 2 for m, k, n in calls)
    assert len(calls) == -(-columns // 2912)
    assert sum(n for _, _, n in calls) == columns
    assert got.shape == (10, columns)


@pytest.mark.parametrize("k, n_k, l, dim", [(3, 4, 3, 8), (2, 5, 10, 5),
                                            (50, 20, 3, 8)])
def test_federation_keeps_the_per_ue_draws(k, n_k, l, dim):
    """Drawn a server at a time into one buffer, the federation equals the
    one drawn and placed UE by UE, features and labels bit for bit."""
    args = (k, n_k, l, 10, dim, 32, 16, 3.0, 0.6)
    got = build_classification_federation(np.random.default_rng(k), *args)
    want = per_ue_classification_federation(np.random.default_rng(k), *args)
    for mine, plain in zip((got.train, got.eval), want):
        assert np.array_equal(mine.x, plain.x)
        assert np.array_equal(mine.y, plain.y)


def test_features_sit_beside_an_exact_ones_column():
    """Every shard's x1 ends in a column of exact ones and x is the view of
    its other columns, in a federation's stacks, in each UE's shard and in
    a shard built by hand from a copy of its features."""
    fed = prepare(Scenario(k=3, n_k=2, rounds=0, seed=4)).federation
    x = np.random.default_rng(3).standard_normal((4, 5))
    hand = TaskShard(x=x, y=np.zeros(4, dtype=np.int64))
    assert not np.shares_memory(hand.x, x) and np.array_equal(hand.x, x)
    for shard in (fed.train, fed.eval, fed.train[1, 0], fed.eval[2], hand):
        assert shard.x1.shape == shard.x.shape[:-1] + (shard.x.shape[-1] + 1,)
        assert np.all(shard.x1[..., -1] == 1.0)
        assert np.shares_memory(shard.x, shard.x1)
        assert np.array_equal(shard.x1[..., :-1], shard.x)
    assert np.shares_memory(fed.train[1, 0].x1, fed.train.x1)
    hand.x[0, 0] = np.nan
    assert np.isnan(hand.x1[0, 0])


def _tied_model(name, rng):
    """A model and point whose class rows 1 and 4 are equal, so every
    sample ties between those two classes."""
    if name == "logistic":
        model = LogisticModel(DIM, CLASSES + 6)
        w = model.init_params(rng)
        weights, bias = model._unpack(w)
    else:
        model = MLPModel(DIM, 3, CLASSES + 6)
        w = model.init_params(rng)
        _, _, weights, bias = model._unpack(w)
    weights[4], bias[1] = weights[1], 2.0
    bias[4] = bias[1]
    return model, w


def _logits(model, w, x):
    z = model._logits(w, x)
    return z[2] if isinstance(model, MLPModel) else z


@pytest.mark.parametrize("name", ["logistic", "mlp"])
@pytest.mark.parametrize("batch", [(), (2, 3), (8, 8)],
                         ids=["single", "small", "wide"])
def test_predict_is_numpys_argmax_on_ties_and_nan(name, batch):
    """predict picks the first class at the class max, as np.argmax does,
    with exact ties, NaN columns and columns of infinities; the wide
    stacks and the single shard of 4096 samples take the slab path."""
    rng = np.random.default_rng(61)
    model, w = _tied_model(name, rng)
    x = rng.standard_normal(batch + ((40,) if batch else (4096,)) + (DIM,))
    x[..., 0, :] = np.nan                       # every class NaN
    x[..., 1, :] = np.inf                       # infinite logits and ties
    x[..., 2, :] = 0.0                          # the bias alone: ties at 2.0
    if name == "logistic":
        # classes without weight on feature 0 are NaN where it is infinite
        model._unpack(w)[0][::3, 0] = 0.0
        x[..., 3, 0] = np.inf
    for at in (w, w + 0.1 * rng.standard_normal(batch + w.shape)):
        with np.errstate(invalid="ignore", over="ignore"):
            z = _logits(model, at, x)
            got = model.predict(at, x)
        want = np.argmax(z, axis=-2)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
        assert (got == 1).any() and np.isnan(z).any()


@pytest.mark.parametrize("classes", [1, 2, 3, 10])
def test_class_argmax_is_numpys_argmax(classes):
    """The slab argmax on small integers (many ties), signed zeros, NaN and
    infinities, against np.argmax down the class axis."""
    rng = np.random.default_rng(classes)
    values = np.array([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])
    slabs = rng.choice(values, p=[.3, .2, .2, .2, .04, .03, .03],
                       size=(classes, 16, 160))
    z = _from_slabs(slabs)
    np.testing.assert_array_equal(_class_argmax(z), np.argmax(z, axis=-2))


def test_nonfinite_row_is_named_by_its_batch_index():
    model = LogisticModel(DIM, CLASSES)
    stack = _classification_stack(np.random.default_rng(5))
    stack.x[1, 2, 0, 0] = np.nan
    stack.x[2, 0, 0, 0] = np.nan
    with pytest.raises(meta.NonFiniteError, match="adaptation gradient at ue 1,2$"):
        meta.meta_grad(model, np.zeros(model.n_params), stack, 0.1,
                       context=lambda i: "ue %d,%d" % i)


@pytest.mark.parametrize("family", ["classification", "quadratic"])
def test_federation_hands_out_views_of_one_stack(family):
    scn = Scenario(k=3, n_k=2, family=family, rounds=0, seed=4)
    fed = prepare(scn).federation
    for stacked in (fed.train, fed.eval):
        assert stacked.batch_shape == (3, 2)
        for k in range(3):
            for j in range(2):
                mine = stacked[k, j]
                assert mine.batch_shape == ()
                if family == "classification":
                    assert np.shares_memory(mine.x, stacked.x)
                    assert np.array_equal(mine.x, stacked.x[k, j])
                    assert np.array_equal(mine.y, stacked.y[k, j])
                else:
                    assert np.shares_memory(mine.q, stacked.q)
                    assert np.array_equal(mine.a, stacked.a[k, j])
    # the quadratic stand-in sample count is the dimension
    assert fed.train.size == (scn.n_train if family == "classification"
                              else scn.dim)


def _reference_softmax_layer(h, y, weights, bias):
    """Textbook row-major softmax regression of labels y (n,) on inputs
    h (n, m): the probability rows P, the loss, the gradient blocks
    (P - Y)'H / n and mean(P - Y), and the argmax labels."""
    n, c = len(y), len(bias)
    z = h @ weights.T + bias
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(p[np.arange(n), y]))
    delta = p - np.eye(c)[y]
    return p, loss, delta.T @ h / n, delta.mean(axis=0), z.argmax(axis=1)


def _assert_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-14 * np.abs(ref).max())


@pytest.mark.parametrize("samples", [1, 7, 32, 33])
@pytest.mark.parametrize("classes", [2, 3, 10, 17, 130])
def test_logistic_kernels_match_the_row_major_reference(classes, samples):
    """Class-major loss, grad, hvp and predict against row-major formulas."""
    rng = np.random.default_rng(100 * classes + samples)
    l2 = 1e-2
    model = LogisticModel(DIM, classes, l2=l2)
    shard = TaskShard(x=rng.standard_normal((samples, DIM)),
                      y=rng.integers(0, classes, size=samples))
    w, v = rng.standard_normal((2, model.n_params))
    (weights, bias), (v_w, v_b) = model._unpack(w), model._unpack(v)
    p, loss, g_w, g_b, labels = _reference_softmax_layer(
        shard.x, shard.y, weights, bias)
    # the softmax Jacobian diag(p) - p p' of each row times the logits' change
    rz = shard.x @ v_w.T + v_b
    rp = p * (rz - (p * rz).sum(axis=1, keepdims=True))
    _assert_close(model.loss(w, shard), loss + 0.5 * l2 * w @ w)
    _assert_close(model.grad(w, shard),
                  np.concatenate([g_w.ravel(), g_b]) + l2 * w)
    _assert_close(model.hvp(w, shard, v),
                  np.concatenate([(rp.T @ shard.x / samples).ravel(),
                                  rp.mean(axis=0)]) + l2 * v)
    np.testing.assert_array_equal(model.predict(w, shard.x), labels)


@pytest.mark.parametrize("samples", [1, 7, 32, 33])
@pytest.mark.parametrize("classes", [2, 3, 10, 17, 130])
def test_mlp_output_layer_matches_the_row_major_reference(classes, samples):
    """The MLP's output-layer gradient and predict against row-major formulas."""
    rng = np.random.default_rng(100 * classes + samples)
    model = MLPModel(DIM, 3, classes)
    shard = TaskShard(x=rng.standard_normal((samples, DIM)),
                      y=rng.integers(0, classes, size=samples))
    w = rng.standard_normal(model.n_params)
    w1, b1, w2, b2 = model._unpack(w)
    a1 = np.tanh(shard.x @ w1.T + b1)
    _, _, g_w2, g_b2, labels = _reference_softmax_layer(a1, shard.y, w2, b2)
    _assert_close(model.grad(w, shard)[-w2.size - b2.size:],
                  np.concatenate([g_w2.ravel(), g_b2]))
    np.testing.assert_array_equal(model.predict(w, shard.x), labels)


def _large_federation():
    """Model, training stack and shared point of a k=50, n_k=20 run: logits
    (50, 20, 10, 32), the estimator's shape."""
    scn = Scenario(k=50, n_k=20)
    rng = np.random.default_rng(67)
    train = build_classification_federation(
        rng, scn.k, scn.n_k, scn.labels_per_ue, scn.n_classes, scn.dim,
        scn.n_train, scn.n_eval, scn.separation, scn.noise).train
    model = LogisticModel(scn.dim, scn.n_classes, l2=scn.l2)
    return model, train, model.init_params(rng), rng


@pytest.mark.parametrize("ids", [np.arange(50), np.array([4, 17, 38])],
                         ids=["setup", "refresh"])
@pytest.mark.parametrize("at", ["shared", "per_ue"])
@pytest.mark.parametrize("state", ["forward", "rows"])
def test_logistic_hvp_class_sum_has_the_bits_of_the_product(ids, at, state):
    """hvp's class sum without the product array equals ``(p * rp).sum``
    bit for bit, on the (50, 20, 10, 32) logits of the estimator and the
    (3, 20, 10, 32) rows of a refresh, with the state from forward on the
    rows' shards or copied out of the whole stack's by _rows."""
    model, train, w, rng = _large_federation()
    point = w if at == "shared" else \
        w + 0.3 * rng.standard_normal(train.batch_shape + w.shape)
    v = rng.standard_normal(point.shape)
    sub, sub_point, sub_v = train[ids], point, v
    if at == "per_ue":
        sub_point, sub_v = point[ids], v[ids]
    p = (model.forward(sub_point, sub) if state == "forward"
         else _rows(model.forward(point, train), ids))
    assert p.shape == (len(ids), 20, 10, 32)
    np.testing.assert_array_equal(
        model.hvp(sub_point, sub, sub_v, p),
        product_class_sum_hvp(model, sub_point, sub, sub_v, p))


def _traced_peak(call):
    """Bytes the call holds at its peak beyond what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", ["hvp", "grad"])
def test_logistic_kernels_hold_under_two_logit_arrays(kernel):
    """On the estimator's (50, 20, 10, 32) logits, one hvp or grad call
    handed a state peaks below 1.75 logit arrays: the logit change or the
    one-hot difference it must make, the (..., c, d) product and the packed
    result, and no product or quotient of logit size besides."""
    model, train, w, rng = _large_federation()
    state = model.forward(w, train)
    v = rng.standard_normal(w.shape)
    call = {"hvp": lambda: model.hvp(w, train, v, state),
            "grad": lambda: model.grad(w, train, state)}[kernel]
    assert _traced_peak(call) < 1.75 * state.nbytes
