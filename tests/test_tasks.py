"""Batched model calls agree with per-UE calls; the federation is stored once."""

import numpy as np
import pytest

from hpfl import meta
from hpfl.experiment import prepare
from hpfl.scenario import Scenario
from hpfl.tasks import (LogisticModel, MLPModel, QuadraticModel,
                        QuadraticTask, TaskShard, _class_sum, _sample_mean)

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


@pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 10, 16, 17, 130])
def test_class_sum_keeps_the_row_major_order(classes):
    """Class-major logits are summed over classes in the order NumPy sums a
    contiguous row, so the softmax is the bits of the row-major one."""
    e = np.exp(np.random.default_rng(classes).standard_normal((3, classes, 33)))
    row_major = np.ascontiguousarray(np.swapaxes(e, -1, -2)).sum(axis=-1)
    np.testing.assert_array_equal(_class_sum(e), row_major)


@pytest.mark.parametrize("samples", [1, 7, 32, 33])
def test_sample_mean_keeps_the_row_major_order(samples):
    """The mean over samples of class-major values equals the row-major
    mean over the sample axis of the same values, bit for bit."""
    rows = np.random.default_rng(samples).standard_normal((2, 3, samples, 10))
    class_major = np.ascontiguousarray(np.swapaxes(rows, -1, -2))
    np.testing.assert_array_equal(_sample_mean(class_major),
                                  rows.mean(axis=-2))
