"""Personalized meta-objective: values, gradients, and one local step."""

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpfl.meta import NonFiniteError, adapt, meta_grad, meta_loss
from hpfl.tasks import (LogisticModel, MLPModel, QuadraticModel,
                        QuadraticTask, TaskShard)


def _identity_task(dim=2):
    return QuadraticModel(dim), QuadraticTask(q=np.eye(dim), a=np.zeros(dim))


def _random_quadratic(rng, dim):
    m = rng.standard_normal((dim, dim))
    q = m @ m.T + 0.1 * np.eye(dim)
    a = rng.standard_normal(dim)
    return QuadraticModel(dim), QuadraticTask(q=q, a=a)


def _random_shard(rng, n, dim, n_classes):
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, n_classes, size=n)
    return TaskShard(x=x, y=y)


def _fd_grad(f, w, eps=1e-6):
    g = np.empty_like(w)
    for i in range(w.shape[0]):
        e = np.zeros_like(w)
        e[i] = eps
        g[i] = (f(w + e) - f(w - e)) / (2 * eps)
    return g


def test_meta_loss_alpha_zero_is_plain_loss():
    model, task = _identity_task()
    w = np.array([2.0, 0.0])
    assert meta_loss(model, w, task, alpha=0.0) == pytest.approx(2.0, abs=1e-15)


def test_meta_loss_half_step_quadratic():
    model, task = _identity_task()
    w = np.array([2.0, 0.0])
    # theta = w - 0.5 * w = (1, 0), f(theta) = 0.5
    assert meta_loss(model, w, task, alpha=0.5) == pytest.approx(0.5, abs=1e-15)


def test_meta_loss_matches_high_precision_composition():
    rng = np.random.default_rng(3)
    model, task = _random_quadratic(rng, 3)
    w = rng.standard_normal(3)
    alpha = 0.07
    with mpmath.workdps(50):
        q = mpmath.matrix(task.q.tolist())
        a = mpmath.matrix(task.a.tolist())
        wv = mpmath.matrix(w.tolist())
        g = q * (wv - a)
        theta = wv - mpmath.mpf(alpha) * g
        d = theta - a
        expected = float(0.5 * (d.T * (q * d))[0, 0])
    assert meta_loss(model, w, task, alpha) == pytest.approx(expected, rel=1e-12)


def test_meta_grad_half_step_quadratic():
    model, task = _identity_task()
    w = np.array([2.0, 0.0])
    # for f = ||w||^2/2 the meta gradient is (1-alpha)^2 w
    np.testing.assert_allclose(meta_grad(model, w, task, alpha=0.5),
                               np.array([0.5, 0.0]), atol=1e-15)


@pytest.mark.parametrize("model", [LogisticModel(3, 4), MLPModel(3, 5, 4)],
                         ids=["logistic", "mlp"])
def test_meta_grad_forwards_w_once(forward_points, model):
    """The adaptation gradient and the HVP share the forward pass at w;
    the adapted point's gradient makes the only other one."""
    rng = np.random.default_rng(6)
    shard = _random_shard(rng, 9, 3, 4)
    w = model.init_params(rng)
    points = forward_points(type(model))
    meta_grad(model, w, shard, alpha=0.1)
    assert sum(p is w for p in points) == 1
    assert len(points) == 2


def test_meta_grad_alpha_zero_equals_grad():
    rng = np.random.default_rng(5)
    model, task = _random_quadratic(rng, 4)
    w = rng.standard_normal(4)
    np.testing.assert_array_equal(meta_grad(model, w, task, alpha=0.0),
                                  model.grad(w, task))


def test_meta_grad_quadratic_closed_form():
    """(I - aQ) Q (I - aQ) (w - a) for the quadratic family."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        model, task = _random_quadratic(rng, dim)
        w = rng.standard_normal(dim)
        alpha = float(rng.uniform(0.0, 0.2))
        m = np.eye(dim) - alpha * task.q
        expected = m @ task.q @ m @ (w - task.a)
        got = meta_grad(model, w, task, alpha)
        denom = max(1.0, np.linalg.norm(expected))
        assert np.linalg.norm(got - expected) / denom <= 1e-10


def test_meta_grad_finite_difference_mlp():
    rng = np.random.default_rng(7)
    model = MLPModel(4, 5, 3, l2=1e-3)
    shard = _random_shard(rng, 12, 4, 3)
    w = model.init_params(rng, scale=0.5)
    alpha = 0.02
    got = meta_grad(model, w, shard, alpha)
    fd = _fd_grad(lambda u: meta_loss(model, u, shard, alpha), w, eps=1e-5)
    rel = np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(got))
    assert rel <= 1e-4


def test_local_update_stationary_point():
    rng = np.random.default_rng(9)
    model, task = _random_quadratic(rng, 3)
    w = task.a.copy()
    np.testing.assert_allclose(
        w - 0.5 * meta_grad(model, w, task, alpha=0.1), w, atol=1e-14)


def test_local_update_half_step_quadratic():
    model, task = _identity_task()
    w = np.array([2.0, 0.0])
    np.testing.assert_allclose(
        w - 1.0 * meta_grad(model, w, task, alpha=0.5),
        np.array([1.5, 0.0]), atol=1e-15)


def test_local_update_descends_under_meta_smoothness():
    """One step with beta = 1/L of the meta objective must not increase it."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        model, task = _random_quadratic(rng, 4)
        alpha = 0.05
        m = np.eye(4) - alpha * task.q
        meta_hessian = m @ task.q @ m
        l_meta = float(np.linalg.eigvalsh(meta_hessian).max())
        w = task.a + rng.standard_normal(4)
        beta = 1.0 / l_meta
        w2 = w - beta * meta_grad(model, w, task, alpha)
        assert meta_loss(model, w2, task, alpha) <= \
            meta_loss(model, w, task, alpha) + 1e-12


def test_adapt_is_one_gradient_step():
    rng = np.random.default_rng(15)
    model, task = _random_quadratic(rng, 3)
    w = rng.standard_normal(3)
    np.testing.assert_allclose(adapt(model, w, task, 0.1),
                               w - 0.1 * model.grad(w, task), atol=1e-15)


def test_gradient_fd_consistency_classifiers():
    rng = np.random.default_rng(17)
    for model in (LogisticModel(4, 5, l2=1e-3), MLPModel(4, 6, 5, l2=1e-3)):
        for _ in range(5):
            shard = _random_shard(rng, 10, 4, 5)
            w = model.init_params(rng, scale=0.7)
            fd = _fd_grad(lambda u: model.loss(u, shard), w, eps=1e-6)
            g = model.grad(w, shard)
            assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) <= 1e-4


def test_hvp_fd_consistency_classifiers():
    rng = np.random.default_rng(19)
    for model in (LogisticModel(3, 4, l2=0.0), MLPModel(3, 5, 4, l2=0.0)):
        for _ in range(5):
            shard = _random_shard(rng, 10, 3, 4)
            w = model.init_params(rng, scale=0.7)
            v = rng.standard_normal(w.shape[0])
            v /= np.linalg.norm(v)
            eps = 1e-5
            fd = (model.grad(w + eps * v, shard)
                  - model.grad(w - eps * v, shard)) / (2 * eps)
            hv = model.hvp(w, shard, v)
            assert np.linalg.norm(hv - fd) / max(1.0, np.linalg.norm(hv)) <= 1e-3


def test_hvp_linear_in_direction():
    rng = np.random.default_rng(21)
    model = MLPModel(3, 4, 3, l2=1e-2)
    shard = _random_shard(rng, 8, 3, 3)
    w = model.init_params(rng, scale=0.5)
    v1 = rng.standard_normal(w.shape[0])
    v2 = rng.standard_normal(w.shape[0])
    lhs = model.hvp(w, shard, 2.0 * v1 - 3.0 * v2)
    rhs = 2.0 * model.hvp(w, shard, v1) - 3.0 * model.hvp(w, shard, v2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_nonfinite_error_carries_context():
    model = LogisticModel(2, 3)
    x = np.array([[1.0, np.inf], [0.0, 1.0]])
    shard = TaskShard(x=x, y=np.array([0, 1]))
    w = np.zeros(model.n_params)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match="round 3 ue 7"):
            meta_grad(model, w, shard, alpha=0.1, context="round 3 ue 7")


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.15))
def test_meta_grad_closed_form_property(seed, alpha):
    rng = np.random.default_rng(seed)
    model, task = _random_quadratic(rng, 3)
    w = rng.standard_normal(3)
    m = np.eye(3) - alpha * task.q
    expected = m @ task.q @ m @ (w - task.a)
    got = meta_grad(model, w, task, alpha)
    np.testing.assert_allclose(got, expected,
                               rtol=1e-9, atol=1e-9)
