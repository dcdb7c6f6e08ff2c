"""Smoothness/diversity estimation and the derived bound constants."""

import numpy as np
import pytest

from hpfl.constants import (EstimationError, bound_constants,
                            estimate_constants)
from hpfl.meta import NonFiniteError
from hpfl.tasks import (LogisticModel, MLPModel, QuadraticModel,
                        QuadraticTask, TaskShard)


def _stacked(*tasks):
    """One stacked shard holding the given single-UE tasks."""
    return QuadraticTask(q=np.stack([t.q for t in tasks]),
                         a=np.stack([t.a for t in tasks]))


def _identity_shard(dim):
    return _stacked(QuadraticTask(q=np.eye(dim), a=np.zeros(dim)))


def test_identity_quadratic_constants():
    """f = ||w||^2/2: unit gradient Lipschitz, flat Hessian, no diversity."""
    model = QuadraticModel(3)
    shard = _identity_shard(3)
    c = estimate_constants(model, shard, alpha=0.1, probe_count=8,
                           rng_seed=0)
    assert c.grad_lip == pytest.approx(1.0, rel=1e-9)
    assert c.hess_lip == pytest.approx(0.0, abs=1e-9)
    assert c.grad_div == pytest.approx(0.0, abs=1e-12)
    assert c.hess_div == pytest.approx(0.0, abs=1e-12)
    assert c.meta_div_sq == pytest.approx(0.0, abs=1e-12)
    # probes live in the unit ball so gradient norms stay below 1
    assert 0.0 < c.grad_max <= 1.0


def test_derived_fields_satisfy_formulas():
    rng = np.random.default_rng(4)
    shards = []
    for _ in range(3):
        m = rng.standard_normal((4, 4))
        shards.append(QuadraticTask(q=m @ m.T + 0.2 * np.eye(4),
                                    a=rng.standard_normal(4)))
    alpha = 0.05
    c = estimate_constants(QuadraticModel(4), _stacked(*shards), alpha,
                           probe_count=6, rng_seed=1)
    assert c.meta_lip == pytest.approx(
        4.0 * c.grad_lip + alpha * c.hess_lip * c.grad_max, rel=1e-15)
    assert c.meta_div_sq == pytest.approx(
        3.0 * c.grad_max ** 2 * alpha ** 2 * c.hess_div ** 2
        + 192.0 * c.grad_div ** 2, rel=1e-15)
    for name in ("grad_lip", "grad_max", "hess_lip", "grad_div", "hess_div",
                 "meta_lip", "meta_div_sq"):
        assert getattr(c, name) >= 0.0


@pytest.mark.parametrize("model", [LogisticModel(4, 3, l2=1e-2),
                                   MLPModel(4, 5, 3, l2=1e-2)],
                         ids=["logistic", "mlp"])
def test_each_probe_makes_one_forward_pass(forward_points, model):
    """A probe's gradient and its HVPs share one forward pass."""
    rng = np.random.default_rng(2)
    shards = TaskShard(x=rng.standard_normal((2, 3, 7, 4)),
                       y=rng.integers(0, 3, size=(2, 3, 7)))
    points = forward_points(type(model))
    estimate_constants(model, shards, 0.1, probe_count=5, rng_seed=3)
    assert len(points) == 5


@pytest.mark.parametrize("alpha", [1e300, 1e200])
def test_overflowing_constant_raises_naming_it(alpha):
    """alpha ** 2 overflows a float: meta_div_sq is not finite."""
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3))
    shard = _stacked(QuadraticTask(q=m @ m.T + np.eye(3), a=np.ones(3)),
                     QuadraticTask(q=np.eye(3), a=np.zeros(3)))
    with pytest.raises(NonFiniteError, match="^non-finite constant meta_div_sq$"):
        estimate_constants(QuadraticModel(3), shard, alpha, rng_seed=1)


def test_estimation_deterministic_in_seed():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 3))
    shard = _stacked(QuadraticTask(q=m @ m.T + np.eye(3), a=np.zeros(3)))
    a = estimate_constants(QuadraticModel(3), shard, 0.03, rng_seed=7)
    b = estimate_constants(QuadraticModel(3), shard, 0.03, rng_seed=7)
    assert a == b
    c = estimate_constants(QuadraticModel(3), shard, 0.03, rng_seed=8)
    assert a != c


def test_degenerate_probes_raise():
    """Around a center at 1e20 the radius-1 probe ball rounds to one point."""
    model = QuadraticModel(2)
    shard = _identity_shard(2)
    with pytest.raises(EstimationError):
        estimate_constants(model, shard, 0.1, probe_count=4,
                           center=np.full(2, 1e20))


def test_bound_constants_arithmetic():
    phi, nu = bound_constants(beta=0.1, s=2, a=5, k=10, meta_div_sq=1.0)
    assert phi == pytest.approx(0.4, rel=1e-15)
    assert nu == pytest.approx(2.0 + 4.0, rel=1e-15)


def test_bound_constants_zero_staleness():
    phi, nu = bound_constants(beta=0.1, s=0, a=5, k=10, meta_div_sq=1.0)
    assert phi == 0.0
    assert nu == pytest.approx(10.0 * 0.1 * 10 * 1.0 / 5, rel=1e-15)
