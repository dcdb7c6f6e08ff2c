"""Smoothness/diversity estimation and the derived bound constants."""

import numpy as np
import pytest

from hpfl import constants
from hpfl.constants import (EstimationError, _maxima, bound_constants,
                            estimate_constants)
from hpfl.experiment import prepare
from hpfl.meta import NonFiniteError
from hpfl.scenario import Scenario
from hpfl.tasks import (LogisticModel, MLPModel, QuadraticModel,
                        QuadraticTask, TaskShard)
from oracles import estimator_maxima


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
                           rng_seed=0, center=np.zeros(3))
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
                           probe_count=6, rng_seed=1, center=np.zeros(4))
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
    estimate_constants(model, shards, 0.1, probe_count=5, rng_seed=3,
                       center=np.zeros(model.n_params))
    assert len(points) == 5


def _probe_stacks(rng, probes, n_ue, dim):
    """Random (probe, UE, P) gradients, (probe, 3, UE, P) HVPs and the
    pairwise distances of random probe points."""
    points = rng.standard_normal((probes, 4))
    dists = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    return (rng.standard_normal((probes, n_ue, dim)),
            rng.standard_normal((probes, 3, n_ue, dim)), dists)


def _assert_maxima_match_the_oracle(grads, hvps, dists):
    """_maxima, on read-only stacks, gives the oracle's five floats."""
    want = estimator_maxima(grads, hvps, dists)
    grads.flags.writeable = hvps.flags.writeable = False
    got = _maxima(grads, hvps, dists)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    return got


@pytest.mark.parametrize("shape", [(8, 1000, 90), (8, 80, 618)],
                         ids=["large", "audit_mlp"])
def test_buffered_maxima_equal_the_pairwise_norms(shape):
    """The filtered maxima equal those of fresh norms, bit for bit, on
    stacks of the large and audit_mlp estimator shapes."""
    grads, hvps, dists = _probe_stacks(np.random.default_rng(shape[2]), *shape)
    _assert_maxima_match_the_oracle(grads, hvps, dists)


def test_buffered_maxima_skip_a_pair_closer_than_1e_12():
    """Probes 0 and 1 lie 1e-13 apart but their gradients and HVPs differ
    by O(1): the pair must give no difference quotient."""
    grads, hvps, dists = _probe_stacks(np.random.default_rng(9), 4, 5, 6)
    dists[0, 1] = dists[1, 0] = 1e-13
    grad_lip, _, hess_lip, _, _ = _assert_maxima_match_the_oracle(
        grads, hvps, dists)
    assert grad_lip < 1e3 and hess_lip < 1e3


def _near_duplicates(rng, probes, n_ue, dim):
    """Stacks whose rows all lie within 1e-9 of one shared row, so every
    Gram estimate cancels to far below its error bound."""
    grads, hvps, dists = _probe_stacks(rng, probes, n_ue, dim)
    grads *= 1e-9
    grads += rng.standard_normal(dim)
    hvps *= 1e-9
    hvps += rng.standard_normal(dim)
    return grads, hvps, dists


def _planted(rng, probes, n_ue, dim):
    """One largest row planted as +v at the even probes and -v at the odd
    ones, in rows 1 and 3, so every even-odd pair holds it twice; and one
    largest slab copied to three slabs."""
    grads, hvps, dists = _probe_stacks(rng, probes, n_ue, dim)
    dists[:] = 1.0
    v = 10.0 * rng.standard_normal(dim)
    for stack in (grads, hvps[:, 1]):
        stack[0::2, [1, 3]] = v
        stack[1::2, [1, 3]] = -v
    hvps[0, 0] = hvps[1, 2] = hvps[-1, 0] = 5.0 * rng.standard_normal(
        (n_ue, dim))
    return grads, hvps, dists


def _with(value, *cells):
    """Random stacks with value written into the given cells of the HVPs
    and, at their first three indices, of the gradients."""
    def build(rng, probes, n_ue, dim):
        grads, hvps, dists = _probe_stacks(rng, probes, n_ue, dim)
        for cell in cells:
            hvps[cell] = value
            grads[(cell[0],) + cell[2:]] = value
        return grads, hvps, dists
    return build


def _scaled(scale, spread):
    """Rows of magnitude ``scale`` that differ by ``scale * spread``."""
    def build(rng, probes, n_ue, dim):
        grads, hvps, dists = _probe_stacks(rng, probes, n_ue, dim)
        for stack in (grads, hvps):
            stack *= spread
            stack += 1.0
            stack *= scale
        return grads, hvps, dists
    return build


HOSTILE_STACKS = {
    "near-duplicates": (_near_duplicates, False),
    "planted": (_planted, False),
    "nan": (_with(np.nan, (1, 0, 2, 0)), True),
    "inf": (_with(np.inf, (0, 2, 1, 0), (-1, 2, 1, 0)), True),
    "-inf": (_with(-np.inf, (-1, 1, 0, 0)), True),
    # the squared norms overflow, the row differences do not
    "1e155": (_scaled(1e155, 1e-3), True),
    # the squares underflow into subnormals, or to a few units of the
    # smallest one
    "1e-160": (_scaled(1e-160, 1.0), False),
    "1e-162": (_scaled(1e-162, 1.0), False),
}


@pytest.mark.parametrize("probes, n_ue, dim", [(4, 5, 6), (2, 7, 1),
                                               (16, 4, 9), (5, 6, 1),
                                               (8, 64, 3)],
                         ids=["4-probes", "2-probes-P1", "16-probes",
                              "P1", "64-rows"])
@pytest.mark.parametrize("name", sorted(HOSTILE_STACKS))
def test_filtered_maxima_on_hostile_stacks(name, probes, n_ue, dim):
    """Stacks built to defeat the Gram estimates' filter give the oracle's
    maxima bit for bit: near-duplicate rows (every row a candidate), ties
    in several rows and pairs, NaN and infinities, squared norms that
    overflow, squares that underflow.  Where the oracle itself overflows
    or meets NaN, both run with those warnings silenced; elsewhere any
    RuntimeWarning fails the test."""
    build, warns = HOSTILE_STACKS[name]
    stacks = build(np.random.default_rng(probes * 10 + dim), probes, n_ue, dim)
    if warns:
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_maxima_match_the_oracle(*stacks)
    else:
        _assert_maxima_match_the_oracle(*stacks)


def _benchmark_stacks(config):
    """The estimator's stacks and probe distances of one benchmark
    workload's scenario at seed 1."""
    seen = []
    maxima = constants._maxima

    def kept(grads, hvps, dists):
        seen.append((grads, hvps, dists))
        return maxima(grads, hvps, dists)

    constants._maxima = kept
    try:
        prepare(Scenario(seed=1, **config))
    finally:
        constants._maxima = maxima
    return seen[0]


BENCHMARK_CONFIGS = {
    "desk": {},
    "large": {"k": 50, "n_k": 20},
    "audit_mlp": {"k": 10, "n_k": 8, "model": "mlp", "hidden": 32},
}


@pytest.mark.parametrize("stacks", [
    pytest.param(lambda: _probe_stacks(np.random.default_rng(90),
                                       8, 1000, 90), id="random-large"),
    pytest.param(lambda: _probe_stacks(np.random.default_rng(618),
                                       8, 80, 618), id="random-audit_mlp"),
] + [pytest.param(lambda config=config: _benchmark_stacks(config), id=name)
     for name, config in BENCHMARK_CONFIGS.items()])
def test_filtered_maxima_form_few_rows(monkeypatch, stacks):
    """On the large and audit_mlp shaped stacks and on the estimator's own
    stacks of the three benchmark workloads, each of the five filters
    leaves at most 4 candidate rows (or slabs) per pair of probes, so a
    bound loosened until everything is rechecked fails here; and _maxima
    writes neither stack."""
    grads, hvps, dists = stacks()
    kept = grads.copy(), hvps.copy()
    counts = []
    candidates = constants._candidates

    def counted(est, scale, terms):
        mask = candidates(est, scale, terms)
        counts.append(int(mask.sum(axis=-1).max()))
        return mask

    monkeypatch.setattr(constants, "_candidates", counted)
    _assert_maxima_match_the_oracle(grads, hvps, dists)
    assert len(counts) == 5 and max(counts) <= 4, counts
    np.testing.assert_array_equal(grads, kept[0])
    np.testing.assert_array_equal(hvps, kept[1])


# the seven constants of the k=50, n_k=20 federation, seeds 1 and 2, as
# recorded before the logistic kernels' buffers changed
LARGE_CONSTANTS = {
    1: {"grad_lip": 3.476128909762352, "grad_max": 7.357636456815524,
        "hess_lip": 3.6545508725777425, "grad_div": 4.158353526897239,
        "hess_div": 1.8346131337020213, "meta_lip": 14.711181341050356,
        "meta_div_sq": 3320.537538062392},
    2: {"grad_lip": 4.3235609992567445, "grad_max": 8.439762968889472,
        "hess_lip": 4.439562092953244, "grad_div": 4.313475185873831,
        "hess_div": 2.0491289660636074, "meta_lip": 18.418309549532744,
        "meta_div_sq": 3573.1726281742845},
}


@pytest.mark.parametrize("seed", sorted(LARGE_CONSTANTS))
def test_large_federation_constants_keep_their_bits(seed):
    """estimate_constants on the 1,000-UE federation of the large benchmark
    workload gives the recorded floats exactly; no golden scenario has more
    than 80 UEs.  The figures are those of OpenBLAS's Haswell and SkylakeX
    kernels; its generic Prescott kernels move grad_lip at seed 1 by one
    unit in the last place."""
    engine = prepare(Scenario(seed=seed, k=50, n_k=20, rounds=20))
    assert engine.constants.to_dict() == LARGE_CONSTANTS[seed]


@pytest.mark.parametrize("alpha", [1e300, 1e200])
def test_overflowing_constant_raises_naming_it(alpha):
    """alpha ** 2 overflows a float: meta_div_sq is not finite."""
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3))
    shard = _stacked(QuadraticTask(q=m @ m.T + np.eye(3), a=np.ones(3)),
                     QuadraticTask(q=np.eye(3), a=np.zeros(3)))
    with pytest.raises(NonFiniteError, match="^non-finite constant meta_div_sq$"):
        estimate_constants(QuadraticModel(3), shard, alpha, probe_count=8,
                           rng_seed=1, center=np.zeros(3))


def test_estimation_deterministic_in_seed():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 3))
    shard = _stacked(QuadraticTask(q=m @ m.T + np.eye(3), a=np.zeros(3)))
    def estimate(seed):
        return estimate_constants(QuadraticModel(3), shard, 0.03,
                                  probe_count=8, rng_seed=seed,
                                  center=np.zeros(3))

    a, b, c = estimate(7), estimate(7), estimate(8)
    assert a == b
    assert a != c


def test_degenerate_probes_raise():
    """Around a center at 1e20 the radius-1 probe ball rounds to one point."""
    model = QuadraticModel(2)
    shard = _identity_shard(2)
    with pytest.raises(EstimationError):
        estimate_constants(model, shard, 0.1, probe_count=4, rng_seed=0,
                           center=np.full(2, 1e20))


def test_bound_constants_arithmetic():
    phi, nu = bound_constants(beta=0.1, s=2, a=5, k=10, meta_div_sq=1.0)
    assert phi == pytest.approx(0.4, rel=1e-15)
    assert nu == pytest.approx(2.0 + 4.0, rel=1e-15)


def test_bound_constants_zero_staleness():
    phi, nu = bound_constants(beta=0.1, s=0, a=5, k=10, meta_div_sq=1.0)
    assert phi == 0.0
    assert nu == pytest.approx(10.0 * 0.1 * 10 * 1.0 / 5, rel=1e-15)


@pytest.mark.parametrize("s,meta_div_sq,name", [
    pytest.param(10 ** 200, 1.0, "phi", id="s^2-overflows"),
    pytest.param(2, 1e308, "nu", id="meta_div_sq-term-overflows"),
])
def test_bound_constants_overflow_raises_naming_it(s, meta_div_sq, name):
    with pytest.raises(NonFiniteError, match="non-finite constant %s$" % name):
        bound_constants(beta=0.1, s=s, a=5, k=10, meta_div_sq=meta_div_sq)
