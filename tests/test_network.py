"""Wireless model: rates, latencies, and channel sampling."""

import numpy as np
import pytest

from hpfl.network import (dbm_per_hz_to_w, db_to_linear, es_latency,
                          sample_channels, sample_topology, tcmp, tcom,
                          uplink_rate)
from oracles import power_limited_rate

N0_TABLE = dbm_per_hz_to_w(-174.0)
# the distance ranges and path-loss factors of the default scenario
DESK_TOPOLOGY = ((2.0, 50.0), (50.0, 200.0), -36.0, -40.0)


def test_noise_conversion():
    assert N0_TABLE == pytest.approx(10.0 ** -20.4, rel=1e-12)
    assert db_to_linear(-36.0) == pytest.approx(10.0 ** -3.6, rel=1e-12)


def test_tcmp_reference_value():
    assert tcmp(20.0, 1e6, 2e9) == pytest.approx(0.01, rel=1e-12)


def test_tcmp_linearity():
    base = tcmp(20.0, 1e6, 2e9)
    assert tcmp(20.0, 2e6, 2e9) == pytest.approx(2 * base, rel=1e-12)
    assert tcmp(20.0, 1e6, 4e9) == pytest.approx(base / 2, rel=1e-12)


def test_uplink_rate_reference_value():
    """b=1 MHz, p=0.01 W, h=1e-8, N0 at -174 dBm/Hz: SNR ~ 2.512e4."""
    rate = uplink_rate(1e6, 0.01, 1e-8, N0_TABLE)
    snr = 0.01 * 1e-8 / (1e6 * N0_TABLE)
    assert snr == pytest.approx(2.512e4, rel=1e-3)
    assert rate == pytest.approx(1e6 * np.log2(1.0 + snr), rel=1e-12)
    assert rate == pytest.approx(1.462e7, rel=1e-3)


def test_uplink_rate_zero_cases():
    assert uplink_rate(1e6, 0.01, 0.0, N0_TABLE) == 0.0
    assert uplink_rate(0.0, 0.01, 1e-8, N0_TABLE) == 0.0


@pytest.mark.parametrize("b", [1e-300, 1e-305, 2.2e-313])
def test_uplink_rate_where_the_snr_overflows(b):
    """b * N0 underflows here; the rate must stay finite and tiny, alone,
    beside a bandwidth that does not overflow, and among ones that all do."""
    above = uplink_rate(1e-290, 0.01, 1e-8, N0_TABLE)
    alone = uplink_rate(b, 0.01, 1e-8, N0_TABLE)
    every = uplink_rate(np.array([b, b, 0.5 * b]), 0.01, 1e-8, N0_TABLE)
    for rate in (alone, uplink_rate(np.array([b, 1e6]), 0.01, 1e-8,
                                    N0_TABLE)[0], *every):
        assert np.isfinite(rate) and 0.0 < rate < above
    assert every[0] == every[1] == alone


def test_uplink_rate_monotone_in_bandwidth():
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = rng.uniform(1e3, 1e7)
        p = rng.uniform(1e-3, 1.0)
        h = 10 ** rng.uniform(-11, -7)
        assert uplink_rate(2 * b, p, h, N0_TABLE) > uplink_rate(b, p, h, N0_TABLE)


def test_uplink_rate_concave_in_bandwidth():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        b = rng.uniform(1e3, 1e7)
        p = rng.uniform(1e-3, 1.0)
        h = 10 ** rng.uniform(-11, -7)
        step = b * 0.01
        r0, r1, r2 = (uplink_rate(b + i * step, p, h, N0_TABLE)
                      for i in range(3))
        assert r1 - r0 > 0
        assert (r2 - r1) < (r1 - r0)


def test_uplink_rate_approaches_power_limit():
    ceiling = power_limited_rate(0.01, 1e-8, N0_TABLE)
    assert uplink_rate(1e3, 0.01, 1e-8, N0_TABLE) < ceiling
    assert uplink_rate(1e16, 0.01, 1e-8, N0_TABLE) == pytest.approx(
        ceiling, rel=1e-4)


def test_tcom_reference_and_linearity():
    rate = uplink_rate(1e6, 0.01, 1e-8, N0_TABLE)
    assert tcom(rate, rate) == pytest.approx(1.0, rel=1e-12)
    assert tcom(2 * rate, rate) == pytest.approx(2.0, rel=1e-12)
    assert tcom(rate, uplink_rate(2e6, 0.01, 1e-8, N0_TABLE)) < 1.0


def test_tcom_sentinels():
    assert tcom(1e6, 0.0) == np.inf
    assert tcom(0.0, 0.0) == 0.0
    assert tcom(0.0, 1e6) == 0.0


def test_scalar_calls_return_floats():
    for value in (uplink_rate(1e6, 0.01, 1e-8, N0_TABLE),
                  uplink_rate(0.0, 0.01, 1e-8, N0_TABLE),
                  uplink_rate(1e-305, 0.01, 1e-8, N0_TABLE),
                  tcom(1e6, 2e6), tcom(1e6, 0.0), tcom(0.0, 0.0)):
        assert isinstance(value, float)


def test_es_latency_matches_per_link_reference():
    """Pricing a (K, N+1) link array in one call, each ES's own link last,
    gives the bits of scalar uplink_rate/tcom calls link by link, also at
    zero payloads, zero bandwidth and bandwidths where the SNR overflows."""
    rng = np.random.default_rng(11)
    k, n = 8, 5
    tcmp_ue = rng.uniform(0.0, 0.05, size=(k, n))
    ph = 0.01 * 10.0 ** rng.uniform(-11.0, -7.0, size=(k, n + 1))
    z = rng.uniform(1e5, 1e7, size=(k, n + 1))
    b = 10.0 ** rng.uniform(2.0, 7.0, size=(k, n + 1))
    z[0, 1] = z[1, -1] = 0.0
    z[2] = 0.0
    b[0, 1] = b[3, 0] = b[3, -1] = b[2, 2] = 0.0
    b[4, 2], b[4, -1], b[5, 3], b[6, 0] = 1e-300, 2.2e-313, 1e-305, 5e-324
    rate = uplink_rate(b, 1.0, ph, N0_TABLE)
    assert np.isfinite(rate).all()
    got = es_latency(tcmp_ue, tcom(z, rate))

    def t(i, j):
        return tcom(z[i, j], uplink_rate(b[i, j], 1.0, ph[i, j], N0_TABLE))

    want = [max(tcmp_ue[i, j] + t(i, j) for j in range(n)) + t(i, n)
            for i in range(k)]
    assert got.shape == (k,)
    np.testing.assert_array_equal(got, want)
    # a payload without bandwidth never uploads; an ES without payload
    # waits only on its UEs' compute
    assert np.isinf(got[3]) and got[2] == tcmp_ue[2].max()


def test_sample_topology_ranges():
    rng = np.random.default_rng(3)
    topo = sample_topology(rng, 4, 3, *DESK_TOPOLOGY)
    assert topo.d_ue.shape == (4, 3)
    assert topo.d_es.shape == (4,)
    assert np.all((topo.d_ue >= 2.0) & (topo.d_ue <= 50.0))
    assert np.all((topo.d_es >= 50.0) & (topo.d_es <= 200.0))
    assert topo.o_ue == pytest.approx(10 ** -3.6)
    assert topo.o_es == pytest.approx(10 ** -4.0)


def test_sample_channels_deterministic():
    rng = np.random.default_rng(4)
    topo = sample_topology(rng, 2, 2, *DESK_TOPOLOGY)
    a = sample_channels(topo, seed=9, round_index=5)
    b = sample_channels(topo, seed=9, round_index=5)
    assert a.shape == (2, 3)
    np.testing.assert_array_equal(a[:, :-1], b[:, :-1])
    np.testing.assert_array_equal(a[:, -1], b[:, -1])
    c = sample_channels(topo, seed=9, round_index=6)
    assert not np.array_equal(a[:, -1], c[:, -1])


def test_channel_gain_empirical_mean():
    """Mean gain over many fading draws approaches o * d^-2 within 2%."""
    from hpfl.network import Topology
    d = np.full(100000, 10.0)
    topo = Topology(d_ue=d[None, :], d_es=np.array([100.0]),
                    o_ue=10 ** -3.6, o_es=10 ** -4.0)
    snap = sample_channels(topo, seed=0, round_index=0)
    expected = 10 ** -3.6 * 10.0 ** -2
    assert np.mean(snap[0, :-1]) == pytest.approx(expected, rel=0.02)


def test_channel_path_loss_ratio():
    """2 m vs 50 m distance: path-loss factor ratio (50/2)^2 = 625."""
    from hpfl.network import Topology
    n = 200000
    topo = Topology(d_ue=np.stack([np.full(n, 2.0), np.full(n, 50.0)]),
                    d_es=np.array([100.0, 100.0]),
                    o_ue=10 ** -3.6, o_es=10 ** -4.0)
    snap = sample_channels(topo, seed=1, round_index=0)
    ratio = np.mean(snap[0, :-1]) / np.mean(snap[1, :-1])
    assert ratio == pytest.approx(625.0, rel=0.05)
