"""Wireless channel model and latency formulas.

Computation time is cycles-per-bit times local data bits over CPU
frequency. Uplink rate is the Shannon formula r = b log2(1 + p h / (b N0))
for allocated bandwidth b, transmit power p, channel gain h, and noise
spectral density N0 in W/Hz. Channel gains combine a fixed path-loss
factor o * d^-2 with a per-round unit-mean exponential fading multiplier
(Rayleigh amplitude means exponential power).

An ES's round latency (es_latency, used by the allocator and for idle
servers) is the slowest of its UEs (compute plus upload) plus its own
upload to the cloud; the system round latency is the max over the
selected ESs. Aggregation time is ignored as negligible.
"""

from dataclasses import dataclass

import numpy as np

LN2 = float(np.log(2.0))


def dbm_per_hz_to_w(n0_dbm):
    """Noise spectral density dBm/Hz -> W/Hz."""
    return 10.0 ** ((n0_dbm - 30.0) / 10.0)


def db_to_linear(db):
    """Power ratio in dB -> linear factor."""
    return 10.0 ** (db / 10.0)


def tcmp(c_cycles, d_bits, delta):
    """Local computation time: c * D / delta."""
    return c_cycles * d_bits / delta


def uplink_rate(b, p, h, n0):
    """Shannon uplink rate in bit/s; zero bandwidth gives rate 0."""
    scalar = np.ndim(b) == 0 and np.ndim(p) == 0 and np.ndim(h) == 0
    b, p, h = np.broadcast_arrays(np.atleast_1d(np.asarray(b, dtype=float)),
                                  np.asarray(p, dtype=float),
                                  np.asarray(h, dtype=float))
    pos = b > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        snr = np.divide(p * h, b * n0, out=np.zeros_like(b), where=pos)
    out = np.where(pos, b * np.log2(1.0 + snr), 0.0)
    # below about 1e-297 Hz, b * n0 underflows and the SNR overflows; there
    # 1 + snr rounds to snr, so take log2(snr) as a difference of logs
    big = np.isinf(snr)
    if big.any():
        out[big] = b[big] * (np.log2(p[big] * h[big]) - np.log2(b[big])
                             - np.log2(n0))
    if scalar:
        return float(out[0])
    return out


def es_latency(tcmp_ue, ph_ue, ph_es, z_ue, z_es, b_ue, b_es, n0):
    """Round latency of each ES: slowest UE (compute plus upload) + own upload.

    UE arguments broadcast to (..., N), ES arguments to (...); ph = p h.
    """
    t_ue = tcmp_ue + tcom(z_ue, uplink_rate(b_ue, 1.0, ph_ue, n0))
    return t_ue.max(axis=-1) + tcom(z_es, uplink_rate(b_es, 1.0, ph_es, n0))


def power_limited_rate(p, h, n0):
    """Supremum of uplink_rate over bandwidth: p h / (N0 ln 2)."""
    return p * h / (n0 * LN2)


def tcom(z_bits, rate):
    """Upload time Z / r; rate 0, or a time past the float range, is inf."""
    scalar = np.ndim(z_bits) == 0 and np.ndim(rate) == 0
    z, r = np.broadcast_arrays(np.atleast_1d(np.asarray(z_bits, dtype=float)),
                               np.asarray(rate, dtype=float))
    out = np.full(z.shape, np.inf)
    with np.errstate(over="ignore"):
        np.divide(z, r, out=out, where=r > 0.0)
    out[z == 0.0] = 0.0
    if scalar:
        return float(out[0])
    return out


@dataclass(frozen=True)
class Topology:
    """Static geometry and radio parameters of the hierarchy.

    d_ue is a (K, N) array of UE distances in meters, row k holding the
    UEs of ES k; d_es holds each ES's distance to the cloud. Path-loss
    reference factors o_ue/o_es are linear (already converted from dB).
    """

    d_ue: np.ndarray
    d_es: np.ndarray
    o_ue: float
    o_es: float


def sample_topology(rng, k, n_k, d_ue_range=(2.0, 50.0),
                    d_es_range=(50.0, 200.0), o_ue_db=-36.0, o_es_db=-40.0):
    """Distances drawn once per scenario; fixed for the whole run."""
    d_ue = rng.uniform(d_ue_range[0], d_ue_range[1], size=(k, n_k))
    d_es = rng.uniform(d_es_range[0], d_es_range[1], size=k)
    return Topology(d_ue=d_ue, d_es=d_es,
                    o_ue=db_to_linear(o_ue_db), o_es=db_to_linear(o_es_db))


@dataclass(frozen=True)
class ChannelSnapshot:
    """Per-round channel gains: h = o * d^-2 * fading, fading ~ Exp(1).

    h_ue is (K, N) like the topology's d_ue, h_es is (K,).
    """

    h_ue: np.ndarray
    h_es: np.ndarray


def sample_channels(topology, seed, round_index):
    """Fading resampled each round, deterministic per (seed, round)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), 211, int(round_index)]))
    h_ue = topology.o_ue * topology.d_ue ** -2.0 * rng.exponential(
        1.0, size=topology.d_ue.shape)
    h_es = topology.o_es * topology.d_es ** -2.0 * rng.exponential(
        1.0, size=topology.d_es.shape)
    return ChannelSnapshot(h_ue=h_ue, h_es=h_es)
