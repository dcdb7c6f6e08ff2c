"""Wireless channel model and latency formulas.

Computation time is cycles-per-bit times local data bits over CPU
frequency. Uplink rate is the Shannon formula r = b log2(1 + ph / (b N0))
for allocated bandwidth b, ph the transmit power p times the channel gain
h, and noise spectral density N0 in W/Hz. Channel gains combine a fixed
path-loss factor o * d^-2 with a per-round unit-mean exponential fading
multiplier (Rayleigh amplitude means exponential power).

Links are laid out as (..., N+1), an ES's N UE links and then its own link
to the cloud: sample_channels draws gains and es_latency prices upload
times in that layout.  An ES's round latency is the slowest of its UEs
(compute plus upload) plus its own upload; the system round latency is
the max over the selected ESs. Aggregation time is ignored as negligible.
"""

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


def uplink_rate(b, ph, n0):
    """Shannon uplink rate in bit/s; zero bandwidth gives rate 0."""
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        snr = ph / (b * n0)
        rate = b * np.log2(1.0 + snr)
        # below about 1e-297 Hz, b * n0 underflows and the SNR overflows;
        # there 1 + snr rounds to snr, so log2(snr) is a difference of logs
        over = np.isinf(snr)
        if over.any():
            rate = np.where(over, b * (np.log2(ph) - np.log2(b)
                                       - np.log2(n0)), rate)
    return np.where(b > 0.0, rate, 0.0)[()]


def es_latency(tcmp_ue, t):
    """Round latency of each ES: slowest UE (compute plus upload) + own upload.

    ``t`` holds upload times as (..., N+1), the ES's own link last;
    ``tcmp_ue`` broadcasts against its first N.
    """
    return (tcmp_ue + t[..., :-1]).max(axis=-1) + t[..., -1]


def tcom(z_bits, rate):
    """Upload time of z_bits > 0 at rate r, Z / r; rate 0, or a time past
    the float range, is inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.divide(z_bits, rate)
    return np.where(rate > 0.0, t, np.inf)[()]


def sample_topology(rng, k, n_k, d_ue_range, d_es_range, o_ue_db, o_es_db):
    """Distances drawn once per scenario, priced once as the (K, N+1)
    path-loss gains o * d^-2 that stay fixed for the whole run: row k
    holds ES k's UE links and then its own, with o already linear."""
    d_ue = rng.uniform(d_ue_range[0], d_ue_range[1], size=(k, n_k))
    d_es = rng.uniform(d_es_range[0], d_es_range[1], size=k)
    o_ue, o_es = db_to_linear(o_ue_db), db_to_linear(o_es_db)
    return np.column_stack([o_ue * d_ue ** -2.0, o_es * d_es ** -2.0])


def sample_channels(gain, seed, round_index):
    """Per-round gains h = o * d^-2 * fading, fading ~ Exp(1), as (K, N+1)
    from the path-loss ``gain`` of sample_topology: the UE links' (K, N)
    fading is drawn first, then the ES links' (K,).  Fading is resampled
    each round, deterministic per (seed, round)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), 211, int(round_index)]))
    k, links = gain.shape
    return gain * np.column_stack([
        rng.exponential(1.0, size=(k, links - 1)),
        rng.exponential(1.0, size=k)])
