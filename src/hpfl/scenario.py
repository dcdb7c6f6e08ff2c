"""Scenario configuration: one flat record describing a full run.

A scenario bundles the federation shape, the task family, the learning
rates, the scheduler knobs, and the radio parameters.  It loads from a
JSON file where every key is optional (missing keys take the defaults
below, an empty file means "all defaults") and unknown keys are rejected
so typos fail loudly.
"""

import dataclasses
import hashlib
import json
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .network import db_to_linear, dbm_per_hz_to_w

__all__ = ["ConfigError", "Scenario", "load_scenario", "save_scenario"]


class ConfigError(ValueError):
    """A scenario field is missing, unknown, or out of range."""


@dataclass(frozen=True)
class Scenario:
    """All knobs of a run; defaults give a small desk-scale federation."""

    # federation shape and task family
    k: int = 5
    n_k: int = 4
    family: str = "classification"
    dim: int = 8
    n_classes: int = 10
    labels_per_ue: int = 3
    n_train: int = 32
    n_eval: int = 32
    separation: float = 3.0
    noise: float = 0.6
    l2: float = 1e-3
    model: str = "logistic"
    hidden: int = 8
    init_scale: float = 0.1
    eig_lo: float = 0.5
    eig_hi: float = 2.0
    center_spread: float = 2.0
    ue_spread: float = 0.3

    # learning
    alpha: float = 0.03
    beta: float = 0.07
    mode: str = "hpfl"

    # scheduling
    rho: float = 0.5
    s_max: int = 2
    a_max: int = 3
    selection: str = "proposed"
    phi_override: float = -1.0

    # radio
    allocation: str = "progressive"
    total_b: float = 5e6
    b_min: float = 1e3
    n0_dbm_hz: float = -174.0
    p_ue: float = 0.01
    p_es: float = 0.1
    c_cycles: float = 20.0
    cpu_hz: float = 2e9
    z_bits: float = 1e6
    d_ue_lo: float = 2.0
    d_ue_hi: float = 50.0
    d_es_lo: float = 50.0
    d_es_hi: float = 200.0
    o_ue_db: float = -36.0
    o_es_db: float = -40.0

    # run control
    rounds: int = 50
    seed: int = 0
    probe_count: int = 8

    def __post_init__(self):
        _validate(self)

    def to_dict(self):
        return dataclasses.asdict(self)

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)

    def config_hash(self):
        """Stable digest of the canonical JSON form."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


# the allowed values of each string field, which the CLI offers as choices
CHOICES = {
    "family": ("classification", "quadratic"),
    "model": ("logistic", "mlp"),
    "mode": ("hpfl", "hfl"),
    "selection": ("proposed", "full", "random"),
    "allocation": ("progressive", "equal"),
}


def _require(ok, field, message):
    if not ok:
        raise ConfigError("%s: %s" % (field, message))


_TYPES = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a finite number"),
    str: (str, "a string"),
}


def _validate(s):
    for field in dataclasses.fields(s):
        value = getattr(s, field.name)
        kind, what = _TYPES[field.type]
        # the magnitude test rejects nan and infinities
        _require(isinstance(value, kind) and not isinstance(value, bool)
                 and (field.type is not float
                      or abs(value) <= sys.float_info.max),
                 field.name, "must be %s, got %r" % (what, value))
        # the bound's formulas turn every int into a float
        _require(field.type is not int or abs(value) <= sys.float_info.max,
                 field.name, "out of range: too large for a float")
    _require(s.k >= 1, "k", "need at least one edge server")
    _require(s.n_k >= 1, "n_k", "need at least one UE per edge server")
    for field, choices in CHOICES.items():
        _require(getattr(s, field) in choices, field,
                 "must be one of %s" % (choices,))
    _require(s.dim >= 1, "dim", "must be positive")
    _require(s.n_classes >= 2, "n_classes", "need at least two classes")
    _require(1 <= s.labels_per_ue <= s.n_classes, "labels_per_ue",
             "must lie in 1..n_classes")
    _require(s.n_train >= 1, "n_train", "shards need samples")
    _require(s.n_eval >= 1, "n_eval", "shards need samples")
    _require(s.hidden >= 1, "hidden", "must be positive")
    _require(s.alpha > 0, "alpha", "must be positive")
    _require(s.beta > 0, "beta", "must be positive")
    _require(0.0 <= s.rho <= 1.0, "rho", "must lie in [0, 1]")
    _require(s.s_max >= 0, "s_max", "must be non-negative")
    _require(s.a_max >= 1, "a_max", "must be at least 1")
    _require(s.total_b > 0, "total_b", "must be positive")
    _require(s.b_min >= 0, "b_min", "must be non-negative")
    _require(s.p_ue > 0, "p_ue", "transmit power must be positive")
    _require(s.p_es > 0, "p_es", "transmit power must be positive")
    _require(s.c_cycles > 0, "c_cycles", "must be positive")
    _require(s.cpu_hz > 0, "cpu_hz", "must be positive")
    _require(s.z_bits > 0, "z_bits", "payload must be positive")
    _require(s.d_ue_lo > 0, "d_ue_lo", "distance must be positive")
    _require(s.d_ue_hi >= s.d_ue_lo, "d_ue_hi", "must be at least d_ue_lo")
    _require(s.d_es_lo > 0, "d_es_lo", "distance must be positive")
    _require(s.d_es_hi >= s.d_es_lo, "d_es_hi", "must be at least d_es_lo")
    for field, to_linear in (("n0_dbm_hz", dbm_per_hz_to_w),
                             ("o_ue_db", db_to_linear),
                             ("o_es_db", db_to_linear)):
        with np.errstate(over="ignore"):
            linear = to_linear(np.float64(getattr(s, field)))
        _require(0.0 < linear < np.inf, field,
                 "must convert to a positive, finite linear value")
    _require(s.rounds >= 0, "rounds", "must be non-negative")
    _require(s.seed >= 0, "seed", "must be non-negative")
    _require(s.probe_count >= 2, "probe_count", "estimation needs two probes")
    _require(s.l2 >= 0, "l2", "must be non-negative")
    _require(s.eig_lo > 0, "eig_lo", "curvature must be positive")
    _require(s.eig_hi >= s.eig_lo, "eig_hi", "must be at least eig_lo")


def load_scenario(path):
    """Read a scenario from JSON; empty file means all defaults."""
    with open(path) as fh:
        try:
            text = fh.read().strip()
            raw = json.loads(text) if text else {}
        # undecodable bytes, bad JSON or an integer too long to convert
        except ValueError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config root: must be a JSON object")
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError("unknown keys: %s" % ", ".join(unknown))
    return Scenario(**raw)


def save_scenario(scenario, path):
    """Write the full scenario (defaults included) as sorted JSON."""
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
