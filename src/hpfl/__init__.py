"""Hierarchical personalized federated learning simulator.

A deterministic, seedable round simulator for a UE / edge-server / cloud
hierarchy: MAML-style personalized local training, synchronous edge
aggregation, semi-asynchronous cloud aggregation under bounded staleness,
a wireless latency model, threshold-based edge-server scheduling, and
min-max uplink bandwidth allocation, plus an experiment harness that can
audit the per-round descent bound it reports.
"""

# above the submodule imports, which read it
__version__ = "0.1.0"

from .bandwidth import InfeasibleAllocationError
from .experiment import (audit_bound, run_audit, run_experiment, run_sweep,
                         write_outputs)
from .scenario import ConfigError, Scenario, load_scenario, save_scenario

__all__ = [
    "ConfigError",
    "InfeasibleAllocationError",
    "Scenario",
    "audit_bound",
    "load_scenario",
    "run_audit",
    "run_experiment",
    "run_sweep",
    "save_scenario",
    "write_outputs",
    "__version__",
]
