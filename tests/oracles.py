"""Reference implementations that tests compare the package against.

No run calls these: the allocator prices links with the broadcast
``bandwidth.deadline_bandwidth``, and the scheduler applies its threshold
inline.  They stay here as slow, obviously correct oracles.
"""

import numpy as np

from hpfl import bandwidth
from hpfl.bandwidth import InfeasibleAllocationError
from hpfl.network import LN2, tcom, uplink_rate
from hpfl.scheduler import net_scores


def power_limited_rate(p, h, n0):
    """Supremum of uplink_rate over bandwidth: p h / (N0 ln 2)."""
    return p * h / (n0 * LN2)


def _needed_rate(z_bits, p, h, n0, tcom_target, who):
    """z_bits / tcom_target, or InfeasibleAllocationError if out of reach."""
    if tcom_target <= 0.0:
        raise InfeasibleAllocationError(
            f"{who}: upload deadline {tcom_target!r} s is not positive")
    need, cap = z_bits / tcom_target, power_limited_rate(p, h, n0)
    if need >= cap:
        raise InfeasibleAllocationError(
            f"{who}: required rate {need:.6g} bit/s is not below the "
            f"power-limited ceiling {cap:.6g} bit/s")
    return need


def bisect_link_bandwidth(z_bits, p, h, n0, tcom_target, rel_tol=1e-12,
                          max_iter=300):
    """Reference solver: invert the rate formula by pure bisection."""
    need = _needed_rate(z_bits, p, h, n0, tcom_target, "link")
    hi = 1.0
    while uplink_rate(hi, p * h, n0) < need:
        hi *= 2.0
        if hi > 1e30:
            raise InfeasibleAllocationError("bandwidth bracket expansion failed")
    lo = 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if uplink_rate(mid, p * h, n0) < need:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def solve_link_bandwidth(z_bits, p, h, n0, tcom_target, who="link"):
    """Closed-form deadline bandwidth for one link, verified by residual.

    Raises InfeasibleAllocationError naming the link when the deadline
    cannot be met by any bandwidth, and RuntimeError naming the link when
    the closed form misses the deadline by more than 1e-9 relative.  It
    looks deadline_bandwidth up on the module, so a test can patch it.
    """
    if z_bits == 0.0 and tcom_target > 0.0:
        return 0.0
    _needed_rate(z_bits, p, h, n0, tcom_target, who)
    b = float(bandwidth.deadline_bandwidth(z_bits, p * h, n0, tcom_target))
    achieved = tcom(z_bits, uplink_rate(b, p * h, n0))
    miss = abs(achieved - tcom_target) / tcom_target
    if not miss <= 1e-9:
        raise RuntimeError(f"{who}: the closed-form bandwidth {b:.6g} Hz "
                           f"misses the deadline by {miss:.3g} relative")
    return b


def threshold_decisions(importance, latency, rho, phi):
    """Boolean mask of servers whose benefit meets the threshold.

    A server passes when ``rho*phi*I_k >= (1-rho)*O_k``; exact ties are
    treated as passes.
    """
    return net_scores(np.asarray(importance, dtype=float),
                      np.asarray(latency, dtype=float), rho, phi) >= 0.0


def separable_objective_value(pi, importance, latency, rho, phi):
    """Relaxed objective with a summed latency term instead of the max.

    ``-rho*phi*sum(pi*I) + (1-rho)*sum(pi*O)`` decomposes per server, which
    is what makes the threshold rule exact for it.
    """
    pi = np.asarray(pi, dtype=bool)
    imp = np.asarray(importance, dtype=float)
    lat = np.asarray(latency, dtype=float)
    return -rho * phi * float(imp[pi].sum()) + (1.0 - rho) * float(lat[pi].sum())
