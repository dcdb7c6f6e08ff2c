"""Min-max bandwidth allocation across the selected edge servers.

The allocator answers: given a total budget B, how much bandwidth does
each UE uplink and each ES uplink get so that the slowest selected ES
finishes as early as possible. At the optimum every selected ES finishes
at the same time O*, and within an ES all of its UEs finish their upload
at a common instant G_k, leaving O* - G_k for the ES's own upload.

Every payload link also gets at least the floor b_min. The floor is part
of each link's demand, max(deadline bandwidth, b_min), so a link at the
floor finishes early and the rest still share one finish time; a group
whose links all sit at the floor finishes before O*.

Two nested solvers realize that structure:

* the bandwidth needed by one link to meet an upload deadline tau has a
  closed form through W_{-1}, the lower real solution of w e^w = z (the
  upper solution W_0 only carries the trivial root), and
* for a candidate O*, each ES's bandwidth demand minimizes over the
  split G_k between the UE tier and the ES upload; the total demand is
  decreasing in O*, so an outer root search (false position with
  Illinois damping) finds the O* whose demand exhausts B.

Both allocators pad the groups once into (K, M) arrays, M the largest
group; every solve and result reads that one layout, prices each ES with
network.es_latency, and cuts the UE bandwidths back into one array per
group.

Lambert W is evaluated in-package by Halley iteration to 1e-12 residual,
with a monotone bisection fallback when the closed form fails residual
verification.
"""

from dataclasses import dataclass

import numpy as np

from .network import LN2, es_latency, power_limited_rate, tcom, uplink_rate


class InfeasibleAllocationError(RuntimeError):
    """No bandwidth assignment can meet the request."""


_BRANCH_POINT = -np.exp(-1.0)
_W_TOL = 1e-12          # Lambert-W residual, relative to |z|
_HALLEY_ITERS = 40
_GRID = 32              # split grid points per refinement pass
_PASSES = 2
_REL_TOL = 1e-6         # progressive_fill stops at |B - demand| <= this * B
_MAX_OUTER = 90


def _halley(w, z, keep_below):
    """Vectorized Halley iteration on w e^w = z, kept below keep_below."""
    z = np.asarray(z, dtype=float)
    scale = np.maximum(np.abs(z), 1e-290)
    for _ in range(_HALLEY_ITERS):
        ew = np.exp(w)
        f = w * ew - z
        if np.all(np.abs(f) <= _W_TOL * scale):
            break
        wp1 = w + 1.0
        wp1 = np.where(np.abs(wp1) < 1e-300, 1e-300, wp1)
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w_new = w - step
        w = np.where(w_new >= keep_below, (w + keep_below) / 2.0, w_new)
    return w


def lambert_w(z):
    """Real Lambert W_{-1} (the solution w <= -1), scalar or array input.

    Defined on [-1/e, 0); values outside the domain raise ValueError.
    Residual |w e^w - z| is driven to 1e-12 relative to |z|.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < _BRANCH_POINT - 1e-14) or np.any(z >= 0.0):
        raise ValueError("argument outside the real domain [-1/e, 0) of W_{-1}")
    z = np.maximum(z, _BRANCH_POINT)

    p_sq = 2.0 * (np.e * z + 1.0)
    p_sq = np.maximum(p_sq, 0.0)
    p = np.sqrt(p_sq)
    near = p_sq < 0.5

    series = -1.0 - p - p_sq / 3.0 - 11.0 / 72.0 * p * p_sq
    zc = np.minimum(z, -1e-300)
    lz = np.log(-zc)
    asym = lz - np.log(np.maximum(-lz, 1e-300))
    w0 = np.where(near, series, asym)
    w0 = np.minimum(w0, -1.0 - 1e-12)
    w = _halley(w0, z, keep_below=-1.0 + 1e-16)

    exact = z == _BRANCH_POINT
    w = np.where(exact, -1.0, w)
    if scalar:
        return float(w[0])
    return w


def deadline_bandwidth(z_bits, ph, n0, tau):
    """Bandwidth each link needs to upload z_bits within tau seconds.

    Fully broadcast; returns 0 where the payload is zero and +inf where
    no finite bandwidth meets the deadline (tau <= 0, or the required
    rate reaches the power-limited ceiling p h / (N0 ln 2)). Does not
    raise: callers that must fail use solve_link_bandwidth.
    """
    z, ph, tau = np.broadcast_arrays(
        np.asarray(z_bits, dtype=float), np.asarray(ph, dtype=float),
        np.asarray(tau, dtype=float))
    out = np.full(z.shape, np.inf)
    out[z == 0.0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = n0 * z * LN2 / (tau * ph)
    ok = (z > 0.0) & (tau > 0.0) & (ph > 0.0) & (gamma < 1.0) & (gamma > 0.0)
    if np.any(ok):
        g = gamma[ok]
        wv = lambert_w(-g * np.exp(-g))
        denom = -(wv + g)
        out[ok] = z[ok] * LN2 / (tau[ok] * denom)
    return out


def bisect_link_bandwidth(z_bits, p, h, n0, tcom_target, rel_tol=1e-12,
                          max_iter=300):
    """Reference solver: invert the rate formula by pure bisection."""
    if tcom_target <= 0.0:
        raise InfeasibleAllocationError(
            f"upload deadline {tcom_target!r} s is not positive")
    need = z_bits / tcom_target
    cap = power_limited_rate(p, h, n0)
    if need >= cap:
        raise InfeasibleAllocationError(
            f"required rate {need:.6g} bit/s is not below the power-limited "
            f"ceiling {cap:.6g} bit/s")
    hi = 1.0
    while uplink_rate(hi, p, h, n0) < need:
        hi *= 2.0
        if hi > 1e30:
            raise InfeasibleAllocationError("bandwidth bracket expansion failed")
    lo = 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if uplink_rate(mid, p, h, n0) < need:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def solve_link_bandwidth(z_bits, p, h, n0, tcom_target, who="link"):
    """Closed-form deadline bandwidth for one link, verified by residual.

    Raises InfeasibleAllocationError naming the link when the deadline
    cannot be met by any bandwidth. Falls back to bisection if the
    closed form fails residual verification.
    """
    if tcom_target <= 0.0:
        raise InfeasibleAllocationError(
            f"{who}: upload deadline {tcom_target!r} s is not positive")
    if z_bits == 0.0:
        return 0.0
    need = z_bits / tcom_target
    cap = power_limited_rate(p, h, n0)
    if need >= cap:
        raise InfeasibleAllocationError(
            f"{who}: required rate {need:.6g} bit/s is not below the "
            f"power-limited ceiling {cap:.6g} bit/s")
    b = float(deadline_bandwidth(z_bits, p * h, n0, tcom_target))
    achieved = tcom(z_bits, uplink_rate(b, p, h, n0))
    if not np.isfinite(b) or abs(achieved - tcom_target) > 1e-9 * tcom_target:
        b = bisect_link_bandwidth(z_bits, p, h, n0, tcom_target)
    return b


@dataclass(frozen=True)
class ESGroup:
    """One transmitting ES: its UE links, compute times, and payloads."""

    tcmp_ue: np.ndarray
    ph_ue: np.ndarray
    ph_es: float
    z_ue: float
    z_es: float


@dataclass(frozen=True)
class AllocationProblem:
    """Budget B shared by every link of the transmitting ESs."""

    groups: tuple
    n0: float
    total_b: float
    b_min: float


@dataclass
class AllocationResult:
    b_ue: list
    b_es: np.ndarray
    latencies: np.ndarray
    achieved_o: float
    used_b: float
    work: int


@dataclass(frozen=True)
class _Stack:
    """The groups padded once to (K, M); ``real`` marks the true UEs, and
    padding slots, with zero compute time and payload, take no bandwidth."""

    problem: AllocationProblem
    real: np.ndarray
    tcmp_ue: np.ndarray
    ph_ue: np.ndarray
    ph_es: np.ndarray
    z_ue: np.ndarray
    z_es: np.ndarray
    equal_share: float          # B / L over the L payload links
    # past these finish times a link needs less than b_min, so it sits at
    # the floor: g_top for the whole UE tier, t_es_floor for the ES upload
    g_top: np.ndarray
    t_es_floor: np.ndarray


def _stack(problem):
    """Pad the groups into one _Stack; raise if nothing can be allocated."""
    groups = problem.groups
    if not groups:
        raise InfeasibleAllocationError("no transmitting ES to allocate for")
    sizes = np.array([grp.tcmp_ue.shape[0] for grp in groups])
    real = np.arange(sizes.max()) < sizes[:, None]
    tcmp_ue = np.zeros(real.shape)
    tcmp_ue[real] = np.concatenate([grp.tcmp_ue for grp in groups])
    ph_ue = np.ones(real.shape)
    ph_ue[real] = np.concatenate([grp.ph_ue for grp in groups])
    z_ue = real * np.array([grp.z_ue for grp in groups])[:, None]
    ph_es = np.array([grp.ph_es for grp in groups])
    z_es = np.array([grp.z_es for grp in groups])
    links = int(np.count_nonzero(z_ue > 0.0) + np.count_nonzero(z_es > 0.0))
    if links * problem.b_min > problem.total_b:
        raise InfeasibleAllocationError(
            f"{links} links need at least {links * problem.b_min:.6g} Hz "
            f"at the configured floor but only {problem.total_b:.6g} Hz "
            "are available")
    t_ue_floor = tcom(z_ue, uplink_rate(problem.b_min, 1.0, ph_ue, problem.n0))
    return _Stack(
        problem=problem, real=real, tcmp_ue=tcmp_ue, ph_ue=ph_ue, ph_es=ph_es,
        z_ue=z_ue, z_es=z_es,
        equal_share=problem.total_b / links if links else 0.0,
        g_top=np.max(tcmp_ue + t_ue_floor, axis=1),
        t_es_floor=tcom(z_es, uplink_rate(problem.b_min, 1.0, ph_es,
                                          problem.n0)))


def _result(stack, b_ue, b_es, work):
    """AllocationResult of padded (K, M) UE and (K,) ES bandwidths."""
    latencies = es_latency(stack.tcmp_ue, stack.ph_ue, stack.ph_es,
                           stack.z_ue, stack.z_es, b_ue, b_es,
                           stack.problem.n0)
    sizes = np.count_nonzero(stack.real, axis=1)
    return AllocationResult(
        b_ue=np.split(b_ue[stack.real], np.cumsum(sizes)[:-1]), b_es=b_es,
        latencies=latencies, achieved_o=float(np.max(latencies)),
        used_b=float(np.sum(b_ue) + np.sum(b_es)), work=work)


def _equal(stack):
    return _result(stack, stack.equal_share * (stack.z_ue > 0.0),
                   stack.equal_share * (stack.z_es > 0.0), work=1)


def equal_split(problem):
    """Every positive-payload link gets the same share B / L."""
    return _equal(_stack(problem))


def _demand_at(o_target, stack):
    """Minimal bandwidth demand when every group finishes at o_target.

    Minimizes, for each group, the sum of the UE demands at split G and
    the ES demand at o_target - G over G, by an iteratively refined grid
    (the demand is convex in the split).  A link's demand is its deadline
    bandwidth raised to the floor b_min.  The grid spans only splits at
    which the slowest UE and the ES upload are above the floor, so each
    finishes exactly on its deadline; a group with every link at the floor
    collapses the grid to one split.  Returns (total demand, b_ue, b_es).
    """
    n0, b_min = stack.problem.n0, stack.problem.b_min
    z_ue = stack.z_ue[:, None, :]
    tcmp_ue = stack.tcmp_ue[:, None, :]
    ph_ue = stack.ph_ue[:, None, :]
    floor_ue = b_min * (z_ue > 0.0)
    floor_es = b_min * (stack.z_es > 0.0)
    tcmp_max = np.max(stack.tcmp_ue, axis=1)
    lo = tcmp_max + 1e-12 * np.maximum(tcmp_max, 1e-9)
    hi = np.minimum(np.maximum(stack.g_top, lo), o_target)
    lo = np.minimum(np.maximum(lo, o_target - stack.t_es_floor), hi)
    window_lo, window_hi = lo, hi
    t = np.linspace(1e-9, 1.0 - 1e-9, _GRID)
    rows = np.arange(lo.shape[0])
    for _ in range(_PASSES):
        g = window_lo[:, None] + t[None, :] * (window_hi - window_lo)[:, None]
        b_ue = np.maximum(
            deadline_bandwidth(z_ue, ph_ue, n0, g[:, :, None] - tcmp_ue),
            floor_ue)
        b_es = np.maximum(
            deadline_bandwidth(stack.z_es[:, None], stack.ph_es[:, None], n0,
                               o_target - g),
            floor_es[:, None])
        total = b_ue.sum(axis=2) + b_es
        idx = np.argmin(np.where(np.isfinite(total), total, np.inf), axis=1)
        best_g = g[rows, idx]
        span = (window_hi - window_lo) / (_GRID - 1)
        window_lo = np.maximum(lo, best_g - span)
        window_hi = np.minimum(hi, best_g + span)
    return float(np.sum(total[rows, idx])), b_ue[rows, idx, :], b_es[rows, idx]


def progressive_fill(problem):
    """Min-max allocation exhausting B, by a root search on the latency.

    The total demand of the equal-finish structure, each link's demand
    raised to the floor b_min, is decreasing in the common latency O, so
    the optimal O* is the root of demand(O) = B.  The search brackets O*
    between the slowest compute time and the equal-split latency (whose
    demand can never exceed B) and narrows the bracket by false position
    with Illinois damping, stopping once |B - demand| <= 1e-6 B.
    Every server that has a link above the floor finishes at O*.
    """
    stack = _stack(problem)
    b = problem.total_b
    evals = len(problem.groups) * _GRID * _PASSES
    work = 1
    lo = float(np.max(stack.tcmp_ue)) * (1.0 + 1e-12) + 1e-15
    hi = _equal(stack).achieved_o
    if not np.isfinite(hi):
        raise InfeasibleAllocationError(
            "equal-split latency is infinite; some link cannot transmit")

    for _ in range(61):
        total_hi, bu_hi, bes_hi = _demand_at(hi, stack)
        work += evals
        if np.isfinite(total_hi) and total_hi <= b:
            break
        hi *= 2.0
    else:
        raise InfeasibleAllocationError("latency bracket expansion failed")

    best = (bu_hi, bes_hi, total_hi)
    f_lo = np.inf
    f_hi = total_hi - b
    for _ in range(_MAX_OUTER):
        if abs(b - best[2]) <= _REL_TOL * b:
            break
        if np.isfinite(f_lo):
            # false position (Illinois damping) once both residuals are finite
            mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not (lo < mid < hi):
                mid = 0.5 * (lo + hi)
        else:
            mid = 0.5 * (lo + hi)
        total, bu_mid, bes_mid = _demand_at(mid, stack)
        work += evals
        f_mid = total - b if np.isfinite(total) else np.inf
        if np.isfinite(total) and total <= b:
            hi = mid
            f_hi = f_mid
            f_lo *= 0.5
            best = (bu_mid, bes_mid, total)
        else:
            lo = mid
            f_lo = f_mid
            f_hi *= 0.5
    return _result(stack, best[0], best[1], work)
