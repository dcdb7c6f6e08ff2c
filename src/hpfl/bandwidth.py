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

Lambert W is evaluated in-package by Halley iteration to 1e-12 residual,
with a monotone bisection fallback when the closed form fails residual
verification.
"""

from dataclasses import dataclass

import numpy as np

from .network import LN2, uplink_rate, tcom, power_limited_rate


class InfeasibleAllocationError(RuntimeError):
    """No bandwidth assignment can meet the request."""


_BRANCH_POINT = -np.exp(-1.0)


def _halley(w, z, keep_below, max_iter=40, tol=1e-12):
    """Vectorized Halley iteration on w e^w = z, kept below keep_below."""
    z = np.asarray(z, dtype=float)
    scale = np.maximum(np.abs(z), 1e-290)
    for _ in range(max_iter):
        ew = np.exp(w)
        f = w * ew - z
        if np.all(np.abs(f) <= tol * scale):
            break
        wp1 = w + 1.0
        wp1 = np.where(np.abs(wp1) < 1e-300, 1e-300, wp1)
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w_new = w - step
        w = np.where(w_new >= keep_below, (w + keep_below) / 2.0, w_new)
    return w


def lambert_w(z, tol=1e-12):
    """Real Lambert W_{-1} (the solution w <= -1), scalar or array input.

    Defined on [-1/e, 0); values outside the domain raise ValueError.
    Residual |w e^w - z| is driven to tol relative to |z|.
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
    w = _halley(w0, z, keep_below=-1.0 + 1e-16, tol=tol)

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

    @property
    def n_links(self):
        links = self.tcmp_ue.shape[0] if self.z_ue > 0.0 else 0
        return links + (1 if self.z_es > 0.0 else 0)


@dataclass(frozen=True)
class AllocationProblem:
    """Budget B shared by every link of the transmitting ESs."""

    groups: tuple
    n0: float
    total_b: float
    b_min: float = 1e3


@dataclass
class AllocationResult:
    b_ue: list
    b_es: np.ndarray
    latencies: np.ndarray
    achieved_o: float
    used_b: float
    work: int


def _result_from_allocation(problem, b_ue, b_es, work):
    latencies = []
    for grp, bu, be in zip(problem.groups, b_ue, b_es):
        t_ue = grp.tcmp_ue + tcom(grp.z_ue, uplink_rate(bu, 1.0, grp.ph_ue,
                                                        problem.n0))
        t_es = tcom(grp.z_es, uplink_rate(be, 1.0, grp.ph_es, problem.n0))
        latencies.append(float(np.max(t_ue)) + t_es)
    used = float(sum(float(np.sum(bu)) for bu in b_ue) + float(np.sum(b_es)))
    return AllocationResult(
        b_ue=list(b_ue), b_es=np.asarray(b_es, dtype=float),
        latencies=np.asarray(latencies),
        achieved_o=float(np.max(latencies)), used_b=used, work=work)


def _check_floor_feasible(problem):
    links = sum(grp.n_links for grp in problem.groups)
    if links == 0:
        return
    if links * problem.b_min > problem.total_b:
        raise InfeasibleAllocationError(
            f"{links} links need at least {links * problem.b_min:.6g} Hz "
            f"at the configured floor but only {problem.total_b:.6g} Hz "
            "are available")


def equal_split(problem):
    """Every positive-payload link gets the same share B / L."""
    _check_floor_feasible(problem)
    links = sum(grp.n_links for grp in problem.groups)
    share = problem.total_b / links if links else 0.0
    b_ue = []
    b_es = []
    for grp in problem.groups:
        n = grp.tcmp_ue.shape[0]
        b_ue.append(np.full(n, share) if grp.z_ue > 0.0 else np.zeros(n))
        b_es.append(share if grp.z_es > 0.0 else 0.0)
    return _result_from_allocation(problem, b_ue, np.asarray(b_es), work=1)


def _pad_problem(problem):
    k = len(problem.groups)
    m = max(grp.tcmp_ue.shape[0] for grp in problem.groups)
    tcmp_pad = np.zeros((k, m))
    ph_pad = np.ones((k, m))
    z_ue = np.zeros((k, 1, m))
    for i, grp in enumerate(problem.groups):
        n = grp.tcmp_ue.shape[0]
        tcmp_pad[i, :n] = grp.tcmp_ue
        ph_pad[i, :n] = grp.ph_ue
        z_ue[i, 0, :n] = grp.z_ue
    ph_es = np.array([grp.ph_es for grp in problem.groups])
    z_es = np.array([grp.z_es for grp in problem.groups])
    tcmp_max = np.array([float(np.max(grp.tcmp_ue)) for grp in problem.groups])
    # past these finish times a link needs less than b_min, so it sits at
    # the floor: g_top for the whole UE tier, t_es_floor for the ES upload
    b_min = problem.b_min
    g_top = np.max(tcmp_pad + _floor_time(z_ue[:, 0, :], ph_pad, problem),
                   axis=1)
    t_es_floor = _floor_time(z_es, ph_es, problem)
    return (tcmp_pad, ph_pad, z_ue, ph_es, z_es, tcmp_max, g_top, t_es_floor,
            b_min * (z_ue > 0.0), b_min * (z_es > 0.0))


def _floor_time(z, ph, problem):
    """Upload time of each link at the floor bandwidth b_min.

    A floor so small that its rate overflows to infinity never binds.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rate = uplink_rate(problem.b_min, 1.0, ph, problem.n0)
    return tcom(z, np.where(np.isfinite(rate), rate, 0.0))


def _demand_at(o_target, pads, n0, grid=32, passes=2):
    """Per-group minimal bandwidth demand when every group finishes at o_target.

    Minimizes, for each group, the sum of the UE demands at split G and
    the ES demand at o_target - G over G, by an iteratively refined grid
    (the demand is convex in the split).  A link's demand is its deadline
    bandwidth raised to the floor b_min.  The grid spans only splits at
    which the slowest UE and the ES upload are above the floor, so each
    finishes exactly on its deadline; a group with every link at the floor
    collapses the grid to one split.  Returns (demand per group, split per
    group, b_ue matrix, b_es, evaluation count).
    """
    (tcmp_pad, ph_pad, z_ue, ph_es, z_es, tcmp_max, g_top, t_es_floor,
     floor_ue, floor_es) = pads
    k, m = tcmp_pad.shape
    lo = tcmp_max + 1e-12 * np.maximum(tcmp_max, 1e-9)
    hi = np.minimum(np.maximum(g_top, lo), o_target)
    lo = np.minimum(np.maximum(lo, o_target - t_es_floor), hi)
    window_lo = lo.copy()
    window_hi = hi.copy()
    evals = 0
    t = np.linspace(1e-9, 1.0 - 1e-9, grid)
    best_g = None
    for _ in range(passes):
        g = window_lo[:, None] + t[None, :] * (window_hi - window_lo)[:, None]
        tau_ue = g[:, :, None] - tcmp_pad[:, None, :]
        b_ue = np.maximum(
            deadline_bandwidth(z_ue, ph_pad[:, None, :], n0, tau_ue), floor_ue)
        demand_ue = b_ue.sum(axis=2)
        tau_es = o_target - g
        b_es = np.maximum(
            deadline_bandwidth(z_es[:, None], ph_es[:, None], n0, tau_es),
            floor_es[:, None])
        total = demand_ue + b_es
        idx = np.argmin(np.where(np.isfinite(total), total, np.inf), axis=1)
        rows = np.arange(k)
        best_g = g[rows, idx]
        best_total = total[rows, idx]
        best_b_ue = b_ue[rows, idx, :]
        best_b_es = b_es[rows, idx]
        evals += k * grid
        span = (window_hi - window_lo) / (grid - 1)
        window_lo = np.maximum(lo, best_g - span)
        window_hi = np.minimum(hi, best_g + span)
    return best_total, best_g, best_b_ue, best_b_es, evals


def progressive_fill(problem, rel_tol=1e-6, max_outer=90):
    """Min-max allocation exhausting B, by a root search on the latency.

    The total demand of the equal-finish structure, each link's demand
    raised to the floor b_min, is decreasing in the common latency O, so
    the optimal O* is the root of demand(O) = B.  The search brackets O*
    between the slowest compute time and the equal-split latency (whose
    demand can never exceed B) and narrows the bracket by false position
    with Illinois damping, stopping once |B - demand| <= rel_tol * B.
    Every server that has a link above the floor finishes at O*.
    """
    _check_floor_feasible(problem)
    if not problem.groups:
        raise InfeasibleAllocationError("no transmitting ES to allocate for")
    pads = _pad_problem(problem)
    eq = equal_split(problem)
    work = eq.work
    b = problem.total_b

    lo = float(np.max(pads[5])) * (1.0 + 1e-12) + 1e-15
    hi = eq.achieved_o
    if not np.isfinite(hi):
        raise InfeasibleAllocationError(
            "equal-split latency is infinite; some link cannot transmit")

    demand_hi, g_hi, bu_hi, bes_hi, ev = _demand_at(hi, pads, problem.n0)
    work += ev
    total_hi = float(np.sum(demand_hi))
    guard = 0
    while not np.isfinite(total_hi) or total_hi > b:
        hi *= 2.0
        demand_hi, g_hi, bu_hi, bes_hi, ev = _demand_at(hi, pads, problem.n0)
        work += ev
        total_hi = float(np.sum(demand_hi))
        guard += 1
        if guard > 60:
            raise InfeasibleAllocationError("latency bracket expansion failed")

    best = (hi, g_hi, bu_hi, bes_hi, total_hi)
    f_lo = np.inf
    f_hi = total_hi - b
    for _ in range(max_outer):
        if abs(b - best[4]) <= rel_tol * b:
            break
        if np.isfinite(f_lo):
            # false position (Illinois damping) once both residuals are finite
            mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not (lo < mid < hi):
                mid = 0.5 * (lo + hi)
        else:
            mid = 0.5 * (lo + hi)
        demand, g_mid, bu_mid, bes_mid, ev = _demand_at(mid, pads, problem.n0)
        work += ev
        total = float(np.sum(demand))
        f_mid = total - b if np.isfinite(total) else np.inf
        if np.isfinite(total) and total <= b:
            hi = mid
            f_hi = f_mid
            f_lo *= 0.5
            best = (mid, g_mid, bu_mid, bes_mid, total)
        else:
            lo = mid
            f_lo = f_mid
            f_hi *= 0.5

    o_star, g_star, bu_mat, bes_vec, total = best
    b_ue = []
    for i, grp in enumerate(problem.groups):
        n = grp.tcmp_ue.shape[0]
        b_ue.append(np.asarray(bu_mat[i, :n], dtype=float))
    return _result_from_allocation(problem, b_ue, bes_vec, work)
