"""Min-max bandwidth allocation across the selected edge servers.

Given a budget B, every UE and ES uplink gets the bandwidth that lets the
slowest selected ES finish first: every selected ES finishes at one time
O*, and the UEs of ES k at one instant G_k, leaving O* - G_k for its own
upload.  A link demands max(deadline bandwidth, b_min), so a link at the
floor finishes early, and so does an ES whose links all sit there.

A link's deadline bandwidth has a closed form through W_{-1}, the lower
real solution of w e^w = z, found by Halley iteration to 1e-12 residual;
each pricing call of a solve starts from the W_{-1} of the last.
progressive_fill solves the min-max KKT system by safeguarded Newton
iteration from a closed-form start under each rate's tangent, and
certifies its answer; an iteration does the floor's kink bookkeeping
only when some link is at b_min or within _KINK of it, and otherwise
steps on a smooth piece of every server's demand.  equal_split gives
each of the L links B / L.  Both read one AllocationProblem of (K, M+1)
links in network's layout, each ES's own link last and every link
uploading the same z bits, and price latencies with network.es_latency.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .network import LN2, es_latency, tcom, uplink_rate


class InfeasibleAllocationError(RuntimeError):
    """No bandwidth assignment can meet the request."""


_W_TOL = 1e-12          # Lambert-W residual, relative to |z|
_HALLEY_ITERS = 40
_KEEP_BELOW = -1.0 + 1e-16  # Halley's iterates stay on the W_{-1} branch
# progressive_fill stops at stationarity _TOL with the demand in
# [(1 - _GAP) B, B]; a link within _KINK of b_min is on its floor's kink
_TOL = 1e-10
_GAP = 5e-10
_KINK = 1e-9
_SETTLE = 0.3
_MAX_ITER = 100


def _w_lower(z, w=None):
    """W_{-1} on (-1/e, 0), unchecked: Halley iteration on that branch from
    w, or from a series or asymptotic start if w is None or too far off."""
    start = w
    if w is None:
        p_sq = np.maximum(2.0 * (np.e * z + 1.0), 0.0)
        p = np.sqrt(p_sq)
        lz = np.log(-z)
        llz = np.log(-lz)
        w = np.minimum(np.where(p_sq < 0.5,
                                -1.0 - p - p_sq / 3.0 - 11.0 / 72.0 * p * p_sq,
                                lz - llz + llz / lz), -1.0 - 1e-12)
    tol = _W_TOL * np.maximum(np.abs(z), 1e-290)
    for _ in range(_HALLEY_ITERS):
        ew = np.exp(w)
        f = w * ew - z
        if (np.abs(f) <= tol).all():
            return w
        wp1 = np.minimum(w + 1.0, -1e-300)     # w <= -1 throughout
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w_new = w - f / denom
        cross = w_new >= _KEEP_BELOW
        w = (np.where(cross, (w + _KEEP_BELOW) / 2.0, w_new) if cross.any()
             else w_new)
    return w if start is None else _w_lower(z)


def deadline_bandwidth(z_bits, ph, n0, tau, memo=None):
    """Bandwidth each link needs to upload z_bits > 0 within tau seconds.

    Fully broadcast; returns +inf where no finite bandwidth meets the
    deadline (tau <= 0, or the required rate reaches the power-limited
    ceiling ph / (N0 ln 2)). Does not raise: progressive_fill reports a
    link that no bandwidth serves.  Calls pricing the same links share one
    dict ``memo``, which keeps the last W_{-1}, the next call's Halley
    start.
    """
    memo = {} if memo is None else memo
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = n0 * z_bits * LN2 / (tau * ph)
        ok = (gamma > 0.0) & (gamma < 1.0)
        every = ok.all()
        # with u the SNR, log(1 + u) / u = gamma, and the rate needs
        # b = z ln 2 / (tau (-W_{-1}(-gamma e^-gamma) - gamma))
        g = -gamma if every else -np.where(ok, gamma, 0.5)
        w = memo["w"] = _w_lower(g * np.exp(g), memo.get("w"))
        b = -(z_bits * LN2) / (tau * (w - g))
    return b if every else np.where(ok, b, np.inf)


# one row of an AllocationProblem: an ES's UE links, compute times, payloads
ESGroup = namedtuple("ESGroup", "tcmp_ue ph_ue ph_es z_ue z_es")


@dataclass(frozen=True)
class AllocationProblem:
    """Budget B shared by (K, M+1) links, each ES's own link last:
    ``tcmp_ue`` (K, M) holds the UEs' compute times and ``ph`` (K, M+1)
    power times gain; every link uploads ``z`` > 0 bits."""

    tcmp_ue: np.ndarray
    ph: np.ndarray
    z: float
    n0: float
    total_b: float
    b_min: float

    @property
    def groups(self):
        """The problem's ESGroups, for readers that walk it group by group."""
        return tuple(ESGroup(t, ph[:-1], ph[-1], self.z, self.z)
                     for t, ph in zip(self.tcmp_ue, self.ph))


@dataclass
class AllocationResult:
    """An allocation and its certificate: the largest relative stationarity
    residual (nan for an equal split) and the unspent budget, in Hz."""

    b_ue: np.ndarray
    b_es: np.ndarray
    latencies: np.ndarray
    achieved_o: float
    used_b: float
    work: int
    stationarity_residual: float
    budget_residual: float


def _equal_share(problem):
    """B / L over the problem's L links; raise if infeasible."""
    if not problem.ph.shape[0]:
        raise InfeasibleAllocationError("no transmitting ES to allocate for")
    links = problem.ph.size
    equal_share = problem.total_b / links
    if problem.b_min > equal_share:
        raise InfeasibleAllocationError(
            f"{links} links need at least {links * problem.b_min:.6g} Hz "
            f"at the floor b_min = {problem.b_min:.6g} Hz but only "
            f"{problem.total_b:.6g} Hz are available")
    return equal_share


def _result(problem, b, latencies=None, work=1, stationarity=np.nan):
    """AllocationResult of (K, M+1) link bandwidths; the latencies are
    priced with es_latency unless given."""
    b_ue, b_es = b[:, :-1], b[:, -1].copy()
    if latencies is None:
        latencies = es_latency(problem.tcmp_ue, tcom(problem.z, uplink_rate(
            b, problem.ph, problem.n0)))
    used_b = float(b_ue.sum() + b_es.sum())
    return AllocationResult(
        b_ue=b_ue, b_es=b_es, latencies=latencies,
        achieved_o=float(latencies.max()), used_b=used_b, work=work,
        stationarity_residual=stationarity,
        budget_residual=problem.total_b - used_b)


def equal_split(problem):
    """Every link gets the same share B / L."""
    return _result(problem, np.full(problem.ph.shape, _equal_share(problem)))


def _rate_slope(problem, b):
    """u / (1 + u) and r'(b) of each link at bandwidth b, with u = s / b the
    SNR, s = p h / N0 and r(b) = b log2(1 + u) its rate."""
    v = 1.0 / (1.0 + problem.n0 * b / problem.ph)
    return v, (np.log1p(problem.ph / (problem.n0 * b)) - v) / LN2


def _slopes(problem, b, tau, live):
    """b'(tau) and b''(tau) of the live links (every link if live is None),
    0 elsewhere.  With u = s / b and s = p h / N0, r(b) = b log2(1 + u) has
    r' = log2(1 + u) - u / ((1 + u) ln 2) and r'' = -u^2 / (b (1 + u)^2
    ln 2), and r(b(tau)) = z / tau gives b' = -z / (tau^2 r') and b'' = (2 z
    / tau^3 - r'' b'^2) / r'."""
    z = problem.z
    if live is not None:
        z, b, tau = z * live, np.where(live, b, 1.0), np.where(live, tau, 1.0)
    v, r1 = _rate_slope(problem, b)
    d1 = -z / (tau * tau * r1)
    return d1, (2.0 * z / tau ** 3 + v * v / (b * LN2) * d1 * d1) / r1


def _model_split(alpha_sum, beta, t_k, total):
    """O and the G_k at which links needing alpha + beta / tau spend B, each
    UE link of server k given G_k - t_k: server k splits O - t_k as sqrt(sum
    beta_ue) : sqrt(beta_es), and O solves sum_k need_k / (O - t_k) = B -
    sum alpha, need_k = (sqrt(sum beta_ue) + sqrt(beta_es))^2, to first
    order in the spread of the t_k about their need-weighted mean."""
    root_ue = np.sqrt(beta[:, :-1].sum(axis=1))
    root_es = np.sqrt(beta[:, -1])
    need = (root_ue + root_es) ** 2
    need_sum = need.sum()
    o = float((need * t_k).sum() / need_sum + need_sum / (total - alpha_sum))
    return o, t_k + (o - t_k) * (root_ue / (root_ue + root_es))


def _floor_masks(raw, floor, above, ue):
    """The floor's bookkeeping in an iteration where some link is at or near
    b_min: the demand max(raw, floor), the links on the floor's kink
    (within _KINK of it) and the masks of the links that count left of G_k,
    right of it and at all; the three masks are one object off the kink."""
    b = np.maximum(raw, floor)
    kink = ~above & (raw >= floor * (1.0 - _KINK))
    if not kink.any():
        return b, kink, above, above, above
    return b, kink, above | (kink & ue), above | (kink & ~ue), above | kink


def progressive_fill(problem):
    """Min-max allocation exhausting B: a safeguarded Newton solve of the KKT
    system in the servers' UE-tier finish times G_k and the latency O, with
    sum_i b_i'(G_k - t_i) = b_es'(O - G_k) per server and sum_k D_k = B, a
    link demanding its deadline bandwidth raised to b_min.  Each iteration
    prices all links in one deadline_bandwidth call over (K, M+1); only an
    iteration with a link within _KINK of b_min or below it runs the
    floor's bookkeeping (_floor_masks and the kink pieces), the others
    sit on a smooth piece of every D_k.  The start is the min-max in
    closed form with each link needing c / tau, c its bandwidth-time at the
    equal share, solved again under each rate's tangent at its bandwidth
    there unless some link gets tau <= 0 or the second solution fails.
    Returns at a relative stationarity residual <= 1e-10 with the demand
    within 5e-10 B below B, reporting both; every server with a link above
    the floor finishes at O.  After _MAX_ITER iterations it returns the
    latest iterate within B (the equal split if there is none) and its
    residuals."""
    equal_share = _equal_share(problem)
    n0, total, b_min = problem.n0, problem.total_b, problem.b_min
    z, ph, t_ue = problem.z, problem.ph, problem.tcmp_ue
    # a floor that fills the budget leaves b_min on every link, and no choice
    if equal_share <= b_min * (1.0 + 1e-9):
        return _result(problem, np.full(ph.shape, equal_share),
                       stationarity=0.0)
    ue = np.arange(ph.shape[1]) < ph.shape[1] - 1
    sign = np.where(ue, 1.0, -1.0)
    # each link's upload time at b_min (given longer, it sits at the floor),
    # at B (given less, it needs more than B) and at the equal share
    t_floor, t_budget, t_eq = tcom(z, uplink_rate(np.array(
        [b_min, total, equal_share])[:, None, None], ph, n0))
    kink_ue = t_ue + t_floor[:, :-1]
    g_top = kink_ue.max(axis=1)
    g_low = (t_ue + t_budget[:, :-1]).max(axis=1)
    tf_es, tb_es = t_floor[:, -1], t_budget[:, -1]
    # below o_lo some server needs more than B
    o_lo = float((g_low + tb_es).max())
    if not np.isfinite(o_lo):
        raise InfeasibleAllocationError("some link cannot transmit")

    def window(o_at, top=g_top, piece=None):
        """The G_k at which no link needs more than B, below top, cut to a
        kink piece."""
        lo, hi = np.maximum(g_low, o_at - tf_es), np.minimum(top, o_at - tb_es)
        if piece is not None:   # (UE-side bounds, ES link at its floor)
            lo = np.maximum(lo, piece[0])
            hi = np.minimum(hi, np.where(piece[2], np.minimum(
                piece[1], o_at - tf_es), piece[1]))
        return lo, hi

    # start where each link needs c / tau, c its bandwidth-time at the equal
    # share; then linearise each rate at that start's bandwidth b0, so that
    # r(b) = z / tau gives b = alpha + beta / tau with beta = z / r'(b0) and
    # alpha = b0 - r(b0) / r'(b0) = -b0 u / ((1 + u) r'(b0) ln 2), and solve
    # again.  The c / tau start stays where a link has tau <= 0 (no b0), a
    # value is not finite or the step's O is not above o_lo
    c, t_k = equal_share * t_eq, t_ue.max(axis=1)
    o, g = _model_split(0.0, c, t_k, total)
    tau = np.concatenate([g[:, None] - t_ue, (o - g)[:, None]], axis=1)
    if (tau > 0.0).all():
        with np.errstate(all="ignore"):
            b0 = c / tau
            v, r1 = _rate_slope(problem, b0)
            stepped = _model_split((-b0 * v / (LN2 * r1)).sum(), z / r1,
                                   t_k, total)
        if np.isfinite(stepped[1]).all() and stepped[0] > o_lo:
            o, g = stepped
    if not o > o_lo:
        o = 0.5 * (o_lo + float(es_latency(t_ue, t_eq).max()))
    # with every link above its floor's kink, D_k is smooth in G_k up to
    # the first kink of a UE link, and every mask is all true
    no_kink = np.zeros(ph.shape, dtype=bool)
    smooth_top, floor_kink = kink_ue.min(axis=1), b_min * (1.0 + _KINK)
    target = total * (1.0 - 0.5 * _GAP)
    kept, memo = (np.full(ph.shape, equal_share), None, None, np.nan), {}
    for it in range(1, _MAX_ITER + 1):
        lo, hi = window(o)
        pinned = lo >= hi               # the floors fix the split
        movable = ~pinned
        g = np.minimum(np.maximum(g, lo), hi)     # hi where lo >= hi
        tau = np.concatenate([g[:, None] - t_ue, (o - g)[:, None]], axis=1)
        raw = deadline_bandwidth(z, ph, n0, tau, memo)
        # a link at the floor has zero derivative, so D_k is convex and
        # piecewise smooth in G_k; a link on its floor's kink counts on the
        # side where it is above the floor: smaller G_k for a UE link
        above = raw > floor_kink
        smooth = np.count_nonzero(above) == above.size
        if smooth:
            b, kink, live = raw, no_kink, None
            on_l = on_r = above
        else:
            b, kink, on_l, on_r, live = _floor_masks(raw, b_min, above, ue)
        demand = float(b.sum())
        d1, d2 = _slopes(problem, raw, tau, live)
        signed = d1 * sign
        if on_r is on_l:    # then d1 and d2 vanish off on_l already
            f_l = f_r = signed.sum(axis=1)
        else:
            f_l, f_r = (signed * on_l).sum(axis=1), (signed * on_r).sum(axis=1)
        gap = np.where(pinned, 0.0, np.maximum(np.maximum(f_l, -f_r), 0.0))
        stationarity = float((gap / np.maximum(
            np.abs(d1).sum(axis=1), 1e-300)).max())
        if demand <= total:
            kept = (b, raw, tau, stationarity)
            if demand >= total * (1.0 - _GAP) and stationarity <= _TOL:
                break
        # O is past the root if its demand is within the target, short of it
        # if even the least demand that convexity allows exceeds the target
        decided = demand <= target
        if not decided and demand + (movable * np.minimum(np.minimum(
                f_r * (hi - g), f_l * (lo - g)), 0.0)).sum() > target:
            o_lo, decided = max(o_lo, o), True

        # a free split steps on the side of G_k its residual points to
        left = movable & (f_l > 0.0)
        free = left | (movable & (f_r < 0.0))
        if on_r is on_l:
            on, f, d1_l = on_l, f_l, d1
        else:
            on, f, d1_l = (np.where(left[:, None], on_l, on_r),
                           np.where(left, f_l, f_r), d1 * on_l)
            d1, d2 = d1 * on, d2 * on
        a = np.where(free, d2.sum(axis=1), 1.0)
        d1_es, d2_es = d1[:, -1], d2[:, -1]
        top, piece = (smooth_top, None) if smooth else (g_top, (
            np.where(~on[:, :-1], kink_ue, -np.inf).max(axis=1),
            np.where(on[:, :-1], kink_ue, np.inf).min(axis=1), ~on[:, -1]))
        # O's Newton step, on 1 / demand, aims the demand the splits reach at
        # this O at the target; by the envelope theorem the slope is
        # sum_k b_es'(O - G_k), or a pinned split's own where it moves with O
        lo, hi = window(o, top, piece)
        dg = np.where(free, np.minimum(np.maximum(g - f / a, lo), hi) - g, 0.0)
        settled = demand + (f * dg + 0.5 * a * dg * dg).sum()
        residual = (settled - target) * settled / target
        follow = ~pinned & kink[:, -1]
        slope = np.where(free, d1_es, follow * f_l + d1_l[:, -1]).sum()
        o_new = o - residual / slope if slope < 0.0 else np.nan
        if not decided and stationarity > _SETTLE:
            o_new = o       # settle the splits until the residual's sign holds
        elif not o_lo < o_new:
            # bisect on the residual's sign; O sitting on o_lo must rise
            o_new = (0.5 * (o_lo + o) if residual <= 0.0
                     else 2.0 * o - o_lo if o > o_lo else 2.0 * o)
        lo, hi = window(o_new, top, piece)
        g = np.where(free, np.minimum(np.maximum(
            g - (f - d2_es * (o_new - o)) / a, lo), hi), g + follow * (o_new - o))
        o = o_new
    b, raw, tau, stationarity = kept
    # a link at the floor uploads in t_floor
    latencies = None if tau is None else es_latency(
        t_ue, np.where(b > raw, t_floor, tau))
    return _result(problem, b, latencies, 1 + it * ph.shape[0], stationarity)
