"""Output checks the benchmark applies to every workload execution.

An execution fails when it raises, when any reported float is not
finite, or when its records break an engine invariant.  Same-seed
executions must also write byte-identical ``rounds.csv`` text; the
caller compares that across executions.
"""

import math

import numpy as np

RECORD_FLOATS = ("loss", "acc", "latency", "importance", "bound_rhs",
                 "objective")
AUDIT_FLOATS = ("f_t", "f_next", "descent", "bound")
BUDGET_SLACK = 1e-9
FLOOR_SLACK = 1e-9


def record_problems(records, scenario, audit_rows=None):
    """Human-readable list of every violated condition; empty when sound."""
    problems = []
    if len(records) != scenario.rounds:
        problems.append("%d records for %d rounds" % (len(records), scenario.rounds))
    for rec in records:
        where = "round %d" % rec.round
        for name in RECORD_FLOATS:
            if not math.isfinite(getattr(rec, name)):
                problems.append("%s: %s is not finite" % (where, name))
        if not 1 <= rec.a_eff <= scenario.a_max:
            problems.append("%s: a_eff %d outside [1, %d]"
                            % (where, rec.a_eff, scenario.a_max))
        stale = rec.staleness_used + rec.staleness_after
        if stale and max(stale) > scenario.s_max:
            problems.append("%s: staleness %d over s_max %d"
                            % (where, max(stale), scenario.s_max))
        if rec.versions and max(rec.versions) > rec.round:
            problems.append("%s: delivered version %d is from the future"
                            % (where, max(rec.versions)))
    return problems + audit_problems(audit_rows or ())


def audit_problems(rows):
    """Non-finite values among audit_bound's rows."""
    return ["audit round %d: %s is not finite" % (row["round"], name)
            for row in rows for name in AUDIT_FLOATS
            if not math.isfinite(row[name])]


def _payload_links(problem, result):
    """Allocated bandwidth of every link that carries a payload."""
    links = []
    for grp, b_ue, b_es in zip(problem.groups, result.b_ue, result.b_es):
        if grp.z_ue > 0.0:
            links.append(np.asarray(b_ue, dtype=float))
        if grp.z_es > 0.0:
            links.append(np.atleast_1d(float(b_es)))
    return np.concatenate(links) if links else np.zeros(0)


def allocation_quality(problem, result):
    """Quality of one allocator call, from its input and its output.

    finish_spread -- max/min edge-server latency minus 1 (0 is min-max)
    floor_bound   -- some payload link sits at the floor b_min
    over_budget   -- used bandwidth exceeds total_b * (1 + 1e-9)
    """
    lat = np.asarray(result.latencies, dtype=float)
    links = _payload_links(problem, result)
    return {
        "finish_spread": float(lat.max() / lat.min() - 1.0) if lat.size else 0.0,
        "floor_bound": bool(links.size and
                            links.min() <= problem.b_min * (1.0 + FLOOR_SLACK)),
        "over_budget": bool(result.used_b > problem.total_b * (1.0 + BUDGET_SLACK)),
    }
