"""Outside-in span tracer for the hpfl benchmark.

The tracer wraps public hpfl callables at the place where their callers
look them up (module globals, class attributes), so the program is
measured without editing it.  Each call becomes a span: name, start,
end and the index of the enclosing span.  Spans stay in memory until
the benchmark summarizes or writes them.

A span's self time is its duration minus the durations of its direct
children.  Every span also carries a phase, inherited from the nearest
enclosing phase root (``prepare``, ``run_round`` or ``audit_bound``), so
meta calls made by the audit never count as round time.
"""

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

PHASE_ROOTS = {
    "experiment.prepare": "setup",
    "hierarchy.RoundEngine.run_round": "round",
    "experiment.audit_bound": "audit",
}
ALLOCATORS = ("bandwidth.progressive_fill", "bandwidth.equal_split")


def targets():
    """(owner, attribute) pairs to trace.

    Each attribute is replaced on the owner that the calling code reads it
    from.  RoundEngine.__init__ binds the meta functions, so they must be
    patched before an engine is built.
    """
    from hpfl import bandwidth, experiment, hierarchy, meta, tasks
    return (
        [(hierarchy, name) for name in ("progressive_fill", "equal_split",
                                        "sample_channels", "schedule",
                                        "global_update")]
        + [(bandwidth, "deadline_bandwidth")]
        + [(meta, name) for name in ("meta_grad", "meta_loss", "adapt",
                                     "plain_grad", "plain_loss")]
        + [(cls, name) for cls in (tasks.LogisticModel, tasks.MLPModel,
                                   tasks.QuadraticModel)
           for name in ("loss", "grad", "hvp", "predict")]
        + [(experiment, name) for name in ("prepare", "estimate_constants",
                                           "build_classification_federation",
                                           "build_quadratic_federation",
                                           "sample_topology", "audit_bound")]
        + [(hierarchy.RoundEngine, "run_round")]
    )


@contextmanager
def patched(pairs, wrap):
    """Set each owner.attribute to wrap(attribute, original); restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in pairs]
    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, wrap(attr, fn))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def span_name(fn):
    """``<hpfl module>.<qualified name>`` of the function being wrapped."""
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__qualname__)


class Tracer:
    """Span recorder; ``installed()`` patches every target while active."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.allocations = []   # (span index, AllocationProblem, AllocationResult)
        self._stack = []

    def wrap(self, fn):
        name = span_name(fn)
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        allocations = self.allocations
        keep_allocation = name in ALLOCATORS
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep_allocation:
                allocations.append((idx, args[0], out))
            return out

        return traced

    def installed(self):
        """Context in which every target records spans into this tracer."""
        return patched(targets(), lambda attr, fn: self.wrap(fn))

    def self_times(self):
        """(duration ns, self ns, phase) arrays, one entry per span."""
        dur = (np.asarray(self.ends, dtype=np.int64)
               - np.asarray(self.starts, dtype=np.int64))
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        phases = []
        for name, parent in zip(self.names, self.parents):
            phase = PHASE_ROOTS.get(name)
            if phase is None:
                phase = phases[parent] if parent >= 0 else "other"
            phases.append(phase)
        return dur, dur - child, phases

    def write(self, path):
        """Spans as CSV: index, name, start and end in ns, parent index."""
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents)):
                fh.write("%d,%s,%d,%d,%d\n" % ((i,) + row))


def summarize(tracer, scale=1.0):
    """Additive totals of one traced execution, times multiplied by scale.

    Returns a Counter keyed by ("ns", phase, span name) for self time and
    by ("calls", phase, span name) for call counts, and the allocator calls
    as (span name, duration ns, problem, result) tuples.
    """
    dur, self_ns, phases = tracer.self_times()
    dur = dur * scale
    totals = Counter()
    for name, phase, s in zip(tracer.names, phases, (self_ns * scale).tolist()):
        totals["ns", phase, name] += s
        totals["calls", phase, name] += 1
    for idx, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        if (name == "bandwidth.deadline_bandwidth" and parent >= 0
                and tracer.names[parent] == "bandwidth.progressive_fill"):
            totals["deadline_calls_in_solves"] += 1
        elif name == "hierarchy.RoundEngine.run_round":
            totals["round_span_ns"] += float(dur[idx])
    allocations = [(tracer.names[idx], float(dur[idx]), problem, result)
                   for idx, problem, result in tracer.allocations]
    return totals, allocations
