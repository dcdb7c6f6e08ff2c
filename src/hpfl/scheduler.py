"""Edge-server selection for the semi-asynchronous cloud round.

Each edge server k carries an importance estimate I_k (squared norm of its
aggregated meta-gradient) and a predicted round latency O_k.  The scheduler
trades the two off with a mixing weight rho: selecting k is worth
``rho * phi * I_k`` in expected descent and costs ``(1 - rho) * O_k`` in
wall-clock terms.  The decision rule is a per-server threshold, followed by
forced inclusion of servers whose staleness budget is exhausted, followed by
a hard cap on how many uploads the cloud accepts per round.  The inputs
are the engine's (K,) arrays and a validated Scenario's knobs, unchecked.
"""

import numpy as np

__all__ = [
    "net_scores",
    "apply_cap",
    "schedule",
    "objective_value",
    "baseline_select",
]


def net_scores(importance, latency, rho, phi):
    """Per-server net benefit ``rho*phi*I - (1-rho)*O`` of accepting an
    upload, for (K,) arrays; a server passes the threshold when it is >= 0.
    At rho = 1 the latency has weight 0 and is not read, so an infinite
    price adds nothing (0 * inf would be NaN)."""
    gain = rho * phi * importance
    return gain if rho == 1.0 else gain - (1.0 - rho) * latency


def apply_cap(pass_mask, forced_mask, scores, staleness, a_max):
    """Trim a candidate set down to at most ``a_max`` servers.

    Forced servers (staleness budget exhausted) are kept ahead of ordinary
    threshold passers.  Within each class the order is: staler first (forced
    class only), then higher score, then lower index.  Returns the final
    0/1 mask and a flag telling whether anything was dropped.
    """
    cand = np.flatnonzero(pass_mask | forced_mask)
    forced = forced_mask[cand]
    # lexsort uses the last key as primary
    order = np.lexsort((cand, -scores[cand],
                        -np.where(forced, staleness[cand], 0.0), ~forced))
    pi = np.zeros(scores.shape[0], dtype=bool)
    pi[cand[order[:a_max]]] = True
    return pi, cand.size > a_max


def schedule(importance, latency, forced, rho, phi, a_max):
    """Run the full selection rule and return ``(pi, capped)``.

    Threshold decisions come first, servers in ``forced`` are added
    unconditionally, the cap ``a_max`` is then enforced with forced servers
    ranked ahead, and if nothing at all qualifies the single best-scoring
    server is selected so every round delivers at least one upload.
    ``pi`` is the boolean selection mask; ``capped`` is True when the cap
    dropped otherwise-qualified servers.
    """
    scores = net_scores(importance, latency, rho, phi)
    passes = scores >= 0.0
    if not (passes | forced).any():
        passes = np.arange(scores.shape[0]) == np.argmax(scores)
    # forced servers tie on a zero staleness key, so score and index rank them
    return apply_cap(passes, forced, scores, np.zeros(scores.shape[0]), a_max)


def objective_value(pi, importance, latency, rho, phi):
    """Scheduling objective ``-rho*phi*sum(pi*I) + (1-rho)*max(pi*O)``.

    The latency term is the slowest selected upload because the cloud step
    waits for every accepted server; at rho = 1 it is 0, as in net_scores.
    """
    gain = rho * phi * float(importance[pi].sum())
    wait = 0.0 if rho == 1.0 else (1.0 - rho) * float(latency[pi].max())
    return -gain + wait


def baseline_select(mode, k, a_max, rng):
    """Reference selection policies used for comparison runs.

    ``full`` selects every server regardless of the cap; ``random`` draws a
    uniform subset of size ``min(a_max, k)`` from ``rng``.
    """
    if mode == "full":
        return np.ones(k, dtype=bool)
    pi = np.zeros(k, dtype=bool)
    pi[rng.choice(k, size=min(a_max, k), replace=False)] = True
    return pi
