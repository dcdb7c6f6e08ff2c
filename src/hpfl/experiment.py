"""Experiment orchestration: build a federation from a scenario, run it,
audit the per-round descent bound, sweep parameters, and emit CSV/JSON.

Outputs are deterministic given (config, seed): floats are written with
repr so two identical runs produce byte-identical files.  Despite its
name, the runtime_us column is not a time: it counts the allocator's
server-demand evaluations in the round plus one per edge server.
"""

import dataclasses
import json
import os
import platform

import numpy as np

from . import __version__, meta
from .constants import EstimationError, estimate_constants
from .hierarchy import RoundEngine
from .network import sample_topology
from .scenario import ConfigError, Scenario
from .tasks import (LogisticModel, MLPModel, QuadraticModel,
                    build_classification_federation,
                    build_quadratic_federation)

__all__ = [
    "prepare",
    "run_experiment",
    "rounds_csv_text",
    "write_outputs",
    "audit_bound",
    "run_audit",
    "parse_sweep_values",
    "run_sweep",
]

CSV_HEADER = "round,loss,acc,latency,importance,A_eff,runtime_us,bound_rhs"
AUDIT_HEADER = "round,f_t,f_next,descent,bound,holds"
SWEEP_HEADER = "value,final_loss,mean_latency,mean_importance,mean_a_eff"

MAX_SWEEP_VALUES = 1000
_TASK_STREAM = 101
_TOPOLOGY_STREAM = 131
_INIT_STREAM = 151


def _fmt(x):
    return repr(float(x))


def _stream(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def prepare(scenario, audit=False):
    """Build the run's RoundEngine before round 0: model, data, path-loss
    gains, initial point and estimated constants.

    Only the seed and the task/topology fields shape what is built, so
    paired runs (different mode or selection policy, same seed) share
    identical federations.  The step size is the scenario's beta, or
    1/meta_lip for an audit.
    """
    scn = scenario
    task_rng = _stream(scn.seed, _TASK_STREAM)
    if scn.family == "classification":
        if scn.model == "logistic":
            model = LogisticModel(scn.dim, scn.n_classes, l2=scn.l2)
        else:
            model = MLPModel(scn.dim, scn.hidden, scn.n_classes, l2=scn.l2)
        federation = build_classification_federation(
            task_rng, scn.k, scn.n_k, scn.labels_per_ue, scn.n_classes,
            scn.dim, scn.n_train, scn.n_eval, scn.separation, scn.noise)
    else:
        model = QuadraticModel(scn.dim)
        federation = build_quadratic_federation(
            task_rng, scn.k, scn.n_k, scn.dim, scn.eig_lo, scn.eig_hi,
            es_spread=scn.center_spread, ue_spread=scn.ue_spread)
    gain = sample_topology(
        _stream(scn.seed, _TOPOLOGY_STREAM), scn.k, scn.n_k,
        d_ue_range=(scn.d_ue_lo, scn.d_ue_hi),
        d_es_range=(scn.d_es_lo, scn.d_es_hi),
        o_ue_db=scn.o_ue_db, o_es_db=scn.o_es_db)
    w0 = model.init_params(_stream(scn.seed, _INIT_STREAM), scale=scn.init_scale)
    try:
        constants = estimate_constants(
            model, federation.train, scn.alpha, probe_count=scn.probe_count,
            rng_seed=scn.seed, center=w0)
    except EstimationError:     # the probe ball's radius is fixed
        raise ConfigError("init_scale: %r puts w0 so far out that every "
                          "probe rounds to it" % (scn.init_scale,)) from None
    beta = 1.0 / constants.meta_lip if audit else scn.beta
    return RoundEngine(scn, model, federation, gain, w0, constants, beta)


def _run(scenario, audit):
    """The one run path: prepare the engine, run every round, return it."""
    engine = prepare(scenario, audit)
    for _ in range(scenario.rounds):
        engine.run_round()
    return engine


def run_experiment(scenario):
    """Run the configured number of rounds and return the RoundEngine,
    whose ``records`` hold one RoundRecord per round."""
    return _run(scenario, audit=False)


def _csv_text(header, rows):
    """CSV text: the header line, then one line per row of cell strings."""
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _write(out_dir, name, text):
    """Write text to out_dir/name, creating out_dir if needed."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def rounds_csv_text(records):
    """Canonical CSV text for a list of round records."""
    return _csv_text(CSV_HEADER, [
        [str(r.round), _fmt(r.loss), _fmt(r.acc), _fmt(r.latency),
         _fmt(r.importance), str(r.a_eff), str(r.runtime_us),
         _fmt(r.bound_rhs)] for r in records])


def manifest_dict(engine, extra=None):
    scn = engine.scenario
    out = {
        "config": scn.to_dict(),
        "config_hash": scn.config_hash(),
        "seed": scn.seed,
        "rounds": len(engine.records),
        "beta_effective": engine.beta,
        "constants": engine.constants.to_dict(),
        "phi": engine.phi,
        "nu": engine.nu,
        "phi_sched": engine.phi_sched,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if extra:
        out.update(extra)
    return out


def write_outputs(engine, out_dir, extra_manifest=None):
    """Write a finished run's rounds.csv and manifest.json into out_dir."""
    _write(out_dir, "rounds.csv", rounds_csv_text(engine.records))
    _write(out_dir, "manifest.json", json.dumps(manifest_dict(
        engine, extra_manifest), indent=2, sort_keys=True) + "\n")
    return out_dir


def _grad_norms_sq(engine, versions, grad):
    """{v: squared norm of the global gradient ``grad`` at history[v]}.

    The servers that the run refreshed at round v already hold their mean
    UE gradient at w_v (``engine.refreshed[v]``), so only the UEs of the
    other servers are evaluated there, and none at v = 0, where every
    server refreshed.  The global gradient is the mean of the K per-server
    means.
    """
    train, alpha = engine.federation.train, engine.scenario.alpha
    server_means = np.empty_like(engine.mean_grad)
    out = {}
    for v in sorted(versions):
        ids, mean = engine.refreshed[v]
        server_means[ids] = mean
        stale = np.ones(len(server_means), dtype=bool)
        stale[ids] = False
        rest = np.flatnonzero(stale)
        if rest.size:
            server_means[rest] = grad(engine.model, engine.history[v],
                                      train[rest], alpha).mean(axis=1)
        g = server_means.mean(axis=0)
        out[v] = float(g @ g)
    return out


def audit_bound(engine):
    """Check the per-round loss-change bound on a finished run.

    For each round t the audit takes F(w_t), the true global objective,
    from the run's recorded loss, and F(w_{t+1}) from the next round's
    record; only F at the final model w_T is evaluated.  It then computes,
    with full knowledge the edge servers do not have, the true global
    gradient norm once at every delivered stale model w_{t - tau_k}, and
    reuses the mean gradients the run's refreshes already computed there.
    The inequality checked is

        F(w_{t+1}) - F(w_t) <= phi * sum_selected ||grad F(stale)||^2 + nu

    which is the run's recorded phi/nu pair; the run should have been
    made with beta = 1 / meta_lip for the pair to be a guarantee.
    Returns a list of per-round dicts with descent, bound, and holds.
    """
    records = engine.records
    if not records:
        return []
    loss, grad = meta.objective(engine.scenario.mode)
    f = [rec.loss for rec in records]
    f.append(float(np.mean(loss(engine.model, engine.history[-1],
                                engine.federation.train,
                                engine.scenario.alpha))))
    g_norm_sq = _grad_norms_sq(
        engine, {v for rec in records for v in rec.versions}, grad)

    rows = []
    for rec, f_t, f_next in zip(records, f, f[1:]):
        stale_sum = sum(g_norm_sq[v] for v in rec.versions)
        descent = f_next - f_t
        bound = engine.phi * stale_sum + engine.nu
        tol = 1e-9 * max(1.0, abs(bound))
        rows.append({
            "round": rec.round,
            "f_t": f_t,
            "f_next": f_next,
            "descent": descent,
            "bound": bound,
            "holds": descent <= bound + tol,
        })
    return rows


def run_audit(scenario, out_dir=None):
    """Audit-grade run: step size pinned to 1/meta_lip, bound checked.

    Returns (engine, rows, fraction of rounds where the bound holds), the
    fraction None (JSON null in the manifest) when no round was audited.
    """
    engine = _run(scenario, audit=True)
    rows = audit_bound(engine)
    frac = float(np.mean([r["holds"] for r in rows])) if rows else None
    if out_dir is not None:
        write_outputs(engine, out_dir,
                      extra_manifest={"audit_holds_fraction": frac})
        _write(out_dir, "audit.csv", _csv_text(AUDIT_HEADER, [
            [str(r["round"]), _fmt(r["f_t"]), _fmt(r["f_next"]),
             _fmt(r["descent"]), _fmt(r["bound"]), str(int(r["holds"]))]
            for r in rows]))
    return engine, rows, frac


def parse_sweep_values(spec):
    """Parse a sweep value list: 'a:b:step' (inclusive) or 'v1,v2,...'.

    A range gives at least one and at most MAX_SWEEP_VALUES values, each
    rounded to 12 significant digits of the range's magnitude; list values
    stay as typed."""
    spec = spec.strip()
    is_range = ":" in spec
    parts = [p for p in spec.split(":" if is_range else ",") if p.strip()]
    if is_range and len(parts) != 3:
        raise ConfigError("--values: range form must be start:stop:step, "
                          "got %r" % (spec,))
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError("--values: %r holds a value that is not a "
                          "number" % (spec,)) from None
    if not vals:
        raise ConfigError("--values: no sweep values given")
    if is_range:
        start, stop, step = vals
        if not step > 0:   # a NaN step fails this test too
            raise ConfigError("--values: step must be positive")
        steps = (stop - start) / step
        if not np.isfinite([start, stop, step, steps]).all():
            raise ConfigError("--values: start, stop, step and the step "
                              "count must be finite, got %r" % (spec,))
        n = int(np.floor(steps + 1e-9)) + 1
        if not 0 < n <= MAX_SWEEP_VALUES:   # a stop below start gives none
            raise ConfigError("--values: %r gives %s values" % (
                spec, "more than %d" % MAX_SWEEP_VALUES if n > 0 else "no"))
        digits = 12 - int(np.floor(np.log10(max(abs(start), abs(stop), step))))
        vals = [round(start + i * step, digits) for i in range(n)]
    return tuple(vals)


def _sweep_one(scenario, param, value, out_dir):
    """Run one sweep value, write its outputs, and return its summary row.

    The run's engine is dropped on return, so a sweep holds one at a time.
    """
    engine = run_experiment(scenario.replace(**{param: value}))
    if out_dir is not None:
        write_outputs(engine, os.path.join(out_dir, "%s=%r" % (param, value)))
    recs = engine.records
    nan = float("nan")
    return {
        "value": value,
        "final_loss": recs[-1].loss if recs else nan,
        "mean_latency": float(np.mean([r.latency for r in recs]))
        if recs else nan,
        "mean_importance": float(np.mean([r.importance for r in recs]))
        if recs else nan,
        "mean_a_eff": float(np.mean([r.a_eff for r in recs])) if recs else nan,
    }


def run_sweep(scenario, param, values, out_dir=None):
    """Re-run the scenario for each value of one numeric field.

    Each value is cast to the field's declared type and each run lands in
    its own subdirectory, named ``param=repr(value)``; sweep.csv
    summarizes final loss plus mean latency, captured importance, and
    selected count.  Returns those summary rows, one dict per value.
    """
    kind = {f.name: f.type for f in dataclasses.fields(Scenario)}.get(param)
    if kind is None:
        raise ConfigError("param: unknown sweep parameter %r" % (param,))
    if kind is int and not all(float(v).is_integer() for v in values):
        raise ConfigError("%s: sweep values %s are not all integers"
                          % (param, list(values)))
    values = [kind(v) for v in values]
    if len(set(values)) != len(values):
        raise ConfigError("%s: sweep values %s repeat" % (param, values))
    rows = [_sweep_one(scenario, param, value, out_dir) for value in values]
    if out_dir is not None:
        _write(out_dir, "sweep.csv", _csv_text(SWEEP_HEADER, [
            [_fmt(row[c]) for c in SWEEP_HEADER.split(",")] for row in rows]))
    return rows
