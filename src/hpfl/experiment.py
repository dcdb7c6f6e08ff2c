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
from dataclasses import dataclass

import numpy as np

from . import meta
from .constants import EstimationError, bound_constants, estimate_constants
from .hierarchy import RoundEngine
from .network import sample_topology
from .scenario import ConfigError, Scenario
from .tasks import (Federation, LogisticModel, MLPModel, QuadraticModel,
                    build_classification_federation,
                    build_quadratic_federation)

__all__ = [
    "ExperimentResult",
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


@dataclass
class Prepared:
    """Everything deterministic that exists before the first round."""

    model: object
    federation: Federation
    topology: object
    w0: np.ndarray
    constants: object


@dataclass
class ExperimentResult:
    """A finished run: its records, its engine and the estimated constants."""

    records: list
    engine: RoundEngine
    constants: object


def _stream(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def prepare(scenario):
    """Build model, data, topology, initial point, and estimated constants.

    Only the seed and the task/topology fields matter here, so paired
    runs (different mode or selection policy, same seed) share identical
    federations.
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
    topology = sample_topology(
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
    return Prepared(model=model, federation=federation, topology=topology,
                    w0=w0, constants=constants)


def _run(scenario, audit, forced_plan=None):
    """The one run path: prepare, build the engine, run every round.

    The step size is the scenario's beta, or 1/meta_lip for an audit.
    """
    prep = prepare(scenario)
    beta = 1.0 / prep.constants.meta_lip if audit else scenario.beta
    phi, nu = bound_constants(beta, scenario.s_max, scenario.a_max,
                              scenario.k, prep.constants.meta_div_sq)
    phi_sched = phi if scenario.phi_override < 0 else scenario.phi_override
    engine = RoundEngine(prep, scenario, beta, phi_sched, phi, nu)
    records = engine.run(scenario.rounds, forced_plan=forced_plan)
    return ExperimentResult(records=records, engine=engine,
                            constants=prep.constants)


def run_experiment(scenario, forced_plan=None):
    """Run the configured number of rounds and return all records.

    ``forced_plan``, when given, fixes each round's selection.
    """
    return _run(scenario, audit=False, forced_plan=forced_plan)


def rounds_csv_text(records):
    """Canonical CSV text for a list of round records."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.round), _fmt(r.loss), _fmt(r.acc), _fmt(r.latency),
            _fmt(r.importance), str(r.a_eff), str(r.runtime_us),
            _fmt(r.bound_rhs),
        ]))
    return "\n".join(lines) + "\n"


def _package_version():
    try:
        from importlib.metadata import version
        return version("hpfl")
    except Exception:
        return "unknown"


def manifest_dict(result, extra=None):
    engine = result.engine
    scn = engine.scenario
    out = {
        "config": scn.to_dict(),
        "config_hash": scn.config_hash(),
        "seed": scn.seed,
        "rounds": len(result.records),
        "beta_effective": engine.beta,
        "constants": result.constants.to_dict(),
        "phi": engine.phi,
        "nu": engine.nu,
        "phi_sched": engine.phi_sched,
        "versions": {
            "package": _package_version(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if extra:
        out.update(extra)
    return out


def write_outputs(result, out_dir, extra_manifest=None):
    """Write rounds.csv and manifest.json into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rounds.csv"), "w") as fh:
        fh.write(rounds_csv_text(result.records))
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest_dict(result, extra_manifest), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return out_dir


def audit_bound(result):
    """Check the per-round loss-change bound on a finished run.

    For each round t the audit takes F(w_t), the true global objective,
    from the run's recorded loss, and F(w_{t+1}) from the next round's
    record; only F at the final model w_T is evaluated.  It then computes,
    with full knowledge the edge servers do not have, the true global
    gradient norm once at every delivered stale model w_{t - tau_k}.
    The inequality checked is

        F(w_{t+1}) - F(w_t) <= phi * sum_selected ||grad F(stale)||^2 + nu

    which is the run's recorded phi/nu pair; the run should have been
    made with beta = 1 / meta_lip for the pair to be a guarantee.
    Returns a list of per-round dicts with descent, bound, and holds.
    """
    records = result.records
    if not records:
        return []
    engine = result.engine
    model = engine.model
    alpha = engine.scenario.alpha
    loss, grad = meta.objective(engine.scenario.mode)
    train = engine.federation.train
    f = [rec.loss for rec in records]
    f.append(float(np.mean(loss(model, engine.history[-1], train, alpha))))
    g_norm_sq = {}
    for v in sorted({v for rec in records for v in rec.versions}):
        g = grad(model, engine.history[v], train, alpha)
        g = g.reshape(-1, model.n_params).mean(axis=0)
        g_norm_sq[v] = float(g @ g)

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

    Returns (result, rows, fraction of rounds where the bound holds), the
    fraction None (JSON null in the manifest) when no round was audited.
    """
    result = _run(scenario, audit=True)
    rows = audit_bound(result)
    frac = float(np.mean([r["holds"] for r in rows])) if rows else None
    if out_dir is not None:
        write_outputs(result, out_dir,
                      extra_manifest={"audit_holds_fraction": frac})
        with open(os.path.join(out_dir, "audit.csv"), "w") as fh:
            fh.write(AUDIT_HEADER + "\n")
            for r in rows:
                fh.write(",".join([
                    str(r["round"]), _fmt(r["f_t"]), _fmt(r["f_next"]),
                    _fmt(r["descent"]), _fmt(r["bound"]),
                    str(int(r["holds"])),
                ]) + "\n")
    return result, rows, frac


def parse_sweep_values(spec):
    """Parse a sweep value list: 'a:b:step' (inclusive) or 'v1,v2,...'.

    A range gives at most MAX_SWEEP_VALUES values, each rounded to 12
    significant digits of the range's magnitude; list values stay as typed."""
    spec = spec.strip()
    is_range = ":" in spec
    parts = [p for p in spec.split(":" if is_range else ",") if p.strip()]
    if is_range and len(parts) != 3:
        raise ValueError("--values: range form must be start:stop:step, "
                         "got %r" % (spec,))
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ValueError("--values: %r holds a value that is not a number"
                         % (spec,)) from None
    if not vals:
        raise ValueError("--values: no sweep values given")
    if is_range:
        start, stop, step = vals
        if not step > 0:   # a NaN step fails this test too
            raise ValueError("--values: step must be positive")
        steps = (stop - start) / step
        if not np.isfinite([start, stop, step, steps]).all():
            raise ValueError("--values: start, stop, step and the step count "
                             "must be finite, got %r" % (spec,))
        n = int(np.floor(steps + 1e-9)) + 1
        if n > MAX_SWEEP_VALUES:
            raise ValueError("--values: %r gives more than %d values"
                             % (spec, MAX_SWEEP_VALUES))
        digits = 12 - int(np.floor(np.log10(max(abs(start), abs(stop), step))))
        vals = [round(start + i * step, digits) for i in range(n)]
    return tuple(vals)


def _sweep_one(scenario, param, value, out_dir):
    """Run one sweep value, write its outputs, and return its summary row.

    The run's result is dropped on return, so a sweep holds one at a time.
    """
    result = run_experiment(scenario.replace(**{param: value}))
    if out_dir is not None:
        write_outputs(result, os.path.join(out_dir, "%s=%r" % (param, value)))
    recs = result.records
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
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
            fh.write(SWEEP_HEADER + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in SWEEP_HEADER.split(","))
                         + "\n")
    return rows
