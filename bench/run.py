"""hpfl benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with only two timing probes
installed, around ``experiment.prepare`` and ``RoundEngine.run_round``;
host times are reported at a reference machine speed (see clock.py).
``--trace 1`` alternates untraced and traced
executions of the same scenario and reports the per-layer metrics, taken
from spans recorded around the public hpfl callables (see tracer.py).
``--holdout-seed N`` repeats the end-to-end measurement on a seed kept out
of the baseline, so a claimed gain can be checked on unseen inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with sample counts, percentiles, simulated statistics, ``rounds.csv``
digests and the machine's description, goes to ``bench/results/``.
"""

import os

# One BLAS/OpenMP thread, set before NumPy is imported, so host-time figures
# do not depend on how many threads the BLAS library would pick on its own.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import sys

sys.dont_write_bytecode = True   # leave no caches in the checkout

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass

from checks import allocation_quality, audit_problems, record_problems
from clock import CAL_NOMINAL_S, Clock
from tracer import Tracer, patched, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

# Seeds of the recorded baseline; a hold-out seed must be none of them.
BASELINE_SEEDS = tuple(range(1, 11))
MIN_ROUND_SAMPLES = 100   # so that ten round samples lie beyond the p90
MIN_SETUP_SAMPLES = 6
MIN_TRACED = 2            # traced and untraced executions each, in --trace 1


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario.

    scenario  -- Scenario fields on top of the defaults
    audit     -- run through run_audit (audit_bound included) instead of
                 run_experiment
    sub_seeds -- scenario seeds cycled within one run, derived from --seed,
                 so a run's medians do not rest on a single federation draw
    """

    scenario: dict
    audit: bool
    sub_seeds: int


# desk: all defaults; the allocator takes most of the round (2 solves over 25
#   links), so allocator changes show here and kernel changes barely do.
# large: 1,000 UEs under 50 servers; model kernels, evaluation loops, the
#   O(K^2) counterfactual latency and constant estimation dominate, and the
#   allocator solves one wide problem per call.
# audit_mlp: equal split bypasses the allocator; the MLP Hessian-vector
#   product runs in rounds and in estimation, and audit_bound evaluates the
#   whole federation at every history version.
WORKLOADS = {
    "desk": Workload(scenario={}, audit=False, sub_seeds=4),
    "large": Workload(scenario={"k": 50, "n_k": 20, "rounds": 20},
                      audit=False, sub_seeds=2),
    "audit_mlp": Workload(scenario={"k": 10, "n_k": 8, "model": "mlp",
                                    "hidden": 32, "allocation": "equal"},
                          audit=True, sub_seeds=3),
}


class ProgramMissing(RuntimeError):
    """The hpfl sources are not beside the benchmark."""


def load_program():
    """Import hpfl from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hpfl", "__init__.py")):
        raise ProgramMissing("no hpfl sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import hpfl
    if os.path.dirname(os.path.dirname(os.path.abspath(hpfl.__file__))) != SRC:
        raise ProgramMissing("hpfl was imported from %s, not from %s"
                             % (hpfl.__file__, SRC))


class Probes:
    """Calibrated timers around prepare and run_round, on in every execution.

    Samples are (wall seconds, reference seconds) pairs; see clock.py.
    """

    def __init__(self, clock, experiment, engine_cls):
        self.clock = clock
        self.setup = []
        self.rounds = []
        self._sinks = {"prepare": self.setup, "run_round": self.rounds}
        self._targets = ((experiment, "prepare"), (engine_cls, "run_round"))

    def installed(self):
        return patched(self._targets,
                       lambda attr, fn: self._timed(fn, self._sinks[attr]))

    def _timed(self, fn, sink):
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            i = clock.mark(start=True)
            out = fn(*args, **kwargs)
            sink.append(clock.between(i, clock.mark()))
            return out
        return timed


def sim_stats(records, holds_frac):
    """Simulated outputs; a speed-only change must leave them identical."""
    return {
        "sim.final_loss": float(records[-1].loss),
        "sim.final_acc": float(records[-1].acc),
        "sim.latency_s_sum": math.fsum(r.latency for r in records),
        "sim.mean_a_eff": sum(r.a_eff for r in records) / len(records),
        # the runtime_us column counts solver evaluations; it is not a time
        "sim.solver_evals": sum(r.runtime_us for r in records),
        "sim.audit_holds_frac": holds_frac,
    }


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Executions of one workload in this process, one at a time."""

    def __init__(self, name):
        from hpfl import experiment
        from hpfl.hierarchy import RoundEngine
        from hpfl.scenario import Scenario
        self.name = name
        self.workload = WORKLOADS[name]
        self.experiment = experiment
        self.scenario_cls = Scenario
        self.clock = Clock()
        self.probes = Probes(self.clock, experiment, RoundEngine)
        self.reference_csv = {}
        self.untraced_round_ms_mean = None

    def scenario(self, seed):
        return self.scenario_cls(seed=seed, **self.workload.scenario)

    def execute(self, seed, tracer=None):
        """One checked workload execution, as a user would invoke it.

        Returns (outcome dict, ExperimentResult or None).  ``failure`` in
        the outcome is None only when every output check passed.  The
        tracer, when given, is installed beneath the probes, so that the
        probes' calibrations never fall inside a span.
        """
        ex = self.experiment
        scn = self.scenario(seed)
        gc.collect()   # one execution's garbage must not raise the next one's peak
        self.clock.forget_marks()
        n_setup, n_round = len(self.probes.setup), len(self.probes.rounds)
        out = {"seed": seed, "failure": None}
        try:
            with tracer.installed() if tracer else contextlib.nullcontext(), \
                    self.probes.installed():
                first = self.clock.mark()
                if self.workload.audit:
                    result, rows, holds = ex.run_audit(scn)
                else:
                    result, rows, holds = ex.run_experiment(scn), None, None
                out["run"] = self.clock.between(first, self.clock.mark())
        except Exception as exc:  # a raising execution is counted as failed
            out["failure"] = "%s: %s" % (type(exc).__name__, exc)
            return out, None
        out["setup"] = self.probes.setup[n_setup:]
        out["rounds"] = self.probes.rounds[n_round:]
        csv = ex.rounds_csv_text(result.records)
        out["rounds_csv_sha256"] = sha256(csv)
        out["sim"] = sim_stats(result.records, holds)
        problems = record_problems(result.records, scn, rows)
        if csv != self.reference_csv.setdefault(seed, csv):
            problems.append("rounds.csv differs from an earlier execution "
                            "with the same seed")
        if problems:
            out["failure"] = "; ".join(problems[:5])
        return out, result

    def measure(self, seeds, seconds):
        """End-to-end samples: cycle through seeds until the time is spent.

        Every seed runs at least twice (so reproducibility is checked) and
        the run collects at least MIN_ROUND_SAMPLES rounds and
        MIN_SETUP_SAMPLES setups, even if that takes longer than
        ``seconds``.  A new execution starts only if the median execution
        time still fits in the time left.
        """
        outcomes, took = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            outcome, result = self.execute(seeds[len(outcomes) % len(seeds)])
            del result
            outcomes.append(outcome)
            took.append(time.perf_counter() - t0)
            ok = [o for o in outcomes if o["failure"] is None]
            enough = len(outcomes) >= 2 * len(seeds) and (
                len(ok) < len(outcomes)
                or sum(len(o["rounds"]) for o in ok) >= MIN_ROUND_SAMPLES)
            left = seconds - (time.perf_counter() - start)
            if enough and left < statistics.median(took):
                break
        setup = [s for o in ok for s in o["setup"]]
        with self.probes.installed():
            for i in range(MIN_SETUP_SAMPLES - len(setup)):
                gc.collect()
                self.experiment.prepare(self.scenario(seeds[i % len(seeds)]))
                setup.append(self.probes.setup[-1])
        return outcomes, end_to_end_metrics(outcomes, setup)

    def trace(self, seed, seconds):
        """Per-layer totals: alternate untraced and traced executions.

        desk and large do not audit.  Each of their traced results is then
        audited under the same tracer, outside the timed execution, so the
        audit layer is measured and sim.audit_holds_frac exists on every
        workload.
        """
        untraced, traced, totals, solves = [], [], Counter(), []
        sim = None
        took = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            outcome, result = self.execute(seed)
            del result
            untraced.append(outcome)
            tracer = Tracer()
            outcome, result = self.execute(seed, tracer)
            traced.append(outcome)
            if outcome["failure"] is None and not self.workload.audit:
                try:
                    # the engine calls this tracer's meta wrappers, bound
                    # when it was built
                    with tracer.installed():
                        rows = self.experiment.audit_bound(result)
                except Exception as exc:  # counted as a failed execution
                    outcome["failure"] = "audit: %s: %s" % (type(exc).__name__, exc)
                else:
                    problems = audit_problems(rows)
                    if problems:
                        outcome["failure"] = "; ".join(problems[:5])
                    outcome["sim"]["sim.audit_holds_frac"] = (
                        sum(r["holds"] for r in rows) / len(rows))
            del result
            if outcome["failure"] is None:
                # span times at the reference speed of this execution
                wall, ref = outcome["run"]
                t, allocations = summarize(tracer, ref / wall)
                quality = []
                for name, dur_ns, problem, res in allocations:
                    q = allocation_quality(problem, res)
                    q.update(name=name, ms=dur_ns / 1e6, work=res.work)
                    quality.append(q)
                if any(q["over_budget"] for q in quality):
                    outcome["failure"] = "an allocation used more than total_b"
                else:
                    totals += t
                    solves.extend(quality)
                    if sim is None:
                        sim = outcome["sim"]
                        os.makedirs(RESULTS_DIR, exist_ok=True)
                        tracer.write(os.path.join(
                            RESULTS_DIR, "spans-%s-seed%d.csv" % (self.name, seed)))
            del tracer
            took.append(time.perf_counter() - t0)
            left = seconds - (time.perf_counter() - start)
            if len(traced) >= MIN_TRACED and left < statistics.median(took):
                break
        outcomes = untraced + traced
        ok_traced = [o for o in traced if o["failure"] is None]
        ok_untraced = [o for o in untraced if o["failure"] is None]
        if not ok_traced or not ok_untraced or sim is None:
            return outcomes, None
        metrics = layer_metrics(totals, solves, len(ok_traced))
        metrics.update((k, {"value": v, "n": 1}) for k, v in sim.items())
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(o["run"][1] for o in ok_traced)
            / statistics.median(o["run"][1] for o in ok_untraced) - 1.0,
            "n": len(ok_traced),
        }
        untraced_rounds = [ref for o in ok_untraced for _, ref in o["rounds"]]
        self.untraced_round_ms_mean = 1e3 * statistics.fmean(untraced_rounds)
        return outcomes, metrics


def percentile(samples, q):
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timing(pairs, scale=1.0, q=50):
    """Percentile q of reference times, with the wall-time figure beside it."""
    return {"value": percentile([ref * scale for _, ref in pairs], q),
            "wall": percentile([raw * scale for raw, _ in pairs], q),
            "n": len(pairs)}


def end_to_end_metrics(outcomes, setup):
    ok = [o for o in outcomes if o["failure"] is None]
    if not ok:
        return None
    rounds = [pair for o in ok for pair in o["rounds"]]
    return {
        "setup_s": timing(setup),
        "run_s": timing([o["run"] for o in ok]),
        "round_ms_p50": timing(rounds, 1e3),
        "round_ms_p90": timing(rounds, 1e3, q=90),
        # ru_maxrss is in KiB on Linux; this process runs one workload only
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1},
        "ok_frac": {"value": len(ok) / len(outcomes), "n": len(outcomes)},
    }


# Round-phase layers; their per-round self times add up to the traced round.
ROUND_LAYERS = ("bandwidth.ms_per_round", "tasks.kernel_ms_per_round",
                "meta.ms_per_round", "hierarchy.self_ms_per_round",
                "network.sample_channels_ms_per_round",
                "scheduler.ms_per_round")


def layer_metrics(totals, solves, n_traced):
    """Per-layer metrics from the summed span totals of traced executions.

    Times are self times at the reference speed.  ``*_per_round`` divides
    by the traced rounds; setup and audit figures are per execution.  A
    solve is any allocator call (progressive or equal split); the finish
    spread is taken over progressive solves only, the one allocator that
    claims equal finish times.
    """
    def total(kind, phase, match):
        return sum(v for key, v in totals.items() if isinstance(key, tuple)
                   and key[:2] == (kind, phase) and match(key[2]))

    def ns(phase, match):
        return total("ns", phase, match)

    def calls(phase, match):
        return total("calls", phase, match)

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    def kernel(method=None):
        return lambda name: (name.startswith("tasks.") and "Model." in name
                             and (method is None or name.endswith("." + method)))

    rounds = calls("round", lambda name: name == "hierarchy.RoundEngine.run_round")
    per_round = 1.0 / max(rounds, 1)
    per_exec = 1.0 / n_traced
    n_solves = len(solves)
    spreads = [q["finish_spread"] for q in solves
               if q["name"] == "bandwidth.progressive_fill"]
    values = {
        "bandwidth.solves_per_round": n_solves * per_round,
        "bandwidth.solve_ms_p50": statistics.median(
            [q["ms"] for q in solves]) if solves else 0.0,
        "bandwidth.ms_per_round": ns("round", layer("bandwidth")) / 1e6 * per_round,
        "bandwidth.deadline_calls_per_solve":
            totals["deadline_calls_in_solves"] / n_solves if solves else 0.0,
        "bandwidth.solver_evals_per_solve":
            sum(q["work"] for q in solves) / n_solves if solves else 0.0,
        "bandwidth.finish_spread_max": max(spreads, default=0.0),
        "bandwidth.floor_bound_solves":
            sum(q["floor_bound"] for q in solves) * per_exec,
        "tasks.kernel_ms_per_round": ns("round", kernel()) / 1e6 * per_round,
        "tasks.grad_calls_per_round": calls("round", kernel("grad")) * per_round,
        "tasks.hvp_calls_per_round": calls("round", kernel("hvp")) * per_round,
        "meta.ms_per_round": ns("round", layer("meta")) / 1e6 * per_round,
        "meta.calls_per_round": calls("round", layer("meta")) * per_round,
        "hierarchy.self_ms_per_round":
            ns("round", layer("hierarchy")) / 1e6 * per_round,
        "network.sample_channels_ms_per_round":
            ns("round", layer("network")) / 1e6 * per_round,
        "scheduler.ms_per_round": ns("round", layer("scheduler")) / 1e6 * per_round,
        "constants.estimate_ms": ns("setup", layer("constants")) / 1e6 * per_exec,
        "tasks.build_federation_ms":
            ns("setup", lambda name: name.startswith("tasks.build_"))
            / 1e6 * per_exec,
        "network.sample_topology_ms":
            ns("setup", layer("network")) / 1e6 * per_exec,
        "experiment.prepare_ms": ns("setup", layer("experiment")) / 1e6 * per_exec,
        "tasks.kernel_ms_setup": ns("setup", kernel()) / 1e6 * per_exec,
        "tasks.kernel_calls_setup": calls("setup", kernel()) * per_exec,
        "experiment.audit_bound_ms": ns("audit", layer("experiment")) / 1e6 * per_exec,
        "meta.ms_audit": ns("audit", layer("meta")) / 1e6 * per_exec,
        "tasks.kernel_ms_audit": ns("audit", kernel()) / 1e6 * per_exec,
    }
    metrics = {k: {"value": v, "n": n_traced} for k, v in values.items()}
    metrics["trace.round_ms_mean"] = {
        "value": totals["round_span_ns"] / 1e6 * per_round, "n": rounds}
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="Run one hpfl benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; scenario seeds are derived from it")
    ap.add_argument("--seconds", type=int, default=30,
                    help="measuring time; minimum sample counts may extend it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--holdout-seed", type=int, default=None,
                    help="also measure on this seed, which must lie outside "
                         "the baseline seeds %d..%d"
                         % (BASELINE_SEEDS[0], BASELINE_SEEDS[-1]))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.holdout_seed is not None:
        if args.trace:
            ap.error("--holdout-seed applies to --trace 0")
        if args.holdout_seed < 0 or args.holdout_seed in BASELINE_SEEDS \
                or args.holdout_seed == args.seed:
            ap.error("--holdout-seed must be non-negative, differ from "
                     "--seed and lie outside the baseline seeds")
    return args


def scenario_seeds(seed, count):
    return [seed * 1000 + i for i in range(count)]


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(loadavg):
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def per_seed_outputs(outcomes):
    """Simulated statistics and rounds.csv digest of each scenario seed."""
    out = {}
    for o in outcomes:
        if o["failure"] is None and o["seed"] not in out:
            out[o["seed"]] = dict(o["sim"],
                                  rounds_csv_sha256=o["rounds_csv_sha256"])
    return out


def print_metrics(metrics, units):
    for name, unit in units.items():
        m = metrics[name]
        extra = ", wall %.6g" % m["wall"] if "wall" in m else ""
        print("  %-38s %16.6g %-12s n=%d%s" % (name, m["value"], unit,
                                                m["n"], extra))


def main(argv=None):
    args = parse_args(argv)
    loadavg = os.getloadavg()
    try:
        load_program()
        units = declared_units(args.trace)
    except (ProgramMissing, OSError, ValueError, KeyError) as exc:
        print("bench: cannot start: %s" % exc, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload)
    record = {"workload": args.workload, "seed": args.seed,
              "used_for_baseline": args.seed in BASELINE_SEEDS,
              "trace": args.trace,
              "seconds": args.seconds, "workload_spec": workload.scenario,
              "audit": workload.audit, "environment": environment(loadavg)}
    if args.trace:
        seeds = scenario_seeds(args.seed, 1)
        outcomes, metrics = runner.trace(seeds[0], args.seconds)
    else:
        seeds = scenario_seeds(args.seed, workload.sub_seeds)
        outcomes, metrics = runner.measure(seeds, args.seconds)
        if args.holdout_seed is not None:
            h_seeds = scenario_seeds(args.holdout_seed, workload.sub_seeds)
            h_outcomes, h_metrics = runner.measure(h_seeds, args.seconds)
            record["holdout"] = {
                "seed": args.holdout_seed, "used_for_baseline": False,
                "scenario_seeds": h_seeds, "metrics": h_metrics,
                "outputs": per_seed_outputs(h_outcomes),
                "failures": [o["failure"] for o in h_outcomes if o["failure"]]}
            outcomes = outcomes + h_outcomes
    failures = [o["failure"] for o in outcomes if o["failure"]]
    for failure in failures:
        print("bench: failed execution: %s" % failure, file=sys.stderr)
    if metrics is None:
        print("bench: no execution succeeded", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print("bench: metrics %s do not match BENCHMARK.json"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    for name, unit in units.items():
        metrics[name]["unit"] = unit
    cal = runner.clock.calibrations
    record["calibration"] = {
        "nominal_ms": 1e3 * CAL_NOMINAL_S, "count": len(cal),
        "p10_ms": 1e3 * percentile(cal, 10), "p50_ms": 1e3 * percentile(cal, 50),
        "p90_ms": 1e3 * percentile(cal, 90)}
    record.update(scenario_seeds=seeds, metrics=metrics,
                  outputs=per_seed_outputs(outcomes),
                  attempted=len(outcomes), failures=failures,
                  failed_frac=len(failures) / len(outcomes),
                  untraced_round_ms_mean=runner.untraced_round_ms_mean)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print("hpfl bench: workload %s, seed %d (scenario seeds %s), trace %d, "
          "%d executions, %d failed"
          % (args.workload, args.seed, seeds, args.trace, len(outcomes),
             len(failures)))
    print_metrics(metrics, units)
    if "holdout" in record and record["holdout"]["metrics"]:
        print("hold-out seed %d (not used for the baseline):" % args.holdout_seed)
        print_metrics(record["holdout"]["metrics"], units)
    if args.trace:
        print("  per-round layer self times sum to %.6g ms; traced rounds "
              "average %.6g ms, untraced rounds %.6g ms"
              % (sum(metrics[k]["value"] for k in ROUND_LAYERS),
                 metrics["trace.round_ms_mean"]["value"],
                 runner.untraced_round_ms_mean))
    for seed, out in record["outputs"].items():
        print("  outputs of scenario seed %d: %s"
              % (seed, json.dumps(out, sort_keys=True)))
    print("  environment: %s" % json.dumps(record["environment"], sort_keys=True))
    print("  calibration: %s" % json.dumps(record["calibration"], sort_keys=True))
    print("  results: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k]["value"], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
