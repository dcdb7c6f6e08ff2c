"""Benchmark a change against its parent and write BENCH_<pr>.json.

Usage: python3 scripts/bench.py --pr N --parent REV

Run from the repository root.  Both sides run from fresh sibling copies
in one temporary directory, so neither runs from the repository itself:
the change is the working tree as ``export_worktree`` copies it (tracked
and untracked files, edits included, ignored files left out), and the
parent is REV (for example HEAD before committing, HEAD~1 after) exported
with ``git archive``.  For each
workload (desk, large, audit_mlp), ``bench/run.py --trace 0`` runs once per
seed 1-10 on each side, the two sides alternating which runs first, and
``--trace 1`` runs once per side at seed 1; every run lasts bench/run.py's
default time.  The final JSON line of every run goes into BENCH_<pr>.json:

- ``pairs``: each side's end-to-end metrics per seed, their medians and
  failure counts, and which side ran first; ``same_outputs`` is true when
  both sides wrote the same ``rounds.csv`` digest for every scenario seed,
  ``outputs_differ`` lists the scenario seeds where they did not, and
  ``outputs_max_rel`` is the largest relative difference of any ``sim.*``
  statistic over the scenario seeds both sides ran;
- ``gain``, per workload and end-to-end metric of BENCHMARK.json: the pairs
  (same seed) the change won in the metric's better direction, ties counting
  for neither, each side's quartiles, and ``resolved``, true when the change
  won at least 9 of every 10 pairs and its median beats the parent's by more
  than the parent's interquartile range;
- ``traced``: the change's traced final line;
- ``layers``: every traced metric, parent against change;
- ``environment``: the machine, from the change's first result record;
- ``src_lines``: the line count of ``src/hpfl/*.py`` on each side, in
  total and split into code, docstring, comment and blank lines.

When a run fails, the runs that finished are written to
``BENCH_<pr>.partial.json`` before the error is raised.
"""

import argparse
import glob
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("desk", "large", "audit_mlp")
SIDES = ("parent", "change")
SEEDS = tuple(range(1, 11))
STDERR_TAIL = 20
# a resolved gain wins at least WIN_SHARE of the pairs
WIN_SHARE = (9, 10)


class BenchRunError(RuntimeError):
    """A bench/run.py run that exited non-zero."""


def result_path(checkout, workload, seed):
    """The full record a ``--trace 0`` run of bench/run.py writes."""
    return os.path.join(checkout, "bench", "results",
                        "%s-seed%d-trace0.json" % (workload, seed))


def run_bench(side, checkout, workload, seed, trace):
    """One bench/run.py run in ``checkout``: its final JSON line, and for
    ``--trace 0`` the outputs of each scenario seed (else None): its
    ``sim.*`` statistics and rounds.csv digest.

    A run that exits non-zero raises BenchRunError naming the side, the
    workload, the seed and the trace flag, with the last lines of stderr.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        tail = proc.stderr.splitlines()[-STDERR_TAIL:]
        raise BenchRunError(
            "%s run failed: bench/run.py --workload %s --seed %d --trace %d "
            "exited %d; its stderr ends:\n%s"
            % (side, workload, seed, trace, proc.returncode, "\n".join(tail)))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        return line, None
    with open(result_path(checkout, workload, seed)) as fh:
        outputs = json.load(fh)["outputs"]
    return line, {int(s): o for s, o in outputs.items()}


# a line holding tokens of several kinds counts as the first kind listed
LINE_KINDS = ("code", "docstring", "comment")
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


def line_kinds(source):
    """{line number: "code", "docstring" or "comment"} of Python source,
    from its tokens.  A docstring is a string that makes up a statement on
    its own; the lines missing from the map are blank."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    kinds = {}

    def mark(tok, kind):
        for row in range(tok.start[0], tok.end[0] + 1):
            kinds[row] = min(kinds.get(row, kind), kind, key=LINE_KINDS.index)

    body = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for i, tok in enumerate(body):
        if tok.type in _LAYOUT:
            continue
        alone = ((i == 0 or body[i - 1].type in _LAYOUT)
                 and body[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        mark(tok, "docstring" if tok.type == tokenize.STRING and alone
             else "code")
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            mark(tok, "comment")
    return kinds


def src_lines(checkout):
    """Lines in the checkout's src/hpfl/*.py files: the ``total`` that
    ``wc -l`` counts, and how many of them are code, docstring, comment and
    blank lines."""
    counts = dict.fromkeys(("total",) + LINE_KINDS + ("blank",), 0)
    for path in glob.glob(os.path.join(checkout, "src", "hpfl", "*.py")):
        with open(path) as fh:
            source = fh.read()
        counts["total"] += source.count("\n")
        for kind in line_kinds(source).values():
            counts[kind] += 1
    counts["blank"] = counts["total"] - sum(counts[k] for k in LINE_KINDS)
    return counts


def relative_gap(a, b):
    """|a - b| over the larger magnitude: 0 when equal, inf when only one
    side has a value."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def quartiles(values):
    """Lower quartile, median and upper quartile of values, interpolated
    as NumPy's default percentile does."""
    return statistics.quantiles(values, n=4, method="inclusive")


def gain(parent, change, better):
    """The change's gain over the parent in one metric, from per-seed runs
    paired by position; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    q_parent, q_change = quartiles(parent), quartiles(change)
    return {"better": better, "wins": wins, "pairs": pairs,
            "quartiles": {"parent": q_parent, "change": q_change},
            "resolved": wins * WIN_SHARE[1] >= pairs * WIN_SHARE[0]
            and sign * (q_parent[1] - q_change[1]) > q_parent[2] - q_parent[0]}


def directions():
    """Each end-to-end metric's better direction, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def assemble(runs, environment, description, better):
    """BENCH record from (side, workload, seed, trace, final line, outputs)
    tuples, as run_bench returns the last two.

    ``runs`` is in the order the runs were made.  A ``--trace 0`` line adds
    one entry per end-to-end metric to its side's pairs, and its outputs to
    the side's outputs; a ``--trace 1`` line is the side's traced line.
    ``better`` maps the metrics to judge with gain() to their better
    direction.
    """
    pairs, traced, per_seed = {}, {}, {}
    for side, workload, seed, trace, line, outputs in runs:
        if trace:
            traced.setdefault(workload, {})[side] = line
            continue
        per_seed.setdefault(workload, {}).setdefault(side, {}).update(outputs)
        pair = pairs.setdefault(workload, {"seeds": [], "first": []})
        if seed not in pair["seeds"]:
            pair["seeds"].append(seed)
            pair["first"].append(side)
        rec = pair.setdefault(side, {"failed": [], "runs": {}})
        rec["failed"].append(line["failed"])
        for name, metric in line["metrics"].items():
            rec["runs"].setdefault(name, []).append(metric["value"])
    for workload, pair in pairs.items():
        for side in SIDES:
            rec = pair[side]
            rec["median"] = {name: statistics.median(values)
                             for name, values in rec["runs"].items()}
        pair["gain"] = {
            name: gain(pair["parent"]["runs"][name],
                       pair["change"]["runs"][name], direction)
            for name, direction in better.items()}
        parent, change = (per_seed[workload][side] for side in SIDES)
        both = parent.keys() & change.keys()
        pair["outputs_differ"] = sorted(
            (parent.keys() ^ change.keys())
            | {s for s in both if parent[s]["rounds_csv_sha256"]
               != change[s]["rounds_csv_sha256"]})
        pair["same_outputs"] = not pair["outputs_differ"]
        pair["outputs_max_rel"] = max(
            (relative_gap(parent[s][name], change[s].get(name))
             for s in both for name in parent[s] if name.startswith("sim.")),
            default=None)
    layers = {}
    for workload, sides in traced.items():
        metrics = {side: sides[side]["metrics"] for side in SIDES}
        layers[workload] = {
            name: {"parent": metrics["parent"][name]["value"],
                   "change": metrics["change"][name]["value"],
                   "unit": metrics["change"][name]["unit"]}
            for name in metrics["change"] if name in metrics["parent"]}
    return {"description": description, "environment": environment,
            "pairs": pairs, "layers": layers,
            "traced": {w: s["change"] for w, s in traced.items()}}


def measure(where, partial):
    """Every run, in order, as (side, workload, seed, trace, final line,
    outputs) tuples; ``where`` maps each side to its checkout.

    When a run fails, the runs that finished go to the JSON file
    ``partial`` as a list of objects with those keys before the
    BenchRunError propagates.
    """
    runs = []
    try:
        for workload in WORKLOADS:
            for i, seed in enumerate(SEEDS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    line, outputs = run_bench(side, where[side], workload,
                                              seed, 0)
                    runs.append((side, workload, seed, 0, line, outputs))
                    print(side, workload, seed, json.dumps(line["metrics"]),
                          flush=True)
            for side in SIDES:
                line, _ = run_bench(side, where[side], workload, SEEDS[0], 1)
                runs.append((side, workload, SEEDS[0], 1, line, None))
    except BenchRunError:
        keys = ("side", "workload", "seed", "trace", "line", "outputs")
        with open(partial, "w") as fh:
            json.dump([dict(zip(keys, run)) for run in runs], fh, indent=1)
            fh.write("\n")
        raise
    return runs


def export(rev, into):
    """Write the tree of commit ``rev`` into the directory ``into``."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh,
                       check=True)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into, filter="data")


def export_worktree(root, into):
    """Copy into the directory ``into`` the files of the git work tree
    ``root`` that ``git ls-files --cached --others --exclude-standard``
    lists and that exist: uncommitted edits and new files are copied,
    ignored files and deleted tracked files are not."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=root, check=True,
        capture_output=True).stdout
    for name in dict.fromkeys(os.fsdecode(listed).split("\0")):
        path = os.path.join(root, name)
        if name and os.path.isfile(path):
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(path, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True,
                    help="git revision of the parent commit")
    args = ap.parse_args()
    parent_commit = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        where = {side: os.path.join(tmp, side) for side in SIDES}
        export(args.parent, where["parent"])
        export_worktree(ROOT, where["change"])
        lines = {side: src_lines(where[side]) for side in SIDES}
        runs = measure(where, os.path.join(
            ROOT, "BENCH_%d.partial.json" % args.pr))
        with open(result_path(where["change"], WORKLOADS[0],
                              SEEDS[0])) as fh:
            environment = json.load(fh)["environment"]
    environment.pop("loadavg_at_start", None)
    description = (
        "hpfl benchmark record, written by scripts/bench.py. 'pairs' holds "
        "the end-to-end metrics of 'python3 bench/run.py --workload W --seed "
        "S --trace 0' at seeds %d-%d on the parent (%s) and on this change, "
        "alternating which side runs first, with their medians, "
        "'same_outputs', whether both sides wrote the same rounds.csv for "
        "every scenario seed, and 'outputs_max_rel', the largest relative "
        "difference of any sim.* statistic over the scenario seeds both "
        "sides ran. 'gain' judges each end-to-end metric: the pairs the "
        "change won, each side's quartiles, and 'resolved', true when the "
        "change won at least 9 of 10 pairs and its median beats the "
        "parent's by more than the parent's interquartile range. 'traced' "
        "holds this change's final line of the same command with '--trace 1' "
        "at seed %d, and 'layers' every traced metric, parent against change. "
        "Host times are at the benchmark's reference speed."
        % (SEEDS[0], SEEDS[-1], parent_commit, SEEDS[0]))
    record = assemble(runs, environment, description, directions())
    record["src_lines"] = lines
    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", out)


if __name__ == "__main__":
    main()
