"""The example scripts under scripts/ run end to end against the library."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hpfl.experiment import run_experiment
from hpfl.hierarchy import RoundEngine

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--rounds", "2", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args, expect", [
    ("run_demo.py", (), "round    loss"),
    ("audit_run.py", (), "bound held in"),
    ("sweep_rho.py", ("--values", "0.4,0.6"), "  rho  final_loss"),
    ("audit_run.py", ("--rounds", "0"), "bound held in 0/0"),
    ("audit_run.py", ("--rounds", "0"), "no rounds audited"),
    ("audit_run.py", (), "median slack bound/|descent| over 2 rounds"),
])
def test_script_runs(script, args, expect):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_run_demo_writes_outputs(tmp_path):
    proc = _run("run_demo.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "rounds.csv").read_text().splitlines()
    assert len(rows) == 3
    assert (tmp_path / "manifest.json").is_file()


def test_readme_library_use_runs_as_documented(capsys):
    """README's "Library use" block runs, and what it says each call
    returns holds: the engine with its records, the engine before round 0
    that one run_round advances to the run's first record, the audit
    triple and one sweep row per value."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    scn, engine = namespace["scn"], namespace["engine"]
    assert isinstance(engine, RoundEngine)
    assert len(engine.records) == scn.rounds
    assert len(engine.history) == scn.rounds + 1
    assert namespace["first"] == run_experiment(scn).records[0]
    assert 0.0 <= namespace["frac"] <= 1.0
    assert [row["value"] for row in namespace["rows"]] == [0.3, 0.7]
    assert len(capsys.readouterr().out.splitlines()) == 3


def _line(failed=0, **values):
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {name: {"unit": "ms", "value": value}
                        for name, value in values.items()}}


def _outputs(digest, loss, holds=None):
    return {"rounds_csv_sha256": digest, "sim.final_loss": loss,
            "sim.audit_holds_frac": holds}


def _bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_script", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_counts_source_lines(tmp_path):
    """src_lines counts the lines of src/hpfl/*.py as wc -l does: newlines,
    in .py files directly under src/hpfl only."""
    pkg = tmp_path / "src" / "hpfl"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("\n\n\nz = 3")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (pkg / "sub" / "c.py").write_text("not counted\n")
    bench = _bench_module()
    assert bench.src_lines(str(tmp_path))["total"] == 5


def test_bench_copies_the_work_tree_as_it_stands(tmp_path):
    """export_worktree copies an edited tracked file as edited, a new file
    and the files below a directory; an ignored file and a deleted tracked
    file are not copied."""
    repo, into = tmp_path / "repo", tmp_path / "copy"
    (repo / "sub").mkdir(parents=True)
    files = {".gitignore": "ignored.txt\n", "edited.txt": "old\n",
             "deleted.txt": "gone\n", "sub/kept.txt": "kept\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-qm", "files"], cwd=repo, check=True)
    (repo / "edited.txt").write_text("new\n")
    (repo / "new.txt").write_text("added\n")
    (repo / "ignored.txt").write_text("ignored\n")
    (repo / "deleted.txt").unlink()
    _bench_module().export_worktree(str(repo), str(into))
    copied = {str(p.relative_to(into)): p.read_text()
              for p in into.rglob("*") if p.is_file()}
    assert copied == {".gitignore": "ignored.txt\n", "edited.txt": "new\n",
                      "new.txt": "added\n", "sub/kept.txt": "kept\n"}


def test_bench_splits_source_lines_by_kind(tmp_path):
    """src_lines splits the lines into code, docstring, comment and blank
    ones: a line with code on it is code, a string that is a statement of
    its own is a docstring wherever it stands, and a string inside code is
    code."""
    pkg = tmp_path / "src" / "hpfl"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        '"""Module docstring,\n'
        '\n'
        'on three lines."""\n'
        '\n'
        '# a comment\n'
        'x = 1  # code with a comment\n'
        '\n'
        '\n'
        'def f():\n'
        '    """One line."""\n'
        '    # indented comment\n'
        '    return """a string\n'
        'in code"""\n')
    bench = _bench_module()
    assert bench.src_lines(str(tmp_path)) == {
        "total": 13, "code": 4, "docstring": 4, "comment": 2, "blank": 3}


def test_bench_names_a_failed_run(tmp_path):
    """A bench/run.py that exits 1 raises an error naming the side, the
    workload, the seed and the trace flag, ending with stderr's last lines."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print('line %d' % i, file=sys.stderr)\n"
        "sys.exit(1)\n")
    bench = _bench_module()
    with pytest.raises(bench.BenchRunError) as info:
        bench.run_bench("parent", str(tmp_path), "large", 3, 0)
    message = str(info.value)
    assert message.startswith(
        "parent run failed: bench/run.py --workload large --seed 3 "
        "--trace 0 exited 1")
    assert message.endswith("line 29")
    assert "line 10\n" in message and "line 9\n" not in message


STUB_FAILS_ON_SECOND_CALL = """\
import json, os, sys
here = os.path.dirname(os.path.abspath(__file__))
count = os.path.join(here, "calls")
calls = int(open(count).read()) + 1 if os.path.exists(count) else 1
open(count, "w").write(str(calls))
if calls > 1:
    sys.exit("second call fails")
os.makedirs(os.path.join(here, "results"))
with open(os.path.join(here, "results", "desk-seed1-trace0.json"), "w") as fh:
    json.dump({"outputs": {"1000": {"rounds_csv_sha256": "a"}}}, fh)
print(json.dumps({"failed": 0, "metrics": {"round_ms_p50": {"value": 2.5}}}))
"""


def test_bench_keeps_finished_runs_when_a_run_fails(tmp_path):
    """The runs made before a failed one are written to the partial file,
    and the failure still propagates."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(STUB_FAILS_ON_SECOND_CALL)
    partial = tmp_path / "BENCH_0.partial.json"
    bench = _bench_module()
    with pytest.raises(bench.BenchRunError, match="second call fails"):
        bench.measure({"parent": str(tmp_path), "change": str(tmp_path)},
                      str(partial))
    runs = json.loads(partial.read_text())
    assert runs == [{
        "side": "parent", "workload": "desk", "seed": 1, "trace": 0,
        "line": {"failed": 0, "metrics": {"round_ms_p50": {"value": 2.5}}},
        "outputs": {"1000": {"rounds_csv_sha256": "a"}}}]


def test_bench_assembles_final_lines():
    """scripts/bench.py turns bench/run.py final lines into one record:
    per-seed runs and medians for each side, which side ran first, whether
    both sides wrote the same rounds.csv per scenario seed, the largest
    relative difference of a sim.* statistic over the scenario seeds both
    sides ran, the change's traced line, and every traced metric side by
    side."""
    bench = _bench_module()
    same = {1000: _outputs("a", 0.5), 1001: _outputs("b", 0.25)}
    runs = [
        ("parent", "desk", 1, 0, _line(round_ms_p50=25.0), same),
        ("change", "desk", 1, 0, _line(round_ms_p50=5.0), same),
        ("change", "desk", 2, 0, _line(round_ms_p50=4.0),
         {2000: _outputs("c", 1.0)}),
        ("parent", "desk", 2, 0, _line(failed=1, round_ms_p50=27.0),
         {2000: _outputs("c", 1.0), 2001: _outputs("d", 100.0)}),
        ("change", "desk", 3, 0, _line(round_ms_p50=6.0),
         {3000: _outputs("e", 5.0)}),
        ("parent", "desk", 3, 0, _line(round_ms_p50=26.0),
         {3000: _outputs("f", 4.0)}),
        ("parent", "desk", 1, 1, _line(**{"bandwidth.ms_per_round": 23.0}),
         None),
        ("change", "desk", 1, 1, _line(**{"bandwidth.ms_per_round": 2.0}),
         None),
        ("parent", "large", 1, 0, _line(round_ms_p50=17.0), same),
        ("change", "large", 1, 0, _line(round_ms_p50=13.0), same),
        ("parent", "audit_mlp", 1, 0, _line(round_ms_p50=4.0),
         {1000: _outputs("g", 0.5)}),
        ("change", "audit_mlp", 1, 0, _line(round_ms_p50=4.0),
         {1000: _outputs("g", 0.5, holds=1.0)}),
    ]
    out = bench.assemble(runs, {"nproc": 2}, "canned", {})
    pair = out["pairs"]["desk"]
    # a digest on one side only, or two different digests, both differ
    assert pair["outputs_differ"] == [2001, 3000]
    assert pair["same_outputs"] is False
    assert out["pairs"]["large"]["same_outputs"] is True
    assert out["pairs"]["large"]["outputs_differ"] == []
    # seed 2001 ran on the parent only; seed 3000 differs by 1 in 5
    assert pair["outputs_max_rel"] == 0.2
    assert out["pairs"]["large"]["outputs_max_rel"] == 0.0
    # a statistic on one side only differs without bound
    assert out["pairs"]["audit_mlp"]["outputs_max_rel"] == float("inf")
    assert pair["seeds"] == [1, 2, 3]
    assert pair["first"] == ["parent", "change", "change"]
    assert pair["parent"]["runs"]["round_ms_p50"] == [25.0, 27.0, 26.0]
    assert pair["parent"]["median"]["round_ms_p50"] == 26.0
    assert pair["parent"]["failed"] == [0, 1, 0]
    assert pair["change"]["median"]["round_ms_p50"] == 5.0
    assert out["traced"]["desk"] == runs[7][4]
    assert out["layers"]["desk"]["bandwidth.ms_per_round"] == {
        "parent": 23.0, "change": 2.0, "unit": "ms"}
    assert out["environment"] == {"nproc": 2}
    assert json.loads(json.dumps(out)) == out


def test_bench_judges_a_gain_by_pairs_and_the_parents_spread():
    """gain counts the pairs the change won in the metric's direction, ties
    for neither side, gives each side's quartiles, and resolves a gain only
    with 9 of 10 pairs won and the medians apart by more than the parent's
    interquartile range."""
    bench = _bench_module()
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    faster = [p - 3.0 for p in parent]
    out = bench.gain(parent, faster, "lower")
    assert (out["wins"], out["pairs"], out["resolved"]) == (10, 10, True)
    assert out["quartiles"]["parent"] == [11.0, 12.0, 13.0]
    assert out["quartiles"]["change"] == [8.0, 9.0, 10.0]
    # the same runs win nothing where higher is better
    assert bench.gain(parent, faster, "higher")["wins"] == 0
    # a tie is no win: 9 of 10 still resolves, 8 of 10 does not
    tie = faster[:9] + [parent[9]]
    assert bench.gain(parent, tie, "lower")["wins"] == 9
    assert bench.gain(parent, tie, "lower")["resolved"] is True
    two_ties = faster[:8] + parent[8:]
    assert bench.gain(parent, two_ties, "lower")["wins"] == 8
    assert bench.gain(parent, two_ties, "lower")["resolved"] is False
    # 10 of 10 won by less than the parent's IQR of 2.0 is unresolved
    close = [p - 1.5 for p in parent]
    assert bench.gain(parent, close, "lower")["wins"] == 10
    assert bench.gain(parent, close, "lower")["resolved"] is False
    # higher is better: ok_frac rising in every pair, from a spread-out parent
    out = bench.gain([0.5, 0.9, 1.0, 0.7], [1.0, 1.0, 1.0, 1.0], "higher")
    assert out["wins"] == 3 and out["resolved"] is False


def test_bench_records_a_gain_for_each_judged_metric():
    """assemble adds a gain per workload for each metric it is given a
    direction for, and only for those; BENCHMARK.json gives the directions
    of the end-to-end metrics."""
    bench = _bench_module()
    same = {1000: _outputs("a", 0.5)}
    runs = [(side, "desk", seed, 0, _line(round_ms_p50=value, run_s=1.0), same)
            for seed in range(1, 11)
            for side, value in (("parent", 2.0 + 0.01 * seed),
                                ("change", 1.0 + 0.01 * seed))]
    out = bench.assemble(runs, {}, "canned", {"round_ms_p50": "lower"})
    gains = out["pairs"]["desk"]["gain"]
    assert set(gains) == {"round_ms_p50"}
    assert gains["round_ms_p50"]["wins"] == 10
    assert gains["round_ms_p50"]["resolved"] is True
    assert json.loads(json.dumps(out)) == out
    assert bench.directions()["round_ms_p90"] == "lower"
    assert bench.directions()["ok_frac"] == "higher"
