"""Experiment driver, CSV/manifest outputs, audit, sweep, CLI."""

import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import hpfl
from hpfl import cli, experiment, hierarchy, meta
from hpfl.bandwidth import InfeasibleAllocationError
from hpfl.constants import bound_constants
from hpfl.experiment import (
    AUDIT_HEADER,
    CSV_HEADER,
    audit_bound,
    manifest_dict,
    parse_sweep_values,
    prepare,
    rounds_csv_text,
    run_audit,
    run_experiment,
    run_sweep,
    write_outputs,
)
from hpfl.scenario import ConfigError, Scenario, save_scenario
from oracles import full_federation_grad_norms_sq

SMALL = Scenario(k=3, n_k=2, n_train=16, n_eval=16, rounds=4, seed=1)


class TestRoundsCsv:
    def test_zero_rounds_is_header_only(self):
        res = run_experiment(SMALL.replace(rounds=0))
        assert rounds_csv_text(res.records) == CSV_HEADER + "\n"

    def test_one_line_per_round(self):
        res = run_experiment(SMALL)
        text = rounds_csv_text(res.records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + SMALL.rounds
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 8
        assert int(first[5]) >= 1          # A_eff
        assert int(first[6]) > 0           # runtime_us
        float(first[1]), float(first[4])   # loss, importance parse

    def test_repeat_runs_are_byte_identical(self):
        a = rounds_csv_text(run_experiment(SMALL).records)
        b = rounds_csv_text(run_experiment(SMALL).records)
        assert a == b

    def test_seed_changes_the_bytes(self):
        a = rounds_csv_text(run_experiment(SMALL).records)
        b = rounds_csv_text(run_experiment(SMALL.replace(seed=2)).records)
        assert a != b


class TestManifest:
    def test_fields_and_stability(self):
        res = run_experiment(SMALL)
        m1 = manifest_dict(res)
        m2 = manifest_dict(run_experiment(SMALL))
        assert m1 == m2
        assert m1["config"]["k"] == 3
        assert m1["config_hash"] == SMALL.config_hash()
        assert m1["seed"] == 1 and m1["rounds"] == 4
        assert m1["beta_effective"] > 0.0
        assert m1["phi"] > 0.0 and m1["nu"] > 0.0 and m1["phi_sched"] > 0.0
        assert set(m1["constants"]) >= {"grad_lip", "hess_lip", "grad_max",
                                        "grad_div", "hess_div",
                                        "meta_lip", "meta_div_sq"}
        assert "timestamp" not in m1 and "time" not in m1

    def test_manifest_names_the_package_version(self, tmp_path):
        write_outputs(run_experiment(SMALL.replace(rounds=0)), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["versions"]["package"] == hpfl.__version__

    def test_package_version_is_the_project_version(self):
        pyproject = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "pyproject.toml")
        with open(pyproject) as fh:
            match = re.search(r'^version = "([^"]+)"$', fh.read(), re.M)
        assert match and match.group(1) == hpfl.__version__

    def test_write_outputs_creates_files(self, tmp_path):
        res = run_experiment(SMALL)
        write_outputs(res, tmp_path)
        csv_text = (tmp_path / "rounds.csv").read_text()
        assert csv_text == rounds_csv_text(res.records)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == SMALL.config_hash()


class TestTrajectorySemantics:
    def test_run_is_its_engine(self):
        """run_experiment returns the RoundEngine that prepare builds,
        advanced by one run_round call per configured round."""
        engine = run_experiment(SMALL)
        stepped = prepare(SMALL)
        assert stepped.t == 0 and stepped.records == []
        np.testing.assert_array_equal(stepped.history, engine.history[:1])
        records = [stepped.run_round() for _ in range(SMALL.rounds)]
        assert engine.records == records == stepped.records
        assert len(records) == SMALL.rounds
        assert engine.constants == stepped.constants
        np.testing.assert_array_equal(engine.w, stepped.w)

    @pytest.mark.parametrize("audit", [False, True])
    @pytest.mark.parametrize("phi_override", [-1.0, 0.0, 2.5])
    def test_prepare_sets_the_engine_coefficients(self, audit, phi_override):
        """The step is the scenario's beta, or 1/meta_lip for an audit;
        (phi, nu) is bound_constants at that step; the schedule weighs
        with phi unless phi_override is at least 0."""
        scn = SMALL.replace(phi_override=phi_override)
        engine = prepare(scn, audit=audit)
        c = engine.constants
        assert engine.beta == (1.0 / c.meta_lip if audit else scn.beta)
        assert (engine.phi, engine.nu) == bound_constants(
            engine.beta, scn.s_max, scn.a_max, scn.k, c.meta_div_sq)
        assert engine.phi_sched == (engine.phi if phi_override < 0
                                    else phi_override)

    def test_full_sync_versions_track_rounds(self):
        scn = SMALL.replace(selection="full", s_max=0, a_max=3, rounds=6)
        res = run_experiment(scn)
        for rec in res.records:
            assert rec.versions == tuple([rec.round] * 3)
            assert rec.a_eff == 3

    def test_stationary_start_never_descends_below_drift(self):
        """Zero-gradient start: every audited descent is exactly zero."""
        scn = Scenario(k=2, n_k=2, family="quadratic", model="logistic",
                       dim=4, init_scale=0.0, center_spread=0.0,
                       ue_spread=0.0, rounds=5, seed=3)
        result, rows, frac = run_audit(scn)
        assert frac == 1.0
        for row in rows:
            assert abs(row["descent"]) <= 1e-12
            assert row["bound"] >= 0.0

    def test_hfl_mode_runs_and_reports(self):
        res = run_experiment(SMALL.replace(mode="hfl"))
        assert len(res.records) == SMALL.rounds
        assert all(np.isfinite(r.loss) for r in res.records)
        assert all(0.0 <= r.acc <= 1.0 for r in res.records)

    def test_baseline_selections_and_equal_allocation_run(self):
        for sel in ("full", "random"):
            res = run_experiment(SMALL.replace(selection=sel))
            assert len(res.records) == SMALL.rounds
        res = run_experiment(SMALL.replace(allocation="equal"))
        assert len(res.records) == SMALL.rounds


class TestAudit:
    def test_audit_outputs(self, tmp_path):
        scn = SMALL.replace(rounds=3)
        result, rows, frac = run_audit(scn, tmp_path)
        assert len(rows) == 3
        assert 0.0 <= frac <= 1.0
        audit_lines = (tmp_path / "audit.csv").read_text().strip().split("\n")
        assert audit_lines[0] == AUDIT_HEADER
        assert len(audit_lines) == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["audit_holds_fraction"] == frac
        for row in rows:
            assert row["holds"] == (row["descent"] <= row["bound"] + 1e-9 *
                                    max(1.0, abs(row["bound"])))

    @pytest.mark.parametrize("mode", ["hpfl", "hfl"])
    @pytest.mark.parametrize("rounds", [0, 4])
    def test_audit_evaluates_each_model_once(self, monkeypatch, mode, rounds):
        """The audit reads F(w_t) from the records: one loss call, at the
        final model.  At each delivered version v it reuses the gradients
        of the servers refreshed at round v, those of age 0 (all of them at
        v = 0, else round v - 1's selection), and makes one gradient call,
        on a shard of exactly the other servers' UEs, if there are any."""
        # one upload a round leaves servers out of most refreshes
        engine = run_experiment(SMALL.replace(mode=mode, rounds=rounds,
                                              a_max=1))
        train = engine.federation.train
        loss, grad = meta.objective(mode)
        calls = {"loss": [], "grad": []}

        def counted(key, fn):
            def wrapper(model, w, shard, *args, **kwargs):
                calls[key].append((w, shard))
                return fn(model, w, shard, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(meta, loss.__name__, counted("loss", loss))
        monkeypatch.setattr(meta, grad.__name__, counted("grad", grad))
        rows = audit_bound(engine)
        rests = []
        for v in sorted({v for rec in engine.records for v in rec.versions}):
            refreshed = np.ones(SMALL.k, dtype=bool) if v == 0 \
                else np.asarray(engine.records[v - 1].pi, dtype=bool)
            if not refreshed.all():
                rests.append((v, np.flatnonzero(~refreshed)))
        assert len(calls["loss"]) == (1 if rounds else 0)
        for w, shard in calls["loss"]:
            np.testing.assert_array_equal(w, engine.history[-1])
            assert shard is train
        assert len(calls["grad"]) == len(rests)
        assert bool(rests) == bool(rounds)
        for (w, shard), (v, rest) in zip(calls["grad"], rests):
            np.testing.assert_array_equal(w, engine.history[v])
            np.testing.assert_array_equal(shard.x, train.x[rest])
            np.testing.assert_array_equal(shard.y, train.y[rest])

        def f(t):
            return np.mean(loss(engine.model, engine.history[t], train,
                                SMALL.alpha))

        assert len(rows) == rounds
        for t, row in enumerate(rows):
            assert row["f_t"] == f(t)
            assert row["f_next"] == f(t + 1)

    @pytest.mark.parametrize("over", [
        pytest.param({}, id="desk"),
        pytest.param({"model": "mlp"}, id="mlp"),
        pytest.param({"family": "quadratic"}, id="quadratic"),
        pytest.param({"mode": "hfl"}, id="hfl"),
    ])
    def test_reused_gradients_equal_a_full_recomputation(self, over):
        """Each version's squared global gradient norm, built from the
        run's refreshed server means, is within 1e-12 relative of the
        whole federation evaluated afresh, and every ``holds`` is the one
        the fresh norms give."""
        engine, rows, _ = run_audit(Scenario(seed=3, **over))
        versions = {v for rec in engine.records for v in rec.versions}
        _, grad = meta.objective(engine.scenario.mode)
        got = experiment._grad_norms_sq(engine, versions, grad)
        want = full_federation_grad_norms_sq(engine, versions, grad)
        assert got.keys() == want.keys()
        for v in versions:
            assert got[v] == pytest.approx(want[v], rel=1e-12, abs=0.0)
        for rec, row in zip(engine.records, rows):
            bound = engine.phi * sum(want[v] for v in rec.versions) + engine.nu
            assert row["bound"] == pytest.approx(bound, rel=1e-12, abs=0.0)
            assert row["holds"] == (
                row["descent"] <= bound + 1e-9 * max(1.0, abs(bound)))


class TestSweep:
    def test_parse_forms(self):
        assert parse_sweep_values("0.4:0.8:0.2") == (0.4, 0.6, 0.8)
        assert parse_sweep_values("1,2,5") == (1.0, 2.0, 5.0)
        assert parse_sweep_values("3") == (3.0,)
        assert parse_sweep_values("0.1:0.3:0.1") == (0.1, 0.2, 0.3)
        assert parse_sweep_values("-0.3:0.3:0.1") == (
            -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)

    def test_parse_keeps_small_values(self):
        assert parse_sweep_values("1e-11,2e-11") == (1e-11, 2e-11)
        assert parse_sweep_values("1e-12:3e-12:1e-12") == (1e-12, 2e-12, 3e-12)
        assert parse_sweep_values("0:2.6e-13:1e-13") == (0.0, 1e-13, 2e-13)

    def test_parse_rejects_a_long_range_before_building_it(self):
        with pytest.raises(ValueError, match="--values: .* more than 1000"):
            parse_sweep_values("0:1:1e-12")
        assert len(parse_sweep_values("1:1000:1")) == 1000

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_sweep_values("a:b:c")
        with pytest.raises(ValueError):
            parse_sweep_values("")
        with pytest.raises(ValueError):
            parse_sweep_values("1:0.5")

    @pytest.mark.parametrize("spec", ["0:1:0", "0:1:-0.5", "0:1:nan"])
    def test_parse_rejects_a_step_that_is_not_positive(self, spec):
        with pytest.raises(ConfigError,
                           match="--values: step must be positive"):
            parse_sweep_values(spec)

    def test_sweep_rejects_an_unknown_parameter(self, tmp_path):
        with pytest.raises(ConfigError,
                           match="param: unknown sweep parameter 'nope'"):
            run_sweep(SMALL, "nope", [1.0], tmp_path)
        assert not any(tmp_path.iterdir())

    def test_sweep_writes_tree(self, tmp_path):
        scn = SMALL.replace(rounds=2)
        rows = run_sweep(scn, "rho", [0.3, 0.7], tmp_path)
        assert len(rows) == 2
        table = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert table[0] == "value,final_loss,mean_latency,mean_importance,mean_a_eff"
        assert len(table) == 3
        for v in ("0.3", "0.7"):
            sub = tmp_path / ("rho=%s" % v)
            assert (sub / "rounds.csv").exists()
            assert (sub / "manifest.json").exists()


def _sweep(tmp_path, param, values):
    cfg = tmp_path / "cfg.json"
    save_scenario(SMALL.replace(rounds=1), cfg)
    out = tmp_path / "s"
    code = cli.main(["sweep", "--config", str(cfg), "--param", param,
                     "--values", values, "--out", str(out)])
    return code, out


def _swept_config(out, name):
    return json.loads((out / name / "manifest.json").read_text())["config"]


class TestSweepCli:
    def test_close_values_get_their_own_directories(self, tmp_path):
        code, out = _sweep(tmp_path, "rho", "0.1234567,0.1234568")
        assert code == 0
        assert _swept_config(out, "rho=0.1234567")["rho"] == 0.1234567
        assert _swept_config(out, "rho=0.1234568")["rho"] == 0.1234568

    def test_repeated_value_is_config_error(self, tmp_path, capsys):
        code, out = _sweep(tmp_path, "rho", "0.5,0.5")
        assert code == 2
        assert "config error: rho: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param,values", [
        ("a_max", "1,2"), ("k", "2,3"), ("s_max", "1,2")])
    def test_int_field_is_swept_with_ints(self, tmp_path, param, values):
        code, out = _sweep(tmp_path, param, values)
        assert code == 0
        for v in values.split(","):
            got = _swept_config(out, "%s=%s" % (param, v))[param]
            assert type(got) is int and got == int(v)

    def test_non_integral_value_for_int_field(self, tmp_path, capsys):
        code, _ = _sweep(tmp_path, "k", "2,2.5")
        assert code == 2
        assert "config error: k: " in capsys.readouterr().err

    @pytest.mark.parametrize("values", [
        "0:inf:1", "nan:1:0.1", "0:1:1e-12", "0.4:0.8", "abc", "1:x:1", ",",
        "0.8:0.4:0.1", "0.4:0.35:0.1"])
    def test_non_finite_range_is_config_error(self, tmp_path, capsys, values):
        """Malformed values, not only non-finite ranges, name --values."""
        code, out = _sweep(tmp_path, "rho", values)
        assert code == 2
        assert "config error: --values: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param,values,message", [
        ("nope", "1", "param: unknown sweep parameter 'nope'"),
        ("rho", "0:1:0", "--values: step must be positive")])
    def test_unknown_parameter_and_zero_step_exit_2(self, tmp_path, capsys,
                                                    param, values, message):
        code, out = _sweep(tmp_path, param, values)
        assert code == 2
        assert "config error: " + message in capsys.readouterr().err
        assert not out.exists()


class TestCli:
    def test_run_success(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--rounds", "2", "--out", str(out),
                         "--seed", "4"])
        assert code == 0
        assert (out / "rounds.csv").exists()
        assert (out / "manifest.json").exists()

    def test_run_with_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        save_scenario(SMALL.replace(rounds=1), cfg)
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 0

    def test_floor_that_fills_the_budget_runs(self, tmp_path):
        """b_min equal to the share B / L of the one selected server's L = 4
        links puts every link at the floor."""
        scn = Scenario(k=3, n_k=3, n_train=8, n_eval=8, s_max=0, a_max=1,
                       rounds=1, b_min=5e6 / 4)
        assert len(run_experiment(scn).records) == 1
        cfg = tmp_path / "cfg.json"
        save_scenario(scn, cfg)
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 0

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cadence": 3}))
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 2
        assert "cadence" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        assert cli.main(["run", "--config", str(cfg)]) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_field_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 7.0}))
        assert cli.main(["run", "--config", str(cfg)]) == 2

    def test_far_initial_model_is_config_error(self, tmp_path, capsys):
        """At init_scale 1e20 the radius-1 estimation probes round to w0."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "quadratic", "init_scale": 1e20,
                                   "rounds": 1}))
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: init_scale: ")

    @pytest.mark.parametrize("over", [
        pytest.param({"b_min": 4e6}, id="b_min"),
        pytest.param({"total_b": 1e308, "rho": 1.0},
                     id="rho-1-infinite-price"),
    ])
    def test_infeasible_allocation_exit_code(self, tmp_path, capsys, over):
        """A floor past the budget exits 3, and so does a budget whose
        pricing share has rate 0: its prices are infinite, which at rho = 1
        weigh nothing in the scores instead of warning on 0 * inf."""
        cfg = tmp_path / "cfg.json"
        save_scenario(SMALL.replace(rounds=1, **over), cfg)
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith("infeasible allocation: ")

    def test_floor_binds_only_the_selected_links(self, tmp_path, capsys):
        """Only the selected servers' links share the budget: 25 links at
        3e5 Hz exceed 5e6 Hz, but the 15 links of a_max = 3 servers do not,
        so only the full selection is infeasible."""
        scn = Scenario(b_min=3e5, rounds=3)
        for selection in ("proposed", "random"):
            records = run_experiment(scn.replace(selection=selection)).records
            assert len(records) == scn.rounds
        with pytest.raises(InfeasibleAllocationError, match="b_min"):
            run_experiment(scn.replace(selection="full"))
        cfg = tmp_path / "cfg.json"
        save_scenario(scn.replace(selection="full"), cfg)
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == cli.EXIT_INFEASIBLE
        assert "b_min" in capsys.readouterr().err

    def test_audit_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        save_scenario(SMALL.replace(rounds=2), cfg)
        out = tmp_path / "a"
        code = cli.main(["audit", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "audit.csv").exists()

    def test_audit_of_no_rounds_reports_no_fraction(self, tmp_path, capsys):
        """No round audited: no success rate printed, null in the manifest."""
        cfg = tmp_path / "cfg.json"
        save_scenario(SMALL, cfg)
        out = tmp_path / "a"
        code = cli.main(["audit", "--config", str(cfg), "--rounds", "0",
                         "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "no rounds audited" in printed and "%" not in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["audit_holds_fraction"] is None
        assert (out / "audit.csv").read_text() == AUDIT_HEADER + "\n"

    def test_sweep_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        save_scenario(SMALL.replace(rounds=1), cfg)
        out = tmp_path / "s"
        code = cli.main(["sweep", "--config", str(cfg), "--param", "rho",
                         "--values", "0.2,0.8", "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize("raw,args,field", [
        ('{"k": 2.5}', [], "k"),
        ('{"n_k": true}', [], "n_k"),
        ('{"k": "5"}', [], "k"),
        ('{"total_b": Infinity}', [], "total_b"),
        ("{}", ["--seed", "-1"], "seed"),
        ('{"n0_dbm_hz": 1e308}', [], "n0_dbm_hz"),
        ('{"n0_dbm_hz": -1e308}', [], "n0_dbm_hz"),
        ('{"o_ue_db": 1e308}', [], "o_ue_db"),
        ('{"o_es_db": 1e308}', [], "o_es_db"),
        ('{"o_es_db": -1e308}', [], "o_es_db"),
        pytest.param('{"a_max": %d}' % 10 ** 309, [], "a_max",
                     id="a_max=10**309"),
        pytest.param('{"s_max": %d}' % 10 ** 400, [], "s_max",
                     id="s_max=10**400"),
    ])
    def test_malformed_value_exits_2_naming_the_field(self, tmp_path, capsys,
                                                      raw, args, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        code = cli.main(["run", "--config", str(cfg), "--rounds", "1",
                         "--out", str(tmp_path / "o")] + args)
        assert code == 2
        assert "config error: %s: " % field in capsys.readouterr().err

    def test_a_value_error_from_a_defect_is_not_a_config_error(
            self, tmp_path, monkeypatch):
        """Exit 2 is for a ConfigError or an unreadable file: a NumPy
        ValueError raised inside a round propagates with its traceback,
        while a sweep range that gives no values still exits 2."""
        def broken(self, ids):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr(hierarchy.RoundEngine, "_evaluate", broken)
        with pytest.raises(ValueError, match="broadcast together"):
            cli.main(["run", "--rounds", "1", "--out", str(tmp_path / "o")])
        assert cli.main(["sweep", "--values", "0.8:0.4:0.1", "--out",
                         str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("raw", [
        pytest.param(b"\xff\xfe{", id="undecodable"),
        pytest.param(b'{"s_max": 1%s}' % (b"0" * 5000), id="5000-digit-int"),
    ])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, raw):
        """Bytes that do not decode, and an integer past Python's digit
        limit for str-to-int conversion (where the limit exists), raise
        ValueErrors that loading files as config errors."""
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_overflowing_constant_exits_1_naming_it(self, tmp_path, capsys,
                                                    command):
        """alpha passes validation, but alpha ** 2 overflows in the
        smoothness constants: the run diverges, it does not crash."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 1e300}')
        code = cli.main([command, "--config", str(cfg), "--rounds", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert ("run diverged: non-finite constant meta_div_sq"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_overflowing_bound_constant_exits_1_naming_it(self, tmp_path,
                                                          capsys, command):
        """s_max = 10**200 fits in a float, but its square does not: phi
        is infinite, and the run diverges instead of raising
        OverflowError."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"s_max": %d}' % 10 ** 200)
        code = cli.main([command, "--config", str(cfg), "--rounds", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert ("run diverged: non-finite constant phi"
                in capsys.readouterr().err)

    def test_overflowing_importance_exits_1_naming_the_server(self, tmp_path,
                                                              capsys):
        """alpha = 1e150 keeps the constants finite, but a server's squared
        meta-gradient norm overflows: the run diverges at once instead of
        writing an infinite importance."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 1e150}')
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg), "--rounds", "1",
                         "--out", str(out)])
        assert code == 1
        assert ("run diverged: non-finite squared gradient norm at es "
                in capsys.readouterr().err)
        assert not (out / "rounds.csv").exists()

    def test_cli_overrides_reach_the_manifest(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["run", "--rounds", "1", "--mode", "hfl",
                         "--selection", "full", "--rho", "0.9",
                         "--seed", "8", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["mode"] == "hfl" and cfg["selection"] == "full"
        assert cfg["rho"] == 0.9 and cfg["seed"] == 8


def _child_env(**overrides):
    """This process's environment, with the package under test first on
    PYTHONPATH and ``overrides`` set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hpfl.__file__)))
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _dynamic_arch_openblas():
    """True when NumPy's BLAS is an OpenBLAS that picks its kernels by CPU,
    so OPENBLAS_CORETYPE can force other kernels on one machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # NumPy before 1.26 has no dict form
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


_ON_X86_64 = platform.machine().lower() in ("x86_64", "amd64")
_THREAD_CONFIGS = [
    ({}, "desk"),
    ({"model": "mlp", "hidden": 32}, "mlp"),
    # the shared-point logits are a (10, 9) @ (9, 12800) product; OpenBLAS
    # 0.3 splits one GEMM across two threads once m·n·k reaches 2 · 2^18,
    # here from 5826 columns on, so this checks that the kernels block it
    ({"k": 20, "n_k": 20}, "k20-n20"),
]


@pytest.mark.parametrize("config, core", [
    pytest.param(config, None, id=name) for config, name in _THREAD_CONFIGS
] + [
    # the Prescott kernels, like the Haswell ones, split a GEMM across
    # threads in a way that changes its bits
    pytest.param(config, "Prescott", id="prescott-" + name,
                 marks=pytest.mark.skipif(
                     not _ON_X86_64 or not _dynamic_arch_openblas(),
                     reason="needs x86-64 and a DYNAMIC_ARCH OpenBLAS"))
    for config, name in _THREAD_CONFIGS
])
def test_rounds_csv_is_the_same_on_one_and_two_blas_threads(config, core,
                                                             tmp_path):
    """hpfl run writes the same rounds.csv bytes with OpenBLAS on one thread
    and on two, each run in its own process, under this CPU's kernels and
    under OpenBLAS's Prescott kernels."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    kernel = {} if core is None else {"OPENBLAS_CORETYPE": core}
    written = []
    for threads in ("1", "2"):
        out = tmp_path / ("threads" + threads)
        proc = subprocess.run(
            [sys.executable, "-m", "hpfl.cli", "run", "--config", str(cfg),
             "--out", str(out)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads, **kernel),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        written.append((out / "rounds.csv").read_bytes())
    assert written[0] == written[1]


def _cpu_has_avx2():
    """The Haswell kernels need AVX2; the Prescott ones run on any x86-64."""
    try:
        with open("/proc/cpuinfo") as fh:
            return " avx2" in fh.read()
    except OSError:
        return False


# each run prints its rounds.csv text, every round's selection and versions,
# and the CPU features NumPy has SIMD kernels for that are on: found on the
# CPU and not disabled
_DECISIONS = """
import json, sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:   # NumPy before 2.0
    from numpy.core import _multiarray_umath as umath
from hpfl.experiment import rounds_csv_text, run_experiment
from hpfl.scenario import Scenario
engine = run_experiment(Scenario(**json.loads(sys.argv[1])))
print(json.dumps([rounds_csv_text(engine.records),
                  [[r.pi, r.versions] for r in engine.records],
                  [f for f in umath.__cpu_dispatch__
                   if umath.__cpu_features__.get(f)]]))
"""
# BLAS kernels of other CPUs and NumPy's SIMD kernels move floats by at most
# about 1e-15 relative; the bound leaves a thousandfold margin and stays far
# inside the golden files' 1e-9
CROSS_KERNEL_RTOL = 1e-12


def _decisions(config, **env):
    """(rounds.csv text, [[pi, versions]] a round, SIMD features on) of a
    10-round run at seed 0 in its own process, on one BLAS thread, with env
    set; NPY_DISABLE_CPU_FEATURES is unset unless env sets it."""
    child = _child_env(OPENBLAS_NUM_THREADS="1", **env)
    if "NPY_DISABLE_CPU_FEATURES" not in env:
        child.pop("NPY_DISABLE_CPU_FEATURES", None)
    proc = subprocess.run(
        [sys.executable, "-c", _DECISIONS,
         json.dumps(dict(config, rounds=10, seed=0))],
        env=child, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _assert_same_decisions(run_a, run_b):
    """Two runs selected the same servers at the same versions, with the
    same integer columns, and their float columns agree within
    CROSS_KERNEL_RTOL."""
    (csv_a, decisions_a, _), (csv_b, decisions_b, _) = run_a, run_b
    assert decisions_a == decisions_b
    cells_a, cells_b = (np.array([line.split(",")
                                  for line in text.splitlines()[1:]])
                        for text in (csv_a, csv_b))
    names = CSV_HEADER.split(",")
    ints = [names.index(c) for c in ("round", "A_eff", "runtime_us")]
    floats = [i for i in range(len(names)) if i not in ints]
    np.testing.assert_array_equal(cells_a[:, ints], cells_b[:, ints])
    np.testing.assert_allclose(cells_a[:, floats].astype(float),
                               cells_b[:, floats].astype(float),
                               rtol=CROSS_KERNEL_RTOL, atol=0.0)


@pytest.mark.skipif(
    not _ON_X86_64 or not _dynamic_arch_openblas() or not _cpu_has_avx2(),
    reason="needs x86-64 with AVX2 and a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("config", [
    pytest.param({}, id="desk"),
    pytest.param({"model": "mlp", "hidden": 32}, id="mlp"),
])
def test_other_blas_kernels_make_the_same_decisions(config):
    """Under the Prescott and the Haswell OpenBLAS kernels, each forced on
    one thread in its own process, a run selects the same servers at the
    same versions, with the same integer columns, and its float columns
    agree within CROSS_KERNEL_RTOL.  The bytes differ, which shows that
    the override took effect."""
    runs = [_decisions(config, OPENBLAS_CORETYPE=core)
            for core in ("Prescott", "Haswell")]
    assert runs[0][0] != runs[1][0]
    _assert_same_decisions(*runs)


@pytest.mark.parametrize("config", [
    pytest.param({}, id="desk"),
    pytest.param({"model": "mlp", "hidden": 32}, id="mlp"),
])
def test_numpy_simd_dispatch_makes_the_same_decisions(config):
    """With every SIMD feature NumPy dispatches on and found on this CPU
    disabled (NPY_DISABLE_CPU_FEATURES), a run makes the same decisions
    as with them on, and its float columns agree within
    CROSS_KERNEL_RTOL.  The child reports the features off, which shows
    that the override took effect."""
    on = _decisions(config)
    if not on[2]:
        pytest.skip("NumPy dispatches on no SIMD feature of this CPU")
    off = _decisions(config, NPY_DISABLE_CPU_FEATURES=" ".join(on[2]))
    assert off[2] == []
    _assert_same_decisions(off, on)
