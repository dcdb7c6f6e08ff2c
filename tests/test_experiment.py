"""Experiment driver, CSV/manifest outputs, audit, sweep, CLI."""

import json

import numpy as np
import pytest

from hpfl import cli
from hpfl.experiment import (
    AUDIT_HEADER,
    CSV_HEADER,
    manifest_dict,
    parse_sweep_values,
    rounds_csv_text,
    run_audit,
    run_experiment,
    run_sweep,
    write_outputs,
)
from hpfl.scenario import Scenario, save_scenario

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

    def test_write_outputs_creates_files(self, tmp_path):
        res = run_experiment(SMALL)
        write_outputs(res, tmp_path)
        csv_text = (tmp_path / "rounds.csv").read_text()
        assert csv_text == rounds_csv_text(res.records)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == SMALL.config_hash()


class TestTrajectorySemantics:
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


class TestSweep:
    def test_parse_forms(self):
        assert parse_sweep_values("0.4:0.8:0.2") == (0.4, 0.6, 0.8)
        assert parse_sweep_values("1,2,5") == (1.0, 2.0, 5.0)
        assert parse_sweep_values("3") == (3.0,)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_sweep_values("a:b:c")
        with pytest.raises(ValueError):
            parse_sweep_values("")
        with pytest.raises(ValueError):
            parse_sweep_values("1:0.5")

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

    def test_infeasible_allocation_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        save_scenario(SMALL.replace(b_min=4e6, rounds=1), cfg)
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 3

    def test_audit_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        save_scenario(SMALL.replace(rounds=2), cfg)
        out = tmp_path / "a"
        code = cli.main(["audit", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "audit.csv").exists()

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
    ])
    def test_malformed_value_exits_2_naming_the_field(self, tmp_path, capsys,
                                                      raw, args, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        code = cli.main(["run", "--config", str(cfg), "--rounds", "1",
                         "--out", str(tmp_path / "o")] + args)
        assert code == 2
        assert "config error: %s: " % field in capsys.readouterr().err

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
