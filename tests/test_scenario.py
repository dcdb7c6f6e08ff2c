"""Scenario configuration: defaults, validation, file IO, hashing."""

import json

import numpy as np
import pytest

from hpfl.scenario import ConfigError, Scenario, load_scenario, save_scenario


class TestDefaults:
    def test_documented_defaults(self):
        s = Scenario()
        assert s.k == 5 and s.n_k == 4
        assert s.family == "classification" and s.model == "logistic"
        assert s.mode == "hpfl" and s.selection == "proposed"
        assert s.allocation == "progressive"
        assert s.rho == 0.5 and s.s_max == 2 and s.a_max == 3
        assert s.alpha == 0.03 and s.beta == 0.07
        assert s.total_b == 5e6 and s.rounds == 50 and s.seed == 0
        assert s.phi_override == -1.0


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("rho", 1.5),
        ("rho", -0.1),
        ("k", 0),
        ("n_k", 0),
        ("alpha", 0.0),
        ("beta", -1.0),
        ("s_max", -1),
        ("a_max", 0),
        ("total_b", 0.0),
        ("labels_per_ue", 0),
        ("rounds", -1),
        ("mode", "sync"),
        ("selection", "greedy"),
        ("allocation", "waterfill"),
        ("family", "sinusoid"),
        ("model", "cnn"),
        ("k", 2.5),
        ("k", "5"),
        ("n_k", True),
        ("seed", None),
        ("total_b", float("inf")),
        ("rho", float("nan")),
        pytest.param("b_min", 10 ** 400, id="b_min-too-big-for-a-float"),
        ("alpha", False),
        ("mode", 1),
        ("seed", -1),
        ("z_bits", 0.0),
        ("p_es", 0.0),
        ("cpu_hz", 0.0),
        ("n_eval", 0),
        ("d_ue_hi", 1.0),
        ("d_es_hi", 10.0),
        ("eig_hi", 0.1),
        ("n0_dbm_hz", 1e308),
        ("n0_dbm_hz", -1e308),
        ("o_ue_db", 1e308),
        ("o_es_db", 1e308),
        ("o_es_db", -1e308),
        ("probe_count", 1),
    ])
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match="^%s: " % field):
            Scenario(**{field: value})

    def test_ints_pass_as_floats_and_numpy_ints_as_ints(self):
        s = Scenario(total_b=4000000, k=np.int64(3))
        assert s.total_b == 4e6 and s.k == 3

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match="rho"):
            Scenario().replace(rho=2.0)

    def test_replace_returns_modified_copy(self):
        base = Scenario()
        other = base.replace(seed=9, rho=0.8)
        assert other.seed == 9 and other.rho == 0.8
        assert base.seed == 0 and base.rho == 0.5


class TestFileIO:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert load_scenario(path) == Scenario()

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "cfg.json"
        s = Scenario(k=7, rho=0.65, mode="hfl", seed=42)
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_partial_config_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 2, "rounds": 5}))
        s = load_scenario(path)
        assert s.k == 2 and s.rounds == 5
        assert s.n_k == Scenario().n_k

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 2, "cadence": 1, "zeta": 0}))
        with pytest.raises(ConfigError, match="cadence, zeta"):
            load_scenario(path)

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_scenario(path)

    def test_invalid_value_in_file_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": 3.0}))
        with pytest.raises(ConfigError, match="rho"):
            load_scenario(path)


class TestConfigHash:
    def test_stable_and_value_sensitive(self):
        a = Scenario()
        assert a.config_hash() == a.config_hash()
        assert a.config_hash() == Scenario().config_hash()
        for field, value in [("seed", 1), ("rho", 0.51), ("k", 6),
                             ("mode", "hfl")]:
            assert a.replace(**{field: value}).config_hash() != a.config_hash()

    def test_hash_is_hex_digest(self):
        h = Scenario().config_hash()
        assert len(h) == 64
        int(h, 16)
