import json

import pytest

from mergelab.config import (
    ConfigError,
    ExperimentConfig,
    adapt_config_from_dict,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_config_file,
    load_config_section,
    suite_config_from_dict,
)
from mergelab.engine import LossSpec


def test_unknown_field_is_named():
    with pytest.raises(ConfigError, match="bogus"):
        suite_config_from_dict({"num_tasks": 2, "bogus": 1})
    with pytest.raises(ConfigError, match="mystery"):
        adapt_config_from_dict({"mystery": True})
    with pytest.raises(ConfigError, match="extra"):
        experiment_config_from_dict({"extra": {}})


def test_invalid_values_reported_with_section():
    with pytest.raises(ConfigError, match="suite"):
        suite_config_from_dict({"shared_subspace_dim": 99, "input_dim": 4})
    with pytest.raises(ConfigError, match="adapt"):
        adapt_config_from_dict({"batch_size": 0})
    with pytest.raises(ConfigError, match="adapt.loss"):
        adapt_config_from_dict({"loss": "not_a_loss"})


def test_method_and_analysis_validation():
    with pytest.raises(ConfigError, match="method"):
        ExperimentConfig(method="magic")
    with pytest.raises(ConfigError, match="analyses"):
        ExperimentConfig(analyses=("eigenplots",))
    # sparsity needs a coefficient-bearing method
    with pytest.raises(ConfigError, match="sparsity"):
        ExperimentConfig(method="individual", analyses=("sparsity",))
    ExperimentConfig(method="symerge", analyses=("sparsity", "eval"))


def test_adapt_config_parses_loss_and_selector():
    cfg = adapt_config_from_dict({"loss": "kl", "trainable_layer": [0, 2]})
    assert cfg.loss == LossSpec("kl")
    assert cfg.trainable_layer == (0, 2)


def test_round_trip_through_dict():
    cfg = ExperimentConfig(analyses=("eval", "sparsity"))
    doc = experiment_config_to_dict(cfg)
    again = experiment_config_from_dict(doc)
    assert experiment_config_to_dict(again) == doc


def test_load_config_file_unwraps_manifests(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"suite": {"num_tasks": 3}}))
    assert load_config_file(plain) == {"suite": {"num_tasks": 3}}
    manifest = tmp_path / "run.manifest.json"
    manifest.write_text(json.dumps({"command": "gen", "config": {"suite": {"num_tasks": 5}},
                                    "seed": 1, "manifest_hash": "x"}))
    assert load_config_file(manifest) == {"suite": {"num_tasks": 5}}
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config_file(broken)
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.json")


def test_load_config_section_unwraps_experiment_configs_and_manifests(tmp_path):
    path = tmp_path / "c.json"
    for doc, section, want in [
        ({"num_tasks": 3}, "suite", {"num_tasks": 3}),  # the section itself
        ({"suite": {"num_tasks": 3}, "adapt": {"iterations": 2}}, "suite", {"num_tasks": 3}),
        ({"suite": {"num_tasks": 3}, "adapt": {"iterations": 2}}, "adapt", {"iterations": 2}),
        ({"command": "adapt", "config": {"method": "symerge", "adapt": {"iterations": 2}}},
         "adapt", {"iterations": 2}),
    ]:
        path.write_text(json.dumps(doc))
        assert load_config_section(path, section) == want
    path.write_text(json.dumps({"suite": [1, 2]}))
    with pytest.raises(ConfigError, match="'suite' is not a JSON object"):
        load_config_section(path, "suite")


def test_cli_gen_with_a_suite_section_that_is_not_an_object_exits_2(tmp_path, capsys):
    from mergelab.cli import main
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"suite": [3]}))
    assert main(["gen", "--config", str(config), "--out", str(tmp_path / "d.bundle")]) == 2
    assert "'suite' is not a JSON object" in capsys.readouterr().err
