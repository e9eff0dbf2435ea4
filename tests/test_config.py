import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergelab.config import (
    ConfigError,
    adapt_config_from_dict,
    load_config_file,
    load_config_section,
    suite_config_from_dict,
)
from mergelab.engine import LOSS_KINDS, LossSpec
from mergelab.suites import CorruptionSpec


def test_unknown_field_is_named():
    with pytest.raises(ConfigError, match="bogus"):
        suite_config_from_dict({"num_tasks": 2, "bogus": 1})
    with pytest.raises(ConfigError, match="mystery"):
        adapt_config_from_dict({"mystery": True})


def test_invalid_values_reported_with_section():
    with pytest.raises(ConfigError, match="suite"):
        suite_config_from_dict({"shared_subspace_dim": 99, "input_dim": 4})
    with pytest.raises(ConfigError, match="adapt"):
        adapt_config_from_dict({"batch_size": 0})
    with pytest.raises(ConfigError, match="adapt.loss"):
        adapt_config_from_dict({"loss": "not_a_loss"})


def test_adapt_config_parses_loss_and_selector():
    cfg = adapt_config_from_dict({"loss": "kl", "trainable_layer": [0, 2]})
    assert cfg.loss == LossSpec("kl")
    assert cfg.trainable_layer == (0, 2)


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


@pytest.mark.parametrize("data", [b"\xff{}", b"[" * 100_000], ids=["not_utf8", "too_deep"])
def test_cli_gen_with_a_config_file_that_is_not_json_exits_2_naming_it(tmp_path, capsys, data):
    from mergelab.cli import main
    config = tmp_path / "suite.json"
    config.write_bytes(data)
    assert main(["gen", "--config", str(config), "--out", str(tmp_path / "d.bundle")]) == 2
    assert "config file suite.json: invalid JSON (" in capsys.readouterr().err
    assert not (tmp_path / "d.bundle").exists()


# any value a JSON config file can hold, plus the values each field accepts
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(value=json_values | st.lists(st.integers(-1, 5), max_size=4))
def test_regression_tasks_build_or_name_the_field(value):
    try:
        cfg = suite_config_from_dict({"num_tasks": 4, "regression_tasks": value})
    except ConfigError as exc:
        assert str(exc).startswith("suite.regression_tasks: "), exc
        return
    assert isinstance(value, list) and all(type(i) is int and 0 <= i < 4 for i in value)
    assert cfg.regression_tasks == tuple(value)


@settings(max_examples=200, deadline=None)
@given(value=json_values | st.sampled_from(LOSS_KINDS))
def test_adapt_loss_builds_or_names_the_field(value):
    try:
        cfg = adapt_config_from_dict({"loss": value})
    except ConfigError as exc:
        assert str(exc).startswith("adapt.loss: "), exc
        return
    assert cfg.loss == (None if value is None else LossSpec(value))


@settings(max_examples=200, deadline=None)
@given(value=json_values | st.integers(-1, 7))
def test_corruption_severity_builds_or_names_the_field(value):
    try:
        spec = CorruptionSpec("gaussian_noise", value)
    except (TypeError, ValueError) as exc:
        assert str(exc).startswith("severity: "), exc
        return
    assert type(value) is int and 1 <= value <= 5 and spec.severity == value
