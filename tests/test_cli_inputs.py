"""Inputs the commands reject before they write anything, and manifests that
record only what a run used: `finetune` widths and training settings,
typed `adapt` config fields, `gen --severity`, and the `adapt` config
fields that entropy adaptation never reads."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mergelab.cli import main
from mergelab.config import ANALYSES, ConfigError, adapt_config_from_dict
from mergelab.engine import init_params
from mergelab.serialization import load_bundle, load_suite, save_bundle, save_suite
from mergelab.suites import spawn_rng

from conftest import REFERENCE_CONFIG, REPO_ROOT

SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    data, ckpts = root / "data.bundle", root / "ckpts"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3",
                 "--input-dim", "6", "--samples", "24", "--subspace-dim", "3",
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    return root


@pytest.mark.parametrize("flags, named", [
    (["--epochs", "-1"], "epochs must be nonnegative, got -1"),
    (["--lr", "0"], "learning rate must be positive"),
    (["--hidden", "32,0,16"], "layer widths must be positive, got (6, 32, 0, 16)"),
], ids=["epochs", "lr", "hidden"])
def test_finetune_that_fails_writes_nothing(small, tmp_path, flags, named):
    out = tmp_path / "ckpts"
    proc = subprocess.run([sys.executable, "-m", "mergelab", "finetune",
                           "--data", str(small / "data.bundle"), "--out-dir", str(out),
                           "--pre-epochs", "1", *flags],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 3, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_init_params_rejects_a_non_positive_width():
    with pytest.raises(ValueError, match=r"layer widths must be positive, got \(3, -1\)"):
        init_params((3, -1), {"t": 2}, spawn_rng(0, "init"))


@pytest.mark.parametrize("field, value", [
    ("iterations", 2.5), ("batch_size", 8.5), ("iterations", True), ("seed", 1.5),
    ("init_coeff", True), ("init_coeff", "abc"), ("lr_layer", float("nan")),
    ("filter_enabled", "no"), ("train_coeffs", 0),
])
def test_adapt_config_fields_are_typed(field, value):
    with pytest.raises(ConfigError, match=f"^adapt.{field}: expected "):
        adapt_config_from_dict({field: value})


def _adapt(small, capsys, method: str, adapt: dict) -> tuple:
    config = small / "adapt.json"
    config.write_text(json.dumps({"adapt": {"iterations": 2, **adapt}}))
    out = small / f"adapted_{method}"
    capsys.readouterr()
    code = main(["adapt", "--data", str(small / "data.bundle"),
                 "--ckpt-dir", str(small / "ckpts"), "--method", method,
                 "--config", str(config), "--out-dir", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("field, value", [
    ("iterations", 2.5), ("batch_size", 8.5), ("init_coeff", True), ("init_coeff", "abc"),
    ("filter_enabled", "no"), ("train_coeffs", 0), ("seed", 1.5),
])
def test_adapt_with_a_mistyped_config_field_exits_2_naming_it(small, capsys, field, value):
    code, err, out = _adapt(small, capsys, "symerge", {field: value})
    assert code == 2, err
    assert f"config error: adapt.{field}: " in err
    assert not out.exists()


def test_adamerging_manifest_records_the_defaults_of_fields_it_never_reads(small, capsys):
    code, err, out = _adapt(small, capsys, "adamerging",
                            {"loss": "kl", "lr_layer": 0.5, "filter_enabled": False,
                             "batch_size": 8})
    assert code == 0, err
    adapt = json.loads((out / "adapt.manifest.json").read_text())["config"]["adapt"]
    assert adapt["loss"] is None and adapt["lr_layer"] == 0.01
    assert adapt["filter_enabled"] is True and adapt["trainable_layer"] is None
    assert adapt["batch_size"] == 8  # a field the run reads is kept


def _gen(tmp_path, capsys, *flags) -> tuple:
    out = tmp_path / "data.bundle"
    capsys.readouterr()
    code = main(["gen", "--config", str(REFERENCE_CONFIG), "--samples", "20", *flags,
                 "--out", str(out)])
    return code, capsys.readouterr().err, out


def test_gen_severity_needs_a_corruption(tmp_path, capsys):
    code, err, out = _gen(tmp_path, capsys, "--severity", "3")
    assert code == 2 and "config error: --severity: " in err
    assert not out.exists()


def test_gen_corruption_defaults_to_severity_5(tmp_path, capsys):
    code, err, out = _gen(tmp_path, capsys, "--corruption", "feature_mask")
    assert code == 0, err
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["config"]["corruption"] == {"kind": "feature_mask", "severity": 5}
    default = out.read_bytes()
    code, err, out = _gen(tmp_path, capsys, "--corruption", "feature_mask", "--severity", "5")
    assert code == 0, err
    assert out.read_bytes() == default


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mergelab", *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


@pytest.mark.parametrize("section, field, value", [
    ("suite", "regression_tasks", 5),
    ("adapt", "loss", 5),
    ("adapt", "init_coeff", "auto"),
], ids=["regression_tasks", "loss", "init_coeff_auto"])
def test_a_mistyped_config_field_exits_2_without_traceback(small, tmp_path, section, field,
                                                           value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({section: {field: value}}))
    if section == "suite":
        proc = _run("gen", "--config", config, "--out", tmp_path / "d.bundle")
    else:
        proc = _run("adapt", "--data", small / "data.bundle", "--ckpt-dir", small / "ckpts",
                    "--method", "symerge", "--config", config, "--out-dir", tmp_path / "out")
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {section}.{field}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_layers_that_repeat_a_layer_exit_3_naming_the_task(small, tmp_path):
    rng = np.random.default_rng(0)
    arrays = {}
    for p in range(2):  # layers that fit encoder layer 0 of `small` (6 -> 4)
        arrays[f"task1.{p}.w"] = rng.normal(size=(4, 6))
        arrays[f"task1.{p}.b"] = rng.normal(size=4)
    layers = tmp_path / "trainable.bundle"
    save_bundle(layers, {"format": "trainable", "selectors": {"task1": [0, 0]}}, arrays)
    proc = _run("eval", "--data", small / "data.bundle", "--ckpt-dir", small / "ckpts",
                "--method", "task_arithmetic", "--layers", layers, "--out-dir", tmp_path / "out")
    assert proc.returncode == 3, proc.stderr
    assert "error: task 'task1': trainable layers (0, 0) repeat a layer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_layers_with_an_array_beyond_the_selector_exit_3_naming_it(small, tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"task1.0.w": rng.normal(size=(3, 4)), "task1.0.b": rng.normal(size=3),
              "task1.7.w": rng.normal(size=(3, 4))}  # a head (4 -> 3 classes), then an extra
    layers = tmp_path / "trainable.bundle"
    save_bundle(layers, {"format": "trainable", "selectors": {"task1": "head"}}, arrays)
    proc = _run("eval", "--data", small / "data.bundle", "--ckpt-dir", small / "ckpts",
                "--method", "task_arithmetic", "--layers", layers, "--out-dir", tmp_path / "out")
    assert proc.returncode == 3, proc.stderr
    assert "array 'task1.7.w' is named by no meta field" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_adapt_that_diverges_exits_3_naming_the_pass_and_the_task(small, tmp_path):
    out = tmp_path / "out"
    proc = _run("adapt", "--data", small / "data.bundle", "--ckpt-dir", small / "ckpts",
                "--method", "symerge", "--lr-coeffs", "1e6", "--lr-layer", "1e6",
                "--out-dir", out)
    assert proc.returncode == 3, proc.stderr
    assert re.search(r"error: adaptation diverged: .* on pass \d+ for task 'task\d'",
                     proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "coeffs.json").exists()


@pytest.fixture(scope="module")
def empty_split(small):
    """`small`'s suite with task0's test split (and, in a second file, its
    train split) cut to 0 rows."""
    suite = load_suite(small / "data.bundle")
    paths = {}
    for split in ("test", "train"):
        task = suite.task("task0")
        kept = {a: getattr(task, a) for a in (f"x_{split}", f"y_{split}")}
        for a, values in kept.items():
            setattr(task, a, values[:0])
        paths[split] = small / f"empty_{split}.bundle"
        save_suite(suite, paths[split])
        for a, values in kept.items():
            setattr(task, a, values)
    return paths


@pytest.mark.parametrize("command", [
    ["eval", "--method", "weight_avg"],
    ["adapt", "--method", "symerge"],
    *(["analyze", "--method", "weight_avg", "--analyses", a] for a in ANALYSES),
    ["finetune"],
], ids=["eval", "adapt", *(f"analyze-{a}" for a in ANALYSES), "finetune"])
def test_a_suite_with_an_empty_split_exits_3_naming_the_split(small, empty_split, tmp_path,
                                                              command):
    split = "train" if command[0] == "finetune" else "test"
    data = empty_split[split]
    ckpts = [] if command[0] == "finetune" else ["--ckpt-dir", small / "ckpts"]
    proc = _run(*command, "--data", data, *ckpts, "--out-dir", tmp_path / "out")
    assert proc.returncode == 3, proc.stderr
    assert (f"error: {data}: task 'task0' has an empty {split} split "
            f"(array 'task0.x_{split}' has 0 rows)") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def _edited_suite(small, name: str, edit) -> object:
    """A copy of `small`'s suite bundle with `edit(meta, arrays)` applied."""
    meta, arrays = load_bundle(small / "data.bundle")
    edit(meta, arrays)
    path = small / f"{name}.bundle"
    save_bundle(path, meta, arrays)
    return path


def _set(name: str, values):
    return lambda meta, arrays: arrays.update({name: values(arrays[name])})


def _declare_regression(meta, arrays):
    meta["tasks"][1]["kind"] = "regression"


def _label(value):
    def put(y):
        y = y.copy()
        y[0] = value
        return y
    return put


# `small` holds 2 tasks of 3 classes over 6 input dims, 24 rows per split
@pytest.mark.parametrize("edit, array, problem", [
    (_set("task0.y_test", lambda y: y[:10]), "task0.y_test",
     "of shape (10,) must have the 24 rows of 'task0.x_test'"),
    (_declare_regression, "task1.y_train", "of shape (24,) must be 2-D"),
    (_set("task0.y_test", _label(99)), "task0.y_test",
     "of shape (24,) must hold 1-D integer labels in 0..2"),
    (_set("task0.y_test", _label(-1)), "task0.y_test",
     "of shape (24,) must hold 1-D integer labels in 0..2"),
    (_set("task0.y_train", lambda y: y.astype(np.float64)), "task0.y_train",
     "of shape (24,) must hold 1-D integer labels in 0..2"),
    (_set("task0.x_test", lambda x: x[:, :4]), "task0.x_test",
     "of shape (24, 4) must be 2-D with 6 columns"),
], ids=["y_rows", "regression_1d", "label_99", "label_-1", "float_labels", "x_columns"])
@pytest.mark.parametrize("command", [["finetune"], ["adapt", "--method", "symerge"],
                                     ["eval", "--method", "weight_avg"]],
                         ids=["finetune", "adapt", "eval"])
def test_a_suite_that_breaks_its_contract_exits_3_naming_the_array(small, tmp_path, command,
                                                                   edit, array, problem):
    data = _edited_suite(small, "broken", edit)
    ckpts = [] if command[0] == "finetune" else ["--ckpt-dir", small / "ckpts"]
    proc = _run(*command, "--data", data, *ckpts, "--out-dir", tmp_path / "out")
    assert proc.returncode == 3, proc.stderr
    task = array.partition(".")[0]
    assert f"error: {data}: task '{task}': array '{array}' {problem}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def _drop_task1(meta, arrays):
    meta["tasks"] = meta["tasks"][:1]
    for name in [n for n in arrays if n.startswith("task1.")]:
        del arrays[name]


def _add_task2(meta, arrays):
    meta["tasks"].append({"id": "task2", "kind": "classification"})
    arrays.update({n.replace("task0.", "task2."): a for n, a in list(arrays.items())
                   if n.startswith("task0.")})


@pytest.mark.parametrize("edit, only_data, only_ckpts", [
    (_drop_task1, "none", "task1"),
    (_add_task2, "task2", "none"),
], ids=["task_missing", "task_extra"])
@pytest.mark.parametrize("command", [["adapt", "--method", "symerge"],
                                     ["eval", "--method", "weight_avg"]], ids=["adapt", "eval"])
def test_a_suite_that_holds_other_tasks_than_the_checkpoints_exits_3(small, tmp_path, command,
                                                                     edit, only_data,
                                                                     only_ckpts):
    data = _edited_suite(small, edit.__name__, edit)
    ckpts = small / "ckpts"
    proc = _run(*command, "--data", data, "--ckpt-dir", ckpts, "--out-dir", tmp_path / "out")
    assert proc.returncode == 3, proc.stderr
    assert (f"error: {data} and {ckpts} do not hold the same tasks "
            f"(only in {data}: {only_data}; only in {ckpts}: {only_ckpts})") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task_ids, columns, named", [
    (["task0", "taskX"], 1, "do not hold the same tasks (only in {coeffs}: taskX; "
                            "only in {ckpts}: task1)"),
    (["task0", "task1"], 2, "do not hold the same encoder layers (only in {coeffs}: 1; "
                            "only in {ckpts}: none)"),
], ids=["unknown_task", "columns"])
def test_coeffs_that_do_not_fit_the_checkpoints_exit_3_naming_both(small, tmp_path, task_ids,
                                                                   columns, named):
    coeffs, ckpts = tmp_path / "coeffs.json", small / "ckpts"
    coeffs.write_text(json.dumps({"format": "coeffs", "task_ids": task_ids,
                                  "num_layers": columns, "values": [[0.3] * columns] * 2}))
    proc = _run("eval", "--data", small / "data.bundle", "--ckpt-dir", ckpts,
                "--method", "task_arithmetic", "--coeffs", coeffs, "--out-dir", tmp_path / "out")
    assert proc.returncode == 3, proc.stderr
    assert f"error: {coeffs} " in proc.stderr
    assert named.format(coeffs=coeffs, ckpts=ckpts) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_a_key_error_prints_its_message_without_quotes(monkeypatch, capsys):
    from mergelab import commands
    from mergelab.engine import UnknownTaskError

    def fail(args):
        raise UnknownTaskError("missing test inputs for 'task3'")

    monkeypatch.setattr(commands, "eval", fail)
    assert main(["eval", "--data", "d", "--ckpt-dir", "c", "--out-dir", "o"]) == 3
    assert capsys.readouterr().err == "error: missing test inputs for 'task3'\n"


def test_adapt_with_a_hard_label_loss_on_a_regression_task_exits_3(tmp_path):
    data, ckpts, out = tmp_path / "data.bundle", tmp_path / "ckpts", tmp_path / "out"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3", "--input-dim", "6",
                 "--samples", "24", "--subspace-dim", "3", "--seed", "3",
                 "--regression", "1"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    proc = _run("adapt", "--data", data, "--ckpt-dir", ckpts, "--method", "symerge",
                "--loss", "cross_entropy_hard", "--out-dir", out)
    assert proc.returncode == 3, proc.stderr
    assert "error: hard-label loss needs classification self-labels for 'task1'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
