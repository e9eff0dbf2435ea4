"""Inputs the commands reject before they write anything, and manifests that
record only what a run used: `finetune` widths and training settings,
typed `adapt` config fields, `gen --severity`, and the `adapt` config
fields that entropy adaptation never reads.

The rejected inputs run through `cli.main` in process; one real
`python -m mergelab` process per exit code checks that no traceback
reaches stderr."""

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergelab.cli import main
from mergelab.config import (ANALYSES, CONSTANT_METHODS, LEARNED_METHODS, METHODS, ConfigError,
                             adapt_config_from_dict)
from mergelab.engine import LOSS_KINDS, LayerParams, ParamSet, init_params
from mergelab.serialization import load_bundle, load_checkpoint, save_bundle, save_checkpoint
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
    (["--lr", "nan"], "error: lr: learning rate must be positive and finite, got nan"),
    (["--lr", "inf"], "error: lr: learning rate must be positive and finite, got inf"),
    (["--pre-lr", "0"], "error: pre_lr: learning rate must be positive and finite, got 0.0"),
], ids=["epochs", "lr", "hidden", "lr_nan", "lr_inf", "pre_lr"])
def test_finetune_that_fails_writes_nothing(small, tmp_path, flags, named):
    out = tmp_path / "ckpts"
    proc = _run("finetune", "--data", small / "data.bundle", "--out-dir", out,
                "--pre-epochs", "1", *flags)
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


def _run(*args) -> SimpleNamespace:
    """`cli.main` on `args` in process: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(map(str, args)))
    return SimpleNamespace(returncode=code, stderr=err.getvalue())


def _process(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mergelab", *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


@pytest.mark.parametrize("code, args, named", [
    (1, ["gen", "--regression", "a"], "error: argument --regression: expected "
                                      "comma-separated integers, got 'a'"),
    (2, ["gen", "--tasks", "0"], "config error: suite.num_tasks: "),
    (3, ["finetune", "--data", "{data}", "--epochs", "-1"], "epochs must be nonnegative, got -1"),
], ids=["usage", "config", "runtime"])
def test_each_exit_code_of_a_real_process_comes_without_traceback(small, tmp_path, code, args,
                                                                  named):
    out = tmp_path / "out"
    proc = _process(*(a.format(data=small / "data.bundle") for a in args),
                    "--out" if args[0] == "gen" else "--out-dir", out)
    assert proc.returncode == code, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("section, field, value", [
    ("suite", "regression_tasks", 5),
    ("adapt", "loss", 5),
    ("adapt", "init_coeff", "auto"),
    ("adapt", "lr_coeffs", 0),
    ("adapt", "iterations", -1),
    ("suite", "num_tasks", 0),
    ("suite", "noise_std", -1.0),
    ("suite", "task_rotation_strength", 2.0),
    ("suite", "shared_subspace_dim", 30),
], ids=["regression_tasks", "loss", "init_coeff_auto", "lr_coeffs_0", "iterations_negative",
        "num_tasks_0", "noise_std_negative", "rotation_2", "subspace_dim_30"])
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
    """`small`'s suite bundle with task0's test split (and, in a second file,
    its train split) cut to 0 rows, which no built suite can hold."""
    def cut(split):
        def edit(meta, arrays):
            for a in (f"task0.x_{split}", f"task0.y_{split}"):
                arrays[a] = arrays[a][:0]
        return edit
    return {split: _edited_suite(small, f"empty_{split}", cut(split))
            for split in ("test", "train")}


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


def _regression_targets(train_columns: int, test_columns: int):
    """Declares task1 regression, with targets of the given widths."""
    def edit(meta, arrays):
        _declare_regression(meta, arrays)
        arrays.update({"task1.y_train": np.ones((24, train_columns)),
                       "task1.y_test": np.ones((24, test_columns))})
    return edit


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
    (_regression_targets(3, 1), "task1.y_test",
     "of shape (24, 1) must have the 3 columns of 'task1.y_train' of shape (24, 3)"),
], ids=["y_rows", "regression_1d", "label_99", "label_-1", "float_labels", "x_columns",
        "regression_columns"])
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


def test_finetune_sizes_each_head_from_the_suite_not_from_the_labels(small, tmp_path):
    # task0's train labels hold classes 0 and 1 only; the suite has 3 classes
    data = _edited_suite(small, "no_class_2",
                         _set("task0.y_train", lambda y: np.where(y == 2, 1, y)))
    assert main(["finetune", "--data", str(data), "--out-dir", str(tmp_path), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    for ckpt in ("pre.ckpt", "expert_task0.ckpt"):
        assert load_checkpoint(tmp_path / ckpt).heads["task0"].weight.shape == (3, 4), ckpt


def _classes(n: int):
    return lambda meta, arrays: meta["config"].update(classes_per_task=n)


# `small`'s checkpoints give every task a head of 3 outputs
@pytest.mark.parametrize("edit, task, width", [
    (_classes(4), "task0", 4),
    (_regression_targets(2, 2), "task1", 2),
], ids=["classes", "regression_columns"])
@pytest.mark.parametrize("command", [["adapt", "--method", "symerge"],
                                     ["eval", "--method", "weight_avg"],
                                     ["analyze", "--analyses", "cross_matrix"]],
                         ids=["adapt", "eval", "analyze"])
def test_a_checkpoint_head_of_another_width_than_the_suite_exits_3(small, tmp_path, capsys,
                                                                  command, edit, task, width):
    data = _edited_suite(small, f"{task}_width", edit)
    ckpts, out = small / "ckpts", tmp_path / "out"
    assert main([*command, "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {ckpts / f'expert_{task}.ckpt'}: task '{task}' "
                                       f"has a head of 3 outputs where the suite {data} needs "
                                       f"{width}\n")
    assert not out.exists()


def test_eval_checkpoint_with_a_head_of_another_width_exits_3(small, tmp_path, capsys):
    pre = load_checkpoint(small / "ckpts" / "pre.ckpt")
    head = pre.heads["task1"]
    cut = tmp_path / "cut.ckpt"
    save_checkpoint(ParamSet(pre.encoder, dict(pre.heads, task1=LayerParams(head.weight[:2],
                                                                           head.bias[:2]))),
                    cut)
    assert main(["eval", "--data", str(small / "data.bundle"), "--ckpt-dir",
                 str(small / "ckpts"), "--method", "task_arithmetic", "--checkpoint", str(cut),
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (f"error: {cut}: task 'task1' has a head of 2 outputs "
                                       f"where the suite {small / 'data.bundle'} needs 3\n")


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


@pytest.mark.parametrize("flag", ["--coeffs", "--data", "--out-dir"])
def test_an_empty_path_value_exits_1_naming_the_flag(small, tmp_path, monkeypatch, capsys, flag):
    paths = {"--data": small / "data.bundle", "--ckpt-dir": small / "ckpts",
             "--coeffs": small / "coeffs.json", "--out-dir": tmp_path / "out", flag: ""}
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--method", "task_arithmetic",
                 *(a for name, value in paths.items() for a in (name, str(value)))]) == 1
    assert f"error: argument {flag}: expected a path, got an empty value" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_repeated_analysis_exits_2_naming_it(small, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--data", str(small / "data.bundle"), "--ckpt-dir",
                 str(small / "ckpts"), "--method", "task_arithmetic",
                 "--analyses", "eval,cross_matrix,eval", "--out-dir", str(out)]) == 2
    assert "config error: analyses: 'eval' is given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, value", [
    (["finetune", "--data", "d", "--out-dir", "o", "--hidden", ""], ""),
    (["gen", "--out", "o", "--regression", "a"], "a"),
    (["gen", "--out", "o", "--regression", "1,,2"], "1,,2"),
], ids=["hidden_empty", "regression_letter", "regression_empty_item"])
def test_a_malformed_index_list_exits_1_naming_the_flag(tmp_path, monkeypatch, capsys, args,
                                                        value):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    flag = args[-2]
    assert (f"error: argument {flag}: expected comma-separated integers, got '{value}'"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def _pre_bytes(small) -> bytes:
    return (small / "ckpts" / "pre.ckpt").read_bytes()


def _merge_on(pre=None):
    """`merge` on a checkpoint directory that holds `pre(small)` as its pre.ckpt, or nothing."""
    def args(small, tmp_path):
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        if pre:
            (ckpts / "pre.ckpt").write_bytes(pre(small))
        return ["merge", "--ckpt-dir", ckpts, "--method", "weight_avg"]
    return args


def _adapt_with(config):
    """`adapt` on `small` with a config file that holds `config`."""
    def args(small, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        return ["adapt", "--data", small / "data.bundle", "--ckpt-dir", small / "ckpts",
                "--method", "symerge", "--config", path]
    return args


def _empty_runs(small, tmp_path):
    (tmp_path / "runs").mkdir()
    return ["report", "--runs", tmp_path / "runs"]


@pytest.mark.parametrize("args, code, named", [
    (_empty_runs, 3, "no reports found"),
    (_merge_on(), 3, "missing pre.ckpt"),
    (_merge_on(_pre_bytes), 3, "no expert_*.ckpt files"),
    (_merge_on(lambda small: (small / "data.bundle").read_bytes()), 3,
     "not a parameter checkpoint"),
    (_merge_on(lambda small: _pre_bytes(small)[:8] + struct.pack("<I", 2)
               + _pre_bytes(small)[12:]), 3, "unsupported bundle version 2"),
    (_merge_on(lambda small: _pre_bytes(small)[:12]), 3, "truncated header"),
    (lambda small, tmp_path: ["eval", "--data", small / "ckpts" / "pre.ckpt",
                              "--ckpt-dir", small / "ckpts"], 3, "not a suite file"),
    (_adapt_with({"adapt": {"update_mode": "x"}}), 2,
     "config error: adapt.update_mode: unknown mode 'x'"),
    (_adapt_with({"adapt": {"task_order": "x"}}), 2,
     "config error: adapt.task_order: unknown order 'x'"),
    (_adapt_with({"adapt": {"iterations": -1}}), 2,
     "config error: adapt.iterations: must be nonnegative, got -1"),
    (_adapt_with([1]), 2, "config error: config file c.json: expected a JSON object"),
    (_adapt_with({"adapt": [1]}), 2,
     "config error: config file c.json: 'adapt' is not a JSON object"),
    (lambda small, tmp_path: ["analyze", "--data", small / "data.bundle", "--ckpt-dir",
                              small / "ckpts", "--analyses", "nope"], 2,
     f"config error: analyses: 'nope' is not one of {ANALYSES}"),
], ids=["report_no_reports", "merge_no_pre", "merge_no_experts", "suite_as_checkpoint",
        "bundle_version_2", "bundle_truncated", "eval_checkpoint_as_data", "update_mode",
        "task_order", "iterations_negative", "config_list", "adapt_section_list",
        "unknown_analysis"])
def test_a_named_error_exits_with_its_code_and_writes_nothing(small, tmp_path, capsys, args,
                                                              code, named):
    argv = [*map(str, args(small, tmp_path)), "--out-dir", str(tmp_path / "out")]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert named in err
    assert sorted(tmp_path.rglob("*")) == before


# hostile values for a numeric flag: small ints (from -3 up to `top`), the
# floats that break range checks, and text that is no number at all
def _hostile(top: int = 64):
    return st.integers(-3, top).map(str) | st.sampled_from(
        ["nan", "inf", "-inf", "-0.0", "1e308", "-1e-1", "", " ", "x", "1,2", "0x10"])


# at most 8 tasks of 64 samples, so that no example allocates more than a few MiB
_GEN_FLAGS = st.fixed_dictionaries(
    {"--tasks": _hostile(8), "--samples": _hostile(64)},
    optional={flag: _hostile() for flag in ("--classes", "--input-dim", "--subspace-dim",
                                            "--rotation", "--noise", "--seed", "--severity")}
    | {"--corruption": st.sampled_from(["gaussian_noise", "feature_mask", "contrast_scale"])})


def _flags(drawn: dict) -> list:
    return [a for flag, value in drawn.items() for a in (flag, value)]


def _exits_cleanly(argv: list, root) -> SimpleNamespace:
    """`argv`, which writes under the empty directory `root`, through `cli.main`
    exits with a documented code and no traceback, and writes nothing unless it
    exits 0. Returns the run's exit code and stderr."""
    proc = _run(*argv)
    assert proc.returncode in (0, 1, 2, 3), proc
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode:
        assert list(root.iterdir()) == [], proc
    return proc


@settings(max_examples=100, deadline=None)
@given(flags=_GEN_FLAGS)
@example(flags={"--tasks": "2", "--samples": "8", "--noise": "1e308"})  # beyond the noise bound
def test_gen_with_hostile_numeric_flags_exits_with_a_documented_code(tmp_path_factory, flags):
    root = tmp_path_factory.mktemp("gen")
    _exits_cleanly(["gen", *_flags(flags), "--out", root / "data.bundle"], root)


@settings(max_examples=50, deadline=None)
@given(method=st.sampled_from(CONSTANT_METHODS), value=_hostile())
def test_merge_with_a_hostile_lambda_exits_with_a_documented_code(small, tmp_path_factory,
                                                                  method, value):
    root = tmp_path_factory.mktemp("merge")
    _exits_cleanly(["merge", "--ckpt-dir", small / "ckpts", "--method", method,
                    "--lambda", value, "--out-dir", root / "out"], root)


@pytest.mark.parametrize("command, flag", [
    (["merge", "--method", "task_arithmetic"], "--lambda"),
    (["adapt", "--method", "symerge", "--iterations", "2"], "--init-coeff"),
], ids=["merge", "adapt"])
def test_a_negative_number_with_an_exponent_after_a_space_is_a_value(small, tmp_path, command,
                                                                     flag):
    inputs = ["--ckpt-dir", small / "ckpts"] + (["--data", small / "data.bundle"]
                                                if command[0] == "adapt" else [])
    trees = []
    for value in ([flag, "-1e-1"], [f"{flag}=-0.1"]):
        out = tmp_path / str(len(trees))
        proc = _run(*command, *inputs, *value, "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))})
    assert trees[0] == trees[1] and len(trees[0]) >= 3


# finetune's flags, each drawn or left at the tiny pipeline's value
_FINETUNE_FLAGS = st.fixed_dictionaries({}, optional={
    flag: _hostile() for flag in ("--hidden", "--pre-epochs", "--pre-lr", "--epochs", "--lr",
                                  "--batch-size")})

# recipes that overflow, and the error naming the stage, epoch, task and rate that diverged
_DIVERGING = {
    "--pre-lr 1e308": "error: pretraining diverged: non-finite outputs on epoch 0 for task "
                      "'task0' at learning rate 1e+308\n",
    "--lr 1e308 --epochs 3": "error: fine-tuning diverged: non-finite layer parameters on "
                             "epoch 2 for task 'task0' at learning rate 1e+308\n",
}


@settings(max_examples=40, deadline=None)
@given(flags=_FINETUNE_FLAGS)
@example(flags={"--pre-lr": "1e308"})  # pretraining overflows
@example(flags={"--lr": "1e308", "--epochs": "3"})  # fine-tuning overflows
def test_finetune_with_hostile_flags_exits_with_a_documented_code(small, tmp_path_factory,
                                                                  flags):
    root = tmp_path_factory.mktemp("finetune")
    proc = _exits_cleanly(["finetune", "--data", small / "data.bundle", "--out-dir",
                           root / "ckpts", "--hidden", "4", "--pre-epochs", "1", "--epochs", "1",
                           *_flags(flags)], root)
    diverged = _DIVERGING.get(" ".join(_flags(flags)))
    if diverged is not None:
        assert (proc.returncode, proc.stderr) == (3, diverged)


# adapt's numeric flags (a drawn pass count, so that none runs the default 500),
# and free text for the layer selector and the loss kind
_ADAPT_FLAGS = st.fixed_dictionaries(
    {"--iterations": _hostile()},
    optional={**{flag: _hostile() for flag in ("--batch-size", "--lr-coeffs", "--lr-layer",
                                               "--init-coeff")},
              "--trainable-layer": st.sampled_from(["head", "none", "0", "1", "0:1", "1:0", "2"])
              | st.text(max_size=6),
              "--loss": st.sampled_from(LOSS_KINDS) | st.text(max_size=12)})


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(LEARNED_METHODS), flags=_ADAPT_FLAGS)
@example(method="symerge", flags={"--iterations": "3", "--init-coeff": "1e308"})  # beyond the bound
def test_adapt_with_hostile_flags_exits_with_a_documented_code(small, tmp_path_factory,
                                                               method, flags):
    root = tmp_path_factory.mktemp("adapt")
    _exits_cleanly(["adapt", "--data", small / "data.bundle", "--ckpt-dir", small / "ckpts",
                    "--method", method, *_flags(flags), "--out-dir", root / "out"], root)


@pytest.fixture(scope="module")
def small_inputs(small):
    """The files that eval reads beside a suite and its checkpoints: a merged
    checkpoint, coefficients and trained layers, keyed by eval's flag."""
    merged, adapted = small / "merged", small / "adapted"
    ckpts = ["--data", str(small / "data.bundle"), "--ckpt-dir", str(small / "ckpts")]
    assert main(["merge", *ckpts[2:], "--method", "task_arithmetic",
                 "--out-dir", str(merged)]) == 0
    assert main(["adapt", *ckpts, "--method", "symerge", "--iterations", "2",
                 "--out-dir", str(adapted)]) == 0
    return {"--checkpoint": merged / "merged.ckpt", "--coeffs": adapted / "coeffs.json",
            "--layers": adapted / "trainable.bundle"}


# an input file of eval: the real one, a path that does not exist, or arbitrary bytes
_EVAL_FILE = st.sampled_from(["present", "missing"]) | st.binary(max_size=64)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(METHODS), files=st.fixed_dictionaries({}, optional={
    flag: _EVAL_FILE for flag in ("--coeffs", "--layers", "--checkpoint")}))
def test_eval_with_present_missing_or_garbage_files_exits_with_a_documented_code(
        small, small_inputs, tmp_path_factory, method, files):
    given_dir, root = tmp_path_factory.mktemp("given"), tmp_path_factory.mktemp("eval")
    argv = ["eval", "--data", small / "data.bundle", "--ckpt-dir", small / "ckpts",
            "--method", method, "--out-dir", root / "out"]
    for flag, file in files.items():
        path = small_inputs[flag] if file == "present" else given_dir / flag[2:]
        if isinstance(file, bytes):
            path.write_bytes(file)
        argv += [flag, path]
    _exits_cleanly(argv, root)
