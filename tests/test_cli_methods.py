"""The method and analysis tables behind the CLI, and what `eval`,
`analyze`, `merge` and `report` make of each method and flag."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mergelab import cli, config, reports
from mergelab.cli import build_parser, main
from mergelab.merging import merge_layerwise, task_vectors_from_experts
from mergelab.reports import aggregate_reports
from mergelab.serialization import BundleError, load_checkpoint, load_coeffs

from conftest import REFERENCE_CONFIG, REPO_ROOT, load_reference

SRC = REPO_ROOT / "src"


# ---------------------------------------------------------------------------
# the tables


def _choices(command: str) -> tuple:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    method = next(a for a in sub.choices[command]._actions if a.dest == "method")
    return tuple(method.choices)


def test_method_choices_come_from_the_method_table():
    assert config.METHODS == ("individual", "weight_avg", "task_arithmetic",
                              "adamerging", "symerge")
    assert _choices("merge") == config.CONSTANT_METHODS == ("weight_avg", "task_arithmetic")
    assert _choices("adapt") == config.LEARNED_METHODS == ("adamerging", "symerge")
    assert _choices("eval") == _choices("analyze") == config.METHODS


def test_constant_methods_give_their_coefficient():
    assert config.METHOD_COEFFS["weight_avg"](4, 0.7) == 0.25
    assert config.METHOD_COEFFS["task_arithmetic"](4, 0.7) == 0.7


def test_analysis_names_columns_and_coeff_flags_come_from_one_table():
    assert config.ANALYSES == ("eval", "cross_matrix", "cross_merge", "transfer",
                               "correlation", "discrepancy", "sparsity", "prop1", "pilot")
    table = reports.ANALYSIS_TABLE
    assert {a for a, (_, coeffs, _) in table.items() if coeffs} == {
        "sparsity", "transfer", "correlation", "discrepancy"}
    assert {a: need for a, (*_, need) in table.items()} == {
        "eval": 0, "cross_matrix": 1, "cross_merge": 2, "transfer": 2, "correlation": 1,
        "discrepancy": 1, "sparsity": 0, "prop1": 0, "pilot": 1}
    assert tuple(reports.SCHEMAS) == config.ANALYSES
    assert all(isinstance(c, list) and c[0] == "manifest_hash"
               for c in reports.SCHEMAS.values())
    from mergelab.commands import _ROW_BUILDERS
    assert tuple(_ROW_BUILDERS) == config.ANALYSES


def test_readme_report_schema_table_names_exactly_the_registered_analyses():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Report schemas", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9_]+)` \| .* \| (yes|no) \| ([0-9]) \|$", section,
                      flags=re.MULTILINE)
    assert rows == [(a, "yes" if coeffs else "no", str(need))
                    for a, (_, coeffs, need) in reports.ANALYSIS_TABLE.items()]


def test_readme_methods_table_names_exactly_the_registered_methods():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Methods", 1)[1].split("\n#", 1)[0]
    named = re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.MULTILINE)
    assert named == list(config.METHODS)


# ---------------------------------------------------------------------------
# the seed-0 reference pipeline


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    ft = load_reference()["finetune"]
    data, ckpts, adapted = root / "data.bundle", root / "ckpts", root / "adapted"
    assert main(["gen", "--config", str(REFERENCE_CONFIG), "--out", str(data)]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                 "--hidden", ",".join(str(d) for d in ft["hidden"]),
                 "--pre-epochs", str(ft["pre_epochs"]), "--epochs", str(ft["epochs"]),
                 "--seed", "0"]) == 0
    assert main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--method", "symerge", "--config", str(REFERENCE_CONFIG),
                 "--out-dir", str(adapted)]) == 0
    return root


def _eval(root: Path, out: str, *flags) -> dict:
    code = main(["eval", "--data", str(root / "data.bundle"), "--ckpt-dir", str(root / "ckpts"),
                 *flags, "--out-dir", str(root / out)])
    assert code == 0
    rows = json.loads((root / out / "eval.json").read_text())["rows"]
    return {r["task"]: r["value"] for r in rows}


def test_eval_weight_avg_is_the_uniform_average(reference):
    got = _eval(reference, "wa", "--method", "weight_avg")
    assert round(got["MEAN"], 4) == 0.8115
    assert main(["merge", "--ckpt-dir", str(reference / "ckpts"), "--method", "weight_avg",
                 "--out-dir", str(reference / "merged_wa")]) == 0
    merged = reference / "merged_wa"
    assert _eval(reference, "wa_ckpt", "--checkpoint", str(merged / "merged.ckpt")) == got
    assert _eval(reference, "wa_coeffs", "--method", "weight_avg",
                 "--coeffs", str(merged / "coeffs.json")) == got


def test_eval_weight_avg_with_adapted_layers(reference):
    got = _eval(reference, "wa_layers", "--method", "weight_avg",
                "--layers", str(reference / "adapted" / "trainable.bundle"))
    assert round(got["MEAN"], 4) == 0.9281


def test_merge_writes_the_layerwise_merge_of_its_coefficients(reference):
    ckpts = reference / "ckpts"
    for method in config.CONSTANT_METHODS:
        out = reference / f"merged_{method}"
        lam = ["--lambda", "0.4"] if method == "task_arithmetic" else []
        assert main(["merge", "--ckpt-dir", str(ckpts), "--method", method, *lam,
                     "--out-dir", str(out)]) == 0
        coeffs = load_coeffs(out / "coeffs.json")
        coeff = 0.25 if method == "weight_avg" else 0.4
        assert np.all(coeffs.values == coeff)
        manifest = json.loads((out / "merge.manifest.json").read_text())["config"]
        assert manifest["coeff"] == coeff
        pre = load_checkpoint(ckpts / "pre.ckpt")
        vectors = []
        for t in coeffs.task_ids:
            expert = load_checkpoint(ckpts / f"expert_{t}.ckpt")
            vectors.append(task_vectors_from_experts(pre, {t: expert})[t])
        want = merge_layerwise(pre, vectors, coeffs)
        got = load_checkpoint(out / "merged.ckpt").encoder
        assert all(np.array_equal(a.flat, b.flat) for a, b in zip(got, want)), method


def test_merge_writes_the_task_arithmetic_coefficients_eval_scores(tmp_path, monkeypatch):
    from mergelab import merging
    data, ckpts, merged = tmp_path / "data.bundle", tmp_path / "ckpts", tmp_path / "merged"
    assert main(["gen", "--out", str(data), "--tasks", "9", "--classes", "3",
                 "--input-dim", "6", "--samples", "24", "--subspace-dim", "3",
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    assert main(["merge", "--ckpt-dir", str(ckpts), "--method", "task_arithmetic",
                 "--out-dir", str(merged)]) == 0
    scored, build = [], merging.build_assembly
    monkeypatch.setattr(merging, "build_assembly",
                        lambda pre, vectors, experts, coeffs, trainable:
                        scored.append(coeffs) or build(pre, vectors, experts, coeffs, trainable))
    assert _eval(tmp_path, "eval", "--method", "task_arithmetic")
    written = load_coeffs(merged / "coeffs.json")
    assert written.task_ids == scored[0].task_ids and len(written.task_ids) == 9
    assert np.array_equal(written.values, scored[0].values)
    assert np.all(written.values == 0.1)


def test_merge_weight_avg_with_lambda_exits_2_naming_it(reference, capsys):
    capsys.readouterr()
    assert main(["merge", "--ckpt-dir", str(reference / "ckpts"), "--method", "weight_avg",
                 "--lambda", "0.9", "--out-dir", str(reference / "wa_lambda")]) == 2
    assert "--lambda" in capsys.readouterr().err
    assert not (reference / "wa_lambda").exists()


@pytest.mark.parametrize("method", ["symerge", "adamerging"])
def test_learned_method_without_coeffs_exits_2_naming_it(reference, capsys, method):
    capsys.readouterr()
    assert main(["eval", "--data", str(reference / "data.bundle"),
                 "--ckpt-dir", str(reference / "ckpts"), "--method", method,
                 "--out-dir", str(reference / "none")]) == 2
    err = capsys.readouterr().err
    assert method in err and "--coeffs" in err
    assert not (reference / "none").exists()


@pytest.mark.parametrize("flags, named", [
    (["--checkpoint", "ckpts/pre.ckpt", "--coeffs", "adapted/coeffs.json"], "--coeffs"),
    (["--checkpoint", "ckpts/pre.ckpt", "--layers", "adapted/trainable.bundle"], "--layers"),
    (["--method", "individual", "--coeffs", "adapted/coeffs.json"], "--coeffs"),
    (["--method", "individual", "--layers", "adapted/trainable.bundle"], "--layers"),
    (["--method", "individual", "--checkpoint", "ckpts/pre.ckpt"], "--checkpoint"),
])
@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_flag_the_method_would_ignore_exits_2(reference, capsys, flags, named, command):
    flags = [str(reference / f) if "/" in f else f for f in flags]
    extra = ["--analyses", "prop1"] if command == "analyze" else []
    capsys.readouterr()
    assert main([command, "--data", str(reference / "data.bundle"),
                 "--ckpt-dir", str(reference / "ckpts"), *flags, *extra,
                 "--out-dir", str(reference / "ignored")]) == 2
    assert named in capsys.readouterr().err
    assert not (reference / "ignored").exists()


def test_adapt_trainable_layer_none_trains_coefficients_only(reference):
    out = reference / "coeffs_only"
    assert main(["adapt", "--data", str(reference / "data.bundle"),
                 "--ckpt-dir", str(reference / "ckpts"), "--method", "symerge",
                 "--trainable-layer", "none", "--no-filter", "--iterations", "4",
                 "--out-dir", str(out)]) == 0
    assert not (out / "trainable.bundle").exists()
    adapt = json.loads((out / "adapt.manifest.json").read_text())["config"]["adapt"]
    assert adapt["trainable_layer"] is None and adapt["filter_enabled"] is False


# ---------------------------------------------------------------------------
# corrupt coefficient files and reports


@pytest.mark.parametrize("payload", [b'{"format": "coeffs", "task_ids": [', b"\xff\xfe{}"])
def test_load_coeffs_reports_corrupt_json_as_bundle_error(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    with pytest.raises(BundleError, match="not valid JSON") as info:
        load_coeffs(path)
    assert str(path) in str(info.value)


def test_cli_eval_with_corrupt_coeffs_json_exits_3_naming_the_file(tmp_path):
    data, ckpts = tmp_path / "data.bundle", tmp_path / "ckpts"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3",
                 "--input-dim", "6", "--samples", "24", "--subspace-dim", "3",
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    coeffs = tmp_path / "bad.json"
    coeffs.write_text('{"format": "coeffs", "task_ids": ["task0", ')
    proc = subprocess.run(
        [sys.executable, "-m", "mergelab", "eval", "--data", str(data), "--ckpt-dir",
         str(ckpts), "--coeffs", str(coeffs), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert str(coeffs) in proc.stderr
    assert "Traceback" not in proc.stderr


def _report(path: Path, rows) -> None:
    path.write_text(json.dumps({"analysis": "eval", "columns": reports.SCHEMAS["eval"],
                                "rows": rows}))


def test_report_skips_a_json_file_that_is_not_utf8(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    row = {"manifest_hash": "h", "task": "t", "metric": "accuracy", "value": 0.5}
    _report(runs / "eval.json", [row])
    (runs / "binary.json").write_bytes(b"\xff\xfe\x00garbage")
    assert aggregate_reports(runs) == {"eval": [row]}
    assert main(["report", "--runs", str(runs), "--out-dir", str(tmp_path / "combined")]) == 0
    assert (tmp_path / "combined" / "combined_eval.json").exists()


@pytest.mark.parametrize("rows", ["abc", ["abc"], {"task": "t"}])
def test_report_with_rows_that_are_not_objects_exits_3_naming_the_file(tmp_path, capsys,
                                                                      rows):
    runs = tmp_path / "runs"
    runs.mkdir()
    _report(runs / "eval.json", rows)
    with pytest.raises(ValueError, match="'rows' is not a list of objects"):
        aggregate_reports(runs)
    capsys.readouterr()
    assert main(["report", "--runs", str(runs), "--out-dir", str(tmp_path / "combined")]) == 3
    assert str(runs / "eval.json") in capsys.readouterr().err
