import json
import os
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mergelab.cli import main
from mergelab.engine import LayerParams, ParamSet, ShapeError
from mergelab.merging import CoefficientMatrix, MergedAssembly, TrainableLayer
from mergelab.serialization import (
    BundleError,
    load_bundle,
    load_checkpoint,
    load_coeffs,
    load_suite,
    load_trainable,
    manifest_hash,
    read_manifest,
    save_bundle,
    save_checkpoint,
    save_coeffs,
    save_suite,
    save_trainable,
    write_manifest,
)
from mergelab.suites import SuiteConfig, gen_suite

from conftest import REFERENCE_CONFIG, REPO_ROOT, load_reference, params_equal, random_paramset

GOLDEN = Path(__file__).parent / "data" / "golden_reference_eval.json"
SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# bundles and checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = random_paramset(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    assert params_equal(load_checkpoint(path), params)


def test_checkpoint_saves_are_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    params = random_paramset(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, p1)
    save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_header_tamper_detected(tmp_path):
    rng = np.random.default_rng(2)
    params = random_paramset(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    meta, arrays = load_bundle(path)
    meta["encoder"][0][0] += 1  # lie about the first layer's out_dim
    tampered = tmp_path / "bad.ckpt"
    save_bundle(tampered, meta, arrays)
    with pytest.raises(BundleError):
        load_checkpoint(tampered)


def test_bundle_rejects_truncation_and_bad_magic(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(random_paramset(rng), path)
    blob = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:-16])
    with pytest.raises(BundleError):
        load_bundle(tmp_path / "trunc.ckpt")
    (tmp_path / "junk.ckpt").write_bytes(b"NOTABNDL" + blob[8:])
    with pytest.raises(BundleError):
        load_bundle(tmp_path / "junk.ckpt")
    (tmp_path / "trail.ckpt").write_bytes(blob + b"\x00")
    with pytest.raises(BundleError):
        load_bundle(tmp_path / "trail.ckpt")


def _raw_bundle(path, header, payload=b""):
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(b"MLBUNDLE" + struct.pack("<II", 1, len(head)) + head + payload)
    return path


def test_bundle_rejects_header_that_is_not_an_object(tmp_path):
    for header, field in (([1, 2], "not an object"), ("x", "not an object"),
                          ({"arrays": []}, "'meta'"), ({"meta": {}, "arrays": {}}, "'arrays'")):
        with pytest.raises(BundleError, match=field):
            load_bundle(_raw_bundle(tmp_path / "bad.bundle", header))


@pytest.mark.parametrize("entry, field", [
    ({"dtype": "float64", "shape": [2]}, "missing key 'name'"),
    ({"name": "a", "shape": [2]}, "missing key 'dtype'"),
    ({"name": "a", "dtype": "float64"}, "missing key 'shape'"),
    ("a", r"arrays\[0\] is not an object"),
    ({"name": "a", "dtype": "float32", "shape": [2]}, r"arrays\[0\]\.dtype"),
    ({"name": "a", "dtype": ["float64"], "shape": [2]}, r"arrays\[0\]\.dtype"),
    ({"name": "a", "dtype": "float64", "shape": [-1]}, r"arrays\[0\]\.shape"),
    ({"name": "a", "dtype": "float64", "shape": [1.5]}, r"arrays\[0\]\.shape"),
    ({"name": "a", "dtype": "float64", "shape": [True]}, r"arrays\[0\]\.shape"),
    ({"name": "a", "dtype": "float64", "shape": "2"}, r"arrays\[0\]\.shape"),
])
def test_bundle_rejects_malformed_array_entries(tmp_path, entry, field):
    path = _raw_bundle(tmp_path / "bad.bundle", {"meta": {}, "arrays": [entry]}, bytes(16))
    with pytest.raises(BundleError, match=field):
        load_bundle(path)


def test_cli_bad_bundle_header_exits_3_without_traceback(tmp_path):
    data = _raw_bundle(tmp_path / "data.bundle", [])
    proc = subprocess.run(
        [sys.executable, "-m", "mergelab", "eval", "--data", str(data),
         "--ckpt-dir", str(tmp_path / "ckpts"), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "not an object" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_suite_round_trip(tmp_path):
    cfg = SuiteConfig(num_tasks=2, samples_per_split=40, regression_tasks=(1,), seed=4)
    suite = gen_suite(cfg)
    path = tmp_path / "suite.bundle"
    save_suite(suite, path)
    loaded = load_suite(path)
    assert loaded.config == cfg
    for a, b in zip(suite.tasks, loaded.tasks):
        assert a.kind == b.kind
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)
        assert a.y_train.dtype == b.y_train.dtype


def test_coeffs_json_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    coeffs = CoefficientMatrix(("a", "b"), rng.normal(size=(2, 3)))
    path = tmp_path / "coeffs.json"
    save_coeffs(coeffs, path)
    loaded = load_coeffs(path)
    assert loaded.task_ids == coeffs.task_ids
    assert np.array_equal(loaded.values, coeffs.values)  # repr round trip is lossless


def test_trainable_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    trained = {
        "a": TrainableLayer("head", LayerParams(rng.normal(size=(3, 4)), rng.normal(size=3))),
        "b": TrainableLayer((0, 1), (LayerParams(rng.normal(size=(4, 5)), rng.normal(size=4)),
                                     LayerParams(rng.normal(size=(2, 4)), rng.normal(size=2)))),
        "c": TrainableLayer(1, LayerParams(rng.normal(size=(2, 4)), rng.normal(size=2))),
    }
    path = tmp_path / "trainable.bundle"
    save_trainable(trained, path)
    loaded = load_trainable(path)
    assert loaded["a"].selector == "head"
    assert np.array_equal(loaded["a"].params.weight, trained["a"].params.weight)
    assert loaded["b"].selector == (0, 1)
    assert np.array_equal(loaded["b"].params[1].bias, trained["b"].params[1].bias)
    assert loaded["c"].selector == 1


def _tampered(src, dst, mutate):
    meta, arrays = load_bundle(src)
    arrays = dict(arrays)
    mutate(meta, arrays)
    save_bundle(dst, meta, arrays)
    return dst


@pytest.mark.parametrize("mutate, field", [
    (lambda m, a: m.update(encoder=5), "'encoder' is int, not list"),
    (lambda m, a: m.update(heads=[]), "'heads' is list, not dict"),
    (lambda m, a: m.pop("heads"), "'heads' is NoneType"),
    (lambda m, a: m["encoder"].__setitem__(0, "ab"), r"'encoder\[0\]' is 'ab'"),
    (lambda m, a: m["encoder"].__setitem__(0, [4, 3, 2]), r"'encoder\[0\]' is \[4, 3, 2\]"),
    (lambda m, a: m["encoder"].__setitem__(0, [4.0, 3]), r"'encoder\[0\]'"),
    (lambda m, a: m["heads"].__setitem__("a", None), "'heads.a' is None"),
    (lambda m, a: a.pop("enc1.b"), "missing array 'enc1.b'"),
    (lambda m, a: a.pop("head.b.w"), "missing array 'head.b.w'"),
])
def test_checkpoint_meta_is_validated(tmp_path, mutate, field):
    path = tmp_path / "m.ckpt"
    save_checkpoint(random_paramset(np.random.default_rng(30)), path)
    with pytest.raises(BundleError, match=field):
        load_checkpoint(_tampered(path, tmp_path / "bad.ckpt", mutate))


@pytest.mark.parametrize("mutate, field", [
    (lambda m, a: m.update(config=3), "'config' is int, not dict"),
    (lambda m, a: m["config"].update(bogus=1), "'config'.*bogus"),
    (lambda m, a: m["config"].update(num_tasks="two"), "'config'"),
    (lambda m, a: m["config"].update(regression_tasks=1), "'config'"),
    (lambda m, a: m.update(tasks={}), "'tasks' is dict, not list"),
    (lambda m, a: m["tasks"].__setitem__(0, "task0"), r"'tasks\[0\]'"),
    (lambda m, a: m["tasks"][1].update(id=1), r"'tasks\[1\]'"),
    (lambda m, a: m["tasks"][0].pop("kind"), r"'tasks\[0\]'"),
    (lambda m, a: m["tasks"][0].update(kind="ranking"), r"'tasks\[0\]'"),
    (lambda m, a: a.pop("task1.y_test"), "missing array 'task1.y_test'"),
])
def test_suite_meta_is_validated(tmp_path, mutate, field):
    path = tmp_path / "suite.bundle"
    save_suite(gen_suite(SuiteConfig(num_tasks=2, samples_per_split=20, seed=4)), path)
    with pytest.raises(BundleError, match=field):
        load_suite(_tampered(path, tmp_path / "bad.bundle", mutate))


@pytest.mark.parametrize("mutate, field", [
    (lambda m, a: m.update(selectors=["head"]), "'selectors' is list, not dict"),
    (lambda m, a: m["selectors"].update(a="tail"), "'selectors.a' is 'tail'"),
    (lambda m, a: m["selectors"].update(a=-1), "'selectors.a' is -1"),
    (lambda m, a: m["selectors"].update(a=True), "'selectors.a' is True"),
    (lambda m, a: m["selectors"].update(a=[0, "1"]), r"'selectors.a' is \[0, '1'\]"),
    (lambda m, a: m["selectors"].update(a=[0, 1]), "missing array 'a.1.w'"),
    (lambda m, a: a.pop("a.0.b"), "missing array 'a.0.b'"),
])
def test_trainable_meta_is_validated(tmp_path, mutate, field):
    rng = np.random.default_rng(31)
    path = tmp_path / "trainable.bundle"
    save_trainable({"a": TrainableLayer(1, LayerParams(rng.normal(size=(2, 4)),
                                                       rng.normal(size=2)))}, path)
    with pytest.raises(BundleError, match=field):
        load_trainable(_tampered(path, tmp_path / "bad.bundle", mutate))


def _trainable(path):
    rng = np.random.default_rng(33)
    save_trainable({"a": TrainableLayer("head", LayerParams(rng.normal(size=(3, 4)),
                                                            rng.normal(size=3)))}, path)


@pytest.mark.parametrize("save, load", [
    (lambda p: save_checkpoint(random_paramset(np.random.default_rng(34)), p), load_checkpoint),
    (lambda p: save_suite(gen_suite(SuiteConfig(num_tasks=2, samples_per_split=20)), p),
     load_suite),
    (_trainable, load_trainable),
], ids=["checkpoint", "suite", "trainable"])
def test_loaders_reject_an_array_that_no_meta_field_names(tmp_path, save, load):
    path = tmp_path / "good.bundle"
    save(path)
    load(path)
    bad = _tampered(path, tmp_path / "bad.bundle",
                    lambda m, a: a.update({"ghost.0.b": np.zeros(3)}))
    with pytest.raises(BundleError, match="bad.bundle: array 'ghost.0.b' is named by no meta"):
        load(bad)


def test_cli_on_a_suite_bundle_with_an_extra_array_exits_3(tmp_path, capsys):
    data = tmp_path / "data.bundle"
    save_suite(gen_suite(SuiteConfig(num_tasks=2, samples_per_split=20)), data)
    _tampered(data, data, lambda m, a: a.update({"ghost.0.b": np.zeros(3)}))
    code = main(["finetune", "--data", str(data), "--out-dir", str(tmp_path / "ckpts")])
    assert code == 3
    assert "array 'ghost.0.b' is named by no meta field" in capsys.readouterr().err


def _set_nan(name):
    return lambda m, a: a[name].__setitem__((0,) * a[name].ndim, np.nan)


@pytest.mark.parametrize("save, load, mutate, message", [
    (lambda p: save_checkpoint(random_paramset(np.random.default_rng(35)), p), load_checkpoint,
     _set_nan("enc1.w"), "arrays 'enc1.w' and 'enc1.b': layer parameters must be finite"),
    (_trainable, load_trainable, lambda m, a: a.update({"a.0.w": a["a.0.w"].ravel()}),
     "arrays 'a.0.w' and 'a.0.b': layer expects 2-D weight"),
    (lambda p: save_suite(gen_suite(SuiteConfig(num_tasks=2, samples_per_split=20)), p),
     load_suite, _set_nan("task0.x_test"),
     "task 'task0': array 'task0.x_test' holds a non-finite value"),
], ids=["nan-checkpoint", "1d-trainable-weight", "nan-suite"])
def test_loaders_name_the_file_and_arrays_of_an_unusable_value(tmp_path, save, load, mutate,
                                                              message):
    path = tmp_path / "good.bundle"
    save(path)
    with pytest.raises(BundleError, match=f"bad.bundle: {message}"):
        load(_tampered(path, tmp_path / "bad.bundle", mutate))


@pytest.mark.parametrize("name, array", [("data.bundle", "task1.x_train"),
                                         ("ckpts/pre.ckpt", "enc0.b")])
def test_cli_eval_on_a_non_finite_input_exits_3_naming_the_file(tmp_path, capsys, name, array):
    data, ckpts = tmp_path / "data.bundle", tmp_path / "ckpts"
    ckpts.mkdir()
    save_suite(gen_suite(SuiteConfig(num_tasks=2, samples_per_split=20)), data)
    save_checkpoint(random_paramset(np.random.default_rng(36), dims=(24, 6, 4),
                                    tasks=("task0", "task1"), classes=5), ckpts / "pre.ckpt")
    _tampered(tmp_path / name, tmp_path / name, _set_nan(array))
    code = main(["eval", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / name}: " in err and f"'{array}'" in err


def test_assembly_rejects_trainable_layer_out_of_range():
    rng = np.random.default_rng(32)
    pre = random_paramset(rng)
    depth = len(pre.encoder)
    out_of_range = TrainableLayer(depth, LayerParams(rng.normal(size=(2, 2)), rng.normal(size=2)))
    with pytest.raises(ShapeError, match="out of range"):
        MergedAssembly(pre.encoder, [], CoefficientMatrix((), np.zeros((0, depth))), {},
                       {"t0": out_of_range})


@pytest.mark.parametrize("doc, field", [
    ([1, 2], "not a coefficient file"),
    ({"format": "coeffs", "task_ids": 2, "num_layers": 1, "values": [[1.0], [2.0]]},
     "'task_ids' is not a list"),
])
def test_coeffs_file_that_is_not_a_coefficient_object_rejected(tmp_path, doc, field):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match=field):
        load_coeffs(path)


def test_cli_merge_on_checkpoint_with_bad_meta_exits_3_without_traceback(tmp_path):
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    save_bundle(ckpts / "pre.ckpt", {"format": "paramset", "encoder": 5, "heads": {}}, {})
    proc = subprocess.run(
        [sys.executable, "-m", "mergelab", "merge", "--ckpt-dir", str(ckpts),
         "--method", "task_arithmetic", "--out-dir", str(tmp_path / "merged")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "meta field 'encoder' is int, not list" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_manifest_hash_stability_and_validation(tmp_path):
    path = tmp_path / "m.manifest.json"
    digest = write_manifest(path, "gen", {"suite": {"seed": 7}}, 7)
    doc = read_manifest(path)
    assert doc["manifest_hash"] == digest
    body = {k: v for k, v in doc.items() if k != "manifest_hash"}
    assert manifest_hash(body) == manifest_hash(json.loads(json.dumps(body)))
    tampered = json.loads(path.read_text())
    tampered["seed"] = 8
    path.write_text(json.dumps(tampered))
    with pytest.raises(BundleError):
        read_manifest(path)


# ---------------------------------------------------------------------------
# CLI


def _gen_args(out, seed=5):
    return ["gen", "--out", str(out), "--tasks", "3", "--classes", "3",
            "--input-dim", "10", "--samples", "48", "--subspace-dim", "4",
            "--rotation", "0.6", "--noise", "0.2", "--seed", str(seed)]


def _small_pipeline(root: Path, seed=5):
    data = root / "data.bundle"
    assert main(_gen_args(data, seed)) == 0
    ckpts = root / "ckpts"
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                 "--hidden", "12,8", "--pre-epochs", "1", "--epochs", "4",
                 "--seed", str(seed)]) == 0
    adapted = root / "adapted"
    assert main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--method", "symerge", "--out-dir", str(adapted),
                 "--iterations", "6", "--batch-size", "8", "--seed", str(seed)]) == 0
    results = root / "results"
    assert main(["eval", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--coeffs", str(adapted / "coeffs.json"),
                 "--layers", str(adapted / "trainable.bundle"),
                 "--out-dir", str(results)]) == 0
    return data, ckpts, adapted, results


def test_cli_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.bundle", tmp_path / "b.bundle"
    assert main(_gen_args(a, seed=7)) == 0
    assert main(_gen_args(b, seed=7)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_null_merge_matches_pretrained_eval(tmp_path):
    data = tmp_path / "data.bundle"
    ckpts = tmp_path / "ckpts"
    assert main(_gen_args(data)) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                 "--hidden", "12,8", "--pre-epochs", "1", "--epochs", "3", "--seed", "5"]) == 0
    merged_dir = tmp_path / "merged"
    assert main(["merge", "--ckpt-dir", str(ckpts), "--method", "task_arithmetic",
                 "--coeff", "0.0", "--out-dir", str(merged_dir)]) == 0

    out1, out2 = tmp_path / "eval_merged", tmp_path / "eval_pre"
    assert main(["eval", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--checkpoint", str(merged_dir / "merged.ckpt"), "--out-dir", str(out1)]) == 0
    assert main(["eval", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--checkpoint", str(ckpts / "pre.ckpt"), "--out-dir", str(out2)]) == 0
    rows1 = json.loads((out1 / "eval.json").read_text())["rows"]
    rows2 = json.loads((out2 / "eval.json").read_text())["rows"]
    assert [(r["task"], r["value"]) for r in rows1] == [(r["task"], r["value"]) for r in rows2]


def test_cli_pipeline_and_analyze(tmp_path):
    data, ckpts, adapted, results = _small_pipeline(tmp_path)
    analysis_dir = tmp_path / "analysis"
    assert main(["analyze", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--coeffs", str(adapted / "coeffs.json"),
                 "--layers", str(adapted / "trainable.bundle"),
                 "--analyses",
                 "eval,cross_matrix,cross_merge,transfer,correlation,discrepancy,sparsity,pilot",
                 "--batch-size", "8", "--out-dir", str(analysis_dir)]) == 0
    for name in ("eval", "cross_matrix", "cross_merge", "transfer", "correlation",
                 "discrepancy", "sparsity", "pilot"):
        assert (analysis_dir / f"{name}.csv").exists()
        doc = json.loads((analysis_dir / f"{name}.json").read_text())
        assert doc["rows"], name
        digest = read_manifest(analysis_dir / "analyze.manifest.json")["manifest_hash"]
        assert all(r["manifest_hash"] == digest for r in doc["rows"])
    # transfer has baseline + adapted rows, adapted strictly better on this setup
    transfer = json.loads((analysis_dir / "transfer.json").read_text())["rows"]
    assert {r["heads"] for r in transfer} == {"baseline", "adapted"}

    combined_dir = tmp_path / "combined"
    assert main(["report", "--runs", str(tmp_path), "--out-dir", str(combined_dir)]) == 0
    assert (combined_dir / "combined_eval.csv").exists()


def test_cli_prop1_analysis(tmp_path):
    data, ckpts, adapted, _ = _small_pipeline(tmp_path, seed=6)
    out = tmp_path / "prop1"
    assert main(["analyze", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--analyses", "prop1", "--seed", "6", "--out-dir", str(out)]) == 0
    rows = json.loads((out / "prop1.json").read_text())["rows"]
    linear = [r for r in rows if r["family"] == "linear"]
    assert len(linear) == 100
    assert all(r["jensen_holds"] for r in linear)
    nonlin = [r for r in rows if r["family"] == "nonlinear-net"]
    assert len(nonlin) == 6  # ordered expert pairs for 3 tasks
    assert all(r["ctl_residual_max"] > 0 for r in nonlin)


def test_cli_rerun_reproduces_reports_byte_identically(tmp_path):
    r1, r2 = tmp_path / "run1", tmp_path / "run2"
    d1 = _small_pipeline(r1)
    d2 = _small_pipeline(r2)
    for sub in ("results/eval.csv", "results/eval.json", "adapted/coeffs.json"):
        assert (r1 / sub).read_bytes() == (r2 / sub).read_bytes(), sub
    # manifests hash identically (no paths or timestamps inside)
    m1 = read_manifest(r1 / "results" / "eval.manifest.json")["manifest_hash"]
    m2 = read_manifest(r2 / "results" / "eval.manifest.json")["manifest_hash"]
    assert m1 == m2


def test_cli_adapt_rerun_from_own_manifest(tmp_path):
    data, ckpts, adapted, _ = _small_pipeline(tmp_path)
    again = tmp_path / "again"
    assert main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--method", "symerge", "--config", str(adapted / "adapt.manifest.json"),
                 "--out-dir", str(again)]) == 0
    assert (again / "coeffs.json").read_bytes() == (adapted / "coeffs.json").read_bytes()
    assert (again / "trainable.bundle").read_bytes() == (adapted / "trainable.bundle").read_bytes()


def test_cli_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MERGELAB_OUTPUT_ROOT", str(tmp_path))
    assert main(_gen_args("nested/data.bundle")) == 0
    assert (tmp_path / "nested" / "data.bundle").exists()
    # absolute paths ignore the root
    abs_out = tmp_path / "abs.bundle"
    assert main(_gen_args(abs_out)) == 0
    assert abs_out.exists()


def _readme_quickstart() -> list:
    """The README's quickstart block: the argv of each `mergelab` command."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(c[0] == "mergelab" for c in commands)
    return [c[1:] for c in commands]


# the quickstart's path flags but --config, which the output root leaves alone
QUICKSTART_PATH_FLAGS = {"--out", "--data", "--ckpt-dir", "--out-dir", "--coeffs", "--layers",
                         "--runs"}


def _files(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.slow
def test_readme_quickstart_under_the_output_root_matches_a_run_with_absolute_paths(
        tmp_path, monkeypatch):
    cwd, root, absolute = tmp_path / "cwd", tmp_path / "root", tmp_path / "absolute"
    shutil.copytree(REPO_ROOT / "configs", cwd / "configs")
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("MERGELAB_OUTPUT_ROOT", str(root))
    for argv in _readme_quickstart():
        assert main(argv) == 0, argv
    monkeypatch.delenv("MERGELAB_OUTPUT_ROOT")
    for argv in _readme_quickstart():
        argv = [str(absolute / value) if flag in QUICKSTART_PATH_FLAGS else value
                for flag, value in zip([None, *argv], argv)]
        assert main(argv) == 0, argv
    assert [p.name for p in cwd.iterdir()] == ["configs"]  # every relative path went to the root
    written = _files(root)
    assert Path("runs", "combined", "combined_eval.csv") in written
    assert written == _files(absolute)


def test_cli_exit_codes(tmp_path):
    assert main(["bogus-command"]) == 1
    assert main([]) == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"suite": {"num_tasks": 2, "nonsense_field": 1}}))
    assert main(["gen", "--config", str(bad_cfg), "--out", str(tmp_path / "x.bundle")]) == 2
    bad_cfg2 = tmp_path / "bad2.json"
    bad_cfg2.write_text(json.dumps({"suite": {"shared_subspace_dim": 50, "input_dim": 4}}))
    assert main(["gen", "--config", str(bad_cfg2), "--out", str(tmp_path / "x.bundle")]) == 2
    assert main(["eval", "--data", str(tmp_path / "missing.bundle"),
                 "--ckpt-dir", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == 3


def test_cli_eval_individual_and_lambda_alias(tmp_path):
    data = tmp_path / "data.bundle"
    ckpts = tmp_path / "ckpts"
    assert main(_gen_args(data)) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                 "--hidden", "12,8", "--pre-epochs", "1", "--epochs", "3", "--seed", "5"]) == 0
    out = tmp_path / "ind"
    assert main(["eval", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--method", "individual", "--out-dir", str(out)]) == 0
    rows = json.loads((out / "eval.json").read_text())["rows"]
    assert {r["task"] for r in rows} == {"task0", "task1", "task2", "MEAN"}
    # --lambda is the documented spelling, --coeff the alias
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["merge", "--ckpt-dir", str(ckpts), "--method", "task_arithmetic",
                 "--lambda", "0.4", "--out-dir", str(m1)]) == 0
    assert main(["merge", "--ckpt-dir", str(ckpts), "--method", "task_arithmetic",
                 "--coeff", "0.4", "--out-dir", str(m2)]) == 0
    assert (m1 / "merged.ckpt").read_bytes() == (m2 / "merged.ckpt").read_bytes()


def test_cli_gen_regression_flag(tmp_path):
    out = tmp_path / "reg.bundle"
    assert main(_gen_args(out) + ["--regression", "1"]) == 0
    suite = load_suite(out)
    assert suite.tasks[1].kind == "regression"


def test_cli_analyze_mixed_regression_suite(tmp_path):
    data = tmp_path / "data.bundle"
    ckpts = tmp_path / "ckpts"
    assert main(_gen_args(data) + ["--regression", "2"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                 "--hidden", "12,8", "--pre-epochs", "1", "--epochs", "3", "--seed", "5"]) == 0
    adapted = tmp_path / "adapted"
    assert main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--method", "symerge", "--out-dir", str(adapted),
                 "--iterations", "4", "--batch-size", "8", "--seed", "5"]) == 0
    out = tmp_path / "analysis"
    assert main(["analyze", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--coeffs", str(adapted / "coeffs.json"),
                 "--layers", str(adapted / "trainable.bundle"),
                 "--analyses", "eval,cross_matrix,cross_merge,transfer,discrepancy",
                 "--batch-size", "8", "--out-dir", str(out)]) == 0
    # cross-task analyses only cover the two classification tasks
    rows = json.loads((out / "cross_matrix.json").read_text())["rows"]
    assert {r["encoder_task"] for r in rows} == {"task0", "task1"}
    rows = json.loads((out / "eval.json").read_text())["rows"]
    assert {r["metric"] for r in rows if r["task"] == "task2"} == {"l1_error"}
    out2 = tmp_path / "analysis2"
    assert main(["analyze", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--coeffs", str(adapted / "coeffs.json"),
                 "--analyses", "prop1,pilot", "--seed", "5", "--out-dir", str(out2)]) == 0
    rows = json.loads((out2 / "prop1.json").read_text())["rows"]
    reg = [r for r in rows if r["instance"].endswith("-task2")]
    assert reg and all(r["loss"] == "l2" for r in reg)
    rows = json.loads((out2 / "pilot.json").read_text())["rows"]
    assert {r["head_task"] for r in rows} == {"task0", "task1"}


def test_cli_adamerging_branch(tmp_path):
    data = tmp_path / "data.bundle"
    ckpts = tmp_path / "ckpts"
    assert main(_gen_args(data)) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                 "--hidden", "12,8", "--pre-epochs", "1", "--epochs", "3", "--seed", "5"]) == 0
    out = tmp_path / "ada"
    assert main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--method", "adamerging", "--out-dir", str(out),
                 "--iterations", "5", "--batch-size", "8", "--seed", "5"]) == 0
    coeffs = load_coeffs(out / "coeffs.json")
    assert coeffs.values.shape == (3, 2)
    assert not (out / "trainable.bundle").exists()


# ---------------------------------------------------------------------------
# golden regression run on the reference configuration


@pytest.mark.slow
def test_reference_pipeline_matches_golden_report(tmp_path):
    ref = load_reference()
    data = tmp_path / "data.bundle"
    suite_args = ["gen", "--config", str(REFERENCE_CONFIG), "--out", str(data)]
    assert main(suite_args) == 0
    ckpts = tmp_path / "ckpts"
    ft = ref["finetune"]
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                 "--hidden", ",".join(str(d) for d in ft["hidden"]),
                 "--pre-epochs", str(ft["pre_epochs"]), "--pre-lr", str(ft["pre_lr"]),
                 "--epochs", str(ft["epochs"]), "--lr", str(ft["lr"]),
                 "--batch-size", str(ft["batch_size"]), "--seed", "0"]) == 0
    adapted = tmp_path / "adapted"
    assert main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--method", "symerge", "--config", str(REFERENCE_CONFIG),
                 "--out-dir", str(adapted)]) == 0
    results = tmp_path / "results"
    assert main(["eval", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--coeffs", str(adapted / "coeffs.json"),
                 "--layers", str(adapted / "trainable.bundle"),
                 "--out-dir", str(results)]) == 0

    got = {r["task"]: r["value"] for r in
           json.loads((results / "eval.json").read_text())["rows"]}
    expect = json.loads(GOLDEN.read_text())
    assert set(got) == set(expect)
    for task, value in expect.items():
        assert got[task] == pytest.approx(value, abs=1e-9), task


def test_coeffs_file_header_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(23)
    coeffs = CoefficientMatrix(("a", "b"), rng.normal(size=(2, 3)))
    path = tmp_path / "coeffs.json"
    save_coeffs(coeffs, path)
    doc = json.loads(path.read_text())
    doc["num_layers"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError):
        load_coeffs(path)


def test_cli_analyze_coefficient_analysis_without_coeffs_exits_2(tmp_path, capsys):
    data, ckpts = tmp_path / "data.bundle", tmp_path / "ckpts"
    assert main(_gen_args(data)) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "6",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--data", str(data), "--ckpt-dir", str(ckpts),
                 "--analyses", "eval,transfer", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--coeffs is needed by transfer" in err
    assert "eval" not in err


@pytest.mark.parametrize("change, field", [
    (lambda d: d.pop("values"), "field 'values'"),
    (lambda d: d.pop("num_layers"), "field 'num_layers'"),
    (lambda d: d.update(num_layers="3"), "field 'num_layers'"),
    (lambda d: d.update(num_layers=True), "field 'num_layers'"),
    (lambda d: d.update(values=[[1.0, 2.0, 3.0], [1.0, 2.0]]), "field 'values'"),
    (lambda d: d.update(values=[[1.0, "x", 3.0], [1.0, 2.0, 3.0]]), "field 'values'"),
    (lambda d: d.update(values=[[1.0, None, 3.0], [1.0, 2.0, 3.0]]), "field 'values'"),
    (lambda d: d.update(values=[[1.0, True, 3.0], [1.0, 2.0, 3.0]]), "field 'values'"),
    (lambda d: d.update(values=[[1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]]),
     "field 'values': coefficients must be finite"),
    (lambda d: d.update(values={"a": 1}), "field 'values'"),
    (lambda d: d.update(values=[[1.0, 2.0, 3.0]] * 3),
     r"field 'values': coefficient matrix must be \(K=2, L-1\), got \(3, 3\)"),
])
def test_coeffs_file_with_missing_or_malformed_field_names_file_and_field(tmp_path, change,
                                                                          field):
    path = tmp_path / "coeffs.json"
    save_coeffs(CoefficientMatrix(("a", "b"), np.ones((2, 3))), path)
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match=field) as info:
        load_coeffs(path)
    assert str(path) in str(info.value)


def test_cli_eval_with_malformed_coeffs_exits_3_naming_the_field(tmp_path):
    data, ckpts = tmp_path / "data.bundle", tmp_path / "ckpts"
    assert main(_gen_args(data)) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "6",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "5"]) == 0
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"format": "coeffs", "task_ids": ["task0", "task1", "task2"],
                                  "num_layers": 1}))
    proc = subprocess.run(
        [sys.executable, "-m", "mergelab", "eval", "--data", str(data), "--ckpt-dir",
         str(ckpts), "--coeffs", str(coeffs), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "field 'values'" in proc.stderr and str(coeffs) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field, value", [
    ("num_tasks", "x"), ("num_tasks", True), ("num_tasks", 2.0), ("seed", 1.5),
    ("samples_per_split", None), ("noise_std", "0.2"), ("noise_std", False),
    ("noise_std", float("inf")), ("task_rotation_strength", float("nan")),
])
def test_suite_config_type_errors_name_the_field(field, value):
    with pytest.raises(TypeError, match=f"^{field}: expected"):
        SuiteConfig(**{field: value})


def test_suite_config_accepts_ints_for_float_fields_and_numpy_integers():
    cfg = SuiteConfig(num_tasks=np.int64(2), noise_std=0, task_rotation_strength=1)
    assert cfg.num_tasks == 2 and cfg.noise_std == 0


def test_cli_gen_config_with_wrong_typed_suite_field_exits_2_naming_it(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"suite": {"num_tasks": "x"}}))
    assert main(["gen", "--config", str(config), "--out", str(tmp_path / "d.bundle")]) == 2
    err = capsys.readouterr().err
    assert "suite.num_tasks: expected an integer, got 'x'" in err
    assert "not supported" not in err


def test_cli_on_suite_bundle_with_wrong_typed_config_exits_3_naming_the_field(tmp_path,
                                                                             capsys):
    path = tmp_path / "suite.bundle"
    save_suite(gen_suite(SuiteConfig(num_tasks=2, samples_per_split=20, seed=4)), path)
    bad = _tampered(path, tmp_path / "bad.bundle", lambda m, a: m["config"].update(num_tasks="x"))
    with pytest.raises(BundleError, match="'config': num_tasks: expected an integer"):
        load_suite(bad)
    assert main(["finetune", "--data", str(bad), "--out-dir", str(tmp_path / "ckpts")]) == 3
    err = capsys.readouterr().err
    assert "num_tasks: expected an integer" in err and "not supported" not in err
