"""What a `mergelab` process imports depends on its command. `import
mergelab`, `--version`, `--help`, usage errors and `report` load no numpy
module; the parser path loads no command body and none of `dataclasses`,
`json` or `csv`; every name the package exports still resolves to its
module's object; and an error class imported only by a numeric command keeps
its exit code."""

import functools
import importlib
import json
import os
import subprocess
import sys

import pytest

import mergelab
from mergelab import cli, reports
from mergelab.cli import build_parser, main

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src"

# the names `mergelab/__init__.py` imported eagerly from each module
EXPORTS = {
    "engine": "AdamState LayerParams LossSpec ParamSet ShapeError UnknownTaskError adam_init "
              "adam_step backward forward loss_eval",
    "merging": "CoefficientMatrix MergedAssembly TaskVector TrainableLayer coefficient_grad "
               "compute_task_vector default_init_coeff merge_layerwise merge_task_arithmetic "
               "merge_uniform",
    "adaptation": "AdaptConfig AdaptResult SelfLabelBatch adamerging_entropy build_assembly "
                  "confidence_filter finetune_expert make_self_labels "
                  "pilot_two_stage pretrain_backbone symerge task_vectors_from_experts",
    "analysis": "CorrelationReport DiscrepancyReport SparsityReport cross_task_matrix "
                "discrepancy evaluate evaluate_assembly loss_correlation_report spearman "
                "sparsity_report transfer_metrics",
    "theory": "Prop1Instance Prop1Report ctl_residual prop1_verify",
    "suites": "CorruptionSpec SuiteConfig TaskData TaskSuite corrupt_features corrupt_split "
              "corrupt_suite gen_suite spawn_rng",
    "serialization": "load_checkpoint load_coeffs load_suite load_trainable save_checkpoint "
                     "save_coeffs save_suite save_trainable",
}


def _run(*args):
    """`python -X importtime <args>`: the process and the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"))
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    return proc, imported


@functools.cache
def _interpreter_imports() -> frozenset:
    """What a bare interpreter imports (`site` and what it pulls in)."""
    proc, imported = _run("-c", "pass")
    assert proc.returncode == 0, proc.stderr
    return frozenset(imported)


def _imported_beyond_interpreter(*args) -> tuple:
    proc, imported = _run(*args)
    return proc, set(imported) - _interpreter_imports()


def _numpy(imported) -> list:
    return [m for m in imported if m.split(".")[0] == "numpy"]


def _help(*command) -> str:
    parser = build_parser()
    if command:
        sub = next(a for a in parser._actions if a.dest == "command")
        parser = sub.choices[command[0]]
    return parser.format_help()


@pytest.mark.parametrize("argv, code, stdout", [
    (["--version"], 0, lambda: f"mergelab {mergelab.__version__}\n"),
    (["--help"], 0, _help),
    (["analyze", "--help"], 0, lambda: _help("analyze")),
    (["bogus-command"], 1, lambda: ""),
], ids=["version", "help", "analyze-help", "usage-error"])
def test_commands_that_compute_nothing_start_without_numpy(monkeypatch, argv, code, stdout):
    monkeypatch.setenv("COLUMNS", "80")  # the width the subprocess formats help at
    proc, imported = _run("-m", "mergelab", *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == stdout()
    assert "mergelab.cli" in imported
    assert _numpy(imported) == []
    if code:
        assert "usage: mergelab" in proc.stderr and "Traceback" not in proc.stderr


# what the parser path never needs: the command bodies and the stdlib they use
PARSER_FREE = {"dataclasses", "inspect", "json", "csv", "mergelab.commands"}


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["bogus-command"], 1),
    (["finetune", "--data", "d", "--out-dir", "o", "--hidden", "3,x"], 1),
], ids=["version", "help", "usage-error", "bad-hidden"])
def test_parser_path_loads_no_command_body_or_stdlib_it_uses(argv, code):
    proc, new = _imported_beyond_interpreter("-m", "mergelab", *argv)
    assert proc.returncode == code, proc.stderr
    assert "mergelab.cli" in new
    assert sorted(new & PARSER_FREE) == []


def test_report_loads_no_dataclasses(tmp_path):
    reports.write_report(tmp_path / "runs", "eval", [], "h")
    proc, new = _imported_beyond_interpreter("-m", "mergelab", "report", "--runs",
                                             str(tmp_path / "runs"), "--out-dir",
                                             str(tmp_path / "combined"))
    assert proc.returncode == 0, proc.stderr
    assert "json" in new and "dataclasses" not in new


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 2-task suite and its checkpoints: (data, ckpts)."""
    root = tmp_path_factory.mktemp("trained")
    data, ckpts = root / "data.bundle", root / "ckpts"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3",
                 "--input-dim", "6", "--samples", "24", "--subspace-dim", "3",
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    return data, ckpts


def _submodules_loaded_by(*argv) -> set:
    """The mergelab submodules that a `mergelab <argv>` process, which must
    exit 0, has loaded. Read from `sys.modules`: `-X importtime` does not
    report a module that the package's `__getattr__` loads through importlib
    (as `from . import <module>` does)."""
    script = ("import sys; from mergelab.cli import main; assert main(sys.argv[1:]) == 0; "
              "print(*sorted(m for m in sys.modules if m.startswith('mergelab.')))")
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_merge_loads_no_adaptation(trained, tmp_path):
    loaded = _submodules_loaded_by("merge", "--ckpt-dir", trained[1], "--method", "weight_avg",
                                   "--out-dir", tmp_path / "merged")
    assert "mergelab.merging" in loaded and "mergelab.adaptation" not in loaded


def test_adapt_loads_no_analysis_or_theory(trained, tmp_path):
    data, ckpts = trained
    loaded = _submodules_loaded_by("adapt", "--data", data, "--ckpt-dir", ckpts,
                                   "--method", "symerge", "--iterations", "1",
                                   "--out-dir", tmp_path / "adapted")
    assert "mergelab.adaptation" in loaded
    assert sorted(loaded & {"mergelab.analysis", "mergelab.theory"}) == []


# what every numeric command loads: the modules that `commands` binds and
# calls through; of the modules below, a command loads only those it calls
SHARED = {f"mergelab.{m}" for m in ("cli", "commands", "config", "engine", "merging", "reports",
                                    "serialization", "suites")}
PER_COMMAND = {"mergelab.adaptation", "mergelab.analysis", "mergelab.theory"}


@pytest.mark.parametrize("argv, own", [
    (lambda data, ckpts, out: ["gen", "--out", out / "data.bundle", "--tasks", "2",
                               "--samples", "24"], set()),
    (lambda data, ckpts, out: ["finetune", "--data", data, "--out-dir", out, "--hidden", "4",
                               "--pre-epochs", "1", "--epochs", "1"], {"mergelab.adaptation"}),
    (lambda data, ckpts, out: ["merge", "--ckpt-dir", ckpts, "--method", "task_arithmetic",
                               "--out-dir", out], set()),
    (lambda data, ckpts, out: ["adapt", "--data", data, "--ckpt-dir", ckpts, "--method",
                               "symerge", "--iterations", "1", "--out-dir", out],
     {"mergelab.adaptation"}),
    (lambda data, ckpts, out: ["eval", "--data", data, "--ckpt-dir", ckpts, "--method",
                               "weight_avg", "--out-dir", out], PER_COMMAND),
    (lambda data, ckpts, out: ["analyze", "--data", data, "--ckpt-dir", ckpts, "--method",
                               "weight_avg", "--analyses", "eval", "--out-dir", out], PER_COMMAND),
], ids=["gen", "finetune", "merge", "adapt", "eval", "analyze"])
def test_each_numeric_command_loads_the_shared_modules_and_only_its_own(trained, tmp_path,
                                                                         argv, own):
    assert _submodules_loaded_by(*argv(*trained, tmp_path / "out")) == SHARED | own


def test_report_starts_without_numpy(tmp_path):
    runs, out = tmp_path / "runs", tmp_path / "combined"
    row = {"task": "task0", "metric": "accuracy", "value": 0.5}
    reports.write_report(runs, "eval", [row], "h")
    proc, imported = _run("-m", "mergelab", "report", "--runs", str(runs),
                          "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote 2 combined files to {out}\n"
    assert _numpy(imported) == []
    combined = json.loads((out / "combined_eval.json").read_text())
    assert combined["rows"] == [dict(row, manifest_hash="h")]


def test_import_mergelab_loads_no_submodule():
    proc, imported = _run("-c", "import mergelab")
    assert proc.returncode == 0, proc.stderr
    assert [m for m in imported if m.split(".")[0] in ("mergelab", "numpy")] == ["mergelab"]


def test_every_export_resolves_to_its_modules_object(monkeypatch):
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"mergelab.{module}")
        assert getattr(mergelab, module) is mod
        for name in names.split():
            assert getattr(mergelab, name) is getattr(mod, name), name
    assert set(dir(mergelab)) >= {n for names in EXPORTS.values() for n in names.split()}
    from mergelab import engine, forward
    assert forward is engine.forward is cli.forward
    # resolved at each access, so a name rebound in its module reads the same here
    monkeypatch.setattr(engine, "forward", lambda *a: None)
    assert mergelab.forward is engine.forward is cli.forward
    with pytest.raises(AttributeError, match="no_such_name"):
        mergelab.no_such_name


def test_degenerate_data_error_exits_3_without_traceback(tmp_path):
    data, ckpts, merged = tmp_path / "data.bundle", tmp_path / "ckpts", tmp_path / "merged"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3",
                 "--input-dim", "6", "--samples", "24", "--subspace-dim", "3",
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    assert main(["merge", "--ckpt-dir", str(ckpts), "--method", "weight_avg",
                 "--out-dir", str(merged)]) == 0
    # one batch of the whole 24-row test split: no correlation across batches
    proc, _ = _run("-m", "mergelab", "analyze", "--data", str(data), "--ckpt-dir", str(ckpts),
                   "--coeffs", str(merged / "coeffs.json"), "--analyses", "correlation",
                   "--batch-size", "24", "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert "error: need at least 2 batches for correlation" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
