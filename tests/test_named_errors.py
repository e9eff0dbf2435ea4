"""Named errors that the library raises on bad direct calls, one row each:
the call, the exception type and its exact message."""

import fnmatch
import json
from dataclasses import dataclass

import numpy as np
import pytest

from mergelab.analysis import CorrelationReport, discrepancy, evaluate, spearman, transfer_metrics
from mergelab.cli import main
from mergelab.config import ConfigError, _build, suite_config_from_dict
from mergelab.engine import (
    LayerParams,
    LossSpec,
    ParamSet,
    ShapeError,
    UnknownTaskError,
    adam_init,
    adam_step,
    encode,
    forward,
    forward_cached,
    loss_eval,
)
from mergelab.merging import CoefficientMatrix, TaskVectorStack, stack_task_vectors
from mergelab.reports import SCHEMAS, write_report
from mergelab.serialization import (
    BundleError,
    load_bundle,
    load_checkpoint,
    load_suite,
    read_manifest,
    save_bundle,
)
from mergelab.suites import SuiteConfig, gen_suite
from mergelab.theory import Prop1Instance, model_outputs

from conftest import random_paramset

LAYER = LayerParams(np.zeros((4, 5)), np.zeros(4))  # 5 inputs -> 4 outputs
HEAD = LayerParams(np.zeros((3, 4)), np.zeros(3))
Z = np.zeros((2, 3))  # outputs: a batch of 2 over 3 classes
X = np.zeros((4, 5))  # inputs: a batch of 4 over 5 dims
LABELS = np.array([0, 1, 2, 0])
HARD = LossSpec("cross_entropy_hard")


@dataclass(frozen=True)
class _Range:
    lo: int = 0
    hi: int = 1

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("lo exceeds hi")  # names no single field


def _eval_row_without(column: str) -> dict:
    return {c: 0 for c in SCHEMAS["eval"] if c not in ("manifest_hash", column)}


def _bundle(d, meta, arrays):
    save_bundle(d / "f.bundle", meta, arrays)
    return d / "f.bundle"


def _raw(d, data: bytes, name: str = "f.json"):
    (d / name).write_bytes(data)
    return d / name


def _bad_entry_name(d):
    header = json.dumps({"meta": {}, "arrays": [{"name": 5, "dtype": "int64", "shape": [0]}]})
    return _raw(d, b"MLBUNDLE" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little")
                + header.encode(), "f.bundle")


_UNCHAINED = {"format": "paramset", "encoder": [[4, 5], [2, 3]], "heads": {}}
_UNCHAINED_ARRAYS = {"enc0.w": np.zeros((4, 5)), "enc0.b": np.zeros(4),
                     "enc1.w": np.zeros((2, 3)), "enc1.b": np.zeros(2)}

# (call on a scratch directory d, exception type, message; "{d}" stands for d)
CASES = {
    # engine
    "bias_length": (lambda d: LayerParams(np.zeros((2, 3)), np.zeros(3)), ShapeError,
                    "weight rows 2 != bias length 3"),
    "no_encoder": (lambda d: ParamSet((), {}), ShapeError,
                   "encoder must have at least one layer"),
    "1d_outputs": (lambda d: loss_eval(np.zeros(3), None, LossSpec("entropy")), ShapeError,
                   "outputs must be 2-D (batch, dim), got shape (3,)"),
    "label_count": (lambda d: loss_eval(Z, np.array([0]), HARD), ShapeError,
                    "labels must be 1-D of length 2"),
    "float_labels": (lambda d: loss_eval(Z, np.array([0.0, 1.0]), HARD), ValueError,
                     "class labels must be integers"),
    "label_range": (lambda d: loss_eval(Z, np.array([0, 3]), HARD), ValueError,
                    "class label out of range"),
    "nan_targets": (lambda d: loss_eval(Z, np.full((2, 3), np.nan), LossSpec("l2")), ValueError,
                    "targets contain non-finite values"),
    "cosine_zero": (lambda d: loss_eval(np.zeros((1, 2)), np.ones((1, 2)), LossSpec("cosine")),
                    ValueError, "cosine loss undefined for zero-norm vectors"),
    "1d_inputs": (lambda d: encode((LAYER,), np.zeros(5)), ShapeError,
                  "inputs must be 2-D (batch, dim), got (5,)"),
    "head_first": (lambda d: forward(ParamSet((LAYER,), {"a": HEAD}), "b", np.zeros(5)),
                   UnknownTaskError, "no head for task 'b'"),
    "adam_lr": (lambda d: adam_step([Z], [Z], adam_init([Z]), 0.0), ValueError,
                "learning rate must be positive"),
    "adam_lengths": (lambda d: adam_step([Z], [Z, Z], adam_init([Z]), 0.1), ShapeError,
                     "values / grads / state length mismatch"),
    # analysis
    "eval_kind": (lambda d: evaluate((LAYER,), HEAD, X, LABELS, kind="ranking"), ValueError,
                  "unknown task kind 'ranking'"),
    "eval_2d_labels": (lambda d: evaluate((LAYER,), HEAD, X, LABELS[:, None]), ShapeError,
                       "classification labels must be 1-D, got shape (4, 1)"),
    "transfer_heads": (lambda d: transfer_metrics(None, [None, None], None, [HEAD],
                                                  [(X, LABELS)] * 2),
                       ShapeError, "need one head and one test set per task"),
    "spearman_lengths": (lambda d: spearman([1, 2, 3], [1, 2]), ShapeError,
                         "spearman expects two equal-length 1-D sequences"),
    "rho_missing": (lambda d: CorrelationReport([]).rho("a", "entropy", "initial"), KeyError,
                    ("a", "entropy", "initial")),
    "discrepancy": (lambda d: discrepancy([0, 1], [0], [0, 1]), ShapeError,
                    "prediction/label lengths differ"),
    # merging
    "coeff_row": (lambda d: CoefficientMatrix(("a",), np.ones((1, 2))).row("b"),
                  UnknownTaskError, "no coefficient row for task 'b'"),
    "stack_shapes": (lambda d: stack_task_vectors(
                         TaskVectorStack(((3, 2),), (np.zeros((1, 8)),)), (LAYER,)), ShapeError,
                     "task vector shapes ((3, 2),) != layer shapes ((4, 5),)"),
    # reports
    "report_row": (lambda d: write_report(d, "eval", [_eval_row_without("metric")], "h"),
                   ValueError, "report row for 'eval' missing fields ['metric']"),
    # serialization
    "entry_name": (lambda d: load_bundle(_bad_entry_name(d)), BundleError,
                   "{d}/f.bundle: arrays[0].name: not a string"),
    "unchained": (lambda d: load_checkpoint(_bundle(d, _UNCHAINED, _UNCHAINED_ARRAYS)),
                  BundleError, "{d}/f.bundle: inconsistent shapes: encoder layers incompatible: "
                               "4 -> expected in_dim, got 3"),
    "save_dtype": (lambda d: save_bundle(d / "f.bundle", {}, {"a": np.zeros(2, np.float32)}),
                   BundleError, "{d}/f.bundle: unsupported dtype float32 for array 'a'"),
    "manifest_bytes": (lambda d: read_manifest(_raw(d, b"\xff{}")), BundleError,
                       "{d}/f.json: not valid JSON (* can't decode byte 0xff*)"),
    "manifest_json": (lambda d: read_manifest(_raw(d, b"{")), BundleError,
                      "{d}/f.json: not valid JSON (Expecting property name*)"),
    "manifest_list": (lambda d: read_manifest(_raw(d, b"[]")), BundleError,
                      "{d}/f.json: holds a JSON list, not a manifest object"),
    "suite_noise": (lambda d: load_suite(_bundle(d, {"format": "suite", "config": {
                        "noise_std": 1e308}, "tasks": []}, {})), BundleError,
                    "{d}/f.bundle: meta field 'config': noise_std: must be in [0, 1e300], "
                    "got 1e+308"),
    # suites
    "suite_task": (lambda d: gen_suite(SuiteConfig(num_tasks=1, samples_per_split=5)).task("b"),
                   KeyError, "no task 'b' in suite"),
    # theory
    "outputs_family": (lambda d: model_outputs((LAYER,), X, "cubic"), ValueError,
                       "unknown model family 'cubic'"),
    "prop1_family": (lambda d: Prop1Instance("cubic", (), (), (), X, None, LossSpec("l2")),
                     ValueError, "unknown model family 'cubic'"),
    # config
    "section_type": (lambda d: suite_config_from_dict([1]), ConfigError,
                     "suite: expected an object"),
    "unfielded": (lambda d: _build(_Range, {"lo": 2}, "range"), ConfigError,
                  "range: lo exceeds hi"),
}


@pytest.mark.parametrize("call, kind, message", CASES.values(), ids=CASES.keys())
def test_a_bad_call_raises_its_named_error(tmp_path, call, kind, message):
    with pytest.raises(kind) as info:
        call(tmp_path)
    assert type(info.value) is kind
    got = info.value.args[0]
    if isinstance(message, str) and "*" in message:  # the parser's own wording varies
        assert fnmatch.fnmatchcase(got, message.format(d=tmp_path)), got
    else:
        assert got == (message.format(d=tmp_path) if isinstance(message, str) else message)


def test_forward_gives_forward_cached_logits_bit_for_bit():
    params = random_paramset(np.random.default_rng(3), dims=(5, 7, 4))
    x = np.random.default_rng(4).normal(size=(9, 5))
    assert forward(params, "b", x).tobytes() == forward_cached(params, "b", x)[0].tobytes()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_merge_with_a_non_finite_lambda_exits_2_naming_the_flag(tmp_path, capsys, value):
    out = tmp_path / "out"  # the flag is checked before the checkpoints are read
    code = main(["merge", "--ckpt-dir", str(tmp_path / "ckpts"), "--method", "task_arithmetic",
                 "--lambda", value, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (f"config error: --lambda: expected a finite real "
                                       f"number, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [("1000.5", "1000.5"), ("-1e308", "-1e+308")])
def test_merge_with_a_lambda_beyond_the_bound_exits_2_naming_the_flag(tmp_path, capsys, value,
                                                                      shown):
    out = tmp_path / "out"  # the flag is checked before the checkpoints are read
    code = main(["merge", "--ckpt-dir", str(tmp_path / "ckpts"), "--method", "task_arithmetic",
                 f"--lambda={value}", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (f"config error: --lambda: must be in [-1000, 1000], "
                                       f"got {shown}\n")
    assert not out.exists()


def test_adapt_with_a_start_beyond_the_bound_exits_2_naming_the_field(tmp_path, capsys):
    data, ckpts, out = tmp_path / "data.bundle", tmp_path / "ckpts", tmp_path / "out"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3", "--input-dim", "6",
                 "--samples", "24", "--subspace-dim", "3", "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    code = main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts), "--method", "symerge",
                 "--iterations", "1", "--init-coeff=-1e308", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("config error: adapt.init_coeff: must be in "
                                       "[-1000, 1000], got -1e+308\n")
    assert not out.exists()


def test_gen_with_a_noise_beyond_the_bound_exits_2_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "data.bundle"
    code = main(["gen", "--tasks", "2", "--samples", "8", "--noise", "1e308", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("config error: suite.noise_std: must be in [0, 1e300], "
                                       "got 1e+308\n")
    assert list(tmp_path.iterdir()) == []


def test_the_largest_noise_the_bound_allows_draws_a_finite_suite():
    cfg = SuiteConfig(num_tasks=2, samples_per_split=8, noise_std=1e300)
    assert all(np.isfinite(t.x_train).all() for t in gen_suite(cfg).tasks)  # the contract holds
