"""The one step plan behind every training loop, and the inputs it rejects.

`pilot_two_stage` against a reference loop built from public functions;
the coefficient gradient of a layer that a task replaces; the loss table;
and non-positive batch sizes, negative epoch counts and `adapt` settings
that would train nothing or name no layer, each rejected with a named error.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mergelab import adaptation
from mergelab.adaptation import (
    AdaptConfig,
    finetune_expert,
    pilot_two_stage,
    pretrain_backbone,
    symerge,
    task_vectors_from_experts,
)
from mergelab.analysis import loss_correlation_report
from mergelab.cli import main
from mergelab.config import ConfigError, adapt_config_from_dict
from mergelab.engine import (
    LOSS_KINDS,
    LOSS_TABLE,
    LayerParams,
    LossSpec,
    ParamSet,
    ShapeError,
    adam_init,
    adam_step,
    backward,
    encode,
    init_params,
)
from mergelab.merging import (
    CoefficientMatrix,
    MergedAssembly,
    TaskVector,
    coefficient_grad,
    merge_task_arithmetic,
    stack_task_vectors,
)
from mergelab.suites import SuiteConfig, gen_suite, spawn_rng
from mergelab.theory import Prop1Instance, ctl_residual, prop1_verify, random_linear_instance

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def models():
    suite = gen_suite(SuiteConfig(num_tasks=3, classes_per_task=3, input_dim=10,
                                  samples_per_split=60, shared_subspace_dim=4,
                                  task_rotation_strength=0.8, noise_std=0.2, seed=9))
    pre = init_params((10, 12, 8), {t.task_id: t.num_outputs for t in suite.tasks},
                      spawn_rng(9, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=4,
                                          lr=0.01, seed=9) for t in suite.tasks}
    return suite, pre, experts, task_vectors_from_experts(pre, experts)


# ---------------------------------------------------------------------------
# the pilot's head retraining against a reference loop


def reference_pilot(merged_encoder, suite, experts, epochs, lr, batch_size, seed):
    """`pilot_two_stage` the slow way: each head steps through `backward`
    (on the merged encoder's activations of the whole split, computed once
    by `encode`, as the pilot's features are) and `adam_step`, rebuilt as a
    checked `LayerParams` after every step."""
    task_ids = sorted(experts)
    spec = LossSpec("cross_entropy_hard")
    retrained = {}
    for task in task_ids:
        data = suite.task(task)
        x, y = data.x_train, data.y_train
        acts = [x] + [encode(merged_encoder[:k], x) for k in range(1, len(merged_encoder) + 1)]
        head = experts[task].head(task)
        state = adam_init([head.flat])
        rng = spawn_rng(seed, "pilot", task)
        n = len(x)
        bs = min(batch_size, n)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n - bs + 1, bs):
                idx = order[start:start + bs]
                batch = [a[idx] for a in acts]
                logits = batch[-1] @ head.weight.T + head.bias
                _, grads = backward(ParamSet(merged_encoder, {task: head}), task, x[idx], y[idx],
                                    spec, cache=(logits, batch))
                (flat,), state = adam_step([head.flat], [grads.heads[task].flat], state, lr)
                size = head.weight.size
                head = LayerParams(flat[:size].reshape(head.weight.shape), flat[size:])
        retrained[task] = head

    def accuracy(head, feats, y):
        return float((np.argmax(feats @ head.weight.T + head.bias, axis=1) == y).mean())

    gains = np.zeros((len(task_ids), len(task_ids)))
    for i, enc_task in enumerate(task_ids):
        for j, head_task in enumerate(task_ids):
            data = suite.task(head_task)
            feats = encode(experts[enc_task].encoder, data.x_test)
            gains[i, j] = (accuracy(retrained[head_task], feats, data.y_test)
                           - accuracy(experts[head_task].head(head_task), feats, data.y_test))
    return gains


@pytest.mark.parametrize("batch_size", [16, 7, 500], ids=["even", "ragged", "whole_split"])
def test_pilot_equals_reference_loop(models, batch_size):
    suite, pre, experts, vectors = models
    merged = merge_task_arithmetic(pre, [vectors[t] for t in sorted(vectors)], 0.5)
    got = pilot_two_stage(merged, suite, experts, epochs=3, lr=0.05, batch_size=batch_size,
                          seed=2)
    want = reference_pilot(merged, suite, experts, 3, 0.05, batch_size, 2)
    assert np.abs(got - want).max() == 0.0
    assert np.abs(want).max() > 0.0  # the retrained heads changed some predictions


# ---------------------------------------------------------------------------
# the coefficient gradient of a replaced layer


def test_coefficient_grad_leaves_the_column_of_a_none_layer_zero():
    rng = np.random.default_rng(3)
    shapes = [(6, 5), (4, 6), (3, 4)]
    vectors = [TaskVector(tuple(LayerParams(rng.normal(size=s), rng.normal(size=s[0]))
                                for s in shapes)) for _ in range(4)]
    stack = stack_task_vectors(vectors, vectors[0].deltas)
    grads = [rng.normal(size=s[0] * s[1] + s[0]) for s in shapes]
    full = coefficient_grad(grads, stack)
    for skip in ({0}, {1}, {2}, {0, 2}, {0, 1, 2}):
        got = coefficient_grad([None if l in skip else g for l, g in enumerate(grads)], stack)
        kept = [l for l in range(3) if l not in skip]
        assert np.array_equal(got[:, sorted(skip)], np.zeros((4, len(skip))))
        assert np.array_equal(got[:, kept], full[:, kept])
    with pytest.raises(ShapeError):
        coefficient_grad([None, grads[1][:-1], grads[2]], stack)
    with pytest.raises(ShapeError):
        coefficient_grad([None, *grads], stack)


def test_adaptation_asks_no_coefficient_gradient_of_a_replaced_layer(models, monkeypatch):
    suite, pre, experts, vectors = models
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    seen = []

    def spy(encoder_grads, stack):
        seen.append([g is None for g in encoder_grads])
        return coefficient_grad(encoder_grads, stack)

    monkeypatch.setattr(adaptation, "coefficient_grad", spy)
    result = symerge(pre, vectors, experts, inputs,
                     AdaptConfig(iterations=3, batch_size=16, seed=1, trainable_layer=1))
    assert len(seen) == sum(s.kept > 0 for s in result.step_stats) > 0
    assert all(flags == [False, True] for flags in seen)
    assert np.array_equal(result.coeffs.values[:, 1], np.full(3, 0.3))
    assert not np.array_equal(result.coeffs.values[:, 0], np.full(3, 0.3))


# ---------------------------------------------------------------------------
# the loss table


def test_every_loss_kind_is_declared_once_in_the_loss_table():
    assert LOSS_KINDS == ("cross_entropy_hard", "cross_entropy_soft", "entropy", "kl", "js",
                          "l1", "l2", "smooth_l1", "cosine")
    for kind, (form, _) in LOSS_TABLE.items():
        assert LossSpec(kind).target_arity == form
    convex = {k for k, (_, is_convex) in LOSS_TABLE.items() if is_convex}
    assert convex == {"l2", "l1", "smooth_l1", "cross_entropy_hard", "cross_entropy_soft", "kl"}


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_the_bound_verifier_takes_exactly_the_convex_losses(kind):
    inst = random_linear_instance(np.random.default_rng(4), loss_kind="l2")
    args = ("linear", inst.theta_0, inst.theta_i, inst.theta_j, inst.inputs, None, LossSpec(kind))
    if LOSS_TABLE[kind][1]:
        Prop1Instance(*args)
    else:
        with pytest.raises(ValueError, match="not convex"):
            Prop1Instance(*args)


def test_prop1_reports_the_residual_of_ctl_residual(models):
    _, pre, experts, _ = models
    a, b = (experts[t] for t in sorted(experts)[:2])
    x = np.random.default_rng(6).normal(size=(20, 10))
    inst = Prop1Instance("nonlinear-net", pre.encoder, a.encoder, b.encoder, x,
                         np.zeros(20, dtype=np.int64), LossSpec("cross_entropy_hard"),
                         b.head("task1"))
    rep = prop1_verify(inst)
    assert (rep.ctl_residual, rep.ctl_residual_mean) == ctl_residual(
        a.encoder, b.encoder, x, head=b.head("task1"))
    assert rep.ctl_residual > 0.0


# ---------------------------------------------------------------------------
# non-positive batch sizes and negative epoch counts


def test_training_loops_name_a_bad_batch_size_or_epoch_count(models):
    suite, pre, experts, vectors = models
    t = suite.tasks[0]
    loops = {
        "finetune": lambda epochs, bs: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                                       epochs=epochs, lr=0.01, batch_size=bs),
        "pretrain": lambda epochs, bs: pretrain_backbone(pre, suite, epochs, 0.01, bs),
        "pilot": lambda epochs, bs: pilot_two_stage(pre.encoder, suite, experts, epochs,
                                                    batch_size=bs),
    }
    for run in loops.values():
        for bs in (0, -3):
            with pytest.raises(ValueError, match=f"batch_size must be positive, got {bs}"):
                run(1, bs)
        with pytest.raises(ValueError, match="epochs must be nonnegative, got -1"):
            run(-1, 16)
    ids = tuple(sorted(experts))
    assembly = MergedAssembly(pre.encoder, [vectors[i] for i in ids],
                              CoefficientMatrix.constant(ids, 2, 0.3),
                              {i: experts[i].head(i) for i in ids}, {})
    sets = {i: (suite.task(i).x_test, suite.task(i).y_test) for i in ids}
    with pytest.raises(ValueError, match="batch_size must be positive, got 0"):
        loss_correlation_report(assembly, assembly, experts, sets, batch_size=0)


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    data, ckpts = root / "data.bundle", root / "ckpts"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3",
                 "--input-dim", "6", "--samples", "24", "--subspace-dim", "3",
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    assert main(["merge", "--ckpt-dir", str(ckpts), "--method", "task_arithmetic",
                 "--out-dir", str(root / "merged")]) == 0
    return root


@pytest.mark.parametrize("argv, named", [
    (["finetune", "--batch-size", "0"], "batch_size must be positive"),
    (["finetune", "--epochs", "-1"], "epochs must be nonnegative"),
    (["finetune", "--pre-epochs", "-2"], "epochs must be nonnegative"),
    (["analyze", "--analyses", "correlation", "--batch-size", "0"],
     "batch_size must be positive"),
], ids=["finetune_batch_size", "finetune_epochs", "finetune_pre_epochs", "correlation"])
def test_cli_bad_batch_size_or_epochs_exits_3_without_a_traceback(small_pipeline, tmp_path,
                                                                  argv, named):
    root = small_pipeline
    inputs = ["--data", str(root / "data.bundle"), "--out-dir", str(tmp_path / "out")]
    if argv[0] == "analyze":
        inputs += ["--ckpt-dir", str(root / "ckpts"),
                   "--coeffs", str(root / "merged" / "coeffs.json")]
    proc = subprocess.run([sys.executable, "-m", "mergelab", *argv, *inputs],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 3, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("out/expert_*")) and not list(tmp_path.glob("out/*.json"))


# ---------------------------------------------------------------------------
# `adapt` settings that name no layer, train nothing or go unused


def test_adapt_config_rejects_an_empty_selector_and_a_run_that_trains_nothing():
    for sel in ((), []):
        with pytest.raises(ValueError, match="trainable_layer: an empty selector"):
            AdaptConfig(trainable_layer=sel)
    with pytest.raises(ConfigError, match="adapt.trainable_layer: an empty selector"):
        adapt_config_from_dict({"trainable_layer": []})
    with pytest.raises(ValueError, match="train_coeffs: .* trains nothing"):
        AdaptConfig(trainable_layer=None, train_coeffs=False)
    with pytest.raises(ConfigError, match="adapt.train_coeffs: .* trains nothing"):
        adapt_config_from_dict({"trainable_layer": None, "train_coeffs": False})
    AdaptConfig(trainable_layer=1, train_coeffs=False)  # a layer-only run trains the layer


def _adapt(root, capsys, method, *flags) -> tuple:
    capsys.readouterr()
    code = main(["adapt", "--data", str(root / "data.bundle"), "--ckpt-dir", str(root / "ckpts"),
                 "--method", method, "--iterations", "2", *flags,
                 "--out-dir", str(root / "adapted")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--loss", "kl"], "--loss"),
    (["--trainable-layer", "head"], "--trainable-layer"),
    (["--lr-layer", "0.1"], "--lr-layer"),
    (["--no-filter"], "--no-filter"),
    (["--no-train-coeffs"], "--no-train-coeffs"),
])
def test_adamerging_with_a_flag_it_would_ignore_exits_2_naming_it(small_pipeline, capsys,
                                                                  flags, named):
    code, err = _adapt(small_pipeline, capsys, "adamerging", *flags)
    assert code == 2
    assert f"{named}: method adamerging" in err
    assert not (small_pipeline / "adapted").exists()


@pytest.mark.parametrize("flags, named", [
    (["--trainable-layer", "none", "--no-train-coeffs"], "adapt.train_coeffs"),
    (["--trainable-layer", "1:1"], "adapt.trainable_layer"),
    (["--trainable-layer", "x"], "trainable_layer: 'x'"),
    (["--trainable-layer", "0:y"], "trainable_layer: '0:y'"),
], ids=["trains_nothing", "empty_range", "malformed", "malformed_range"])
def test_symerge_with_nothing_to_train_or_a_bad_selector_exits_2(small_pipeline, capsys,
                                                                 flags, named):
    code, err = _adapt(small_pipeline, capsys, "symerge", *flags)
    assert code == 2
    assert named in err
    assert not (small_pipeline / "adapted").exists()


def test_adamerging_ignores_those_fields_in_a_config_file_unless_nothing_is_trained(
        small_pipeline, capsys, tmp_path):
    config = tmp_path / "adapt.json"
    config.write_text(json.dumps({"adapt": {"trainable_layer": "head", "lr_layer": 0.1,
                                            "filter_enabled": False, "batch_size": 8}}))
    code, err = _adapt(small_pipeline, capsys, "adamerging", "--config", str(config))
    assert code == 0, err
    manifest = json.loads((small_pipeline / "adapted" / "adapt.manifest.json").read_text())
    assert manifest["config"]["adapt"]["trainable_layer"] is None
    shutil.rmtree(small_pipeline / "adapted")
    config.write_text(json.dumps({"adapt": {"train_coeffs": False}}))
    code, err = _adapt(small_pipeline, capsys, "adamerging", "--config", str(config))
    assert code == 2 and "adapt.train_coeffs" in err
    assert not (small_pipeline / "adapted").exists()
