import math

import numpy as np
import pytest

from mergelab.adaptation import (
    AdaptConfig,
    _BatchStream,
    adamerging_entropy,
    build_assembly,
    confidence_filter,
    default_init_coeff,
    finetune_expert,
    make_self_labels,
    pilot_two_stage,
    pretrain_backbone,
    symerge,
    task_vectors_from_experts,
    train_experts,
)
from mergelab.analysis import evaluate, evaluate_assembly
from mergelab.engine import (
    LayerParams,
    ParamSet,
    ShapeError,
    UnknownTaskError,
    forward,
    init_params,
    softmax,
)
from mergelab.merging import CoefficientMatrix, TaskVector
from mergelab.suites import SuiteConfig, TaskData, TaskSuite, gen_suite, spawn_rng

from conftest import build_reference_models, params_equal, random_paramset


def _const_logit_expert(logits, in_dim=3):
    """Expert whose forward output is the given constant logits row."""
    logits = np.asarray(logits, dtype=float)
    enc = (LayerParams(np.zeros((2, in_dim)), np.zeros(2)),)
    heads = {"t": LayerParams(np.zeros((len(logits), 2)), logits)}
    return ParamSet(enc, heads)


# ---------------------------------------------------------------------------
# self-labels and filtering


def test_self_labels_hand_computed_confidence():
    expert = _const_logit_expert([5.0, 0.0, 0.0])
    batch = make_self_labels(expert, "t", np.zeros((4, 3)))
    assert np.array_equal(batch.targets, np.zeros(4, dtype=int))
    expect = math.exp(5.0) / (math.exp(5.0) + 2.0)
    assert batch.expert_confidence == pytest.approx(expect, abs=1e-12)
    assert batch.expert_confidence[0] == pytest.approx(0.987, abs=5e-4)


def test_self_labels_uniform_tie_break():
    expert = _const_logit_expert([0.0, 0.0, 0.0])
    batch = make_self_labels(expert, "t", np.zeros((2, 3)))
    assert np.array_equal(batch.targets, np.zeros(2, dtype=int))  # lowest index wins
    assert batch.expert_confidence == pytest.approx(1.0 / 3.0)


def test_self_labels_regression_pass_through():
    rng = np.random.default_rng(0)
    expert = random_paramset(rng, tasks=("t",))
    x = rng.normal(size=(5, 5))
    batch = make_self_labels(expert, "t", x, kind="regression")
    assert np.array_equal(batch.targets, forward(expert, "t", x))
    assert batch.expert_confidence is None


def test_self_labels_name_the_task_whose_expert_outputs_overflow():
    # features saturate at tanh(20) = 1.0, so every output is 2 * 1e308 + 1e308
    enc = (LayerParams(np.zeros((2, 3)), np.full(2, 20.0)),)
    expert = ParamSet(enc, {"t": LayerParams(np.full((3, 2), 1e308), np.full(3, 1e308))})
    for kind in ("classification", "regression"):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="expert outputs for task 't' are not finite"):
                make_self_labels(expert, "t", np.zeros((4, 3)), kind)


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_self_labels_carry_the_expert_outputs(kind):
    rng = np.random.default_rng(1)
    expert = random_paramset(rng, tasks=("t",))
    x = rng.normal(size=(6, 5))
    assert np.array_equal(make_self_labels(expert, "t", x, kind).logits, forward(expert, "t", x))


def test_confidence_filter_rules():
    keep = confidence_filter(np.array([0.9, 0.7, 0.8]), np.array([0.8, 0.9, 0.8]))
    assert keep.tolist() == [False, True, True]  # higher merged conf excluded; ties kept
    with pytest.raises(ShapeError):
        confidence_filter(np.array([0.5]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# fine-tuning


def _separable_task(rng, n=60):
    # two well-separated clusters in 4-D
    y = np.repeat([0, 1], n // 2)
    centers = np.array([[2.0, 0, 0, 0], [-2.0, 0, 0, 0]])
    x = centers[y] + 0.3 * rng.normal(size=(n, 4))
    return x, y


def _perceptron_separable(x, y, iters=2000):
    # independent oracle: perceptron converges iff the data is separable
    xb = np.hstack([x, np.ones((len(x), 1))])
    sign = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(xb.shape[1])
    for _ in range(iters):
        wrong = np.flatnonzero(sign * (xb @ w) <= 0)
        if wrong.size == 0:
            return True
        w += sign[wrong[0]] * xb[wrong[0]]
    return False


def test_finetune_zero_epochs_is_noop():
    rng = np.random.default_rng(1)
    pre = random_paramset(rng, tasks=("t",))
    x, y = _separable_task(rng)
    with pytest.raises(ShapeError, match="input dim 4 != first layer in_dim 5"):
        finetune_expert(pre, x[:, :4], y, "t", epochs=0, lr=0.01)  # as at every epoch count
    # dims differ: rebuild a matching pre
    pre = ParamSet((LayerParams(rng.normal(size=(6, 4)), rng.normal(size=6)),),
                   {"t": LayerParams(rng.normal(size=(2, 6)), rng.normal(size=2))})
    out = finetune_expert(pre, x, y, "t", epochs=0, lr=0.01)
    assert params_equal(out, ParamSet(pre.encoder, {"t": pre.heads["t"]}))


def test_finetune_reaches_high_accuracy_on_separable_task():
    rng = np.random.default_rng(2)
    x, y = _separable_task(rng)
    assert _perceptron_separable(x, y)  # oracle first
    pre = init_params((4, 8, 6), {"t": 2}, np.random.default_rng(3))
    expert = finetune_expert(pre, x, y, "t", epochs=50, lr=0.01, seed=3)
    assert evaluate(expert.encoder, expert.heads["t"], x, y) >= 0.99


def test_finetune_deterministic_and_head_frozen():
    rng = np.random.default_rng(4)
    x, y = _separable_task(rng)
    pre = init_params((4, 8, 6), {"t": 2}, np.random.default_rng(5))
    a = finetune_expert(pre, x, y, "t", epochs=5, lr=0.01, seed=9)
    b = finetune_expert(pre, x, y, "t", epochs=5, lr=0.01, seed=9)
    assert params_equal(a, b)
    # head stays at the pre-trained head; only the encoder moves
    assert np.array_equal(a.heads["t"].weight, pre.heads["t"].weight)
    assert not np.array_equal(a.encoder[0].weight, pre.encoder[0].weight)


def test_finetune_loss_nonincreasing_on_most_seeds():
    monotone = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x, y = _separable_task(rng)
        pre = init_params((4, 8, 6), {"t": 2}, np.random.default_rng(200 + seed))
        _, history = finetune_expert(pre, x, y, "t", epochs=6, lr=0.01, seed=seed,
                                     return_history=True)
        assert history[-1] <= history[0]
        if all(b <= a + 1e-9 for a, b in zip(history, history[1:])):
            monotone += 1
    assert monotone >= 9


def test_finetune_empty_dataset_raises():
    rng = np.random.default_rng(6)
    pre = random_paramset(rng, tasks=("t",))
    with pytest.raises(ValueError):
        finetune_expert(pre, np.zeros((0, 5)), np.zeros(0, dtype=int), "t", epochs=1, lr=0.01)


# ---------------------------------------------------------------------------
# symerge


@pytest.fixture(scope="module")
def small_setup():
    cfg = SuiteConfig(num_tasks=3, classes_per_task=3, input_dim=10, samples_per_split=60,
                      shared_subspace_dim=4, task_rotation_strength=0.8, noise_std=0.2, seed=5)
    suite = gen_suite(cfg)
    pre = init_params((10, 12, 8), {t.task_id: t.num_outputs for t in suite.tasks},
                      spawn_rng(5, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=6, lr=0.01, seed=5) for t in suite.tasks}
    vectors = task_vectors_from_experts(pre, experts)
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    return suite, pre, experts, vectors, inputs


def _snapshot(params: ParamSet):
    return ([(l.weight.copy(), l.bias.copy()) for l in params.encoder],
            {t: (h.weight.copy(), h.bias.copy()) for t, h in params.heads.items()})


def _matches_snapshot(params: ParamSet, snap) -> bool:
    enc, heads = snap
    for l, (w, b) in zip(params.encoder, enc):
        if not (np.array_equal(l.weight, w) and np.array_equal(l.bias, b)):
            return False
    for t, (w, b) in heads.items():
        if not (np.array_equal(params.heads[t].weight, w)
                and np.array_equal(params.heads[t].bias, b)):
            return False
    return True


def test_symerge_zero_iterations_noop(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    cfg = AdaptConfig(iterations=0, init_coeff=0.3, seed=0)
    res = symerge(pre, vectors, experts, inputs, cfg)
    assert np.array_equal(res.coeffs.values, np.full((3, 2), 0.3))
    for t, tr in res.trainable.items():
        assert tr.selector == "head"
        assert np.array_equal(tr.params.weight, experts[t].heads[t].weight)


def test_symerge_default_init_matches_task_count_rule():
    assert default_init_coeff(4) == 0.3
    assert default_init_coeff(8) == 0.3
    assert default_init_coeff(9) == 0.1
    assert default_init_coeff(20) == 0.1


def test_symerge_experts_frozen_and_isolation(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    snaps = {t: _snapshot(p) for t, p in experts.items()}
    pre_snap = _snapshot(pre)
    cfg = AdaptConfig(iterations=8, batch_size=8, seed=1)
    res = symerge(pre, vectors, experts, inputs, cfg)
    for t, p in experts.items():
        assert _matches_snapshot(p, snaps[t])
    assert _matches_snapshot(pre, pre_snap)
    # coefficients moved, trainable heads moved away from the experts'
    assert not np.array_equal(res.coeffs.values, np.full((3, 2), 0.3))
    for t, tr in res.trainable.items():
        assert not np.array_equal(tr.params.weight, experts[t].heads[t].weight)


def test_symerge_loss_trace_decreases_on_most_seeds(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    improved = 0
    for seed in range(10):
        cfg = AdaptConfig(iterations=12, batch_size=8, seed=seed)
        res = symerge(pre, vectors, experts, inputs, cfg)
        if res.loss_trace[-1] < res.loss_trace[0]:
            improved += 1
    assert improved >= 9


def test_symerge_filter_disabled_consumes_every_sample(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    cfg = AdaptConfig(iterations=5, batch_size=8, seed=2, filter_enabled=False)
    res = symerge(pre, vectors, experts, inputs, cfg)
    assert all(s.kept == s.batch_size for s in res.step_stats)


def test_symerge_first_step_kept_set_matches_filter_mask(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    cfg = AdaptConfig(iterations=1, batch_size=8, seed=3, task_order="fixed")
    res = symerge(pre, vectors, experts, inputs, cfg)
    first = res.step_stats[0]
    task = first.task
    # replicate the batch draw and the initial merged model independently
    stream = _BatchStream(len(inputs[task]), cfg.batch_size, spawn_rng(cfg.seed, "batches", task))
    idx = stream.next_indices()
    init_asm = build_assembly(
        pre, vectors, experts,
        CoefficientMatrix.constant(tuple(sorted(experts)), len(pre.encoder), cfg.init_coeff),
        {})
    model = init_asm.materialize(task)
    merged_conf = softmax(forward(model, task, inputs[task][idx])).max(axis=1)
    labels = make_self_labels(experts[task], task, inputs[task])
    expect_kept = int(confidence_filter(merged_conf, labels.expert_confidence[idx]).sum())
    assert first.kept == expect_kept


def test_symerge_sequential_equals_aggregated_for_one_task(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    task = sorted(experts)[0]
    one_experts = {task: experts[task]}
    one_vectors = {task: vectors[task]}
    one_inputs = {task: inputs[task]}
    res_seq = symerge(pre, one_vectors, one_experts, one_inputs,
                      AdaptConfig(iterations=6, batch_size=8, seed=4, update_mode="sequential"))
    res_agg = symerge(pre, one_vectors, one_experts, one_inputs,
                      AdaptConfig(iterations=6, batch_size=8, seed=4, update_mode="aggregated"))
    assert np.array_equal(res_seq.coeffs.values, res_agg.coeffs.values)
    assert np.array_equal(res_seq.trainable[task].params.weight,
                          res_agg.trainable[task].params.weight)
    assert res_seq.loss_trace == res_agg.loss_trace


def test_symerge_aggregated_mode_improves_over_init(small_setup):
    from mergelab.analysis import evaluate_assembly
    suite, pre, experts, vectors, inputs = small_setup
    sets = {t.task_id: (t.x_test, t.y_test) for t in suite.tasks}
    accs = {}
    for mode in ("sequential", "aggregated"):
        cfg = AdaptConfig(iterations=30, batch_size=16, seed=12, update_mode=mode)
        res = symerge(pre, vectors, experts, inputs, cfg)
        asm = build_assembly(pre, vectors, experts, res.coeffs, res.trainable)
        accs[mode] = np.mean([evaluate_assembly(asm, t, *sets[t]) for t in sorted(experts)])
    init_asm = build_assembly(
        pre, vectors, experts,
        CoefficientMatrix.constant(tuple(sorted(experts)), len(pre.encoder), 0.3), {})
    init_acc = np.mean([evaluate_assembly(init_asm, t, *sets[t]) for t in sorted(experts)])
    assert accs["aggregated"] > init_acc
    assert accs["sequential"] > init_acc


def test_symerge_encoder_layer_mode_keeps_head_frozen(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    cfg = AdaptConfig(iterations=6, batch_size=8, seed=5, trainable_layer=1)
    res = symerge(pre, vectors, experts, inputs, cfg)
    for t, tr in res.trainable.items():
        assert tr.selector == 1
        assert not np.array_equal(tr.params.weight, experts[t].encoder[1].weight)
    asm = build_assembly(pre, vectors, experts, res.coeffs, res.trainable)
    for t in experts:
        model = asm.materialize(t)
        # the evaluation head is the frozen expert head in this mode
        assert np.array_equal(model.heads[t].weight, experts[t].heads[t].weight)
    # the replaced layer's coefficient column froze at its init value
    assert np.array_equal(res.coeffs.values[:, 1], np.full(3, 0.3))
    assert not np.array_equal(res.coeffs.values[:, 0], np.full(3, 0.3))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_symerge_multi_layer_mode(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    cfg = AdaptConfig(iterations=4, batch_size=8, seed=6, trainable_layer=(0, 1))
    res = symerge(pre, vectors, experts, inputs, cfg)
    for tr in res.trainable.values():
        assert tr.selector == (0, 1)
        assert len(tr.params) == 2
    assert np.array_equal(res.coeffs.values, np.full((3, 2), 0.3))  # all columns replaced


@pytest.mark.parametrize("update_mode", ["sequential", "aggregated"])
def test_symerge_training_every_encoder_layer_takes_no_coefficient_step(reference_run, monkeypatch,
                                                                         update_mode):
    # no layer mixes task vectors, so no coefficient has a gradient to step on
    import mergelab.adaptation as adaptation
    _, suite, pre, experts = reference_run
    vectors = task_vectors_from_experts(pre, experts)
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    calls, real = [], adaptation.coefficient_grad

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(adaptation, "coefficient_grad", spy)
    cfg = AdaptConfig(iterations=5, batch_size=16, trainable_layer=(0, 1, 2),
                      update_mode=update_mode)
    res = symerge(pre, vectors, experts, inputs, cfg)
    start = CoefficientMatrix.constant(tuple(sorted(experts)), len(pre.encoder), cfg.init_coeff)
    assert res.coeffs.values.tobytes() == start.values.tobytes()
    assert calls == []
    assert all(tr.selector == (0, 1, 2) for tr in res.trainable.values())


def test_symerge_layer_only_ablation_freezes_coeffs(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    cfg = AdaptConfig(iterations=5, batch_size=8, seed=7, train_coeffs=False)
    res = symerge(pre, vectors, experts, inputs, cfg)
    assert np.array_equal(res.coeffs.values, np.full((3, 2), 0.3))
    for t, tr in res.trainable.items():
        assert not np.array_equal(tr.params.weight, experts[t].heads[t].weight)


def test_symerge_whose_trained_layers_diverge_names_the_pass_and_the_task(small_setup):
    # frozen coefficients never diverge, so the trained-layer check names the task
    suite, pre, experts, vectors, inputs = small_setup
    cfg = AdaptConfig(iterations=3, batch_size=8, train_coeffs=False, lr_layer=1e6)
    with pytest.raises(ValueError, match=r"^adaptation diverged: .* on pass 0 for task 'task0'$"):
        symerge(pre, vectors, experts, inputs, cfg)


@pytest.mark.parametrize("loop, named", [
    ("pretrain", "pretraining diverged: non-finite outputs on epoch 1 for task 'task0'"),
    ("finetune", "fine-tuning diverged: non-finite layer parameters on epoch 2 for task 'task1'"),
    ("pilot", "pilot retraining diverged: non-finite outputs on epoch 1 for task 'task0'"),
    # the heads stay finite through every step; only the last epoch's outputs overflow
    ("pilot_one_epoch",
     "pilot retraining diverged: non-finite outputs on epoch 0 for task 'task0'"),
])
def test_a_divergent_rate_names_the_loop_the_epoch_the_task_and_the_rate(small_setup, loop,
                                                                          named):
    suite, pre, experts, _, _ = small_setup
    t = suite.tasks[1]
    run = {
        "pretrain": lambda: pretrain_backbone(pre, suite, 3, 1e308),
        "finetune": lambda: finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=3,
                                            lr=1e308),
        "pilot": lambda: pilot_two_stage(pre.encoder, suite, experts, epochs=3, lr=1e308),
        "pilot_one_epoch": lambda: pilot_two_stage(pre.encoder, suite, experts, epochs=1,
                                                   lr=1e308),
    }[loop]
    with pytest.raises(ValueError) as exc:
        run()
    assert str(exc.value) == f"{named} at learning rate 1e+308"


def test_adaptation_with_no_tasks_is_a_named_error(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    with pytest.raises(ValueError, match="adaptation needs at least one task"):
        symerge(pre, vectors, {}, inputs, AdaptConfig(iterations=2))
    with pytest.raises(ValueError, match="adaptation needs at least one task"):
        adamerging_entropy(pre, vectors, {}, inputs, AdaptConfig(iterations=2,
                                                                 trainable_layer=None))


def test_symerge_without_a_task_vector_names_the_task(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    missing = sorted(experts)[1]
    partial = {t: v for t, v in vectors.items() if t != missing}
    with pytest.raises(UnknownTaskError, match=f"missing task vector for '{missing}'"):
        symerge(pre, partial, experts, inputs, AdaptConfig(iterations=1))


@pytest.mark.parametrize("train", ["finetune_expert", "pilot_two_stage"])
def test_training_at_a_zero_learning_rate_is_rejected(small_setup, train):
    suite, pre, experts, vectors, inputs = small_setup
    t = suite.tasks[0]
    with pytest.raises(ValueError, match="learning rate must be positive"):
        if train == "finetune_expert":
            finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=1, lr=0.0)
        else:
            pilot_two_stage(pre.encoder, suite, experts, lr=0.0)


def test_symerge_missing_expert_input_raises(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    bad_inputs = dict(inputs)
    del bad_inputs[sorted(experts)[0]]
    with pytest.raises(KeyError):
        symerge(pre, vectors, experts, bad_inputs, AdaptConfig(iterations=1))


def test_symerge_empty_input_split_names_the_task(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    empty = sorted(experts)[1]
    bad_inputs = dict(inputs, **{empty: inputs[empty][:0]})
    with pytest.raises(ValueError, match=f"empty input split for task '{empty}'"):
        symerge(pre, vectors, experts, bad_inputs, AdaptConfig(iterations=1))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("loss", [None, "kl", "l2"])
def test_symerge_runs_each_expert_forward_once(small_setup, monkeypatch, loss):
    import mergelab.adaptation as adaptation
    suite, pre, experts, vectors, inputs = small_setup
    calls = []

    def spy(params, task, x):
        calls.append(task)
        return forward(params, task, x)

    monkeypatch.setattr(adaptation, "forward", spy)
    symerge(pre, vectors, experts, inputs, AdaptConfig(iterations=2, batch_size=8, loss=loss))
    assert sorted(calls) == sorted(experts)


def test_symerge_hard_label_loss_on_a_regression_task_names_it(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    task = sorted(experts)[1]
    cfg = AdaptConfig(iterations=1, loss="cross_entropy_hard")
    with pytest.raises(ValueError, match=f"hard-label loss needs classification self-labels "
                                         f"for '{task}'"):
        symerge(pre, vectors, experts, inputs, cfg, {task: "regression"})


def test_symerge_names_an_unknown_task_kind(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    with pytest.raises(ValueError, match="unknown task kind 'bogus'"):
        symerge(pre, vectors, experts, inputs, AdaptConfig(iterations=1),
                {sorted(experts)[0]: "bogus"})


def test_train_experts_is_the_explicit_recipe_bit_for_bit():
    cfg = SuiteConfig(num_tasks=3, classes_per_task=3, input_dim=8, samples_per_split=40,
                      shared_subspace_dim=3, seed=4, regression_tasks=(2,))
    suite = gen_suite(cfg)
    pre, experts = train_experts(suite, hidden=(10, 6), pre_epochs=2, pre_lr=5e-3, epochs=3,
                                 lr=1e-2, batch_size=16, seed=4)
    init = init_params((8, 10, 6), {t.task_id: t.num_outputs for t in suite.tasks},
                       spawn_rng(4, "init"))
    want_pre = pretrain_backbone(init, suite, epochs=2, lr=5e-3, batch_size=16, seed=4)
    assert params_equal(pre, want_pre)
    assert list(experts) == [t.task_id for t in suite.tasks]
    for t in suite.tasks:
        want = finetune_expert(want_pre, t.x_train, t.y_train, t.task_id, epochs=3, lr=1e-2,
                               batch_size=16, seed=4, kind=t.kind)
        assert params_equal(experts[t.task_id], want), t.task_id


def test_finetune_expert_rejects_an_unknown_task_kind(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    t = suite.tasks[0]
    with pytest.raises(ValueError, match="unknown task kind 'bogus'"):
        finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=1, lr=0.01, kind="bogus")


def test_symerge_regression_task_uses_l1_and_skips_filter():
    cfg = SuiteConfig(num_tasks=2, classes_per_task=3, input_dim=8, samples_per_split=40,
                      shared_subspace_dim=3, task_rotation_strength=0.5, noise_std=0.2,
                      seed=11, regression_tasks=(1,))
    suite = gen_suite(cfg)
    pre = init_params((8, 10, 6), {t.task_id: t.num_outputs for t in suite.tasks},
                      spawn_rng(11, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=4, lr=0.01, seed=11, kind=t.kind)
               for t in suite.tasks}
    vectors = task_vectors_from_experts(pre, experts)
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    kinds = {t.task_id: t.kind for t in suite.tasks}
    res = symerge(pre, vectors, experts, inputs,
                  AdaptConfig(iterations=5, batch_size=8, seed=11), task_kinds=kinds)
    reg_steps = [s for s in res.step_stats if s.task == "task1"]
    assert reg_steps and all(s.kept == s.batch_size for s in reg_steps)
    assert res.loss_trace[-1] < res.loss_trace[0]


def test_symerge_warns_and_continues_when_everything_is_filtered():
    # expert with exactly uniform confidence; the merged model is strictly
    # sharper, so every sample fails the filter on every pass
    big = 8.0
    pre = ParamSet((LayerParams(np.zeros((2, 3)), np.full(2, big)),),
                   {"t": LayerParams(np.array([[3.0, -1.0], [0.0, 1.0], [-3.0, 0.0]]),
                                     np.zeros(3))})
    expert = ParamSet((LayerParams(np.zeros((2, 3)), np.zeros(2)),), dict(pre.heads))
    vectors = task_vectors_from_experts(pre, {"t": expert})
    inputs = {"t": np.random.default_rng(30).normal(size=(12, 3))}
    cfg = AdaptConfig(iterations=3, batch_size=6, seed=30, init_coeff=0.3)
    with pytest.warns(UserWarning, match="fully filtered"):
        res = symerge(pre, vectors, {"t": expert}, inputs, cfg)
    assert np.array_equal(res.coeffs.values, np.full((1, 1), 0.3))
    assert np.array_equal(res.trainable["t"].params.weight, pre.heads["t"].weight)
    assert all(s.kept == 0 for s in res.step_stats)
    assert len(res.loss_trace) == 3  # the batch loss is still recorded


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_symerge_accepts_loss_overrides(small_setup):
    # the loss-function comparison study: every kind must drive the loop
    from mergelab.engine import LossSpec
    suite, pre, experts, vectors, inputs = small_setup
    for kind in ("cross_entropy_soft", "kl", "js", "l1", "l2", "smooth_l1", "cosine", "entropy"):
        cfg = AdaptConfig(iterations=2, batch_size=8, seed=20, loss=LossSpec(kind))
        res = symerge(pre, vectors, experts, inputs, cfg)
        assert len(res.loss_trace) == 2, kind


def test_supervisory_composition_takes_any_teacher(small_setup):
    # any teacher ParamSet per task self-labels the merge in place of the
    # expert: here the pre-trained encoder under each expert's head
    suite, pre, experts, vectors, inputs = small_setup
    teachers = {t: ParamSet(pre.encoder, {t: expert.head(t)}) for t, expert in experts.items()}
    cfg = AdaptConfig(iterations=3, batch_size=8, seed=21)
    res = symerge(pre, vectors, teachers, inputs, cfg)
    assert len(res.loss_trace) == 3
    by_experts = symerge(pre, vectors, experts, inputs, cfg)
    assert not np.array_equal(res.coeffs.values, by_experts.coeffs.values)


def test_symerge_robust_to_coefficient_initialization(small_setup):
    # initialization study: widely different starts both end up improving
    from mergelab.analysis import evaluate_assembly
    suite, pre, experts, vectors, inputs = small_setup
    sets = {t.task_id: (t.x_test, t.y_test) for t in suite.tasks}
    accs = []
    for init in (0.1, 0.6):
        cfg = AdaptConfig(iterations=30, batch_size=16, seed=22, init_coeff=init)
        res = symerge(pre, vectors, experts, inputs, cfg)
        asm = build_assembly(pre, vectors, experts, res.coeffs, res.trainable)
        accs.append(np.mean([evaluate_assembly(asm, t, *sets[t]) for t in sorted(experts)]))
    assert abs(accs[0] - accs[1]) < 0.1


# ---------------------------------------------------------------------------
# entropy-based coefficient adaptation


def test_adamerging_zero_vectors_leave_coeffs_at_init(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    heads = {t: experts[t].heads[t] for t in experts}
    zero_vectors = {
        t: TaskVector(tuple(LayerParams(np.zeros_like(l.weight), np.zeros_like(l.bias))
                            for l in pre.encoder))
        for t in experts
    }
    cfg = AdaptConfig(iterations=5, batch_size=8, seed=8, trainable_layer=None)
    coeffs = adamerging_entropy(pre, zero_vectors, heads, inputs, cfg)
    assert np.array_equal(coeffs.values, np.full((3, 2), 0.3))


def test_adamerging_entropy_floor_keeps_coeffs_nearly_still():
    # a single task whose predictions are already one-hot sharp
    expert = _const_logit_expert([80.0, 0.0, 0.0])
    pre = ParamSet(expert.encoder, {"t": expert.heads["t"]})
    sharp_delta = TaskVector((LayerParams(np.zeros((2, 3)), np.zeros(2)),))
    cfg = AdaptConfig(iterations=10, batch_size=4, seed=9, trainable_layer=None)
    coeffs = adamerging_entropy(pre, {"t": sharp_delta}, {"t": pre.heads["t"]},
                                {"t": np.zeros((8, 3))}, cfg)
    assert np.abs(coeffs.values - 0.3).max() < 1e-6


def test_adamerging_requires_coefficients_only(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    heads = {t: experts[t].heads[t] for t in experts}
    with pytest.raises(ValueError):
        adamerging_entropy(pre, vectors, heads, inputs,
                           AdaptConfig(iterations=1, trainable_layer="head"))


def test_adamerging_rejects_regression_tasks(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    heads = {t: experts[t].heads[t] for t in experts}
    kinds = {t: "classification" for t in experts}
    kinds[sorted(experts)[0]] = "regression"
    with pytest.raises(ValueError):
        adamerging_entropy(pre, vectors, heads, inputs,
                           AdaptConfig(iterations=1, trainable_layer=None), kinds)


@pytest.mark.parametrize("kind", ["regression", "bogus"])
def test_adamerging_names_the_kind_it_rejects(small_setup, kind):
    suite, pre, experts, vectors, inputs = small_setup
    heads = {t: experts[t].heads[t] for t in experts}
    task = sorted(experts)[1]
    with pytest.raises(ValueError,
                       match=f"^entropy objective undefined for {kind} task '{task}'$"):
        adamerging_entropy(pre, vectors, heads, inputs,
                           AdaptConfig(iterations=1, trainable_layer=None), {task: kind})


def test_adamerging_entropy_gradient_matches_finite_differences(small_setup):
    # the coefficient gradient used inside the loop, checked against FD of
    # the entropy objective
    from mergelab.engine import LossSpec, backward, loss_eval
    from mergelab.merging import CoefficientMatrix, coefficient_grad, merge_layerwise

    suite, pre, experts, vectors, inputs = small_setup
    tids = tuple(sorted(experts))
    vlist = [vectors[t] for t in tids]
    task = tids[0]
    head = experts[task].heads[task]
    x = inputs[task][:12]
    spec = LossSpec("entropy")
    coeffs = CoefficientMatrix(tids, np.random.default_rng(10).normal(0.3, 0.1, (3, 2)))

    def loss_of(values):
        enc = merge_layerwise(pre.encoder, vlist, CoefficientMatrix(tids, values))
        return loss_eval(forward(ParamSet(enc, {task: head}), task, x), None, spec)

    enc = merge_layerwise(pre.encoder, vlist, coeffs)
    _, grads = backward(ParamSet(enc, {task: head}), task, x, None, spec)
    analytic = coefficient_grad(grads.encoder, vlist)
    h = 1e-5
    for k in range(3):
        for l in range(2):
            vp = coeffs.values.copy(); vp[k, l] += h
            vm = coeffs.values.copy(); vm[k, l] -= h
            fd = (loss_of(vp) - loss_of(vm)) / (2 * h)
            denom = max(abs(fd), abs(analytic[k, l]), 1e-8)
            assert abs(fd - analytic[k, l]) / denom < 1e-4


# ---------------------------------------------------------------------------
# pilot protocol


def test_pilot_self_pairing_gain_near_zero(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    task = sorted(experts)[0]
    gains = pilot_two_stage(experts[task].encoder, suite, experts, seed=0)
    i = sorted(experts).index(task)
    assert abs(gains[i, i]) <= 0.05


def test_pilot_duplicated_tasks_symmetric_gains():
    cfg = SuiteConfig(num_tasks=1, classes_per_task=3, input_dim=8, samples_per_split=60,
                      shared_subspace_dim=3, task_rotation_strength=0.3, noise_std=0.25, seed=13)
    base = gen_suite(cfg).tasks[0]
    dup = TaskData("task1", base.kind, base.x_train.copy(), base.y_train.copy(),
                   base.x_test.copy(), base.y_test.copy())
    suite = TaskSuite(config=cfg, tasks=[base, dup])
    pre = init_params((8, 10, 6), {"task0": 3, "task1": 3}, spawn_rng(13, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=6, lr=0.01, seed=13) for t in suite.tasks}
    vectors = task_vectors_from_experts(pre, experts)
    merged = build_assembly(pre, vectors, experts,
                            CoefficientMatrix.constant(("task0", "task1"), 2, 0.5),
                            {}).merged_encoder()
    gains = pilot_two_stage(merged, suite, experts, seed=13)
    # identical tasks: off-diagonal gains match diagonal gains within noise
    assert abs(gains[0, 1] - gains[1, 1]) <= 0.06
    assert abs(gains[1, 0] - gains[0, 0]) <= 0.06


def test_pilot_positive_mean_gain_on_reference_suite(reference_run):
    from mergelab.merging import merge_task_arithmetic
    cfg, suite, pre, experts = reference_run
    vectors = task_vectors_from_experts(pre, experts)
    tids = tuple(sorted(experts))
    vlist = [vectors[t] for t in tids]
    enc = merge_task_arithmetic(pre, vlist, 0.5)
    gains = pilot_two_stage(enc, suite, experts, seed=0)
    off_diag = gains[~np.eye(len(tids), dtype=bool)]
    assert off_diag.mean() > 0.0


def test_pilot_retrains_the_classification_experts_of_a_mixed_suite(small_setup):
    suite, pre, experts, vectors, inputs = small_setup
    task = suite.tasks[0]
    reg = TaskData("task9", "regression", task.x_train, np.ones((len(task.x_train), 2)),
                   task.x_test, np.ones((len(task.x_test), 2)))
    mixed = TaskSuite(config=suite.config, tasks=[*suite.tasks, reg])
    encoder = experts[task.task_id].encoder
    assert np.array_equal(pilot_two_stage(encoder, mixed, experts, seed=0),
                          pilot_two_stage(encoder, suite, experts, seed=0))
    with pytest.raises(ValueError, match="task 'task9' is regression"):
        pilot_two_stage(encoder, mixed, dict(experts, task9=experts[task.task_id]), seed=0)


def test_symerge_whose_merged_outputs_overflow_names_the_pass_and_the_task():
    # each expert's features are (1, -1), which its head maps to finite
    # logits (0, 0); the merged encoder (the backbone, at coefficient 0)
    # gives (1, 1), which the head maps past the float64 range
    def enc(bias):
        return (LayerParams(np.zeros((2, 3)), np.array(bias)),)

    head = LayerParams(np.array([[1e308, 1e308], [0.0, 0.0]]), np.zeros(2))
    pre = ParamSet(enc([50.0, 50.0]), {"t0": head, "t1": head})
    experts = {t: ParamSet(enc([50.0, -50.0]), {t: head}) for t in ("t0", "t1")}
    inputs = {t: np.zeros((4, 3)) for t in experts}
    cfg = AdaptConfig(iterations=2, batch_size=4, init_coeff=0.0, task_order="fixed")
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^adaptation diverged: non-finite outputs "
                                             "on pass 0 for task 't0'$"):
            symerge(pre, task_vectors_from_experts(pre, experts), experts, inputs, cfg)
