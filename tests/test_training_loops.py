"""The training loops against reference loops built from public functions,
the in-place optimizer against the pure `adam_step`, and the loops' promise
to leave the caller's arrays alone.

`finetune_expert` and `pretrain_backbone` step flat buffers in place; the
references step per-layer arrays through `backward` and `adam_step` and
rebuild checked parameter sets every step. They must give exactly the same
numbers.
"""

import warnings

import numpy as np
import pytest

from mergelab import adaptation
from mergelab.adaptation import (
    AdaptConfig,
    _BatchStream,
    adamerging_entropy,
    finetune_expert,
    pilot_two_stage,
    pretrain_backbone,
    symerge,
    task_vectors_from_experts,
)
from mergelab.engine import (
    LayerParams,
    LossSpec,
    ParamSet,
    adam_init,
    adam_step,
    arrays_to_params,
    backward,
    init_params,
    params_to_arrays,
)
from mergelab.merging import merge_uniform
from mergelab.suites import SuiteConfig, gen_suite, spawn_rng


def _suite(seed=5, regression_tasks=()):
    return gen_suite(SuiteConfig(num_tasks=3, classes_per_task=3, input_dim=10,
                                 samples_per_split=60, shared_subspace_dim=4,
                                 task_rotation_strength=0.8, noise_std=0.2, seed=seed,
                                 regression_tasks=regression_tasks))


def _init(suite, seed=5, hidden=(12, 8)):
    return init_params((suite.tasks[0].x_train.shape[1], *hidden),
                       {t.task_id: t.num_outputs for t in suite.tasks}, spawn_rng(seed, "init"))


def _spec(kind):
    return LossSpec("cross_entropy_hard" if kind == "classification" else "l2")


def reference_finetune(pre, x, y, task, epochs, lr, batch_size, seed, kind):
    params = ParamSet(pre.encoder, {task: pre.head(task)})
    rng = spawn_rng(seed, "finetune", task)
    flats = [l.flat for l in params.encoder]
    state = adam_init(flats)
    n = len(x)
    bs = min(batch_size, n)
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n - bs + 1, bs):
            idx = order[start:start + bs]
            loss, grads = backward(params, task, x[idx], y[idx], _spec(kind))
            flats, state = adam_step(flats, [l.flat for l in grads.encoder], state, lr)
            encoder = tuple(LayerParams(f[:l.weight.size].reshape(l.weight.shape),
                                        f[l.weight.size:]) for f, l in zip(flats, params.encoder))
            params = ParamSet(encoder, params.heads)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return params, history


def reference_pretrain(init, suite, epochs, lr, batch_size, seed):
    params = init
    state = adam_init(params_to_arrays(params))
    streams = {t.task_id: _BatchStream(len(t.x_train), batch_size,
                                       spawn_rng(seed, "pretrain", t.task_id))
               for t in suite.tasks}
    steps = max(len(t.x_train) // min(batch_size, len(t.x_train)) for t in suite.tasks)
    for _ in range(epochs):
        for _ in range(steps):
            for t in suite.tasks:
                idx = streams[t.task_id].next_indices()
                _, grads = backward(params, t.task_id, t.x_train[idx], t.y_train[idx],
                                    _spec(t.kind))
                arrays, state = adam_step(params_to_arrays(params), params_to_arrays(grads),
                                          state, lr)
                params = arrays_to_params(params, arrays)
    return params


def _max_diff(a: ParamSet, b: ParamSet) -> float:
    return max(np.abs(x - y).max() for x, y in
               zip(params_to_arrays(a), params_to_arrays(b), strict=True))


@pytest.mark.parametrize("batch_size", [16, 7, 500], ids=["even", "ragged", "whole_split"])
@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_finetune_equals_reference_loop(kind, batch_size):
    suite = _suite(regression_tasks=(1,))
    pre = _init(suite)
    task = next(t for t in suite.tasks if t.kind == kind)
    got, history = finetune_expert(pre, task.x_train, task.y_train, task.task_id, epochs=3,
                                   lr=0.01, batch_size=batch_size, seed=4, kind=kind,
                                   return_history=True)
    want, want_history = reference_finetune(pre, task.x_train, task.y_train, task.task_id,
                                            3, 0.01, batch_size, 4, kind)
    assert _max_diff(got, want) == 0.0
    assert history == want_history
    assert got.head(task.task_id) is pre.head(task.task_id)  # the head stays frozen


@pytest.mark.parametrize("regression_tasks", [(), (0, 2)], ids=["classification", "mixed"])
def test_pretrain_equals_reference_loop(regression_tasks):
    suite = _suite(seed=8, regression_tasks=regression_tasks)
    init = _init(suite, seed=8)
    got = pretrain_backbone(init, suite, epochs=2, lr=0.01, batch_size=16, seed=8)
    want = reference_pretrain(init, suite, 2, 0.01, 16, 8)
    assert _max_diff(got, want) == 0.0
    assert sorted(got.heads) == sorted(want.heads)


def test_pretrain_checks_each_layer_once(monkeypatch):
    # the loop steps an unchecked view; only the result is validated
    suite = _suite()
    init = _init(suite)
    calls = []
    check = LayerParams.__post_init__
    monkeypatch.setattr(LayerParams, "__post_init__", lambda self: (calls.append(1), check(self)))
    result = pretrain_backbone(init, suite, epochs=2, lr=0.01, batch_size=16, seed=5)
    assert len(calls) == len(params_to_arrays(result))


@pytest.mark.parametrize("seed", range(4))
def test_adam_step_on_a_concatenation_equals_stepping_each_array(seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) for n in rng.integers(1, 30, 4)]
    split = np.cumsum([a.size for a in arrays])[:-1]
    each, each_state = arrays, adam_init(arrays)
    whole, whole_state = [np.concatenate(arrays)], adam_init([np.concatenate(arrays)])
    for _ in range(5):
        grads = [rng.normal(size=a.size) * 10.0 ** rng.integers(-6, 3) for a in arrays]
        grads[0][0] = 0.0
        each, each_state = adam_step(each, grads, each_state, lr=0.05)
        whole, whole_state = adam_step(whole, [np.concatenate(grads)], whole_state, lr=0.05)
        for got, want in zip(np.split(whole[0], split), each, strict=True):
            assert np.array_equal(got, want)
        for moment in ("first_moment", "second_moment"):
            assert np.array_equal(getattr(whole_state, moment)[0],
                                  np.concatenate(getattr(each_state, moment)))


def test_adam_step_rounds_like_the_textbook_expressions():
    # the in-place update must give the bits of the out-of-place formulas,
    # so that results stay equal to those of the earlier pure optimizer
    rng = np.random.default_rng(12)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.03
    x = rng.normal(size=200) * 10.0 ** rng.integers(-4, 4, 200)
    m, v = np.zeros_like(x), np.zeros_like(x)
    got, state = [x], adam_init([x])
    for t in range(1, 8):
        g = rng.normal(size=200) * 10.0 ** rng.integers(-8, 3, 200)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        x = x - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        got, state = adam_step(got, [g], state, lr)
        assert np.array_equal(got[0], x)
        assert np.array_equal(state.first_moment[0], m)
        assert np.array_equal(state.second_moment[0], v)


def test_adam_step_leaves_its_arguments_unchanged():
    x, g = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.0, -1.0])
    state = adam_init([x])
    state.first_moment[0][:] = 0.25
    before = [a.copy() for a in (x, g, state.first_moment[0], state.second_moment[0])]
    adam_step([x], [g], state, lr=0.1)
    for a, b in zip((x, g, state.first_moment[0], state.second_moment[0]), before):
        assert np.array_equal(a, b)
    assert state.step_count == 0


# ---------------------------------------------------------------------------
# the caller's arrays stay untouched


@pytest.fixture(scope="module")
def models():
    suite = _suite()
    pre = _init(suite)
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=4,
                                          lr=0.01, seed=5) for t in suite.tasks}
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    return suite, pre, experts, task_vectors_from_experts(pre, experts), inputs


def _snapshot(pre, experts, vectors, inputs) -> list:
    arrays = params_to_arrays(pre)
    for e in experts.values():
        arrays += params_to_arrays(e)
    for v in vectors.values():
        arrays += [d.flat for d in v.deltas]
    arrays += list(inputs.values())
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("options", [
    {},
    {"trainable_layer": 1},
    {"trainable_layer": (0, 1), "update_mode": "aggregated"},
    {"train_coeffs": False},
    {"trainable_layer": None},
], ids=["head", "encoder_index", "encoder_tuple_aggregated", "layer_only", "coefficients_only"])
def test_symerge_leaves_the_callers_arrays_unchanged(models, options):
    # the experts share their heads with `pre`: a trainable head stepped in
    # place without a copy would change both
    _, pre, experts, vectors, inputs = models
    before = _snapshot(pre, experts, vectors, inputs)
    cfg = AdaptConfig(**dict(dict(iterations=4, batch_size=16, seed=1, lr_layer=0.1), **options))
    result = symerge(pre, vectors, experts, inputs, cfg)
    assert _snapshot(pre, experts, vectors, inputs) == before
    for t, tr in result.trainable.items():  # and the run did train something
        original = (experts[t].head(t),) if tr.selector == "head" else tuple(
            experts[t].encoder[i] for i in tr.layer_indices())
        assert any(not np.array_equal(a.flat, b.flat) for a, b in zip(tr.layers(), original))


def test_entropy_adaptation_finetune_and_pilot_leave_the_callers_arrays_unchanged(models):
    suite, pre, experts, vectors, inputs = models
    heads = {t: experts[t].head(t) for t in experts}
    before = _snapshot(pre, experts, vectors, inputs)
    adamerging_entropy(pre, vectors, heads, inputs,
                       AdaptConfig(iterations=4, batch_size=16, trainable_layer=None))
    for t in suite.tasks:
        finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=2, lr=0.01)
        finetune_expert(experts[t.task_id], t.x_train, t.y_train, t.task_id, epochs=2, lr=0.01)
    pilot_two_stage(merge_uniform(list(experts.values())), suite, experts, epochs=2)
    assert _snapshot(pre, experts, vectors, inputs) == before


# ---------------------------------------------------------------------------
# checks before the first step, and what a run reports


def test_overflowing_expert_logits_raise_a_named_error_before_the_first_step(models):
    _, pre, experts, _, inputs = models
    # features saturate at tanh(20) = 1.0, so every logit is 8 * 1e308 + 1e308
    t = "task1"
    *lower, top = experts[t].encoder
    head = experts[t].head(t)
    experts = dict(experts)
    experts[t] = ParamSet((*lower, LayerParams(np.zeros(top.weight.shape), np.full(top.out_dim, 20.0))),
                          {t: LayerParams(np.full(head.weight.shape, 1e308),
                                          np.full(head.out_dim, 1e308))})
    vectors = task_vectors_from_experts(pre, experts)
    for loss in ("l2", "smooth_l1", "kl", None):
        cfg = AdaptConfig(iterations=0, batch_size=16, loss=loss and LossSpec(loss))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="expert outputs for task 'task1' are not finite"):
                symerge(pre, vectors, experts, inputs, cfg)


def test_layer_only_run_computes_no_coefficient_gradient(models, monkeypatch):
    _, pre, experts, vectors, inputs = models

    def fail(*args, **kwargs):
        raise AssertionError("coefficient gradient computed with train_coeffs=False")

    monkeypatch.setattr(adaptation, "coefficient_grad", fail)
    result = symerge(pre, vectors, experts, inputs,
                     AdaptConfig(iterations=3, batch_size=16, train_coeffs=False))
    assert np.array_equal(result.coeffs.values, np.full((3, 2), 0.3))


def test_repeated_trainable_encoder_index_is_rejected(models):
    _, pre, experts, vectors, inputs = models
    with pytest.raises(ValueError, match="repeat a layer"):
        symerge(pre, vectors, experts, inputs,
                AdaptConfig(iterations=1, batch_size=16, trainable_layer=(1, 1)))


def test_fully_filtered_passes_give_one_summary_warning():
    # as in test_symerge_warns_and_continues_when_everything_is_filtered:
    # every sample fails the filter on every pass
    pre = ParamSet((LayerParams(np.zeros((2, 3)), np.full(2, 8.0)),),
                   {"t": LayerParams(np.array([[3.0, -1.0], [0.0, 1.0], [-3.0, 0.0]]),
                                     np.zeros(3))})
    expert = ParamSet((LayerParams(np.zeros((2, 3)), np.zeros(2)),), dict(pre.heads))
    vectors = task_vectors_from_experts(pre, {"t": expert})
    inputs = {"t": np.random.default_rng(30).normal(size=(12, 3))}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        symerge(pre, vectors, {"t": expert}, inputs,
                AdaptConfig(iterations=5, batch_size=6, seed=30))
    assert [str(w.message).split(":")[0] for w in caught] == ["5 of 5 passes fully filtered"]
