"""The adaptation step against a reference loop built from public functions.

`reference_adaptation` runs the loop the slow way: per step it materializes
the merged model, runs `forward_cached`, takes the whole-batch `loss_eval`,
filters, and calls `backward` on the kept rows (reusing the forward pass),
then `coefficient_grad` and `adam_step`. The fused step in
`adaptation._run_adaptation` must give exactly the same numbers.
"""

import numpy as np
import pytest

from mergelab.adaptation import (
    AdaptConfig,
    _BatchStream,
    adamerging_entropy,
    confidence_filter,
    finetune_expert,
    make_self_labels,
    symerge,
    task_vectors_from_experts,
)
from mergelab.engine import (
    LOSS_KINDS,
    LayerParams,
    LossSpec,
    ParamSet,
    adam_init,
    adam_step,
    backward,
    forward,
    forward_cached,
    init_params,
    loss_eval,
    softmax,
)
from mergelab.merging import CoefficientMatrix, MergedAssembly, TrainableLayer, coefficient_grad
from mergelab.suites import SuiteConfig, gen_suite, spawn_rng


def _reference_targets(expert, task, inputs, spec, kind):
    arity = spec.target_arity
    if arity == "none":
        return None
    if arity == "labels":
        return make_self_labels(expert, task, inputs, kind).targets
    logits = forward(expert, task, inputs)
    return softmax(logits) if arity == "distribution" else logits


def _reference_trainable(selector, expert, task):
    if selector == "head":
        return TrainableLayer("head", expert.head(task))
    if isinstance(selector, int):
        return TrainableLayer(selector, expert.encoder[selector])
    return TrainableLayer(tuple(selector), tuple(expert.encoder[i] for i in selector))


def _with_flats(tr, flats):
    layers = tuple(LayerParams(f[:l.weight.size].reshape(l.weight.shape), f[l.weight.size:])
                   for f, l in zip(flats, tr.layers()))
    return tr.with_layers(layers)


def reference_adaptation(pre, vectors, heads, experts, inputs, cfg, kinds, entropy=False):
    """(coeff values, {task: trainable}, loss_trace, step_stats as tuples)."""
    task_ids = tuple(sorted(heads))
    vlist = [vectors[t] for t in task_ids]
    specs, targets, conf = {}, {}, {}
    for t in task_ids:
        if entropy:
            specs[t] = LossSpec("entropy")
        elif cfg.loss is not None:
            specs[t] = cfg.loss
        else:
            specs[t] = LossSpec("cross_entropy_hard" if kinds[t] == "classification" else "l1")
        targets[t] = None if entropy else _reference_targets(experts[t], t, inputs[t], specs[t],
                                                             kinds[t])
        conf[t] = (None if entropy or kinds[t] != "classification"
                   else make_self_labels(experts[t], t, inputs[t]).expert_confidence)
    trainable = ({} if cfg.trainable_layer is None else
                 {t: _reference_trainable(cfg.trainable_layer, experts[t], t) for t in task_ids})

    values = np.full((len(task_ids), len(pre.encoder)), cfg.init_coeff)
    coeff_state = adam_init([values])
    layer_states = {t: adam_init([l.flat for l in tr.layers()]) for t, tr in trainable.items()}
    order_rng = spawn_rng(cfg.seed, "task-order")
    streams = {t: _BatchStream(len(inputs[t]), cfg.batch_size, spawn_rng(cfg.seed, "batches", t))
               for t in task_ids}

    def step_layer(t, grads):
        tr = trainable[t]
        flats, layer_states[t] = adam_step([l.flat for l in tr.layers()], grads,
                                           layer_states[t], cfg.lr_layer)
        trainable[t] = _with_flats(tr, flats)

    trace, stats = [], []
    for pass_idx in range(cfg.iterations):
        if cfg.task_order == "shuffled_each_pass":
            order = [task_ids[i] for i in order_rng.permutation(len(task_ids))]
        else:
            order = list(task_ids)
        agg_coeff, agg_layer, losses, updated = np.zeros_like(values), {}, [], False
        for t in order:
            idx = streams[t].next_indices()
            spec = specs[t]
            y = None if targets[t] is None else targets[t][idx]
            coeffs = CoefficientMatrix(task_ids, values)
            model = MergedAssembly(pre.encoder, vlist, coeffs, heads, trainable).materialize(t)
            logits, acts = forward_cached(model, t, inputs[t][idx])
            batch_loss = loss_eval(logits, y, spec)
            kept = len(idx)
            if cfg.filter_enabled and conf[t] is not None:
                keep = np.flatnonzero(confidence_filter(softmax(logits).max(axis=1),
                                                        conf[t][idx]))
                kept = keep.size
                if kept == 0:
                    losses.append(batch_loss)
                    stats.append((pass_idx, t, len(idx), 0, None, batch_loss))
                    continue
                logits, acts = logits[keep], [a[keep] for a in acts]
                y = None if y is None else y[keep]
            loss, grads = backward(model, t, acts[0], y, spec, cache=(logits, acts))
            losses.append(batch_loss)
            updated = True
            stats.append((pass_idx, t, len(idx), kept, loss, batch_loss))
            cgrad = coefficient_grad(grads.encoder, vlist)
            tr = trainable.get(t)
            if tr is not None:
                for l in tr.layer_indices():
                    cgrad[:, l] = 0.0
                layer_grads = ([grads.heads[t].flat] if tr.selector == "head"
                               else [grads.encoder[l].flat for l in tr.layer_indices()])
            if cfg.update_mode == "sequential":
                if cfg.train_coeffs:
                    (values,), coeff_state = adam_step([values], [cgrad], coeff_state,
                                                       cfg.lr_coeffs)
                if tr is not None:
                    step_layer(t, layer_grads)
            else:
                agg_coeff += cgrad
                if tr is not None:
                    agg_layer[t] = layer_grads
        if cfg.update_mode == "aggregated" and updated:
            if cfg.train_coeffs:
                (values,), coeff_state = adam_step([values], [agg_coeff], coeff_state,
                                                   cfg.lr_coeffs)
            for t, grads in agg_layer.items():
                step_layer(t, grads)
        if losses:
            trace.append(float(np.mean(losses)))
    return values, trainable, trace, stats


def _assert_exact(result, reference):
    values, trainable, trace, stats = reference
    assert np.abs(result.coeffs.values - values).max(initial=0.0) == 0.0
    assert set(result.trainable) == set(trainable)
    for t, tr in trainable.items():
        assert result.trainable[t].selector == tr.selector
        for got, want in zip(result.trainable[t].layers(), tr.layers(), strict=True):
            assert np.abs(got.flat - want.flat).max() == 0.0
    assert result.loss_trace == trace
    assert [(s.pass_index, s.task, s.batch_size, s.kept, s.loss, s.batch_loss)
            for s in result.step_stats] == stats


@pytest.fixture(scope="module")
def setup3():
    cfg = SuiteConfig(num_tasks=3, classes_per_task=3, input_dim=10, samples_per_split=60,
                      shared_subspace_dim=4, task_rotation_strength=0.8, noise_std=0.2, seed=5)
    suite = gen_suite(cfg)
    pre = init_params((10, 12, 8), {t.task_id: t.num_outputs for t in suite.tasks},
                      spawn_rng(5, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=6, lr=0.01, seed=5) for t in suite.tasks}
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    kinds = {t: "classification" for t in experts}
    return pre, task_vectors_from_experts(pre, experts), experts, inputs, kinds


def _check_symerge(setup, cfg):
    pre, vectors, experts, inputs, kinds = setup
    result = symerge(pre, vectors, experts, inputs, cfg, kinds)
    heads = {t: experts[t].head(t) for t in experts}
    _assert_exact(result, reference_adaptation(pre, vectors, heads, experts, inputs, cfg, kinds))
    return result


@pytest.mark.parametrize("options", [
    {},
    {"trainable_layer": 1},
    {"trainable_layer": (0, 1)},
    {"update_mode": "aggregated"},
    {"update_mode": "aggregated", "trainable_layer": 0, "task_order": "fixed"},
    {"trainable_layer": None},
    {"train_coeffs": False, "filter_enabled": False},
], ids=["head", "encoder_index", "encoder_tuple", "aggregated", "aggregated_layer0_fixed",
        "coefficients_only", "layer_only_unfiltered"])
def test_fused_step_equals_reference_loop(setup3, options):
    cfg = AdaptConfig(**dict(dict(iterations=6, batch_size=16, seed=3), **options))
    result = _check_symerge(setup3, cfg)
    partly_filtered = any(0 < s.kept < s.batch_size for s in result.step_stats)
    assert partly_filtered == cfg.filter_enabled


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_fused_step_equals_reference_loop_for_every_loss_override(setup3, kind):
    _check_symerge(setup3, AdaptConfig(iterations=3, batch_size=8, seed=20,
                                       loss=LossSpec(kind), trainable_layer=1))


def test_fused_step_equals_reference_loop_with_l1_regression_task():
    cfg = SuiteConfig(num_tasks=2, classes_per_task=3, input_dim=8, samples_per_split=40,
                      shared_subspace_dim=3, task_rotation_strength=0.5, noise_std=0.2,
                      seed=11, regression_tasks=(1,))
    suite = gen_suite(cfg)
    pre = init_params((8, 10, 6), {t.task_id: t.num_outputs for t in suite.tasks},
                      spawn_rng(11, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=4,
                                          lr=0.01, seed=11, kind=t.kind) for t in suite.tasks}
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    kinds = {t.task_id: t.kind for t in suite.tasks}
    setup = (pre, task_vectors_from_experts(pre, experts), experts, inputs, kinds)
    result = _check_symerge(setup, AdaptConfig(iterations=5, batch_size=8, seed=11))
    assert {s.task for s in result.step_stats if s.kept == s.batch_size} >= {"task1"}


def test_fused_entropy_adaptation_equals_reference_loop(setup3):
    pre, vectors, experts, inputs, kinds = setup3
    heads = {t: experts[t].head(t) for t in experts}
    cfg = AdaptConfig(iterations=6, batch_size=16, seed=7, trainable_layer=None)
    got = adamerging_entropy(pre, vectors, heads, inputs, cfg, kinds)
    values, _, _, _ = reference_adaptation(pre, vectors, heads, experts, inputs, cfg, kinds,
                                           entropy=True)
    assert np.abs(got.values - values).max() == 0.0


def test_fused_step_equals_reference_loop_when_batches_are_filtered():
    # task "u"'s expert sees zero features and is uniformly unsure; the merged
    # encoder's features are not zero, so the merged model is strictly more
    # confident on every row and each "u" batch is fully filtered, while the
    # batches of task "s" are only partly filtered
    rng = np.random.default_rng(41)
    pre = init_params((4, 5), {"s": 3, "u": 3}, rng)
    sharp = ParamSet((LayerParams(pre.encoder[0].weight + rng.normal(0.0, 0.5, (5, 4)),
                                  pre.encoder[0].bias),), {"s": pre.head("s")})
    unsure = ParamSet((LayerParams(np.zeros((5, 4)), np.zeros(5)),),
                      {"u": LayerParams(rng.normal(size=(3, 5)), np.zeros(3))})
    experts = {"s": sharp, "u": unsure}
    inputs = {t: rng.normal(size=(24, 4)) for t in experts}
    kinds = {t: "classification" for t in experts}
    setup = (pre, task_vectors_from_experts(pre, experts), experts, inputs, kinds)
    for mode in ("sequential", "aggregated"):
        result = _check_symerge(setup, AdaptConfig(iterations=4, batch_size=6, seed=2,
                                                   update_mode=mode))
        kept = {t: [s.kept for s in result.step_stats if s.task == t] for t in experts}
        assert all(k == 0 for k in kept["u"])
        assert any(0 < k < 6 for k in kept["s"])


def test_divergent_learning_rate_names_the_pass_and_the_task(setup3):
    pre, vectors, experts, inputs, kinds = setup3
    cfg = AdaptConfig(iterations=30, batch_size=16, lr_coeffs=1e308, lr_layer=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"diverged.* on pass \d+ for task 'task\d'"):
            symerge(pre, vectors, experts, inputs, cfg, kinds)
