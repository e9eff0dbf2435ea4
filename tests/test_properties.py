"""Property tests for the stacked merge kernels, over random depth, widths and
task count, each run on plain lists of TaskVector and on their stack, and for
the rules that one function owns (the affine map, the layer merge), which
must give the same bits in every caller."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergelab.adaptation import (
    AdaptConfig,
    confidence_filter,
    finetune_expert,
    make_self_labels,
    symerge,
    task_vectors_from_experts,
)
from mergelab.analysis import cross_task_matrix, evaluate
from mergelab.engine import (
    LayerParams,
    LossSpec,
    ParamSet,
    _activations,
    _backprop,
    adam_init,
    adam_step,
    backward,
    forward,
    init_params,
    loss_eval,
    _split,
    softmax,
)
from mergelab.merging import (
    CoefficientMatrix,
    MergedAssembly,
    TrainableLayer,
    _merge_layer,
    coefficient_grad,
    compute_task_vector,
    merge_layerwise,
    stack_task_vectors,
)
from mergelab.suites import SuiteConfig, gen_suite, spawn_rng
from mergelab.theory import model_outputs

FORMS = ("list", "stack")
PROPERTY = settings(max_examples=30, deadline=None)

cases = st.tuples(
    st.integers(1, 3),  # encoder depth
    st.integers(1, 6),  # tasks K
    st.integers(0, 2**32 - 1),  # seed for widths and values
)


def _layer(rng, out_dim, in_dim, scale=1.0):
    return LayerParams(rng.normal(0.0, scale, (out_dim, in_dim)), rng.normal(0.0, scale, out_dim))


def _setup(case):
    """(pre encoder, expert encoders, task vectors, head, dims) for one case."""
    depth, k, seed = case
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 6, depth + 1))
    pre = tuple(_layer(rng, o, i) for i, o in zip(dims, dims[1:]))
    experts = [tuple(_layer(rng, o, i) for i, o in zip(dims, dims[1:])) for _ in range(k)]
    vectors = [compute_task_vector(e, pre) for e in experts]
    head = _layer(rng, 3, dims[-1])
    return pre, experts, vectors, head, dims, rng


def _form(vectors, pre, form):
    return stack_task_vectors(vectors, pre) if form == "stack" else list(vectors)


def _close(a, b, atol):
    return all(np.allclose(la.weight, lb.weight, rtol=0, atol=atol)
               and np.allclose(la.bias, lb.bias, rtol=0, atol=atol) for la, lb in zip(a, b))


def _coeffs(values):
    return CoefficientMatrix([f"t{i}" for i in range(len(values))], values)


@pytest.mark.parametrize("form", FORMS)
@PROPERTY
@given(case=cases)
def test_one_hot_coefficient_row_reproduces_the_expert(form, case):
    pre, experts, vectors, _, _, _ = _setup(case)
    for k, expert in enumerate(experts):
        values = np.zeros((len(experts), len(pre)))
        values[k] = 1.0
        assert _close(merge_layerwise(pre, _form(vectors, pre, form), _coeffs(values)), expert,
                      atol=1e-12)


@pytest.mark.parametrize("form", FORMS)
@PROPERTY
@given(case=cases, a=st.floats(-2.0, 2.0))
def test_merge_is_affine_in_the_coefficients(form, case, a):
    pre, experts, vectors, _, _, rng = _setup(case)
    vecs = _form(vectors, pre, form)
    c1, c2 = (rng.normal(size=(len(experts), len(pre))) for _ in range(2))
    mixed = merge_layerwise(pre, vecs, _coeffs(a * c1 + (1.0 - a) * c2))
    m1, m2 = merge_layerwise(pre, vecs, _coeffs(c1)), merge_layerwise(pre, vecs, _coeffs(c2))
    expect = [LayerParams(a * l1.weight + (1.0 - a) * l2.weight, a * l1.bias + (1.0 - a) * l2.bias)
              for l1, l2 in zip(m1, m2)]
    assert _close(mixed, expect, atol=1e-10)


@pytest.mark.parametrize("form", FORMS)
@PROPERTY
@given(case=cases)
def test_coefficient_grad_matches_central_differences(form, case):
    pre, experts, vectors, head, dims, rng = _setup(case)
    vecs = _form(vectors, pre, form)
    x = rng.normal(size=(5, dims[0]))
    y = rng.integers(0, 3, 5)
    spec = LossSpec("cross_entropy_hard")
    values = rng.normal(0.0, 0.5, (len(experts), len(pre)))

    def loss_at(v):
        model = ParamSet(merge_layerwise(pre, vecs, _coeffs(v)), {"t": head})
        return loss_eval(forward(model, "t", x), y, spec)

    model = ParamSet(merge_layerwise(pre, vecs, _coeffs(values)), {"t": head})
    _, grads = backward(model, "t", x, y, spec)
    analytic = coefficient_grad(grads.encoder, vecs)
    assert analytic.shape == values.shape
    h = 1e-6
    for idx in np.ndindex(values.shape):
        up, down = values.copy(), values.copy()
        up[idx] += h
        down[idx] -= h
        fd = (loss_at(up) - loss_at(down)) / (2 * h)
        # central-difference rounding noise is ~1e-16 * loss / h, far below 1e-8
        assert abs(fd - analytic[idx]) <= 1e-5 * abs(analytic[idx]) + 1e-8


@pytest.mark.parametrize("form", FORMS)
@PROPERTY
@given(case=cases, pick=st.integers(0, 2**16))
def test_materialize_is_merge_plus_the_task_layer_swap(form, case, pick):
    pre, experts, vectors, head, dims, rng = _setup(case)
    depth = len(pre)
    selectors = ["head", pick % depth, tuple(range(pick % depth, depth))]
    selector = selectors[pick % 3]
    if selector == "head":
        trained = TrainableLayer("head", _layer(rng, 3, dims[-1]))
    elif isinstance(selector, int):
        trained = TrainableLayer(selector, _layer(rng, dims[selector + 1], dims[selector]))
    else:
        trained = TrainableLayer(selector,
                                 tuple(_layer(rng, dims[i + 1], dims[i]) for i in selector))
    coeffs = _coeffs(rng.normal(size=(len(experts), depth)))
    asm = MergedAssembly(pre, _form(vectors, pre, form), coeffs, {"t": head, "u": head},
                         {"t": trained})

    expect = list(merge_layerwise(pre, vectors, coeffs))
    expect_head = head
    if selector == "head":
        expect_head = trained.params
    else:
        for i, layer in zip(trained.layer_indices(), trained.layers()):
            expect[i] = layer
    got = asm.materialize("t")
    assert _close(got.encoder, expect, atol=0.0)
    assert _close([got.head("t")], [expect_head], atol=0.0)
    assert _close(asm.materialize("u").encoder, merge_layerwise(pre, vectors, coeffs), atol=0.0)


def test_stack_holds_each_task_vector_as_a_row_per_layer():
    pre, _, vectors, _, _, _ = _setup((2, 3, 11))
    stack = stack_task_vectors(vectors, pre)
    assert len(stack) == 3
    assert stack_task_vectors(stack, pre) is stack
    for l, matrix in enumerate(stack.matrices):
        for k, vec in enumerate(vectors):
            assert np.array_equal(matrix[k], vec.deltas[l].flat)


def test_symerge_steps_equal_the_composed_public_functions():
    cfg = SuiteConfig(num_tasks=2, classes_per_task=3, input_dim=8, samples_per_split=40,
                      shared_subspace_dim=3, task_rotation_strength=0.8, noise_std=0.2, seed=3)
    suite = gen_suite(cfg)
    pre = init_params((8, 10, 6), {t.task_id: t.num_outputs for t in suite.tasks},
                      spawn_rng(3, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=4, lr=0.01, seed=3) for t in suite.tasks}
    vectors = task_vectors_from_experts(pre, experts)
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    acfg = AdaptConfig(iterations=1, batch_size=16, task_order="fixed", seed=4)
    result = symerge(pre, vectors, experts, inputs, acfg)

    tids = tuple(sorted(experts))
    vec_list = [vectors[t] for t in tids]
    heads = {t: experts[t].head(t) for t in tids}
    coeffs = CoefficientMatrix.constant(tids, len(pre.encoder), acfg.init_coeff)
    trainable = {t: TrainableLayer("head", heads[t]) for t in tids}
    coeff_state = adam_init([coeffs.values])
    layer_states = {t: adam_init([heads[t].flat]) for t in tids}
    spec = LossSpec("cross_entropy_hard")
    for step, t in enumerate(tids):
        labels = make_self_labels(experts[t], t, inputs[t])
        idx = spawn_rng(acfg.seed, "batches", t).permutation(len(inputs[t]))[:acfg.batch_size]
        model = MergedAssembly(pre.encoder, vec_list, coeffs, heads, trainable).materialize(t)
        x = inputs[t][idx]
        keep = confidence_filter(softmax(forward(model, t, x)).max(axis=1),
                                 labels.expert_confidence[idx])
        assert keep.any() and result.step_stats[step].kept == keep.sum()
        loss, grads = backward(model, t, x[keep], labels.targets[idx][keep], spec)
        assert abs(result.step_stats[step].loss - loss) <= 1e-12
        cgrad = coefficient_grad(grads.encoder, vec_list)
        (values,), coeff_state = adam_step([coeffs.values], [cgrad], coeff_state, acfg.lr_coeffs)
        coeffs = CoefficientMatrix(tids, values)
        (flat,), layer_states[t] = adam_step([trainable[t].params.flat], [grads.heads[t].flat],
                                             layer_states[t], acfg.lr_layer)
        n = heads[t].weight.size
        trainable[t] = TrainableLayer(
            "head", LayerParams(flat[:n].reshape(heads[t].weight.shape), flat[n:]))

    assert np.abs(result.coeffs.values - coeffs.values).max() <= 1e-12
    for t in tids:
        assert np.abs(result.trainable[t].params.flat - trainable[t].params.flat).max() <= 1e-12


@PROPERTY
@given(widths=st.lists(st.integers(1, 12), min_size=2, max_size=5),  # encoder depth 1-4
       batch=st.integers(1, 20), head_widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_each_shared_rule_gives_the_same_bits_in_every_caller(widths, batch, head_widths, k,
                                                               seed):
    rng = np.random.default_rng(seed)

    def encoder():
        return tuple(_layer(rng, o, i) for i, o in zip(widths, widths[1:]))

    pre = encoder()
    vectors = [compute_task_vector(encoder(), pre) for _ in range(k)]
    coeffs = _coeffs(rng.normal(0.0, 1.0, (k, len(pre))))
    merged = merge_layerwise(pre, vectors, coeffs)
    # the merge rule, layer by layer into one preallocated buffer, as adaptation runs it
    buf = np.empty(sum(l.flat.size for l in pre))
    stack = stack_task_vectors(vectors, pre)
    for l, view in enumerate(_split(buf, pre)):
        _merge_layer(pre, coeffs.values, stack, l, out=view.flat)
    assert buf.tobytes() == np.concatenate([l.flat for l in merged]).tobytes()

    encoders = [pre, merged]
    heads = [_layer(rng, w, widths[-1]) for w in head_widths]
    test_sets = [(rng.normal(0.0, 1.0, (batch, widths[0])), rng.integers(0, w, batch))
                 for w in head_widths]
    matrix = cross_task_matrix(encoders, heads, test_sets)
    for i, enc in enumerate(encoders):
        for j, (head, (x, y)) in enumerate(zip(heads, test_sets)):
            logits = forward(ParamSet(enc, {"t": head}), "t", x)
            assert model_outputs(enc, x, "nonlinear-net", head).tobytes() == logits.tobytes()
            accuracy = evaluate(enc, head, x, y)
            assert accuracy == float((np.argmax(logits, axis=1) == y).mean())
            assert matrix[i, j] == accuracy


@PROPERTY
@given(widths=st.lists(st.integers(1, 12), min_size=2, max_size=5),  # encoder depth 1-4
       batch=st.integers(1, 20), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(widths=[1, 1], batch=1, k=1, seed=0)
@example(widths=[7, 1, 5], batch=1, k=3, seed=1)
def test_each_dot_product_gives_the_bits_of_its_at_form(widths, batch, k, seed):
    """The merge, the coefficient gradient and backprop write their 2-D
    products with `ndarray.dot`, which skips `@`'s dispatch; a numpy or BLAS
    under which the two round apart fails here, not in a golden score."""
    rng = np.random.default_rng(seed)

    def encoder():
        return tuple(_layer(rng, o, i) for i, o in zip(widths, widths[1:]))

    pre = encoder()
    stack = stack_task_vectors([compute_task_vector(encoder(), pre) for _ in range(k)], pre)
    values = rng.normal(0.0, 1.0, (k, len(pre)))
    flat_grads = [rng.normal(0.0, 1.0, l.flat.size) for l in pre]
    columns = coefficient_grad(flat_grads, stack)
    for l, d in enumerate(stack.matrices):
        assert (_merge_layer(pre, values, stack, l).tobytes()
                == np.add(pre[l].flat, values[:, l] @ d).tobytes())
        assert columns[:, l].tobytes() == (d @ flat_grads[l]).tobytes()

    layers = (*pre, _layer(rng, int(rng.integers(1, 6)), widths[-1]))
    acts = _activations(pre, rng.normal(0.0, 1.0, (batch, widths[0])))
    g = rng.normal(0.0, 1.0, (batch, layers[-1].out_dim))
    grads = _split(np.empty(sum(l.flat.size for l in layers)), layers)
    _backprop(g, acts, layers, grads)
    for i in range(len(layers) - 1, -1, -1):
        if i < len(layers) - 1:
            g = (g @ layers[i + 1].weight) * (1.0 - acts[i + 1] * acts[i + 1])
        assert grads[i].weight.tobytes() == (g.T @ acts[i]).tobytes()
        assert grads[i].bias.tobytes() == g.sum(axis=0).tobytes()
