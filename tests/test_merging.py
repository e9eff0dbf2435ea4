import numpy as np
import pytest

from mergelab.engine import LayerParams, LossSpec, ParamSet, ShapeError, backward, forward, loss_eval
from mergelab.merging import (
    CoefficientMatrix,
    MergedAssembly,
    TaskVector,
    TrainableLayer,
    coefficient_grad,
    compute_task_vector,
    merge_layerwise,
    merge_task_arithmetic,
    merge_uniform,
)

from conftest import random_paramset


def _rand_encoder(rng, dims):
    return tuple(
        LayerParams(rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in zip(dims, dims[1:])
    )


def _rand_vector(rng, dims, scale=0.3):
    return TaskVector(tuple(
        LayerParams(rng.normal(scale=scale, size=(o, i)), rng.normal(scale=scale, size=o))
        for i, o in zip(dims, dims[1:])
    ))


def _enc_equal(a, b, atol=0.0):
    return all(
        np.allclose(la.weight, lb.weight, rtol=0, atol=atol)
        and np.allclose(la.bias, lb.bias, rtol=0, atol=atol)
        for la, lb in zip(a, b)
    )


# ---------------------------------------------------------------------------
# task vectors


def test_task_vector_zero_deviation():
    rng = np.random.default_rng(0)
    p = random_paramset(rng)
    tv = compute_task_vector(p, p)
    assert all(np.array_equal(d.weight, np.zeros_like(d.weight)) for d in tv.deltas)


def test_task_vector_zero_base_equals_expert():
    rng = np.random.default_rng(1)
    expert = random_paramset(rng)
    zero = ParamSet(
        tuple(LayerParams(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in expert.encoder),
        expert.heads,
    )
    tv = compute_task_vector(expert, zero)
    assert _enc_equal(tuple(tv.deltas), expert.encoder)


def test_task_vector_round_trip():
    rng = np.random.default_rng(2)
    expert, pre = random_paramset(rng), random_paramset(rng)
    tv = compute_task_vector(expert, pre)
    rebuilt = tuple(
        LayerParams(p.weight + d.weight, p.bias + d.bias)
        for p, d in zip(pre.encoder, tv.deltas)
    )
    assert _enc_equal(rebuilt, expert.encoder, atol=1e-15)


def test_task_vector_shape_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError):
        compute_task_vector(random_paramset(rng, dims=(5, 6, 4)),
                            random_paramset(rng, dims=(5, 7, 4)))


# ---------------------------------------------------------------------------
# merge operators


def test_merge_uniform_single_and_symmetry():
    rng = np.random.default_rng(4)
    p = random_paramset(rng)
    assert _enc_equal(merge_uniform([p]), p.encoder)
    neg = ParamSet(
        tuple(LayerParams(-l.weight, -l.bias) for l in p.encoder), p.heads)
    zero = merge_uniform([p, neg])
    assert all(np.abs(l.weight).max() == 0.0 and np.abs(l.bias).max() == 0.0 for l in zero)
    with pytest.raises(ValueError):
        merge_uniform([])


def test_merge_uniform_matches_elementwise_oracle():
    rng = np.random.default_rng(5)
    experts = [random_paramset(rng) for _ in range(3)]
    merged = merge_uniform(experts)
    for l in range(2):
        expect_w = (experts[0].encoder[l].weight + experts[1].encoder[l].weight
                    + experts[2].encoder[l].weight) / 3.0
        assert np.abs(merged[l].weight - expect_w).max() < 1e-15


def test_task_arithmetic_null_merge_is_exact():
    rng = np.random.default_rng(6)
    dims = (5, 6, 4)
    pre = _rand_encoder(rng, dims)
    vectors = [_rand_vector(rng, dims) for _ in range(3)]
    merged = merge_task_arithmetic(pre, vectors, 0.0)
    assert _enc_equal(merged, pre)  # bitwise


def test_task_arithmetic_full_restoration():
    rng = np.random.default_rng(7)
    expert, pre = random_paramset(rng), random_paramset(rng)
    tv = compute_task_vector(expert, pre)
    merged = merge_task_arithmetic(pre, [tv], 1.0)
    assert _enc_equal(merged, expert.encoder, atol=1e-15)


def test_task_arithmetic_half_equals_uniform_of_two():
    rng = np.random.default_rng(8)
    pre = random_paramset(rng)
    e1, e2 = random_paramset(rng), random_paramset(rng)
    tvs = [compute_task_vector(e1, pre), compute_task_vector(e2, pre)]
    merged = merge_task_arithmetic(pre, tvs, 0.5)
    uniform = merge_uniform([e1, e2])
    assert _enc_equal(merged, uniform, atol=1e-12)


def test_layerwise_constant_reduces_to_task_arithmetic():
    rng = np.random.default_rng(9)
    dims = (5, 6, 4)
    pre = _rand_encoder(rng, dims)
    vectors = [_rand_vector(rng, dims) for _ in range(3)]
    coeffs = CoefficientMatrix.constant(("a", "b", "c"), 2, 0.4)
    assert _enc_equal(merge_layerwise(pre, vectors, coeffs),
                      merge_task_arithmetic(pre, vectors, 0.4))


def test_layerwise_one_hot_selects_expert():
    rng = np.random.default_rng(10)
    pre = random_paramset(rng)
    experts = [random_paramset(rng) for _ in range(3)]
    tvs = [compute_task_vector(e, pre) for e in experts]
    values = np.zeros((3, 2))
    values[1, :] = 1.0
    merged = merge_layerwise(pre, tvs, CoefficientMatrix(("a", "b", "c"), values))
    assert _enc_equal(merged, experts[1].encoder, atol=1e-15)


def test_layerwise_matches_bruteforce_accumulation():
    rng = np.random.default_rng(11)
    dims = (4, 6, 5, 3, 7)  # L-1 = 4 encoder layers
    pre = _rand_encoder(rng, dims)
    vectors = [_rand_vector(rng, dims) for _ in range(3)]
    values = rng.normal(size=(3, 4))
    merged = merge_layerwise(pre, vectors, CoefficientMatrix(("a", "b", "c"), values))
    for l in range(4):
        w = pre[l].weight.copy()
        for k in range(3):
            w = w + values[k, l] * vectors[k].deltas[l].weight
        assert np.abs(merged[l].weight - w).max() < 1e-15


def test_layerwise_dimension_mismatch():
    rng = np.random.default_rng(12)
    dims = (5, 6, 4)
    pre = _rand_encoder(rng, dims)
    vectors = [_rand_vector(rng, dims)]
    with pytest.raises(ShapeError):
        merge_layerwise(pre, vectors, CoefficientMatrix.constant(("a", "b"), 2, 0.1))
    with pytest.raises(ShapeError):
        merge_layerwise(pre, vectors, CoefficientMatrix.constant(("a",), 3, 0.1))


def test_merge_linearity_identity_random_shapes():
    rng = np.random.default_rng(13)
    for _ in range(10):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(2, 7, depth + 1))
        k = int(rng.integers(1, 4))
        pre = _rand_encoder(rng, dims)
        vectors = [_rand_vector(rng, dims) for _ in range(k)]
        ids = tuple(f"t{i}" for i in range(k))
        l1 = CoefficientMatrix(ids, rng.normal(size=(k, depth)))
        l2 = CoefficientMatrix(ids, rng.normal(size=(k, depth)))
        a, b = float(rng.normal()), float(rng.normal())
        combo = CoefficientMatrix(ids, a * l1.values + b * l2.values)
        lhs = merge_layerwise(pre, vectors, combo)
        m1 = merge_layerwise(pre, vectors, l1)
        m2 = merge_layerwise(pre, vectors, l2)
        for l in range(depth):
            left_w = lhs[l].weight - pre[l].weight
            right_w = a * (m1[l].weight - pre[l].weight) + b * (m2[l].weight - pre[l].weight)
            assert np.abs(left_w - right_w).max() < 1e-12


# ---------------------------------------------------------------------------
# coefficient gradient


def test_coefficient_grad_is_inner_product():
    rng = np.random.default_rng(14)
    dims = (5, 6, 4)
    v0, v1 = _rand_vector(rng, dims), _rand_vector(rng, dims)
    # encoder grads equal to v0's deltas
    grads = list(v0.deltas)
    out = coefficient_grad(grads, [v0, v1])
    for l in range(2):
        sq = (v0.deltas[l].weight ** 2).sum() + (v0.deltas[l].bias ** 2).sum()
        cross = (v0.deltas[l].weight * v1.deltas[l].weight).sum() \
            + (v0.deltas[l].bias * v1.deltas[l].bias).sum()
        assert out[0, l] == pytest.approx(sq, rel=1e-12)
        assert out[1, l] == pytest.approx(cross, rel=1e-12)


def test_coefficient_grad_zero_vector_row():
    rng = np.random.default_rng(15)
    dims = (5, 6, 4)
    grads = list(_rand_vector(rng, dims, scale=1.0).deltas)
    zero = TaskVector(tuple(LayerParams(np.zeros_like(d.weight), np.zeros_like(d.bias))
                            for d in grads))
    out = coefficient_grad(grads, [zero])
    assert np.array_equal(out, np.zeros((1, 2)))


def test_coefficient_grad_matches_finite_differences():
    rng = np.random.default_rng(16)
    dims = (5, 6, 4)
    pre = _rand_encoder(rng, dims)
    vectors = [_rand_vector(rng, dims) for _ in range(3)]
    head = LayerParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    coeffs = CoefficientMatrix(("a", "b", "c"), rng.normal(scale=0.5, size=(3, 2)))
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, 6)
    spec = LossSpec("cross_entropy_hard")

    def loss_of(values):
        enc = merge_layerwise(pre, vectors, CoefficientMatrix(coeffs.task_ids, values))
        return loss_eval(forward(ParamSet(enc, {"t": head}), "t", x), y, spec)

    enc = merge_layerwise(pre, vectors, coeffs)
    _, grads = backward(ParamSet(enc, {"t": head}), "t", x, y, spec)
    analytic = coefficient_grad(grads.encoder, vectors)

    h = 1e-5
    for k in range(3):
        for l in range(2):
            vp = coeffs.values.copy()
            vp[k, l] += h
            vm = coeffs.values.copy()
            vm[k, l] -= h
            fd = (loss_of(vp) - loss_of(vm)) / (2 * h)
            denom = max(abs(fd), abs(analytic[k, l]), 1e-8)
            assert abs(fd - analytic[k, l]) / denom < 1e-4


# ---------------------------------------------------------------------------
# assembly


def test_assembly_materialize_swaps_trainable_layer():
    rng = np.random.default_rng(17)
    pre = random_paramset(rng)
    experts = [random_paramset(rng) for _ in range(2)]
    tvs = tuple(compute_task_vector(e, pre) for e in experts)
    coeffs = CoefficientMatrix.constant(("a", "b"), 2, 0.3)
    heads = {"a": experts[0].heads["a"], "b": experts[1].heads["b"]}
    replacement = LayerParams(rng.normal(size=(6, 5)), rng.normal(size=6))
    asm = MergedAssembly(pre.encoder, tvs, coeffs, heads,
                         {"a": TrainableLayer(0, replacement)})
    model_a = asm.materialize("a")
    assert np.array_equal(model_a.encoder[0].weight, replacement.weight)
    # other task still sees the plain merged encoder
    model_b = asm.materialize("b")
    merged = merge_layerwise(pre.encoder, tvs, coeffs)
    assert np.array_equal(model_b.encoder[0].weight, merged[0].weight)


def test_an_assembly_merges_its_encoder_once_for_every_task(monkeypatch):
    from mergelab import merging
    from mergelab.analysis import evaluate_assembly
    rng = np.random.default_rng(19)
    pre = random_paramset(rng, tasks=("a", "b", "c"))
    tvs = tuple(compute_task_vector(random_paramset(rng, tasks=("a", "b", "c")), pre)
                for _ in range(3))
    calls = []

    def counted(*args):
        calls.append(1)
        return merge_layerwise(*args)

    monkeypatch.setattr(merging, "merge_layerwise", counted)
    asm = MergedAssembly(pre.encoder, tvs, CoefficientMatrix.constant(("a", "b", "c"), 2, 0.3),
                         dict(pre.heads), {})
    x = rng.normal(size=(6, 5))
    for t in ("a", "b", "c"):
        evaluate_assembly(asm, t, x, rng.integers(0, 3, size=6))
    assert len(calls) == 1
    # every task's model reads the one merged encoder
    assert all(a is b for a, b in zip(asm.merged_encoder(), asm.materialize("b").encoder))


def test_assembly_head_replacement_and_unknown_task():
    rng = np.random.default_rng(18)
    pre = random_paramset(rng)
    expert = random_paramset(rng)
    tv = (compute_task_vector(expert, pre),)
    coeffs = CoefficientMatrix.constant(("a",), 2, 0.3)
    new_head = LayerParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    asm = MergedAssembly(pre.encoder, tv, coeffs, {"a": expert.heads["a"]},
                         {"a": TrainableLayer("head", new_head)})
    assert np.array_equal(asm.materialize("a").heads["a"].weight, new_head.weight)
    with pytest.raises(KeyError):
        asm.materialize("missing")


def test_coefficient_matrix_rejects_nonfinite_and_bad_shape():
    with pytest.raises(ValueError):
        CoefficientMatrix(("a",), np.array([[np.nan, 0.0]]))
    with pytest.raises(ShapeError):
        CoefficientMatrix(("a", "b"), np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        CoefficientMatrix(("a",), np.zeros(3))


def test_coefficient_grad_depth_mismatch():
    rng = np.random.default_rng(19)
    grads = list(_rand_vector(rng, (5, 6, 4)).deltas)
    shallow = _rand_vector(rng, (5, 6))
    with pytest.raises(ShapeError):
        coefficient_grad(grads, [shallow])


def test_coefficient_grad_takes_flat_gradients_with_a_stack():
    from mergelab.merging import stack_task_vectors
    rng = np.random.default_rng(20)
    dims = (5, 6, 4)
    pre = _rand_encoder(rng, dims)
    vectors = [_rand_vector(rng, dims) for _ in range(3)]
    grads = list(_rand_vector(rng, dims).deltas)
    stack = stack_task_vectors(vectors, pre)
    flat = coefficient_grad([g.flat for g in grads], stack)
    assert np.array_equal(flat, coefficient_grad(grads, vectors))
    with pytest.raises(ShapeError):
        coefficient_grad([g.flat for g in grads[:1]], stack)
    with pytest.raises(ShapeError):
        coefficient_grad([grads[0].flat, grads[1].flat[:-1]], stack)


@pytest.mark.parametrize("task_ids, depth, named", [
    (("a", "b", "c"), 2, "coeff rows 3 != task vectors 2"),
    (("a", "b"), 3, "coeff columns 3 != encoder depth 2"),
], ids=["rows", "columns"])
def test_assembly_rejects_coefficients_of_another_shape(task_ids, depth, named):
    rng = np.random.default_rng(21)
    dims = (5, 6, 4)
    pre = _rand_encoder(rng, dims)
    vectors = [_rand_vector(rng, dims) for _ in range(2)]
    with pytest.raises(ShapeError, match=named):
        MergedAssembly(pre, vectors, CoefficientMatrix.constant(task_ids, depth, 0.3), {}, {})
