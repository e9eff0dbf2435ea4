"""Property tests of the exact gradients over random shapes and every loss kind:
`engine.backward` against central differences, within criterion 1's
tolerance, a step plan that trains every layer against `backward`, bit for
bit, and a plan fed at a higher lowest layer against the every-layer plan
and `engine.forward`, bit for bit.

Each example draws an encoder of depth 1-4 and widths 1-12, a batch of 1-20,
a head of width 2-6 and one of the nine loss kinds, with targets of that
kind's form. The draws keep cosine away from zero-norm rows, and every
`l1` / `smooth_l1` residual more than 1e-3 from its kink."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mergelab.adaptation import _StepPlan
from mergelab.engine import (
    LOSS_KINDS,
    SMOOTH_L1_DELTA,
    LayerParams,
    LossSpec,
    ParamSet,
    _check_inputs,
    _check_outputs,
    _check_targets,
    _loss_rows,
    arrays_to_params,
    backward,
    encode,
    forward,
    loss_eval,
    params_to_arrays,
)

from conftest import fd_rel_error

FD_STEP = 1e-5
FD_TOL = 1e-4  # criterion 1's bound on `fd_rel_error`
FD_COORDS = 40  # central differences per example, at coordinates drawn from every layer
KINK_MARGIN = 1e-3
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)  # per loss kind

cases = st.fixed_dictionaries({
    "widths": st.lists(st.integers(1, 12), min_size=2, max_size=5),  # inputs, then 1-4 layers
    "batch": st.integers(1, 20),
    "classes": st.integers(2, 6),
    "seed": st.integers(0, 2**32 - 1),
})


def _layer(rng, out_dim, in_dim):
    return LayerParams(rng.normal(0.0, in_dim ** -0.5, (out_dim, in_dim)),
                       rng.normal(0.0, 0.5, out_dim))


def _targets(rng, spec: LossSpec, z: np.ndarray):
    """Targets of `spec`'s form for the outputs `z`, clear of the loss's kinks."""
    n, c = z.shape
    arity = spec.target_arity
    if arity == "none":
        return None
    if arity == "labels":
        return rng.integers(0, c, n)
    if arity == "distribution":
        p = rng.random((n, c)) + 1e-3
        return p / p.sum(axis=1, keepdims=True)
    if spec.kind not in ("l1", "smooth_l1"):
        return rng.normal(0.0, 1.0, (n, c))
    # residuals z - t of magnitude in [0.05, 3], none within the margin of the
    # kink at 0 (l1) or at SMOOTH_L1_DELTA (smooth_l1)
    size = rng.uniform(0.05, 3.0, (n, c))
    size[np.abs(size - SMOOTH_L1_DELTA) < 2 * KINK_MARGIN] += 4 * KINK_MARGIN
    return z - rng.choice([-1.0, 1.0], (n, c)) * size


def _problem(case, kind):
    """(params, inputs, targets, spec, rng) for one drawn case; the task is "t"."""
    rng = np.random.default_rng(case["seed"])
    dims = case["widths"]
    params = ParamSet(tuple(_layer(rng, o, i) for i, o in zip(dims, dims[1:])),
                      {"t": _layer(rng, case["classes"], dims[-1])})
    x = rng.normal(0.0, 1.0, (case["batch"], dims[0]))
    spec = LossSpec(kind)
    z = forward(params, "t", x)
    targets = _targets(rng, spec, z)
    if spec.kind == "cosine":
        assume(np.linalg.norm(z, axis=1).min() > 0.1)
        assume(np.linalg.norm(targets, axis=1).min() > 0.1)
    return params, x, targets, spec, rng


@pytest.mark.parametrize("kind", LOSS_KINDS)
@PROPERTY
@given(case=cases)
def test_backward_matches_central_differences(kind, case):
    params, x, targets, spec, rng = _problem(case, kind)
    _, grads = backward(params, "t", x, targets, spec)
    analytic = np.concatenate([a.ravel() for a in params_to_arrays(grads)])
    arrays = params_to_arrays(params)
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])[:-1]

    def loss_at(values):
        parts = [p.reshape(a.shape) for p, a in zip(np.split(values, ends), arrays)]
        return loss_eval(forward(arrays_to_params(params, parts), "t", x), targets, spec)

    coords = rng.choice(flat.size, min(flat.size, FD_COORDS), replace=False)
    for j in coords:
        up, down = flat.copy(), flat.copy()
        up[j] += FD_STEP
        down[j] -= FD_STEP
        fd = (loss_at(up) - loss_at(down)) / (2 * FD_STEP)
        assert fd_rel_error(fd, analytic[j]) < FD_TOL, (j, fd, analytic[j])


@pytest.mark.parametrize("kind", LOSS_KINDS)
@PROPERTY
@given(case=cases)
def test_a_plan_that_trains_every_layer_gives_the_backward_gradient_bit_for_bit(kind, case):
    params, x, targets, spec, _ = _problem(case, kind)
    layers = [*params.encoder, params.head("t")]
    plan = _StepPlan(layers, dict(enumerate(layers)))
    acts, logits = plan.forward(_check_inputs(x, layers[0].in_dim))
    z = _check_outputs(logits)
    _, g, _ = _loss_rows(z, _check_targets(z.shape, targets, spec), spec)
    g /= len(x)
    plan.backprop(g, acts)
    _, grads = backward(params, "t", x, targets, spec)
    want = np.concatenate([layer.flat for layer in (*grads.encoder, grads.head("t"))])
    assert plan.train_grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", LOSS_KINDS)
@PROPERTY
@given(case=cases, k=st.integers(1, 4))
def test_a_plan_fed_at_its_lowest_layer_gives_the_every_layer_plans_numbers_bit_for_bit(
        kind, case, k):
    # the plan trains layer k and the head (the head alone when k is the head's position)
    params, x, targets, spec, _ = _problem(case, kind)
    layers = [*params.encoder, params.head("t")]
    top = len(layers) - 1
    k = min(k, top)
    plan = _StepPlan(layers, {k: layers[k], top: layers[top]})
    assert plan.lowest == k
    acts, logits = plan.forward(encode(params.encoder[:k], x))
    assert acts[:k] == [None] * k
    assert logits.tobytes() == forward(params, "t", x).tobytes()
    _, g, _ = _loss_rows(logits, _check_targets(logits.shape, targets, spec), spec)
    g /= len(x)
    plan.backprop(g, acts)
    every = _StepPlan(layers, dict(enumerate(layers)))
    every_acts, _ = every.forward(_check_inputs(x, layers[0].in_dim))
    every.backprop(g, every_acts)
    want = np.concatenate([every.grads[i].flat for i in sorted({k, top})])
    assert plan.train_grad.tobytes() == want.tobytes()
