import math

import numpy as np
import pytest

from mergelab.engine import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    LayerParams,
    LossSpec,
    ParamSet,
    ShapeError,
    UnknownTaskError,
    adam_init,
    adam_step,
    arrays_to_params,
    backward,
    forward,
    init_params,
    loss_eval,
    loss_output_grad,
    params_to_arrays,
    softmax,
)

from conftest import fd_rel_error, random_paramset


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_params_zero_logits():
    enc = (LayerParams(np.zeros((4, 3)), np.zeros(4)),)
    heads = {"t": LayerParams(np.zeros((2, 4)), np.zeros(2))}
    params = ParamSet(enc, heads)
    out = forward(params, "t", np.random.default_rng(0).normal(size=(5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_forward_identity_composition_near_zero():
    # tanh is the identity to first order at 0: identity layers on tiny inputs
    # reproduce the inputs to well below 1e-9
    enc = (LayerParams(np.eye(3), np.zeros(3)),)
    heads = {"t": LayerParams(np.eye(3), np.zeros(3))}
    params = ParamSet(enc, heads)
    x = 1e-3 * np.random.default_rng(1).normal(size=(4, 3))
    out = forward(params, "t", x)
    assert np.abs(out - x).max() < 1e-9


def test_forward_matches_hand_rolled_matmul_oracle():
    rng = np.random.default_rng(2)
    params = random_paramset(rng)
    x = rng.normal(size=(4, 5))
    # independent oracle: explicit matrix algebra
    h1 = np.tanh(x @ params.encoder[0].weight.T + params.encoder[0].bias)
    h2 = np.tanh(h1 @ params.encoder[1].weight.T + params.encoder[1].bias)
    expect = h2 @ params.heads["a"].weight.T + params.heads["a"].bias
    assert np.abs(forward(params, "a", x) - expect).max() < 1e-12


def test_forward_shape_and_task_errors():
    rng = np.random.default_rng(3)
    params = random_paramset(rng)
    with pytest.raises(ShapeError):
        forward(params, "a", rng.normal(size=(4, 7)))
    with pytest.raises(UnknownTaskError):
        forward(params, "nope", rng.normal(size=(4, 5)))


def test_paramset_rejects_incompatible_layers():
    good = LayerParams(np.zeros((4, 3)), np.zeros(4))
    bad_next = LayerParams(np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ShapeError):
        ParamSet((good, bad_next), {})
    with pytest.raises(ShapeError):
        ParamSet((good,), {"t": LayerParams(np.zeros((2, 9)), np.zeros(2))})


# ---------------------------------------------------------------------------
# losses


def test_entropy_of_uniform_is_log_c():
    logits = np.zeros((3, 4))
    assert loss_eval(logits, None, LossSpec("entropy")) == pytest.approx(math.log(4), abs=1e-12)


def test_soft_ce_self_equals_entropy_and_kl_self_zero():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(6, 5))
    p = softmax(logits)
    ce = loss_eval(logits, p, LossSpec("cross_entropy_soft"))
    ent = loss_eval(logits, None, LossSpec("entropy"))
    assert ce == pytest.approx(ent, abs=1e-12)
    assert loss_eval(logits, p, LossSpec("kl")) == pytest.approx(0.0, abs=1e-12)


def test_soft_ce_hand_computed_value():
    # q = [0.25, 0.75] via logits = ln q; p = [0.5, 0.5]
    logits = np.log(np.array([[0.25, 0.75]]))
    p = np.array([[0.5, 0.5]])
    expect = -(0.5 * math.log(0.25) + 0.5 * math.log(0.75))
    got = loss_eval(logits, p, LossSpec("cross_entropy_soft"))
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.8370, abs=5e-5)


def test_loss_nonnegativity_and_bounds():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 4))
    p = rng.random((8, 4)) + 1e-3
    p /= p.sum(axis=1, keepdims=True)
    vec = rng.normal(size=(8, 4))
    for kind, tgt in [
        ("cross_entropy_hard", rng.integers(0, 4, 8)),
        ("cross_entropy_soft", p),
        ("entropy", None),
        ("kl", p),
        ("js", p),
        ("l1", vec),
        ("l2", vec),
        ("smooth_l1", vec),
    ]:
        assert loss_eval(logits, tgt, LossSpec(kind)) >= -1e-12, kind
    assert loss_eval(logits, None, LossSpec("entropy")) <= math.log(4) + 1e-12
    cos = loss_eval(logits, vec, LossSpec("cosine"))
    assert 0.0 <= cos <= 2.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        q = softmax(rng.normal(scale=10.0, size=(7, 5)))
        assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-12


def test_loss_target_arity_validation():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        loss_eval(logits, np.zeros((2, 3)), LossSpec("entropy"))
    with pytest.raises(ValueError):
        loss_eval(logits, None, LossSpec("l1"))
    with pytest.raises(ValueError):
        loss_eval(logits, np.full((2, 3), 0.5), LossSpec("kl"))  # rows sum to 1.5
    with pytest.raises(ShapeError):
        loss_eval(logits, np.zeros((2, 4)), LossSpec("l2"))
    with pytest.raises(ValueError):
        loss_eval(np.array([[np.inf, 0.0]]), None, LossSpec("entropy"))


# ---------------------------------------------------------------------------
# backward


def test_backward_stationary_at_hard_ce_optimum():
    # softmax effectively one-hot on the target class -> gradients vanish
    enc = (LayerParams(np.zeros((4, 3)), np.zeros(4)),)
    heads = {"t": LayerParams(np.zeros((3, 4)), np.array([50.0, 0.0, 0.0]))}
    params = ParamSet(enc, heads)
    x = np.random.default_rng(7).normal(size=(5, 3))
    _, grads = backward(params, "t", x, np.zeros(5, dtype=int), LossSpec("cross_entropy_hard"))
    for arr in params_to_arrays(grads):
        assert np.abs(arr).max() < 1e-8


def _fd_grad(params, task, x, targets, spec, h=1e-5):
    arrays = [a.copy() for a in params_to_arrays(params)]
    out = []
    for ai in range(len(arrays)):
        g = np.zeros_like(arrays[ai])
        flat = arrays[ai].ravel()
        gflat = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = loss_eval(forward(arrays_to_params(params, arrays), task, x), targets, spec)
            flat[j] = orig - h
            lm = loss_eval(forward(arrays_to_params(params, arrays), task, x), targets, spec)
            flat[j] = orig
            gflat[j] = (lp - lm) / (2 * h)
        out.append(g)
    return out


@pytest.mark.parametrize("kind", ["cross_entropy_hard", "entropy", "js", "smooth_l1", "cosine"])
def test_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(8)
    params = random_paramset(rng, dims=(4, 5, 3))
    x = rng.normal(size=(4, 4))
    spec = LossSpec(kind)
    if spec.target_arity == "labels":
        targets = rng.integers(0, 3, 4)
    elif spec.target_arity == "distribution":
        targets = rng.random((4, 3)) + 1e-3
        targets /= targets.sum(axis=1, keepdims=True)
    elif spec.target_arity == "none":
        targets = None
    else:
        targets = rng.normal(size=(4, 3))
    _, grads = backward(params, "a", x, targets, spec)
    analytic = params_to_arrays(grads)
    numeric = _fd_grad(params, "a", x, targets, spec)
    for a, n in zip(analytic, numeric):
        worst = max(fd_rel_error(fd, g) for fd, g in zip(n.ravel(), a.ravel()))
        assert worst < 1e-4


def test_l1_subgradient_is_sign_over_batch():
    rng = np.random.default_rng(9)
    targets = rng.normal(size=(6, 3))
    outputs = targets + 1.0
    g = loss_output_grad(outputs, targets, LossSpec("l1"))
    assert np.array_equal(g, np.full((6, 3), 1.0 / 6.0))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_grad_is_null_update():
    vals = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = adam_init(vals)
    new, state2 = adam_step(vals, [np.zeros(2), np.zeros((1, 1))], state, lr=0.1)
    assert np.array_equal(new[0], vals[0]) and np.array_equal(new[1], vals[1])
    assert state2.step_count == 1


def test_adam_first_step_closed_form():
    state = adam_init([np.array([0.0])])
    (new,), _ = adam_step([np.array([0.0])], [np.array([1.0])], state, lr=0.01)
    # bias-corrected first step: -lr * 1 / (1 + eps)
    assert new[0] == pytest.approx(-0.01 / (1.0 + 1e-8), abs=1e-15)
    assert new[0] == pytest.approx(-0.01, abs=1e-6)


def test_adam_two_steps_match_hand_unrolled_trace():
    g = 0.7
    lr = 0.05
    b1, b2, eps = 0.9, 0.999, 1e-8
    # hand unroll
    theta = 2.0
    m = v = 0.0
    expect = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        expect.append(theta)

    vals = [np.array([2.0])]
    state = adam_init(vals)
    for step in range(2):
        vals, state = adam_step(vals, [np.array([g])], state, lr)
        assert vals[0][0] == pytest.approx(expect[step], abs=1e-12)
    assert state.step_count == 2


def test_adam_shape_mismatch_raises():
    state = adam_init([np.zeros(2)])
    with pytest.raises(ShapeError):
        adam_step([np.zeros(2)], [np.zeros(3)], state, lr=0.1)


def test_adam_state_defaults_match_momentum_convention():
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    state = adam_init([np.zeros(1)])
    assert isinstance(state, AdamState) and state.step_count == 0


# ---------------------------------------------------------------------------
# determinism


def test_init_params_deterministic():
    a = init_params((4, 3), {"t": 2}, np.random.default_rng(11))
    b = init_params((4, 3), {"t": 2}, np.random.default_rng(11))
    assert np.array_equal(a.encoder[0].weight, b.encoder[0].weight)
    assert np.array_equal(a.heads["t"].weight, b.heads["t"].weight)


def test_loss_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LossSpec("huber")
