import numpy as np
import pytest

from mergelab.engine import LayerParams, LossSpec
from mergelab.theory import (
    Prop1Instance,
    ctl_residual,
    model_outputs,
    prop1_verify,
    random_linear_instance,
)

from conftest import random_paramset


def _scalar_instance(theta_i=0.5, theta_j=1.0, loss="l2"):
    return Prop1Instance(
        family="linear",
        theta_0=(LayerParams([[0.0]], [0.0]),),
        theta_i=(LayerParams([[theta_i]], [0.0]),),
        theta_j=(LayerParams([[theta_j]], [0.0]),),
        inputs=np.array([[1.0]]),
        targets=np.array([[1.0]]),
        loss=LossSpec(loss),
    )


# ---------------------------------------------------------------------------
# cross-task linearity residual


def test_ctl_residual_zero_for_linear_models():
    rng = np.random.default_rng(0)
    a = (LayerParams(rng.normal(size=(3, 4)), rng.normal(size=3)),)
    b = (LayerParams(rng.normal(size=(3, 4)), rng.normal(size=3)),)
    mx, mn = ctl_residual(a, b, rng.normal(size=(16, 4)), family="linear")
    assert mx < 1e-14 and mn < 1e-14


def test_ctl_residual_zero_at_degenerate_midpoint():
    rng = np.random.default_rng(1)
    p = random_paramset(rng)
    x = rng.normal(size=(8, 5))
    mx, _ = ctl_residual(p.encoder, p.encoder, x, family="nonlinear-net")
    assert mx == 0.0


def test_ctl_residual_matches_three_forward_oracle():
    rng = np.random.default_rng(2)
    a = random_paramset(rng).encoder
    b = random_paramset(rng).encoder
    x = rng.normal(size=(10, 5))
    mx, mn = ctl_residual(a, b, x, family="nonlinear-net")
    assert mx > 0.0
    mid = tuple(LayerParams(0.5 * (la.weight + lb.weight), 0.5 * (la.bias + lb.bias))
                for la, lb in zip(a, b))
    f_mid = model_outputs(mid, x, "nonlinear-net")
    f_avg = 0.5 * model_outputs(a, x, "nonlinear-net") + 0.5 * model_outputs(b, x, "nonlinear-net")
    norms = np.linalg.norm(f_mid - f_avg, axis=1)
    assert mx == pytest.approx(norms.max(), rel=1e-12)
    assert mn == pytest.approx(norms.mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# full verification


def test_prop1_hand_computed_scalar_instance():
    rep = prop1_verify(_scalar_instance())
    assert rep.loss_pre == pytest.approx(1.0)
    assert rep.loss_i == pytest.approx(0.25)
    assert rep.loss_j == pytest.approx(0.0)
    assert rep.loss_merge == pytest.approx(0.0625)
    assert rep.jensen_bound == pytest.approx(0.125)
    assert rep.jensen_holds
    assert rep.eps == pytest.approx(0.75)
    assert rep.bound_disentangled == pytest.approx(0.5)
    assert rep.bound_synergy == pytest.approx(0.125)
    assert rep.classification == "synergy"


def test_prop1_identical_endpoints_equality():
    rep = prop1_verify(_scalar_instance(theta_i=0.7, theta_j=0.7))
    assert rep.loss_merge == rep.loss_i == rep.loss_j
    assert rep.jensen_bound == rep.loss_merge  # Jensen gap 0
    assert rep.ctl_residual == 0.0 and rep.jensen_slack == 0.0
    assert rep.jensen_holds


def test_prop1_randomized_linear_sweep():
    for i in range(100):
        rep = prop1_verify(random_linear_instance(np.random.default_rng(1000 + i)))
        assert rep.ctl_residual < 1e-12
        assert rep.loss_merge <= rep.jensen_bound + 1e-10
        assert rep.bound_synergy == rep.bound_disentangled - rep.eps / 2.0
        if rep.eps > 1e-12:
            assert rep.classification == "synergy"
        elif rep.eps < -1e-12:
            assert rep.classification == "interference"


def test_prop1_convex_loss_kinds_on_linear_instances():
    for kind in ("l1", "smooth_l1", "cross_entropy_hard", "cross_entropy_soft", "kl"):
        rep = prop1_verify(random_linear_instance(np.random.default_rng(7), loss_kind=kind))
        assert rep.jensen_holds


def test_prop1_rejects_nonconvex_loss():
    for kind in ("entropy", "js", "cosine"):
        with pytest.raises(ValueError):
            _scalar_instance(loss=kind)


def test_prop1_nonlinear_reports_residual_and_slackful_bound():
    rng = np.random.default_rng(8)
    theta0 = random_paramset(rng).encoder
    ti = random_paramset(rng).encoder
    tj = random_paramset(rng).encoder
    head = LayerParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    inst = Prop1Instance(
        family="nonlinear-net", theta_0=theta0, theta_i=ti, theta_j=tj,
        inputs=rng.normal(size=(12, 5)), targets=rng.integers(0, 3, 12),
        loss=LossSpec("cross_entropy_hard"), head=head)
    rep = prop1_verify(inst)
    assert rep.ctl_residual > 0.0
    assert rep.jensen_slack > 0.0
    # the slack comes from a true Lipschitz bound, so the guarded bound holds
    assert rep.jensen_holds


def test_linear_family_requires_single_layer():
    rng = np.random.default_rng(9)
    two = random_paramset(rng).encoder  # depth 2
    with pytest.raises(ValueError):
        ctl_residual(two, two, rng.normal(size=(4, 5)), family="linear")
