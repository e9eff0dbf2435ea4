"""Numerical verifier for the midpoint-merge loss bound.

For two parameter sets whose midpoint model behaves like the average of the
endpoint models (cross-task linearity), a convex loss obeys a Jensen upper
bound. If adding task i's vector already lowers task j's loss by eps, the
disentangled-case bound tightens by eps/2. These checks run empirically on
supplied evaluation data:

    L(f_merge) <= 1/2 L(f_i) + 1/2 L(f_j) + slack(residual)
    bound_synergy = bound_disentangled - eps/2        (exact identity)

Linear-in-parameter models satisfy the premise exactly (zero residual); for
nonlinear nets the measured residual feeds a Lipschitz-derived slack, so the
bound is reported together with the residual rather than asserted raw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import LOSS_TABLE, LayerParams, LossSpec, ShapeError, _apply, _as_f64, encode, loss_eval
from .merging import merge_uniform

MODEL_FAMILIES = ("linear", "nonlinear-net")


def model_outputs(encoder: Sequence[LayerParams], inputs: np.ndarray, family: str,
                  head: LayerParams | None = None) -> np.ndarray:
    """Forward pass for a verifier model: affine for the linear family (single
    layer, no activation), tanh chain otherwise; optional fixed shared head."""
    if family == "linear":
        if len(encoder) != 1:
            raise ShapeError("linear family requires exactly one encoder layer")
        h = _apply(encoder[0], _as_f64(inputs))
    elif family == "nonlinear-net":
        h = encode(tuple(encoder), inputs)  # which checks and converts `inputs`
    else:
        raise ValueError(f"unknown model family '{family}'")
    return h if head is None else _apply(head, h)


def ctl_residual(theta_i: Sequence[LayerParams], theta_j: Sequence[LayerParams],
                 inputs: np.ndarray, family: str = "nonlinear-net",
                 head: LayerParams | None = None):
    """Max and mean per-sample norm of f(midpoint) - (f_i + f_j)/2."""
    return _midpoint(theta_i, theta_j, inputs, family, head)[0]


def _midpoint(theta_i, theta_j, inputs, family, head):
    """`ctl_residual`'s (max, mean), then f_i, f_j, f(midpoint) and (f_i + f_j)/2."""
    out_i = model_outputs(theta_i, inputs, family, head)
    out_j = model_outputs(theta_j, inputs, family, head)
    out_mid = model_outputs(merge_uniform([theta_i, theta_j]), inputs, family, head)
    avg = 0.5 * out_i + 0.5 * out_j
    norms = np.linalg.norm(out_mid - avg, axis=1)
    return (float(norms.max()), float(norms.mean())), out_i, out_j, out_mid, avg


@dataclass(frozen=True)
class Prop1Instance:
    family: str
    theta_0: tuple
    theta_i: tuple
    theta_j: tuple
    inputs: np.ndarray
    targets: object
    loss: LossSpec
    head: LayerParams | None = None

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family '{self.family}'")
        if not LOSS_TABLE[self.loss.kind][1]:
            raise ValueError(f"loss '{self.loss.kind}' is not convex in the output")
        for name in ("theta_0", "theta_i", "theta_j"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass
class Prop1Report:
    ctl_residual: float  # max per-sample residual norm
    ctl_residual_mean: float
    loss_pre: float  # L_j(f_0)
    loss_i: float  # L_j(f_i)
    loss_j: float  # L_j(f_j)
    loss_merge: float  # L_j at the parameter midpoint of theta_i, theta_j
    jensen_bound: float  # (loss_i + loss_j) / 2
    jensen_slack: float  # residual-derived allowance on the bound
    jensen_holds: bool  # loss_merge <= jensen_bound + jensen_slack + tol
    eps: float
    bound_disentangled: float  # (loss_pre + loss_j) / 2
    bound_synergy: float  # bound_disentangled - eps / 2
    classification: str  # "synergy" | "disentangled" | "interference"


_EPS_CLASSIFY_TOL = 1e-12
_BOUND_TOL = 1e-10


def _lipschitz_slack(u: np.ndarray, v: np.ndarray, targets, loss: LossSpec) -> float:
    """Upper bound on |L(u) - L(v)| from output-space Lipschitz constants."""
    diff = u - v
    n = len(u)
    if loss.kind == "l2":
        t = _as_f64(targets)
        per = np.linalg.norm(diff, axis=1) * (
            np.linalg.norm(u - t, axis=1) + np.linalg.norm(v - t, axis=1))
        return float(per.sum() / n)
    if loss.kind in ("l1", "smooth_l1"):
        return float(np.abs(diff).sum() / n)
    # CE family in logit space: gradient norm bounded by sqrt(2)
    return float(np.sqrt(2.0) * np.linalg.norm(diff, axis=1).sum() / n)


def prop1_verify(instance: Prop1Instance) -> Prop1Report:
    """Evaluate all four losses, both bounds, and the bound inequality."""
    fam, head = instance.family, instance.head
    x, t, loss = instance.inputs, instance.targets, instance.loss

    out_0 = model_outputs(instance.theta_0, x, fam, head)
    (res_max, res_mean), out_i, out_j, out_merge, avg = _midpoint(
        instance.theta_i, instance.theta_j, x, fam, head)

    loss_pre = loss_eval(out_0, t, loss)
    loss_i = loss_eval(out_i, t, loss)
    loss_j = loss_eval(out_j, t, loss)
    loss_merge = loss_eval(out_merge, t, loss)

    jensen_bound = 0.5 * loss_i + 0.5 * loss_j
    slack = _lipschitz_slack(out_merge, avg, t, loss)
    holds = loss_merge <= jensen_bound + slack + _BOUND_TOL

    eps = loss_pre - loss_i
    bound_dis = 0.5 * loss_pre + 0.5 * loss_j
    bound_syn = bound_dis - eps / 2.0

    if eps > _EPS_CLASSIFY_TOL:
        cls = "synergy"
    elif eps < -_EPS_CLASSIFY_TOL:
        cls = "interference"
    else:
        cls = "disentangled"

    return Prop1Report(
        ctl_residual=res_max,
        ctl_residual_mean=res_mean,
        loss_pre=loss_pre,
        loss_i=loss_i,
        loss_j=loss_j,
        loss_merge=loss_merge,
        jensen_bound=jensen_bound,
        jensen_slack=slack,
        jensen_holds=bool(holds),
        eps=eps,
        bound_disentangled=bound_dis,
        bound_synergy=bound_syn,
        classification=cls,
    )


def random_linear_instance(rng: np.random.Generator, loss_kind: str = "l2") -> Prop1Instance:
    """Seeded linear-family instance (16 inputs, 4 -> 3), exactly linear across tasks."""
    in_dim, out_dim, n = 4, 3, 16
    def layer():
        return (LayerParams(rng.normal(0.0, 1.0, (out_dim, in_dim)), rng.normal(0.0, 1.0, out_dim)),)

    x = rng.normal(0.0, 1.0, (n, in_dim))
    loss = LossSpec(loss_kind)
    if loss.target_arity == "labels":
        targets = rng.integers(0, out_dim, n)
    elif loss.target_arity == "distribution":
        raw = rng.random((n, out_dim)) + 1e-3
        targets = raw / raw.sum(axis=1, keepdims=True)
    else:
        targets = rng.normal(0.0, 1.0, (n, out_dim))
    return Prop1Instance(
        family="linear",
        theta_0=layer(),
        theta_i=layer(),
        theta_j=layer(),
        inputs=x,
        targets=targets,
        loss=loss,
    )
