"""Minimal feed-forward network engine with exact hand-derived gradients.

Everything runs in 64-bit floats. The model is a chain of affine encoder
layers with tanh activations, followed by one affine head per task (no
activation on the head). The public functions are pure: parameters go in,
new values come out, and the caller's arrays are never written.

Each loss kind is declared once (`LOSS_TABLE`) and its math lives in one
row-wise kernel (`_loss_rows`), the affine backprop in one helper that
writes flat layer gradients into caller-given buffers (`_backprop`), and the
Adam arithmetic in one in-place update of a flat vector (`_adam_update`).
`loss_eval`, `loss_output_grad`, `backward` and `adam_step` wrap them. The
step plan of `adaptation`'s training loops calls them directly over flat
buffers it owns, updated in place; the wrappers check each call's inputs and
targets, the loops each task's whole arrays once before the first step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Array dimensions do not line up."""


class UnknownTaskError(KeyError):
    """Requested task id has no head in the parameter set."""


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


@dataclass(frozen=True)
class LayerParams:
    """One affine layer: weight (out_dim, in_dim) and bias (out_dim,).

    Both are views of one contiguous float64 vector, `flat` (the weight's
    rows, then the bias), so a layer is a single array to the merge, the
    coefficient gradient and the optimizer.
    """

    weight: np.ndarray
    bias: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weight = np.asarray(self.weight, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weight.ndim != 2 or bias.ndim != 1:
            raise ShapeError(
                f"layer expects 2-D weight and 1-D bias, got {weight.shape} / {bias.shape}"
            )
        if weight.shape[0] != bias.shape[0]:
            raise ShapeError(
                f"weight rows {weight.shape[0]} != bias length {bias.shape[0]}"
            )
        flat = np.concatenate([weight.ravel(), bias])
        if not np.isfinite(flat).all():
            raise ValueError("layer parameters must be finite")
        self._set_flat(flat, weight.shape)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shape: tuple) -> "LayerParams":
        """A layer over `flat` (length out*in + out) for weight shape `shape`.

        Unchecked: for values computed from layers that were validated, such
        as merges, gradients and optimizer steps inside a training loop.
        """
        layer = object.__new__(cls)
        layer._set_flat(flat, shape)
        return layer

    def _set_flat(self, flat: np.ndarray, shape: tuple):
        """`flat` and its (weight, bias) views, the weight shaped `shape`."""
        n = shape[0] * shape[1]
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "weight", flat[:n].reshape(shape))
        object.__setattr__(self, "bias", flat[n:])

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class ParamSet:
    """Full weight collection: shared encoder layers plus one head per task."""

    encoder: tuple
    heads: dict

    def __post_init__(self):
        object.__setattr__(self, "encoder", tuple(self.encoder))
        object.__setattr__(self, "heads", dict(self.heads))
        if not self.encoder:
            raise ShapeError("encoder must have at least one layer")
        for a, b in zip(self.encoder, self.encoder[1:]):
            if b.in_dim != a.out_dim:
                raise ShapeError(
                    f"encoder layers incompatible: {a.out_dim} -> expected in_dim, got {b.in_dim}"
                )
        feat = self.encoder[-1].out_dim
        for task, head in self.heads.items():
            if head.in_dim != feat:
                raise ShapeError(
                    f"head '{task}' in_dim {head.in_dim} != encoder output {feat}"
                )

    def head(self, task: str) -> LayerParams:
        try:
            return self.heads[task]
        except KeyError:
            raise UnknownTaskError(f"no head for task '{task}'") from None


# Every loss kind: the form of its targets ("labels", "distribution",
# "vector" or "none") and whether it is convex in the model output (in logit
# space for the softmax kinds), which the bound verifier in `theory` needs.
LOSS_TABLE = {
    "cross_entropy_hard": ("labels", True),
    "cross_entropy_soft": ("distribution", True),
    "entropy": ("none", False),
    "kl": ("distribution", True),
    "js": ("distribution", False),
    "l1": ("vector", True),
    "l2": ("vector", True),
    "smooth_l1": ("vector", True),
    "cosine": ("vector", False),
}
LOSS_KINDS = tuple(LOSS_TABLE)

SMOOTH_L1_DELTA = 1.0


@dataclass(frozen=True)
class LossSpec:
    """Loss selector; reduction is always the mean over the batch."""

    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_TABLE:
            raise ValueError(f"unknown loss kind '{self.kind}'; expected one of {LOSS_KINDS}")

    @property
    def target_arity(self) -> str:
        return LOSS_TABLE[self.kind][0]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _xlogx(p: np.ndarray) -> np.ndarray:
    # 0 * log 0 := 0
    return np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)


def _check_outputs(outputs: np.ndarray) -> np.ndarray:
    outputs = _as_f64(outputs)
    if outputs.ndim != 2:
        raise ShapeError(f"outputs must be 2-D (batch, dim), got shape {outputs.shape}")
    if not np.isfinite(outputs).all():
        raise ValueError("outputs contain non-finite values")
    return outputs


def _check_targets(shape: tuple, targets, spec: LossSpec):
    """`targets` checked and converted for outputs of `shape` (batch, dim)."""
    arity = spec.target_arity
    if arity == "none":
        if targets is not None:
            raise ValueError(f"loss '{spec.kind}' takes no targets")
        return None
    if targets is None:
        raise ValueError(f"loss '{spec.kind}' requires targets")
    if arity == "labels":
        t = np.asarray(targets)
        if t.ndim != 1 or t.shape[0] != shape[0]:
            raise ShapeError(f"labels must be 1-D of length {shape[0]}")
        if t.dtype.kind not in "iu":
            raise ValueError("class labels must be integers")
        t = t.astype(np.int64, copy=False)
        if t.min() < 0 or t.max() >= shape[1]:
            raise ValueError("class label out of range")
        return t
    t = _as_f64(targets)
    if t.shape != tuple(shape):
        raise ShapeError(f"targets shape {t.shape} != outputs shape {tuple(shape)}")
    if not np.isfinite(t).all():
        raise ValueError("targets contain non-finite values")
    if arity == "distribution":
        if (t < 0.0).any() or not np.allclose(t.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError("distribution targets must be nonnegative and sum to 1")
    return t


def _loss_rows(z: np.ndarray, t, spec: LossSpec):
    """The loss kernel: per-row loss, per-row output gradient and softmax.

    `z` are checked outputs (`_check_outputs`) and `t` checked targets
    (`_check_targets`, or rows of a checked array). The batch-mean loss is
    the rows' mean and its output gradient the gradient rows / batch size,
    so a subset of rows gives that subset's loss and gradient. The softmax
    is None for the vector kinds, which need none.
    """
    kind = spec.kind
    if spec.target_arity == "vector":
        d = z - t
        if kind == "l1":
            return np.abs(d).sum(axis=1), np.sign(d), None
        if kind == "l2":
            return (d * d).sum(axis=1), 2.0 * d, None
        if kind == "smooth_l1":
            a = np.abs(d)
            per = np.where(a <= SMOOTH_L1_DELTA, 0.5 * d * d,
                           SMOOTH_L1_DELTA * (a - 0.5 * SMOOTH_L1_DELTA))
            return per.sum(axis=1), np.clip(d, -SMOOTH_L1_DELTA, SMOOTH_L1_DELTA), None
        # cosine: 1 - cos similarity; in [0, 2]
        un = np.linalg.norm(z, axis=1, keepdims=True)
        vn = np.linalg.norm(t, axis=1, keepdims=True)
        if (un == 0.0).any() or (vn == 0.0).any():
            raise ValueError("cosine loss undefined for zero-norm vectors")
        cos = (z * t).sum(axis=1, keepdims=True) / (un * vn)
        return (1.0 - cos)[:, 0], -(t / (un * vn) - cos * z / (un * un)), None

    # one softmax: q = softmax(z), ls = log(q) (as zs - log s)
    zs = z - z.max(axis=1, keepdims=True)
    e = np.exp(zs)
    s = e.sum(axis=1, keepdims=True)
    q = e / s
    if kind == "cross_entropy_hard":
        # -ls[r, t] from the picked entries alone (negated as written, so a
        # zero loss keeps the sign the full log-softmax gives it)
        r = np.arange(z.shape[0])
        g = q.copy()
        g[r, t] -= 1.0
        return -(zs[r, t] - np.log(s[:, 0])), g, q
    ls = zs - np.log(s)
    if kind in ("cross_entropy_soft", "kl"):
        # both gradients reduce to softmax - target for normalized targets
        per = -(t * ls) if kind == "cross_entropy_soft" else _xlogx(t) - t * ls
        return per.sum(axis=1), q - t, q
    if kind == "entropy":
        h = -(q * ls).sum(axis=1, keepdims=True)
        return h[:, 0], -(q * (ls + h)), q
    # js
    m = 0.5 * (t + q)
    logm = np.log(np.where(m > 0.0, m, 1.0))
    kl_pm = (_xlogx(t) - t * logm).sum(axis=1)
    kl_qm = (_xlogx(q) - q * logm).sum(axis=1)
    g = np.where(q > 0.0, 0.5 * (np.log(np.where(q > 0.0, q, 1.0)) - logm), 0.0)
    inner = (g * q).sum(axis=1, keepdims=True)
    return 0.5 * kl_pm + 0.5 * kl_qm, q * (g - inner), q


def loss_eval(outputs: np.ndarray, targets, spec: LossSpec) -> float:
    """Mean-over-batch scalar loss of `outputs` against `targets`."""
    z = _check_outputs(outputs)
    rows = _loss_rows(z, _check_targets(z.shape, targets, spec), spec)[0]
    return float(rows.sum()) / z.shape[0]


def loss_output_grad(outputs: np.ndarray, targets, spec: LossSpec) -> np.ndarray:
    """Gradient of `loss_eval` with respect to `outputs` (includes the 1/batch factor)."""
    z = _check_outputs(outputs)
    return _loss_rows(z, _check_targets(z.shape, targets, spec), spec)[1] / z.shape[0]


def _check_inputs(inputs: np.ndarray, in_dim: int) -> np.ndarray:
    """`inputs` as a float64 (batch, in_dim) array."""
    h = _as_f64(inputs)
    if h.ndim != 2:
        raise ShapeError(f"inputs must be 2-D (batch, dim), got {h.shape}")
    if h.shape[1] != in_dim:
        raise ShapeError(f"input dim {h.shape[1]} != first layer in_dim {in_dim}")
    return h


def _activations(layers: Sequence[LayerParams], h: np.ndarray) -> list:
    """The checked inputs `h` (`_check_inputs`), then the output of every
    encoder layer in `layers` (tanh after each)."""
    acts = [h]
    for layer in layers:
        acts.append(np.tanh(acts[-1] @ layer.weight.T + layer.bias))
    return acts


def encode(encoder: Sequence[LayerParams], inputs: np.ndarray) -> np.ndarray:
    """Push a batch through the encoder chain (tanh after every layer)."""
    return _activations(encoder, _check_inputs(inputs, encoder[0].in_dim))[-1]


def forward(params: ParamSet, task: str, inputs: np.ndarray) -> np.ndarray:
    """Logits of `task`'s head over encoder features."""
    head = params.head(task)
    return encode(params.encoder, inputs) @ head.weight.T + head.bias


def forward_cached(params: ParamSet, task: str, inputs: np.ndarray):
    """Logits plus the activations `backward` needs (`_activations`).
    Selecting the same rows of each gives the cache of a sub-batch."""
    head = params.head(task)
    acts = _activations(params.encoder, _check_inputs(inputs, params.encoder[0].in_dim))
    return acts[-1] @ head.weight.T + head.bias, acts


def _backprop(g: np.ndarray, acts: list, layers: Sequence[LayerParams], out: Sequence) -> None:
    """Write the gradients of the encoder layers and the head (`layers`, in
    that order) into the layers `out`, from the gradient `g` at the logits
    and the activations `_activations` gave. `out[i]` is None when layer i's
    gradient is not wanted; the pass stops at the lowest layer that has one."""
    top = len(layers) - 1
    lowest = next(i for i, o in enumerate(out) if o is not None)
    for i in range(top, lowest - 1, -1):
        if i < top:
            post = acts[i + 1]
            g = (g @ layers[i + 1].weight) * (1.0 - post * post)  # through the layer above, then d tanh
        if out[i] is not None:
            np.matmul(g.T, acts[i], out=out[i].weight)
            g.sum(axis=0, out=out[i].bias)


def _split(flat: np.ndarray, like: Sequence[LayerParams]) -> list:
    """Unchecked layers over consecutive slices of `flat`, shaped like `like`."""
    ends = list(accumulate(l.flat.size for l in like))
    return [LayerParams.from_flat(flat[a:b], l.weight.shape)
            for a, b, l in zip([0] + ends, ends, like)]


def backward(params: ParamSet, task: str, inputs: np.ndarray, targets, spec: LossSpec,
             cache=None):
    """Loss and its exact gradient with respect to every parameter.

    Heads other than `task` receive zero gradients (they do not enter the
    forward pass). `cache`, when given, is `forward_cached(params, task,
    inputs)`, and the forward pass is not run again.
    """
    logits, acts = forward_cached(params, task, inputs) if cache is None else cache
    loss = loss_eval(logits, targets, spec)
    g = loss_output_grad(logits, targets, spec)
    layers = (*params.encoder, params.head(task))
    grads = _split(np.empty(sum(l.flat.size for l in layers)), layers)
    _backprop(g, acts, layers, grads)
    heads = {t: grads[-1] if t == task else LayerParams.from_flat(np.zeros_like(h.flat),
                                                                  h.weight.shape)
             for t, h in params.heads.items()}
    return loss, ParamSet(encoder=grads[:-1], heads=heads)


# ---------------------------------------------------------------------------
# Adam


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment estimates for one list of parameter arrays."""

    first_moment: list
    second_moment: list
    step_count: int = 0


def adam_init(arrays: Sequence[np.ndarray]) -> AdamState:
    return AdamState([np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays])


def _adam_update(x: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float):
    """Bias-corrected Adam step number `t` (from 1) of the float64 vector
    `x` by gradient `g`, in place; `m` and `v` are its moments, also
    updated in place. Each operation rounds as in the textbook expressions
    `m = b1*m + (1-b1)*g`, `x - lr*m_hat / (sqrt(v_hat) + eps)`."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    g2 = g * g
    g2 *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += g2
    step = m / (1.0 - ADAM_BETA1 ** t)
    step *= lr
    den = v / (1.0 - ADAM_BETA2 ** t)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step /= den
    x -= step


def adam_step(values: Sequence[np.ndarray], grads: Sequence[np.ndarray],
              state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new values, new state).

    `_adam_update` applied to float64 copies of the values and moments."""
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    if len(values) != len(grads) or len(values) != len(state.first_moment):
        raise ShapeError("values / grads / state length mismatch")
    t = state.step_count + 1
    new_vals, new_m, new_v = [], [], []
    for x, g, m, v in zip(values, grads, state.first_moment, state.second_moment):
        if x.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != value shape {x.shape}")
        x, m, v = (np.array(a, dtype=np.float64) for a in (x, m, v))
        _adam_update(x, g, m, v, t, lr)
        new_vals.append(x)
        new_m.append(m)
        new_v.append(v)
    return new_vals, AdamState(new_m, new_v, t)


# ---------------------------------------------------------------------------
# Flattening between ParamSet trees and array lists (for the optimizer)


def params_to_arrays(params: ParamSet) -> list:
    """One flat vector per layer: the encoder, then the heads in sorted task order."""
    return [layer.flat for layer in params.encoder] + [
        params.heads[task].flat for task in sorted(params.heads)]


def arrays_to_params(template: ParamSet, arrays: Sequence[np.ndarray]) -> ParamSet:
    """Inverse of `params_to_arrays`, with `template`'s layer shapes; validated."""
    it = iter(arrays)

    def layer(like: LayerParams) -> LayerParams:
        a = np.asarray(next(it), dtype=np.float64)
        return LayerParams(a[:like.weight.size].reshape(like.weight.shape), a[like.weight.size:])

    enc = tuple(layer(l) for l in template.encoder)
    heads = {task: layer(template.heads[task]) for task in sorted(template.heads)}
    return ParamSet(encoder=enc, heads=heads)


def init_params(encoder_dims: Sequence[int], head_dims: Mapping[str, int],
                rng: np.random.Generator) -> ParamSet:
    """Random Gaussian init scaled by 1/sqrt(in_dim); heads drawn after encoder,
    in sorted task order, so layouts with the same dims are reproducible."""
    if min(encoder_dims) <= 0:
        raise ValueError(f"layer widths must be positive, got {tuple(encoder_dims)}")

    def layer(d_in, d_out):
        return LayerParams(rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_out, d_in)), np.zeros(d_out))

    enc = tuple(layer(d_in, d_out) for d_in, d_out in zip(encoder_dims, encoder_dims[1:]))
    return ParamSet(encoder=enc, heads={task: layer(encoder_dims[-1], head_dims[task])
                                        for task in sorted(head_dims)})
