"""Task-vector extraction and merge operators over encoder parameters.

Merging only ever touches encoder layers; per-task heads are carried along
unchanged. A coefficient matrix holds one scalar per (task, encoder layer),
and that scalar weights the whole layer delta, bias included.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .engine import LayerParams, ParamSet, ShapeError, UnknownTaskError


def default_init_coeff(num_tasks: int) -> float:
    """Task arithmetic's lambda and adaptation's starting coefficient: 0.3,
    or 0.1 for suites with more than 8 tasks."""
    return 0.3 if num_tasks <= 8 else 0.1


# the largest |lambda| or starting coefficient: adaptation's divergence bound,
# `DIVERGED` times the starting scale, would grow with a larger start and check nothing
MAX_INIT_COEFF = 1e3


@dataclass(frozen=True)
class TaskVector:
    """Per-layer deltas between a fine-tuned expert encoder and the pre-trained one."""

    deltas: tuple

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(self.deltas))


@dataclass(frozen=True)
class CoefficientMatrix:
    """Merge weights, one real per (task, encoder layer); unconstrained sign/magnitude."""

    task_ids: tuple
    values: np.ndarray  # (K, L-1)

    def __post_init__(self):
        object.__setattr__(self, "task_ids", tuple(str(t) for t in self.task_ids))
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2 or vals.shape[0] != len(self.task_ids):
            raise ShapeError(
                f"coefficient matrix must be (K={len(self.task_ids)}, L-1), got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, task_ids: Sequence[str], num_layers: int, value: float) -> "CoefficientMatrix":
        return cls(tuple(task_ids), np.full((len(task_ids), num_layers), float(value)))

    @property
    def num_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def num_layers(self) -> int:
        return self.values.shape[1]

    def row(self, task: str) -> np.ndarray:
        try:
            i = self.task_ids.index(task)
        except ValueError:
            raise UnknownTaskError(f"no coefficient row for task '{task}'") from None
        return self.values[i]


def _check_layers(a: Sequence[LayerParams], b: Sequence[LayerParams], what: str):
    """ShapeError unless the layer sequences have the same depth and shapes."""
    if len(a) != len(b):
        raise ShapeError(f"{what}: depth {len(a)} != {len(b)}")
    for la, lb in zip(a, b):
        if la.weight.shape != lb.weight.shape:
            raise ShapeError(
                f"{what}: layer shapes differ ({la.weight.shape} vs {lb.weight.shape})")


def _encoder_of(p) -> tuple:
    return tuple(p.encoder) if isinstance(p, ParamSet) else tuple(p)


@dataclass(frozen=True, eq=False)
class TaskVectorStack:
    """K task vectors stored per layer.

    `matrices[l]` is (K, P_l): row k is task k's layer-l delta as one flat
    vector (see `LayerParams.flat`); `shapes[l]` is that layer's weight
    shape. The merge and the coefficient gradient are then one product per
    layer. `stack_task_vectors` builds it and checks every shape once.
    """

    shapes: tuple
    matrices: tuple

    def __len__(self) -> int:
        return len(self.matrices[0])


def stack_task_vectors(vectors: Sequence[TaskVector], like) -> TaskVectorStack:
    """`vectors` stacked against the layer shapes of `like` (an encoder, a
    ParamSet or gradient layers); a stack with those shapes is returned as
    is. Raises ShapeError on any depth or shape mismatch."""
    layers = _encoder_of(like)
    shapes = tuple(l.weight.shape for l in layers)
    if isinstance(vectors, TaskVectorStack):
        if vectors.shapes != shapes:
            raise ShapeError(f"task vector shapes {vectors.shapes} != layer shapes {shapes}")
        return vectors
    for vec in vectors:
        _check_layers(vec.deltas, layers, "task vector")
    return TaskVectorStack(shapes, tuple(
        np.array([vec.deltas[l].flat for vec in vectors]).reshape(len(vectors), base.flat.size)
        for l, base in enumerate(layers)))


def compute_task_vector(expert: ParamSet, pre: ParamSet) -> TaskVector:
    """delta[l] = expert.encoder[l] - pre.encoder[l]."""
    e, p = _encoder_of(expert), _encoder_of(pre)
    _check_layers(e, p, "compute_task_vector")
    return TaskVector(tuple(LayerParams(le.weight - lp.weight, le.bias - lp.bias)
                            for le, lp in zip(e, p)))


def merge_uniform(experts: Sequence[ParamSet]) -> tuple:
    """Elementwise mean of the experts' encoders."""
    if not experts:
        raise ValueError("merge_uniform needs at least one expert")
    encoders = [_encoder_of(e) for e in experts]
    for enc in encoders[1:]:
        _check_layers(enc, encoders[0], "merge_uniform")
    return tuple(LayerParams.from_flat(np.mean([enc[l].flat for enc in encoders], axis=0),
                                       base.weight.shape) for l, base in enumerate(encoders[0]))


def merge_task_arithmetic(pre, vectors: Sequence[TaskVector], lam: float) -> tuple:
    """theta[l] = pre[l] + lam * sum_k delta_k[l]: the layer-wise merge with
    every coefficient equal to lam."""
    coeffs = CoefficientMatrix.constant([str(k) for k in range(len(vectors))],
                                        len(_encoder_of(pre)), lam)
    return merge_layerwise(pre, vectors, coeffs)


def merge_layerwise(pre, vectors: Sequence[TaskVector], coeffs: CoefficientMatrix) -> tuple:
    """theta[l] = pre[l] + sum_k coeff[k, l] * delta_k[l], each layer by `_merge_layer`."""
    pre_enc = _encoder_of(pre)
    stack = stack_task_vectors(vectors, pre_enc)
    if coeffs.num_tasks != len(stack):
        raise ShapeError(f"coeff rows {coeffs.num_tasks} != task vectors {len(stack)}")
    if coeffs.num_layers != len(pre_enc):
        raise ShapeError(f"coeff columns {coeffs.num_layers} != encoder depth {len(pre_enc)}")
    return tuple(LayerParams.from_flat(_merge_layer(pre_enc, coeffs.values, stack, l), shape)
                 for l, shape in enumerate(stack.shapes))


def _merge_layer(pre_enc, values: np.ndarray, stack: TaskVectorStack, l: int, out=None):
    """Layer `l` of the merge, flat: pre[l] + values[:, l] @ D_l (into `out` if given)."""
    return np.add(pre_enc[l].flat, values[:, l] @ stack.matrices[l], out=out)


def coefficient_grad(encoder_grads: Sequence[LayerParams],
                     vectors: Sequence[TaskVector]) -> np.ndarray:
    """Chain rule through merge_layerwise: grad[k, l] = <dL/dtheta[l], delta_k[l]>.

    The inner product runs over the whole layer, weights and bias together,
    because one coefficient scales both: column l is D_l @ flat(dL/dtheta[l]).
    With a TaskVectorStack, `encoder_grads` may also be flat vectors
    (`LayerParams.flat`), and None for a layer whose column is left 0.
    """
    if isinstance(vectors, TaskVectorStack) and not isinstance(encoder_grads[0], LayerParams):
        stack, flats = vectors, encoder_grads
        if len(flats) != len(stack.matrices) or any(
                f is not None and f.size != d.shape[1] for f, d in zip(flats, stack.matrices)):
            raise ShapeError("flat gradient sizes do not match the task vector layers")
    else:
        stack = stack_task_vectors(vectors, encoder_grads)
        flats = [g.flat for g in encoder_grads]
    out = np.zeros((len(stack), len(flats)))
    for l, (g, d) in enumerate(zip(flats, stack.matrices)):
        if g is not None:
            out[:, l] = d @ g
    return out


def read_selector(value):
    """The `trainable_layer` setting as the `--trainable-layer` flag, a config
    file or a bundle gives it: "head"; "none" or None (no layer); an encoder
    index or a list of them; or the text "<i>" or "<lo>:<hi>" (layers lo to
    hi - 1). Returns "head", None, an int or a tuple; ValueError otherwise."""
    if value in (None, "none", "head"):
        return None if value == "none" else value
    if isinstance(value, str):
        lo, colon, hi = value.partition(":")
        if not all(s.isascii() and s.isdigit() for s in ((lo, hi) if colon else (lo,))):
            raise ValueError(f"trainable_layer: {value!r} is not head, none, <index> or <lo>:<hi>")
        value = tuple(range(int(lo), int(hi))) if colon else int(lo)
    indices = value if isinstance(value, (list, tuple)) else (value,)
    if not all(type(i) is int and i >= 0 for i in indices):
        raise ValueError(f"trainable_layer: {value!r} is not head, none, a layer index "
                         "or a list of them")
    if not indices:
        raise ValueError("trainable_layer: an empty selector names no layer")
    return value if type(value) is int else tuple(value)


def layer_positions(selector, depth: int) -> tuple:
    """The positions that `selector` replaces in a task's layers (*encoder,
    head), where the head is position `depth`. ShapeError for an encoder
    index out of range or repeated."""
    if selector == "head":
        return (depth,)
    positions = (selector,) if type(selector) is int else tuple(selector)
    for i in positions:
        if not 0 <= i < depth:
            raise ShapeError(f"trainable layer {i} is out of range for encoder depth {depth}")
    if len(set(positions)) != len(positions):
        raise ShapeError(f"trainable layers {positions} repeat a layer")
    return positions


@dataclass
class TrainableLayer:
    """A per-task replacement layer: the head, one encoder layer, or several.

    selector is "head", an encoder layer index, or a tuple of indices; params
    matches (a single LayerParams, or a tuple of them for the multi case).
    """

    selector: object
    params: object

    @classmethod
    def build(cls, selector, layer: Callable[[int], LayerParams]) -> "TrainableLayer":
        """`selector` over `layer(0)`, `layer(1)`, ...: a tuple for a list of indices, else one."""
        if isinstance(selector, (list, tuple)):
            return cls(selector, tuple(map(layer, range(len(selector)))))
        return cls(selector, layer(0))

    def layer_indices(self) -> tuple:
        if self.selector == "head":
            return ()
        return (self.selector,) if isinstance(self.selector, int) else tuple(self.selector)

    def layers(self) -> tuple:
        """The trained layers, one per selected position."""
        return self.params if isinstance(self.params, tuple) else (self.params,)

    def with_layers(self, layers) -> "TrainableLayer":
        """The same selector over new `layers`, given as `layers()` gives them."""
        return TrainableLayer.build(self.selector, tuple(layers).__getitem__)


@dataclass
class MergedAssembly:
    """Pre-trained encoder + task vectors + coefficients + per-task layers.

    Materializes the multi-task parameters on demand: the shared encoder is
    the layer-wise merge, made once on construction, except that a task's
    trainable encoder layer (when selected) replaces the merged layer for
    that task's own forward pass. The head is the task's trainable head if
    selected, otherwise the frozen expert head.
    """

    pre_encoder: tuple
    vectors: TaskVectorStack  # any sequence of TaskVector; stacked on construction
    coeffs: CoefficientMatrix
    heads: dict  # task -> frozen expert LayerParams
    trainable: dict  # task -> TrainableLayer

    def __post_init__(self):
        self.vectors = stack_task_vectors(self.vectors, self.pre_encoder)
        for task, tr in self.trainable.items():
            try:
                positions = layer_positions(tr.selector, len(self.pre_encoder))
            except ShapeError as exc:
                raise ShapeError(f"task '{task}': {exc}") from None
            replaced = (*self.pre_encoder, self.heads.get(task))
            if replaced[-1] is None:
                raise ShapeError(f"trainable layers for task '{task}', which has no head")
            want = [replaced[p].weight.shape for p in positions]
            got = [layer.weight.shape for layer in tr.layers()]
            if got != want:
                raise ShapeError(f"trainable layers of task '{task}' have shapes {got}, "
                                 f"not those of the layers they replace {want}")

        self._merged = merge_layerwise(self.pre_encoder, self.vectors, self.coeffs)

    def merged_encoder(self) -> tuple:
        return self._merged

    def materialize(self, task: str) -> ParamSet:
        layers = [*self._merged, self.heads.get(task)]
        tr = self.trainable.get(task)
        if tr is not None:
            for p, layer in zip(layer_positions(tr.selector, len(self.pre_encoder)), tr.layers()):
                layers[p] = layer
        if layers[-1] is None:
            raise UnknownTaskError(f"no head for task '{task}'")
        return ParamSet(encoder=tuple(layers[:-1]), heads={task: layers[-1]})
