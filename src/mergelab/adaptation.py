"""Training loops: expert fine-tuning, entropy-based coefficient adaptation,
self-labeled joint adaptation of coefficients plus one task-specific layer,
and the supervised two-stage head-retraining pilot.

Unless a loss override is given, classification tasks self-label with hard
argmax targets from the frozen experts and regression tasks mimic expert
outputs under an L1 loss (confidence filtering only applies to
classification, where a top-1 probability exists).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    LayerParams,
    LossSpec,
    ParamSet,
    ShapeError,
    UnknownTaskError,
    adam_init,
    adam_step,
    backward,
    encode,
    forward,
    forward_cached,
    loss_eval,
    loss_output_grad,
    params_to_arrays,
    arrays_to_params,
    softmax,
)
from .merging import (
    CoefficientMatrix,
    MergedAssembly,
    TaskVector,
    TrainableLayer,
    coefficient_grad,
    compute_task_vector,
    merge_task_arithmetic,
)
from .suites import TaskSuite, spawn_rng


def default_init_coeff(num_tasks: int) -> float:
    """0.3 by default, 0.1 for suites with more than 8 tasks."""
    return 0.3 if num_tasks <= 8 else 0.1


@dataclass
class AdaptConfig:
    iterations: int = 500
    batch_size: int = 32
    lr_coeffs: float = 1e-3
    lr_layer: float = 1e-2
    init_coeff: float = 0.3
    trainable_layer: object = "head"  # "head" | encoder index | tuple of indices | None
    filter_enabled: bool = True
    update_mode: str = "sequential"  # "sequential" | "aggregated"
    task_order: str = "shuffled_each_pass"  # "shuffled_each_pass" | "fixed"
    seed: int = 0
    train_coeffs: bool = True  # False freezes coefficients (layer-only ablation)
    loss: LossSpec | None = None  # override the self-labeling loss

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr_coeffs <= 0.0 or self.lr_layer <= 0.0:
            raise ValueError("learning rates must be positive")
        if self.update_mode not in ("sequential", "aggregated"):
            raise ValueError(f"unknown update_mode '{self.update_mode}'")
        if self.task_order not in ("shuffled_each_pass", "fixed"):
            raise ValueError(f"unknown task_order '{self.task_order}'")
        sel = self.trainable_layer
        if sel is not None and sel != "head" and not isinstance(sel, int):
            self.trainable_layer = tuple(int(i) for i in sel)


@dataclass
class SelfLabelBatch:
    """Frozen-expert supervision for one set of inputs."""

    inputs: np.ndarray
    targets: np.ndarray  # hard labels (classification) or output vectors (regression)
    expert_confidence: np.ndarray | None  # top-1 softmax prob; None for regression


def make_self_labels(expert: ParamSet, task: str, inputs: np.ndarray,
                     kind: str = "classification") -> SelfLabelBatch:
    """Self-labels from a frozen expert: argmax + top-1 confidence, or raw outputs."""
    logits = forward(expert, task, inputs)
    if kind == "classification":
        probs = softmax(logits)
        return SelfLabelBatch(
            inputs=np.asarray(inputs, dtype=np.float64),
            targets=np.argmax(logits, axis=1).astype(np.int64),
            expert_confidence=probs.max(axis=1),
        )
    if kind == "regression":
        return SelfLabelBatch(np.asarray(inputs, dtype=np.float64), logits, None)
    raise ValueError(f"unknown task kind '{kind}'")


def confidence_filter(merged_conf: np.ndarray, expert_conf: np.ndarray) -> np.ndarray:
    """Keep a sample unless the merged model is strictly more confident than the expert."""
    merged_conf = np.asarray(merged_conf, dtype=np.float64)
    expert_conf = np.asarray(expert_conf, dtype=np.float64)
    if merged_conf.shape != expert_conf.shape:
        raise ShapeError("confidence vectors must have equal length")
    return merged_conf <= expert_conf


# ---------------------------------------------------------------------------
# Expert fine-tuning and backbone pretraining


def _from_flats(flats: Sequence[np.ndarray], like: Sequence[LayerParams]) -> tuple:
    """Layers over an optimizer step's flat vectors, shaped like `like`; unchecked."""
    return tuple(LayerParams.from_flat(f, l.weight.shape) for f, l in zip(flats, like))


def _validated(layers: Sequence[LayerParams]) -> tuple:
    """The layers again, through the checking constructor (a loop's result)."""
    return tuple(LayerParams(l.weight, l.bias) for l in layers)


def finetune_expert(pre: ParamSet, x: np.ndarray, y: np.ndarray, task: str,
                    epochs: int, lr: float, batch_size: int = 32, seed: int = 0,
                    kind: str = "classification", return_history: bool = False):
    """Fine-tune the encoder on one task's labeled data; the task head stays
    frozen at the pre-trained head, so the task vector is encoder-only.

    Returns a ParamSet holding only this task's head. With epochs=0 the
    pre-trained parameters come back unchanged.
    """
    if len(x) == 0:
        raise ValueError("empty training set")
    spec = LossSpec("cross_entropy_hard" if kind == "classification" else "l2")
    params = ParamSet(encoder=pre.encoder, heads={task: pre.head(task)})
    if epochs == 0:
        return (params, []) if return_history else params

    rng = spawn_rng(seed, "finetune", task)
    state = adam_init([l.flat for l in params.encoder])
    history = []
    n = len(x)
    bs = min(batch_size, n)
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n - bs + 1, bs):
            idx = order[start:start + bs]
            loss, grads = backward(params, task, x[idx], _slice_targets(y, idx, spec), spec)
            flats, state = adam_step([l.flat for l in params.encoder],
                                     [g.flat for g in grads.encoder], state, lr)
            params = ParamSet(encoder=_from_flats(flats, params.encoder), heads=params.heads)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    params = ParamSet(encoder=_validated(params.encoder), heads=params.heads)
    return (params, history) if return_history else params


def pretrain_backbone(init: ParamSet, suite: TaskSuite, epochs: int, lr: float,
                      batch_size: int = 32, seed: int = 0) -> ParamSet:
    """Brief pooled training over all tasks' train splits (round-robin batches).

    Stand-in for generic pretraining: yields a shared encoder plus per-task
    heads that are deliberately mediocre compared to fine-tuned experts.
    """
    params = init
    state = adam_init(params_to_arrays(params))
    streams = {}
    for t in suite.tasks:
        streams[t.task_id] = _BatchStream(len(t.x_train), batch_size,
                                          spawn_rng(seed, "pretrain", t.task_id))
    steps_per_epoch = max(len(t.x_train) // min(batch_size, len(t.x_train)) for t in suite.tasks)
    for _ in range(epochs):
        for _ in range(steps_per_epoch):
            for t in suite.tasks:
                spec = LossSpec("cross_entropy_hard" if t.kind == "classification" else "l2")
                idx = streams[t.task_id].next_indices()
                _, grads = backward(params, t.task_id, t.x_train[idx],
                                    _slice_targets(t.y_train, idx, spec), spec)
                arrays, state = adam_step(params_to_arrays(params),
                                          params_to_arrays(grads), state, lr)
                params = arrays_to_params(params, arrays)
    return params


# ---------------------------------------------------------------------------
# Test-time adaptation


@dataclass
class StepStats:
    pass_index: int
    task: str
    batch_size: int
    kept: int
    loss: float | None  # mean over kept samples (the optimized quantity)
    batch_loss: float  # mean over the whole batch, before filtering


@dataclass
class AdaptResult:
    coeffs: CoefficientMatrix
    trainable: dict  # task -> TrainableLayer (empty when none selected)
    loss_trace: list  # whole-batch self-labeling loss, averaged per pass
    step_stats: list = field(default_factory=list)


class _BatchStream:
    """Deterministic batch indices cycling over n samples, reshuffled per epoch."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.bs = min(batch_size, n)
        self.rng = rng
        self._order = None
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._order is None or self._pos + self.bs > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._order[self._pos:self._pos + self.bs]
        self._pos += self.bs
        return idx


def _slice_targets(targets, idx, spec: LossSpec):
    if spec.target_arity == "none":
        return None
    return targets[idx]


def _trainable_init(selector, expert: ParamSet, task: str):
    if selector is None:
        return None
    if selector == "head":
        return TrainableLayer("head", expert.head(task))
    if isinstance(selector, int):
        _check_layer_index(selector, len(expert.encoder))
        return TrainableLayer(selector, expert.encoder[selector])
    for i in selector:
        _check_layer_index(i, len(expert.encoder))
    return TrainableLayer(tuple(selector), tuple(expert.encoder[i] for i in selector))


def _check_layer_index(i: int, depth: int):
    if not 0 <= i < depth:
        raise ValueError(f"trainable encoder index {i} out of range for depth {depth}")


def build_assembly(pre: ParamSet, vectors: Mapping[str, TaskVector],
                   experts: Mapping[str, ParamSet], coeffs: CoefficientMatrix,
                   trainable: Mapping[str, TrainableLayer] | None = None) -> MergedAssembly:
    """Assemble the merged multi-task model with frozen expert heads."""
    heads = {task: experts[task].head(task) for task in coeffs.task_ids}
    return MergedAssembly(
        pre_encoder=tuple(pre.encoder),
        vectors=tuple(vectors[task] for task in coeffs.task_ids),
        coeffs=coeffs,
        heads=heads,
        trainable=dict(trainable or {}),
    )


def task_vectors_from_experts(pre: ParamSet, experts: Mapping[str, ParamSet]) -> dict:
    return {task: compute_task_vector(expert, pre) for task, expert in experts.items()}


def interpolated_teachers(pre: ParamSet, experts: Mapping[str, ParamSet],
                          coeff: float) -> dict:
    """Supervisory models built from a single scaled task vector per task:
    encoder = pre + coeff * tau_k, head = the expert's head. coeff 0 gives the
    pre-trained model as teacher, coeff 1 the expert itself; sweeping coeff
    studies how teacher composition shapes the adapted merge."""
    out = {}
    for task, expert in experts.items():
        vec = compute_task_vector(expert, pre)
        enc = merge_task_arithmetic(pre, [vec], coeff)
        out[task] = ParamSet(encoder=enc, heads={task: expert.head(task)})
    return out


def symerge(pre: ParamSet, vectors: Mapping[str, TaskVector],
            experts: Mapping[str, ParamSet], inputs_by_task: Mapping[str, np.ndarray],
            cfg: AdaptConfig, task_kinds: Mapping[str, str] | None = None) -> AdaptResult:
    """Jointly adapt merging coefficients and one task-specific layer per task.

    Each pass visits every task: draw a batch of unlabeled test inputs,
    materialize the merged model (with the task's trainable layer swapped
    in), supervise it with the frozen expert's self-labels after confidence
    filtering, and update the coefficients and the trainable layer with
    separate Adam optimizers.
    """
    task_ids = tuple(sorted(experts))
    _validate_adapt_inputs(task_ids, vectors, inputs_by_task)
    kinds = {t: (task_kinds or {}).get(t, "classification") for t in task_ids}

    labels = {t: make_self_labels(experts[t], t, inputs_by_task[t], kinds[t]) for t in task_ids}
    specs = {}
    for t in task_ids:
        if cfg.loss is not None:
            specs[t] = cfg.loss
        else:
            specs[t] = LossSpec("cross_entropy_hard" if kinds[t] == "classification" else "l1")

    # full target material per task, shaped for the chosen loss
    targets_full = {t: _targets_for_spec(labels[t], experts[t], t, specs[t]) for t in task_ids}

    trainable = {}
    if cfg.trainable_layer is not None:
        for t in task_ids:
            trainable[t] = _trainable_init(cfg.trainable_layer, experts[t], t)

    return _run_adaptation(
        pre=pre,
        vectors=vectors,
        heads={t: experts[t].head(t) for t in task_ids},
        inputs_by_task=inputs_by_task,
        cfg=cfg,
        task_ids=task_ids,
        specs=specs,
        targets_full=targets_full,
        expert_conf={t: labels[t].expert_confidence for t in task_ids},
        kinds=kinds,
        trainable=trainable,
    )


def adamerging_entropy(pre: ParamSet, vectors: Mapping[str, TaskVector],
                       heads: Mapping[str, LayerParams],
                       inputs_by_task: Mapping[str, np.ndarray], cfg: AdaptConfig,
                       task_kinds: Mapping[str, str] | None = None) -> CoefficientMatrix:
    """Coefficients-only adaptation by minimizing mean prediction entropy."""
    if cfg.trainable_layer is not None:
        raise ValueError("entropy adaptation trains coefficients only; set trainable_layer=None")
    task_ids = tuple(sorted(heads))
    _validate_adapt_inputs(task_ids, vectors, inputs_by_task)
    for t in task_ids:
        if (task_kinds or {}).get(t, "classification") != "classification":
            raise ValueError(f"entropy objective undefined for regression task '{t}'")
    spec = LossSpec("entropy")
    result = _run_adaptation(
        pre=pre,
        vectors=vectors,
        heads=dict(heads),
        inputs_by_task=inputs_by_task,
        cfg=cfg,
        task_ids=task_ids,
        specs={t: spec for t in task_ids},
        targets_full={t: None for t in task_ids},
        expert_conf={t: None for t in task_ids},
        kinds={t: "classification" for t in task_ids},
        trainable={},
    )
    return result.coeffs


def _targets_for_spec(batch: SelfLabelBatch, expert: ParamSet, task: str, spec: LossSpec):
    arity = spec.target_arity
    if arity == "none":
        return None
    if arity == "labels":
        if batch.expert_confidence is None:
            raise ValueError(f"hard-label loss needs classification self-labels for '{task}'")
        return batch.targets
    logits = forward(expert, task, batch.inputs)
    if arity == "distribution":
        return softmax(logits)
    return logits  # vector losses mimic expert logits directly


def _validate_adapt_inputs(task_ids, vectors, inputs_by_task):
    for t in task_ids:
        if t not in vectors:
            raise UnknownTaskError(f"missing task vector for '{t}'")
        if t not in inputs_by_task:
            raise UnknownTaskError(f"missing test inputs for '{t}'")
        if len(inputs_by_task[t]) == 0:
            raise ValueError(f"empty input split for task '{t}'")


def _run_adaptation(pre, vectors, heads, inputs_by_task, cfg, task_ids, specs,
                    targets_full, expert_conf, kinds, trainable) -> AdaptResult:
    # One working assembly for the whole run: the task vectors are stacked
    # (and their shapes checked) once, Adam steps the coefficient values in
    # place, and a step swaps in the task's new trainable layer. Nothing is
    # re-validated per step; the result is, on the way out.
    coeffs = CoefficientMatrix.constant(task_ids, len(pre.encoder), cfg.init_coeff)
    values = coeffs.values
    assembly = MergedAssembly(
        pre_encoder=tuple(pre.encoder),
        vectors=[vectors[t] for t in task_ids],
        coeffs=coeffs,
        heads=heads,
        trainable=trainable,
    )
    stack = assembly.vectors

    coeff_state = adam_init([values])
    layer_states = {t: adam_init([l.flat for l in tr.layers()]) for t, tr in trainable.items()}

    def step_coeffs(grad):
        nonlocal coeff_state
        (new_vals,), coeff_state = adam_step([values], [grad], coeff_state, cfg.lr_coeffs)
        values[...] = new_vals

    def step_layer(task, layer_grads):
        tr = trainable[task]
        layers = tr.layers()
        flats, layer_states[task] = adam_step([l.flat for l in layers], layer_grads,
                                              layer_states[task], cfg.lr_layer)
        trainable[task] = tr.with_layers(_from_flats(flats, layers))

    order_rng = spawn_rng(cfg.seed, "task-order")
    streams = {
        t: _BatchStream(len(inputs_by_task[t]), cfg.batch_size, spawn_rng(cfg.seed, "batches", t))
        for t in task_ids
    }

    trace = []
    stats = []
    for pass_idx in range(cfg.iterations):
        if cfg.task_order == "shuffled_each_pass":
            order = [task_ids[i] for i in order_rng.permutation(len(task_ids))]
        else:
            order = list(task_ids)

        agg_coeff_grad = np.zeros_like(values)
        agg_layer_grads = {}
        pass_losses = []
        any_update = False

        for task in order:
            idx = streams[task].next_indices()
            x = inputs_by_task[task][idx]
            targets = _slice_targets(targets_full[task], idx, specs[task])
            model = assembly.materialize(task)

            kept = len(idx)
            cache = None
            batch_loss = None
            if cfg.filter_enabled and kinds[task] == "classification" and expert_conf[task] is not None:
                logits, acts = forward_cached(model, task, x)
                batch_loss = loss_eval(logits, targets, specs[task])
                keep = np.flatnonzero(confidence_filter(softmax(logits).max(axis=1),
                                                        expert_conf[task][idx]))
                kept = keep.size
                if kept == 0:
                    pass_losses.append(batch_loss)
                    stats.append(StepStats(pass_idx, task, len(idx), 0, None, batch_loss))
                    continue
                if kept < len(idx):
                    # the backward pass on the kept rows reuses this forward pass
                    logits, acts = logits.take(keep, axis=0), [a.take(keep, axis=0) for a in acts]
                    x = acts[0]
                    targets = targets if targets is None else targets.take(keep, axis=0)
                cache = (logits, acts)

            loss, grads = backward(model, task, x, targets, specs[task], cache=cache)
            if batch_loss is None:
                batch_loss = loss  # nothing was filtered out
            pass_losses.append(batch_loss)
            any_update = True
            stats.append(StepStats(pass_idx, task, len(idx), kept, float(loss),
                                   float(batch_loss)))

            cgrad = coefficient_grad(grads.encoder, stack)
            tr = trainable.get(task)
            if tr is not None:
                for l in tr.layer_indices():
                    cgrad[:, l] = 0.0  # replaced layer: loss does not see the merged layer
                layer_grads = ([grads.heads[task].flat] if tr.selector == "head"
                               else [grads.encoder[l].flat for l in tr.layer_indices()])

            if cfg.update_mode == "sequential":
                if cfg.train_coeffs:
                    step_coeffs(cgrad)
                if tr is not None:
                    step_layer(task, layer_grads)
            else:
                agg_coeff_grad += cgrad
                if tr is not None:
                    agg_layer_grads[task] = layer_grads

        if cfg.update_mode == "aggregated" and any_update:
            if cfg.train_coeffs:
                step_coeffs(agg_coeff_grad)
            for task, layer_grads in agg_layer_grads.items():
                step_layer(task, layer_grads)

        if not any_update:
            warnings.warn(f"pass {pass_idx}: every batch fully filtered, no update applied")
        if pass_losses:
            trace.append(float(np.mean(pass_losses)))

    return AdaptResult(
        coeffs=CoefficientMatrix(task_ids, values),
        trainable={t: tr.with_layers(_validated(tr.layers())) for t, tr in trainable.items()},
        loss_trace=trace,
        step_stats=stats,
    )


# ---------------------------------------------------------------------------
# Supervised pilot: retrain heads on merged features, evaluate cross-task


def _train_head(head: LayerParams, feats: np.ndarray, y: np.ndarray, epochs: int,
                lr: float, batch_size: int, rng: np.random.Generator) -> LayerParams:
    spec = LossSpec("cross_entropy_hard")
    state = adam_init([head.weight, head.bias])
    w, b = head.weight, head.bias
    n = len(feats)
    bs = min(batch_size, n)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n - bs + 1, bs):
            idx = order[start:start + bs]
            logits = feats[idx] @ w.T + b
            g = loss_output_grad(logits, y[idx], spec)
            (w, b), state = adam_step([w, b], [g.T @ feats[idx], g.sum(axis=0)], state, lr)
    return LayerParams(w, b)


def pilot_two_stage(merged_encoder, suite: TaskSuite, experts: Mapping[str, ParamSet],
                    epochs: int = 1, lr: float = 1e-2, batch_size: int = 32,
                    seed: int = 0) -> np.ndarray:
    """Gain matrix of the two-stage protocol.

    Stage 1 retrains every task's head (from the expert's head) on frozen
    merged-encoder features with ground-truth labels. Stage 2 pairs each
    retrained head j with every expert encoder i and scores task j's test
    set. Entry (i, j) is the accuracy gain over the original expert head.
    """
    task_ids = tuple(sorted(experts))
    for t in suite.tasks:
        if t.kind != "classification":
            raise ValueError("pilot protocol requires classification tasks")

    retrained = {}
    for task in task_ids:
        data = suite.task(task)
        feats = encode(merged_encoder, data.x_train)
        rng = spawn_rng(seed, "pilot", task)
        retrained[task] = _train_head(experts[task].head(task), feats, data.y_train,
                                      epochs, lr, batch_size, rng)

    k = len(task_ids)
    gains = np.zeros((k, k))
    for i, enc_task in enumerate(task_ids):
        enc = experts[enc_task].encoder
        for j, head_task in enumerate(task_ids):
            data = suite.task(head_task)
            feats = encode(enc, data.x_test)
            base = _head_accuracy(experts[head_task].head(head_task), feats, data.y_test)
            new = _head_accuracy(retrained[head_task], feats, data.y_test)
            gains[i, j] = new - base
    return gains


def _head_accuracy(head: LayerParams, feats: np.ndarray, y: np.ndarray) -> float:
    logits = feats @ head.weight.T + head.bias
    return float((np.argmax(logits, axis=1) == y).mean())
