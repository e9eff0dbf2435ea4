"""Training loops: expert fine-tuning, entropy-based coefficient adaptation,
self-labeled joint adaptation of coefficients plus one task-specific layer,
and the supervised two-stage head-retraining pilot.

All but backbone pretraining train some layers of one whole model through
one step plan (`_StepPlan`). Fine-tuning (the encoder) and the pilot (the
head over a merged encoder) run it in one drop-last epoch loop (`_fit`);
adaptation runs one plan per task over the merged layers, on a schedule
drawn before the first step, with all tasks' trained layers in one vector
that one Adam steps once a pass (`_run_adaptation` says why). Every loop
ends a divergence in one error (`_check_finite`).

Every self-labeled objective is built from `make_self_labels` and trained on
its task kind's self-label loss (`suites.KIND_RULES`) unless a loss is given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    LayerParams,
    LossSpec,
    ParamSet,
    ShapeError,
    UnknownTaskError,
    _activations,
    _adam_update,
    _apply,
    _backprop,
    _check_inputs,
    _check_targets,
    _loss_rows,
    _split,
    adam_init,
    adam_step,
    backward,
    encode,
    forward,
    forward_cached,
    init_params,
    params_to_arrays,
    arrays_to_params,
    softmax,
)
from .merging import (
    MAX_INIT_COEFF,
    CoefficientMatrix,
    MergedAssembly,
    TaskVector,
    TrainableLayer,
    _merge_layer,
    coefficient_grad,
    compute_task_vector,
    default_init_coeff,  # noqa: F401  (read as `adaptation.default_init_coeff`)
    layer_positions,
    merge_layerwise,
    read_selector,
    stack_task_vectors,
)
from .suites import TaskSuite, check_field_types, kind_rules, spawn_rng


@dataclass
class AdaptConfig:
    iterations: int = 500
    batch_size: int = 32
    lr_coeffs: float = 1e-3
    lr_layer: float = 1e-2
    init_coeff: float = 0.3
    trainable_layer: object = "head"  # any selector `merging.read_selector` reads
    filter_enabled: bool = True
    update_mode: str = "sequential"  # "sequential" | "aggregated"
    task_order: str = "shuffled_each_pass"  # "shuffled_each_pass" | "fixed"
    seed: int = 0
    train_coeffs: bool = True  # False freezes coefficients (layer-only ablation)
    loss: LossSpec | None = None  # override the self-labeling loss; a kind name is read

    def __post_init__(self):
        check_field_types(self)
        if self.iterations < 0:
            raise ValueError(f"iterations: must be nonnegative, got {self.iterations}")
        for name in ("batch_size", "lr_coeffs", "lr_layer"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if not abs(self.init_coeff) <= MAX_INIT_COEFF:
            raise ValueError(f"init_coeff: must be in [-{MAX_INIT_COEFF:g}, {MAX_INIT_COEFF:g}], "
                             f"got {self.init_coeff}")
        if self.update_mode not in ("sequential", "aggregated"):
            raise ValueError(f"update_mode: unknown mode '{self.update_mode}'")
        if self.task_order not in ("shuffled_each_pass", "fixed"):
            raise ValueError(f"task_order: unknown order '{self.task_order}'")
        self.trainable_layer = read_selector(self.trainable_layer)
        if isinstance(self.loss, str):
            try:
                self.loss = LossSpec(self.loss)
            except ValueError as exc:
                raise ValueError(f"loss: {exc}") from None
        elif not (self.loss is None or isinstance(self.loss, LossSpec)):
            raise TypeError(f"loss: expected a loss kind name, got {self.loss!r}")
        if self.trainable_layer is None and not self.train_coeffs:
            raise ValueError("train_coeffs: with no trainable layer and frozen coefficients "
                             "the run trains nothing")


@dataclass
class SelfLabelBatch:
    """Frozen-expert supervision for one set of inputs."""

    targets: np.ndarray  # hard labels (classification) or output vectors (regression)
    expert_confidence: np.ndarray | None  # top-1 softmax prob; None for regression
    logits: np.ndarray  # the expert's outputs, which distribution and vector losses read


def make_self_labels(expert: ParamSet, task: str, inputs: np.ndarray,
                     kind: str = "classification") -> SelfLabelBatch:
    """Self-labels from one forward pass of a frozen expert (finite, or ValueError)."""
    logits = forward(expert, task, inputs)
    if not np.isfinite(logits).all():
        raise ValueError(f"expert outputs for task '{task}' are not finite")
    if kind == "classification":
        return SelfLabelBatch(np.argmax(logits, axis=1).astype(np.int64),
                              softmax(logits).max(axis=1), logits)
    kind_rules(kind)  # a ValueError for an unknown kind
    return SelfLabelBatch(logits, None, logits)


def confidence_filter(merged_conf: np.ndarray, expert_conf: np.ndarray) -> np.ndarray:
    """Keep a sample unless the merged model is strictly more confident than the expert."""
    merged_conf = np.asarray(merged_conf, dtype=np.float64)
    expert_conf = np.asarray(expert_conf, dtype=np.float64)
    if merged_conf.shape != expert_conf.shape:
        raise ShapeError("confidence vectors must have equal length")
    return merged_conf <= expert_conf


# ---------------------------------------------------------------------------
# The step plan and the fit loop; expert fine-tuning and backbone pretraining


def _adam(x: np.ndarray, lr: float):
    """Adam over the float64 vector `x`, stepped in place by the returned
    function of the gradient; the moments and the step count live here."""
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    m, v = np.zeros_like(x), np.zeros_like(x)
    t = 0

    def step(g: np.ndarray):
        nonlocal t
        t += 1
        _adam_update(x, g, m, v, t, lr)

    return step


def _check_finite(a: np.ndarray, stage: str, what: str, where: str):
    """Raise that `stage` diverged `where` (pass or epoch, task, rate) unless `a` is all finite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{stage} diverged: non-finite {what} on {where}")


class _StepPlan:
    """What the steps of one training loop read, fixed for the loop.

    `layers` are a whole model, its encoder layers and then its head. The
    positions in `trained` (position -> initial layer) hold views of `flat`,
    a copy of those layers that the loop's Adam steps in place, and their
    gradients are views of `train_grad`; `into` gives these two vectors
    (slices of a pair that adaptation's tasks share), fresh ones otherwise.
    The other layers stay the caller's. `grads[i]` is a view of layer i's
    gradient, or None when nothing reads it: the trained layers and those in
    `read` have one, and `lowest` is the lowest of them. A loop applies the
    layers below `lowest` once and feeds the plan their outputs.
    """

    def __init__(self, layers: Sequence[LayerParams], trained: dict, read=(), into=None):
        self.layers = list(layers)
        self.positions = tuple(trained)
        like = list(trained.values())
        self.flat, self.train_grad = into or np.empty((2, sum(l.flat.size for l in like)))
        if like:
            self.flat[...] = np.concatenate([l.flat for l in like])
        self.grads = [None] * len(self.layers)
        for i, layer, grad in zip(self.positions, _split(self.flat, like),
                                  _split(self.train_grad, like)):
            self.layers[i], self.grads[i] = layer, grad
        read_like = [self.layers[i] for i in read]
        for i, grad in zip(read, _split(np.empty(sum(l.flat.size for l in read_like)), read_like)):
            self.grads[i] = grad
        self.lowest = min((*self.positions, *read), default=len(self.layers))

    def forward(self, h: np.ndarray):
        """The activations from checked inputs `h` of layer `lowest` (None below) and the logits."""
        acts = [None] * self.lowest + _activations(self.layers[self.lowest:-1], h)
        return acts, _apply(self.layers[-1], acts[-1])

    def backprop(self, g: np.ndarray, acts: list):
        """Write into `grads` the gradients for the gradient `g` at the logits."""
        _backprop(g, acts, self.layers, self.grads)

    def trained(self) -> tuple:
        """Checked copies of the trained layers (the loop's result)."""
        return tuple(LayerParams(self.layers[i].weight, self.layers[i].bias)
                     for i in self.positions)


class _BatchStream:
    """Deterministic batch indices cycling over n samples, reshuffled per epoch
    (when fewer than a batch are left: a short last batch is dropped)."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
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


# each training loop ends an overflow in its own error for non-finite values, not a warning
@np.errstate(over="ignore", invalid="ignore")
def _fit(plan: _StepPlan, x: np.ndarray, y: np.ndarray, spec: LossSpec, epochs: int,
         batch_size: int, rng: np.random.Generator, lr: float, stage: str, task: str) -> list:
    """Train `plan` on (x, y), `x` put through the layers below its lowest
    once, for `epochs` passes over the data, reshuffled by `rng` each pass,
    one Adam step at rate `lr` per full batch (a short last batch is
    dropped). Returns each epoch's mean batch loss."""
    step = _adam(plan.flat, lr)
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    n = len(x)
    x = _activations(plan.layers[:plan.lowest], _check_inputs(x, plan.layers[0].in_dim))[-1]
    y = _check_targets((n, plan.layers[-1].out_dim), y, spec)
    batches = _BatchStream(n, batch_size, rng)
    bs = batches.bs
    history = []
    for epoch in range(epochs):
        where = f"epoch {epoch} for task '{task}' at learning rate {lr:g}"
        epoch_losses = []
        for _ in range(n // bs):
            idx = batches.next_indices()
            acts, logits = plan.forward(x[idx])
            _check_finite(logits, stage, "outputs", where)
            rows, g, _ = _loss_rows(logits, y[idx], spec)
            g /= bs
            plan.backprop(g, acts)
            step(plan.train_grad)
            epoch_losses.append(float(rows.sum()) / bs)
        _check_finite(plan.flat, stage, "layer parameters", where)
        history.append(float(np.mean(epoch_losses)))
    if epochs:  # the last steps can leave outputs non-finite that no step saw
        _check_finite(plan.forward(x)[1], stage, "outputs", where)
    return history


def finetune_expert(pre: ParamSet, x: np.ndarray, y: np.ndarray, task: str,
                    epochs: int, lr: float, batch_size: int = 32, seed: int = 0,
                    kind: str = "classification", return_history: bool = False):
    """Fine-tune the encoder on one task's labeled data; the task head stays
    frozen at the pre-trained head, so the task vector is encoder-only.

    Returns a ParamSet holding only this task's head. With epochs=0 the
    pre-trained parameters come back unchanged.
    """
    spec = LossSpec(kind_rules(kind).train_loss)
    if len(x) == 0:
        raise ValueError("empty training set")
    # the encoder is trained (a copy of `pre`'s); the head gets no gradient
    plan = _StepPlan([*pre.encoder, pre.head(task)], dict(enumerate(pre.encoder)))
    history = _fit(plan, x, y, spec, epochs, batch_size, spawn_rng(seed, "finetune", task), lr,
                   "fine-tuning", task)
    params = ParamSet(encoder=plan.trained(), heads={task: plan.layers[-1]})
    return (params, history) if return_history else params


@np.errstate(over="ignore", invalid="ignore")
def pretrain_backbone(init: ParamSet, suite: TaskSuite, epochs: int, lr: float,
                      batch_size: int = 32, seed: int = 0) -> ParamSet:
    """Brief pooled training over all tasks' train splits (round-robin batches).

    Stand-in for generic pretraining: yields a shared encoder plus per-task
    heads that are deliberately mediocre compared to fine-tuned experts.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    # every layer in one flat vector (`params_to_arrays` order); `params` is
    # an unchecked view of it, each step's Adam result is copied into it, and
    # the result is checked once at the end
    task_ids = sorted(init.heads)
    flat = np.concatenate(params_to_arrays(init))
    views = _split(flat, [*init.encoder, *(init.heads[t] for t in task_ids)])
    depth = len(init.encoder)
    params = ParamSet(encoder=views[:depth], heads=dict(zip(task_ids, views[depth:])))
    state = adam_init([flat])
    runs = [(t, LossSpec(kind_rules(t.kind).train_loss),
             _BatchStream(len(t.x_train), batch_size, spawn_rng(seed, "pretrain", t.task_id)))
            for t in suite.tasks]
    steps_per_epoch = max(len(t.x_train) // min(batch_size, len(t.x_train)) for t in suite.tasks)
    for epoch in range(epochs):
        for _ in range(steps_per_epoch):
            for t, spec, stream in runs:
                idx = stream.next_indices()
                cache = forward_cached(params, t.task_id, t.x_train[idx])
                _check_finite(cache[0], "pretraining", "outputs",
                              f"epoch {epoch} for task '{t.task_id}' at learning rate {lr:g}")
                _, grads = backward(params, t.task_id, t.x_train[idx], t.y_train[idx], spec,
                                    cache=cache)
                (new,), state = adam_step([flat], [np.concatenate(params_to_arrays(grads))],
                                          state, lr)
                flat[...] = new
    if epochs:  # the last steps can leave outputs non-finite that no step saw
        for t in suite.tasks:
            _check_finite(forward(params, t.task_id, t.x_train), "pretraining", "outputs",
                          f"epoch {epochs - 1} for task '{t.task_id}' at learning rate {lr:g}")
    return arrays_to_params(init, params_to_arrays(params))


def train_experts(suite: TaskSuite, hidden: Sequence[int], pre_epochs: int, pre_lr: float,
                  epochs: int, lr: float, batch_size: int = 32, seed: int = 0) -> tuple:
    """(pre, {task: expert}), the inputs of every merge: a backbone of encoder
    widths `hidden` pretrained on all of `suite`'s tasks, and one expert per
    task fine-tuned from it. The keywords are a config's `finetune` keys."""
    for name, rate in (("pre_lr", pre_lr), ("lr", lr)):
        if not 0.0 < rate < np.inf:  # checked before any training; nan fails too
            raise ValueError(f"{name}: learning rate must be positive and finite, got {rate}")
    init = init_params((suite.config.input_dim, *hidden), suite.head_widths,
                       spawn_rng(seed, "init"))
    pre = pretrain_backbone(init, suite, pre_epochs, pre_lr, batch_size, seed)
    return pre, {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs, lr,
                                            batch_size, seed, t.kind)
                 for t in suite.tasks}


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


def build_assembly(pre: ParamSet, vectors: Mapping[str, TaskVector],
                   experts: Mapping[str, ParamSet], coeffs: CoefficientMatrix,
                   trainable: Mapping[str, TrainableLayer] | None = None) -> MergedAssembly:
    """Assemble the merged multi-task model with frozen expert heads."""
    ids = coeffs.task_ids
    return MergedAssembly(tuple(pre.encoder), tuple(vectors[t] for t in ids), coeffs,
                          {t: experts[t].head(t) for t in ids}, dict(trainable or {}))


def task_vectors_from_experts(pre: ParamSet, experts: Mapping[str, ParamSet]) -> dict:
    return {task: compute_task_vector(expert, pre) for task, expert in experts.items()}


def symerge(pre: ParamSet, vectors: Mapping[str, TaskVector],
            experts: Mapping[str, ParamSet], inputs_by_task: Mapping[str, np.ndarray],
            cfg: AdaptConfig, task_kinds: Mapping[str, str] | None = None) -> AdaptResult:
    """Jointly adapt merging coefficients and one task-specific layer per task.

    Each task's objective comes from `make_self_labels` over its test inputs,
    and its trained layer starts as the expert's. Each pass visits every task:
    a batch through the merged encoder with the task's trained layers in place,
    its loss on the rows the confidence filter keeps, then Adam steps of both.
    """
    kinds = _adapt_tasks(experts, vectors, inputs_by_task, task_kinds)
    objectives = {}
    for t, kind in kinds.items():
        spec = cfg.loss if cfg.loss is not None else LossSpec(kind_rules(kind).self_label_loss)
        labels = make_self_labels(experts[t], t, inputs_by_task[t], kind)
        arity = spec.target_arity
        if arity == "labels" and labels.expert_confidence is None:
            raise ValueError(f"hard-label loss needs classification self-labels for '{t}'")
        targets = (None if arity == "none" else labels.targets if arity == "labels"
                   else softmax(labels.logits) if arity == "distribution" else labels.logits)
        objectives[t] = (spec, targets, labels.expert_confidence if cfg.filter_enabled else None)
    models = {t: (*experts[t].encoder, experts[t].head(t)) for t in kinds}
    return _run_adaptation(pre, vectors, models, inputs_by_task, cfg, objectives)


def adamerging_entropy(pre: ParamSet, vectors: Mapping[str, TaskVector],
                       heads: Mapping[str, LayerParams],
                       inputs_by_task: Mapping[str, np.ndarray], cfg: AdaptConfig,
                       task_kinds: Mapping[str, str] | None = None) -> CoefficientMatrix:
    """Coefficients-only adaptation by minimizing mean prediction entropy."""
    if cfg.trainable_layer is not None:
        raise ValueError("entropy adaptation trains coefficients only; set trainable_layer=None")
    kinds = _adapt_tasks(heads, vectors, inputs_by_task, task_kinds)
    for t, kind in kinds.items():
        if kind != "classification":
            raise ValueError(f"entropy objective undefined for {kind} task '{t}'")
    objectives = {t: (LossSpec("entropy"), None, None) for t in kinds}
    models = {t: (*pre.encoder, heads[t]) for t in kinds}
    return _run_adaptation(pre, vectors, models, inputs_by_task, cfg, objectives).coeffs


def _adapt_tasks(tasks, vectors, inputs_by_task, task_kinds) -> dict:
    """{task: kind} over the sorted `tasks` (a task's kind defaults to
    classification), each checked to have a task vector and non-empty test inputs."""
    if not tasks:
        raise ValueError("adaptation needs at least one task, got none")
    for t in sorted(tasks):
        if t not in vectors:
            raise UnknownTaskError(f"missing task vector for '{t}'")
        if t not in inputs_by_task:
            raise UnknownTaskError(f"missing test inputs for '{t}'")
        if len(inputs_by_task[t]) == 0:
            raise ValueError(f"empty input split for task '{t}'")
    return {t: (task_kinds or {}).get(t, "classification") for t in sorted(tasks)}


# adaptation has diverged when a pass ends with a coefficient or a trained-layer
# value beyond DIVERGED times the largest starting magnitude of its kind (or 1)
DIVERGED = 1e3


def _diverged(x: np.ndarray, start_scale: float) -> bool:
    return not np.abs(x).max(initial=0.0) <= DIVERGED * start_scale  # true for NaN too


@np.errstate(over="ignore", invalid="ignore")
def _run_adaptation(pre, vectors, models, inputs_by_task, cfg, objectives) -> AdaptResult:
    """Adapt the coefficients and the selected layers of each task's starting
    model (`models`: its layers, head last) on one objective per task: (loss
    spec, whole-split targets, expert confidence that filters the task's
    batches or None). Everything is checked, and what no step changes is
    fixed, before the first step: the schedule (task orders and batch
    indices; the seeded streams never read the model), the merged encoder
    (whose mixed layers are merged again after each coefficient step) and,
    with frozen coefficients, each task's inputs of its plan's lowest layer
    for all its batches (stacked per pass). All tasks' trained layers are
    one vector that Adam steps at the end of each pass (the same numbers as
    a step after each task's step, whose layers no other step reads): one
    update while the tasks' step counts agree, else one per stepped task's
    segment. A pass that ends beyond `DIVERGED` raises a ValueError naming
    the pass and the task."""
    task_ids = tuple(objectives)
    depth = len(pre.encoder)
    coeffs = CoefficientMatrix.constant(task_ids, depth, cfg.init_coeff)
    values = coeffs.values  # stepped in place
    stack = stack_task_vectors([vectors[t] for t in task_ids], pre.encoder)
    merged = merge_layerwise(pre.encoder, stack, coeffs)

    def merge(layers):  # a coefficient step re-merges the layers it mixes, in place
        for l in layers:
            _merge_layer(pre.encoder, values, stack, l, out=merged[l].flat)

    order_rng = spawn_rng(cfg.seed, "task-order")
    orders = [order_rng.permutation(len(task_ids)).tolist()
              if cfg.task_order == "shuffled_each_pass" else range(len(task_ids))
              for _ in range(cfg.iterations)]

    # every task trains the selector's layers (or none); the others mix task vectors
    selector = cfg.trainable_layer
    positions = () if selector is None else layer_positions(selector, depth)
    mixed = tuple(l for l in range(depth) if l not in positions) if cfg.train_coeffs else ()
    # the tasks' trained layers (in task order) in one vector, with its gradient and moments
    sizes = [sum(models[t][p].flat.size for p in positions) for t in task_ids]
    layer_flat, layer_grad, m, v = np.zeros((4, sum(sizes)))
    counts = [0] * len(task_ids)  # each task's layer steps
    runs = []
    for (t, (spec, targets, conf)), size, end in zip(objectives.items(), sizes, accumulate(sizes)):
        seg = slice(end - size, end)
        plan = _StepPlan([*merged, models[t][-1]], {p: models[t][p] for p in positions}, mixed,
                         (layer_flat[seg], layer_grad[seg]))
        # a layer the task replaces has no coefficient gradient: its column stays 0
        cgrad_in = [None if l in positions else plan.grads[l].flat
                    for l in range(depth)] if cfg.train_coeffs else None
        x = _check_inputs(inputs_by_task[t], pre.encoder[0].in_dim)
        y = _check_targets((len(x), plan.layers[-1].out_dim), targets, spec)
        stream = _BatchStream(len(x), cfg.batch_size, spawn_rng(cfg.seed, "batches", t))
        idx = np.array([stream.next_indices() for _ in range(cfg.iterations)],
                       dtype=np.int64).reshape(cfg.iterations, stream.bs)
        if plan.lowest:  # row p of x becomes pass p's inputs of layer `lowest`
            x = _activations(plan.layers[:plan.lowest], x[idx])[-1]
        # row p of y and conf: pass p's targets and expert confidences
        y, conf = (None if a is None else a[idx] for a in (y, conf))
        runs.append((plan, x, idx, y, spec, conf, cgrad_in, seg))
    step_coeffs = _adam(values, cfg.lr_coeffs)
    coeff_scale, layer_scale = (max(1.0, np.abs(a).max(initial=0.0)) for a in (values, layer_flat))

    steps = []  # one StepStats per step; a fully filtered batch's has kept=0, loss=None
    filtered_passes = 0
    agg_coeff_grad = np.zeros_like(values)  # the pass's summed coefficient gradient
    for pass_idx, order in enumerate(orders):
        stepped = []
        for k in order:
            plan, x, idx, y, spec, conf, cgrad_in, _ = runs[k]
            n = idx.shape[1]
            acts, logits = plan.forward(x[pass_idx] if plan.lowest else x[idx[pass_idx]])
            _check_finite(logits, "adaptation", "outputs",
                          f"pass {pass_idx} for task '{task_ids[k]}'")
            losses, grad, probs = _loss_rows(logits, None if y is None else y[pass_idx], spec)
            step = StepStats(pass_idx, task_ids[k], n, n, None, float(losses.sum()) / n)
            steps.append(step)

            if conf is not None:
                probs = softmax(logits) if probs is None else probs
                keep = confidence_filter(probs.max(axis=1), conf[pass_idx]).nonzero()[0]
                step.kept = keep.size
                if step.kept == 0:
                    continue
                if step.kept < n:
                    losses, grad = losses[keep], grad[keep]
                    for i in range(plan.lowest, len(acts)):
                        acts[i] = acts[i].take(keep, axis=0)

            step.loss = float(losses.sum()) / step.kept
            stepped.append(k)
            grad /= step.kept
            plan.backprop(grad, acts)
            if cfg.train_coeffs:
                cgrad = coefficient_grad(cgrad_in, stack)
                if cfg.update_mode == "sequential":
                    step_coeffs(cgrad)
                    merge(mixed)
                else:
                    agg_coeff_grad += cgrad

        if not stepped:
            filtered_passes += 1
            continue
        if cfg.update_mode == "aggregated" and cfg.train_coeffs:
            step_coeffs(agg_coeff_grad)
            agg_coeff_grad[...] = 0.0
            merge(mixed)
        for k in stepped:
            counts[k] += 1
        if positions and len(stepped) == len(task_ids) and len(set(counts)) == 1:
            _adam_update(layer_flat, layer_grad, m, v, counts[0], cfg.lr_layer)
        elif positions:
            for k in stepped:
                seg = runs[k][-1]
                _adam_update(layer_flat[seg], layer_grad[seg], m[seg], v[seg], counts[k],
                             cfg.lr_layer)
        if _diverged(values, coeff_scale) or _diverged(layer_flat, layer_scale):
            k = next(k for k, run in enumerate(runs) if _diverged(values[k], coeff_scale)
                     or _diverged(layer_flat[run[-1]], layer_scale))
            raise ValueError(f"adaptation diverged: coefficients or trained layers beyond "
                             f"{DIVERGED:g} times their starting scale on pass {pass_idx} "
                             f"for task '{task_ids[k]}'")

    if filtered_passes:
        warnings.warn(f"{filtered_passes} of {cfg.iterations} passes fully filtered: "
                      "every batch lost all its rows to the confidence filter, no update applied")
    return AdaptResult(
        coeffs=CoefficientMatrix(task_ids, values),
        trainable={t: TrainableLayer.build(selector, run[0].trained().__getitem__)
                   for t, run in zip(task_ids, runs) if positions},
        loss_trace=[float(np.mean([st.batch_loss for st in steps[i:i + len(task_ids)]]))
                    for i in range(0, len(steps), len(task_ids))],
        step_stats=steps,
    )


# ---------------------------------------------------------------------------
# Supervised pilot: retrain heads on merged features, evaluate cross-task


def pilot_two_stage(merged_encoder, suite: TaskSuite, experts: Mapping[str, ParamSet],
                    epochs: int = 1, lr: float = 1e-2, batch_size: int = 32,
                    seed: int = 0) -> np.ndarray | list:
    """Gain matrix of the two-stage protocol.

    Stage 1 retrains each expert's head (from that head) on frozen
    merged-encoder features with ground-truth labels; the experts' tasks must
    be classification tasks of `suite`, which may hold others. Stage 2 pairs
    each retrained head j with every expert encoder i and scores task j's
    test set. Entry (i, j) is the accuracy gain over the original expert head.
    Given a list of merged encoders (a sweep), it returns their matrices and
    computes the experts' test features and baseline accuracies once.
    """
    from .analysis import _score_features  # not at the top: `finetune` and `adapt` need none
    task_ids = tuple(sorted(experts))
    for t in task_ids:
        if suite.task(t).kind != "classification":
            raise ValueError(f"pilot protocol requires classification tasks; "
                             f"task '{t}' is {suite.task(t).kind}")
    sweep = not isinstance(merged_encoder[0], LayerParams)
    tests = [(suite.task(t).x_test, suite.task(t).y_test) for t in task_ids]
    # each expert encoder on each test split, once for the whole sweep
    feats = [[encode(experts[i].encoder, x) for x, _ in tests] for i in task_ids]
    baseline = _score_features(feats, [experts[t].head(t) for t in task_ids], tests)
    gains = []
    for encoder in merged_encoder if sweep else [merged_encoder]:
        retrained = []
        for task in task_ids:
            # the head trained over the frozen merged encoder
            head, data = experts[task].head(task), suite.task(task)
            plan = _StepPlan([*encoder, head], {len(encoder): head})
            _fit(plan, data.x_train, data.y_train, LossSpec(kind_rules(data.kind).train_loss),
                 epochs, batch_size, spawn_rng(seed, "pilot", task), lr, "pilot retraining", task)
            retrained += plan.trained()
        gains.append(_score_features(feats, retrained, tests) - baseline)
    return gains if sweep else gains[0]
