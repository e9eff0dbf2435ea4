"""Evaluation and diagnostics: accuracy, cross-task matrices, transfer
scores, rank correlation of proxy losses, prediction discrepancies, and
coefficient sparsity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import (LayerParams, LossSpec, ParamSet, ShapeError, _activations, _check_inputs,
                     _check_outputs, _check_targets, _loss_rows, forward)
from .merging import CoefficientMatrix, MergedAssembly, TaskVector, merge_layerwise, merge_uniform


class DegenerateDataError(ValueError):
    """Statistic undefined on this input (too short or zero variance)."""


def predict(encoder, head: LayerParams, x: np.ndarray) -> np.ndarray:
    params = ParamSet(encoder=tuple(encoder), heads={"_": head})
    return forward(params, "_", x)


def evaluate(encoder, head: LayerParams, x: np.ndarray, y: np.ndarray,
             kind: str = "classification") -> float:
    """Accuracy for classification; mean L1 error for regression."""
    if len(x) == 0:
        raise ValueError("empty evaluation set")
    out = predict(encoder, head, x)
    if kind == "classification":
        return _accuracy(out, y)
    if kind == "regression":
        return float(np.abs(out - np.asarray(y, dtype=np.float64)).sum(axis=1).mean())
    raise ValueError(f"unknown task kind '{kind}'")


def _accuracy(logits: np.ndarray, y) -> float:
    """Top-1 accuracy of `logits` against class labels `y`."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ShapeError(f"classification labels must be 1-D, got shape {y.shape}")
    return float((np.argmax(logits, axis=1) == y).mean())


def evaluate_assembly(assembly: MergedAssembly, task: str, x: np.ndarray, y: np.ndarray,
                      kind: str = "classification") -> float:
    model = assembly.materialize(task)
    return evaluate(model.encoder, model.head(task), x, y, kind)


def cross_task_matrix(encoders: Sequence, heads: Sequence[LayerParams],
                      test_sets: Sequence) -> np.ndarray:
    """(i, j) = accuracy of encoder i's features under head j on task j's test set."""
    k = len(encoders)
    if len(heads) != k or len(test_sets) != k:
        raise ShapeError("need K encoders, K heads and K test sets")
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            x, y = test_sets[j]
            out[i, j] = evaluate(encoders[i], heads[j], x, y)
    return out


def transfer_metrics(pre, vectors: Sequence[TaskVector], coeffs: CoefficientMatrix,
                     heads: Sequence[LayerParams], test_sets: Sequence):
    """(merged_score, cross_score).

    merged: mean accuracy of the fully merged encoder under every head.
    cross: mean over ordered pairs i != j of the encoder built from task i's
    coefficient row alone, scored with head j on task j's test set.
    """
    k = len(vectors)
    if k < 2:
        raise ValueError("cross score needs at least two tasks")
    if len(heads) != k or len(test_sets) != k:
        raise ShapeError("need one head and one test set per task")

    merged = merge_layerwise(pre, vectors, coeffs)
    merged_score = float(np.mean([
        evaluate(merged, heads[j], *test_sets[j]) for j in range(k)
    ]))

    single = []
    for i in range(k):
        row = CoefficientMatrix((coeffs.task_ids[i],), coeffs.values[i:i + 1])
        single.append(merge_layerwise(pre, [vectors[i]], row))
    pair_scores = [
        evaluate(single[i], heads[j], *test_sets[j])
        for i in range(k) for j in range(k) if i != j
    ]
    return merged_score, float(np.mean(pair_scores))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their
    ranks, and any NaN makes every rank NaN."""
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(a)]
    ranks = np.empty(len(a))
    # a tie group fills sorted positions start..end-1, i.e. ranks start+1..end
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ShapeError("spearman expects two equal-length 1-D sequences")
    if len(xs) < 2:
        raise DegenerateDataError("spearman needs at least 2 observations")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        raise DegenerateDataError("spearman undefined: zero rank variance")
    return float(np.clip((dx * dy).sum() / denom, -1.0, 1.0))


@dataclass
class CrossMergePair:
    encoder_task: str
    head_task: str
    cross_accuracy: float  # encoder A + head B on B's task
    merge_accuracy: float  # weight-averaged (A, B) encoders + head B on B's task


def cross_merge_pairs(experts: Mapping[str, ParamSet], test_sets: Mapping[str, tuple]):
    """Raw (cross-task, pairwise-merge) accuracy points over all ordered task
    pairs, plus their Spearman correlation (None when degenerate).

    For a pair (A, B): cross pairs A's encoder with B's original head on B's
    test set; merge weight-averages the two encoders and evaluates the same
    way. Original heads are used on both sides.
    """
    task_ids = tuple(sorted(experts))
    if len(task_ids) < 2:
        raise ValueError("cross/merge pairs need at least two tasks")
    pairs = []
    for a in task_ids:
        for b in task_ids:
            if a == b:
                continue
            x, y = test_sets[b]
            head = experts[b].head(b)
            cross = evaluate(experts[a].encoder, head, x, y)
            merged = merge_uniform([experts[a], experts[b]])
            pairs.append(CrossMergePair(a, b, cross, evaluate(merged, head, x, y)))
    try:
        rho = spearman([p.cross_accuracy for p in pairs], [p.merge_accuracy for p in pairs])
    except DegenerateDataError:
        rho = None
    return pairs, rho


@dataclass
class CorrelationCell:
    task: str
    proxy: str
    stage: str
    rho: float | None
    status: str  # "ok" | "undefined"


@dataclass
class CorrelationReport:
    cells: list

    def rho(self, task: str, proxy: str, stage: str) -> float | None:
        for c in self.cells:
            if (c.task, c.proxy, c.stage) == (task, proxy, stage):
                return c.rho
        raise KeyError((task, proxy, stage))


def loss_correlation_report(initial: MergedAssembly, adapted: MergedAssembly,
                            experts: Mapping[str, ParamSet],
                            test_sets: Mapping[str, tuple], batch_size: int) -> CorrelationReport:
    """Spearman correlation of proxy losses against ground-truth CE, per batch.

    For each task and for both the initial and adapted weights, the test
    stream is cut into consecutive batches; each batch contributes one
    (proxy, ground-truth CE) pair per proxy. Ground-truth labels are used
    for analysis only. All batches of a (task, stage) run through one
    stacked forward pass, and each loss is one kernel call over their rows.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    ce = LossSpec("cross_entropy_hard")
    ent = LossSpec("entropy")
    cells = []
    for task in sorted(test_sets):
        x, y = test_sets[task]
        bs = min(batch_size, len(x))
        nb = len(x) // bs if bs else 0
        if nb < 2:
            raise DegenerateDataError("need at least 2 batches for correlation")
        expert_labels = np.argmax(forward(experts[task], task, x), axis=1)
        for stage, assembly in (("initial", initial), ("adapted", adapted)):
            model = assembly.materialize(task)
            head = model.head(task)
            h = _check_inputs(x[:nb * bs], model.encoder[0].in_dim).reshape(nb, bs, -1)
            logits = _activations(model.encoder, h)[-1] @ head.weight.T + head.bias
            z = _check_outputs(logits.reshape(nb * bs, head.out_dim))

            def batch_losses(targets, spec):  # each batch's mean, summed as its own array would be
                rows = _loss_rows(z, _check_targets(z.shape, targets, spec), spec)[0]
                return (rows.reshape(nb, bs).sum(axis=1) / bs).tolist()

            gt = batch_losses(y[:nb * bs], ce)
            for proxy, vals in (("entropy", batch_losses(None, ent)),
                                ("self_ce", batch_losses(expert_labels[:nb * bs], ce))):
                try:
                    rho = spearman(vals, gt)
                    cells.append(CorrelationCell(task, proxy, stage, rho, "ok"))
                except DegenerateDataError:
                    cells.append(CorrelationCell(task, proxy, stage, None, "undefined"))
    return CorrelationReport(cells)


@dataclass
class DiscrepancyReport:
    fails: int  # expert correct, merged wrong
    gains: int  # merged correct, expert wrong
    n: int

    @property
    def net(self) -> int:
        return self.fails - self.gains


def discrepancy(merged_pred, expert_pred, labels) -> DiscrepancyReport:
    merged_pred = np.asarray(merged_pred)
    expert_pred = np.asarray(expert_pred)
    labels = np.asarray(labels)
    if not (merged_pred.shape == expert_pred.shape == labels.shape):
        raise ShapeError("prediction/label lengths differ")
    m_ok = merged_pred == labels
    e_ok = expert_pred == labels
    return DiscrepancyReport(
        fails=int((e_ok & ~m_ok).sum()),
        gains=int((m_ok & ~e_ok).sum()),
        n=len(labels),
    )


@dataclass
class SparsityReport:
    threshold: float
    overall: float
    per_layer: tuple  # fraction per encoder layer


def sparsity_report(coeffs: CoefficientMatrix, threshold: float = 1e-5) -> SparsityReport:
    small = np.abs(coeffs.values) < threshold
    return SparsityReport(
        threshold=float(threshold),
        overall=float(small.mean()),
        per_layer=tuple(float(v) for v in small.mean(axis=0)),
    )
