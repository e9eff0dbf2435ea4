"""Deterministic synthetic multi-task suites with shared latent structure.

All tasks draw their class prototypes from one shared low-rank subspace;
each task then rotates the prototypes by its own random rotation whose
angle scales with `task_rotation_strength`. Strength 0 makes every task
identical up to noise draws, strength 1 makes them maximally task-specific,
so cross-task transfer is tunable. A feature-space corruption operator
stands in for image corruptions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np


def spawn_rng(seed: int, *scope) -> np.random.Generator:
    """Named sub-stream of a master seed; stable across runs and platforms."""
    label = "/".join(str(s) for s in (seed, *scope))
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class SuiteConfig:
    num_tasks: int = 4
    classes_per_task: int = 5
    input_dim: int = 24
    samples_per_split: int = 240
    shared_subspace_dim: int = 6
    task_rotation_strength: float = 0.5
    noise_std: float = 0.35
    seed: int = 0
    regression_tasks: tuple = ()  # indices of tasks generated as regression

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise TypeError(f"{f.name}: expected an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, Real)
                                      or not math.isfinite(value)):
                raise TypeError(f"{f.name}: expected a finite real number, got {value!r}")
        if min(self.num_tasks, self.classes_per_task, self.input_dim,
               self.samples_per_split, self.shared_subspace_dim) <= 0:
            raise ValueError("suite dimensions must be positive")
        if self.shared_subspace_dim > self.input_dim:
            raise ValueError(
                f"shared_subspace_dim {self.shared_subspace_dim} > input_dim {self.input_dim}"
            )
        if not 0.0 <= self.task_rotation_strength <= 1.0:
            raise ValueError("task_rotation_strength must be in [0, 1]")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")
        object.__setattr__(self, "regression_tasks", tuple(int(i) for i in self.regression_tasks))
        for i in self.regression_tasks:
            if not 0 <= i < self.num_tasks:
                raise ValueError(f"regression task index {i} out of range")


@dataclass
class TaskData:
    task_id: str
    kind: str  # "classification" | "regression"
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def num_outputs(self) -> int:
        if self.kind == "classification":
            return int(self.y_train.max()) + 1
        return self.y_train.shape[1]


@dataclass
class TaskSuite:
    config: SuiteConfig
    tasks: list

    @property
    def task_ids(self) -> tuple:
        return tuple(t.task_id for t in self.tasks)

    def task(self, task_id: str) -> TaskData:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(f"no task '{task_id}' in suite")


def _balanced_labels(n: int, classes: int) -> np.ndarray:
    # class-balanced within one sample: first (n % classes) classes get the extra
    base, extra = divmod(n, classes)
    counts = [base + (1 if c < extra else 0) for c in range(classes)]
    return np.concatenate([np.full(cnt, c, dtype=np.int64) for c, cnt in enumerate(counts)])


def _task_rotation(cfg: SuiteConfig, task_index: int) -> np.ndarray:
    rng = spawn_rng(cfg.seed, "rotation", task_index)
    a = rng.normal(0.0, 1.0, (cfg.input_dim, cfg.input_dim))
    skew = (a - a.T) / np.sqrt(2.0 * cfg.input_dim)
    # exp(s * skew) through the eigenvectors of the Hermitian 1j * skew:
    # skew = V diag(-1j * w) V^H. Written as I + V (exp(-1j s w) - 1) V^H so
    # strength 0 gives exactly the identity.
    w, v = np.linalg.eigh(1j * skew)
    phase = np.expm1(-1j * cfg.task_rotation_strength * w)
    return np.eye(cfg.input_dim) + ((v * phase) @ v.conj().T).real


def gen_suite(cfg: SuiteConfig) -> TaskSuite:
    """Generate the full suite; a pure function of the config."""
    base_rng = spawn_rng(cfg.seed, "subspace")
    basis, _ = np.linalg.qr(base_rng.normal(0.0, 1.0, (cfg.input_dim, cfg.shared_subspace_dim)))
    latent = base_rng.normal(0.0, 1.0, (cfg.classes_per_task, cfg.shared_subspace_dim))
    latent /= np.linalg.norm(latent, axis=1, keepdims=True)
    shared_protos = latent @ basis.T  # (C, input_dim), unit norm rows

    tasks = []
    for k in range(cfg.num_tasks):
        task_id = f"task{k}"
        rot = _task_rotation(cfg, k)
        protos = shared_protos @ rot.T
        kind = "regression" if k in cfg.regression_tasks else "classification"
        splits = {}
        for split in ("train", "test"):
            rng = spawn_rng(cfg.seed, "samples", k, split)
            if kind == "classification":
                y = _balanced_labels(cfg.samples_per_split, cfg.classes_per_task)
                x = protos[y] + cfg.noise_std * rng.normal(0.0, 1.0, (len(y), cfg.input_dim))
                splits[split] = (x, y)
            else:
                x = rng.normal(0.0, 1.0, (cfg.samples_per_split, cfg.input_dim))
                # task-specific linear targets built on the shared subspace
                w_rng = spawn_rng(cfg.seed, "regmap", k)
                w = w_rng.normal(0.0, 1.0, (cfg.classes_per_task, cfg.shared_subspace_dim)) @ basis.T @ rot.T
                y = x @ w.T
                splits[split] = (x, y)
        tasks.append(TaskData(task_id, kind,
                              splits["train"][0], splits["train"][1],
                              splits["test"][0], splits["test"][1]))
    return TaskSuite(config=cfg, tasks=tasks)


CORRUPTION_KINDS = ("gaussian_noise", "feature_mask", "contrast_scale")

# severity-1 step sizes; severity s in 1..5 scales these linearly
_NOISE_STD_STEP = 0.2
_MASK_FRACTION_STEP = 0.1
_CONTRAST_STEP = 0.15


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind '{self.kind}'")
        if not 1 <= int(self.severity) <= 5:
            raise ValueError("severity must be an integer in 1..5")
        object.__setattr__(self, "severity", int(self.severity))


def corrupt_features(x: np.ndarray, spec: CorruptionSpec, seed: int) -> np.ndarray:
    """Deterministically corrupt a feature matrix; labels are never touched."""
    x = np.asarray(x, dtype=np.float64)
    rng = spawn_rng(seed, "corrupt", spec.kind, spec.severity)
    s = spec.severity
    if spec.kind == "gaussian_noise":
        return x + s * _NOISE_STD_STEP * rng.normal(0.0, 1.0, x.shape)
    if spec.kind == "feature_mask":
        keep = rng.random(x.shape) >= min(1.0, s * _MASK_FRACTION_STEP)
        return x * keep
    # contrast_scale: pull every sample toward the batch mean
    gamma = max(0.0, 1.0 - s * _CONTRAST_STEP)
    mean = x.mean(axis=0, keepdims=True)
    return mean + gamma * (x - mean)


def corrupt_split(x: np.ndarray, y: np.ndarray, spec: CorruptionSpec, seed: int):
    """Corrupted copy of one (features, labels) split."""
    return corrupt_features(x, spec, seed), np.array(y, copy=True)


def corrupt_suite(suite: TaskSuite, spec: CorruptionSpec, seed: int) -> TaskSuite:
    """Suite with every task's test features corrupted (train splits untouched)."""
    tasks = []
    for t in suite.tasks:
        x_test, y_test = corrupt_split(t.x_test, t.y_test, spec, seed)
        tasks.append(TaskData(t.task_id, t.kind, t.x_train, t.y_train, x_test, y_test))
    return TaskSuite(config=suite.config, tasks=tasks)
