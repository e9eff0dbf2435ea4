from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from mergelab.adaptation import finetune_expert
from mergelab.analysis import evaluate
from mergelab.engine import forward, init_params
from mergelab.suites import (
    CorruptionSpec,
    SuiteConfig,
    TaskData,
    TaskSuite,
    corrupt_features,
    corrupt_split,
    corrupt_suite,
    gen_suite,
    spawn_rng,
)


def _suites_equal(a, b) -> bool:
    if a.task_ids != b.task_ids:
        return False
    for ta, tb in zip(a.tasks, b.tasks):
        for field in ("x_train", "y_train", "x_test", "y_test"):
            if not np.array_equal(getattr(ta, field), getattr(tb, field)):
                return False
    return True


def test_gen_suite_deterministic():
    cfg = SuiteConfig(seed=7)
    assert _suites_equal(gen_suite(cfg), gen_suite(cfg))
    assert not _suites_equal(gen_suite(cfg), gen_suite(SuiteConfig(seed=8)))


def test_gen_suite_balanced_labels():
    cfg = SuiteConfig(num_tasks=2, classes_per_task=5, samples_per_split=123, seed=1)
    suite = gen_suite(cfg)
    for t in suite.tasks:
        counts = np.bincount(t.y_train, minlength=5)
        assert counts.max() - counts.min() <= 1


def test_gen_suite_validates_config():
    with pytest.raises(ValueError):
        SuiteConfig(shared_subspace_dim=50, input_dim=10)
    with pytest.raises(ValueError):
        SuiteConfig(task_rotation_strength=1.5)
    with pytest.raises(ValueError):
        SuiteConfig(regression_tasks=(9,), num_tasks=4)


def test_rotation_zero_gives_cross_task_transfer():
    cfg = SuiteConfig(num_tasks=2, classes_per_task=4, input_dim=12, samples_per_split=80,
                      shared_subspace_dim=4, task_rotation_strength=0.0, noise_std=0.1, seed=3)
    suite = gen_suite(cfg)
    t0, t1 = suite.tasks
    pre = init_params((12, 14, 8), {"task0": 4, "task1": 4}, spawn_rng(3, "init"))
    expert = finetune_expert(pre, t0.x_train, t0.y_train, "task0", epochs=25, lr=0.01, seed=3)
    # same prototypes, same labeling: the task0 expert transfers to task1 data
    acc = evaluate(expert.encoder, expert.heads["task0"], t1.x_test, t1.y_test)
    assert acc >= 0.95


def test_noiseless_suite_trains_to_perfect_accuracy():
    cfg = SuiteConfig(num_tasks=2, classes_per_task=4, input_dim=12, samples_per_split=60,
                      shared_subspace_dim=4, task_rotation_strength=0.5, noise_std=0.0, seed=4)
    suite = gen_suite(cfg)
    pre = init_params((12, 14, 8), {t.task_id: 4 for t in suite.tasks}, spawn_rng(4, "init"))
    for t in suite.tasks:
        expert = finetune_expert(pre, t.x_train, t.y_train, t.task_id, epochs=25, lr=0.01, seed=4)
        assert evaluate(expert.encoder, expert.heads[t.task_id], t.x_train, t.y_train) == 1.0


def test_regression_task_targets_are_linear_maps():
    cfg = SuiteConfig(num_tasks=2, classes_per_task=3, regression_tasks=(1,), seed=5)
    suite = gen_suite(cfg)
    assert suite.tasks[0].kind == "classification"
    t = suite.tasks[1]
    assert t.kind == "regression"
    assert t.y_train.shape == (cfg.samples_per_split, cfg.classes_per_task)
    # noise-free linear map: solve for it from train, predict test exactly
    w, *_ = np.linalg.lstsq(t.x_train, t.y_train, rcond=None)
    assert np.abs(t.x_test @ w - t.y_test).max() < 1e-9


# ---------------------------------------------------------------------------
# corruption


def test_corrupt_gaussian_scales_with_severity():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(400, 20))
    for s in (1, 3, 5):
        noise = corrupt_features(x, CorruptionSpec("gaussian_noise", s), seed=0) - x
        assert noise.std() == pytest.approx(0.2 * s, rel=0.05)


def test_corrupt_mask_fraction_monotone_same_seed():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 20)) + 5.0  # keep entries away from exact zero
    z1 = (corrupt_features(x, CorruptionSpec("feature_mask", 1), seed=3) == 0.0).mean()
    z5 = (corrupt_features(x, CorruptionSpec("feature_mask", 5), seed=3) == 0.0).mean()
    assert z5 > z1
    assert z5 == pytest.approx(0.5, abs=0.05)


def test_corrupt_contrast_pulls_toward_mean():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(100, 10))
    out = corrupt_features(x, CorruptionSpec("contrast_scale", 5), seed=0)
    assert out.std() < x.std()
    assert np.abs(out.mean(axis=0) - x.mean(axis=0)).max() < 1e-12


def test_corrupt_split_keeps_labels_and_is_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 8))
    y = rng.integers(0, 3, 50)
    spec = CorruptionSpec("gaussian_noise", 2)
    x1, y1 = corrupt_split(x, y, spec, seed=11)
    x2, y2 = corrupt_split(x, y, spec, seed=11)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert np.array_equal(y1, y)
    assert np.bincount(y1).tolist() == np.bincount(y).tolist()


def test_corrupt_rejects_bad_spec():
    with pytest.raises(ValueError):
        CorruptionSpec("saltpepper", 3)
    with pytest.raises(ValueError):
        CorruptionSpec("gaussian_noise", 0)
    with pytest.raises(ValueError):
        CorruptionSpec("gaussian_noise", 6)


def test_severity5_degrades_expert_accuracy_on_most_seeds():
    degraded = 0
    for seed in range(10):
        cfg = SuiteConfig(num_tasks=1, classes_per_task=4, input_dim=12, samples_per_split=80,
                          shared_subspace_dim=4, task_rotation_strength=0.5, noise_std=0.15,
                          seed=300 + seed)
        suite = gen_suite(cfg)
        t = suite.tasks[0]
        pre = init_params((12, 14, 8), {"task0": 4}, spawn_rng(seed, "init"))
        expert = finetune_expert(pre, t.x_train, t.y_train, "task0", epochs=10, lr=0.01, seed=seed)
        clean = evaluate(expert.encoder, expert.heads["task0"], t.x_test, t.y_test)
        xc, yc = corrupt_split(t.x_test, t.y_test, CorruptionSpec("gaussian_noise", 5), seed)
        corrupted = evaluate(expert.encoder, expert.heads["task0"], xc, yc)
        if corrupted <= clean:
            degraded += 1
    assert degraded >= 9


def test_mean_accuracy_monotone_in_severity_over_seeds():
    # statistical check over 10 seeds: accuracy averaged across seeds does not
    # increase with severity
    mean_acc = {s: [] for s in (1, 3, 5)}
    for seed in range(10):
        cfg = SuiteConfig(num_tasks=1, classes_per_task=4, input_dim=12, samples_per_split=80,
                          shared_subspace_dim=4, task_rotation_strength=0.5, noise_std=0.15,
                          seed=400 + seed)
        suite = gen_suite(cfg)
        t = suite.tasks[0]
        pre = init_params((12, 14, 8), {"task0": 4}, spawn_rng(seed, "init"))
        expert = finetune_expert(pre, t.x_train, t.y_train, "task0", epochs=10, lr=0.01, seed=seed)
        for s in (1, 3, 5):
            xc, yc = corrupt_split(t.x_test, t.y_test, CorruptionSpec("gaussian_noise", s), seed)
            mean_acc[s].append(evaluate(expert.encoder, expert.heads["task0"], xc, yc))
    means = [np.mean(mean_acc[s]) for s in (1, 3, 5)]
    assert means[0] >= means[1] >= means[2]


def test_corrupt_suite_touches_only_test_split():
    cfg = SuiteConfig(seed=10)
    suite = gen_suite(cfg)
    corrupted = corrupt_suite(suite, CorruptionSpec("gaussian_noise", 4), seed=10)
    for a, b in zip(suite.tasks, corrupted.tasks):
        assert np.array_equal(a.x_train, b.x_train)
        assert not np.array_equal(a.x_test, b.x_test)
        assert np.array_equal(a.y_test, b.y_test)


def test_train_and_test_splits_are_disjoint():
    suite = gen_suite(SuiteConfig(seed=12))
    for t in suite.tasks:
        train_rows = {row.tobytes() for row in t.x_train}
        assert all(row.tobytes() not in train_rows for row in t.x_test)


# ---------------------------------------------------------------------------
# the suite contract, held by every TaskSuite however it is built

# 2 tasks (task1 regression with 3 target columns) of 3 classes over 6 input
# dims, 20 rows per split
_CFG = SuiteConfig(num_tasks=2, classes_per_task=3, input_dim=6, samples_per_split=20,
                   shared_subspace_dim=2, regression_tasks=(1,))


def _with(task: int, **fields):
    """The tasks of `_CFG`'s suite with `fields` replaced in task `task`."""
    tasks = list(gen_suite(_CFG).tasks)
    tasks[task] = TaskData(**{**vars(tasks[task]), **fields})
    return tasks


@pytest.mark.parametrize("tasks, message", [
    (_with(0, y_train=np.zeros(20)),
     "task 'task0': array 'task0.y_train' of shape (20,) must hold 1-D integer labels in 0..2"),
    (_with(0, y_test=np.full(20, 3)),
     "task 'task0': array 'task0.y_test' of shape (20,) must hold 1-D integer labels in 0..2"),
    (_with(0, x_test=np.zeros((20, 4))),
     "task 'task0': array 'task0.x_test' of shape (20, 4) must be 2-D with 6 columns"),
    (_with(0, y_test=np.zeros(10, dtype=np.int64)),
     "task 'task0': array 'task0.y_test' of shape (10,) must have the 20 rows of 'task0.x_test'"),
    (_with(1, y_train=np.zeros(20)),
     "task 'task1': array 'task1.y_train' of shape (20,) must be 2-D"),
    (_with(1, y_test=np.zeros((20, 1))),
     "task 'task1': array 'task1.y_test' of shape (20, 1) must have the 3 columns of "
     "'task1.y_train' of shape (20, 3)"),
    (_with(0, x_train=np.zeros((0, 6))),
     "task 'task0' has an empty train split (array 'task0.x_train' has 0 rows)"),
    (_with(1, x_test=np.full((20, 6), np.inf)),
     "task 'task1': array 'task1.x_test' holds a non-finite value"),
    (_with(0, kind="ranking"),
     "task 'task0': kind 'ranking' is not one of ('classification', 'regression')"),
    (_with(1, task_id="task0"), "task ids ['task0', 'task0'] are not distinct"),
], ids=["float_labels", "label_3", "x_columns", "y_rows", "regression_1d", "regression_columns",
        "empty_split", "non_finite", "unknown_kind", "repeated_id"])
def test_a_suite_that_breaks_its_contract_is_a_value_error_naming_the_array(tasks, message):
    with pytest.raises(ValueError) as info:
        TaskSuite(_CFG, tasks)
    assert str(info.value) == message


def test_a_corruption_that_overflows_breaks_the_contract_where_it_is_made():
    suite = TaskSuite(_CFG, _with(0, x_test=np.full((20, 6), 1e308)))
    with np.errstate(over="ignore", invalid="ignore"):  # the batch mean overflows
        with pytest.raises(ValueError, match=r"^task 'task0': array 'task0.x_test' holds a "
                                             "non-finite value$"):
            corrupt_suite(suite, CorruptionSpec("contrast_scale", 1), seed=3)


def test_a_built_suite_is_frozen_so_it_stays_within_its_contract():
    suite = gen_suite(_CFG)
    assert isinstance(suite.tasks, tuple)
    with pytest.raises(FrozenInstanceError):
        suite.task("task0").x_test = np.zeros((0, 6))  # 0 rows, which the contract forbids
    with pytest.raises(FrozenInstanceError):
        suite.tasks = ()
